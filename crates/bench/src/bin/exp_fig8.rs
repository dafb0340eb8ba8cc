//! Figure 8: *measured* issue rate and instructions-per-L1-miss for each
//! SORD hot spot on BG/Q — the hardware-counter view that corroborates the
//! model's bottleneck classification (stalled pipelines and dense misses
//! where the model projects memory-bound blocks).

use std::collections::HashMap;
use xflow_bench::{eval_run, maybe_write_json, opts, workload, FigureData, TOP_K};

fn main() {
    let opts = opts();
    let w = workload("sord");
    let m = xflow::bgq();
    let run = eval_run(&w, &m, opts.scale);

    println!("=== Figure 8: measured issue rate and L1 behaviour per SORD hot spot ({}) ===\n", m.name);
    println!(
        "{:<4} {:<26} {:>12} {:>16} {:>14}",
        "#", "hot spot (measured order)", "issue (IPC)", "instr / L1 miss", "model bound"
    );
    let mut series: HashMap<String, Vec<f64>> = HashMap::new();
    let mut labels = Vec::new();
    for (i, &unit) in run.cmp.measured_ranking.iter().take(TOP_K).enumerate() {
        let ipc = run.measured.issue_rate(unit);
        let ipm = run.measured.instr_per_l1_miss(unit);
        let bound = run.mp.unit_breakdown.get(&unit).map_or("-", |b| b.bound());
        println!("{:<4} {:<26} {:>12.3} {:>16.1} {:>14}", i + 1, run.app.units.name(unit), ipc, ipm, bound);
        series.entry("issue_rate".into()).or_default().push(ipc);
        series.entry("instr_per_l1_miss".into()).or_default().push(ipm);
        labels.push(run.app.units.name(unit));
    }
    println!(
        "\nlow IPC together with few instructions per L1 miss marks the memory-\n\
         stalled spots — matching the blocks Figure 6 projects as memory-bound."
    );
    let data =
        FigureData { experiment: "fig8".into(), workload: "SORD".into(), machine: m.name.clone(), series, labels };
    maybe_write_json(&opts, "fig8", &data);
}
