//! Section VII-C: cross-block cache interactions. The paper traces part of
//! its projection error to hot spots reusing data other hot spots brought
//! into the cache (SORD's velocity kernel vs its stress kernels). The
//! simulator tracks, per block, how many L1 hits land on lines whose
//! previous toucher was a different block — the quantity the constant
//! hit-rate projection model cannot represent.

use std::collections::HashMap;
use xflow_bench::{eval_run, maybe_write_json, opts, workload, FigureData, TOP_K};

fn main() {
    let opts = opts();
    let w = workload("sord");
    let m = xflow::bgq();
    let run = eval_run(&w, &m, opts.scale);

    println!("=== §VII-C: cross-block cache reuse per SORD hot spot ({}) ===\n", m.name);
    println!("{:<4} {:<26} {:>14} {:>14} {:>12}", "#", "hot spot (measured)", "cross hits", "self hits", "cross share");

    let mut series: HashMap<String, Vec<f64>> = HashMap::new();
    let mut labels = Vec::new();
    for (i, &unit) in run.cmp.measured_ranking.iter().take(TOP_K).enumerate() {
        let sim = run.measured.per_unit.get(&unit).copied().unwrap_or_default();
        let (c, o) = (sim.cross_hits, sim.self_hits);
        let share = if c + o > 0 { c as f64 / (c + o) as f64 } else { 0.0 };
        println!("{:<4} {:<26} {:>14} {:>14} {:>11.1}%", i + 1, run.app.units.name(unit), c, o, share * 100.0);
        series.entry("cross_share".into()).or_default().push(share);
        labels.push(run.app.units.name(unit));
    }
    println!(
        "\nblocks that consume data another kernel just produced (stress_xx reads\n\
         the velocities vel_update wrote; attenuate reads the fresh stress\n\
         tensors) show the highest cross-block shares; first-touch init loops\n\
         show zero — the interaction the constant-hit-rate projection cannot\n\
         see, and a named source of its error in the paper (§VII-C)."
    );
    let data =
        FigureData { experiment: "reuse".into(), workload: "SORD".into(), machine: m.name.clone(), series, labels };
    maybe_write_json(&opts, "reuse", &data);
}
