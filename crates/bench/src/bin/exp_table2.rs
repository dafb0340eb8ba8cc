//! Table II: the CFD top-10 hot spot list in detail (names, projected and
//! measured coverage, per-block bottleneck classification), including the
//! divide-heavy velocity block whose runtime the model under-projects
//! (paper Section VII-B).

use xflow_bench::{eval_run, maybe_write_json, opts, workload, FigureData, TOP_K};

fn main() {
    let opts = opts();
    let w = workload("cfd");
    let m = xflow::bgq();
    let run = eval_run(&w, &m, opts.scale);

    println!("=== Table II: CFD hot spots on {} ===\n", m.name);
    println!(
        "{:<4} {:<26} {:>11} {:>11} {:>9} {:>9}  bound",
        "#", "block (measured order)", "meas (s)", "proj (s)", "meas %", "proj %"
    );
    let total_m = run.measured.total();
    for (i, &unit) in run.cmp.measured_ranking.iter().take(TOP_K).enumerate() {
        let tm = run.measured.oracle.times.get(&unit).copied().unwrap_or(0.0);
        let tp = run.mp.unit_times.get(&unit).copied().unwrap_or(0.0);
        let bound =
            run.mp.unit_breakdown.get(&unit).map(|b| if b.tm > b.tc { "memory" } else { "compute" }).unwrap_or("-");
        println!(
            "{:<4} {:<26} {:>11.3e} {:>11.3e} {:>8.2}% {:>8.2}%  {}",
            i + 1,
            run.app.units.name(unit),
            tm,
            tp,
            tm / total_m * 100.0,
            tp / run.mp.total * 100.0,
            bound
        );
    }

    // spotlight the velocity block (the paper's "offending" hot spot)
    if let Some((&unit, _)) =
        run.measured.oracle.times.iter().find(|(u, _)| run.app.units.name(**u).starts_with("velocity"))
    {
        let meas = run.measured.oracle.times[&unit] / total_m;
        let proj = run.mp.unit_times.get(&unit).copied().unwrap_or(0.0) / run.mp.total;
        println!(
            "\nvelocity block: measured {:.1}% vs projected {:.1}% of runtime — the\n\
             under-projection the paper traces to BG/Q expanding each divide into a\n\
             reciprocal-estimate + Newton-iteration sequence (all fp ops modeled equal).",
            meas * 100.0,
            proj * 100.0
        );
        let data = FigureData {
            experiment: "table2".into(),
            workload: "CFD".into(),
            machine: m.name.clone(),
            series: [
                ("velocity_measured_share".to_string(), vec![meas]),
                ("velocity_projected_share".to_string(), vec![proj]),
            ]
            .into_iter()
            .collect(),
            labels: run.cmp.measured_ranking.iter().take(TOP_K).map(|&u| run.app.units.name(u)).collect(),
        };
        maybe_write_json(&opts, "table2_cfd", &data);
    }
}
