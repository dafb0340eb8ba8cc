//! Ablation: how much do the paper's deliberate simplifications cost?
//! Compares the default extended roofline against the classic roofline
//! (perfect overlap), a divide-aware variant, and a full-vectorization
//! variant, reporting selection quality per workload on BG/Q.

use std::collections::HashMap;
use xflow::{bgq, compare, default_session, MachineProjection, Measured};
use xflow_bench::{maybe_write_json, opts, FigureData, TOP_K};
use xflow_hw::{ClassicRoofline, DivAwareRoofline, PerfModel, RefinedModel, Roofline, VectorAwareRoofline};
use xflow_minilang::DEFAULT_SEED;

fn main() {
    let opts = opts();
    let m = bgq();
    let refined = RefinedModel::default();
    let models: [&dyn PerfModel; 5] = [&Roofline, &ClassicRoofline, &DivAwareRoofline, &VectorAwareRoofline, &refined];

    println!("=== model ablation on {} ===", m.name);
    println!("\nmean selection quality Q(1..10) — ranking fidelity:\n");
    print!("{:<10}", "workload");
    for model in models {
        print!("{:>18}", model.name());
    }
    println!();

    let mut series: HashMap<String, Vec<f64>> = HashMap::new();
    let mut labels = Vec::new();
    let mut share_rows: Vec<(String, Vec<f64>)> = Vec::new();
    for w in xflow_workloads::all() {
        let (app, _, sim) = default_session()
            .model_and_sim(w.source, &w.inputs(opts.scale), Some(&w), &m, DEFAULT_SEED)
            .expect("pipeline");
        let measured = Measured::new(&app, sim);
        print!("{:<10}", w.name);
        let mut errs = Vec::new();
        for model in models {
            let mp = MachineProjection::new(&app.units, &m, app.plan().evaluate(&m, model));
            let cmp = compare(&mp, &measured, TOP_K);
            let mean_q = cmp.quality.iter().sum::<f64>() / cmp.quality.len() as f64;
            print!("{:>17.1}%", mean_q * 100.0);
            series.entry(model.name().to_string()).or_default().push(mean_q);
            // mean absolute coverage-share error over the measured top-10:
            // how well each model predicts *how much* time each spot takes
            let mt = measured.total().max(1e-300);
            let err: f64 = cmp
                .measured_ranking
                .iter()
                .take(TOP_K)
                .map(|u| {
                    let ms = measured.oracle.times.get(u).copied().unwrap_or(0.0) / mt;
                    let ps = mp.unit_breakdown.get(u).map_or(0.0, |c| c.total) / mp.total.max(1e-300);
                    (ms - ps).abs()
                })
                .sum::<f64>()
                / TOP_K as f64;
            errs.push(err);
        }
        println!();
        share_rows.push((w.name.to_string(), errs));
        labels.push(w.name.to_string());
    }

    println!("\nmean |measured − projected| coverage share over the top 10 — magnitude fidelity:\n");
    print!("{:<10}", "workload");
    for model in models {
        print!("{:>18}", model.name());
    }
    println!();
    for (name, errs) in &share_rows {
        print!("{name:<10}");
        for e in errs {
            print!("{:>17.2}%", e * 100.0);
        }
        println!();
        series.entry(format!("share_error_{name}")).or_default().extend(errs.iter().copied());
    }
    println!(
        "\nroofline+div recovers the CFD divide error; roofline+simd mainly\n\
         changes machines whose compilers vectorize beyond the model's default."
    );
    let data =
        FigureData { experiment: "ablation".into(), workload: "all".into(), machine: m.name.clone(), series, labels };
    maybe_write_json(&opts, "ablation", &data);
}
