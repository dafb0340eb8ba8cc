//! Abstract/Section I claim: the analysis time does not increase with the
//! input data size, while any execution-based approach (the simulator here,
//! cycle-accurate simulation in general) scales at least linearly.

use std::collections::HashMap;
use std::time::Instant;
use xflow::{bgq, initial_env, InputSpec};
use xflow_bench::{maybe_write_json, opts, FigureData};

fn main() {
    let opts = opts();
    let w = xflow_bench::workload("srad");
    let prog = w.program();
    let m = bgq();

    println!("=== analysis cost vs input size (SRAD, image n × n) ===\n");
    println!("{:>8} {:>16} {:>16} {:>16} {:>12}", "n", "model time", "BET nodes", "sim time", "sim events~");

    let mut model_times = Vec::new();
    let mut sim_times = Vec::new();
    let mut labels = Vec::new();
    let sizes: &[f64] =
        if matches!(opts.scale, xflow::Scale::Test) { &[16.0, 32.0, 64.0] } else { &[16.0, 32.0, 64.0, 128.0, 256.0] };
    for &n in sizes {
        let inputs = InputSpec::from_pairs([("ROWS", n), ("COLS", n), ("SAMPLE", 8.0), ("ITERS", 2.0)]);

        // model path: profile once (input-dependent but cheap at any size —
        // the paper profiles once on a small local run), then translate,
        // build the BET, and project. We time the *analysis* (post-profile).
        let prof = xflow_minilang::profile(&prog, &inputs).expect("profile");
        let t0 = Instant::now();
        let tr = xflow_minilang::translate(&prog, &prof).expect("translate");
        let env = initial_env(&tr, &inputs);
        let bet = xflow_bet::build(&tr.skeleton, &env).expect("bet");
        let libs = xflow_sim::calibrate_library(128);
        let proj = xflow_hotspot::ProjectionPlan::new(&bet, &libs).evaluate(&m, &xflow_hw::Roofline);
        let model_dt = t0.elapsed();

        // execution path: the simulator must run every operation
        let t1 = Instant::now();
        let rep = xflow_sim::simulate_with_seed(&prog, &inputs, &m, Default::default(), xflow_minilang::DEFAULT_SEED)
            .expect("simulate");
        let sim_dt = t1.elapsed();

        println!("{:>8} {:>16.3?} {:>16} {:>16.3?} {:>12.2e}", n, model_dt, bet.len(), sim_dt, rep.total_cycles);
        let _ = proj;
        model_times.push(model_dt.as_secs_f64());
        sim_times.push(sim_dt.as_secs_f64());
        labels.push(format!("n={n}"));
    }

    let model_growth = model_times.last().unwrap() / model_times.first().unwrap();
    let sim_growth = sim_times.last().unwrap() / sim_times.first().unwrap();
    let size_growth = (sizes.last().unwrap() / sizes.first().unwrap()).powi(2);
    println!(
        "\ninput grew {size_growth:.0}×: model time grew {model_growth:.1}×, simulation time grew {sim_growth:.1}×"
    );
    println!("(the BET node count is identical at every size — the analysis is structural)");
    let mut series: HashMap<String, Vec<f64>> = HashMap::new();
    series.insert("model_seconds".into(), model_times);
    series.insert("sim_seconds".into(), sim_times);
    let data =
        FigureData { experiment: "scaling".into(), workload: "SRAD".into(), machine: m.name.clone(), series, labels };
    maybe_write_json(&opts, "scaling", &data);
}
