//! Two-phase projection engine benchmark: plan build vs per-point
//! evaluation, legacy-vs-plan speedup on a 5×5 design grid, and sweep
//! throughput (points/sec) at 1/2/4/8 worker threads.
//!
//! Writes `results/BENCH_sweep.json` (always) so the speedup and scaling
//! claims are recorded alongside the other experiment outputs.

use std::collections::HashMap;
use xflow::{generic, Axis, DesignSpace, ModeledApp, Roofline, SweepOptions};
use xflow_bench::{min_of_k, opts};
use xflow_hotspot::reference::project_single_pass;
use xflow_hotspot::ProjectionPlan;

fn main() {
    let o = opts();
    let w = xflow_workloads::cfd();
    let app = ModeledApp::from_workload(&w, o.scale).expect("pipeline");
    let libs = xflow::default_library().clone();
    let reps = if matches!(o.scale, xflow::Scale::Test) { 10 } else { 30 };

    let space = DesignSpace::grid(
        generic(),
        vec![Axis::dram_bw(&[0.5, 1.0, 2.0, 4.0, 8.0]), Axis::mlp(&[2.0, 4.0, 8.0, 16.0, 32.0])],
    );
    let machines = space.machines().to_vec();
    println!("=== two-phase projection: {}-point grid on {} ===\n", machines.len(), w.name);

    // phase 1: plan build (once per application)
    let plan_build_s = min_of_k(1, reps, || {
        std::hint::black_box(ProjectionPlan::new(&app.bet, &libs));
    });
    let plan = ProjectionPlan::new(&app.bet, &libs);

    // phase 2: one roofline-only evaluation per machine
    let eval_point_s = min_of_k(1, reps, || {
        for m in &machines {
            std::hint::black_box(plan.evaluate(m, &Roofline).total_time);
        }
    }) / machines.len() as f64;

    // the legacy public path: per-point library calibration + fused walk
    let legacy_grid_s = min_of_k(1, reps.min(10), || {
        for m in &machines {
            let libs = xflow_sim::calibrate_library(512);
            std::hint::black_box(project_single_pass(&app.bet, m, &Roofline, &libs).total_time);
        }
    });
    // fused walk with calibration hoisted — the walk-only baseline
    let single_pass_grid_s = min_of_k(1, reps, || {
        for m in &machines {
            std::hint::black_box(project_single_pass(&app.bet, m, &Roofline, &libs).total_time);
        }
    });

    let plan_grid_s = eval_point_s * machines.len() as f64;
    let speedup_vs_legacy = legacy_grid_s / plan_grid_s;
    let speedup_vs_single_pass = single_pass_grid_s / plan_grid_s;

    println!("plan build (phase 1, once):        {:>12.3e} s", plan_build_s);
    println!("plan evaluate (phase 2, per point): {:>12.3e} s", eval_point_s);
    println!("25-point grid, plan reuse:          {:>12.3e} s", plan_grid_s);
    println!("25-point grid, legacy project_on:   {:>12.3e} s  ({speedup_vs_legacy:.1}x slower)", legacy_grid_s);
    println!(
        "25-point grid, single-pass walks:   {:>12.3e} s  ({speedup_vs_single_pass:.1}x slower)",
        single_pass_grid_s
    );

    // sweep throughput at 1/2/4/8 worker threads. Points are cheap
    // (microseconds), so the grid is made large enough that per-worker
    // work dominates thread startup and the pool can scale.
    let freqs: Vec<f64> = (1..=16).map(|i| 0.5 + 0.25 * i as f64).collect();
    let core_counts: Vec<f64> = (0..10).map(|i| (1u32 << i) as f64).collect();
    let big = DesignSpace::grid(
        generic(),
        vec![
            Axis::dram_bw(&[0.5, 1.0, 2.0, 4.0, 8.0]),
            Axis::mlp(&[2.0, 4.0, 8.0, 16.0, 32.0]),
            Axis::freq_ghz(&freqs),
            Axis::cores(&core_counts),
        ],
    );
    app.plan(); // build the cached plan outside the timed region
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\nsweep throughput, {}-point grid ({cores} CPU core(s) available):", big.len());
    println!("{:>8} {:>14} {:>14} {:>9}", "threads", "sweep (s)", "points/sec", "scaling");
    // oversubscribing a core-starved host only measures scheduler noise, so
    // the requested ladder is clamped to the hardware; the clamp itself is
    // recorded in the JSON so downstream readers see which points ran.
    let requested = [1usize, 2, 4, 8];
    let mut thread_counts = Vec::new();
    let mut points_per_sec = Vec::new();
    let mut base_pps = 0.0;
    for &want in &requested {
        let threads = want.min(cores);
        if thread_counts.contains(&(threads as f64)) {
            println!("{:>8} {:>41}", want, format!("(clamped to {threads}, already measured)"));
            continue;
        }
        let dt = min_of_k(1, reps.min(10), || {
            std::hint::black_box(big.sweep_opts(&app, SweepOptions::with_threads(threads)).points.len());
        });
        let pps = big.len() as f64 / dt;
        if base_pps == 0.0 {
            base_pps = pps;
        }
        println!("{:>8} {:>14.3e} {:>14.0} {:>8.2}x", threads, dt, pps, pps / base_pps);
        thread_counts.push(threads as f64);
        points_per_sec.push(pps);
    }
    if cores == 1 {
        println!("(single-core host: thread ladder clamped to 1 worker)");
    }

    #[derive(serde::Serialize)]
    struct SweepBench {
        workload: String,
        grid_points: usize,
        plan_build_seconds: f64,
        eval_point_seconds: f64,
        grid_plan_reuse_seconds: f64,
        grid_legacy_seconds: f64,
        grid_single_pass_seconds: f64,
        speedup_vs_legacy: f64,
        speedup_vs_single_pass: f64,
        throughput_grid_points: usize,
        available_cores: usize,
        threads_requested: Vec<f64>,
        threads: Vec<f64>,
        points_per_sec: Vec<f64>,
        extra: HashMap<String, f64>,
    }
    let data = SweepBench {
        workload: w.name.to_string(),
        grid_points: machines.len(),
        plan_build_seconds: plan_build_s,
        eval_point_seconds: eval_point_s,
        grid_plan_reuse_seconds: plan_grid_s,
        grid_legacy_seconds: legacy_grid_s,
        grid_single_pass_seconds: single_pass_grid_s,
        speedup_vs_legacy,
        speedup_vs_single_pass,
        throughput_grid_points: big.len(),
        available_cores: cores,
        threads_requested: requested.iter().map(|&t| t as f64).collect(),
        threads: thread_counts,
        points_per_sec,
        extra: HashMap::new(),
    };
    std::fs::create_dir_all("results").expect("create results dir");
    let path = "results/BENCH_sweep.json";
    std::fs::write(path, serde_json::to_string_pretty(&data).expect("serialize")).expect("write json");
    println!("\n[json written to {path}]");

    assert!(
        speedup_vs_legacy >= 5.0,
        "two-phase plan reuse must be >=5x the legacy per-point path (got {speedup_vs_legacy:.1}x)"
    );
}
