//! Batched SoA evaluation kernel benchmark: scalar plan evaluation vs the
//! columnar lane-vectorized batch
//! ([`xflow_hotspot::PlanKernel::evaluate_columns`], pre-resolved
//! [`xflow_hw::MachineSpec`] constants, dense column output), plus
//! work-stealing sweep throughput on the same grid.
//!
//! The columnar path is first checked `to_bits`-identical to the scalar
//! evaluator — the kernel is a performance refactoring, never a numeric
//! one. Writes `results/BENCH_kernel.json` for the CI regression gate.

use std::collections::HashMap;
use xflow::{generic, Axis, DesignSpace, ModeledApp, Roofline, SweepOptions};
use xflow_bench::{min_of_k, opts};
use xflow_hotspot::ProjectionPlan;
use xflow_hw::MachineSpec;

fn main() {
    let o = opts();
    let w = xflow_workloads::cfd();
    let app = ModeledApp::from_workload(&w, o.scale).expect("pipeline");
    let libs = xflow::default_library().clone();
    let test_scale = matches!(o.scale, xflow::Scale::Test);
    let reps = if test_scale { 20 } else { 60 };

    let space = DesignSpace::grid(
        generic(),
        vec![Axis::dram_bw(&[0.5, 1.0, 2.0, 4.0, 8.0]), Axis::mlp(&[2.0, 4.0, 8.0, 16.0, 32.0])],
    );
    let machines = space.machines().to_vec();
    let n = machines.len();
    let lane_width = xflow_hotspot::lane_width();
    println!("=== SoA kernel: {n}-point grid on {} (lane width {lane_width}) ===\n", w.name);

    let plan = ProjectionPlan::new(&app.bet, &libs);
    let kernel = plan.kernel();
    let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();

    // correctness first: the columnar path must be bit-identical to the
    // scalar evaluator before any of its timings mean anything
    let columns = kernel.evaluate_columns(&specs);
    for (i, machine) in machines.iter().enumerate() {
        let scalar = plan.evaluate(machine, &Roofline);
        assert_eq!(
            columns.total(i).to_bits(),
            scalar.total_time.to_bits(),
            "columnar path diverged on {}",
            machine.name
        );
        for sc in columns.stmt_row(i) {
            assert_eq!(
                sc.total.to_bits(),
                scalar.per_stmt[&sc.stmt].total.to_bits(),
                "columnar stmt row diverged on {}",
                machine.name
            );
        }
    }
    println!("bit-identity: the columnar path matches scalar evaluate on all {n} points");

    // scalar baseline: the per-machine plan evaluation the kernel replaces
    let eval_point_s = min_of_k(5, reps, || {
        for m in &machines {
            std::hint::black_box(plan.evaluate(m, &Roofline).total_time);
        }
    }) / n as f64;

    // columnar SoA batch: lane-vectorized across machines, dense column
    // output, no per-point Projection
    let batch_soa_point_s = min_of_k(5, reps, || {
        std::hint::black_box(kernel.evaluate_columns(&specs).totals().len());
    }) / n as f64;

    let speedup_batch_soa_vs_evaluate = eval_point_s / batch_soa_point_s;

    println!("scalar evaluate (per point):        {eval_point_s:>12.3e} s");
    println!("columnar SoA batch (per point):     {batch_soa_point_s:>12.3e} s  ({speedup_batch_soa_vs_evaluate:.1}x)");

    // work-stealing sweep throughput over the same grid (columnar arena
    // output), auto threads clamped to the host (a core-starved runner
    // measures 1-worker reality, not oversubscription noise)
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let sweep_threads = cores.min(8);
    app.plan();
    app.kernel();
    let sweep_s = min_of_k(5, reps.min(10), || {
        std::hint::black_box(space.sweep_opts(&app, SweepOptions::with_threads(sweep_threads)).points.len());
    });
    let sweep_points_per_sec = n as f64 / sweep_s;
    println!("\nwork-stealing sweep (up to {sweep_threads} worker(s), {cores} core(s) available):");
    println!("{n}-point sweep:                      {sweep_s:>12.3e} s  ({sweep_points_per_sec:.0} points/sec)");

    #[derive(serde::Serialize)]
    struct KernelBench {
        workload: String,
        grid_points: usize,
        lane_width: f64,
        eval_point_seconds: f64,
        batch_soa_point_seconds: f64,
        speedup_batch_soa_vs_evaluate: f64,
        available_cores: usize,
        sweep_threads: usize,
        sweep_points_per_sec: f64,
        extra: HashMap<String, f64>,
    }
    let data = KernelBench {
        workload: w.name.to_string(),
        grid_points: n,
        lane_width: lane_width as f64,
        eval_point_seconds: eval_point_s,
        batch_soa_point_seconds: batch_soa_point_s,
        speedup_batch_soa_vs_evaluate,
        available_cores: cores,
        sweep_threads,
        sweep_points_per_sec,
        extra: HashMap::new(),
    };
    std::fs::create_dir_all("results").expect("create results dir");
    let path = "results/BENCH_kernel.json";
    std::fs::write(path, serde_json::to_string_pretty(&data).expect("serialize")).expect("write json");
    println!("\n[json written to {path}]");

    // hard contract at eval scale; test scale (20 reps on a shared CI
    // runner) keeps a noise-tolerant floor, with the committed-baseline
    // gate (bench_gate, 20% tolerance) catching real regressions
    let min_speedup = if test_scale { 2.0 } else { 3.0 };
    assert!(
        speedup_batch_soa_vs_evaluate >= min_speedup,
        "columnar SoA batch must be >={min_speedup}x the scalar evaluator per point (got {speedup_batch_soa_vs_evaluate:.1}x)"
    );
    if !test_scale {
        assert!(
            sweep_points_per_sec >= 1.0e6,
            "columnar sweep must clear 1M points/s on the 25-pt grid (got {sweep_points_per_sec:.0})"
        );
    }
}
