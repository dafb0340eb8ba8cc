//! Batched SoA evaluation kernel benchmark: scalar plan evaluation vs the
//! machine-specialized kernel (pre-resolved [`xflow_hw::MachineSpec`]
//! constants + reusable [`xflow_hotspot::Scratch`] buffers) vs a batch that
//! materializes one `Projection` per spec vs the columnar lane-vectorized batch
//! ([`xflow_hotspot::PlanKernel::evaluate_columns`]), plus work-stealing
//! sweep throughput on the same grid.
//!
//! The batch arm is split into kernel compute ([`evaluate_spec_into`] into
//! a warm scratch) and Projection materialization
//! (`batch_materialize_overhead_seconds`) — the overhead the columnar SoA
//! output removes. Every timed path is first checked `to_bits`-identical
//! to the scalar evaluator — the kernel is a performance refactoring,
//! never a numeric one. Writes `results/BENCH_kernel.json` for the CI
//! regression gate.
//!
//! [`evaluate_spec_into`]: xflow_hotspot::PlanKernel::evaluate_spec_into

use std::collections::HashMap;
use std::time::Instant;
use xflow::{generic, Axis, DesignSpace, ModeledApp, Roofline, SweepOptions};
use xflow_bench::opts;
use xflow_hotspot::ProjectionPlan;
use xflow_hw::MachineSpec;

/// Best-of-5 average: each trial averages `reps` calls, and the minimum
/// trial is reported — the least-interrupted run is the closest estimate
/// of the true cost on a shared host.
fn time_n<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

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

    // the batch arm: one warm scratch across the specs, materializing an
    // owned Projection per point
    let evaluate_batch = |scratch: &mut xflow_hotspot::Scratch| -> Vec<xflow_hotspot::Projection> {
        specs
            .iter()
            .map(|spec| {
                kernel.evaluate_spec_into(spec, scratch);
                scratch.projection(&kernel)
            })
            .collect()
    };

    // correctness first: every kernel path must be bit-identical to the
    // scalar evaluator before any of its timings mean anything
    let batch = evaluate_batch(&mut kernel.make_scratch());
    let columns = kernel.evaluate_columns(&specs);
    let mut scratch = kernel.make_scratch();
    for (i, ((machine, spec), from_batch)) in machines.iter().zip(&specs).zip(&batch).enumerate() {
        let scalar = plan.evaluate(machine, &Roofline);
        kernel.evaluate_spec_into(spec, &mut scratch);
        let from_scratch = scratch.projection(&kernel);
        for (label, candidate) in [("batch", from_batch), ("scratch", &from_scratch)] {
            assert_eq!(
                candidate.total_time.to_bits(),
                scalar.total_time.to_bits(),
                "{label} path diverged on {}",
                machine.name
            );
            for (node, (a, b)) in candidate.node_costs.iter().zip(&scalar.node_costs).enumerate() {
                assert_eq!(a.total.to_bits(), b.total.to_bits(), "{label} node {node} on {}", machine.name);
            }
        }
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
    println!("bit-identity: batch + scratch + columnar paths match scalar evaluate on all {n} points");

    // scalar baseline: the per-machine plan evaluation the kernel replaces
    let eval_point_s = time_n(reps, || {
        for m in &machines {
            std::hint::black_box(plan.evaluate(m, &Roofline).total_time);
        }
    }) / n as f64;

    // kernel compute alone: pre-resolved specs + one warm scratch, zero
    // allocations, no Projection materialized
    let mut scratch = kernel.make_scratch();
    let kernel_point_s = time_n(reps, || {
        for spec in &specs {
            kernel.evaluate_spec_into(spec, &mut scratch);
            std::hint::black_box(scratch.total_time());
        }
    }) / n as f64;

    // batch: includes materializing a Projection per machine — the
    // per-point overhead vs the kernel arm is pure materialization
    let batch_point_s = time_n(reps, || {
        std::hint::black_box(evaluate_batch(&mut kernel.make_scratch()).len());
    }) / n as f64;
    let batch_materialize_overhead_s = (batch_point_s - kernel_point_s).max(0.0);

    // columnar SoA batch: lane-vectorized across machines, dense column
    // output, no per-point Projection
    let batch_soa_point_s = time_n(reps, || {
        std::hint::black_box(kernel.evaluate_columns(&specs).totals().len());
    }) / n as f64;

    let speedup_kernel_vs_evaluate = eval_point_s / kernel_point_s;
    let speedup_batch_vs_evaluate = eval_point_s / batch_point_s;
    let speedup_batch_soa_vs_evaluate = eval_point_s / batch_soa_point_s;

    println!("scalar evaluate (per point):        {eval_point_s:>12.3e} s");
    println!("kernel + warm scratch (per point):  {kernel_point_s:>12.3e} s  ({speedup_kernel_vs_evaluate:.1}x)");
    println!("batch + Projection (per point):     {batch_point_s:>12.3e} s  ({speedup_batch_vs_evaluate:.1}x)");
    println!("  of which materialization:         {batch_materialize_overhead_s:>12.3e} s");
    println!("columnar SoA batch (per point):     {batch_soa_point_s:>12.3e} s  ({speedup_batch_soa_vs_evaluate:.1}x)");

    // work-stealing sweep throughput over the same grid (columnar arena
    // output), auto threads clamped to the host (a core-starved runner
    // measures 1-worker reality, not oversubscription noise)
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let sweep_threads = cores.min(8);
    app.plan();
    app.kernel();
    let sweep_s = time_n(reps.min(10), || {
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
        kernel_point_seconds: f64,
        batch_point_seconds: f64,
        batch_soa_point_seconds: f64,
        batch_materialize_overhead_seconds: f64,
        speedup_kernel_vs_evaluate: f64,
        speedup_batch_vs_evaluate: f64,
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
        kernel_point_seconds: kernel_point_s,
        batch_point_seconds: batch_point_s,
        batch_soa_point_seconds: batch_soa_point_s,
        batch_materialize_overhead_seconds: batch_materialize_overhead_s,
        speedup_kernel_vs_evaluate,
        speedup_batch_vs_evaluate,
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
        speedup_kernel_vs_evaluate >= min_speedup,
        "specialized kernel must be >={min_speedup}x the scalar evaluator per point (got {speedup_kernel_vs_evaluate:.1}x)"
    );
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
