//! Criterion benchmark for the batched SoA evaluation kernel.
//!
//! Compares, on the 25-point CFD grid the paper's sweep experiments use:
//!
//! * `plan_evaluate` — the scalar path: one [`xflow_hotspot::ProjectionPlan::evaluate`]
//!   per machine, allocating a fresh `Projection` each point,
//! * `evaluate_columns` — the fast path: pre-resolved
//!   [`xflow_hw::MachineSpec`] constants driven through the lane-vectorized
//!   [`xflow_hotspot::PlanKernel::evaluate_columns`] into one dense
//!   columnar arena (no per-point `Projection`), and
//! * `spec_resolve` — the once-per-machine constant folding, to show it is
//!   negligible against even a single evaluation.
//!
//! The `exp_kernel` binary records the measured columnar speedup in
//! `results/BENCH_kernel.json` and asserts the ≥3× acceptance bound; this
//! benchmark exists for interactive profiling of the same arms.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xflow::{generic, Axis, DesignSpace, ModeledApp, Roofline, Scale};
use xflow_hotspot::ProjectionPlan;
use xflow_hw::MachineSpec;

fn grid_machines() -> Vec<xflow::MachineModel> {
    DesignSpace::grid(
        generic(),
        vec![Axis::dram_bw(&[0.5, 1.0, 2.0, 4.0, 8.0]), Axis::mlp(&[2.0, 4.0, 8.0, 16.0, 32.0])],
    )
    .machines()
    .to_vec()
}

fn bench_evaluate_kernel(c: &mut Criterion) {
    let app = ModeledApp::from_workload(&xflow_workloads::cfd(), Scale::Test).unwrap();
    let libs = xflow::default_library().clone();
    let machines = grid_machines();
    let plan = ProjectionPlan::new(&app.bet, &libs);
    let kernel = plan.kernel();
    let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();

    let mut g = c.benchmark_group("evaluate_kernel_25pt");

    g.bench_function("plan_evaluate", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for m in &machines {
                acc += plan.evaluate(black_box(m), &Roofline).total_time;
            }
            acc
        })
    });

    g.bench_function("evaluate_columns", |b| {
        b.iter(|| {
            let cols = kernel.evaluate_columns(black_box(&specs));
            cols.totals().iter().sum::<f64>()
        })
    });

    g.bench_function("spec_resolve", |b| {
        b.iter(|| {
            let mut lanes = 0.0;
            for m in &machines {
                lanes += MachineSpec::resolve(black_box(m)).cores;
            }
            lanes
        })
    });

    g.finish();
}

criterion_group!(benches, bench_evaluate_kernel);
criterion_main!(benches);
