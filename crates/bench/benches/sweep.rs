//! Criterion benchmark for the two-phase projection engine and the
//! parallel design-space sweep.
//!
//! The headline comparison: a 5×5 bandwidth × MLP grid over the CFD
//! workload, evaluated
//!
//! * the legacy way — one full `project_on`-equivalent per point
//!   (library calibration + fused single-pass BET walk), and
//! * the two-phase way — one [`xflow_hotspot::ProjectionPlan`] shared by
//!   all 25 points, each point a roofline-only evaluation.
//!
//! The plan-reuse arm must be ≥5× faster than the legacy arm
//! single-threaded (the `exp_sweep` binary records the measured ratio in
//! `results/BENCH_sweep.json`). A `single_pass_prebuilt_libs` arm is
//! included for transparency: it isolates the walk-vs-plan speedup from
//! the per-call library-calibration overhead the old public path paid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xflow::{generic, Axis, DesignSpace, ModeledApp, Roofline, Scale, SweepOptions};
use xflow_hotspot::reference::project_single_pass;
use xflow_hotspot::ProjectionPlan;

fn grid_machines() -> Vec<xflow::MachineModel> {
    DesignSpace::grid(
        generic(),
        vec![Axis::dram_bw(&[0.5, 1.0, 2.0, 4.0, 8.0]), Axis::mlp(&[2.0, 4.0, 8.0, 16.0, 32.0])],
    )
    .machines()
    .to_vec()
}

fn bench_two_phase(c: &mut Criterion) {
    let app = ModeledApp::from_workload(&xflow_workloads::cfd(), Scale::Test).unwrap();
    let machines = grid_machines();
    let libs = xflow::default_library().clone();

    let mut g = c.benchmark_group("sweep_25pt");

    // the old public path: every point re-calibrates the library registry
    // and re-walks the BET
    g.bench_function("legacy_project_per_point", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for m in &machines {
                let libs = xflow_sim::calibrate_library(512);
                acc += project_single_pass(black_box(&app.bet), m, &Roofline, &libs).total_time;
            }
            acc
        })
    });

    // fused walk with the calibration hoisted out — isolates walk cost
    g.bench_function("single_pass_prebuilt_libs", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for m in &machines {
                acc += project_single_pass(black_box(&app.bet), m, &Roofline, &libs).total_time;
            }
            acc
        })
    });

    // phase 1 alone
    g.bench_function("plan_build", |b| b.iter(|| ProjectionPlan::new(black_box(&app.bet), black_box(&libs))));

    // phase 2 alone, 25 points from one plan
    let plan = ProjectionPlan::new(&app.bet, &libs);
    g.bench_function("plan_reuse_serial", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for m in &machines {
                acc += plan.evaluate(m, &Roofline).total_time;
            }
            acc
        })
    });

    g.finish();
}

fn bench_sweep_threads(c: &mut Criterion) {
    let app = ModeledApp::from_workload(&xflow_workloads::cfd(), Scale::Test).unwrap();
    app.plan(); // hoist plan construction out of the timed region
    let space = DesignSpace::grid(
        generic(),
        vec![
            Axis::dram_bw(&[0.5, 1.0, 2.0, 4.0, 8.0]),
            Axis::mlp(&[2.0, 4.0, 8.0, 16.0, 32.0]),
            Axis::freq_ghz(&[1.0, 1.6, 2.4, 3.2]),
        ],
    );

    let mut g = c.benchmark_group("sweep_threads_100pt");
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| space.sweep_opts(black_box(&app), SweepOptions::with_threads(t)).points.len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_two_phase, bench_sweep_threads);
criterion_main!(benches);
