//! Criterion benchmark for the incremental `Session` layer: cold modeling
//! (every stage from scratch on a fresh memory-only `Session`) vs a warm
//! `Session` load (every stage served from the in-memory content-addressed
//! cache) for all five benchmark workloads.
//!
//! The warm arm still pays for cloning the cached artifacts out of their
//! `Arc`s and rebuilding the unit table, so it is not free — but it skips
//! the profiled run, translation, and BET build, which dominate
//! cold modeling. The `exp_session` binary records the measured ratio in
//! `results/BENCH_session.json` and asserts the ≥5× suite-level win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xflow::{Scale, Session};

fn bench_session_warm_start(c: &mut Criterion) {
    let scale = Scale::Test;
    let mut g = c.benchmark_group("session_warm_start");
    for w in xflow_workloads::all() {
        let inputs = w.inputs(scale);

        g.bench_with_input(BenchmarkId::new("cold", w.name), &w, |b, w| {
            b.iter(|| Session::new().model(black_box(w.source), &inputs).unwrap().bet.len())
        });

        let session = Session::new();
        session.model(w.source, &inputs).unwrap(); // prime the caches
        g.bench_with_input(BenchmarkId::new("warm", w.name), &w, |b, w| {
            b.iter(|| session.model(black_box(w.source), &inputs).unwrap().bet.len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_session_warm_start);
criterion_main!(benches);
