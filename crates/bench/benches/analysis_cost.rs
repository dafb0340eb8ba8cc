//! Criterion benchmarks backing the paper's efficiency claims:
//!
//! * `bet_build/*` — BET construction time is flat across input sizes
//!   (the Abstract's "analysis time does not increase with the input data
//!   size");
//! * `pipeline/*` — cost of each analysis stage (translate, build, project,
//!   select) on the SORD skeleton;
//! * `simulate/*` — execution-driven simulation cost for comparison: unlike
//!   the analysis, it scales with the input;
//! * `cache/*` — raw cache-model throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xflow::{bgq, initial_env, InputSpec, ModeledApp, Scale, EVAL_CRITERIA};
use xflow_minilang::DEFAULT_SEED;
use xflow_sim::simulate_with_seed;

fn bench_bet_build(c: &mut Criterion) {
    let w = xflow_workloads::srad();
    let prog = w.program();
    let prof = xflow_minilang::profile(&prog, &w.inputs(Scale::Test)).unwrap();
    let tr = xflow_minilang::translate(&prog, &prof).unwrap();

    let mut g = c.benchmark_group("bet_build");
    for n in [32.0, 1024.0, 32768.0, 1_048_576.0] {
        let inputs = InputSpec::from_pairs([("ROWS", n), ("COLS", n), ("SAMPLE", 16.0), ("ITERS", 4.0)]);
        let env = initial_env(&tr, &inputs);
        g.bench_with_input(BenchmarkId::from_parameter(n as u64), &env, |b, env| {
            b.iter(|| xflow_bet::build(black_box(&tr.skeleton), black_box(env)).unwrap())
        });
    }
    g.finish();
}

fn bench_pipeline_stages(c: &mut Criterion) {
    let w = xflow_workloads::sord();
    let prog = w.program();
    let inputs = w.inputs(Scale::Test);
    let prof = xflow_minilang::profile(&prog, &inputs).unwrap();
    let tr = xflow_minilang::translate(&prog, &prof).unwrap();
    let env = initial_env(&tr, &inputs);
    let bet = xflow_bet::build(&tr.skeleton, &env).unwrap();
    let libs = xflow_sim::calibrate_library(512);
    let machine = bgq();

    let mut g = c.benchmark_group("pipeline");
    g.bench_function("translate", |b| {
        b.iter(|| xflow_minilang::translate(black_box(&prog), black_box(&prof)).unwrap())
    });
    g.bench_function("bet_build", |b| b.iter(|| xflow_bet::build(black_box(&tr.skeleton), black_box(&env)).unwrap()));
    g.bench_function("project", |b| {
        b.iter(|| xflow_hotspot::ProjectionPlan::new(black_box(&bet), &libs).evaluate(&machine, &xflow_hw::Roofline))
    });
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let mp = app.project_on(&machine);
    g.bench_function("select", |b| b.iter(|| mp.select(black_box(&app.units), EVAL_CRITERIA)));
    g.finish();
}

fn bench_simulation_scaling(c: &mut Criterion) {
    let w = xflow_workloads::srad();
    let prog = w.program();
    let machine = bgq();

    let mut g = c.benchmark_group("simulate");
    g.sample_size(10);
    for n in [16.0, 32.0, 64.0] {
        let inputs = InputSpec::from_pairs([("ROWS", n), ("COLS", n), ("SAMPLE", 8.0), ("ITERS", 2.0)]);
        g.bench_with_input(BenchmarkId::from_parameter(n as u64), &inputs, |b, inputs| {
            b.iter(|| simulate_with_seed(black_box(&prog), inputs, &machine, Default::default(), DEFAULT_SEED).unwrap())
        });
    }
    g.finish();
}

fn bench_engines(c: &mut Criterion) {
    // tree-walking reference vs the production (fused) bytecode VM on
    // the same workload
    let w = xflow_workloads::stassuij();
    let prog = w.program();
    let inputs = w.inputs(Scale::Test);
    let vm = xflow_minilang::compile(&prog).unwrap();

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("tree_walker", |b| {
        b.iter(|| {
            let (limits, seed) = (xflow_minilang::Limits::default(), xflow_minilang::DEFAULT_SEED);
            xflow_minilang::reference::run(black_box(&prog), &inputs, xflow_minilang::NullTracer, limits, seed).unwrap()
        })
    });
    g.bench_function("bytecode_vm", |b| {
        b.iter(|| {
            let (limits, seed) = (xflow_minilang::Limits::default(), xflow_minilang::DEFAULT_SEED);
            black_box(&vm).run(&inputs, xflow_minilang::NullTracer, limits, seed).unwrap()
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let machine = bgq();
    let mut g = c.benchmark_group("cache");
    g.bench_function("sequential_64k", |b| {
        b.iter(|| {
            let mut h = xflow_sim::Hierarchy::new(&machine.l1, &machine.llc);
            let mut levels = 0u64;
            for i in 0..65536u64 {
                if h.access(i * 8) == xflow_sim::AccessLevel::L1 {
                    levels += 1;
                }
            }
            black_box(levels)
        })
    });
    g.bench_function("random_64k", |b| {
        b.iter(|| {
            let mut h = xflow_sim::Hierarchy::new(&machine.l1, &machine.llc);
            let mut x = 0x9E3779B97F4A7C15u64;
            let mut hits = 0u64;
            for _ in 0..65536u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if h.access(x % (1 << 24)) == xflow_sim::AccessLevel::L1 {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_bet_build, bench_pipeline_stages, bench_simulation_scaling, bench_engines, bench_cache);
criterion_main!(benches);
