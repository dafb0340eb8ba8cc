//! Simulator-throughput benchmark: the dense-accumulator `SimTracer`
//! against the pre-dense HashMap tracer, plus the two corpus-scale drivers
//! built on top of it.
//!
//! Three questions, one report:
//!
//! 1. What did densifying the tracer buy? The baseline is the sim crate's
//!    own reference HashMap tracer (`xflow_sim::reference::tracer_report`),
//!    riding on the same live cache hierarchy as the dense path, so the
//!    ratio compares the two tracers alone. Dense and reference reports
//!    are asserted bit-equal on CFD on both evaluation machines *before*
//!    timing — a speedup over an inequivalent tracer would be
//!    meaningless — then the A/B arms time `simulate_with_seed` against
//!    the reference run on BG/Q.
//! 2. How fast does the oracle driver mint training corpora? Fresh
//!    in-memory sessions build the full built-in corpus (5 workloads ×
//!    2 machines at test scale) with `--jobs 1` vs all cores; the two
//!    corpora must be byte-identical (the determinism contract) and the
//!    ratio is the pool's scaling on real simulation work.
//! 3. What does `validate --all --jobs` save over the sequential loop
//!    CI used to run? Same combos, same pool, timed both ways — the
//!    recorded `validate_all_sequential_seconds` is the baseline the
//!    validate-workloads CI job must beat.
//!
//! The oracle and validate sections always run at test scale regardless
//! of `--scale`: they measure pool scheduling against the CI
//! configuration, and the per-combo work only inflates with `--scale
//! eval` without changing what is being measured.
//!
//! Writes `results/BENCH_sim.json`.

use std::collections::HashMap;
use xflow::{bgq, build_corpus, builtin_programs, run_chunked, xeon, OracleOptions, Session};
use xflow_bench::{min_of_k_interleaved, opts};
use xflow_minilang::DEFAULT_SEED;
use xflow_sim::reference::{assert_reports_bit_equal, tracer_report};
use xflow_sim::simulate_with_seed;

fn main() {
    let o = opts();
    let w = xflow_workloads::cfd();
    let prog = w.program();
    let inputs = w.inputs(o.scale);
    let machine = bgq();
    println!("=== simulator throughput on {} ({:?} scale) ===\n", w.name, o.scale);

    // both engines must agree to the bit before timing means anything
    for m in [bgq(), xeon()] {
        let cfg = w.sim_config(&prog, &m);
        let dense = simulate_with_seed(&prog, &inputs, &m, cfg.clone(), DEFAULT_SEED).expect("dense sim");
        let reference = tracer_report(&prog, &inputs, &m, cfg, DEFAULT_SEED).expect("reference sim");
        assert_reports_bit_equal(&dense, &reference, &format!("{} on {}", w.name, m.name));
    }
    let cfg = w.sim_config(&prog, &machine);
    let dense = simulate_with_seed(&prog, &inputs, &machine, cfg.clone(), DEFAULT_SEED).expect("dense sim");
    let sim_instructions: u64 = dense.stmt_instrs.values().sum::<u64>() + dense.lib_instrs.values().sum::<u64>();
    assert!(sim_instructions > 0);

    let (samples, passes) = if matches!(o.scale, xflow::Scale::Test) { (8, 2) } else { (5, 1) };
    let mut arm_dense = || {
        std::hint::black_box(
            simulate_with_seed(&prog, &inputs, &machine, cfg.clone(), DEFAULT_SEED).expect("run").total_cycles,
        );
    };
    let mut arm_reference = || {
        std::hint::black_box(
            tracer_report(&prog, &inputs, &machine, cfg.clone(), DEFAULT_SEED).expect("run").total_cycles,
        );
    };
    let times = min_of_k_interleaved(samples, passes, &mut [&mut arm_dense, &mut arm_reference]);
    let (dense_s, reference_s) = (times[0], times[1]);
    let speedup_dense_vs_ref = reference_s / dense_s;
    let sim_minstr_per_sec = sim_instructions as f64 / 1e6 / dense_s;
    println!("simulated instructions:      {sim_instructions}");
    println!("dense tracer:                {dense_s:>12.3e} s");
    println!("reference tracer:            {reference_s:>12.3e} s  ({speedup_dense_vs_ref:.3}x)");
    println!("dense sim throughput:        {sim_minstr_per_sec:>12.2} Minstr/s");

    // Oracle driver: full built-in corpus on fresh in-memory sessions,
    // sequential vs all cores. Byte-identical output is the contract.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let programs = builtin_programs(&[xflow::Scale::Test]);
    let machines = [bgq(), xeon()];
    let corpus_with_jobs = |jobs: usize| {
        let session = Session::new();
        let opts = OracleOptions { jobs, ..Default::default() };
        build_corpus(&session, &programs, &machines, &opts).expect("corpus")
    };
    let seq_corpus = corpus_with_jobs(1);
    let par_corpus = corpus_with_jobs(0);
    assert_eq!(seq_corpus.to_json(), par_corpus.to_json(), "oracle corpus must not depend on --jobs");
    let oracle_records = par_corpus.records.len();
    // enough interleaved samples that one slow stretch of a shared host
    // cannot decide the `--jobs` ratios asserted below
    let (oracle_samples, oracle_passes) = if matches!(o.scale, xflow::Scale::Test) { (8, 1) } else { (4, 1) };
    let mut arm_seq = || {
        std::hint::black_box(corpus_with_jobs(1).records.len());
    };
    let mut arm_par = || {
        std::hint::black_box(corpus_with_jobs(0).records.len());
    };
    let t = min_of_k_interleaved(oracle_samples, oracle_passes, &mut [&mut arm_seq, &mut arm_par]);
    let (oracle_seq_s, oracle_par_s) = (t[0], t[1]);
    let oracle_points_per_sec = oracle_records as f64 / oracle_par_s;
    let oracle_parallel_speedup = oracle_seq_s / oracle_par_s;
    println!("\noracle corpus ({} combos, {oracle_records} records, {threads} threads):", par_corpus.combos);
    println!("  --jobs 1:                  {oracle_seq_s:>12.3e} s");
    println!("  --jobs {threads}:                  {oracle_par_s:>12.3e} s  ({oracle_parallel_speedup:.3}x)");
    println!("  corpus throughput:         {oracle_points_per_sec:>12.2} records/s");

    // validate --all: the same pool over workload × machine differential
    // validation, vs the sequential loop CI used to run combo-by-combo.
    let libs = xflow_sim::default_library();
    let vcfg = xflow_validate::ValidationConfig::default();
    let mut combos = Vec::new();
    for w in xflow_workloads::all() {
        for m in &machines {
            combos.push((w.clone(), m.clone()));
        }
    }
    let validate_with_jobs = |jobs: usize| {
        let reports = run_chunked(
            &combos,
            jobs,
            || (),
            |_, _, (w, m)| xflow_validate::validate_workload(w, xflow::Scale::Test, m, libs, &vcfg).expect("validate"),
        );
        assert!(reports.iter().all(|r| r.passed), "every validation combo must pass");
        reports.len()
    };
    let mut arm_vseq = || {
        std::hint::black_box(validate_with_jobs(1));
    };
    let mut arm_vpar = || {
        std::hint::black_box(validate_with_jobs(0));
    };
    let t = min_of_k_interleaved(oracle_samples, oracle_passes, &mut [&mut arm_vseq, &mut arm_vpar]);
    let (validate_seq_s, validate_par_s) = (t[0], t[1]);
    let validate_all_parallel_speedup = validate_seq_s / validate_par_s;
    println!("\nvalidate --all ({} combos):", combos.len());
    println!("  --jobs 1:                  {validate_seq_s:>12.3e} s");
    println!("  --jobs {threads}:                  {validate_par_s:>12.3e} s  ({validate_all_parallel_speedup:.3}x)");

    #[derive(serde::Serialize)]
    struct SimBench {
        workload: String,
        machine: String,
        threads: u64,
        sim_instructions: u64,
        dense_seconds: f64,
        reference_seconds: f64,
        speedup_dense_vs_ref: f64,
        sim_minstr_per_sec: f64,
        oracle_records: u64,
        oracle_sequential_seconds: f64,
        oracle_parallel_seconds: f64,
        oracle_points_per_sec: f64,
        oracle_parallel_speedup: f64,
        validate_all_sequential_seconds: f64,
        validate_all_parallel_seconds: f64,
        validate_all_parallel_speedup: f64,
        extra: HashMap<String, f64>,
    }
    let data = SimBench {
        workload: w.name.to_string(),
        machine: machine.name.clone(),
        threads: threads as u64,
        sim_instructions,
        dense_seconds: dense_s,
        reference_seconds: reference_s,
        speedup_dense_vs_ref,
        sim_minstr_per_sec,
        oracle_records: oracle_records as u64,
        oracle_sequential_seconds: oracle_seq_s,
        oracle_parallel_seconds: oracle_par_s,
        oracle_points_per_sec,
        oracle_parallel_speedup,
        validate_all_sequential_seconds: validate_seq_s,
        validate_all_parallel_seconds: validate_par_s,
        validate_all_parallel_speedup,
        extra: HashMap::new(),
    };
    std::fs::create_dir_all("results").expect("create results dir");
    let path = "results/BENCH_sim.json";
    std::fs::write(path, serde_json::to_string_pretty(&data).expect("serialize")).expect("write json");
    println!("\n[json written to {path}]");

    // the dense tracer only earns its place if it moves the needle; the
    // eval bar is the PR's design target, the test bar leaves headroom
    // for small-input noise on shared CI cores
    let bar = if matches!(o.scale, xflow::Scale::Test) { 2.0 } else { 3.0 };
    assert!(
        speedup_dense_vs_ref >= bar,
        "dense tracer must be at least {bar}x the reference path (got {speedup_dense_vs_ref:.3}x)"
    );
    assert!(oracle_records >= 100, "built-in corpus must carry ≥100 training points (got {oracle_records})");
    if threads >= 2 {
        assert!(
            oracle_parallel_speedup > 1.0,
            "oracle driver must scale with --jobs on {threads} threads (got {oracle_parallel_speedup:.3}x)"
        );
        assert!(
            validate_all_parallel_speedup > 1.0,
            "validate --all must scale with --jobs on {threads} threads (got {validate_all_parallel_speedup:.3}x)"
        );
    }
}
