//! VM instruction-profiler cost and superinstruction-fusion benchmark.
//!
//! Two questions, one report:
//!
//! 1. What does instruction profiling cost when it is on? The profiled
//!    run (`VmProgram::run_profiled`) bumps one opcode and one digram
//!    counter per dispatch; timed against the plain run of the same
//!    unfused bytecode. (Off, it costs nothing by construction: the
//!    plain run's `()` sink has `ENABLED = false`, so the counting code
//!    is statically absent from its loop.)
//! 2. What does profile-guided superinstruction fusion buy? The
//!    production bytecode (`compile`) replaces the hottest opcode digrams
//!    with single-dispatch superinstructions, so the same work takes
//!    fewer dispatches. The A/B arms time the unfused stream
//!    (`reference::compile_unfused`) and the production bytecode on
//!    identical inputs, and the cold-path sweep sums the *profiled* run
//!    over all five paper workloads — the `xflow profile` cold path —
//!    unfused vs fused (`cold_seconds_unfused` vs `cold_seconds`).
//!
//! Bit-equality of results and semantic profiles is asserted across all
//! arms before anything is timed — the fused VM must be observationally
//! identical, or its speedup is meaningless — then min-of-K sampling
//! keeps scheduler noise out of the ratios.
//!
//! Writes `BENCH_profile.json` (into `results/`, or the `--json` directory).

use std::collections::HashMap;
use xflow_bench::{min_of_k_interleaved, opts, write_report};
use xflow_minilang::{compile, reference, Limits, NullTracer, DEFAULT_SEED};

fn main() {
    let o = opts();
    let w = xflow_workloads::cfd();
    let prog = w.program();
    let inputs = w.inputs(o.scale);
    let vm = reference::compile_unfused(&prog).expect("compile");
    let fused = compile(&prog).expect("compile");
    println!("=== VM profiler cost + fusion on {} ({:?} scale) ===\n", w.name, o.scale);
    let limits = Limits::default();

    // all arms must agree to the bit before timing means anything
    let (p_plain, _, r_plain) = vm.run(&inputs, NullTracer, limits, DEFAULT_SEED).expect("plain run");
    let (p_prof, _, r_prof, iprof) = vm.run_profiled(&inputs, NullTracer, limits, DEFAULT_SEED).expect("profiled run");
    let (p_fz, _, r_fz) = fused.run(&inputs, NullTracer, limits, DEFAULT_SEED).expect("fused run");
    let (p_fzp, _, r_fzp, i_fz) =
        fused.run_profiled(&inputs, NullTracer, limits, DEFAULT_SEED).expect("fused profiled run");
    assert_eq!(r_plain.to_bits(), r_prof.to_bits(), "profiled result must match plain");
    assert_eq!(r_plain.to_bits(), r_fz.to_bits(), "fused result must match plain");
    assert_eq!(r_plain.to_bits(), r_fzp.to_bits(), "fused profiled result must match plain");
    assert_eq!(p_plain.stmt_exec, p_prof.stmt_exec);
    assert_eq!(p_plain.stmt_exec, p_fz.stmt_exec);
    assert_eq!(p_plain.stmt_exec, p_fzp.stmt_exec);
    // constituent accounting: the fused profiler sees the same opcode
    // and digram streams, so instruction totals are fusion-invariant
    assert!(iprof.stream_eq(&i_fz), "fused instruction streams must match unfused");
    assert!(i_fz.fused_dispatches() > 0, "fused program must actually dispatch superinstructions");
    let instructions = iprof.total();
    assert!(instructions > 0);

    let (samples, passes) = if matches!(o.scale, xflow::Scale::Test) { (12, 3) } else { (9, 10) };
    let mut arm_plain = || {
        std::hint::black_box(vm.run(&inputs, NullTracer, limits, DEFAULT_SEED).expect("run").2);
    };
    let mut arm_profiled = || {
        std::hint::black_box(vm.run_profiled(&inputs, NullTracer, limits, DEFAULT_SEED).expect("run").3.total());
    };
    let mut arm_fused = || {
        std::hint::black_box(fused.run(&inputs, NullTracer, limits, DEFAULT_SEED).expect("run").2);
    };
    let times = min_of_k_interleaved(samples, passes, &mut [&mut arm_plain, &mut arm_profiled, &mut arm_fused]);
    let (baseline_s, profiled_s, fused_s) = (times[0], times[1], times[2]);

    let profiled_overhead = profiled_s / baseline_s - 1.0;
    let profiled_minstr_per_sec = instructions as f64 / 1e6 / profiled_s;
    let speedup_fused_vs_vm = baseline_s / fused_s;
    // work is measured in *unfused* instructions either way (constituent
    // accounting makes the streams identical), so the fused throughput is
    // directly comparable: same numerator, fewer dispatches under it
    let fused_minstr_per_sec = instructions as f64 / 1e6 / fused_s;
    println!("instructions per run:        {instructions}");
    println!("plain VM:                    {baseline_s:>12.3e} s");
    println!("profiled VM:                 {profiled_s:>12.3e} s  ({:+.2}%)", profiled_overhead * 100.0);
    println!("fused VM:                    {fused_s:>12.3e} s  ({speedup_fused_vs_vm:.3}x)");
    println!("profiled throughput:         {profiled_minstr_per_sec:>12.2} Minstr/s");
    println!("fused throughput:            {fused_minstr_per_sec:>12.2} Minstr/s");
    println!("\ntop opcodes:");
    for (name, count) in iprof.ranked_ops().into_iter().take(5) {
        println!("  {name:<16} {count}");
    }
    println!("\ntop superinstructions:");
    for (name, count) in i_fz.ranked_fused().into_iter().take(5) {
        println!("  {name:<24} {count}");
    }

    // Cold-path sweep: `xflow profile <workload>` compiles and runs the
    // profiled VM once — a cold-cache, single-shot path. Sum the profiled
    // run over every paper workload, unfused vs fused, to measure what
    // fusion saves the whole profiling pipeline.
    println!("\ncold path (profiled run, all workloads):");
    let (cold_samples, cold_passes) = if matches!(o.scale, xflow::Scale::Test) { (8, 2) } else { (6, 4) };
    let mut extra = HashMap::new();
    let mut cold_unfused = 0.0;
    let mut cold_fused = 0.0;
    for w in xflow_workloads::all() {
        let prog = w.program();
        let inputs = w.inputs(o.scale);
        let vm = reference::compile_unfused(&prog).expect("compile");
        let fz = compile(&prog).expect("compile");
        let (_, _, ru, iu) = vm.run_profiled(&inputs, NullTracer, limits, DEFAULT_SEED).expect("profiled run");
        let (_, _, rf, ifz) = fz.run_profiled(&inputs, NullTracer, limits, DEFAULT_SEED).expect("fused profiled run");
        assert_eq!(ru.to_bits(), rf.to_bits(), "{}: fused result must match", w.name);
        assert!(iu.stream_eq(&ifz), "{}: fused instruction streams must match", w.name);
        let mut arm_u = || {
            std::hint::black_box(vm.run_profiled(&inputs, NullTracer, limits, DEFAULT_SEED).expect("run").3.total());
        };
        let mut arm_f = || {
            std::hint::black_box(fz.run_profiled(&inputs, NullTracer, limits, DEFAULT_SEED).expect("run").3.total());
        };
        let t = min_of_k_interleaved(cold_samples, cold_passes, &mut [&mut arm_u, &mut arm_f]);
        println!("  {:<10} {:>10.3e} s -> {:>10.3e} s  ({:.3}x)", w.name, t[0], t[1], t[0] / t[1]);
        cold_unfused += t[0];
        cold_fused += t[1];
        // per-workload gain; the workload-name key segment classifies as
        // informational in the bench gate, so noisy small workloads don't
        // flap CI — the summed cold_seconds is the gated metric
        extra.insert(format!("fused_gain.{}", w.name), t[0] / t[1]);
    }
    println!("  {:<10} {cold_unfused:>10.3e} s -> {cold_fused:>10.3e} s  ({:.3}x)", "total", cold_unfused / cold_fused);

    #[derive(serde::Serialize)]
    struct ProfileBench {
        workload: String,
        instructions: u64,
        vm_baseline_seconds: f64,
        profiled_seconds: f64,
        profiled_overhead: f64,
        profiled_minstr_per_sec: f64,
        fused_seconds: f64,
        fused_minstr_per_sec: f64,
        speedup_fused_vs_vm: f64,
        cold_seconds: f64,
        cold_seconds_unfused: f64,
        extra: HashMap<String, f64>,
    }
    let data = ProfileBench {
        workload: w.name.to_string(),
        instructions,
        vm_baseline_seconds: baseline_s,
        profiled_seconds: profiled_s,
        profiled_overhead,
        profiled_minstr_per_sec,
        fused_seconds: fused_s,
        fused_minstr_per_sec,
        speedup_fused_vs_vm,
        cold_seconds: cold_fused,
        cold_seconds_unfused: cold_unfused,
        extra,
    };
    write_report(&o, "profile", &data);

    // the fusion table only earns its place if it moves the needle; the
    // eval bar matches the design target, the test bar leaves headroom
    // for small-input noise on shared CI cores
    let bar = if matches!(o.scale, xflow::Scale::Test) { 1.05 } else { 1.15 };
    assert!(
        speedup_fused_vs_vm >= bar,
        "fused VM must be at least {bar}x the unfused VM (got {speedup_fused_vs_vm:.3}x)"
    );
    assert!(
        cold_fused < cold_unfused,
        "fusion must shorten the profiling cold path ({cold_fused:.3e} !< {cold_unfused:.3e})"
    );
}
