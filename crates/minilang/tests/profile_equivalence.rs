//! Property tests for the VM instruction profiler: on a generated family
//! of runnable programs, the tree-walking interpreter, the unfused
//! bytecode, and the production (fused) bytecode must produce identical
//! semantic op totals, and the VM's per-opcode counters must tie out
//! exactly against that shared profile (each load event is one
//! `LoadElem`, each statement execution one `StmtEnter`, …). Fusion must
//! be invisible to all of it: same results, same `Profile`, same observed
//! opcode/digram stream.

use proptest::prelude::*;
use xflow_minilang::{compile, parse, reference, InputSpec, Limits, NullTracer, DEFAULT_SEED};

/// A runnable program family with random constants and structure knobs:
/// an array fill (rnd + arithmetic), a filter loop with a branch, an
/// optional while-halving loop, and a helper function call per element.
fn runnable_src(n: u32, thresh: f64, with_while: bool, with_call: bool) -> String {
    let while_part = if with_while { "let w = 1000; while w > 1 { w = w / 2; }" } else { "" };
    let call_part = if with_call { "acc = acc + boost(a[i]);" } else { "acc = acc + a[i];" };
    format!(
        r#"
fn main() {{
    let n = {n};
    let a = zeros(n);
    for i in 0 .. n {{ a[i] = rnd() * 2.0 + sqrt(i); }}
    {while_part}
    let acc = 0;
    for i in 0 .. n {{
        if a[i] > {thresh} {{ {call_part} }}
        else {{ acc = acc - 0.25 * a[i]; }}
    }}
    print(acc);
}}
fn boost(v) {{
    return v * 2.0 + 1.0;
}}
"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interp, VM, and fused VM agree on every semantic op total, and the
    /// VM's opcode counters are consistent with that shared profile.
    #[test]
    fn interp_and_vm_produce_identical_opcode_totals(
        n in 1u32..48,
        thresh in 0.0f64..3.0,
        variant in 0u32..4,
    ) {
        let (with_while, with_call) = (variant & 1 == 1, variant & 2 == 2);
        let src = runnable_src(n, thresh, with_while, with_call);
        let prog = parse(&src).unwrap();
        let spec = InputSpec::new();

        let (p_ref, _, r_ref) = reference::run(&prog, &spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();
        let vm = reference::compile_unfused(&prog).unwrap();
        let (p_vm, _, r_vm, iprof) = vm.run_profiled(&spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();
        let fused = compile(&prog).unwrap();
        let (p_fz, _, r_fz, i_fz) = fused.run_profiled(&spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();

        // all three engines agree bit-for-bit on results and profiles
        prop_assert_eq!(r_ref.to_bits(), r_vm.to_bits());
        prop_assert_eq!(r_vm.to_bits(), r_fz.to_bits());
        prop_assert_eq!(&p_ref.printed, &p_vm.printed);
        prop_assert_eq!(&p_ref.stmt_ops, &p_vm.stmt_ops);
        prop_assert_eq!(&p_ref.stmt_exec, &p_vm.stmt_exec);
        prop_assert_eq!(&p_ref.loops, &p_vm.loops);
        prop_assert_eq!(&p_ref.branches, &p_vm.branches);
        prop_assert_eq!(&p_ref.lib_calls, &p_vm.lib_calls);
        prop_assert_eq!(&p_vm.printed, &p_fz.printed);
        prop_assert_eq!(&p_vm.stmt_ops, &p_fz.stmt_ops);
        prop_assert_eq!(&p_vm.stmt_exec, &p_fz.stmt_exec);
        prop_assert_eq!(&p_vm.loops, &p_fz.loops);
        prop_assert_eq!(&p_vm.branches, &p_fz.branches);
        prop_assert_eq!(&p_vm.lib_calls, &p_fz.lib_calls);

        // the fused VM observes the same base opcode stream (fused
        // dispatches account to their constituents), while actually
        // dispatching superinstructions whenever any pair fused
        prop_assert!(iprof.stream_eq(&i_fz));
        prop_assert_eq!(iprof.ranked_ops(), i_fz.ranked_ops());
        prop_assert_eq!(iprof.ranked_pairs(), i_fz.ranked_pairs());
        prop_assert_eq!(iprof.fused_dispatches(), 0);
        prop_assert!(fused.code_len() < vm.code_len());
        prop_assert!(i_fz.fused_dispatches() > 0);

        // the instruction profile ties out against the (shared) profile:
        // every memory event, statement tick, loop iteration, and library
        // call corresponds to exactly one executed opcode of its kind.
        let loads: u64 = p_ref.stmt_ops.values().map(|c| c.loads).sum();
        let stores: u64 = p_ref.stmt_ops.values().map(|c| c.stores).sum();
        prop_assert_eq!(iprof.count_of("LoadElem"), loads);
        prop_assert_eq!(iprof.count_of("StoreElem"), stores);
        prop_assert_eq!(iprof.count_of("StmtEnter"), p_ref.stmt_exec.values().sum::<u64>());
        let iters: u64 = p_ref.loops.values().map(|l| l.iterations).sum();
        prop_assert_eq!(iprof.count_of("IterTick") + iprof.count_of("IterTickWhile"), iters);
        prop_assert_eq!(iprof.count_of("Lib"), p_ref.lib_calls.values().sum::<u64>());
        prop_assert_eq!(iprof.count_of("Print"), p_ref.printed.len() as u64);

        // stream accounting: ops sum to the total, digrams to total - 1
        let total = iprof.total();
        prop_assert!(total > 0);
        prop_assert_eq!(iprof.ranked_ops().iter().map(|(_, c)| c).sum::<u64>(), total);
        prop_assert_eq!(iprof.ranked_pairs().iter().map(|(_, c)| c).sum::<u64>(), total - 1);
    }

    /// Profiling never perturbs execution: profiled and unprofiled VM
    /// runs are bit-identical (fused or not), and two profiled runs of
    /// either VM yield equal profiles.
    #[test]
    fn profiling_is_invisible_and_deterministic(
        n in 1u32..48,
        thresh in 0.0f64..3.0,
        variant in 0u32..4,
    ) {
        let (with_while, with_call) = (variant & 1 == 1, variant & 2 == 2);
        let src = runnable_src(n, thresh, with_while, with_call);
        let prog = parse(&src).unwrap();
        let vm = reference::compile_unfused(&prog).unwrap();
        let fused = compile(&prog).unwrap();
        let spec = InputSpec::new();
        let (p_plain, _, r_plain) = vm.run(&spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();
        let (p1, _, r1, i1) = vm.run_profiled(&spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();
        let (_, _, _, i2) = vm.run_profiled(&spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();
        prop_assert_eq!(r_plain.to_bits(), r1.to_bits());
        prop_assert_eq!(&p_plain.stmt_ops, &p1.stmt_ops);
        prop_assert_eq!(&i1, &i2);

        // the fused VM is equally invisible and deterministic
        let (p_fplain, _, r_fplain) = fused.run(&spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();
        let (pf, _, rf, if1) = fused.run_profiled(&spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();
        let (_, _, _, if2) = fused.run_profiled(&spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();
        prop_assert_eq!(r_fplain.to_bits(), rf.to_bits());
        prop_assert_eq!(r_plain.to_bits(), r_fplain.to_bits());
        prop_assert_eq!(&p_fplain.stmt_ops, &pf.stmt_ops);
        prop_assert_eq!(&p_plain.printed, &p_fplain.printed);
        prop_assert_eq!(&if1, &if2);
        prop_assert!(i1.stream_eq(&if1));
    }
}
