//! Property test: the tree-walking interpreter, the unfused bytecode, and
//! the production (superinstruction-fused) bytecode observe identical
//! dynamic behavior — per-statement visit counts, branch outcomes, and
//! printed output — on generated programs run with the same seed
//! (three-way equivalence).
//!
//! The second half holds the production profiler (`ml::profile_seeded`,
//! the fused VM) to the reference interpreter on the paper workloads, the
//! generated program pool, and programs whose failures depend on what
//! runs: dead call sites, call-time errors, and execution limits.

use proptest::prelude::*;
use xflow_minilang as ml;
use xflow_validate::{profiles_agree, GenConfig};

fn check_engines(seed: u64, escapes: bool) {
    let gen = GenConfig { allow_escapes: escapes, ..GenConfig::default() };
    let prog = xflow_validate::render(&xflow_validate::generate(seed, &gen));
    let prog = ml::parse(&prog).expect("generated program parses");
    let inputs = ml::InputSpec::new();
    let limits = ml::Limits { max_steps: 2_000_000, max_depth: 64 };

    let (pi, _, ri) =
        ml::reference::run(&prog, &inputs, ml::NullTracer, limits, ml::DEFAULT_SEED).expect("interpreter runs");
    let unfused = ml::reference::compile_unfused(&prog).expect("compiles");
    let (pv, _, rv) = unfused.run(&inputs, ml::NullTracer, limits, ml::DEFAULT_SEED).expect("VM runs");
    let fused = ml::compile(&prog).expect("compiles");
    let (pf, _, rf) = fused.run(&inputs, ml::NullTracer, limits, ml::DEFAULT_SEED).expect("fused runs");

    // profiles_agree covers branches, loops, lib calls, and printed
    // values; assert the visit-count map separately for a sharp message
    assert_eq!(pi.stmt_exec, pv.stmt_exec, "visit counts diverge for seed {seed:#x}");
    assert!(profiles_agree(&pi, &pv), "profiles diverge for seed {seed:#x}");
    assert_eq!(ri.to_bits(), rv.to_bits(), "return value diverges for seed {seed:#x}");

    // the fused bytecode is the third engine: the peephole rewrite (and
    // its jump-target fusion barriers) must be observationally invisible
    // on arbitrary generated control flow
    assert_eq!(pv.stmt_exec, pf.stmt_exec, "fused visit counts diverge for seed {seed:#x}");
    assert!(profiles_agree(&pv, &pf), "fused profiles diverge for seed {seed:#x}");
    assert_eq!(rv.to_bits(), rf.to_bits(), "fused return value diverges for seed {seed:#x}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interp_and_vm_agree_on_safe_programs(seed in 0u64..u64::MAX) {
        check_engines(seed, false);
    }

    #[test]
    fn interp_and_vm_agree_with_escapes(seed in 0u64..u64::MAX) {
        check_engines(seed, true);
    }
}

/// The same `Ok` profile (every field, printed values by bits) or the
/// same error from the production engine and the reference interpreter.
fn assert_same_outcome(
    production: Result<ml::Profile, ml::RuntimeError>,
    reference: Result<ml::Profile, ml::RuntimeError>,
    what: &str,
) {
    match (production, reference) {
        (Ok(p), Ok(r)) => {
            assert_eq!(p.stmt_ops, r.stmt_ops, "{what}: stmt_ops");
            assert!(profiles_agree(&p, &r), "{what}: profiles diverge");
        }
        (Err(p), Err(r)) => assert_eq!(p, r, "{what}: errors"),
        (p, r) => panic!("{what}: production {:?} vs reference {:?}", p.err(), r.err()),
    }
}

fn reference_profile(
    prog: &ml::Program,
    inputs: &ml::InputSpec,
    limits: ml::Limits,
) -> Result<ml::Profile, ml::RuntimeError> {
    ml::reference::run(prog, inputs, ml::NullTracer, limits, ml::DEFAULT_SEED).map(|(p, _, _)| p)
}

fn assert_profiler_matches_reference(src: &str, inputs: &ml::InputSpec, what: &str) {
    let prog = ml::parse(src).expect("program parses");
    let production = ml::profile_seeded(&prog, inputs, ml::DEFAULT_SEED);
    assert_same_outcome(production, reference_profile(&prog, inputs, ml::Limits::default()), what);
}

#[test]
fn production_profiler_matches_reference_on_paper_workloads() {
    for w in xflow_workloads::all() {
        assert_profiler_matches_reference(w.source, &w.inputs(xflow_workloads::Scale::Test), w.name);
    }
}

#[test]
fn production_profiler_matches_reference_on_generated_programs() {
    for seed in 0..64 {
        let src = xflow_validate::render(&xflow_validate::generate(seed, &GenConfig::default()));
        assert_profiler_matches_reference(&src, &ml::InputSpec::new(), &format!("generated seed {seed}"));
    }
}

#[test]
fn production_profiler_matches_reference_on_call_graph_errors() {
    let cases = [
        // unknown function in an untaken branch: both engines run clean
        ("dead unknown call", "fn main() { let n = 3; if n < 0 { nosuch(1); } print(n); }"),
        // arity mismatch inside a function nothing calls
        (
            "dead arity mismatch",
            "fn main() { let s = 0; for i in 0 .. 4 { s = s + twice(i); } print(s); }
             fn twice(x) { return x * 2.0; }
             fn unused(y) { return twice(y, 2); }",
        ),
        // the same call sites when they run: the same error on both engines
        ("live unknown call", "fn main() { let n = 3; if n > 0 { nosuch(n * 2.0); } print(n); }"),
        ("live arity mismatch", "fn main() { let s = twice(1, 2); print(s); } fn twice(x) { return x * 2.0; }"),
        // argument errors come before the callee is resolved
        ("unbound argument of an unknown call", "fn main() { nosuch(ghost); }"),
        ("out-of-bounds argument of a bad call", "fn main() { let a = zeros(2); f(a[5]); } fn f(x, y) { }"),
        // recursion limit (default limits: 256 frames)
        ("recursion limit", "fn main() { down(0); } fn down(d) { down(d + 1); }"),
    ];
    for (what, src) in cases {
        assert_profiler_matches_reference(src, &ml::InputSpec::new(), what);
    }
}

#[test]
fn production_engine_matches_reference_on_step_limit() {
    // `profile_seeded` runs with the default 2e9-step limit; run the same
    // compile-then-run composition with a small limit instead
    let prog = ml::parse("fn main() { let x = 0; while 1 > 0 { x = x + helper(x); } } fn helper(v) { return 1; }")
        .expect("parses");
    let limits = ml::Limits { max_steps: 10_000, max_depth: 64 };
    let production = ml::compile(&prog)
        .and_then(|vm| vm.run(&ml::InputSpec::new(), ml::NullTracer, limits, ml::DEFAULT_SEED).map(|(p, _, _)| p));
    assert!(matches!(production, Err(ml::RuntimeError::StepLimitExceeded(10_000))), "{production:?}");
    assert_same_outcome(production, reference_profile(&prog, &ml::InputSpec::new(), limits), "step limit");
}
