//! Differential tests for the superinstruction fusion pass inside
//! `compile`: for every digram in the committed fusion table, a program
//! that exercises it must run bit-identically on the unfused stream
//! (`reference::compile_unfused`) and the production bytecode — same
//! result bits, same semantic profile, same observed opcode/digram
//! stream — and fusion-blocked boundaries (jump targets landing on the
//! second half of a would-be pair) must stay unfused.

use xflow_minilang::{
    compile, parse, reference, InputSpec, InstrProfile, Limits, NullTracer, Profile, RuntimeError, VmProgram,
    DEFAULT_SEED, FUSED_KIND_NAMES, NUM_FUSED_KINDS,
};

/// Run one source three ways (interp, unfused VM, fused VM) and assert
/// the full bit-identity contract. Returns the fused run's instruction
/// profile for digram-coverage assertions.
fn check_three_way(src: &str) -> InstrProfile {
    let prog = parse(src).expect("parse");
    let spec = InputSpec::new();
    let (p_ref, _, r_ref) = reference::run(&prog, &spec, NullTracer, Limits::default(), DEFAULT_SEED).expect("interp");

    let vm = reference::compile_unfused(&prog).expect("compile");
    let fused = compile(&prog).expect("compile");
    let (p_vm, _, r_vm, i_vm) = vm.run_profiled(&spec, NullTracer, Limits::default(), DEFAULT_SEED).expect("vm");
    let (p_fz, _, r_fz, i_fz) =
        fused.run_profiled(&spec, NullTracer, Limits::default(), DEFAULT_SEED).expect("fused vm");

    assert_eq!(r_ref.to_bits(), r_vm.to_bits(), "interp vs vm");
    assert_eq!(r_vm.to_bits(), r_fz.to_bits(), "vm vs fused");
    assert_profiles_eq(&p_ref, &p_vm);
    assert_profiles_eq(&p_vm, &p_fz);
    assert!(i_vm.stream_eq(&i_fz), "fused opcode stream must match unfused");
    assert_eq!(i_vm.ranked_pairs(), i_fz.ranked_pairs());
    assert_eq!(i_vm.fused_dispatches(), 0);
    i_fz
}

/// `vm` run with no inputs under `limits`, failing with the error.
fn run_err(vm: &VmProgram, limits: Limits) -> RuntimeError {
    vm.run(&InputSpec::new(), NullTracer, limits, DEFAULT_SEED).unwrap_err()
}

fn assert_profiles_eq(a: &Profile, b: &Profile) {
    assert_eq!(a.printed, b.printed);
    assert_eq!(a.stmt_ops, b.stmt_ops);
    assert_eq!(a.stmt_exec, b.stmt_exec);
    assert_eq!(a.loops, b.loops);
    assert_eq!(a.branches, b.branches);
    assert_eq!(a.lib_calls, b.lib_calls);
}

/// One source program per fused digram, indexed like `FUSED_KIND_NAMES`.
/// Each is built so compilation emits the digram adjacently and runs it
/// (verified by the dispatch assertion in
/// `every_fused_digram_is_exercised`).
fn digram_programs() -> [&'static str; NUM_FUSED_KINDS] {
    [
        // 0 LoadScalar.LoadElem — a[i] with scalar index
        "fn main() { let a = zeros(8); let i = 3; a[i] = 5.0; print(a[i]); }",
        // 1 StmtEnter.LoadScalar — statement starting with a variable
        // read, preceded by Print so the greedy scan can't consume the
        // StmtEnter into a StoreSlot.StmtEnter pair first
        "fn main() { let x = 2; print(x); let y = x; print(y); }",
        // 2 LoadScalar.LoadScalar — x + y reads two scalars back-to-back? no:
        // x pushes, then y pushes — adjacent LoadScalars come from a[i + j]
        // style nesting; simplest: f(x, y) call arguments are PushSlot, so
        // use y = x * x ... x * y emits LoadScalar x; LoadScalar y; Bin
        "fn main() { let x = 3; let y = 4; let z = x * y; print(z); }",
        // 3 LoadScalar.Bin — (... x) op where rhs is a scalar
        "fn main() { let x = 5; let z = 2.0 + x; print(z); }",
        // 4 LoadElem.Bin — a[0] feeding an operator as rhs
        "fn main() { let a = zeros(4); a[0] = 7.0; let z = 1.0 + a[0]; print(z); }",
        // 5 Bin.LoadScalar — (a+b) then load c for the next operator
        "fn main() { let a = 1; let b = 2; let c = 3; print(a + b + c); }",
        // 6 Bin.Bin — abs(x) + b * c: the mul's operand loads fuse as
        // LoadScalar2, leaving Bin(mul) adjacent to Bin(add)
        "fn main() { let x = 1; let b = 2; let c = 3; print(abs(x) + b * c); }",
        // 7 StoreSlot.StmtEnter — let followed by the next statement
        "fn main() { let x = 1; let y = 2; print(x + y); }",
        // 8 Bin.StoreSlot — let z = a + b stores the operator result
        "fn main() { let a = 2; let b = 3; let z = a + b; print(z); }",
        // 9 Bin.StoreElem — a[i] = x + y stores an operator result
        "fn main() { let a = zeros(4); let x = 1; a[2] = x + 1.5; print(a[2]); }",
        // 10 Bin.LoadElem — a[i + 1] computes the index then loads
        "fn main() { let a = zeros(4); let i = 1; a[2] = 9.0; print(a[i + 1]); }",
        // 11 Num.Bin — a[0] * 2.0: the constant follows LoadElem (not a
        // fusable left partner), so Num.Bin survives the greedy scan
        "fn main() { let a = zeros(2); a[0] = 3.0; print(a[0] * 2.0); }",
        // 12 LoadScalar.Num — x * 2.0 also emits LoadScalar x; Num 2.0
        "fn main() { let x = 6; print(x * 2.0 + 1.0); }",
        // 13 StoreElem.StmtEnter — element store followed by a statement
        "fn main() { let a = zeros(4); a[1] = 3.0; print(a[1]); }",
        // 14 AdvanceRaw.Jump — every counted loop back edge
        "fn main() { let s = 0; for i in 0 .. 5 { s = s + i; } print(s); }",
        // 15 IterTick.LoadScalar — loop iteration start reads the cursor
        "fn main() { let s = 0; for i in 0 .. 5 { s = s + i; } print(s); }",
    ]
}

#[test]
fn every_fused_digram_is_exercised() {
    for (k, src) in digram_programs().iter().enumerate() {
        let fused = check_three_way(src).ranked_fused();
        assert!(
            fused.iter().any(|(name, _)| *name == FUSED_KIND_NAMES[k]),
            "program {k} must dispatch {} — dispatched {fused:?}",
            FUSED_KIND_NAMES[k]
        );
    }
}

#[test]
fn jump_targets_block_fusion_mid_pair() {
    // An if/else joins control flow right before a trailing statement:
    // the join point is a jump target, so the pair straddling it must not
    // fuse. The loop back edge similarly protects its head. These
    // programs exercise branches into what would otherwise be pair tails.
    let sources = [
        // else-join lands on the statement after the if
        "fn main() { let x = 1; let y = 0;
           if x > 0 { y = 2; } else { y = 3; }
           let z = y; print(z); }",
        // loop head is a jump target hit by the back edge every iteration
        "fn main() { let s = 0; let i = 0;
           while i < 6 { s = s + i; i = i + 1; }
           print(s); }",
        // break jumps to the loop exit; continue to the advance site
        "fn main() { let s = 0;
           for i in 0 .. 10 {
             if i > 6 { break; }
             if i > 3 { continue; }
             s = s + i;
           }
           print(s); }",
        // short-circuit && / || compile to forward jumps into pair tails
        "fn main() { let a = 1; let b = 0;
           if a > 0 && b < 1 { print(1); } else { print(2); }
           if a > 2 || b < 1 { print(3); } }",
        // nested calls: Ret lands the caller mid-expression
        "fn main() { let x = twice(3) + twice(4); print(x); }
         fn twice(v) { return v * 2.0; }",
    ];
    for src in sources {
        check_three_way(src);
    }
}

#[test]
fn jumping_to_the_first_of_a_fused_pair_is_safe() {
    // A while-loop body whose first statement starts with StmtEnter +
    // LoadScalar: the back edge targets the condition head (SetCur), and
    // the body entry lands exactly on a fusable StmtEnter.LoadScalar pair
    // start — which may fuse, since landing on the first constituent
    // executes both, same as falling through.
    let iprof = check_three_way(
        "fn main() { let s = 0; let i = 0;
           while i < 8 { s = s + i; i = i + 1; }
           print(s); }",
    );
    assert!(iprof.fused_dispatches() > 0);
}

#[test]
fn fusion_preserves_step_limit_errors() {
    // StmtEnter fused into StoreSlotEnter / StmtEnterLoad must still tick
    // the step limit: an infinite loop dies identically on both VMs.
    let prog = parse("fn main() { let x = 0; while 1 > 0 { x = x + 1; } }").unwrap();
    let limits = Limits { max_steps: 10_000, max_depth: 8 };
    let e1 = run_err(&reference::compile_unfused(&prog).unwrap(), limits);
    let e2 = run_err(&compile(&prog).unwrap(), limits);
    assert_eq!(e1.to_string(), e2.to_string());
}

#[test]
fn call_traps_stay_unfused_and_fail_like_the_reference() {
    // A call to an unknown function or with the wrong arity compiles to a
    // `Trap` after its arguments. No digram contains a trap, so fusion
    // leaves each one standing alone and it fires where the reference's
    // call fails.
    let sources = [
        "fn main() { let x = 2; let y = nosuch(x + 1.0, 2.0); print(y); }",
        "fn main() { let a = zeros(4); let i = 1; a[i] = f(a[i] * 2.0); } fn f(x, y) { return x; }",
        "fn main() { let x = 1; if x > 0 { g(x); } print(x); } fn g() { }",
    ];
    let traps = |vm: &VmProgram| vm.disasm().matches("Trap(").count();
    for src in sources {
        let prog = parse(src).unwrap();
        let vm = reference::compile_unfused(&prog).expect("bad call sites compile");
        let fused = compile(&prog).expect("bad call sites compile");
        assert_eq!(traps(&vm), 1, "{src}");
        assert_eq!(traps(&fused), 1, "{src}");
        let e_ref = reference::run(&prog, &InputSpec::new(), NullTracer, Limits::default(), DEFAULT_SEED).unwrap_err();
        let e_fz = run_err(&fused, Limits::default());
        assert_eq!(e_ref, e_fz, "{src}");
    }
    // a trap that never runs changes nothing
    check_three_way("fn main() { let x = 1; if x < 0 { nosuch(x); } print(x); }");
}

#[test]
fn workload_programs_fuse_and_stay_bit_identical() {
    // the five paper workloads are the fusion table's source material —
    // each must shrink statically and agree dynamically
    for w in xflow_workloads::all() {
        let prog = w.program();
        let inputs = w.inputs(xflow_workloads::Scale::Test);
        let vm = reference::compile_unfused(&prog).expect("compile");
        let fused = compile(&prog).expect("compile");
        assert!(
            (fused.code_len() as f64) < 0.9 * vm.code_len() as f64,
            "{}: fusion should shrink code >10% (got {} -> {})",
            w.name,
            vm.code_len(),
            fused.code_len()
        );
        let (p_vm, _, r_vm, i_vm) = vm.run_profiled(&inputs, NullTracer, Limits::default(), DEFAULT_SEED).expect("vm");
        let (p_fz, _, r_fz, i_fz) =
            fused.run_profiled(&inputs, NullTracer, Limits::default(), DEFAULT_SEED).expect("fused");
        assert_eq!(r_vm.to_bits(), r_fz.to_bits(), "{}", w.name);
        assert_profiles_eq(&p_vm, &p_fz);
        assert!(i_vm.stream_eq(&i_fz), "{}: opcode stream must be fusion-invariant", w.name);
        assert!(i_fz.fused_dispatches() > 0, "{}: fused VM must actually dispatch superinstructions", w.name);
    }
}

#[test]
fn call_arguments_agree_across_all_three_engines() {
    // Bare names travel on the argument stack, computed arguments on the
    // operand stack; `Call` must interleave them in source order inside
    // fused code exactly as the reference does.
    let sources = [
        // mixed arguments, nested calls in argument position, writes
        // through a passed array, `len` of a passed array
        "fn main() { let a = zeros(6); let b = zeros(9); let x = 2; let y = 5;
           for i in 0 .. 9 { b[i] = i + 0.5; }
           print(f(a, g(b, x + 1), 2 * y)); print(a[0] * a[1]); print(g(a, 1) + len(b)); }
         fn f(arr, k, m) { arr[0] = k; arr[1] = m; return k * m; }
         fn g(arr, j) { return arr[j] + len(arr); }",
        // attribution restored after a call in expression position
        "fn main() { let a = zeros(3); a[2] = 4; let s = a[2] * h(a, 1) + a[2]; print(s); }
         fn h(arr, k) { arr[k] = arr[k] + 1; return arr[k]; }",
        // recursion threading an array through every frame
        "fn main() { let a = zeros(1); print(down(a, 12)); print(a[0]); }
         fn down(arr, k) { if k > 0 { arr[0] = arr[0] + k; return down(arr, k - 1) + 1; } return 0; }",
    ];
    for src in sources {
        check_three_way(src);
    }
}

#[test]
fn argument_and_depth_errors_survive_fusion() {
    let sources = [
        // arity mismatch after array arguments were pushed
        "fn main() { let a = zeros(4); let r = f(a, a, 1); } fn f(p, q) { return 0; }",
        // recursion one frame past the limit, arrays in every frame
        "fn main() { let a = zeros(1); print(down(a, 15)); }
         fn down(arr, k) { if k > 0 { return down(arr, k - 1); } return 0; }",
    ];
    let limits = Limits { max_steps: 1_000_000, max_depth: 16 };
    for src in sources {
        let prog = parse(src).unwrap();
        let e_ref = reference::run(&prog, &InputSpec::new(), NullTracer, limits, DEFAULT_SEED).unwrap_err();
        let e_fz = run_err(&compile(&prog).unwrap(), limits);
        assert_eq!(e_ref, e_fz, "{src}");
    }
}
