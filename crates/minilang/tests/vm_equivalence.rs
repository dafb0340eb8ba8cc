//! The bytecode VM must be observationally identical to the tree-walking
//! reference: same results, same profiles (op counts, branch/loop stats,
//! library calls, execution counts), and the same tracer event stream
//! (operation bundles, load/store addresses, library calls in order) —
//! on the production (fused) bytecode and on the unfused stream alike.

use xflow_minilang::runtime::MAX_ARRAY_ELEMENTS;
use xflow_minilang::{
    compile, parse, reference, InputSpec, Limits, MStmtId, NullTracer, Profile, RuntimeError, Tracer, VmProgram,
    DEFAULT_SEED,
};

/// Records every tracer event in order.
#[derive(Debug, Default, PartialEq)]
struct EventLog {
    events: Vec<(u32, &'static str, u64, u64)>,
}

impl Tracer for EventLog {
    fn ops(&mut self, stmt: MStmtId, flops: u32, iops: u32, divs: u32) {
        self.events.push((stmt.0, "ops", ((flops as u64) << 32) | iops as u64, divs as u64));
    }
    fn load(&mut self, stmt: MStmtId, addr: u64) {
        self.events.push((stmt.0, "load", addr, 0));
    }
    fn store(&mut self, stmt: MStmtId, addr: u64) {
        self.events.push((stmt.0, "store", addr, 0));
    }
    fn lib_call(&mut self, stmt: MStmtId, name: &'static str, arg: f64) {
        self.events.push((stmt.0, name, arg.to_bits(), 1));
    }
}

fn assert_profiles_equal(a: &Profile, b: &Profile, what: &str) {
    assert_eq!(a.printed, b.printed, "{what}: printed");
    assert_eq!(a.stmt_ops, b.stmt_ops, "{what}: stmt_ops");
    assert_eq!(a.stmt_exec, b.stmt_exec, "{what}: stmt_exec");
    assert_eq!(a.branches, b.branches, "{what}: branches");
    assert_eq!(a.loops, b.loops, "{what}: loops");
    assert_eq!(a.lib_calls, b.lib_calls, "{what}: lib_calls");
}

/// The production bytecode and the unfused stream of one program.
fn both_bytecodes(prog: &xflow_minilang::Program) -> [(&'static str, VmProgram); 2] {
    [("fused", compile(prog).unwrap()), ("unfused", reference::compile_unfused(prog).unwrap())]
}

fn check(src: &str, inputs: &[(&str, f64)]) {
    let prog = parse(src).unwrap();
    let spec = InputSpec::from_pairs(inputs.iter().copied());
    let (p_ref, t_ref, r_ref) =
        reference::run(&prog, &spec, EventLog::default(), Limits::default(), DEFAULT_SEED).unwrap();
    for (what, vm) in both_bytecodes(&prog) {
        let (p_vm, t_vm, r_vm) = vm.run(&spec, EventLog::default(), Limits::default(), DEFAULT_SEED).unwrap();
        assert_eq!(r_ref.to_bits(), r_vm.to_bits(), "{what}: return value");
        assert_profiles_equal(&p_ref, &p_vm, what);
        assert_eq!(t_ref.events.len(), t_vm.events.len(), "{what}: event count");
        for (i, (a, b)) in t_ref.events.iter().zip(t_vm.events.iter()).enumerate() {
            assert_eq!(a, b, "{what}: event #{i}");
        }
    }
}

#[test]
fn arithmetic_and_builtins() {
    check(
        r#"
fn main() {
    let x = 2 + 3 * 4 - 6 / 2 % 4;
    let y = abs(0 - x) + min(x, 3) * max(1, 2) + floor(2.9);
    let z = exp(0.5) + log(2.0) + sqrt(9.0) + sin(1.0) + cos(1.0) + pow(2.0, 3.0);
    print(x + y + z);
    print(rnd());
    print(rnd());
}
"#,
        &[],
    );
}

#[test]
fn arrays_and_updates() {
    check(
        r#"
fn main() {
    let n = input("N", 64);
    let a = zeros(n);
    let b = zeros(n * 2);
    for i in 0 .. n {
        a[i] = rnd() * 10.0;
        b[i * 2] = a[i];
        b[i * 2 + 1] += a[i] / 2.0;
    }
    print(a[0] + b[1] + b[n]);
    print(len(a) + len(b));
}
"#,
        &[("N", 37.0)],
    );
}

#[test]
fn control_flow_branches() {
    check(
        r#"
fn main() {
    let s = 0;
    for i in 0 .. 200 {
        if i % 3 == 0 { s = s + 1; }
        else if i % 3 == 1 { s = s + 2; }
        else { s = s - 1; }
        if i > 50 && i < 100 || i == 7 { s = s + 10; }
        if !(i == 0) { s = s + 0.5; }
    }
    print(s);
}
"#,
        &[],
    );
}

#[test]
fn while_break_continue() {
    check(
        r#"
fn main() {
    let x = 1000;
    let n = 0;
    while x > 1 {
        x = x / 2;
        n = n + 1;
        if n > 50 { break; }
    }
    print(x + n);
    let acc = 0;
    for i in 0 .. 100 {
        if i % 2 == 0 { continue; }
        if i == 31 { break; }
        acc = acc + i;
    }
    print(acc);
}
"#,
        &[],
    );
}

#[test]
fn functions_and_recursion() {
    check(
        r#"
fn main() {
    let a = zeros(16);
    fill(a, 16);
    print(total(a, 16));
    print(fib(12));
}
fn fill(buf, n) {
    for i in 0 .. n { buf[i] = i * i; }
}
fn total(buf, n) {
    let t = 0;
    for i in 0 .. n { t = t + buf[i]; }
    return t;
}
fn fib(k) {
    if k < 2 { return k; }
    return fib(k - 1) + fib(k - 2);
}
"#,
        &[],
    );
}

#[test]
fn early_returns_and_nested_calls() {
    check(
        r#"
fn main() {
    for i in 0 .. 20 {
        print(classify(i));
    }
}
fn classify(v) {
    if v < 5 { return 0 - v; }
    if v < 10 {
        for j in 0 .. v {
            if j == 7 { return 99; }
        }
        return 1;
    }
    return v * helper(v);
}
fn helper(v) {
    if v % 2 == 0 { return 2; }
    return 3;
}
"#,
        &[],
    );
}

#[test]
fn parfor_and_steps() {
    check(
        r#"
fn main() {
    let a = zeros(50);
    parfor i in 0 .. 50 { a[i] = i; }
    let s = 0;
    for i in 0 .. 50 step 7 { s = s + a[i]; }
    print(s);
}
"#,
        &[],
    );
}

#[test]
fn all_workloads_match_at_test_scale() {
    for w in xflow_workloads::all() {
        let prog = w.program();
        let spec = w.inputs(xflow_workloads::Scale::Test);
        let (p_ref, t_ref, r_ref) =
            reference::run(&prog, &spec, EventLog::default(), Limits::default(), DEFAULT_SEED).unwrap();
        for (what, vm) in both_bytecodes(&prog) {
            let (p_vm, t_vm, r_vm) = vm.run(&spec, EventLog::default(), Limits::default(), DEFAULT_SEED).unwrap();
            assert_eq!(r_ref.to_bits(), r_vm.to_bits(), "{} {what}", w.name);
            assert_profiles_equal(&p_ref, &p_vm, &format!("{} {what}", w.name));
            assert_eq!(t_ref.events.len(), t_vm.events.len(), "{} {what}: event count", w.name);
            assert_eq!(t_ref, t_vm, "{} {what}: event stream", w.name);
        }
    }
}

#[test]
fn runtime_errors_match() {
    for src in [
        "fn main() { let a = zeros(2); a[9] = 1; }",
        "fn main() { let a = zeros(0 - 4); }",
        "fn main() { print(nope); }",
        "fn main() { let x = 1; print(x[0]); }",
        "fn main() { let a = zeros(2); print(a + 1); }",
    ] {
        same_error(src, Limits::default());
    }
}

#[test]
fn vm_is_faster_on_heavy_workloads() {
    // not a strict benchmark — just a sanity check that the VM beats the
    // tree-walker on a compute-heavy run (both in debug or both in release)
    let w = xflow_workloads::stassuij();
    let prog = w.program();
    let spec = w.inputs(xflow_workloads::Scale::Test);
    let t0 = std::time::Instant::now();
    let _ = reference::run(&prog, &spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();
    let tree = t0.elapsed();
    let vm = compile(&prog).unwrap();
    let t1 = std::time::Instant::now();
    let _ = vm.run(&spec, NullTracer, Limits::default(), DEFAULT_SEED).unwrap();
    let fast = t1.elapsed();
    assert!(fast < tree, "vm ({fast:?}) should not be slower than the tree walker ({tree:?})");
}

/// Both engines fail `src` under `limits` with the same error.
fn same_error(src: &str, limits: Limits) -> RuntimeError {
    let prog = parse(src).unwrap();
    let spec = InputSpec::new();
    let r = reference::run(&prog, &spec, NullTracer, limits, DEFAULT_SEED).map(|_| ()).unwrap_err();
    for (what, vm) in both_bytecodes(&prog) {
        let v = vm.run(&spec, NullTracer, limits, DEFAULT_SEED).map(|_| ()).unwrap_err();
        assert_eq!(r, v, "{what}: {src}");
    }
    r
}

#[test]
fn array_and_scalar_arguments_travel_in_source_order() {
    // mixed array/scalar arguments, calls nested in argument position,
    // writes through a passed array that the caller sees, `len` of a
    // passed array, and a bare scalar name passed like an array
    check(
        r#"
fn main() {
    let n = input("N", 8);
    let a = zeros(n);
    let b = zeros(n * 2);
    let x = 3;
    let y = 2;
    for i in 0 .. n { b[i] = i * 0.5; }
    print(f(a, g(b, x + 1), 2 * y));
    print(a[0] + a[1]);
    print(width(a) + width(b));
    print(h(x, a, y, b) + a[2] + b[3]);
    outer(b);
    print(b[5]);
}
fn f(arr, k, m) { arr[0] = k; arr[1] = m; return k * m; }
fn g(arr, j) { return arr[j] + len(arr); }
fn width(arr) { return len(arr); }
fn h(s, p, t, q) { p[2] = s + t; q[3] = p[2] * 2; return q[3] + p[2]; }
fn outer(arr) { inner(arr, len(arr) - 11); arr[5] = arr[5] + 1; }
fn inner(arr, k) { arr[5] = k * 10; }
"#,
        &[],
    );
}

#[test]
fn attribution_is_restored_after_a_call_in_expression_position() {
    // the multiply and the second load after `f` returns belong to the
    // caller's statement again — the event stream pins every attribution
    check(
        r#"
fn main() {
    let a = zeros(4);
    a[1] = 3;
    let y = a[0] + f(a) * a[1];
    let z = f(a) + f(a) * 2;
    print(y + z);
}
fn f(arr) { arr[0] = arr[0] + 1; return arr[0] * 2; }
"#,
        &[],
    );
}

#[test]
fn blocks_reached_only_by_falling_through_after_loops() {
    // a zero-trip loop's head and a loop's exit reached by falling through
    // from a join, loops closing a body or a function, and code after a
    // loop that only `break` leaves
    check(
        r#"
fn main() {
    let n = input("N", 4);
    let s = 0;
    for i in 0 .. 0 { s = s + 1; }
    while s > 100 { s = s - 1; }
    for i in 0 .. n {
        for j in 0 .. i { s = s + j; }
    }
    while 1 > 0 {
        s = s + 1;
        if s > 20 { break; }
    }
    s = s * 2;
    if s > 0 { s = s + 1; }
    print(s);
    print(tail(n));
}
fn tail(k) {
    let t = 0;
    while t < k { t = t + 1; }
}
"#,
        &[],
    );
}

#[test]
fn user_calls_in_short_circuit_operands() {
    check(
        r#"
fn main() {
    let a = zeros(4);
    let c = 0;
    for i in 0 .. 6 {
        if i > 1 && bump(a, i) > 2 { c = c + 1; }
        if i < 3 || bump(a, i) > 4 { c = c + 10; }
        let x = (i > 2 && bump(a, i)) + (i > 4 || bump(a, 0));
        c = c + x;
    }
    print(c);
    print(a[0] + a[1] + a[2] + a[3]);
}
fn bump(arr, k) { arr[k % 4] = arr[k % 4] + 1; return k * arr[k % 4]; }
"#,
        &[],
    );
}

#[test]
fn functions_with_empty_bodies() {
    check(
        r#"
fn main() {
    nop();
    let x = nop() + 1;
    for i in 0 .. 3 { nop(); x = x + nop(); }
    print(x);
    print(nop());
}
fn nop() { }
"#,
        &[],
    );
}

#[test]
fn return_from_inside_nested_loops() {
    check(
        r#"
fn main() {
    let s = 0;
    for k in 0 .. 5 { s = s + find(k); }
    print(s);
    print(spin(7));
}
fn find(k) {
    for i in 0 .. 10 {
        for j in 0 .. 10 {
            if i * j == k * 3 { return i * 100 + j; }
        }
    }
    return 0 - 1;
}
fn spin(k) {
    let i = 0;
    while 1 > 0 {
        while i < 100 {
            i = i + 1;
            if i > k { return i; }
        }
    }
}
"#,
        &[],
    );
}

#[test]
fn deep_recursion_with_operands_pending_at_every_call() {
    let src = |k: u32| {
        format!(
            "fn main() {{ print(f({k})); }}
             fn f(k) {{ if k == 0 {{ return 0; }} return 1 + (2 + f(k - 1)); }}"
        )
    };
    check(&src(200), &[]);
    // main plus 256 frames of `f` pass the default limit of 256
    let e = same_error(&src(255), Limits::default());
    assert_eq!(e, RuntimeError::RecursionLimitExceeded(Limits::default().max_depth));
}

#[test]
fn argument_errors_match() {
    let limits = Limits::default();
    // arity mismatch after array arguments were pushed
    let e = same_error("fn main() { let a = zeros(4); let r = f(a, a, 1); } fn f(p, q) { return 0; }", limits);
    assert_eq!(e, RuntimeError::ArityMismatch { func: "f".into(), expected: 2, got: 3 });
    // an unset bare name in argument position
    let e = same_error("fn main() { let r = f(ghost); } fn f(p) { return 0; }", limits);
    assert_eq!(e, RuntimeError::UnboundVariable("ghost".into()));
    // an array received where the callee reads a scalar
    let e = same_error("fn main() { let a = zeros(2); print(f(a)); } fn f(v) { return v + 1; }", limits);
    assert_eq!(e, RuntimeError::NotAScalar("v".into()));
    // a scalar received where the callee indexes an array
    let e = same_error("fn main() { let x = 1; print(f(x)); } fn f(v) { return v[0]; }", limits);
    assert_eq!(e, RuntimeError::NotAnArray("v".into()));
}

#[test]
fn recursion_depth_limit_matches_at_the_boundary() {
    // main plus k + 1 frames of `down`
    let src = |k: u32| {
        format!(
            "fn main() {{ let a = zeros(2); print(down(a, {k})); print(a[0]); }}
                 fn down(arr, k) {{ if k > 0 {{ arr[0] = arr[0] + 1; return down(arr, k - 1) + 1; }} return 0; }}"
        )
    };
    let limits = Limits { max_steps: 1_000_000, max_depth: 16 };
    for depth in [limits.max_depth - 1, limits.max_depth] {
        let prog = parse(&src(depth - 2)).unwrap();
        let spec = InputSpec::new();
        let (p_ref, t_ref, r_ref) = reference::run(&prog, &spec, EventLog::default(), limits, DEFAULT_SEED).unwrap();
        let (p_vm, t_vm, r_vm) = compile(&prog).unwrap().run(&spec, EventLog::default(), limits, DEFAULT_SEED).unwrap();
        assert_eq!(r_ref.to_bits(), r_vm.to_bits(), "depth {depth}");
        assert_profiles_equal(&p_ref, &p_vm, &format!("depth {depth}"));
        assert_eq!(t_ref, t_vm, "depth {depth}: event stream");
        assert_eq!(p_vm.printed, vec![(depth - 2) as f64, (depth - 2) as f64]);
    }
    let e = same_error(&src(limits.max_depth - 1), limits);
    assert_eq!(e, RuntimeError::RecursionLimitExceeded(limits.max_depth));
}

#[test]
fn array_budget_errors_match() {
    let limits = Limits::default();
    let cap = MAX_ARRAY_ELEMENTS;
    for (src, len) in [
        (r#"fn main() { let a = zeros(input("N", 1e12)); }"#.to_string(), 1e12),
        ("fn main() { let a = zeros(1e30); }".to_string(), 1e30),
        ("fn main() { let a = zeros(1 / 0); }".to_string(), f64::INFINITY),
        (format!("fn main() {{ let a = zeros({}); }}", cap + 1), (cap + 1) as f64),
        // the budget is per run: two arrays that only together exceed it
        (format!("fn main() {{ let b = zeros(1000); let a = zeros({}); }}", cap - 999), (cap - 999) as f64),
    ] {
        let e = same_error(&src, limits);
        assert_eq!(e, RuntimeError::ArrayTooLarge { array: "a".into(), len }, "{src}");
    }
    // NaN lengths keep allocating an empty array, as before
    check("fn main() { let a = zeros(0 / 0); print(len(a)); }", &[]);
}
