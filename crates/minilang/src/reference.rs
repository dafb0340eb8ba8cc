//! The reference oracles for minilang's production engine: the
//! tree-walking interpreter ([`run`]), which defines the semantics, and
//! the unfused bytecode ([`compile_unfused`]).
//!
//! The interpreter defines what a minilang run means: every run collects a
//! [`Profile`] (per-branch arm frequencies, per-loop trip and
//! break/continue statistics, dynamic operation counts, library call
//! counts — the paper's gcov run, Section III-B) under the accounting
//! rules of [`crate::runtime`], and streams every operation and memory
//! access to a [`Tracer`].
//!
//! Production runs use the fused bytecode VM ([`crate::compile`]): the
//! profiled run ([`crate::profile`]) and the simulator's replay. The
//! interpreter is kept only as the oracle they are checked against — the
//! simulator's `reference::simulate_reference`, the differential
//! validator, the fuzzer, and the equivalence suites call [`run`], and the
//! VM must match it bit for bit.
//!
//! [`compile_unfused`] is the base instruction stream before the
//! superinstruction pass: the fusion equivalence suites check fused ≡
//! unfused ≡ interpreter on it, and `exp_profile` measures what fusion
//! buys against it.

use crate::ast::*;
use crate::runtime::{ArrRef, Heap, InputSpec, Lcg, Limits, Profile, RuntimeError, Tracer, Val};
use crate::vm::VmProgram;
use std::collections::HashMap;

/// Compile a program to the *unfused* bytecode: [`crate::compile`]
/// without its superinstruction pass. It runs through the same
/// [`VmProgram::run`] and [`VmProgram::run_profiled`] as production
/// bytecode.
pub fn compile_unfused(prog: &Program) -> Result<VmProgram, RuntimeError> {
    crate::vm::lower(prog)
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(f64),
}

/// The interpreter. Generic over the tracer so profiling-only runs are
/// monomorphized without the event hooks.
struct Interp<'p, T: Tracer> {
    prog: &'p Program,
    inputs: &'p InputSpec,
    tracer: T,
    profile: Profile,
    rng: Lcg,
    heap: Heap,
    steps: u64,
    depth: u32,
    limits: Limits,
    cur_stmt: MStmtId,
}

/// Native stack reserved per minilang call frame. The interpreter recurses
/// natively — `call` → `exec_block` → `exec_stmt` → `eval` once per block
/// enclosing the call site — and an unoptimized build spends up to ~80 KiB
/// on one minilang call made from four nested blocks, so this covers call
/// sites nested about a dozen blocks deep.
const STACK_PER_FRAME: usize = 256 << 10;
/// Native stack for `main` itself and deeply nested expressions.
const STACK_BASE: usize = 2 << 20;

/// Run a program on the tree-walker with a tracer, execution limits and an
/// explicit `rnd()` seed; returns the profile, the tracer, and main's
/// return value.
///
/// The run gets a thread of its own whose stack is sized for
/// `limits.max_depth` frames, so reaching the recursion limit returns
/// [`RuntimeError::RecursionLimitExceeded`] whatever the calling thread's
/// stack (2 MiB on test and pool threads) instead of overflowing it.
pub fn run<T: Tracer + Send>(
    prog: &Program,
    inputs: &InputSpec,
    tracer: T,
    limits: Limits,
    seed: u64,
) -> Result<(Profile, T, f64), RuntimeError> {
    // the stack is reserved, not committed; depth limits past 4096 frames
    // (1 GiB) get the 4096-frame stack
    let stack = STACK_BASE + STACK_PER_FRAME * limits.max_depth.min(4096) as usize;
    std::thread::scope(|s| {
        let run = move || {
            let mut interp = Interp {
                prog,
                inputs,
                tracer,
                profile: Profile::default(),
                rng: Lcg(seed),
                heap: Heap::default(),
                steps: 0,
                depth: 0,
                limits,
                cur_stmt: MStmtId(0),
            };
            let ret = interp.call("main", Vec::new())?;
            Ok((interp.profile, interp.tracer, ret))
        };
        let thread = std::thread::Builder::new().stack_size(stack).spawn_scoped(s, run);
        thread.expect("spawn the interpreter thread").join().unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

impl<'p, T: Tracer> Interp<'p, T> {
    fn call(&mut self, name: &str, args: Vec<Val>) -> Result<f64, RuntimeError> {
        let f = self.prog.function(name).ok_or_else(|| RuntimeError::UnknownFunction(name.to_string()))?;
        if f.params.len() != args.len() {
            return Err(RuntimeError::ArityMismatch {
                func: name.to_string(),
                expected: f.params.len(),
                got: args.len(),
            });
        }
        if self.depth >= self.limits.max_depth {
            return Err(RuntimeError::RecursionLimitExceeded(self.limits.max_depth));
        }
        self.depth += 1;
        let mut scope: HashMap<String, Val> = f.params.iter().cloned().zip(args).collect();
        let flow = self.exec_block(&f.body, &mut scope)?;
        self.depth -= 1;
        Ok(match flow {
            Flow::Return(v) => v,
            _ => 0.0,
        })
    }

    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(RuntimeError::StepLimitExceeded(self.limits.max_steps));
        }
        Ok(())
    }

    fn exec_block(&mut self, b: &Block, scope: &mut HashMap<String, Val>) -> Result<Flow, RuntimeError> {
        for s in &b.stmts {
            match self.exec_stmt(s, scope)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt, scope: &mut HashMap<String, Val>) -> Result<Flow, RuntimeError> {
        self.tick()?;
        self.cur_stmt = s.id;
        *self.profile.stmt_exec.entry(s.id).or_insert(0) += 1;
        match &s.kind {
            StmtKind::LetScalar { name, init } => {
                let v = self.eval(init, scope, false)?;
                scope.insert(name.clone(), Val::Num(v));
                Ok(Flow::Normal)
            }
            StmtKind::LetArray { name, len } => {
                let l = self.eval(len, scope, true)?;
                let arr = self.heap.alloc(name, l)?;
                scope.insert(name.clone(), Val::Arr(arr));
                Ok(Flow::Normal)
            }
            StmtKind::AssignScalar { name, value } => {
                let v = self.eval(value, scope, false)?;
                match scope.get_mut(name) {
                    Some(Val::Num(slot)) => {
                        *slot = v;
                        Ok(Flow::Normal)
                    }
                    Some(Val::Arr(_)) => Err(RuntimeError::NotAScalar(name.clone())),
                    None => {
                        // implicit declaration on first assignment
                        scope.insert(name.clone(), Val::Num(v));
                        Ok(Flow::Normal)
                    }
                }
            }
            StmtKind::AssignIndex { name, index, value } => {
                let idx = self.eval(index, scope, true)?;
                let v = self.eval(value, scope, false)?;
                self.store_elem(name, idx, v, scope)?;
                Ok(Flow::Normal)
            }
            StmtKind::UpdateIndex { name, index, op, value } => {
                let idx = self.eval(index, scope, true)?;
                let v = self.eval(value, scope, false)?;
                let old = self.load_elem(name, idx, scope)?;
                let new = self.apply_bin(*op, old, v, false);
                self.store_elem(name, idx, new, scope)?;
                Ok(Flow::Normal)
            }
            // `parfor` executes sequentially here: the interpreter is the
            // functional/profiling reference; parallelism only affects the
            // *projected* wall time, not the work performed.
            StmtKind::For { var, lo, hi, step, parallel: _, body } => {
                let lo = self.eval(lo, scope, true)?;
                let hi = self.eval(hi, scope, true)?;
                let st = self.eval(step, scope, true)?.max(f64::MIN_POSITIVE);
                let loop_id = s.id;
                self.profile.loops.entry(loop_id).or_default().entries += 1;
                let mut i = lo;
                let mut flow = Flow::Normal;
                while i < hi {
                    self.tick()?;
                    {
                        let l = self.profile.loops.entry(loop_id).or_default();
                        l.iterations += 1;
                    }
                    // loop bookkeeping: compare + increment
                    self.count_ops(loop_id, 0, 2, 0);
                    scope.insert(var.clone(), Val::Num(i));
                    match self.exec_block(body, scope)? {
                        Flow::Normal => {}
                        Flow::Continue => {
                            self.profile.loops.entry(loop_id).or_default().continues += 1;
                        }
                        Flow::Break => {
                            self.profile.loops.entry(loop_id).or_default().breaks += 1;
                            break;
                        }
                        Flow::Return(v) => {
                            flow = Flow::Return(v);
                            break;
                        }
                    }
                    i += st;
                }
                Ok(flow)
            }
            StmtKind::While { cond, body } => {
                let loop_id = s.id;
                self.profile.loops.entry(loop_id).or_default().entries += 1;
                let mut flow = Flow::Normal;
                loop {
                    self.cur_stmt = loop_id;
                    let c = self.eval(cond, scope, false)?;
                    if c == 0.0 {
                        break;
                    }
                    self.tick()?;
                    self.profile.loops.entry(loop_id).or_default().iterations += 1;
                    match self.exec_block(body, scope)? {
                        Flow::Normal => {}
                        Flow::Continue => {
                            self.profile.loops.entry(loop_id).or_default().continues += 1;
                        }
                        Flow::Break => {
                            self.profile.loops.entry(loop_id).or_default().breaks += 1;
                            break;
                        }
                        Flow::Return(v) => {
                            flow = Flow::Return(v);
                            break;
                        }
                    }
                }
                Ok(flow)
            }
            StmtKind::If { arms, else_body } => {
                let branch_id = s.id;
                {
                    let b = self.profile.branches.entry(branch_id).or_default();
                    if b.arm_hits.len() < arms.len() {
                        b.arm_hits.resize(arms.len(), 0);
                    }
                }
                for (i, (cond, body)) in arms.iter().enumerate() {
                    self.cur_stmt = branch_id;
                    let c = self.eval(cond, scope, false)?;
                    if c != 0.0 {
                        self.profile.branches.get_mut(&branch_id).unwrap().arm_hits[i] += 1;
                        return self.exec_block(body, scope);
                    }
                }
                self.profile.branches.get_mut(&branch_id).unwrap().else_hits += 1;
                if let Some(e) = else_body {
                    return self.exec_block(e, scope);
                }
                Ok(Flow::Normal)
            }
            StmtKind::CallProc { name, args } => {
                let vals = self.eval_args(name, args, scope)?;
                self.call(name, vals)?;
                Ok(Flow::Normal)
            }
            StmtKind::Return { value } => {
                let v = match value {
                    Some(e) => self.eval(e, scope, false)?,
                    None => 0.0,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Print { expr } => {
                let v = self.eval(expr, scope, false)?;
                self.profile.printed.push(v);
                Ok(Flow::Normal)
            }
        }
    }

    fn eval_args(
        &mut self,
        _func: &str,
        args: &[Expr],
        scope: &mut HashMap<String, Val>,
    ) -> Result<Vec<Val>, RuntimeError> {
        args.iter()
            .map(|a| match a {
                // bare array names pass the array by reference
                Expr::Var(v) => match scope.get(v) {
                    Some(val) => Ok(*val),
                    None => Err(RuntimeError::UnboundVariable(v.clone())),
                },
                other => Ok(Val::Num(self.eval(other, scope, false)?)),
            })
            .collect()
    }

    fn count_ops(&mut self, stmt: MStmtId, flops: u32, iops: u32, divs: u32) {
        let c = self.profile.stmt_ops.entry(stmt).or_default();
        c.flops += flops as u64;
        c.iops += iops as u64;
        c.divs += divs as u64;
        self.tracer.ops(stmt, flops, iops, divs);
    }

    fn arr(scope: &HashMap<String, Val>, name: &str) -> Result<ArrRef, RuntimeError> {
        match scope.get(name) {
            Some(Val::Arr(a)) => Ok(*a),
            Some(Val::Num(_)) => Err(RuntimeError::NotAnArray(name.to_string())),
            None => Err(RuntimeError::UnboundVariable(name.to_string())),
        }
    }

    fn load_elem(&mut self, name: &str, idx: f64, scope: &HashMap<String, Val>) -> Result<f64, RuntimeError> {
        let a = Self::arr(scope, name)?;
        let i = idx as usize;
        if idx < 0.0 || i >= a.len() {
            return Err(RuntimeError::IndexOutOfBounds { array: name.to_string(), index: idx, len: a.len() });
        }
        let v = self.heap.load(a, i);
        let addr = a.base + (i as u64) * 8;
        let c = self.profile.stmt_ops.entry(self.cur_stmt).or_default();
        c.loads += 1;
        self.tracer.load(self.cur_stmt, addr);
        Ok(v)
    }

    fn store_elem(
        &mut self,
        name: &str,
        idx: f64,
        value: f64,
        scope: &HashMap<String, Val>,
    ) -> Result<(), RuntimeError> {
        let a = Self::arr(scope, name)?;
        let i = idx as usize;
        if idx < 0.0 || i >= a.len() {
            return Err(RuntimeError::IndexOutOfBounds { array: name.to_string(), index: idx, len: a.len() });
        }
        self.heap.store(a, i, value);
        let addr = a.base + (i as u64) * 8;
        let c = self.profile.stmt_ops.entry(self.cur_stmt).or_default();
        c.stores += 1;
        self.tracer.store(self.cur_stmt, addr);
        Ok(())
    }

    fn apply_bin(&mut self, op: BinOp, l: f64, r: f64, idx_ctx: bool) -> f64 {
        let (flops, iops, divs) = if idx_ctx {
            (0, 1, 0)
        } else if op == BinOp::Div {
            (1, 0, 1)
        } else {
            (1, 0, 0)
        };
        self.count_ops(self.cur_stmt, flops, iops, divs);
        match op {
            BinOp::Add => l + r,
            BinOp::Sub => l - r,
            BinOp::Mul => l * r,
            BinOp::Div => l / r,
            BinOp::Mod => l % r,
        }
    }

    /// Evaluate an expression. `idx_ctx` marks index/bound position where
    /// arithmetic is integer (address) work.
    fn eval(&mut self, e: &Expr, scope: &mut HashMap<String, Val>, idx_ctx: bool) -> Result<f64, RuntimeError> {
        Ok(match e {
            Expr::Num(n) => *n,
            Expr::Var(v) => match scope.get(v) {
                Some(Val::Num(x)) => *x,
                Some(Val::Arr(_)) => return Err(RuntimeError::NotAScalar(v.clone())),
                None => return Err(RuntimeError::UnboundVariable(v.clone())),
            },
            Expr::Index(name, idx) => {
                let i = self.eval(idx, scope, true)?;
                self.load_elem(name, i, scope)?
            }
            Expr::Len(name) => Self::arr(scope, name)?.len() as f64,
            Expr::Input(name, default) => self.inputs.get_or(name, *default),
            Expr::Bin(l, op, r) => {
                let lv = self.eval(l, scope, idx_ctx)?;
                let rv = self.eval(r, scope, idx_ctx)?;
                self.apply_bin(*op, lv, rv, idx_ctx)
            }
            Expr::Neg(inner) => {
                let v = self.eval(inner, scope, idx_ctx)?;
                self.count_ops(self.cur_stmt, if idx_ctx { 0 } else { 1 }, if idx_ctx { 1 } else { 0 }, 0);
                -v
            }
            Expr::Cmp(l, op, r) => {
                let lv = self.eval(l, scope, idx_ctx)?;
                let rv = self.eval(r, scope, idx_ctx)?;
                self.count_ops(self.cur_stmt, 1, 0, 0);
                if op.apply(lv, rv) {
                    1.0
                } else {
                    0.0
                }
            }
            Expr::And(l, r) => {
                let lv = self.eval(l, scope, idx_ctx)?;
                self.count_ops(self.cur_stmt, 0, 1, 0);
                if lv == 0.0 {
                    0.0
                } else {
                    let rv = self.eval(r, scope, idx_ctx)?;
                    if rv != 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            }
            Expr::Or(l, r) => {
                let lv = self.eval(l, scope, idx_ctx)?;
                self.count_ops(self.cur_stmt, 0, 1, 0);
                if lv != 0.0 {
                    1.0
                } else {
                    let rv = self.eval(r, scope, idx_ctx)?;
                    if rv != 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            }
            Expr::Not(inner) => {
                let v = self.eval(inner, scope, idx_ctx)?;
                self.count_ops(self.cur_stmt, 0, 1, 0);
                if v == 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Expr::Call(b, args) => {
                let mut vals = [0.0f64; 2];
                for (i, a) in args.iter().enumerate().take(2) {
                    vals[i] = self.eval(a, scope, idx_ctx)?;
                }
                match b {
                    Builtin::Abs => {
                        self.count_ops(self.cur_stmt, 1, 0, 0);
                        vals[0].abs()
                    }
                    Builtin::Min => {
                        self.count_ops(self.cur_stmt, 1, 0, 0);
                        vals[0].min(vals[1])
                    }
                    Builtin::Max => {
                        self.count_ops(self.cur_stmt, 1, 0, 0);
                        vals[0].max(vals[1])
                    }
                    Builtin::Floor => {
                        self.count_ops(self.cur_stmt, 1, 0, 0);
                        vals[0].floor()
                    }
                    Builtin::Rnd => {
                        self.lib(b, "rand", 0.0);
                        self.rng.next_f64()
                    }
                    Builtin::Exp => {
                        self.lib(b, "exp", vals[0]);
                        vals[0].exp()
                    }
                    Builtin::Log => {
                        self.lib(b, "log", vals[0]);
                        vals[0].max(f64::MIN_POSITIVE).ln()
                    }
                    Builtin::Sqrt => {
                        self.lib(b, "sqrt", vals[0]);
                        vals[0].abs().sqrt()
                    }
                    Builtin::Sin => {
                        self.lib(b, "sin", vals[0]);
                        vals[0].sin()
                    }
                    Builtin::Cos => {
                        self.lib(b, "cos", vals[0]);
                        vals[0].cos()
                    }
                    Builtin::Pow => {
                        self.lib(b, "pow", vals[0]);
                        vals[0].powf(vals[1])
                    }
                }
            }
            Expr::CallFn(name, args) => {
                let vals = self.eval_args(name, args, scope)?;
                let saved = self.cur_stmt;
                let r = self.call(name, vals)?;
                self.cur_stmt = saved;
                r
            }
        })
    }

    fn lib(&mut self, b: &Builtin, name: &'static str, arg: f64) {
        debug_assert_eq!(b.lib_name(), Some(name));
        *self.profile.lib_calls.entry(name.to_string()).or_insert(0) += 1;
        self.tracer.lib_call(self.cur_stmt, name, arg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::runtime::{NullTracer, OpCounts, DEFAULT_SEED};

    fn profile(prog: &Program, inputs: &InputSpec) -> Result<Profile, RuntimeError> {
        run(prog, inputs, NullTracer, Limits::default(), DEFAULT_SEED).map(|(p, _, _)| p)
    }

    fn run_src(src: &str) -> Profile {
        let p = parse(src).unwrap();
        profile(&p, &InputSpec::new()).unwrap()
    }

    fn run_src_with(src: &str, inputs: &[(&str, f64)]) -> Profile {
        let p = parse(src).unwrap();
        profile(&p, &InputSpec::from_pairs(inputs.iter().copied())).unwrap()
    }

    #[test]
    fn arithmetic_and_print() {
        let prof = run_src("fn main() { let x = 2 + 3 * 4; print(x); }");
        assert_eq!(prof.printed, vec![14.0]);
    }

    #[test]
    fn arrays_round_trip_values() {
        let prof = run_src(
            "fn main() { let a = zeros(4); a[0] = 7; a[1] = a[0] * 2; a[1] += 1; print(a[1]); print(len(a)); }",
        );
        assert_eq!(prof.printed, vec![15.0, 4.0]);
    }

    #[test]
    fn for_loop_iterates_and_profiles() {
        let src = "fn main() { let s = 0; for i in 0 .. 10 { s = s + i; } print(s); }";
        let p = parse(src).unwrap();
        let prof = profile(&p, &InputSpec::new()).unwrap();
        assert_eq!(prof.printed, vec![45.0]);
        let loop_stats: Vec<_> = prof.loops.values().collect();
        assert_eq!(loop_stats.len(), 1);
        assert_eq!(loop_stats[0].entries, 1);
        assert_eq!(loop_stats[0].iterations, 10);
        assert_eq!(loop_stats[0].avg_trips(), 10.0);
    }

    #[test]
    fn for_loop_with_step() {
        let prof = run_src("fn main() { let s = 0; for i in 0 .. 10 step 3 { s = s + 1; } print(s); }");
        assert_eq!(prof.printed, vec![4.0]); // 0,3,6,9
    }

    #[test]
    fn while_loop_and_trip_profile() {
        let src = "fn main() { let x = 16; while x > 1 { x = x / 2; } print(x); }";
        let prof = run_src(src);
        assert_eq!(prof.printed, vec![1.0]);
        let stats: Vec<_> = prof.loops.values().collect();
        assert_eq!(stats[0].iterations, 4);
    }

    #[test]
    fn branch_profile_counts_arms() {
        let src = r#"
fn main() {
    for i in 0 .. 100 {
        if i % 4 == 0 { print(0); }
        else if i % 4 == 1 { print(1); }
        else { print(2); }
    }
}
"#;
        let prof = run_src(src);
        let b = prof.branches.values().next().unwrap();
        assert_eq!(b.arm_hits, vec![25, 25]);
        assert_eq!(b.else_hits, 50);
        assert!((b.arm_prob(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn break_and_continue_profiled() {
        let src = r#"
fn main() {
    for i in 0 .. 100 {
        if i == 10 { break; }
        if i % 2 == 0 { continue; }
        print(i);
    }
}
"#;
        let prof = run_src(src);
        let l = prof.loops.values().next().unwrap();
        assert_eq!(l.iterations, 11); // 0..=10
        assert_eq!(l.breaks, 1);
        assert_eq!(l.continues, 5); // i = 0,2,4,6,8 (i == 10 breaks first)
        assert_eq!(prof.printed, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn function_calls_with_arrays_by_reference() {
        let src = r#"
fn main() {
    let a = zeros(3);
    fill(a, 3);
    print(a[0] + a[1] + a[2]);
}
fn fill(buf, n) {
    for i in 0 .. n { buf[i] = i + 1; }
}
"#;
        let prof = run_src(src);
        assert_eq!(prof.printed, vec![6.0]);
    }

    #[test]
    fn function_return_values() {
        let src = r#"
fn main() { print(square(7)); }
fn square(x) { return x * x; }
"#;
        assert_eq!(run_src(src).printed, vec![49.0]);
    }

    #[test]
    fn inputs_override_defaults() {
        let src = r#"fn main() { print(input("N", 4)); }"#;
        assert_eq!(run_src(src).printed, vec![4.0]);
        assert_eq!(run_src_with(src, &[("N", 9.0)]).printed, vec![9.0]);
    }

    #[test]
    fn rnd_is_deterministic_and_in_unit_interval() {
        let src = "fn main() { for i in 0 .. 100 { print(rnd()); } }";
        let a = run_src(src).printed;
        let b = run_src(src).printed;
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (0.0..1.0).contains(&v)));
        // crude uniformity check
        let mean: f64 = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - 0.5).abs() < 0.12, "mean {mean}");
    }

    #[test]
    fn lib_calls_counted() {
        let prof = run_src("fn main() { for i in 0 .. 5 { let x = exp(i); let y = rnd(); } }");
        assert_eq!(prof.lib_calls["exp"], 5);
        assert_eq!(prof.lib_calls["rand"], 5);
    }

    #[test]
    fn op_counting_flops_vs_iops() {
        // a[i*2] = x + y: index mul = iop, add = flop, store = 1
        let src = "fn main() { let a = zeros(8); let x = 1; let y = 2; a[1 * 2] = x + y; }";
        let prof = run_src(src);
        let total: OpCounts = prof.stmt_ops.values().fold(OpCounts::default(), |mut acc, c| {
            acc.flops += c.flops;
            acc.iops += c.iops;
            acc.loads += c.loads;
            acc.stores += c.stores;
            acc.divs += c.divs;
            acc
        });
        assert_eq!(total.stores, 1);
        assert_eq!(total.loads, 0);
        assert!(total.iops >= 1);
        assert!(total.flops >= 1);
    }

    #[test]
    fn divide_counts_div() {
        let prof = run_src("fn main() { let x = 10; let y = x / 3; }");
        let divs: u64 = prof.stmt_ops.values().map(|c| c.divs).sum();
        assert_eq!(divs, 1);
    }

    #[test]
    fn out_of_bounds_is_error() {
        let p = parse("fn main() { let a = zeros(2); a[5] = 1; }").unwrap();
        let err = profile(&p, &InputSpec::new()).unwrap_err();
        assert!(matches!(err, RuntimeError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn unknown_function_is_error() {
        let p = parse("fn main() { ghost(); }").unwrap();
        assert!(matches!(profile(&p, &InputSpec::new()).unwrap_err(), RuntimeError::UnknownFunction(_)));
    }

    #[test]
    fn arity_mismatch_is_error() {
        let p = parse("fn main() { f(1, 2); } fn f(x) { }").unwrap();
        assert!(matches!(profile(&p, &InputSpec::new()).unwrap_err(), RuntimeError::ArityMismatch { .. }));
    }

    #[test]
    fn step_limit_halts_infinite_loop() {
        let p = parse("fn main() { while 1 > 0 { let x = 1; } }").unwrap();
        let err = run(&p, &InputSpec::new(), NullTracer, Limits { max_steps: 10_000, max_depth: 16 }, DEFAULT_SEED)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::StepLimitExceeded(_)));
    }

    #[test]
    fn recursion_limit_halts() {
        let p = parse("fn main() { f(); } fn f() { f(); }").unwrap();
        let err = run(&p, &InputSpec::new(), NullTracer, Limits { max_steps: 1_000_000, max_depth: 32 }, DEFAULT_SEED)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::RecursionLimitExceeded(_)));
    }

    #[test]
    fn tracer_receives_addresses() {
        #[derive(Default)]
        struct Collect {
            loads: Vec<u64>,
            stores: Vec<u64>,
        }
        impl Tracer for Collect {
            fn load(&mut self, _s: MStmtId, addr: u64) {
                self.loads.push(addr);
            }
            fn store(&mut self, _s: MStmtId, addr: u64) {
                self.stores.push(addr);
            }
        }
        let p = parse("fn main() { let a = zeros(4); a[0] = 1; a[2] = a[0]; }").unwrap();
        let (_, t, _) = run(&p, &InputSpec::new(), Collect::default(), Limits::default(), DEFAULT_SEED).unwrap();
        assert_eq!(t.stores.len(), 2);
        assert_eq!(t.loads.len(), 1);
        // sequential elements are 8 bytes apart
        assert_eq!(t.stores[1] - t.stores[0], 16);
        assert_eq!(t.loads[0], t.stores[0]);
    }

    #[test]
    fn negative_array_length_is_error() {
        let p = parse("fn main() { let a = zeros(0 - 5); }").unwrap();
        assert!(matches!(profile(&p, &InputSpec::new()).unwrap_err(), RuntimeError::NegativeArrayLength { .. }));
    }

    #[test]
    fn scalar_passed_by_value() {
        let src = r#"
fn main() { let x = 1; bump(x); print(x); }
fn bump(v) { v = v + 10; }
"#;
        assert_eq!(run_src(src).printed, vec![1.0]);
    }

    #[test]
    fn short_circuit_and_or() {
        // `i > 0 && a[i-1] > 0` must not evaluate a[-1] when i == 0.
        let src = r#"
fn main() {
    let a = zeros(3);
    for i in 0 .. 3 {
        if i > 0 && a[i - 1] >= 0 { a[i] = 1; }
    }
    print(a[0] + a[1] + a[2]);
}
"#;
        assert_eq!(run_src(src).printed, vec![2.0]);
    }
}
