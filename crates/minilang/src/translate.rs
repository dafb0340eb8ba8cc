//! Source-to-skeleton translation — the application analysis engine.
//!
//! This is the reproduction of the paper's ROSE-based engine (Section III-B):
//! a static pass over minilang source that emits a code skeleton, combined
//! with the branch [`Profile`] of one local run to annotate data-dependent
//! control flow.
//!
//! ## Translation rules
//!
//! * Runs of simple statements become one `comp` block whose operation
//!   counts are derived statically using the same accounting rules as the
//!   execution engines ([`crate::runtime`]: flops/divs in value position,
//!   iops in index position, loads/stores for element accesses).
//! * `for` loops with *modelable* bounds (arithmetic over tracked scalars)
//!   become skeleton `loop`s with symbolic bounds; loops with data-dependent
//!   bounds and all `while` loops become `while trips(...)` with the
//!   profiled mean trip count.
//! * `if` arms with modelable comparisons become deterministic conditions;
//!   data-dependent arms get the profiled conditional probability (the
//!   probability the arm is taken given earlier arms were not).
//! * Math builtins (`exp`, `rnd`, …) become `lib` statements; user calls in
//!   expressions are hoisted to skeleton `call` statements.
//! * Scalars whose values the skeleton can compute (arithmetic over inputs,
//!   parameters, and other tracked scalars) are kept live via skeleton
//!   `let`s; arrays are represented by their lengths (`a` → `a__len`, and
//!   array arguments pass lengths).
//!
//! The returned [`Translation`] carries the statement mapping used to join
//! model-projected hot spots with simulator-measured ones.

use crate::ast as ml;
use crate::runtime::{InputSpec, Profile};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use xflow_skeleton as sk;
use xflow_skeleton::expr::Expr as SkExpr;

/// Result of translating a minilang program to a skeleton.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Translation {
    /// The generated skeleton (BST).
    pub skeleton: sk::Program,
    /// Minilang statement → skeleton statement carrying its cost.
    pub map: HashMap<ml::MStmtId, sk::StmtId>,
    /// Input names referenced by the program with their defaults.
    pub inputs: HashMap<String, f64>,
    /// Non-fatal modeling notes (unmodelable expressions, fallbacks used).
    pub warnings: Vec<String>,
}

/// Seed the BET environment of a translated program: its declared input
/// defaults, overridden by the concrete input binding.
///
/// Both maps are visited in sorted-name order — `translation.inputs` via an
/// explicit sort, `inputs` by `InputSpec`'s ordered backing store — so
/// seeding is reproducible run to run (the resulting `Env` is a `HashMap`,
/// but deterministic visitation keeps warning/trace order stable and makes
/// the function safe to fold into content hashes).
pub fn initial_env(translation: &Translation, inputs: &InputSpec) -> sk::Env {
    let mut env = sk::Env::new();
    let mut defaults: Vec<(&String, &f64)> = translation.inputs.iter().collect();
    defaults.sort_by_key(|(k, _)| k.as_str());
    for (k, v) in defaults {
        env.insert(k.clone(), sk::Value::Scalar(inputs.get_or(k, *v)));
    }
    for (k, v) in inputs.iter() {
        env.insert(k.to_string(), sk::Value::Scalar(v));
    }
    env
}

/// A structural failure while translating minilang into a skeleton.
///
/// Warnings (unmodelable expressions, profile fallbacks) never error; they
/// land in [`Translation::warnings`]. Errors are reserved for programs the
/// skeleton representation cannot express at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// Two minilang functions share a name; the skeleton's function table
    /// is keyed by name and cannot hold both.
    DuplicateFunction { function: String },
    /// The skeleton builder rejected a generated function for another reason.
    Skeleton { function: String, message: String },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::DuplicateFunction { function } => {
                write!(f, "duplicate function `{function}` in translated program")
            }
            TranslateError::Skeleton { function, message } => {
                write!(f, "skeleton construction failed for `{function}`: {message}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translate a minilang program into a skeleton, folding in profiled branch
/// and loop statistics.
pub fn translate(prog: &ml::Program, profile: &Profile) -> Result<Translation, TranslateError> {
    let mut tr = Translator {
        profile,
        out: sk::Program::new(),
        map: HashMap::new(),
        inputs: HashMap::new(),
        warnings: Vec::new(),
    };
    // Determine which parameters of each function are arrays (receive
    // lengths in the skeleton) by propagating from call sites.
    let array_params = infer_array_params(prog);
    for f in &prog.functions {
        let mut ctx = FnCtx {
            tracked: f.params.iter().cloned().collect(),
            arrays: array_params.get(&f.name).cloned().unwrap_or_default(),
        };
        let body = tr.block(&f.body, &mut ctx);
        tr.out
            .add_function(sk::Function { id: sk::FuncId(0), name: f.name.clone(), params: f.params.clone(), body })
            .map_err(|e| {
            let message = e.to_string();
            if message.contains("duplicate") {
                TranslateError::DuplicateFunction { function: f.name.clone() }
            } else {
                TranslateError::Skeleton { function: f.name.clone(), message }
            }
        })?;
    }
    Ok(Translation { skeleton: tr.out, map: tr.map, inputs: tr.inputs, warnings: tr.warnings })
}

/// Which parameters of each function are bound to arrays at some call site.
fn infer_array_params(prog: &ml::Program) -> HashMap<String, HashSet<String>> {
    // Seed: locally declared arrays per function.
    let mut local_arrays: HashMap<&str, HashSet<String>> = HashMap::new();
    for f in &prog.functions {
        let mut set = HashSet::new();
        collect_local_arrays(&f.body, &mut set);
        local_arrays.insert(f.name.as_str(), set);
    }
    // Fixed point: a param is an array if any caller passes an array name.
    let mut result: HashMap<String, HashSet<String>> = HashMap::new();
    loop {
        let mut changed = false;
        for f in &prog.functions {
            let known: HashSet<String> = local_arrays[f.name.as_str()]
                .iter()
                .cloned()
                .chain(result.get(&f.name).cloned().unwrap_or_default())
                .collect();
            let mut sites = Vec::new();
            collect_calls(&f.body, &mut sites);
            for (callee, args) in sites {
                let Some(cf) = prog.function(&callee) else { continue };
                for (i, a) in args.iter().enumerate() {
                    if let ml::Expr::Var(v) = a {
                        if known.contains(v) {
                            if let Some(p) = cf.params.get(i) {
                                if result.entry(callee.clone()).or_default().insert(p.clone()) {
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    result
}

fn collect_local_arrays(b: &ml::Block, out: &mut HashSet<String>) {
    for s in &b.stmts {
        match &s.kind {
            ml::StmtKind::LetArray { name, .. } => {
                out.insert(name.clone());
            }
            ml::StmtKind::For { body, .. } | ml::StmtKind::While { body, .. } => collect_local_arrays(body, out),
            ml::StmtKind::If { arms, else_body } => {
                for (_, b) in arms {
                    collect_local_arrays(b, out);
                }
                if let Some(e) = else_body {
                    collect_local_arrays(e, out);
                }
            }
            _ => {}
        }
    }
}

fn collect_calls(b: &ml::Block, out: &mut Vec<(String, Vec<ml::Expr>)>) {
    fn scan_expr(e: &ml::Expr, out: &mut Vec<(String, Vec<ml::Expr>)>) {
        match e {
            ml::Expr::CallFn(n, args) => {
                out.push((n.clone(), args.clone()));
                for a in args {
                    scan_expr(a, out);
                }
            }
            ml::Expr::Bin(l, _, r) | ml::Expr::Cmp(l, _, r) | ml::Expr::And(l, r) | ml::Expr::Or(l, r) => {
                scan_expr(l, out);
                scan_expr(r, out);
            }
            ml::Expr::Neg(i) | ml::Expr::Not(i) | ml::Expr::Index(_, i) => scan_expr(i, out),
            ml::Expr::Call(_, args) => {
                for a in args {
                    scan_expr(a, out);
                }
            }
            _ => {}
        }
    }
    for s in &b.stmts {
        match &s.kind {
            ml::StmtKind::CallProc { name, args } => {
                out.push((name.clone(), args.clone()));
                for a in args {
                    scan_expr(a, out);
                }
            }
            ml::StmtKind::LetScalar { init: e, .. }
            | ml::StmtKind::AssignScalar { value: e, .. }
            | ml::StmtKind::Print { expr: e } => scan_expr(e, out),
            ml::StmtKind::AssignIndex { index, value, .. } | ml::StmtKind::UpdateIndex { index, value, .. } => {
                scan_expr(index, out);
                scan_expr(value, out);
            }
            ml::StmtKind::LetArray { len, .. } => scan_expr(len, out),
            ml::StmtKind::Return { value: Some(e) } => scan_expr(e, out),
            ml::StmtKind::For { lo, hi, step, body, .. } => {
                scan_expr(lo, out);
                scan_expr(hi, out);
                scan_expr(step, out);
                collect_calls(body, out);
            }
            ml::StmtKind::While { cond, body } => {
                scan_expr(cond, out);
                collect_calls(body, out);
            }
            ml::StmtKind::If { arms, else_body } => {
                for (c, b) in arms {
                    scan_expr(c, out);
                    collect_calls(b, out);
                }
                if let Some(e) = else_body {
                    collect_calls(e, out);
                }
            }
            _ => {}
        }
    }
}

/// Scalars assigned anywhere in a block, through nested control flow.
/// A loop body re-executes: a scalar it assigns holds a different value on
/// every iteration after the first, so the entry-time tracked value must
/// not model conditions or bounds inside (or after) the loop.
fn assigned_scalars(b: &ml::Block, out: &mut HashSet<String>) {
    for s in &b.stmts {
        match &s.kind {
            ml::StmtKind::AssignScalar { name, .. } => {
                out.insert(name.clone());
            }
            ml::StmtKind::For { body, .. } | ml::StmtKind::While { body, .. } => assigned_scalars(body, out),
            ml::StmtKind::If { arms, else_body } => {
                for (_, b) in arms {
                    assigned_scalars(b, out);
                }
                if let Some(e) = else_body {
                    assigned_scalars(e, out);
                }
            }
            _ => {}
        }
    }
}

/// Per-function translation context.
/// Whether the expression contains a `%` anywhere (only `Bin`/`Neg` can
/// nest other modelable expressions; everything else is unmodelable and
/// makes the caller bail regardless).
fn contains_mod(e: &ml::Expr) -> bool {
    match e {
        ml::Expr::Bin(l, op, r) => *op == ml::BinOp::Mod || contains_mod(l) || contains_mod(r),
        ml::Expr::Neg(i) => contains_mod(i),
        _ => false,
    }
}

struct FnCtx {
    /// Scalars whose values are modelable in the skeleton.
    tracked: HashSet<String>,
    /// Names known to be arrays (locals and array-bound params).
    arrays: HashSet<String>,
}

/// Statically counted cost of a straight-line region, per single execution.
#[derive(Debug, Clone, Default)]
struct StaticOps {
    flops: f64,
    iops: f64,
    divs: f64,
    loads: f64,
    stores: f64,
    /// Library calls by name.
    libs: HashMap<&'static str, f64>,
    /// User calls hoisted out of expressions.
    calls: Vec<(String, Vec<ml::Expr>)>,
}

impl StaticOps {
    fn is_empty_ops(&self) -> bool {
        self.flops == 0.0 && self.iops == 0.0 && self.loads == 0.0 && self.stores == 0.0
    }
}

struct Translator<'p> {
    profile: &'p Profile,
    out: sk::Program,
    map: HashMap<ml::MStmtId, sk::StmtId>,
    inputs: HashMap<String, f64>,
    warnings: Vec<String>,
}

impl<'p> Translator<'p> {
    fn block(&mut self, b: &ml::Block, ctx: &mut FnCtx) -> sk::Block {
        let mut out = Vec::new();
        let mut run: StaticOps = StaticOps::default();
        let mut run_stmts: Vec<ml::MStmtId> = Vec::new();
        let mut run_label: Option<String> = None;
        let mut pending_lets: Vec<(String, SkExpr)> = Vec::new();

        macro_rules! flush_run {
            () => {
                self.flush_run(&mut run, &mut run_stmts, &mut run_label, &mut pending_lets, &mut out)
            };
        }

        for s in &b.stmts {
            match &s.kind {
                // --- simple statements accumulate into the current run ----
                ml::StmtKind::LetScalar { name, init } | ml::StmtKind::AssignScalar { name, value: init } => {
                    self.count_expr(init, false, &mut run, ctx);
                    if run_label.is_none() {
                        run_label = s.label.clone();
                    }
                    run_stmts.push(s.id);
                    self.collect_inputs(init);
                    match self.model_expr(init, ctx) {
                        Some(e) => {
                            pending_lets.push((name.clone(), e));
                            ctx.tracked.insert(name.clone());
                        }
                        None => {
                            ctx.tracked.remove(name);
                        }
                    }
                }
                ml::StmtKind::LetArray { name, len } => {
                    self.count_expr(len, true, &mut run, ctx);
                    if run_label.is_none() {
                        run_label = s.label.clone();
                    }
                    run_stmts.push(s.id);
                    self.collect_inputs(len);
                    ctx.arrays.insert(name.clone());
                    let len_var = format!("{name}__len");
                    match self.model_expr(len, ctx) {
                        Some(e) => {
                            pending_lets.push((len_var.clone(), e));
                            ctx.tracked.insert(len_var);
                        }
                        None => {
                            self.warnings.push(format!("array `{name}` has unmodelable length"));
                        }
                    }
                }
                ml::StmtKind::AssignIndex { name: _, index, value } => {
                    self.count_expr(index, true, &mut run, ctx);
                    self.count_expr(value, false, &mut run, ctx);
                    run.stores += 1.0;
                    if run_label.is_none() {
                        run_label = s.label.clone();
                    }
                    run_stmts.push(s.id);
                }
                ml::StmtKind::UpdateIndex { name: _, index, value, .. } => {
                    self.count_expr(index, true, &mut run, ctx);
                    self.count_expr(value, false, &mut run, ctx);
                    run.loads += 1.0;
                    run.stores += 1.0;
                    run.flops += 1.0;
                    if run_label.is_none() {
                        run_label = s.label.clone();
                    }
                    run_stmts.push(s.id);
                }
                ml::StmtKind::Print { expr } => {
                    self.count_expr(expr, false, &mut run, ctx);
                    run_stmts.push(s.id);
                }
                ml::StmtKind::CallProc { name, args } => {
                    // argument expressions are evaluated by the caller
                    for a in args {
                        self.count_expr(a, false, &mut run, ctx);
                    }
                    flush_run!();
                    let sk_args = self.call_args(args, ctx);
                    let id = self.out.fresh_stmt_id();
                    self.map.insert(s.id, id);
                    out.push(sk::Stmt {
                        id,
                        label: s.label.clone(),
                        kind: sk::StmtKind::Call { func: name.clone(), args: sk_args },
                    });
                }
                // --- control flow -----------------------------------------
                ml::StmtKind::For { var, lo, hi, step, parallel, body } => {
                    self.count_expr(lo, true, &mut run, ctx);
                    self.count_expr(hi, true, &mut run, ctx);
                    self.count_expr(step, true, &mut run, ctx);
                    flush_run!();
                    self.collect_inputs(lo);
                    self.collect_inputs(hi);
                    let id = self.out.fresh_stmt_id();
                    self.map.insert(s.id, id);
                    let bounds = (self.model_expr(lo, ctx), self.model_expr(hi, ctx), self.model_expr(step, ctx));
                    // scalars the body assigns are loop-carried: their
                    // entry value must not model anything inside the body
                    let mut carried = HashSet::new();
                    assigned_scalars(body, &mut carried);
                    let kind = if let (Some(lo), Some(hi), Some(st)) = bounds {
                        // loop var becomes modelable inside the body
                        ctx.tracked.insert(var.clone());
                        for v in &carried {
                            if v != var {
                                ctx.tracked.remove(v);
                            }
                        }
                        let mut body = self.block(body, ctx);
                        self.fold_loop_bookkeeping(s.id, &mut body);
                        sk::StmtKind::Loop { var: var.clone(), lo, hi, step: st, parallel: *parallel, body }
                    } else {
                        let trips = self.profiled_trips(s.id);
                        ctx.tracked.remove(var);
                        for v in &carried {
                            ctx.tracked.remove(v);
                        }
                        let mut body = self.block(body, ctx);
                        self.fold_loop_bookkeeping(s.id, &mut body);
                        sk::StmtKind::While { trips: SkExpr::Num(trips), body }
                    };
                    out.push(sk::Stmt { id, label: s.label.clone(), kind });
                }
                ml::StmtKind::While { cond, body } => {
                    flush_run!();
                    let id = self.out.fresh_stmt_id();
                    self.map.insert(s.id, id);
                    let trips = self.profiled_trips(s.id);
                    // scalars the body assigns are loop-carried (see `For`)
                    let mut carried = HashSet::new();
                    assigned_scalars(body, &mut carried);
                    for v in &carried {
                        ctx.tracked.remove(v);
                    }
                    // condition cost is paid every iteration: prepend it
                    let mut cond_ops = StaticOps::default();
                    self.count_expr(cond, false, &mut cond_ops, ctx);
                    let mut sk_body_stmts = Vec::new();
                    if !cond_ops.is_empty_ops() || !cond_ops.libs.is_empty() {
                        self.emit_ops(&cond_ops, &[s.id], None, &mut sk_body_stmts);
                    }
                    let inner = self.block(body, ctx);
                    sk_body_stmts.extend(inner.stmts);
                    out.push(sk::Stmt {
                        id,
                        label: s.label.clone(),
                        kind: sk::StmtKind::While {
                            trips: SkExpr::Num(trips),
                            body: sk::Block { stmts: sk_body_stmts },
                        },
                    });
                }
                ml::StmtKind::If { arms, else_body } => {
                    // condition evaluation cost precedes the branch
                    let mut cond_ops = StaticOps::default();
                    for (c, _) in arms {
                        self.count_expr(c, false, &mut cond_ops, ctx);
                    }
                    if !cond_ops.is_empty_ops() || !cond_ops.libs.is_empty() || !cond_ops.calls.is_empty() {
                        run.flops += cond_ops.flops;
                        run.iops += cond_ops.iops;
                        run.divs += cond_ops.divs;
                        run.loads += cond_ops.loads;
                        run.stores += cond_ops.stores;
                        for (k, v) in cond_ops.libs {
                            *run.libs.entry(k).or_insert(0.0) += v;
                        }
                        run.calls.extend(cond_ops.calls);
                        run_stmts.push(s.id);
                    }
                    flush_run!();
                    let id = self.out.fresh_stmt_id();
                    self.map.entry(s.id).or_insert(id);
                    let stats = self.profile.branches.get(&s.id);
                    let mut remaining = 1.0f64;
                    let mut sk_arms = Vec::new();
                    for (i, (c, arm_body)) in arms.iter().enumerate() {
                        let cond = match self.model_cond(c, ctx) {
                            Some(cond) => cond,
                            None => {
                                // conditional probability given earlier arms not taken
                                let p = match stats {
                                    Some(st) if st.evals() > 0 => {
                                        let taken = st.arm_hits.get(i).copied().unwrap_or(0) as f64;
                                        let total = st.evals() as f64;
                                        let marginal = taken / total;
                                        if remaining > 1e-12 {
                                            (marginal / remaining).min(1.0)
                                        } else {
                                            0.0
                                        }
                                    }
                                    _ => 0.5, // unprofiled data-dependent branch
                                };
                                remaining *= 1.0 - p;
                                sk::Cond::Prob(SkExpr::Num(p))
                            }
                        };
                        // branch arms fork the tracked-variable context; keep
                        // translation per-arm on a clone so one arm's
                        // untracking does not poison the other.
                        let mut arm_ctx = FnCtx { tracked: ctx.tracked.clone(), arrays: ctx.arrays.clone() };
                        let body = self.block(arm_body, &mut arm_ctx);
                        // variables untracked in the arm stay untracked after
                        for lost in ctx.tracked.clone() {
                            if !arm_ctx.tracked.contains(&lost) {
                                ctx.tracked.remove(&lost);
                            }
                        }
                        sk_arms.push(sk::BranchArm { cond, body });
                    }
                    let else_blk = match else_body {
                        Some(e) => {
                            let mut arm_ctx = FnCtx { tracked: ctx.tracked.clone(), arrays: ctx.arrays.clone() };
                            let blk = self.block(e, &mut arm_ctx);
                            for lost in ctx.tracked.clone() {
                                if !arm_ctx.tracked.contains(&lost) {
                                    ctx.tracked.remove(&lost);
                                }
                            }
                            Some(blk)
                        }
                        None => None,
                    };
                    out.push(sk::Stmt {
                        id,
                        label: s.label.clone(),
                        kind: sk::StmtKind::Branch { arms: sk_arms, else_body: else_blk },
                    });
                }
                ml::StmtKind::Return { value } => {
                    if let Some(v) = value {
                        self.count_expr(v, false, &mut run, ctx);
                        run_stmts.push(s.id);
                    }
                    flush_run!();
                    let id = self.out.fresh_stmt_id();
                    self.map.insert(s.id, id);
                    out.push(sk::Stmt {
                        id,
                        label: s.label.clone(),
                        kind: sk::StmtKind::Return { prob: SkExpr::Num(1.0) },
                    });
                }
                ml::StmtKind::Break => {
                    flush_run!();
                    let id = self.out.fresh_stmt_id();
                    self.map.insert(s.id, id);
                    out.push(sk::Stmt {
                        id,
                        label: s.label.clone(),
                        kind: sk::StmtKind::Break { prob: SkExpr::Num(1.0) },
                    });
                }
                ml::StmtKind::Continue => {
                    flush_run!();
                    let id = self.out.fresh_stmt_id();
                    self.map.insert(s.id, id);
                    out.push(sk::Stmt {
                        id,
                        label: s.label.clone(),
                        kind: sk::StmtKind::Continue { prob: SkExpr::Num(1.0) },
                    });
                }
            }
        }
        self.flush_run(&mut run, &mut run_stmts, &mut run_label, &mut pending_lets, &mut out);
        sk::Block { stmts: out }
    }

    /// Emit the accumulated straight-line region: hoisted calls, lib calls,
    /// `let`s, and one `comp` block; map all contributing statements to the
    /// comp (or to the first emitted statement when there are no ops).
    fn flush_run(
        &mut self,
        run: &mut StaticOps,
        run_stmts: &mut Vec<ml::MStmtId>,
        run_label: &mut Option<String>,
        pending_lets: &mut Vec<(String, SkExpr)>,
        out: &mut Vec<sk::Stmt>,
    ) {
        let ops = std::mem::take(run);
        let stmts = std::mem::take(run_stmts);
        let label = run_label.take();
        let lets = std::mem::take(pending_lets);
        if ops.is_empty_ops() && ops.libs.is_empty() && ops.calls.is_empty() && lets.is_empty() {
            return;
        }
        self.emit_ops_with_lets(&ops, &stmts, label, lets, out);
    }

    fn emit_ops(&mut self, ops: &StaticOps, stmts: &[ml::MStmtId], label: Option<String>, out: &mut Vec<sk::Stmt>) {
        self.emit_ops_with_lets(ops, stmts, label, Vec::new(), out);
    }

    fn emit_ops_with_lets(
        &mut self,
        ops: &StaticOps,
        stmts: &[ml::MStmtId],
        label: Option<String>,
        lets: Vec<(String, SkExpr)>,
        out: &mut Vec<sk::Stmt>,
    ) {
        for (var, value) in lets {
            let id = self.out.fresh_stmt_id();
            out.push(sk::Stmt { id, label: None, kind: sk::StmtKind::Let { var, value } });
        }
        // hoisted user calls (cost lives in the callee)
        for (func, args) in &ops.calls {
            let id = self.out.fresh_stmt_id();
            let ctx_dummy = FnCtx { tracked: HashSet::new(), arrays: HashSet::new() };
            let _ = ctx_dummy; // call args resolved best-effort below
            let sk_args: Vec<SkExpr> = args.iter().map(|a| self.best_effort_expr(a)).collect();
            out.push(sk::Stmt { id, label: None, kind: sk::StmtKind::Call { func: func.clone(), args: sk_args } });
        }
        let mut lib_names: Vec<&&str> = ops.libs.keys().collect();
        lib_names.sort_unstable();
        for name in lib_names {
            let count = ops.libs[*name];
            let id = self.out.fresh_stmt_id();
            out.push(sk::Stmt {
                id,
                label: None,
                kind: sk::StmtKind::LibCall {
                    func: name.to_string(),
                    calls: SkExpr::Num(count),
                    work: SkExpr::Num(1.0),
                },
            });
        }
        if !ops.is_empty_ops() {
            let id = self.out.fresh_stmt_id();
            for &m in stmts {
                self.map.entry(m).or_insert(id);
            }
            out.push(sk::Stmt {
                id,
                label,
                kind: sk::StmtKind::Comp(sk::OpStats {
                    flops: SkExpr::Num(ops.flops),
                    iops: SkExpr::Num(ops.iops),
                    loads: SkExpr::Num(ops.loads),
                    stores: SkExpr::Num(ops.stores),
                    divs: SkExpr::Num(ops.divs),
                    dtype_bytes: SkExpr::Num(8.0),
                }),
            });
        } else if let Some(first) = out.last() {
            let id = first.id;
            for &m in stmts {
                self.map.entry(m).or_insert(id);
            }
        }
    }

    /// Per-iteration loop control (compare + increment) is attributed to
    /// the loop's first `comp` block, matching how compiled code folds the
    /// bookkeeping into the body basic block. The measured-profile mapping
    /// for the loop statement follows the same convention.
    fn fold_loop_bookkeeping(&mut self, loop_mini_id: ml::MStmtId, body: &mut sk::Block) {
        for st in &mut body.stmts {
            if let sk::StmtKind::Comp(ops) = &mut st.kind {
                ops.iops =
                    SkExpr::Binary(Box::new(ops.iops.clone()), sk::BinOp::Add, Box::new(SkExpr::Num(2.0))).simplify();
                self.map.insert(loop_mini_id, st.id);
                return;
            }
        }
        // no comp in the body: the loop keeps its own mapping
    }

    /// Mean trips of a loop from the profile (0 when never executed).
    fn profiled_trips(&mut self, id: ml::MStmtId) -> f64 {
        match self.profile.loops.get(&id) {
            Some(l) => l.avg_trips(),
            None => {
                self.warnings.push(format!("loop {id:?} was never executed during profiling; assuming 0 trips"));
                0.0
            }
        }
    }

    /// Record `input(...)` references so callers know the program's knobs.
    fn collect_inputs(&mut self, e: &ml::Expr) {
        match e {
            ml::Expr::Input(name, default) => {
                self.inputs.entry(name.clone()).or_insert(*default);
            }
            ml::Expr::Bin(l, _, r) | ml::Expr::Cmp(l, _, r) | ml::Expr::And(l, r) | ml::Expr::Or(l, r) => {
                self.collect_inputs(l);
                self.collect_inputs(r);
            }
            ml::Expr::Neg(i) | ml::Expr::Not(i) | ml::Expr::Index(_, i) => self.collect_inputs(i),
            ml::Expr::Call(_, args) | ml::Expr::CallFn(_, args) => {
                for a in args {
                    self.collect_inputs(a);
                }
            }
            _ => {}
        }
    }

    /// Count the static cost of evaluating `e` once, mirroring the
    /// engines' dynamic accounting.
    #[allow(clippy::only_used_in_recursion)] // ctx is threaded for future per-fn cost rules
    fn count_expr(&mut self, e: &ml::Expr, idx_ctx: bool, ops: &mut StaticOps, ctx: &FnCtx) {
        match e {
            ml::Expr::Num(_) | ml::Expr::Var(_) | ml::Expr::Len(_) | ml::Expr::Input(..) => {}
            ml::Expr::Index(_, idx) => {
                ops.loads += 1.0;
                self.count_expr(idx, true, ops, ctx);
            }
            ml::Expr::Bin(l, op, r) => {
                if idx_ctx {
                    ops.iops += 1.0;
                } else {
                    ops.flops += 1.0;
                    if *op == ml::BinOp::Div {
                        ops.divs += 1.0;
                    }
                }
                self.count_expr(l, idx_ctx, ops, ctx);
                self.count_expr(r, idx_ctx, ops, ctx);
            }
            ml::Expr::Neg(i) => {
                if idx_ctx {
                    ops.iops += 1.0;
                } else {
                    ops.flops += 1.0;
                }
                self.count_expr(i, idx_ctx, ops, ctx);
            }
            ml::Expr::Cmp(l, _, r) => {
                ops.flops += 1.0;
                self.count_expr(l, idx_ctx, ops, ctx);
                self.count_expr(r, idx_ctx, ops, ctx);
            }
            ml::Expr::And(l, r) | ml::Expr::Or(l, r) => {
                ops.iops += 1.0;
                self.count_expr(l, idx_ctx, ops, ctx);
                // short-circuit: statically assume the right side runs
                self.count_expr(r, idx_ctx, ops, ctx);
            }
            ml::Expr::Not(i) => {
                ops.iops += 1.0;
                self.count_expr(i, idx_ctx, ops, ctx);
            }
            ml::Expr::Call(b, args) => {
                for a in args {
                    self.count_expr(a, idx_ctx, ops, ctx);
                }
                match b.lib_name() {
                    Some(name) => *ops.libs.entry(name).or_insert(0.0) += 1.0,
                    None => ops.flops += 1.0, // abs/min/max/floor
                }
            }
            ml::Expr::CallFn(name, args) => {
                for a in args {
                    self.count_expr(a, idx_ctx, ops, ctx);
                }
                ops.calls.push((name.clone(), args.clone()));
            }
        }
    }

    /// Translate an expression into the skeleton language if every leaf is
    /// modelable; `None` marks a data-dependent value.
    fn model_expr(&self, e: &ml::Expr, ctx: &FnCtx) -> Option<SkExpr> {
        match e {
            ml::Expr::Num(n) => Some(SkExpr::Num(*n)),
            ml::Expr::Var(v) => {
                if ctx.tracked.contains(v) {
                    Some(SkExpr::Var(v.clone()))
                } else {
                    None
                }
            }
            ml::Expr::Input(name, _) => Some(SkExpr::Var(name.clone())),
            ml::Expr::Len(a) => {
                if ctx.arrays.contains(a) {
                    let len_var = format!("{a}__len");
                    if ctx.tracked.contains(&len_var) {
                        Some(SkExpr::Var(len_var))
                    } else if ctx.tracked.contains(a) {
                        // array param: the skeleton argument carries the length
                        Some(SkExpr::Var(a.clone()))
                    } else {
                        None
                    }
                } else if ctx.tracked.contains(a) {
                    Some(SkExpr::Var(a.clone()))
                } else {
                    None
                }
            }
            ml::Expr::Bin(l, op, r) => {
                let l = self.model_expr(l, ctx)?;
                let r = self.model_expr(r, ctx)?;
                let op = match op {
                    ml::BinOp::Add => sk::BinOp::Add,
                    ml::BinOp::Sub => sk::BinOp::Sub,
                    ml::BinOp::Mul => sk::BinOp::Mul,
                    ml::BinOp::Div => sk::BinOp::Div,
                    ml::BinOp::Mod => sk::BinOp::Mod,
                };
                Some(SkExpr::Binary(Box::new(l), op, Box::new(r)))
            }
            ml::Expr::Neg(i) => Some(SkExpr::Neg(Box::new(self.model_expr(i, ctx)?))),
            ml::Expr::Call(b, args) => {
                let name = match b {
                    ml::Builtin::Min => "min",
                    ml::Builtin::Max => "max",
                    ml::Builtin::Abs => "abs",
                    ml::Builtin::Floor => "floor",
                    ml::Builtin::Sqrt => "sqrt",
                    ml::Builtin::Pow => "pow",
                    _ => return None, // exp/log/sin/cos/rnd values are opaque
                };
                let args: Option<Vec<SkExpr>> = args.iter().map(|a| self.model_expr(a, ctx)).collect();
                Some(SkExpr::Call(name.to_string(), args?))
            }
            ml::Expr::Index(..)
            | ml::Expr::Cmp(..)
            | ml::Expr::And(..)
            | ml::Expr::Or(..)
            | ml::Expr::Not(..)
            | ml::Expr::CallFn(..) => None,
        }
    }

    /// Translate a branch condition; deterministic when modelable.
    fn model_cond(&self, e: &ml::Expr, ctx: &FnCtx) -> Option<sk::Cond> {
        if let ml::Expr::Cmp(l, op, r) = e {
            // `%` survives expression translation but is opaque to the
            // BET's affine range analysis (its cond_prob falls back to
            // 0.5); the profiled marginal is strictly more faithful, so
            // refuse to model comparisons containing it.
            if contains_mod(l) || contains_mod(r) {
                return None;
            }
            let lhs = self.model_expr(l, ctx)?;
            let rhs = self.model_expr(r, ctx)?;
            let op = match op {
                ml::CmpOp::Lt => sk::CmpOp::Lt,
                ml::CmpOp::Le => sk::CmpOp::Le,
                ml::CmpOp::Gt => sk::CmpOp::Gt,
                ml::CmpOp::Ge => sk::CmpOp::Ge,
                ml::CmpOp::Eq => sk::CmpOp::Eq,
                ml::CmpOp::Ne => sk::CmpOp::Ne,
            };
            return Some(sk::Cond::Cmp { lhs, op, rhs });
        }
        None
    }

    /// Call-site argument translation: arrays pass their lengths, modelable
    /// scalars pass symbolically, anything else degrades to 0.
    fn call_args(&mut self, args: &[ml::Expr], ctx: &FnCtx) -> Vec<SkExpr> {
        args.iter()
            .map(|a| {
                if let ml::Expr::Var(v) = a {
                    if ctx.arrays.contains(v) {
                        let len_var = format!("{v}__len");
                        return if ctx.tracked.contains(&len_var) {
                            SkExpr::Var(len_var)
                        } else if ctx.tracked.contains(v) {
                            SkExpr::Var(v.clone())
                        } else {
                            SkExpr::Num(0.0)
                        };
                    }
                }
                match self.model_expr(a, ctx) {
                    Some(e) => e,
                    None => {
                        self.warnings.push(format!("call argument `{a:?}` is data-dependent; passed as 0"));
                        SkExpr::Num(0.0)
                    }
                }
            })
            .collect()
    }

    /// Expression translation that never fails (for hoisted in-expression
    /// calls where the context set is not threaded through).
    fn best_effort_expr(&mut self, e: &ml::Expr) -> SkExpr {
        match e {
            ml::Expr::Num(n) => SkExpr::Num(*n),
            ml::Expr::Var(v) => SkExpr::Var(v.clone()),
            ml::Expr::Input(name, _) => SkExpr::Var(name.clone()),
            ml::Expr::Bin(l, op, r) => {
                let op = match op {
                    ml::BinOp::Add => sk::BinOp::Add,
                    ml::BinOp::Sub => sk::BinOp::Sub,
                    ml::BinOp::Mul => sk::BinOp::Mul,
                    ml::BinOp::Div => sk::BinOp::Div,
                    ml::BinOp::Mod => sk::BinOp::Mod,
                };
                SkExpr::Binary(Box::new(self.best_effort_expr(l)), op, Box::new(self.best_effort_expr(r)))
            }
            ml::Expr::Neg(i) => SkExpr::Neg(Box::new(self.best_effort_expr(i))),
            _ => SkExpr::Num(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::profile;

    fn xlate(src: &str) -> Translation {
        xlate_with(src, &[])
    }

    fn xlate_with(src: &str, inputs: &[(&str, f64)]) -> Translation {
        let p = parse(src).unwrap();
        let prof = profile(&p, &InputSpec::from_pairs(inputs.iter().copied())).unwrap();
        translate(&p, &prof).unwrap()
    }

    #[test]
    fn straight_line_becomes_single_comp() {
        let t = xlate("fn main() { let a = zeros(8); a[0] = 1 + 2; a[1] = a[0] * 3; }");
        let text = sk::print(&t.skeleton);
        // one comp carrying 2 flops, 1 load, 2 stores
        assert!(text.contains("flops: 2"), "{text}");
        assert!(text.contains("loads: 1"), "{text}");
        assert!(text.contains("stores: 2"), "{text}");
    }

    #[test]
    fn modelable_for_becomes_loop_with_symbolic_bounds() {
        let t = xlate(r#"fn main() { let n = input("N", 8); let a = zeros(n); for i in 0 .. n { a[i] = 1; } }"#);
        let text = sk::print(&t.skeleton);
        assert!(text.contains("loop i = 0 .. n"), "{text}");
        assert_eq!(t.inputs["N"], 8.0);
    }

    #[test]
    fn data_dependent_loop_becomes_profiled_while() {
        let t = xlate("fn main() { let x = 16; while x > 1 { x = x / 2; } }");
        let text = sk::print(&t.skeleton);
        // 16 → 8 → 4 → 2 → 1: four iterations
        assert!(text.contains("while trips(4)"), "{text}");
    }

    #[test]
    fn data_dependent_branch_gets_profiled_probability() {
        let src = r#"
fn main() {
    let a = zeros(100);
    for i in 0 .. 100 { a[i] = i; }
    for i in 0 .. 100 {
        if a[i] < 25 { a[i] = 0; }
    }
}
"#;
        let t = xlate(src);
        let text = sk::print(&t.skeleton);
        assert!(text.contains("if prob(0.25)"), "{text}");
    }

    #[test]
    fn modelable_branch_stays_deterministic() {
        let t = xlate(r#"fn main() { let n = input("N", 10); if n < 100 { let x = 1; } }"#);
        let text = sk::print(&t.skeleton);
        assert!(text.contains("if (n < 100)"), "{text}");
    }

    #[test]
    fn lib_calls_emitted() {
        let t = xlate("fn main() { for i in 0 .. 4 { let x = exp(i) + rnd(); } }");
        let text = sk::print(&t.skeleton);
        assert!(text.contains("lib exp(1)"), "{text}");
        assert!(text.contains("lib rand(1)"), "{text}");
    }

    #[test]
    fn user_call_in_expression_is_hoisted() {
        let t = xlate("fn main() { let x = f(3) + 1; } fn f(v) { return v * 2; }");
        let text = sk::print(&t.skeleton);
        assert!(text.contains("call f(3)"), "{text}");
    }

    #[test]
    fn array_arguments_pass_lengths() {
        let src = r#"
fn main() { let n = input("N", 6); let a = zeros(n * 2); fill(a, n); }
fn fill(buf, n) { for i in 0 .. len(buf) { buf[i] = n; } }
"#;
        let t = xlate(src);
        let text = sk::print(&t.skeleton);
        assert!(text.contains("call fill(a__len, n)"), "{text}");
        // callee loops over its parameter as the length
        assert!(text.contains("loop i = 0 .. buf"), "{text}");
    }

    #[test]
    fn labels_carry_over() {
        let t = xlate("fn main() { let a = zeros(4); @hot: for i in 0 .. 4 { a[i] = i * 2.0; } }");
        assert!(t.skeleton.stmt_by_label("hot").is_some());
    }

    #[test]
    fn break_and_continue_translate_structurally() {
        let src = r#"
fn main() {
    let a = zeros(100);
    for i in 0 .. 100 {
        if i >= 50 { break; }
        a[i] = 1;
    }
}
"#;
        let t = xlate(src);
        let text = sk::print(&t.skeleton);
        assert!(text.contains("break"), "{text}");
        // deterministic condition on the tracked loop variable
        assert!(text.contains("if (i >= 50)"), "{text}");
    }

    #[test]
    fn translation_maps_all_costly_statements() {
        let src = r#"
fn main() {
    let n = input("N", 4);
    let a = zeros(n);
    @k: for i in 0 .. n { a[i] = a[i] + 1; }
}
"#;
        let t = xlate(src);
        let p = parse(src).unwrap();
        // the element update statement must map somewhere
        let mut update_id = None;
        p.visit_stmts(|_, s| {
            if matches!(s.kind, ml::StmtKind::AssignIndex { .. }) {
                update_id = Some(s.id);
            }
        });
        assert!(t.map.contains_key(&update_id.unwrap()));
    }

    #[test]
    fn skeleton_validates_cleanly() {
        let src = r#"
fn main() {
    let n = input("N", 8);
    let a = zeros(n);
    init(a, n);
    for i in 1 .. n - 1 {
        a[i] = 0.5 * (a[i - 1] + a[i + 1]);
        if a[i] > 0.9 { a[i] = exp(a[i]); }
    }
}
fn init(buf, n) {
    for i in 0 .. n { buf[i] = rnd(); }
}
"#;
        let t = xlate(src);
        let errs = sk::validate(&t.skeleton);
        assert!(errs.is_empty(), "{errs:?}\n{}", sk::print(&t.skeleton));
    }

    #[test]
    fn unexecuted_loop_warns_and_gets_zero_trips() {
        let t = xlate("fn main() { let a = zeros(2); if 1 < 0 { while a[0] > 0 { a[0] = 0; } } }");
        assert!(t.warnings.iter().any(|w| w.contains("never executed")));
    }

    #[test]
    fn else_if_chain_conditional_probabilities() {
        // 25% arm0, 25% arm1, 50% else → conditional arm1 prob = 0.25/0.75
        let src = r#"
fn main() {
    let a = zeros(100);
    for i in 0 .. 100 { a[i] = i; }
    for i in 0 .. 100 {
        if a[i] < 25 { a[i] = 0; }
        else if a[i] < 50 { a[i] = 1; }
        else { a[i] = 2; }
    }
}
"#;
        let t = xlate(src);
        let mut probs = Vec::new();
        t.skeleton.visit_stmts(|_, s| {
            if let sk::StmtKind::Branch { arms, .. } = &s.kind {
                for arm in arms {
                    if let sk::Cond::Prob(SkExpr::Num(p)) = &arm.cond {
                        probs.push(*p);
                    }
                }
            }
        });
        assert_eq!(probs.len(), 2);
        assert!((probs[0] - 0.25).abs() < 1e-9, "{probs:?}");
        assert!((probs[1] - 0.25 / 0.75).abs() < 1e-9, "{probs:?}");
    }
}
