//! The differential validator: analytic model vs executed oracles.
//!
//! For one program + machine + seed, [`validate_program`]:
//!
//! 1. runs the program on **both** execution engines (the tree-walking
//!    reference interpreter and the production bytecode VM) with the
//!    given seed and checks they observed bit-identical dynamic behavior;
//! 2. profiles, translates, and builds the BET exactly like the modeling
//!    pipeline, then checks every structural invariant
//!    ([`crate::invariants`]);
//! 3. replays the program through `xflow-sim`'s cache + issue model with
//!    the *same* seed for a ground-truth time whose dynamic profile must
//!    agree with the oracle run;
//! 4. compares the BET's analytic ENR per skeleton statement, per branch
//!    arm, and per library function against the executed visit counts —
//!    these must match *exactly* (to [`ValidationConfig::enr_rel_tol`],
//!    which only absorbs f64 round-off of the `hits/evals × evals`
//!    probability chain);
//! 5. compares projected per-block times against simulated per-block
//!    times (the rows of [`join_blocks`], which the oracle corpus emits
//!    too), reporting relative error per block and gating hot blocks on
//!    [`ValidationConfig::hot_time_rel_tol`].
//!
//! ENR exactness is gated on statements whose expected visit count the
//! model derives without approximation (comp, loop, while, call, branch
//! arms, library calls). `break`/`continue`/`return` statements inside
//! loops are modeled with the truncated-geometric expectation (paper
//! Section V-B): their ENR is an expectation over the *ensemble* of runs,
//! not a per-run count, so they are reported but exempt from the
//! exactness gate.

use serde::Serialize;
use std::collections::{BTreeSet, HashMap, HashSet};
use xflow_bet::{BetKind, BuildError};
use xflow_hotspot::{unit_order, Projection};
use xflow_hw::{LibraryRegistry, MachineModel, Roofline};
use xflow_minilang as ml;
use xflow_minilang::{InputSpec, Profile, RuntimeError, TranslateError};
use xflow_sim::{SimConfig, SimReport};
use xflow_skeleton as sk;
use xflow_skeleton::ParseError;
use xflow_workloads::{Scale, Workload};

use crate::invariants::{check_bet, check_projection, Violation};

/// Knobs of one validation run. The defaults are the tolerances asserted
/// by `tests/validate_differential.rs` and documented in DESIGN.md §9.
#[derive(Debug, Clone)]
pub struct ValidationConfig {
    /// RNG seed shared by the profiled run, both engines, and the
    /// simulator (`rnd()` streams are identical across all four).
    pub seed: u64,
    /// Relative tolerance for analytic-vs-executed visit counts. The
    /// analytic side multiplies profiled probabilities (`hits/evals`)
    /// back up the chain, so `(a/b)·b` round-off is the only admissible
    /// error — `1e-9` is ~10⁷ ULPs of headroom over that.
    pub enr_rel_tol: f64,
    /// A block is "hot" when its simulated share of total time is at
    /// least this fraction; only hot blocks gate on time error.
    pub hot_share: f64,
    /// Maximum relative error of projected vs simulated time for hot
    /// blocks. The analytic roofline abstracts the simulator's cache
    /// state and issue model, and the translator charges branch
    /// condition costs into the preceding comp run, so per-block errors
    /// are large where those simplifications bite (the paper itself
    /// reports per-block errors up to ~43% against real hardware; our
    /// cycle simulator diverges further on deep-memory machines). The
    /// worst observed error across the five workloads × four machines
    /// at `Scale::Test` is 2.44× (STASSUIJ `comp#30` on Xeon); `3.0`
    /// gives modest headroom while still catching order-of-magnitude
    /// model breaks.
    pub hot_time_rel_tol: f64,
    /// Maximum relative error of projected vs simulated total time.
    /// Worst observed across the sweep is 0.49 (SRAD on BG/Q, where the
    /// roofline's perfect overlap flatters the memory-bound stencil);
    /// `0.60` is the asserted ceiling.
    pub total_time_rel_tol: f64,
    /// BET node count per source statement (paper: below 2×).
    pub max_size_ratio: f64,
    /// Compare times at all (the fuzzer disables this: generated
    /// programs check counts and invariants, not model accuracy).
    pub check_times: bool,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self {
            seed: ml::DEFAULT_SEED,
            enr_rel_tol: 1e-9,
            hot_share: 0.02,
            hot_time_rel_tol: 3.0,
            total_time_rel_tol: 0.60,
            max_size_ratio: 2.0,
            check_times: true,
        }
    }
}

/// Why a validation run could not even be performed (distinct from a
/// validation *failure*, which yields a report with `passed = false`).
#[derive(Debug)]
pub enum ValidateError {
    Parse(ParseError),
    Runtime(RuntimeError),
    Translate(TranslateError),
    Build(BuildError),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::Parse(e) => write!(f, "parse error: {e}"),
            ValidateError::Runtime(e) => write!(f, "runtime error: {e}"),
            ValidateError::Translate(e) => write!(f, "translate error: {e}"),
            ValidateError::Build(e) => write!(f, "BET build error: {e}"),
        }
    }
}

impl std::error::Error for ValidateError {}

impl From<ParseError> for ValidateError {
    fn from(e: ParseError) -> Self {
        ValidateError::Parse(e)
    }
}
impl From<RuntimeError> for ValidateError {
    fn from(e: RuntimeError) -> Self {
        ValidateError::Runtime(e)
    }
}
impl From<TranslateError> for ValidateError {
    fn from(e: TranslateError) -> Self {
        ValidateError::Translate(e)
    }
}
impl From<BuildError> for ValidateError {
    fn from(e: BuildError) -> Self {
        ValidateError::Build(e)
    }
}

/// One analytic-vs-executed visit-count comparison.
#[derive(Debug, Clone, Serialize)]
pub struct EnrCheck {
    /// Skeleton statement id.
    pub stmt: u32,
    /// Statement name (label or generated).
    pub name: String,
    /// Skeleton statement kind keyword.
    pub kind: String,
    /// Analytic expected number of repetitions (summed over contexts).
    pub analytic: f64,
    /// Executed visit count.
    pub measured: f64,
    /// `|analytic − measured| / max(measured, 1)`.
    pub rel_err: f64,
    /// Within tolerance *and* rounds to the executed integer count.
    pub exact: bool,
    /// Whether this check participates in the pass/fail gate.
    pub gated: bool,
}

/// One branch-arm comparison (`arm = None` is the else arm).
#[derive(Debug, Clone, Serialize)]
pub struct ArmCheck {
    pub stmt: u32,
    pub name: String,
    pub arm: Option<usize>,
    pub analytic: f64,
    pub measured: f64,
    pub rel_err: f64,
    pub exact: bool,
}

/// One library-function comparison: invocation counts and times.
#[derive(Debug, Clone, Serialize)]
pub struct LibCheck {
    pub func: String,
    pub analytic_calls: f64,
    pub measured_calls: f64,
    pub rel_err: f64,
    pub exact: bool,
    pub analytic_seconds: f64,
    pub simulated_seconds: f64,
}

/// One model block of the analytic-vs-simulated join ([`join_blocks`]):
/// a skeleton statement's projected seconds beside the simulated totals
/// folded onto it.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockRow {
    /// Skeleton statement.
    pub stmt: sk::StmtId,
    /// Statement name (label or generated).
    pub name: String,
    /// Projected seconds (zero when the projection never charged it).
    pub analytic_seconds: f64,
    /// Simulated seconds folded onto the statement.
    pub simulated_seconds: f64,
    /// Simulated share of the run's total simulated time.
    pub sim_share: f64,
    /// Dynamic instructions retired.
    pub instrs: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L1 hits on lines last touched by a different statement.
    pub cross_hits: u64,
    /// L1 hits on lines the statement itself touched last.
    pub self_hits: u64,
}

/// Join a projection with the simulation folded onto the same skeleton
/// ([`SimReport::fold_to_skeleton`]): one row per statement that either
/// side charged, in ascending statement order. `lib` statements are left
/// out because the simulator attributes library time per function, not
/// per call site. `validate` step 5 and the oracle corpus both read these
/// rows, so their per-block numbers agree bit for bit.
pub fn join_blocks(tr: &ml::Translation, projection: &Projection, sim: &SimReport) -> Vec<BlockRow> {
    let folded = sim.fold_to_skeleton(&tr.map);
    let sim_total = sim.total_seconds();
    let names = tr.skeleton.stmt_names();
    let mut libs = HashSet::new();
    tr.skeleton.visit_stmts(|_, s| {
        if matches!(s.kind, sk::StmtKind::LibCall { .. }) {
            libs.insert(s.id);
        }
    });
    let mut ids: BTreeSet<sk::StmtId> = folded.keys().copied().collect();
    ids.extend(projection.per_stmt.iter().map(|(sid, _)| sid));
    ids.into_iter()
        .filter(|sid| !libs.contains(sid))
        .map(|sid| {
            let s = folded.get(&sid).copied().unwrap_or_default();
            BlockRow {
                stmt: sid,
                name: names.get(&sid).cloned().unwrap_or_else(|| format!("#{}", sid.0)),
                analytic_seconds: projection.per_stmt.get(&sid).map(|c| c.total).unwrap_or(0.0),
                simulated_seconds: s.seconds,
                sim_share: if sim_total > 0.0 { s.seconds / sim_total } else { 0.0 },
                instrs: s.instrs,
                l1_misses: s.l1_misses,
                cross_hits: s.cross_hits,
                self_hits: s.self_hits,
            }
        })
        .collect()
}

/// One projected-vs-simulated block time comparison.
#[derive(Debug, Clone, Serialize)]
pub struct TimeCheck {
    pub stmt: u32,
    pub name: String,
    pub analytic_seconds: f64,
    pub simulated_seconds: f64,
    /// `|analytic − simulated| / simulated` (`0` when both are zero).
    pub rel_err: f64,
    /// Simulated share of total simulated time.
    pub sim_share: f64,
    /// Hot blocks gate on [`ValidationConfig::hot_time_rel_tol`].
    pub hot: bool,
}

/// Everything one validation run learned. Serializes to the `--json`
/// report via [`crate::jsonfmt::to_json`].
#[derive(Debug, Clone, Serialize)]
pub struct ValidationReport {
    pub workload: String,
    pub machine: String,
    pub seed: u64,
    /// The reference interpreter and the production bytecode VM observed
    /// bit-identical dynamic behavior.
    pub engines_agree: bool,
    /// The simulator's replay observed the same dynamic behavior as the
    /// profiled run (same seed ⇒ must be identical).
    pub sim_profile_agrees: bool,
    pub bet_nodes: usize,
    pub skeleton_stmts: usize,
    pub size_ratio: f64,
    pub enr: Vec<EnrCheck>,
    pub arms: Vec<ArmCheck>,
    pub libs: Vec<LibCheck>,
    pub times: Vec<TimeCheck>,
    pub analytic_total_seconds: f64,
    pub simulated_total_seconds: f64,
    pub total_time_rel_err: f64,
    /// All gated ENR, arm, and library count checks were exact.
    pub enr_exact: bool,
    pub max_gated_enr_rel_err: f64,
    pub max_hot_time_rel_err: f64,
    pub invariant_violations: Vec<Violation>,
    pub passed: bool,
    /// Human-readable reasons when `passed` is false.
    pub failures: Vec<String>,
}

impl ValidationReport {
    /// Render the human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "validate {} on {} (seed {:#x})", self.workload, self.machine, self.seed);
        let _ = writeln!(
            out,
            "  engines agree: {}   sim profile agrees: {}",
            yes_no(self.engines_agree),
            yes_no(self.sim_profile_agrees)
        );
        let _ = writeln!(
            out,
            "  BET: {} nodes / {} statements (ratio {:.2})",
            self.bet_nodes, self.skeleton_stmts, self.size_ratio
        );
        let _ = writeln!(
            out,
            "  ENR: {} statement, {} arm, {} library checks; exact: {} (max gated rel err {:.2e})",
            self.enr.len(),
            self.arms.len(),
            self.libs.len(),
            yes_no(self.enr_exact),
            self.max_gated_enr_rel_err
        );
        if !self.times.is_empty() {
            let _ = writeln!(out, "  block times (projected vs simulated):");
            let _ = writeln!(
                out,
                "    {:<28} {:>12} {:>12} {:>8} {:>6}",
                "block", "projected", "simulated", "err %", "hot"
            );
            let mut rows: Vec<&TimeCheck> = self.times.iter().collect();
            rows.sort_by(|a, b| unit_order((a.simulated_seconds, a.stmt), (b.simulated_seconds, b.stmt)));
            for t in rows {
                let _ = writeln!(
                    out,
                    "    {:<28} {:>12.4e} {:>12.4e} {:>8.1} {:>6}",
                    t.name,
                    t.analytic_seconds,
                    t.simulated_seconds,
                    t.rel_err * 100.0,
                    if t.hot { "*" } else { "" }
                );
            }
            let _ = writeln!(
                out,
                "  total: projected {:.4e} s vs simulated {:.4e} s (err {:.1}%)",
                self.analytic_total_seconds,
                self.simulated_total_seconds,
                self.total_time_rel_err * 100.0
            );
        }
        if !self.invariant_violations.is_empty() {
            let _ = writeln!(out, "  invariant violations:");
            for v in &self.invariant_violations {
                let _ = writeln!(out, "    [{}] {}", v.invariant, v.detail);
            }
        }
        if self.passed {
            let _ = writeln!(out, "  PASS");
        } else {
            let _ = writeln!(out, "  FAIL");
            for f in &self.failures {
                let _ = writeln!(out, "    - {f}");
            }
        }
        out
    }
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// Validate a built-in workload at a scale on a machine.
pub fn validate_workload(
    w: &Workload,
    scale: Scale,
    machine: &MachineModel,
    libs: &LibraryRegistry,
    cfg: &ValidationConfig,
) -> Result<ValidationReport, ValidateError> {
    let prog = ml::parse(w.source)?;
    let inputs = w.inputs(scale);
    let sim_cfg = w.sim_config(&prog, machine);
    let mut report = validate_program(&prog, &inputs, machine, sim_cfg, libs, cfg)?;
    report.workload = w.name.to_string();
    Ok(report)
}

/// Validate a program given as source text (no vectorization overrides).
pub fn validate_source(
    src: &str,
    inputs: &InputSpec,
    machine: &MachineModel,
    libs: &LibraryRegistry,
    cfg: &ValidationConfig,
) -> Result<ValidationReport, ValidateError> {
    let prog = ml::parse(src)?;
    validate_program(&prog, inputs, machine, SimConfig::default(), libs, cfg)
}

/// Run the full differential validation of one program.
pub fn validate_program(
    prog: &ml::Program,
    inputs: &InputSpec,
    machine: &MachineModel,
    sim_cfg: SimConfig,
    libs: &LibraryRegistry,
    cfg: &ValidationConfig,
) -> Result<ValidationReport, ValidateError> {
    let limits = ml::Limits::default();

    // 1. oracle runs on both engines, same seed: the reference
    // interpreter and the production bytecode VM.
    let (prof, _, ret) = ml::reference::run(prog, inputs, ml::NullTracer, limits, cfg.seed)?;
    let (vm_prof, _, vm_ret) = ml::compile(prog)?.run(inputs, ml::NullTracer, limits, cfg.seed)?;
    let engines_agree = profiles_agree(&prof, &vm_prof) && ret.to_bits() == vm_ret.to_bits();

    // 2. model pipeline: translate → BET → plan → projection.
    let tr = ml::translate(prog, &prof)?;
    let env = ml::initial_env(&tr, inputs);
    let bet = xflow_bet::build(&tr.skeleton, &env)?;
    let skeleton_stmts = tr.skeleton.source_statement_count();
    let mut violations = check_bet(&bet, skeleton_stmts, cfg.max_size_ratio);
    let plan = xflow_hotspot::ProjectionPlan::new(&bet, libs);
    let projection = plan.evaluate(machine, &Roofline);
    violations.extend(check_projection(&projection));

    // 3. ground-truth replay through the simulator, same seed.
    let sim = xflow_sim::simulate_with_seed(prog, inputs, machine, sim_cfg, cfg.seed)?;
    let sim_profile_agrees = profiles_agree(&prof, &sim.profile);

    let names = tr.skeleton.stmt_names();
    let name_of = |s: sk::StmtId| names.get(&s).cloned().unwrap_or_else(|| format!("#{}", s.0));
    let mut kinds: HashMap<sk::StmtId, &'static str> = HashMap::new();
    tr.skeleton.visit_stmts(|_, s| {
        kinds.insert(s.id, s.kind.keyword());
    });

    // 4a. per-statement ENR vs executed visit counts.
    let enr = bet.enr();
    let mut analytic: HashMap<sk::StmtId, f64> = HashMap::new();
    for node in bet.iter() {
        if matches!(node.kind, BetKind::Arm { .. }) {
            continue; // branch arms are compared per arm index below
        }
        if let Some(s) = node.stmt {
            *analytic.entry(s).or_insert(0.0) += enr[node.id.0 as usize];
        }
    }
    // minilang loop statements are remapped to their per-iteration
    // bookkeeping comp by `fold_loop_bookkeeping`: the statement executes
    // once per loop *entry* while the comp models per-*iteration* cost,
    // so they are no oracle for comp visit counts (trip counts are still
    // verified through the skeleton loop statements and body comps).
    let ml_loops = collect_loop_ids(prog);
    let mut measured: HashMap<sk::StmtId, u64> = HashMap::new();
    for (mid, sid) in &tr.map {
        if ml_loops.contains(mid) && kinds.get(sid).copied() == Some("comp") {
            continue;
        }
        // every other minilang statement folded into one skeleton
        // statement belongs to the same straight-line run, so counts
        // agree; max is defensive against partial runs.
        let c = prof.stmt_exec.get(mid).copied().unwrap_or(0);
        let e = measured.entry(*sid).or_insert(0);
        *e = (*e).max(c);
    }
    let mut enr_checks = Vec::new();
    let mut ids: Vec<sk::StmtId> = measured.keys().copied().collect();
    ids.sort();
    for sid in ids {
        let kind = kinds.get(&sid).copied().unwrap_or("?");
        if matches!(kind, "branch" | "let" | "lib") {
            continue; // no 1:1 node count: arms/libs have their own checks
        }
        let m = measured[&sid] as f64;
        let a = analytic.get(&sid).copied().unwrap_or(0.0);
        let rel_err = (a - m).abs() / m.max(1.0);
        let exact = rel_err <= cfg.enr_rel_tol && a.round() == m;
        // escape statements are modeled with the truncated-geometric
        // expectation — reported, but not gated (see module docs).
        let gated = !matches!(kind, "return" | "break" | "continue");
        enr_checks.push(EnrCheck {
            stmt: sid.0,
            name: name_of(sid),
            kind: kind.to_string(),
            analytic: a,
            measured: m,
            rel_err,
            exact,
            gated,
        });
    }

    // 4b. per-arm branch probabilities: pair minilang `if` statements with
    // skeleton `branch` statements positionally (both walks are pre-order
    // per function and translation emits exactly one branch per `if`).
    let mut arm_enr: HashMap<(sk::StmtId, Option<usize>), f64> = HashMap::new();
    for node in bet.iter() {
        if let BetKind::Arm { index } = node.kind {
            if let Some(s) = node.stmt {
                *arm_enr.entry((s, index)).or_insert(0.0) += enr[node.id.0 as usize];
            }
        }
    }
    let mut sk_branches: HashMap<String, Vec<(sk::StmtId, usize, bool)>> = HashMap::new();
    tr.skeleton.visit_stmts(|f, s| {
        if let sk::StmtKind::Branch { arms, else_body } = &s.kind {
            sk_branches.entry(f.name.clone()).or_default().push((s.id, arms.len(), else_body.is_some()));
        }
    });
    let mut arm_checks = Vec::new();
    for func in &prog.functions {
        let branches = sk_branches.remove(&func.name).unwrap_or_default();
        let ifs = collect_ifs(&func.body);
        for (mif, (bid, n_arms, has_else)) in ifs.iter().zip(&branches) {
            let stats = prof.branches.get(&mif.id);
            let arm_hits = |i: usize| stats.map(|s| s.arm_hits.get(i).copied().unwrap_or(0)).unwrap_or(0);
            let else_hits = stats.map(|s| s.else_hits).unwrap_or(0);
            let mut targets: Vec<(Option<usize>, u64)> = (0..*n_arms).map(|i| (Some(i), arm_hits(i))).collect();
            if *has_else {
                targets.push((None, else_hits));
            }
            for (idx, hits) in targets {
                let a = arm_enr.get(&(*bid, idx)).copied().unwrap_or(0.0);
                let m = hits as f64;
                let rel_err = (a - m).abs() / m.max(1.0);
                arm_checks.push(ArmCheck {
                    stmt: bid.0,
                    name: name_of(*bid),
                    arm: idx,
                    analytic: a,
                    measured: m,
                    rel_err,
                    exact: rel_err <= cfg.enr_rel_tol && a.round() == m,
                });
            }
        }
    }

    // 4c. library calls: analytic ENR × per-statement call count vs the
    // executed call totals (and projected vs simulated library time).
    let freq_hz = sim.freq_ghz * 1e9;
    let mut lib_analytic_calls: HashMap<String, f64> = HashMap::new();
    let mut lib_analytic_secs: HashMap<String, f64> = HashMap::new();
    for node in bet.iter() {
        if let BetKind::Lib { func, calls, .. } = &node.kind {
            let e = enr[node.id.0 as usize];
            *lib_analytic_calls.entry(func.clone()).or_insert(0.0) += e * calls;
            *lib_analytic_secs.entry(func.clone()).or_insert(0.0) += projection.node_costs[node.id.0 as usize].total;
        }
    }
    let mut lib_names: Vec<String> = lib_analytic_calls.keys().cloned().chain(prof.lib_calls.keys().cloned()).collect();
    lib_names.sort();
    lib_names.dedup();
    let mut lib_checks = Vec::new();
    for func in lib_names {
        let a = lib_analytic_calls.get(&func).copied().unwrap_or(0.0);
        let m = prof.lib_calls.get(&func).copied().unwrap_or(0) as f64;
        let rel_err = (a - m).abs() / m.max(1.0);
        lib_checks.push(LibCheck {
            analytic_calls: a,
            measured_calls: m,
            rel_err,
            exact: rel_err <= cfg.enr_rel_tol && a.round() == m,
            analytic_seconds: lib_analytic_secs.get(&func).copied().unwrap_or(0.0),
            simulated_seconds: sim.lib_cycles.get(&func).copied().unwrap_or(0.0) / freq_hz,
            func,
        });
    }

    // 5. per-block times: the projection joined with the simulated
    // accounts folded onto skeleton statements (library time lives in
    // `lib_checks`).
    let mut time_checks = Vec::new();
    let mut sim_total_attr = 0.0f64;
    if cfg.check_times {
        sim_total_attr = sim.total_seconds();
        for row in join_blocks(&tr, &projection, &sim) {
            let (a, s) = (row.analytic_seconds, row.simulated_seconds);
            let rel_err = if s > 0.0 {
                (a - s).abs() / s
            } else if a > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            time_checks.push(TimeCheck {
                stmt: row.stmt.0,
                name: row.name,
                analytic_seconds: a,
                simulated_seconds: s,
                rel_err,
                sim_share: row.sim_share,
                hot: row.sim_share >= cfg.hot_share,
            });
        }
    }

    // verdict
    let mut failures = Vec::new();
    if !engines_agree {
        failures.push("interpreter and VM disagree on dynamic behavior".to_string());
    }
    if !sim_profile_agrees {
        failures.push("simulator replay observed a different dynamic profile than the oracle run".to_string());
    }
    let mut max_gated = 0.0f64;
    let mut enr_exact = true;
    for c in &enr_checks {
        if c.gated {
            max_gated = max_gated.max(c.rel_err);
            if !c.exact {
                enr_exact = false;
                failures.push(format!(
                    "ENR mismatch at {} ({}): analytic {} vs executed {}",
                    c.name, c.kind, c.analytic, c.measured
                ));
            }
        }
    }
    for c in &arm_checks {
        max_gated = max_gated.max(c.rel_err);
        if !c.exact {
            enr_exact = false;
            failures.push(format!(
                "arm ENR mismatch at {} arm {:?}: analytic {} vs executed {}",
                c.name, c.arm, c.analytic, c.measured
            ));
        }
    }
    for c in &lib_checks {
        max_gated = max_gated.max(c.rel_err);
        if !c.exact {
            enr_exact = false;
            failures.push(format!(
                "library call-count mismatch for {}: analytic {} vs executed {}",
                c.func, c.analytic_calls, c.measured_calls
            ));
        }
    }
    let mut max_hot = 0.0f64;
    for t in &time_checks {
        if t.hot {
            max_hot = max_hot.max(t.rel_err);
            if t.rel_err > cfg.hot_time_rel_tol {
                failures.push(format!(
                    "hot block {} time error {:.1}% exceeds {:.1}%",
                    t.name,
                    t.rel_err * 100.0,
                    cfg.hot_time_rel_tol * 100.0
                ));
            }
        }
    }
    let total_time_rel_err = if cfg.check_times && sim_total_attr > 0.0 {
        (projection.total_time - sim_total_attr).abs() / sim_total_attr
    } else {
        0.0
    };
    if cfg.check_times && total_time_rel_err > cfg.total_time_rel_tol {
        failures.push(format!(
            "total time error {:.1}% exceeds {:.1}%",
            total_time_rel_err * 100.0,
            cfg.total_time_rel_tol * 100.0
        ));
    }
    for v in &violations {
        failures.push(format!("invariant {}: {}", v.invariant, v.detail));
    }

    Ok(ValidationReport {
        workload: "<source>".to_string(),
        machine: machine.name.clone(),
        seed: cfg.seed,
        engines_agree,
        sim_profile_agrees,
        bet_nodes: bet.len(),
        skeleton_stmts,
        size_ratio: bet.size_ratio(skeleton_stmts),
        enr: enr_checks,
        arms: arm_checks,
        libs: lib_checks,
        times: time_checks,
        analytic_total_seconds: projection.total_time,
        simulated_total_seconds: sim_total_attr,
        total_time_rel_err,
        enr_exact,
        max_gated_enr_rel_err: max_gated,
        max_hot_time_rel_err: max_hot,
        invariant_violations: violations,
        passed: failures.is_empty(),
        failures,
    })
}

/// Bit-level agreement of two dynamic profiles (visit counts, branch
/// outcomes, loop trips, library calls, printed values).
pub fn profiles_agree(a: &Profile, b: &Profile) -> bool {
    a.stmt_exec == b.stmt_exec
        && a.branches == b.branches
        && a.loops == b.loops
        && a.lib_calls == b.lib_calls
        && a.printed.len() == b.printed.len()
        && a.printed.iter().zip(&b.printed).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Ids of every `for`/`while` statement in the program.
fn collect_loop_ids(prog: &ml::Program) -> HashSet<ml::MStmtId> {
    fn walk(b: &ml::Block, out: &mut HashSet<ml::MStmtId>) {
        for s in &b.stmts {
            match &s.kind {
                ml::StmtKind::For { body, .. } | ml::StmtKind::While { body, .. } => {
                    out.insert(s.id);
                    walk(body, out);
                }
                ml::StmtKind::If { arms, else_body } => {
                    for (_, body) in arms {
                        walk(body, out);
                    }
                    if let Some(e) = else_body {
                        walk(e, out);
                    }
                }
                _ => {}
            }
        }
    }
    let mut out = HashSet::new();
    for f in &prog.functions {
        walk(&f.body, &mut out);
    }
    out
}

/// Pre-order `if` statements of a minilang block.
fn collect_ifs(block: &ml::Block) -> Vec<&ml::Stmt> {
    fn walk<'a>(b: &'a ml::Block, out: &mut Vec<&'a ml::Stmt>) {
        for s in &b.stmts {
            match &s.kind {
                ml::StmtKind::If { arms, else_body } => {
                    out.push(s);
                    for (_, body) in arms {
                        walk(body, out);
                    }
                    if let Some(e) = else_body {
                        walk(e, out);
                    }
                }
                ml::StmtKind::For { body, .. } | ml::StmtKind::While { body, .. } => walk(body, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(block, &mut out);
    out
}
