//! Invariant fuzzer: push generated programs through the full pipeline
//! hunting for panics and invariant violations.
//!
//! For every seed, [`run_fuzz`] generates a program ([`crate::gen`]) and
//! checks, under `catch_unwind`:
//!
//! 1. parse, and print → re-parse round-trip;
//! 2. the reference interpreter and the production bytecode VM agree
//!    bit-for-bit on dynamic behavior;
//! 3. translate → BET build → every structural invariant
//!    ([`crate::invariants::check_bet`]);
//! 4. projection on every configured machine →
//!    [`crate::invariants::check_projection`];
//! 5. for differential-safe programs (no `while`/`break`/`continue`/
//!    early-`return`), the full [`crate::validate_program`] with exact
//!    analytic-vs-executed ENR matching (times unchecked: generated
//!    programs validate counts and invariants, not model accuracy).
//!
//! Graceful rejections (step-limit exhaustion, runtime errors such as
//! division by zero, BET size caps) are *not* failures — the pipeline
//! said no politely. Panics and invariant/differential violations are.
//! Failures are shrunk by greedy statement deletion to a minimal
//! reproducer and optionally dumped to `fuzz-repro-<seed>.ml`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use serde::Serialize;
use xflow_hw::MachineModel;
use xflow_minilang as ml;
use xflow_minilang::InputSpec;
use xflow_sim::{default_library, SimConfig};

use crate::gen::{generate, render, GenConfig, GenProgram, Rng};
use crate::invariants;
use crate::report::{profiles_agree, validate_program, ValidationConfig};

/// Fuzz campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of programs to generate and check.
    pub programs: u64,
    /// Master seed; program `i` gets the `i`-th draw of a splitmix64
    /// stream seeded with this, so campaigns are reproducible and any
    /// failure is reproducible from its own recorded seed alone.
    pub seed: u64,
    /// Base generator configuration (`allow_escapes` is toggled per
    /// program: every third program exercises the escape dialect).
    pub gen: GenConfig,
    /// Machines to project on (default: BG/Q and Xeon).
    pub machines: Vec<MachineModel>,
    /// Where to write shrunken reproducers (`None` = don't write).
    pub repro_dir: Option<PathBuf>,
    /// Cap on candidate evaluations during shrinking.
    pub max_shrink_evals: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            programs: 200,
            seed: 0x0F05_5EED,
            gen: GenConfig::default(),
            machines: vec![xflow_hw::bgq(), xflow_hw::xeon()],
            repro_dir: None,
            max_shrink_evals: 400,
        }
    }
}

/// One shrunken failure.
#[derive(Debug, Clone, Serialize)]
pub struct FuzzFailure {
    /// The per-program seed (reproduce with `generate(seed, ..)`).
    pub seed: u64,
    /// Whether the escape dialect was enabled for this program.
    pub escapes: bool,
    /// What went wrong (panic payload, violation, or differential
    /// mismatch) — for the *shrunken* program.
    pub message: String,
    /// Minimal reproducer source.
    pub source: String,
    /// Statement-line count before and after shrinking.
    pub original_lines: usize,
    pub shrunk_lines: usize,
    /// Where the reproducer was written, if a repro dir was configured.
    pub repro_path: Option<String>,
}

/// Campaign totals.
#[derive(Debug, Clone, Serialize)]
pub struct FuzzSummary {
    pub programs: u64,
    pub passed: u64,
    /// Gracefully rejected (runtime error / step limit / size cap).
    pub rejected: u64,
    pub failures: Vec<FuzzFailure>,
}

impl FuzzSummary {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Render the human-readable campaign summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: {} programs, {} passed, {} rejected, {} failed",
            self.programs,
            self.passed,
            self.rejected,
            self.failures.len()
        );
        for f in &self.failures {
            let _ = writeln!(
                out,
                "  seed {:#x}{}: {} (shrunk {} -> {} lines{})",
                f.seed,
                if f.escapes { " [escapes]" } else { "" },
                f.message,
                f.original_lines,
                f.shrunk_lines,
                f.repro_path.as_ref().map(|p| format!(", repro at {p}")).unwrap_or_default()
            );
        }
        out
    }
}

/// What one program check concluded.
enum Outcome {
    Pass,
    /// The pipeline declined gracefully (not a bug).
    Rejected,
    /// Panic, invariant violation, or differential mismatch.
    Failed(String),
}

/// Interpreter limits for generated programs: generous enough for every
/// structurally-bounded program the generator emits (loop bounds ≤ ~12,
/// depth ≤ 3, N = 8), tight enough that a runaway loop rejects quickly.
fn fuzz_limits() -> ml::Limits {
    ml::Limits { max_steps: 2_000_000, max_depth: 64 }
}

/// Run one program through the pipeline. Panics become `Failed`.
fn check_program(src: &str, escapes: bool, machines: &[MachineModel]) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| check_program_inner(src, escapes, machines)));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Outcome::Failed(format!("panic: {msg}"))
        }
    }
}

fn check_program_inner(src: &str, escapes: bool, machines: &[MachineModel]) -> Outcome {
    // 1. parse + print round-trip (the printer must emit equivalent code)
    let prog = match ml::parse(src) {
        Ok(p) => p,
        Err(e) => return Outcome::Failed(format!("generated program failed to parse: {e}")),
    };
    let printed = ml::print(&prog);
    let reparsed = match ml::parse(&printed) {
        Ok(p) => p,
        Err(e) => return Outcome::Failed(format!("printed program failed to re-parse: {e}")),
    };

    // 2. both engines, same seed, must agree (and the round-tripped
    // program must behave identically to the original)
    let inputs = InputSpec::new();
    let limits = fuzz_limits();
    let seed = ml::DEFAULT_SEED;
    let (prof, _, ret) = match ml::reference::run(&prog, &inputs, ml::NullTracer, limits, seed) {
        Ok(r) => r,
        Err(_) => return Outcome::Rejected,
    };
    let vm = match ml::compile(&prog) {
        Ok(v) => v,
        Err(e) => return Outcome::Failed(format!("VM compile failed where interpreter ran: {e}")),
    };
    match vm.run(&inputs, ml::NullTracer, limits, seed) {
        Ok((vm_prof, _, vm_ret)) => {
            if !profiles_agree(&prof, &vm_prof) || ret.to_bits() != vm_ret.to_bits() {
                return Outcome::Failed("interpreter and VM disagree on dynamic behavior".to_string());
            }
        }
        Err(e) => return Outcome::Failed(format!("VM errored where interpreter ran: {e}")),
    }
    match ml::reference::run(&reparsed, &inputs, ml::NullTracer, limits, seed) {
        Ok((rprof, _, rret)) => {
            if !profiles_agree(&prof, &rprof) || ret.to_bits() != rret.to_bits() {
                return Outcome::Failed("print/re-parse round-trip changed dynamic behavior".to_string());
            }
        }
        Err(e) => return Outcome::Failed(format!("round-tripped program errored: {e}")),
    }

    // 3. translate → BET → structural invariants
    let tr = match ml::translate(&prog, &prof) {
        Ok(t) => t,
        Err(_) => return Outcome::Rejected,
    };
    let env = ml::initial_env(&tr, &inputs);
    let bet = match xflow_bet::build(&tr.skeleton, &env) {
        Ok(b) => b,
        Err(_) => return Outcome::Rejected,
    };
    let stmts = tr.skeleton.source_statement_count();
    let violations = invariants::check_bet(&bet, stmts, 2.0);
    if let Some(v) = violations.first() {
        return Outcome::Failed(format!("BET invariant {}: {}", v.invariant, v.detail));
    }

    // 4. projection invariants on every machine
    let libs = default_library();
    let plan = xflow_hotspot::ProjectionPlan::new(&bet, libs);
    for m in machines {
        let projection = plan.evaluate(m, &xflow_hw::Roofline);
        let violations = invariants::check_projection(&projection);
        if let Some(v) = violations.first() {
            return Outcome::Failed(format!("projection invariant on {}: {}: {}", m.name, v.invariant, v.detail));
        }
    }

    // 4b. columnar batch over the same machines (group remainder included:
    // the machine list is rarely a lane multiple) — structural invariants
    // on the arena, and its totals must be bit-identical to the scalar
    // evaluator the projections above came from
    let specs: Vec<xflow_hw::MachineSpec> = machines.iter().map(xflow_hw::MachineSpec::resolve).collect();
    let kernel = plan.kernel();
    let cols = kernel.evaluate_columns(&specs);
    if let Some(v) = invariants::check_columns(&cols).first() {
        return Outcome::Failed(format!("columns invariant: {}: {}", v.invariant, v.detail));
    }
    for (i, m) in machines.iter().enumerate() {
        let scalar = plan.evaluate(m, &xflow_hw::Roofline);
        if cols.total(i).to_bits() != scalar.total_time.to_bits() {
            return Outcome::Failed(format!(
                "columns total diverges from scalar evaluate on {}: {} vs {}",
                m.name,
                cols.total(i),
                scalar.total_time
            ));
        }
    }

    // 5. full differential validation for the exact dialect
    if !escapes {
        let cfg = ValidationConfig { check_times: false, ..ValidationConfig::default() };
        let machine = &machines[0];
        match validate_program(&prog, &inputs, machine, SimConfig::default(), libs, &cfg) {
            Ok(report) => {
                if !report.passed {
                    return Outcome::Failed(format!(
                        "differential validation failed: {}",
                        report.failures.first().map(String::as_str).unwrap_or("?")
                    ));
                }
            }
            Err(e) => return Outcome::Failed(format!("validate errored after pipeline succeeded: {e}")),
        }
    }

    Outcome::Pass
}

/// Greedy statement-deletion shrinking: adopt any one-deletion candidate
/// that still fails (for any reason — the minimal repro may surface a
/// cleaner message than the original), iterate to fixpoint.
fn shrink(p: &GenProgram, escapes: bool, machines: &[MachineModel], budget: usize) -> (GenProgram, String) {
    let mut cur = p.clone();
    let mut msg = match check_program(&render(&cur), escapes, machines) {
        Outcome::Failed(m) => m,
        _ => return (cur, "failure did not reproduce during shrinking".to_string()),
    };
    let mut evals = 0usize;
    'outer: loop {
        for cand in cur.shrink_candidates() {
            if evals >= budget {
                break 'outer;
            }
            evals += 1;
            if let Outcome::Failed(m) = check_program(&render(&cand), escapes, machines) {
                cur = cand;
                msg = m;
                continue 'outer;
            }
        }
        break;
    }
    (cur, msg)
}

/// Run a fuzz campaign.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzSummary {
    let mut master = Rng(cfg.seed);
    let mut passed = 0u64;
    let mut rejected = 0u64;
    let mut failures = Vec::new();

    for i in 0..cfg.programs {
        let seed = master.next();
        // every third program exercises the expectation-only dialect
        let escapes = cfg.gen.allow_escapes || i % 3 == 2;
        let gen_cfg = GenConfig { allow_escapes: escapes, ..cfg.gen.clone() };
        let prog = generate(seed, &gen_cfg);
        let src = render(&prog);
        match check_program(&src, escapes, &cfg.machines) {
            Outcome::Pass => passed += 1,
            Outcome::Rejected => rejected += 1,
            Outcome::Failed(_) => {
                let original_lines = src.lines().count();
                let (shrunk, message) = shrink(&prog, escapes, &cfg.machines, cfg.max_shrink_evals);
                let source = render(&shrunk);
                let shrunk_lines = source.lines().count();
                let repro_path = cfg.repro_dir.as_ref().map(|dir| {
                    let path = dir.join(format!("fuzz-repro-{seed:#x}.ml"));
                    let body = format!(
                        "// fuzz reproducer: seed {seed:#x}, escapes = {escapes}\n// failure: {message}\n{source}"
                    );
                    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
                        eprintln!("warning: could not write reproducer {}: {e}", path.display());
                    }
                    path.display().to_string()
                });
                failures.push(FuzzFailure { seed, escapes, message, source, original_lines, shrunk_lines, repro_path });
            }
        }
    }

    FuzzSummary { programs: cfg.programs, passed, rejected, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let cfg = FuzzConfig { programs: 12, machines: vec![xflow_hw::generic()], ..FuzzConfig::default() };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert!(a.ok(), "fuzz failures:\n{}", a.render());
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn shrinker_reduces_an_artificial_failure() {
        // A program that "fails" under an always-failing oracle shrinks to
        // nothing; here we just exercise candidate generation on a real
        // program to make sure deletion paths are well-formed.
        let p = generate(99, &GenConfig { allow_escapes: true, ..GenConfig::default() });
        for cand in p.shrink_candidates() {
            // every candidate must still render and parse or reject cleanly
            let src = render(&cand);
            let _ = xflow_minilang::parse(&src);
        }
    }
}
