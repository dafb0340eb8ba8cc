//! Differential validation of the analytic model against executed
//! oracles for every built-in workload on two machine models.
//!
//! This is the acceptance gate for the validation subsystem: for each
//! workload × machine, the interpreter/VM and the cycle simulator
//! (seeded with the shared default RNG stream) provide ground-truth
//! visit counts and times, and the BET/projection must
//!
//! - match every gated visit count (statement ENR, branch-arm ENR,
//!   library call counts) **exactly**, and
//! - stay within the documented per-block and total time tolerances
//!   (`hot_time_rel_tol = 3.0`, `total_time_rel_tol = 0.60` — see
//!   `ValidationConfig` for the rationale and the worst observed
//!   errors behind them), and
//! - violate no structural invariant (probability/ENR ranges, sibling
//!   arm mass, escape conservation, BET size ratio).

use xflow::xflow_validate::{ValidationConfig, ValidationReport};
use xflow::{bgq, xeon, MachineModel, Scale, Session, Workload};

/// `xflow validate <workload>` on a fresh session at test scale.
fn validate(w: &Workload, m: &MachineModel, cfg: &ValidationConfig) -> ValidationReport {
    let mut reports = Session::new()
        .validate(w.source, &w.inputs(Scale::Test), Some(w), std::slice::from_ref(m), cfg)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, m.name));
    reports.pop().unwrap()
}

#[test]
fn all_workloads_validate_on_bgq_and_xeon() {
    let cfg = ValidationConfig::default();
    // the asserted tolerances are the documented contract; keep the
    // test honest if someone loosens the defaults
    assert!(cfg.hot_time_rel_tol <= 3.0, "hot-time tolerance drifted: {}", cfg.hot_time_rel_tol);
    assert!(cfg.total_time_rel_tol <= 0.60, "total-time tolerance drifted: {}", cfg.total_time_rel_tol);

    let mut validated = 0;
    for w in xflow::xflow_workloads::all() {
        for m in [bgq(), xeon()] {
            let rep = validate(&w, &m, &cfg);
            assert!(
                rep.passed,
                "{} on {} failed differential validation:\n{}",
                w.name,
                m.name,
                rep.failures.join("\n")
            );
            assert!(rep.engines_agree, "{} on {}: interpreter and VM disagree", w.name, m.name);
            assert!(rep.sim_profile_agrees, "{} on {}: simulator replay diverged", w.name, m.name);
            assert!(
                rep.enr_exact,
                "{} on {}: gated counts not exact (max rel err {})",
                w.name, m.name, rep.max_gated_enr_rel_err
            );
            assert!(rep.invariant_violations.is_empty(), "{} on {}: {:?}", w.name, m.name, rep.invariant_violations);
            // every workload must actually exercise the count oracle
            assert!(!rep.enr.is_empty(), "{} on {}: no ENR checks ran", w.name, m.name);
            assert!(
                rep.max_hot_time_rel_err <= cfg.hot_time_rel_tol,
                "{} on {}: hot-block time err {} above documented tolerance",
                w.name,
                m.name,
                rep.max_hot_time_rel_err
            );
            assert!(
                rep.total_time_rel_err <= cfg.total_time_rel_tol,
                "{} on {}: total time err {} above documented tolerance",
                w.name,
                m.name,
                rep.total_time_rel_err
            );
            validated += 1;
        }
    }
    assert_eq!(validated, 10, "expected 5 workloads x 2 machines");
}

#[test]
fn validation_is_deterministic() {
    let cfg = ValidationConfig::default();
    let w = xflow::xflow_workloads::all().into_iter().find(|w| w.name == "CFD").unwrap();
    let a = validate(&w, &bgq(), &cfg);
    let b = validate(&w, &bgq(), &cfg);
    assert_eq!(xflow::xflow_validate::to_json(&a), xflow::xflow_validate::to_json(&b));
}

#[test]
fn a_different_seed_still_validates() {
    // exactness is a property of the shared stream, not of one magic
    // seed: profile and oracle runs use the same seed, so counts must
    // match for any choice
    let cfg = ValidationConfig { seed: 0x00C0_FFEE, ..ValidationConfig::default() };
    let w = xflow::xflow_workloads::all().into_iter().find(|w| w.name == "SORD").unwrap();
    let rep = validate(&w, &xeon(), &cfg);
    assert!(rep.passed, "SORD with alternate seed:\n{}", rep.failures.join("\n"));
    assert!(rep.enr_exact);
}

#[test]
fn validate_checks_the_model_the_session_serves() {
    // `validate --all` hands each pool worker one workload with both
    // machines: each workload is profiled once, and every report's
    // projected total is the session model's own projection, bit for bit
    let session = Session::new();
    let cfg = ValidationConfig::default();
    let machines = [bgq(), xeon()];
    let workloads = xflow::xflow_workloads::all();
    let reports = xflow::run_chunked(
        &workloads,
        0,
        || (),
        |_, _, w| session.validate(w.source, &w.inputs(Scale::Test), Some(w), &machines, &cfg).unwrap(),
    );
    let stats = session.stats();
    assert_eq!(stats.model.misses, 5, "one profiled run per workload, not per combo");
    assert_eq!(stats.sim.misses, 10, "one simulation per combo");
    for (w, reps) in workloads.iter().zip(&reports) {
        let app = session.model_seeded(w.source, &w.inputs(Scale::Test), cfg.seed).unwrap();
        for (m, rep) in machines.iter().zip(reps) {
            assert_eq!((rep.workload.as_str(), rep.machine.as_str()), (w.name, m.name.as_str()));
            assert_eq!(
                rep.analytic_total_seconds.to_bits(),
                app.project_on(m).total.to_bits(),
                "{} on {}: validate's projected total is not the session model's",
                w.name,
                m.name
            );
        }
    }
}
