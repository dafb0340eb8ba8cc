//! Round-trip equivalence: artifacts that have been through the session's
//! wire format (serialize → deserialize) must drive **bit-identical**
//! projections — totals, per-statement costs, and rankings — versus a cold
//! build, for all five workloads × four machines. This is the correctness
//! bar that makes `--cache-dir` warm-starts trustworthy.

use xflow::{bgq, default_library, explain, generic, knl, xeon, ModeledApp, Roofline, Scale, Session};
use xflow_hotspot::{Projection, ProjectionPlan};
use xflow_workloads::Workload;

fn machines() -> [xflow::MachineModel; 4] {
    [bgq(), xeon(), knl(), generic()]
}

/// The cold reference: a fresh memory-only session, so the model is
/// built from scratch — asserted by one miss and no hits.
fn cold_build(w: &Workload) -> ModeledApp {
    let session = Session::new();
    let app = session.model(w.source, &w.inputs(Scale::Test)).expect(w.name);
    let st = session.stats();
    assert_eq!((st.misses(), st.hits()), (1, 0), "{}: the cold reference builds the model", w.name);
    app
}

fn assert_unit_view_bits(label: &str, cold: &xflow::MachineProjection, rebuilt: &xflow::MachineProjection) {
    assert_eq!(cold.total.to_bits(), rebuilt.total.to_bits(), "{label}: total differs");
    assert_eq!(cold.ranking(), rebuilt.ranking(), "{label}: ranking differs");
    assert_projection_bits(label, &cold.projection, &rebuilt.projection);
}

fn assert_projection_bits(label: &str, cold: &Projection, rebuilt: &Projection) {
    assert_eq!(cold.total_time.to_bits(), rebuilt.total_time.to_bits(), "{label}: total differs");
    assert_eq!(cold.per_stmt.len(), rebuilt.per_stmt.len(), "{label}: statement sets differ");
    let mut compared = 0;
    for (stmt, cost) in cold.per_stmt.iter() {
        let other = rebuilt.per_stmt.get(&stmt).unwrap_or_else(|| panic!("{label}: missing {stmt:?}"));
        for (a, b) in
            [(cost.total, other.total), (cost.tc, other.tc), (cost.tm, other.tm), (cost.overlap, other.overlap)]
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: per-stmt cost differs at {stmt:?}");
        }
        compared += 1;
    }
    assert!(compared > 0, "{label}: projection had no per-stmt costs");
}

#[test]
fn round_tripped_plan_and_bet_project_bit_identically_everywhere() {
    for w in xflow_workloads::all() {
        let cold = cold_build(&w);

        // plan through the wire format
        let plan_json = serde_json::to_string(cold.plan()).unwrap();
        let plan_back: ProjectionPlan = serde_json::from_str(&plan_json).unwrap();

        // BET through the wire format, plan rebuilt from the deserialized tree
        let bet_json = serde_json::to_string(&cold.bet).unwrap();
        let bet_back: xflow_bet::Bet = serde_json::from_str(&bet_json).unwrap();
        let plan_from_bet = ProjectionPlan::new(&bet_back, default_library());

        for m in machines() {
            let reference = cold.project_on(&m).projection;
            let via_plan = plan_back.evaluate(&m, &Roofline);
            assert_projection_bits(&format!("{}/{} plan", w.name, m.name), &reference, &via_plan);
            let via_bet = plan_from_bet.evaluate(&m, &Roofline);
            assert_projection_bits(&format!("{}/{} bet", w.name, m.name), &reference, &via_bet);
        }
    }
}

#[test]
fn session_model_matches_cold_build_bit_for_bit() {
    let session = Session::new();
    for w in xflow_workloads::all() {
        let cold = cold_build(&w);
        // twice: the second load is served entirely from the cache
        session.model(w.source, &w.inputs(Scale::Test)).expect(w.name);
        let warm = session.model(w.source, &w.inputs(Scale::Test)).expect(w.name);
        for m in machines() {
            assert_unit_view_bits(
                &format!("{}/{} session", w.name, m.name),
                &cold.project_on(&m),
                &warm.project_on(&m),
            );
        }
    }
    let st = session.stats();
    assert_eq!(st.hits(), 5, "second load of each workload hits its model");
}

#[test]
fn disk_round_trip_matches_cold_build_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("xflow-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = Session::with_cache_dir(&dir);
    for w in xflow_workloads::all() {
        seed.model(w.source, &w.inputs(Scale::Test)).expect(w.name);
    }
    let warm = Session::with_cache_dir(&dir);
    for w in xflow_workloads::all() {
        let cold = cold_build(&w);
        // a fresh session on the directory: one disk hit per model
        let fresh = Session::with_cache_dir(&dir);
        let disk = fresh.model(w.source, &w.inputs(Scale::Test)).expect(w.name);
        let st = fresh.stats();
        assert_eq!((st.disk_hits(), st.hits(), st.misses()), (1, 0, 0), "{}: one disk hit", w.name);
        for m in machines() {
            assert_unit_view_bits(&format!("{}/{} disk", w.name, m.name), &cold.project_on(&m), &disk.project_on(&m));
        }
        for m in [bgq(), xeon()] {
            let label = format!("{}/{} explain", w.name, m.name);
            assert_eq!(explain(&cold, &m).to_json(), explain(&disk, &m).to_json(), "{label}");
        }
        warm.model(w.source, &w.inputs(Scale::Test)).expect(w.name);
    }
    assert_eq!(warm.stats().disk_hits(), 5, "five workloads, one model each, from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn apps_share_one_model_and_a_disk_load_rebuilds_its_units() {
    let dir = std::env::temp_dir().join(format!("xflow-shared-model-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = xflow_workloads::cfd();
    let inputs = w.inputs(Scale::Test);
    let session = Session::with_cache_dir(&dir);
    let a = session.model(w.source, &inputs).unwrap();
    let b = session.model(w.source, &inputs).unwrap();
    let (c, _) = session.model_and_sims(w.source, &inputs, Some(&w), &[bgq()], xflow_minilang::DEFAULT_SEED).unwrap();
    for (label, app) in [("warm lookup", &b), ("model_and_sims", &c)] {
        assert!(std::ptr::eq(&a.bet, &app.bet), "{label}: one BET");
        assert!(std::ptr::eq(&a.units, &app.units), "{label}: one unit table");
        assert!(std::ptr::eq(a.plan(), app.plan()), "{label}: one plan");
    }
    assert!(std::ptr::eq(a.kernel(), c.kernel()), "one sweep kernel per model");
    // a fresh session on the directory loads the model and derives the
    // unit table the build derived
    let fresh = Session::with_cache_dir(&dir);
    let disk = fresh.model(w.source, &inputs).unwrap();
    assert_eq!(fresh.stats().disk_hits(), 1, "the model is loaded, not built");
    assert_eq!(disk.units, a.units);
    let _ = std::fs::remove_dir_all(&dir);
}
