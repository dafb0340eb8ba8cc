//! Round-trip equivalence: artifacts that have been through the session's
//! wire format (serialize → deserialize) must drive **bit-identical**
//! projections — totals, per-statement costs, and rankings — versus a cold
//! build, for all five workloads × four machines. This is the correctness
//! bar that makes `--cache-dir` warm-starts trustworthy.

use xflow::{bgq, default_library, fold_projection, generic, knl, xeon, ModeledApp, Roofline, Scale, Session};
use xflow_hotspot::ProjectionPlan;
use xflow_workloads::Workload;

fn machines() -> [xflow::MachineModel; 4] {
    [bgq(), xeon(), knl(), generic()]
}

/// The cold reference: a fresh memory-only session, so every stage is
/// built from scratch — asserted by six misses and no hits.
fn cold_build(w: &Workload) -> ModeledApp {
    let session = Session::new();
    let app = session.model_workload(w, Scale::Test).expect(w.name);
    let st = session.stats();
    assert_eq!((st.misses(), st.hits()), (6, 0), "{}: the cold reference builds all six stages", w.name);
    app
}

fn assert_projection_bits(label: &str, cold: &xflow::MachineProjection, rebuilt: &xflow::MachineProjection) {
    assert_eq!(cold.total.to_bits(), rebuilt.total.to_bits(), "{label}: total differs");
    assert_eq!(cold.ranking(), rebuilt.ranking(), "{label}: ranking differs");
    let mut compared = 0;
    for (stmt, cost) in cold.projection.per_stmt.iter() {
        let other = rebuilt.projection.per_stmt.get(&stmt).unwrap_or_else(|| panic!("{label}: missing {stmt:?}"));
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
            let reference = cold.project_on(&m);
            let via_plan = fold_projection(&cold.units, &m, plan_back.evaluate(&m, &Roofline));
            assert_projection_bits(&format!("{}/{} plan", w.name, m.name), &reference, &via_plan);
            let via_bet = fold_projection(&cold.units, &m, plan_from_bet.evaluate(&m, &Roofline));
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
        session.model_workload(&w, Scale::Test).expect(w.name);
        let warm = session.model_workload(&w, Scale::Test).expect(w.name);
        for m in machines() {
            assert_projection_bits(
                &format!("{}/{} session", w.name, m.name),
                &cold.project_on(&m),
                &warm.project_on(&m),
            );
        }
    }
    let st = session.stats();
    assert_eq!(st.hits(), 30, "second load of each workload hits all six stages");
}

#[test]
fn disk_round_trip_matches_cold_build_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("xflow-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = Session::with_cache_dir(&dir);
    for w in xflow_workloads::all() {
        seed.model_workload(&w, Scale::Test).expect(w.name);
    }
    let warm = Session::with_cache_dir(&dir);
    for w in xflow_workloads::all() {
        let cold = cold_build(&w);
        let disk = warm.model_workload(&w, Scale::Test).expect(w.name);
        for m in machines() {
            assert_projection_bits(&format!("{}/{} disk", w.name, m.name), &cold.project_on(&m), &disk.project_on(&m));
        }
    }
    assert_eq!(warm.stats().disk_hits(), 30, "five workloads × six stages from disk");
    let _ = std::fs::remove_dir_all(&dir);
}
