//! Equivalence guarantee of the two-phase projection engine.
//!
//! The plan/evaluate split ([`xflow_hotspot::ProjectionPlan`]) must be a
//! pure refactoring of the fused single-pass walk: for every workload and
//! every machine, totals, per-node costs, per-statement aggregates, and
//! the derived rankings are **bit-identical** (`f64::to_bits`), not just
//! approximately equal. A proptest then checks the sweep API's contract
//! that results are independent of the worker-thread count.

use proptest::prelude::*;
use xflow::{bgq, generic, knl, xeon, Axis, DesignSpace, ModeledApp, Scale, SweepOptions};
use xflow_hotspot::{project_single_pass, ProjectionPlan};
use xflow_hw::{MachineModel, Roofline};

fn machines() -> Vec<MachineModel> {
    vec![bgq(), xeon(), knl(), generic()]
}

#[test]
fn two_phase_is_bit_identical_to_single_pass_on_all_workloads() {
    let libs = xflow::default_library();
    for w in xflow_workloads::all() {
        let app = ModeledApp::from_workload(&w, Scale::Test).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let plan = ProjectionPlan::new(&app.bet, libs);
        for machine in machines() {
            let fast = plan.evaluate(&machine, &Roofline);
            let slow = project_single_pass(&app.bet, &machine, &Roofline, libs);
            let ctx = format!("{} on {}", w.name, machine.name);

            assert_eq!(fast.total_time.to_bits(), slow.total_time.to_bits(), "total: {ctx}");
            assert_eq!(fast.node_costs.len(), slow.node_costs.len(), "node count: {ctx}");
            for (i, (f, s)) in fast.node_costs.iter().zip(&slow.node_costs).enumerate() {
                assert_eq!(f.total.to_bits(), s.total.to_bits(), "node {i} total: {ctx}");
                assert_eq!(f.enr.to_bits(), s.enr.to_bits(), "node {i} enr: {ctx}");
                assert_eq!(
                    f.per_invocation.total.to_bits(),
                    s.per_invocation.total.to_bits(),
                    "node {i} per-invocation: {ctx}"
                );
                assert_eq!(f.per_invocation.tc.to_bits(), s.per_invocation.tc.to_bits(), "node {i} tc: {ctx}");
                assert_eq!(f.per_invocation.tm.to_bits(), s.per_invocation.tm.to_bits(), "node {i} tm: {ctx}");
            }

            assert_eq!(fast.per_stmt.len(), slow.per_stmt.len(), "stmt count: {ctx}");
            for (stmt, sc) in slow.per_stmt.iter() {
                let fc = fast.per_stmt.get(&stmt).unwrap_or_else(|| panic!("missing {stmt:?}: {ctx}"));
                assert_eq!(fc.total.to_bits(), sc.total.to_bits(), "{stmt:?} total: {ctx}");
                assert_eq!(fc.tc.to_bits(), sc.tc.to_bits(), "{stmt:?} tc: {ctx}");
                assert_eq!(fc.tm.to_bits(), sc.tm.to_bits(), "{stmt:?} tm: {ctx}");
                assert_eq!(fc.overlap.to_bits(), sc.overlap.to_bits(), "{stmt:?} overlap: {ctx}");
                assert_eq!(fc.metrics.flops.to_bits(), sc.metrics.flops.to_bits(), "{stmt:?} flops: {ctx}");
                assert_eq!(fc.metrics.loads.to_bits(), sc.metrics.loads.to_bits(), "{stmt:?} loads: {ctx}");
            }

            // derived views agree exactly too
            let fr = fast.ranked_stmts();
            let sr = slow.ranked_stmts();
            assert_eq!(fr.len(), sr.len(), "ranking length: {ctx}");
            for ((fs, fc), (ss, sc)) in fr.iter().zip(&sr) {
                assert_eq!(fs, ss, "ranking order: {ctx}");
                assert_eq!(fc.total.to_bits(), sc.total.to_bits(), "ranking cost: {ctx}");
            }
            assert_eq!(fast.unknown_libs, slow.unknown_libs, "unknown libs: {ctx}");
        }
    }
}

#[test]
fn public_project_entry_point_uses_the_plan_but_matches_legacy() {
    let libs = xflow::default_library();
    let app = ModeledApp::from_workload(&xflow_workloads::sord(), Scale::Test).unwrap();
    let m = bgq();
    let via_project = xflow_hotspot::project(&app.bet, &m, &Roofline, libs);
    let via_legacy = project_single_pass(&app.bet, &m, &Roofline, libs);
    assert_eq!(via_project.total_time.to_bits(), via_legacy.total_time.to_bits());
}

proptest! {
    // The sweep contract: for any grid shape and any worker-thread count,
    // the result is the same as the serial evaluation — scheduling can
    // never leak into the output.
    #![proptest_config(ProptestConfig { cases: 8 })]
    #[test]
    fn sweep_is_thread_count_invariant(
        threads in 1usize..12,
        bw_steps in 1usize..4,
        mlp_steps in 1usize..4,
        freq_centi in 80u32..320,
    ) {
        let app = ModeledApp::from_workload(&xflow_workloads::srad(), Scale::Test).unwrap();
        let bws: Vec<f64> = (0..bw_steps).map(|i| 1.0 * (1 << i) as f64).collect();
        let mlps: Vec<f64> = (0..mlp_steps).map(|i| 2.0 * (1 << i) as f64).collect();
        let mut base = generic();
        base.freq_ghz = freq_centi as f64 / 100.0;
        let space = DesignSpace::grid(base, vec![Axis::dram_bw(&bws), Axis::mlp(&mlps)]);

        let serial = space.sweep_opts(&app, SweepOptions::with_threads(1));
        let parallel = space.sweep_opts(&app, SweepOptions::with_threads(threads));

        prop_assert_eq!(serial.points.len(), parallel.points.len());
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            prop_assert_eq!(a.index, b.index);
            prop_assert_eq!(a.total.to_bits(), b.total.to_bits());
            prop_assert_eq!(a.top_unit, b.top_unit);
            prop_assert_eq!(a.memory_bound, b.memory_bound);
            prop_assert_eq!(serial.unit_ranking(a.index), parallel.unit_ranking(b.index));
        }
    }
}
