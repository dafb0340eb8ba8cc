//! Bit-identity guarantee of the batched SoA evaluation kernel.
//!
//! [`xflow_hotspot::PlanKernel`] (flat column layout + pre-resolved
//! [`xflow_hw::MachineSpec`] constants) is a pure re-layout of
//! [`xflow_hotspot::ProjectionPlan::evaluate`]: for every workload and
//! every machine, every path through the kernel — the columnar fill, one
//! arena across workloads and machines, and the work-stealing sweep
//! scheduler — must store `f64::to_bits`-identical values to the scalar
//! evaluator's totals, block aggregates and statement rows, for any thread
//! count and chunk size. Models that cannot specialize have no kernel
//! path; their scalar evaluation must match the single-pass reference.

use proptest::prelude::*;
use xflow::{bgq, generic, knl, xeon, Axis, DesignSpace, ModeledApp, Scale, SweepOptions};
use xflow_hotspot::reference::project_single_pass;
use xflow_hotspot::{Projection, ProjectionColumns, ProjectionPlan};
use xflow_hw::{ClassicRoofline, MachineModel, MachineSpec, PerfModel, Roofline};

fn machines() -> Vec<MachineModel> {
    vec![bgq(), xeon(), knl(), generic()]
}

fn assert_projection_bits(fast: &Projection, slow: &Projection, ctx: &str) {
    assert_eq!(fast.total_time.to_bits(), slow.total_time.to_bits(), "total: {ctx}");
    assert_eq!(fast.node_costs.len(), slow.node_costs.len(), "node count: {ctx}");
    for (i, (f, s)) in fast.node_costs.iter().zip(&slow.node_costs).enumerate() {
        assert_eq!(f.total.to_bits(), s.total.to_bits(), "node {i} total: {ctx}");
        assert_eq!(f.enr.to_bits(), s.enr.to_bits(), "node {i} enr: {ctx}");
        assert_eq!(f.per_invocation.total.to_bits(), s.per_invocation.total.to_bits(), "node {i} per-inv: {ctx}");
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
    }
    assert_eq!(fast.unknown_libs, slow.unknown_libs, "unknown libs: {ctx}");
}

/// Every value the arena stores for point `i` equals the scalar
/// evaluation: total, block aggregates (node costs summed in node order)
/// and the statement row.
fn assert_row_bits(cols: &ProjectionColumns, i: usize, scalar: &Projection, ctx: &str) {
    assert_eq!(cols.total(i).to_bits(), scalar.total_time.to_bits(), "total: {ctx}");
    let (mut tc, mut tm, mut ov) = (0.0f64, 0.0f64, 0.0f64);
    for nc in &scalar.node_costs {
        tc += nc.per_invocation.tc * nc.enr;
        tm += nc.per_invocation.tm * nc.enr;
        ov += nc.per_invocation.overlap * nc.enr;
    }
    let (ctc, ctm, cov) = cols.block_totals(i);
    assert_eq!((ctc.to_bits(), ctm.to_bits(), cov.to_bits()), (tc.to_bits(), tm.to_bits(), ov.to_bits()), "{ctx}");
    assert_eq!(cols.memory_bound(i), tm > tc, "verdict: {ctx}");
    let row: Vec<_> = cols.stmt_row(i).collect();
    assert_eq!(row.len(), scalar.per_stmt.len(), "stmt count: {ctx}");
    for sc in row {
        let s = scalar.per_stmt.get(&sc.stmt).unwrap_or_else(|| panic!("missing {:?}: {ctx}", sc.stmt));
        assert_eq!(sc.total.to_bits(), s.total.to_bits(), "{:?} total: {ctx}", sc.stmt);
        assert_eq!(sc.tc.to_bits(), s.tc.to_bits(), "{:?} tc: {ctx}", sc.stmt);
        assert_eq!(sc.tm.to_bits(), s.tm.to_bits(), "{:?} tm: {ctx}", sc.stmt);
        assert_eq!(sc.overlap.to_bits(), s.overlap.to_bits(), "{:?} overlap: {ctx}", sc.stmt);
    }
}

#[test]
fn kernel_matches_evaluate_on_all_workloads_and_machines() {
    let libs = xflow::default_library();
    for w in xflow_workloads::all() {
        let app = ModeledApp::from_workload(&w, Scale::Test).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let plan = ProjectionPlan::new(&app.bet, libs);
        let kernel = plan.kernel();
        // specs from the model's specialization and from direct resolution
        // fill the same bits
        let specialized: Vec<MachineSpec> =
            machines().iter().map(|m| Roofline.specialize(m).expect("extended roofline specializes")).collect();
        let resolved: Vec<MachineSpec> = machines().iter().map(MachineSpec::resolve).collect();
        for (label, specs) in [("specialized", specialized), ("resolved", resolved)] {
            let cols = kernel.evaluate_columns(&specs);
            for (i, machine) in machines().iter().enumerate() {
                let ctx = format!("{label}: {} on {}", w.name, machine.name);
                assert_row_bits(&cols, i, &plan.evaluate(machine, &Roofline), &ctx);
            }
        }
    }
}

#[test]
fn non_specializing_models_fall_back_bit_identically() {
    let libs = xflow::default_library();
    for w in [xflow_workloads::cfd(), xflow_workloads::srad()] {
        let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
        let plan = ProjectionPlan::new(&app.bet, libs);
        for machine in machines() {
            assert!(ClassicRoofline.specialize(&machine).is_none(), "ablation model must not specialize");
            let scalar = plan.evaluate(&machine, &ClassicRoofline);
            let reference = project_single_pass(&app.bet, &machine, &ClassicRoofline, libs);
            let ctx = format!("fallback: {} on {}", w.name, machine.name);
            assert_projection_bits(&scalar, &reference, &ctx);
        }
    }
}

proptest! {
    // The work-stealing scheduler contract: any thread count and any chunk
    // size (including degenerate 1-point chunks and chunks larger than the
    // grid) produce the serial sweep bit-for-bit.
    #![proptest_config(ProptestConfig { cases: 10 })]
    #[test]
    fn work_stealing_sweep_is_schedule_invariant(
        threads in 1usize..9,
        chunk in 0usize..10,
        bw_steps in 1usize..4,
        mlp_steps in 1usize..4,
    ) {
        let app = ModeledApp::from_workload(&xflow_workloads::chargei(), Scale::Test).unwrap();
        let bws: Vec<f64> = (0..bw_steps).map(|i| 0.5 * (1 << i) as f64).collect();
        let mlps: Vec<f64> = (0..mlp_steps).map(|i| 2.0 * (1 << i) as f64).collect();
        let space = DesignSpace::grid(generic(), vec![Axis::dram_bw(&bws), Axis::mlp(&mlps)]);

        let serial = space.sweep_opts(&app, SweepOptions::with_threads(1));
        let scheduled = space.sweep_opts(&app, SweepOptions { threads, chunk, ..Default::default() });

        prop_assert_eq!(serial.points.len(), scheduled.points.len());
        for (a, b) in serial.points.iter().zip(&scheduled.points) {
            prop_assert_eq!(a.index, b.index);
            prop_assert_eq!(a.total.to_bits(), b.total.to_bits());
            prop_assert_eq!(a.top_unit, b.top_unit);
            prop_assert_eq!(a.memory_bound, b.memory_bound);
            prop_assert_eq!(serial.unit_ranking(a.index), scheduled.unit_ranking(b.index));
        }
    }
}
