//! Bit-identity guarantee of the columnar sweep arena.
//!
//! [`xflow_hotspot::ProjectionColumns`] stores every sweep point as dense
//! columns instead of a [`Projection`], and the arena is filled in machine
//! lanes of [`xflow_hotspot::lane_width`], with a scalar row loop replaying
//! degenerate lanes. Both are only sound if every stored value — total,
//! block aggregates, δ, verdict and statement row — is `f64::to_bits`-
//! identical to the scalar `ProjectionPlan::evaluate`, for *any* plan,
//! *any* machine list (including lengths that are not lane multiples and
//! degenerate machines that defeat the participation prediction), and
//! *any* chunking of the fill.
//!
//! Plans come from the validation subsystem's seeded minilang generator
//! (`xflow_validate::generate`), so the corpus is not limited to the five
//! built-in workloads.

use proptest::prelude::*;
use xflow_hotspot::{Projection, ProjectionColumns, ProjectionPlan};
use xflow_hw::{bgq, generic, knl, xeon, MachineModel, MachineSpec, Roofline};
use xflow_minilang as ml;
use xflow_validate::{check_columns, generate, render, GenConfig};

/// Drive one generated program through profile → translate → BET. Returns
/// `None` for programs the pipeline legitimately rejects (runtime limit,
/// unmodelable construct) — the generator's valid-by-construction corpus
/// makes that rare, and proptest just draws another seed.
fn bet_for_seed(seed: u64, escapes: bool) -> Option<xflow_bet::Bet> {
    let cfg = GenConfig { allow_escapes: escapes, ..GenConfig::default() };
    let src = render(&generate(seed, &cfg));
    let prog = ml::parse(&src).ok()?;
    let inputs = ml::InputSpec::new();
    let limits = ml::Limits { max_steps: 2_000_000, max_depth: 64 };
    let (prof, _, _) = ml::reference::run(&prog, &inputs, ml::NullTracer, limits, ml::DEFAULT_SEED).ok()?;
    let tr = ml::translate(&prog, &prof).ok()?;
    let env = xflow_validate::report::initial_env(&tr, &inputs);
    xflow_bet::build(&tr.skeleton, &env).ok()
}

/// A machine list of length `n`: the four presets cycled with per-index
/// bandwidth/MLP perturbation (so no two specs are bit-equal), with the
/// machines selected by `degenerate_mask` replaced by an infinite-
/// frequency variant whose underflowed block times defeat the kernel's
/// participation prediction and force the scalar replay path.
fn machine_list(n: usize, degenerate_mask: u32) -> Vec<MachineModel> {
    let presets = [bgq(), xeon(), knl(), generic()];
    (0..n)
        .map(|i| {
            let mut m = presets[i % presets.len()].clone();
            if degenerate_mask & (1 << (i % 8)) != 0 {
                m.freq_ghz = f64::INFINITY;
            } else {
                m.dram_bw_gbs *= 1.0 + 0.125 * (i / presets.len() + 1) as f64;
                m.mlp = (m.mlp + i as f64).max(1.0);
            }
            m
        })
        .collect()
}

fn assert_point_matches_scalar(cols: &ProjectionColumns, i: usize, scalar: &Projection, ctx: &str) {
    assert_eq!(cols.total(i).to_bits(), scalar.total_time.to_bits(), "total: {ctx}");
    // block aggregates: the node costs summed in node order (structural
    // nodes add exact zeros)
    let (mut tc, mut tm, mut ov) = (0.0f64, 0.0f64, 0.0f64);
    for nc in &scalar.node_costs {
        tc += nc.per_invocation.tc * nc.enr;
        tm += nc.per_invocation.tm * nc.enr;
        ov += nc.per_invocation.overlap * nc.enr;
    }
    let (ctc, ctm, cov) = cols.block_totals(i);
    assert_eq!(ctc.to_bits(), tc.to_bits(), "block tc: {ctx}");
    assert_eq!(ctm.to_bits(), tm.to_bits(), "block tm: {ctx}");
    assert_eq!(cov.to_bits(), ov.to_bits(), "block overlap: {ctx}");
    assert_eq!(cols.memory_bound(i), tm > tc, "verdict: {ctx}");
    let row: Vec<_> = cols.stmt_row(i).collect();
    assert_eq!(row.len(), scalar.per_stmt.len(), "row arity: {ctx}");
    for sc in row {
        let s = scalar.per_stmt.get(&sc.stmt).unwrap_or_else(|| panic!("missing {:?}: {ctx}", sc.stmt));
        assert_eq!(sc.total.to_bits(), s.total.to_bits(), "{:?} total: {ctx}", sc.stmt);
        assert_eq!(sc.tc.to_bits(), s.tc.to_bits(), "{:?} tc: {ctx}", sc.stmt);
        assert_eq!(sc.tm.to_bits(), s.tm.to_bits(), "{:?} tm: {ctx}", sc.stmt);
        assert_eq!(sc.overlap.to_bits(), s.overlap.to_bits(), "{:?} overlap: {ctx}", sc.stmt);
    }
}

proptest! {
    // Random plans × machine-list lengths 1..=9 (every lane remainder of
    // the width-4 groups) × degenerate-machine placements × chunk sizes.
    #![proptest_config(ProptestConfig { cases: 12 })]
    #[test]
    fn columns_match_scalar_for_random_plans(
        plan_seed in 0u64..1_000_000,
        n_machines in 1usize..10,
        degenerate_mask in 0u32..16,
        chunk in 1usize..7,
        escapes_sel in 0u8..2,
    ) {
        let Some(bet) = bet_for_seed(plan_seed, escapes_sel == 1) else { return };
        let libs = xflow_validate::default_library();
        let plan = ProjectionPlan::new(&bet, libs);
        let kernel = plan.kernel();
        let machines = machine_list(n_machines, degenerate_mask);
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();

        // one-shot fill
        let cols = kernel.evaluate_columns(&specs);
        prop_assert!(check_columns(&cols).is_empty(), "invariants: {:?}", check_columns(&cols));

        for (i, machine) in machines.iter().enumerate() {
            let ctx = format!("seed {plan_seed}, point {i}/{n_machines} on {}", machine.name);
            assert_point_matches_scalar(&cols, i, &plan.evaluate(machine, &Roofline), &ctx);
        }

        // chunked fill with arbitrary boundaries must be bit-stable too
        let mut chunked = ProjectionColumns::new(&kernel, specs.clone());
        let mut start = 0;
        while start < specs.len() {
            let end = (start + chunk).min(specs.len());
            let part = kernel.evaluate_columns_chunk(&chunked, start..end);
            chunked.install(part);
            start = end;
        }
        for i in 0..specs.len() {
            prop_assert_eq!(chunked.total(i).to_bits(), cols.total(i).to_bits(), "chunked total {}", i);
            prop_assert_eq!(chunked.delta(i).to_bits(), cols.delta(i).to_bits(), "chunked delta {}", i);
            prop_assert_eq!(chunked.memory_bound(i), cols.memory_bound(i), "chunked verdict {}", i);
            let a: Vec<_> = chunked.stmt_row(i).map(|s| (s.slot, s.total.to_bits())).collect();
            let b: Vec<_> = cols.stmt_row(i).map(|s| (s.slot, s.total.to_bits())).collect();
            prop_assert_eq!(a, b, "chunked stmt row {}", i);
        }
    }
}

#[test]
fn degenerate_lanes_inside_full_groups_replay_exactly() {
    // deterministic companion to the proptest: a lane group whose middle
    // lanes are degenerate, plus a remainder group of one degenerate point
    let Some(bet) = bet_for_seed(7, false) else { panic!("seed 7 must survive the pipeline") };
    let libs = xflow_validate::default_library();
    let plan = ProjectionPlan::new(&bet, libs);
    let kernel = plan.kernel();
    let machines = machine_list(5, 0b10110);
    let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
    let cols = kernel.evaluate_columns(&specs);
    assert!(check_columns(&cols).is_empty(), "{:?}", check_columns(&cols));
    for (i, machine) in machines.iter().enumerate() {
        let scalar = plan.evaluate(machine, &Roofline);
        assert_point_matches_scalar(&cols, i, &scalar, &format!("point {i} on {}", machine.name));
    }
}
