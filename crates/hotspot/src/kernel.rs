//! Batched structure-of-arrays evaluation kernel (phase 2, the sweep fast
//! path).
//!
//! [`crate::ProjectionPlan::evaluate`] walks an AoS `Vec<PlanBlock>` and
//! calls the performance model through a trait object per block — fine for
//! one machine, wasteful for a design-space sweep that re-evaluates the
//! same plan on hundreds of candidate machines. [`PlanKernel`] re-lays the
//! plan out once into parallel columns (flops, iops, accesses, bytes, ENR,
//! thread caps, δ) so the per-machine inner loop streams flat `f64` arrays
//! with no pointer chasing and no virtual dispatch, using the constants a
//! [`MachineSpec`] pre-resolves per machine.
//!
//! The kernel writes the [`ProjectionColumns`] arena through one loop, the
//! **lane fill**, which evaluates [`lane_width`] machines per pass. Batches
//! enter it through [`PlanKernel::evaluate_columns`] and
//! [`PlanKernel::evaluate_columns_chunk`]; a traced sweep fills one point
//! at a time through [`ColumnsChunk::fill_point`], as a one-lane group of
//! the same fill inside a `kernel.evaluate` span.
//!
//! Single machines do not go through the kernel: a full [`crate::Projection`]
//! (per-node costs, statement metrics, unknown libraries) comes from
//! [`ProjectionPlan::evaluate`], the scalar reference.
//!
//! Bit-identity contract: each lane's block time is computed by
//! [`xflow_hw::SpecLanes::block_time`] (bit-identical per lane to
//! `Roofline.project_block`) and accumulated in plan order under the rule
//! [`ProjectionPlan::evaluate`] applies — a block lands in its statement
//! only where its time is `> 0` — so every value stored in the arena
//! matches the per-statement table and total of
//! [`ProjectionPlan::evaluate`] to the bit, on every machine. Models that
//! cannot specialize have no kernel path; they evaluate through
//! [`ProjectionPlan::evaluate`].

use std::sync::Arc;

use xflow_hw::{MachineSpec, SpecLanes};

use crate::columns::{
    achieved_delta, ColumnsChunk, ColumnsLayout, ColumnsTarget, ProjectionColumns, SlotLayout, NO_SLOT,
};
use crate::plan::ProjectionPlan;

/// Machines evaluated per pass by the columnar fill (f64x4 lanes).
const LANES: usize = 4;

/// Number of machines evaluated per pass by the columnar batch loop.
pub fn lane_width() -> usize {
    LANES
}

/// One statement slot's running sums over a group of `W` lanes, fused so
/// one slot touch hits one contiguous struct instead of five scattered
/// vectors. The lane fill assigns it on the slot's first block, so it
/// never needs clearing between groups.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneAcc<const W: usize> {
    total: [f64; W],
    tc: [f64; W],
    tm: [f64; W],
    ov: [f64; W],
    /// Whether any block of the slot has landed time in the lane.
    present: [bool; W],
}

impl<const W: usize> Default for LaneAcc<W> {
    fn default() -> Self {
        Self { total: [0.0; W], tc: [0.0; W], tm: [0.0; W], ov: [0.0; W], present: [false; W] }
    }
}

/// Structure-of-arrays compilation of a [`ProjectionPlan`], built once and
/// evaluated per batch of machines into a [`ProjectionColumns`] arena via
/// [`PlanKernel::evaluate_columns`] or [`PlanKernel::evaluate_columns_chunk`].
#[derive(Debug, Clone)]
pub struct PlanKernel {
    /// Per-invocation floating point operations.
    flops: Vec<f64>,
    /// Per-invocation fixed point operations.
    iops: Vec<f64>,
    /// Per-invocation memory accesses (`loads + stores`).
    accesses: Vec<f64>,
    /// Per-invocation bytes touched (`accesses × elem_bytes`).
    bytes: Vec<f64>,
    /// Expected number of repetitions of each block.
    enr: Vec<f64>,
    /// Thread cap: available parallelism, or 1.0 for non-parallelizable
    /// blocks (library calls). `cap.min(cores).max(1.0)` reproduces
    /// `BlockSummary::threads_on` bit-exactly for every core count.
    thread_cap: Vec<f64>,
    /// Precomputed overlap fraction δ = 1 − 1/max(1, flops).
    delta: Vec<f64>,
    /// Whether each block is the first (in plan order) of its statement
    /// slot. The lane fill *assigns* a slot's accumulators there and adds
    /// on every later block.
    first_touch: Vec<bool>,
    /// Content fingerprint of the columns; a [`ProjectionColumns`] arena
    /// is only ever filled by the kernel whose fingerprint it carries.
    fingerprint: u64,
    /// Statement-slot maps for columnar arenas, shared into every
    /// [`ProjectionColumns`] by reference count.
    pub(crate) slot_layout: Arc<SlotLayout>,
}

impl PlanKernel {
    /// Compile the SoA columns from a plan. Pure data movement — every
    /// derived column (`accesses`, `bytes`, `delta`, `thread_cap`) uses
    /// the exact expression the scalar path computes per call.
    pub fn new(plan: &ProjectionPlan) -> Self {
        let blocks = plan.blocks();
        let n = blocks.len();
        let mut kernel = Self {
            flops: Vec::with_capacity(n),
            iops: Vec::with_capacity(n),
            accesses: Vec::with_capacity(n),
            bytes: Vec::with_capacity(n),
            enr: Vec::with_capacity(n),
            thread_cap: Vec::with_capacity(n),
            delta: Vec::with_capacity(n),
            first_touch: Vec::with_capacity(n),
            fingerprint: 0,
            slot_layout: Arc::default(),
        };
        for block in blocks {
            let m = &block.summary.metrics;
            kernel.flops.push(m.flops);
            kernel.iops.push(m.iops);
            kernel.accesses.push(m.accesses());
            kernel.bytes.push(m.bytes());
            kernel.enr.push(block.summary.enr);
            kernel.thread_cap.push(if block.summary.parallelizable { block.summary.avail_par } else { 1.0 });
            kernel.delta.push(MachineSpec::delta_of(m.flops));
        }
        let stmts: Vec<Option<u32>> = blocks.iter().map(|b| b.stmt.map(|s| s.0)).collect();
        let layout = SlotLayout::build(&stmts, plan.stmt_bound());
        let mut seen = vec![false; layout.slots.len()];
        for &slot in &layout.block_slot {
            kernel.first_touch.push(slot != NO_SLOT && !std::mem::replace(&mut seen[slot as usize], true));
        }
        kernel.fingerprint = kernel.content_fingerprint(&layout);
        kernel.slot_layout = Arc::new(layout);
        kernel
    }

    /// Number of cost-carrying blocks.
    pub fn len(&self) -> usize {
        self.flops.len()
    }

    /// True when the plan carries no cost blocks.
    pub fn is_empty(&self) -> bool {
        self.flops.is_empty()
    }

    /// Content fingerprint of the columns (ties a [`ProjectionColumns`]
    /// arena to the kernel that fills it).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// FNV-1a over every column and the slot maps, so two kernels compare
    /// equal iff every evaluation-relevant bit matches.
    fn content_fingerprint(&self, layout: &SlotLayout) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.len() as u64).to_le_bytes());
        for &v in layout.block_slot.iter().chain(&layout.slots) {
            eat(&v.to_le_bytes());
        }
        for col in [&self.flops, &self.iops, &self.accesses, &self.bytes, &self.enr, &self.thread_cap, &self.delta] {
            for &v in col {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Columnar batch evaluation: evaluate every spec and return the dense
    /// [`ProjectionColumns`] arena — no per-point `Projection`
    /// materialization. Machines are processed in lanes of [`lane_width`];
    /// every stored value is bit-identical to the scalar evaluator.
    pub fn evaluate_columns(&self, specs: &[MachineSpec]) -> ProjectionColumns {
        let mut cols = ProjectionColumns::new(self, specs.to_vec());
        let n = cols.points();
        let mut acc = vec![LaneAcc::<LANES>::default(); cols.slot_count()];
        // fill the arena in place — no intermediate chunk buffer to
        // allocate, zero, and copy back
        let (layout, mut target) = cols.layout_and_target(0..n);
        self.fill_columns(0, &layout, &mut target, 0..n, &mut acc);
        cols
    }

    /// Evaluate the contiguous point range `range` of a columns arena into
    /// a mergeable [`ColumnsChunk`] (install it with
    /// [`ProjectionColumns::install`]). This is the sweep scheduler's unit
    /// of work: workers share the read-only arena layout and each fills
    /// disjoint ranges through the lane fill.
    pub fn evaluate_columns_chunk(&self, cols: &ProjectionColumns, range: std::ops::Range<usize>) -> ColumnsChunk {
        let mut chunk = ColumnsChunk::new(cols, range.clone());
        let mut acc = vec![LaneAcc::<LANES>::default(); cols.slot_count()];
        self.fill_columns(range.start, &cols.layout(), &mut chunk.target(), 0..range.len(), &mut acc);
        chunk
    }

    /// The lane fill behind every kernel entry point: evaluates
    /// `layout.specs[start + r]` into target row `r` for each `r` in
    /// `rows`, `W` machines per pass, overwriting the rows. Batches run
    /// [`lane_width`] lanes; a traced point is a one-lane group.
    ///
    /// A group short of `W` machines pads its trailing lanes with copies
    /// of its first spec: full lane arithmetic, writeback only of the real
    /// lanes — no scalar remainder loop. `acc` holds one [`LaneAcc`] per
    /// statement slot.
    ///
    /// Statement slots follow [`ProjectionPlan::evaluate`]'s rule per lane:
    /// a block adds to its slot only where its time is `> 0`. The slot's
    /// first block *assigns* instead (`+0.0` where that lane is inactive),
    /// which is bit-identical to starting from zero because every addend is
    /// `≥ +0.0`: `0.0 + x` is exactly `x`. A block on which all lanes land
    /// time takes the straight-line lane branch; the rest (zero-cost blocks,
    /// underflowed or NaN lanes) the per-lane one.
    // lane loops are written `for w in 0..W` even where an iterator would
    // do: the fixed-width indexed form matches `lanes.rs` and is what the
    // autovectorizer reliably lowers to packed ops
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn fill_columns<const W: usize>(
        &self,
        start: usize,
        layout: &ColumnsLayout<'_>,
        target: &mut ColumnsTarget<'_>,
        rows: std::ops::Range<usize>,
        acc: &mut [LaneAcc<W>],
    ) {
        assert_eq!(layout.fingerprint, self.fingerprint, "columns arena built from a foreign kernel");
        let k = layout.slots;
        let st = &mut acc[..k];

        // hoist length-proven slices so the loop indexes without bounds
        // checks — on small plans the checks cost more than the arithmetic
        let n = self.len();
        let (flops, iops) = (&self.flops[..n], &self.iops[..n]);
        let (accesses, bytes) = (&self.accesses[..n], &self.bytes[..n]);
        let (enr, thread_cap, delta) = (&self.enr[..n], &self.thread_cap[..n], &self.delta[..n]);
        let first_touch = &self.first_touch[..n];
        let block_slot = &layout.maps.block_slot[..n];

        let mut rel = rows.start;
        while rel < rows.end {
            let valid = (rows.end - rel).min(W);
            let window = &layout.specs[start + rel..start + rel + valid];
            let lanes = if valid == W {
                SpecLanes::<W>::pack(window)
            } else {
                let mut padded = [window[0]; W];
                padded[..valid].copy_from_slice(window);
                SpecLanes::<W>::pack(&padded)
            };
            let mut acc_total = [0.0f64; W];
            let mut acc_tc = [0.0f64; W];
            let mut acc_tm = [0.0f64; W];
            let mut acc_ov = [0.0f64; W];

            for i in 0..n {
                let t = lanes.block_time(flops[i], iops[i], accesses[i], bytes[i], thread_cap[i], delta[i]);
                let e = enr[i];
                for w in 0..W {
                    acc_total[w] += t.total[w] * e;
                }
                for w in 0..W {
                    acc_tc[w] += t.tc[w] * e;
                }
                for w in 0..W {
                    acc_tm[w] += t.tm[w] * e;
                }
                for w in 0..W {
                    acc_ov[w] += t.overlap[w] * e;
                }
                if block_slot[i] == NO_SLOT {
                    continue;
                }
                let a = &mut st[block_slot[i] as usize];
                let mut active = [false; W];
                for w in 0..W {
                    active[w] = t.total[w] > 0.0;
                }
                if active == [true; W] {
                    // the common case: straight-line lane arithmetic
                    if first_touch[i] {
                        for w in 0..W {
                            a.total[w] = t.total[w] * e;
                        }
                        for w in 0..W {
                            a.tc[w] = t.tc[w] * e;
                        }
                        for w in 0..W {
                            a.tm[w] = t.tm[w] * e;
                        }
                        for w in 0..W {
                            a.ov[w] = t.overlap[w] * e;
                        }
                    } else {
                        for w in 0..W {
                            a.total[w] += t.total[w] * e;
                        }
                        for w in 0..W {
                            a.tc[w] += t.tc[w] * e;
                        }
                        for w in 0..W {
                            a.tm[w] += t.tm[w] * e;
                        }
                        for w in 0..W {
                            a.ov[w] += t.overlap[w] * e;
                        }
                    }
                    a.present = [true; W];
                } else if first_touch[i] {
                    for w in 0..W {
                        let on = active[w];
                        a.total[w] = if on { t.total[w] * e } else { 0.0 };
                        a.tc[w] = if on { t.tc[w] * e } else { 0.0 };
                        a.tm[w] = if on { t.tm[w] * e } else { 0.0 };
                        a.ov[w] = if on { t.overlap[w] * e } else { 0.0 };
                        a.present[w] = on;
                    }
                } else {
                    for w in 0..W {
                        if active[w] {
                            a.total[w] += t.total[w] * e;
                            a.tc[w] += t.tc[w] * e;
                            a.tm[w] += t.tm[w] * e;
                            a.ov[w] += t.overlap[w] * e;
                            a.present[w] = true;
                        }
                    }
                }
            }

            for w in 0..valid {
                let r = rel + w;
                target.total[r] = acc_total[w];
                target.tc[r] = acc_tc[w];
                target.tm[r] = acc_tm[w];
                target.overlap[r] = acc_ov[w];
                target.delta[r] = achieved_delta(acc_tc[w], acc_tm[w], acc_ov[w]);
                target.memory_bound[r] = acc_tm[w] > acc_tc[w];
                let base = r * k;
                for (s, a) in st.iter().enumerate() {
                    target.stmt_total[base + s] = a.total[w];
                    target.stmt_tc[base + s] = a.tc[w];
                    target.stmt_tm[base + s] = a.tm[w];
                    target.stmt_overlap[base + s] = a.ov[w];
                    target.stmt_present[base + s] = a.present[w];
                }
            }
            rel += valid;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Projection;
    use xflow_bet::{build, Bet};
    use xflow_hw::{bgq, generic, knl, xeon, ClassicRoofline, LibraryRegistry, Roofline};
    use xflow_obs::{CollectingRecorder, NoopRecorder};
    use xflow_skeleton::expr::env_from;
    use xflow_skeleton::parse;

    const SRC: &str = r#"
func main() {
  @init: comp { flops: 10, loads: 4 }
  parloop i = 0 .. 200 {
    @kern: comp { flops: 64, loads: 16, stores: 8, bytes: 8 }
    @pure: comp { flops: 32 }
    lib exp(4)
    lib mystery(2)
  }
  lib mystery(1)
}
"#;

    fn bet_for(src: &str) -> Bet {
        let prog = parse(src).unwrap();
        build(&prog, &env_from(std::iter::empty::<(&str, f64)>())).unwrap()
    }

    /// An infinite-frequency machine: every cycle time underflows to zero,
    /// so the compute-only `@pure` block lands no time and its statement
    /// drops out of the row.
    fn degenerate() -> xflow_hw::MachineModel {
        let mut m = generic();
        m.freq_ghz = f64::INFINITY;
        m
    }

    /// A machine whose compute times are `∞·0 = NaN`: infinite frequency
    /// and no scalar flop throughput. Only flop-free blocks land time.
    fn nan_time() -> xflow_hw::MachineModel {
        let mut m = degenerate();
        m.scalar_flops_per_cycle = 0.0;
        m
    }

    /// Every value the arena stores for point `i` — total, block-level
    /// aggregates, δ, verdict and the statement row — equals the scalar
    /// evaluation to the bit. The block aggregates are checked against the
    /// node costs summed in node order.
    fn assert_row_bits(cols: &ProjectionColumns, i: usize, scalar: &Projection) {
        assert_eq!(cols.total(i).to_bits(), scalar.total_time.to_bits(), "total point {i}");
        let (mut stc, mut stm, mut sov) = (0.0, 0.0, 0.0);
        for nc in &scalar.node_costs {
            stc += nc.per_invocation.tc * nc.enr;
            stm += nc.per_invocation.tm * nc.enr;
            sov += nc.per_invocation.overlap * nc.enr;
        }
        let (tc, tm, ov) = cols.block_totals(i);
        assert_eq!(
            (tc.to_bits(), tm.to_bits(), ov.to_bits()),
            (stc.to_bits(), stm.to_bits(), sov.to_bits()),
            "point {i}"
        );
        assert_eq!(cols.delta(i).to_bits(), achieved_delta(stc, stm, sov).to_bits(), "delta point {i}");
        assert_eq!(cols.memory_bound(i), stm > stc, "verdict point {i}");
        let row: Vec<_> = cols.stmt_row(i).collect();
        assert_eq!(row.len(), scalar.per_stmt.len(), "row arity point {i}");
        for sc in row {
            let reference = scalar.per_stmt[&sc.stmt];
            assert_eq!(sc.total.to_bits(), reference.total.to_bits(), "{:?} total point {i}", sc.stmt);
            assert_eq!(sc.tc.to_bits(), reference.tc.to_bits(), "{:?} tc point {i}", sc.stmt);
            assert_eq!(sc.tm.to_bits(), reference.tm.to_bits(), "{:?} tm point {i}", sc.stmt);
            assert_eq!(sc.overlap.to_bits(), reference.overlap.to_bits(), "{:?} overlap point {i}", sc.stmt);
        }
    }

    #[test]
    fn kernel_evaluation_is_bit_identical_to_scalar_evaluate() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let machines = [bgq(), xeon(), knl(), generic()];
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        for (i, machine) in machines.iter().enumerate() {
            assert_row_bits(&cols, i, &plan.evaluate(machine, &Roofline));
        }
    }

    #[test]
    fn fallback_path_matches_scalar_for_non_specializing_models() {
        // a model other than the extended roofline has no kernel path: the
        // plan's scalar evaluator is its only route, and it matches the
        // single-pass reference bit for bit
        let bet = bet_for(SRC);
        let libs = LibraryRegistry::with_defaults();
        let plan = ProjectionPlan::new(&bet, &libs);
        for machine in [bgq(), generic()] {
            let reference = crate::reference::project_single_pass(&bet, &machine, &ClassicRoofline, &libs);
            let scalar = plan.evaluate(&machine, &ClassicRoofline);
            assert_eq!(scalar.total_time.to_bits(), reference.total_time.to_bits());
            for (stmt, sc) in reference.per_stmt.iter() {
                assert_eq!(scalar.per_stmt[&stmt].total.to_bits(), sc.total.to_bits());
            }
        }
    }

    #[test]
    fn traced_point_fill_matches_scalar_observed() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let machines = [bgq(), degenerate(), nan_time()];
        let mut cols = ProjectionColumns::new(&kernel, machines.iter().map(MachineSpec::resolve).collect());
        for (i, machine) in machines.iter().enumerate() {
            let rec_scalar = CollectingRecorder::new();
            let scalar = plan.evaluate_observed(machine, &Roofline, &rec_scalar);
            let rec_kernel = CollectingRecorder::new();
            let mut chunk = ColumnsChunk::new(&cols, i..i + 1);
            chunk.fill_point(&kernel, &cols, i, &rec_kernel);
            cols.install(chunk);
            assert_row_bits(&cols, i, &scalar);
            assert_eq!(rec_kernel.counter_value("plan.blocks"), rec_scalar.counter_value("plan.blocks"));
            assert_eq!(rec_kernel.snapshot().spans.iter().filter(|s| s.name == "kernel.evaluate").count(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "foreign kernel")]
    fn filling_a_point_through_a_foreign_kernel_panics() {
        let plan_a = ProjectionPlan::new(&bet_for(SRC), &LibraryRegistry::with_defaults());
        let plan_b = ProjectionPlan::new(
            &bet_for("func main() { loop i = 0 .. 10 { comp { flops: 7, loads: 2 } } }"),
            &LibraryRegistry::with_defaults(),
        );
        let (ka, kb) = (plan_a.kernel(), plan_b.kernel());
        assert_ne!(ka.fingerprint(), kb.fingerprint());
        let cols = ProjectionColumns::new(&ka, vec![MachineSpec::resolve(&generic())]);
        ColumnsChunk::new(&cols, 0..1).fill_point(&kb, &cols, 0, &NoopRecorder);
    }

    #[test]
    fn columns_match_scalar_evaluate_row_for_row() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let machines = [bgq(), xeon(), knl(), generic(), bgq(), xeon(), knl()]; // 7: lane remainder of 3
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        assert_eq!(cols.points(), machines.len());
        for (i, machine) in machines.iter().enumerate() {
            assert_row_bits(&cols, i, &plan.evaluate(machine, &Roofline));
        }
    }

    #[test]
    fn columns_chunked_fill_matches_one_shot_fill() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let machines = [bgq(), xeon(), knl(), generic(), bgq(), xeon(), knl(), generic(), bgq()];
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let whole = kernel.evaluate_columns(&specs);
        for split in [1, 2, 3, 4, 5, 8] {
            let mut cols = ProjectionColumns::new(&kernel, specs.clone());
            let mut start = 0;
            while start < specs.len() {
                let end = (start + split).min(specs.len());
                let chunk = kernel.evaluate_columns_chunk(&cols, start..end);
                cols.install(chunk);
                start = end;
            }
            for i in 0..specs.len() {
                assert_eq!(cols.total(i).to_bits(), whole.total(i).to_bits(), "split {split} point {i}");
                assert_eq!(cols.memory_bound(i), whole.memory_bound(i), "split {split} point {i}");
                assert_eq!(cols.delta(i).to_bits(), whole.delta(i).to_bits(), "split {split} point {i}");
                let a: Vec<_> = cols.stmt_row(i).map(|s| (s.slot, s.total.to_bits())).collect();
                let b: Vec<_> = whole.stmt_row(i).map(|s| (s.slot, s.total.to_bits())).collect();
                assert_eq!(a, b, "split {split} point {i}");
            }
        }
    }

    #[test]
    fn degenerate_lanes_inside_full_groups_stay_exact() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        // lanes whose blocks land no time or NaN sit next to real machines
        // in a full lane group and alone in the remainder group
        let machines = [bgq(), degenerate(), nan_time(), knl(), degenerate(), xeon(), nan_time()];
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        for (i, machine) in machines.iter().enumerate() {
            assert_row_bits(&cols, i, &plan.evaluate(machine, &Roofline));
        }
    }

    #[test]
    fn nan_blocks_add_nothing_to_a_statement_that_lands_time() {
        // one statement, four contexts: on the NaN-time machine the
        // flop-free calls land time and the others are NaN, so that lane
        // of the slot starts at +0.0, adds, skips, then adds again
        let src = "func main() { call mix(8) call mix(0) call mix(8) call mix(0) } \
                   func mix(n) { @mix: comp { flops: n, loads: 4 } }";
        let bet = bet_for(src);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        assert_eq!(kernel.slot_layout.slots.len(), 1);
        let scalar = plan.evaluate(&nan_time(), &Roofline);
        assert!(scalar.total_time.is_nan());
        assert_eq!(scalar.per_stmt.len(), 1, "the flop-free contexts land time");
        let machines = [bgq(), nan_time(), xeon(), nan_time(), knl()];
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        let mut traced = ProjectionColumns::new(&kernel, specs.clone());
        for i in 0..specs.len() {
            let mut chunk = ColumnsChunk::new(&traced, i..i + 1);
            chunk.fill_point(&kernel, &traced, i, &NoopRecorder);
            traced.install(chunk);
        }
        for (i, machine) in machines.iter().enumerate() {
            let scalar = plan.evaluate(machine, &Roofline);
            assert_row_bits(&cols, i, &scalar);
            assert_row_bits(&traced, i, &scalar);
        }
    }

    #[test]
    fn columns_top_k_ranks_by_total_with_stable_ties() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        // duplicates guarantee ties; ties must keep point order
        let machines = [xeon(), bgq(), xeon(), generic()];
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        let ranked = cols.top_k(machines.len());
        for w in ranked.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                cols.total(a) < cols.total(b) || (cols.total(a) == cols.total(b) && a < b),
                "ranking violated: {a} before {b}"
            );
        }
        assert_eq!(cols.top_k(2).len(), 2);
        assert_eq!(lane_width(), 4);
    }
}
