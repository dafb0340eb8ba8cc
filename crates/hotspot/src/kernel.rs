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
//! The kernel only ever writes the [`ProjectionColumns`] arena, through
//! two loops:
//!
//! * the **lane fill** ([`PlanKernel::evaluate_columns`],
//!   [`PlanKernel::evaluate_columns_chunk`]) evaluates [`lane_width`]
//!   machines per pass against a build-time prediction of which blocks
//!   carry time;
//! * the **scalar row loop** fills one point at a time. It replays the
//!   lanes whose machine defeats the prediction (underflowed or infinite
//!   block times), and it fills traced sweeps through
//!   [`ColumnsChunk::fill_point`], emitting per-block provenance.
//!
//! Single machines do not go through the kernel: a full [`crate::Projection`]
//! (per-node costs, statement metrics, unknown libraries) comes from
//! [`ProjectionPlan::evaluate`], the scalar reference.
//!
//! Bit-identity contract: each block time is computed by
//! [`MachineSpec::block_time`] (itself bit-identical to
//! `Roofline.project_block`) and accumulated in plan order, so every value
//! stored in the arena matches the per-statement table and total of
//! [`ProjectionPlan::evaluate`] to the bit. Models that cannot specialize
//! have no kernel path; they evaluate through [`ProjectionPlan::evaluate`].

use std::sync::Arc;

use xflow_hw::{BlockSummary, MachineSpec};
use xflow_obs::{AttrValue, BlockProvenance, NoopRecorder, Recorder, SpanId};

use crate::columns::{
    achieved_delta, ColumnsChunk, ColumnsLayout, ColumnsTarget, ProjectionColumns, SlotLayout, NO_SLOT,
};
use crate::plan::ProjectionPlan;

/// Column sentinel for "block aggregates into no statement".
const NO_STMT: u32 = u32::MAX;

/// Machines evaluated per pass by the columnar fill (f64x4 lanes).
const LANES: usize = 4;

/// Number of machines evaluated per pass by the columnar batch loop.
pub fn lane_width() -> usize {
    LANES
}

/// Structure-of-arrays compilation of a [`ProjectionPlan`], built once and
/// evaluated per batch of machines into a [`ProjectionColumns`] arena via
/// [`PlanKernel::evaluate_columns`] or [`PlanKernel::evaluate_columns_chunk`].
#[derive(Debug, Clone)]
pub struct PlanKernel {
    /// BET arena index of each block (`PlanBlock::node`).
    node: Vec<u32>,
    /// Statement each block aggregates into, or [`NO_STMT`].
    stmt: Vec<u32>,
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
    /// Full block summaries, kept for telemetry provenance (cold: not
    /// touched by the lane fill).
    summaries: Vec<BlockSummary>,
    /// Predicted statement participation per block: `flops > 0 ∨ iops > 0 ∨
    /// accesses > 0`, which is `time.total > 0` on every non-degenerate
    /// machine. The lane fill checks the prediction per lane; a lane that
    /// breaks it (underflow, infinite frequency, …) is replayed by the
    /// scalar row loop.
    stmt_participates: Vec<bool>,
    /// Whether each block is the first (in plan order) predicted-active
    /// block of its statement. The lane fill *assigns* a statement's lane
    /// accumulators on first touch instead of accumulating, so they never
    /// need clearing between lane groups.
    first_touch: Vec<bool>,
    /// Statement IDs in first-touch order: the statement slots a predicted
    /// lane writes back.
    pre_touched: Vec<u32>,
    /// Upper bound on statement IDs.
    stmt_bound: usize,
    /// Content fingerprint of the columns; a [`ProjectionColumns`] arena
    /// is only ever filled by the kernel whose fingerprint it carries.
    fingerprint: u64,
    /// Statement-slot maps for columnar arenas, derived from `stmt` and
    /// shared into every [`ProjectionColumns`] by reference count.
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
            node: Vec::with_capacity(n),
            stmt: Vec::with_capacity(n),
            flops: Vec::with_capacity(n),
            iops: Vec::with_capacity(n),
            accesses: Vec::with_capacity(n),
            bytes: Vec::with_capacity(n),
            enr: Vec::with_capacity(n),
            thread_cap: Vec::with_capacity(n),
            delta: Vec::with_capacity(n),
            summaries: Vec::with_capacity(n),
            stmt_participates: Vec::with_capacity(n),
            first_touch: Vec::with_capacity(n),
            pre_touched: Vec::new(),
            stmt_bound: plan.stmt_bound(),
            fingerprint: 0,
            slot_layout: Arc::default(),
        };
        for block in blocks {
            let m = &block.summary.metrics;
            kernel.node.push(block.node);
            kernel.stmt.push(block.stmt.map(|s| s.0).unwrap_or(NO_STMT));
            kernel.flops.push(m.flops);
            kernel.iops.push(m.iops);
            kernel.accesses.push(m.accesses());
            kernel.bytes.push(m.bytes());
            kernel.enr.push(block.summary.enr);
            kernel.thread_cap.push(if block.summary.parallelizable { block.summary.avail_par } else { 1.0 });
            kernel.delta.push(MachineSpec::delta_of(m.flops));
            kernel.summaries.push(block.summary);
        }
        // Precompute the predicted participation, its first-touch flags and
        // its presence set (the statement slots a predicted lane writes).
        for i in 0..kernel.node.len() {
            let p = kernel.flops[i] > 0.0 || kernel.iops[i] > 0.0 || kernel.accesses[i] > 0.0;
            kernel.stmt_participates.push(p);
            let stmt = kernel.stmt[i];
            let first = stmt != NO_STMT && p && !kernel.pre_touched.contains(&stmt);
            if first {
                kernel.pre_touched.push(stmt);
            }
            kernel.first_touch.push(first);
        }
        kernel.fingerprint = kernel.content_fingerprint();
        kernel.slot_layout = Arc::new(SlotLayout::build(&kernel.stmt, kernel.stmt_bound, &kernel.pre_touched));
        kernel
    }

    /// Number of cost-carrying blocks.
    pub fn len(&self) -> usize {
        self.node.len()
    }

    /// True when the plan carries no cost blocks.
    pub fn is_empty(&self) -> bool {
        self.node.is_empty()
    }

    /// Content fingerprint of the columns (ties a [`ProjectionColumns`]
    /// arena to the kernel that fills it).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// FNV-1a over every column, so two kernels compare equal iff every
    /// evaluation-relevant bit matches.
    fn content_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.node.len() as u64).to_le_bytes());
        for &v in &self.node {
            eat(&v.to_le_bytes());
        }
        for &v in &self.stmt {
            eat(&v.to_le_bytes());
        }
        for col in [&self.flops, &self.iops, &self.accesses, &self.bytes, &self.enr, &self.thread_cap, &self.delta] {
            for &v in col {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        eat(&(self.stmt_bound as u64).to_le_bytes());
        h
    }

    /// The scalar row loop: evaluate one machine into target-relative row
    /// `r`, overwriting it. No `Projection`, no per-node costs, no
    /// allocation.
    ///
    /// Statement slots start from zero and accumulate with `+=` in block
    /// order, gated on `time.total > 0` — the operation sequence of
    /// [`ProjectionPlan::evaluate`]'s per-statement table, so every slot
    /// is bit-identical to it on any machine, degenerate ones included.
    /// The block-level aggregates accumulate in block order like the lane
    /// fill. When `rec` is enabled, the loop runs inside a
    /// `kernel.evaluate` span and emits the same per-block
    /// [`BlockProvenance`] stream and `plan.blocks` counter as
    /// [`ProjectionPlan::evaluate_observed`].
    // out of line: inlined into the lane fill, the rarely taken replay
    // branch measurably slowed the lane loop
    #[inline(never)]
    pub(crate) fn fill_row<R: Recorder + ?Sized>(
        &self,
        spec: &MachineSpec,
        block_slot: &[u32],
        target: &mut ColumnsTarget<'_>,
        r: usize,
        rec: &R,
    ) {
        let enabled = rec.enabled();
        let span = if enabled {
            rec.span_start("kernel.evaluate", &[("blocks", AttrValue::U64(self.len() as u64))])
        } else {
            SpanId::NONE
        };
        let k = target.slots;
        let row = r * k..(r + 1) * k;
        target.stmt_total[row.clone()].fill(0.0);
        target.stmt_tc[row.clone()].fill(0.0);
        target.stmt_tm[row.clone()].fill(0.0);
        target.stmt_overlap[row.clone()].fill(0.0);
        target.stmt_present[row].fill(false);

        // hoist length-proven slices so the loop indexes without bounds
        // checks — on small plans the checks cost more than the arithmetic
        let n = self.node.len();
        let (node, stmt_col, block_slot) = (&self.node[..n], &self.stmt[..n], &block_slot[..n]);
        let (flops, iops) = (&self.flops[..n], &self.iops[..n]);
        let (accesses, bytes) = (&self.accesses[..n], &self.bytes[..n]);
        let (enr, thread_cap, delta) = (&self.enr[..n], &self.thread_cap[..n], &self.delta[..n]);
        let (mut total_time, mut tc, mut tm, mut ov) = (0.0, 0.0, 0.0, 0.0);

        for i in 0..n {
            let time = spec.block_time(flops[i], iops[i], accesses[i], bytes[i], thread_cap[i], delta[i]);
            let e = enr[i];
            let total = time.total * e;
            total_time += total;
            tc += time.tc * e;
            tm += time.tm * e;
            ov += time.overlap * e;
            if block_slot[i] != NO_SLOT && time.total > 0.0 {
                let s = r * k + block_slot[i] as usize;
                target.stmt_total[s] += total;
                target.stmt_tc[s] += time.tc * e;
                target.stmt_tm[s] += time.tm * e;
                target.stmt_overlap[s] += time.overlap * e;
                target.stmt_present[s] = true;
            }

            if enabled {
                let m = &self.summaries[i].metrics;
                rec.block_cost(&BlockProvenance {
                    node: node[i],
                    stmt: (stmt_col[i] != NO_STMT).then_some(stmt_col[i]),
                    enr: e,
                    tc: time.tc,
                    tm: time.tm,
                    overlap: time.overlap,
                    delta: achieved_delta(time.tc, time.tm, time.overlap),
                    total,
                    threads: thread_cap[i].min(spec.cores).max(1.0),
                    flops: m.flops,
                    iops: m.iops,
                    loads: m.loads,
                    stores: m.stores,
                    bytes: bytes[i],
                });
            }
        }

        target.total[r] = total_time;
        target.tc[r] = tc;
        target.tm[r] = tm;
        target.overlap[r] = ov;
        target.delta[r] = achieved_delta(tc, tm, ov);
        target.memory_bound[r] = tm > tc;
        if enabled {
            rec.add("plan.blocks", self.len() as u64);
            rec.span_end(span, &[("total_time", AttrValue::F64(total_time))]);
        }
    }

    /// Columnar batch evaluation: evaluate every spec and return the dense
    /// [`ProjectionColumns`] arena — no per-point `Projection`
    /// materialization. Machines are processed in lanes of [`lane_width`];
    /// every stored value is bit-identical to the scalar evaluator.
    pub fn evaluate_columns(&self, specs: &[MachineSpec]) -> ProjectionColumns {
        let mut cols = ProjectionColumns::new(self, specs.to_vec());
        let n = cols.points();
        // fill the arena in place — no intermediate chunk buffer to
        // allocate, zero, and copy back
        let (layout, mut target) = cols.layout_and_target(0..n);
        self.fill_columns(0, &layout, &mut target);
        cols
    }

    /// Evaluate the contiguous point range `range` of a columns arena into
    /// a mergeable [`ColumnsChunk`] (install it with
    /// [`ProjectionColumns::install`]). This is the sweep scheduler's unit
    /// of work: workers share the read-only arena layout and each fills
    /// disjoint ranges.
    ///
    /// Groups of [`lane_width`] machines run through the lane-packed
    /// [`xflow_hw::SpecLanes`] loop; any lane whose machine turns out
    /// degenerate (observed block participation diverging from the
    /// prediction, e.g. underflowed or infinite times) is replayed by the
    /// scalar row loop, which is bit-exact on every machine.
    pub fn evaluate_columns_chunk(&self, cols: &ProjectionColumns, range: std::ops::Range<usize>) -> ColumnsChunk {
        let mut chunk = ColumnsChunk::new(cols, range.clone());
        let layout = cols.layout();
        let mut target = chunk.target();
        self.fill_columns(range.start, &layout, &mut target);
        chunk
    }

    /// The columnar fill engine behind [`PlanKernel::evaluate_columns`]
    /// (arena-direct) and [`PlanKernel::evaluate_columns_chunk`]
    /// (chunk-buffered): evaluates `layout.specs[start + r]` into target
    /// row `r` for the whole target.
    // lane loops are written `for w in 0..W` even where an iterator would
    // do: the fixed-width indexed form matches `lanes.rs` and is what the
    // autovectorizer reliably lowers to packed ops
    #[allow(clippy::needless_range_loop)]
    fn fill_columns(&self, start: usize, layout: &ColumnsLayout<'_>, target: &mut ColumnsTarget<'_>) {
        assert_eq!(layout.fingerprint, self.fingerprint, "columns arena built from a foreign kernel");
        let len = target.len;
        let mut rel = 0usize;

        const W: usize = LANES;
        let k = layout.slots;
        /// Per-slot lane accumulator, fused so one slot touch hits one
        /// contiguous struct instead of four scattered vectors.
        #[derive(Clone, Copy)]
        struct LaneAcc {
            total: [f64; W],
            tc: [f64; W],
            tm: [f64; W],
            ov: [f64; W],
        }
        // Lane accumulators. Never rezeroed between groups: the
        // first-touch column assigns (not adds) each slot's first
        // contribution — bit-identical because every accumulated term is
        // `≥ +0.0`, so `0.0 + x` is exactly `x` — so stale
        // lanes from the previous group are overwritten before they are
        // read. Slots outside `pre_touched` are never written nor read.
        let mut st = vec![LaneAcc { total: [0.0; W], tc: [0.0; W], tm: [0.0; W], ov: [0.0; W] }; k];
        // slot index of every predicted-participating statement —
        // writeback touches only these rows (the rest of the arena row
        // is pre-zeroed)
        let touched = &layout.maps.touched;

        let n = self.node.len();
        let stmt_col = &self.stmt[..n];
        let (flops, iops) = (&self.flops[..n], &self.iops[..n]);
        let (accesses, bytes) = (&self.accesses[..n], &self.bytes[..n]);
        let (enr, thread_cap, delta) = (&self.enr[..n], &self.thread_cap[..n], &self.delta[..n]);
        let participates = &self.stmt_participates[..n];
        let first_touch = &self.first_touch[..n];
        let block_slot = &layout.maps.block_slot[..n];

        while rel < len {
            // the tail group pads its trailing lanes with copies of the
            // window's first spec: full lane arithmetic, writeback only
            // of the `valid` real lanes — no scalar remainder loop
            let valid = (len - rel).min(W);
            let window = &layout.specs[start + rel..start + rel + valid];
            let lanes = if valid == W {
                xflow_hw::SpecLanes::<W>::pack(window)
            } else {
                let mut padded = [window[0]; W];
                padded[..valid].copy_from_slice(window);
                xflow_hw::SpecLanes::<W>::pack(&padded)
            };
            let mut acc_total = [0.0f64; W];
            let mut acc_tc = [0.0f64; W];
            let mut acc_tm = [0.0f64; W];
            let mut acc_ov = [0.0f64; W];
            let mut pred = [true; W];

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
                if stmt_col[i] != NO_STMT {
                    let p = participates[i];
                    let mut uniform = true;
                    let mut active = [false; W];
                    for w in 0..W {
                        active[w] = t.total[w] > 0.0;
                        uniform &= active[w] == p;
                    }
                    if uniform {
                        // every lane matches the prediction: one branch
                        // for the whole group, branch-free lane writes
                        if p {
                            let a = &mut st[block_slot[i] as usize];
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
                        }
                    } else {
                        // some lane diverged from the prediction
                        // (degenerate machine): fold the mismatch into
                        // `pred` and keep the surviving lanes exact
                        let a = &mut st[block_slot[i] as usize];
                        for w in 0..W {
                            pred[w] &= active[w] == p;
                            if active[w] {
                                if first_touch[i] {
                                    a.total[w] = t.total[w] * e;
                                    a.tc[w] = t.tc[w] * e;
                                    a.tm[w] = t.tm[w] * e;
                                    a.ov[w] = t.overlap[w] * e;
                                } else {
                                    a.total[w] += t.total[w] * e;
                                    a.tc[w] += t.tc[w] * e;
                                    a.tm[w] += t.tm[w] * e;
                                    a.ov[w] += t.overlap[w] * e;
                                }
                            }
                        }
                    }
                }
            }

            for w in 0..valid {
                let r = rel + w;
                if pred[w] {
                    target.total[r] = acc_total[w];
                    target.tc[r] = acc_tc[w];
                    target.tm[r] = acc_tm[w];
                    target.overlap[r] = acc_ov[w];
                    target.delta[r] = crate::columns::achieved_delta(acc_tc[w], acc_tm[w], acc_ov[w]);
                    target.memory_bound[r] = acc_tm[w] > acc_tc[w];
                    // predicted participation held: presence is the
                    // precomputed first-touch set
                    let base = r * k;
                    for &slot in touched {
                        let s = slot as usize;
                        let a = &st[s];
                        target.stmt_total[base + s] = a.total[w];
                        target.stmt_tc[base + s] = a.tc[w];
                        target.stmt_tm[base + s] = a.tm[w];
                        target.stmt_overlap[base + s] = a.ov[w];
                        target.stmt_present[base + s] = true;
                    }
                } else {
                    // degenerate lane: replay through the scalar row loop
                    self.fill_row(&layout.specs[start + r], &layout.maps.block_slot, target, r, &NoopRecorder);
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
    use xflow_hw::{bgq, generic, knl, xeon, ClassicRoofline, LibraryRegistry, PerfModel, Roofline};
    use xflow_obs::CollectingRecorder;
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
    /// so the compute-only `@pure` block lands no time — which defeats the
    /// lane fill's participation prediction.
    fn degenerate() -> xflow_hw::MachineModel {
        let mut m = generic();
        m.freq_ghz = f64::INFINITY;
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
        let specs: Vec<MachineSpec> = machines.iter().map(|m| Roofline.specialize(m).unwrap()).collect();
        let cols = kernel.evaluate_columns(&specs);
        for (i, machine) in machines.iter().enumerate() {
            assert_row_bits(&cols, i, &plan.evaluate(machine, &Roofline));
        }
    }

    #[test]
    fn fallback_path_matches_scalar_for_non_specializing_models() {
        // a model without a spec has no kernel path: the plan's scalar
        // evaluator is its only route, and it matches the single-pass
        // reference bit for bit
        let bet = bet_for(SRC);
        let libs = LibraryRegistry::with_defaults();
        let plan = ProjectionPlan::new(&bet, &libs);
        for machine in [bgq(), generic()] {
            assert!(ClassicRoofline.specialize(&machine).is_none());
            let reference = crate::reference::project_single_pass(&bet, &machine, &ClassicRoofline, &libs);
            let scalar = plan.evaluate(&machine, &ClassicRoofline);
            assert_eq!(scalar.total_time.to_bits(), reference.total_time.to_bits());
            for (stmt, sc) in reference.per_stmt.iter() {
                assert_eq!(scalar.per_stmt[&stmt].total.to_bits(), sc.total.to_bits());
            }
        }
    }

    #[test]
    fn observed_row_fill_provenance_matches_scalar_observed() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let machines = [bgq(), degenerate()];
        let cols = ProjectionColumns::new(&kernel, machines.iter().map(MachineSpec::resolve).collect());
        for (i, machine) in machines.iter().enumerate() {
            let rec_scalar = CollectingRecorder::new();
            let scalar = plan.evaluate_observed(machine, &Roofline, &rec_scalar);
            let rec_kernel = CollectingRecorder::new();
            let mut chunk = ColumnsChunk::new(&cols, i..i + 1);
            chunk.fill_point(&kernel, &cols, i, &rec_kernel);
            assert_eq!(chunk.total(0).to_bits(), scalar.total_time.to_bits());

            let a = rec_scalar.block_provenance();
            let b = rec_kernel.block_provenance();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!((x.node, x.stmt), (y.node, y.stmt));
                for (u, v) in [
                    (x.enr, y.enr),
                    (x.total, y.total),
                    (x.tc, y.tc),
                    (x.tm, y.tm),
                    (x.overlap, y.overlap),
                    (x.delta, y.delta),
                    (x.threads, y.threads),
                    (x.flops, y.flops),
                    (x.iops, y.iops),
                    (x.loads, y.loads),
                    (x.stores, y.stores),
                    (x.bytes, y.bytes),
                ] {
                    assert_eq!(u.to_bits(), v.to_bits(), "node {} on {}", x.node, machine.name);
                }
            }
            assert_eq!(rec_kernel.counter_value("plan.blocks"), kernel.len() as u64);
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
    fn degenerate_machine_takes_the_replay_path_and_stays_exact() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        // the infinite-frequency lane fails the participation prediction
        // and is replayed by the scalar row loop — inside a full lane
        // group on purpose
        let machines = [bgq(), degenerate(), xeon(), knl(), degenerate()];
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        for (i, machine) in machines.iter().enumerate() {
            assert_row_bits(&cols, i, &plan.evaluate(machine, &Roofline));
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
