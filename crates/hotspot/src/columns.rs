//! Columnar (structure-of-arrays) sweep output.
//!
//! A design-space sweep never materializes a per-point [`crate::Projection`]
//! (a `node_costs` vector plus a per-statement table per machine).
//! [`ProjectionColumns`] holds one arena per sweep with, for every point,
//! the total time, the block-level Tc/Tm/To aggregates, the achieved
//! overlap fraction δ, the compute-vs-memory verdict, and a dense
//! per-(point × statement) cost matrix. Nothing is heap-allocated per
//! point. A caller that needs the full projection of one point evaluates
//! the plan on that machine ([`crate::ProjectionPlan::evaluate`]).
//!
//! The arena is two allocations: one `f64` buffer holding the five
//! per-point columns followed by the four row-major `[point][slot]`
//! statement matrices, and one `bool` buffer holding the verdict column
//! and the presence matrix. The statement-slot maps (`SlotLayout`)
//! depend only on the kernel, so they are computed once per kernel and
//! shared into every arena by reference count.
//!
//! Filling is chunked so the work-stealing sweep scheduler can evaluate
//! disjoint point ranges concurrently: workers produce [`ColumnsChunk`]
//! buffers via [`crate::PlanKernel::evaluate_columns_chunk`] (a whole
//! range) or [`ColumnsChunk::fill_point`] (one traced point at a time),
//! both through the kernel's lane fill, and the merged arena installs them
//! in index order, keeping the output independent of scheduling.

use std::sync::Arc;

use xflow_hw::MachineSpec;
use xflow_obs::{AttrValue, Recorder, SpanId};
use xflow_skeleton::StmtId;

use crate::kernel::{LaneAcc, PlanKernel};

/// Sentinel slot index for "block aggregates into no statement".
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Statement-slot maps of one kernel: which statements carry cost blocks,
/// their dense column order, and per-block slot targets. Depends only on
/// the plan's block statements, so it is built once per kernel
/// (`PlanKernel::slot_layout`) and shared by every arena.
#[derive(Debug, Default)]
pub(crate) struct SlotLayout {
    /// Statement IDs with at least one cost block, ascending — the column
    /// slots of the dense per-point statement matrix.
    pub(crate) slots: Vec<u32>,
    /// Kernel block index → slot index ([`NO_SLOT`] for blocks that
    /// aggregate into no statement).
    pub(crate) block_slot: Vec<u32>,
}

impl SlotLayout {
    /// Build the maps from the statement each plan block aggregates into.
    pub(crate) fn build(block_stmts: &[Option<u32>], stmt_bound: usize) -> Self {
        let mut slot_of = vec![NO_SLOT; stmt_bound];
        let mut slots: Vec<u32> = block_stmts.iter().flatten().copied().collect();
        slots.sort_unstable();
        slots.dedup();
        for (idx, &stmt) in slots.iter().enumerate() {
            slot_of[stmt as usize] = idx as u32;
        }
        let block_slot = block_stmts.iter().map(|s| s.map_or(NO_SLOT, |s| slot_of[s as usize])).collect();
        Self { slots, block_slot }
    }
}

/// One statement-slot entry of a point's dense cost row.
#[derive(Debug, Clone, Copy)]
pub struct SlotCost {
    /// Column slot index: the statement's position among the arena's
    /// cost-carrying statements, ascending by id.
    pub slot: usize,
    /// The statement this slot aggregates.
    pub stmt: StmtId,
    /// Total projected seconds.
    pub total: f64,
    /// ENR-weighted computation seconds.
    pub tc: f64,
    /// ENR-weighted memory seconds.
    pub tm: f64,
    /// ENR-weighted overlapped seconds.
    pub overlap: f64,
}

/// Dense per-point sweep results in structure-of-arrays layout.
///
/// Built zeroed by [`ProjectionColumns::new`] from the kernel whose plan
/// the sweep evaluates, then filled by
/// [`crate::PlanKernel::evaluate_columns`] (serial) or by installing
/// per-range [`ColumnsChunk`]s (parallel). Every stored value is
/// bit-identical to what the scalar evaluator produces for that point —
/// the per-statement rows match [`crate::ProjectionPlan::evaluate`]'s
/// `per_stmt` table and the totals match its `total_time`, `to_bits` for
/// `to_bits`.
#[derive(Debug, Clone)]
pub struct ProjectionColumns {
    /// Shared slot maps of the kernel the arena was built from.
    layout: Arc<SlotLayout>,
    /// Number of points (== `specs.len()`).
    n: usize,
    /// `[total n][tc n][tm n][overlap n][delta n]` followed by the four
    /// row-major `[point][slot]` statement matrices
    /// `[stmt_total nk][stmt_tc nk][stmt_tm nk][stmt_overlap nk]`.
    data: Vec<f64>,
    /// `[memory_bound n][stmt_present nk]`.
    flags: Vec<bool>,
    /// The machine spec of every point, in point order.
    specs: Vec<MachineSpec>,
    /// Fingerprint of the kernel the layout was built from; every fill
    /// checks it so a columns arena is never mixed with a foreign kernel.
    fingerprint: u64,
}

/// The order sweep rankings sort projected totals by: ascending, NaN
/// last (NaNs tie). A total order, so a degenerate point cannot break the
/// sort. Plain [`f64::total_cmp`] would not do: a NaN with its sign bit
/// set (x86's default NaN) orders before every number and would rank
/// first. Numbers keep the `partial_cmp` fast path.
pub fn rank_order(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

impl ProjectionColumns {
    /// Zeroed arena for evaluating `specs` against `kernel`'s plan.
    pub fn new(kernel: &PlanKernel, specs: Vec<MachineSpec>) -> Self {
        let layout = Arc::clone(&kernel.slot_layout);
        let n = specs.len();
        let k = layout.slots.len();
        Self {
            layout,
            n,
            data: vec![0.0; n * 5 + n * k * 4],
            flags: vec![false; n + n * k],
            specs,
            fingerprint: kernel.fingerprint(),
        }
    }

    /// Number of sweep points.
    pub fn points(&self) -> usize {
        self.n
    }

    /// True when the arena holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of statement slots per point row.
    pub fn slot_count(&self) -> usize {
        self.layout.slots.len()
    }

    /// The machine specs, in point order.
    pub fn specs(&self) -> &[MachineSpec] {
        &self.specs
    }

    /// Total projected seconds per point, as a dense column.
    pub fn totals(&self) -> &[f64] {
        &self.data[..self.n]
    }

    /// Total projected seconds of one point (bit-identical to the scalar
    /// projection's `total_time`).
    pub fn total(&self, i: usize) -> f64 {
        self.data[i]
    }

    /// Block-level `(Tc, Tm, To)` aggregates of one point.
    pub fn block_totals(&self, i: usize) -> (f64, f64, f64) {
        let n = self.n;
        (self.data[n + i], self.data[2 * n + i], self.data[3 * n + i])
    }

    /// Achieved overlap fraction `To / min(Tc, Tm)` of one point.
    pub fn delta(&self, i: usize) -> f64 {
        self.data[4 * self.n + i]
    }

    /// Whether a point is memory-bound at the block-aggregate level.
    pub fn memory_bound(&self, i: usize) -> bool {
        self.flags[i]
    }

    /// One statement matrix (`m` = 0 total, 1 tc, 2 tm, 3 overlap).
    fn stmt_matrix(&self, m: usize) -> &[f64] {
        let nk = self.n * self.slot_count();
        let base = self.n * 5 + m * nk;
        &self.data[base..base + nk]
    }

    /// Iterate the present statement slots of one point row.
    pub fn stmt_row(&self, i: usize) -> impl Iterator<Item = SlotCost> + '_ {
        let k = self.slot_count();
        let base = i * k;
        let present = &self.flags[self.n + base..self.n + base + k];
        (0..k).filter(move |&s| present[s]).map(move |s| SlotCost {
            slot: s,
            stmt: StmtId(self.layout.slots[s]),
            total: self.stmt_matrix(0)[base + s],
            tc: self.stmt_matrix(1)[base + s],
            tm: self.stmt_matrix(2)[base + s],
            overlap: self.stmt_matrix(3)[base + s],
        })
    }

    /// Point indices ranked by ascending total time (NaN last, ties keep
    /// point order), truncated to `k` — the sweep's top-k without
    /// evaluating any projection. Only the `k` picked points are sorted.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let totals = self.totals();
        let order = |a: &usize, b: &usize| rank_order(totals[*a], totals[*b]).then(a.cmp(b));
        let mut idx: Vec<usize> = (0..self.points()).collect();
        if k < idx.len() {
            idx.select_nth_unstable_by(k, order);
            idx.truncate(k);
        }
        idx.sort_unstable_by(order);
        idx
    }

    /// Kernel fingerprint the layout was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Install an evaluated chunk at its point range.
    pub fn install(&mut self, chunk: ColumnsChunk) {
        let k = self.slot_count();
        assert_eq!(chunk.slots, k, "chunk layout mismatch");
        assert!(chunk.start + chunk.len <= self.points(), "chunk range out of bounds");
        let (n, len) = (self.n, chunk.len);
        let (a, b) = (chunk.start, chunk.start + chunk.len);
        for m in 0..5 {
            self.data[m * n + a..m * n + b].copy_from_slice(&chunk.data[m * len..(m + 1) * len]);
        }
        let nk = n * k;
        let lk = len * k;
        for m in 0..4 {
            self.data[5 * n + m * nk + a * k..5 * n + m * nk + b * k]
                .copy_from_slice(&chunk.data[5 * len + m * lk..5 * len + (m + 1) * lk]);
        }
        self.flags[a..b].copy_from_slice(&chunk.flags[..len]);
        self.flags[n + a * k..n + b * k].copy_from_slice(&chunk.flags[len..]);
    }

    /// Split the arena into its read-only layout and a mutable fill
    /// target over `range` — the direct (serial) fill path, which writes
    /// results in place with no intermediate chunk buffer.
    pub(crate) fn layout_and_target(
        &mut self,
        range: std::ops::Range<usize>,
    ) -> (ColumnsLayout<'_>, ColumnsTarget<'_>) {
        let k = self.layout.slots.len();
        let layout = ColumnsLayout { maps: &self.layout, specs: &self.specs, fingerprint: self.fingerprint, slots: k };
        let target = split_target(&mut self.data, &mut self.flags, self.n, k, range.start, range.end);
        (layout, target)
    }

    /// The read-only layout view shared by parallel chunk fills.
    pub(crate) fn layout(&self) -> ColumnsLayout<'_> {
        ColumnsLayout {
            maps: &self.layout,
            specs: &self.specs,
            fingerprint: self.fingerprint,
            slots: self.layout.slots.len(),
        }
    }
}

/// Carve a [`ColumnsTarget`] over rows `a..b` out of consolidated arena
/// (or chunk) buffers laid out as documented on
/// [`ProjectionColumns::data`], where `n` is the buffer's total row count.
fn split_target<'a>(
    data: &'a mut [f64],
    flags: &'a mut [bool],
    n: usize,
    k: usize,
    a: usize,
    b: usize,
) -> ColumnsTarget<'a> {
    let (total, rest) = data.split_at_mut(n);
    let (tc, rest) = rest.split_at_mut(n);
    let (tm, rest) = rest.split_at_mut(n);
    let (overlap, rest) = rest.split_at_mut(n);
    let (delta, rest) = rest.split_at_mut(n);
    let nk = n * k;
    let (stmt_total, rest) = rest.split_at_mut(nk);
    let (stmt_tc, rest) = rest.split_at_mut(nk);
    let (stmt_tm, stmt_overlap) = rest.split_at_mut(nk);
    let (memory_bound, stmt_present) = flags.split_at_mut(n);
    ColumnsTarget {
        total: &mut total[a..b],
        tc: &mut tc[a..b],
        tm: &mut tm[a..b],
        overlap: &mut overlap[a..b],
        delta: &mut delta[a..b],
        memory_bound: &mut memory_bound[a..b],
        stmt_total: &mut stmt_total[a * k..b * k],
        stmt_tc: &mut stmt_tc[a * k..b * k],
        stmt_tm: &mut stmt_tm[a * k..b * k],
        stmt_overlap: &mut stmt_overlap[a * k..b * k],
        stmt_present: &mut stmt_present[a * k..b * k],
    }
}

/// An evaluated contiguous range of sweep points, produced by
/// [`crate::PlanKernel::evaluate_columns_chunk`] and merged into the
/// arena with [`ProjectionColumns::install`]. Carries the same columns as
/// the arena (consolidated buffers), relative to its own range.
#[derive(Debug, Clone)]
pub struct ColumnsChunk {
    pub(crate) start: usize,
    pub(crate) len: usize,
    pub(crate) slots: usize,
    /// Same section order as [`ProjectionColumns::data`], sized by `len`.
    pub(crate) data: Vec<f64>,
    /// Same section order as [`ProjectionColumns::flags`], sized by `len`.
    pub(crate) flags: Vec<bool>,
    /// Per-slot accumulators of the one-lane fill behind
    /// [`ColumnsChunk::fill_point`], built on its first call, so filling
    /// the chunk one point at a time allocates once.
    acc: Vec<LaneAcc<1>>,
}

impl ColumnsChunk {
    /// Zeroed chunk for the point range `range` of `cols`.
    pub fn new(cols: &ProjectionColumns, range: std::ops::Range<usize>) -> Self {
        let (len, slots) = (range.len(), cols.slot_count());
        Self {
            start: range.start,
            len,
            slots,
            data: vec![0.0; len * 5 + len * slots * 4],
            flags: vec![false; len + len * slots],
            acc: Vec::new(),
        }
    }

    /// Evaluate point `i` of `cols` (inside this chunk's range) on
    /// `kernel`, the kernel `cols` was built from, as a one-lane group of
    /// the lane fill — the route for rows filled one at a time under a
    /// telemetry recorder. When `rec` is enabled the point emits a
    /// `kernel.evaluate` span and the `plan.blocks` counter
    /// [`crate::ProjectionPlan::evaluate_observed`] also bumps.
    pub fn fill_point<R: Recorder + ?Sized>(
        &mut self,
        kernel: &PlanKernel,
        cols: &ProjectionColumns,
        i: usize,
        rec: &R,
    ) {
        assert_eq!(kernel.fingerprint(), cols.fingerprint, "columns arena filled by a foreign kernel");
        assert!((self.start..self.start + self.len).contains(&i), "point {i} outside the chunk");
        let enabled = rec.enabled();
        let span = if enabled {
            rec.span_start("kernel.evaluate", &[("blocks", AttrValue::U64(kernel.len() as u64))])
        } else {
            SpanId::NONE
        };
        let r = i - self.start;
        if self.acc.len() != self.slots {
            self.acc = vec![LaneAcc::default(); self.slots];
        }
        let target = &mut split_target(&mut self.data, &mut self.flags, self.len, self.slots, 0, self.len);
        kernel.fill_columns(self.start, &cols.layout(), target, r..r + 1, &mut self.acc);
        if enabled {
            rec.add("plan.blocks", kernel.len() as u64);
            rec.span_end(span, &[("total_time", AttrValue::F64(self.total(r)))]);
        }
    }

    /// First point index of the range this chunk covers.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of points in the chunk.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chunk covers no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total projected seconds of chunk-relative row `r`.
    pub fn total(&self, r: usize) -> f64 {
        self.data[r]
    }

    /// Block-level `(Tc, Tm, To)` aggregates of chunk-relative row `r`.
    pub fn block_totals(&self, r: usize) -> (f64, f64, f64) {
        let len = self.len;
        (self.data[len + r], self.data[2 * len + r], self.data[3 * len + r])
    }

    /// Iterate the present statement slots of chunk-relative row `r`.
    pub fn stmt_row<'a>(&'a self, r: usize, cols: &'a ProjectionColumns) -> impl Iterator<Item = SlotCost> + 'a {
        let k = self.slots;
        let lk = self.len * k;
        let base = r * k;
        let mat = move |m: usize| &self.data[5 * self.len + m * lk..5 * self.len + (m + 1) * lk];
        let present = &self.flags[self.len + base..self.len + base + k];
        (0..k).filter(move |&s| present[s]).map(move |s| SlotCost {
            slot: s,
            stmt: StmtId(cols.layout.slots[s]),
            total: mat(0)[base + s],
            tc: mat(1)[base + s],
            tm: mat(2)[base + s],
            overlap: mat(3)[base + s],
        })
    }

    /// Mutable fill target over the chunk's whole (relative) range — the
    /// parallel workers' fill path.
    pub(crate) fn target(&mut self) -> ColumnsTarget<'_> {
        split_target(&mut self.data, &mut self.flags, self.len, self.slots, 0, self.len)
    }
}

/// Read-only arena layout shared by every fill: slot maps, specs, and the
/// kernel fingerprint the layout was derived from.
pub(crate) struct ColumnsLayout<'a> {
    pub(crate) maps: &'a SlotLayout,
    pub(crate) specs: &'a [MachineSpec],
    pub(crate) fingerprint: u64,
    pub(crate) slots: usize,
}

/// Mutable column slices a fill writes into — either a range of the arena
/// directly (serial path) or a [`ColumnsChunk`]'s buffers (parallel
/// path). Rows are relative to the target's own range.
pub(crate) struct ColumnsTarget<'a> {
    pub(crate) total: &'a mut [f64],
    pub(crate) tc: &'a mut [f64],
    pub(crate) tm: &'a mut [f64],
    pub(crate) overlap: &'a mut [f64],
    pub(crate) delta: &'a mut [f64],
    pub(crate) memory_bound: &'a mut [bool],
    pub(crate) stmt_total: &'a mut [f64],
    pub(crate) stmt_tc: &'a mut [f64],
    pub(crate) stmt_tm: &'a mut [f64],
    pub(crate) stmt_overlap: &'a mut [f64],
    pub(crate) stmt_present: &'a mut [bool],
}

/// Achieved overlap fraction of a point: `To / min(Tc, Tm)`, 0 when the
/// floor carries no time.
pub(crate) fn achieved_delta(tc: f64, tm: f64, overlap: f64) -> f64 {
    let floor = tc.min(tm);
    if floor > 0.0 {
        overlap / floor
    } else {
        0.0
    }
}
