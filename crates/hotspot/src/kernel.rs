//! Batched structure-of-arrays evaluation kernel (phase 2, fast path).
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
//! [`Scratch`] holds the `node_costs`/`StmtCosts` output buffers between
//! evaluations: the warm path performs zero allocations per point, which
//! is where the remaining per-point cost of a sweep lives once the plan is
//! cached.
//!
//! Bit-identity contract: [`PlanKernel::evaluate_spec_into`] accumulates in
//! exactly the order of [`crate::ProjectionPlan::evaluate`], with each
//! block time computed by [`MachineSpec::block_time`] (itself bit-identical
//! to `Roofline.project_block`), so every `f64` of the resulting
//! [`Projection`] matches the scalar path to the bit. Models that cannot
//! specialize have no kernel path; they evaluate through
//! [`ProjectionPlan::evaluate`].

use serde::{Deserialize, Serialize};
use xflow_hw::{BlockMetrics, BlockSummary, MachineSpec};
use xflow_obs::{AttrValue, BlockProvenance, NoopRecorder, Recorder, SpanId};
use xflow_skeleton::StmtId;

use crate::analysis::{NodeCost, Projection, StmtCosts};
use crate::columns::{ColumnsChunk, ProjectionColumns};
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
/// evaluated per machine via [`PlanKernel::evaluate_spec_into`] or per
/// batch via [`PlanKernel::evaluate_columns`].
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
    /// touched by the fast loop).
    summaries: Vec<BlockSummary>,
    /// Metrics charged to the statement aggregate (cold).
    stmt_metrics: Vec<BlockMetrics>,
    /// Predicted statement participation per block: `flops > 0 ∨ iops > 0 ∨
    /// accesses > 0`, which is `time.total > 0` on every non-degenerate
    /// machine. Lets the per-statement *metrics* aggregation — machine-
    /// independent, and the only division left in the hot loop (the
    /// `elem_bytes` blend in [`BlockMetrics::add_scaled`]) — be precomputed
    /// into [`PlanKernel::pre_stmt_metrics`] at build time. The runtime
    /// loop just checks the prediction; a mismatch (underflow, infinite
    /// frequency, …) takes a bit-exact sequential fallback pass.
    stmt_participates: Vec<bool>,
    /// Per-statement metrics totals under the predicted participation set,
    /// produced by the exact `add_scaled` call sequence the scalar
    /// evaluator performs — copying an entry is bit-identical to having
    /// accumulated it. Dense, indexed by statement ID.
    pre_stmt_metrics: Vec<BlockMetrics>,
    /// Whether each block is the first (in plan order) predicted-active
    /// block of its statement. First-touch blocks *assign* the statement's
    /// time fields instead of accumulating — bit-identical because every
    /// accumulated term is `≥ +0.0`, so `0.0 + x` is exactly `x` — which
    /// lets a warm adopted scratch skip clearing entirely.
    first_touch: Vec<bool>,
    /// Statement IDs in first-touch order: the presence bookkeeping the
    /// hot loop's writes produce when the prediction holds, installed
    /// wholesale into the scratch after its first adopted evaluation.
    pre_touched: Vec<u32>,
    /// ENR of every BET node, for sizing/seeding `node_costs`.
    node_enr: Vec<f64>,
    /// Upper bound on statement IDs.
    stmt_bound: usize,
    /// Library functions with no registered mix, in first-seen order.
    unknown_libs: Vec<String>,
    /// Content fingerprint of the columns; a [`Scratch`] primed for one
    /// kernel is recognized as warm only for the same fingerprint.
    fingerprint: u64,
    /// Statement-slot maps for columnar arenas, derived from `stmt` on
    /// first use and shared into every [`ProjectionColumns`] by reference
    /// count (not serialized — rebuilt lazily after deserialization).
    slot_layout: std::sync::OnceLock<std::sync::Arc<crate::columns::SlotLayout>>,
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
            stmt_metrics: Vec::with_capacity(n),
            stmt_participates: Vec::with_capacity(n),
            pre_stmt_metrics: vec![BlockMetrics::default(); plan.stmt_bound()],
            first_touch: Vec::with_capacity(n),
            pre_touched: Vec::new(),
            node_enr: plan.enr().to_vec(),
            stmt_bound: plan.stmt_bound(),
            unknown_libs: plan.unknown_libs().to_vec(),
            fingerprint: 0,
            slot_layout: std::sync::OnceLock::new(),
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
            kernel.stmt_metrics.push(block.stmt_metrics);
        }
        // Precompute the per-statement metrics aggregation under predicted
        // participation, with the exact call sequence the runtime performs,
        // plus the first-touch flags and final presence set of that
        // participation (what the hot loop's writes produce when the
        // prediction holds).
        for i in 0..kernel.node.len() {
            let p = kernel.flops[i] > 0.0 || kernel.iops[i] > 0.0 || kernel.accesses[i] > 0.0;
            kernel.stmt_participates.push(p);
            let stmt = kernel.stmt[i];
            let mut first = false;
            if stmt != NO_STMT && p {
                kernel.pre_stmt_metrics[stmt as usize].add_scaled(&kernel.stmt_metrics[i], kernel.enr[i]);
                if !kernel.pre_touched.contains(&stmt) {
                    kernel.pre_touched.push(stmt);
                    first = true;
                }
            }
            kernel.first_touch.push(first);
        }
        kernel.fingerprint = kernel.content_fingerprint();
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

    /// Content fingerprint of the columns (ties a [`Scratch`] to a kernel).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The statement-slot maps for columnar arenas, built once per kernel
    /// and shared by reference count.
    pub(crate) fn slot_layout(&self) -> &std::sync::Arc<crate::columns::SlotLayout> {
        self.slot_layout.get_or_init(|| {
            std::sync::Arc::new(crate::columns::SlotLayout::build(&self.stmt, self.stmt_bound, &self.pre_touched))
        })
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
        eat(&(self.node_enr.len() as u64).to_le_bytes());
        for &v in &self.node_enr {
            eat(&v.to_bits().to_le_bytes());
        }
        eat(&(self.stmt_bound as u64).to_le_bytes());
        for name in &self.unknown_libs {
            eat(name.as_bytes());
            eat(&[0xff]);
        }
        h
    }

    /// Fresh (cold) output buffers for this kernel. The first evaluation
    /// allocates them; every later evaluation through the same scratch is
    /// allocation-free.
    pub fn make_scratch(&self) -> Scratch {
        Scratch {
            node_costs: Vec::new(),
            per_stmt: StmtCosts::default(),
            total_time: 0.0,
            fingerprint: 0,
            stmt_adopted: false,
        }
    }

    /// Reset a scratch for one evaluation. Returns `true` on the warm path
    /// (buffers reused in place, no allocation).
    ///
    /// Warm correctness: every cost-block slot of `node_costs` is
    /// overwritten by assignment each evaluation, and structural slots hold
    /// machine-independent values (zero cost, node ENR) that never change.
    /// The per-statement table is *not* cleared here — the caller decides
    /// between the adopted fast path (first-touch assignment, nothing to
    /// clear) and an explicit clear.
    fn prime(&self, scratch: &mut Scratch) -> bool {
        if scratch.fingerprint == self.fingerprint && scratch.node_costs.len() == self.node_enr.len() {
            scratch.total_time = 0.0;
            true
        } else {
            scratch.node_costs.clear();
            scratch.node_costs.extend(self.node_enr.iter().map(|&e| NodeCost {
                per_invocation: Default::default(),
                enr: e,
                total: 0.0,
            }));
            scratch.per_stmt = StmtCosts::with_stmt_capacity(self.stmt_bound);
            scratch.total_time = 0.0;
            scratch.fingerprint = self.fingerprint;
            scratch.stmt_adopted = false;
            false
        }
    }

    /// Evaluate on one pre-resolved machine, reusing `scratch`'s buffers.
    /// Returns `true` when the scratch was warm (reused without
    /// allocation). Results are bit-identical to
    /// [`ProjectionPlan::evaluate`] with the model the spec came from.
    pub fn evaluate_spec_into(&self, spec: &MachineSpec, scratch: &mut Scratch) -> bool {
        self.evaluate_spec_observed_into(spec, scratch, &NoopRecorder)
    }

    /// [`PlanKernel::evaluate_spec_into`] under a telemetry recorder: when
    /// enabled, emits the same per-block [`BlockProvenance`] stream,
    /// `plan.blocks` counter, and span shape as
    /// [`ProjectionPlan::evaluate_observed`] (span name `kernel.evaluate`),
    /// so collected block-cost multisets are independent of which
    /// evaluation path ran.
    pub fn evaluate_spec_observed_into<R: Recorder + ?Sized>(
        &self,
        spec: &MachineSpec,
        scratch: &mut Scratch,
        rec: &R,
    ) -> bool {
        let enabled = rec.enabled();
        let span = if enabled {
            rec.span_start("kernel.evaluate", &[("blocks", AttrValue::U64(self.len() as u64))])
        } else {
            SpanId::NONE
        };
        let warm = self.prime(scratch);
        // adopted: this scratch's per-statement presence set and metrics
        // were installed by a previous predicted evaluation of this same
        // kernel — time fields are fully overwritten below (first-touch
        // assignment), so nothing needs clearing
        let adopted = warm && scratch.stmt_adopted;
        if !adopted {
            scratch.per_stmt.clear();
        }
        let mut total_time = 0.0;

        // hoist length-proven slices so the hot loop indexes without bounds
        // checks — on small plans the checks cost more than the arithmetic
        let n = self.node.len();
        let (node, stmt_col) = (&self.node[..n], &self.stmt[..n]);
        let (flops, iops) = (&self.flops[..n], &self.iops[..n]);
        let (accesses, bytes) = (&self.accesses[..n], &self.bytes[..n]);
        let (enr, thread_cap, delta) = (&self.enr[..n], &self.thread_cap[..n], &self.delta[..n]);
        let participates = &self.stmt_participates[..n];
        let first_touch = &self.first_touch[..n];
        // true while every block's actual `total > 0` matches the predicted
        // participation — the precomputed per-statement presence set and
        // metrics then apply
        let mut predicted = true;

        for i in 0..n {
            let time = spec.block_time(flops[i], iops[i], accesses[i], bytes[i], thread_cap[i], delta[i]);
            let e = enr[i];
            let total = time.total * e;
            total_time += total;
            scratch.node_costs[node[i] as usize] = NodeCost { per_invocation: time, enr: e, total };

            let stmt = stmt_col[i];
            if stmt != NO_STMT {
                let active = time.total > 0.0;
                predicted &= active == participates[i];
                if active {
                    // time fields only; presence bookkeeping and the
                    // machine-independent metrics are resolved after the
                    // loop (or already in place on an adopted scratch)
                    let s = scratch.per_stmt.slot_mut(stmt);
                    if first_touch[i] {
                        s.total = total;
                        s.tc = time.tc * e;
                        s.tm = time.tm * e;
                        s.overlap = time.overlap * e;
                    } else {
                        s.total += total;
                        s.tc += time.tc * e;
                        s.tm += time.tm * e;
                        s.overlap += time.overlap * e;
                    }
                }
            }

            if enabled {
                let floor = time.tc.min(time.tm);
                let delta = if floor > 0.0 { time.overlap / floor } else { 0.0 };
                let m = &self.summaries[i].metrics;
                rec.block_cost(&BlockProvenance {
                    node: node[i],
                    stmt: (stmt != NO_STMT).then_some(stmt),
                    enr: e,
                    tc: time.tc,
                    tm: time.tm,
                    overlap: time.overlap,
                    delta,
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

        if predicted {
            if !adopted {
                // every participating statement got exactly the blocks the
                // precomputation assumed: install the precomputed presence
                // set and metrics (same add_scaled sequence, run once at
                // build time). Later warm evaluations skip all of this.
                scratch.per_stmt.adopt(&self.pre_touched);
                scratch.per_stmt.set_metrics_from(&self.pre_stmt_metrics);
                scratch.stmt_adopted = true;
            }
        } else {
            // degenerate machine (underflowed or infinite block times):
            // wipe the hot loop's unbookkept writes and replay the scalar
            // evaluator's sequential aggregation, reading each block's
            // actual time back from the node costs
            scratch.per_stmt.wipe();
            for i in 0..n {
                let stmt = stmt_col[i];
                if stmt == NO_STMT {
                    continue;
                }
                let pi = scratch.node_costs[node[i] as usize];
                if pi.per_invocation.total > 0.0 {
                    let e = enr[i];
                    let s = scratch.per_stmt.entry_mut(StmtId(stmt));
                    s.total += pi.total;
                    s.tc += pi.per_invocation.tc * e;
                    s.tm += pi.per_invocation.tm * e;
                    s.overlap += pi.per_invocation.overlap * e;
                    s.metrics.add_scaled(&self.stmt_metrics[i], e);
                }
            }
            scratch.stmt_adopted = false;
        }

        scratch.total_time = total_time;
        if enabled {
            rec.add("plan.blocks", self.len() as u64);
            rec.span_end(span, &[("total_time", AttrValue::F64(total_time))]);
        }
        warm
    }

    /// Columnar batch evaluation: evaluate every spec and return the dense
    /// [`ProjectionColumns`] arena — no per-point `Projection`
    /// materialization. Machines are processed in lanes of [`lane_width`];
    /// every stored value is bit-identical to the scalar evaluator.
    pub fn evaluate_columns(&self, specs: &[MachineSpec]) -> ProjectionColumns {
        let mut cols = ProjectionColumns::new(self, specs.to_vec());
        let mut scratch = self.make_scratch();
        let n = cols.points();
        // fill the arena in place — no intermediate chunk buffer to
        // allocate, zero, and copy back
        let (layout, mut target) = cols.layout_and_target(0..n);
        self.fill_columns(0, &layout, &mut target, &mut scratch);
        cols
    }

    /// Evaluate the contiguous point range `range` of a columns arena into
    /// a mergeable [`ColumnsChunk`] (install it with
    /// [`ProjectionColumns::install`]). This is the sweep scheduler's unit
    /// of work: workers share the read-only arena layout and each fills
    /// disjoint ranges with a private scratch.
    ///
    /// Groups of [`lane_width`] machines run through the lane-packed
    /// [`xflow_hw::SpecLanes`] loop; any lane whose machine turns out
    /// degenerate (observed block participation diverging from the
    /// prediction, e.g. underflowed or infinite times) replays through the
    /// scalar [`PlanKernel::evaluate_spec_into`] path, which is the
    /// bit-exact oracle by construction.
    pub fn evaluate_columns_chunk(
        &self,
        cols: &ProjectionColumns,
        range: std::ops::Range<usize>,
        scratch: &mut Scratch,
    ) -> ColumnsChunk {
        let mut chunk = ColumnsChunk::new(cols, range.clone());
        let layout = cols.layout();
        let mut target = chunk.target();
        self.fill_columns(range.start, &layout, &mut target, scratch);
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
    fn fill_columns(
        &self,
        start: usize,
        layout: &crate::columns::ColumnsLayout<'_>,
        target: &mut crate::columns::ColumnsTarget<'_>,
        scratch: &mut Scratch,
    ) {
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
        // contribution, exactly like the scalar fast path, so stale
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
            // of the `valid` real lanes — no scalar remainder loop, so
            // the scratch stays cold unless a lane is degenerate
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
                    // precomputed set, same as the scalar fast path
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
                    // degenerate lane: replay through the scalar oracle
                    self.evaluate_spec_into(&layout.specs[start + r], scratch);
                    target.fill_from_scratch(r, &layout.maps.slot_of, scratch);
                }
            }
            rel += valid;
        }
    }
}

/// Hand-written serde impls (the vendored derive has no `#[serde(skip)]`):
/// the wire shape is exactly what the derive produced before the lazily
/// built `slot_layout` cache existed — every persisted field, by name —
/// and deserialization leaves the cache empty to be rebuilt on first use.
macro_rules! kernel_persisted_fields {
    ($m:ident) => {
        $m!(
            node,
            stmt,
            flops,
            iops,
            accesses,
            bytes,
            enr,
            thread_cap,
            delta,
            summaries,
            stmt_metrics,
            stmt_participates,
            pre_stmt_metrics,
            first_touch,
            pre_touched,
            node_enr,
            stmt_bound,
            unknown_libs,
            fingerprint
        )
    };
}

impl Serialize for PlanKernel {
    fn serialize(&self) -> serde::Content {
        macro_rules! entries {
            ($($f:ident),*) => {
                vec![$((serde::Content::Str(stringify!($f).to_string()), Serialize::serialize(&self.$f))),*]
            };
        }
        serde::Content::Map(kernel_persisted_fields!(entries))
    }
}

impl Deserialize for PlanKernel {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        match content {
            serde::Content::Map(entries) => {
                macro_rules! build {
                    ($($f:ident),*) => {
                        Ok(Self {
                            $($f: serde::field(entries, stringify!($f))?,)*
                            slot_layout: std::sync::OnceLock::new(),
                        })
                    };
                }
                kernel_persisted_fields!(build)
            }
            _ => Err(serde::Error("expected map for struct PlanKernel".to_string())),
        }
    }
}

/// Reusable output buffers for [`PlanKernel`] evaluations.
///
/// Create with [`PlanKernel::make_scratch`]; pass to the `*_into`
/// evaluation methods. A scratch is tied to the kernel that last primed it
/// (by content fingerprint) — handing it to a different kernel is safe and
/// simply takes the cold (allocating) path once.
#[derive(Debug, Clone)]
pub struct Scratch {
    node_costs: Vec<NodeCost>,
    per_stmt: StmtCosts,
    total_time: f64,
    fingerprint: u64,
    /// Whether `per_stmt`'s presence set and metrics were installed by a
    /// predicted evaluation of the owning kernel (and are thus current
    /// without clearing — time fields are overwritten via first-touch
    /// assignment each evaluation).
    stmt_adopted: bool,
}

impl Scratch {
    /// Total projected time of the last evaluation.
    pub fn total_time(&self) -> f64 {
        self.total_time
    }

    /// Per-node costs of the last evaluation, indexed by `BetNodeId.0`.
    pub fn node_costs(&self) -> &[NodeCost] {
        &self.node_costs
    }

    /// Per-statement aggregation of the last evaluation.
    pub fn per_stmt(&self) -> &StmtCosts {
        &self.per_stmt
    }

    /// Materialize the last evaluation as an owned [`Projection`]
    /// (bit-identical to what the scalar path returns).
    pub fn projection(&self, kernel: &PlanKernel) -> Projection {
        Projection {
            node_costs: self.node_costs.clone(),
            per_stmt: self.per_stmt.clone(),
            total_time: self.total_time,
            unknown_libs: kernel.unknown_libs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_bet::{build, Bet};
    use xflow_hw::{bgq, generic, knl, xeon, ClassicRoofline, LibraryRegistry, PerfModel, Roofline};
    use xflow_skeleton::expr::env_from;
    use xflow_skeleton::parse;

    const SRC: &str = r#"
func main() {
  @init: comp { flops: 10, loads: 4 }
  parloop i = 0 .. 200 {
    @kern: comp { flops: 64, loads: 16, stores: 8, bytes: 8 }
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

    fn assert_projection_bits(fast: &Projection, slow: &Projection) {
        assert_eq!(fast.total_time.to_bits(), slow.total_time.to_bits());
        assert_eq!(fast.node_costs.len(), slow.node_costs.len());
        for (f, s) in fast.node_costs.iter().zip(&slow.node_costs) {
            assert_eq!(f.total.to_bits(), s.total.to_bits());
            assert_eq!(f.enr.to_bits(), s.enr.to_bits());
            assert_eq!(f.per_invocation.tc.to_bits(), s.per_invocation.tc.to_bits());
            assert_eq!(f.per_invocation.tm.to_bits(), s.per_invocation.tm.to_bits());
            assert_eq!(f.per_invocation.overlap.to_bits(), s.per_invocation.overlap.to_bits());
            assert_eq!(f.per_invocation.total.to_bits(), s.per_invocation.total.to_bits());
        }
        assert_eq!(fast.per_stmt.len(), slow.per_stmt.len());
        for (stmt, sc) in slow.per_stmt.iter() {
            let fc = fast.per_stmt[&stmt];
            assert_eq!(fc.total.to_bits(), sc.total.to_bits());
            assert_eq!(fc.tc.to_bits(), sc.tc.to_bits());
            assert_eq!(fc.tm.to_bits(), sc.tm.to_bits());
            assert_eq!(fc.overlap.to_bits(), sc.overlap.to_bits());
            assert_eq!(fc.metrics.flops.to_bits(), sc.metrics.flops.to_bits());
            assert_eq!(fc.metrics.elem_bytes.to_bits(), sc.metrics.elem_bytes.to_bits());
        }
        assert_eq!(fast.unknown_libs, slow.unknown_libs);
    }

    #[test]
    fn kernel_evaluation_is_bit_identical_to_scalar_evaluate() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let mut scratch = kernel.make_scratch();
        for machine in [bgq(), xeon(), knl(), generic()] {
            let reference = plan.evaluate(&machine, &Roofline);
            let spec = Roofline.specialize(&machine).unwrap();
            kernel.evaluate_spec_into(&spec, &mut scratch);
            assert_projection_bits(&scratch.projection(&kernel), &reference);
        }
    }

    #[test]
    fn warm_scratch_reuse_changes_no_bits() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let mut scratch = kernel.make_scratch();
        let spec_a = Roofline.specialize(&bgq()).unwrap();
        let spec_b = Roofline.specialize(&xeon()).unwrap();
        assert!(!kernel.evaluate_spec_into(&spec_a, &mut scratch), "first evaluation is cold");
        assert!(kernel.evaluate_spec_into(&spec_b, &mut scratch), "second evaluation reuses buffers");
        // the warm result must match a fresh scalar evaluation, including
        // statements/nodes whose costs differed on the previous machine
        assert_projection_bits(&scratch.projection(&kernel), &plan.evaluate(&xeon(), &Roofline));
        assert!(kernel.evaluate_spec_into(&spec_a, &mut scratch));
        assert_projection_bits(&scratch.projection(&kernel), &plan.evaluate(&bgq(), &Roofline));
    }

    #[test]
    fn one_scratch_across_machines_matches_per_machine_evaluate() {
        // one scratch across a batch of specs, one Projection per machine
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let mut scratch = kernel.make_scratch();
        for machine in [bgq(), xeon(), knl(), generic()] {
            kernel.evaluate_spec_into(&Roofline.specialize(&machine).unwrap(), &mut scratch);
            assert_projection_bits(&scratch.projection(&kernel), &plan.evaluate(&machine, &Roofline));
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
            let reference = crate::project_single_pass(&bet, &machine, &ClassicRoofline, &libs);
            assert_projection_bits(&plan.evaluate(&machine, &ClassicRoofline), &reference);
        }
    }

    #[test]
    fn observed_kernel_provenance_matches_scalar_observed() {
        use xflow_obs::CollectingRecorder;
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let machine = bgq();
        let rec_scalar = CollectingRecorder::new();
        plan.evaluate_observed(&machine, &Roofline, &rec_scalar);
        let rec_kernel = CollectingRecorder::new();
        let mut scratch = kernel.make_scratch();
        let spec = Roofline.specialize(&machine).unwrap();
        kernel.evaluate_spec_observed_into(&spec, &mut scratch, &rec_kernel);

        let a = rec_scalar.block_provenance();
        let b = rec_kernel.block_provenance();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.stmt, y.stmt);
            assert_eq!(x.total.to_bits(), y.total.to_bits());
            assert_eq!(x.tc.to_bits(), y.tc.to_bits());
            assert_eq!(x.tm.to_bits(), y.tm.to_bits());
            assert_eq!(x.threads.to_bits(), y.threads.to_bits());
            assert_eq!(x.loads.to_bits(), y.loads.to_bits());
            assert_eq!(x.bytes.to_bits(), y.bytes.to_bits());
        }
        assert_eq!(rec_kernel.counter_value("plan.blocks"), kernel.len() as u64);
    }

    #[test]
    fn scratch_from_a_different_kernel_takes_the_cold_path() {
        let plan_a = ProjectionPlan::new(&bet_for(SRC), &LibraryRegistry::with_defaults());
        let plan_b = ProjectionPlan::new(
            &bet_for("func main() { loop i = 0 .. 10 { comp { flops: 7, loads: 2 } } }"),
            &LibraryRegistry::with_defaults(),
        );
        let (ka, kb) = (plan_a.kernel(), plan_b.kernel());
        assert_ne!(ka.fingerprint(), kb.fingerprint());
        let mut scratch = ka.make_scratch();
        let spec = Roofline.specialize(&generic()).unwrap();
        ka.evaluate_spec_into(&spec, &mut scratch);
        assert!(!kb.evaluate_spec_into(&spec, &mut scratch), "foreign scratch must re-prime");
        assert_projection_bits(&scratch.projection(&kb), &plan_b.evaluate(&generic(), &Roofline));
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
            let scalar = plan.evaluate(machine, &Roofline);
            assert_eq!(cols.total(i).to_bits(), scalar.total_time.to_bits(), "total point {i}");
            // block-level aggregates match the node-cost sums
            let (tc, tm, ov) = cols.block_totals(i);
            let (mut stc, mut stm, mut sov) = (0.0, 0.0, 0.0);
            for nc in &scalar.node_costs {
                stc += nc.per_invocation.tc * nc.enr;
                stm += nc.per_invocation.tm * nc.enr;
                sov += nc.per_invocation.overlap * nc.enr;
            }
            assert_eq!(tc.to_bits(), stc.to_bits(), "tc point {i}");
            assert_eq!(tm.to_bits(), stm.to_bits(), "tm point {i}");
            assert_eq!(ov.to_bits(), sov.to_bits(), "overlap point {i}");
            // per-statement rows mirror the scalar per-statement table
            let row: Vec<_> = cols.stmt_row(i).collect();
            assert_eq!(row.len(), scalar.per_stmt.len(), "row arity point {i}");
            for sc in row {
                let reference = scalar.per_stmt[&sc.stmt];
                assert_eq!(sc.total.to_bits(), reference.total.to_bits(), "{:?} total point {i}", sc.stmt);
                assert_eq!(sc.tc.to_bits(), reference.tc.to_bits(), "{:?} tc point {i}", sc.stmt);
                assert_eq!(sc.tm.to_bits(), reference.tm.to_bits(), "{:?} tm point {i}", sc.stmt);
                assert_eq!(sc.overlap.to_bits(), reference.overlap.to_bits(), "{:?} overlap point {i}", sc.stmt);
            }
            // hydration reproduces the full projection bit-for-bit
            assert_projection_bits(&cols.hydrate(&kernel, i), &scalar);
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
            let mut scratch = kernel.make_scratch();
            let mut start = 0;
            while start < specs.len() {
                let end = (start + split).min(specs.len());
                let chunk = kernel.evaluate_columns_chunk(&cols, start..end, &mut scratch);
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
        // an infinite-frequency machine underflows every cycle time: the
        // participation prediction fails and the lane falls back to the
        // scalar replay — inside a full lane group on purpose
        let mut inf = generic();
        inf.freq_ghz = f64::INFINITY;
        let machines = [bgq(), inf.clone(), xeon(), knl(), inf];
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        for (i, machine) in machines.iter().enumerate() {
            let scalar = plan.evaluate(machine, &Roofline);
            assert_eq!(cols.total(i).to_bits(), scalar.total_time.to_bits(), "total point {i}");
            let row: Vec<_> = cols.stmt_row(i).collect();
            assert_eq!(row.len(), scalar.per_stmt.len(), "row arity point {i}");
            for sc in row {
                assert_eq!(sc.total.to_bits(), scalar.per_stmt[&sc.stmt].total.to_bits(), "point {i}");
            }
            assert_projection_bits(&cols.hydrate(&kernel, i), &scalar);
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

    #[test]
    fn kernel_round_trips_through_serde() {
        let plan = ProjectionPlan::new(&bet_for(SRC), &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let json = serde_json::to_string(&kernel).unwrap();
        let back: PlanKernel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fingerprint(), kernel.fingerprint());
        assert_eq!(back.len(), kernel.len());
        let spec = Roofline.specialize(&xeon()).unwrap();
        let mut scratch = back.make_scratch();
        back.evaluate_spec_into(&spec, &mut scratch);
        assert_projection_bits(&scratch.projection(&back), &plan.evaluate(&xeon(), &Roofline));
    }
}
