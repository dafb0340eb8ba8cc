//! Parallel design-space sweeps over candidate machines.
//!
//! The co-design loop of the paper projects one application on many
//! *prospective* machines — varying bandwidth, core counts, memory-level
//! parallelism — and asks where the bottleneck moves and whether the hot
//! spot ranking changes. With the two-phase projection engine the
//! per-machine cost is a single plan evaluation, so a sweep is
//! embarrassingly parallel over machines.
//!
//! [`DesignSpace`] enumerates the candidate machines (an explicit list via
//! [`DesignSpace::from_machines`], or the cartesian product of parameter
//! [`Axis`] values via [`DesignSpace::grid`]); [`DesignSpace::sweep_opts`]
//! fans the points across the shared work-stealing pool
//! ([`run_chunked`]) and returns a [`Sweep`] holding one lightweight
//! [`SweepPoint`] summary per point plus the columnar
//! [`ProjectionColumns`] arena behind them.
//!
//! Sweep output is **columnar**: the engine never materializes a per-point
//! [`Projection`](xflow_hotspot::Projection). Workers fill disjoint point
//! ranges of one structure-of-arrays arena through the lane-vectorized
//! [`xflow_hotspot::PlanKernel::evaluate_columns_chunk`] — total time,
//! block Tc/Tm/To, achieved δ, and the dense per-statement cost matrix as
//! columns. Under an enabled telemetry recorder the rows are filled one
//! at a time through the kernel's scalar row loop
//! ([`xflow_hotspot::ColumnsChunk::fill_point`]) instead, which emits
//! per-point spans and block provenance; the arena's bits are the same
//! either way. When a caller drills into one point, [`Sweep::hydrate`]
//! projects the app on that machine with [`ModeledApp::project_on`].
//!
//! Scheduling: the points split into contiguous chunks (64 points unless
//! [`SweepOptions::chunk`] says otherwise) that workers claim from a
//! shared atomic cursor. No more workers run than there are chunks, and a
//! single worker stays on the calling thread. Grid traversal is row-major
//! (last axis fastest), so adjacent points within a chunk differ in one
//! axis. Results are deterministic and independent of the thread count
//! and the chunk size: chunks install into the arena at their point
//! range, and both kernel loops are bit-identical to the scalar evaluator.
//!
//! ```
//! use xflow::{bgq, Axis, DesignSpace, ModeledApp, Scale, SweepOptions};
//!
//! let w = xflow::xflow_workloads::cfd();
//! let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
//! let space = DesignSpace::grid(
//!     bgq(),
//!     vec![
//!         Axis::new("dram_bw_gbs", &[20.0, 40.0], |m, v| m.dram_bw_gbs = v),
//!         Axis::new("mlp", &[2.0, 4.0], |m, v| m.mlp = v),
//!     ],
//! );
//! let sweep = space.sweep_opts(&app, SweepOptions::with_threads(2));
//! assert_eq!(sweep.points.len(), 4);
//! let best = sweep.best().unwrap();
//! assert!(best.total <= sweep.points[0].total);
//! // drill into the winning point: project the app on its machine
//! let mp = sweep.hydrate(&app, best.index);
//! assert_eq!(mp.total.to_bits(), best.total.to_bits());
//! ```

use crate::pipeline::{MachineProjection, ModeledApp};
use crate::pool::{run_chunked, workers};
use crate::units::Units;
use xflow_hotspot::columns::rank_order;
use xflow_hotspot::{ColumnsChunk, ProjectionColumns, SlotCost};
use xflow_hw::{MachineModel, MachineSpec};
use xflow_obs::{AttrValue, NoopRecorder, Recorder, SpanId};
use xflow_skeleton::StmtId;

/// Points per work-stealing chunk when [`SweepOptions::chunk`] is `0`.
const AUTO_CHUNK: usize = 64;

/// Knobs for a design-space sweep: scheduling and telemetry.
///
/// `threads = 0` follows the host's available parallelism and `chunk = 0`
/// claims 64 points at a time; a sweep never runs more workers than it has
/// chunks. The recorder defaults to [`NoopRecorder`].
#[derive(Clone, Copy)]
pub struct SweepOptions<'a> {
    /// Worker threads; `0` = available parallelism, `1` = serial.
    pub threads: usize,
    /// Points per work-stealing chunk; `0` = automatic.
    pub chunk: usize,
    /// Telemetry sink. When enabled, every point emits a `sweep.point`
    /// span and the kernel's per-block provenance.
    pub recorder: &'a dyn Recorder,
}

impl SweepOptions<'_> {
    /// Options with an explicit thread count, automatic chunking and no
    /// telemetry.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads, chunk: 0, recorder: &NoopRecorder }
    }
}

impl Default for SweepOptions<'_> {
    fn default() -> Self {
        Self::with_threads(0)
    }
}

/// One swept machine parameter: a name, the values to try, and how to
/// apply a value to a machine description.
#[derive(Clone)]
pub struct Axis {
    /// Parameter name (used in point labels, e.g. `dram_bw_gbs=40`).
    pub name: String,
    /// Values the axis takes, in sweep order.
    pub values: Vec<f64>,
    /// Writes one value into a machine description.
    pub apply: fn(&mut MachineModel, f64),
}

impl Axis {
    /// A named axis over explicit values.
    pub fn new(name: &str, values: &[f64], apply: fn(&mut MachineModel, f64)) -> Self {
        Self { name: name.to_string(), values: values.to_vec(), apply }
    }

    /// DRAM bandwidth axis (GB/s).
    pub fn dram_bw(values: &[f64]) -> Self {
        Self::new("dram_bw_gbs", values, |m, v| m.dram_bw_gbs = v)
    }

    /// Core-count axis.
    pub fn cores(values: &[f64]) -> Self {
        Self::new("cores", values, |m, v| m.cores = v as u32)
    }

    /// Memory-level-parallelism axis.
    pub fn mlp(values: &[f64]) -> Self {
        Self::new("mlp", values, |m, v| m.mlp = v)
    }

    /// Clock-frequency axis (GHz).
    pub fn freq_ghz(values: &[f64]) -> Self {
        Self::new("freq_ghz", values, |m, v| m.freq_ghz = v)
    }

    /// Vector-width axis (lanes).
    pub fn vector_lanes(values: &[f64]) -> Self {
        Self::new("vector_lanes", values, |m, v| m.vector_lanes = v)
    }

    /// Resolve a sweepable machine parameter by name — the single list
    /// both the CLI's `--axis` flag and the server's sweep requests
    /// accept, so the two surfaces can never drift apart.
    pub fn by_name(name: &str, values: &[f64]) -> Result<Self, String> {
        let apply: fn(&mut MachineModel, f64) = match name {
            "dram_bw_gbs" => |m, v| m.dram_bw_gbs = v,
            "cores" => |m, v| m.cores = v as u32,
            "mlp" => |m, v| m.mlp = v,
            "freq_ghz" => |m, v| m.freq_ghz = v,
            "vector_lanes" => |m, v| m.vector_lanes = v,
            "issue_width" => |m, v| m.issue_width = v,
            "l1_hit_rate" => |m, v| m.l1_hit_rate = v,
            "llc_hit_rate" => |m, v| m.llc_hit_rate = v,
            "vector_efficiency" => |m, v| m.vector_efficiency = v,
            "load_store_per_cycle" => |m, v| m.load_store_per_cycle = v,
            other => return Err(format!("unknown axis parameter `{other}`")),
        };
        if values.is_empty() {
            return Err(format!("axis `{name}` needs at least one value"));
        }
        Ok(Self::new(name, values, apply))
    }
}

/// A set of candidate machines to project an application on.
pub struct DesignSpace {
    machines: Vec<MachineModel>,
}

impl DesignSpace {
    /// Sweep an explicit list of machines (e.g. the paper's BG/Q vs Xeon
    /// cross-machine comparison).
    pub fn from_machines<I: IntoIterator<Item = MachineModel>>(machines: I) -> Self {
        Self { machines: machines.into_iter().collect() }
    }

    /// Cartesian product of axis values applied to a base machine.
    ///
    /// Point order is row-major in axis order (the last axis varies
    /// fastest); point 0 is the base machine with every axis at its first
    /// value. Machines are renamed `base[axis=value,…]` so reports stay
    /// readable.
    pub fn grid(base: MachineModel, axes: Vec<Axis>) -> Self {
        let n: usize = axes.iter().map(|a| a.values.len().max(1)).product();
        let mut machines = Vec::with_capacity(n);
        for i in 0..n {
            let mut m = base.clone();
            let mut label = String::new();
            let mut rem = i;
            // decode the row-major index, last axis fastest
            for axis in axes.iter().rev() {
                let k = axis.values.len().max(1);
                let j = rem % k;
                rem /= k;
                if let Some(&v) = axis.values.get(j) {
                    (axis.apply)(&mut m, v);
                    let part = format!("{}={v}", axis.name);
                    label = if label.is_empty() { part } else { format!("{part},{label}") };
                }
            }
            m.name = format!("{}[{}]", base.name, label);
            machines.push(m);
        }
        Self { machines }
    }

    /// The candidate machines, in point order.
    pub fn machines(&self) -> &[MachineModel] {
        &self.machines
    }

    /// Check every point against [`MachineModel::validate`]; the error
    /// names the first invalid point. The CLI `sweep` and `/v1/sweep` run
    /// this on user-supplied grids before sweeping them. [`Self::grid`]
    /// itself builds any point it is asked for, degenerate ones included.
    pub fn check_machines(&self) -> Result<(), String> {
        for (i, m) in self.machines.iter().enumerate() {
            let errs = m.validate();
            if !errs.is_empty() {
                return Err(format!("sweep point #{i} {} is not a valid machine: {}", m.name, errs.join("; ")));
            }
        }
        Ok(())
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True when the space has no points.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Project `app` on every point with the extended roofline model.
    ///
    /// Every sweep fills the columnar arena; output is `to_bits`-identical
    /// for every thread count, chunk size and recorder. With an enabled
    /// recorder the sweep emits a `sweep` span (`points`, `threads` and
    /// `chunk` attrs), one `sweep.point` span per point carrying its index
    /// and machine name (for grid spaces the name embeds the point's full
    /// `axis=value` coordinates) around the kernel's `kernel.evaluate` span
    /// and block provenance, and three counters: `sweep.points` once per
    /// completed point (hook an [`xflow_obs::ProgressTicker`] on it for a
    /// live ticker), `sweep.steals` once per chunk a worker claims beyond
    /// its first, and the kernel's `plan.blocks`.
    pub fn sweep_opts(&self, app: &ModeledApp, opts: SweepOptions<'_>) -> Sweep {
        let kernel = app.kernel();
        let rec = opts.recorder;
        let n = self.machines.len();
        let chunk = if opts.chunk == 0 { AUTO_CHUNK } else { opts.chunk };
        let ranges: Vec<std::ops::Range<usize>> = (0..n).step_by(chunk).map(|lo| lo..(lo + chunk).min(n)).collect();
        let threads = workers(opts.threads, ranges.len());
        let mut cols = ProjectionColumns::new(kernel, self.machines.iter().map(MachineSpec::resolve).collect());

        let sweep_span = if rec.enabled() {
            rec.span_start(
                "sweep",
                &[
                    ("points", AttrValue::U64(n as u64)),
                    ("threads", AttrValue::U64(threads as u64)),
                    ("chunk", AttrValue::U64(chunk as u64)),
                ],
            )
        } else {
            SpanId::NONE
        };
        let chunks = run_chunked(
            &ranges,
            threads,
            || 0usize,
            |claimed, _, range| {
                if !rec.enabled() {
                    return kernel.evaluate_columns_chunk(&cols, range.clone());
                }
                *claimed += 1;
                // a lone worker steals from no one
                if threads > 1 && *claimed > 1 {
                    rec.add("sweep.steals", 1);
                }
                let mut filled = ColumnsChunk::new(&cols, range.clone());
                for i in range.clone() {
                    let span = rec.span_start(
                        "sweep.point",
                        &[("index", AttrValue::U64(i as u64)), ("machine", AttrValue::Str(&self.machines[i].name))],
                    );
                    filled.fill_point(kernel, &cols, i, rec);
                    rec.span_end(span, &[("outcome", AttrValue::Str("ok"))]);
                    rec.add("sweep.points", 1);
                }
                filled
            },
        );
        for filled in chunks {
            cols.install(filled);
        }
        if rec.enabled() {
            rec.span_end(sweep_span, &[("outcome", AttrValue::Str("ok"))]);
        }

        let fold = UnitFold::new(&app.units, &cols);
        let points = (0..n)
            .map(|i| {
                let (top_unit, memory_bound) = fold.summarize(cols.stmt_row(i));
                SweepPoint {
                    index: i,
                    machine: self.machines[i].name.clone(),
                    total: cols.total(i),
                    top_unit,
                    memory_bound,
                }
            })
            .collect();
        Sweep { points, machines: self.machines.clone(), columns: cols, fold }
    }
}

/// Compact statement-slot → unit fold layout for columnar sweeps.
///
/// Unit ids can live in the library pseudo-id space near `u32::MAX`
/// ([`crate::units::LIB_UNIT_BASE`]), so units are indexed by first
/// appearance over the ascending statement slots rather than densely by
/// id. Folding a dense row accumulates slot costs in ascending-statement
/// order — the same order [`crate::pipeline::fold_projection`] visits the per-statement
/// table, so the per-unit sums are bit-identical to a projected point's.
struct UnitFold {
    unit_ids: Vec<StmtId>,
    slot_unit: Vec<u32>,
}

impl UnitFold {
    fn new(units: &Units, cols: &ProjectionColumns) -> Self {
        let mut unit_ids: Vec<StmtId> = Vec::new();
        let mut slot_unit = Vec::with_capacity(cols.slot_count());
        for stmt in cols.stmt_ids() {
            let unit = units.unit_of(stmt);
            let idx = unit_ids.iter().position(|&u| u == unit).unwrap_or_else(|| {
                unit_ids.push(unit);
                unit_ids.len() - 1
            });
            slot_unit.push(idx as u32);
        }
        Self { unit_ids, slot_unit }
    }

    /// Fold one dense statement row into `(top unit, top unit is
    /// memory-bound)` — the two summary facts a [`SweepPoint`] carries.
    fn summarize(&self, row: impl Iterator<Item = SlotCost>) -> (Option<StmtId>, bool) {
        let k = self.unit_ids.len();
        let mut total = vec![0.0f64; k];
        let mut tc = vec![0.0f64; k];
        let mut tm = vec![0.0f64; k];
        let mut present = vec![false; k];
        for sc in row {
            let u = self.slot_unit[sc.slot] as usize;
            total[u] += sc.total;
            tc[u] += sc.tc;
            tm[u] += sc.tm;
            present[u] = true;
        }
        // max by (time desc, unit id asc) — the head of the full ranking
        let mut top: Option<usize> = None;
        for u in 0..k {
            if !present[u] {
                continue;
            }
            top = Some(match top {
                None => u,
                Some(b) => {
                    if total[u] > total[b] || (total[u] == total[b] && self.unit_ids[u] < self.unit_ids[b]) {
                        u
                    } else {
                        b
                    }
                }
            });
        }
        match top {
            Some(u) => (Some(self.unit_ids[u]), tm[u] > tc[u]),
            None => (None, false),
        }
    }

    /// Full unit ranking of one dense statement row (time desc, id asc) —
    /// matches [`MachineProjection::ranking`] of the projected point.
    fn ranking(&self, row: impl Iterator<Item = SlotCost>) -> Vec<StmtId> {
        let k = self.unit_ids.len();
        let mut total = vec![0.0f64; k];
        let mut present = vec![false; k];
        for sc in row {
            let u = self.slot_unit[sc.slot] as usize;
            total[u] += sc.total;
            present[u] = true;
        }
        let mut v: Vec<(StmtId, f64)> = (0..k).filter(|&u| present[u]).map(|u| (self.unit_ids[u], total[u])).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
        v.into_iter().map(|(s, _)| s).collect()
    }
}

/// Summary of one design-space point — a few scalars, no projection.
///
/// The full [`MachineProjection`] of a point comes from [`Sweep::hydrate`].
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Index into [`DesignSpace::machines`].
    pub index: usize,
    /// Machine name of the point (grid points embed their `axis=value`
    /// coordinates).
    pub machine: String,
    /// Total projected seconds.
    pub total: f64,
    /// Highest-cost unit on this machine, if any time was projected.
    pub top_unit: Option<StmtId>,
    /// Whether the top unit is memory-bound (`Tm > Tc`) on this machine.
    pub memory_bound: bool,
}

/// How one point differs from the sweep's baseline (point 0).
#[derive(Debug, Clone)]
pub struct SweepDelta {
    /// Index into [`DesignSpace::machines`].
    pub index: usize,
    /// Machine name of the point.
    pub machine: String,
    /// `baseline_total / point_total` (> 1 means this point is faster).
    pub speedup: f64,
    /// The unit ranking differs from the baseline's.
    pub ranking_changed: bool,
    /// The top unit's compute/memory bottleneck flipped vs the baseline.
    pub bottleneck_flipped: bool,
}

/// Result of sweeping a design space: lightweight per-point summaries in
/// point order, backed by the columnar arena.
pub struct Sweep {
    /// One entry per design-space point, in point order.
    pub points: Vec<SweepPoint>,
    machines: Vec<MachineModel>,
    columns: ProjectionColumns,
    fold: UnitFold,
}

impl Sweep {
    /// The fastest point (lowest projected total, NaN last; ties keep
    /// point order).
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points.iter().min_by(|a, b| rank_order(a.total, b.total))
    }

    /// Points sorted by ascending projected total (NaN last, ties keep
    /// point order).
    pub fn ranked(&self) -> Vec<&SweepPoint> {
        let mut v: Vec<&SweepPoint> = self.points.iter().collect();
        v.sort_by(|a, b| rank_order(a.total, b.total).then(a.index.cmp(&b.index)));
        v
    }

    /// The `k` fastest points, ranked — straight off the totals column, no
    /// projection.
    pub fn top(&self, k: usize) -> Vec<&SweepPoint> {
        let mut v = self.ranked();
        v.truncate(k);
        v
    }

    /// The swept machines, in point order.
    pub fn machines(&self) -> &[MachineModel] {
        &self.machines
    }

    /// The columnar result arena.
    pub fn columns(&self) -> &ProjectionColumns {
        &self.columns
    }

    /// The full per-machine projection of one point:
    /// [`ModeledApp::project_on`] its machine, whose totals and statement
    /// costs match the arena row to the bit.
    ///
    /// # Panics
    ///
    /// If `app` is not the application the sweep was run on (its kernel
    /// fingerprint differs from the arena's).
    pub fn hydrate(&self, app: &ModeledApp, i: usize) -> MachineProjection {
        assert_eq!(app.kernel().fingerprint(), self.columns.fingerprint(), "sweep hydrated through a foreign app");
        app.project_on(&self.machines[i])
    }

    /// Unit ranking of one point (time desc, id asc) without projecting
    /// it.
    pub fn unit_ranking(&self, i: usize) -> Vec<StmtId> {
        self.fold.ranking(self.columns.stmt_row(i))
    }

    /// Per-point deltas against the baseline (point 0): speedup, hot-spot
    /// ranking shifts, and bottleneck flips — the co-design questions a
    /// sweep exists to answer.
    pub fn deltas(&self) -> Vec<SweepDelta> {
        let Some(base) = self.points.first() else { return Vec::new() };
        let base_ranking = self.unit_ranking(0);
        self.points
            .iter()
            .map(|p| SweepDelta {
                index: p.index,
                machine: p.machine.clone(),
                speedup: if p.total > 0.0 { base.total / p.total } else { f64::INFINITY },
                ranking_changed: self.unit_ranking(p.index) != base_ranking,
                bottleneck_flipped: p.memory_bound != base.memory_bound,
            })
            .collect()
    }
}

fn write_sweep_header(out: &mut String) {
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "{:<4} {:<40} {:>12} {:<24} {:>7} {:>9}",
        "#", "machine", "total (s)", "top unit", "bound", "speedup"
    );
}

fn write_sweep_row(out: &mut String, p: &SweepPoint, d: &SweepDelta, units: &crate::units::Units) {
    use std::fmt::Write;
    let top = p.top_unit.map(|u| units.name(u)).unwrap_or_else(|| "-".into());
    let _ = writeln!(
        out,
        "{:<4} {:<40} {:>12.4e} {:<24} {:>7} {:>8.2}x",
        p.index,
        p.machine,
        p.total,
        top,
        if p.memory_bound { "mem" } else { "comp" },
        d.speedup,
    );
}

/// Render a sweep as an aligned table (point, machine, total, top unit,
/// bound, speedup vs baseline), in point order.
pub fn format_sweep(sweep: &Sweep, units: &crate::units::Units) -> String {
    let mut out = String::new();
    write_sweep_header(&mut out);
    let deltas = sweep.deltas();
    for (p, d) in sweep.points.iter().zip(&deltas) {
        write_sweep_row(&mut out, p, d, units);
    }
    out
}

/// Render the `k` fastest points of a sweep as an aligned table, best
/// first — the `xflow sweep --top` view, ranked straight off the totals
/// column without projecting any point.
pub fn format_sweep_ranked(sweep: &Sweep, units: &crate::units::Units, k: usize) -> String {
    let mut out = String::new();
    write_sweep_header(&mut out);
    let deltas = sweep.deltas();
    for p in sweep.top(k) {
        write_sweep_row(&mut out, p, &deltas[p.index], units);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_hw::{bgq, xeon};
    use xflow_workloads::Scale;

    fn cfd_app() -> ModeledApp {
        ModeledApp::from_workload(&xflow_workloads::cfd(), Scale::Test).unwrap()
    }

    #[test]
    fn grid_is_cartesian_and_labeled() {
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0, 30.0]), Axis::mlp(&[2.0, 4.0])]);
        assert_eq!(space.len(), 6);
        // last axis varies fastest
        assert_eq!(space.machines()[0].mlp, 2.0);
        assert_eq!(space.machines()[1].mlp, 4.0);
        assert_eq!(space.machines()[0].dram_bw_gbs, 10.0);
        assert_eq!(space.machines()[2].dram_bw_gbs, 20.0);
        assert!(space.machines()[0].name.contains("dram_bw_gbs=10"));
        assert!(space.machines()[0].name.contains("mlp=2"));
    }

    #[test]
    fn sweep_results_independent_of_thread_count() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0, 40.0]), Axis::mlp(&[2.0, 4.0])]);
        let serial = space.sweep_opts(&app, SweepOptions::with_threads(1));
        for threads in [2, 4, 8] {
            let par = space.sweep_opts(&app, SweepOptions::with_threads(threads));
            assert_eq!(par.points.len(), serial.points.len());
            for (a, b) in par.points.iter().zip(&serial.points) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.total.to_bits(), b.total.to_bits());
                assert_eq!(a.top_unit, b.top_unit);
                assert_eq!(a.memory_bound, b.memory_bound);
            }
        }
    }

    #[test]
    fn sweep_results_independent_of_chunk_size() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0, 40.0]), Axis::mlp(&[2.0, 4.0])]);
        let serial = space.sweep_opts(&app, SweepOptions::with_threads(1));
        for (threads, chunk) in [(2, 1), (2, 3), (4, 2), (3, 64), (1, 2), (2, 7)] {
            let par = space.sweep_opts(&app, SweepOptions { threads, chunk, ..Default::default() });
            assert_eq!(par.points.len(), serial.points.len());
            for (a, b) in par.points.iter().zip(&serial.points) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.total.to_bits(), b.total.to_bits(), "threads={threads} chunk={chunk}");
                assert_eq!(a.top_unit, b.top_unit);
            }
        }
    }

    #[test]
    fn plain_sweep_is_columnar_and_matches_project_on() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0, 40.0]), Axis::mlp(&[2.0, 4.0])]);
        let sweep = space.sweep_opts(&app, SweepOptions::with_threads(2));
        let cols = sweep.columns();
        assert_eq!(cols.points(), 6);
        for (i, machine) in space.machines().iter().enumerate() {
            let direct = app.project_on(machine);
            assert_eq!(sweep.points[i].total.to_bits(), direct.total.to_bits());
            assert_eq!(sweep.unit_ranking(i), direct.ranking());
            // the drilled-into projection agrees with the arena row
            let hydrated = sweep.hydrate(&app, i);
            assert_eq!(hydrated.total.to_bits(), direct.total.to_bits());
            assert_eq!(cols.stmt_row(i).count(), hydrated.projection.per_stmt.len());
            for sc in cols.stmt_row(i) {
                let cost = hydrated.projection.per_stmt[&sc.stmt];
                assert_eq!(sc.total.to_bits(), cost.total.to_bits());
                assert_eq!(sc.tm.to_bits(), cost.tm.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "foreign app")]
    fn hydrating_through_a_foreign_app_panics() {
        let sweep = DesignSpace::from_machines([bgq()]).sweep_opts(&cfd_app(), SweepOptions::with_threads(1));
        let sord = ModeledApp::from_workload(&xflow_workloads::sord(), Scale::Test).unwrap();
        sweep.hydrate(&sord, 0);
    }

    #[test]
    fn ranked_top_comes_from_the_totals_column() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::cores(&[1.0, 2.0, 4.0, 8.0])]);
        let sweep = space.sweep_opts(&app, SweepOptions::with_threads(1));
        let top = sweep.top(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].total <= top[1].total);
        assert_eq!(top[0].index, sweep.best().unwrap().index);
        let text = format_sweep_ranked(&sweep, &app.units, 2);
        assert_eq!(text.lines().count(), 3, "header + 2 ranked rows:\n{text}");
        let first_row = text.lines().nth(1).unwrap();
        assert!(first_row.starts_with(&format!("{:<4}", top[0].index)), "{first_row}");
    }

    #[test]
    fn work_stealing_counters_recorded() {
        use xflow_obs::CollectingRecorder;
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0]), Axis::mlp(&[2.0, 4.0])]);

        // serial: no stealing
        let rec = CollectingRecorder::new();
        space.sweep_opts(&app, SweepOptions { threads: 1, chunk: 1, recorder: &rec });
        assert_eq!(rec.counter_value("sweep.points"), 4);
        assert_eq!(rec.counter_value("sweep.steals"), 0);

        // two workers over four 1-point chunks: every chunk beyond a
        // worker's first is a steal
        let rec = CollectingRecorder::new();
        space.sweep_opts(&app, SweepOptions { threads: 2, chunk: 1, recorder: &rec });
        assert_eq!(rec.counter_value("sweep.points"), 4);
        assert!(rec.counter_value("sweep.steals") >= 2);
    }

    #[test]
    fn sweep_matches_project_on() {
        let app = cfd_app();
        let machines = [bgq(), xeon()];
        let sweep = DesignSpace::from_machines(machines.clone()).sweep_opts(&app, SweepOptions::with_threads(2));
        for (p, m) in sweep.points.iter().zip(&machines) {
            let direct = app.project_on(m);
            assert_eq!(p.total.to_bits(), direct.total.to_bits());
            assert_eq!(sweep.unit_ranking(p.index), direct.ranking());
        }
    }

    #[test]
    fn faster_clock_never_slower() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::freq_ghz(&[0.8, 1.6, 3.2])]);
        let sweep = space.sweep_opts(&app, SweepOptions::with_threads(0));
        for w in sweep.points.windows(2) {
            assert!(w[1].total < w[0].total, "{} vs {}", w[1].total, w[0].total);
        }
        let best = sweep.best().unwrap();
        assert_eq!(best.index, 2);
    }

    #[test]
    fn deltas_report_speedup_vs_baseline() {
        let app = cfd_app();
        let sweep = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 40.0])])
            .sweep_opts(&app, SweepOptions::with_threads(1));
        let deltas = sweep.deltas();
        assert_eq!(deltas.len(), 2);
        assert!((deltas[0].speedup - 1.0).abs() < 1e-12);
        assert!(deltas[1].speedup >= 1.0);
        assert!(!deltas[0].ranking_changed);
    }

    #[test]
    fn observed_sweep_traces_points_and_matches_plain() {
        use xflow_obs::CollectingRecorder;
        let app = cfd_app();
        let space = DesignSpace::grid(
            bgq(),
            vec![Axis::dram_bw(&[10.0, 20.0, 40.0]), Axis::mlp(&[2.0, 4.0]), Axis::cores(&[8.0, 16.0])],
        );
        let n = space.len();
        let plain = space.sweep_opts(&app, SweepOptions::with_threads(1));
        for threads in [1, 2, 4] {
            for chunk in [1, 3, 64] {
                let ctx = format!("threads={threads} chunk={chunk}");
                let rec = CollectingRecorder::new();
                let observed = space.sweep_opts(&app, SweepOptions { threads, chunk, recorder: &rec });
                // the recorded sweep fills the same arena, bit for bit
                assert_eq!(observed.columns().points(), n, "{ctx}");
                for i in 0..n {
                    let (a, b) = (&observed.points[i], &plain.points[i]);
                    assert_eq!(a.total.to_bits(), b.total.to_bits(), "{ctx}");
                    assert_eq!((a.top_unit, a.memory_bound), (b.top_unit, b.memory_bound), "{ctx}");
                    let row = |s: &Sweep| -> Vec<_> {
                        s.columns()
                            .stmt_row(i)
                            .map(|c| (c.slot, c.total.to_bits(), c.tc.to_bits(), c.tm.to_bits(), c.overlap.to_bits()))
                            .collect()
                    };
                    assert_eq!(row(&observed), row(&plain), "{ctx} point {i}");
                    assert_eq!(observed.unit_ranking(i), plain.unit_ranking(i), "{ctx}");
                }
                assert_eq!(rec.counter_value("sweep.points"), n as u64, "{ctx}");
                assert_eq!(rec.counter_value("plan.blocks"), (n * app.kernel().len()) as u64, "{ctx}");
                assert_eq!(rec.block_provenance().len(), n * app.kernel().len(), "{ctx}");
                let snap = rec.snapshot();
                assert_eq!(snap.spans.iter().filter(|s| s.name == "sweep.point").count(), n, "{ctx}");
                assert_eq!(snap.spans.iter().filter(|s| s.name == "kernel.evaluate").count(), n, "{ctx}");
                let sweep_span = snap.spans.iter().find(|s| s.name == "sweep").unwrap();
                assert!(sweep_span.attrs.iter().any(|(k, _)| k == "points"));
                // every point span names its full axis=value coordinates
                for s in snap.spans.iter().filter(|s| s.name == "sweep.point") {
                    let machine = s.attrs.iter().find(|(k, _)| k == "machine").unwrap();
                    match &machine.1 {
                        xflow_obs::OwnedAttr::Str(name) => {
                            assert!(name.contains("dram_bw_gbs=") && name.contains("mlp="), "{name}");
                        }
                        other => panic!("machine attr should be a string, got {other:?}"),
                    }
                }
            }
        }
    }

    /// Block provenance grouped by the `sweep.point` span open on the
    /// emitting thread, so a multi-worker trace splits back into points.
    #[derive(Default)]
    struct PointProvenance {
        open: std::sync::Mutex<std::collections::HashMap<std::thread::ThreadId, usize>>,
        blocks: std::sync::Mutex<std::collections::BTreeMap<usize, Vec<xflow_obs::BlockProvenance>>>,
    }

    impl Recorder for PointProvenance {
        fn enabled(&self) -> bool {
            true
        }
        fn span_start(&self, name: &str, attrs: &[xflow_obs::Attr<'_>]) -> SpanId {
            if name == "sweep.point" {
                let Some((_, AttrValue::U64(i))) = attrs.iter().find(|(k, _)| *k == "index") else {
                    panic!("sweep.point span without an index")
                };
                self.open.lock().unwrap().insert(std::thread::current().id(), *i as usize);
            }
            SpanId::NONE
        }
        fn span_end(&self, _: SpanId, _: &[xflow_obs::Attr<'_>]) {}
        fn add(&self, _: &str, _: u64) {}
        fn observe(&self, _: &str, _: f64) {}
        fn event(&self, _: &str, _: &[xflow_obs::Attr<'_>]) {}
        fn block_cost(&self, block: &xflow_obs::BlockProvenance) {
            let i = self.open.lock().unwrap()[&std::thread::current().id()];
            self.blocks.lock().unwrap().entry(i).or_default().push(*block);
        }
    }

    #[test]
    fn nan_totals_rank_last_without_panicking() {
        // a zero clock projects NaN totals (x86's default NaN, sign bit
        // set); the grid sweeps such points, and the rankings must still
        // be a total order that puts every finite point first
        let app = cfd_app();
        let freqs: Vec<f64> = (0..60).map(|i| if i % 3 == 0 { 0.0 } else { 1.0 + (i % 7) as f64 * 0.25 }).collect();
        let sweep = DesignSpace::grid(xeon(), vec![Axis::freq_ghz(&freqs)]).sweep_opts(&app, SweepOptions::default());
        assert_eq!(sweep.points.iter().filter(|p| p.total.is_nan()).count(), 20);
        let ranked = sweep.ranked();
        assert!(ranked[..40].iter().all(|p| p.total.is_finite()), "finite points must rank first");
        assert!(ranked[..40].windows(2).all(|w| w[0].total <= w[1].total));
        assert!(ranked[40..].iter().all(|p| p.total.is_nan()));
        assert_eq!(sweep.best().map(|p| p.index), Some(ranked[0].index));
        let order: Vec<usize> = ranked.iter().map(|p| p.index).collect();
        assert_eq!(sweep.top(5).iter().map(|p| p.index).collect::<Vec<_>>(), order[..5]);
        assert_eq!(sweep.columns().top_k(60), order);
    }

    #[test]
    fn traced_sweep_with_degenerate_machines_matches_plain_and_the_plan() {
        use xflow_obs::CollectingRecorder;
        let app = cfd_app();
        // infinite frequency underflows every cycle time: the lane fill
        // replays those points, the traced fill runs them like any other
        let space = DesignSpace::grid(
            bgq(),
            vec![Axis::freq_ghz(&[1.6, f64::INFINITY]), Axis::dram_bw(&[10.0, 40.0]), Axis::mlp(&[2.0, 4.0])],
        );
        let n = space.len();
        let plain = space.sweep_opts(&app, SweepOptions::with_threads(1));
        // the second half of the grid breaks the participation prediction:
        // statements that carry time on a finite clock drop out
        for i in n / 2..n {
            let cols = plain.columns();
            assert!(cols.stmt_row(i).count() < cols.stmt_row(i - n / 2).count(), "point {i} is not degenerate");
        }
        let reference: Vec<Vec<xflow_obs::BlockProvenance>> = space
            .machines()
            .iter()
            .map(|m| {
                let rec = CollectingRecorder::new();
                app.plan().evaluate_observed(m, &xflow_hw::Roofline, &rec);
                rec.block_provenance()
            })
            .collect();
        let bits = |b: &xflow_obs::BlockProvenance| {
            let f = [b.enr, b.tc, b.tm, b.overlap, b.delta, b.total, b.threads, b.flops, b.iops, b.loads, b.stores];
            (b.node, b.stmt, f.map(f64::to_bits), b.bytes.to_bits())
        };
        for threads in [1, 2, 4] {
            for chunk in [1, 3, 64] {
                let ctx = format!("threads={threads} chunk={chunk}");
                let rec = PointProvenance::default();
                let traced = space.sweep_opts(&app, SweepOptions { threads, chunk, recorder: &rec });
                let (a, b) = (traced.columns(), plain.columns());
                for i in 0..n {
                    assert_eq!(a.total(i).to_bits(), b.total(i).to_bits(), "{ctx} point {i}");
                    let (ta, tb) = (a.block_totals(i), b.block_totals(i));
                    assert_eq!(
                        (ta.0.to_bits(), ta.1.to_bits(), ta.2.to_bits()),
                        (tb.0.to_bits(), tb.1.to_bits(), tb.2.to_bits()),
                        "{ctx} point {i}"
                    );
                    assert_eq!(a.delta(i).to_bits(), b.delta(i).to_bits(), "{ctx} point {i}");
                    assert_eq!(a.memory_bound(i), b.memory_bound(i), "{ctx} point {i}");
                    let row = |c: &ProjectionColumns| -> Vec<_> {
                        c.stmt_row(i)
                            .map(|s| (s.slot, s.total.to_bits(), s.tc.to_bits(), s.tm.to_bits(), s.overlap.to_bits()))
                            .collect()
                    };
                    assert_eq!(row(a), row(b), "{ctx} point {i}");
                }
                let blocks = rec.blocks.into_inner().unwrap();
                assert_eq!(blocks.len(), n, "{ctx}");
                for (i, stream) in &blocks {
                    let got: Vec<_> = stream.iter().map(bits).collect();
                    let want: Vec<_> = reference[*i].iter().map(bits).collect();
                    assert_eq!(got, want, "{ctx} point {i}");
                }
            }
        }
    }

    #[test]
    fn small_auto_sweeps_stay_on_one_worker() {
        use xflow_obs::{CollectingRecorder, OwnedAttr};
        let app = cfd_app();
        let space = DesignSpace::grid(
            bgq(),
            vec![Axis::dram_bw(&[0.5, 1.0, 2.0, 4.0, 8.0]), Axis::mlp(&[2.0, 4.0, 8.0, 16.0, 32.0])],
        );
        let threads_attr = |opts: SweepOptions<'_>, rec: &CollectingRecorder| {
            space.sweep_opts(&app, opts);
            let snap = rec.snapshot();
            let span = snap.spans.iter().find(|s| s.name == "sweep").unwrap();
            span.attrs.iter().find(|(k, _)| k == "threads").map(|(_, v)| v.clone()).unwrap()
        };
        // 25 points fit one 64-point chunk: no worker threads are spawned
        let rec = CollectingRecorder::new();
        assert_eq!(
            threads_attr(SweepOptions { threads: 4, recorder: &rec, ..Default::default() }, &rec),
            OwnedAttr::U64(1)
        );
        assert_eq!(rec.counter_value("sweep.steals"), 0);
        // an explicit chunk is honoured: 25 one-point chunks feed 4 workers
        let rec = CollectingRecorder::new();
        assert_eq!(threads_attr(SweepOptions { threads: 4, chunk: 1, recorder: &rec }, &rec), OwnedAttr::U64(4));
    }

    #[test]
    fn format_sweep_renders() {
        let app = cfd_app();
        let sweep = DesignSpace::from_machines([bgq()]).sweep_opts(&app, SweepOptions::with_threads(1));
        let text = format_sweep(&sweep, &app.units);
        assert!(text.contains("machine"));
        assert!(text.contains("speedup"));
    }
}
