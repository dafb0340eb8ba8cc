//! Parallel design-space sweeps over candidate machines.
//!
//! The co-design loop of the paper projects one application on many
//! *prospective* machines — varying bandwidth, core counts, memory-level
//! parallelism — and asks where the bottleneck moves and whether the hot
//! spot ranking changes. With the two-phase projection engine the
//! per-machine cost is a single plan evaluation, so a sweep is
//! embarrassingly parallel over machines.
//!
//! [`DesignSpace`] holds the candidate machines (an explicit list via
//! [`DesignSpace::from_machines`]) or a base machine and parameter [`Axis`]
//! values ([`DesignSpace::grid`]): a grid point is decoded on demand into
//! the kernel's [`MachineSpec`], a [`MachineModel`] or its name.
//! [`DesignSpace::sweep_opts`] fans the points across the shared
//! work-stealing pool ([`run_chunked`]) and returns a [`Sweep`]: one
//! [`PointTotal`] per point plus the columnar [`ProjectionColumns`] arena.
//!
//! Sweep output is **columnar**: the engine never materializes a per-point
//! [`Projection`](xflow_hotspot::Projection). Workers fill disjoint point
//! ranges of one structure-of-arrays arena through the lane-vectorized
//! [`xflow_hotspot::PlanKernel::evaluate_columns_chunk`] — total time,
//! block Tc/Tm/To, achieved δ, and the dense per-statement cost matrix as
//! columns. Under an enabled telemetry recorder the rows are filled one
//! at a time ([`xflow_hotspot::ColumnsChunk::fill_point`]) instead, each
//! a one-lane group of the same lane fill inside its own spans; the
//! arena's bits are the same either way. When a caller drills into one
//! point, [`Sweep::hydrate`] projects the app on that machine with
//! [`ModeledApp::project_on`].
//!
//! A point is a total; a row is what gets printed. [`Sweep::row`] reads a
//! point's arena row through the app's one unit fold ([`UnitIndex::fold`])
//! and ranks by the one unit comparator ([`xflow_hotspot::unit_order`]),
//! so its top unit and bound, like [`Sweep::deltas`], agree with the
//! projection of its machine to the bit; only callers that show rows build them.
//!
//! Scheduling: the points split into contiguous chunks (64 points unless
//! [`SweepOptions::chunk`] says otherwise) that workers claim from a
//! shared atomic cursor. No more workers run than there are chunks, and a
//! single worker stays on the calling thread. Grid traversal is row-major
//! (last axis fastest), so adjacent points within a chunk differ in one
//! axis. Results are deterministic and independent of the thread count
//! and the chunk size: chunks install into the arena at their point
//! range, and the lane fill is bit-identical to the scalar evaluator.
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
use crate::units::{UnitCost, UnitIndex};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use xflow_hotspot::{unit_order, ColumnsChunk, ProjectionColumns};
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
    /// span around the kernel's `kernel.evaluate` span.
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

/// A set of candidate machines, held as the description its points decode from.
pub struct DesignSpace {
    points: Arc<Points>,
    len: usize,
    machines: OnceLock<Vec<MachineModel>>,
}

/// An explicit machine list, or a grid: base, axes, each axis value's
/// `axis=value` name fragment (formatted once) and each axis's points per step.
enum Points {
    List(Vec<MachineModel>),
    Grid { base: Box<MachineModel>, axes: Vec<Axis>, labels: Vec<Vec<String>>, strides: Vec<usize>, len: usize },
}

impl Points {
    /// Point `i`'s machine; a grid point's is decoded unnamed, its last axis applied first.
    fn unnamed(&self, i: usize) -> Cow<'_, MachineModel> {
        match self {
            Points::List(ms) => Cow::Borrowed(&ms[i]),
            Points::Grid { base, axes, strides, len, .. } => {
                assert!(i < *len, "point {i} of a {len}-point grid");
                let mut m = MachineModel { name: String::new(), ..**base };
                for (axis, stride) in axes.iter().zip(strides).rev() {
                    if let Some(&v) = axis.values.get(i / stride % axis.values.len().max(1)) {
                        (axis.apply)(&mut m, v);
                    }
                }
                Cow::Owned(m)
            }
        }
    }

    /// Point `i`'s name; a grid point's is `base[axis=value,…]`.
    fn name(&self, i: usize) -> String {
        match self {
            Points::List(ms) => ms[i].name.clone(),
            Points::Grid { base, labels, strides, .. } => {
                let parts = strides.iter().zip(labels).filter_map(|(s, l)| l.get(i / s % l.len().max(1)));
                format!("{}[{}]", base.name, parts.map(String::as_str).collect::<Vec<_>>().join(","))
            }
        }
    }

    fn machine(&self, i: usize) -> MachineModel {
        MachineModel { name: self.name(i), ..*self.unnamed(i) }
    }
}

impl DesignSpace {
    /// Sweep an explicit list of machines (e.g. the paper's BG/Q vs Xeon
    /// cross-machine comparison).
    pub fn from_machines<I: IntoIterator<Item = MachineModel>>(machines: I) -> Self {
        let list: Vec<MachineModel> = machines.into_iter().collect();
        Self { len: list.len(), points: Arc::new(Points::List(list)), machines: OnceLock::new() }
    }

    /// Points in a grid over `axes` (an empty axis counts as one); `None` past `usize::MAX`.
    pub fn grid_len(axes: &[Axis]) -> Option<usize> {
        axes.iter().try_fold(1usize, |n, a| n.checked_mul(a.values.len().max(1)))
    }

    /// Cartesian product of axis values applied to a base machine.
    ///
    /// A grid is its base and axes, no machines: point order is row-major
    /// (the last axis varies fastest, and applies first), point 0 has every
    /// axis at its first value, and a point is named `base[axis=value,…]` on
    /// demand. Panics past `usize::MAX` points ([`Self::grid_len`]).
    pub fn grid(base: MachineModel, axes: Vec<Axis>) -> Self {
        let len = Self::grid_len(&axes).expect("sweep asks for more than usize::MAX points");
        let strides = (0..axes.len()).map(|a| axes[a + 1..].iter().map(|b| b.values.len().max(1)).product()).collect();
        let labels = axes.iter().map(|a| a.values.iter().map(|v| format!("{}={v}", a.name)).collect()).collect();
        let points = Arc::new(Points::Grid { base: Box::new(base), axes, labels, strides, len });
        Self { points, len, machines: OnceLock::new() }
    }

    /// Point `i`'s machine, named as in the sweep's rows.
    pub fn machine(&self, i: usize) -> MachineModel {
        self.points.machine(i)
    }

    /// The candidate machines, in point order, built once on first use.
    pub fn machines(&self) -> &[MachineModel] {
        self.machines.get_or_init(|| (0..self.len).map(|i| self.machine(i)).collect())
    }

    /// Check every point against [`MachineModel::validate`]; the error
    /// names the first invalid point. The CLI `sweep` and `/v1/sweep` run
    /// this on user-supplied grids before sweeping them. [`Self::grid`]
    /// itself builds any point it is asked for, degenerate ones included.
    pub fn check_machines(&self) -> Result<(), String> {
        for i in 0..self.len() {
            let errs = self.points.unnamed(i).validate();
            if !errs.is_empty() {
                let name = self.points.name(i);
                return Err(format!("sweep point #{i} {name} is not a valid machine: {}", errs.join("; ")));
            }
        }
        Ok(())
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the space has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Project `app` on every point with the extended roofline model.
    ///
    /// Every sweep fills the columnar arena; output is `to_bits`-identical
    /// for every thread count, chunk size and recorder. With an enabled
    /// recorder the sweep emits a `sweep` span (`points`, `threads` and
    /// `chunk` attrs), one `sweep.point` span per point carrying its index
    /// and machine name (for grid spaces the name embeds the point's full
    /// `axis=value` coordinates) around the kernel's `kernel.evaluate` span,
    /// and three counters: `sweep.points` once per completed point,
    /// `sweep.steals` once per chunk a worker claims beyond its first, and
    /// the kernel's `plan.blocks`. Untraced, no point is named.
    pub fn sweep_opts(&self, app: &ModeledApp, opts: SweepOptions<'_>) -> Sweep {
        let kernel = app.kernel();
        let rec = opts.recorder;
        let n = self.len();
        let chunk = if opts.chunk == 0 { AUTO_CHUNK } else { opts.chunk };
        let ranges: Vec<std::ops::Range<usize>> = (0..n).step_by(chunk).map(|lo| lo..(lo + chunk).min(n)).collect();
        let threads = workers(opts.threads, ranges.len());
        let mut cols =
            ProjectionColumns::new(kernel, (0..n).map(|i| MachineSpec::resolve(&self.points.unnamed(i))).collect());

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
                    let name = self.points.name(i);
                    let span = rec.span_start(
                        "sweep.point",
                        &[("index", AttrValue::U64(i as u64)), ("machine", AttrValue::Str(&name))],
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

        let points = cols.totals().iter().enumerate().map(|(index, &total)| PointTotal { index, total }).collect();
        Sweep { points, space: Arc::clone(&self.points), columns: cols, index: app.units.index().clone() }
    }
}

/// Point `i`'s dense statement row as [`UnitIndex::fold`] input.
fn unit_row(cols: &ProjectionColumns, i: usize) -> impl Iterator<Item = (StmtId, UnitCost)> + '_ {
    cols.stmt_row(i).map(|sc| (sc.stmt, UnitCost { total: sc.total, tc: sc.tc, tm: sc.tm, overlap: sc.overlap }))
}

/// One design-space point as a sweep stores it: its index and total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointTotal {
    /// Index into the design space.
    pub index: usize,
    /// Total projected seconds.
    pub total: f64,
}

/// One printed row of a sweep ([`Sweep::row`]): a few scalars, no projection.
/// The full [`MachineProjection`] of a point comes from [`Sweep::hydrate`].
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Index into the design space.
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
    /// Index into the design space.
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

/// Result of sweeping a design space: one [`PointTotal`] per point in
/// point order, backed by the columnar arena and the space's description.
pub struct Sweep {
    /// One entry per design-space point, in point order.
    pub points: Vec<PointTotal>,
    space: Arc<Points>,
    columns: ProjectionColumns,
    index: UnitIndex,
}

impl Sweep {
    /// The row of the fastest point (lowest total, NaN last; ties keep point order).
    pub fn best(&self) -> Option<SweepPoint> {
        self.top(1).pop()
    }

    /// The rows of the `k` fastest points, ranked like [`Self::best`] off the totals column.
    pub fn top(&self, k: usize) -> Vec<SweepPoint> {
        self.columns.top_k(k).into_iter().map(|i| self.row(i)).collect()
    }

    /// Point `i`'s row: its name, total, and top unit and bound by the same
    /// fold and order as [`MachineProjection::ranking`] of its projection.
    pub fn row(&self, i: usize) -> SweepPoint {
        let (ranking, memory_bound) = self.ranked(i);
        let (machine, total, top_unit) = (self.space.name(i), self.points[i].total, ranking.first().copied());
        SweepPoint { index: i, machine, total, top_unit, memory_bound }
    }

    /// Point `i`'s unit ranking and whether its top unit is memory-bound: one fold.
    fn ranked(&self, i: usize) -> (Vec<StmtId>, bool) {
        let mut sums = Vec::new();
        self.index.fold(unit_row(&self.columns, i), &mut sums);
        let mut units: Vec<_> = self.index.reached(&sums).collect();
        units.sort_by(|a, b| unit_order((a.1.total, a.0), (b.1.total, b.0)));
        let bound = units.first().is_some_and(|(_, c)| c.tm > c.tc);
        (units.into_iter().map(|(unit, _)| unit).collect(), bound)
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
        app.project_on(&self.space.machine(i))
    }

    /// Point `i`'s speedup over point 0; infinite for a non-positive total.
    pub(crate) fn speedup(&self, i: usize) -> f64 {
        let total = self.points[i].total;
        if total > 0.0 {
            self.points[0].total / total
        } else {
            f64::INFINITY
        }
    }

    /// Unit ranking of one point without projecting it: the same fold
    /// and order as [`MachineProjection::ranking`] of the projected point.
    pub fn unit_ranking(&self, i: usize) -> Vec<StmtId> {
        self.ranked(i).0
    }

    /// Per-point deltas against the baseline (point 0): speedup, hot-spot
    /// ranking shifts, and bottleneck flips — the co-design questions a
    /// sweep exists to answer. Each point is folded once.
    pub fn deltas(&self) -> Vec<SweepDelta> {
        let mut base = None;
        (0..self.points.len())
            .map(|i| {
                let (ranking, bound) = self.ranked(i);
                let (base_ranking, base_bound) = base.get_or_insert_with(|| (ranking.clone(), bound));
                SweepDelta {
                    index: i,
                    machine: self.space.name(i),
                    speedup: self.speedup(i),
                    ranking_changed: ranking != *base_ranking,
                    bottleneck_flipped: bound != *base_bound,
                }
            })
            .collect()
    }
}

/// Render rows as an aligned table: point, machine, total, top unit, bound, speedup vs baseline.
fn format_rows(sweep: &Sweep, rows: impl Iterator<Item = SweepPoint>, units: &crate::units::Units) -> String {
    use std::fmt::Write;
    let mut s = format!(
        "{:<4} {:<40} {:>12} {:<24} {:>7} {:>9}\n",
        "#", "machine", "total (s)", "top unit", "bound", "speedup"
    );
    for p in rows {
        let top = p.top_unit.map(|u| units.name(u)).unwrap_or_else(|| "-".into());
        let (bound, speedup) = (if p.memory_bound { "mem" } else { "comp" }, sweep.speedup(p.index));
        let _ = writeln!(s, "{:<4} {:<40} {:>12.4e} {top:<24} {bound:>7} {speedup:>8.2}x", p.index, p.machine, p.total);
    }
    s
}

/// Render a sweep as a table in point order.
pub fn format_sweep(sweep: &Sweep, units: &crate::units::Units) -> String {
    format_rows(sweep, (0..sweep.points.len()).map(|i| sweep.row(i)), units)
}

/// Render the `k` fastest points of a sweep as a table, best first — the
/// `xflow sweep --top` view, ranked straight off the totals column without
/// projecting any point.
pub fn format_sweep_ranked(sweep: &Sweep, units: &crate::units::Units, k: usize) -> String {
    format_rows(sweep, sweep.top(k).into_iter(), units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_hotspot::columns::rank_order;
    use xflow_hw::{bgq, xeon};
    use xflow_workloads::Scale;

    fn cfd_app() -> ModeledApp {
        ModeledApp::from_workload(&xflow_workloads::cfd(), Scale::Test).unwrap()
    }

    /// The eager grid the lazy decode replaced, kept as its reference:
    /// every point cloned from the base, its axes applied last axis first
    /// and its name formatted in full.
    fn eager_grid(base: MachineModel, axes: Vec<Axis>) -> Vec<MachineModel> {
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
        machines
    }

    /// Every field of a machine, floats as bits; the exhaustive pattern
    /// breaks the build when a field is added.
    fn machine_bits(m: &MachineModel) -> (String, Vec<u64>) {
        let MachineModel {
            name,
            freq_ghz,
            cores,
            issue_width,
            vector_lanes,
            scalar_flops_per_cycle,
            l1,
            llc,
            dram_latency_cycles,
            dram_bw_gbs,
            l1_hit_rate,
            llc_hit_rate,
            mlp,
            load_store_per_cycle,
            vector_efficiency,
            fp_latency_cycles,
            fdiv_latency_cycles,
            int_latency_cycles,
        } = m;
        let mut bits: Vec<u64> = [
            freq_ghz,
            issue_width,
            vector_lanes,
            scalar_flops_per_cycle,
            dram_latency_cycles,
            dram_bw_gbs,
            l1_hit_rate,
            llc_hit_rate,
            mlp,
            load_store_per_cycle,
            vector_efficiency,
            fp_latency_cycles,
            fdiv_latency_cycles,
            int_latency_cycles,
        ]
        .iter()
        .map(|v| v.to_bits())
        .collect();
        for c in [l1, llc] {
            bits.extend([c.size_bytes, c.line_bytes as u64, c.assoc as u64, c.latency_cycles.to_bits()]);
        }
        bits.push(*cores as u64);
        (name.clone(), bits)
    }

    #[test]
    fn grid_is_cartesian_and_labeled() {
        let space = DesignSpace::grid(
            bgq(),
            vec![
                Axis::by_name("dram_bw_gbs", &[10.0, 20.0, 30.0]).unwrap(),
                Axis::by_name("mlp", &[2.0, 4.0]).unwrap(),
            ],
        );
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
        let space = DesignSpace::grid(
            bgq(),
            vec![
                Axis::by_name("dram_bw_gbs", &[10.0, 20.0, 40.0]).unwrap(),
                Axis::by_name("mlp", &[2.0, 4.0]).unwrap(),
            ],
        );
        let serial = space.sweep_opts(&app, SweepOptions::with_threads(1));
        for threads in [2, 4, 8] {
            let par = space.sweep_opts(&app, SweepOptions::with_threads(threads));
            assert_eq!(par.points.len(), serial.points.len());
            for (a, b) in (0..6).map(|i| (par.row(i), serial.row(i))) {
                assert_eq!((a.index, &a.machine), (b.index, &b.machine));
                assert_eq!(a.total.to_bits(), b.total.to_bits());
                assert_eq!(a.top_unit, b.top_unit);
                assert_eq!(a.memory_bound, b.memory_bound);
            }
        }
    }

    #[test]
    fn sweep_results_independent_of_chunk_size() {
        let app = cfd_app();
        let space = DesignSpace::grid(
            bgq(),
            vec![
                Axis::by_name("dram_bw_gbs", &[10.0, 20.0, 40.0]).unwrap(),
                Axis::by_name("mlp", &[2.0, 4.0]).unwrap(),
            ],
        );
        let serial = space.sweep_opts(&app, SweepOptions::with_threads(1));
        for (threads, chunk) in [(2, 1), (2, 3), (4, 2), (3, 64), (1, 2), (2, 7)] {
            let par = space.sweep_opts(&app, SweepOptions { threads, chunk, ..Default::default() });
            assert_eq!(par.points.len(), serial.points.len());
            for (a, b) in (0..6).map(|i| (par.row(i), serial.row(i))) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.total.to_bits(), b.total.to_bits(), "threads={threads} chunk={chunk}");
                assert_eq!(a.top_unit, b.top_unit);
            }
        }
    }

    #[test]
    fn plain_sweep_is_columnar_and_matches_project_on() {
        let app = cfd_app();
        let space = DesignSpace::grid(
            bgq(),
            vec![
                Axis::by_name("dram_bw_gbs", &[10.0, 20.0, 40.0]).unwrap(),
                Axis::by_name("mlp", &[2.0, 4.0]).unwrap(),
            ],
        );
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
        let space = DesignSpace::grid(bgq(), vec![Axis::by_name("cores", &[1.0, 2.0, 4.0, 8.0]).unwrap()]);
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
        let space = DesignSpace::grid(
            bgq(),
            vec![Axis::by_name("dram_bw_gbs", &[10.0, 20.0]).unwrap(), Axis::by_name("mlp", &[2.0, 4.0]).unwrap()],
        );

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
        let space = DesignSpace::grid(bgq(), vec![Axis::by_name("freq_ghz", &[0.8, 1.6, 3.2]).unwrap()]);
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
        let sweep = DesignSpace::grid(bgq(), vec![Axis::by_name("dram_bw_gbs", &[10.0, 40.0]).unwrap()])
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
        let space_axes = || {
            vec![
                Axis::by_name("dram_bw_gbs", &[10.0, 20.0, 40.0]).unwrap(),
                Axis::by_name("mlp", &[2.0, 4.0]).unwrap(),
                Axis::by_name("cores", &[8.0, 16.0]).unwrap(),
            ]
        };
        let space = DesignSpace::grid(bgq(), space_axes());
        let n = space.len();
        let eager = eager_grid(bgq(), space_axes());
        let plain = space.sweep_opts(&app, SweepOptions::with_threads(1));
        for threads in [1, 2, 4] {
            for chunk in [1, 3, 64] {
                let ctx = format!("threads={threads} chunk={chunk}");
                let rec = CollectingRecorder::new();
                let observed = space.sweep_opts(&app, SweepOptions { threads, chunk, recorder: &rec });
                // the recorded sweep fills the same arena, bit for bit
                assert_eq!(observed.columns().points(), n, "{ctx}");
                for i in 0..n {
                    let (a, b) = (observed.row(i), plain.row(i));
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
                let snap = rec.snapshot();
                assert_eq!(snap.spans.iter().filter(|s| s.name == "sweep.point").count(), n, "{ctx}");
                assert_eq!(snap.spans.iter().filter(|s| s.name == "kernel.evaluate").count(), n, "{ctx}");
                let sweep_span = snap.spans.iter().find(|s| s.name == "sweep").unwrap();
                assert!(sweep_span.attrs.iter().any(|(k, _)| k == "points"));
                // every point span names its full axis=value coordinates
                for s in snap.spans.iter().filter(|s| s.name == "sweep.point") {
                    let attr = |key: &str| s.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).unwrap();
                    let xflow_obs::OwnedAttr::U64(i) = attr("index") else { panic!("index attr should be a u64") };
                    assert_eq!(attr("machine"), xflow_obs::OwnedAttr::Str(eager[i as usize].name.clone()), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn nan_totals_rank_last_without_panicking() {
        // a zero clock projects NaN totals (x86's default NaN, sign bit
        // set); the grid sweeps such points, and the rankings must still
        // be a total order that puts every finite point first
        let app = cfd_app();
        let freqs: Vec<f64> = (0..60).map(|i| if i % 3 == 0 { 0.0 } else { 1.0 + (i % 7) as f64 * 0.25 }).collect();
        let sweep = DesignSpace::grid(xeon(), vec![Axis::by_name("freq_ghz", &freqs).unwrap()])
            .sweep_opts(&app, SweepOptions::default());
        assert_eq!(sweep.points.iter().filter(|p| p.total.is_nan()).count(), 20);
        let mut ranked = sweep.points.clone();
        ranked.sort_by(|a, b| rank_order(a.total, b.total));
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
        // infinite frequency underflows every cycle time; the traced fill
        // runs those points one at a time like any other
        let space = DesignSpace::grid(
            bgq(),
            vec![
                Axis::by_name("freq_ghz", &[1.6, f64::INFINITY]).unwrap(),
                Axis::by_name("dram_bw_gbs", &[10.0, 40.0]).unwrap(),
                Axis::by_name("mlp", &[2.0, 4.0]).unwrap(),
            ],
        );
        let n = space.len();
        let plain = space.sweep_opts(&app, SweepOptions::with_threads(1));
        // on the second half of the grid, statements that carry time on a
        // finite clock drop out
        for i in n / 2..n {
            let cols = plain.columns();
            assert!(cols.stmt_row(i).count() < cols.stmt_row(i - n / 2).count(), "point {i} is not degenerate");
        }
        let reference: Vec<u64> =
            space.machines().iter().map(|m| app.plan().evaluate(m, &xflow_hw::Roofline).total_time.to_bits()).collect();
        for threads in [1, 2, 4] {
            for chunk in [1, 3, 64] {
                let ctx = format!("threads={threads} chunk={chunk}");
                let rec = CollectingRecorder::new();
                let traced = space.sweep_opts(&app, SweepOptions { threads, chunk, recorder: &rec });
                let (a, b) = (traced.columns(), plain.columns());
                for (i, &want) in reference.iter().enumerate() {
                    assert_eq!(a.total(i).to_bits(), b.total(i).to_bits(), "{ctx} point {i}");
                    assert_eq!(a.total(i).to_bits(), want, "{ctx} point {i}");
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
                // every point, degenerate or not, is one traced point fill
                let snap = rec.snapshot();
                assert_eq!(snap.spans.iter().filter(|s| s.name == "sweep.point").count(), n, "{ctx}");
                assert_eq!(snap.spans.iter().filter(|s| s.name == "kernel.evaluate").count(), n, "{ctx}");
                assert_eq!(rec.counter_value("plan.blocks"), (n * app.kernel().len()) as u64, "{ctx}");
            }
        }
    }

    #[test]
    fn small_auto_sweeps_stay_on_one_worker() {
        use xflow_obs::{CollectingRecorder, OwnedAttr};
        let app = cfd_app();
        let space = DesignSpace::grid(
            bgq(),
            vec![
                Axis::by_name("dram_bw_gbs", &[0.5, 1.0, 2.0, 4.0, 8.0]).unwrap(),
                Axis::by_name("mlp", &[2.0, 4.0, 8.0, 16.0, 32.0]).unwrap(),
            ],
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

    #[test]
    fn lazy_grid_matches_the_eager_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const NAMES: [&str; 10] = [
            "dram_bw_gbs",
            "cores",
            "mlp",
            "freq_ghz",
            "vector_lanes",
            "issue_width",
            "l1_hit_rate",
            "llc_hit_rate",
            "vector_efficiency",
            "load_store_per_cycle",
        ];
        let app = cfd_app();
        let bases = [bgq(), xeon(), xflow_hw::knl(), xflow_hw::generic()];
        let mut rng = StdRng::seed_from_u64(0x5eed_9e1d);
        let mut grids: Vec<(MachineModel, Vec<Axis>)> = vec![
            (bgq(), vec![Axis::by_name("mlp", &[1.5, 3.0, 6.0]).unwrap()]),
            (
                xeon(),
                vec![
                    Axis::by_name("dram_bw_gbs", &[8.0, 16.0]).unwrap(),
                    Axis::new("mlp", &[], |m, v| m.mlp = v),
                    Axis::by_name("cores", &[2.0]).unwrap(),
                ],
            ),
            (bgq(), vec![Axis::new("cores", &[], |m, v| m.cores = v as u32)]),
            (xeon(), vec![]),
        ];
        for _ in 0..40 {
            let base = bases[rng.gen_range(0..bases.len())].clone();
            let axes = (0..rng.gen_range(1..5usize))
                .map(|_| {
                    // repeated names write one field twice: application order shows
                    let name = NAMES[rng.gen_range(0..NAMES.len())];
                    let values: Vec<f64> = (0..rng.gen_range(1..5usize)).map(|_| rng.gen_range(0.05..64.0)).collect();
                    if rng.gen_bool(0.1) {
                        Axis::new(name, &[], |m, v| m.mlp = v)
                    } else {
                        Axis::by_name(name, &values).unwrap()
                    }
                })
                .collect();
            grids.push((base, axes));
        }
        for (g, (base, axes)) in grids.into_iter().enumerate() {
            let eager = eager_grid(base.clone(), axes.clone());
            let space = DesignSpace::grid(base, axes);
            assert_eq!(space.len(), eager.len(), "grid {g}");
            let sweep = space.sweep_opts(&app, SweepOptions::with_threads(1));
            for (i, want) in eager.iter().enumerate() {
                let ctx = format!("grid {g} point {i}");
                assert_eq!(machine_bits(&space.machine(i)), machine_bits(want), "{ctx}");
                assert_eq!(machine_bits(&space.machines()[i]), machine_bits(want), "{ctx}");
                assert_eq!(sweep.row(i).machine, want.name, "{ctx}");
                // every value is finite and positive, so no spec field is
                // NaN and Debug prints each float exactly
                let spec = format!("{:?}", sweep.columns().specs()[i]);
                assert_eq!(spec, format!("{:?}", MachineSpec::resolve(want)), "{ctx}");
            }
        }
    }

    #[test]
    fn top_is_a_prefix_of_the_full_stable_sort() {
        // zero clocks project NaN totals and repeated clocks tie; top(k)
        // must still equal the first k points of one stable sort
        let app = cfd_app();
        let freqs = [2.0, 0.0, 1.0, 2.0, 0.0, 3.0, 1.0, 2.0, 0.0, 3.0, 1.0];
        let space = DesignSpace::grid(
            xeon(),
            vec![Axis::by_name("freq_ghz", &freqs).unwrap(), Axis::by_name("mlp", &[4.0, 4.0]).unwrap()],
        );
        let sweep = space.sweep_opts(&app, SweepOptions::with_threads(1));
        let mut sorted = sweep.points.clone();
        sorted.sort_by(|a, b| rank_order(a.total, b.total));
        assert!(sorted.iter().any(|p| p.total.is_nan()));
        for k in 0..=sorted.len() + 1 {
            let top = sweep.top(k);
            let want: Vec<usize> = sorted.iter().take(k).map(|p| p.index).collect();
            assert_eq!(top.iter().map(|p| p.index).collect::<Vec<_>>(), want, "k={k}");
            for p in &top {
                assert_eq!(p.total.to_bits(), sweep.points[p.index].total.to_bits());
            }
        }
        assert_eq!(sweep.best().map(|p| p.index), Some(sorted[0].index));
    }

    #[test]
    fn rows_agree_with_hydrated_points() {
        let app = cfd_app();
        let space = DesignSpace::grid(
            bgq(),
            vec![
                Axis::by_name("dram_bw_gbs", &[0.5, 4.0, 40.0]).unwrap(),
                Axis::by_name("freq_ghz", &[0.8, 3.2]).unwrap(),
                Axis::by_name("mlp", &[1.0, 8.0]).unwrap(),
            ],
        );
        let sweep = space.sweep_opts(&app, SweepOptions::with_threads(2));
        let rows: Vec<SweepPoint> = (0..space.len()).map(|i| sweep.row(i)).collect();
        let deltas = sweep.deltas();
        assert!(rows.iter().any(|r| r.memory_bound) && rows.iter().any(|r| !r.memory_bound));
        for (i, row) in rows.iter().enumerate() {
            let mp = sweep.hydrate(&app, i);
            assert_eq!(row.machine, mp.machine.name);
            assert_eq!(row.total.to_bits(), mp.total.to_bits());
            let top = mp.ranking().first().copied();
            assert_eq!(row.top_unit, top);
            assert_eq!(row.memory_bound, top.is_some_and(|u| mp.unit_breakdown[&u].bound() == "memory"));
            let one = sweep.row(i);
            assert_eq!(
                (one.index, &one.machine, one.top_unit, one.memory_bound),
                (i, &row.machine, top, row.memory_bound)
            );
            let d = &deltas[i];
            assert_eq!((d.index, &d.machine), (i, &row.machine));
            assert_eq!(d.speedup.to_bits(), sweep.speedup(i).to_bits());
            assert_eq!(d.ranking_changed, sweep.unit_ranking(i) != sweep.unit_ranking(0));
            assert_eq!(d.bottleneck_flipped, row.memory_bound != rows[0].memory_bound);
        }
    }
}
