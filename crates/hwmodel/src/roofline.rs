//! The extended roofline projection model (paper Section V-A).
//!
//! Given per-invocation operation statistics of a code block, the model
//! computes:
//!
//! * `Tc` — time to process the computation (issue-width/flop-pipe bound),
//! * `Tm` — time to move the required data (bandwidth- or latency-bound,
//!   under a constant cache hit rate),
//! * `To = min(Tc, Tm) · δ` with `δ = 1 − 1/max(1, N_flops)` — the expected
//!   overlap between computation and memory access; blocks with few flops
//!   cannot hide memory time behind computation,
//! * `T  = Tc + Tm − To` — the projected wall time of one invocation.
//!
//! The classic roofline (perfect overlap, `T = max(Tc, Tm)`) is recovered as
//! δ → 1. Two ablation variants quantify the paper's reported error sources:
//! [`DivAwareRoofline`] charges floating point divides their real latency
//! (CFD hot spot 6, Section VII-B), and [`VectorAwareRoofline`] assumes the
//! compiler fully vectorizes (STASSUIJ hot spot 1).

use crate::machine::MachineModel;
use serde::{Deserialize, Serialize};

/// Concrete (numeric) per-invocation operation statistics of a code block.
///
/// This is the evaluated counterpart of `xflow_skeleton::OpStats`: all
/// expressions resolved against the block's BET context.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BlockMetrics {
    /// Floating point operations.
    pub flops: f64,
    /// Fixed point operations.
    pub iops: f64,
    /// Data elements loaded.
    pub loads: f64,
    /// Data elements stored.
    pub stores: f64,
    /// Floating point divides (subset of `flops`).
    pub divs: f64,
    /// Bytes per data element.
    pub elem_bytes: f64,
}

impl BlockMetrics {
    /// Total memory accesses.
    pub fn accesses(&self) -> f64 {
        self.loads + self.stores
    }

    /// Total bytes touched (before cache filtering).
    pub fn bytes(&self) -> f64 {
        self.accesses() * self.elem_bytes
    }

    /// Operational intensity in flops per byte (∞-safe: returns 0 when no
    /// bytes are moved and no flops executed, f64::INFINITY for pure
    /// compute).
    pub fn operational_intensity(&self) -> f64 {
        let b = self.bytes();
        if b == 0.0 {
            if self.flops == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.flops / b
        }
    }

    /// Element-wise accumulate (used for bottom-up aggregation).
    pub fn add_scaled(&mut self, other: &BlockMetrics, scale: f64) {
        // Element size is a weighted blend so bytes() stays consistent.
        let self_acc = self.accesses();
        let other_acc = other.accesses() * scale;
        let total_acc = self_acc + other_acc;
        if total_acc > 0.0 {
            self.elem_bytes = (self.elem_bytes * self_acc + other.elem_bytes * other_acc) / total_acc;
        }
        self.flops += other.flops * scale;
        self.iops += other.iops * scale;
        self.loads += other.loads * scale;
        self.stores += other.stores * scale;
        self.divs += other.divs * scale;
    }
}

/// Projected timing of one invocation of a code block, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BlockTime {
    /// Computation time.
    pub tc: f64,
    /// Memory movement time.
    pub tm: f64,
    /// Overlapped portion.
    pub overlap: f64,
    /// Total projected time `tc + tm − overlap`.
    pub total: f64,
}

impl BlockTime {
    /// Whether the block is memory-bound (`tm > tc`).
    pub fn memory_bound(&self) -> bool {
        self.tm > self.tc
    }
}

/// Machine-independent summary of one cost-carrying block, precomputed once
/// per application and re-evaluated cheaply per machine.
///
/// A projection plan stores one of these per `comp`/`lib` BET node; phase 2
/// of the two-phase engine hands it to [`PerfModel::project_block`] with a
/// concrete machine and gets the per-invocation [`BlockTime`] back without
/// touching the tree, the library registry, or the ENR recurrences again.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockSummary {
    /// Evaluated operation counts of one invocation.
    pub metrics: BlockMetrics,
    /// Expected number of repetitions of the block.
    pub enr: f64,
    /// Parallelism available from enclosing parallel loops (≥ 1).
    pub avail_par: f64,
    /// Whether the block may use that parallelism. Library calls are
    /// projected serially (their internal mix is opaque), so they carry
    /// `false` regardless of context.
    pub parallelizable: bool,
}

impl BlockSummary {
    /// Effective thread count on a machine: available parallelism clamped
    /// by the core count, and at least one thread.
    pub fn threads_on(&self, machine: &MachineModel) -> f64 {
        self.threads_with_cores(machine.cores as f64)
    }

    /// [`BlockSummary::threads_on`] against a pre-resolved core count, so
    /// loops over many blocks of one machine hoist the `cores as f64`
    /// conversion out of the per-block work.
    pub fn threads_with_cores(&self, cores: f64) -> f64 {
        if self.parallelizable {
            self.avail_par.min(cores).max(1.0)
        } else {
            1.0
        }
    }
}

/// A hardware performance model: projects block metrics to time on a
/// machine. The paper uses the (extended) roofline model but notes that
/// "more sophisticated models can be used" — this trait is that seam.
pub trait PerfModel: Send + Sync {
    /// Project the wall time of a single invocation of a block.
    fn project(&self, machine: &MachineModel, m: &BlockMetrics) -> BlockTime;

    /// Project the per-invocation wall time when `threads` copies of the
    /// block execute concurrently (a `parloop` body): per-core resources
    /// scale with the thread count, shared resources do not. The default is
    /// the optimistic linear-speedup estimate; [`Roofline`] refines it by
    /// keeping the DRAM bandwidth term shared.
    fn project_parallel(&self, machine: &MachineModel, m: &BlockMetrics, threads: f64) -> BlockTime {
        let t = self.project(machine, m);
        let p = threads.max(1.0);
        BlockTime { tc: t.tc / p, tm: t.tm / p, overlap: t.overlap / p, total: t.total / p }
    }

    /// Project one invocation of a summarized block: resolves the block's
    /// effective thread count against the machine and dispatches to the
    /// serial or concurrent projection. This is the whole per-machine work
    /// of the two-phase engine's evaluation loop.
    fn project_block(&self, machine: &MachineModel, block: &BlockSummary) -> BlockTime {
        let threads = block.threads_on(machine);
        if threads > 1.0 {
            self.project_parallel(machine, &block.metrics, threads)
        } else {
            self.project(machine, &block.metrics)
        }
    }

    /// Short name for reports.
    fn name(&self) -> &str;
}

/// The paper's extended roofline model.
///
/// All floating point operations are treated equally and vectorization is
/// not modeled — both are explicit first-order simplifications the paper
/// discusses in its error analysis (Section VII-C).
#[derive(Debug, Clone, Copy, Default)]
pub struct Roofline;

impl Roofline {
    /// Compute-time component in seconds.
    ///
    /// The fraction of flop work the machine's toolchain is assumed to
    /// vectorize (`vector_efficiency`) executes across the SIMD lanes; the
    /// rest is scalar. The slower of the flop-pipe bound and the issue-width
    /// bound governs.
    fn tc(machine: &MachineModel, m: &BlockMetrics) -> f64 {
        let veff = machine.vector_efficiency;
        let eff_flops = m.flops * (1.0 - veff) + m.flops * veff / machine.vector_lanes;
        let flop_cycles = eff_flops / machine.scalar_flops_per_cycle;
        let issue_cycles = (eff_flops + m.iops) / machine.issue_width;
        flop_cycles.max(issue_cycles) * machine.cycle_seconds()
    }

    /// Memory-time components in seconds under constant hit rates:
    /// `(per_core, shared)` where `per_core` is the slower of the L1 port
    /// throughput and MLP-overlapped miss latency (both private per core)
    /// and `shared` is the DRAM bandwidth term (shared across cores).
    fn tm_parts(machine: &MachineModel, m: &BlockMetrics) -> (f64, f64) {
        let accesses = m.accesses();
        if accesses == 0.0 {
            return (0.0, 0.0);
        }
        let port_cycles = accesses / machine.load_store_per_cycle;
        let miss_lat = machine.llc_hit_rate * machine.llc.latency_cycles
            + (1.0 - machine.llc_hit_rate) * machine.dram_latency_cycles;
        let lat_cycles = accesses * (1.0 - machine.l1_hit_rate) * miss_lat / machine.mlp;
        let post_l1_bytes = m.bytes() * (1.0 - machine.l1_hit_rate);
        let bw_time = post_l1_bytes / (machine.dram_bw_gbs * 1e9);
        (port_cycles.max(lat_cycles) * machine.cycle_seconds(), bw_time)
    }

    /// Memory-time component in seconds under constant hit rates.
    ///
    /// Three bounds, the slowest governs:
    /// * L1 port throughput — every access occupies a load/store port;
    /// * miss latency — accesses missing L1 wait for LLC/DRAM, overlapped
    ///   by the machine's memory-level parallelism;
    /// * bandwidth — traffic past L1 consumes sustainable DRAM bandwidth.
    fn tm(machine: &MachineModel, m: &BlockMetrics) -> f64 {
        let (per_core, shared) = Self::tm_parts(machine, m);
        per_core.max(shared)
    }

    /// Degree of overlap δ = 1 − 1/max(1, N_flops).
    fn delta(flops: f64) -> f64 {
        1.0 - 1.0 / flops.max(1.0)
    }

    /// Assemble a [`BlockTime`] from precomputed components.
    fn assemble(tc: f64, tm: f64, flops: f64) -> BlockTime {
        let overlap = tc.min(tm) * Self::delta(flops);
        BlockTime { tc, tm, overlap, total: tc + tm - overlap }
    }
}

impl PerfModel for Roofline {
    fn project(&self, machine: &MachineModel, m: &BlockMetrics) -> BlockTime {
        Self::assemble(Self::tc(machine, m), Self::tm(machine, m), m.flops)
    }

    fn project_parallel(&self, machine: &MachineModel, m: &BlockMetrics, threads: f64) -> BlockTime {
        let p = threads.max(1.0);
        let tc = Self::tc(machine, m) / p;
        let (per_core, shared) = Self::tm_parts(machine, m);
        // per-core port/latency capacity multiplies with threads; the
        // aggregate bandwidth demand of p concurrent iterations still
        // crosses one memory bus, so the per-iteration bandwidth share is
        // unchanged.
        let tm = (per_core / p).max(shared);
        Self::assemble(tc, tm, m.flops)
    }

    fn name(&self) -> &str {
        "roofline"
    }
}

/// Ablation: like [`Roofline`] but charges floating point divides their
/// documented latency instead of treating them as single flops.
#[derive(Debug, Clone, Copy, Default)]
pub struct DivAwareRoofline;

impl PerfModel for DivAwareRoofline {
    fn project(&self, machine: &MachineModel, m: &BlockMetrics) -> BlockTime {
        let tc_base = Roofline::tc(machine, m);
        // Each divide occupies the fp pipe for fdiv_latency instead of 1/Θ.
        let div_extra_cycles = m.divs * (machine.fdiv_latency_cycles - 1.0 / machine.scalar_flops_per_cycle).max(0.0);
        let tc = tc_base + div_extra_cycles * machine.cycle_seconds();
        Roofline::assemble(tc, Roofline::tm(machine, m), m.flops)
    }

    fn name(&self) -> &str {
        "roofline+div"
    }
}

/// Ablation: like [`Roofline`] but assumes the compiler fully vectorizes
/// floating point work across the machine's SIMD lanes.
#[derive(Debug, Clone, Copy, Default)]
pub struct VectorAwareRoofline;

impl PerfModel for VectorAwareRoofline {
    fn project(&self, machine: &MachineModel, m: &BlockMetrics) -> BlockTime {
        let flop_cycles = m.flops / (machine.scalar_flops_per_cycle * machine.vector_lanes);
        let issue_cycles = (m.flops / machine.vector_lanes + m.iops) / machine.issue_width;
        let tc = flop_cycles.max(issue_cycles) * machine.cycle_seconds();
        Roofline::assemble(tc, Roofline::tm(machine, m), m.flops)
    }

    fn name(&self) -> &str {
        "roofline+simd"
    }
}

/// The classic two-parameter roofline bound (perfect overlap), provided for
/// comparison: `T = max(Tc, Tm)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassicRoofline;

impl PerfModel for ClassicRoofline {
    fn project(&self, machine: &MachineModel, m: &BlockMetrics) -> BlockTime {
        let tc = Roofline::tc(machine, m);
        let tm = Roofline::tm(machine, m);
        let total = tc.max(tm);
        BlockTime { tc, tm, overlap: tc.min(tm), total }
    }

    fn name(&self) -> &str {
        "roofline-classic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{bgq, generic, xeon};

    fn metrics(flops: f64, loads: f64, stores: f64) -> BlockMetrics {
        BlockMetrics { flops, iops: 0.0, loads, stores, divs: 0.0, elem_bytes: 8.0 }
    }

    #[test]
    fn zero_block_costs_nothing() {
        let t = Roofline.project(&generic(), &BlockMetrics::default());
        assert_eq!(t.total, 0.0);
        assert_eq!(t.tc, 0.0);
        assert_eq!(t.tm, 0.0);
    }

    #[test]
    fn pure_compute_has_no_memory_time() {
        let t = Roofline.project(&generic(), &metrics(1000.0, 0.0, 0.0));
        assert!(t.tc > 0.0);
        assert_eq!(t.tm, 0.0);
        assert!(!t.memory_bound());
        assert!((t.total - t.tc).abs() < 1e-15);
    }

    #[test]
    fn pure_memory_has_no_compute_time() {
        let t = Roofline.project(&generic(), &metrics(0.0, 1000.0, 0.0));
        assert_eq!(t.tc, 0.0);
        assert!(t.tm > 0.0);
        assert!(t.memory_bound());
        // With zero flops δ = 0: no overlap at all.
        assert_eq!(t.overlap, 0.0);
    }

    #[test]
    fn total_bounded_by_components() {
        let m = generic();
        for (f, l) in [(10.0, 10.0), (1.0, 100.0), (10_000.0, 3.0), (5.0, 5.0)] {
            let t = Roofline.project(&m, &metrics(f, l, l / 2.0));
            assert!(t.total <= t.tc + t.tm + 1e-18);
            assert!(t.total >= t.tc.max(t.tm) - 1e-18, "total {} tc {} tm {}", t.total, t.tc, t.tm);
        }
    }

    #[test]
    fn small_flop_blocks_overlap_less() {
        let m = generic();
        let small = Roofline.project(&m, &metrics(2.0, 50.0, 0.0));
        let large = Roofline.project(&m, &metrics(2000.0, 50.0, 0.0));
        let small_frac = small.overlap / small.tc.min(small.tm);
        let large_frac = large.overlap / large.tc.min(large.tm);
        assert!(small_frac < large_frac);
    }

    #[test]
    fn delta_limits() {
        assert_eq!(Roofline::delta(0.0), 0.0);
        assert_eq!(Roofline::delta(1.0), 0.0);
        assert!((Roofline::delta(2.0) - 0.5).abs() < 1e-12);
        assert!(Roofline::delta(1e9) > 0.999);
    }

    #[test]
    fn div_aware_charges_more_only_with_divides() {
        let m = bgq();
        let no_div = metrics(100.0, 10.0, 0.0);
        let mut with_div = no_div;
        with_div.divs = 50.0;
        let base = Roofline.project(&m, &no_div).total;
        let same = DivAwareRoofline.project(&m, &no_div).total;
        let more = DivAwareRoofline.project(&m, &with_div).total;
        assert!((base - same).abs() < 1e-18);
        assert!(more > base, "divides must cost extra: {more} vs {base}");
    }

    #[test]
    fn vector_aware_is_faster_for_compute_bound() {
        let m = bgq();
        let mm = metrics(100_000.0, 10.0, 0.0);
        let scalar = Roofline.project(&m, &mm).total;
        let simd = VectorAwareRoofline.project(&m, &mm).total;
        assert!(simd < scalar);
        assert!(scalar / simd > 2.0, "4-lane SIMD should approach 4x: {}", scalar / simd);
    }

    #[test]
    fn classic_roofline_is_lower_bound() {
        let m = generic();
        let mm = metrics(100.0, 100.0, 10.0);
        let ext = Roofline.project(&m, &mm).total;
        let classic = ClassicRoofline.project(&m, &mm).total;
        assert!(classic <= ext + 1e-18);
    }

    #[test]
    fn xeon_more_memory_bound_than_bgq_for_same_block() {
        // The paper's Figure 7 observation: identical blocks shift toward
        // memory-boundedness on Xeon.
        let mm = metrics(64.0, 32.0, 16.0);
        let q = Roofline.project(&bgq(), &mm);
        let x = Roofline.project(&xeon(), &mm);
        let q_mem_frac = q.tm / (q.tc + q.tm);
        let x_mem_frac = x.tm / (x.tc + x.tm);
        assert!(x_mem_frac > q_mem_frac, "xeon {x_mem_frac} vs bgq {q_mem_frac}");
    }

    #[test]
    fn operational_intensity() {
        let m = metrics(16.0, 1.0, 1.0);
        assert!((m.operational_intensity() - 1.0).abs() < 1e-12);
        assert_eq!(BlockMetrics::default().operational_intensity(), 0.0);
        let pure = metrics(5.0, 0.0, 0.0);
        assert!(pure.operational_intensity().is_infinite());
    }

    #[test]
    fn add_scaled_accumulates_and_blends_bytes() {
        let mut a = BlockMetrics { flops: 1.0, iops: 0.0, loads: 2.0, stores: 0.0, divs: 0.0, elem_bytes: 8.0 };
        let b = BlockMetrics { flops: 3.0, iops: 1.0, loads: 2.0, stores: 2.0, divs: 1.0, elem_bytes: 4.0 };
        a.add_scaled(&b, 2.0);
        assert_eq!(a.flops, 7.0);
        assert_eq!(a.iops, 2.0);
        assert_eq!(a.loads, 6.0);
        assert_eq!(a.stores, 4.0);
        assert_eq!(a.divs, 2.0);
        // blended: (8*2 + 4*8) / 10 = 4.8
        assert!((a.elem_bytes - 4.8).abs() < 1e-12);
        // bytes consistency: 10 accesses * 4.8 = 48 = 2*8 + 8*4
        assert!((a.bytes() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn higher_bandwidth_machine_reduces_memory_time() {
        use crate::machine::MachineBuilder;
        let base = generic();
        let fat = MachineBuilder::from(base.clone()).dram_bw_gbs(base.dram_bw_gbs * 8.0).build();
        // Streaming access pattern (wide elements) is bandwidth-bound.
        let mut mm = metrics(1.0, 100_000.0, 0.0);
        mm.elem_bytes = 64.0;
        let t_base = Roofline.project(&base, &mm).tm;
        let t_fat = Roofline.project(&fat, &mm).tm;
        assert!(t_fat < t_base, "fat {t_fat} base {t_base}");
    }
}
