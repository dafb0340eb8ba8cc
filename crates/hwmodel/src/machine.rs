//! Parameterized machine descriptions.
//!
//! A [`MachineModel`] is the complete set of hardware parameters consumed by
//! the projection model (`roofline`) and by the ground-truth simulator
//! (`xflow-sim`). The two preset machines mirror the paper's evaluation
//! platforms: an IBM Blue Gene/Q node and an Intel Xeon E5-2420 node, using
//! the latencies the authors measured with microbenchmarks (BG/Q L2 51
//! cycles, DRAM 180 cycles).

use serde::{Deserialize, Serialize};

/// Cache level parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheLevel {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity (ways).
    pub assoc: u32,
    /// Access latency in core clock cycles.
    pub latency_cycles: f64,
}

impl CacheLevel {
    /// Number of sets; at least 1.
    pub fn sets(&self) -> u64 {
        (self.size_bytes / (self.line_bytes as u64 * self.assoc as u64)).max(1)
    }
}

/// Complete hardware parameter set for one target machine.
///
/// All rates are per *core*; the paper's analysis is single-threaded per
/// rank, so node-level resources (shared LLC, memory bandwidth) are divided
/// by the core count when building the preset machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// Display name, e.g. `"BG/Q"`.
    pub name: String,
    /// Core clock frequency in GHz.
    pub freq_ghz: f64,
    /// Cores per node (informational; projections are per core).
    pub cores: u32,
    /// Instructions issued per cycle (in-order width).
    pub issue_width: f64,
    /// SIMD lanes for f64 arithmetic.
    pub vector_lanes: f64,
    /// Peak floating point operations per cycle per core *without* SIMD
    /// (e.g. 2 for a fused multiply-add pipe).
    pub scalar_flops_per_cycle: f64,
    /// L1 data cache.
    pub l1: CacheLevel,
    /// Last-level (shared) cache.
    pub llc: CacheLevel,
    /// DRAM access latency in core cycles.
    pub dram_latency_cycles: f64,
    /// Sustainable memory bandwidth per core in GB/s.
    pub dram_bw_gbs: f64,
    /// Constant L1 hit rate assumed by the first-order projection model
    /// (paper Section V-A footnote; see DESIGN.md on the hit/miss wording).
    pub l1_hit_rate: f64,
    /// Constant LLC hit rate (for accesses that miss L1).
    pub llc_hit_rate: f64,
    /// Memory-level parallelism: outstanding misses the core can overlap.
    pub mlp: f64,
    /// Loads+stores the core can issue per cycle (L1 port throughput).
    pub load_store_per_cycle: f64,
    /// Fraction of floating point work the *toolchain* is assumed to
    /// vectorize on this machine, in `[0, 1]`. The paper observes that the
    /// Xeon binaries are "highly vectorized by default" while the BG/Q XL
    /// compiler's vectorization is not modeled — setting 0.8 vs 0.0 here
    /// reproduces both the Figure 7 memory-bound shift on Xeon and the
    /// Figure 13 STASSUIJ over-projection on BG/Q.
    pub vector_efficiency: f64,
    /// Latency of a floating point add/mul in cycles.
    pub fp_latency_cycles: f64,
    /// Latency of a floating point divide in cycles. The *projection* model
    /// deliberately ignores this (the paper treats all fp ops equally —
    /// Section VII-B discusses the resulting CFD error); the simulator and
    /// the divide-aware ablation model use it.
    pub fdiv_latency_cycles: f64,
    /// Latency of an integer ALU op in cycles.
    pub int_latency_cycles: f64,
}

impl MachineModel {
    /// Peak scalar GFLOP/s per core (no SIMD).
    pub fn peak_scalar_gflops(&self) -> f64 {
        self.freq_ghz * self.scalar_flops_per_cycle
    }

    /// Peak SIMD GFLOP/s per core.
    pub fn peak_vector_gflops(&self) -> f64 {
        self.peak_scalar_gflops() * self.vector_lanes
    }

    /// Seconds per core clock cycle.
    pub fn cycle_seconds(&self) -> f64 {
        1e-9 / self.freq_ghz
    }

    /// Average memory access latency in cycles under the constant-hit-rate
    /// assumption of the projection model.
    pub fn avg_access_latency_cycles(&self) -> f64 {
        let l1 = self.l1_hit_rate;
        let llc = self.llc_hit_rate;
        l1 * self.l1.latency_cycles
            + (1.0 - l1) * (llc * self.llc.latency_cycles + (1.0 - llc) * self.dram_latency_cycles)
    }

    /// Fraction of accesses that reach DRAM under the constant-hit-rate
    /// assumption.
    pub fn dram_access_fraction(&self) -> f64 {
        (1.0 - self.l1_hit_rate) * (1.0 - self.llc_hit_rate)
    }

    /// Validate parameter sanity; returns problems (empty = ok).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let pos = |v: f64, what: &str, errs: &mut Vec<String>| {
            if v <= 0.0 || !v.is_finite() {
                errs.push(format!("{what} must be positive and finite, got {v}"));
            }
        };
        pos(self.freq_ghz, "freq_ghz", &mut errs);
        pos(self.issue_width, "issue_width", &mut errs);
        pos(self.vector_lanes, "vector_lanes", &mut errs);
        pos(self.scalar_flops_per_cycle, "scalar_flops_per_cycle", &mut errs);
        pos(self.dram_bw_gbs, "dram_bw_gbs", &mut errs);
        pos(self.dram_latency_cycles, "dram_latency_cycles", &mut errs);
        pos(self.mlp, "mlp", &mut errs);
        pos(self.load_store_per_cycle, "load_store_per_cycle", &mut errs);
        if !(0.0..=1.0).contains(&self.vector_efficiency) {
            errs.push(format!("vector_efficiency must be in [0,1], got {}", self.vector_efficiency));
        }
        for (r, what) in [(self.l1_hit_rate, "l1_hit_rate"), (self.llc_hit_rate, "llc_hit_rate")] {
            if !(0.0..=1.0).contains(&r) {
                errs.push(format!("{what} must be in [0,1], got {r}"));
            }
        }
        if self.l1.size_bytes == 0 || self.llc.size_bytes == 0 {
            errs.push("cache sizes must be nonzero".into());
        }
        for (level, what) in [(&self.l1, "l1"), (&self.llc, "llc")] {
            if !level.line_bytes.is_power_of_two() {
                errs.push(format!("{what} line size must be a nonzero power of two"));
            }
            if level.assoc == 0 {
                errs.push(format!("{what} associativity must be nonzero"));
            }
        }
        errs
    }
}

/// Preset: IBM Blue Gene/Q node (PowerPC A2), per the paper's Section VI.
///
/// 16 cores at 1.6 GHz, 16 KB L1D, 32 MB shared L2 at 51 cycles, DRAM at
/// 180 cycles, ~42.7 GB/s node bandwidth. A2 is a 2-issue in-order core
/// with a 4-wide QPX FMA unit.
pub fn bgq() -> MachineModel {
    MachineModel {
        name: "BG/Q".into(),
        freq_ghz: 1.6,
        cores: 16,
        issue_width: 2.0,
        vector_lanes: 4.0,
        scalar_flops_per_cycle: 2.0, // FMA
        l1: CacheLevel { size_bytes: 16 * 1024, line_bytes: 64, assoc: 8, latency_cycles: 6.0 },
        llc: CacheLevel { size_bytes: 32 * 1024 * 1024, line_bytes: 128, assoc: 16, latency_cycles: 51.0 },
        dram_latency_cycles: 180.0,
        dram_bw_gbs: 42.7 / 16.0,
        l1_hit_rate: 0.85,
        llc_hit_rate: 0.85,
        mlp: 8.0, // L1p stream prefetcher sustains several in-flight lines
        load_store_per_cycle: 1.0,
        vector_efficiency: 0.0, // XL auto-QPX-vectorization not modeled (paper VII-B)
        fp_latency_cycles: 6.0,
        fdiv_latency_cycles: 32.0, // expanded to reciprocal estimate + Newton iterations
        int_latency_cycles: 1.0,
    }
}

/// Preset: Intel Xeon E5-2420 node (Sandy Bridge EP), per Section VI.
///
/// 12 cores (2 × 6) at 1.9 GHz, 64 GB memory. Out-of-order, 4-issue,
/// AVX (4 × f64). Faster processing but — relative to its compute rate —
/// smaller effective L1 and higher memory latency than BG/Q, which is what
/// drives the paper's Figure 7 shift toward memory-boundedness.
pub fn xeon() -> MachineModel {
    MachineModel {
        name: "Xeon".into(),
        freq_ghz: 1.9,
        cores: 12,
        issue_width: 4.0,
        vector_lanes: 4.0,
        scalar_flops_per_cycle: 2.0,
        l1: CacheLevel { size_bytes: 32 * 1024, line_bytes: 64, assoc: 8, latency_cycles: 4.0 },
        llc: CacheLevel { size_bytes: 15 * 1024 * 1024, line_bytes: 64, assoc: 20, latency_cycles: 30.0 },
        dram_latency_cycles: 210.0,
        dram_bw_gbs: 32.0 / 12.0,
        l1_hit_rate: 0.85,
        llc_hit_rate: 0.85,
        mlp: 8.0,
        load_store_per_cycle: 2.0,
        vector_efficiency: 0.8, // "highly vectorized by default" (paper VII-A)
        fp_latency_cycles: 4.0,
        fdiv_latency_cycles: 22.0,
        int_latency_cycles: 1.0,
    }
}

/// Preset: a Knights-Landing-style manycore — many slow, wide cores with
/// high aggregate bandwidth. Not one of the paper's machines; included as
/// the kind of *prospective* design the framework exists to evaluate.
pub fn knl() -> MachineModel {
    MachineModel {
        name: "KNL".into(),
        freq_ghz: 1.3,
        cores: 64,
        issue_width: 2.0,
        vector_lanes: 8.0, // AVX-512
        scalar_flops_per_cycle: 2.0,
        l1: CacheLevel { size_bytes: 32 * 1024, line_bytes: 64, assoc: 8, latency_cycles: 4.0 },
        llc: CacheLevel { size_bytes: 1024 * 1024, line_bytes: 64, assoc: 16, latency_cycles: 20.0 },
        dram_latency_cycles: 170.0,
        dram_bw_gbs: 400.0 / 64.0, // MCDRAM
        l1_hit_rate: 0.85,
        llc_hit_rate: 0.85,
        mlp: 8.0,
        load_store_per_cycle: 2.0,
        vector_efficiency: 0.7,
        fp_latency_cycles: 6.0,
        fdiv_latency_cycles: 32.0,
        int_latency_cycles: 1.0,
    }
}

/// A deliberately balanced generic machine, useful in tests and the
/// co-design sweep examples.
pub fn generic() -> MachineModel {
    MachineModel {
        name: "generic".into(),
        freq_ghz: 2.0,
        cores: 8,
        issue_width: 2.0,
        vector_lanes: 2.0,
        scalar_flops_per_cycle: 2.0,
        l1: CacheLevel { size_bytes: 32 * 1024, line_bytes: 64, assoc: 8, latency_cycles: 4.0 },
        llc: CacheLevel { size_bytes: 8 * 1024 * 1024, line_bytes: 64, assoc: 16, latency_cycles: 40.0 },
        dram_latency_cycles: 200.0,
        dram_bw_gbs: 4.0,
        l1_hit_rate: 0.85,
        llc_hit_rate: 0.85,
        mlp: 8.0,
        load_store_per_cycle: 1.0,
        vector_efficiency: 0.5,
        fp_latency_cycles: 4.0,
        fdiv_latency_cycles: 24.0,
        int_latency_cycles: 1.0,
    }
}

/// Fluent modifier API for design-space exploration: start from a preset and
/// vary one or more parameters.
#[derive(Debug, Clone)]
pub struct MachineBuilder(MachineModel);

impl MachineBuilder {
    /// Start from an existing machine.
    pub fn from(m: MachineModel) -> Self {
        Self(m)
    }

    pub fn name(mut self, n: &str) -> Self {
        self.0.name = n.to_string();
        self
    }

    pub fn freq_ghz(mut self, v: f64) -> Self {
        self.0.freq_ghz = v;
        self
    }

    pub fn dram_bw_gbs(mut self, v: f64) -> Self {
        self.0.dram_bw_gbs = v;
        self
    }

    pub fn cores(mut self, v: u32) -> Self {
        self.0.cores = v;
        self
    }

    pub fn scalar_flops_per_cycle(mut self, v: f64) -> Self {
        self.0.scalar_flops_per_cycle = v;
        self
    }

    pub fn vector_lanes(mut self, v: f64) -> Self {
        self.0.vector_lanes = v;
        self
    }

    pub fn issue_width(mut self, v: f64) -> Self {
        self.0.issue_width = v;
        self
    }

    pub fn l1_hit_rate(mut self, v: f64) -> Self {
        self.0.l1_hit_rate = v;
        self
    }

    pub fn llc_hit_rate(mut self, v: f64) -> Self {
        self.0.llc_hit_rate = v;
        self
    }

    pub fn dram_latency_cycles(mut self, v: f64) -> Self {
        self.0.dram_latency_cycles = v;
        self
    }

    pub fn vector_efficiency(mut self, v: f64) -> Self {
        self.0.vector_efficiency = v;
        self
    }

    pub fn mlp(mut self, v: f64) -> Self {
        self.0.mlp = v;
        self
    }

    pub fn l1_size_bytes(mut self, v: u64) -> Self {
        self.0.l1.size_bytes = v;
        self
    }

    pub fn build(self) -> MachineModel {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for m in [bgq(), xeon(), knl(), generic()] {
            let errs = m.validate();
            assert!(errs.is_empty(), "{}: {errs:?}", m.name);
        }
    }

    #[test]
    fn bgq_parameters_match_paper() {
        let m = bgq();
        assert_eq!(m.freq_ghz, 1.6);
        assert_eq!(m.cores, 16);
        assert_eq!(m.llc.latency_cycles, 51.0);
        assert_eq!(m.dram_latency_cycles, 180.0);
        assert_eq!(m.l1.size_bytes, 16 * 1024);
        assert_eq!(m.llc.size_bytes, 32 * 1024 * 1024);
    }

    #[test]
    fn xeon_is_compute_faster_but_memory_poorer_per_flop() {
        let q = bgq();
        let x = xeon();
        // Faster processing speed (per paper Section VII-A).
        assert!(x.freq_ghz * x.issue_width > q.freq_ghz * q.issue_width);
        // Fewer bytes per flop available → relatively more memory-bound.
        let q_bpf = q.dram_bw_gbs / q.peak_scalar_gflops();
        let x_bpf = x.dram_bw_gbs / (x.freq_ghz * x.issue_width * 2.0);
        assert!(x_bpf < q_bpf, "xeon {x_bpf} vs bgq {q_bpf}");
    }

    #[test]
    fn avg_latency_between_l1_and_dram() {
        let m = bgq();
        let avg = m.avg_access_latency_cycles();
        assert!(avg > m.l1.latency_cycles);
        assert!(avg < m.dram_latency_cycles);
    }

    #[test]
    fn dram_fraction_consistent() {
        let m = generic();
        let f = m.dram_access_fraction();
        assert!((f - 0.15 * 0.15).abs() < 1e-12);
    }

    #[test]
    fn cache_sets_computation() {
        let c = CacheLevel { size_bytes: 32 * 1024, line_bytes: 64, assoc: 8, latency_cycles: 4.0 };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn knl_is_a_parallel_bandwidth_design() {
        let k = knl();
        let x = xeon();
        // weak single cores…
        assert!(k.freq_ghz < x.freq_ghz);
        // …but far more of them and more aggregate bandwidth
        assert!(k.cores > 4 * x.cores);
        assert!(k.dram_bw_gbs * k.cores as f64 > 4.0 * x.dram_bw_gbs * x.cores as f64);
    }

    #[test]
    fn builder_overrides() {
        let m = MachineBuilder::from(generic()).name("fat-bw").dram_bw_gbs(100.0).build();
        assert_eq!(m.name, "fat-bw");
        assert_eq!(m.dram_bw_gbs, 100.0);
    }

    #[test]
    fn validate_catches_bad_values() {
        let mut m = generic();
        m.freq_ghz = 0.0;
        m.l1_hit_rate = 1.5;
        let errs = m.validate();
        assert!(errs.iter().any(|e| e.contains("freq_ghz")));
        assert!(errs.iter().any(|e| e.contains("l1_hit_rate")));
    }

    #[test]
    fn validate_catches_cache_geometry_the_simulator_cannot_build() {
        let errs_with = |f: fn(&mut MachineModel)| {
            let mut m = generic();
            f(&mut m);
            m.validate()
        };
        assert!(errs_with(|m| m.l1.assoc = 0).iter().any(|e| e == "l1 associativity must be nonzero"));
        assert!(errs_with(|m| m.llc.assoc = 0).iter().any(|e| e == "llc associativity must be nonzero"));
        for bad in [0, 96] {
            let mut m = generic();
            m.llc.line_bytes = bad;
            assert!(m.validate().iter().any(|e| e == "llc line size must be a nonzero power of two"), "{bad}");
        }
        for m in [bgq(), xeon(), knl(), generic()] {
            assert!(m.validate().is_empty(), "{}", m.name);
        }
    }

    #[test]
    fn peak_gflops() {
        let m = bgq();
        assert!((m.peak_scalar_gflops() - 3.2).abs() < 1e-9);
        assert!((m.peak_vector_gflops() - 12.8).abs() < 1e-9);
    }
}
