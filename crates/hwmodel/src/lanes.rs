//! Multi-machine lane packing of [`MachineSpec`] constants.
//!
//! A design-space sweep evaluates the same plan columns on hundreds of
//! machines; the per-block arithmetic is identical across machines and
//! only the resolved constants differ. [`SpecLanes`] transposes `W`
//! machine specs into `[f64; W]` constant arrays so one pass over the plan
//! columns produces `W` block times at once — the loop bodies are straight
//! lane-wise array arithmetic the compiler can keep in vector registers
//! (f64x4 with the default `W = 4`).
//!
//! Bit-identity contract: every lane of [`SpecLanes::block_time`] computes
//! the exact expression `Roofline.project_block` computes for that lane's
//! machine — same operands, same operation order, including the
//! [`ExactDiv`] strength-reduction decision, which is packed per lane into
//! [`DivLanes`]. When the `W` machines disagree on multiply-vs-divide for
//! a parameter (e.g. a non-power-of-two bandwidth next to power-of-two
//! ones), the lane loop takes the mixed path and branches per lane; the
//! result is still bit-identical per lane, only slower. Degenerate
//! machines (underflowed, infinite or NaN times) get their scalar bits
//! too; deciding which lanes land time is the caller's job.

use crate::spec::{exact_recip, ExactDiv, MachineSpec};

/// Lane-transposed block times: structure-of-arrays counterpart of
/// `[BlockTime; W]`, so callers accumulate each component with straight
/// vectorizable `[f64; W]` arithmetic instead of strided struct reads.
#[derive(Debug, Clone, Copy)]
pub struct LaneTimes<const W: usize> {
    /// Computation time per lane.
    pub tc: [f64; W],
    /// Memory movement time per lane.
    pub tm: [f64; W],
    /// Overlapped portion per lane.
    pub overlap: [f64; W],
    /// Total projected time `tc + tm − overlap` per lane.
    pub total: [f64; W],
}

/// Lane-packed [`ExactDiv`]: per-lane factors plus uniformity flags so the
/// common all-multiply (and all-divide) cases stay branch-free inside the
/// lane loop.
#[derive(Debug, Clone, Copy)]
pub struct DivLanes<const W: usize> {
    factor: [f64; W],
    mul: [bool; W],
    all_mul: bool,
    all_div: bool,
}

impl<const W: usize> DivLanes<W> {
    fn pack(divs: impl Fn(usize) -> ExactDiv) -> Self {
        let mut factor = [0.0; W];
        let mut mul = [false; W];
        for w in 0..W {
            (factor[w], mul[w]) = divs(w).parts();
        }
        Self { factor, mul, all_mul: mul.iter().all(|&m| m), all_div: mul.iter().all(|&m| !m) }
    }

    /// `x[w] / divisor[w]` per lane, as the bits the plain division would
    /// produce (each lane follows its own strength-reduction decision).
    #[inline]
    pub fn apply(&self, x: [f64; W]) -> [f64; W] {
        let mut out = [0.0; W];
        if self.all_mul {
            for w in 0..W {
                out[w] = x[w] * self.factor[w];
            }
        } else if self.all_div {
            for w in 0..W {
                out[w] = x[w] / self.factor[w];
            }
        } else {
            for w in 0..W {
                out[w] = if self.mul[w] { x[w] * self.factor[w] } else { x[w] / self.factor[w] };
            }
        }
        out
    }
}

/// `W` machine specs transposed into lane-wise constant columns.
///
/// Built with [`SpecLanes::pack`] from a window of `W` specs; evaluate
/// blocks with [`SpecLanes::block_time`], which returns one
/// [`BlockTime`](crate::roofline::BlockTime) per lane, each bit-identical
/// to `Roofline.project_block` on the corresponding machine.
#[derive(Debug, Clone, Copy)]
pub struct SpecLanes<const W: usize> {
    cycle_seconds: [f64; W],
    veff: [f64; W],
    one_minus_veff: [f64; W],
    vector_lanes: DivLanes<W>,
    scalar_flops_per_cycle: DivLanes<W>,
    issue_width: DivLanes<W>,
    load_store_per_cycle: DivLanes<W>,
    mlp: DivLanes<W>,
    one_minus_l1: [f64; W],
    miss_lat: [f64; W],
    dram_bw_bytes: DivLanes<W>,
    cores: [f64; W],
    /// `Some(cores)` when every lane has the same core count — the thread
    /// clamp and reciprocal decision are then computed once per block
    /// instead of once per lane (the common case in a sweep that varies
    /// memory parameters).
    uniform_cores: Option<f64>,
}

impl<const W: usize> SpecLanes<W> {
    /// Transpose a window of exactly `W` specs into lane columns.
    ///
    /// Panics when `specs.len() != W` — callers pad a batch remainder
    /// that does not fill a full lane group.
    pub fn pack(specs: &[MachineSpec]) -> Self {
        assert_eq!(specs.len(), W, "lane packing needs exactly W specs");
        let mut lanes = Self {
            cycle_seconds: [0.0; W],
            veff: [0.0; W],
            one_minus_veff: [0.0; W],
            vector_lanes: DivLanes::pack(|w| specs[w].vector_lanes),
            scalar_flops_per_cycle: DivLanes::pack(|w| specs[w].scalar_flops_per_cycle),
            issue_width: DivLanes::pack(|w| specs[w].issue_width),
            load_store_per_cycle: DivLanes::pack(|w| specs[w].load_store_per_cycle),
            mlp: DivLanes::pack(|w| specs[w].mlp),
            one_minus_l1: [0.0; W],
            miss_lat: [0.0; W],
            dram_bw_bytes: DivLanes::pack(|w| specs[w].dram_bw_bytes),
            cores: [0.0; W],
            uniform_cores: None,
        };
        for (w, s) in specs.iter().enumerate() {
            lanes.cycle_seconds[w] = s.cycle_seconds;
            lanes.veff[w] = s.veff;
            lanes.one_minus_veff[w] = s.one_minus_veff;
            lanes.one_minus_l1[w] = s.one_minus_l1;
            lanes.miss_lat[w] = s.miss_lat;
            lanes.cores[w] = s.cores;
        }
        if lanes.cores.iter().all(|&c| c.to_bits() == lanes.cores[0].to_bits()) {
            lanes.uniform_cores = Some(lanes.cores[0]);
        }
        lanes
    }

    /// Extended-roofline projection of one block invocation on all `W`
    /// machines at once. The block inputs are scalars (shared across
    /// lanes); lane `w` of the result is bit-identical to
    /// `Roofline.project_block` on machine `w` for the block these columns
    /// digest.
    #[inline]
    pub fn block_time(
        &self,
        flops: f64,
        iops: f64,
        accesses: f64,
        bytes: f64,
        thread_cap: f64,
        delta: f64,
    ) -> LaneTimes<W> {
        // Tc: vector-efficiency split, flop-pipe vs issue-width bound.
        let mut vec_flops = [0.0; W];
        for (v, veff) in vec_flops.iter_mut().zip(&self.veff) {
            *v = flops * veff;
        }
        let vec_part = self.vector_lanes.apply(vec_flops);
        let mut eff_flops = [0.0; W];
        for w in 0..W {
            eff_flops[w] = flops * self.one_minus_veff[w] + vec_part[w];
        }
        let flop_cycles = self.scalar_flops_per_cycle.apply(eff_flops);
        let mut issue_ops = [0.0; W];
        for w in 0..W {
            issue_ops[w] = eff_flops[w] + iops;
        }
        let issue_cycles = self.issue_width.apply(issue_ops);
        let mut tc_serial = [0.0; W];
        for w in 0..W {
            tc_serial[w] = flop_cycles[w].max(issue_cycles[w]) * self.cycle_seconds[w];
        }

        // Tm: per-core port/latency bound and shared bandwidth bound. The
        // `accesses == 0` branch depends only on the block, so it is
        // uniform across lanes.
        let mut per_core = [0.0; W];
        let mut shared = [0.0; W];
        if accesses != 0.0 {
            let port_cycles = self.load_store_per_cycle.apply([accesses; W]);
            let mut misses = [0.0; W];
            for (w, m) in misses.iter_mut().enumerate() {
                *m = accesses * self.one_minus_l1[w] * self.miss_lat[w];
            }
            let lat_cycles = self.mlp.apply(misses);
            let mut post_l1 = [0.0; W];
            for w in 0..W {
                per_core[w] = port_cycles[w].max(lat_cycles[w]) * self.cycle_seconds[w];
                post_l1[w] = bytes * self.one_minus_l1[w];
            }
            shared = self.dram_bw_bytes.apply(post_l1);
        }

        // Concurrency: the thread count depends on each lane's core count.
        // With uniform cores (the sweep-grid common case) the clamp and
        // power-of-two reciprocal decision are made once and the division
        // applies lane-wise; otherwise each lane re-derives the scalar
        // path's per-machine decision.
        let mut tc = [0.0; W];
        let mut tm = [0.0; W];
        match self.uniform_cores {
            Some(cores) => {
                let threads = thread_cap.min(cores).max(1.0);
                if threads > 1.0 {
                    match exact_recip(threads) {
                        Some(r) => {
                            for w in 0..W {
                                tc[w] = tc_serial[w] * r;
                                tm[w] = (per_core[w] * r).max(shared[w]);
                            }
                        }
                        None => {
                            for w in 0..W {
                                tc[w] = tc_serial[w] / threads;
                                tm[w] = (per_core[w] / threads).max(shared[w]);
                            }
                        }
                    }
                } else {
                    for w in 0..W {
                        tc[w] = tc_serial[w];
                        tm[w] = per_core[w].max(shared[w]);
                    }
                }
            }
            None => {
                for w in 0..W {
                    let threads = thread_cap.min(self.cores[w]).max(1.0);
                    (tc[w], tm[w]) = if threads > 1.0 {
                        match exact_recip(threads) {
                            Some(r) => (tc_serial[w] * r, (per_core[w] * r).max(shared[w])),
                            None => (tc_serial[w] / threads, (per_core[w] / threads).max(shared[w])),
                        }
                    } else {
                        (tc_serial[w], per_core[w].max(shared[w]))
                    };
                }
            }
        }

        // Overlap assembly: straight lane-wise arithmetic, kept SoA so the
        // caller's accumulators stay vectorizable too.
        let mut overlap = [0.0; W];
        let mut total = [0.0; W];
        for w in 0..W {
            overlap[w] = tc[w].min(tm[w]) * delta;
            total[w] = tc[w] + tm[w] - overlap[w];
        }
        LaneTimes { tc, tm, overlap, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{bgq, generic, knl, xeon, MachineBuilder, MachineModel};
    use crate::roofline::{BlockMetrics, BlockSummary, PerfModel, Roofline};

    fn summaries() -> Vec<BlockSummary> {
        let mut v = Vec::new();
        for (flops, iops, loads, stores, elem_bytes) in [
            (0.0, 0.0, 0.0, 0.0, 8.0),
            (64.0, 16.0, 16.0, 8.0, 8.0),
            (1.0, 0.0, 1000.0, 0.0, 64.0),
            (100_000.0, 3.0, 3.0, 0.0, 4.0),
            (2.0, 2.0, 2.0, 2.0, 8.0),
        ] {
            for (avail_par, parallelizable) in [(1.0, true), (64.0, true), (7.5, true), (1000.0, false)] {
                v.push(BlockSummary {
                    metrics: BlockMetrics { flops, iops, loads, stores, divs: 0.0, elem_bytes },
                    enr: 1.0,
                    avail_par,
                    parallelizable,
                });
            }
        }
        v
    }

    /// Every lane of every block equals `Roofline.project_block` on that
    /// lane's machine, to the bit in every component.
    fn assert_lanes_match_project_block<const W: usize>(machines: &[MachineModel]) {
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let lanes = SpecLanes::<W>::pack(&specs);
        for s in summaries() {
            let m = &s.metrics;
            let cap = if s.parallelizable { s.avail_par } else { 1.0 };
            let fast = lanes.block_time(m.flops, m.iops, m.accesses(), m.bytes(), cap, MachineSpec::delta_of(m.flops));
            for (w, machine) in machines.iter().enumerate() {
                let reference = Roofline.project_block(machine, &s);
                let ctx = format!("{} lane {w}", machine.name);
                assert_eq!(fast.tc[w].to_bits(), reference.tc.to_bits(), "tc {ctx}");
                assert_eq!(fast.tm[w].to_bits(), reference.tm.to_bits(), "tm {ctx}");
                assert_eq!(fast.overlap[w].to_bits(), reference.overlap.to_bits(), "overlap {ctx}");
                assert_eq!(fast.total[w].to_bits(), reference.total.to_bits(), "total {ctx}");
            }
        }
    }

    #[test]
    fn lanes_match_project_block_on_presets() {
        assert_lanes_match_project_block::<4>(&[bgq(), xeon(), knl(), generic()]);
    }

    #[test]
    fn mixed_mul_div_lanes_stay_bit_identical() {
        // one lane with every strength-reducible parameter non-pow2 forces
        // the mixed per-lane branch in each DivLanes
        let mut odd = generic();
        odd.vector_lanes = 3.0;
        odd.scalar_flops_per_cycle = 1.5;
        odd.issue_width = 3.0;
        odd.load_store_per_cycle = 0.75;
        odd.mlp = 6.0;
        odd.dram_bw_gbs = 3.3;
        let odd = MachineBuilder::from(odd).cores(12).build();
        assert_lanes_match_project_block::<4>(&[bgq(), odd, xeon(), generic()]);
    }

    #[test]
    fn degenerate_machines_produce_the_scalar_bits_too() {
        // infinite frequency (times underflow to zero), NaN compute times
        // (∞ frequency, zero flop throughput) and zero cores: the lane
        // arithmetic itself must still match the scalar model bit-for-bit
        let mut inf = generic();
        inf.freq_ghz = f64::INFINITY;
        let mut nan = inf.clone();
        nan.scalar_flops_per_cycle = 0.0;
        let zero_core = MachineBuilder::from(generic()).cores(0).build();
        assert_lanes_match_project_block::<4>(&[inf, zero_core, knl(), nan]);
    }

    #[test]
    fn width_eight_lanes_match_too() {
        assert_lanes_match_project_block::<8>(&[bgq(), xeon(), knl(), generic(), bgq(), xeon(), knl(), generic()]);
    }
}
