//! Machine-specialized constants for the batched evaluation kernel.
//!
//! [`crate::PerfModel::project_block`] re-derives the same handful of
//! machine-dependent constants for every block of every design-space point:
//! the cycle time, the vector-efficiency split, the hit-ratio-folded miss
//! latency, the DRAM bandwidth in bytes, the core count as a float. A sweep
//! evaluates thousands of (block × machine) pairs, so [`MachineSpec`]
//! hoists all of it into a flat constants struct resolved **once per
//! machine**; the inner loop is then pure f64 arithmetic with no virtual
//! dispatch and no field re-derivation.
//!
//! Bit-identity contract: every constant here is the exact same f64
//! expression the scalar [`crate::Roofline`] paths compute per call (same
//! operands, same operation order), so [`crate::SpecLanes::block_time`],
//! which evaluates blocks from packed specs, produces bit-identical
//! [`crate::BlockTime`]s per lane to `Roofline::project` /
//! `Roofline::project_parallel` dispatched through `project_block`. The
//! equivalence is enforced by `to_bits` tests here, in `lanes.rs` and in
//! the hotspot and sweep layers.
//!
//! The spec describes the extended [`crate::Roofline`] only; other models
//! (the ablation variants, custom [`crate::PerfModel`] impls) have no spec
//! and evaluate through the virtual-dispatch path.

use crate::machine::MachineModel;
use serde::{Deserialize, Serialize};

const SIGN_MASK: u64 = 1 << 63;
const MANTISSA_MASK: u64 = (1 << 52) - 1;
const EXP_MASK: u64 = 0x7ff;

/// The exact reciprocal of `d` when one exists: `d = ±2^k` with both `d`
/// and `2^-k` normal. Built by bit manipulation (flip the biased
/// exponent), so resolving a spec performs no division.
///
/// IEEE-754 justification: for such `d`, the exact value of `x · 2^-k`
/// equals the exact value of `x / d` for every `x`, and multiplication and
/// division are both correctly rounded — so `x * recip` and `x / d` return
/// the same bits in every case (normal, subnormal, ±0, ±∞, NaN).
#[inline]
pub(crate) fn exact_recip(d: f64) -> Option<f64> {
    let bits = d.to_bits();
    if bits & MANTISSA_MASK != 0 {
        return None; // not a power of two
    }
    let exp = (bits >> 52) & EXP_MASK;
    if exp == 0 || exp == EXP_MASK {
        return None; // zero/subnormal or inf/NaN
    }
    let rexp = 2046 - exp; // biased exponent of 2^-k
    if rexp == 0 {
        return None; // reciprocal would be subnormal
    }
    Some(f64::from_bits((bits & SIGN_MASK) | (rexp << 52)))
}

/// A machine-constant divisor, strength-reduced at resolve time to an
/// exact reciprocal multiplication when the divisor is a power of two
/// (see `exact_recip` for why that preserves every bit). Throughput
/// parameters (lanes, issue width, ports, MLP) are powers of two on
/// every preset machine, so the hot path usually multiplies; arbitrary
/// divisors (DRAM bandwidth in bytes) keep the division.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExactDiv {
    factor: f64,
    mul: bool,
}

impl ExactDiv {
    /// Strength-reduce division by `d`.
    pub fn new(d: f64) -> Self {
        match exact_recip(d) {
            Some(r) => Self { factor: r, mul: true },
            None => Self { factor: d, mul: false },
        }
    }

    /// `x / d`, as the bits the plain division would produce.
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        if self.mul {
            x * self.factor
        } else {
            x / self.factor
        }
    }

    /// The raw (factor, is-multiply) pair, for packing into
    /// [`crate::lanes::DivLanes`] columns.
    #[inline]
    pub(crate) fn parts(&self) -> (f64, bool) {
        (self.factor, self.mul)
    }

    /// The original divisor.
    pub fn divisor(&self) -> f64 {
        if self.mul {
            // factor is an exact power of two, so inverting it back is exact
            1.0 / self.factor
        } else {
            self.factor
        }
    }
}

/// Flat, machine-resolved constants of the extended roofline model.
///
/// Obtain one via [`MachineSpec::resolve`]. All fields are plain f64 (divisors carry an
/// [`ExactDiv`] strength reduction) so a batch evaluation loop over many
/// specs touches no pointers and calls no trait objects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Seconds per cycle (`1e-9 / freq_ghz`).
    pub cycle_seconds: f64,
    /// Fraction of flop work assumed vectorized.
    pub veff: f64,
    /// `1 − veff`, hoisted out of the per-block Tc expression.
    pub one_minus_veff: f64,
    /// Division by the SIMD lane count.
    pub vector_lanes: ExactDiv,
    /// Division by the scalar flop throughput per cycle.
    pub scalar_flops_per_cycle: ExactDiv,
    /// Division by the instruction issue width.
    pub issue_width: ExactDiv,
    /// Division by the load/store port throughput per cycle.
    pub load_store_per_cycle: ExactDiv,
    /// Division by the memory-level parallelism (overlapped misses).
    pub mlp: ExactDiv,
    /// `1 − l1_hit_rate`: fraction of accesses that miss L1.
    pub one_minus_l1: f64,
    /// Hit-ratio-folded post-L1 miss latency in cycles
    /// (`llc_hit_rate·llc_latency + (1−llc_hit_rate)·dram_latency`).
    pub miss_lat: f64,
    /// Division by the sustainable DRAM bandwidth in bytes/second
    /// (`dram_bw_gbs · 1e9`).
    pub dram_bw_bytes: ExactDiv,
    /// Core count as f64 (thread-cap clamp operand).
    pub cores: f64,
}

impl MachineSpec {
    /// Resolve the constants from a machine description.
    ///
    /// Every field is computed with the exact expression the scalar
    /// roofline paths use per call, so folding them here changes no bits.
    pub fn resolve(machine: &MachineModel) -> Self {
        Self {
            cycle_seconds: machine.cycle_seconds(),
            veff: machine.vector_efficiency,
            one_minus_veff: 1.0 - machine.vector_efficiency,
            vector_lanes: ExactDiv::new(machine.vector_lanes),
            scalar_flops_per_cycle: ExactDiv::new(machine.scalar_flops_per_cycle),
            issue_width: ExactDiv::new(machine.issue_width),
            load_store_per_cycle: ExactDiv::new(machine.load_store_per_cycle),
            mlp: ExactDiv::new(machine.mlp),
            one_minus_l1: 1.0 - machine.l1_hit_rate,
            miss_lat: machine.llc_hit_rate * machine.llc.latency_cycles
                + (1.0 - machine.llc_hit_rate) * machine.dram_latency_cycles,
            dram_bw_bytes: ExactDiv::new(machine.dram_bw_gbs * 1e9),
            cores: machine.cores as f64,
        }
    }

    /// The overlap fraction δ = 1 − 1/max(1, N_flops) of a block, suitable
    /// for precomputation into a plan column (machine-independent).
    #[inline]
    pub fn delta_of(flops: f64) -> f64 {
        1.0 - 1.0 / flops.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::SpecLanes;
    use crate::machine::{bgq, generic, knl, xeon, MachineBuilder};
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

    /// Every block of [`summaries`] evaluated from `machine`'s spec, as a
    /// one-lane [`SpecLanes`] group, equals `Roofline.project_block` to the
    /// bit in every component.
    fn assert_spec_matches_project_block(machine: &MachineModel) {
        let lanes = SpecLanes::<1>::pack(&[MachineSpec::resolve(machine)]);
        for s in summaries() {
            let reference = Roofline.project_block(machine, &s);
            let m = &s.metrics;
            let cap = if s.parallelizable { s.avail_par } else { 1.0 };
            let fast = lanes.block_time(m.flops, m.iops, m.accesses(), m.bytes(), cap, MachineSpec::delta_of(m.flops));
            assert_eq!(fast.tc[0].to_bits(), reference.tc.to_bits(), "tc differs on {}", machine.name);
            assert_eq!(fast.tm[0].to_bits(), reference.tm.to_bits(), "tm differs on {}", machine.name);
            assert_eq!(fast.overlap[0].to_bits(), reference.overlap.to_bits(), "overlap differs on {}", machine.name);
            assert_eq!(fast.total[0].to_bits(), reference.total.to_bits(), "total differs on {}", machine.name);
        }
    }

    #[test]
    fn specialized_block_time_is_bit_identical_to_project_block() {
        for machine in [bgq(), xeon(), knl(), generic()] {
            assert_spec_matches_project_block(&machine);
        }
    }

    #[test]
    fn exact_div_matches_plain_division_bit_for_bit() {
        // power-of-two divisors take the multiply path; everything else
        // must keep dividing — and both must match `x / d` exactly
        let divisors =
            [2.0, 4.0, 8.0, 0.5, 0.25, 1024.0, 3.0, 7.5, 6.0, 1e9, 4.27e9, 1.0, 2f64.powi(1000), 2f64.powi(-900)];
        let xs = [
            0.0,
            -0.0,
            1.0,
            std::f64::consts::PI,
            1e-300,
            5e-324, // subnormal
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            123456.789,
            2f64.powi(-1000),
        ];
        for d in divisors {
            let ed = ExactDiv::new(d);
            for x in xs {
                assert_eq!((x / d).to_bits(), ed.apply(x).to_bits(), "x={x:e} d={d:e}");
            }
            assert_eq!(ed.divisor().to_bits(), d.to_bits(), "divisor round-trip for d={d:e}");
        }
        // extreme exponents where the reciprocal would leave the normal
        // range must refuse the reduction rather than change bits
        for d in [2f64.powi(1023), 2f64.powi(-1022), f64::INFINITY, f64::NAN, 0.0] {
            let ed = ExactDiv::new(d);
            let x = 3.0;
            assert_eq!((x / d).to_bits(), ed.apply(x).to_bits(), "d={d:e}");
        }
    }

    #[test]
    fn non_power_of_two_machine_still_specializes_bit_identically() {
        // every strength-reducible parameter set to an awkward non-pow2
        // value: the spec must fall back to real divisions everywhere
        let mut m = generic();
        m.vector_lanes = 3.0;
        m.scalar_flops_per_cycle = 1.5;
        m.issue_width = 3.0;
        m.load_store_per_cycle = 0.75;
        m.mlp = 6.0;
        m.dram_bw_gbs = 3.3;
        assert_spec_matches_project_block(&MachineBuilder::from(m).cores(12).build());
    }

    #[test]
    fn zero_core_machine_still_runs_serially() {
        assert_spec_matches_project_block(&MachineBuilder::from(generic()).cores(0).build());
    }
}
