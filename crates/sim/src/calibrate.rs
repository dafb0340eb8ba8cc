//! Library instruction mixes: hardware ground truth and empirical
//! calibration (paper Section IV-C).
//!
//! The "hardware truth" of each library routine is an *input-dependent*
//! instruction mix — polynomial evaluation plus argument-dependent range
//! reduction, like real libm code. The simulator charges this truth per
//! call. The paper's semi-analytical method measures the mix with hardware
//! counters over randomly generated inputs and uses the *average*;
//! [`calibrate_library`] reproduces exactly that, producing a
//! [`LibraryRegistry`] for the projection side.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xflow_hw::{BlockMetrics, InstrMix, LibraryRegistry};

/// Dynamic instruction counts of one library call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LibMix {
    pub flops: u32,
    pub iops: u32,
    pub divs: u32,
    pub loads: u32,
    pub stores: u32,
}

/// Interned-slot names: one slot per routine the simulator knows
/// natively, plus the trailing generic slot every other name maps to
/// (the VM's name interner reports unknown routines as `"lib"`).
pub const LIB_SLOT_NAMES: [&str; 8] = ["exp", "log", "sqrt", "sin", "cos", "pow", "rand", "lib"];

/// Intern a library name to its slot index in [`LIB_SLOT_NAMES`].
#[inline]
pub fn lib_slot(name: &str) -> usize {
    match name {
        "exp" => 0,
        "log" => 1,
        "sqrt" => 2,
        "sin" => 3,
        "cos" => 4,
        "pow" => 5,
        "rand" => 6,
        _ => 7,
    }
}

/// Ground-truth mix of one call of the routine in `slot` with scalar
/// argument `arg` — the id-indexed dispatch the simulator's hot path uses
/// once names are interned.
///
/// The shapes mimic libm implementations: a fixed polynomial core plus
/// argument-magnitude-dependent range reduction. The generic slot gets a
/// moderately expensive routine.
pub fn hardware_lib_mix_slot(slot: usize, arg: f64) -> LibMix {
    let a = arg.abs();
    match slot {
        0 => {
            // range reduction: one step per ln(2) of magnitude; the core is
            // a polynomial — multiply/add only, no divides
            let steps = (a / std::f64::consts::LN_2).min(40.0) as u32;
            LibMix { flops: 18 + 2 * steps, iops: 6 + steps, divs: 0, loads: 4, stores: 0 }
        }
        1 => {
            let steps = (a.max(1.0).log2()).min(32.0) as u32;
            LibMix { flops: 22 + steps, iops: 8, divs: 0, loads: 5, stores: 0 }
        }
        // rsqrt estimate + Newton refinement: multiplies only
        2 => LibMix { flops: 14, iops: 2, divs: 0, loads: 0, stores: 0 },
        3 | 4 => {
            let steps = (a / std::f64::consts::PI).min(24.0) as u32;
            LibMix { flops: 20 + 2 * steps, iops: 8 + steps, divs: 0, loads: 4, stores: 0 }
        }
        5 => LibMix { flops: 44, iops: 14, divs: 1, loads: 8, stores: 0 },
        6 => LibMix { flops: 2, iops: 16, divs: 0, loads: 3, stores: 1 },
        _ => LibMix { flops: 25, iops: 10, divs: 1, loads: 5, stores: 1 },
    }
}

/// Ground-truth mix of one call of `name` with scalar argument `arg`.
/// Unknown names get the generic slot's routine.
pub fn hardware_lib_mix(name: &str, arg: f64) -> LibMix {
    hardware_lib_mix_slot(lib_slot(name), arg)
}

/// Names of the library routines the simulator knows natively.
pub const LIB_NAMES: &[&str] = &["exp", "log", "sqrt", "sin", "cos", "pow", "rand"];

/// Argument distribution used when sampling a routine's mix.
fn sample_arg(name: &str, rng: &mut StdRng) -> f64 {
    match name {
        // exp is typically called on moderate negative/positive exponents
        "exp" => rng.gen_range(-8.0..8.0),
        "log" => rng.gen_range(1e-6..1e6),
        "sin" | "cos" => rng.gen_range(-20.0..20.0),
        "pow" => rng.gen_range(0.0..10.0),
        _ => rng.gen_range(0.0..1.0),
    }
}

/// The default library registry: [`calibrate_library`] at 512 samples per
/// routine, computed once per process. Calibration is deterministic (fixed
/// seed), so every projection, validation and sweep shares this one result.
pub fn default_library() -> &'static LibraryRegistry {
    static LIBS: OnceLock<LibraryRegistry> = OnceLock::new();
    LIBS.get_or_init(|| calibrate_library(512))
}

/// Empirically calibrate library mixes by sampling each routine on random
/// inputs and averaging the observed dynamic instruction counts — the
/// paper's procedure for functions whose instruction counts vary with the
/// input. Deterministic for a given `samples` count (fixed seed).
pub fn calibrate_library(samples: usize) -> LibraryRegistry {
    let mut reg = LibraryRegistry::new();
    let mut rng = StdRng::seed_from_u64(0xCA11_B8A7E);
    for &name in LIB_NAMES {
        let mut acc = [0.0f64; 5];
        for _ in 0..samples.max(1) {
            let m = hardware_lib_mix(name, sample_arg(name, &mut rng));
            acc[0] += m.flops as f64;
            acc[1] += m.iops as f64;
            acc[2] += m.divs as f64;
            acc[3] += m.loads as f64;
            acc[4] += m.stores as f64;
        }
        let n = samples.max(1) as f64;
        reg.register(
            name,
            InstrMix {
                base: BlockMetrics {
                    flops: acc[0] / n,
                    iops: acc[1] / n,
                    divs: acc[2] / n,
                    loads: acc[3] / n,
                    stores: acc[4] / n,
                    elem_bytes: 8.0,
                },
                per_work: BlockMetrics::default(),
            },
        );
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_mix_grows_with_argument() {
        let small = hardware_lib_mix("exp", 0.5);
        let large = hardware_lib_mix("exp", 20.0);
        assert!(large.flops > small.flops);
        assert!(large.iops > small.iops);
    }

    #[test]
    fn sqrt_is_input_independent() {
        assert_eq!(hardware_lib_mix("sqrt", 0.1), hardware_lib_mix("sqrt", 1e9));
    }

    #[test]
    fn unknown_function_gets_generic_mix() {
        let m = hardware_lib_mix("dgemm", 1.0);
        assert!(m.flops > 0);
    }

    #[test]
    fn slot_dispatch_matches_name_dispatch() {
        for (slot, &name) in LIB_SLOT_NAMES.iter().enumerate() {
            assert_eq!(lib_slot(name), slot, "{name}");
            for arg in [0.0, 0.5, 3.7, 25.0, -8.0, 1e6] {
                assert_eq!(hardware_lib_mix_slot(slot, arg), hardware_lib_mix(name, arg), "{name}({arg})");
            }
        }
        assert_eq!(lib_slot("dgemm"), lib_slot("lib"));
    }

    #[test]
    fn calibration_covers_all_names_and_is_deterministic() {
        let a = calibrate_library(256);
        let b = calibrate_library(256);
        for &name in LIB_NAMES {
            let ma = a.get(name).expect(name);
            let mb = b.get(name).expect(name);
            assert_eq!(ma.base.flops, mb.base.flops, "{name}");
            assert!(ma.base.flops > 0.0, "{name}");
        }
    }

    #[test]
    fn calibrated_exp_mix_is_between_extremes() {
        let reg = calibrate_library(1024);
        let mix = reg.get("exp").unwrap();
        let lo = hardware_lib_mix("exp", 0.0).flops as f64;
        let hi = hardware_lib_mix("exp", 8.0).flops as f64;
        assert!(mix.base.flops > lo && mix.base.flops < hi, "{} not in ({lo}, {hi})", mix.base.flops);
    }

    #[test]
    fn more_samples_converge() {
        let small = calibrate_library(16);
        let large1 = calibrate_library(4096);
        let large2 = calibrate_library(8192);
        let d_small = (small.get("exp").unwrap().base.flops - large2.get("exp").unwrap().base.flops).abs();
        let d_large = (large1.get("exp").unwrap().base.flops - large2.get("exp").unwrap().base.flops).abs();
        assert!(d_large <= d_small + 0.5, "{d_large} vs {d_small}");
    }
}
