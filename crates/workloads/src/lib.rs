//! # xflow-workloads — the paper's benchmarks as minilang programs
//!
//! Ports of the five workloads of the paper's evaluation (Section VI):
//!
//! | Workload | Domain | What the paper used |
//! |---|---|---|
//! | [`mod@sord`] | earth science | full Fortran/MPI earthquake simulator |
//! | [`mod@chargei`] | magnetic fusion | GTC's particle-in-cell charge deposition |
//! | [`mod@srad`] | medical imaging | speckle-reducing anisotropic diffusion |
//! | [`mod@cfd`] | fluid dynamics | unstructured finite-volume Euler solver |
//! | [`mod@stassuij`] | nuclear physics | GFMC two-body correlation kernel |
//!
//! Each port is a faithful *structural* reproduction: the control-flow
//! shape, operation mixes, data-dependence patterns, and the specific
//! hardware-interaction quirks the paper reports (CFD's divide-heavy
//! velocity block, STASSUIJ's compiler-vectorized multiply, SRAD's
//! library-dominated profile, SORD's cross-kernel cache reuse).

pub mod cfd;
pub mod chargei;
pub mod sord;
pub mod srad;
pub mod stassuij;

use xflow_hw::MachineModel;
use xflow_minilang::{parse, InputSpec, Program};
use xflow_sim::SimConfig;

/// Input-size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for unit/integration tests (sub-second in debug builds).
    Test,
    /// Evaluation inputs for the experiment harness (seconds in release).
    Eval,
}

/// One benchmark: source, input presets, and machine-specific compiler
/// behavior the ground-truth simulator should reproduce.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub description: &'static str,
    pub source: &'static str,
    test_scale: &'static [(&'static str, f64)],
    eval_scale: &'static [(&'static str, f64)],
    /// `(machine name, label, actual vectorization)` — subtrees the real
    /// toolchain vectorizes on that machine even though the projection
    /// model does not know it.
    vectorized: &'static [(&'static str, &'static str, f64)],
}

impl Workload {
    /// Parse the workload's source (always valid; panics otherwise).
    pub fn program(&self) -> Program {
        parse(self.source).unwrap_or_else(|e| panic!("workload {} failed to parse: {e}", self.name))
    }

    /// Inputs for a scale preset.
    pub fn inputs(&self, scale: Scale) -> InputSpec {
        let pairs = match scale {
            Scale::Test => self.test_scale,
            Scale::Eval => self.eval_scale,
        };
        InputSpec::from_pairs(pairs.iter().copied())
    }

    /// Simulator configuration for a machine, applying the workload's
    /// known compiler-vectorization decisions (e.g. XL vectorizing
    /// STASSUIJ's row-scaling on BG/Q).
    pub fn sim_config(&self, prog: &Program, machine: &MachineModel) -> SimConfig {
        let mut cfg = SimConfig::default();
        for &(mach, label, veff) in self.vectorized {
            if machine.name == mach {
                cfg = cfg.override_label(prog, label, veff);
            }
        }
        cfg
    }
}

/// SORD: the full earthquake-simulation application.
pub fn sord() -> Workload {
    Workload {
        name: "SORD",
        description: "3-D viscoelastic wave propagation with fault rupture (earthquake simulation)",
        source: sord::SOURCE,
        test_scale: &[("NX", 10.0), ("NY", 10.0), ("NZ", 10.0), ("STEPS", 3.0)],
        eval_scale: &[("NX", 16.0), ("NY", 20.0), ("NZ", 20.0), ("STEPS", 8.0)],
        // per-loop compiler decisions (the reality behind the paper's
        // Table I divergence): GFortran on Xeon vectorizes the clean
        // stride-1 kernels but not the divide-carrying velocity update or
        // the random gather; XL on BG/Q only catches the simplest sweep.
        vectorized: &[
            ("Xeon", "stress_xx", 1.0),
            ("Xeon", "stress_shear", 1.0),
            ("Xeon", "attenuate", 1.0),
            ("Xeon", "strain_energy", 1.0),
            ("Xeon", "vel_update", 0.1),
            ("Xeon", "material_update", 0.2),
            ("Xeon", "seismogram", 0.0),
            ("BG/Q", "attenuate", 0.8),
            ("BG/Q", "strain_energy", 0.5),
        ],
    }
}

/// CHARGEI: GTC ion charge deposition.
pub fn chargei() -> Workload {
    Workload {
        name: "CHARGEI",
        description: "particle-in-cell ion charge deposition (gyrokinetic fusion)",
        source: chargei::SOURCE,
        test_scale: &[("MI", 2000.0), ("MGRID", 300.0)],
        eval_scale: &[("MI", 40000.0), ("MGRID", 3000.0)],
        vectorized: &[],
    }
}

/// SRAD: speckle-reducing anisotropic diffusion.
pub fn srad() -> Workload {
    Workload {
        name: "SRAD",
        description: "speckle reducing anisotropic diffusion (medical imaging)",
        source: srad::SOURCE,
        test_scale: &[("ROWS", 32.0), ("COLS", 32.0), ("SAMPLE", 8.0), ("ITERS", 2.0)],
        eval_scale: &[("ROWS", 128.0), ("COLS", 128.0), ("SAMPLE", 16.0), ("ITERS", 4.0)],
        vectorized: &[],
    }
}

/// CFD: unstructured finite-volume Euler solver.
pub fn cfd() -> Workload {
    Workload {
        name: "CFD",
        description: "unstructured-grid finite-volume Euler solver (compressible flow)",
        source: cfd::SOURCE,
        test_scale: &[("NCELL", 2000.0), ("STEPS", 2.0)],
        eval_scale: &[("NCELL", 24000.0), ("STEPS", 5.0)],
        vectorized: &[],
    }
}

/// STASSUIJ: GFMC two-body correlation kernel.
pub fn stassuij() -> Workload {
    Workload {
        name: "STASSUIJ",
        description: "sparse × dense-complex multiply + butterfly exchange (nuclear GFMC)",
        source: stassuij::SOURCE,
        test_scale: &[("NROW", 64.0), ("NCOL", 128.0), ("NNZPR", 6.0)],
        eval_scale: &[("NROW", 132.0), ("NCOL", 2048.0), ("NNZPR", 8.0)],
        // the XL compiler vectorizes the row-scaling loop on BG/Q; the
        // projection model (vector_efficiency = 0 there) does not know
        vectorized: &[("BG/Q", "scale_row", 1.0)],
    }
}

/// All five benchmarks in the paper's presentation order.
pub fn all() -> Vec<Workload> {
    vec![sord(), chargei(), srad(), cfd(), stassuij()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_minilang::{profile, translate};

    #[test]
    fn every_workload_parses_profiles_translates_and_validates() {
        for w in all() {
            let prog = w.program();
            let prof =
                profile(&prog, &w.inputs(Scale::Test)).unwrap_or_else(|e| panic!("{} failed to run: {e}", w.name));
            let t = translate(&prog, &prof).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let errs = xflow_skeleton::validate(&t.skeleton);
            assert!(errs.is_empty(), "{}: {errs:?}", w.name);
        }
    }

    #[test]
    fn every_workload_builds_a_bet() {
        for w in all() {
            let prog = w.program();
            let prof = profile(&prog, &w.inputs(Scale::Test)).unwrap();
            let t = translate(&prog, &prof).unwrap();
            let mut env = xflow_skeleton::Env::new();
            for (k, v) in t.inputs.iter() {
                env.insert(k.clone(), xflow_skeleton::Value::Scalar(*v));
            }
            for (k, v) in w.inputs(Scale::Test).iter() {
                env.insert(k.to_string(), xflow_skeleton::Value::Scalar(v));
            }
            let bet = xflow_bet::build(&t.skeleton, &env).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(bet.len() > 10, "{}: BET too small ({})", w.name, bet.len());
            // paper: BET size never exceeds 2× the source statements
            let ratio = bet.size_ratio(t.skeleton.source_statement_count());
            assert!(ratio < 2.0, "{}: BET/BST size ratio {ratio}", w.name);
        }
    }

    #[test]
    fn every_workload_simulates_on_both_machines() {
        for w in all() {
            let prog = w.program();
            for m in [xflow_hw::bgq(), xflow_hw::xeon()] {
                let cfg = w.sim_config(&prog, &m);
                let seed = xflow_minilang::DEFAULT_SEED;
                let r = xflow_sim::simulate_with_seed(&prog, &w.inputs(Scale::Test), &m, cfg, seed)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, m.name));
                assert!(r.total_cycles > 0.0, "{} on {}", w.name, m.name);
            }
        }
    }

    #[test]
    fn stassuij_vectorization_applies_only_on_bgq() {
        let w = stassuij();
        let prog = w.program();
        let q = w.sim_config(&prog, &xflow_hw::bgq());
        let x = w.sim_config(&prog, &xflow_hw::xeon());
        assert!(!q.vector_overrides.is_empty());
        assert!(x.vector_overrides.is_empty());
    }

    #[test]
    fn eval_scale_is_larger_than_test_scale() {
        for w in all() {
            let t = w.inputs(Scale::Test);
            let e = w.inputs(Scale::Eval);
            let t_prod: f64 = t.iter().map(|(_, v)| v).product();
            let e_prod: f64 = e.iter().map(|(_, v)| v).product();
            assert!(e_prod > t_prod, "{}", w.name);
        }
    }

    #[test]
    fn workload_names_unique() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
