//! The program pool every workload draws from, and the seeded op stream
//! over it.
//!
//! The pool is fixed: the paper's five applications at both `Scale`
//! presets plus [`GEN_POOL`] programs from `xflow_validate::generate`
//! (generator seeds `0..GEN_POOL`), which stand in for the long tail. The
//! benchmark's `--seed` decides the order in which the pool is visited,
//! never what is in it, so every op's output has an entry in
//! `expected.tsv` whatever the seed.

use xflow::xflow_validate::{generate, render, GenConfig};
use xflow::{builtin_programs, InputSpec, OracleProgram, Scale, Workload};

use crate::rng::{Fnv, Rng};

/// Generated programs in the pool.
pub const GEN_POOL: usize = 64;
/// Generated programs per pass of the cold-model and oracle streams.
pub const GEN_PER_PASS: usize = 4;
/// Times each paper program (in `xflow_workloads::all()` order: SORD,
/// CHARGEI, SRAD, CFD, STASSUIJ) appears in a pass. With 4 generated
/// programs a pass is 15 ops, sorted by latency: 4 generated, 2 CHARGEI,
/// 2 SRAD, 2 SORD, 2 CFD, 3 STASSUIJ. The median op then falls inside the
/// SRAD ops and the 90th percentile in the middle of the STASSUIJ ops,
/// away from the boundaries between programs, which keeps both
/// percentiles steady from run to run.
pub const PAPER_COPIES: [usize; 5] = [2, 2, 2, 2, 3];
/// Passes in one epoch: one epoch visits every generated program once.
pub const EPOCH_PASSES: usize = GEN_POOL / GEN_PER_PASS;

/// One program of the pool at one input binding.
#[derive(Clone)]
pub struct Prog {
    /// `SORD`…`STASSUIJ`, or `gen-0007`.
    pub name: String,
    /// `test`, `eval`, or `default` for generated programs.
    pub scale: &'static str,
    pub source: String,
    pub inputs: InputSpec,
    pub workload: Option<Workload>,
}

impl Prog {
    /// `name/scale`, the key of the program in `expected.tsv`.
    pub fn id(&self) -> String {
        format!("{}/{}", self.name, self.scale)
    }

    /// The same program as an oracle input (paper programs keep their
    /// workload handle, so the simulator applies their vectorization).
    pub fn oracle_program(&self) -> OracleProgram {
        match &self.workload {
            Some(w) => {
                let scale = if self.scale == "eval" { Scale::Eval } else { Scale::Test };
                builtin_programs(&[scale])
                    .into_iter()
                    .find(|p| p.name == w.name)
                    .expect("every paper workload is a builtin oracle program")
            }
            None => OracleProgram::from_source(&self.name, &self.source, self.scale, self.inputs.clone()),
        }
    }
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Eval => "eval",
    }
}

/// The five paper applications at one scale preset.
pub fn paper(scale: Scale) -> Vec<Prog> {
    xflow::xflow_workloads::all()
        .into_iter()
        .map(|w| Prog {
            name: w.name.to_string(),
            scale: scale_label(scale),
            source: w.source.to_string(),
            inputs: w.inputs(scale),
            workload: Some(w),
        })
        .collect()
}

/// Generated program `i` of the pool, at its declared input defaults.
pub fn generated(i: usize) -> Prog {
    Prog {
        name: format!("gen-{i:04}"),
        scale: "default",
        source: render(&generate(i as u64, &GenConfig::default())),
        inputs: InputSpec::new(),
        workload: None,
    }
}

/// The stream pool: paper programs at test scale first, then the
/// generated programs. Stream entries index into this list.
pub fn stream_pool() -> Vec<Prog> {
    let mut pool = paper(Scale::Test);
    pool.extend((0..GEN_POOL).map(generated));
    pool
}

/// The seeded op stream of the cold-model and oracle workloads, one pass
/// at a time. A pass is the paper programs ([`PAPER_COPIES`] of each) plus
/// the next [`GEN_PER_PASS`] generated programs of a per-epoch seeded
/// permutation, shuffled. Every pass therefore has the same shape (which keeps latency
/// percentiles stable across seeds), and one epoch covers the whole pool.
pub struct Stream {
    rng: Rng,
    pass: usize,
    perm: Vec<usize>,
}

impl Stream {
    pub fn new(seed: u64) -> Self {
        Stream { rng: Rng::new(seed), pass: 0, perm: Vec::new() }
    }

    /// Indices into [`stream_pool`] for the next pass.
    pub fn next_pass(&mut self) -> Vec<usize> {
        let n_paper = 5;
        let slot = self.pass % EPOCH_PASSES;
        if slot == 0 {
            self.perm = (0..GEN_POOL).collect();
            self.rng.shuffle(&mut self.perm);
        }
        let mut ops: Vec<usize> =
            PAPER_COPIES.iter().enumerate().flat_map(|(p, &copies)| std::iter::repeat_n(p, copies)).collect();
        ops.extend(self.perm[slot * GEN_PER_PASS..(slot + 1) * GEN_PER_PASS].iter().map(|g| n_paper + g));
        self.rng.shuffle(&mut ops);
        self.pass += 1;
        ops
    }
}

/// Digest of a stream's first `passes` passes, given a printable label per
/// op. Printed with every result so two runs can be checked to have driven
/// the same op sequence.
pub fn sequence_digest<F: FnMut() -> Vec<String>>(passes: usize, mut next_pass: F) -> String {
    let mut h = Fnv::default();
    for _ in 0..passes {
        for label in next_pass() {
            h.write_str(&label);
        }
    }
    format!("{:016x}", h.finish())
}

/// Passes hashed into the printed sequence digest.
pub const DIGEST_PASSES: usize = 4 * EPOCH_PASSES;

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_for(seed: u64) -> String {
        let pool = stream_pool();
        let mut s = Stream::new(seed);
        sequence_digest(DIGEST_PASSES, || s.next_pass().into_iter().map(|i| pool[i].id()).collect())
    }

    #[test]
    fn same_seed_same_sequence_different_seed_different_sequence() {
        assert_eq!(digest_for(1), digest_for(1));
        assert_ne!(digest_for(1), digest_for(2));
        let mut a = Stream::new(5);
        let mut b = Stream::new(5);
        for _ in 0..40 {
            assert_eq!(a.next_pass(), b.next_pass());
        }
    }

    #[test]
    fn an_epoch_visits_every_generated_program_once_and_every_pass_has_each_paper_program() {
        let mut s = Stream::new(9);
        let mut seen = vec![0usize; GEN_POOL];
        for _ in 0..EPOCH_PASSES {
            let pass = s.next_pass();
            assert_eq!(pass.len(), PAPER_COPIES.iter().sum::<usize>() + GEN_PER_PASS);
            for (p, &copies) in PAPER_COPIES.iter().enumerate() {
                assert_eq!(pass.iter().filter(|&&i| i == p).count(), copies);
            }
            for &i in pass.iter().filter(|&&i| i >= 5) {
                seen[i - 5] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn generated_sources_are_deterministic() {
        assert_eq!(generated(3).source, generated(3).source);
        assert_ne!(generated(3).source, generated(4).source);
    }
}
