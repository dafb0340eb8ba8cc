//! Corpus-scale oracle driver: analytic-vs-simulated training data.
//!
//! ROADMAP item 2 (learning corrections to the first-order projection
//! model) needs a *corpus*: many `(analytic, simulated)` pairs per program
//! block across programs, machines, and input scales. This module fans
//! program × machine × scale combos over the work-stealing pool
//! [`run_chunked`] that design-space sweeps use, caches every ground-truth
//! [`SimReport`](xflow_sim::SimReport) as a content-addressed stage in the
//! [`ArtifactStore`](crate::ArtifactStore) (via [`Session::sim_report`], so
//! a re-run with a `--cache-dir` pays zero simulation), and emits a
//! deterministic, fully sorted record list.
//!
//! Determinism contract: the corpus is byte-identical across runs,
//! thread counts, and cache states. Combos are expanded in sorted
//! `(program, machine, scale)` order, workers merge back in combo order,
//! per-combo records are folded in ascending statement order, and every
//! float that reaches the output came from the same seeded simulation and
//! plan evaluation — CI `cmp`s two runs.
//!
//! Record semantics mirror the validation harness
//! ([`xflow_validate::validate_program`] step 5): simulated cycles fold
//! onto skeleton statements through the translation map in sorted
//! `MStmtId` order, library pseudo-statements are excluded (the simulator
//! attributes library time per function, not per statement), and the
//! analytic side is the projection plan evaluated with the extended
//! roofline. On top of the paired times each record carries the simulator's
//! per-statement microarchitectural counters — instructions, L1 misses,
//! and the self/cross in-cache reuse split the dense tracer now measures —
//! which are exactly the features a learned correction model consumes.

use std::collections::HashMap;
use std::path::Path;

use serde::{Deserialize, Serialize};
use xflow_hotspot::ProjectionPlan;
use xflow_hw::{MachineModel, Roofline};
use xflow_minilang::{self as ml, InputSpec};
use xflow_sim::SimConfig;
use xflow_skeleton as sk;
use xflow_workloads::{Scale, Workload};

use crate::pipeline::{default_library, initial_env, PipelineError};
use crate::pool::run_chunked;
use crate::session::Session;

// ---------------------------------------------------------------------------
// Oracle inputs
// ---------------------------------------------------------------------------

/// One program the oracle drives: source text plus the labeled input
/// bindings to run it at. Built-in workloads keep their [`Workload`]
/// handle so machine-specific compiler-vectorization overrides apply to
/// the simulation exactly as in `xflow validate`.
#[derive(Debug, Clone)]
pub struct OracleProgram {
    /// Corpus name of the program (workload name, file stem, or `gen-*`).
    pub name: String,
    /// Minilang source text.
    pub source: String,
    /// `(scale label, inputs)` presets to run, in emission order.
    pub scales: Vec<(String, InputSpec)>,
    workload: Option<Workload>,
}

impl OracleProgram {
    /// A program from bare source with one labeled input binding.
    pub fn from_source(name: &str, source: &str, scale: &str, inputs: InputSpec) -> Self {
        Self {
            name: name.to_string(),
            source: source.to_string(),
            scales: vec![(scale.to_string(), inputs)],
            workload: None,
        }
    }
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Eval => "eval",
    }
}

/// The five paper workloads at the given scale presets.
pub fn builtin_programs(scales: &[Scale]) -> Vec<OracleProgram> {
    xflow_workloads::all()
        .into_iter()
        .map(|w| OracleProgram {
            name: w.name.to_string(),
            source: w.source.to_string(),
            scales: scales.iter().map(|&s| (scale_label(s).to_string(), w.inputs(s))).collect(),
            workload: Some(w),
        })
        .collect()
}

/// `count` generated programs (seeds `0..count`, valid by construction,
/// declared input defaults) — the long tail of the corpus beyond the five
/// hand-written workloads.
pub fn generated_programs(count: usize) -> Vec<OracleProgram> {
    let cfg = xflow_validate::GenConfig::default();
    (0..count)
        .map(|i| {
            let src = xflow_validate::render(&xflow_validate::generate(i as u64, &cfg));
            OracleProgram::from_source(&format!("gen-{i:04}"), &src, "default", InputSpec::new())
        })
        .collect()
}

/// Every `.ml` / `.xf` file in `dir`, sorted by file name, run with its
/// declared input defaults.
pub fn dir_programs(dir: &Path) -> Result<Vec<OracleProgram>, String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| matches!(p.extension().and_then(|e| e.to_str()), Some("ml") | Some("xf")))
        .collect();
    paths.sort();
    let mut programs = Vec::with_capacity(paths.len());
    for p in paths {
        let src = std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("program").to_string();
        programs.push(OracleProgram::from_source(&stem, &src, "default", InputSpec::new()));
    }
    if programs.is_empty() {
        return Err(format!("no .ml or .xf programs in {}", dir.display()));
    }
    Ok(programs)
}

/// Scheduling and seeding knobs for [`build_corpus`].
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Worker threads; `0` = available parallelism, `1` = serial.
    pub jobs: usize,
    /// Seed shared by the profiled oracle run and the simulation, so the
    /// analytic model and the ground truth observe one dynamic behavior.
    pub seed: u64,
}

impl Default for OracleOptions {
    fn default() -> Self {
        Self { jobs: 0, seed: ml::DEFAULT_SEED }
    }
}

// ---------------------------------------------------------------------------
// Corpus records
// ---------------------------------------------------------------------------

/// One per-block training point: the analytic projection and the
/// simulated ground truth for a single skeleton statement of one
/// program × machine × scale combo, plus the simulator's per-statement
/// microarchitectural counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusRecord {
    /// Program name ([`OracleProgram::name`]).
    pub program: String,
    /// Machine model name.
    pub machine: String,
    /// Scale label the inputs came from.
    pub scale: String,
    /// Skeleton statement id.
    pub stmt: u32,
    /// Human-readable statement name (label or `kind@line`).
    pub name: String,
    /// Projected seconds for the statement (extended roofline).
    pub analytic_seconds: f64,
    /// Simulated seconds folded onto the statement.
    pub simulated_seconds: f64,
    /// The statement's share of total simulated time.
    pub sim_share: f64,
    /// Dynamic instructions the simulator retired in the statement.
    pub instrs: u64,
    /// L1 misses charged to the statement.
    pub l1_misses: u64,
    /// L1 hits on lines last touched by a *different* statement.
    pub cross_hits: u64,
    /// L1 hits on lines the statement itself touched last.
    pub self_hits: u64,
}

/// A materialized oracle corpus: sorted records plus provenance counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    /// Distinct programs driven.
    pub programs: usize,
    /// Distinct machines driven.
    pub machines: usize,
    /// program × machine × scale combinations simulated.
    pub combos: usize,
    /// Seed shared by profiling and simulation.
    pub seed: u64,
    /// Per-block records, sorted by `(program, machine, scale, stmt)`.
    pub records: Vec<CorpusRecord>,
}

impl Corpus {
    /// Deterministic pretty JSON (trailing newline) — two runs of the same
    /// corpus `cmp` equal.
    pub fn to_json(&self) -> String {
        let mut out = serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string());
        out.push('\n');
        out
    }
}

/// Build the corpus for `programs` × `machines` (× each program's scales).
///
/// Every combo derives its [`SimReport`](xflow_sim::SimReport) through
/// [`Session::sim_report`], so a session with a cache directory persists
/// the expensive simulations and a warm re-run only re-evaluates the cheap
/// analytic side. Returns the first pipeline error, if any combo fails.
pub fn build_corpus(
    session: &Session,
    programs: &[OracleProgram],
    machines: &[MachineModel],
    opts: &OracleOptions,
) -> Result<Corpus, PipelineError> {
    // expand in sorted (program, machine, scale) order; scales keep their
    // per-program declaration order under one (program, machine) pair
    let mut prog_order: Vec<&OracleProgram> = programs.iter().collect();
    prog_order.sort_by(|a, b| a.name.cmp(&b.name));
    let mut machine_order: Vec<&MachineModel> = machines.iter().collect();
    machine_order.sort_by(|a, b| a.name.cmp(&b.name));
    let mut combos: Vec<(&OracleProgram, &MachineModel, &str, &InputSpec)> = Vec::new();
    for p in &prog_order {
        for m in &machine_order {
            for (label, inputs) in &p.scales {
                combos.push((p, m, label, inputs));
            }
        }
    }

    let results = run_chunked(
        &combos,
        opts.jobs,
        || (),
        |_, _, &(p, m, label, inputs)| combo_records(session, p, m, label, inputs, opts.seed),
    );
    let mut records = Vec::new();
    for r in results {
        records.extend(r?);
    }
    Ok(Corpus {
        programs: prog_order.len(),
        machines: machine_order.len(),
        combos: combos.len(),
        seed: opts.seed,
        records,
    })
}

/// One combo: run the analytic pipeline and the cached simulation, fold
/// both onto skeleton statements, and emit records in ascending statement
/// order. Mirrors `xflow_validate::validate_program` step 5, with the
/// same sorted-fold discipline so float sums never depend on hash order.
fn combo_records(
    session: &Session,
    p: &OracleProgram,
    machine: &MachineModel,
    scale: &str,
    inputs: &InputSpec,
    seed: u64,
) -> Result<Vec<CorpusRecord>, PipelineError> {
    let prog = ml::parse(&p.source)?;
    let prof = ml::profile_seeded(&prog, inputs, seed)?;
    let tr = ml::translate(&prog, &prof).map_err(PipelineError::Translate)?;
    let env = initial_env(&tr, inputs);
    let bet = xflow_bet::build(&tr.skeleton, &env)?;
    let plan = ProjectionPlan::new(&bet, default_library());
    let projection = plan.evaluate(machine, &Roofline);

    let sim_cfg = match &p.workload {
        Some(w) => w.sim_config(&prog, machine),
        None => SimConfig::default(),
    };
    let sim = session.sim_report(&p.source, inputs, machine, &sim_cfg, seed)?;

    // fold simulated per-statement accumulators onto skeleton statements in
    // sorted MStmtId order (float sums must not depend on map iteration)
    let freq_hz = sim.freq_ghz * 1e9;
    let mut sim_secs: HashMap<sk::StmtId, f64> = HashMap::new();
    let mut instrs: HashMap<sk::StmtId, u64> = HashMap::new();
    let mut l1_misses: HashMap<sk::StmtId, u64> = HashMap::new();
    let mut cross_hits: HashMap<sk::StmtId, u64> = HashMap::new();
    let mut self_hits: HashMap<sk::StmtId, u64> = HashMap::new();
    let mut cycle_rows: Vec<(ml::MStmtId, f64)> = sim.stmt_cycles.iter().map(|(m, c)| (*m, *c)).collect();
    cycle_rows.sort_by_key(|(m, _)| *m);
    for (mid, cycles) in cycle_rows {
        if let Some(sid) = tr.map.get(&mid) {
            *sim_secs.entry(*sid).or_insert(0.0) += cycles / freq_hz;
            *instrs.entry(*sid).or_insert(0) += sim.stmt_instrs.get(&mid).copied().unwrap_or(0);
            *l1_misses.entry(*sid).or_insert(0) += sim.stmt_l1_misses.get(&mid).copied().unwrap_or(0);
            *cross_hits.entry(*sid).or_insert(0) += sim.stmt_cross_hits.get(&mid).copied().unwrap_or(0);
            *self_hits.entry(*sid).or_insert(0) += sim.stmt_self_hits.get(&mid).copied().unwrap_or(0);
        }
    }
    let sim_total = sim.total_cycles / freq_hz;

    let names = tr.skeleton.stmt_names();
    let mut kinds: HashMap<sk::StmtId, &'static str> = HashMap::new();
    tr.skeleton.visit_stmts(|_, s| {
        kinds.insert(s.id, s.kind.keyword());
    });

    let mut ids: Vec<sk::StmtId> = sim_secs.keys().copied().collect();
    for (sid, _) in projection.per_stmt.iter() {
        if !sim_secs.contains_key(&sid) {
            ids.push(sid);
        }
    }
    ids.sort();
    ids.dedup();
    let mut records = Vec::with_capacity(ids.len());
    for sid in ids {
        if kinds.get(&sid).copied() == Some("lib") {
            continue; // library time is attributed per function, not per block
        }
        let s = sim_secs.get(&sid).copied().unwrap_or(0.0);
        records.push(CorpusRecord {
            program: p.name.clone(),
            machine: machine.name.clone(),
            scale: scale.to_string(),
            stmt: sid.0,
            name: names.get(&sid).cloned().unwrap_or_else(|| format!("#{}", sid.0)),
            analytic_seconds: projection.per_stmt.get(&sid).map(|c| c.total).unwrap_or(0.0),
            simulated_seconds: s,
            sim_share: if sim_total > 0.0 { s / sim_total } else { 0.0 },
            instrs: instrs.get(&sid).copied().unwrap_or(0),
            l1_misses: l1_misses.get(&sid).copied().unwrap_or(0),
            cross_hits: cross_hits.get(&sid).copied().unwrap_or(0),
            self_hits: self_hits.get(&sid).copied().unwrap_or(0),
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_hw::{bgq, xeon};

    #[test]
    fn run_chunked_preserves_item_order_and_scales() {
        let items: Vec<usize> = (0..137).collect();
        let serial = run_chunked(&items, 1, || (), |_, i, &x| (i, x * 2));
        for jobs in [0, 2, 3, 8] {
            let par = run_chunked(&items, jobs, || (), |_, i, &x| (i, x * 2));
            assert_eq!(par, serial, "jobs={jobs}");
        }
        assert!(run_chunked(&[] as &[usize], 4, || (), |_, _, &x| x).is_empty());
    }

    #[test]
    fn corpus_is_sorted_and_scheduling_independent() {
        let session = Session::new();
        let programs = builtin_programs(&[Scale::Test]);
        let machines = [bgq(), xeon()];
        let serial =
            build_corpus(&session, &programs, &machines, &OracleOptions { jobs: 1, ..Default::default() }).unwrap();
        assert_eq!(serial.combos, programs.len() * machines.len());
        assert!(serial.records.len() >= 100, "corpus should be ≥100 points, got {}", serial.records.len());
        // sorted by (program, machine, scale, stmt)
        for w in serial.records.windows(2) {
            let ka = (&w[0].program, &w[0].machine, &w[0].scale, w[0].stmt);
            let kb = (&w[1].program, &w[1].machine, &w[1].scale, w[1].stmt);
            assert!(ka < kb, "{ka:?} !< {kb:?}");
        }
        let parallel =
            build_corpus(&session, &programs, &machines, &OracleOptions { jobs: 4, ..Default::default() }).unwrap();
        assert_eq!(serial.to_json(), parallel.to_json(), "corpus must be byte-identical across thread counts");
        // no lib pseudo-blocks, and ground truth actually measured something
        assert!(serial.records.iter().all(|r| !r.name.starts_with("lib")));
        assert!(serial.records.iter().any(|r| r.simulated_seconds > 0.0 && r.instrs > 0));
        assert!(serial.records.iter().any(|r| r.cross_hits > 0), "cross-statement reuse should appear in the corpus");
    }

    #[test]
    fn generated_programs_build_records() {
        let session = Session::new();
        let programs = generated_programs(3);
        assert_eq!(programs.len(), 3);
        let corpus =
            build_corpus(&session, &programs, &[bgq()], &OracleOptions { jobs: 2, ..Default::default() }).unwrap();
        assert_eq!(corpus.combos, 3);
        assert!(!corpus.records.is_empty());
    }

    #[test]
    fn dir_programs_reads_sorted_sources() {
        let dir = std::env::temp_dir().join(format!("xflow-oracle-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.ml"), "fn main() { let x = 1.0; print(x); }").unwrap();
        std::fs::write(dir.join("a.xf"), "fn main() { let y = 2.0; print(y); }").unwrap();
        std::fs::write(dir.join("ignore.txt"), "not a program").unwrap();
        let programs = dir_programs(&dir).unwrap();
        assert_eq!(programs.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(), ["a", "b"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
