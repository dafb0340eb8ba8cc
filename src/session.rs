//! Incremental modeling sessions: key derivation and stage coordination
//! over the concurrent [`ArtifactStore`].
//!
//! A [`Session`] is the only producer of an analytic model. The model has
//! one measured input, the single local profiled run; the skeleton, the BET
//! and the projection plan are deterministic functions of that run. So a
//! query is one cache-keyed artifact, built in five steps:
//!
//! ```text
//! source ──▶ Program ──▶ Profile ──▶ Translation ──▶ Bet ──▶ ProjectionPlan
//!   minilang.parse  minilang.profile  minilang.translate  bet.build  hotspot.plan
//! └──────────────────────── one `model` artifact ────────────────────────┘
//! ```
//!
//! A co-design service, a sweep, `validate` or the oracle corpus never
//! re-runs a query whose inputs are byte-identical to an earlier one. Each
//! step of a cold build runs in a span of its own (named above) nested in
//! the `session.model` lookup span, so a trace still shows where a cold
//! query's time went. The artifact also holds the unit table, built once
//! after a cold build or a disk load, and the SoA
//! [`PlanKernel`](xflow_hotspot::PlanKernel) that design-space sweeps
//! evaluate, derived by [`ModelArtifact::kernel`] the first time a sweep
//! needs it; neither is persisted.
//!
//! ## Key derivation
//!
//! Keys are stable 64-bit FNV-1a content hashes:
//!
//! * `salt`      = hash of the key-schema version and every crate's
//!   `schema_version()` — a crate wire-format bump invalidates everything;
//! * `model_key` = `fnv(salt, "model", source bytes, canonical InputSpec,
//!   seed, library fingerprint)`: sorted `name=to_bits` input pairs, so
//!   specs collide exactly on bit-equal bindings; the `rnd()` seed of the
//!   profiled run, so a seeded oracle model is a different artifact from
//!   the default one; and the
//!   [`LibraryRegistry::fingerprint`](xflow_hw::LibraryRegistry::fingerprint)
//!   of [`default_library`], so a re-calibration invalidates the plan;
//! * `sim_key` (see `derive_sim_key`) alone folds in
//!   `xflow_sim::schema_version()`: a simulator change re-simulates only.
//!
//! Changing the source, the inputs or the seed misses the model. Caching is
//! sound because every step is deterministic: profiling uses a seeded
//! generator whose seed is in the key, and `InputSpec` iterates in sorted
//! order. Key-schema version 3 is the one model key (version 2 chained a
//! key per stage).
//!
//! ## Storage and concurrency
//!
//! Cache *policy* lives in [`crate::store`]: artifacts sit in one map per
//! stage with exact LRU eviction, an optional disk tier
//! (`<stage>-<salt>-<key>.json`, atomic writes, corrupted files = silent
//! cold rebuild), and single-flight dedup so a thundering herd on one cold
//! workload builds the model exactly once. `Session` itself is a thin
//! `Send + Sync` coordinator: it derives keys, runs the model lookup (and
//! the sim lookups of a ground-truth query), and hands out the artifact as a
//! [`ModeledApp`], a handle that shares the store's copy. Several sessions
//! (CLI invocations, sweep workers, server request threads) can share one
//! store via [`Session::with_store`]; [`Session::stats`] then reports
//! counters accumulated across all of them.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use xflow_hotspot::{Projection, ProjectionPlan};
use xflow_hw::{MachineModel, Roofline};
use xflow_minilang::{self as ml, InputSpec};
use xflow_obs::{MetricsRegistry, NoopRecorder, Recorder};
use xflow_sim::{default_library, SimConfig, SimReport};
use xflow_validate::{EngineCheck, ValidationConfig, ValidationReport};
use xflow_workloads::Workload;

use crate::pipeline::{ModelArtifact, ModeledApp, PipelineError};
use crate::store::{ArtifactStore, StoreConfig};

pub use crate::store::{
    clear_cache_dir, disk_cache_report, CacheStats, DiskCacheReport, StageStats, StoreConfig as ArtifactStoreConfig,
};

/// Version of the key-derivation scheme itself. Bump when the keyed fields
/// or canonicalization rules change, independent of any crate's wire
/// format.
const KEY_SCHEMA_VERSION: u32 = 3;

// ---------------------------------------------------------------------------
// Stable content hashing (FNV-1a, 64-bit)
// ---------------------------------------------------------------------------

/// Minimal FNV-1a hasher. `std::hash::DefaultHasher` is explicitly not
/// stable across Rust releases, and cache keys leak into file names that
/// outlive the process, so the hash is pinned here.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn seeded(seed: u64) -> Self {
        let mut h = Fnv::new();
        h.write_u64(seed);
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]); // terminator: ("ab","c") ≠ ("a","bc")
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Salt folded into every key: key-schema version plus each crate's wire
/// format version, so bumping any `schema_version()` invalidates all
/// persisted artifacts at once.
fn key_salt() -> u64 {
    let mut h = Fnv::new();
    h.write_u64(KEY_SCHEMA_VERSION as u64);
    h.write_u64(xflow_skeleton::schema_version() as u64);
    h.write_u64(ml::schema_version() as u64);
    h.write_u64(xflow_bet::schema_version() as u64);
    h.write_u64(xflow_hotspot::schema_version() as u64);
    h.write_u64(xflow_hw::schema_version() as u64);
    h.finish()
}

/// Key of one model query: source, canonical inputs, the profiled run's
/// `rnd()` seed and the default library's fingerprint, under the salt.
fn derive_model_key(salt: u64, src: &str, inputs: &InputSpec, seed: u64) -> u64 {
    let mut h = Fnv::seeded(salt);
    h.write_str("model");
    h.write_str(src);
    h.write_str(&inputs.canonical_string());
    h.write_u64(seed);
    h.write_u64(default_library().fingerprint());
    h.finish()
}

/// Key of one simulator-oracle query. A simulation replays the whole
/// program, so the key must cover source, inputs, machine, sim config and seed — any one
/// changing is a different ground-truth point — and `sim_schema`, the
/// simulator's own version. The machine is hashed via its canonical JSON
/// (the vendored serializer emits maps in sorted order), and vector
/// overrides as sorted `(stmt, f64::to_bits)` pairs.
fn derive_sim_key(
    salt: u64,
    sim_schema: u32,
    src: &str,
    inputs: &InputSpec,
    machine: &MachineModel,
    cfg: &SimConfig,
    seed: u64,
) -> u64 {
    let mut h = Fnv::seeded(salt);
    h.write_str("sim");
    h.write_u64(sim_schema as u64);
    h.write_str(src);
    h.write_str(&inputs.canonical_string());
    h.write_str(&serde_json::to_string(machine).unwrap_or_default());
    h.write_u64(seed);
    let mut overrides: Vec<(u32, u64)> = cfg.vector_overrides.iter().map(|(k, v)| (k.0, v.to_bits())).collect();
    overrides.sort_unstable();
    for (stmt, bits) in overrides {
        h.write_u64(stmt as u64);
        h.write_u64(bits);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Configuration of a [`Session`].
#[derive(Clone, Default)]
pub struct SessionConfig {
    /// Directory for persisted artifacts; `None` keeps the session
    /// memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Per-stage in-memory capacity: the artifacts each stage keeps before
    /// it evicts the least recently used (`None` → 64).
    pub capacity: Option<usize>,
    /// Telemetry recorder observing the session's stages; `None` is the
    /// zero-overhead noop. Each stage lookup runs inside a
    /// `session.<stage>` span whose exit attributes carry the artifact key
    /// and the cache outcome (`hit` / `disk` / `miss` / `wait` / `error`).
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for SessionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionConfig")
            .field("cache_dir", &self.cache_dir)
            .field("capacity", &self.capacity)
            .field("recorder", &self.recorder.as_ref().map(|_| "dyn Recorder"))
            .finish()
    }
}

/// An incremental modeling session: every model (and every ground-truth
/// simulation) cached by content key in an [`ArtifactStore`] (in memory
/// and, optionally, on disk). See the module docs for the key-derivation
/// and invalidation rules.
///
/// Sessions are `Send + Sync` and internally lock-free on the hot path
/// beyond the store's per-stage map locks: one session (or many sessions
/// sharing one store) can serve queries from any number of sweep or
/// server threads, with single-flight dedup collapsing concurrent
/// identical cold queries into one build.
pub struct Session {
    recorder: Option<Arc<dyn Recorder>>,
    salt: u64,
    store: Arc<ArtifactStore>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Memory-only session with default capacity.
    pub fn new() -> Self {
        Self::with_config(SessionConfig::default())
    }

    /// Session persisting artifacts under `dir` (created on first write).
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> Self {
        Self::with_config(SessionConfig { cache_dir: Some(dir.into()), ..SessionConfig::default() })
    }

    /// Memory-only session observed by a telemetry recorder.
    pub fn with_recorder(recorder: Arc<dyn Recorder>) -> Self {
        Self::with_config(SessionConfig { recorder: Some(recorder), ..SessionConfig::default() })
    }

    /// Session with explicit configuration, backed by a private store.
    pub fn with_config(config: SessionConfig) -> Self {
        let store = ArtifactStore::shared(StoreConfig { cache_dir: config.cache_dir, capacity: config.capacity });
        Self::with_store_and_recorder(store, config.recorder)
    }

    /// Session over an existing (possibly shared) artifact store.
    pub fn with_store(store: Arc<ArtifactStore>) -> Self {
        Self::with_store_and_recorder(store, None)
    }

    /// Session over a shared store, observed by a telemetry recorder. The
    /// store's counters are shared across every session on it; spans go to
    /// this session's recorder only.
    pub fn with_store_and_recorder(store: Arc<ArtifactStore>, recorder: Option<Arc<dyn Recorder>>) -> Self {
        Session { recorder, salt: key_salt(), store }
    }

    /// The artifact store backing this session.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// The store's metrics registry: the single home of its cache
    /// counters (`session.<stage>.{hits,disk_hits,misses,evictions}`).
    /// Merge it into an exported trace with
    /// [`xflow_obs::TraceSnapshot::merge_registry`].
    pub fn registry(&self) -> &MetricsRegistry {
        self.store.registry()
    }

    fn recorder(&self) -> &dyn Recorder {
        match &self.recorder {
            Some(r) => r.as_ref(),
            None => &NoopRecorder,
        }
    }

    /// Per-stage cache counters accumulated over the backing store's
    /// lifetime (snapshots of the [`Session::registry`] counters, summed
    /// over every session sharing the store).
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Model an application, sharing the model artifact whose content key
    /// matches a previous query (the store's memory, or the cache
    /// directory); a warm lookup copies nothing. A fresh memory-only
    /// session is the cold path: every step runs from scratch, and the
    /// round-trip tests assert warm and disk loads project bit-identically
    /// to it.
    pub fn model(&self, src: &str, inputs: &InputSpec) -> Result<ModeledApp, PipelineError> {
        self.model_seeded(src, inputs, ml::DEFAULT_SEED)
    }

    /// [`Session::model`] with an explicit `rnd()` seed for the profiled
    /// run (the oracle profiles and simulates under one seed). The seed is
    /// part of the model key, so each seed models its own artifact.
    pub fn model_seeded(&self, src: &str, inputs: &InputSpec, seed: u64) -> Result<ModeledApp, PipelineError> {
        let rec = self.recorder();
        self.model_artifact(src, inputs, seed, |program| {
            let _span = xflow_obs::span(rec, "minilang.profile", &[]);
            let (profile, _, ret) = ml::compile(program)?.run(inputs, ml::NullTracer, ml::Limits::default(), seed)?;
            Ok((profile, ret))
        })
    }

    /// The model stage: one lookup of the query's model artifact. On a
    /// miss the build parses `src`, hands the program to `profile` (the
    /// profiled run, returning the profile and `main`'s return value),
    /// translates, builds the BET and compiles the plan, each step in a
    /// span of its own inside the `session.model` span. The app is a
    /// handle on the stored artifact.
    fn model_artifact(
        &self,
        src: &str,
        inputs: &InputSpec,
        seed: u64,
        profile: impl FnOnce(&ml::Program) -> Result<(ml::Profile, f64), PipelineError>,
    ) -> Result<ModeledApp, PipelineError> {
        let (rec, store) = (self.recorder(), &*self.store);
        let key = derive_model_key(self.salt, src, inputs, seed);
        let model = store.model.get_or_build(self.salt, store.cache_dir(), rec, key, || {
            let program = {
                let _span = xflow_obs::span(rec, "minilang.parse", &[]);
                ml::parse(src)?
            };
            let (profile, ret) = profile(&program)?;
            let translation = {
                let _span = xflow_obs::span(rec, "minilang.translate", &[]);
                ml::translate(&program, &profile).map_err(PipelineError::Translate)?
            };
            let env = ml::initial_env(&translation, inputs);
            let bet = xflow_bet::build_observed(&translation.skeleton, &env, xflow_bet::BuildConfig::default(), rec)?;
            let plan = {
                let _span = xflow_obs::span(rec, "hotspot.plan", &[]);
                ProjectionPlan::new(&bet, default_library())
            };
            Ok(ModelArtifact::new(program, profile, ret.to_bits(), translation, bet, plan))
        })?;
        Ok(ModeledApp { model, inputs: inputs.clone() })
    }

    /// [`Session::model_and_sims`] on one machine.
    pub fn model_and_sim(
        &self,
        src: &str,
        inputs: &InputSpec,
        workload: Option<&Workload>,
        machine: &MachineModel,
        seed: u64,
    ) -> Result<(ModeledApp, Projection, Arc<SimReport>), PipelineError> {
        let (app, mut sims) = self.model_and_sims(src, inputs, workload, std::slice::from_ref(machine), seed)?;
        let (projection, sim) = sims.pop().expect("one simulation per machine");
        Ok((app, projection, sim))
    }

    /// A model and its ground truth on each of `machines` under one seed:
    /// the seeded model ([`Session::model_seeded`]), its plan evaluated with
    /// the extended roofline, and the simulation with the workload's
    /// compiler-vectorization overrides, if it is one: the one ground truth
    /// that [`Session::validate`], the oracle corpus, `simulate`, `compare`
    /// and the figures read.
    ///
    /// Each simulation is a content-addressed `sim` artifact of its own
    /// (`sim-<salt>-<key>.json`), next to the model, so ground truth is
    /// paid once per distinct query per cache directory. One VM execution
    /// serves the query, and it simulates only the machines whose sim stage
    /// holds no report: when the model misses, its profiled run is one
    /// fan-out run ([`xflow_sim::simulate_machines`], in a `sim.run` span)
    /// that yields the profile and those machines' reports; when only sim
    /// stages miss, the first miss runs itself and the later misses.
    #[allow(clippy::type_complexity)]
    pub fn model_and_sims(
        &self,
        src: &str,
        inputs: &InputSpec,
        workload: Option<&Workload>,
        machines: &[MachineModel],
        seed: u64,
    ) -> Result<(ModeledApp, Vec<(Projection, Arc<SimReport>)>), PipelineError> {
        let (rec, store, salt) = (self.recorder(), &*self.store, self.salt);
        // each machine's sim config (the workload's overrides, resolved on
        // `program`) and sim key
        let sims_of = |program: &ml::Program| -> (Vec<SimConfig>, Vec<u64>) {
            let configs: Vec<SimConfig> =
                machines.iter().map(|m| workload.map(|w| w.sim_config(program, m)).unwrap_or_default()).collect();
            let sim_schema = xflow_sim::schema_version();
            let keys = machines.iter().zip(&configs);
            let keys = keys.map(|(m, cfg)| derive_sim_key(salt, sim_schema, src, inputs, m, cfg, seed)).collect();
            (configs, keys)
        };
        // machines `from..` whose sim stage holds no report yet
        let missing = |keys: &[u64], from: usize| -> Vec<usize> {
            (from..keys.len()).filter(|&j| !store.sim.holds(salt, store.cache_dir(), keys[j])).collect()
        };
        // one run of `program` for the machines `which`, leaving their
        // reports in `pending`
        let run =
            |program: &ml::Program, configs: &[SimConfig], which: Vec<usize>, pending: &mut [Option<SimReport>]| {
                let _span = xflow_obs::span(rec, "sim.run", &[("machines", (which.len() as u64).into())]);
                let batch: Vec<(&MachineModel, SimConfig)> =
                    which.iter().map(|&j| (&machines[j], configs[j].clone())).collect();
                let (profile, reports, ret) = xflow_sim::simulate_machines(program, inputs, &batch, seed)?;
                for (j, report) in which.into_iter().zip(reports) {
                    pending[j] = Some(report);
                }
                Ok::<_, PipelineError>((profile, ret))
            };
        let mut pending = vec![None; machines.len()];
        let app = self.model_artifact(src, inputs, seed, |program| {
            let (configs, keys) = sims_of(program);
            run(program, &configs, missing(&keys, 0), &mut pending)
        })?;
        let (configs, keys) = sims_of(&app.program);
        let mut out = Vec::with_capacity(machines.len());
        for (i, &key) in keys.iter().enumerate() {
            let sim = store.sim.get_or_build(salt, store.cache_dir(), rec, key, || {
                if pending[i].is_none() {
                    let mut which = vec![i];
                    which.extend(missing(&keys, i + 1));
                    run(&app.program, &configs, which, &mut pending)?;
                }
                Ok(pending[i].take().expect("the run covered this machine"))
            })?;
            out.push((app.plan().evaluate(&machines[i], &Roofline), sim));
        }
        Ok((app, out))
    }

    /// Differential validation of the model this session serves on each of
    /// `machines`: the [`Session::model_and_sims`] artifacts under
    /// `cfg.seed`, checked by [`xflow_validate::check`] against the
    /// reference interpreter's run of the program ([`EngineCheck`]), which
    /// every report shares. The VM side of that engine check is the model's
    /// own profiled run. A workload's reports carry its name; bare source
    /// reports as `<source>`.
    pub fn validate(
        &self,
        src: &str,
        inputs: &InputSpec,
        workload: Option<&Workload>,
        machines: &[MachineModel],
        cfg: &ValidationConfig,
    ) -> Result<Vec<ValidationReport>, PipelineError> {
        let (app, sims) = self.model_and_sims(src, inputs, workload, machines, cfg.seed)?;
        let (prog, tr, bet) = (&app.program, &app.translation, &app.bet);
        let engines = EngineCheck::against_vm(prog, inputs, cfg.seed, &app.profile, app.ret_bits)?;
        Ok(machines
            .iter()
            .zip(&sims)
            .map(|(m, (projection, sim))| {
                let mut report = xflow_validate::check(prog, &engines, tr, bet, projection, sim, &m.name, cfg);
                report.workload = workload.map_or(report.workload, |w| w.name.to_string());
                report
            })
            .collect())
    }

    /// Delete this session's persisted artifacts, returning how many files
    /// were removed. Only files matching the artifact naming scheme are
    /// touched; a memory-only session removes nothing.
    pub fn clear_disk(&self) -> std::io::Result<usize> {
        self.store.clear_disk()
    }
}

/// The process-wide default session backing [`ModeledApp::from_source`]:
/// memory-only, so repeated modeling of the same source + inputs (test
/// suites, benches, examples, sweeps) reuses the cached model without any
/// opt-in.
pub fn default_session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(Session::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
fn main() {
    let n = input("N", 64);
    let a = zeros(n);
    @fill: for i in 0 .. n { a[i] = rnd(); }
    @scale: for i in 0 .. n { a[i] = a[i] * 0.5 + 1.0; }
}
"#;

    /// The model key of a default-seed query.
    fn key(src: &str, inputs: &InputSpec) -> u64 {
        derive_model_key(key_salt(), src, inputs, ml::DEFAULT_SEED)
    }

    #[test]
    fn keys_are_stable_within_process() {
        let i = InputSpec::from_pairs([("N", 128.0)]);
        assert_eq!(key(SRC, &i), key(SRC, &i));
        assert_eq!(Session::new().salt, Session::new().salt);
    }

    #[test]
    fn key_chain_distinguishes_stages_and_inputs() {
        let (a, b) = (InputSpec::from_pairs([("N", 128.0)]), InputSpec::from_pairs([("N", 256.0)]));
        let salt = key_salt();
        let model = key(SRC, &a);
        // the source, the inputs and the seed each reach the model key
        assert_ne!(model, key(SRC, &b));
        assert_ne!(model, key(&format!("{SRC} "), &a));
        assert_ne!(model, derive_model_key(salt, SRC, &a, 7));
        // a query's model and simulation are distinct artifacts
        let sim = derive_sim_key(salt, 1, SRC, &a, &xflow_hw::bgq(), &SimConfig::default(), ml::DEFAULT_SEED);
        assert_ne!(model, sim);
    }

    #[test]
    fn input_order_does_not_change_keys() {
        let a = InputSpec::from_pairs([("N", 8.0), ("M", 9.0)]);
        let b = InputSpec::from_pairs([("M", 9.0), ("N", 8.0)]);
        assert_eq!(key(SRC, &a), key(SRC, &b));
    }

    #[test]
    fn a_seeded_model_is_an_artifact_of_its_own() {
        let s = Session::new();
        let i = InputSpec::from_pairs([("N", 16.0)]);
        let default = s.model(SRC, &i).unwrap();
        let seeded = s.model_seeded(SRC, &i, 7).unwrap();
        let stats = s.stats();
        assert_eq!((stats.model.misses, stats.model.hits), (2, 0), "the seed is in the model key");
        let agree = xflow_validate::profiles_agree;
        assert!(agree(&default.profile, &ml::profile(&default.program, &i).unwrap()));
        assert!(agree(&seeded.profile, &ml::profile_seeded(&seeded.program, &i, 7).unwrap()));
        // the default seed is the seed `model` profiles with
        s.model_seeded(SRC, &i, ml::DEFAULT_SEED).unwrap();
        assert_eq!(s.stats().model.hits, 1);
    }

    #[test]
    fn stats_snapshot_registry_counters() {
        let s = Session::new();
        let i = InputSpec::from_pairs([("N", 16.0)]);
        s.model(SRC, &i).unwrap();
        s.model(SRC, &i).unwrap();
        let stats = s.stats();
        assert_eq!(stats.misses(), 1, "the cold run builds the model");
        assert_eq!(stats.hits(), 1, "the warm run hits it");
        // the Display line the CLI prints is backed by the same counters
        assert_eq!(s.registry().get("session.model.hits"), stats.model.hits);
        assert_eq!(s.registry().get("session.model.misses"), stats.model.misses);
        assert_eq!(format!("{stats}"), "memory hits: 1, disk hits: 0, misses: 1");
    }

    #[test]
    fn sim_reports_are_cached_outside_the_model_chain() {
        let s = Session::new();
        let i = InputSpec::from_pairs([("N", 32.0)]);
        let m = xflow_hw::bgq();
        let (_, _, a) = s.model_and_sim(SRC, &i, None, &m, 42).unwrap();
        let (_, _, b) = s.model_and_sim(SRC, &i, None, &m, 42).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm lookup returns the cached artifact");
        let stats = s.stats();
        assert_eq!((stats.sim.misses, stats.sim.hits), (1, 1));
        assert_eq!((stats.model.misses, stats.model.hits), (1, 1));
        assert_eq!(stats.misses(), 2, "one model and one simulation");
        // the model is shared, and a model query looks up no simulation
        s.model_seeded(SRC, &i, 42).unwrap();
        let stats = s.stats();
        assert_eq!(stats.misses(), 2, "model_seeded() reuses the model the simulation's query built");
        assert_eq!((stats.sim.misses, stats.sim.hits), (1, 1));
    }

    #[test]
    fn a_profile_miss_simulates_every_machine_in_one_run() {
        use xflow_obs::CollectingRecorder;
        let rec = Arc::new(CollectingRecorder::new());
        let s = Session::with_recorder(rec.clone());
        let i = InputSpec::from_pairs([("N", 32.0)]);
        let machines = [xflow_hw::bgq(), xflow_hw::xeon(), xflow_hw::knl()];
        let (_, sims) = s.model_and_sims(SRC, &i, None, &machines, 3).unwrap();
        assert_eq!(sims.len(), 3);
        let runs = |rec: &CollectingRecorder| rec.snapshot().spans.iter().filter(|sp| sp.name == "sim.run").count();
        assert_eq!(runs(&rec), 1, "one VM execution fills the model and three sim stages");
        let snap = rec.snapshot();
        assert_eq!(snap.spans.iter().filter(|sp| sp.name == "minilang.parse").count(), 1, "one parse per query");
        assert!(snap.spans.iter().all(|sp| sp.name != "minilang.profile"), "the fan-out run is the profiled run");
        let prog = ml::parse(SRC).unwrap();
        for (m, (_, sim)) in machines.iter().zip(&sims) {
            let alone = xflow_sim::simulate_with_seed(&prog, &i, m, SimConfig::default(), 3).unwrap();
            xflow_sim::reference::assert_reports_bit_equal(sim, &alone, &m.name);
        }
        // with the model cached, the sim stages that miss share one run
        let more = [xflow_hw::bgq(), xflow_hw::generic(), xflow_hw::xeon()];
        s.model_and_sims(SRC, &i, None, &more, 3).unwrap();
        assert_eq!(runs(&rec), 2);
        // and that run simulates only `generic`: bgq and xeon are cached
        let snap = rec.snapshot();
        let second = snap.spans.iter().filter(|sp| sp.name == "sim.run").nth(1).unwrap();
        assert!(second.attrs.contains(&("machines".to_string(), xflow_obs::OwnedAttr::U64(1))), "{:?}", second.attrs);
        assert_eq!(snap.spans.iter().filter(|sp| sp.name == "minilang.parse").count(), 1, "a model hit parses nothing");
        let stats = s.stats();
        assert_eq!((stats.model.misses, stats.sim.misses, stats.sim.hits), (1, 4, 2));
    }

    #[test]
    fn sim_key_covers_machine_seed_and_overrides() {
        let i = InputSpec::from_pairs([("N", 32.0)]);
        let salt = key_salt();
        let base = derive_sim_key(salt, 1, SRC, &i, &xflow_hw::bgq(), &SimConfig::default(), 1);
        assert_eq!(base, derive_sim_key(salt, 1, SRC, &i, &xflow_hw::bgq(), &SimConfig::default(), 1));
        assert_ne!(base, derive_sim_key(salt, 1, SRC, &i, &xflow_hw::xeon(), &SimConfig::default(), 1));
        assert_ne!(base, derive_sim_key(salt, 1, SRC, &i, &xflow_hw::bgq(), &SimConfig::default(), 2));
        let mut cfg = SimConfig::default();
        cfg.vector_overrides.insert(xflow_minilang::MStmtId(3), 0.5);
        assert_ne!(base, derive_sim_key(salt, 1, SRC, &i, &xflow_hw::bgq(), &cfg, 1));
    }

    #[test]
    fn sim_key_covers_the_simulator_version() {
        let i = InputSpec::from_pairs([("N", 32.0)]);
        let (salt, m, cfg) = (key_salt(), xflow_hw::bgq(), SimConfig::default());
        let v = xflow_sim::schema_version();
        let key = |sim_schema| derive_sim_key(salt, sim_schema, SRC, &i, &m, &cfg, 1);
        assert_eq!(key(v), key(v));
        assert_ne!(key(v), key(v + 1), "a simulator change must miss every persisted report");
    }

    #[test]
    fn a_store_of_capacity_n_keeps_n_models() {
        let s = Session::new();
        let n = crate::store::DEFAULT_CAPACITY;
        let query = |i: usize| InputSpec::from_pairs([("N", i as f64)]);
        for pass in 0..2 {
            for i in 1..=n {
                s.model(SRC, &query(i)).unwrap();
            }
            let stats = s.stats().model;
            assert_eq!((stats.misses, stats.evictions), (n as u64, 0), "pass {pass}: all {n} models stay");
        }
        assert_eq!(s.stats().model.hits, n as u64);
        // one more model evicts exactly the least recently used, the first
        s.model(SRC, &query(n + 1)).unwrap();
        assert_eq!(s.stats().model.evictions, 1);
        let held = |i: usize| s.store.model.holds(s.salt, None, key(SRC, &query(i)));
        assert!(!held(1), "the least recently used model is evicted");
        assert!((2..=n + 1).all(held), "every other model stays");
    }

    #[test]
    fn sessions_share_a_store_and_its_counters() {
        let store = ArtifactStore::shared(StoreConfig::default());
        let a = Session::with_store(Arc::clone(&store));
        let b = Session::with_store(Arc::clone(&store));
        let i = InputSpec::from_pairs([("N", 16.0)]);
        a.model(SRC, &i).unwrap();
        b.model(SRC, &i).unwrap();
        let stats = store.stats();
        assert_eq!(stats.misses(), 1, "session b reuses session a's model");
        assert_eq!(stats.hits(), 1);
        assert_eq!(a.stats(), b.stats(), "stats are store-wide, not per-session");
    }

    #[test]
    fn observed_session_emits_stage_spans_with_outcomes() {
        use xflow_obs::{CollectingRecorder, OwnedAttr};
        let rec = Arc::new(CollectingRecorder::new());
        let s = Session::with_recorder(rec.clone());
        let i = InputSpec::from_pairs([("N", 16.0)]);
        s.model(SRC, &i).unwrap();
        s.model(SRC, &i).unwrap();
        let snap = rec.snapshot();
        let spans: Vec<_> = snap.spans.iter().filter(|sp| sp.name == "session.model").collect();
        assert_eq!(spans.len(), 2, "one span per lookup");
        let outcomes: Vec<&OwnedAttr> =
            spans.iter().flat_map(|sp| sp.attrs.iter().filter(|(k, _)| k == "outcome").map(|(_, v)| v)).collect();
        assert_eq!(outcomes, [&OwnedAttr::Str("miss".into()), &OwnedAttr::Str("hit".into())]);
        assert!(spans.iter().all(|sp| sp.attrs.iter().any(|(k, _)| k == "key")));
        assert_eq!(rec.counter_value("session.model.lookup.miss"), 1);
        assert_eq!(rec.counter_value("session.model.lookup.hit"), 1);
        // each step of the cold build is traced once, nested in its lookup
        for step in ["minilang.parse", "minilang.profile", "minilang.translate", "bet.build", "hotspot.plan"] {
            let steps: Vec<_> = snap.spans.iter().filter(|sp| sp.name == step).collect();
            assert_eq!(steps.len(), 1, "one {step} span");
            assert_eq!(steps[0].parent, Some(spans[0].id), "{step} runs inside the cold lookup");
        }
    }
}
