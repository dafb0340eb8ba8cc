//! Incremental modeling sessions: key derivation and stage coordination
//! over the concurrent [`ArtifactStore`].
//!
//! A [`Session`] is the only producer of an analytic model. It runs five
//! stages — parse, the profiled run (on the fused bytecode VM),
//! translation, BET construction, projection-plan compilation — and turns
//! each stage output into a cache-keyed artifact, so a co-design service,
//! a sweep, `validate` or the oracle corpus never replays a stage whose
//! inputs are byte-identical to an earlier query:
//!
//! ```text
//! source ──▶ Program ──▶ Profile ──▶ Translation ──▶ Bet ──▶ ProjectionPlan
//!            parse_key   profile_key  translate_key  bet_key  plan_key
//! ```
//!
//! The SoA [`PlanKernel`](xflow_hotspot::PlanKernel) that design-space
//! sweeps evaluate is not a stage: it is a pure re-layout of the plan,
//! derived by [`ModeledApp::kernel`] the first time a sweep needs it.
//!
//! ## Key derivation
//!
//! Keys are stable 64-bit FNV-1a content hashes, chained so that every key
//! transitively covers everything upstream of its stage:
//!
//! * `salt`          = hash of the key-schema version and every crate's
//!   `schema_version()` — a crate wire-format bump invalidates everything;
//! * `parse_key`     = `fnv(salt, "parse", source bytes)`;
//! * `profile_key`   = `fnv(parse_key, "profile", canonical InputSpec,
//!   seed)` (sorted `name=to_bits` pairs, so specs collide exactly on
//!   bit-equal bindings; the `rnd()` seed of the profiled run makes a
//!   seeded oracle model a different artifact from the default one);
//! * `translate_key` = `fnv(profile_key, "translate")`;
//! * `bet_key`       = `fnv(translate_key, "bet")`;
//! * `plan_key`      = `fnv(bet_key, "plan", library fingerprint)`
//!   ([`LibraryRegistry::fingerprint`](xflow_hw::LibraryRegistry::fingerprint)
//!   of [`default_library`] — a re-calibration invalidates plans but
//!   nothing upstream).
//!
//! Editing the source therefore misses every stage; changing only the
//! inputs or the seed reuses the parsed program and rebuilds downstream.
//! Caching is sound because every stage is deterministic: profiling uses
//! a seeded generator whose seed is in the key, and `InputSpec` iterates
//! in sorted order. Key-schema version 2 added the seed to the profile
//! key and dropped the kernel stage.
//!
//! ## Storage and concurrency
//!
//! Cache *policy* lives in [`crate::store`]: artifacts sit in a sharded
//! concurrent map with per-shard LRU, an optional disk tier
//! (`<stage>-<salt>-<key>.json`, atomic writes, corrupted files = silent
//! cold rebuild), and single-flight dedup so a thundering herd on one cold
//! workload builds each stage exactly once. `Session` itself is a thin
//! `Send + Sync` coordinator: it derives keys, orders the five
//! lookup-or-build calls, and assembles the resulting artifacts into a
//! [`ModeledApp`]. Several sessions (CLI invocations, sweep workers,
//! server request threads) can share one store via
//! [`Session::with_store`]; [`Session::stats`] then reports counters
//! accumulated across all of them.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use xflow_hotspot::{Projection, ProjectionPlan};
use xflow_hw::{MachineModel, Roofline};
use xflow_minilang::{self as ml, InputSpec};
use xflow_obs::{MetricsRegistry, NoopRecorder, Recorder};
use xflow_sim::{default_library, SimConfig, SimReport};
use xflow_validate::{ValidationConfig, ValidationReport};
use xflow_workloads::{Scale, Workload};

use crate::pipeline::{ModeledApp, PipelineError};
use crate::store::{ArtifactStore, StoreConfig};

pub use crate::store::{
    clear_cache_dir, disk_cache_report, CacheStats, DiskCacheReport, StageStats, StoreConfig as ArtifactStoreConfig,
};

/// Version of the key-derivation scheme itself. Bump when the chaining or
/// canonicalization rules change, independent of any crate's wire format.
const KEY_SCHEMA_VERSION: u32 = 2;

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

/// The derived cache keys of one (source, inputs, seed) query — one per
/// stage. Exposed so tests and tools can locate or corrupt specific
/// persisted artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageKeys {
    pub parse: u64,
    pub profile: u64,
    pub translate: u64,
    pub bet: u64,
    pub plan: u64,
}

fn derive_parse_key(salt: u64, src: &str) -> u64 {
    let mut h = Fnv::seeded(salt);
    h.write_str("parse");
    h.write_str(src);
    h.finish()
}

fn derive_keys(salt: u64, src: &str, inputs: &InputSpec, seed: u64) -> StageKeys {
    let parse = derive_parse_key(salt, src);
    let profile = {
        let mut h = Fnv::seeded(parse);
        h.write_str("profile");
        h.write_str(&inputs.canonical_string());
        h.write_u64(seed);
        h.finish()
    };
    let translate = {
        let mut h = Fnv::seeded(profile);
        h.write_str("translate");
        h.finish()
    };
    let bet = {
        let mut h = Fnv::seeded(translate);
        h.write_str("bet");
        h.finish()
    };
    let plan = {
        let mut h = Fnv::seeded(bet);
        h.write_str("plan");
        h.write_u64(default_library().fingerprint());
        h.finish()
    };
    StageKeys { parse, profile, translate, bet, plan }
}

/// Key of one simulator-oracle query. Chained off the salt directly rather
/// than off the parse key: a simulation replays the whole program, so the
/// key must cover source, inputs, machine, sim config and seed — any one
/// changing is a different ground-truth point. The machine is hashed via
/// its canonical JSON (the vendored serializer emits maps in sorted order),
/// and vector overrides as sorted `(stmt, f64::to_bits)` pairs.
fn derive_sim_key(salt: u64, src: &str, inputs: &InputSpec, machine: &MachineModel, cfg: &SimConfig, seed: u64) -> u64 {
    let mut h = Fnv::seeded(salt);
    h.write_str("sim");
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
    /// Per-stage in-memory capacity (`None` → a small default).
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

/// An incremental modeling session: the five-stage model chain with every
/// stage output cached by content key in an [`ArtifactStore`] (in memory
/// and, optionally, on disk). See the module docs for the key-derivation
/// and invalidation rules.
///
/// Sessions are `Send + Sync` and internally lock-free on the hot path
/// beyond the store's per-shard mutexes: one session (or many sessions
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
        let store =
            ArtifactStore::shared(StoreConfig { cache_dir: config.cache_dir, capacity: config.capacity, shards: None });
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

    /// The cache keys a [`Session::model`] query derives, without running
    /// anything. Key equality is exactly artifact reusability.
    pub fn keys(&self, src: &str, inputs: &InputSpec) -> StageKeys {
        derive_keys(self.salt, src, inputs, ml::DEFAULT_SEED)
    }

    /// Model an application, reusing every stage artifact whose content key
    /// matches a previous query (the store's memory, or the cache
    /// directory). A fresh memory-only session is the cold path: every
    /// stage runs from scratch, and the round-trip tests assert warm and
    /// disk loads project bit-identically to it.
    pub fn model(&self, src: &str, inputs: &InputSpec) -> Result<ModeledApp, PipelineError> {
        self.model_seeded(src, inputs, ml::DEFAULT_SEED)
    }

    /// [`Session::model`] with an explicit `rnd()` seed for the profiled
    /// run (the oracle profiles and simulates under one seed). The seed is
    /// part of the profile key, so every stage downstream of the parse is
    /// its own artifact per seed.
    pub fn model_seeded(&self, src: &str, inputs: &InputSpec, seed: u64) -> Result<ModeledApp, PipelineError> {
        let keys = derive_keys(self.salt, src, inputs, seed);
        let rec = self.recorder();
        let salt = self.salt;
        let store = &*self.store;
        let dir = store.cache_dir();

        let program = self.program(src, keys.parse)?;
        let profile = store.profile.get_or_build(salt, dir, rec, keys.profile, || {
            ml::profile_seeded(&program, inputs, seed).map_err(PipelineError::from)
        })?;
        let translation = store.translate.get_or_build(salt, dir, rec, keys.translate, || {
            ml::translate(&program, &profile).map_err(PipelineError::Translate)
        })?;
        let bet = store.bet.get_or_build(salt, dir, rec, keys.bet, || {
            let env = ml::initial_env(&translation, inputs);
            xflow_bet::build_observed(&translation.skeleton, &env, xflow_bet::BuildConfig::default(), rec)
                .map_err(PipelineError::from)
        })?;
        let plan =
            store.plan.get_or_build(salt, dir, rec, keys.plan, || Ok(ProjectionPlan::new(&bet, default_library())))?;

        Ok(ModeledApp::assemble(
            (*program).clone(),
            (*profile).clone(),
            (*translation).clone(),
            (*bet).clone(),
            inputs.clone(),
            (*plan).clone(),
        ))
    }

    /// The parse stage: the program of `src`, looked up by its parse key.
    fn program(&self, src: &str, key: u64) -> Result<Arc<ml::Program>, PipelineError> {
        let store = &*self.store;
        store.parse.get_or_build(self.salt, store.cache_dir(), self.recorder(), key, || {
            ml::parse(src).map_err(PipelineError::from)
        })
    }

    /// Model a built-in benchmark workload at a scale preset.
    pub fn model_workload(&self, w: &Workload, scale: Scale) -> Result<ModeledApp, PipelineError> {
        self.model(w.source, &w.inputs(scale))
    }

    /// Ground-truth simulator report for one program × inputs × machine ×
    /// seed × sim-config query, cached as its own content-addressed stage
    /// (`sim-<salt>-<key>.json`). This stage is deliberately *not* part of
    /// [`Session::model`]'s five-stage chain: only the oracle driver and
    /// validation tooling pay simulation cost, and only once per distinct
    /// query per cache directory. A miss takes its program from the parse
    /// stage.
    pub fn sim_report(
        &self,
        src: &str,
        inputs: &InputSpec,
        machine: &MachineModel,
        cfg: &SimConfig,
        seed: u64,
    ) -> Result<Arc<SimReport>, PipelineError> {
        let key = derive_sim_key(self.salt, src, inputs, machine, cfg, seed);
        let store = &*self.store;
        store.sim.get_or_build(self.salt, store.cache_dir(), self.recorder(), key, || {
            let program = self.program(src, derive_parse_key(self.salt, src))?;
            xflow_sim::simulate_with_seed(&program, inputs, machine, cfg.clone(), seed).map_err(PipelineError::from)
        })
    }

    /// A model and its ground truth on one machine under one seed: the
    /// seeded model ([`Session::model_seeded`]), its plan evaluated with the
    /// extended roofline, and the simulation ([`Session::sim_report`]) with
    /// the workload's compiler-vectorization overrides, if it is one. The
    /// oracle corpus and [`Session::validate`] both read these three, so a
    /// program is modeled once for every machine it is checked on.
    pub fn model_and_sim(
        &self,
        src: &str,
        inputs: &InputSpec,
        workload: Option<&Workload>,
        machine: &MachineModel,
        seed: u64,
    ) -> Result<(ModeledApp, Projection, Arc<SimReport>), PipelineError> {
        let app = self.model_seeded(src, inputs, seed)?;
        let projection = app.plan().evaluate(machine, &Roofline);
        let sim_cfg = workload.map(|w| w.sim_config(&app.program, machine)).unwrap_or_default();
        let sim = self.sim_report(src, inputs, machine, &sim_cfg, seed)?;
        Ok((app, projection, sim))
    }

    /// Differential validation of the model this session serves: the
    /// [`Session::model_and_sim`] artifacts under `cfg.seed`, checked by
    /// [`xflow_validate::check`] against both execution engines. A
    /// workload's report carries its name; bare source reports as
    /// `<source>`.
    pub fn validate(
        &self,
        src: &str,
        inputs: &InputSpec,
        workload: Option<&Workload>,
        machine: &MachineModel,
        cfg: &ValidationConfig,
    ) -> Result<ValidationReport, PipelineError> {
        let (app, projection, sim) = self.model_and_sim(src, inputs, workload, machine, cfg.seed)?;
        let mut report = xflow_validate::check(
            &app.program,
            inputs,
            &app.translation,
            &app.bet,
            &projection,
            &sim,
            &machine.name,
            cfg,
        )?;
        if let Some(w) = workload {
            report.workload = w.name.to_string();
        }
        Ok(report)
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
/// suites, benches, examples, sweeps) reuses the front half of the
/// pipeline without any opt-in.
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

    #[test]
    fn keys_are_stable_within_process() {
        let s = Session::new();
        let i = InputSpec::from_pairs([("N", 128.0)]);
        assert_eq!(s.keys(SRC, &i), s.keys(SRC, &i));
    }

    #[test]
    fn key_chain_distinguishes_stages_and_inputs() {
        let s = Session::new();
        let a = s.keys(SRC, &InputSpec::from_pairs([("N", 128.0)]));
        let b = s.keys(SRC, &InputSpec::from_pairs([("N", 256.0)]));
        // same source, different inputs: parse shared, downstream forked
        assert_eq!(a.parse, b.parse);
        assert_ne!(a.profile, b.profile);
        assert_ne!(a.bet, b.bet);
        // all five keys of one query are distinct
        let ks = [a.parse, a.profile, a.translate, a.bet, a.plan];
        for i in 0..ks.len() {
            for j in i + 1..ks.len() {
                assert_ne!(ks[i], ks[j]);
            }
        }
    }

    #[test]
    fn input_order_does_not_change_keys() {
        let s = Session::new();
        let a = InputSpec::from_pairs([("N", 8.0), ("M", 9.0)]);
        let b = InputSpec::from_pairs([("M", 9.0), ("N", 8.0)]);
        assert_eq!(s.keys(SRC, &a), s.keys(SRC, &b));
    }

    #[test]
    fn a_seeded_model_shares_the_parse_and_misses_the_profile() {
        let s = Session::new();
        let i = InputSpec::from_pairs([("N", 16.0)]);
        let default = s.model(SRC, &i).unwrap();
        let seeded = s.model_seeded(SRC, &i, 7).unwrap();
        let stats = s.stats();
        assert_eq!((stats.parse.misses, stats.parse.hits), (1, 1), "the seed does not reach the parse key");
        assert_eq!((stats.profile.misses, stats.profile.hits), (2, 0), "the seed is in the profile key");
        assert_eq!(stats.plan.misses, 2);
        let agree = xflow_validate::profiles_agree;
        assert!(agree(&default.profile, &ml::profile(&default.program, &i).unwrap()));
        assert!(agree(&seeded.profile, &ml::profile_seeded(&seeded.program, &i, 7).unwrap()));
        // the default seed is the seed `model` profiles with
        s.model_seeded(SRC, &i, ml::DEFAULT_SEED).unwrap();
        assert_eq!(s.stats().profile.hits, 1);
    }

    #[test]
    fn stats_snapshot_registry_counters() {
        let s = Session::new();
        let i = InputSpec::from_pairs([("N", 16.0)]);
        s.model(SRC, &i).unwrap();
        s.model(SRC, &i).unwrap();
        let stats = s.stats();
        assert_eq!(stats.misses(), 5, "cold run builds all five stages");
        assert_eq!(stats.hits(), 5, "warm run hits all five stages");
        // the Display line the CLI prints is backed by the same counters
        assert_eq!(s.registry().get("session.parse.hits"), stats.parse.hits);
        assert_eq!(s.registry().get("session.plan.misses"), stats.plan.misses);
        assert_eq!(format!("{stats}"), "memory hits: 5, disk hits: 0, misses: 5");
    }

    #[test]
    fn sim_reports_are_cached_outside_the_model_chain() {
        let s = Session::new();
        let i = InputSpec::from_pairs([("N", 32.0)]);
        let m = xflow_hw::bgq();
        let cfg = SimConfig::default();
        let a = s.sim_report(SRC, &i, &m, &cfg, 42).unwrap();
        let b = s.sim_report(SRC, &i, &m, &cfg, 42).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm lookup returns the cached artifact");
        let stats = s.stats();
        assert_eq!(stats.sim.misses, 1);
        assert_eq!(stats.sim.hits, 1);
        // the simulation parsed through the parse stage, which the model reuses
        assert_eq!((stats.parse.misses, stats.parse.hits), (1, 0));
        s.model(SRC, &i).unwrap();
        let stats = s.stats();
        assert_eq!(stats.parse.hits, 1, "model() reuses the program the simulation parsed");
        assert_eq!(stats.misses(), 6, "model() builds its four other stages, sim stays at one");
    }

    #[test]
    fn sim_key_covers_machine_seed_and_overrides() {
        let i = InputSpec::from_pairs([("N", 32.0)]);
        let salt = key_salt();
        let base = derive_sim_key(salt, SRC, &i, &xflow_hw::bgq(), &SimConfig::default(), 1);
        assert_eq!(base, derive_sim_key(salt, SRC, &i, &xflow_hw::bgq(), &SimConfig::default(), 1));
        assert_ne!(base, derive_sim_key(salt, SRC, &i, &xflow_hw::xeon(), &SimConfig::default(), 1));
        assert_ne!(base, derive_sim_key(salt, SRC, &i, &xflow_hw::bgq(), &SimConfig::default(), 2));
        let mut cfg = SimConfig::default();
        cfg.vector_overrides.insert(xflow_minilang::MStmtId(3), 0.5);
        assert_ne!(base, derive_sim_key(salt, SRC, &i, &xflow_hw::bgq(), &cfg, 1));
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
        assert_eq!(stats.misses(), 5, "session b reuses session a's artifacts");
        assert_eq!(stats.hits(), 5);
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
        for stage in ["parse", "profile", "translate", "bet", "plan"] {
            let name = format!("session.{stage}");
            let spans: Vec<_> = snap.spans.iter().filter(|sp| sp.name == name).collect();
            assert_eq!(spans.len(), 2, "one span per lookup of {name}");
            let outcomes: Vec<&OwnedAttr> =
                spans.iter().flat_map(|sp| sp.attrs.iter().filter(|(k, _)| k == "outcome").map(|(_, v)| v)).collect();
            assert!(outcomes.contains(&&OwnedAttr::Str("miss".into())), "{name}: {outcomes:?}");
            assert!(outcomes.contains(&&OwnedAttr::Str("hit".into())), "{name}: {outcomes:?}");
            assert!(spans.iter().all(|sp| sp.attrs.iter().any(|(k, _)| k == "key")));
            assert_eq!(rec.counter_value(&format!("session.{stage}.lookup.miss")), 1);
            assert_eq!(rec.counter_value(&format!("session.{stage}.lookup.hit")), 1);
        }
        // the bet build itself is traced nested under the bet stage
        let bet_build = snap.spans.iter().find(|sp| sp.name == "bet.build").unwrap();
        let bet_stage = snap.spans.iter().find(|sp| sp.name == "session.bet").unwrap();
        assert_eq!(bet_build.parent, Some(bet_stage.id));
    }
}
