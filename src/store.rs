//! The concurrent artifact store: cache *policy* for the session layer's
//! content-addressed stage artifacts, separated from pipeline *logic*.
//!
//! [`ArtifactStore`] owns one [`StageStore`] per stage: the five stages of
//! the session's model chain (parse, profile, translate, bet, plan — keyed
//! as described in [`crate::session`], the profile key covering the
//! profiled run's seed since key-schema version 2) and the simulator
//! oracle's `sim` stage. The SoA sweep kernel is derived from a plan on
//! demand and never stored. Each stage store is a sharded concurrent map — artifacts are FNV-sharded by their
//! content key into independently locked shards, each with its own LRU
//! tick — layered over an optional on-disk tier, with **single-flight
//! dedup** on cold keys:
//!
//! * **memory tier** — `shards` × (`Mutex<HashMap>` + LRU stamp). A lookup
//!   or insert locks exactly one shard, so concurrent requests for
//!   different keys never contend on one global lock (the pre-refactor
//!   `Session` held one mutex around all of its stages for the whole build).
//! * **disk tier** — the persisted `<stage>-<salt>-<key>.json` artifacts.
//!   Reading and writing happen *outside* every lock; a corrupted or
//!   stale-schema file is a silent miss.
//! * **single-flight** — when several threads miss the same cold key at
//!   once, exactly one (the *leader*) builds the artifact; the rest block
//!   on a per-key in-flight latch and receive the leader's result (or its
//!   error, which [`PipelineError`] is `Clone` for). The obs counters
//!   `session.<stage>.misses` therefore count *builds*, not requests — a
//!   thundering herd of N identical cold queries performs exactly one
//!   build per stage (asserted by `tests/store_singleflight.rs`).
//!
//! Counters keep the historical `session.<stage>.*` names (the trace CI
//! and the session tests grep for them); waiters additionally bump
//! `session.<stage>.singleflight_waits`.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

use xflow_bet::Bet;
use xflow_hotspot::ProjectionPlan;
use xflow_minilang::{self as ml, Translation};
use xflow_obs::{AttrValue, Counter, MetricsRegistry, Recorder, SpanId};

use crate::pipeline::PipelineError;

/// Default per-stage in-memory capacity (summed across shards).
pub(crate) const DEFAULT_CAPACITY: usize = 64;

/// Default shard count per stage. Sixteen keeps per-shard capacity useful
/// at the default total capacity while letting that many threads touch one
/// stage without contending.
pub(crate) const DEFAULT_SHARDS: usize = 16;

/// Configuration of an [`ArtifactStore`].
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Directory for persisted artifacts; `None` keeps the store
    /// memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Per-stage in-memory capacity, summed over shards (`None` → a small
    /// default).
    pub capacity: Option<usize>,
    /// Shards per stage (`None` → 16). Tests pin this to 1
    /// to make LRU eviction order deterministic.
    pub shards: Option<usize>,
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Hit/miss counters of one stage cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Served from the in-memory tier (including single-flight waiters
    /// that received the leader's build).
    pub hits: u64,
    /// Served by deserializing a persisted artifact.
    pub disk_hits: u64,
    /// Rebuilt from scratch. With single-flight dedup this counts
    /// *builds*, not requests.
    pub misses: u64,
    /// Entries evicted from the in-memory tier.
    pub evictions: u64,
    /// Requests that blocked on another thread's in-flight build instead
    /// of building themselves (also counted under `hits`).
    pub singleflight_waits: u64,
}

impl StageStats {
    /// Total lookups against this stage.
    pub fn lookups(&self) -> u64 {
        self.hits + self.disk_hits + self.misses
    }
}

/// Per-stage cache counters of an [`ArtifactStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub parse: StageStats,
    pub profile: StageStats,
    pub translate: StageStats,
    pub bet: StageStats,
    pub plan: StageStats,
    /// The simulator oracle stage (fed by `xflow oracle`, not by
    /// [`Session::model`](crate::Session::model)'s five-stage chain).
    pub sim: StageStats,
}

impl CacheStats {
    fn stages(&self) -> [&StageStats; 6] {
        [&self.parse, &self.profile, &self.translate, &self.bet, &self.plan, &self.sim]
    }

    /// Named per-stage counters, in pipeline order (`xflow cache stats`
    /// renders these as a table).
    pub fn per_stage(&self) -> [(&'static str, &StageStats); 6] {
        [
            ("parse", &self.parse),
            ("profile", &self.profile),
            ("translate", &self.translate),
            ("bet", &self.bet),
            ("plan", &self.plan),
            ("sim", &self.sim),
        ]
    }

    /// Fraction of lookups served without a cold build (memory + disk
    /// hits over all lookups); 0 when nothing has been looked up.
    pub fn hit_ratio(&self) -> f64 {
        let lookups: u64 = self.stages().iter().map(|s| s.lookups()).sum();
        if lookups == 0 {
            0.0
        } else {
            (self.hits() + self.disk_hits()) as f64 / lookups as f64
        }
    }

    /// Total in-memory hits across stages.
    pub fn hits(&self) -> u64 {
        self.stages().iter().map(|s| s.hits).sum()
    }

    /// Total disk hits across stages.
    pub fn disk_hits(&self) -> u64 {
        self.stages().iter().map(|s| s.disk_hits).sum()
    }

    /// Total misses (cold builds) across stages.
    pub fn misses(&self) -> u64 {
        self.stages().iter().map(|s| s.misses).sum()
    }

    /// Total single-flight waits across stages.
    pub fn singleflight_waits(&self) -> u64 {
        self.stages().iter().map(|s| s.singleflight_waits).sum()
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory hits: {}, disk hits: {}, misses: {}", self.hits(), self.disk_hits(), self.misses())
    }
}

// ---------------------------------------------------------------------------
// One stage: sharded map + single-flight + disk tier
// ---------------------------------------------------------------------------

/// Handles to one stage's counters in the store's [`MetricsRegistry`]
/// (names `session.<stage>.{hits,disk_hits,misses,evictions,
/// singleflight_waits}`). The registry is the *only* counter
/// implementation — the [`StageStats`] the store reports are snapshots of
/// these counters.
struct StageCounters {
    hits: Arc<Counter>,
    disk_hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    singleflight_waits: Arc<Counter>,
}

impl StageCounters {
    fn for_stage(registry: &MetricsRegistry, stage: &str) -> Self {
        StageCounters {
            hits: registry.counter(&format!("session.{stage}.hits")),
            disk_hits: registry.counter(&format!("session.{stage}.disk_hits")),
            misses: registry.counter(&format!("session.{stage}.misses")),
            evictions: registry.counter(&format!("session.{stage}.evictions")),
            singleflight_waits: registry.counter(&format!("session.{stage}.singleflight_waits")),
        }
    }

    fn snapshot(&self) -> StageStats {
        StageStats {
            hits: self.hits.get(),
            disk_hits: self.disk_hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            singleflight_waits: self.singleflight_waits.get(),
        }
    }
}

/// One shard of a stage's in-memory tier: an LRU-stamped map behind its
/// own mutex. The tick is shard-local — LRU order only ever matters
/// within the shard that evicts.
struct Shard<T> {
    tick: u64,
    map: HashMap<u64, (u64, Arc<T>)>,
}

impl<T> Shard<T> {
    fn lookup(&mut self, key: u64) -> Option<Arc<T>> {
        self.tick += 1;
        let tick = self.tick;
        let (stamp, v) = self.map.get_mut(&key)?;
        *stamp = tick;
        Some(Arc::clone(v))
    }

    /// Insert under the shard capacity, returning how many entries were
    /// evicted (0 or 1).
    fn insert(&mut self, key: u64, value: Arc<T>, capacity: usize) -> u64 {
        self.tick += 1;
        let mut evicted = 0;
        if self.map.len() >= capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self.map.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(&k, _)| k) {
                self.map.remove(&oldest);
                evicted = 1;
            }
        }
        self.map.insert(key, (self.tick, value));
        evicted
    }
}

/// The in-flight latch of one cold key: the single-flight leader fulfills
/// it with its build result, waiters block on the condvar.
struct Flight<T> {
    result: Mutex<Option<Result<Arc<T>, PipelineError>>>,
    done: Condvar,
}

impl<T> Flight<T> {
    fn new() -> Self {
        Flight { result: Mutex::new(None), done: Condvar::new() }
    }

    fn fulfill(&self, result: Result<Arc<T>, PipelineError>) {
        *self.result.lock().unwrap() = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<T>, PipelineError> {
        let mut guard = self.result.lock().unwrap();
        while guard.is_none() {
            guard = self.done.wait(guard).unwrap();
        }
        guard.as_ref().expect("flight fulfilled").clone()
    }
}

/// The cache of one pipeline stage: sharded memory tier, optional disk
/// tier, single-flight dedup, and obs counters.
pub struct StageStore<T> {
    name: &'static str,
    shards: Vec<Mutex<Shard<T>>>,
    shard_capacity: usize,
    inflight: Mutex<HashMap<u64, Arc<Flight<T>>>>,
    counters: StageCounters,
}

/// How a [`StageStore`] request was served; carried on the stage span's
/// exit attributes and mirrored in `session.<stage>.lookup.<outcome>`
/// counters when a recorder is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Hit,
    Disk,
    Miss,
    Wait,
    Error,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Disk => "disk",
            Outcome::Miss => "miss",
            Outcome::Wait => "wait",
            Outcome::Error => "error",
        }
    }
}

impl<T: serde::Serialize + serde::Deserialize> StageStore<T> {
    fn new(name: &'static str, capacity: usize, shards: usize, registry: &MetricsRegistry) -> Self {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(1);
        StageStore {
            name,
            shards: (0..shards).map(|_| Mutex::new(Shard { tick: 0, map: HashMap::new() })).collect(),
            shard_capacity,
            inflight: Mutex::new(HashMap::new()),
            counters: StageCounters::for_stage(registry, name),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<T>> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    fn memory_lookup(&self, key: u64) -> Option<Arc<T>> {
        self.shard(key).lock().unwrap().lookup(key)
    }

    fn memory_insert(&self, key: u64, value: Arc<T>) {
        let evicted = self.shard(key).lock().unwrap().insert(key, value, self.shard_capacity);
        if evicted > 0 {
            self.counters.evictions.add(evicted);
        }
    }

    /// Look the key up through the tiers, building it (at most once per
    /// concurrent cold herd) when every tier misses.
    ///
    /// No lock is held while building, persisting, loading from disk, or
    /// waiting on another thread's build: the shard lock covers only map
    /// operations and the in-flight lock only latch bookkeeping, so
    /// requests for *different* keys proceed fully in parallel.
    ///
    /// With an enabled recorder the lookup runs inside a
    /// `session.<stage>` span whose exit attributes name the artifact key
    /// and the cache outcome (`hit` / `disk` / `miss` / `wait` /
    /// `error`); attribute construction is skipped on the noop path.
    pub fn get_or_build<F>(
        &self,
        salt: u64,
        dir: Option<&Path>,
        rec: &dyn Recorder,
        key: u64,
        build: F,
    ) -> Result<Arc<T>, PipelineError>
    where
        F: FnOnce() -> Result<T, PipelineError>,
    {
        let enabled = rec.enabled();
        let name = self.name;
        let span = if enabled {
            rec.span_start(&format!("session.{name}"), &[("key", AttrValue::Str(&format!("{key:016x}")))])
        } else {
            SpanId::NONE
        };
        let end = |outcome: Outcome| {
            if enabled {
                rec.add(&format!("session.{name}.lookup.{}", outcome.as_str()), 1);
                rec.span_end(span, &[("outcome", AttrValue::Str(outcome.as_str()))]);
            }
        };

        if let Some(hit) = self.memory_lookup(key) {
            self.counters.hits.add(1);
            end(Outcome::Hit);
            return Ok(hit);
        }

        // Miss in memory: join or open this key's flight.
        let flight = {
            let mut inflight = self.inflight.lock().unwrap();
            if let Some(f) = inflight.get(&key) {
                let f = Arc::clone(f);
                drop(inflight);
                self.counters.singleflight_waits.add(1);
                self.counters.hits.add(1);
                let result = f.wait();
                end(if result.is_ok() { Outcome::Wait } else { Outcome::Error });
                return result;
            }
            let f = Arc::new(Flight::new());
            inflight.insert(key, Arc::clone(&f));
            f
        };

        // We are the leader. Another leader may have completed and retired
        // its flight between our memory miss and our insertion — re-check
        // before doing any work.
        if let Some(hit) = self.memory_lookup(key) {
            self.retire(key);
            flight.fulfill(Ok(Arc::clone(&hit)));
            self.counters.hits.add(1);
            end(Outcome::Hit);
            return Ok(hit);
        }

        if let Some(dir) = dir {
            if let Some(v) = load_artifact::<T>(dir, name, salt, key) {
                let arc = Arc::new(v);
                self.counters.disk_hits.add(1);
                self.memory_insert(key, Arc::clone(&arc));
                self.retire(key);
                flight.fulfill(Ok(Arc::clone(&arc)));
                end(Outcome::Disk);
                return Ok(arc);
            }
        }

        self.counters.misses.add(1);
        match build() {
            Ok(v) => {
                if let Some(dir) = dir {
                    store_artifact(dir, name, salt, key, &v);
                }
                let arc = Arc::new(v);
                self.memory_insert(key, Arc::clone(&arc));
                self.retire(key);
                flight.fulfill(Ok(Arc::clone(&arc)));
                end(Outcome::Miss);
                Ok(arc)
            }
            Err(e) => {
                self.retire(key);
                flight.fulfill(Err(e.clone()));
                end(Outcome::Error);
                Err(e)
            }
        }
    }

    /// Drop the in-flight latch for `key`. The memory insert (when there
    /// is one) happens *before* retirement, so a thread that misses the
    /// retired flight finds the artifact in the shard map instead.
    fn retire(&self, key: u64) {
        self.inflight.lock().unwrap().remove(&key);
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A concurrent, content-addressed artifact store over the five model
/// stages and the simulator oracle stage. `Send + Sync`: one store serves any number of
/// [`Session`](crate::Session)s, sweep workers, and server threads.
pub struct ArtifactStore {
    config: StoreConfig,
    registry: MetricsRegistry,
    pub(crate) parse: StageStore<ml::Program>,
    pub(crate) profile: StageStore<ml::Profile>,
    pub(crate) translate: StageStore<Translation>,
    pub(crate) bet: StageStore<Bet>,
    pub(crate) plan: StageStore<ProjectionPlan>,
    /// Ground-truth simulator reports, keyed over
    /// program × inputs × machine × seed × sim-config (`xflow oracle`).
    pub(crate) sim: StageStore<xflow_sim::SimReport>,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl ArtifactStore {
    /// Build a store from configuration.
    pub fn new(config: StoreConfig) -> Self {
        let capacity = config.capacity.unwrap_or(DEFAULT_CAPACITY);
        let shards = config.shards.unwrap_or(DEFAULT_SHARDS);
        let registry = MetricsRegistry::new();
        ArtifactStore {
            parse: StageStore::new("parse", capacity, shards, &registry),
            profile: StageStore::new("profile", capacity, shards, &registry),
            translate: StageStore::new("translate", capacity, shards, &registry),
            bet: StageStore::new("bet", capacity, shards, &registry),
            plan: StageStore::new("plan", capacity, shards, &registry),
            sim: StageStore::new("sim", capacity, shards, &registry),
            config,
            registry,
        }
    }

    /// A shared (reference-counted) store, ready to be handed to several
    /// sessions or a server.
    pub fn shared(config: StoreConfig) -> Arc<Self> {
        Arc::new(Self::new(config))
    }

    /// The directory persisted artifacts live in, if any.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.config.cache_dir.as_deref()
    }

    /// The store's metrics registry: the single home of its cache
    /// counters (`session.<stage>.{hits,disk_hits,misses,evictions,
    /// singleflight_waits}`). Merge it into an exported trace with
    /// [`xflow_obs::TraceSnapshot::merge_registry`]; the server's
    /// `/metrics` endpoint renders it directly.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Per-stage cache counters accumulated over this store's lifetime
    /// (snapshots of the [`ArtifactStore::registry`] counters, summed
    /// over every session sharing the store).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            parse: self.parse.counters.snapshot(),
            profile: self.profile.counters.snapshot(),
            translate: self.translate.counters.snapshot(),
            bet: self.bet.counters.snapshot(),
            plan: self.plan.counters.snapshot(),
            sim: self.sim.counters.snapshot(),
        }
    }

    /// Delete this store's persisted artifacts, returning how many files
    /// were removed. A memory-only store removes nothing.
    pub fn clear_disk(&self) -> std::io::Result<usize> {
        match self.cache_dir() {
            Some(dir) => clear_cache_dir(dir),
            None => Ok(0),
        }
    }
}

// ---------------------------------------------------------------------------
// Process-wide store registration
// ---------------------------------------------------------------------------

static PROCESS_STORE: OnceLock<Mutex<Weak<ArtifactStore>>> = OnceLock::new();

/// Register `store` as the process's primary store. The server installs
/// its store on startup so `xflow cache stats` (and anything else
/// in-process) reads live counters from the registry actually serving
/// traffic instead of a fresh, empty session.
pub fn install_process_store(store: &Arc<ArtifactStore>) {
    let slot = PROCESS_STORE.get_or_init(|| Mutex::new(Weak::new()));
    *slot.lock().unwrap() = Arc::downgrade(store);
}

/// The registered process store, if one is alive.
pub fn process_store() -> Option<Arc<ArtifactStore>> {
    PROCESS_STORE.get().and_then(|slot| slot.lock().unwrap().upgrade())
}

// ---------------------------------------------------------------------------
// Disk persistence
// ---------------------------------------------------------------------------

/// Artifact file name: the salt (schema fingerprint) and content key are
/// both in the name, so a schema bump simply stops matching old files.
fn artifact_path(dir: &Path, stage: &str, salt: u64, key: u64) -> PathBuf {
    dir.join(format!("{stage}-{salt:016x}-{key:016x}.json"))
}

/// Load a persisted artifact; any failure (missing, unreadable, truncated,
/// corrupted) is a cache miss, never an error.
fn load_artifact<T: serde::Deserialize>(dir: &Path, stage: &str, salt: u64, key: u64) -> Option<T> {
    let text = fs::read_to_string(artifact_path(dir, stage, salt, key)).ok()?;
    serde_json::from_str(&text).ok()
}

/// Persist an artifact atomically (tmp + rename). Failures are silent: the
/// cache is an accelerator, not a durability contract. The tmp name folds
/// in the thread id so concurrent leaders of *different* keys in one
/// process never collide.
fn store_artifact<T: serde::Serialize>(dir: &Path, stage: &str, salt: u64, key: u64, value: &T) {
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = artifact_path(dir, stage, salt, key);
    let tmp = path.with_extension(format!("tmp.{}.{key:016x}", std::process::id()));
    let Ok(text) = serde_json::to_string(value) else { return };
    let write = fs::File::create(&tmp).and_then(|mut f| f.write_all(text.as_bytes()));
    if write.is_ok() {
        let _ = fs::rename(&tmp, &path);
    } else {
        let _ = fs::remove_file(&tmp);
    }
}

/// Whether a file name matches the artifact naming scheme of any stage.
fn is_artifact_file(name: &str) -> bool {
    let Some(rest) = name.strip_suffix(".json") else { return false };
    let mut parts = rest.splitn(2, '-');
    let stage = parts.next().unwrap_or("");
    let Some(hashes) = parts.next() else { return false };
    matches!(stage, "parse" | "profile" | "translate" | "bet" | "plan" | "sim")
        && hashes.len() == 33
        && hashes.as_bytes()[16] == b'-'
        && hashes.chars().enumerate().all(|(i, c)| i == 16 || c.is_ascii_hexdigit())
}

/// Summary of a cache directory's contents (the `cache stats` subcommand).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheReport {
    /// Artifact files per stage, in pipeline order.
    pub per_stage: [usize; 6],
    /// Total artifact files.
    pub entries: usize,
    /// Total artifact bytes.
    pub bytes: u64,
}

impl DiskCacheReport {
    /// Stage names matching `per_stage` order.
    pub const STAGES: [&'static str; 6] = ["parse", "profile", "translate", "bet", "plan", "sim"];
}

/// Scan a cache directory (missing directory → empty report).
pub fn disk_cache_report(dir: &Path) -> DiskCacheReport {
    let mut report = DiskCacheReport::default();
    let Ok(entries) = fs::read_dir(dir) else { return report };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !is_artifact_file(name) {
            continue;
        }
        if let Some(i) = DiskCacheReport::STAGES.iter().position(|s| name.starts_with(&format!("{s}-"))) {
            report.per_stage[i] += 1;
        }
        report.entries += 1;
        report.bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
    }
    report
}

/// Delete all artifact files in a cache directory, returning the count.
/// Non-artifact files are left alone; a missing directory removes nothing.
pub fn clear_cache_dir(dir: &Path) -> std::io::Result<usize> {
    let mut removed = 0;
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_artifact_file(name) {
            fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use xflow_obs::NoopRecorder;

    fn store_with(capacity: usize, shards: usize) -> ArtifactStore {
        ArtifactStore::new(StoreConfig { capacity: Some(capacity), shards: Some(shards), ..StoreConfig::default() })
    }

    #[test]
    fn per_stage_names_and_hit_ratio() {
        let mut stats = CacheStats::default();
        assert_eq!(stats.hit_ratio(), 0.0, "no lookups yet");
        stats.parse = StageStats { hits: 3, disk_hits: 1, misses: 1, evictions: 0, singleflight_waits: 2 };
        stats.plan = StageStats { hits: 0, disk_hits: 0, misses: 5, evictions: 0, singleflight_waits: 0 };
        let names: Vec<&str> = stats.per_stage().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["parse", "profile", "translate", "bet", "plan", "sim"]);
        assert_eq!(stats.per_stage()[0].1.singleflight_waits, 2);
        // 4 hits of 10 lookups
        assert!((stats.hit_ratio() - 0.4).abs() < 1e-12, "{}", stats.hit_ratio());
    }

    #[test]
    fn single_shard_lru_evicts_least_recently_used() {
        let s = store_with(2, 1);
        let get = |key: u64, val: u64| {
            s.parse
                .get_or_build(0, None, &NoopRecorder, key, || {
                    Ok(ml::parse(&format!("fn main() {{ let x = {val}; print(x); }}")).unwrap())
                })
                .unwrap()
        };
        get(1, 1);
        get(2, 2);
        get(1, 1); // refresh key 1
        get(3, 3); // evicts key 2
        let st = s.stats().parse;
        assert_eq!(st.evictions, 1);
        assert_eq!(st.misses, 3);
        get(2, 2); // key 2 is gone → rebuild (and key 1, now oldest, is evicted)
        assert_eq!(s.stats().parse.misses, 4);
        get(3, 3);
        assert_eq!(s.stats().parse.misses, 4, "key 3 must still be resident");
        assert_eq!(s.stats().parse.evictions, 2);
    }

    #[test]
    fn thundering_herd_builds_once() {
        let s = store_with(8, 4);
        let builds = AtomicU64::new(0);
        let key = 0x5eed;
        let results: Vec<Arc<ml::Program>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|_| {
                        s.parse
                            .get_or_build(0, None, &NoopRecorder, key, || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                // a slow build widens the race window
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                Ok(ml::parse("fn main() { let x = 1; print(x); }").unwrap())
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight must dedup the herd");
        let st = s.stats().parse;
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits + st.misses, 8, "every request is served");
        assert!(st.singleflight_waits >= 1, "late arrivals must wait, not rebuild: {st:?}");
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r), "all waiters share the leader's artifact");
        }
    }

    #[test]
    fn build_errors_propagate_to_waiters_and_do_not_poison() {
        let s = store_with(8, 4);
        let key = 0xdead;
        let err = s
            .parse
            .get_or_build(0, None, &NoopRecorder, key, || Err(PipelineError::Parse(ml::parse("fn{").unwrap_err())))
            .unwrap_err();
        assert!(matches!(err, PipelineError::Parse(_)));
        // the failed flight is retired: the next request rebuilds
        let ok = s
            .parse
            .get_or_build(0, None, &NoopRecorder, key, || Ok(ml::parse("fn main() { let x = 1; print(x); }").unwrap()));
        assert!(ok.is_ok());
        assert_eq!(s.stats().parse.misses, 2);
    }

    #[test]
    fn artifact_file_name_filter() {
        assert!(is_artifact_file("parse-0123456789abcdef-fedcba9876543210.json"));
        assert!(is_artifact_file("plan-0000000000000000-0000000000000000.json"));
        assert!(is_artifact_file("sim-0000000000000000-0000000000000000.json"));
        assert!(!is_artifact_file("kernel-0000000000000000-0000000000000000.json"), "no kernel stage");
        assert!(!is_artifact_file("parse-0123-fedc.json"));
        assert!(!is_artifact_file("notes.txt"));
        assert!(!is_artifact_file("other-0123456789abcdef-fedcba9876543210.json"));
    }

    #[test]
    fn process_store_registration_is_weak() {
        {
            let s = ArtifactStore::shared(StoreConfig::default());
            install_process_store(&s);
            assert!(process_store().is_some());
        }
        assert!(process_store().is_none(), "a dropped store must not be resurrected");
    }
}
