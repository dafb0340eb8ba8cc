//! Set-associative cache hierarchy with LRU replacement.
//!
//! The simulator models the two levels the paper's machines expose (private
//! L1D and a shared last-level cache) in front of DRAM. Unlike the
//! projection model's constant hit-rate assumption, every access is looked
//! up by address — which is precisely what creates the paper's observed
//! divergences (e.g. SORD's 4th hot spot reusing data the 1st brought in,
//! Section VII-C).
//!
//! Each set keeps its lines in recency order, so the simulated LRU is exact
//! without per-access stamps: a hit moves its line to the front, a miss
//! evicts the last way. The way store grows with the sets a run touches.

use xflow_hw::CacheLevel;
use xflow_minilang::MStmtId;

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessLevel {
    L1,
    Llc,
    Dram,
}

/// Sentinel toucher: no statement on record.
const NO_TOUCHER: u32 = u32::MAX;

/// Low half of a way word: the complemented tag.
const TAG_MASK: u64 = u32::MAX as u64;

/// The way word for line `tag` last touched by `toucher`: both halves are
/// complemented, so an empty way is the all-zero word and a line with no
/// toucher on record has a zero high half.
#[inline]
fn way_word(tag: u32, toucher: u32) -> u64 {
    (((!toucher) as u64) << 32) | (!tag) as u64
}

/// The toucher a way word records ([`NO_TOUCHER`] for none or an empty way).
#[inline]
fn toucher_of(word: u64) -> u32 {
    !((word >> 32) as u32)
}

/// Shift `ways` down one way, dropping the last, and put `word` in front.
/// Element by element: most shifts move a way or two, and the simulator
/// measured about 10% faster this way than with a `copy_within` call.
#[inline]
fn push_front(ways: &mut [u64], word: u64) {
    let mut carry = word;
    for w in ways {
        carry = std::mem::replace(w, carry);
    }
}

/// One set-associative cache level with LRU replacement.
///
/// Each set keeps its lines in recency order: way 0 holds the most
/// recently used line and the last way the LRU victim, so a hit on the
/// line a set used last is one compare. With reuse tracking enabled (the
/// simulator's L1), every way also remembers the statement that last
/// touched its line, so one set probe answers hit/miss *and* self/cross
/// reuse attribution — no side table keyed by line address on the hot
/// path. Touchers of evicted lines are archived so a line that leaves the
/// cache and is later prefetched back still knows who touched it last,
/// exactly like the old per-line map.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// Way store: per set, `assoc` packed `(!toucher << 32) | !tag` words
    /// in recency order ([`way_word`]), zero when empty. Valid lines fill a
    /// set from the front, so a set with an empty way has an empty last
    /// way and the victim is always the last way.
    ///
    /// The store starts empty and grows, zero-filled, in power-of-two
    /// steps up to `sets × assoc` words as probes reach higher sets: a run
    /// pays for the cache capacity it touches, not for a whole
    /// last-level cache. Tags are the *quotient* `line / sets` (the set
    /// index is the remainder), so `(set, tag)` identifies a line exactly —
    /// no aliasing. Simulated addresses are bump-allocated from near zero,
    /// so the quotient never approaches `u32::MAX`, the empty way's tag.
    ways: Vec<u64>,
    /// Last touchers of lines no longer resident, indexed by line number
    /// ([`NO_TOUCHER`] = vacant). Simulated addresses are bump-allocated
    /// from near zero, so the line space is dense and a flat vector
    /// replaces the per-eviction hash traffic with one indexed write.
    evicted_touchers: Vec<u32>,
    sets: u64,
    /// `sets - 1` when `sets` is a power of two, else `u64::MAX` — lets the
    /// per-access set/tag split be a mask+shift instead of a 64-bit
    /// division (both machines' L1s are power-of-two; Xeon's 12288-set
    /// LLC is not).
    set_mask: u64,
    /// `log2(sets)` when `sets` is a power of two (unused otherwise).
    set_shift: u32,
    assoc: usize,
    line_shift: u32,
    /// Reuse tracking on: demand accesses record their statement.
    track: bool,
    hits: u64,
    misses: u64,
}

impl CacheArray {
    /// Build from a machine cache-level description.
    pub fn new(level: &CacheLevel) -> Self {
        Self::build(level, false)
    }

    /// Build with per-way last-toucher reuse tracking enabled.
    pub fn with_reuse_tracking(level: &CacheLevel) -> Self {
        Self::build(level, true)
    }

    fn build(level: &CacheLevel, track: bool) -> Self {
        let sets = level.sets();
        CacheArray {
            ways: Vec::new(),
            evicted_touchers: Vec::new(),
            sets,
            set_mask: if sets.is_power_of_two() { sets - 1 } else { u64::MAX },
            set_shift: sets.trailing_zeros(),
            assoc: level.assoc.max(1) as usize,
            line_shift: level.line_bytes.trailing_zeros(),
            track,
            hits: 0,
            misses: 0,
        }
    }

    /// Split `line` into its set index and compressed tag (the quotient).
    #[inline]
    fn set_and_tag(&self, line: u64) -> (usize, u32) {
        debug_assert!(line / self.sets < u32::MAX as u64, "line {line:#x} overflows the tag store");
        if self.set_mask != u64::MAX {
            ((line & self.set_mask) as usize, (line >> self.set_shift) as u32)
        } else {
            ((line % self.sets) as usize, (line / self.sets) as u32)
        }
    }

    /// Reassemble a line address from its set index and compressed tag.
    #[inline]
    fn line_of(&self, set: usize, tag: u32) -> u64 {
        (tag as u64) * self.sets + set as u64
    }

    /// Index of `set`'s first way, growing the way store to cover it.
    #[inline]
    fn set_base(&mut self, set: usize) -> usize {
        let base = set * self.assoc;
        if base + self.assoc > self.ways.len() {
            self.grow(base + self.assoc);
        }
        base
    }

    /// Extend the way store with empty ways to the next power of two that
    /// covers `end` words, capped at `sets × assoc`.
    #[cold]
    fn grow(&mut self, end: usize) {
        let cap = self.sets as usize * self.assoc;
        self.ways.resize(end.next_power_of_two().min(cap), 0);
    }

    /// Archive `toucher` as the last toucher of the (evicted) `line`.
    #[inline]
    fn archive_put(&mut self, line: u64, toucher: u32) {
        let i = line as usize;
        if i >= self.evicted_touchers.len() {
            self.evicted_touchers.resize((i + 1).next_power_of_two().max(1024), NO_TOUCHER);
        }
        self.evicted_touchers[i] = toucher;
    }

    /// Remove and return the archived toucher of `line` ([`NO_TOUCHER`] if
    /// none).
    #[inline]
    fn archive_take(&mut self, line: u64) -> u32 {
        match self.evicted_touchers.get_mut(line as usize) {
            Some(t) => std::mem::replace(t, NO_TOUCHER),
            None => NO_TOUCHER,
        }
    }

    /// Install line `(set, tag)` at the front of the set at `base`, shifting
    /// the set down one way and evicting its last (LRU) way. `toucher` is
    /// the new line's last-toucher record; [`NO_TOUCHER`] (a prefetch fill
    /// or an anonymous access) inherits whatever the archive knows.
    #[inline]
    fn install(&mut self, set: usize, base: usize, tag: u32, toucher: u32) {
        let victim = self.ways[base + self.assoc - 1];
        let evicted = toucher_of(victim);
        if evicted != NO_TOUCHER {
            self.archive_put(self.line_of(set, !(victim as u32)), evicted);
        }
        let archived = self.archive_take(self.line_of(set, tag));
        let toucher = if toucher == NO_TOUCHER { archived } else { toucher };
        push_front(&mut self.ways[base..base + self.assoc], way_word(tag, toucher));
    }

    /// Way of the line whose complemented tag is `key` in a set's `ways`.
    /// The scan runs in recency order, so the common hit on the set's most
    /// recent line is one compare.
    #[inline]
    fn find(ways: &[u64], key: u64) -> Option<usize> {
        ways.iter().position(|&e| e & TAG_MASK == key)
    }

    /// The probe every access shares: hit/miss and the line's previous
    /// toucher. A hit moves the line to the front of its set and records
    /// `toucher` (unless [`NO_TOUCHER`]); a miss installs it.
    #[inline]
    fn probe(&mut self, addr: u64, toucher: u32) -> (bool, u32) {
        let (set, tag) = self.set_and_tag(addr >> self.line_shift);
        let base = self.set_base(set);
        let key = (!tag) as u64;
        let ways = &mut self.ways[base..base + self.assoc];
        let Some(k) = Self::find(ways, key) else {
            self.misses += 1;
            self.install(set, base, tag, toucher);
            return (false, NO_TOUCHER);
        };
        self.hits += 1;
        let word = ways[k];
        push_front(&mut ways[..=k], if toucher == NO_TOUCHER { word } else { way_word(tag, toucher) });
        (true, toucher_of(word))
    }

    /// Insert a line without touching hit/miss statistics (prefetch fill).
    /// A line already resident stays where it is in the recency order.
    pub fn fill(&mut self, addr: u64) {
        let (set, tag) = self.set_and_tag(addr >> self.line_shift);
        let base = self.set_base(set);
        let key = (!tag) as u64;
        if Self::find(&self.ways[base..base + self.assoc], key).is_some() {
            return;
        }
        self.install(set, base, tag, NO_TOUCHER);
    }

    /// Look up an address on no statement's behalf; inserts the line on
    /// miss. Returns hit/miss.
    pub fn access(&mut self, addr: u64) -> bool {
        self.probe(addr, NO_TOUCHER).0
    }

    /// [`access`](Self::access) that also records `stmt` as the line's
    /// last toucher and, on a hit, returns who touched it before — the
    /// single-pass probe the simulator's reuse accounting rides on. An
    /// array without reuse tracking records nothing and returns `None`.
    pub fn access_traced(&mut self, addr: u64, stmt: MStmtId) -> (bool, Option<MStmtId>) {
        let (hit, prev) = self.probe(addr, if self.track { stmt.0 } else { NO_TOUCHER });
        (hit, if prev == NO_TOUCHER { None } else { Some(MStmtId(prev)) })
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Accesses so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0,1]` (1.0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            1.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Two-level hierarchy: L1 in front of a shared LLC in front of DRAM.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    pub l1: CacheArray,
    pub llc: CacheArray,
    dram_accesses: u64,
    dram_bytes: u64,
    line_bytes: u64,
}

impl Hierarchy {
    /// Build for a machine's cache parameters.
    pub fn new(l1: &CacheLevel, llc: &CacheLevel) -> Self {
        Hierarchy {
            l1: CacheArray::new(l1),
            llc: CacheArray::new(llc),
            dram_accesses: 0,
            dram_bytes: 0,
            line_bytes: llc.line_bytes as u64,
        }
    }

    /// Build with last-toucher reuse tracking on the L1 (the level whose
    /// hits the simulator attributes to self/cross-block reuse).
    pub fn with_reuse_tracking(l1: &CacheLevel, llc: &CacheLevel) -> Self {
        Hierarchy {
            l1: CacheArray::with_reuse_tracking(l1),
            llc: CacheArray::new(llc),
            dram_accesses: 0,
            dram_bytes: 0,
            line_bytes: llc.line_bytes as u64,
        }
    }

    /// Perform an access, returning the level that satisfied it.
    ///
    /// A miss triggers a next-line prefetch into both levels — the
    /// one-block-lookahead stream prefetcher both evaluation machines have
    /// (BG/Q's L1p unit, Sandy Bridge's streamers). Sequential sweeps
    /// therefore mostly hit after the first line, while irregular gathers
    /// (e.g. CFD's face flux) keep missing.
    pub fn access(&mut self, addr: u64) -> AccessLevel {
        if self.l1.access(addr) {
            return AccessLevel::L1;
        }
        self.miss(addr)
    }

    /// [`access`](Self::access) that also threads reuse attribution: the
    /// L1 probe records `stmt` as the touched line's last toucher and, on
    /// an L1 hit, reports the previous toucher (reuse is only classified
    /// on L1 hits; prefetch fills stay anonymous).
    pub fn access_traced(&mut self, addr: u64, stmt: MStmtId) -> (AccessLevel, Option<MStmtId>) {
        let (l1_hit, prev) = self.l1.access_traced(addr, stmt);
        if l1_hit {
            return (AccessLevel::L1, prev);
        }
        (self.miss(addr), None)
    }

    /// The L1-miss path: probe the LLC, count a DRAM fill on an LLC miss,
    /// and prefetch the next line into both levels.
    fn miss(&mut self, addr: u64) -> AccessLevel {
        let level = if self.llc.access(addr) {
            AccessLevel::Llc
        } else {
            self.dram_accesses += 1;
            self.dram_bytes += self.line_bytes;
            AccessLevel::Dram
        };
        let next = addr.wrapping_add(self.line_bytes);
        self.l1.fill(next);
        self.llc.fill(next);
        level
    }

    /// Line fills that reached DRAM.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// Bytes transferred from DRAM.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_hw::CacheLevel;

    fn tiny() -> CacheLevel {
        // 4 sets × 2 ways × 64B lines = 512 B
        CacheLevel { size_bytes: 512, line_bytes: 64, assoc: 2, latency_cycles: 1.0 }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheArray::new(&tiny());
        assert!(!c.access(0x1000)); // cold miss
        assert!(c.access(0x1000));
        assert!(c.access(0x1008)); // same line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn distinct_lines_in_same_set_use_ways() {
        let mut c = CacheArray::new(&tiny());
        // set index = (addr/64) % 4; addresses 0 and 1024 map to set 0
        assert!(!c.access(0));
        assert!(!c.access(1024));
        assert!(c.access(0));
        assert!(c.access(1024));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = CacheArray::new(&tiny());
        // three lines mapping to set 0 in a 2-way cache
        c.access(0); // A
        c.access(1024); // B
        c.access(0); // A again (B is now LRU)
        assert!(!c.access(2048)); // C evicts B
        assert!(c.access(0)); // A still resident
        assert!(!c.access(1024)); // B was evicted
    }

    #[test]
    fn fill_of_a_resident_line_keeps_its_recency() {
        let mut c = CacheArray::new(&tiny());
        c.access(0); // A
        c.access(1024); // B (A is now LRU)
        c.fill(0); // A is resident: the fill changes nothing
        assert!(!c.access(2048)); // C still evicts A
        assert!(c.access(1024)); // B resident
        assert!(!c.access(0)); // A was evicted
        assert_eq!((c.hits(), c.misses()), (1, 4));
    }

    #[test]
    fn way_store_grows_with_the_sets_touched() {
        // BG/Q's LLC geometry: 16,384 sets × 16 ways = 262,144 way words
        let llc = CacheLevel { size_bytes: 32 << 20, line_bytes: 128, assoc: 16, latency_cycles: 51.0 };
        let mut c = CacheArray::new(&llc);
        assert!(c.ways.is_empty(), "a fresh level holds no way words");
        for line in 0..100u64 {
            c.access(line * 128);
        }
        // sets 0..100 need 1,600 words: the store is the next power of two
        assert_eq!(c.ways.len(), 2048);
        c.fill((llc.sets() - 1) * 128);
        assert_eq!(c.ways.len(), 262_144, "the last set grows the store to its cap");
    }

    #[test]
    fn capacity_thrashing_misses() {
        let mut c = CacheArray::new(&tiny());
        // stream far more lines than capacity: all misses on second pass too
        for rep in 0..2 {
            for i in 0..64u64 {
                let hit = c.access(i * 64);
                if rep == 0 {
                    assert!(!hit);
                }
            }
        }
        assert!(c.hit_rate() < 0.05, "{}", c.hit_rate());
    }

    #[test]
    fn working_set_fitting_in_cache_hits_after_warmup() {
        let mut c = CacheArray::new(&tiny());
        // 8 lines = full capacity (4 sets × 2 ways)
        for _ in 0..10 {
            for i in 0..8u64 {
                c.access(i * 64);
            }
        }
        // 8 cold misses, 72 hits
        assert_eq!(c.misses(), 8);
        assert_eq!(c.hits(), 72);
    }

    #[test]
    fn hierarchy_levels() {
        let l1 = tiny();
        let llc = CacheLevel { size_bytes: 4096, line_bytes: 64, assoc: 4, latency_cycles: 10.0 };
        let mut h = Hierarchy::new(&l1, &llc);
        assert_eq!(h.access(0x5000), AccessLevel::Dram); // cold
        assert_eq!(h.access(0x5000), AccessLevel::L1);
        // evict from L1 by striding over lines (strides defeat the next-line
        // prefetcher) while staying under LLC capacity (64 lines)
        for i in 0..8u64 {
            h.access(0x10000 + i * 256);
        }
        assert_eq!(h.access(0x5000), AccessLevel::Llc);
        assert!(h.dram_accesses() > 0);
        assert_eq!(h.dram_bytes(), h.dram_accesses() * 64);
    }

    #[test]
    fn prefetcher_hides_sequential_stream() {
        let l1 = tiny();
        let llc = CacheLevel { size_bytes: 4096, line_bytes: 64, assoc: 4, latency_cycles: 10.0 };
        let mut h = Hierarchy::new(&l1, &llc);
        // a forward sequential sweep: every other line is prefetched
        let mut misses = 0;
        for i in 0..256u64 {
            if h.access(0x20000 + i * 8) != AccessLevel::L1 {
                misses += 1;
            }
        }
        // 256 × 8B = 32 lines; with next-line prefetch roughly half the
        // line boundaries hit
        assert!(misses <= 17, "{misses}");
        // random far-apart accesses are not helped
        let mut h2 = Hierarchy::new(&l1, &llc);
        let mut cold = 0;
        for i in 0..32u64 {
            if h2.access(0x100000 + i * 4096) != AccessLevel::L1 {
                cold += 1;
            }
        }
        assert_eq!(cold, 32);
    }

    #[test]
    fn hit_rate_defaults_to_one_when_idle() {
        let c = CacheArray::new(&tiny());
        assert_eq!(c.hit_rate(), 1.0);
    }

    #[test]
    fn traced_hit_reports_previous_toucher() {
        let mut c = CacheArray::with_reuse_tracking(&tiny());
        let s1 = MStmtId(1);
        let s2 = MStmtId(2);
        assert_eq!(c.access_traced(0x1000, s1), (false, None)); // cold
        assert_eq!(c.access_traced(0x1000, s1), (true, Some(s1))); // self reuse
        assert_eq!(c.access_traced(0x1008, s2), (true, Some(s1))); // cross reuse
        assert_eq!(c.access_traced(0x1010, s2), (true, Some(s2)));
    }

    #[test]
    fn untracked_array_yields_no_touchers() {
        let mut c = CacheArray::new(&tiny());
        let s = MStmtId(7);
        assert_eq!(c.access_traced(0x40, s), (false, None));
        assert_eq!(c.access_traced(0x40, s), (true, None));
    }

    #[test]
    fn evicted_toucher_survives_refill() {
        // A line touched by s1, evicted, then brought back by an anonymous
        // fill must still attribute its next hit to s1 — the archive keeps
        // what the old per-line side table kept for free.
        let mut c = CacheArray::with_reuse_tracking(&tiny());
        let s1 = MStmtId(1);
        let s2 = MStmtId(2);
        c.access_traced(0, s1); // set 0
        c.access_traced(1024, s2); // set 0, second way
        c.access_traced(1024, s2); // make line 0 the LRU
        c.access_traced(2048, s2); // evicts line 0 (touched by s1)
        c.fill(0); // anonymous prefetch brings line 0 back
        let (hit, prev) = c.access_traced(0, s2);
        assert!(hit);
        assert_eq!(prev, Some(s1));
    }

    #[test]
    fn demand_insert_overrides_archived_toucher() {
        let mut c = CacheArray::with_reuse_tracking(&tiny());
        let s1 = MStmtId(1);
        let s2 = MStmtId(2);
        c.access_traced(0, s1);
        c.access_traced(1024, s2);
        c.access_traced(1024, s2);
        c.access_traced(2048, s2); // evicts line 0
        c.access_traced(0, s2); // demand miss re-inserts with toucher s2
        let (hit, prev) = c.access_traced(0, s1);
        assert!(hit);
        assert_eq!(prev, Some(s2));
    }

    #[test]
    fn hierarchy_traced_matches_untraced_levels() {
        let l1 = tiny();
        let llc = CacheLevel { size_bytes: 4096, line_bytes: 64, assoc: 4, latency_cycles: 10.0 };
        let mut plain = Hierarchy::new(&l1, &llc);
        let mut traced = Hierarchy::with_reuse_tracking(&l1, &llc);
        let s = MStmtId(3);
        let addrs: Vec<u64> = (0..512u64).map(|i| (i * 2654435761) % 0x8000).collect();
        for &a in &addrs {
            let lvl = plain.access(a);
            let (tl, _) = traced.access_traced(a, s);
            assert_eq!(lvl, tl, "addr {a:#x}");
        }
        assert_eq!(plain.l1.hits(), traced.l1.hits());
        assert_eq!(plain.llc.misses(), traced.llc.misses());
        assert_eq!(plain.dram_bytes(), traced.dram_bytes());
    }
}
