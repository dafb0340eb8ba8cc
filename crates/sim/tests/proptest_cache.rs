//! Property tests for the cache model and the cost tracer.

use proptest::prelude::*;
use xflow_hw::CacheLevel;
use xflow_minilang::{MStmtId, Tracer};
use xflow_sim::reference::{ReferenceCache, ReferenceHierarchy};
use xflow_sim::{AccessLevel, CacheArray, Hierarchy, SimConfig, SimTracer};

fn cache_level() -> impl Strategy<Value = CacheLevel> {
    (prop_oneof![Just(512u64), Just(4096), Just(32768)], prop_oneof![Just(32u32), Just(64), Just(128)], 1u32..=8)
        .prop_map(|(size, line, assoc)| CacheLevel {
            size_bytes: size.max((line * assoc) as u64),
            line_bytes: line,
            assoc,
            latency_cycles: 4.0,
        })
}

/// Set counts that are and are not powers of two (Xeon's LLC has 12,288
/// sets × 20 ways, Skylake's 40,960 × 11), the associativities of the
/// evaluated machines plus direct-mapped and 2-way, and 32–256 B lines.
const SETS: [u64; 9] = [1, 3, 4, 5, 12, 32, 64, 12_288, 40_960];
const ASSOCS: [u32; 6] = [1, 2, 8, 11, 16, 20];
const LINES: [u32; 4] = [32, 64, 128, 256];

fn oracle_level() -> impl Strategy<Value = CacheLevel> {
    (0..SETS.len(), 0..ASSOCS.len(), 0..LINES.len()).prop_map(|(s, a, l)| CacheLevel {
        size_bytes: SETS[s] * ASSOCS[a] as u64 * LINES[l] as u64,
        line_bytes: LINES[l],
        assoc: ASSOCS[a],
        latency_cycles: 4.0,
    })
}

/// One step against a cache: `kind` 0–2 a traced access, 3 an untraced
/// access, 4 a prefetch fill; the rest pick an address (see [`address`]).
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    pick: u64,
    tag: u64,
    offset: u64,
    stmt: u32,
}

fn oracle_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..5, 0u64..1 << 20, 0u64..64, 0u64..256, 0u32..5).prop_map(|(kind, pick, tag, offset, stmt)| Op {
            kind,
            pick,
            tag,
            offset,
            stmt,
        }),
        1..600,
    )
}

/// The address `op` names in `level`: mostly one of a few more than `assoc`
/// lines crowding one of four sets, so evictions are frequent at any set
/// count; a sixteenth of the time an arbitrary address below 1 MiB.
fn address(level: &CacheLevel, op: Op) -> u64 {
    if op.pick.is_multiple_of(16) {
        return op.pick;
    }
    let sets = level.sets();
    let set = [0, 1, sets / 2, sets - 1][(op.pick % 4) as usize];
    let line = (op.tag % (level.assoc as u64 + 3)) * sets + set;
    line * level.line_bytes as u64 + op.offset % level.line_bytes as u64
}

fn trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..(1 << 20), 1..2000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_array_matches_the_lru_oracle(level in oracle_level(), track in 0u8..2, ops in oracle_ops()) {
        let track = track == 1;
        let mut c = if track { CacheArray::with_reuse_tracking(&level) } else { CacheArray::new(&level) };
        let mut r = ReferenceCache::new(&level, track);
        for (i, &op) in ops.iter().enumerate() {
            let addr = address(&level, op);
            let ctx = format!("step {i} {op:?} addr {addr:#x} on {level:?} (tracked: {track})");
            match op.kind {
                3 => prop_assert_eq!(c.access(addr), r.access(addr), "{}", ctx),
                4 => {
                    c.fill(addr);
                    r.fill(addr);
                }
                _ => {
                    let stmt = MStmtId(op.stmt);
                    prop_assert_eq!(c.access_traced(addr, stmt), r.access_traced(addr, stmt), "{}", ctx);
                }
            }
            prop_assert_eq!((c.hits(), c.misses()), (r.hits(), r.misses()), "{}", ctx);
        }
    }

    #[test]
    fn hierarchy_matches_the_lru_oracle(
        l1 in oracle_level(),
        llc in oracle_level(),
        track in 0u8..2,
        ops in oracle_ops(),
    ) {
        let track = track == 1;
        let mut h = if track { Hierarchy::with_reuse_tracking(&l1, &llc) } else { Hierarchy::new(&l1, &llc) };
        let mut r = ReferenceHierarchy::new(&l1, &llc, track);
        for (i, &op) in ops.iter().enumerate() {
            // crowd the L1's sets and the LLC's by turns
            let addr = address(if op.pick / 16 % 2 == 0 { &l1 } else { &llc }, op);
            let ctx = format!("step {i} {op:?} addr {addr:#x} on {l1:?} / {llc:?} (tracked: {track})");
            if op.kind >= 3 {
                prop_assert_eq!(h.access(addr), r.access(addr), "{}", ctx);
            } else {
                let stmt = MStmtId(op.stmt);
                prop_assert_eq!(h.access_traced(addr, stmt), r.access_traced(addr, stmt), "{}", ctx);
            }
            prop_assert_eq!((h.l1.hits(), h.l1.misses()), (r.l1.hits(), r.l1.misses()), "{}", ctx);
            prop_assert_eq!((h.llc.hits(), h.llc.misses()), (r.llc.hits(), r.llc.misses()), "{}", ctx);
            prop_assert_eq!((h.dram_accesses(), h.dram_bytes()), (r.dram_accesses(), r.dram_bytes()), "{}", ctx);
        }
    }

    #[test]
    fn accounting_is_consistent(level in cache_level(), t in trace()) {
        let mut c = CacheArray::new(&level);
        for &a in &t {
            c.access(a);
        }
        prop_assert_eq!(c.hits() + c.misses(), t.len() as u64);
        prop_assert!((0.0..=1.0).contains(&c.hit_rate()));
    }

    #[test]
    fn replaying_a_trace_cannot_hit_less(level in cache_level(), t in trace()) {
        // second pass over the same trace: every line either survived (hit)
        // or was re-fetched — hits can only accumulate
        let mut c = CacheArray::new(&level);
        for &a in &t {
            c.access(a);
        }
        let first_hits = c.hits();
        for &a in &t {
            c.access(a);
        }
        prop_assert!(c.hits() >= first_hits);
    }

    #[test]
    fn small_working_set_converges_to_all_hits(level in cache_level()) {
        // touch fewer distinct lines than half the capacity, repeatedly
        let lines = ((level.size_bytes / level.line_bytes as u64) / 2).max(1);
        let mut c = CacheArray::new(&level);
        for _ in 0..4 {
            for i in 0..lines {
                c.access(i * level.line_bytes as u64);
            }
        }
        // after warmup the last full pass must be hits only
        let before = c.misses();
        for i in 0..lines {
            c.access(i * level.line_bytes as u64);
        }
        prop_assert_eq!(c.misses(), before, "no new misses expected");
    }

    #[test]
    fn hierarchy_dram_accounting(l1 in cache_level(), t in trace()) {
        let llc = CacheLevel { size_bytes: 64 * 1024, line_bytes: l1.line_bytes, assoc: 8, latency_cycles: 30.0 };
        let mut h = Hierarchy::new(&l1, &llc);
        let mut dram_seen = 0;
        for &a in &t {
            if h.access(a) == AccessLevel::Dram {
                dram_seen += 1;
            }
        }
        prop_assert_eq!(h.dram_accesses(), dram_seen);
        prop_assert_eq!(h.dram_bytes(), dram_seen * llc.line_bytes as u64);
    }

    #[test]
    fn tracer_total_is_sum_of_parts(ops in prop::collection::vec((0u32..3, 0u32..100, 0u64..(1<<16)), 1..500)) {
        let m = xflow_hw::generic();
        let mut t = SimTracer::new(&m, SimConfig::default());
        for &(kind, count, addr) in &ops {
            match kind {
                0 => t.ops(MStmtId(count % 7), count, count / 2, 0),
                1 => t.load(MStmtId(count % 7), addr * 8),
                _ => t.store(MStmtId(count % 7), addr * 8),
            }
        }
        let maps = t.maps();
        let sum: f64 = maps.stmt_cycles.values().sum::<f64>()
            + maps.lib_cycles.values().sum::<f64>();
        prop_assert!((sum - t.total_cycles).abs() < 1e-6 * t.total_cycles.max(1.0));
        prop_assert!(t.total_cycles >= 0.0);
    }

    #[test]
    fn lib_costs_attributed_to_names(calls in prop::collection::vec((0usize..3, -5.0f64..5.0), 1..200)) {
        let m = xflow_hw::generic();
        let mut t = SimTracer::new(&m, SimConfig::default());
        let names = ["exp", "rand", "sqrt"];
        for &(i, arg) in &calls {
            t.lib_call(MStmtId(0), names[i], arg);
        }
        let maps = t.maps();
        let lib_sum: f64 = maps.lib_cycles.values().sum();
        prop_assert!((lib_sum - t.total_cycles).abs() < 1e-9);
        prop_assert!(maps.stmt_cycles.is_empty());
    }
}
