//! The simulator's reference paths — kept as oracles, never on a
//! production path. Each item names the production component it checks:
//!
//! * [`simulate_reference`] — the **tree-walking engine**: the dense
//!   [`SimTracer`] driven by `xflow_minilang::reference::run` instead of
//!   the fused VM, so the VM's event stream is checked end to end
//!   (`simulate_with_seed` must report the same bits).
//! * [`ReferenceTracer`] and [`tracer_report`] — the **HashMap tracer**:
//!   the pre-dense cost tracer, one `entry` upsert per dynamic operation,
//!   a `String` allocation per library call, and cross-block reuse
//!   tracked through a side `last_toucher` map keyed by cache line. It is
//!   slow and that is the point: the dense [`SimTracer`] must reproduce
//!   its `SimReport` *bit-for-bit* (`f64::to_bits` on every cycle
//!   account, exact equality on every count). The proptests below check
//!   that over generated programs and all paper workloads on both
//!   evaluation machines; `exp_sim` checks it on CFD before timing the
//!   two tracers against each other on the same cache.
//! * [`assert_reports_bit_equal`] — the bit-equality assertion both
//!   checks use.
//! * [`ReferenceCache`] and [`ReferenceHierarchy`] — an **independent
//!   LRU oracle** for [`crate::CacheArray`] and [`Hierarchy`]: each set
//!   is a `Vec` of lines in recency order and last touchers live in a
//!   `HashMap<line, stmt>`, the semantics `ReferenceTracer` uses. The
//!   tracers above both ride on the production cache, so only this
//!   oracle can catch an LRU bug they share (`tests/proptest_cache.rs`).

use crate::cache::{AccessLevel, Hierarchy};
use crate::calibrate::hardware_lib_mix;
use crate::cost::SimConfig;
use crate::{finish_report, SimReport, SimTracer};
use std::collections::HashMap;
use xflow_hw::{CacheLevel, MachineModel};
use xflow_minilang::{InputSpec, Limits, MStmtId, Program, RuntimeError, Tracer, DEFAULT_SEED};

/// [`crate::simulate_with_seed`] under [`DEFAULT_SEED`] on the tree-walking
/// reference engine (for cross-checks of the VM's event stream).
pub fn simulate_reference(
    prog: &Program,
    inputs: &InputSpec,
    machine: &MachineModel,
    cfg: SimConfig,
) -> Result<SimReport, RuntimeError> {
    let tracer = SimTracer::for_program(prog, machine, cfg);
    let (profile, tracer, _ret) =
        xflow_minilang::reference::run(prog, inputs, tracer, Limits::default(), DEFAULT_SEED)?;
    Ok(finish_report(machine, profile, tracer))
}

/// The pre-dense HashMap-path cost tracer, unchanged.
#[derive(Debug)]
pub struct ReferenceTracer {
    machine: MachineModel,
    caches: Hierarchy,
    cfg: SimConfig,
    pub stmt_cycles: HashMap<MStmtId, f64>,
    pub stmt_instrs: HashMap<MStmtId, u64>,
    pub stmt_l1_misses: HashMap<MStmtId, u64>,
    pub stmt_cross_hits: HashMap<MStmtId, u64>,
    pub stmt_self_hits: HashMap<MStmtId, u64>,
    last_toucher: HashMap<u64, MStmtId>,
    pub lib_cycles: HashMap<String, f64>,
    pub lib_instrs: HashMap<String, u64>,
    pub total_cycles: f64,
}

impl ReferenceTracer {
    pub fn new(machine: &MachineModel, cfg: SimConfig) -> Self {
        ReferenceTracer {
            caches: Hierarchy::new(&machine.l1, &machine.llc),
            machine: machine.clone(),
            cfg,
            stmt_cycles: HashMap::new(),
            stmt_instrs: HashMap::new(),
            stmt_l1_misses: HashMap::new(),
            stmt_cross_hits: HashMap::new(),
            stmt_self_hits: HashMap::new(),
            last_toucher: HashMap::new(),
            lib_cycles: HashMap::new(),
            lib_instrs: HashMap::new(),
            total_cycles: 0.0,
        }
    }

    fn charge(&mut self, stmt: MStmtId, cycles: f64, instrs: u64) {
        *self.stmt_cycles.entry(stmt).or_insert(0.0) += cycles;
        *self.stmt_instrs.entry(stmt).or_insert(0) += instrs;
        self.total_cycles += cycles;
    }

    fn vec_factor(&self, stmt: MStmtId) -> f64 {
        let veff = self.cfg.vector_overrides.get(&stmt).copied().unwrap_or(self.machine.vector_efficiency);
        1.0 + (self.machine.vector_lanes - 1.0) * veff.clamp(0.0, 1.0)
    }

    fn flat_op_cycles(&self, stmt: MStmtId, flops: f64, iops: f64, divs: f64, loads: f64) -> f64 {
        let plain = (flops - divs).max(0.0);
        let fp = plain / (self.machine.scalar_flops_per_cycle * self.vec_factor(stmt));
        let dv = divs * self.machine.fdiv_latency_cycles;
        let int = iops / self.machine.issue_width;
        let mem = loads / self.machine.load_store_per_cycle;
        fp + dv + int + mem
    }

    pub fn caches(&self) -> &Hierarchy {
        &self.caches
    }

    fn mem_access(&mut self, stmt: MStmtId, addr: u64) {
        let vf = self.vec_factor(stmt);
        let m = &self.machine;
        let level = self.caches.access(addr);
        let cycles = match level {
            AccessLevel::L1 => 1.0 / (m.load_store_per_cycle * vf),
            AccessLevel::Llc => {
                *self.stmt_l1_misses.entry(stmt).or_insert(0) += 1;
                m.llc.latency_cycles / m.mlp
            }
            AccessLevel::Dram => {
                *self.stmt_l1_misses.entry(stmt).or_insert(0) += 1;
                m.dram_latency_cycles / m.mlp
            }
        };
        let line = addr >> 6;
        if level == AccessLevel::L1 {
            match self.last_toucher.get(&line) {
                Some(&prev) if prev != stmt => {
                    *self.stmt_cross_hits.entry(stmt).or_insert(0) += 1;
                }
                Some(_) => {
                    *self.stmt_self_hits.entry(stmt).or_insert(0) += 1;
                }
                None => {}
            }
        }
        self.last_toucher.insert(line, stmt);
        self.charge(stmt, cycles, 1);
    }
}

impl Tracer for ReferenceTracer {
    fn ops(&mut self, stmt: MStmtId, flops: u32, iops: u32, divs: u32) {
        let cycles = self.flat_op_cycles(stmt, flops as f64, iops as f64, divs as f64, 0.0);
        self.charge(stmt, cycles, (flops + iops) as u64);
    }

    fn load(&mut self, stmt: MStmtId, addr: u64) {
        self.mem_access(stmt, addr);
    }

    fn store(&mut self, stmt: MStmtId, addr: u64) {
        self.mem_access(stmt, addr);
    }

    fn lib_call(&mut self, stmt: MStmtId, name: &'static str, arg: f64) {
        let mix = hardware_lib_mix(name, arg);
        let cycles = self.flat_op_cycles(stmt, mix.flops as f64, mix.iops as f64, mix.divs as f64, mix.loads as f64);
        *self.lib_cycles.entry(name.to_string()).or_insert(0.0) += cycles;
        *self.lib_instrs.entry(name.to_string()).or_insert(0) += (mix.flops + mix.iops + mix.loads + mix.stores) as u64;
        self.total_cycles += cycles;
    }
}

/// Run a program through the unfused bytecode
/// (`xflow_minilang::reference::compile_unfused`) with the
/// [`ReferenceTracer`] and package the result exactly like the dense path
/// does.
pub fn tracer_report(
    prog: &Program,
    inputs: &InputSpec,
    machine: &MachineModel,
    cfg: SimConfig,
    seed: u64,
) -> Result<SimReport, RuntimeError> {
    let tracer = ReferenceTracer::new(machine, cfg);
    let vm = xflow_minilang::reference::compile_unfused(prog)?;
    let (profile, tracer, _ret) = vm.run(inputs, tracer, Limits::default(), seed)?;
    Ok(SimReport {
        l1_hit_rate: tracer.caches().l1.hit_rate(),
        llc_hit_rate: tracer.caches().llc.hit_rate(),
        dram_bytes: tracer.caches().dram_bytes(),
        stmt_cycles: tracer.stmt_cycles,
        stmt_instrs: tracer.stmt_instrs,
        stmt_l1_misses: tracer.stmt_l1_misses,
        stmt_cross_hits: tracer.stmt_cross_hits,
        stmt_self_hits: tracer.stmt_self_hits,
        lib_cycles: tracer.lib_cycles,
        lib_instrs: tracer.lib_instrs,
        total_cycles: tracer.total_cycles,
        profile,
        freq_ghz: machine.freq_ghz,
    })
}

/// One LRU cache level kept the obvious way: per set, a `Vec` of resident
/// lines with the most recent first, and a `HashMap` of each line's last
/// toucher that outlives eviction (with reuse tracking on).
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    sets: u64,
    assoc: usize,
    line_bytes: u64,
    track: bool,
    resident: HashMap<u64, Vec<u64>>,
    last_toucher: HashMap<u64, MStmtId>,
    hits: u64,
    misses: u64,
}

impl ReferenceCache {
    /// Build for `level`; `track` turns on last-toucher reuse tracking.
    pub fn new(level: &CacheLevel, track: bool) -> Self {
        ReferenceCache {
            sets: level.sets(),
            assoc: level.assoc.max(1) as usize,
            line_bytes: level.line_bytes as u64,
            track,
            resident: HashMap::new(),
            last_toucher: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Bring `line` to the front of its set, dropping the set's last line
    /// when a miss finds it full. Returns whether `line` was resident.
    fn touch(&mut self, line: u64) -> bool {
        let set = self.resident.entry(line % self.sets).or_default();
        let hit = match set.iter().position(|&l| l == line) {
            Some(k) => {
                set.remove(k);
                true
            }
            None => {
                if set.len() == self.assoc {
                    set.pop();
                }
                false
            }
        };
        set.insert(0, line);
        hit
    }

    /// A demand access by `stmt`: hit/miss, and on a hit (with tracking)
    /// the statement that touched the line before.
    pub fn access_traced(&mut self, addr: u64, stmt: MStmtId) -> (bool, Option<MStmtId>) {
        let line = addr / self.line_bytes;
        let hit = self.access(addr);
        if !self.track {
            return (hit, None);
        }
        let prev = self.last_toucher.insert(line, stmt);
        (hit, if hit { prev } else { None })
    }

    /// An access on no statement's behalf: hit/miss, touchers untouched.
    pub fn access(&mut self, addr: u64) -> bool {
        let hit = self.touch(addr / self.line_bytes);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// A prefetch fill: a resident line is left where it is, a missing one
    /// is installed as most recent. Statistics do not move.
    pub fn fill(&mut self, addr: u64) {
        let line = addr / self.line_bytes;
        let resident = self.resident.get(&(line % self.sets)).is_some_and(|s| s.contains(&line));
        if !resident {
            self.touch(line);
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// [`Hierarchy`] rebuilt on two [`ReferenceCache`]s: an L1 miss probes the
/// LLC, counts a DRAM fill on an LLC miss, and prefetches the next LLC line
/// into both levels.
#[derive(Debug, Clone)]
pub struct ReferenceHierarchy {
    pub l1: ReferenceCache,
    pub llc: ReferenceCache,
    line_bytes: u64,
    dram_accesses: u64,
}

impl ReferenceHierarchy {
    /// Build for a machine's cache parameters; `track` turns on reuse
    /// tracking in the L1.
    pub fn new(l1: &CacheLevel, llc: &CacheLevel, track: bool) -> Self {
        ReferenceHierarchy {
            l1: ReferenceCache::new(l1, track),
            llc: ReferenceCache::new(llc, false),
            line_bytes: llc.line_bytes as u64,
            dram_accesses: 0,
        }
    }

    /// An access on no statement's behalf: the level that satisfied it.
    pub fn access(&mut self, addr: u64) -> AccessLevel {
        if self.l1.access(addr) {
            return AccessLevel::L1;
        }
        self.miss(addr)
    }

    /// A demand access by `stmt`: the level that satisfied it, and the
    /// previous toucher on an L1 hit.
    pub fn access_traced(&mut self, addr: u64, stmt: MStmtId) -> (AccessLevel, Option<MStmtId>) {
        let (l1_hit, prev) = self.l1.access_traced(addr, stmt);
        if l1_hit {
            return (AccessLevel::L1, prev);
        }
        (self.miss(addr), None)
    }

    fn miss(&mut self, addr: u64) -> AccessLevel {
        let level = if self.llc.access(addr) {
            AccessLevel::Llc
        } else {
            self.dram_accesses += 1;
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
        self.dram_accesses * self.line_bytes
    }
}

/// Assert two reports are bit-equal: cycle accounts compared by
/// `f64::to_bits`, counts exactly — sorted key-by-key so a mismatch names
/// the statement it happened on. Panics naming `ctx` and the field.
pub fn assert_reports_bit_equal(dense: &SimReport, reference: &SimReport, ctx: &str) {
    fn sorted_f64(m: &HashMap<MStmtId, f64>) -> Vec<(MStmtId, u64)> {
        let mut v: Vec<(MStmtId, u64)> = m.iter().map(|(&k, &x)| (k, x.to_bits())).collect();
        v.sort();
        v
    }
    fn sorted_u64(m: &HashMap<MStmtId, u64>) -> Vec<(MStmtId, u64)> {
        let mut v: Vec<(MStmtId, u64)> = m.iter().map(|(&k, &x)| (k, x)).collect();
        v.sort();
        v
    }
    assert_eq!(dense.total_cycles.to_bits(), reference.total_cycles.to_bits(), "{ctx}: total_cycles");
    assert_eq!(sorted_f64(&dense.stmt_cycles), sorted_f64(&reference.stmt_cycles), "{ctx}: stmt_cycles");
    assert_eq!(sorted_u64(&dense.stmt_instrs), sorted_u64(&reference.stmt_instrs), "{ctx}: stmt_instrs");
    assert_eq!(sorted_u64(&dense.stmt_l1_misses), sorted_u64(&reference.stmt_l1_misses), "{ctx}: stmt_l1_misses");
    assert_eq!(sorted_u64(&dense.stmt_cross_hits), sorted_u64(&reference.stmt_cross_hits), "{ctx}: stmt_cross_hits");
    assert_eq!(sorted_u64(&dense.stmt_self_hits), sorted_u64(&reference.stmt_self_hits), "{ctx}: stmt_self_hits");
    let lib_bits = |m: &HashMap<String, f64>| {
        let mut v: Vec<(String, u64)> = m.iter().map(|(k, &x)| (k.clone(), x.to_bits())).collect();
        v.sort();
        v
    };
    assert_eq!(lib_bits(&dense.lib_cycles), lib_bits(&reference.lib_cycles), "{ctx}: lib_cycles");
    assert_eq!(dense.lib_instrs, reference.lib_instrs, "{ctx}: lib_instrs");
    assert_eq!(dense.l1_hit_rate.to_bits(), reference.l1_hit_rate.to_bits(), "{ctx}: l1_hit_rate");
    assert_eq!(dense.llc_hit_rate.to_bits(), reference.llc_hit_rate.to_bits(), "{ctx}: llc_hit_rate");
    assert_eq!(dense.dram_bytes, reference.dram_bytes, "{ctx}: dram_bytes");
    assert_eq!(dense.profile.printed, reference.profile.printed, "{ctx}: printed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_with_seed;
    use proptest::prelude::*;
    use xflow_hw::{bgq, xeon};

    fn check_program(prog: &Program, inputs: &InputSpec, cfg: &SimConfig, seed: u64, ctx: &str) {
        for machine in [bgq(), xeon()] {
            let dense = simulate_with_seed(prog, inputs, &machine, cfg.clone(), seed);
            let reference = tracer_report(prog, inputs, &machine, cfg.clone(), seed);
            match (dense, reference) {
                (Ok(d), Ok(r)) => assert_reports_bit_equal(&d, &r, &format!("{ctx} on {}", machine.name)),
                (Err(_), Err(_)) => {} // both reject (limits) — still equivalent
                (d, r) => panic!("{ctx} on {}: engines disagree on failure: {d:?} vs {r:?}", machine.name),
            }
        }
    }

    #[test]
    fn vm_and_reference_engines_agree_end_to_end() {
        let src = r#"
fn main() {
    let n = input("N", 800);
    let a = zeros(n);
    for i in 0 .. n { a[i] = rnd(); }
    let s = 0;
    for i in 1 .. n - 1 {
        if a[i] > 0.5 { s = s + exp(a[i]); }
        else { a[i] = 0.5 * (a[i - 1] + a[i + 1]); }
    }
    print(s);
}
"#;
        let prog = xflow_minilang::parse(src).unwrap();
        let m = bgq();
        let fast = simulate_with_seed(&prog, &InputSpec::new(), &m, SimConfig::default(), xflow_minilang::DEFAULT_SEED)
            .unwrap();
        let refr = simulate_reference(&prog, &InputSpec::new(), &m, SimConfig::default()).unwrap();
        assert_reports_bit_equal(&fast, &refr, "VM vs tree-walker");
    }

    #[test]
    fn dense_matches_reference_on_all_workloads() {
        use xflow_workloads::Scale;
        for w in xflow_workloads::all() {
            let prog = w.program();
            let inputs = w.inputs(Scale::Test);
            for machine in [bgq(), xeon()] {
                // the dev-dependency cycle links a second instance of this
                // crate under xflow-workloads, so its SimConfig is a
                // distinct type — rebuild ours from the shared MStmtId map
                let mut cfg = SimConfig::default();
                cfg.vector_overrides.extend(w.sim_config(&prog, &machine).vector_overrides);
                let dense =
                    simulate_with_seed(&prog, &inputs, &machine, cfg.clone(), xflow_minilang::DEFAULT_SEED).unwrap();
                let reference = tracer_report(&prog, &inputs, &machine, cfg, xflow_minilang::DEFAULT_SEED).unwrap();
                assert_reports_bit_equal(&dense, &reference, &format!("{} on {}", w.name, machine.name));
            }
        }
    }

    #[test]
    fn dense_matches_reference_with_library_calls() {
        // exp/rand-heavy source exercising the interned lib slots and the
        // cross-block reuse path (two loops over the same array)
        let src = r#"
fn main() {
    let n = input("N", 600);
    let a = zeros(n);
    @fill: for i in 0 .. n { a[i] = rnd(); }
    let s = 0;
    @apply: for i in 0 .. n {
        if a[i] > 0.5 { s = s + exp(a[i] * 3.0); }
        else { s = s + log(1.0 + a[i]) + sqrt(a[i]) + pow(a[i], 2.0) + sin(a[i]) + cos(a[i]); }
    }
    print(s);
}
"#;
        let prog = xflow_minilang::parse(src).unwrap();
        check_program(&prog, &InputSpec::new(), &SimConfig::default(), 0xDECAF, "lib mix");
    }

    proptest! {
        // Generated-program equivalence: the dense tracer is bit-identical
        // to the reference path on arbitrary valid minilang programs, on
        // both evaluation machines.
        #![proptest_config(ProptestConfig { cases: 24 })]
        #[test]
        fn dense_matches_reference_on_generated_programs(seed in 0u64..u64::MAX / 2) {
            let gen_cfg = xflow_validate::GenConfig::default();
            let generated = xflow_validate::generate(seed, &gen_cfg);
            let src = xflow_validate::render(&generated);
            let prog = xflow_minilang::parse(&src).expect("generated programs parse");
            check_program(&prog, &InputSpec::new(), &SimConfig::default(), seed, &format!("gen seed {seed:#x}"));
        }
    }
}
