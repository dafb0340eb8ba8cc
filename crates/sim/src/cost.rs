//! Execution-driven cost model — the "measured profile" ground truth.
//!
//! A [`SimTracer`] subscribes to the minilang VM's event stream and
//! charges cycles per statement using an in-order approximation of the
//! target core:
//!
//! * floating point work is throughput-bound, sped up by whatever fraction
//!   of it the machine's *actual* toolchain vectorizes (overridable per
//!   statement subtree to model compiler decisions such as the XL compiler
//!   vectorizing STASSUIJ's multiply loop),
//! * floating point divides occupy the pipe for their full latency — the
//!   effect behind the paper's CFD hot spot 6 under-projection,
//! * every memory access is looked up in a real cache hierarchy (exact LRU,
//!   see [`crate::cache`]); L1 hits cost port throughput, misses pay the
//!   level's latency divided by the machine's memory-level parallelism,
//! * opaque library calls charge an input-dependent hardware instruction
//!   mix (see [`crate::calibrate`]).

use crate::cache::{AccessLevel, Hierarchy};
use crate::calibrate::{hardware_lib_mix_slot, lib_slot, LIB_SLOT_NAMES};
use std::collections::HashMap;
use xflow_hw::MachineModel;
use xflow_minilang::{MStmtId, Tracer};

/// Per-statement simulation configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Per-statement *actual* vectorization overrides (statement and its
    /// lexical descendants), replacing the machine's default
    /// `vector_efficiency` for those statements.
    pub vector_overrides: HashMap<MStmtId, f64>,
}

impl SimConfig {
    /// Override the actual vectorization of the subtree rooted at the
    /// statement carrying `label` (e.g. a labeled loop the real compiler
    /// vectorizes even though the model does not know it).
    pub fn override_label(mut self, prog: &xflow_minilang::Program, label: &str, veff: f64) -> Self {
        let mut target = None;
        prog.visit_stmts(|_, s| {
            if s.label.as_deref() == Some(label) {
                target = Some(s.id);
            }
        });
        if let Some(root) = target {
            let mut subtree_ids: Vec<MStmtId> = Vec::new();
            collect_subtree_ids(prog, root, &mut subtree_ids);
            for id in subtree_ids {
                self.vector_overrides.insert(id, veff);
            }
        }
        self
    }
}

fn collect_subtree_ids(prog: &xflow_minilang::Program, root: MStmtId, out: &mut Vec<MStmtId>) {
    use xflow_minilang::StmtKind;
    fn walk(s: &xflow_minilang::Stmt, root: MStmtId, active: bool, out: &mut Vec<MStmtId>) {
        let active = active || s.id == root;
        if active {
            out.push(s.id);
        }
        match &s.kind {
            StmtKind::For { body, .. } | StmtKind::While { body, .. } => {
                for c in &body.stmts {
                    walk(c, root, active, out);
                }
            }
            StmtKind::If { arms, else_body } => {
                for (_, b) in arms {
                    for c in &b.stmts {
                        walk(c, root, active, out);
                    }
                }
                if let Some(e) = else_body {
                    for c in &e.stmts {
                        walk(c, root, active, out);
                    }
                }
            }
            _ => {}
        }
    }
    for f in &prog.functions {
        for s in &f.body.stmts {
            walk(s, root, false, out);
        }
    }
}

/// Number of interned library slots ([`LIB_SLOT_NAMES`]).
const N_LIB_SLOTS: usize = LIB_SLOT_NAMES.len();

/// The per-statement accumulator maps a finished [`SimTracer`] converts
/// into — the public `HashMap` shape [`crate::SimReport`] keeps. Entry
/// presence matches the old per-event upsert semantics exactly: a
/// statement appears in `stmt_cycles`/`stmt_instrs` once it was charged
/// (even for zero cycles), in the miss/reuse maps only when the count is
/// nonzero, and a library appears once it was called.
#[derive(Debug, Default, Clone)]
pub struct TracerMaps {
    pub stmt_cycles: HashMap<MStmtId, f64>,
    pub stmt_instrs: HashMap<MStmtId, u64>,
    pub stmt_l1_misses: HashMap<MStmtId, u64>,
    pub stmt_cross_hits: HashMap<MStmtId, u64>,
    pub stmt_self_hits: HashMap<MStmtId, u64>,
    pub lib_cycles: HashMap<String, f64>,
    pub lib_instrs: HashMap<String, u64>,
}

/// One statement's account: counters and precomputed per-statement costs
/// side by side, so one dynamic event touches one accumulator struct
/// (one or two host cache lines) instead of eight parallel vectors.
#[derive(Debug, Clone)]
struct StmtAcc {
    /// Cycles charged to the statement.
    cycles: f64,
    /// Dynamic instructions retired.
    instrs: u64,
    /// L1 misses.
    l1_misses: u64,
    /// Cross-block reuse: L1 hits on lines whose previous toucher was a
    /// *different* statement. This is the paper's Section VII-C effect —
    /// e.g. SORD's velocity kernel reusing the lines its stress kernels
    /// brought in — which the constant-hit-rate model cannot see.
    cross_hits: u64,
    /// L1 hits on lines the same statement touched last (self reuse).
    self_hits: u64,
    /// Whether the statement was ever charged (entry presence in the
    /// converted maps, even for a zero-cycle charge).
    charged: bool,
    /// Precomputed vector factor (overrides applied).
    vecf: f64,
    /// Precomputed L1-hit charge (`1 / (load_store_per_cycle * vecf)`).
    l1_hit_cost: f64,
    /// Precomputed single-flop charge
    /// (`1 / (scalar_flops_per_cycle * vecf)`).
    unit_flop_cost: f64,
}

/// The cost-accumulating tracer.
///
/// `MStmtId`s are small dense integers, so every per-statement account is
/// a flat `Vec` indexed by statement id — sized once from the program via
/// [`SimTracer::for_program`] — instead of a `HashMap` upsert per dynamic
/// operation. Library names are interned to slot ids, the per-statement
/// vector factor and the common per-event charges are precomputed, and
/// reuse attribution comes out of the cache probe itself
/// ([`Hierarchy::access_traced`]); the hot path does no hashing and no
/// allocation.
#[derive(Debug)]
pub struct SimTracer {
    machine: MachineModel,
    caches: Hierarchy,
    cfg: SimConfig,
    /// Per-statement accounts (dense, statement-id indexed).
    acc: Vec<StmtAcc>,
    /// Precomputed LLC-hit charge (`llc.latency_cycles / mlp`).
    llc_cost: f64,
    /// Precomputed DRAM charge (`dram_latency_cycles / mlp`).
    dram_cost: f64,
    /// Precomputed single-iop charge (`1 / issue_width`).
    int1_cost: f64,
    /// Precomputed two-iop charge (`2 / issue_width`).
    int2_cost: f64,
    /// Precomputed lone-divide charge (`fdiv_latency_cycles`).
    fdiv_cost: f64,
    /// Cycles attributed to opaque library functions, by slot — real
    /// profilers report library time under the library symbol, not the
    /// calling line (the paper's SRAD top spots are `exp` and `rand`).
    lib_cycles: [f64; N_LIB_SLOTS],
    /// Dynamic instructions retired inside library functions, by slot.
    lib_instrs: [u64; N_LIB_SLOTS],
    /// Library invocations, by slot (entry presence in the maps).
    lib_calls: [u64; N_LIB_SLOTS],
    /// Total cycles.
    pub total_cycles: f64,
}

impl SimTracer {
    /// Build a tracer for a machine. Accumulators grow on demand; prefer
    /// [`SimTracer::for_program`], which sizes them once up front.
    pub fn new(machine: &MachineModel, cfg: SimConfig) -> Self {
        Self::with_stmt_count(machine, cfg, 0)
    }

    /// Build a tracer sized for every statement id of `prog`.
    pub fn for_program(prog: &xflow_minilang::Program, machine: &MachineModel, cfg: SimConfig) -> Self {
        Self::with_stmt_count(machine, cfg, prog.stmt_count() as usize)
    }

    fn with_stmt_count(machine: &MachineModel, cfg: SimConfig, stmts: usize) -> Self {
        let mut t = SimTracer {
            caches: Hierarchy::with_reuse_tracking(&machine.l1, &machine.llc),
            machine: machine.clone(),
            cfg,
            acc: Vec::new(),
            llc_cost: machine.llc.latency_cycles / machine.mlp,
            dram_cost: machine.dram_latency_cycles / machine.mlp,
            int1_cost: 1.0 / machine.issue_width,
            int2_cost: 2.0 / machine.issue_width,
            fdiv_cost: machine.fdiv_latency_cycles,
            lib_cycles: [0.0; N_LIB_SLOTS],
            lib_instrs: [0; N_LIB_SLOTS],
            lib_calls: [0; N_LIB_SLOTS],
            total_cycles: 0.0,
        };
        t.grow(stmts);
        t
    }

    /// Extend the dense accumulators to cover statement ids `< n`.
    fn grow(&mut self, n: usize) {
        let from = self.acc.len();
        for id in from..n {
            // bit-identical to the old per-call computation: same
            // expression, evaluated once per statement instead of per event
            let veff =
                self.cfg.vector_overrides.get(&MStmtId(id as u32)).copied().unwrap_or(self.machine.vector_efficiency);
            let vf = 1.0 + (self.machine.vector_lanes - 1.0) * veff.clamp(0.0, 1.0);
            self.acc.push(StmtAcc {
                cycles: 0.0,
                instrs: 0,
                l1_misses: 0,
                cross_hits: 0,
                self_hits: 0,
                charged: false,
                vecf: vf,
                l1_hit_cost: 1.0 / (self.machine.load_store_per_cycle * vf),
                unit_flop_cost: 1.0 / (self.machine.scalar_flops_per_cycle * vf),
            });
        }
    }

    /// Index of `stmt`, growing the accumulators if the program handed the
    /// tracer a statement id beyond its sized range.
    #[inline]
    fn idx(&mut self, stmt: MStmtId) -> usize {
        let i = stmt.0 as usize;
        if i >= self.acc.len() {
            self.grow(i + 1);
        }
        i
    }

    #[inline]
    fn charge_at(&mut self, i: usize, cycles: f64, instrs: u64) {
        let a = &mut self.acc[i];
        a.cycles += cycles;
        a.instrs += instrs;
        a.charged = true;
        self.total_cycles += cycles;
    }

    /// Cost of an arithmetic bundle without cache interaction (library mixes).
    ///
    /// Each zero term is skipped rather than divided: `0/x` is exactly
    /// `+0.0` and every term is non-negative, so `t + 0.0 == t` to the
    /// bit — same sum, minus one f64 division for the (common) pure-int
    /// and pure-float bundles.
    fn flat_op_cycles(&self, vf: f64, flops: f64, iops: f64, divs: f64, loads: f64) -> f64 {
        let plain = (flops - divs).max(0.0);
        let fp = if plain != 0.0 { plain / (self.machine.scalar_flops_per_cycle * vf) } else { 0.0 };
        let dv = divs * self.machine.fdiv_latency_cycles;
        let int = if iops != 0.0 { iops / self.machine.issue_width } else { 0.0 };
        // assume L1-resident
        let mem = if loads != 0.0 { loads / self.machine.load_store_per_cycle } else { 0.0 };
        fp + dv + int + mem
    }

    /// Borrow the cache hierarchy (final statistics).
    pub fn caches(&self) -> &Hierarchy {
        &self.caches
    }

    /// Convert the dense accumulators into the public `HashMap` shape —
    /// one pass at report time, off the hot path.
    pub fn maps(&self) -> TracerMaps {
        let mut out = TracerMaps::default();
        for (i, a) in self.acc.iter().enumerate() {
            let id = MStmtId(i as u32);
            if a.charged {
                out.stmt_cycles.insert(id, a.cycles);
                out.stmt_instrs.insert(id, a.instrs);
            }
            if a.l1_misses > 0 {
                out.stmt_l1_misses.insert(id, a.l1_misses);
            }
            if a.cross_hits > 0 {
                out.stmt_cross_hits.insert(id, a.cross_hits);
            }
            if a.self_hits > 0 {
                out.stmt_self_hits.insert(id, a.self_hits);
            }
        }
        for (slot, name) in LIB_SLOT_NAMES.iter().enumerate() {
            if self.lib_calls[slot] > 0 {
                out.lib_cycles.insert(name.to_string(), self.lib_cycles[slot]);
                out.lib_instrs.insert(name.to_string(), self.lib_instrs[slot]);
            }
        }
        out
    }
}

impl Tracer for SimTracer {
    fn ops(&mut self, stmt: MStmtId, flops: u32, iops: u32, divs: u32) {
        let i = self.idx(stmt);
        // the interpreter's op bundles are a handful of fixed shapes; the
        // dominant ones take a precomputed charge instead of an f64
        // division. Each arm equals the general expression to the bit:
        // its skipped terms are exactly `+0.0`, and `t + 0.0 == t` for
        // the non-negative charges involved.
        let cycles = match (flops, iops, divs) {
            (1, 0, 0) => self.acc[i].unit_flop_cost,
            (0, 1, 0) => self.int1_cost,
            (0, 2, 0) => self.int2_cost,
            (1, 0, 1) => self.fdiv_cost,
            _ => self.flat_op_cycles(self.acc[i].vecf, flops as f64, iops as f64, divs as f64, 0.0),
        };
        self.charge_at(i, cycles, (flops + iops) as u64);
    }

    fn load(&mut self, stmt: MStmtId, addr: u64) {
        self.mem_access(stmt, addr);
    }

    fn store(&mut self, stmt: MStmtId, addr: u64) {
        self.mem_access(stmt, addr);
    }

    fn lib_call(&mut self, stmt: MStmtId, name: &'static str, arg: f64) {
        let i = self.idx(stmt);
        let slot = lib_slot(name);
        let mix = hardware_lib_mix_slot(slot, arg);
        let cycles =
            self.flat_op_cycles(self.acc[i].vecf, mix.flops as f64, mix.iops as f64, mix.divs as f64, mix.loads as f64);
        self.lib_cycles[slot] += cycles;
        self.lib_instrs[slot] += (mix.flops + mix.iops + mix.loads + mix.stores) as u64;
        self.lib_calls[slot] += 1;
        self.total_cycles += cycles;
    }
}

impl SimTracer {
    fn mem_access(&mut self, stmt: MStmtId, addr: u64) {
        let i = self.idx(stmt);
        // one probe: hit/miss plus previous-toucher reuse attribution
        let (level, prev) = self.caches.access_traced(addr, stmt);
        let a = &mut self.acc[i];
        // all three charges are precomputed (bit-identical expressions,
        // evaluated once at construction instead of per access)
        let cycles = match level {
            // vectorized code moves `lanes` elements per load/store
            AccessLevel::L1 => a.l1_hit_cost,
            AccessLevel::Llc => {
                a.l1_misses += 1;
                self.llc_cost
            }
            AccessLevel::Dram => {
                a.l1_misses += 1;
                self.dram_cost
            }
        };
        // cross-block reuse accounting (cache-line granularity)
        if level == AccessLevel::L1 {
            match prev {
                Some(p) if p != stmt => a.cross_hits += 1,
                Some(_) => a.self_hits += 1,
                None => {}
            }
        }
        a.cycles += cycles;
        a.instrs += 1;
        a.charged = true;
        self.total_cycles += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_hw::{bgq, generic};
    use xflow_minilang::MStmtId;

    fn stmt(i: u32) -> MStmtId {
        MStmtId(i)
    }

    #[test]
    fn flops_cost_throughput() {
        let m = generic(); // 2 flops/cycle, veff 0.5, 2 lanes → factor 1.5
        let mut t = SimTracer::new(&m, SimConfig::default());
        t.ops(stmt(0), 300, 0, 0);
        let expected = 300.0 / (2.0 * 1.5);
        assert!((t.maps().stmt_cycles[&stmt(0)] - expected).abs() < 1e-9);
    }

    #[test]
    fn divides_cost_their_latency() {
        let m = bgq();
        let mut t = SimTracer::new(&m, SimConfig::default());
        t.ops(stmt(0), 10, 0, 10); // all divides
        let expected = 10.0 * m.fdiv_latency_cycles;
        assert!((t.maps().stmt_cycles[&stmt(0)] - expected).abs() < 1e-9);
        // versus plain flops
        let mut t2 = SimTracer::new(&m, SimConfig::default());
        t2.ops(stmt(0), 10, 0, 0);
        assert!(t.maps().stmt_cycles[&stmt(0)] > 50.0 * t2.maps().stmt_cycles[&stmt(0)]);
    }

    #[test]
    fn vector_override_speeds_up_subtree() {
        let m = bgq(); // veff 0 by default
        let mut base = SimTracer::new(&m, SimConfig::default());
        base.ops(stmt(5), 400, 0, 0);
        let mut cfg = SimConfig::default();
        cfg.vector_overrides.insert(stmt(5), 1.0);
        let mut vec = SimTracer::new(&m, cfg);
        vec.ops(stmt(5), 400, 0, 0);
        let speedup = base.maps().stmt_cycles[&stmt(5)] / vec.maps().stmt_cycles[&stmt(5)];
        assert!((speedup - m.vector_lanes).abs() < 1e-9, "{speedup}");
    }

    #[test]
    fn cache_hits_cheaper_than_misses() {
        let m = generic();
        let mut t = SimTracer::new(&m, SimConfig::default());
        t.load(stmt(0), 0x1000); // cold: DRAM
        let cold = t.total_cycles;
        t.load(stmt(0), 0x1000); // hot: L1
        let warm = t.total_cycles - cold;
        assert!(cold > 5.0 * warm, "cold {cold} warm {warm}");
        assert_eq!(t.maps().stmt_l1_misses[&stmt(0)], 1);
    }

    #[test]
    fn lib_calls_charge_input_dependent_mix() {
        let m = generic();
        let mut t = SimTracer::new(&m, SimConfig::default());
        t.lib_call(stmt(0), "exp", 0.1);
        let small = t.total_cycles;
        let mut t2 = SimTracer::new(&m, SimConfig::default());
        t2.lib_call(stmt(0), "exp", 25.0);
        let large = t2.total_cycles;
        assert!(large > small, "exp(25) must cost more than exp(0.1): {large} vs {small}");
        // attributed to the library symbol, not the calling statement
        let maps = t2.maps();
        assert!(maps.lib_cycles["exp"] > 0.0);
        assert_eq!(maps.lib_instrs.len(), 1);
        assert!(!maps.stmt_cycles.contains_key(&stmt(0)));
    }

    #[test]
    fn attribution_is_per_statement() {
        let m = generic();
        let mut t = SimTracer::new(&m, SimConfig::default());
        t.ops(stmt(1), 100, 0, 0);
        t.ops(stmt(2), 10, 0, 0);
        let maps = t.maps();
        assert!(maps.stmt_cycles[&stmt(1)] > maps.stmt_cycles[&stmt(2)]);
        let sum: f64 = maps.stmt_cycles.values().sum();
        assert!((sum - t.total_cycles).abs() < 1e-9);
        // untouched statements (id 0 exists in the dense range) stay absent
        assert!(!maps.stmt_cycles.contains_key(&stmt(0)));
        assert!(maps.stmt_l1_misses.is_empty());
    }

    #[test]
    fn zero_cost_charge_still_creates_entries() {
        // the old HashMap path created entries on `charge` even for a
        // zero-cycle bundle; the dense conversion must reproduce that
        let m = generic();
        let mut t = SimTracer::new(&m, SimConfig::default());
        t.ops(stmt(3), 0, 0, 0);
        let maps = t.maps();
        assert_eq!(maps.stmt_cycles[&stmt(3)], 0.0);
        assert_eq!(maps.stmt_instrs[&stmt(3)], 0);
    }

    #[test]
    fn accumulators_grow_past_sized_range() {
        let m = generic();
        let mut t = SimTracer::new(&m, SimConfig::default()); // sized for 0 statements
        t.ops(stmt(9), 10, 0, 0);
        t.load(stmt(40), 0x2000);
        let maps = t.maps();
        assert!(maps.stmt_cycles[&stmt(9)] > 0.0);
        assert!(maps.stmt_cycles[&stmt(40)] > 0.0);
    }

    #[test]
    fn growth_applies_vector_overrides() {
        let m = bgq();
        let mut cfg = SimConfig::default();
        cfg.vector_overrides.insert(stmt(17), 1.0);
        let mut t = SimTracer::new(&m, cfg); // stmt 17 is beyond the sized range
        t.ops(stmt(17), 400, 0, 0);
        let mut base = SimTracer::new(&m, SimConfig::default());
        base.ops(stmt(17), 400, 0, 0);
        let speedup = base.maps().stmt_cycles[&stmt(17)] / t.maps().stmt_cycles[&stmt(17)];
        assert!((speedup - m.vector_lanes).abs() < 1e-9, "{speedup}");
    }

    #[test]
    fn label_override_covers_descendants() {
        let src = r#"
fn main() {
    let a = zeros(8);
    @vec: for i in 0 .. 8 {
        a[i] = a[i] * 2.0;
    }
    a[0] = a[0] + 1.0;
}
"#;
        let prog = xflow_minilang::parse(src).unwrap();
        let cfg = SimConfig::default().override_label(&prog, "vec", 1.0);
        // the labeled for + its body statement are overridden
        assert!(cfg.vector_overrides.len() >= 2, "{:?}", cfg.vector_overrides);
        // the trailing statement outside the loop is not
        let mut outside = None;
        prog.visit_stmts(|_, s| {
            if s.label.is_none() && !cfg.vector_overrides.contains_key(&s.id) {
                outside = Some(s.id);
            }
        });
        assert!(outside.is_some());
    }
}
