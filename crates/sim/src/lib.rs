//! # xflow-sim — execution-driven ground-truth simulator
//!
//! The reproduction's substitute for the paper's *measured* baselines
//! (native profilers plus hand-instrumented timers on BG/Q and Xeon,
//! Section VI). The fused minilang VM executes the program for real; the
//! simulator consumes its operation and memory-address stream and charges
//! cycles per source statement with:
//!
//! * a real set-associative L1/LLC hierarchy (so caching effects the
//!   analytical model ignores — cross-block reuse, thrashing — show up),
//! * full divide latencies (the CFD effect of Section VII-B),
//! * per-statement *actual* vectorization (the STASSUIJ effect),
//! * input-dependent library instruction mixes ([`calibrate`]).
//!
//! The per-statement cycle totals play the role of the machines' native
//! profiles; `xflow-hotspot`'s quality metric compares model projections
//! against them.

pub mod cache;
pub mod calibrate;
pub mod cost;
pub mod reference;

pub use cache::{AccessLevel, CacheArray, Hierarchy};
pub use calibrate::{
    calibrate_library, default_library, hardware_lib_mix, hardware_lib_mix_slot, lib_slot, LibMix, LIB_NAMES,
    LIB_SLOT_NAMES,
};
pub use cost::{SimConfig, SimTracer, TracerMaps};
// perfbench imports the tree-walking reference simulation from the crate
// root; everything else reaches it through `reference`.
pub use reference::simulate_reference;

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use xflow_hw::MachineModel;
use xflow_minilang::{InputSpec, MStmtId, Profile, Program, RuntimeError};

/// Result of one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Cycles attributed to each source statement.
    pub stmt_cycles: HashMap<MStmtId, f64>,
    /// Dynamic instructions retired per statement.
    pub stmt_instrs: HashMap<MStmtId, u64>,
    /// L1 misses per statement.
    pub stmt_l1_misses: HashMap<MStmtId, u64>,
    /// L1 hits on lines last touched by a *different* statement (the
    /// paper's Section VII-C cross-block reuse effect).
    pub stmt_cross_hits: HashMap<MStmtId, u64>,
    /// L1 hits on lines the same statement touched last.
    pub stmt_self_hits: HashMap<MStmtId, u64>,
    /// Cycles attributed to opaque library functions, by name.
    pub lib_cycles: HashMap<String, f64>,
    /// Dynamic instructions retired inside library functions, by name.
    pub lib_instrs: HashMap<String, u64>,
    /// Total cycles of the run.
    pub total_cycles: f64,
    /// Observed L1 hit rate.
    pub l1_hit_rate: f64,
    /// Observed LLC hit rate (of accesses that missed L1).
    pub llc_hit_rate: f64,
    /// Bytes transferred from DRAM.
    pub dram_bytes: u64,
    /// The functional profile of the run (branches, loops, prints).
    pub profile: Profile,
    /// Clock frequency used to convert cycles to seconds.
    pub freq_ghz: f64,
}

impl SimReport {
    /// Total wall time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_cycles / (self.freq_ghz * 1e9)
    }

    /// Dynamic instructions retired by the run: statements plus library
    /// functions.
    pub fn instructions(&self) -> u64 {
        self.stmt_instrs.values().sum::<u64>() + self.lib_instrs.values().sum::<u64>()
    }

    /// The simulated accounts folded onto skeleton statements through a
    /// translation's statement map (`Translation::map`): the one
    /// attribution of ground-truth time to model blocks. Minilang
    /// statements are folded in ascending [`MStmtId`] order and seconds are
    /// summed per statement, so every float in the result is independent of
    /// hash-map iteration order. Statements the map does not reach are
    /// dropped; library time stays in [`SimReport::lib_cycles`].
    pub fn fold_to_skeleton<S: Ord + Copy>(&self, map: &HashMap<MStmtId, S>) -> BTreeMap<S, StmtSim> {
        let freq_hz = self.freq_ghz * 1e9;
        let mut rows: Vec<(MStmtId, f64)> = self.stmt_cycles.iter().map(|(&m, &c)| (m, c)).collect();
        rows.sort_unstable_by_key(|&(m, _)| m);
        let mut out: BTreeMap<S, StmtSim> = BTreeMap::new();
        for (mid, cycles) in rows {
            let Some(&sid) = map.get(&mid) else { continue };
            let count = |m: &HashMap<MStmtId, u64>| m.get(&mid).copied().unwrap_or(0);
            *out.entry(sid).or_default() += StmtSim {
                seconds: cycles / freq_hz,
                cycles,
                instrs: count(&self.stmt_instrs),
                l1_misses: count(&self.stmt_l1_misses),
                cross_hits: count(&self.stmt_cross_hits),
                self_hits: count(&self.stmt_self_hits),
            };
        }
        out
    }
}

/// Simulated totals of one model block (see [`SimReport::fold_to_skeleton`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StmtSim {
    /// Simulated seconds.
    pub seconds: f64,
    /// Simulated cycles.
    pub cycles: f64,
    /// Dynamic instructions retired.
    pub instrs: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L1 hits on lines last touched by a different statement.
    pub cross_hits: u64,
    /// L1 hits on lines the same statement touched last.
    pub self_hits: u64,
}

impl std::ops::AddAssign for StmtSim {
    fn add_assign(&mut self, o: StmtSim) {
        self.seconds += o.seconds;
        self.cycles += o.cycles;
        self.instrs += o.instrs;
        self.l1_misses += o.l1_misses;
        self.cross_hits += o.cross_hits;
        self.self_hits += o.self_hits;
    }
}

/// Version of the simulator's cost accounting and [`SimReport`] layout.
///
/// Bump whenever a change moves the bits of any report (a new charge, a
/// different cache policy, a reshaped field); a content-addressed cache of
/// simulations folds this into its keys, so a persisted report never
/// outlives the simulator that produced it.
pub fn schema_version() -> u32 {
    1
}

/// Simulate a program on a machine under an `rnd()` seed, producing the
/// measured profile: [`simulate_machines`] on one machine. A simulation
/// seeded the same as the profiled run that built a BET observes the exact
/// same dynamic branch outcomes, which is what lets the differential
/// validator demand *exact* analytic-vs-simulated visit counts.
pub fn simulate_with_seed(
    prog: &Program,
    inputs: &InputSpec,
    machine: &MachineModel,
    cfg: SimConfig,
    seed: u64,
) -> Result<SimReport, RuntimeError> {
    let (_, mut reports, _) = simulate_machines(prog, inputs, &[(machine, cfg)], seed)?;
    Ok(reports.pop().expect("one report per machine"))
}

/// Simulate a program on every `(machine, config)` pair in one run: one
/// execution on the fused bytecode VM drives one [`SimTracer`] per pair.
/// Returns the run's profile (the profile `profile_seeded` yields under
/// the same seed), one report per pair, in order, and `main`'s return
/// value, as [`VmProgram::run`](xflow_minilang::VmProgram::run) does. Each
/// report is bit-identical to simulating its machine alone: a tracer only
/// reads the event stream, and the stream does not depend on who listens.
pub fn simulate_machines(
    prog: &Program,
    inputs: &InputSpec,
    runs: &[(&MachineModel, SimConfig)],
    seed: u64,
) -> Result<(Profile, Vec<SimReport>, f64), RuntimeError> {
    let (vm, limits) = (xflow_minilang::compile(prog)?, xflow_minilang::Limits::default());
    let tracers: Vec<SimTracer> = runs.iter().map(|(m, cfg)| SimTracer::for_program(prog, m, cfg.clone())).collect();
    // a lone tracer runs bare: walking a one-element list costs a few percent per event
    let (profile, tracers, ret) = match <[SimTracer; 1]>::try_from(tracers) {
        Ok([t]) => vm.run(inputs, t, limits, seed).map(|(p, t, ret)| (p, vec![t], ret))?,
        Err(all) => vm.run(inputs, all, limits, seed)?,
    };
    let reports = runs.iter().zip(tracers).map(|((m, _), t)| finish_report(m, profile.clone(), t)).collect();
    Ok((profile, reports, ret))
}

pub(crate) fn finish_report(machine: &MachineModel, profile: Profile, tracer: SimTracer) -> SimReport {
    let l1_hit = tracer.caches().l1.hit_rate();
    let llc_hit = tracer.caches().llc.hit_rate();
    let dram_bytes = tracer.caches().dram_bytes();
    // one dense → HashMap conversion per run, off the hot path
    let maps = tracer.maps();
    SimReport {
        stmt_cycles: maps.stmt_cycles,
        stmt_instrs: maps.stmt_instrs,
        stmt_l1_misses: maps.stmt_l1_misses,
        stmt_cross_hits: maps.stmt_cross_hits,
        stmt_self_hits: maps.stmt_self_hits,
        lib_cycles: maps.lib_cycles,
        lib_instrs: maps.lib_instrs,
        total_cycles: tracer.total_cycles,
        l1_hit_rate: l1_hit,
        llc_hit_rate: llc_hit,
        dram_bytes,
        profile,
        freq_ghz: machine.freq_ghz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_hw::{bgq, generic, xeon};
    use xflow_minilang::{parse, DEFAULT_SEED};

    fn sim(src: &str, inputs: &[(&str, f64)], m: &MachineModel) -> SimReport {
        let p = parse(src).unwrap();
        simulate_with_seed(&p, &InputSpec::from_pairs(inputs.iter().copied()), m, SimConfig::default(), DEFAULT_SEED)
            .unwrap()
    }

    const STREAM: &str = r#"
fn main() {
    let n = input("N", 4096);
    let a = zeros(n);
    @init: for i in 0 .. n { a[i] = i * 0.5; }
    let s = 0;
    @sum: for i in 0 .. n { s = s + a[i]; }
    print(s);
}
"#;

    #[test]
    fn simulation_produces_positive_cycles_and_correct_result() {
        let r = sim(STREAM, &[("N", 1024.0)], &generic());
        assert!(r.total_cycles > 0.0);
        assert!(r.total_seconds() > 0.0);
        // functional result: sum of 0.5*i for i in 0..1024
        let expect: f64 = (0..1024).map(|i| i as f64 * 0.5).sum();
        assert_eq!(r.profile.printed, vec![expect]);
    }

    #[test]
    fn second_pass_over_cached_data_is_cheaper() {
        // working set fits L1 (1024 × 8B = 8 KB < 16-32 KB)
        let r = sim(STREAM, &[("N", 1024.0)], &generic());
        let p = parse(STREAM).unwrap();
        let mut init = None;
        let mut sum = None;
        p.visit_stmts(|_, s| match s.label.as_deref() {
            Some("init") => init = Some(s.id),
            Some("sum") => sum = Some(s.id),
            _ => {}
        });
        // attribution: loop body stmts carry the memory cost; compare per-
        // label subtree totals by summing child stmts (body is stmt id + 1)
        let init_body = MStmtId(init.unwrap().0 + 1);
        let sum_body_candidates: Vec<f64> =
            r.stmt_cycles.iter().filter(|(id, _)| id.0 > sum.unwrap().0).map(|(_, &c)| c).collect();
        let init_cost = r.stmt_cycles.get(&init_body).copied().unwrap_or(0.0);
        let sum_cost: f64 = sum_body_candidates.iter().sum();
        assert!(init_cost > sum_cost, "cold init {init_cost} vs warm sum {sum_cost}");
    }

    #[test]
    fn cache_hit_rate_reported_realistically() {
        let r = sim(STREAM, &[("N", 1024.0)], &generic());
        assert!(r.l1_hit_rate > 0.5, "{}", r.l1_hit_rate);
        assert!(r.l1_hit_rate < 1.0);
        assert!(r.dram_bytes > 0);
    }

    #[test]
    fn streaming_a_huge_array_misses_more() {
        let small = sim(STREAM, &[("N", 512.0)], &generic());
        let huge = sim(STREAM, &[("N", 300_000.0)], &generic());
        // 2.4 MB working set blows L1
        assert!(huge.l1_hit_rate < small.l1_hit_rate);
    }

    #[test]
    fn faster_clock_means_fewer_seconds_same_cycles() {
        let q = sim(STREAM, &[("N", 256.0)], &bgq());
        let x = sim(STREAM, &[("N", 256.0)], &xeon());
        // same program; compare via seconds conversion sanity
        assert!((q.total_seconds() - q.total_cycles * 1e-9 / 1.6).abs() < 1e-18);
        assert!((x.total_seconds() - x.total_cycles * 1e-9 / 1.9).abs() < 1e-18);
    }

    #[test]
    fn divide_heavy_code_is_penalized() {
        let div_src = r#"
fn main() {
    let a = zeros(256);
    for i in 0 .. 256 { a[i] = 1.0 / (i + 1.0); }
}
"#;
        let mul_src = r#"
fn main() {
    let a = zeros(256);
    for i in 0 .. 256 { a[i] = 1.0 * (i + 1.0); }
}
"#;
        let d = sim(div_src, &[], &bgq());
        let m = sim(mul_src, &[], &bgq());
        assert!(d.total_cycles > 2.0 * m.total_cycles, "div {} mul {}", d.total_cycles, m.total_cycles);
    }

    #[test]
    fn fold_to_skeleton_accounts_every_mapped_statement() {
        let p = parse(STREAM).unwrap();
        let r = sim(STREAM, &[("N", 2048.0)], &generic());
        let tr = xflow_minilang::translate(&p, &r.profile).unwrap();
        let folded = r.fold_to_skeleton(&tr.map);
        let mapped = |m: &HashMap<MStmtId, u64>| -> u64 {
            m.iter().filter(|(id, _)| tr.map.contains_key(id)).map(|(_, &n)| n).sum()
        };
        assert_eq!(folded.values().map(|s| s.instrs).sum::<u64>(), mapped(&r.stmt_instrs));
        assert_eq!(folded.values().map(|s| s.l1_misses).sum::<u64>(), mapped(&r.stmt_l1_misses));
        assert_eq!(folded.values().map(|s| s.cross_hits).sum::<u64>(), mapped(&r.stmt_cross_hits));
        let hottest = folded.values().max_by(|a, b| a.cycles.total_cmp(&b.cycles)).unwrap();
        assert!(hottest.instrs > 0 && hottest.seconds > 0.0);
        let seconds = hottest.cycles / (r.freq_ghz * 1e9);
        assert!((hottest.seconds - seconds).abs() <= 1e-12 * seconds, "{} vs {seconds}", hottest.seconds);
    }

    #[test]
    fn fold_to_skeleton_ignores_map_iteration_order() {
        let p = parse(STREAM).unwrap();
        let r = sim(STREAM, &[("N", 2048.0)], &generic());
        let tr = xflow_minilang::translate(&p, &r.profile).unwrap();
        let folded = r.fold_to_skeleton(&tr.map);
        // rebuilt maps hash with fresh keys, so they iterate in another order
        for _ in 0..8 {
            let mut rebuilt = r.clone();
            rebuilt.stmt_cycles = r.stmt_cycles.iter().map(|(&k, &v)| (k, v)).collect();
            rebuilt.stmt_instrs = r.stmt_instrs.iter().map(|(&k, &v)| (k, v)).collect();
            let again = rebuilt.fold_to_skeleton(&tr.map);
            assert_eq!(folded, again);
            assert!(folded.values().zip(again.values()).all(|(a, b)| a.seconds.to_bits() == b.seconds.to_bits()));
        }
    }

    #[test]
    fn runtime_errors_propagate() {
        let p = parse("fn main() { let a = zeros(1); a[5] = 0; }").unwrap();
        assert!(simulate_with_seed(&p, &InputSpec::new(), &generic(), SimConfig::default(), DEFAULT_SEED).is_err());
    }
}
