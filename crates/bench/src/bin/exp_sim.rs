//! Simulator-throughput benchmark: the dense-accumulator `SimTracer`
//! against the pre-dense HashMap path, plus the two corpus-scale drivers
//! built on top of it.
//!
//! Three questions, one report:
//!
//! 1. What did densifying the tracer buy? `RefTracer` below is a private
//!    verbatim copy of the old HashMap-per-event accounting path (the
//!    crate keeps its twin as a `#[cfg(test)]` oracle, invisible to
//!    benches). Dense and reference reports are asserted bit-equal on
//!    CFD on both evaluation machines *before* timing — a speedup over
//!    an inequivalent tracer would be meaningless — then the A/B arms
//!    time `simulate_with_seed` against the reference run on BG/Q.
//! 2. How fast does the oracle driver mint training corpora? Fresh
//!    in-memory sessions build the full built-in corpus (5 workloads ×
//!    2 machines at test scale) with `--jobs 1` vs all cores; the two
//!    corpora must be byte-identical (the determinism contract) and the
//!    ratio is the pool's scaling on real simulation work.
//! 3. What does `validate --all --jobs` save over the sequential loop
//!    CI used to run? Same combos, same pool, timed both ways — the
//!    recorded `validate_all_sequential_seconds` is the baseline the
//!    validate-workloads CI job must beat.
//!
//! The oracle and validate sections always run at test scale regardless
//! of `--scale`: they measure pool scheduling against the CI
//! configuration, and the per-combo work only inflates with `--scale
//! eval` without changing what is being measured.
//!
//! Writes `results/BENCH_sim.json`.

use std::collections::HashMap;
use std::time::Instant;
use xflow::{bgq, build_corpus, builtin_programs, run_chunked, xeon, OracleOptions, Session};
use xflow_bench::opts;
use xflow_hw::MachineModel;
use xflow_minilang::{compile, run_vm_with_limits_seeded, InputSpec, Limits, MStmtId, Program, Tracer, DEFAULT_SEED};
use xflow_sim::{hardware_lib_mix, simulate_with_seed, AccessLevel, SimConfig, SimReport};

/// The cache hierarchy exactly as it stood before this PR: modulo set
/// indexing (no power-of-two mask fast path) and no in-cache toucher
/// store. The baseline arm must run on this frozen copy — pointing it at
/// the live `xflow_sim` cache would silently hand the "old" path the new
/// cache's optimizations and shrink the measured speedup to just the
/// tracer's share.
mod frozen {
    use xflow_hw::CacheLevel;
    use xflow_sim::AccessLevel;

    pub struct CacheArray {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        sets: u64,
        assoc: usize,
        line_shift: u32,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl CacheArray {
        pub fn new(level: &CacheLevel) -> Self {
            let sets = level.sets();
            let assoc = level.assoc.max(1) as usize;
            let slots = (sets as usize) * assoc;
            CacheArray {
                tags: vec![u64::MAX; slots],
                stamps: vec![0; slots],
                sets,
                assoc,
                line_shift: level.line_bytes.trailing_zeros(),
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn victim_way(&self, base: usize) -> usize {
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for w in 0..self.assoc {
                if self.tags[base + w] == u64::MAX {
                    return w;
                }
                if self.stamps[base + w] < oldest {
                    oldest = self.stamps[base + w];
                    victim = w;
                }
            }
            victim
        }

        fn insert_line(&mut self, base: usize, line: u64) {
            let victim = base + self.victim_way(base);
            self.tags[victim] = line;
            self.stamps[victim] = self.clock;
        }

        pub fn fill(&mut self, addr: u64) {
            self.clock += 1;
            let line = addr >> self.line_shift;
            let set = (line % self.sets) as usize;
            let base = set * self.assoc;
            if self.tags[base..base + self.assoc].contains(&line) {
                return;
            }
            self.insert_line(base, line);
        }

        pub fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let line = addr >> self.line_shift;
            let set = (line % self.sets) as usize;
            let base = set * self.assoc;
            if let Some(w) = self.tags[base..base + self.assoc].iter().position(|&t| t == line) {
                self.stamps[base + w] = self.clock;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            self.insert_line(base, line);
            false
        }

        pub fn hit_rate(&self) -> f64 {
            let n = self.hits + self.misses;
            if n == 0 {
                1.0
            } else {
                self.hits as f64 / n as f64
            }
        }
    }

    pub struct Hierarchy {
        pub l1: CacheArray,
        pub llc: CacheArray,
        dram_accesses: u64,
        dram_bytes: u64,
        line_bytes: u64,
    }

    impl Hierarchy {
        pub fn new(l1: &CacheLevel, llc: &CacheLevel) -> Self {
            Hierarchy {
                l1: CacheArray::new(l1),
                llc: CacheArray::new(llc),
                dram_accesses: 0,
                dram_bytes: 0,
                line_bytes: llc.line_bytes as u64,
            }
        }

        pub fn access(&mut self, addr: u64) -> AccessLevel {
            if self.l1.access(addr) {
                return AccessLevel::L1;
            }
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

        pub fn dram_bytes(&self) -> u64 {
            self.dram_bytes
        }
    }
}

/// Minimum seconds per run for each arm, sampled *interleaved*: every
/// round times all arms back-to-back, so a slow stretch of the machine
/// hits all arms alike instead of biasing one (see `exp_profile`).
fn min_of_k_interleaved(samples: usize, passes: usize, arms: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; arms.len()];
    for _ in 0..samples {
        for (i, arm) in arms.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..passes {
                arm();
            }
            best[i] = best[i].min(t0.elapsed().as_secs_f64() / passes as f64);
        }
    }
    best
}

/// The pre-PR HashMap cost tracer, copied verbatim from the sim crate's
/// test-only `ReferenceTracer`: one `entry` upsert per dynamic operation,
/// a `String` allocation per library call, and cross-block reuse tracked
/// through a side `last_toucher` map keyed by cache line — all riding on
/// the [`frozen`] pre-PR cache hierarchy.
struct RefTracer {
    machine: MachineModel,
    caches: frozen::Hierarchy,
    cfg: SimConfig,
    stmt_cycles: HashMap<MStmtId, f64>,
    stmt_instrs: HashMap<MStmtId, u64>,
    stmt_l1_misses: HashMap<MStmtId, u64>,
    stmt_cross_hits: HashMap<MStmtId, u64>,
    stmt_self_hits: HashMap<MStmtId, u64>,
    last_toucher: HashMap<u64, MStmtId>,
    lib_cycles: HashMap<String, f64>,
    lib_instrs: HashMap<String, u64>,
    total_cycles: f64,
}

impl RefTracer {
    fn new(machine: &MachineModel, cfg: SimConfig) -> Self {
        RefTracer {
            caches: frozen::Hierarchy::new(&machine.l1, &machine.llc),
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

impl Tracer for RefTracer {
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

/// Run a program with the reference tracer and package the result exactly
/// like the dense path's `finish_report`.
fn reference_report(
    prog: &Program,
    inputs: &InputSpec,
    machine: &MachineModel,
    cfg: SimConfig,
    seed: u64,
) -> SimReport {
    let tracer = RefTracer::new(machine, cfg);
    let vm = compile(prog).expect("compile");
    let (profile, tracer, _ret) =
        run_vm_with_limits_seeded(&vm, inputs, tracer, Limits::default(), seed).expect("reference run");
    SimReport {
        l1_hit_rate: tracer.caches.l1.hit_rate(),
        llc_hit_rate: tracer.caches.llc.hit_rate(),
        dram_bytes: tracer.caches.dram_bytes(),
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
    }
}

/// Bit-equal cycles, exactly equal counts — sorted so a mismatch names
/// the statement it happened on.
fn assert_reports_bit_equal(dense: &SimReport, reference: &SimReport, ctx: &str) {
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
    assert_eq!(dense.lib_instrs, reference.lib_instrs, "{ctx}: lib_instrs");
    assert_eq!(dense.l1_hit_rate.to_bits(), reference.l1_hit_rate.to_bits(), "{ctx}: l1_hit_rate");
    assert_eq!(dense.llc_hit_rate.to_bits(), reference.llc_hit_rate.to_bits(), "{ctx}: llc_hit_rate");
    assert_eq!(dense.dram_bytes, reference.dram_bytes, "{ctx}: dram_bytes");
}

fn main() {
    let o = opts();
    let w = xflow_workloads::cfd();
    let prog = w.program();
    let inputs = w.inputs(o.scale);
    let machine = bgq();
    println!("=== simulator throughput on {} ({:?} scale) ===\n", w.name, o.scale);

    // both engines must agree to the bit before timing means anything
    for m in [bgq(), xeon()] {
        let cfg = w.sim_config(&prog, &m);
        let dense = simulate_with_seed(&prog, &inputs, &m, cfg.clone(), DEFAULT_SEED).expect("dense sim");
        let reference = reference_report(&prog, &inputs, &m, cfg, DEFAULT_SEED);
        assert_reports_bit_equal(&dense, &reference, &format!("{} on {}", w.name, m.name));
    }
    let cfg = w.sim_config(&prog, &machine);
    let dense = simulate_with_seed(&prog, &inputs, &machine, cfg.clone(), DEFAULT_SEED).expect("dense sim");
    let sim_instructions: u64 = dense.stmt_instrs.values().sum::<u64>() + dense.lib_instrs.values().sum::<u64>();
    assert!(sim_instructions > 0);

    let (samples, passes) = if matches!(o.scale, xflow::Scale::Test) { (8, 2) } else { (5, 1) };
    let mut arm_dense = || {
        std::hint::black_box(
            simulate_with_seed(&prog, &inputs, &machine, cfg.clone(), DEFAULT_SEED).expect("run").total_cycles,
        );
    };
    let mut arm_reference = || {
        std::hint::black_box(reference_report(&prog, &inputs, &machine, cfg.clone(), DEFAULT_SEED).total_cycles);
    };
    let times = min_of_k_interleaved(samples, passes, &mut [&mut arm_dense, &mut arm_reference]);
    let (dense_s, reference_s) = (times[0], times[1]);
    let speedup_dense_vs_ref = reference_s / dense_s;
    let sim_minstr_per_sec = sim_instructions as f64 / 1e6 / dense_s;
    println!("simulated instructions:      {sim_instructions}");
    println!("dense tracer:                {dense_s:>12.3e} s");
    println!("reference tracer:            {reference_s:>12.3e} s  ({speedup_dense_vs_ref:.3}x)");
    println!("dense sim throughput:        {sim_minstr_per_sec:>12.2} Minstr/s");

    // Oracle driver: full built-in corpus on fresh in-memory sessions,
    // sequential vs all cores. Byte-identical output is the contract.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let programs = builtin_programs(&[xflow::Scale::Test]);
    let machines = [bgq(), xeon()];
    let corpus_with_jobs = |jobs: usize| {
        let session = Session::new();
        let opts = OracleOptions { jobs, ..Default::default() };
        build_corpus(&session, &programs, &machines, &opts).expect("corpus")
    };
    let seq_corpus = corpus_with_jobs(1);
    let par_corpus = corpus_with_jobs(0);
    assert_eq!(seq_corpus.to_json(), par_corpus.to_json(), "oracle corpus must not depend on --jobs");
    let oracle_records = par_corpus.records.len();
    let (oracle_samples, oracle_passes) = if matches!(o.scale, xflow::Scale::Test) { (3, 1) } else { (4, 1) };
    let mut arm_seq = || {
        std::hint::black_box(corpus_with_jobs(1).records.len());
    };
    let mut arm_par = || {
        std::hint::black_box(corpus_with_jobs(0).records.len());
    };
    let t = min_of_k_interleaved(oracle_samples, oracle_passes, &mut [&mut arm_seq, &mut arm_par]);
    let (oracle_seq_s, oracle_par_s) = (t[0], t[1]);
    let oracle_points_per_sec = oracle_records as f64 / oracle_par_s;
    let oracle_parallel_speedup = oracle_seq_s / oracle_par_s;
    println!("\noracle corpus ({} combos, {oracle_records} records, {threads} threads):", par_corpus.combos);
    println!("  --jobs 1:                  {oracle_seq_s:>12.3e} s");
    println!("  --jobs {threads}:                  {oracle_par_s:>12.3e} s  ({oracle_parallel_speedup:.3}x)");
    println!("  corpus throughput:         {oracle_points_per_sec:>12.2} records/s");

    // validate --all: the same pool over workload × machine differential
    // validation, vs the sequential loop CI used to run combo-by-combo.
    let libs = xflow_validate::default_library();
    let vcfg = xflow_validate::ValidationConfig::default();
    let mut combos = Vec::new();
    for w in xflow_workloads::all() {
        for m in &machines {
            combos.push((w.clone(), m.clone()));
        }
    }
    let validate_with_jobs = |jobs: usize| {
        let reports = run_chunked(
            &combos,
            jobs,
            || (),
            |_, _, (w, m)| xflow_validate::validate_workload(w, xflow::Scale::Test, m, libs, &vcfg).expect("validate"),
        );
        assert!(reports.iter().all(|r| r.passed), "every validation combo must pass");
        reports.len()
    };
    let mut arm_vseq = || {
        std::hint::black_box(validate_with_jobs(1));
    };
    let mut arm_vpar = || {
        std::hint::black_box(validate_with_jobs(0));
    };
    let t = min_of_k_interleaved(oracle_samples, oracle_passes, &mut [&mut arm_vseq, &mut arm_vpar]);
    let (validate_seq_s, validate_par_s) = (t[0], t[1]);
    let validate_all_parallel_speedup = validate_seq_s / validate_par_s;
    println!("\nvalidate --all ({} combos):", combos.len());
    println!("  --jobs 1:                  {validate_seq_s:>12.3e} s");
    println!("  --jobs {threads}:                  {validate_par_s:>12.3e} s  ({validate_all_parallel_speedup:.3}x)");

    #[derive(serde::Serialize)]
    struct SimBench {
        workload: String,
        machine: String,
        threads: u64,
        sim_instructions: u64,
        dense_seconds: f64,
        reference_seconds: f64,
        speedup_dense_vs_ref: f64,
        sim_minstr_per_sec: f64,
        oracle_records: u64,
        oracle_sequential_seconds: f64,
        oracle_parallel_seconds: f64,
        oracle_points_per_sec: f64,
        oracle_parallel_speedup: f64,
        validate_all_sequential_seconds: f64,
        validate_all_parallel_seconds: f64,
        validate_all_parallel_speedup: f64,
        extra: HashMap<String, f64>,
    }
    let data = SimBench {
        workload: w.name.to_string(),
        machine: machine.name.clone(),
        threads: threads as u64,
        sim_instructions,
        dense_seconds: dense_s,
        reference_seconds: reference_s,
        speedup_dense_vs_ref,
        sim_minstr_per_sec,
        oracle_records: oracle_records as u64,
        oracle_sequential_seconds: oracle_seq_s,
        oracle_parallel_seconds: oracle_par_s,
        oracle_points_per_sec,
        oracle_parallel_speedup,
        validate_all_sequential_seconds: validate_seq_s,
        validate_all_parallel_seconds: validate_par_s,
        validate_all_parallel_speedup,
        extra: HashMap::new(),
    };
    std::fs::create_dir_all("results").expect("create results dir");
    let path = "results/BENCH_sim.json";
    std::fs::write(path, serde_json::to_string_pretty(&data).expect("serialize")).expect("write json");
    println!("\n[json written to {path}]");

    // the dense tracer only earns its place if it moves the needle; the
    // eval bar is the PR's design target, the test bar leaves headroom
    // for small-input noise on shared CI cores
    let bar = if matches!(o.scale, xflow::Scale::Test) { 2.0 } else { 3.0 };
    assert!(
        speedup_dense_vs_ref >= bar,
        "dense tracer must be at least {bar}x the reference path (got {speedup_dense_vs_ref:.3}x)"
    );
    assert!(oracle_records >= 100, "built-in corpus must carry ≥100 training points (got {oracle_records})");
    if threads >= 2 {
        assert!(
            oracle_parallel_speedup > 1.0,
            "oracle driver must scale with --jobs on {threads} threads (got {oracle_parallel_speedup:.3}x)"
        );
        assert!(
            validate_all_parallel_speedup > 1.0,
            "validate --all must scale with --jobs on {threads} threads (got {validate_all_parallel_speedup:.3}x)"
        );
    }
}
