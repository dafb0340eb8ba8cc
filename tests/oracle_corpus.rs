//! Integration tests for the oracle driver over the session: a cold run
//! models each program once for all machines and simulates every combo
//! once, a warm re-run over the same cache directory rebuilds nothing, and
//! the emitted corpus is byte-identical either way.

use xflow::xflow_hotspot::ProjectionPlan;
use xflow::xflow_minilang as ml;
use xflow::xflow_workloads::Scale;
use xflow::{
    build_corpus, builtin_programs, default_library, generated_programs, initial_env, InputSpec, OracleOptions,
    OracleProgram, Roofline, Session,
};
use xflow_hw::{bgq, xeon};

/// Branches on `rnd()`, so the profile — and with it the analytic side of
/// the corpus — depends on the oracle seed.
const RANDOM_BRANCHES: &str = r#"
fn main() {
    let n = input("N", 256);
    let a = zeros(n);
    @draw: for i in 0 .. n {
        if rnd() < 0.3 {
            @rare: for j in 0 .. 8 { a[i] = a[i] + sqrt(j * 1.0); }
        } else {
            a[i] = a[i] * 0.5;
        }
    }
}
"#;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xflow-oracle-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn warm_oracle_rerun_hits_the_sim_stage_for_every_combo() {
    let dir = temp_dir("warm");
    let programs = builtin_programs(&[Scale::Test]);
    let machines = [bgq(), xeon()];
    let combos = programs.len() * machines.len();
    let opts = OracleOptions { jobs: 2, ..Default::default() };

    // cold: every combo simulates (and persists) exactly once
    let cold_session = Session::with_cache_dir(&dir);
    let cold = build_corpus(&cold_session, &programs, &machines, &opts).unwrap();
    assert_eq!(cold.combos, combos);
    let stats = cold_session.stats();
    assert_eq!(stats.sim.misses as usize, combos, "cold run simulates each combo once");
    assert_eq!(stats.sim.disk_hits, 0);

    // warm: a fresh session over the same directory never simulates
    let warm_session = Session::with_cache_dir(&dir);
    let warm = build_corpus(&warm_session, &programs, &machines, &opts).unwrap();
    let stats = warm_session.stats();
    assert_eq!(stats.sim.disk_hits as usize, combos, "warm rerun loads every report from disk");
    for (name, stage) in stats.per_stage() {
        assert_eq!(stage.misses, 0, "warm rerun must not rebuild the {name} stage");
    }

    // and the corpus is byte-identical across cache states
    assert_eq!(cold.to_json(), warm.to_json());
    assert!(cold.records.len() >= 100, "corpus carries ≥100 training points, got {}", cold.records.len());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_session_dedups_repeat_combos() {
    let session = Session::new();
    let programs = generated_programs(2);
    let machines = [bgq()];
    let opts = OracleOptions { jobs: 1, ..Default::default() };
    let a = build_corpus(&session, &programs, &machines, &opts).unwrap();
    let b = build_corpus(&session, &programs, &machines, &opts).unwrap();
    assert_eq!(a.to_json(), b.to_json());
    let stats = session.stats();
    assert_eq!(stats.sim.misses, 2, "each combo simulates once");
    assert_eq!(stats.sim.hits, 2, "the second corpus reuses both in-memory reports");
}

#[test]
fn one_program_on_two_machines_is_profiled_once() {
    let session = Session::new();
    let programs = generated_programs(1);
    let opts = OracleOptions { jobs: 2, ..Default::default() };
    let corpus = build_corpus(&session, &programs, &[bgq(), xeon()], &opts).unwrap();
    assert_eq!(corpus.combos, 2);
    let stats = session.stats();
    assert_eq!((stats.profile.misses, stats.profile.hits), (1, 1), "the second machine reuses the profile");
    assert_eq!((stats.plan.misses, stats.plan.hits), (1, 1), "and the plan");
    assert_eq!(stats.sim.misses, 2, "each machine simulates once");
}

#[test]
fn seeded_corpus_rows_match_a_hand_built_seeded_chain() {
    let seed = 7;
    let inputs = InputSpec::new();
    let programs = [OracleProgram::from_source("rnd", RANDOM_BRANCHES, "default", inputs.clone())];
    let corpus = build_corpus(&Session::new(), &programs, &[bgq()], &OracleOptions { jobs: 1, seed }).unwrap();
    let default_seed = build_corpus(&Session::new(), &programs, &[bgq()], &OracleOptions::default()).unwrap();
    let analytic = |c: &xflow::Corpus| c.records.iter().map(|r| r.analytic_seconds.to_bits()).collect::<Vec<_>>();
    assert_ne!(analytic(&corpus), analytic(&default_seed), "the seed must reach the profiled run");

    let prog = ml::parse(RANDOM_BRANCHES).unwrap();
    let profile = ml::profile_seeded(&prog, &inputs, seed).unwrap();
    let tr = ml::translate(&prog, &profile).unwrap();
    let bet = xflow::xflow_bet::build(&tr.skeleton, &initial_env(&tr, &inputs)).unwrap();
    let projection = ProjectionPlan::new(&bet, default_library()).evaluate(&bgq(), &Roofline);
    assert!(!corpus.records.is_empty());
    for r in &corpus.records {
        let expected = projection.per_stmt.get(&xflow::xflow_skeleton::StmtId(r.stmt)).map(|c| c.total).unwrap_or(0.0);
        assert_eq!(r.analytic_seconds.to_bits(), expected.to_bits(), "stmt {} ({})", r.stmt, r.name);
    }
}

#[test]
fn corpus_rows_equal_validate_time_checks_bit_for_bit() {
    // both reports read one join of the projection with the folded
    // simulation, so CFD on BG/Q must agree on every per-block number
    let w = xflow::xflow_workloads::cfd();
    let corpus = build_corpus(
        &Session::new(),
        &builtin_programs(&[Scale::Test]).into_iter().filter(|p| p.name == w.name).collect::<Vec<_>>(),
        &[bgq()],
        &OracleOptions::default(),
    )
    .unwrap();
    let report = Session::new()
        .validate(
            w.source,
            &w.inputs(Scale::Test),
            Some(&w),
            &bgq(),
            &xflow::xflow_validate::ValidationConfig::default(),
        )
        .unwrap();
    let corpus_rows: Vec<(u32, u64, u64, u64)> = corpus
        .records
        .iter()
        .map(|r| (r.stmt, r.analytic_seconds.to_bits(), r.simulated_seconds.to_bits(), r.sim_share.to_bits()))
        .collect();
    let check_rows: Vec<(u32, u64, u64, u64)> = report
        .times
        .iter()
        .map(|t| (t.stmt, t.analytic_seconds.to_bits(), t.simulated_seconds.to_bits(), t.sim_share.to_bits()))
        .collect();
    assert!(corpus_rows.len() > 5, "{corpus_rows:?}");
    assert_eq!(corpus_rows, check_rows);
}
