//! Programs with call sites that never run — an unknown function in an
//! untaken branch, an arity mismatch in a function nothing calls — model,
//! simulate and explain exactly as on the reference interpreter, which
//! only fails a call when it executes.
//!
//! The `.explain.txt` golden files are the `xflow explain --machine bgq`
//! output recorded when profiling still ran on the interpreter. Regenerate
//! after an intentional model or format change with:
//! `UPDATE_GOLDEN=1 cargo test --test dead_call_sites`

use xflow::xflow_minilang as ml;
use xflow::xflow_sim::reference::{assert_reports_bit_equal, simulate_reference};
use xflow::xflow_sim::{simulate_with_seed, SimConfig};
use xflow::{bgq, InputSpec, Session};

const PROGRAMS: [&str; 2] = ["tests/golden/dead_unknown_call", "tests/golden/dead_arity_mismatch"];

fn source(stem: &str) -> String {
    std::fs::read_to_string(format!("{stem}.ml")).expect("golden program exists")
}

fn reference_profile(src: &str) -> ml::Profile {
    let prog = ml::parse(src).expect("parses");
    ml::reference::run(&prog, &InputSpec::new(), ml::NullTracer, ml::Limits::default(), ml::DEFAULT_SEED)
        .expect("reference run succeeds")
        .0
}

fn assert_profiles_equal(a: &ml::Profile, b: &ml::Profile, what: &str) {
    assert_eq!(a.stmt_ops, b.stmt_ops, "{what}: stmt_ops");
    assert!(xflow::xflow_validate::profiles_agree(a, b), "{what}: profiles diverge");
}

#[test]
fn session_model_profiles_like_the_reference() {
    for stem in PROGRAMS {
        let src = source(stem);
        let app = Session::new().model(&src, &InputSpec::new()).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_profiles_equal(&app.profile, &reference_profile(&src), stem);
    }
}

#[test]
fn simulator_matches_reference_on_dead_call_sites() {
    for stem in PROGRAMS {
        let prog = ml::parse(&source(stem)).expect("parses");
        let fast = simulate_with_seed(&prog, &InputSpec::new(), &bgq(), SimConfig::default(), ml::DEFAULT_SEED)
            .expect("simulates");
        let reference =
            simulate_reference(&prog, &InputSpec::new(), &bgq(), SimConfig::default()).expect("reference simulates");
        assert_reports_bit_equal(&fast, &reference, stem);
        assert_profiles_equal(&fast.profile, &reference.profile, stem);
    }
}

#[test]
fn explain_output_is_unchanged_on_dead_call_sites() {
    for stem in PROGRAMS {
        let args: Vec<String> =
            ["explain", &format!("{stem}.ml"), "--machine", "bgq"].iter().map(|s| s.to_string()).collect();
        let out = xflow::cli::run(&args).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let golden_path = format!("{stem}.explain.txt");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&golden_path, &out).expect("write golden");
        }
        let golden = std::fs::read_to_string(&golden_path).expect("golden output exists");
        assert_eq!(out, golden, "`xflow explain` drifted from {golden_path}");
    }
}
