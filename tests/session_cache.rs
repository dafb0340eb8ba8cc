//! Cache behavior of the incremental `Session` layer: hits on identical
//! queries, precise invalidation (a source or input edit is a new model
//! artifact), one file per model on disk, disk warm-starts,
//! corrupted-artifact fallback, and `cache clear` on files that older
//! versions wrote.

use std::path::PathBuf;
use xflow::{bgq, xeon, InputSpec, Session};

const SRC: &str = r#"
fn main() {
    let n = input("N", 256);
    let a = zeros(n);
    @fill: for i in 0 .. n { a[i] = rnd(); }
    @smooth: for i in 1 .. n - 1 {
        a[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
    }
    @norm: for i in 0 .. n { a[0] = a[0] + sqrt(a[i] * a[i]); }
}
"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xflow-session-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_bits_equal(a: &xflow::MachineProjection, b: &xflow::MachineProjection) {
    assert_eq!(a.total.to_bits(), b.total.to_bits(), "total differs");
    assert_eq!(a.ranking(), b.ranking(), "ranking differs");
    for (stmt, cost) in a.projection.per_stmt.iter() {
        let other = b.projection.per_stmt.get(&stmt).expect("missing stmt");
        assert_eq!(cost.total.to_bits(), other.total.to_bits(), "stmt {stmt:?} total differs");
        assert_eq!(cost.tc.to_bits(), other.tc.to_bits(), "stmt {stmt:?} tc differs");
        assert_eq!(cost.tm.to_bits(), other.tm.to_bits(), "stmt {stmt:?} tm differs");
    }
}

#[test]
fn identical_query_hits_every_stage() {
    let s = Session::new();
    let inputs = InputSpec::from_pairs([("N", 512.0)]);
    let first = s.model(SRC, &inputs).unwrap();
    let second = s.model(SRC, &inputs).unwrap();

    let st = s.stats();
    assert_eq!(st.model.misses, 1, "first query should build");
    assert_eq!(st.model.hits, 1, "second query should hit memory");
    assert_eq!(st.model.disk_hits, 0, "memory-only session");
    assert_eq!(st.sim.lookups(), 0, "a model query looks up no simulation");
    assert_bits_equal(&first.project_on(&bgq()), &second.project_on(&bgq()));
}

#[test]
fn one_byte_source_edit_misses_every_stage() {
    let s = Session::new();
    let inputs = InputSpec::from_pairs([("N", 512.0)]);
    s.model(SRC, &inputs).unwrap();
    let edited = format!("{SRC} ");
    s.model(&edited, &inputs).unwrap();

    let st = s.stats();
    assert_eq!(st.model.misses, 2, "a one-byte edit must rebuild the model");
    assert_eq!(st.model.hits, 0, "nothing shared across the edit");
}

#[test]
fn input_change_misses_the_model() {
    let s = Session::new();
    s.model(SRC, &InputSpec::from_pairs([("N", 256.0)])).unwrap();
    s.model(SRC, &InputSpec::from_pairs([("N", 1024.0)])).unwrap();
    s.model(SRC, &InputSpec::from_pairs([("N", 256.0)])).unwrap();

    let st = s.stats();
    assert_eq!(st.model.misses, 2, "each input binding is a model of its own");
    assert_eq!(st.model.hits, 1, "and the first binding's model is still resident");
}

#[test]
fn disk_cache_warm_starts_a_fresh_session() {
    let dir = temp_dir("disk");
    let inputs = InputSpec::from_pairs([("N", 512.0)]);

    let cold = Session::with_cache_dir(&dir);
    let app_cold = cold.model(SRC, &inputs).unwrap();
    assert_eq!((cold.stats().model.misses, cold.stats().misses()), (1, 1), "a cold query misses the model once");
    let report = xflow::session::disk_cache_report(&dir);
    assert_eq!(report.entries, 1, "one artifact per model");
    assert_eq!(report.per_stage, [1, 0], "a model run leaves the sim stage untouched");
    assert!(report.bytes > 0);
    let files: Vec<String> =
        std::fs::read_dir(&dir).unwrap().flatten().map(|e| e.file_name().to_string_lossy().into_owned()).collect();
    assert!(matches!(files.as_slice(), [f] if f.starts_with("model-") && f.ends_with(".json")), "{files:?}");

    let warm = Session::with_cache_dir(&dir);
    let app_warm = warm.model(SRC, &inputs).unwrap();
    let st = warm.stats();
    assert_eq!(st.model.disk_hits, 1, "the model must warm-start from disk");
    assert_eq!(st.disk_hits(), 1);
    assert_eq!(st.misses(), 0);

    for m in [bgq(), xeon()] {
        assert_bits_equal(&app_cold.project_on(&m), &app_warm.project_on(&m));
    }

    assert_eq!(warm.clear_disk().unwrap(), 1);
    assert_eq!(xflow::session::disk_cache_report(&dir).entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_truncated_artifacts_fall_back_to_cold_builds() {
    let dir = temp_dir("corrupt");
    let inputs = InputSpec::from_pairs([("N", 512.0)]);
    let seed = Session::with_cache_dir(&dir);
    let reference = seed.model(SRC, &inputs).unwrap();

    let files: Vec<PathBuf> = std::fs::read_dir(&dir).unwrap().flatten().map(|e| e.path()).collect();
    assert_eq!(files.len(), 1, "one model artifact: {files:?}");
    let model = &files[0];
    let good = std::fs::read_to_string(model).unwrap();

    // a truncated file, then a garbage one: each is a silent cold rebuild
    for mangled in [&good[..good.len() / 2], "{not json at all"] {
        std::fs::write(model, mangled).unwrap();
        let recover = Session::with_cache_dir(&dir);
        let rebuilt = recover.model(SRC, &inputs).unwrap();
        let st = recover.stats();
        assert_eq!(st.disk_hits(), 0, "a corrupted artifact must not be served");
        assert_eq!(st.misses(), 1, "the model silently rebuilds cold");
        for m in [bgq(), xeon()] {
            assert_bits_equal(&reference.project_on(&m), &rebuilt.project_on(&m));
        }
        // the rebuild re-persisted a good artifact
        assert_eq!(std::fs::read_to_string(model).unwrap(), good);
    }

    // so a further session warm-starts
    let warm = Session::with_cache_dir(&dir);
    warm.model(SRC, &inputs).unwrap();
    assert_eq!(warm.stats().disk_hits(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_cache_dir_round_trip_and_subcommands() {
    let dir = temp_dir("cli");
    let demo = dir.join("demo.ml");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&demo, SRC).unwrap();
    let cache = dir.join("store");
    let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };

    let base = ["hotspots", demo.to_str().unwrap(), "--machine", "xeon", "--cache-dir", cache.to_str().unwrap()];
    let first = xflow::cli::run(&args(&base)).unwrap();
    let second = xflow::cli::run(&args(&base)).unwrap();
    assert_eq!(first, second, "warm run must print byte-identical output");

    // --no-cache agrees with the cached paths
    let cold =
        xflow::cli::run(&args(&["hotspots", demo.to_str().unwrap(), "--machine", "xeon", "--no-cache"])).unwrap();
    assert_eq!(first, cold);

    let stats = xflow::cli::run(&args(&["cache", "stats", "--cache-dir", cache.to_str().unwrap()])).unwrap();
    assert!(stats.contains("entries: 1"), "{stats}");
    assert!(stats.contains("  model      1\n  sim        0\n"), "{stats}");

    // files that older versions wrote, one per retired stage, count as
    // artifacts and `cache clear` removes them; other files stay
    let retired = ["parse", "profile", "translate", "bet", "plan", "kernel"];
    for stage in retired {
        std::fs::write(cache.join(format!("{stage}-0123456789abcdef-fedcba9876543210.json")), "{}").unwrap();
    }
    std::fs::write(cache.join("notes.txt"), "kept").unwrap();
    let stats = xflow::cli::run(&args(&["cache", "stats", "--cache-dir", cache.to_str().unwrap()])).unwrap();
    assert!(stats.contains(&format!("entries: {}", 1 + retired.len())), "{stats}");

    let cleared = xflow::cli::run(&args(&["cache", "clear", "--cache-dir", cache.to_str().unwrap()])).unwrap();
    assert!(cleared.contains(&format!("removed {}", 1 + retired.len())), "{cleared}");
    let stats = xflow::cli::run(&args(&["cache", "stats", "--cache-dir", cache.to_str().unwrap()])).unwrap();
    assert!(stats.contains("entries: 0"), "{stats}");
    assert!(cache.join("notes.txt").exists(), "non-artifact files are left alone");

    // bad invocations error cleanly
    assert!(xflow::cli::run(&args(&["cache", "stats"])).is_err());
    assert!(xflow::cli::run(&args(&["cache", "defrag", "--cache-dir", "x"])).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_skeleton_warm_cache_dir_run_misses_nothing() {
    let dir = temp_dir("cli-skeleton");
    let cache = dir.join("store");
    let skeleton = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_xflow"))
            .args(["skeleton", "cfd"])
            .args(extra)
            .output()
            .expect("run xflow");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        (String::from_utf8(out.stdout).unwrap(), String::from_utf8(out.stderr).unwrap())
    };
    let (cold, cold_err) = skeleton(&["--cache-dir", cache.to_str().unwrap()]);
    assert!(!cold_err.contains("misses: 0"), "the first run builds the model: {cold_err}");
    let (warm, warm_err) = skeleton(&["--cache-dir", cache.to_str().unwrap()]);
    assert!(warm_err.contains("misses: 0"), "the warm run must load the model from disk: {warm_err}");
    assert_eq!(cold, warm, "warm run must print byte-identical output");
    assert_eq!(cold, skeleton(&["--no-cache"]).0);
    let _ = std::fs::remove_dir_all(&dir);
}
