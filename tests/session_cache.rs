//! Cache behavior of the incremental `Session` layer: hits on identical
//! queries, precise invalidation (a source edit rebuilds everything, an
//! input edit reuses the parse), disk warm-starts, and corrupted-artifact
//! fallback.

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
    for (name, stage) in
        [("parse", st.parse), ("profile", st.profile), ("translate", st.translate), ("bet", st.bet), ("plan", st.plan)]
    {
        assert_eq!(stage.misses, 1, "{name}: first query should build");
        assert_eq!(stage.hits, 1, "{name}: second query should hit memory");
        assert_eq!(stage.disk_hits, 0, "{name}: memory-only session");
    }
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
    for (name, stage) in
        [("parse", st.parse), ("profile", st.profile), ("translate", st.translate), ("bet", st.bet), ("plan", st.plan)]
    {
        assert_eq!(stage.misses, 2, "{name}: a one-byte edit must rebuild this stage");
        assert_eq!(stage.hits, 0, "{name}: nothing shared across the edit");
    }
}

#[test]
fn input_change_reuses_parse_and_rebuilds_downstream() {
    let s = Session::new();
    s.model(SRC, &InputSpec::from_pairs([("N", 256.0)])).unwrap();
    s.model(SRC, &InputSpec::from_pairs([("N", 1024.0)])).unwrap();

    let st = s.stats();
    assert_eq!(st.parse.hits, 1, "parse is input-independent and must be reused");
    assert_eq!(st.parse.misses, 1);
    for (name, stage) in [("profile", st.profile), ("translate", st.translate), ("bet", st.bet), ("plan", st.plan)] {
        assert_eq!(stage.misses, 2, "{name}: depends on inputs, must rebuild");
        assert_eq!(stage.hits, 0, "{name}");
    }
}

#[test]
fn disk_cache_warm_starts_a_fresh_session() {
    let dir = temp_dir("disk");
    let inputs = InputSpec::from_pairs([("N", 512.0)]);

    let cold = Session::with_cache_dir(&dir);
    let app_cold = cold.model(SRC, &inputs).unwrap();
    assert_eq!(cold.stats().misses(), 5);
    let report = xflow::session::disk_cache_report(&dir);
    assert_eq!(report.entries, 5, "one artifact per stage");
    assert_eq!(report.per_stage, [1, 1, 1, 1, 1, 0], "a model run leaves the sim stage untouched");
    assert!(report.bytes > 0);

    let warm = Session::with_cache_dir(&dir);
    let app_warm = warm.model(SRC, &inputs).unwrap();
    let st = warm.stats();
    assert_eq!(st.disk_hits(), 5, "every stage must warm-start from disk");
    assert_eq!(st.misses(), 0);

    for m in [bgq(), xeon()] {
        assert_bits_equal(&app_cold.project_on(&m), &app_warm.project_on(&m));
    }

    assert_eq!(warm.clear_disk().unwrap(), 5);
    assert_eq!(xflow::session::disk_cache_report(&dir).entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_truncated_artifacts_fall_back_to_cold_builds() {
    let dir = temp_dir("corrupt");
    let inputs = InputSpec::from_pairs([("N", 512.0)]);
    let seed = Session::with_cache_dir(&dir);
    let reference = seed.model(SRC, &inputs).unwrap();

    // corrupt every persisted artifact: truncate some, garbage the rest
    let mut mangled = 0;
    for (i, entry) in std::fs::read_dir(&dir).unwrap().flatten().enumerate() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        if i % 2 == 0 {
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        } else {
            std::fs::write(&path, "{not json at all").unwrap();
        }
        mangled += 1;
    }
    assert_eq!(mangled, 5);

    let recover = Session::with_cache_dir(&dir);
    let rebuilt = recover.model(SRC, &inputs).unwrap();
    let st = recover.stats();
    assert_eq!(st.disk_hits(), 0, "corrupted artifacts must not be served");
    assert_eq!(st.misses(), 5, "every stage silently rebuilds cold");
    assert_bits_equal(&reference.project_on(&bgq()), &rebuilt.project_on(&bgq()));

    // the rebuild re-persisted good artifacts: a third session warm-starts
    let warm = Session::with_cache_dir(&dir);
    warm.model(SRC, &inputs).unwrap();
    assert_eq!(warm.stats().disk_hits(), 5);
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
    assert!(stats.contains("entries: 5"), "{stats}");

    let cleared = xflow::cli::run(&args(&["cache", "clear", "--cache-dir", cache.to_str().unwrap()])).unwrap();
    assert!(cleared.contains("removed 5"), "{cleared}");
    let stats = xflow::cli::run(&args(&["cache", "stats", "--cache-dir", cache.to_str().unwrap()])).unwrap();
    assert!(stats.contains("entries: 0"), "{stats}");

    // bad invocations error cleanly
    assert!(xflow::cli::run(&args(&["cache", "stats"])).is_err());
    assert!(xflow::cli::run(&args(&["cache", "defrag", "--cache-dir", "x"])).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
