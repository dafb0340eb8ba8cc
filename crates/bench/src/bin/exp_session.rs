//! Session warm-start benchmark: cold modeling vs warm `Session` loads
//! (in-memory and disk) across the five-workload suite.
//!
//! Three arms per workload:
//!
//! * **cold** — `Session::model` on a fresh memory-only session per
//!   repetition: parse + profiled run + translation + BET build + plan
//!   and kernel builds, every stage a miss;
//! * **warm (memory)** — `Session::model` with primed in-memory caches:
//!   six key derivations, six LRU hits, artifact clones;
//! * **warm (disk)** — a *fresh* `Session::with_cache_dir` per repetition,
//!   so every stage deserializes its persisted artifact (the CLI
//!   warm-start shape).
//!
//! Writes `results/BENCH_session.json` and asserts the suite-level
//! in-memory warm-start win is ≥ 5×.

use xflow::Session;
use xflow_bench::{min_of_k, opts};

fn main() {
    let o = opts();
    let (cold_reps, warm_reps) = if matches!(o.scale, xflow::Scale::Test) { (5, 50) } else { (2, 20) };
    let cache_dir = std::env::temp_dir().join(format!("xflow-exp-session-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let workloads = xflow_workloads::all();
    let mut names = Vec::new();
    let mut cold_s = Vec::new();
    let mut warm_mem_s = Vec::new();
    let mut warm_disk_s = Vec::new();

    println!("=== session warm-start vs cold modeling ({:?} scale) ===\n", o.scale);
    println!(
        "{:<10} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "workload", "cold (s)", "mem (s)", "disk (s)", "mem ×", "disk ×"
    );

    let mem_session = Session::new();
    let disk_seed = Session::with_cache_dir(&cache_dir);
    for w in &workloads {
        let inputs = w.inputs(o.scale);
        // prime both cache tiers outside the timed regions
        mem_session.model(w.source, &inputs).expect("prime memory session");
        disk_seed.model(w.source, &inputs).expect("prime disk cache");

        let cold = min_of_k(1, cold_reps, || {
            std::hint::black_box(Session::new().model(w.source, &inputs).expect("cold model").bet.len());
        });
        let warm_mem = min_of_k(1, warm_reps, || {
            std::hint::black_box(mem_session.model(w.source, &inputs).expect("warm model").bet.len());
        });
        let warm_disk = min_of_k(1, warm_reps.min(10), || {
            let s = Session::with_cache_dir(&cache_dir);
            std::hint::black_box(s.model(w.source, &inputs).expect("disk model").bet.len());
        });

        println!(
            "{:<10} {:>13.3e} {:>13.3e} {:>13.3e} {:>8.1}x {:>8.1}x",
            w.name,
            cold,
            warm_mem,
            warm_disk,
            cold / warm_mem,
            cold / warm_disk
        );
        names.push(w.name.to_string());
        cold_s.push(cold);
        warm_mem_s.push(warm_mem);
        warm_disk_s.push(warm_disk);
    }

    let suite_cold: f64 = cold_s.iter().sum();
    let suite_mem: f64 = warm_mem_s.iter().sum();
    let suite_disk: f64 = warm_disk_s.iter().sum();
    let speedup_memory = suite_cold / suite_mem;
    let speedup_disk = suite_cold / suite_disk;
    println!("\nsuite: cold {suite_cold:.3e} s, warm-memory {suite_mem:.3e} s ({speedup_memory:.1}x), warm-disk {suite_disk:.3e} s ({speedup_disk:.1}x)");

    let stats = mem_session.stats();
    println!("memory session counters: {stats}");

    #[derive(serde::Serialize)]
    struct SessionBench {
        scale: String,
        workloads: Vec<String>,
        cold_seconds: Vec<f64>,
        warm_memory_seconds: Vec<f64>,
        warm_disk_seconds: Vec<f64>,
        suite_cold_seconds: f64,
        suite_warm_memory_seconds: f64,
        suite_warm_disk_seconds: f64,
        suite_speedup_memory: f64,
        suite_speedup_disk: f64,
    }
    let data = SessionBench {
        scale: format!("{:?}", o.scale),
        workloads: names,
        cold_seconds: cold_s,
        warm_memory_seconds: warm_mem_s,
        warm_disk_seconds: warm_disk_s,
        suite_cold_seconds: suite_cold,
        suite_warm_memory_seconds: suite_mem,
        suite_warm_disk_seconds: suite_disk,
        suite_speedup_memory: speedup_memory,
        suite_speedup_disk: speedup_disk,
    };
    std::fs::create_dir_all("results").expect("create results dir");
    let path = "results/BENCH_session.json";
    std::fs::write(path, serde_json::to_string_pretty(&data).expect("serialize")).expect("write json");
    println!("[json written to {path}]");

    let _ = std::fs::remove_dir_all(&cache_dir);

    assert!(
        speedup_memory >= 5.0,
        "warm session load must be >=5x faster than cold modeling on the suite (got {speedup_memory:.1}x)"
    );
}
