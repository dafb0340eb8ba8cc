//! Benchmark-regression gate for CI.
//!
//! Compares freshly regenerated `BENCH_*.json` reports against the
//! committed baselines and exits nonzero when any gated metric moved in
//! the bad direction by more than the tolerance (see
//! [`xflow_bench::gate`] for direction inference).
//!
//! ```text
//! bench_gate --baseline results-baseline --current results \
//!            [--tolerance 0.2] [--floor 1e-6] [--files a.json,b.json]
//! ```

use xflow_bench::gate::{compare_files, render_deltas, GateConfig};

/// The reports gated by default. `BENCH_sim.json` is left out: its
/// absolute timings and `--jobs` speedups miss the committed baseline by
/// more than the tolerance on an unchanged tree.
const DEFAULT_FILES: &str =
    "BENCH_sweep.json,BENCH_session.json,BENCH_obs.json,BENCH_kernel.json,BENCH_serve.json,BENCH_profile.json";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut baseline = String::new();
    let mut current = String::new();
    let mut files = DEFAULT_FILES.to_string();
    let mut cfg = GateConfig { tolerance: 0.2, floor: 1e-6 };
    let mut i = 1;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{} needs a value", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--baseline" => {
                baseline = need(i);
                i += 1;
            }
            "--current" => {
                current = need(i);
                i += 1;
            }
            "--files" => {
                files = need(i);
                i += 1;
            }
            "--tolerance" => {
                cfg.tolerance = need(i).parse().expect("--tolerance needs a number");
                i += 1;
            }
            "--floor" => {
                cfg.floor = need(i).parse().expect("--floor needs a number");
                i += 1;
            }
            other => {
                eprintln!("unknown option `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if baseline.is_empty() || current.is_empty() {
        eprintln!("usage: bench_gate --baseline DIR --current DIR [--tolerance T] [--floor F] [--files a,b]");
        std::process::exit(2);
    }

    let mut regressions = 0usize;
    for file in files.split(',').filter(|f| !f.is_empty()) {
        let b = std::path::Path::new(&baseline).join(file);
        let c = std::path::Path::new(&current).join(file);
        match compare_files(&b, &c, &cfg) {
            Ok(deltas) => {
                print!("{}", render_deltas(file, &deltas));
                regressions += deltas.iter().filter(|d| d.regression).count();
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        }
    }
    if regressions > 0 {
        eprintln!("bench_gate: {regressions} metric(s) regressed beyond {:.0}%", cfg.tolerance * 100.0);
        std::process::exit(1);
    }
    println!("bench_gate: no regressions beyond {:.0}%", cfg.tolerance * 100.0);
}
