//! Benchmark-regression gate: compare a freshly produced `BENCH_*.json`
//! report against a committed baseline and flag metrics that moved in
//! the *bad* direction by more than a tolerance.
//!
//! The comparison is schema-free — reports are parsed into the generic
//! [`Content`] tree and flattened to `path → number` — so adding a field
//! to a report never breaks the gate. Direction is inferred from the
//! metric name: throughput-like names (`speedup`, `per_sec`,
//! `throughput`) must not drop, cost-like names (`seconds`, `overhead`)
//! must not rise, and anything else (counts, labels, configuration
//! echoes) is informational only.

use serde::Content;
use std::fmt::Write as _;

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Times and overheads: a rise beyond tolerance is a regression.
    LowerIsBetter,
    /// Speedups and throughputs: a drop beyond tolerance is a regression.
    HigherIsBetter,
    /// Structural values (counts, presets): never gate.
    Informational,
}

/// Classify a flattened metric path by its final key segment.
pub fn direction_of(path: &str) -> Direction {
    let key = path.rsplit('.').next().unwrap_or(path);
    // strip a `[i]` index so vector elements classify like their field
    let key = key.split('[').next().unwrap_or(key);
    // a `*_points` key is a grid size: it echoes the configuration
    if key.contains("speedup") || key.contains("per_sec") || (key.contains("throughput") && !key.ends_with("_points")) {
        Direction::HigherIsBetter
    } else if key.contains("seconds") || key.contains("overhead") {
        Direction::LowerIsBetter
    } else {
        Direction::Informational
    }
}

/// One metric present in both reports.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    pub path: String,
    pub baseline: f64,
    pub current: f64,
    /// `(current − baseline) / |baseline|`; `0` when both are zero.
    pub rel_change: f64,
    pub direction: Direction,
    pub regression: bool,
}

/// Gate configuration.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Allowed relative movement in the bad direction (`0.2` = 20%).
    pub tolerance: f64,
    /// Metrics whose baseline and current are both below this magnitude
    /// are skipped: sub-floor timings are scheduler noise, not signal.
    pub floor: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self { tolerance: 0.2, floor: 0.0 }
    }
}

/// Flatten a JSON tree into `path → number` rows. Non-numeric leaves
/// (strings, bools, nulls) are ignored.
pub fn flatten(c: &Content, prefix: &str, out: &mut Vec<(String, f64)>) {
    match c {
        Content::U64(v) => out.push((prefix.to_string(), *v as f64)),
        Content::I64(v) => out.push((prefix.to_string(), *v as f64)),
        Content::F64(v) => out.push((prefix.to_string(), *v)),
        Content::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, &format!("{prefix}[{i}]"), out);
            }
        }
        Content::Map(entries) => {
            for (k, v) in entries {
                let key = match k {
                    Content::Str(s) => s.clone(),
                    other => format!("{other:?}"),
                };
                let path = if prefix.is_empty() { key } else { format!("{prefix}.{key}") };
                flatten(v, &path, out);
            }
        }
        _ => {}
    }
}

/// Compare two parsed reports. Metrics present in only one side are
/// skipped (reports may legitimately gain fields between commits).
pub fn compare_reports(baseline: &Content, current: &Content, cfg: &GateConfig) -> Vec<MetricDelta> {
    let mut base = Vec::new();
    flatten(baseline, "", &mut base);
    let mut cur = Vec::new();
    flatten(current, "", &mut cur);
    let cur: std::collections::HashMap<String, f64> = cur.into_iter().collect();

    let mut out = Vec::new();
    for (path, b) in base {
        let Some(&c) = cur.get(&path) else { continue };
        if b.abs() < cfg.floor && c.abs() < cfg.floor {
            continue;
        }
        let rel_change = if b == c {
            0.0
        } else if b == 0.0 {
            f64::INFINITY * (c - b).signum()
        } else {
            (c - b) / b.abs()
        };
        let direction = direction_of(&path);
        let regression = match direction {
            Direction::LowerIsBetter => rel_change > cfg.tolerance,
            Direction::HigherIsBetter => rel_change < -cfg.tolerance,
            Direction::Informational => false,
        };
        out.push(MetricDelta { path, baseline: b, current: c, rel_change, direction, regression });
    }
    out
}

/// Compare two report files. Errors on unreadable or unparseable input —
/// a missing baseline must fail the gate loudly, not pass silently.
pub fn compare_files(
    baseline: &std::path::Path,
    current: &std::path::Path,
    cfg: &GateConfig,
) -> Result<Vec<MetricDelta>, String> {
    let read = |p: &std::path::Path| -> Result<Content, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("bad JSON in {}: {e}", p.display()))
    };
    Ok(compare_reports(&read(baseline)?, &read(current)?, cfg))
}

/// Render a human summary: all regressions, plus a one-line tally.
pub fn render_deltas(label: &str, deltas: &[MetricDelta]) -> String {
    let mut out = String::new();
    let gated = deltas.iter().filter(|d| d.direction != Direction::Informational).count();
    let bad: Vec<&MetricDelta> = deltas.iter().filter(|d| d.regression).collect();
    let _ = writeln!(out, "{label}: {} metrics compared, {} gated, {} regressed", deltas.len(), gated, bad.len());
    for d in &bad {
        let _ = writeln!(
            out,
            "  REGRESSION {:<46} {:>12.4e} -> {:>12.4e} ({:+.1}%)",
            d.path,
            d.baseline,
            d.current,
            d.rel_change * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn content(json: &str) -> Content {
        serde_json::from_str(json).unwrap()
    }

    #[test]
    fn directions_classify_by_key() {
        assert_eq!(direction_of("speedup_vs_legacy"), Direction::HigherIsBetter);
        assert_eq!(direction_of("points_per_sec[2]"), Direction::HigherIsBetter);
        assert_eq!(direction_of("suite_cold_seconds"), Direction::LowerIsBetter);
        assert_eq!(direction_of("collecting_overhead"), Direction::LowerIsBetter);
        assert_eq!(direction_of("grid_points"), Direction::Informational);
        assert_eq!(direction_of("nested.warm_disk_seconds"), Direction::LowerIsBetter);
    }

    #[test]
    fn kernel_bench_keys_classify_correctly() {
        // pins the direction of every gated BENCH_kernel.json metric so a
        // key rename can't silently demote a gate to informational
        for key in [
            "eval_point_seconds",
            "kernel_point_seconds",
            "batch_point_seconds",
            "batch_soa_point_seconds",
            "batch_materialize_overhead_seconds",
        ] {
            assert_eq!(direction_of(key), Direction::LowerIsBetter, "{key}");
        }
        for key in [
            "speedup_kernel_vs_evaluate",
            "speedup_batch_vs_evaluate",
            "speedup_batch_soa_vs_evaluate",
            "sweep_points_per_sec",
        ] {
            assert_eq!(direction_of(key), Direction::HigherIsBetter, "{key}");
        }
        for key in ["grid_points", "available_cores", "sweep_threads", "threads_requested[0]", "lane_width"] {
            assert_eq!(direction_of(key), Direction::Informational, "{key}");
        }
    }

    #[test]
    fn sweep_bench_keys_classify_correctly() {
        // pins the direction of every gated BENCH_sweep.json metric so a
        // key rename can't silently demote a gate to informational
        for key in [
            "plan_build_seconds",
            "eval_point_seconds",
            "grid_plan_reuse_seconds",
            "grid_legacy_seconds",
            "grid_single_pass_seconds",
            "design_loop_seconds",
        ] {
            assert_eq!(direction_of(key), Direction::LowerIsBetter, "{key}");
        }
        for key in ["speedup_vs_legacy", "speedup_vs_single_pass", "points_per_sec[0]"] {
            assert_eq!(direction_of(key), Direction::HigherIsBetter, "{key}");
        }
        for key in ["grid_points", "throughput_grid_points", "available_cores", "threads[0]", "threads_requested[0]"] {
            assert_eq!(direction_of(key), Direction::Informational, "{key}");
        }
    }

    #[test]
    fn serve_bench_keys_classify_correctly() {
        // pins the direction of every gated BENCH_serve.json metric so a
        // key rename can't silently demote a gate to informational
        for key in ["cold_single_seconds", "warm_p50_latency_seconds", "warm_p99_latency_seconds", "herd_wall_seconds"]
        {
            assert_eq!(direction_of(key), Direction::LowerIsBetter, "{key}");
        }
        for key in ["warm_requests_per_sec", "speedup_singleflight_vs_rebuild"] {
            assert_eq!(direction_of(key), Direction::HigherIsBetter, "{key}");
        }
        for key in ["server_threads", "warm_requests", "herd_clients", "herd_stage_builds", "herd_singleflight_waits"] {
            assert_eq!(direction_of(key), Direction::Informational, "{key}");
        }
    }

    #[test]
    fn profile_bench_keys_classify_correctly() {
        // pins the direction of every gated BENCH_profile.json metric so a
        // key rename can't silently demote a gate to informational
        for key in [
            "vm_baseline_seconds",
            "vm_noop_seconds",
            "noop_overhead",
            "profiled_seconds",
            "profiled_overhead",
            "fused_seconds",
            "cold_seconds",
            "cold_seconds_unfused",
        ] {
            assert_eq!(direction_of(key), Direction::LowerIsBetter, "{key}");
        }
        for key in ["profiled_minstr_per_sec", "fused_minstr_per_sec", "speedup_fused_vs_vm"] {
            assert_eq!(direction_of(key), Direction::HigherIsBetter, "{key}");
        }
        // per-workload gains are keyed by workload name so a noisy small
        // workload can't flap the gate; only the summed cold path gates
        for key in ["instructions", "extra.fused_gain.CFD", "extra.fused_gain.SORD"] {
            assert_eq!(direction_of(key), Direction::Informational, "{key}");
        }
    }

    #[test]
    fn sim_bench_keys_classify_correctly() {
        // pins the direction of every gated BENCH_sim.json metric so a
        // key rename can't silently demote a gate to informational
        for key in [
            "dense_seconds",
            "reference_seconds",
            "oracle_sequential_seconds",
            "oracle_parallel_seconds",
            "validate_all_sequential_seconds",
            "validate_all_parallel_seconds",
        ] {
            assert_eq!(direction_of(key), Direction::LowerIsBetter, "{key}");
        }
        for key in [
            "sim_minstr_per_sec",
            "speedup_dense_vs_ref",
            "oracle_points_per_sec",
            "oracle_parallel_speedup",
            "validate_all_parallel_speedup",
        ] {
            assert_eq!(direction_of(key), Direction::HigherIsBetter, "{key}");
        }
        for key in ["threads", "sim_instructions", "oracle_records"] {
            assert_eq!(direction_of(key), Direction::Informational, "{key}");
        }
    }

    #[test]
    fn session_bench_keys_classify_correctly() {
        // pins the direction of every gated BENCH_session.json metric so a
        // key rename can't silently demote a gate to informational
        for key in [
            "cold_seconds[0]",
            "warm_memory_seconds[0]",
            "warm_disk_seconds[0]",
            "suite_cold_seconds",
            "suite_warm_memory_seconds",
            "suite_warm_disk_seconds",
        ] {
            assert_eq!(direction_of(key), Direction::LowerIsBetter, "{key}");
        }
        for key in ["suite_speedup_memory", "suite_speedup_disk"] {
            assert_eq!(direction_of(key), Direction::HigherIsBetter, "{key}");
        }
        for key in ["scale", "workloads[0]"] {
            assert_eq!(direction_of(key), Direction::Informational, "{key}");
        }
    }

    #[test]
    fn slower_time_and_lower_speedup_regress() {
        let base = content(r#"{"run_seconds": 1.0, "speedup": 10.0, "grid_points": 25}"#);
        let cfg = GateConfig::default();

        let worse = content(r#"{"run_seconds": 1.5, "speedup": 7.0, "grid_points": 50}"#);
        let deltas = compare_reports(&base, &worse, &cfg);
        let regressed: Vec<&str> = deltas.iter().filter(|d| d.regression).map(|d| d.path.as_str()).collect();
        assert_eq!(regressed, ["run_seconds", "speedup"]);

        // movement in the good direction never gates, no matter how large
        let better = content(r#"{"run_seconds": 0.1, "speedup": 99.0, "grid_points": 50}"#);
        assert!(compare_reports(&base, &better, &cfg).iter().all(|d| !d.regression));
    }

    #[test]
    fn tolerance_and_floor_are_honored() {
        let base = content(r#"{"a_seconds": 1.0, "b_seconds": 1e-9}"#);
        let cur = content(r#"{"a_seconds": 1.19, "b_seconds": 9e-9}"#);
        let cfg = GateConfig { tolerance: 0.2, floor: 1e-6 };
        let deltas = compare_reports(&base, &cur, &cfg);
        // a: +19% < 20% tolerance; b: below floor, skipped entirely
        assert_eq!(deltas.len(), 1);
        assert!(!deltas[0].regression);
    }

    #[test]
    fn vectors_and_missing_fields() {
        let base = content(r#"{"points_per_sec": [100.0, 200.0], "old_seconds": 2.0}"#);
        let cur = content(r#"{"points_per_sec": [100.0, 50.0], "new_seconds": 2.0}"#);
        let deltas = compare_reports(&base, &cur, &GateConfig::default());
        // old_seconds vanished → skipped; element 1 dropped 4× → regression
        assert_eq!(deltas.len(), 2);
        let bad: Vec<&str> = deltas.iter().filter(|d| d.regression).map(|d| d.path.as_str()).collect();
        assert_eq!(bad, ["points_per_sec[1]"]);
    }

    #[test]
    fn render_lists_regressions() {
        let base = content(r#"{"x_seconds": 1.0}"#);
        let cur = content(r#"{"x_seconds": 3.0}"#);
        let text = render_deltas("sweep", &compare_reports(&base, &cur, &GateConfig::default()));
        assert!(text.contains("REGRESSION x_seconds"), "{text}");
        assert!(text.contains("1 regressed"), "{text}");
    }
}
