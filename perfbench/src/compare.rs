//! Comparison mode: judge a change against its parent from two result
//! files (`out/results.tsv` of each commit, same seeds and settings).
//!
//! Per workload × end-to-end metric, with runs paired by seed:
//! * **improved** / **regressed**: the change wins (loses) at least 9/10
//!   of the pairs, ties counting for neither, and the medians differ by
//!   more than the parent's interquartile range;
//! * **unchanged**: the medians differ by at most the metric's bound and
//!   the parent's spread is within the bound;
//! * **unresolved**: anything else, e.g. a spread wider than the bound.

use std::collections::BTreeMap;

use crate::stats::{median, quartiles};
use crate::{Metric, END_TO_END};

/// `(workload, metric) → seed → value`, plus `(workload, seed) → meta`.
#[derive(Default)]
struct ResultSet {
    values: BTreeMap<(String, String), BTreeMap<u64, f64>>,
    meta: BTreeMap<(String, u64), String>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut set = ResultSet::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["run", workload, seed, "0", metric, value] => {
                let (Ok(seed), Ok(value)) = (seed.parse(), value.parse()) else { continue };
                set.values.entry((workload.to_string(), metric.to_string())).or_default().insert(seed, value);
            }
            ["meta", workload, seed, "0", meta] => {
                if let Ok(seed) = seed.parse() {
                    set.meta.insert((workload.to_string(), seed), meta.to_string());
                }
            }
            _ => {}
        }
    }
    Ok(set)
}

/// The verdict for one metric, given paired `(parent, change)` values.
pub fn verdict(m: &Metric, pairs: &[(f64, f64)]) -> &'static str {
    if pairs.is_empty() {
        return "no-data";
    }
    let base: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let head: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let better = |a: f64, b: f64| if m.better == "lower" { a < b } else { a > b };
    let wins = pairs.iter().filter(|(b, h)| better(*h, *b)).count() as f64;
    let losses = pairs.iter().filter(|(b, h)| better(*b, *h)).count() as f64;
    let n = pairs.len() as f64;
    let (mb, mh) = (median(&base), median(&head));
    let (q1, q3) = quartiles(&base);
    let iqr = q3 - q1;
    let moved = (mh - mb).abs() > iqr;
    if wins >= 0.9 * n && moved && better(mh, mb) {
        return "improved";
    }
    if losses >= 0.9 * n && moved && better(mb, mh) {
        return "regressed";
    }
    let rel = if mb != 0.0 { (mh - mb).abs() / mb.abs() } else { (mh - mb).abs() };
    let spread = if mb != 0.0 { iqr / mb.abs() } else { iqr };
    let all_better = head.iter().all(|h| base.iter().all(|b| better(*h, *b)));
    if spread > m.bound && !all_better {
        "unresolved"
    } else if rel <= m.bound || better(mh, mb) {
        "unchanged"
    } else {
        "regressed"
    }
}

pub fn run(args: &[String]) -> Result<(), String> {
    let [base_path, head_path] = args else {
        return Err("usage: compare <parent results.tsv> <change results.tsv>".to_string());
    };
    let (base, head) = (load(base_path)?, load(head_path)?);
    for ((workload, seed), meta) in &base.meta {
        match head.meta.get(&(workload.clone(), *seed)) {
            Some(other)
                if other
                    .split(' ')
                    .filter(|kv| kv.starts_with("sequence=") || kv.starts_with("nproc="))
                    .eq(meta.split(' ').filter(|kv| kv.starts_with("sequence=") || kv.starts_with("nproc="))) => {}
            Some(_) => println!("warning: {workload} seed {seed}: op sequence or nproc differs between the sets"),
            None => {}
        }
    }
    println!(
        "{:<14} {:<22} {:>5} {:>14} {:>14} {:>12}  verdict",
        "workload", "metric", "pairs", "parent", "change", "parent_iqr"
    );
    let workloads: std::collections::BTreeSet<&String> = base.values.keys().map(|(w, _)| w).collect();
    for workload in workloads {
        for m in END_TO_END {
            let key = (workload.clone(), m.name.to_string());
            let (Some(b), Some(h)) = (base.values.get(&key), head.values.get(&key)) else { continue };
            let pairs: Vec<(f64, f64)> = b.iter().filter_map(|(s, bv)| h.get(s).map(|hv| (*bv, *hv))).collect();
            let (q1, q3) = quartiles(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
            println!(
                "{:<14} {:<22} {:>5} {:>14.6} {:>14.6} {:>12.6}  {}",
                workload,
                m.name,
                pairs.len(),
                median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>()),
                median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>()),
                q3 - q1,
                verdict(m, &pairs)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: Metric = Metric { name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.1 };

    #[test]
    fn a_clear_win_is_improved_and_noise_is_unchanged_or_unresolved() {
        let win: Vec<(f64, f64)> = (0..10).map(|i| (10.0 + i as f64 * 0.01, 8.0 + i as f64 * 0.01)).collect();
        assert_eq!(verdict(&LAT, &win), "improved");
        let lose: Vec<(f64, f64)> = win.iter().map(|&(b, h)| (h, b)).collect();
        assert_eq!(verdict(&LAT, &lose), "regressed");
        let same: Vec<(f64, f64)> =
            (0..10).map(|i| (10.0 + (i % 3) as f64 * 0.01, 10.0 + ((i + 1) % 3) as f64 * 0.01)).collect();
        assert_eq!(verdict(&LAT, &same), "unchanged");
        let noisy: Vec<(f64, f64)> = (0..10).map(|i| (5.0 + (i % 2) as f64 * 10.0, 10.0)).collect();
        assert_eq!(verdict(&LAT, &noisy), "unresolved");
    }

    #[test]
    fn eight_of_ten_wins_is_not_a_claim() {
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (10.0, if i < 8 { 9.95 } else { 10.05 })).collect();
        assert_eq!(verdict(&LAT, &pairs), "unchanged");
    }
}
