//! Selection quality — the paper's evaluation metric (Section VI).
//!
//! The developer cares about the *measured run-time coverage* of whatever
//! selection a method proposes. For a selection size `k`, quality compares
//! the measured coverage of the proposed top-`k` against the measured
//! coverage of the measured (oracle) top-`k`:
//!
//! `Q(k) = measured_coverage(proposed[..k]) / measured_coverage(measured[..k])`
//!
//! A perfect projection scores 1.0 at every `k`; mis-ranked spots with
//! similar coverage barely move it, while selecting genuinely cold blocks
//! drags it down. The paper reports Q averaging 95.8% and never below 80%.

use std::collections::HashMap;
use xflow_skeleton::StmtId;

/// Measured time attribution: statement → time, plus the total.
#[derive(Debug, Clone, Default)]
pub struct MeasuredTimes {
    pub times: HashMap<StmtId, f64>,
    pub total: f64,
}

impl MeasuredTimes {
    /// Build from per-statement times (total = their sum, taken in
    /// ascending statement order so it never depends on hash order).
    pub fn new(times: HashMap<StmtId, f64>) -> Self {
        let mut rows: Vec<(StmtId, f64)> = times.iter().map(|(&s, &t)| (s, t)).collect();
        rows.sort_unstable_by_key(|&(s, _)| s);
        let total = rows.iter().map(|&(_, t)| t).sum();
        Self { times, total }
    }

    /// Measured coverage of an ordered selection prefix.
    pub fn coverage_of(&self, stmts: &[StmtId]) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        stmts.iter().map(|s| self.times.get(s).copied().unwrap_or(0.0)).sum::<f64>() / self.total
    }

    /// Statements ranked by descending measured time.
    pub fn ranking(&self) -> Vec<StmtId> {
        let mut v: Vec<(StmtId, f64)> = self.times.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
        v.into_iter().map(|(s, _)| s).collect()
    }
}

/// Quality of a proposed ranking at one selection size.
pub fn quality_at(proposed: &[StmtId], measured: &MeasuredTimes, k: usize) -> f64 {
    let oracle = measured.ranking();
    let k = k.min(proposed.len()).min(oracle.len());
    if k == 0 {
        return 1.0;
    }
    let oracle_cov = measured.coverage_of(&oracle[..k]);
    if oracle_cov == 0.0 {
        return 1.0;
    }
    (measured.coverage_of(&proposed[..k.min(proposed.len())]) / oracle_cov).clamp(0.0, 1.0)
}

/// Quality curve for k = 1 ..= max_k.
pub fn quality_curve(proposed: &[StmtId], measured: &MeasuredTimes, max_k: usize) -> Vec<f64> {
    (1..=max_k).map(|k| quality_at(proposed, measured, k)).collect()
}

/// Number of common members in the two top-`k` sets (the paper's "only 4 of
/// the top 10 hot spots are shared across machines" comparison).
pub fn top_k_overlap(a: &[StmtId], b: &[StmtId], k: usize) -> usize {
    let ka = &a[..k.min(a.len())];
    let kb = &b[..k.min(b.len())];
    ka.iter().filter(|s| kb.contains(s)).count()
}

/// Cumulative measured-coverage curve of an ordered selection (the Prof /
/// Modl(m) curves of Figures 4–13).
pub fn coverage_curve(order: &[StmtId], measured: &MeasuredTimes, max_k: usize) -> Vec<f64> {
    let mut acc = 0.0;
    order
        .iter()
        .take(max_k)
        .map(|s| {
            if measured.total > 0.0 {
                acc += measured.times.get(s).copied().unwrap_or(0.0) / measured.total;
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(pairs: &[(u32, f64)]) -> MeasuredTimes {
        MeasuredTimes::new(pairs.iter().map(|&(i, t)| (StmtId(i), t)).collect())
    }

    fn ids(v: &[u32]) -> Vec<StmtId> {
        v.iter().map(|&i| StmtId(i)).collect()
    }

    #[test]
    fn perfect_ranking_scores_one() {
        let m = measured(&[(0, 50.0), (1, 30.0), (2, 20.0)]);
        let proposed = ids(&[0, 1, 2]);
        for k in 1..=3 {
            assert_eq!(quality_at(&proposed, &m, k), 1.0);
        }
    }

    #[test]
    fn swapped_similar_spots_barely_hurt() {
        // spots 1 and 2 have nearly identical coverage (the paper's SRAD
        // and CHARGEI inversions)
        let m = measured(&[(0, 50.0), (1, 25.1), (2, 24.9)]);
        let proposed = ids(&[0, 2, 1]); // swap 1 and 2
        let q = quality_at(&proposed, &m, 2);
        assert!(q > 0.99, "{q}");
        assert_eq!(quality_at(&proposed, &m, 3), 1.0);
    }

    #[test]
    fn cold_block_selection_hurts() {
        let m = measured(&[(0, 90.0), (1, 5.0), (2, 5.0)]);
        let proposed = ids(&[1, 2, 0]); // proposes cold blocks first
        let q1 = quality_at(&proposed, &m, 1);
        assert!((q1 - 5.0 / 90.0).abs() < 1e-9, "{q1}");
    }

    #[test]
    fn quality_clamped_to_unit() {
        let m = measured(&[(0, 10.0), (1, 10.0)]);
        let q = quality_at(&ids(&[0, 1]), &m, 5);
        assert!(q <= 1.0);
    }

    #[test]
    fn overlap_counts_shared_members() {
        let a = ids(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let b = ids(&[0, 2, 4, 6, 11, 12, 13, 14, 15, 16]);
        assert_eq!(top_k_overlap(&a, &b, 10), 4);
        assert_eq!(top_k_overlap(&a, &b, 1), 1);
        assert_eq!(top_k_overlap(&a, &[], 10), 0);
    }

    #[test]
    fn coverage_curve_accumulates() {
        let m = measured(&[(0, 60.0), (1, 30.0), (2, 10.0)]);
        let curve = coverage_curve(&ids(&[0, 1, 2]), &m, 3);
        assert!((curve[0] - 0.6).abs() < 1e-9);
        assert!((curve[1] - 0.9).abs() < 1e-9);
        assert!((curve[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ranking_descending() {
        let m = measured(&[(0, 5.0), (1, 50.0), (2, 20.0)]);
        assert_eq!(m.ranking(), ids(&[1, 2, 0]));
    }

    #[test]
    fn empty_measured_is_neutral() {
        let m = MeasuredTimes::default();
        assert_eq!(quality_at(&ids(&[0]), &m, 1), 1.0);
        assert_eq!(m.coverage_of(&ids(&[0])), 0.0);
    }

    #[test]
    fn quality_curve_length() {
        let m = measured(&[(0, 1.0), (1, 1.0)]);
        assert_eq!(quality_curve(&ids(&[0, 1]), &m, 5).len(), 5);
    }
}
