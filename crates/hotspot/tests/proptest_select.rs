//! Property tests for hot spot selection and the quality metric.

use proptest::prelude::*;
use std::collections::HashMap;
use xflow_hotspot::{coverage_curve, quality_at, select, top_k_overlap, Candidate, Criteria, MeasuredTimes};
use xflow_skeleton::StmtId;

fn candidates() -> impl Strategy<Value = Vec<Candidate>> {
    prop::collection::vec((0.0f64..1000.0, 1.0f64..50.0), 1..40).prop_map(|v| {
        v.into_iter().enumerate().map(|(i, (time, instr))| Candidate { stmt: StmtId(i as u32), time, instr }).collect()
    })
}

fn criteria() -> impl Strategy<Value = Criteria> {
    (0.1f64..=1.0, 0.05f64..=1.0).prop_map(|(cov, lean)| Criteria { time_coverage: cov, code_leanness: lean })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn leanness_respected_beyond_first_spot(cands in candidates(), crit in criteria()) {
        let total_instr: f64 = cands.iter().map(|c| c.instr).sum();
        let sel = select(&cands, total_instr, crit);
        if sel.spots.len() > 1 {
            prop_assert!(
                sel.leanness() <= crit.code_leanness + 1e-9,
                "leanness {} > {}",
                sel.leanness(),
                crit.code_leanness
            );
        }
    }

    #[test]
    fn selection_is_ranked_and_unique(cands in candidates(), crit in criteria()) {
        let total_instr: f64 = cands.iter().map(|c| c.instr).sum();
        let sel = select(&cands, total_instr, crit);
        // ranks sequential
        for (i, s) in sel.spots.iter().enumerate() {
            prop_assert_eq!(s.rank, i);
        }
        // no duplicates
        let mut ids = sel.stmt_ids();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(before, ids.len());
        // the order is by descending time
        for w in sel.spots.windows(2) {
            prop_assert!(w[0].time + 1e-12 >= w[1].time);
        }
    }

    #[test]
    fn coverage_consistency(cands in candidates(), crit in criteria()) {
        let total_instr: f64 = cands.iter().map(|c| c.instr).sum();
        let sel = select(&cands, total_instr, crit);
        let curve = sel.coverage_curve();
        // monotone, ends at coverage(), all within [0, 1]
        prop_assert!(curve.windows(2).all(|w| w[1] + 1e-12 >= w[0]));
        if let Some(last) = curve.last() {
            prop_assert!((last - sel.coverage()).abs() < 1e-9);
        }
        prop_assert!(sel.coverage() <= 1.0 + 1e-9);
    }

    #[test]
    fn stopping_conditions_hold(cands in candidates(), crit in criteria()) {
        // either the coverage target is met, or every unselected candidate
        // with nonzero time would bust the leanness budget
        let total_instr: f64 = cands.iter().map(|c| c.instr).sum();
        let sel = select(&cands, total_instr, crit);
        if sel.coverage() + 1e-9 < crit.time_coverage && !sel.spots.is_empty() {
            let used: f64 = sel.spots.iter().map(|s| s.instr).sum();
            let budget = crit.code_leanness * total_instr;
            let selected: Vec<StmtId> = sel.stmt_ids();
            for c in &cands {
                if c.time > 0.0 && !selected.contains(&c.stmt) {
                    prop_assert!(used + c.instr > budget + 1e-9, "candidate {:?} should have been taken", c.stmt);
                }
            }
        }
    }

    #[test]
    fn quality_bounds_and_identity(times in prop::collection::vec(0.0f64..100.0, 1..30)) {
        let map: HashMap<StmtId, f64> =
            times.iter().enumerate().map(|(i, &t)| (StmtId(i as u32), t)).collect();
        let m = MeasuredTimes::new(map);
        let oracle = m.ranking();
        for k in 1..=oracle.len() {
            let q = quality_at(&oracle, &m, k);
            prop_assert!((q - 1.0).abs() < 1e-9, "identity ranking must score 1, got {q}");
        }
        // any permutation stays within [0, 1]
        let mut reversed = oracle.clone();
        reversed.reverse();
        for k in 1..=reversed.len() {
            let q = quality_at(&reversed, &m, k);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&q));
        }
        // full-length selections always score 1 (same set)
        let q_full = quality_at(&reversed, &m, reversed.len());
        prop_assert!((q_full - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_curve_matches_manual_sum(times in prop::collection::vec(0.01f64..100.0, 1..20)) {
        let map: HashMap<StmtId, f64> =
            times.iter().enumerate().map(|(i, &t)| (StmtId(i as u32), t)).collect();
        let m = MeasuredTimes::new(map.clone());
        let order = m.ranking();
        let curve = coverage_curve(&order, &m, order.len());
        let total: f64 = times.iter().sum();
        let mut acc = 0.0;
        for (k, &u) in order.iter().enumerate() {
            acc += map[&u] / total;
            prop_assert!((curve[k] - acc).abs() < 1e-9);
        }
        prop_assert!((curve.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_symmetric_and_bounded(a in prop::collection::vec(0u32..40, 1..15), b in prop::collection::vec(0u32..40, 1..15)) {
        let av: Vec<StmtId> = a.iter().map(|&i| StmtId(i)).collect();
        let bv: Vec<StmtId> = b.iter().map(|&i| StmtId(i)).collect();
        let k = 10;
        let ab = top_k_overlap(&av, &bv, k);
        prop_assert!(ab <= k.min(av.len()).min(bv.len().max(k)));
        // overlap of a ranking with itself is its (deduplicated) prefix size
        let mut prefix: Vec<StmtId> = av.iter().take(k).cloned().collect();
        let aa = top_k_overlap(&av, &av, k);
        prefix.dedup();
        prop_assert!(aa <= k);
        prop_assert!(aa >= 1);
    }
}
