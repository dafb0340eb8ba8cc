//! Hot spot identification (paper Section V-B).
//!
//! Users configure two criteria: **time coverage** (the selection should
//! account for at least this fraction of total run time) and **code
//! leanness** (the selection may contain at most this fraction of the
//! application's static instructions). Leanness takes precedence: when both
//! cannot be met, coverage is maximized under the leanness constraint. The
//! underlying problem is a knapsack; a greedy algorithm is used, as in the
//! paper.

use serde::{Deserialize, Serialize};
use xflow_skeleton::StmtId;

use crate::quality::unit_order;

/// Selection criteria (paper defaults: coverage ≥ 0.9, leanness ≤ 0.1).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Criteria {
    /// Minimum fraction of total time the hot spots should cover.
    pub time_coverage: f64,
    /// Maximum fraction of static instructions the hot spots may contain.
    pub code_leanness: f64,
}

impl Default for Criteria {
    fn default() -> Self {
        Self { time_coverage: 0.9, code_leanness: 0.1 }
    }
}

/// Greedy strategy variant (ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Greedy {
    /// Take blocks in descending time order, skipping any that would bust
    /// the leanness budget (the paper's ranking view).
    ByTime,
    /// Take blocks in descending time-per-instruction density (classic
    /// knapsack greedy).
    ByDensity,
}

/// A candidate code block for selection.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    pub stmt: StmtId,
    /// Time attributed to the block (projected or measured, seconds/cycles).
    pub time: f64,
    /// Static instruction weight of the block.
    pub instr: f64,
}

/// One selected hot spot.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HotSpot {
    pub stmt: StmtId,
    /// Rank in the selection (0 = hottest).
    pub rank: usize,
    /// Time attributed to the block.
    pub time: f64,
    /// Fraction of the application total.
    pub coverage: f64,
    /// Static instruction weight.
    pub instr: f64,
}

/// The outcome of hot spot selection.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Selection {
    /// Selected spots, hottest first.
    pub spots: Vec<HotSpot>,
    /// Total time of the application the candidates came from.
    pub total_time: f64,
    /// Total static instructions of the application.
    pub total_instr: f64,
}

impl Selection {
    /// Combined time coverage of the selection.
    pub fn coverage(&self) -> f64 {
        self.spots.iter().map(|s| s.coverage).sum()
    }

    /// Combined leanness (fraction of static instructions selected).
    pub fn leanness(&self) -> f64 {
        if self.total_instr == 0.0 {
            0.0
        } else {
            self.spots.iter().map(|s| s.instr).sum::<f64>() / self.total_instr
        }
    }

    /// Cumulative coverage after each of the first `k` spots.
    pub fn coverage_curve(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.spots
            .iter()
            .map(|s| {
                acc += s.coverage;
                acc
            })
            .collect()
    }

    /// The selected statement ids in rank order.
    pub fn stmt_ids(&self) -> Vec<StmtId> {
        self.spots.iter().map(|s| s.stmt).collect()
    }
}

/// Select hot spots greedily under the criteria.
pub fn select(candidates: &[Candidate], total_instr: f64, criteria: Criteria, strategy: Greedy) -> Selection {
    let total_time: f64 = candidates.iter().map(|c| c.time).sum();
    let mut order: Vec<&Candidate> = candidates.iter().filter(|c| c.time > 0.0).collect();
    match strategy {
        Greedy::ByTime => {
            order.sort_by(|a, b| unit_order((a.time, a.stmt), (b.time, b.stmt)));
        }
        Greedy::ByDensity => {
            let density = |c: &Candidate| c.time / c.instr.max(1.0);
            order.sort_by(|a, b| unit_order((density(a), a.stmt), (density(b), b.stmt)));
        }
    }

    let instr_budget = criteria.code_leanness * total_instr;
    let mut spots = Vec::new();
    let mut used_instr = 0.0;
    let mut covered = 0.0;
    for c in order {
        if total_time > 0.0 && covered / total_time >= criteria.time_coverage {
            break;
        }
        if used_instr + c.instr > instr_budget && !spots.is_empty() {
            // leanness takes precedence: skip blocks that bust the budget,
            // later (smaller) blocks may still fit
            continue;
        }
        if used_instr + c.instr > instr_budget && spots.is_empty() {
            // even the single hottest block exceeds the budget; take it
            // anyway so the selection is never empty (degenerate input)
        }
        used_instr += c.instr;
        covered += c.time;
        spots.push(HotSpot {
            stmt: c.stmt,
            rank: spots.len(),
            time: c.time,
            coverage: if total_time > 0.0 { c.time / total_time } else { 0.0 },
            instr: c.instr,
        });
    }
    Selection { spots, total_time, total_instr }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u32, time: f64, instr: f64) -> Candidate {
        Candidate { stmt: StmtId(id), time, instr }
    }

    #[test]
    fn picks_hottest_until_coverage() {
        let cands = vec![cand(0, 50.0, 1.0), cand(1, 30.0, 1.0), cand(2, 15.0, 1.0), cand(3, 5.0, 1.0)];
        let sel = select(&cands, 100.0, Criteria { time_coverage: 0.9, code_leanness: 0.5 }, Greedy::ByTime);
        // 50 + 30 = 80% < 90%, +15 = 95% ≥ 90% → three spots
        assert_eq!(sel.stmt_ids(), vec![StmtId(0), StmtId(1), StmtId(2)]);
        assert!((sel.coverage() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn leanness_budget_skips_fat_blocks() {
        // block 1 is hot but huge; budget forces the selection to skip it
        let cands = vec![cand(0, 40.0, 2.0), cand(1, 35.0, 90.0), cand(2, 25.0, 2.0)];
        let sel = select(&cands, 100.0, Criteria { time_coverage: 0.9, code_leanness: 0.1 }, Greedy::ByTime);
        assert_eq!(sel.stmt_ids(), vec![StmtId(0), StmtId(2)]);
        assert!(sel.leanness() <= 0.1 + 1e-9);
        // coverage maximized under the constraint, not reaching 90%
        assert!((sel.coverage() - 0.65).abs() < 1e-9);
    }

    #[test]
    fn density_strategy_prefers_lean_blocks() {
        let cands = vec![cand(0, 50.0, 100.0), cand(1, 40.0, 2.0)];
        let by_time = select(&cands, 200.0, Criteria { time_coverage: 0.99, code_leanness: 1.0 }, Greedy::ByTime);
        let by_density = select(&cands, 200.0, Criteria { time_coverage: 0.99, code_leanness: 1.0 }, Greedy::ByDensity);
        assert_eq!(by_time.stmt_ids()[0], StmtId(0));
        assert_eq!(by_density.stmt_ids()[0], StmtId(1));
    }

    #[test]
    fn zero_time_candidates_ignored() {
        let cands = vec![cand(0, 0.0, 1.0), cand(1, 10.0, 1.0)];
        let sel = select(&cands, 2.0, Criteria::default(), Greedy::ByTime);
        assert_eq!(sel.stmt_ids(), vec![StmtId(1)]);
    }

    #[test]
    fn single_oversized_block_still_selected() {
        let cands = vec![cand(0, 10.0, 100.0)];
        let sel = select(&cands, 100.0, Criteria { time_coverage: 0.9, code_leanness: 0.01 }, Greedy::ByTime);
        assert_eq!(sel.spots.len(), 1, "selection must not be empty");
    }

    #[test]
    fn coverage_curve_monotone() {
        let cands = vec![cand(0, 50.0, 1.0), cand(1, 30.0, 1.0), cand(2, 20.0, 1.0)];
        let sel = select(&cands, 10.0, Criteria { time_coverage: 1.0, code_leanness: 1.0 }, Greedy::ByTime);
        let curve = sel.coverage_curve();
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[1] >= w[0]));
        assert!((curve[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_candidates_yield_empty_selection() {
        let sel = select(&[], 0.0, Criteria::default(), Greedy::ByTime);
        assert!(sel.spots.is_empty());
        assert_eq!(sel.coverage(), 0.0);
        assert_eq!(sel.leanness(), 0.0);
    }

    #[test]
    fn ranks_are_sequential() {
        let cands = vec![cand(0, 3.0, 1.0), cand(1, 2.0, 1.0), cand(2, 1.0, 1.0)];
        let sel = select(&cands, 3.0, Criteria { time_coverage: 1.0, code_leanness: 1.0 }, Greedy::ByTime);
        let ranks: Vec<usize> = sel.spots.iter().map(|s| s.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2]);
    }
}
