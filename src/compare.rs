//! Model-vs-measurement comparison: the paper's evaluation harness
//! (Sections VI–VII) as a reusable API.

use crate::pipeline::{MachineProjection, Measured};
use crate::units::Units;
use xflow_hotspot::{coverage_curve, quality_curve, top_k_overlap, MeasuredTimes};
use xflow_skeleton::StmtId;

/// Everything the paper's figures report for one workload on one machine.
pub struct Comparison {
    /// Oracle ranking (Prof): units by descending *measured* time.
    pub measured_ranking: Vec<StmtId>,
    /// Model ranking (Modl): units by descending *projected* time.
    pub projected_ranking: Vec<StmtId>,
    /// Cumulative measured coverage of the measured ranking (the `Prof`
    /// curves of Figures 4–13).
    pub prof_curve: Vec<f64>,
    /// Cumulative *projected* coverage of the projected ranking (`Modl(p)`).
    pub modl_p_curve: Vec<f64>,
    /// Cumulative *measured* coverage of the projected ranking (`Modl(m)`).
    pub modl_m_curve: Vec<f64>,
    /// Selection quality Q(k) for k = 1..=max_k.
    pub quality: Vec<f64>,
    /// Measured per-unit times.
    pub measured: MeasuredTimes,
    /// Projected per-unit times (their `total` is the sum of the unit
    /// times, the denominator of `Modl(p)`).
    pub projected: MeasuredTimes,
    /// Projected total seconds.
    pub projected_total: f64,
}

/// Compare a projection against a measurement over the top `max_k` units.
pub fn compare(mp: &MachineProjection, measured: &Measured, max_k: usize) -> Comparison {
    let measured_ranking = measured.ranking();
    let projected_ranking = mp.ranking();
    let projected = MeasuredTimes::new(mp.unit_breakdown.iter().map(|(&unit, c)| (unit, c.total)).collect());
    Comparison {
        prof_curve: coverage_curve(&measured_ranking, &measured.oracle, max_k),
        modl_p_curve: coverage_curve(&projected_ranking, &projected, max_k),
        modl_m_curve: coverage_curve(&projected_ranking, &measured.oracle, max_k),
        quality: quality_curve(&projected_ranking, &measured_ranking, &measured.oracle, max_k),
        measured_ranking,
        projected_ranking,
        measured: measured.oracle.clone(),
        projected,
        projected_total: mp.total,
    }
}

impl Comparison {
    /// Selection quality at one k.
    pub fn quality_at(&self, k: usize) -> f64 {
        self.quality.get(k.saturating_sub(1)).copied().unwrap_or(1.0)
    }

    /// Shared members of the top-k sets of the two rankings.
    pub fn top_k_overlap(&self, k: usize) -> usize {
        top_k_overlap(&self.projected_ranking, &self.measured_ranking, k)
    }

    /// Render the paper's Table-I-style side-by-side top-k listing.
    pub fn format_table(&self, units: &Units, k: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<4} {:<30} {:>8}   {:<30} {:>8}",
            "#", "Prof (measured)", "cov %", "Modl (projected)", "cov %"
        );
        for i in 0..k {
            let prof = self.measured_ranking.get(i);
            let modl = self.projected_ranking.get(i);
            let prof_name = prof.map(|&s| units.name(s)).unwrap_or_default();
            let modl_name = modl.map(|&s| units.name(s)).unwrap_or_default();
            let prof_cov = prof
                .map(|s| self.measured.times.get(s).copied().unwrap_or(0.0) / self.measured.total.max(1e-300) * 100.0)
                .unwrap_or(0.0);
            let modl_cov = modl
                .map(|s| self.projected.times.get(s).copied().unwrap_or(0.0) / self.projected_total.max(1e-300) * 100.0)
                .unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<4} {:<30} {:>7.2}%   {:<30} {:>7.2}%",
                i + 1,
                truncate(&prof_name, 30),
                prof_cov,
                truncate(&modl_name, 30),
                modl_cov
            );
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}
