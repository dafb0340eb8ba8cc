//! # xflow-hotspot — hot region analysis
//!
//! Implements Section V of the paper: given a Bayesian Execution Tree and a
//! hardware model, (1) project per-block performance bottom-up with
//! ENR-weighted roofline times, (2) select **hot spots** greedily under
//! time-coverage and code-leanness criteria, and (3) extract the merged
//! **hot path** that shows how the hot spots are reached and connected,
//! with trip counts, probabilities, and context values.
//!
//! The [`quality`] module implements the paper's evaluation metric
//! (selection quality vs. a measured oracle) and the coverage curves of
//! Figures 4–13.

pub mod analysis;
pub mod columns;
pub mod hotpath;
pub mod kernel;
pub mod miniapp;
pub mod plan;
pub mod quality;
pub mod reference;
pub mod select;

pub use analysis::{NodeCost, Projection, StmtCost, StmtCosts};
pub use columns::{ColumnsChunk, ProjectionColumns, SlotCost};
pub use hotpath::{extract, render, HotPath};
pub use kernel::{lane_width, PlanKernel};
pub use miniapp::build_miniapp;
pub use plan::{PlanBlock, ProjectionPlan};
pub use quality::{coverage_curve, quality_at, quality_curve, rank_units, top_k_overlap, unit_order, MeasuredTimes};
pub use select::{select, Candidate, Criteria, HotSpot, Selection};

use xflow_skeleton::StmtId;

/// Wire-format version of this crate's serializable artifacts
/// ([`ProjectionPlan`] and its blocks).
///
/// Bump whenever a serialized layout changes shape; content-addressed caches
/// fold this into their keys so stale artifacts are never deserialized.
pub fn schema_version() -> u32 {
    2
}

/// Human-readable table of a selection (ranks, names, times, coverage).
pub fn format_selection(sel: &Selection, names: &std::collections::HashMap<StmtId, String>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{:<4} {:<32} {:>12} {:>9} {:>9}", "#", "block", "time (s)", "cov %", "cum %");
    let mut cum = 0.0;
    for s in &sel.spots {
        cum += s.coverage;
        let name = names.get(&s.stmt).cloned().unwrap_or_else(|| format!("stmt#{}", s.stmt.0));
        let _ = writeln!(
            out,
            "{:<4} {:<32} {:>12.4e} {:>8.2}% {:>8.2}%",
            s.rank + 1,
            name,
            s.time,
            s.coverage * 100.0,
            cum * 100.0
        );
    }
    let _ = writeln!(out, "coverage {:.1}%  leanness {:.1}%", sel.coverage() * 100.0, sel.leanness() * 100.0);
    out
}
