//! Per-block performance projection over a BET (paper Section V-A).
//!
//! Projects the per-invocation time of every cost-carrying node (`comp`
//! and `lib`) with the hardware model, weights it by the node's expected
//! number of repetitions (ENR), and aggregates per skeleton statement —
//! the granularity at which hot spots are selected and compared against
//! measured profiles.
//!
//! The projection runs in two phases (see [`crate::plan`]):
//! [`crate::ProjectionPlan::new`] walks the BET once into a
//! machine-independent plan and [`crate::ProjectionPlan::evaluate`]
//! evaluates it per machine, so repeated projections of the same
//! application — the co-design sweep case — pay the tree walk only once.
//! [`crate::reference::project_single_pass`] keeps the original fused walk
//! as the reference implementation; equivalence tests assert both produce
//! bit-identical results.

use std::ops::Index;
use xflow_hw::{BlockMetrics, BlockTime};
use xflow_skeleton::StmtId;

/// Projected cost of one BET node.
#[derive(Debug, Clone, Copy)]
pub struct NodeCost {
    /// Per-invocation projected time breakdown.
    pub per_invocation: BlockTime,
    /// Expected number of repetitions.
    pub enr: f64,
    /// Total projected time (`per_invocation.total × enr`).
    pub total: f64,
}

/// Aggregated projected cost of one skeleton statement across every BET
/// context it appears in.
#[derive(Debug, Clone, Copy, Default)]
pub struct StmtCost {
    /// Total projected seconds.
    pub total: f64,
    /// ENR-weighted computation seconds.
    pub tc: f64,
    /// ENR-weighted memory seconds.
    pub tm: f64,
    /// ENR-weighted overlapped seconds.
    pub overlap: f64,
    /// ENR-weighted operation totals (for issue-rate style reporting).
    pub metrics: BlockMetrics,
}

/// Dense per-statement cost table, indexed by [`StmtId`].
///
/// Skeleton statement IDs are a compact arena (`StmtId(0..n)`), so the
/// per-statement aggregation of a projection is stored as a flat `Vec`
/// instead of a `HashMap` — O(1) indexed access with no hashing in the
/// per-machine evaluation loop, and iteration is deterministic (ascending
/// statement ID) without a sort.
#[derive(Debug, Clone, Default)]
pub struct StmtCosts {
    costs: Vec<StmtCost>,
    present: Vec<bool>,
    /// IDs of present slots in first-touch order (their count is
    /// [`StmtCosts::len`]).
    touched: Vec<u32>,
}

impl StmtCosts {
    /// Empty table with capacity for statement IDs `0..n`.
    pub fn with_stmt_capacity(n: usize) -> Self {
        Self { costs: vec![StmtCost::default(); n], present: vec![false; n], touched: Vec::with_capacity(n) }
    }

    /// Cost of a statement, if it carried any projected time.
    pub fn get(&self, stmt: &StmtId) -> Option<&StmtCost> {
        let i = stmt.0 as usize;
        if *self.present.get(i)? {
            Some(&self.costs[i])
        } else {
            None
        }
    }

    /// Whether the statement carried any projected time.
    pub fn contains_key(&self, stmt: &StmtId) -> bool {
        self.get(stmt).is_some()
    }

    /// Number of statements with recorded cost.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when no statement carried projected time.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Mutable cost slot for a statement, created zeroed on first access.
    #[inline]
    pub fn entry_mut(&mut self, stmt: StmtId) -> &mut StmtCost {
        let i = stmt.0 as usize;
        if i >= self.costs.len() {
            self.costs.resize(i + 1, StmtCost::default());
            self.present.resize(i + 1, false);
        }
        if !self.present[i] {
            self.present[i] = true;
            self.touched.push(i as u32);
        }
        &mut self.costs[i]
    }

    /// Iterate recorded costs in ascending statement-ID order.
    pub fn iter(&self) -> impl Iterator<Item = (StmtId, &StmtCost)> + '_ {
        self.costs.iter().enumerate().filter(|(i, _)| self.present[*i]).map(|(i, c)| (StmtId(i as u32), c))
    }
}

impl Index<&StmtId> for StmtCosts {
    type Output = StmtCost;
    fn index(&self, stmt: &StmtId) -> &StmtCost {
        self.get(stmt).unwrap_or_else(|| panic!("no cost recorded for {stmt:?}"))
    }
}

impl Index<StmtId> for StmtCosts {
    type Output = StmtCost;
    fn index(&self, stmt: StmtId) -> &StmtCost {
        &self[&stmt]
    }
}

impl<'a> IntoIterator for &'a StmtCosts {
    type Item = (StmtId, &'a StmtCost);
    type IntoIter = Box<dyn Iterator<Item = (StmtId, &'a StmtCost)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Result of projecting a BET on a machine.
#[derive(Debug, Clone)]
pub struct Projection {
    /// Per-node costs, indexed by `BetNodeId.0`.
    pub node_costs: Vec<NodeCost>,
    /// Aggregated per skeleton statement.
    pub per_stmt: StmtCosts,
    /// Total projected application time in seconds.
    pub total_time: f64,
    /// Library functions that had no registered mix (fallback used).
    pub unknown_libs: Vec<String>,
}

impl Projection {
    /// Fraction of total projected time spent in a statement.
    pub fn coverage(&self, stmt: StmtId) -> f64 {
        if self.total_time == 0.0 {
            return 0.0;
        }
        self.per_stmt.get(&stmt).map(|s| s.total / self.total_time).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProjectionPlan;
    use xflow_bet::build;
    use xflow_hw::{generic, LibraryRegistry, Roofline};
    use xflow_skeleton::expr::env_from;
    use xflow_skeleton::parse;

    fn project_src(src: &str, inputs: &[(&str, f64)]) -> (Projection, xflow_skeleton::Program) {
        let prog = parse(src).unwrap();
        let bet = build(&prog, &env_from(inputs.iter().copied())).unwrap();
        let p = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults()).evaluate(&generic(), &Roofline);
        (p, prog)
    }

    #[test]
    fn loop_weight_scales_stmt_cost() {
        let src = r#"
func main() {
  @cheap: comp { flops: 100 }
  loop i = 0 .. 1000 {
    @hot: comp { flops: 100 }
  }
}
"#;
        let (p, prog) = project_src(src, &[]);
        let hot = prog.stmt_by_label("hot").unwrap();
        let cheap = prog.stmt_by_label("cheap").unwrap();
        let ratio = p.per_stmt[&hot].total / p.per_stmt[&cheap].total;
        assert!((ratio - 1000.0).abs() < 1.0, "{ratio}");
    }

    #[test]
    fn total_time_is_sum_of_node_totals() {
        let src = "func main() { loop i = 0 .. 50 { comp { flops: 10, loads: 5 } lib exp(1) } }";
        let (p, _) = project_src(src, &[]);
        let sum: f64 = p.node_costs.iter().map(|c| c.total).sum();
        assert!((p.total_time - sum).abs() < 1e-15);
        assert!(p.total_time > 0.0);
    }

    #[test]
    fn unknown_library_reported_but_costed() {
        let (p, _) = project_src("func main() { lib mystery(100) }", &[]);
        assert_eq!(p.unknown_libs, vec!["mystery".to_string()]);
        assert!(p.total_time > 0.0);
    }

    #[test]
    fn branch_probability_scales_cost() {
        let src = r#"
func main() {
  loop i = 0 .. 1000 {
    if prob(0.1) { @rare: comp { flops: 100 } }
    else { @common: comp { flops: 100 } }
  }
}
"#;
        let (p, prog) = project_src(src, &[]);
        let rare = p.per_stmt[&prog.stmt_by_label("rare").unwrap()].total;
        let common = p.per_stmt[&prog.stmt_by_label("common").unwrap()].total;
        assert!((common / rare - 9.0).abs() < 0.01, "{}", common / rare);
    }

    #[test]
    fn coverage_sums_to_one_over_all_stmts() {
        let src = "func main() { @x: comp { flops: 5 } loop i = 0 .. 10 { @y: comp { flops: 2, loads: 1 } } }";
        let (p, prog) = project_src(src, &[]);
        let cx = p.coverage(prog.stmt_by_label("x").unwrap());
        let cy = p.coverage(prog.stmt_by_label("y").unwrap());
        assert!((cx + cy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_contexts_accumulate_into_one_stmt() {
        let src = r#"
func main() {
  call f(10)
  call f(90)
}
func f(n) {
  loop i = 0 .. n { @kern: comp { flops: 1 } }
}
"#;
        let (p, prog) = project_src(src, &[]);
        let kern = prog.stmt_by_label("kern").unwrap();
        // both mounts contribute: cost proportional to 100 iterations total
        let single = {
            let (p1, prog1) = project_src(
                "func main() { call f(100) } func f(n) { loop i = 0 .. n { @kern: comp { flops: 1 } } }",
                &[],
            );
            p1.per_stmt[&prog1.stmt_by_label("kern").unwrap()].total
        };
        let combined = p.per_stmt[&kern].total;
        assert!((combined / single - 1.0).abs() < 1e-9, "{combined} vs {single}");
    }
}
