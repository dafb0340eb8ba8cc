//! Machine-independent projection plan (phase 1 of the two-phase engine).
//!
//! Projecting a BET on a machine splits cleanly into work that depends only
//! on the application — walking the tree, computing ENR and available
//! parallelism, expanding library instruction mixes into block metrics —
//! and work that depends on the machine: the roofline evaluation itself.
//! A design-space sweep projects one application on hundreds of candidate
//! machines, so the old fused walk redid all of the machine-independent
//! work per point.
//!
//! [`ProjectionPlan::new`] runs the walk once and compiles the BET into a
//! dense `Vec` of [`PlanBlock`]s (one per cost-carrying node, in node
//! order) plus the full per-node ENR vector. [`ProjectionPlan::evaluate`]
//! is then a tight loop over the blocks that only calls the performance
//! model — no tree traversal, no hashing, no string work.
//!
//! `evaluate` is bit-identical to the legacy single pass
//! ([`crate::reference::project_single_pass`]): structural nodes contribute
//! exactly `+0.0` to the total (f64 identity for the non-negative totals
//! produced here), so skipping them changes no bits, and blocks are
//! evaluated in the same node order so every floating-point accumulation
//! happens in the same sequence.

use serde::{Deserialize, Serialize};
use xflow_bet::{Bet, BetKind};
use xflow_hw::{BlockMetrics, BlockSummary, LibraryRegistry, MachineModel, PerfModel};
use xflow_obs::{AttrValue, BlockProvenance, NoopRecorder, Recorder, SpanId};
use xflow_skeleton::StmtId;

use crate::analysis::{NodeCost, Projection, StmtCosts};

/// One cost-carrying BET node, pre-digested for per-machine evaluation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PlanBlock {
    /// Index of the originating node in the BET arena (`BetNodeId.0`).
    pub node: u32,
    /// Skeleton statement the cost aggregates into, if any.
    pub stmt: Option<StmtId>,
    /// Machine-independent inputs to the roofline evaluation.
    pub summary: BlockSummary,
    /// Metrics charged to the statement aggregate. Equal to
    /// `summary.metrics` except for unknown library calls, where timing
    /// uses the nominal fallback mix but no metrics are attributed.
    pub stmt_metrics: BlockMetrics,
}

/// Machine-independent compilation of a BET (phase 1).
///
/// Build once per application with [`ProjectionPlan::new`], then call
/// [`ProjectionPlan::evaluate`] for every candidate machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProjectionPlan {
    /// ENR of every BET node, indexed by `BetNodeId.0`.
    enr: Vec<f64>,
    /// Cost-carrying nodes in BET node order.
    blocks: Vec<PlanBlock>,
    /// Library functions with no registered mix, in first-seen order.
    unknown_libs: Vec<String>,
    /// Upper bound on statement IDs, for sizing the dense per-stmt table.
    stmt_bound: usize,
}

impl ProjectionPlan {
    /// Compile a BET against a library registry.
    ///
    /// All tree traversal, ENR/parallelism propagation, library-mix
    /// expansion, and unknown-library deduplication happens here, once.
    pub fn new(bet: &Bet, libs: &LibraryRegistry) -> Self {
        let enr = bet.enr().to_vec();
        let avail_par = bet.available_parallelism();
        let mut blocks = Vec::new();
        let mut unknown_libs = Vec::new();
        let mut unknown_seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut stmt_bound = 0usize;

        for node in bet.iter() {
            let avail = avail_par[node.id.0 as usize];
            if let Some(stmt) = node.stmt {
                stmt_bound = stmt_bound.max(stmt.0 as usize + 1);
            }
            let block = match &node.kind {
                BetKind::Comp { ops } => {
                    let m = BlockMetrics {
                        flops: ops.flops,
                        iops: ops.iops,
                        loads: ops.loads,
                        stores: ops.stores,
                        divs: ops.divs,
                        elem_bytes: ops.elem_bytes,
                    };
                    Some(PlanBlock {
                        node: node.id.0,
                        stmt: node.stmt,
                        summary: BlockSummary {
                            metrics: m,
                            enr: enr[node.id.0 as usize],
                            avail_par: avail,
                            parallelizable: true,
                        },
                        stmt_metrics: m,
                    })
                }
                BetKind::Lib { func, calls, work } => {
                    let (metrics, stmt_metrics) = match libs.get(func) {
                        Some(mix) => {
                            let m = mix.expand(*calls, *work);
                            (m, m)
                        }
                        None => {
                            if unknown_seen.insert(func.clone()) {
                                unknown_libs.push(func.clone());
                            }
                            // Timing charges the nominal fallback mix, but no
                            // metrics are attributed to the statement — same
                            // as the legacy walk.
                            (LibraryRegistry::fallback_mix().expand(*calls, *work), BlockMetrics::default())
                        }
                    };
                    Some(PlanBlock {
                        node: node.id.0,
                        stmt: node.stmt,
                        summary: BlockSummary {
                            metrics,
                            enr: enr[node.id.0 as usize],
                            avail_par: avail,
                            // Library internals are opaque: projected serially,
                            // as in the legacy walk (lib nodes are leaves, so
                            // their available parallelism is 1 anyway unless
                            // nested under a parallel loop — which the legacy
                            // path also ignored for Lib via LibraryRegistry::project).
                            parallelizable: false,
                        },
                        stmt_metrics,
                    })
                }
                _ => None,
            };
            if let Some(b) = block {
                blocks.push(b);
            }
        }

        Self { enr, blocks, unknown_libs, stmt_bound }
    }

    /// Cost-carrying blocks in BET node order.
    pub fn blocks(&self) -> &[PlanBlock] {
        &self.blocks
    }

    /// ENR of every BET node, indexed by `BetNodeId.0`.
    pub fn enr(&self) -> &[f64] {
        &self.enr
    }

    /// Library functions with no registered mix, in first-seen order.
    pub fn unknown_libs(&self) -> &[String] {
        &self.unknown_libs
    }

    /// Upper bound on statement ids (sizes dense per-statement tables).
    pub fn stmt_bound(&self) -> usize {
        self.stmt_bound
    }

    /// Evaluate the plan on one machine (phase 2).
    ///
    /// A tight loop over the pre-compiled blocks: one roofline projection
    /// per block, then scalar accumulation. Produces a [`Projection`]
    /// bit-identical to the legacy single pass.
    pub fn evaluate(&self, machine: &MachineModel, model: &dyn PerfModel) -> Projection {
        self.evaluate_observed(machine, model, &NoopRecorder)
    }

    /// [`ProjectionPlan::evaluate`] under a telemetry recorder.
    ///
    /// Identical arithmetic — `evaluate` itself delegates here with the
    /// [`NoopRecorder`], so this is the one loop that produces a
    /// [`Projection`]. When the recorder is enabled, the loop runs inside a
    /// `plan.evaluate` span (machine name, block count; projected total as
    /// an exit attribute) and emits one [`BlockProvenance`] per block via
    /// [`Recorder::block_cost`], in plan (BET node) order, carrying the
    /// exact addends of the accumulation: summing `total` over the stream
    /// reproduces `Projection::total_time` to the bit.
    pub fn evaluate_observed<R: Recorder + ?Sized>(
        &self,
        machine: &MachineModel,
        model: &dyn PerfModel,
        rec: &R,
    ) -> Projection {
        let enabled = rec.enabled();
        let span = if enabled {
            rec.span_start(
                "plan.evaluate",
                &[("machine", AttrValue::Str(&machine.name)), ("blocks", AttrValue::U64(self.blocks.len() as u64))],
            )
        } else {
            SpanId::NONE
        };

        let mut node_costs =
            vec![NodeCost { per_invocation: Default::default(), enr: 0.0, total: 0.0 }; self.enr.len()];
        for (i, nc) in node_costs.iter_mut().enumerate() {
            nc.enr = self.enr[i];
        }
        let mut per_stmt = StmtCosts::with_stmt_capacity(self.stmt_bound);
        let mut total_time = 0.0;
        // Machine pre-resolution: the telemetry branch reports each block's
        // effective thread count, which only needs the core count — hoist
        // the integer→float conversion out of the per-block work.
        let cores = machine.cores as f64;

        for block in &self.blocks {
            let e = block.summary.enr;
            let time = model.project_block(machine, &block.summary);
            let total = time.total * e;
            total_time += total;
            node_costs[block.node as usize] = NodeCost { per_invocation: time, enr: e, total };

            if let Some(stmt) = block.stmt {
                if time.total > 0.0 {
                    let s = per_stmt.entry_mut(stmt);
                    s.total += total;
                    s.tc += time.tc * e;
                    s.tm += time.tm * e;
                    s.overlap += time.overlap * e;
                    s.metrics.add_scaled(&block.stmt_metrics, e);
                }
            }

            if enabled {
                let floor = time.tc.min(time.tm);
                let delta = if floor > 0.0 { time.overlap / floor } else { 0.0 };
                rec.block_cost(&BlockProvenance {
                    node: block.node,
                    stmt: block.stmt.map(|s| s.0),
                    enr: e,
                    tc: time.tc,
                    tm: time.tm,
                    overlap: time.overlap,
                    delta,
                    total,
                    threads: block.summary.threads_with_cores(cores),
                    flops: block.summary.metrics.flops,
                    iops: block.summary.metrics.iops,
                    loads: block.summary.metrics.loads,
                    stores: block.summary.metrics.stores,
                    bytes: block.summary.metrics.bytes(),
                });
            }
        }

        if enabled {
            rec.add("plan.blocks", self.blocks.len() as u64);
            rec.span_end(span, &[("total_time", AttrValue::F64(total_time))]);
        }

        // `to_vec`, not `clone`: `Vec::clone` stays an out-of-line call
        // here, which `exp_obs` measured at ~2.5% of a CFD evaluation
        Projection { node_costs, per_stmt, total_time, unknown_libs: self.unknown_libs.to_vec() }
    }

    /// Compile the structure-of-arrays evaluation kernel for this plan
    /// (see [`crate::PlanKernel`]). Build once per application; its
    /// columnar fill is the fast path for evaluating many machines.
    pub fn kernel(&self) -> crate::PlanKernel {
        crate::PlanKernel::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::project_single_pass;
    use xflow_bet::build;
    use xflow_hw::{bgq, generic, xeon, Roofline};
    use xflow_skeleton::expr::env_from;
    use xflow_skeleton::parse;

    fn bet_for(src: &str) -> Bet {
        let prog = parse(src).unwrap();
        build(&prog, &env_from(std::iter::empty::<(&str, f64)>())).unwrap()
    }

    #[test]
    fn plan_skips_structural_nodes() {
        let bet = bet_for("func main() { loop i = 0 .. 10 { comp { flops: 1 } } }");
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        // root, loop are structural; only the comp carries cost
        assert_eq!(plan.blocks().len(), 1);
        assert_eq!(plan.enr().len(), bet.len());
    }

    #[test]
    fn evaluate_matches_single_pass_bitwise() {
        let src = r#"
func main() {
  @init: comp { flops: 10, loads: 4 }
  parloop i = 0 .. 200 {
    @kern: comp { flops: 64, loads: 16, stores: 8, bytes: 8 }
    lib exp(4)
    lib mystery(2)
  }
  lib mystery(1)
}
"#;
        let bet = bet_for(src);
        let libs = LibraryRegistry::with_defaults();
        let plan = ProjectionPlan::new(&bet, &libs);
        for machine in [generic(), bgq(), xeon()] {
            let fast = plan.evaluate(&machine, &Roofline);
            let slow = project_single_pass(&bet, &machine, &Roofline, &libs);
            assert_eq!(fast.total_time.to_bits(), slow.total_time.to_bits());
            assert_eq!(fast.node_costs.len(), slow.node_costs.len());
            for (f, s) in fast.node_costs.iter().zip(&slow.node_costs) {
                assert_eq!(f.total.to_bits(), s.total.to_bits());
                assert_eq!(f.enr.to_bits(), s.enr.to_bits());
                assert_eq!(f.per_invocation.total.to_bits(), s.per_invocation.total.to_bits());
            }
            assert_eq!(fast.per_stmt.len(), slow.per_stmt.len());
            for (stmt, sc) in slow.per_stmt.iter() {
                let fc = fast.per_stmt[&stmt];
                assert_eq!(fc.total.to_bits(), sc.total.to_bits());
                assert_eq!(fc.metrics.flops.to_bits(), sc.metrics.flops.to_bits());
            }
            assert_eq!(fast.unknown_libs, slow.unknown_libs);
        }
    }

    #[test]
    fn unknown_libs_deduped_in_first_seen_order() {
        let bet = bet_for("func main() { lib zeta(1) lib alpha(1) lib zeta(1) }");
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::new());
        assert_eq!(plan.unknown_libs(), ["zeta".to_string(), "alpha".to_string()]);
    }

    #[test]
    fn observed_evaluate_is_bit_identical_and_provenance_reconciles() {
        use xflow_obs::CollectingRecorder;
        let src = r#"
func main() {
  comp { flops: 10, loads: 4 }
  parloop i = 0 .. 200 {
    comp { flops: 64, loads: 16, stores: 8, bytes: 8 }
    lib exp(4)
  }
  lib mystery(1)
}
"#;
        let bet = bet_for(src);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        for machine in [generic(), bgq(), xeon()] {
            let plain = plan.evaluate(&machine, &Roofline);
            let rec = CollectingRecorder::new();
            let observed = plan.evaluate_observed(&machine, &Roofline, &rec);
            assert_eq!(observed.total_time.to_bits(), plain.total_time.to_bits());

            let blocks = rec.block_provenance();
            assert_eq!(blocks.len(), plan.blocks().len());
            // the provenance stream carries the exact addends, in order
            let sum = blocks.iter().fold(0.0f64, |acc, b| acc + b.total);
            assert_eq!(sum.to_bits(), plain.total_time.to_bits());
            assert_eq!(rec.counter_value("plan.blocks"), plan.blocks().len() as u64);
            let snap = rec.snapshot();
            let span = snap.spans.iter().find(|s| s.name == "plan.evaluate").unwrap();
            assert!(span.attrs.iter().any(|(k, _)| k == "machine"));
            assert!(span.attrs.iter().any(|(k, _)| k == "total_time"));
        }
    }

    #[test]
    fn provenance_delta_matches_overlap_definition() {
        use xflow_obs::CollectingRecorder;
        let bet = bet_for("func main() { loop i = 0 .. 100 { comp { flops: 32, loads: 8, bytes: 8 } } }");
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let rec = CollectingRecorder::new();
        plan.evaluate_observed(&bgq(), &Roofline, &rec);
        for b in rec.block_provenance() {
            let floor = b.tc.min(b.tm);
            if floor > 0.0 {
                assert!((b.delta * floor - b.overlap).abs() <= 1e-15 * b.overlap.abs().max(1.0));
                assert!((0.0..=1.0).contains(&b.delta), "δ must be a fraction, got {}", b.delta);
            }
        }
    }

    #[test]
    fn plan_reuse_across_machines_is_consistent() {
        let bet = bet_for("func main() { loop i = 0 .. 1000 { comp { flops: 100, loads: 50 } } }");
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let a = plan.evaluate(&generic(), &Roofline);
        let b = plan.evaluate(&generic(), &Roofline);
        assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
    }
}
