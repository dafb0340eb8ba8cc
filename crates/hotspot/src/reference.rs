//! The original fused projection walk — kept as a test and bench oracle.
//!
//! [`project_single_pass`] walks the BET once per machine, doing the
//! machine-independent work (ENR and parallelism lookups, library-mix
//! expansion, unknown-library deduplication) inline with the roofline
//! evaluation. The two-phase engine ([`crate::ProjectionPlan`]) must
//! reproduce its [`Projection`] *bit-for-bit*, which the plan's unit tests
//! and the `two_phase_equivalence` / `kernel_equivalence` suites check;
//! the sweep benchmarks time it as the pre-plan baseline.

use std::collections::HashSet;
use xflow_bet::{Bet, BetKind};
use xflow_hw::{BlockMetrics, BlockTime, LibraryRegistry, MachineModel, PerfModel};

use crate::analysis::{NodeCost, Projection, StmtCosts};

/// The original fused single-pass projection, unchanged.
pub fn project_single_pass(
    bet: &Bet,
    machine: &MachineModel,
    model: &dyn PerfModel,
    libs: &LibraryRegistry,
) -> Projection {
    let enr = bet.enr();
    let avail_par = bet.available_parallelism();
    let mut node_costs = Vec::with_capacity(bet.len());
    let mut per_stmt = StmtCosts::default();
    let mut total_time = 0.0;
    let mut unknown_libs = Vec::new();
    let mut unknown_seen: HashSet<String> = HashSet::new();

    for node in bet.iter() {
        let e = enr[node.id.0 as usize];
        // effective concurrency of this block: the machine cannot use more
        // threads than it has cores, nor more than the enclosing parallel
        // loops provide iterations
        let threads = avail_par[node.id.0 as usize].min(machine.cores as f64).max(1.0);
        let (time, metrics) = match &node.kind {
            BetKind::Comp { ops } => {
                let m = BlockMetrics {
                    flops: ops.flops,
                    iops: ops.iops,
                    loads: ops.loads,
                    stores: ops.stores,
                    divs: ops.divs,
                    elem_bytes: ops.elem_bytes,
                };
                let t = if threads > 1.0 {
                    model.project_parallel(machine, &m, threads)
                } else {
                    model.project(machine, &m)
                };
                (t, m)
            }
            BetKind::Lib { func, calls, work } => match libs.project(func, *calls, *work, machine, model) {
                Ok(t) => {
                    let m = libs.get(func).map(|mix| mix.expand(*calls, *work)).unwrap_or_default();
                    (t, m)
                }
                Err(err) => {
                    if unknown_seen.insert(err.name.clone()) {
                        unknown_libs.push(err.name.clone());
                    }
                    (err.fallback_time, BlockMetrics::default())
                }
            },
            _ => (BlockTime::default(), BlockMetrics::default()),
        };
        let total = time.total * e;
        total_time += total;
        node_costs.push(NodeCost { per_invocation: time, enr: e, total });

        if let Some(stmt) = node.stmt {
            if time.total > 0.0 {
                let s = per_stmt.entry_mut(stmt);
                s.total += total;
                s.tc += time.tc * e;
                s.tm += time.tm * e;
                s.overlap += time.overlap * e;
                s.metrics.add_scaled(&metrics, e);
            }
        }
    }

    Projection { node_costs, per_stmt, total_time, unknown_libs }
}
