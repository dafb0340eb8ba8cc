//! The `explain` provenance report: why the projection says what it says.
//!
//! [`explain`] evaluates an app's projection plan on one machine and
//! reads the breakdown straight off the model: each of the plan's blocks
//! ([`xflow_hotspot::ProjectionPlan::blocks`]) with the `Tc`, `Tm`,
//! overlap, ENR and ENR-weighted total the evaluation stored for its node
//! ([`xflow_hotspot::Projection::node_costs`]) and its roofline operands,
//! and per comparable unit a ranked table with the compute-vs-memory
//! verdict and the invocation-context probability chain of the unit's
//! dominant node. [`explain_observed`] does the same under any telemetry
//! recorder, which sees the evaluation's `plan.evaluate` span.
//!
//! The report is *reconciling by construction*: `blocks` are kept in plan
//! order with the evaluator's exact addends, so summing their `total`
//! fields in order reproduces [`Explain::total`] — and therefore
//! `project_on`'s projected application time — to the bit. The unit rows
//! (time, share, Tc, Tm, bound) are the [`UnitIndex::fold`] of that same
//! evaluation, so they equal the `hotspots` unit view
//! ([`MachineProjection::unit_breakdown`]) bit for bit; the block rows
//! only pick each unit's dominant block and context chain. A report
//! whose numbers can drift from the projection would be worse than no
//! report.
//!
//! [`UnitIndex::fold`]: crate::units::UnitIndex::fold

use crate::pipeline::{MachineProjection, ModeledApp};
use crate::units::UnitCost;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use xflow_bet::{Bet, BetKind, BetNodeId};
use xflow_hotspot::unit_order;
use xflow_hw::{MachineModel, PerfModel, Roofline};
use xflow_obs::{NoopRecorder, Recorder};
use xflow_skeleton::StmtId;

/// One cost-carrying BET node with the evaluator's exact numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainBlock {
    /// BET arena index of the node.
    pub node: u32,
    /// Skeleton statement id (absent for synthetic nodes).
    pub stmt: Option<u32>,
    /// Comparable unit the block's time aggregates into.
    pub unit: String,
    /// Expected number of repetitions.
    pub enr: f64,
    /// Per-invocation computation seconds.
    pub tc: f64,
    /// Per-invocation memory seconds.
    pub tm: f64,
    /// Per-invocation overlapped seconds.
    pub overlap: f64,
    /// Realized overlap degree `To / min(Tc, Tm)`.
    pub delta: f64,
    /// ENR-weighted contribution `(Tc + Tm − To) × ENR`, exactly as
    /// accumulated by the evaluator.
    pub total: f64,
    /// Threads the projection assumed for the block.
    pub threads: f64,
    /// Roofline operands (per invocation).
    pub flops: f64,
    pub iops: f64,
    pub loads: f64,
    pub stores: f64,
    pub bytes: f64,
    /// Operational intensity in flops per byte.
    pub intensity: f64,
    /// `"memory"` or `"compute"` — which roofline side dominates.
    pub bound: String,
}

/// One step of an invocation-context chain, root first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChainStep {
    pub node: u32,
    /// BET node kind tag (`root`, `call`, `loop`, `arm`, `comp`, `lib`).
    pub kind: String,
    /// Function name for call/lib nodes.
    pub name: Option<String>,
    /// Conditional execution probability given the parent.
    pub prob: f64,
    /// Expected iterations (loops; 1 otherwise).
    pub iters: f64,
}

/// One comparable unit, with its dominant node's context chain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainUnit {
    pub name: String,
    /// Projected seconds attributed to the unit.
    pub time: f64,
    /// Fraction of the projected application total.
    pub share: f64,
    /// ENR-weighted Tc / Tm across the unit's blocks.
    pub tc: f64,
    pub tm: f64,
    pub bound: String,
    /// The unit's most expensive block.
    pub dominant_node: u32,
    /// ENR of the dominant block.
    pub enr: f64,
    /// Invocation-context chain of the dominant block, root first.
    pub chain: Vec<ChainStep>,
    /// Product of conditional probabilities along the chain.
    pub path_prob: f64,
}

/// The full provenance report of one app on one machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Explain {
    pub machine: String,
    /// Performance model that produced the numbers.
    pub model: String,
    /// Projected application seconds (bit-equal to `project_on`'s total).
    pub total: f64,
    /// Every cost-carrying block in plan (BET node) order. Summing
    /// `total` over this list in order reproduces [`Explain::total`]
    /// exactly.
    pub blocks: Vec<ExplainBlock>,
    /// Comparable units ranked by descending projected time; equal times
    /// keep the order of each unit's first block in plan order.
    pub units: Vec<ExplainUnit>,
}

/// Build the provenance report, recording the evaluation into `rec` (the
/// `plan.evaluate` span lands in the recorder, so a `--trace-out` or
/// `--flight-out` capture sees the explain evaluation too).
pub fn explain_observed<R: Recorder + ?Sized>(app: &ModeledApp, machine: &MachineModel, rec: &R) -> Explain {
    let model = Roofline;
    let projection = app.plan().evaluate_observed(machine, &model, rec);
    assemble(app, MachineProjection::new(&app.units, machine, projection), model.name())
}

/// Build the provenance report without telemetry.
pub fn explain(app: &ModeledApp, machine: &MachineModel) -> Explain {
    explain_observed(app, machine, &NoopRecorder)
}

/// One row per plan block: the block's roofline operands and the cost the
/// evaluation stored for its node.
fn block_rows(app: &ModeledApp, mp: &MachineProjection) -> Vec<ExplainBlock> {
    let (units, cores) = (&app.units, mp.machine.cores as f64);
    app.plan()
        .blocks()
        .iter()
        .map(|b| {
            let cost = &mp.projection.node_costs[b.node as usize];
            let time = &cost.per_invocation;
            let floor = time.tc.min(time.tm);
            let m = &b.summary.metrics;
            let bytes = m.bytes();
            ExplainBlock {
                node: b.node,
                stmt: b.stmt.map(|s| s.0),
                unit: match b.stmt {
                    Some(s) => units.name(units.unit_of(s)),
                    None => "<synthetic>".to_string(),
                },
                enr: cost.enr,
                tc: time.tc,
                tm: time.tm,
                overlap: time.overlap,
                delta: if floor > 0.0 { time.overlap / floor } else { 0.0 },
                total: cost.total,
                threads: b.summary.threads_with_cores(cores),
                flops: m.flops,
                iops: m.iops,
                loads: m.loads,
                stores: m.stores,
                bytes,
                intensity: operational_intensity(m.flops, bytes),
                bound: verdict(time.tc, time.tm).to_string(),
            }
        })
        .collect()
}

fn assemble(app: &ModeledApp, mp: MachineProjection, model: &str) -> Explain {
    let units = &app.units;
    let blocks = block_rows(app, &mp);

    // each unit's first block and dominant (most expensive, earliest on
    // ties) block, in plan order; the unit's numbers come from `mp`
    let mut picks: BTreeMap<StmtId, (usize, usize)> = BTreeMap::new();
    for (i, b) in blocks.iter().enumerate() {
        if let Some(s) = b.stmt {
            let (_, dominant) = picks.entry(units.unit_of(StmtId(s))).or_insert((i, i));
            if b.total > blocks[*dominant].total {
                *dominant = i;
            }
        }
    }
    // equal times rank by first block in plan order, not by unit id: SORD
    // has exactly tied units (`halo_exchange:comp#103` and `main:comp#35`
    // on BG/Q), and the explain bodies perfbench's `serve_mixed` pins
    // list them in this order
    let mut rows: Vec<(StmtId, UnitCost, usize, usize)> = mp
        .unit_breakdown
        .iter()
        .map(|(&unit, &c)| {
            let (first, dominant) = picks[&unit];
            (unit, c, first, dominant)
        })
        .collect();
    rows.sort_by(|a, b| unit_order((a.1.total, a.2), (b.1.total, b.2)));
    let total = mp.total;
    let unit_rows: Vec<ExplainUnit> = rows
        .into_iter()
        .map(|(unit, c, _, dominant)| {
            let dom = &blocks[dominant];
            let chain = context_chain(&app.bet, BetNodeId(dom.node));
            let path_prob = chain.iter().map(|s| s.prob).product();
            ExplainUnit {
                name: units.name(unit),
                time: c.total,
                share: if total > 0.0 { c.total / total } else { 0.0 },
                tc: c.tc,
                tm: c.tm,
                bound: c.bound().to_string(),
                dominant_node: dom.node,
                enr: dom.enr,
                chain,
                path_prob,
            }
        })
        .collect();

    Explain { machine: mp.machine.name, model: model.to_string(), total, blocks, units: unit_rows }
}

/// Operational intensity in flops per byte (0 when neither moves).
fn operational_intensity(flops: f64, bytes: f64) -> f64 {
    if bytes == 0.0 {
        if flops == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        flops / bytes
    }
}

fn verdict(tc: f64, tm: f64) -> &'static str {
    if tm > tc {
        "memory"
    } else {
        "compute"
    }
}

/// The invocation-context chain of a node: root → … → node, one step per
/// BET ancestor, carrying each step's conditional probability and trip
/// count (the paper's "invocation context" of a hot block).
pub fn context_chain(bet: &Bet, id: BetNodeId) -> Vec<ChainStep> {
    let mut path = bet.ancestry(id);
    path.reverse();
    path.iter()
        .map(|&nid| {
            let n = bet.node(nid);
            let name = match &n.kind {
                BetKind::Call { func } | BetKind::Lib { func, .. } => Some(func.clone()),
                _ => None,
            };
            ChainStep { node: nid.0, kind: n.kind.tag().to_string(), name, prob: n.prob, iters: n.iters }
        })
        .collect()
}

impl Explain {
    /// Deterministic JSON form (stable field and row order), routed
    /// through the shared report serializer so `explain --json` and
    /// `validate --json` format numbers identically.
    pub fn to_json(&self) -> String {
        xflow_validate::jsonfmt::to_json(self)
    }

    /// Render the human table, limited to the top `top` units.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "machine: {}   model: {}   projected total: {:.3e} s", self.machine, self.model, self.total);
        let _ = writeln!(out, "blocks: {}   units: {}\n", self.blocks.len(), self.units.len());
        let _ = writeln!(
            out,
            "{:<4} {:<24} {:>10} {:>7} {:>8} {:>10} {:>10} {:>10} {:>7}",
            "#", "block", "time (s)", "share", "bound", "ENR", "Tc (s)", "Tm (s)", "OI"
        );
        for (i, u) in self.units.iter().take(top).enumerate() {
            let dom = self.blocks.iter().find(|b| b.node == u.dominant_node);
            let oi = dom.map(|b| b.intensity).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<4} {:<24} {:>10.3e} {:>6.1}% {:>8} {:>10.3e} {:>10.3e} {:>10.3e} {:>7.3}",
                i + 1,
                u.name,
                u.time,
                u.share * 100.0,
                u.bound,
                u.enr,
                u.tc,
                u.tm,
                oi
            );
            let _ = writeln!(out, "     context: {} (p = {:.3})", render_chain(&u.chain), u.path_prob);
        }
        out
    }
}

/// Render a context chain as `root → step ×N → …` with probabilities on
/// non-certain steps.
fn render_chain(chain: &[ChainStep]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for s in chain {
        let mut p = match &s.name {
            Some(n) => format!("{} {n}", s.kind),
            None => s.kind.clone(),
        };
        if s.iters != 1.0 {
            let _ = write!(p, " ×{:.0}", s.iters);
        }
        if s.prob != 1.0 {
            let _ = write!(p, " (p={:.2})", s.prob);
        }
        parts.push(p);
    }
    parts.join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InputSpec;
    use xflow_hw::{bgq, generic, knl, xeon};

    const SRC: &str = r#"
fn main() {
    let n = input("N", 300);
    let a = zeros(n);
    @fill: for i in 0 .. n { a[i] = rnd(); }
    @sum: for i in 0 .. n { a[0] = a[0] + a[i] * a[i]; }
    print(a[0]);
}
"#;

    fn app() -> ModeledApp {
        ModeledApp::from_source(SRC, &InputSpec::new()).unwrap()
    }

    #[test]
    fn totals_reconcile_to_the_bit() {
        let app = app();
        for m in [generic(), bgq(), xeon()] {
            let report = explain(&app, &m);
            let sum = report.blocks.iter().map(|b| b.total).sum::<f64>();
            assert_eq!(sum.to_bits(), report.total.to_bits(), "stream must reconcile on {}", m.name);
            assert_eq!(report.total.to_bits(), app.project_on(&m).total.to_bits());
        }
    }

    #[test]
    fn block_rows_carry_the_node_costs_and_the_overlap_degree() {
        let app = app();
        let m = bgq();
        let projection = app.plan().evaluate(&m, &Roofline);
        let report = explain(&app, &m);
        assert_eq!(report.blocks.len(), app.plan().blocks().len());
        for b in &report.blocks {
            let cost = &projection.node_costs[b.node as usize];
            assert_eq!(b.total.to_bits(), cost.total.to_bits());
            assert_eq!(b.enr.to_bits(), cost.enr.to_bits());
            let floor = b.tc.min(b.tm);
            if floor > 0.0 {
                assert!((b.delta * floor - b.overlap).abs() <= 1e-15 * b.overlap.abs().max(1.0));
                assert!((0.0..=1.0).contains(&b.delta), "δ must be a fraction, got {}", b.delta);
            } else {
                assert_eq!(b.delta, 0.0);
            }
        }
        assert_eq!(operational_intensity(8.0, 8.0), 1.0);
        assert!(operational_intensity(8.0, 0.0).is_infinite());
        assert_eq!(operational_intensity(0.0, 0.0), 0.0);
    }

    #[test]
    fn units_are_ranked_and_named() {
        let app = app();
        let report = explain(&app, &bgq());
        assert!(!report.units.is_empty());
        for w in report.units.windows(2) {
            assert!(w[0].time >= w[1].time, "units must be ranked by time");
        }
        let names: Vec<&str> = report.units.iter().map(|u| u.name.as_str()).collect();
        assert!(names.iter().any(|n| n.contains("sum") || n.contains("fill")), "{names:?}");
        let top = &report.units[0];
        assert!(top.share > 0.0 && top.share <= 1.0);
        assert!(top.bound == "memory" || top.bound == "compute");
    }

    #[test]
    fn chains_start_at_the_root_and_multiply_probs() {
        let app = app();
        let report = explain(&app, &generic());
        for u in &report.units {
            assert_eq!(u.chain.first().unwrap().kind, "root");
            assert_eq!(u.chain.last().unwrap().node, u.dominant_node);
            let p: f64 = u.chain.iter().map(|s| s.prob).product();
            assert_eq!(p.to_bits(), u.path_prob.to_bits());
        }
    }

    #[test]
    fn json_is_deterministic_and_parseable() {
        let app = app();
        let a = explain(&app, &bgq()).to_json();
        let b = explain(&app, &bgq()).to_json();
        assert_eq!(a, b);
        let back: Explain = serde_json::from_str(&a).unwrap();
        assert!(!back.blocks.is_empty());
        assert!(back.total > 0.0);
        let fwd = explain(&app, &bgq());
        assert_eq!(back.total.to_bits(), fwd.total.to_bits(), "JSON round-trip must preserve totals exactly");
    }

    #[test]
    fn explain_units_equal_the_hotspots_unit_view() {
        // units gathering several statements (`lib:rand`) are where a
        // second fold would add in another order than `project_on`
        let mut programs =
            crate::oracle::builtin_programs(&[xflow_workloads::Scale::Test, xflow_workloads::Scale::Eval]);
        programs.extend(crate::oracle::generated_programs(24));
        let mut multi = 0;
        for p in &programs {
            for (scale, inputs) in &p.scales {
                let app = ModeledApp::from_source(&p.source, inputs).unwrap();
                for m in [bgq(), xeon(), knl(), generic()] {
                    let ctx = format!("{} {scale} on {}", p.name, m.name);
                    let mp = app.project_on(&m);
                    let mut want: Vec<(String, [u64; 3])> = mp
                        .unit_breakdown
                        .iter()
                        .map(|(&u, c)| (app.units.name(u), [c.total.to_bits(), c.tc.to_bits(), c.tm.to_bits()]))
                        .collect();
                    let mut got: Vec<(String, [u64; 3])> = explain(&app, &m)
                        .units
                        .into_iter()
                        .map(|u| (u.name, [u.time.to_bits(), u.tc.to_bits(), u.tm.to_bits()]))
                        .collect();
                    want.sort();
                    got.sort();
                    assert_eq!(got, want, "{ctx}: explain unit rows differ from the hotspots unit view");
                    let stmts_of = |u: StmtId| app.units.lib_stmt_to_unit.values().filter(|&&v| v == u).count();
                    multi += mp.unit_breakdown.keys().filter(|&&u| stmts_of(u) > 1).count();
                }
            }
        }
        assert!(multi > 0, "the corpus must exercise units of several statements");
    }

    #[test]
    fn human_render_mentions_hot_blocks_and_contexts() {
        let app = app();
        let report = explain(&app, &xeon());
        let text = report.render(5);
        assert!(text.contains("machine: Xeon"), "{text}");
        assert!(text.contains("context:"), "{text}");
        assert!(text.contains("loop"), "{text}");
        // top limiting works
        let one = report.render(1);
        assert!(one.matches("context:").count() == 1, "{one}");
    }
}
