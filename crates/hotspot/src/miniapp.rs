//! Mini-application construction from hot paths (paper Sections I and V-C:
//! "Hot paths can also be used for constructing mini-applications").
//!
//! A mini-app is a *closed* skeleton program containing only the hot spots
//! and the control flow that reaches them, with every loop bound, branch
//! probability, and operation count frozen to the concrete values of the
//! originating BET contexts. Projecting the mini-app therefore reproduces
//! the hot-region portion of the full application's projected time on any
//! machine — it is the benchmark a system designer would hand to a
//! simulator team.

use crate::hotpath::{extract, HotPath};
use xflow_bet::{Bet, BetKind, BetNodeId};
use xflow_skeleton::ast as sk;
use xflow_skeleton::expr::Expr;
use xflow_skeleton::StmtId;

/// Build a mini-application skeleton from the hot path of a selection.
///
/// `ranked_stmts` is the selection in rank order (as for
/// [`extract`]). Each mounted function on the path
/// becomes its own function in the mini-app (`<name>_ctx<k>` for distinct
/// invocation contexts), so the call structure stays readable.
pub fn build_miniapp(bet: &Bet, ranked_stmts: &[StmtId]) -> sk::Program {
    let path = extract(bet, ranked_stmts);
    let mut out = sk::Program::new();
    let mut emitter = Emitter { bet, path: &path, out: &mut out, next_fn: 0 };
    let body = emitter.emit_block(emitter.path_root());
    let main = sk::Function { id: sk::FuncId(0), name: "main".into(), params: vec![], body };
    // main must be added after callee functions were generated; add_function
    // rejects duplicates only, order is free.
    emitter.out.add_function(main).expect("fresh program");
    out
}

struct Emitter<'a> {
    bet: &'a Bet,
    path: &'a HotPath,
    out: &'a mut sk::Program,
    next_fn: u32,
}

impl<'a> Emitter<'a> {
    fn path_root(&self) -> BetNodeId {
        self.bet.root()
    }

    fn fresh(&mut self) -> sk::StmtId {
        self.out.fresh_stmt_id()
    }

    /// Emit the path children of a BET node as a statement block.
    fn emit_block(&mut self, id: BetNodeId) -> sk::Block {
        let kids: Vec<BetNodeId> = self.path.children(id).to_vec();
        let mut stmts = Vec::new();
        for kid in kids {
            if let Some(stmt) = self.emit_node(kid) {
                stmts.push(stmt);
            }
        }
        sk::Block { stmts }
    }

    /// Emit one path node (None for nodes that add no statement).
    fn emit_node(&mut self, id: BetNodeId) -> Option<sk::Stmt> {
        let node = self.bet.node(id).clone();
        let label = if self.path.is_hotspot(id) { Some(format!("hot_{}", id.0)) } else { None };
        match &node.kind {
            BetKind::Comp { ops } => {
                let sid = self.fresh();
                Some(sk::Stmt {
                    id: sid,
                    label,
                    kind: sk::StmtKind::Comp(sk::OpStats {
                        flops: Expr::Num(ops.flops),
                        iops: Expr::Num(ops.iops),
                        loads: Expr::Num(ops.loads),
                        stores: Expr::Num(ops.stores),
                        divs: Expr::Num(ops.divs),
                        dtype_bytes: Expr::Num(ops.elem_bytes),
                    }),
                })
            }
            BetKind::Lib { func, calls, work } => {
                let sid = self.fresh();
                Some(sk::Stmt {
                    id: sid,
                    label,
                    kind: sk::StmtKind::LibCall {
                        func: func.clone(),
                        calls: Expr::Num(*calls),
                        work: Expr::Num(*work),
                    },
                })
            }
            BetKind::Loop => {
                let body = self.emit_block(id);
                let sid = self.fresh();
                let mut stmt = sk::Stmt {
                    id: sid,
                    label,
                    kind: sk::StmtKind::Loop {
                        var: format!("i{}", id.0),
                        lo: Expr::Num(0.0),
                        hi: Expr::Num(node.iters.round().max(0.0)),
                        step: Expr::Num(1.0),
                        parallel: node.parallel,
                        body,
                    },
                };
                // a loop reached with probability < 1 keeps that gate
                if node.prob < 0.999 {
                    stmt = self.wrap_prob(stmt, node.prob);
                }
                Some(stmt)
            }
            BetKind::Arm { .. } => {
                let body = self.emit_block(id);
                if body.stmts.is_empty() {
                    return None;
                }
                let sid = self.fresh();
                Some(sk::Stmt {
                    id: sid,
                    label,
                    kind: sk::StmtKind::Branch {
                        arms: vec![sk::BranchArm { cond: sk::Cond::Prob(Expr::Num(node.prob.min(1.0))), body }],
                        else_body: None,
                    },
                })
            }
            BetKind::Call { func } => {
                let body = self.emit_block(id);
                if body.stmts.is_empty() {
                    return None;
                }
                // distinct invocation contexts become distinct functions
                let name = format!("{}_ctx{}", func, self.next_fn);
                self.next_fn += 1;
                self.out
                    .add_function(sk::Function { id: sk::FuncId(0), name: name.clone(), params: vec![], body })
                    .expect("unique generated name");
                let sid = self.fresh();
                let mut stmt = sk::Stmt { id: sid, label, kind: sk::StmtKind::Call { func: name, args: vec![] } };
                if node.prob < 0.999 {
                    stmt = self.wrap_prob(stmt, node.prob);
                }
                Some(stmt)
            }
            BetKind::Root | BetKind::Return | BetKind::Break | BetKind::Continue => None,
        }
    }

    /// Gate a statement behind `if prob(p) { … }`.
    fn wrap_prob(&mut self, stmt: sk::Stmt, p: f64) -> sk::Stmt {
        let sid = self.fresh();
        sk::Stmt {
            id: sid,
            label: None,
            kind: sk::StmtKind::Branch {
                arms: vec![sk::BranchArm {
                    cond: sk::Cond::Prob(Expr::Num(p.min(1.0))),
                    body: sk::Block { stmts: vec![stmt] },
                }],
                else_body: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_bet::build;
    use xflow_hw::{bgq, LibraryRegistry, Roofline};
    use xflow_skeleton::expr::env_from;
    use xflow_skeleton::parse;

    const SRC: &str = r#"
func main() {
  @setup: comp { flops: 5, loads: 50 }
  loop t = 0 .. 100 {
    call update(t)
    if prob(0.25) {
      @fix: comp { flops: 50, loads: 10 }
    }
    @cold: comp { flops: 1 }
  }
}
func update(t) {
  loop i = 0 .. 1000 { @kernel: comp { flops: 8, loads: 4, stores: 2 } lib exp(1) }
}
"#;

    fn setup() -> (xflow_skeleton::Program, Bet) {
        let prog = parse(SRC).unwrap();
        let bet = build(&prog, &env_from([("x", 0.0)])).unwrap();
        (prog, bet)
    }

    #[test]
    fn miniapp_is_a_valid_skeleton() {
        let (prog, bet) = setup();
        let kernel = prog.stmt_by_label("kernel").unwrap();
        let fix = prog.stmt_by_label("fix").unwrap();
        let mini = build_miniapp(&bet, &[kernel, fix]);
        assert!(mini.main().is_some());
        let errs = xflow_skeleton::validate(&mini);
        assert!(errs.is_empty(), "{errs:?}\n{}", xflow_skeleton::print(&mini));
        // round-trips through text
        let text = xflow_skeleton::print(&mini);
        assert!(xflow_skeleton::parse(&text).is_ok(), "{text}");
    }

    #[test]
    fn miniapp_reproduces_hot_spot_time() {
        let (prog, bet) = setup();
        let kernel = prog.stmt_by_label("kernel").unwrap();
        let machine = bgq();
        let libs = LibraryRegistry::with_defaults();

        // time of the kernel in the full application
        let full = crate::ProjectionPlan::new(&bet, &libs).evaluate(&machine, &Roofline);
        let kernel_time = full.per_stmt[&kernel].total;

        // projected total of the mini-app containing only that spot
        let mini = build_miniapp(&bet, &[kernel]);
        let mini_bet = build(&mini, &env_from([("x", 0.0)])).unwrap();
        let mini_proj = crate::ProjectionPlan::new(&mini_bet, &libs).evaluate(&machine, &Roofline);

        let rel = (mini_proj.total_time - kernel_time).abs() / kernel_time;
        assert!(rel < 0.01, "mini {:.3e} vs kernel {:.3e}", mini_proj.total_time, kernel_time);
    }

    #[test]
    fn miniapp_excludes_cold_code() {
        let (prog, bet) = setup();
        let kernel = prog.stmt_by_label("kernel").unwrap();
        let mini = build_miniapp(&bet, &[kernel]);
        let text = xflow_skeleton::print(&mini);
        // the cold comp (1 flop) and the un-selected fix block are gone
        assert!(!text.contains("flops: 1 }"), "{text}");
        assert!(!text.contains("flops: 50"), "{text}");
        // the kernel and its loop nest survive with concrete bounds
        assert!(text.contains("flops: 8"), "{text}");
        assert!(text.contains(".. 100"), "{text}");
        assert!(text.contains(".. 1000"), "{text}");
    }

    #[test]
    fn probabilistic_gate_preserved() {
        let (prog, bet) = setup();
        let fix = prog.stmt_by_label("fix").unwrap();
        let mini = build_miniapp(&bet, &[fix]);
        let text = xflow_skeleton::print(&mini);
        assert!(text.contains("if prob(0.25)"), "{text}");
    }

    #[test]
    fn mounted_functions_become_named_contexts() {
        let (prog, bet) = setup();
        let kernel = prog.stmt_by_label("kernel").unwrap();
        let mini = build_miniapp(&bet, &[kernel]);
        assert!(mini.function("update_ctx0").is_some());
        let text = xflow_skeleton::print(&mini);
        assert!(text.contains("call update_ctx0()"), "{text}");
    }

    #[test]
    fn empty_selection_gives_empty_main() {
        let (_, bet) = setup();
        let mini = build_miniapp(&bet, &[]);
        assert!(mini.main().unwrap().body.stmts.is_empty());
    }

    #[test]
    fn hot_spots_are_labeled() {
        let (prog, bet) = setup();
        let kernel = prog.stmt_by_label("kernel").unwrap();
        let mini = build_miniapp(&bet, &[kernel]);
        let text = xflow_skeleton::print(&mini);
        assert!(text.contains("@hot_"), "{text}");
    }
}
