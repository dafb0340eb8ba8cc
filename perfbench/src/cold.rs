//! `cold_model`: the cold `xflow explain` path, where a user first waits.
//!
//! Each op models the next program of the seeded stream through a fresh
//! memory-only `Session` (all six stages build), projects it on bgq and
//! xeon, selects hot spots on both, and builds the bgq explain report.

use std::time::Instant;

use xflow::xflow_hotspot::ProjectionPlan;
use xflow::xflow_minilang as ml;
use xflow::xflow_validate::jsonfmt::to_json;
use xflow::{bgq, default_library, explain, initial_env, xeon, MachineModel, Roofline, Session, EVAL_CRITERIA};

use crate::expected::{AccuracyTally, Expected};
use crate::harness::{
    base_setup, closed_loop, overhead, reference_check, trace_share, Outcome, RunArgs, SetupTimes, Tracer,
};
use crate::programs::{sequence_digest, stream_pool, Prog, Stream, DIGEST_PASSES, EPOCH_PASSES};

struct State {
    expected: Expected,
    pool: Vec<Prog>,
    machines: [(&'static str, MachineModel); 2],
    digest: String,
}

fn setup(seed: u64) -> Result<State, String> {
    let expected = base_setup()?;
    reference_check(&expected)?;
    let pool = stream_pool();
    // reference check: every program of the pool has expected outputs
    for p in &pool {
        for m in ["bgq", "xeon"] {
            if expected.bits("total", &p.id(), m).is_none() || expected.rank10(&p.id(), m).is_none() {
                return Err(format!("expected.tsv has no entry for {} on {m}; rerun --build-expected", p.id()));
            }
        }
    }
    let mut stream = Stream::new(seed);
    let digest = sequence_digest(DIGEST_PASSES, || stream.next_pass().into_iter().map(|i| pool[i].id()).collect());
    Ok(State { expected, pool, machines: [("bgq", bgq()), ("xeon", xeon())], digest })
}

/// Top-10 unit ranking as comma-separated unit ids.
pub fn rank10(ranking: &[xflow::xflow_skeleton::StmtId]) -> String {
    ranking.iter().take(10).map(|s| s.0.to_string()).collect::<Vec<_>>().join(",")
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut setups = SetupTimes::default();
    let st = setups.time(|| setup(args.seed))?;
    let mut out = Outcome { sequence_digest: st.digest.clone(), ..Outcome::default() };
    let mut tally = AccuracyTally::default();
    let mut tracer = Tracer::default();
    let (mut untraced, mut replayed, mut stage_sums) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream = Stream::new(args.seed);
    let mut op_id = 0usize;

    let passes = closed_loop(
        args.seconds,
        EPOCH_PASSES,
        |pass| {
            for i in stream.next_pass() {
                let p = &st.pool[i];
                let id = p.id();
                let [(bn, b), (xn, x)] = &st.machines;

                let t = Instant::now();
                let session = Session::new();
                let result = session.model(&p.source, &p.inputs).map(|app| {
                    let pb = app.project_on(b);
                    let px = app.project_on(x);
                    let sel = (pb.select(&app.units, EVAL_CRITERIA), px.select(&app.units, EVAL_CRITERIA));
                    let report = explain(&app, b);
                    (app, pb, px, sel, report)
                });
                let lat = t.elapsed().as_secs_f64();
                out.latencies.push(&id, lat);

                let Ok((app, pb, px, sel, report)) = result else {
                    out.check.op(false, || format!("cold_model {id}: pipeline error"));
                    continue;
                };
                let e = &st.expected;
                let ok = e.bits("total", &id, bn) == Some(pb.total.to_bits())
                    && e.bits("total", &id, xn) == Some(px.total.to_bits())
                    && e.rank10(&id, bn) == Some(rank10(&pb.ranking()).as_str())
                    && e.rank10(&id, xn) == Some(rank10(&px.ranking()).as_str())
                    && report.total.to_bits() == pb.total.to_bits()
                    && !sel.0.spots.is_empty()
                    && !sel.1.spots.is_empty();
                out.check.op(ok, || format!("cold_model {id}: projection differs from expected.tsv"));
                if pass < EPOCH_PASSES {
                    for m in [bn, xn] {
                        if let Some(acc) = e.accuracy(&id, m) {
                            tally.add(format!("{id}/{m}"), acc);
                        }
                    }
                }

                if args.trace {
                    // replay the chain the op drove, one public call per layer
                    // work counts come from the first epoch only, so they repeat exactly
                    let horizon = pass < EPOCH_PASSES;
                    let root = tracer.open("cold_model.op", op_id, None);
                    let l = &mut out.layers;
                    let (prog, s) = tracer.time("minilang.parse", op_id, root, || ml::parse(&p.source));
                    l.push("minilang.parse_s", s);
                    let mut stages = s;
                    let replay = prog.ok().and_then(|prog| {
                        let (profile, s) =
                            tracer.time("minilang.profile", op_id, root, || ml::profile(&prog, &p.inputs));
                        l.push("minilang.profile_s", s);
                        stages += s;
                        let profile = profile.ok()?;
                        if horizon {
                            l.push("minilang.profile_stmts", profile.stmt_exec.values().sum::<u64>() as f64);
                        }
                        let (tr, s) = tracer.time("minilang.translate", op_id, root, || ml::translate(&prog, &profile));
                        l.push("minilang.translate_s", s);
                        stages += s;
                        let tr = tr.ok()?;
                        if horizon {
                            l.push("skeleton.stmts", tr.skeleton.source_statement_count() as f64);
                        }
                        let (bet, s) = tracer.time("bet.build", op_id, root, || {
                            xflow::xflow_bet::build(&tr.skeleton, &initial_env(&tr, &p.inputs))
                        });
                        l.push("bet.build_s", s);
                        stages += s;
                        let bet = bet.ok()?;
                        if horizon {
                            l.push("bet.nodes", bet.len() as f64);
                        }
                        let (plan, s) =
                            tracer.time("hotspot.plan", op_id, root, || ProjectionPlan::new(&bet, default_library()));
                        l.push("hotspot.plan_s", s);
                        stages += s;
                        let (_kernel, s) = tracer.time("hotspot.kernel", op_id, root, || plan.kernel());
                        l.push("hotspot.kernel_s", s);
                        stages += s;
                        let ((rb, rx), s) =
                            tracer.time("hotspot.project", op_id, root, || (app.project_on(b), app.project_on(x)));
                        l.push("hotspot.project_s", s);
                        stages += s;
                        let (_sel, s) = tracer.time("hotspot.select", op_id, root, || {
                            (rb.select(&app.units, EVAL_CRITERIA), rx.select(&app.units, EVAL_CRITERIA))
                        });
                        l.push("hotspot.select_s", s);
                        stages += s;
                        let (rep, s) = tracer.time("explain.build", op_id, root, || explain(&app, b));
                        l.push("explain.build_s", s);
                        stages += s;
                        let scalar = plan.evaluate(b, &Roofline).total_time;
                        Some(
                            scalar.to_bits() == pb.total.to_bits()
                                && rb.total.to_bits() == pb.total.to_bits()
                                && rx.total.to_bits() == px.total.to_bits()
                                && rep.total.to_bits() == report.total.to_bits()
                                && bet.len() == app.bet.len(),
                        )
                    });
                    let wall = tracer.close(root);
                    out.check.op(replay == Some(true), || format!("cold_model {id}: replay differs from the op"));
                    untraced.push(lat);
                    replayed.push(wall);
                    stage_sums.push(stages);

                    // the warm path, outside the op: the same query again on the
                    // op's session (all six stages hit the store), and the
                    // `xflow explain --json` encoding of the report
                    let extra = tracer.open("cold_model.warm", op_id, None);
                    let (warm, s) =
                        tracer.time("session.model_warm", op_id, extra, || session.model(&p.source, &p.inputs));
                    out.layers.push("session.model_warm_s", s);
                    let (json, s) = tracer.time("validate.jsonfmt", op_id, extra, || to_json(&report));
                    out.layers.push("validate.jsonfmt_s", s);
                    tracer.close(extra);
                    let same =
                        warm.is_ok_and(|w| w.project_on(b).total.to_bits() == pb.total.to_bits()) && json.len() > 2;
                    out.check.op(same, || format!("cold_model {id}: warm lookup differs from the op"));
                }
                op_id += 1;
            }
        },
        || setups.repeat(|| setup(args.seed), drop),
    );

    out.passes = passes;
    out.setup = setups;
    out.accuracy = tally.mean();
    if args.trace {
        out.layers.set("session.overhead_s", overhead(&untraced, &stage_sums));
        out.layers.set("trace.overhead_share", trace_share(&replayed, &untraced));
        tracer.write_run(args)?;
    }
    Ok(out)
}
