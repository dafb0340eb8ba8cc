//! `oracle_corpus`: model against ground truth, the only workload that
//! runs the simulator.
//!
//! Each op is one `build_corpus` call for the next program of the seeded
//! stream × [bgq, xeon] on a fresh memory-only `Session`, so no simulation
//! is served from the store. Working sets run from generated programs that
//! fit in L1 to the paper applications, which spill it. The two accuracy
//! metrics are computed live from the corpus records.

use std::time::Instant;

use xflow::xflow_hotspot::ProjectionPlan;
use xflow::xflow_minilang as ml;
use xflow::xflow_sim::{simulate_with_seed, SimConfig};
use xflow::{
    bgq, build_corpus, default_library, initial_env, xeon, MachineModel, OracleOptions, OracleProgram, Roofline,
    Session,
};

use crate::expected::{corpus_accuracy, AccuracyTally, Expected};
use crate::harness::{
    base_setup, closed_loop, overhead, reference_check, trace_share, Outcome, RunArgs, SetupTimes, Tracer,
};
use crate::programs::{sequence_digest, stream_pool, Prog, Stream, DIGEST_PASSES, EPOCH_PASSES};
use crate::rng::digest;

struct State {
    expected: Expected,
    pool: Vec<(Prog, OracleProgram)>,
    machines: Vec<MachineModel>,
    digest: String,
}

fn setup(seed: u64) -> Result<State, String> {
    let expected = base_setup()?;
    reference_check(&expected)?;
    let pool: Vec<(Prog, OracleProgram)> = stream_pool()
        .into_iter()
        .map(|p| {
            let o = p.oracle_program();
            (p, o)
        })
        .collect();
    for (p, _) in &pool {
        if expected.corpus(&p.id()).is_none() {
            return Err(format!("expected.tsv has no corpus digest for {}; rerun --build-expected", p.id()));
        }
    }
    let mut stream = Stream::new(seed);
    let digest = sequence_digest(DIGEST_PASSES, || stream.next_pass().into_iter().map(|i| pool[i].0.id()).collect());
    Ok(State { expected, pool, machines: vec![bgq(), xeon()], digest })
}

/// Options every corpus build uses: one job (the load generator is one
/// closed-loop client) and the default profiling/simulation seed.
pub fn oracle_options() -> OracleOptions {
    OracleOptions { jobs: 1, ..OracleOptions::default() }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut setups = SetupTimes::default();
    let st = setups.time(|| setup(args.seed))?;
    let mut out = Outcome { sequence_digest: st.digest.clone(), ..Outcome::default() };
    let mut tally = AccuracyTally::default();
    let mut tracer = Tracer::default();
    let (mut untraced, mut replayed, mut stage_sums) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream = Stream::new(args.seed);
    let opts = oracle_options();
    let mut op_id = 0usize;

    let passes = closed_loop(
        args.seconds,
        EPOCH_PASSES,
        |pass| {
            for i in stream.next_pass() {
                let (p, oprog) = &st.pool[i];
                let id = p.id();

                let t = Instant::now();
                let corpus = build_corpus(&Session::new(), std::slice::from_ref(oprog), &st.machines, &opts);
                let lat = t.elapsed().as_secs_f64();
                out.latencies.push(&id, lat);

                let Ok(corpus) = corpus else {
                    out.check.op(false, || format!("oracle_corpus {id}: pipeline error"));
                    continue;
                };
                let ok = st.expected.corpus(&id) == Some(digest(corpus.to_json().as_bytes()).as_str());
                out.check.op(ok, || format!("oracle_corpus {id}: corpus differs from expected.tsv"));
                if pass < EPOCH_PASSES {
                    for (m, acc) in corpus_accuracy(&corpus.records) {
                        tally.add(format!("{id}/{m}"), acc);
                    }
                }

                if args.trace {
                    let root = tracer.open("oracle_corpus.op", op_id, None);
                    let (ok, stages) = replay(&mut tracer, &mut out.layers, op_id, root, p, &st, pass < EPOCH_PASSES);
                    let wall = tracer.close(root);
                    out.check.op(ok, || format!("oracle_corpus {id}: replay differs from expected.tsv"));
                    untraced.push(lat);
                    replayed.push(wall);
                    stage_sums.push(stages);
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
        out.layers.set("oracle.overhead_s", overhead(&untraced, &stage_sums));
        out.layers.set("trace.overhead_share", trace_share(&replayed, &untraced));
        tracer.write_run(args)?;
    }
    Ok(out)
}

/// Replay one corpus op through the public layer functions, per machine:
/// parse, seeded profile, translate, BET, plan, scalar evaluate, simulate.
/// Returns whether every output matched `expected.tsv`, and Σ stage time.
/// Work counts are kept only for ops of the first epoch (`horizon`), so
/// they repeat exactly from run to run.
fn replay(
    tracer: &mut Tracer,
    l: &mut crate::harness::Layers,
    op: usize,
    root: usize,
    p: &Prog,
    st: &State,
    horizon: bool,
) -> (bool, f64) {
    let seed = oracle_options().seed;
    let id = p.id();
    let mut ok = true;
    let (mut parse_s, mut profile_s, mut translate_s, mut bet_s, mut plan_s, mut eval_s, mut sim_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut instrs = 0u64;
    for machine in &st.machines {
        let m = crate::expected::short_machine(&machine.name);
        let step = (|| {
            let (prog, s) = tracer.time("minilang.parse", op, root, || ml::parse(&p.source));
            parse_s += s;
            let prog = prog.ok()?;
            let (run, s) = tracer.time("minilang.profile", op, root, || {
                ml::run_with_limits_seeded(&prog, &p.inputs, ml::NullTracer, ml::Limits::default(), seed)
            });
            profile_s += s;
            let (profile, _, _) = run.ok()?;
            let (tr, s) = tracer.time("minilang.translate", op, root, || ml::translate(&prog, &profile));
            translate_s += s;
            let tr = tr.ok()?;
            let (bet, s) = tracer
                .time("bet.build", op, root, || xflow::xflow_bet::build(&tr.skeleton, &initial_env(&tr, &p.inputs)));
            bet_s += s;
            let bet = bet.ok()?;
            let (plan, s) = tracer.time("hotspot.plan", op, root, || ProjectionPlan::new(&bet, default_library()));
            plan_s += s;
            let (projection, s) = tracer.time("hotspot.evaluate", op, root, || plan.evaluate(machine, &Roofline));
            eval_s += s;
            let cfg = match &p.workload {
                Some(w) => w.sim_config(&prog, machine),
                None => SimConfig::default(),
            };
            let (sim, s) =
                tracer.time("sim.simulate", op, root, || simulate_with_seed(&prog, &p.inputs, machine, cfg, seed));
            sim_s += s;
            let sim = sim.ok()?;
            let n = sim.stmt_instrs.values().sum::<u64>() + sim.lib_instrs.values().sum::<u64>();
            instrs += n;
            if horizon {
                l.push("sim.l1_hit_rate", sim.l1_hit_rate);
            }
            Some(
                st.expected.bits("cycles", &id, &m) == Some(sim.total_cycles.to_bits())
                    && st.expected.bits("total", &id, &m) == Some(projection.total_time.to_bits()),
            )
        })();
        ok &= step == Some(true);
    }
    l.push("minilang.parse_s", parse_s);
    l.push("minilang.profile_s", profile_s);
    l.push("minilang.translate_s", translate_s);
    l.push("bet.build_s", bet_s);
    l.push("hotspot.plan_s", plan_s);
    l.push("hotspot.evaluate_s", eval_s);
    l.push("sim.simulate_s", sim_s);
    if horizon {
        l.push("sim.instructions", instrs as f64);
    }
    if sim_s > 0.0 {
        l.push("sim.minstr_per_s", instrs as f64 / sim_s / 1e6);
    }
    (ok, parse_s + profile_s + translate_s + bet_s + plan_s + eval_s + sim_s)
}
