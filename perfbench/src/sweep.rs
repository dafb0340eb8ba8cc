//! `design_sweep`: the co-design exploration loop.
//!
//! Set-up builds the five paper applications once. Each op builds a seeded
//! 2048-point `DesignSpace::grid` over 3 or 4 `Axis::by_name` parameters on
//! bgq or xeon, sweeps it, ranks the top 10 and hydrates the best point.
//! The plan (and so the per-point cost) does not depend on the input size,
//! so the apps are built at test scale: the sweep does the same work as at
//! eval scale while set-up stays short.

use std::time::Instant;

use xflow::{bgq, xeon, Axis, DesignSpace, MachineModel, ModeledApp, Roofline, Scale, Session, SweepOptions};

use crate::expected::{AccuracyTally, Expected};
use crate::harness::{base_setup, closed_loop, overhead, trace_share, Outcome, RunArgs, SetupTimes, Tracer};
use crate::programs::{paper, sequence_digest, DIGEST_PASSES, EPOCH_PASSES};
use crate::rng::Rng;

/// Sweepable parameters and the range their seeded values are drawn from.
const AXES: [(&str, f64, f64); 10] = [
    ("dram_bw_gbs", 5.0, 400.0),
    ("cores", 1.0, 128.0),
    ("mlp", 1.0, 32.0),
    ("freq_ghz", 0.8, 5.0),
    ("vector_lanes", 1.0, 16.0),
    ("issue_width", 1.0, 8.0),
    ("l1_hit_rate", 0.5, 0.99),
    ("llc_hit_rate", 0.3, 0.99),
    ("vector_efficiency", 0.1, 1.0),
    ("load_store_per_cycle", 1.0, 4.0),
];

/// Points per grid, whichever axis count an op draws.
const GRID_POINTS: usize = 2048;

type GridSpec = Vec<(&'static str, Vec<f64>)>;

/// One op: which app, which base machine, which grid.
struct SweepOp {
    app: usize,
    base: usize,
    grid: GridSpec,
}

impl SweepOp {
    fn label(&self) -> String {
        format!("{}:{}:{:?}", self.app, self.base, self.grid)
    }

    /// The op's (app, base machine) pair: every pass has each pair once,
    /// and every grid has [`GRID_POINTS`] points whatever its axis count.
    fn kind(&self) -> String {
        format!("{}:{}", self.app, self.base)
    }
}

/// A seeded grid over distinct axes, with per-axis value counts `sizes3`
/// or `sizes4` (the seed picks which).
pub fn random_grid(rng: &mut Rng, sizes3: &[usize], sizes4: &[usize]) -> GridSpec {
    let sizes = if rng.below(2) == 0 { sizes3 } else { sizes4 };
    let mut order: Vec<usize> = (0..AXES.len()).collect();
    rng.shuffle(&mut order);
    sizes
        .iter()
        .zip(order)
        .map(|(&k, a)| {
            let (name, lo, hi) = AXES[a];
            let mut values: Vec<f64> = (0..k)
                .map(|_| {
                    let v = rng.uniform(lo, hi);
                    if hi > 10.0 || name == "vector_lanes" {
                        v.round().max(1.0)
                    } else {
                        (v * 1000.0).round() / 1000.0
                    }
                })
                .collect();
            values.sort_by(f64::total_cmp);
            (name, values)
        })
        .collect()
}

fn build_axes(grid: &GridSpec) -> Vec<Axis> {
    grid.iter().map(|(n, v)| Axis::by_name(n, v).expect("AXES names are sweepable")).collect()
}

/// The seeded op stream: each pass visits every (app, base machine) pair
/// once, in a shuffled order, each with a fresh grid.
struct OpStream(Rng);

impl OpStream {
    fn next_pass(&mut self) -> Vec<SweepOp> {
        let mut pairs: Vec<(usize, usize)> = (0..5).flat_map(|a| (0..2).map(move |b| (a, b))).collect();
        self.0.shuffle(&mut pairs);
        pairs
            .into_iter()
            .map(|(app, base)| SweepOp { app, base, grid: random_grid(&mut self.0, &[16, 16, 8], &[8, 8, 8, 4]) })
            .collect()
    }
}

struct State {
    apps: Vec<(String, ModeledApp)>,
    bases: [(&'static str, MachineModel); 2],
    expected: Expected,
    digest: String,
}

fn setup(seed: u64) -> Result<State, String> {
    let expected = base_setup()?;
    let bases = [("bgq", bgq()), ("xeon", xeon())];
    let mut apps = Vec::new();
    for p in paper(Scale::Test) {
        let app = Session::new().model(&p.source, &p.inputs).map_err(|e| format!("{}: {e}", p.id()))?;
        // reference check: the apps the sweeps run on project as expected
        for (m, machine) in &bases {
            if expected.bits("total", &p.id(), m) != Some(app.project_on(machine).total.to_bits()) {
                return Err(format!("{} on {m} differs from expected.tsv", p.id()));
            }
        }
        apps.push((p.id(), app));
    }
    let mut s = OpStream(Rng::new(seed));
    let digest = sequence_digest(DIGEST_PASSES, || s.next_pass().iter().map(SweepOp::label).collect());
    Ok(State { apps, bases, expected, digest })
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut setups = SetupTimes::default();
    let st = setups.time(|| setup(args.seed))?;
    let mut out = Outcome { sequence_digest: st.digest.clone(), ..Outcome::default() };
    let mut tally = AccuracyTally::default();
    let mut tracer = Tracer::default();
    let (mut untraced, mut replayed, mut stage_sums) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream = OpStream(Rng::new(args.seed));
    let mut spot = Rng::new(args.seed ^ 0xc4ec);
    let opts = SweepOptions::with_threads(1);
    let mut op_id = 0usize;

    let passes = closed_loop(
        args.seconds,
        EPOCH_PASSES,
        |pass| {
            for op in stream.next_pass() {
                let (id, app) = &st.apps[op.app];
                let (mname, base) = &st.bases[op.base];

                let t = Instant::now();
                let space = DesignSpace::grid(base.clone(), build_axes(&op.grid));
                let sweep = space.sweep_opts(app, opts);
                let top: Vec<(usize, f64)> = sweep.top(10).iter().map(|p| (p.index, p.total)).collect();
                let best = sweep.hydrate(app, top[0].0);
                let lat = t.elapsed().as_secs_f64();
                out.latencies.push(&op.kind(), lat);

                // the best point and one seeded point against scalar evaluate
                let plan = app.plan();
                let r = spot.below(space.len());
                let ok = sweep.points.len() == GRID_POINTS
                    && top.windows(2).all(|w| w[0].1 <= w[1].1)
                    && best.total.to_bits() == top[0].1.to_bits()
                    && plan.evaluate(&space.machines()[top[0].0], &Roofline).total_time.to_bits()
                        == best.total.to_bits()
                    && plan.evaluate(&space.machines()[r], &Roofline).total_time.to_bits()
                        == sweep.points[r].total.to_bits();
                out.check.op(ok, || format!("design_sweep {id} on {mname}: sweep differs from scalar evaluate"));
                if pass < EPOCH_PASSES {
                    if let Some(acc) = st.expected.accuracy(id, mname) {
                        tally.add(format!("{id}/{mname}"), acc);
                    }
                }

                if args.trace {
                    let root = tracer.open("design_sweep.op", op_id, None);
                    let l = &mut out.layers;
                    let (space, s1) = tracer
                        .time("sweep.grid", op_id, root, || DesignSpace::grid(base.clone(), build_axes(&op.grid)));
                    l.push("sweep.grid_s", s1);
                    let (sweep, s2) = tracer.time("sweep.evaluate", op_id, root, || space.sweep_opts(app, opts));
                    l.push("sweep.evaluate_s", s2);
                    l.push("sweep.points", sweep.points.len() as f64);
                    l.push("sweep.points_per_s", sweep.points.len() as f64 / s2);
                    let (rtop, s3) = tracer.time("sweep.rank", op_id, root, || {
                        sweep.top(10).iter().map(|p| (p.index, p.total)).collect::<Vec<_>>()
                    });
                    l.push("sweep.rank_s", s3);
                    let (rbest, s4) = tracer.time("sweep.hydrate", op_id, root, || sweep.hydrate(app, rtop[0].0));
                    l.push("sweep.hydrate_s", s4);
                    let wall = tracer.close(root);
                    let same = rtop.len() == top.len()
                        && rtop.iter().zip(&top).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
                        && rbest.total.to_bits() == best.total.to_bits();
                    out.check.op(same, || format!("design_sweep {id}: replay differs from the op"));
                    untraced.push(lat);
                    replayed.push(wall);
                    stage_sums.push(s1 + s2 + s3 + s4);
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
        out.layers.set("sweep.overhead_s", overhead(&untraced, &stage_sums));
        out.layers.set("trace.overhead_share", trace_share(&replayed, &untraced));
        tracer.write_run(args)?;
    }
    Ok(out)
}
