//! `serve_mixed`: the HTTP service, driven by one closed-loop keep-alive
//! client.
//!
//! Set-up starts an in-process `Server` (2 workers, the repository's
//! `machines/` loaded) and primes its store with the five paper
//! applications at test scale and three of them at eval scale. Each pass
//! is 100 requests in a seeded order: 20 warm `/v1/project` and 59 warm
//! `/v1/explain` requests across those eight (app, scale) pairs × five
//! machines, 20 `/v1/sweep` requests on
//! 100-point grids, and 1 cold `/v1/project` with inline source and a
//! seeded `N` override that misses the store and inserts into it; every
//! third pass adds a `/metrics` scrape. Every response must be 200 and its
//! body must hash to the digest in `expected.tsv`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use xflow::serve::{
    AxisSpec, ProjectResponse, ProjectUnit, RunningServer, SweepPointBody, SweepResponse, WorkloadRequest,
};
use xflow::xflow_hw::MachineRegistry;
use xflow::xflow_validate::jsonfmt::to_json;
use xflow::{
    explain, ArtifactStore, Axis, Criteria, DesignSpace, InputSpec, MachineModel, MachineProjection, ModeledApp,
    PerfModel, Roofline, Scale, ServeConfig, Server, Session, StoreConfig, SweepOptions,
};

use crate::expected::{bench_dir, AccuracyTally, Expected};
use crate::harness::{base_setup, closed_loop, Checker, Outcome, RunArgs, SetupTimes, Tracer};
use crate::programs::{generated, paper, sequence_digest, DIGEST_PASSES, EPOCH_PASSES, GEN_POOL};
use crate::rng::{digest, Rng};
use crate::stats::{median, percentile};
use crate::sweep::random_grid;

/// The five machines warm requests target (two built-ins, three files).
const MACHINES: [&str; 5] = ["bgq", "xeon", "skylake", "epyc", "a64fx"];
const SCALES: [Scale; 2] = [Scale::Test, Scale::Eval];
/// Applications warm requests also ask for at eval scale.
const EVAL_APPS: [&str; 3] = ["CHARGEI", "SRAD", "SORD"];
/// `/v1/sweep` requests in the pool.
const SWEEP_POOL: usize = 32;
/// `N` overrides a cold request draws from (`4..4+COLD_N`).
const COLD_N: usize = 17;
/// Cold request variants: every generated program × every `N`.
const COLD_POOL: usize = GEN_POOL * COLD_N;
/// Requests per pass by class. Sorted by latency a pass is 20 warm
/// projects (~0.2 ms), then 59 warm explains and the cold request (~0.4
/// ms), then 20 sweeps (~0.7 ms): the median falls in the middle of the
/// explains and the 90th percentile in the middle of the sweeps, not on a
/// tail or a boundary between classes. Tails of the light requests are set
/// by thread wake-ups, which vary with host load far more than compute
/// does, so this keeps both percentiles steadier from run to run.
const PROJECTS_PER_PASS: usize = 20;
const EXPLAINS_PER_PASS: usize = 59;
const SWEEPS_PER_PASS: usize = 20;
const CRITERIA: Criteria = Criteria { time_coverage: 0.9, code_leanness: 0.25 };

/// One request of the pool: how to send it and how to rebuild its body.
#[derive(Clone)]
pub struct PoolReq {
    /// Key of the body digest in `expected.tsv`.
    pub key: String,
    pub path: &'static str,
    pub json: String,
    pub source: String,
    pub inputs: InputSpec,
    pub machine: &'static str,
    kind: Kind,
}

#[derive(Clone, PartialEq)]
enum Kind {
    Project,
    Explain,
    Sweep(Vec<(&'static str, Vec<f64>)>),
}

fn request_json(workload: Option<&str>, source: Option<&str>, scale: Option<&str>, machine: &str) -> WorkloadRequest {
    WorkloadRequest {
        workload: workload.map(str::to_string),
        source: source.map(str::to_string),
        machine: Some(machine.to_string()),
        scale: scale.map(str::to_string),
        ..WorkloadRequest::default()
    }
}

/// Warm requests: (project | explain) × app × scale × machine. Eval scale
/// covers the three applications whose eval-scale build takes under a
/// second: priming CFD and STASSUIJ at eval scale would add about 5 s to
/// every set-up, while a warm request costs the same at either scale (the
/// plan's size does not depend on the inputs).
pub fn warm_pool() -> Vec<PoolReq> {
    let mut out = Vec::new();
    for (path, kind) in [("/v1/project", Kind::Project), ("/v1/explain", Kind::Explain)] {
        for scale in SCALES {
            for p in paper(scale).into_iter().filter(|p| scale == Scale::Test || EVAL_APPS.contains(&p.name.as_str())) {
                for machine in MACHINES {
                    let req = request_json(Some(&p.name.to_lowercase()), None, Some(p.scale), machine);
                    out.push(PoolReq {
                        key: format!("{}/{}/{machine}", &path[4..], p.id()),
                        path,
                        json: to_json(&req),
                        source: p.source.clone(),
                        inputs: p.inputs.clone(),
                        machine,
                        kind: kind.clone(),
                    });
                }
            }
        }
    }
    out
}

/// Sweep request `i`: a fixed app and machine, two seeded 10-value axes.
pub fn sweep_req(i: usize) -> PoolReq {
    let p = &paper(Scale::Test)[i % 5];
    let machine = MACHINES[(i / 5) % 5];
    let grid = random_grid(&mut Rng::new(0x5eed_0000 + i as u64), &[10, 10], &[10, 10]);
    let mut req = request_json(Some(&p.name.to_lowercase()), None, Some("test"), machine);
    req.axes = Some(grid.iter().map(|(n, v)| AxisSpec { name: n.to_string(), values: v.clone() }).collect());
    PoolReq {
        key: format!("sweep/{i}"),
        path: "/v1/sweep",
        json: to_json(&req),
        source: p.source.clone(),
        inputs: p.inputs.clone(),
        machine,
        kind: Kind::Sweep(grid),
    }
}

/// Cold request variant `v`: generated program `v / COLD_N` as inline
/// source with `N = 4 + v % COLD_N`.
pub fn cold_req(v: usize) -> PoolReq {
    let (g, n) = (v / COLD_N, 4 + v % COLD_N);
    let prog = generated(g);
    let machine = MACHINES[(g + n) % 5];
    let mut req = request_json(None, Some(&prog.source), None, machine);
    req.inputs = Some(BTreeMap::from([("N".to_string(), n as f64)]));
    let mut inputs = InputSpec::new();
    inputs.set("N", n as f64);
    PoolReq {
        key: format!("cold/{}/{n}/{machine}", prog.name),
        path: "/v1/project",
        json: to_json(&req),
        source: prog.source,
        inputs,
        machine,
        kind: Kind::Project,
    }
}

/// Built-in machines plus the repository's machine files.
pub fn machine_registry() -> Result<MachineRegistry, String> {
    let mut reg = MachineRegistry::builtin();
    reg.load_dir(&machines_dir())?;
    Ok(reg)
}

fn machines_dir() -> std::path::PathBuf {
    bench_dir().join("..").join("machines")
}

/// Two workers and the store's default capacity. The bounded store keeps
/// memory flat while cold requests insert: they evict each other (never
/// the warm entries, which are touched every few requests), so peak memory
/// does not grow with throughput.
fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        store: StoreConfig::default(),
        machines_dir: Some(machines_dir().to_string_lossy().into_owned()),
        recorder: None,
    }
}

/// `/v1/project` body, built the way the handler builds it.
pub fn project_body(app: &ModeledApp, mp: &MachineProjection, machine: &MachineModel) -> String {
    let sel = mp.select(&app.units, CRITERIA);
    let units = sel
        .spots
        .iter()
        .take(10)
        .map(|s| {
            let bound =
                mp.unit_breakdown.get(&s.stmt).map(|b| if b.tm > b.tc { "memory" } else { "compute" }).unwrap_or("-");
            ProjectUnit {
                rank: s.rank as u64 + 1,
                unit: app.units.name(s.stmt).to_string(),
                time: s.time,
                coverage: s.coverage,
                bound: bound.to_string(),
            }
        })
        .collect();
    to_json(&ProjectResponse {
        machine: machine.name.clone(),
        model: Roofline.name().to_string(),
        total: mp.total,
        units,
    })
}

/// The response body a request must get, computed in-process without the
/// server or its store (the reference for `--build-expected`).
pub fn reference_body(req: &PoolReq, session: &Session, reg: &MachineRegistry) -> Result<String, String> {
    let machine = reg.get(req.machine).ok_or_else(|| format!("unknown machine {}", req.machine))?;
    let app = session.model(&req.source, &req.inputs).map_err(|e| format!("{}: {e}", req.key))?;
    Ok(match &req.kind {
        Kind::Project => project_body(&app, &app.project_on(machine), machine),
        Kind::Explain => explain(&app, machine).to_json() + "\n",
        Kind::Sweep(grid) => {
            let axes: Vec<Axis> = grid.iter().map(|(n, v)| Axis::by_name(n, v).expect("sweepable axis")).collect();
            let space = DesignSpace::grid(machine.clone(), axes);
            let sweep = space.sweep_opts(&app, SweepOptions::default());
            let base_total = sweep.points.first().map(|p| p.total).unwrap_or(0.0);
            let top = sweep
                .top(10)
                .into_iter()
                .map(|p| SweepPointBody {
                    index: p.index as u64,
                    machine: p.machine.clone(),
                    total: p.total,
                    top_unit: p.top_unit.map(|u| app.units.name(u).to_string()),
                    memory_bound: p.memory_bound,
                    speedup: if p.total > 0.0 { base_total / p.total } else { f64::INFINITY },
                })
                .collect();
            to_json(&SweepResponse {
                base_machine: machine.name.clone(),
                model: Roofline.name().to_string(),
                points: space.len() as u64,
                top,
            })
        }
    })
}

/// Minimal keep-alive HTTP/1.1 client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader, writer })
    }

    /// Send one request and read the response: `(status, body)`.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n", body.len());
        self.writer.write_all(format!("{head}{body}").as_bytes())?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| bad("status"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// One request of a pass.
#[derive(Clone, Copy)]
enum Op {
    Warm(usize),
    Sweep(usize),
    Cold,
    Metrics,
}

/// Seeded pass generator: the class mix is fixed per pass, the picks and
/// their order are seeded.
struct OpStream {
    rng: Rng,
    pass: usize,
}

impl OpStream {
    /// `warm` is the warm pool's length: project requests fill its first
    /// half, explain requests its second.
    fn next_pass(&mut self, warm: usize) -> Vec<Op> {
        let half = warm / 2;
        let mut ops: Vec<Op> = (0..PROJECTS_PER_PASS).map(|_| Op::Warm(self.rng.below(half))).collect();
        ops.extend((0..EXPLAINS_PER_PASS).map(|_| Op::Warm(half + self.rng.below(half))));
        ops.extend((0..SWEEPS_PER_PASS).map(|_| Op::Sweep(self.rng.below(SWEEP_POOL))));
        ops.push(Op::Cold);
        if self.pass % 3 == 2 {
            ops.push(Op::Metrics);
        }
        self.rng.shuffle(&mut ops);
        self.pass += 1;
        ops
    }
}

fn op_label(op: Op, warm: &[PoolReq]) -> String {
    match op {
        Op::Warm(i) => warm[i].key.clone(),
        Op::Sweep(i) => format!("sweep/{i}"),
        Op::Cold => "cold".to_string(),
        Op::Metrics => "metrics".to_string(),
    }
}

struct State {
    server: RunningServer,
    client: Client,
    expected: Expected,
    warm: Vec<PoolReq>,
    sweeps: Vec<PoolReq>,
    cold_order: Vec<usize>,
    registry: MachineRegistry,
    digest: String,
}

fn setup(seed: u64) -> Result<State, String> {
    let expected = base_setup()?;
    let server = Server::bind(serve_config())?.start()?;
    let mut client = Client::connect(server.addr())?;
    let warm = warm_pool();
    // prime the store: one project request per (app, scale), checked
    for req in warm.iter().filter(|r| r.kind == Kind::Project && r.machine == "bgq") {
        let (status, body) = client.call("POST", req.path, &req.json).map_err(|e| e.to_string())?;
        if status != 200 || expected.body(&req.key) != Some(digest(&body).as_str()) {
            return Err(format!("priming {}: status {status} or body differs from expected.tsv", req.key));
        }
    }
    let sweeps = (0..SWEEP_POOL).map(sweep_req).collect();
    let mut cold_order: Vec<usize> = (0..COLD_POOL).collect();
    Rng::new(seed ^ 0xc01d).shuffle(&mut cold_order);
    let mut s = OpStream { rng: Rng::new(seed), pass: 0 };
    let digest =
        sequence_digest(DIGEST_PASSES, || s.next_pass(warm.len()).iter().map(|&o| op_label(o, &warm)).collect());
    let registry = machine_registry()?;
    Ok(State { server, client, expected, warm, sweeps, cold_order, registry, digest })
}

fn teardown(st: State) {
    drop(st.client);
    st.server.stop();
}

/// Client-observed latencies per request class, in seconds.
#[derive(Default)]
struct Classes {
    project: Vec<f64>,
    explain: Vec<f64>,
    sweep: Vec<f64>,
    cold: Vec<f64>,
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut setups = SetupTimes::default();
    let mut st = setups.time(|| setup(args.seed))?;
    let mut out = Outcome { sequence_digest: st.digest.clone(), ..Outcome::default() };
    let mut tally = AccuracyTally::default();
    let mut tracer = Tracer::default();
    let mut classes = Classes::default();
    let (mut project_replays, mut project_stages, mut replays) = (Vec::new(), Vec::new(), 0u64);
    let store = Arc::clone(st.server.store());
    let before = store.stats();
    let mut stream = OpStream { rng: Rng::new(args.seed), pass: 0 };
    let mut cold_next = 0usize;
    let mut op_id = 0usize;

    let passes = closed_loop(
        args.seconds,
        EPOCH_PASSES,
        |pass| {
            for op in stream.next_pass(st.warm.len()) {
                let cold;
                let req = match op {
                    Op::Warm(i) => &st.warm[i],
                    Op::Sweep(i) => &st.sweeps[i],
                    Op::Cold => {
                        cold = cold_req(st.cold_order[cold_next % COLD_POOL]);
                        cold_next += 1;
                        &cold
                    }
                    Op::Metrics => {
                        let t = Instant::now();
                        let r = st.client.call("GET", "/metrics", "");
                        out.latencies.push("/metrics", t.elapsed().as_secs_f64());
                        let ok = matches!(&r, Ok((200, b)) if String::from_utf8_lossy(b).contains("serve_requests "));
                        out.check.op(ok, || "serve_mixed /metrics: bad scrape".to_string());
                        continue;
                    }
                };
                let t = Instant::now();
                let r = st.client.call("POST", req.path, &req.json);
                let lat = t.elapsed().as_secs_f64();
                out.latencies.push(if matches!(op, Op::Cold) { "cold" } else { &req.key }, lat);
                let ok = matches!(&r, Ok((200, b)) if st.expected.body(&req.key) == Some(digest(b).as_str()));
                out.check.op(ok, || format!("serve_mixed {}: {:?}", req.key, r.as_ref().map(|x| x.0)));
                if pass < EPOCH_PASSES && matches!(op, Op::Warm(_)) && req.key.contains("/test/") {
                    let combo = req.key.split_once('/').map_or("", |x| x.1).to_string();
                    let prog = combo.rsplit_once('/').map_or("", |x| x.0);
                    if let Some(acc) = st.expected.accuracy(prog, req.machine) {
                        tally.add(combo, acc);
                    }
                }
                if !args.trace {
                    continue;
                }
                match (&req.kind, op) {
                    (Kind::Sweep(_), _) => classes.sweep.push(lat),
                    (_, Op::Cold) => classes.cold.push(lat),
                    (Kind::Project, _) => classes.project.push(lat),
                    (Kind::Explain, _) => classes.explain.push(lat),
                }
                if let (Op::Warm(_), Ok((_, body))) = (op, &r) {
                    let (same, wall, stages) = replay(&mut tracer, &mut out, op_id, req, &store, &st.registry, body);
                    out.check.op(same, || format!("serve_mixed {}: replay body differs", req.key));
                    replays += 1;
                    if req.kind == Kind::Project {
                        project_replays.push(wall);
                        project_stages.push(stages);
                    }
                }
                op_id += 1;
            }
        },
        || setups.repeat(|| setup(args.seed), teardown),
    );

    out.passes = passes;
    out.setup = setups;
    out.accuracy = tally.mean();
    out.notes.push(format!("cold_requests={cold_next} cold_pool={COLD_POOL}"));
    if args.trace {
        let ms = |v: &[f64]| median(v) * 1e3;
        let l = &mut out.layers;
        l.set("serve.project_ms", ms(&classes.project));
        l.set("serve.explain_ms", ms(&classes.explain));
        l.set("serve.sweep_ms", ms(&classes.sweep));
        l.set("serve.cold_ms", ms(&classes.cold));
        l.set("serve.p99_ms", percentile(&out.latencies.observed(), 0.99) * 1e3);
        l.set("serve.http_overhead_ms", ms(&classes.project) - ms(&project_stages));
        l.set("trace.overhead_share", crate::harness::trace_share(&project_replays, &classes.project));
        // store counters of the timed phase, minus the replays' own lookups
        // (each replay is one warm six-stage model lookup)
        let after = store.stats();
        let hits = after.hits() + after.disk_hits() - before.hits() - before.disk_hits() - 6 * replays;
        let misses = after.misses() - before.misses();
        l.set("store.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        l.set("store.misses", misses as f64);
        l.set("store.singleflight_waits", (after.singleflight_waits() - before.singleflight_waits()) as f64);
        out.notes.push(format!(
            "serve samples: project={} explain={} sweep={} cold={}",
            classes.project.len(),
            classes.explain.len(),
            classes.sweep.len(),
            classes.cold.len()
        ));
        tracer.write_run(args)?;
    }
    teardown(st);
    Ok(out)
}

/// Replay a warm request in-process on the server's store: warm model
/// lookup, projection (or explain), encoding. Returns whether the replayed
/// body equals the served one, the replay wall time and Σ stage time.
fn replay(
    tracer: &mut Tracer,
    out: &mut Outcome,
    op: usize,
    req: &PoolReq,
    store: &Arc<ArtifactStore>,
    reg: &MachineRegistry,
    served: &[u8],
) -> (bool, f64, f64) {
    let Some(machine) = reg.get(req.machine) else { return (false, 0.0, 0.0) };
    let root = tracer.open("serve_mixed.replay", op, None);
    let session = Session::with_store(Arc::clone(store));
    let (app, s_model) = tracer.time("session.model_warm", op, root, || session.model(&req.source, &req.inputs));
    let l = &mut out.layers;
    l.push("session.model_warm_s", s_model);
    let Ok(app) = app else {
        tracer.close(root);
        return (false, 0.0, 0.0);
    };
    let (body, stages) = match req.kind {
        Kind::Explain => {
            let (report, s1) = tracer.time("explain.build", op, root, || explain(&app, machine));
            let (json, s2) = tracer.time("validate.jsonfmt", op, root, || to_json(&report));
            l.push("explain.build_s", s1);
            l.push("validate.jsonfmt_s", s2);
            (json + "\n", s1 + s2)
        }
        _ => {
            let (mp, s1) = tracer.time("hotspot.project", op, root, || app.project_on(machine));
            let (json, s2) = tracer.time("serve.encode", op, root, || project_body(&app, &mp, machine));
            l.push("hotspot.project_s", s1);
            (json, s1 + s2)
        }
    };
    let wall = tracer.close(root);
    (body.as_bytes() == served, wall, s_model + stages)
}

/// Digest every pool body from its in-process reference, and check a live
/// server serves exactly those bytes (used by `--build-expected`).
pub fn reference_bodies(reg: &MachineRegistry) -> Result<Vec<(String, String)>, String> {
    let session = Session::with_config(xflow::SessionConfig { capacity: Some(1 << 14), ..Default::default() });
    let mut pool = warm_pool();
    pool.extend((0..SWEEP_POOL).map(sweep_req));
    pool.extend((0..COLD_POOL).map(cold_req));
    let server = Server::bind(serve_config())?.start()?;
    let mut client = Client::connect(server.addr())?;
    let mut check = Checker::default();
    let mut out = Vec::with_capacity(pool.len());
    for req in &pool {
        let body = reference_body(req, &session, reg)?;
        let served = client.call("POST", req.path, &req.json).map_err(|e| e.to_string())?;
        check.op(served.0 == 200 && served.1 == body.as_bytes(), || format!("{}: server body differs", req.key));
        out.push((req.key.clone(), digest(body.as_bytes())));
    }
    drop(client);
    server.stop();
    if check.failed > 0 {
        return Err(format!(
            "{} of {} served bodies differ from the in-process reference",
            check.failed, check.attempted
        ));
    }
    Ok(out)
}
