//! The projection service: a dependency-light threadpool HTTP/1.1 server
//! over a shared [`ArtifactStore`].
//!
//! Every worker thread accepts connections off one listener (the kernel
//! load-balances `accept` across the clones), parses requests with
//! [`crate::serve::protocol`], and answers off the same artifact store — so N clients
//! asking for the same cold workload trigger exactly one pipeline build
//! (the store's single-flight latch), and warm requests are pure cache
//! hits. The store is also installed as the process-wide store, which is
//! what lets `xflow cache stats` report live counters while a server is
//! running in-process.
//!
//! Endpoints:
//!
//! | route              | body                              | response |
//! |--------------------|-----------------------------------|----------|
//! | `POST /v1/project` | [`WorkloadRequest`]               | [`ProjectResponse`] |
//! | `POST /v1/explain` | [`WorkloadRequest`]               | [`crate::Explain`] — byte-identical to `xflow explain --json` |
//! | `POST /v1/sweep`   | request with `axes`               | [`SweepResponse`] |
//! | `GET /healthz`     | —                                 | [`HealthBody`] |
//! | `GET /metrics`     | —                                 | Prometheus text exposition 0.0.4 (counters + bucketed histograms) |
//! | `GET /debug/flight` | —                                | Chrome-trace JSON snapshot of the always-on flight ring |
//! | `GET /debug/flight/last` | —                           | the flight dump frozen by the most recent failed request (404 if none) |

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::session::Session;
use crate::store::{install_process_store, ArtifactStore, StoreConfig};
use crate::sweep::{Axis, DesignSpace, SweepOptions};
use crate::{Criteria, InputSpec, PerfModel, Roofline};
use xflow_hw::{MachineModel, MachineRegistry};
use xflow_obs::{MetricsRegistry, Recorder};
use xflow_workloads::Scale;

use super::middleware::{request_id, RequestObs};
use super::protocol::{
    read_request, write_response, HeadTooLarge, HealthBody, HttpRequest, HttpResponse, ProjectResponse, ProjectUnit,
    SweepPointBody, SweepResponse, WorkloadRequest,
};

/// How often a worker parked on an idle keep-alive connection wakes to
/// check the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// How long a request may take to arrive once its first byte has: a
/// client that stalls mid-request past this gets 408 and the connection
/// is closed.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Most design-space points one `/v1/sweep` request may ask for (the
/// product of its axis value counts); larger grids get a 422 before any
/// machine is built.
pub const MAX_SWEEP_POINTS: usize = 16_384;

/// Configuration for [`Server::bind`].
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads accepting and serving connections.
    pub threads: usize,
    /// Artifact store configuration (cache dir, capacity, shards).
    pub store: StoreConfig,
    /// Directory of declarative machine files; `None` loads `machines/`
    /// from the working directory when present.
    pub machines_dir: Option<String>,
    /// Recorder for per-request spans (tests and `--trace-out` captures).
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7070".to_string(),
            threads: 4,
            store: StoreConfig::default(),
            machines_dir: None,
            recorder: None,
        }
    }
}

/// Shared server state, one instance behind an `Arc` for all workers.
struct Inner {
    store: Arc<ArtifactStore>,
    machines: MachineRegistry,
    obs: RequestObs,
    shutdown: AtomicBool,
}

/// A bound (but not yet serving) projection server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    threads: usize,
    inner: Arc<Inner>,
}

/// A serving server; dropping it does **not** stop the workers — call
/// [`RunningServer::stop`] (tests) or let the process own it (CLI).
pub struct RunningServer {
    addr: SocketAddr,
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind the listener, build the machine registry, and install the
    /// shared artifact store as the process-wide store.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let mut machines = MachineRegistry::builtin();
        let dir = config.machines_dir.clone().unwrap_or_else(|| "machines".to_string());
        machines.load_dir(std::path::Path::new(&dir))?;
        let store = ArtifactStore::shared(config.store);
        install_process_store(&store);
        let listener = TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let obs = RequestObs::new(store.clone(), config.recorder);
        let inner = Arc::new(Inner { store, machines, obs, shutdown: AtomicBool::new(false) });
        Ok(Server { listener, addr, threads: config.threads.max(1), inner })
    }

    /// The bound address (useful with `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared artifact store requests are answered from.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.inner.store
    }

    /// Spawn the worker threads and return a handle. Each worker accepts
    /// on a clone of the listener; connections are served keep-alive
    /// until the client closes or asks to.
    pub fn start(self) -> Result<RunningServer, String> {
        let mut handles = Vec::with_capacity(self.threads);
        for i in 0..self.threads {
            let listener = self.listener.try_clone().map_err(|e| format!("cannot clone listener: {e}"))?;
            let inner = self.inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("xflow-serve-{i}"))
                .spawn(move || worker_loop(&listener, &inner))
                .map_err(|e| format!("cannot spawn worker: {e}"))?;
            handles.push(handle);
        }
        Ok(RunningServer { addr: self.addr, inner: self.inner, handles })
    }

    /// Serve forever on the calling thread (the CLI `serve` path).
    pub fn run(self) -> Result<(), String> {
        let running = self.start()?;
        for h in running.handles {
            let _ = h.join();
        }
        Ok(())
    }
}

impl RunningServer {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.inner.store
    }

    /// Stop the workers: raise the shutdown flag, then poke the listener
    /// once per worker so blocked `accept` calls wake up and observe it.
    pub fn stop(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for _ in 0..self.handles.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                handle_connection(stream, inner);
            }
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Serve one connection: keep-alive request loop with per-request
/// middleware (id, span, counters) around the router.
///
/// Between requests the worker polls the connection with `fill_buf`
/// under a short timeout, so it still observes the shutdown flag; a
/// timed-out poll consumes nothing. Once a request's first byte is
/// buffered, the whole request is read under one deadline
/// ([`REQUEST_READ_TIMEOUT`]), however the client splits it.
fn handle_connection(stream: TcpStream, inner: &Inner) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let read = read_request(&mut Deadline { reader: &mut reader, at: Instant::now() + REQUEST_READ_TIMEOUT });
        let _ = writer.set_read_timeout(Some(IDLE_POLL));
        let req = match read {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(e) => {
                let resp = if is_timeout(&e) {
                    HttpResponse::error(408, "request not received in time")
                } else if HeadTooLarge::is(&e) {
                    HttpResponse::error(431, &e.to_string())
                } else {
                    HttpResponse::error(400, &format!("malformed request: {e}"))
                };
                let _ = write_response(&mut writer, &resp, true);
                linger(&mut reader, &writer);
                return;
            }
        };
        let id = request_id(&req);
        let span = inner.obs.start(&req.method, &req.path, &id);
        let mut resp = route(inner, &req);
        inner.obs.finish(span, &id, &mut resp);
        let close = req.wants_close() || inner.shutdown.load(Ordering::SeqCst);
        if write_response(&mut writer, &resp, close).is_err() || close {
            return;
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// The connection's reader while a request is in flight: before each read
/// that must wait on the socket, the read timeout shrinks to what is left
/// of the request's deadline, and a passed deadline is a `TimedOut` error.
struct Deadline<'a> {
    reader: &'a mut BufReader<TcpStream>,
    at: Instant,
}

impl Deadline<'_> {
    fn arm(&mut self) -> std::io::Result<()> {
        if !self.reader.buffer().is_empty() {
            return Ok(());
        }
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.reader.get_ref().set_read_timeout(Some(left))
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.arm()?;
        self.reader.read(buf)
    }
}

impl BufRead for Deadline<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.arm()?;
        self.reader.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.reader.consume(n);
    }
}

/// Lingering close after an error response: closing with unread request
/// bytes resets the connection, which can discard the response before the
/// client reads it. Half-close, then drain what the client still sends
/// for at most about a second.
fn linger(reader: &mut impl Read, writer: &TcpStream) {
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut buf = [0u8; 8192];
    while Instant::now() < deadline && matches!(reader.read(&mut buf), Ok(n) if n > 0) {}
}

fn route(inner: &Inner, req: &HttpRequest) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => handle_health(inner),
        ("GET", "/metrics") => HttpResponse::prometheus(render_prometheus(inner.store.registry())),
        ("GET", "/debug/flight") => HttpResponse::json(200, inner.obs.flight().snapshot().to_chrome_json()),
        ("GET", "/debug/flight/last") => match inner.obs.last_failure() {
            Some(dump) => HttpResponse::json(200, dump),
            None => HttpResponse::error(404, "no failed request captured yet"),
        },
        ("POST", "/v1/project") => handle_project(inner, &req.body),
        ("POST", "/v1/explain") => handle_explain(inner, &req.body),
        ("POST", "/v1/sweep") => handle_sweep(inner, &req.body),
        (_, "/healthz" | "/metrics" | "/debug/flight" | "/debug/flight/last") => HttpResponse::error(405, "use GET"),
        (_, "/v1/project" | "/v1/explain" | "/v1/sweep") => HttpResponse::error(405, "use POST"),
        _ => HttpResponse::error(404, &format!("no route for {}", req.path)),
    }
}

fn handle_health(inner: &Inner) -> HttpResponse {
    let body = HealthBody {
        status: "ok".to_string(),
        workloads: xflow_workloads::all().len() as u64,
        machines: inner.machines.names().len() as u64,
    };
    HttpResponse::json(200, xflow_validate::jsonfmt::to_json(&body))
}

/// Sanitize a dotted registry name into the Prometheus metric-name
/// charset `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other byte becomes `_`, and
/// a leading digit gets an underscore prefix.
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Render the registry in the Prometheus text exposition format 0.0.4,
/// sorted by name. Counters become `counter` families; histograms become
/// `histogram` families with the fixed log-scale bucket ladder
/// ([`xflow_obs::BUCKET_BOUNDS`]) as cumulative `_bucket{le="..."}` series plus
/// `_sum`/`_count`, and their exact observed extrema ride along as
/// `_min`/`_max` gauges. Covers both the session stage counters
/// (`session.<stage>.*`) and the serve middleware counters (`serve.*`).
pub fn render_prometheus(registry: &MetricsRegistry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in registry.counters() {
        let n = sanitize_metric_name(&name);
        let _ = writeln!(out, "# HELP {n} xflow counter {name}");
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, h) in registry.histograms() {
        let n = sanitize_metric_name(&name);
        let _ = writeln!(out, "# HELP {n} xflow histogram {name}");
        let _ = writeln!(out, "# TYPE {n} histogram");
        for (le, cum) in h.cumulative_buckets() {
            let _ = writeln!(out, "{n}_bucket{{le=\"{le:?}\"}} {cum}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {:?}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
        if h.count > 0 {
            let _ = writeln!(out, "# HELP {n}_min xflow histogram {name} observed minimum");
            let _ = writeln!(out, "# TYPE {n}_min gauge");
            let _ = writeln!(out, "{n}_min {:?}", h.min);
            let _ = writeln!(out, "# HELP {n}_max xflow histogram {name} observed maximum");
            let _ = writeln!(out, "# TYPE {n}_max gauge");
            let _ = writeln!(out, "{n}_max {:?}", h.max);
        }
    }
    out
}

/// A request body resolved against the workload catalog and machine
/// registry: program source, bound inputs, target machine, row budget.
struct Resolved {
    src: String,
    inputs: InputSpec,
    machine: MachineModel,
    top: usize,
    axes: Vec<Axis>,
}

/// Parse and resolve a modeling request body; errors become ready-to-send
/// 400 responses so handlers can `?` straight through.
fn resolve(inner: &Inner, body: &[u8]) -> Result<Resolved, Box<HttpResponse>> {
    let text = std::str::from_utf8(body).map_err(|_| Box::new(HttpResponse::error(400, "body is not utf-8")))?;
    if text.trim().is_empty() {
        return Err(Box::new(HttpResponse::error(400, "empty body; POST a JSON WorkloadRequest")));
    }
    let req: WorkloadRequest = serde_json::from_str(text)
        .map_err(|e| Box::new(HttpResponse::error(400, &format!("bad request JSON: {e}"))))?;

    let (src, mut inputs) = match (&req.workload, &req.source) {
        (Some(_), Some(_)) => {
            return Err(Box::new(HttpResponse::error(400, "give either `workload` or `source`, not both")))
        }
        (None, None) => return Err(Box::new(HttpResponse::error(400, "missing `workload` or `source`"))),
        (None, Some(src)) => (src.clone(), InputSpec::new()),
        (Some(name), None) => {
            let scale = match req.scale.as_deref() {
                None | Some("test") => Scale::Test,
                Some("eval") => Scale::Eval,
                Some(other) => {
                    return Err(Box::new(HttpResponse::error(400, &format!("unknown scale `{other}` (test | eval)"))))
                }
            };
            let want = name.to_lowercase();
            let w = xflow_workloads::all()
                .into_iter()
                .find(|w| w.name.to_lowercase() == want)
                .ok_or_else(|| Box::new(HttpResponse::error(400, &format!("unknown workload `{name}`"))))?;
            (w.source.to_string(), w.inputs(scale))
        }
    };
    if let Some(overrides) = &req.inputs {
        for (k, v) in overrides {
            inputs.set(k, *v);
        }
    }

    let machine_name = req.machine.as_deref().unwrap_or("bgq");
    let machine = inner.machines.get(machine_name).cloned().ok_or_else(|| {
        Box::new(HttpResponse::error(
            400,
            &format!("unknown machine `{machine_name}` (known: {})", inner.machines.names().join(", ")),
        ))
    })?;

    let mut axes = Vec::new();
    for spec in req.axes.iter().flatten() {
        let axis = Axis::by_name(&spec.name, &spec.values).map_err(|e| Box::new(HttpResponse::error(400, &e)))?;
        axes.push(axis);
    }

    Ok(Resolved { src, inputs, machine, top: req.top.unwrap_or(10) as usize, axes })
}

/// Model the request's program on the shared store; pipeline errors (bad
/// source, missing inputs) are the client's fault → 400.
fn model(inner: &Inner, r: &Resolved) -> Result<crate::ModeledApp, Box<HttpResponse>> {
    let session = Session::with_store_and_recorder(inner.store.clone(), inner.obs.recorder());
    session.model(&r.src, &r.inputs).map_err(|e| Box::new(HttpResponse::error(400, &e.to_string())))
}

fn handle_project(inner: &Inner, body: &[u8]) -> HttpResponse {
    let r = match resolve(inner, body) {
        Ok(r) => r,
        Err(resp) => return *resp,
    };
    let app = match model(inner, &r) {
        Ok(app) => app,
        Err(resp) => return *resp,
    };
    let mp = app.project_on(&r.machine);
    let sel = mp.select(&app.units, Criteria { time_coverage: 0.9, code_leanness: 0.25 });
    let units = sel
        .spots
        .iter()
        .take(r.top)
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
    let resp =
        ProjectResponse { machine: r.machine.name.clone(), model: Roofline.name().to_string(), total: mp.total, units };
    HttpResponse::json(200, xflow_validate::jsonfmt::to_json(&resp))
}

fn handle_explain(inner: &Inner, body: &[u8]) -> HttpResponse {
    let r = match resolve(inner, body) {
        Ok(r) => r,
        Err(resp) => return *resp,
    };
    let app = match model(inner, &r) {
        Ok(app) => app,
        Err(resp) => return *resp,
    };
    // Exactly `Explain::to_json() + "\n"` — the same bytes `xflow explain
    // <workload> --machine <m> --json` prints, so a client (or the CI
    // smoke job) can diff the two outputs verbatim.
    let report = crate::explain::explain(&app, &r.machine);
    let mut out = report.to_json();
    out.push('\n');
    HttpResponse::json(200, out)
}

fn handle_sweep(inner: &Inner, body: &[u8]) -> HttpResponse {
    let r = match resolve(inner, body) {
        Ok(r) => r,
        Err(resp) => return *resp,
    };
    if r.axes.is_empty() {
        return HttpResponse::error(400, "sweep needs at least one axis: {\"axes\":[{\"name\":...,\"values\":[...]}]}");
    }
    let points = r.axes.iter().try_fold(1usize, |n, a| n.checked_mul(a.values.len()));
    if points.is_none_or(|n| n > MAX_SWEEP_POINTS) {
        let asked = points.map_or_else(|| "more than usize::MAX".to_string(), |n| n.to_string());
        return HttpResponse::error(422, &format!("sweep asks for {asked} points; the limit is {MAX_SWEEP_POINTS}"));
    }
    let space = DesignSpace::grid(r.machine.clone(), r.axes.clone());
    if let Err(e) = space.check_machines() {
        return HttpResponse::error(422, &e);
    }
    let app = match model(inner, &r) {
        Ok(app) => app,
        Err(resp) => return *resp,
    };
    let sweep = space.sweep_opts(&app, SweepOptions::default());
    let base_total = sweep.points.first().map(|p| p.total).unwrap_or(0.0);
    let top = sweep
        .top(r.top)
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
    let resp = SweepResponse {
        base_machine: r.machine.name.clone(),
        model: Roofline.name().to_string(),
        points: space.len() as u64,
        top,
    };
    HttpResponse::json(200, xflow_validate::jsonfmt::to_json(&resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn start_test_server() -> RunningServer {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            machines_dir: Some("/nonexistent-machines-dir-for-tests".to_string()),
            ..ServeConfig::default()
        };
        // a missing explicit dir is an error only if named wrongly on the
        // CLI; the registry treats absent dirs as empty, so this keeps the
        // test hermetic from any machines/ in the working directory
        Server::bind(config).expect("bind").start().expect("start")
    }

    /// Minimal blocking HTTP client for tests: one request per connection.
    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, payload) = raw.split_once("\r\n\r\n").expect("response has a header/body split");
        let status: u16 = head.split_whitespace().nth(1).expect("status code").parse().expect("numeric status");
        (status, head.to_string(), payload.to_string())
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let server = start_test_server();
        let (status, head, body) = http(server.addr(), "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(head.to_lowercase().contains("x-request-id:"), "{head}");
        let (status, _, _) = http(server.addr(), "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _, _) = http(server.addr(), "GET", "/v1/project", "");
        assert_eq!(status, 405);
        server.stop();
    }

    #[test]
    fn project_answers_and_metrics_show_the_traffic() {
        let server = start_test_server();
        let (status, _, body) =
            http(server.addr(), "POST", "/v1/project", r#"{"workload":"cfd","machine":"bgq","top":3}"#);
        assert_eq!(status, 200, "{body}");
        let parsed: ProjectResponse = serde_json::from_str(&body).expect("valid ProjectResponse");
        assert_eq!(parsed.machine, "BG/Q");
        assert!(parsed.total > 0.0);
        assert!(parsed.units.len() <= 3 && !parsed.units.is_empty());

        let (status, head, metrics) = http(server.addr(), "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(metrics.contains("serve_requests "), "{metrics}");
        assert!(metrics.contains("session_parse_misses 1"), "{metrics}");
        assert!(metrics.contains("# TYPE serve_request_seconds histogram"), "{metrics}");
        assert!(metrics.contains("serve_request_seconds_bucket{le=\"+Inf\"} "), "{metrics}");
        assert!(metrics.contains("serve_request_seconds_count "), "{metrics}");
        server.stop();
    }

    #[test]
    fn flight_endpoints_snapshot_the_ring_and_serve_the_last_failure() {
        let server = start_test_server();
        let (status, _, resp) = http(server.addr(), "GET", "/debug/flight/last", "");
        assert_eq!(status, 404, "no failure yet: {resp}");

        let (status, _, flight) = http(server.addr(), "GET", "/debug/flight", "");
        assert_eq!(status, 200);
        assert!(flight.contains("\"traceEvents\""), "{flight}");
        assert!(flight.contains("serve.request"), "the 404 above is in the ring: {flight}");

        // the 404 above was a failed request, so a dump is now frozen
        let (status, _, dump) = http(server.addr(), "GET", "/debug/flight/last", "");
        assert_eq!(status, 200, "{dump}");
        assert!(dump.contains("\"traceEvents\""), "{dump}");
        assert!(dump.contains("serve.request"), "{dump}");
        server.stop();
    }

    #[test]
    fn prometheus_rendering_is_sanitized_and_bucketed() {
        let registry = MetricsRegistry::new();
        registry.add("serve.status.2xx", 3);
        registry.observe("serve.request_seconds", 0.004);
        registry.observe("serve.request_seconds", 0.04);
        let text = render_prometheus(&registry);
        assert!(text.contains("# TYPE serve_status_2xx counter\nserve_status_2xx 3\n"), "{text}");
        assert!(text.contains("serve_request_seconds_bucket{le=\"0.005\"} 1\n"), "{text}");
        assert!(text.contains("serve_request_seconds_bucket{le=\"0.05\"} 2\n"), "{text}");
        assert!(text.contains("serve_request_seconds_bucket{le=\"+Inf\"} 2\n"), "{text}");
        assert!(text.contains("serve_request_seconds_count 2\n"), "{text}");
        // every series name stays inside the Prometheus charset
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {name:?}"
            );
            assert!(!name.starts_with(|c: char| c.is_ascii_digit()), "{name}");
        }
    }

    #[test]
    fn sanitize_handles_edge_cases() {
        assert_eq!(sanitize_metric_name("serve.request_seconds"), "serve_request_seconds");
        assert_eq!(sanitize_metric_name("vm.pair.Bin.StoreElem"), "vm_pair_Bin_StoreElem");
        assert_eq!(sanitize_metric_name("2xx-rate"), "_2xx_rate");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn bad_requests_get_json_errors() {
        let server = start_test_server();
        let cases = [
            ("{}", "missing `workload` or `source`"),
            (r#"{"workload":"cfd","source":"x"}"#, "not both"),
            (r#"{"workload":"nosuch"}"#, "unknown workload"),
            (r#"{"workload":"cfd","machine":"warp-drive"}"#, "unknown machine"),
            (r#"{"workload":"cfd","scale":"huge"}"#, "unknown scale"),
            ("not json", "bad request JSON"),
        ];
        for (body, want) in cases {
            let (status, _, resp) = http(server.addr(), "POST", "/v1/project", body);
            assert_eq!(status, 400, "{body} → {resp}");
            assert!(resp.contains(want), "{body} → {resp}");
        }
        let (status, _, resp) = http(server.addr(), "POST", "/v1/sweep", r#"{"workload":"cfd"}"#);
        assert_eq!(status, 400);
        assert!(resp.contains("at least one axis"), "{resp}");
        server.stop();
    }

    #[test]
    fn sweep_returns_ranked_points_with_speedups() {
        let server = start_test_server();
        let body = r#"{"workload":"cfd","machine":"bgq","top":2,
                       "axes":[{"name":"dram_bw_gbs","values":[10,80]},{"name":"cores","values":[8,64]}]}"#;
        let (status, _, resp) = http(server.addr(), "POST", "/v1/sweep", body);
        assert_eq!(status, 200, "{resp}");
        let parsed: SweepResponse = serde_json::from_str(&resp).expect("valid SweepResponse");
        assert_eq!(parsed.points, 4);
        assert_eq!(parsed.top.len(), 2);
        assert!(parsed.top[0].total <= parsed.top[1].total, "top is sorted best-first");
        assert!(parsed.top.iter().all(|p| p.speedup > 0.0));
        server.stop();
    }
}
