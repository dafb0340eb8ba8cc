//! Projection-service benchmark: warm request throughput and latency,
//! plus the single-flight cold amortization win.
//!
//! Three measurements against an in-process server on a loopback port:
//!
//! * **cold single** — one `/v1/project` request against a fresh store:
//!   the whole model build (one `model` artifact) plus HTTP overhead;
//! * **warm traffic** — N sequential `/v1/project` requests against the
//!   primed store: pure cache-hit serving. Reports requests/s and
//!   p50/p99 latency;
//! * **herd** — H concurrent clients hitting a *fresh* store at once:
//!   the store's single-flight latch means the pipeline builds once and
//!   every other client waits, so the herd's wall time is amortized
//!   toward one cold build instead of H. The speedup is measured against
//!   the naive rebuild-per-client cost (H × cold single).
//!
//! Writes `BENCH_serve.json` (into `results/`, or the `--json`
//! directory) and asserts the single-flight invariant (exactly one model
//! build under the herd).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;
use xflow::serve::{ServeConfig, Server};
use xflow_bench::{opts, write_report};

const PROJECT_BODY: &str = r#"{"workload":"cfd","machine":"bgq","top":5}"#;

/// Store builds one cold `/v1/project` request makes: its one model.
const HERD_BUILDS: u64 = 1;

/// One blocking HTTP request; returns the response body.
fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let req = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write");
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).expect("status");
    assert!(status.contains("200"), "request failed: {status}");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    String::from_utf8(body).expect("utf-8")
}

fn start_server() -> xflow::serve::RunningServer {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        machines_dir: Some("/nonexistent-machines-dir".to_string()),
        ..ServeConfig::default()
    };
    Server::bind(config).expect("bind").start().expect("start")
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let o = opts();
    let (warm_requests, herd_clients) = if matches!(o.scale, xflow::Scale::Test) { (200, 8) } else { (2000, 16) };

    // -- cold single: fresh store, one request carries the whole build
    let server = start_server();
    let t0 = Instant::now();
    let cold_body = post(server.addr(), "/v1/project", PROJECT_BODY);
    let cold_single = t0.elapsed().as_secs_f64();
    assert_eq!(server.store().stats().misses(), HERD_BUILDS, "cold request builds the model");

    // -- warm traffic on the now-primed store
    let mut latencies = Vec::with_capacity(warm_requests);
    let warm_t0 = Instant::now();
    for _ in 0..warm_requests {
        let t = Instant::now();
        let body = post(server.addr(), "/v1/project", PROJECT_BODY);
        latencies.push(t.elapsed().as_secs_f64());
        assert_eq!(body, cold_body, "warm responses must match the cold one");
    }
    let warm_wall = warm_t0.elapsed().as_secs_f64();
    let warm_per_sec = warm_requests as f64 / warm_wall;
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    assert_eq!(server.store().stats().misses(), HERD_BUILDS, "warm traffic must not rebuild");
    server.stop();

    // -- thundering herd against a fresh store
    let server = start_server();
    let addr = server.addr();
    let herd_t0 = Instant::now();
    let bodies: Vec<String> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..herd_clients).map(|_| scope.spawn(move |_| post(addr, "/v1/project", PROJECT_BODY))).collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    })
    .expect("scope");
    let herd_wall = herd_t0.elapsed().as_secs_f64();
    for b in &bodies {
        assert_eq!(b, &cold_body, "herd responses must be identical");
    }
    let herd_stats = server.store().stats();
    assert_eq!(herd_stats.misses(), HERD_BUILDS, "single-flight: the herd builds the model once, got {herd_stats:?}");
    let herd_waits = herd_stats.singleflight_waits();
    server.stop();

    let naive_rebuild = cold_single * herd_clients as f64;
    let speedup_singleflight = naive_rebuild / herd_wall;

    println!("=== projection service ({:?} scale) ===\n", o.scale);
    println!("cold single request      : {cold_single:>10.3e} s");
    println!("warm requests            : {warm_requests} in {warm_wall:.3} s  ({warm_per_sec:.0} req/s)");
    println!("warm latency             : p50 {p50:.3e} s   p99 {p99:.3e} s");
    println!("herd ({herd_clients} cold clients)    : wall {herd_wall:.3e} s, {herd_waits} single-flight waits");
    println!("single-flight amortization: {speedup_singleflight:.1}x vs rebuild-per-client");

    #[derive(serde::Serialize)]
    struct ServeBench {
        scale: String,
        server_threads: u64,
        cold_single_seconds: f64,
        warm_requests: u64,
        warm_requests_per_sec: f64,
        warm_p50_latency_seconds: f64,
        warm_p99_latency_seconds: f64,
        herd_clients: u64,
        herd_wall_seconds: f64,
        herd_stage_builds: u64,
        herd_singleflight_waits: u64,
        speedup_singleflight_vs_rebuild: f64,
    }
    let data = ServeBench {
        scale: format!("{:?}", o.scale),
        server_threads: 4,
        cold_single_seconds: cold_single,
        warm_requests: warm_requests as u64,
        warm_requests_per_sec: warm_per_sec,
        warm_p50_latency_seconds: p50,
        warm_p99_latency_seconds: p99,
        herd_clients: herd_clients as u64,
        herd_wall_seconds: herd_wall,
        herd_stage_builds: HERD_BUILDS,
        herd_singleflight_waits: herd_waits,
        speedup_singleflight_vs_rebuild: speedup_singleflight,
    };
    write_report(&o, "serve", &data);
}
