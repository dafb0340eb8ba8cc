//! End-to-end tests of the HTTP projection service: endpoint behavior,
//! request-id middleware, keep-alive framing, `/metrics`, captured
//! traces, and the acceptance contract — a thundering herd of cold HTTP
//! clients gets byte-identical explain reports that match the CLI's
//! `explain --json` output exactly, while the shared store builds each
//! pipeline stage exactly once.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use xflow::serve::protocol::MAX_HEAD_BYTES;
use xflow::serve::{RunningServer, ServeConfig, Server, MAX_SWEEP_POINTS};
use xflow::{CollectingRecorder, Recorder, StoreConfig};

fn start_server(recorder: Option<Arc<CollectingRecorder>>) -> RunningServer {
    start_server_with_threads(recorder, 4)
}

fn start_server_with_threads(recorder: Option<Arc<CollectingRecorder>>, threads: usize) -> RunningServer {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        store: StoreConfig::default(),
        // keep the test hermetic from any machines/ directory in cwd
        machines_dir: Some("/nonexistent-machines-dir".to_string()),
        recorder: recorder.map(|r| r as Arc<dyn Recorder>),
    };
    Server::bind(config).expect("bind").start().expect("start")
}

/// One HTTP exchange on an existing connection (keep-alive friendly):
/// returns `(status, headers, body)` with the body read to its exact
/// `content-length`.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &str,
    body: &str,
) -> (u16, String, String) {
    let req = format!("{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n{headers}\r\n{body}", body.len());
    writer.write_all(req.as_bytes()).expect("write request");
    read_response(reader)
}

/// Read one response: `(status, headers, body)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line.split_whitespace().nth(1).expect("status").parse().expect("numeric");
    let mut headers_out = String::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().expect("length");
            }
        }
        headers_out.push_str(&line);
    }
    let mut body_out = vec![0u8; content_length];
    reader.read_exact(&mut body_out).expect("body");
    (status, headers_out, String::from_utf8(body_out).expect("utf-8 body"))
}

/// One-shot request on a fresh connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    exchange(&mut reader, &mut writer, method, path, "", body)
}

#[test]
fn explain_endpoint_matches_the_cli_byte_for_byte() {
    let server = start_server(None);
    let cli = xflow::cli::run(&["explain".into(), "cfd".into(), "--machine".into(), "bgq".into(), "--json".into()])
        .expect("cli explain");
    let (status, _, body) = request(server.addr(), "POST", "/v1/explain", r#"{"workload":"cfd","machine":"bgq"}"#);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, cli, "server explain must be the CLI's --json bytes");
    server.stop();
}

#[test]
fn http_thundering_herd_is_deduped_and_bit_identical() {
    const CLIENTS: usize = 8;
    let server = start_server(None);
    let addr = server.addr();

    let bodies: Vec<String> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move |_| {
                    let (status, _, body) =
                        request(addr, "POST", "/v1/explain", r#"{"workload":"srad","machine":"xeon"}"#);
                    assert_eq!(status, 200, "{body}");
                    body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
    .expect("scope");

    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0], "all herd responses must be byte-identical");
    }
    let cli = xflow::cli::run(&["explain".into(), "srad".into(), "--machine".into(), "xeon".into(), "--json".into()])
        .expect("cli explain");
    assert_eq!(bodies[0], cli, "herd responses must match the single-threaded CLI");

    let stats = server.store().stats();
    assert_eq!(stats.misses(), 1, "one model build across the whole herd: {stats:?}");
    server.stop();
}

#[test]
fn request_ids_are_minted_or_propagated() {
    let server = start_server(None);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let (_, headers, _) = exchange(&mut reader, &mut writer, "GET", "/healthz", "", "");
    let minted = headers
        .lines()
        .find_map(|l| l.strip_prefix("x-request-id: "))
        .expect("response carries a request id")
        .to_string();
    assert!(minted.starts_with("req-"), "{minted}");

    // keep-alive: second exchange on the same connection, client-chosen id
    let (_, headers, _) = exchange(&mut reader, &mut writer, "GET", "/healthz", "x-request-id: trace-me-42\r\n", "");
    assert!(headers.contains("x-request-id: trace-me-42"), "{headers}");
    server.stop();
}

#[test]
fn metrics_and_trace_cover_requests_and_pipeline_stages() {
    let rec = Arc::new(CollectingRecorder::new());
    let server = start_server(Some(rec.clone()));

    let (status, _, body) = request(server.addr(), "POST", "/v1/project", r#"{"workload":"cfd"}"#);
    assert_eq!(status, 200, "{body}");
    let (status, head, metrics) = request(server.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "Prometheus content type: {head}");
    assert!(metrics.contains("serve_requests 2"), "{metrics}");
    assert!(metrics.contains("serve_status_2xx 1"), "{metrics}");
    assert!(metrics.contains("session_model_misses 1"), "{metrics}");
    assert!(metrics.contains("# TYPE serve_request_seconds histogram"), "{metrics}");
    assert!(metrics.contains("serve_request_seconds_bucket{le=\"+Inf\"} 1"), "{metrics}");
    assert!(metrics.contains("serve_request_seconds_count 1"), "{metrics}");

    // the captured trace has the request span and, nested in the same
    // capture, the model lookup and build step spans the request triggered
    let snap = rec.snapshot();
    let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"serve.request"), "{names:?}");
    for span in
        ["session.model", "minilang.parse", "minilang.profile", "minilang.translate", "bet.build", "hotspot.plan"]
    {
        assert!(names.contains(&span), "missing {span} in {names:?}");
    }
    server.stop();
}

#[test]
fn sweep_endpoint_ranks_points_and_validates_axes() {
    let server = start_server(None);
    let body = r#"{"workload":"cfd","machine":"generic","top":3,
                   "axes":[{"name":"dram_bw_gbs","values":[2,8,32]}]}"#;
    let (status, _, resp) = request(server.addr(), "POST", "/v1/sweep", body);
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"points\":3"), "{resp}");

    let bad = r#"{"workload":"cfd","axes":[{"name":"warp_core","values":[1]}]}"#;
    let (status, _, resp) = request(server.addr(), "POST", "/v1/sweep", bad);
    assert_eq!(status, 400);
    assert!(resp.contains("unknown axis parameter"), "{resp}");
    server.stop();
}

#[test]
fn sweep_endpoint_rejects_oversized_grids_before_building_them() {
    let server = start_server(None);
    let axis = |name: &str, n: usize| {
        let values = vec!["1"; n].join(",");
        format!(r#"{{"name":"{name}","values":[{values}]}}"#)
    };
    let sweep = |axes: &[String]| format!(r#"{{"workload":"cfd","axes":[{}]}}"#, axes.join(","));

    // two 50k-value axes: 2.5e9 points, far past the cap
    let (status, _, resp) =
        request(server.addr(), "POST", "/v1/sweep", &sweep(&[axis("dram_bw_gbs", 50_000), axis("mlp", 50_000)]));
    assert_eq!(status, 422, "{resp}");
    assert!(resp.contains("2500000000 points") && resp.contains(&MAX_SWEEP_POINTS.to_string()), "{resp}");

    // five 10k-value axes: 1e20 points, a product that overflows usize
    let names = ["dram_bw_gbs", "mlp", "cores", "freq_ghz", "vector_lanes"];
    let huge: Vec<String> = names.iter().map(|n| axis(n, 10_000)).collect();
    let (status, _, resp) = request(server.addr(), "POST", "/v1/sweep", &sweep(&huge));
    assert_eq!(status, 422, "{resp}");
    assert!(resp.contains("more than usize::MAX"), "{resp}");

    // exactly at the cap is served, and the server is still healthy
    let (status, _, resp) =
        request(server.addr(), "POST", "/v1/sweep", &sweep(&[axis("dram_bw_gbs", 128), axis("mlp", 128)]));
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains(&format!("\"points\":{MAX_SWEEP_POINTS}")), "{resp}");
    server.stop();
}

#[test]
fn oversized_request_head_gets_431_and_the_server_keeps_answering() {
    let server = start_server(None);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let big = "a".repeat(MAX_HEAD_BYTES + 1);
    let req = format!("GET /healthz HTTP/1.1\r\nhost: t\r\nx-big: {big}\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("write request");
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("response before close");
    assert!(resp.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"), "{resp}");
    assert!(resp.contains("connection: close\r\n"), "{resp}");

    let (status, _, body) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    server.stop();
}

#[test]
fn inline_source_past_the_array_budget_gets_400_and_the_server_keeps_answering() {
    // one request used to abort the whole process on the allocation
    let server = start_server(None);
    let body = r#"{"source":"fn main() { let a = zeros(input(\"N\", 1e12)); }"}"#;
    let (status, _, resp) = request(server.addr(), "POST", "/v1/project", body);
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("array `a` of length 1000000000000 exceeds"), "{resp}");

    let (status, _, body) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    server.stop();
}

#[test]
fn invalid_sweep_points_get_422_and_the_workers_survive() {
    // A zero clock projects NaN totals, which used to panic the ranking
    // sort and kill the worker: two such sweeps emptied a 2-worker pool.
    let server = start_server_with_threads(None, 2);
    let freqs: Vec<String> = (0..60).map(|i| if i % 3 == 0 { "0".into() } else { format!("{}", 1 + i % 4) }).collect();
    let body = format!(
        r#"{{"workload":"cfd","machine":"xeon","top":5,"axes":[{{"name":"freq_ghz","values":[{}]}}]}}"#,
        freqs.join(",")
    );
    for _ in 0..2 {
        let (status, _, resp) = request(server.addr(), "POST", "/v1/sweep", &body);
        assert_eq!(status, 422, "{resp}");
        assert!(resp.contains("sweep point #0") && resp.contains("freq_ghz must be positive"), "{resp}");
    }
    let (status, _, body) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    server.stop();
}

#[test]
fn requests_split_across_the_idle_poll_are_served_whole() {
    // each piece lands after the 200 ms idle poll has timed out at least
    // once; a timed-out poll used to drop what had already arrived
    let server = start_server(None);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    // a lost request fails the test instead of hanging it
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let body = r#"{"workload":"cfd","machine":"bgq"}"#;
    let head = format!("POST /v1/project HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n", body.len());
    for (i, part) in [&head[..10], &head[10..], &body[..7], &body[7..]].into_iter().enumerate() {
        if i > 0 {
            std::thread::sleep(std::time::Duration::from_millis(300));
        }
        writer.write_all(part.as_bytes()).expect("write part");
    }
    let (status, _, split) = read_response(&mut reader);
    assert_eq!(status, 200, "{split}");
    // the connection stays usable for the next keep-alive request
    let (status, _, whole) = exchange(&mut reader, &mut writer, "POST", "/v1/project", "", body);
    assert_eq!(status, 200, "{whole}");
    assert_eq!(split, whole);
    server.stop();
}

#[test]
fn a_request_stalled_past_its_deadline_gets_408() {
    let server = start_server(None);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).expect("timeout");
    stream.write_all(b"POST /v1/project HTTP/1.1\r\ncontent-length: 10\r\n\r\n{").expect("write part");
    let started = std::time::Instant::now();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("response before close");
    assert!(resp.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{resp}");
    assert!(started.elapsed() >= std::time::Duration::from_secs(4), "{:?}", started.elapsed());
    let (status, _, body) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    server.stop();
}
