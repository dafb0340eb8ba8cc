//! Integration tests for the telemetry layer: Chrome trace export shape,
//! thread-count invariance of collected metrics, and the explain report's
//! bit-exact reconciliation with the projection engine.

use serde::Deserialize;
use std::sync::Arc;
use xflow::xflow_workloads::cfd;
use xflow::{
    explain, explain_observed, Axis, CollectingRecorder, DesignSpace, InputSpec, ModeledApp, Scale, Session,
    SessionConfig, SweepOptions,
};
use xflow_hw::{bgq, generic};

const SRC: &str = r#"
fn main() {
    let n = input("N", 400);
    let a = zeros(n);
    @fill: for i in 0 .. n { a[i] = rnd(); }
    @smooth: for i in 1 .. n - 1 {
        a[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
    }
    print(a[0]);
}
"#;

/// The subset of the Chrome trace-event schema the exporter emits. Extra
/// fields (`args`, …) are ignored; absent optional fields read as `None`.
#[derive(Deserialize)]
#[allow(non_snake_case, dead_code)]
struct ChromeTrace {
    displayTimeUnit: String,
    traceEvents: Vec<ChromeEvent>,
}

#[derive(Deserialize)]
#[allow(dead_code)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    pid: u64,
    tid: Option<u64>,
    dur: Option<f64>,
    s: Option<String>,
}

#[test]
fn chrome_trace_is_schema_valid_and_spans_nest() {
    let rec = Arc::new(CollectingRecorder::new());
    let session = Session::with_config(SessionConfig { recorder: Some(rec.clone()), ..SessionConfig::default() });
    let app = session.model(SRC, &InputSpec::new()).unwrap();
    let report = explain_observed(&app, &bgq(), &rec);
    assert!(report.total > 0.0);

    let snap = rec.snapshot();
    let json = snap.to_chrome_json();
    let trace: ChromeTrace = serde_json::from_str(&json).expect("trace must be valid JSON");
    assert_eq!(trace.displayTimeUnit, "ms");
    assert!(!trace.traceEvents.is_empty());
    for ev in &trace.traceEvents {
        assert!(matches!(ev.ph.as_str(), "X" | "i" | "C"), "unexpected phase {} on {}", ev.ph, ev.name);
        assert!(ev.ts >= 0.0);
        assert_eq!(ev.cat, "xflow");
        if ev.ph == "X" {
            assert!(ev.dur.unwrap() >= 0.0, "complete events carry a duration");
        }
    }

    // all five session stages span the trace, plus the explain evaluation
    let span_names: Vec<&str> = trace.traceEvents.iter().filter(|e| e.ph == "X").map(|e| e.name.as_str()).collect();
    for stage in ["session.parse", "session.profile", "session.translate", "session.bet", "session.plan"] {
        assert!(span_names.contains(&stage), "missing stage span {stage}: {span_names:?}");
    }
    assert!(span_names.contains(&"plan.evaluate"));
    assert!(span_names.contains(&"bet.build"));

    // spans nest: every child interval lies inside its parent, same thread
    for span in &snap.spans {
        if let Some(pid) = span.parent {
            let parent = snap.spans.iter().find(|s| s.id == pid).expect("parent span recorded");
            assert!(span.start_ns >= parent.start_ns, "{} starts before parent {}", span.name, parent.name);
            assert!(span.end_ns() <= parent.end_ns(), "{} ends after parent {}", span.name, parent.name);
            assert_eq!(span.tid, parent.tid, "{} crosses threads", span.name);
        }
    }
}

#[test]
fn collected_totals_are_thread_count_invariant() {
    let app = ModeledApp::from_source(SRC, &InputSpec::new()).unwrap();
    let space = DesignSpace::grid(generic(), vec![Axis::dram_bw(&[20.0, 40.0, 80.0]), Axis::cores(&[8.0, 16.0, 32.0])]);

    let mut baseline: Option<(u64, u64, Vec<u64>, Vec<u64>)> = None;
    for threads in [1, 2, 4] {
        let rec = CollectingRecorder::new();
        let sweep = space.sweep_opts(&app, SweepOptions { recorder: &rec, ..SweepOptions::with_threads(threads) });
        assert_eq!(sweep.points.len(), 9);

        let points = rec.counter_value("sweep.points");
        let blocks_counted = rec.counter_value("plan.blocks");
        // arrival order varies with the thread count, but the multiset of
        // recorded block costs must not
        let mut block_bits: Vec<u64> = rec.block_provenance().iter().map(|b| b.total.to_bits()).collect();
        block_bits.sort_unstable();
        let mut point_bits: Vec<u64> = sweep.points.iter().map(|p| p.total.to_bits()).collect();
        point_bits.sort_unstable();

        match &baseline {
            None => baseline = Some((points, blocks_counted, block_bits, point_bits)),
            Some((p, b, bb, pb)) => {
                assert_eq!(points, *p, "sweep.points differs at {threads} threads");
                assert_eq!(blocks_counted, *b, "plan.blocks differs at {threads} threads");
                assert_eq!(&block_bits, bb, "block provenance differs at {threads} threads");
                assert_eq!(&point_bits, pb, "point totals differ at {threads} threads");
            }
        }

        // every point produced its own span, tagged with the machine name
        let snap = rec.snapshot();
        let point_spans: Vec<_> = snap.spans.iter().filter(|s| s.name == "sweep.point").collect();
        assert_eq!(point_spans.len(), 9);
    }
}

#[test]
fn explain_json_is_deterministic_and_reconciles_bitwise() {
    let w = cfd();
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let machine = bgq();

    let a = explain(&app, &machine);
    let b = explain(&app, &machine);
    assert_eq!(a.to_json(), b.to_json(), "explain --json must be deterministic");

    // the block stream carries the evaluator's exact addends: summing the
    // per-block (Tc + Tm − To) × ENR contributions in stream order
    // reproduces the projected application total to the bit
    let sum = a.blocks.iter().fold(0.0f64, |acc, blk| acc + blk.total);
    assert_eq!(sum.to_bits(), a.total.to_bits());
    let projected = app.project_on(&machine).total;
    assert_eq!(a.total.to_bits(), projected.to_bits());

    // the report names CFD's known hot block with a verdict and a context
    let names: Vec<&str> = a.units.iter().map(|u| u.name.as_str()).collect();
    assert!(names.iter().any(|n| n.contains("compute_flux")), "{names:?}");
    for u in &a.units {
        assert!(u.bound == "memory" || u.bound == "compute");
        assert_eq!(u.chain.first().unwrap().kind, "root");
    }
}
