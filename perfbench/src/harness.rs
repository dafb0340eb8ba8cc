//! What every workload shares: repeated set-up, the closed loop, output
//! checking, per-layer samples and the in-memory span recorder.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use crate::expected::{expected_path, Expected};
use crate::stats::median;

/// Command-line settings of one measured run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The set-up every workload starts with: library calibration (the same
/// 512-sample calibration the pipeline performs once per process) and
/// loading the expected outputs.
pub fn base_setup() -> Result<Expected, String> {
    std::hint::black_box(xflow::xflow_sim::calibrate_library(512));
    Expected::load(&expected_path())
}

/// Reference check before timing: model the five paper applications at
/// test scale and compare their bgq totals with `expected.tsv`. It also
/// finishes the pipeline's lazy set-up, so the first timed op pays none.
pub fn reference_check(expected: &Expected) -> Result<(), String> {
    let machine = xflow::bgq();
    for p in crate::programs::paper(xflow::Scale::Test) {
        let app = xflow::Session::new().model(&p.source, &p.inputs).map_err(|e| format!("{}: {e}", p.id()))?;
        if expected.bits("total", &p.id(), "bgq") != Some(app.project_on(&machine).total.to_bits()) {
            return Err(format!("{} on bgq differs from expected.tsv", p.id()));
        }
    }
    Ok(())
}

/// Set-up times of one run. The workload sets up once before the timed
/// phase and again, discarding the state, every [`RESETUP_EVERY_S`] of it,
/// so the repetitions are spread over the whole run.
#[derive(Default)]
pub struct SetupTimes {
    times: Vec<f64>,
    failed: Option<String>,
}

impl SetupTimes {
    /// Run and time one set-up.
    pub fn time<S>(&mut self, setup: impl FnOnce() -> Result<S, String>) -> Result<S, String> {
        let t = Instant::now();
        let state = setup()?;
        self.times.push(t.elapsed().as_secs_f64());
        Ok(state)
    }

    /// Run and time one set-up whose state is torn down at once; a failure
    /// is kept for [`SetupTimes::best`] to report.
    pub fn repeat<S>(&mut self, setup: impl FnOnce() -> Result<S, String>, teardown: impl FnOnce(S)) {
        match self.time(setup) {
            Ok(state) => teardown(state),
            Err(e) => {
                self.failed.get_or_insert(e);
            }
        }
    }

    /// The fastest set-up, in seconds: the one least slowed by the rest of
    /// the host.
    pub fn best(&self) -> Result<f64, String> {
        match &self.failed {
            Some(e) => Err(format!("repeated set-up failed: {e}")),
            None => Ok(self.times.iter().copied().fold(f64::INFINITY, f64::min)),
        }
    }

    pub fn count(&self) -> usize {
        self.times.len()
    }
}

/// Seconds of the timed phase between two repeated set-ups.
pub const RESETUP_EVERY_S: f64 = 2.5;

/// Closed loop over whole passes: run passes until `seconds` have elapsed
/// and at least `min_passes` are done. Only whole passes run, so every run
/// sees the op mix in exactly the proportions a pass defines. `resetup`
/// runs between two passes once [`RESETUP_EVERY_S`] have passed since its
/// last call, outside every op.
pub fn closed_loop(seconds: f64, min_passes: usize, mut pass: impl FnMut(usize), mut resetup: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut last = start;
    let mut done = 0;
    while done < min_passes || start.elapsed().as_secs_f64() < seconds {
        pass(done);
        done += 1;
        if last.elapsed().as_secs_f64() >= RESETUP_EVERY_S {
            resetup();
            last = Instant::now();
        }
    }
    done
}

/// Host-time latency of every op of the timed phase, with its kind (the
/// program or request it ran).
#[derive(Default)]
pub struct Latencies {
    kind_of: HashMap<String, usize>,
    ops: Vec<(usize, f64)>,
}

impl Latencies {
    pub fn push(&mut self, kind: &str, secs: f64) {
        let next = self.kind_of.len();
        let k = *self.kind_of.entry(kind.to_string()).or_insert(next);
        self.ops.push((k, secs));
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn kinds(&self) -> usize {
        self.kind_of.len()
    }

    /// Every op's latency as measured, in op order.
    pub fn observed(&self) -> Vec<f64> {
        self.ops.iter().map(|&(_, s)| s).collect()
    }

    /// Every op's best-case latency, in op order: the fastest latency its
    /// kind reached in the run. The host slows this machine by up to 2× for
    /// seconds at a time; the fastest repetition of an op is the one least
    /// slowed, so the run's op mix costed at these latencies moves with the
    /// program and not with the share of the run the host was busy.
    pub fn best_case(&self) -> Vec<f64> {
        let mut best = vec![f64::INFINITY; self.kind_of.len()];
        for &(k, s) in &self.ops {
            best[k] = best[k].min(s);
        }
        self.ops.iter().map(|&(k, _)| best[k]).collect()
    }
}

/// Output-check bookkeeping: every op counts as attempted; an op whose
/// output differs from the expected one (or errored) counts as failed.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    reported: usize,
}

impl Checker {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reported < 5 {
                self.reported += 1;
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// Per-layer samples: one value per op for timings and work counts, or a
/// single value for whole-run figures.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.samples.insert(name, vec![v]);
    }

    /// Median of a layer's samples; `None` if the workload never
    /// exercised the layer.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).filter(|v| !v.is_empty()).map(|v| median(v))
    }

    pub fn count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }
}

/// What a workload hands back to the reporter.
#[derive(Default)]
pub struct Outcome {
    pub check: Checker,
    pub latencies: Latencies,
    pub passes: usize,
    pub setup: SetupTimes,
    /// `(model_total_rel_err, hotspot_q10)`.
    pub accuracy: (f64, f64),
    pub sequence_digest: String,
    /// Per-layer samples (traced runs only).
    pub layers: Layers,
    /// Extra `key=value` lines for the human-readable report.
    pub notes: Vec<String>,
}

/// One span: a timed call into a layer, from the benchmark's side.
struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, written out once when the run ends.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span that [`Tracer::close`] ends; returns its id.
    pub fn open(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    /// End a span and return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Time `f` as a child span of `parent`; returns its result and its
    /// duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, op: usize, parent: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name, op, Some(parent));
        let r = std::hint::black_box(f());
        let secs = self.close(id);
        (r, secs)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, `op` and `parent` in its args.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Write the spans of a traced run to `out/trace-<workload>-<seed>.json`.
    pub fn write_run(&self, args: &RunArgs) -> Result<(), String> {
        let name = format!("trace-{}-{}.json", args.workload, args.seed);
        let path = crate::expected::bench_dir().join("out").join(name);
        self.write_chrome(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Median of `op − Σ stages` over ops: the part of an op the replayed
/// layers do not account for.
pub fn overhead(op_s: &[f64], stages_s: &[f64]) -> f64 {
    let diffs: Vec<f64> = op_s.iter().zip(stages_s).map(|(o, s)| o - s).collect();
    median(&diffs)
}

/// `(median traced − median untraced) ÷ median untraced`.
pub fn trace_share(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    let u = median(untraced_s);
    if u > 0.0 {
        (median(traced_s) - u) / u
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_case_costs_each_op_at_its_kinds_fastest_latency() {
        let mut l = Latencies::default();
        for (kind, s) in [("a", 2.0), ("b", 5.0), ("a", 1.0), ("b", 9.0), ("a", 3.0)] {
            l.push(kind, s);
        }
        assert_eq!((l.len(), l.kinds()), (5, 2));
        assert_eq!(l.best_case(), vec![1.0, 5.0, 1.0, 5.0, 1.0]);
        assert_eq!(l.observed(), vec![2.0, 5.0, 1.0, 9.0, 3.0]);
    }

    #[test]
    fn setup_times_report_the_fastest_or_the_first_failure() {
        let mut s = SetupTimes::default();
        assert_eq!(s.time(|| Ok(7)), Ok(7));
        s.repeat(|| Ok(()), drop);
        assert_eq!(s.count(), 2);
        assert!(s.best().unwrap() >= 0.0);
        s.repeat(|| Err::<(), _>("boom".to_string()), drop);
        assert!(s.best().unwrap_err().contains("boom"));
    }
}
