//! The thread-safe collecting recorder and its immutable snapshot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::recorder::{Attr, OwnedAttr, Recorder, SpanId};
use crate::registry::{HistogramSummary, MetricsRegistry};

/// Stable small integer id of the calling thread (allocated on first use;
/// `std::thread::ThreadId` exposes no stable integer on stable Rust).
pub(crate) fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Recorder-unique span id.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Small stable id of the recording thread.
    pub tid: u64,
    /// Enter attributes followed by exit attributes.
    pub attrs: Vec<(String, OwnedAttr)>,
}

impl SpanRecord {
    /// End timestamp in nanoseconds since recorder creation.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// One instant event.
#[derive(Debug, Clone)]
pub struct EventRecord {
    pub name: String,
    pub ts_ns: u64,
    pub tid: u64,
    pub attrs: Vec<(String, OwnedAttr)>,
}

struct OpenSpan {
    name: String,
    parent: Option<u64>,
    start_ns: u64,
    tid: u64,
    attrs: Vec<(String, OwnedAttr)>,
}

#[derive(Default)]
struct Inner {
    open: HashMap<u64, OpenSpan>,
    /// Per-thread stack of open span ids (for parent attribution).
    stacks: HashMap<u64, Vec<u64>>,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
}

/// A thread-safe retaining recorder: spans and events under one mutex,
/// counters in a [`MetricsRegistry`] (atomics).
pub struct CollectingRecorder {
    origin: Instant,
    next_id: AtomicU64,
    inner: Mutex<Inner>,
    metrics: MetricsRegistry,
}

impl Default for CollectingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectingRecorder {
    /// Empty recorder; timestamps are relative to this call.
    pub fn new() -> Self {
        CollectingRecorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
            metrics: MetricsRegistry::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn own_attrs(attrs: &[Attr<'_>]) -> Vec<(String, OwnedAttr)> {
        attrs.iter().map(|(k, v)| (k.to_string(), OwnedAttr::from_value(v))).collect()
    }

    /// The recorder's metrics registry (counters and histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Value of one counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.metrics.get(name)
    }

    /// Counters under one dotted namespace (e.g. `vm.fused.`), sorted by
    /// name — see [`MetricsRegistry::counters_with_prefix`].
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.metrics.counters_with_prefix(prefix)
    }

    /// Immutable snapshot of everything recorded so far. Open spans are
    /// not included; completed spans are sorted by start time.
    pub fn snapshot(&self) -> TraceSnapshot {
        let inner = self.inner.lock().unwrap();
        let mut spans = inner.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        TraceSnapshot {
            spans,
            events: inner.events.clone(),
            counters: self.metrics.counters(),
            histograms: self.metrics.histograms(),
        }
    }
}

impl Recorder for CollectingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &str, attrs: &[Attr<'_>]) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tid = current_tid();
        let start_ns = self.now_ns();
        let attrs = Self::own_attrs(attrs);
        let mut inner = self.inner.lock().unwrap();
        let stack = inner.stacks.entry(tid).or_default();
        let parent = stack.last().copied();
        stack.push(id);
        inner.open.insert(id, OpenSpan { name: name.to_string(), parent, start_ns, tid, attrs });
        SpanId(id)
    }

    fn span_end(&self, span: SpanId, attrs: &[Attr<'_>]) {
        if span == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        let extra = Self::own_attrs(attrs);
        let mut inner = self.inner.lock().unwrap();
        let Some(open) = inner.open.remove(&span.0) else { return };
        if let Some(stack) = inner.stacks.get_mut(&open.tid) {
            if let Some(pos) = stack.iter().rposition(|&id| id == span.0) {
                stack.remove(pos);
            }
        }
        let mut attrs = open.attrs;
        attrs.extend(extra);
        inner.spans.push(SpanRecord {
            id: span.0,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            dur_ns: end_ns.saturating_sub(open.start_ns),
            tid: open.tid,
            attrs,
        });
    }

    fn add(&self, counter: &str, delta: u64) {
        self.metrics.add(counter, delta);
    }

    fn event(&self, name: &str, attrs: &[Attr<'_>]) {
        let ts_ns = self.now_ns();
        let tid = current_tid();
        let attrs = Self::own_attrs(attrs);
        self.inner.lock().unwrap().events.push(EventRecord { name: name.to_string(), ts_ns, tid, attrs });
    }
}

/// Immutable view of a recorder's contents, ready for export.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Completed spans, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Instant events, in arrival order.
    pub events: Vec<EventRecord>,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl TraceSnapshot {
    /// Fold an external registry's counters and histograms into the
    /// snapshot (e.g. a `Session`'s cache counters) so one exported trace
    /// carries the whole pipeline's metrics.
    pub fn merge_registry(&mut self, registry: &MetricsRegistry) {
        self.counters.extend(registry.counters());
        self.counters.sort();
        self.counters.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });
        self.histograms.extend(registry.histograms());
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::AttrValue;

    #[test]
    fn spans_record_nesting_and_attrs() {
        let rec = CollectingRecorder::new();
        let outer = rec.span_start("outer", &[("k", AttrValue::U64(1))]);
        let inner = rec.span_start("inner", &[]);
        rec.span_end(inner, &[]);
        rec.span_end(outer, &[("out", AttrValue::Str("done"))]);
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let o = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        let i = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(i.parent, Some(o.id));
        assert_eq!(o.parent, None);
        assert!(i.start_ns >= o.start_ns && i.end_ns() <= o.end_ns());
        assert_eq!(o.attrs.len(), 2, "enter + exit attrs: {:?}", o.attrs);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = CollectingRecorder::new();
        rec.add("c", 2);
        rec.add("c", 3);
        rec.metrics().observe("h", 4.0);
        assert_eq!(rec.counter_value("c"), 5);
        assert_eq!(rec.snapshot().histograms[0].1.count, 1);
    }

    #[test]
    fn unmatched_end_is_ignored() {
        let rec = CollectingRecorder::new();
        rec.span_end(SpanId(42), &[]);
        rec.span_end(SpanId::NONE, &[]);
        assert!(rec.snapshot().spans.is_empty());
    }

    #[test]
    fn parallel_spans_keep_per_thread_parents() {
        let rec = CollectingRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let a = rec.span_start("work", &[]);
                    let b = rec.span_start("sub", &[]);
                    rec.span_end(b, &[]);
                    rec.span_end(a, &[]);
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 8);
        for sub in snap.spans.iter().filter(|s| s.name == "sub") {
            let parent = snap.spans.iter().find(|s| Some(s.id) == sub.parent).unwrap();
            assert_eq!(parent.name, "work");
            assert_eq!(parent.tid, sub.tid, "parent must be on the same thread");
        }
    }

    #[test]
    fn merge_registry_sums_duplicates() {
        let rec = CollectingRecorder::new();
        rec.add("shared", 1);
        let reg = MetricsRegistry::new();
        reg.add("shared", 2);
        reg.add("extra", 7);
        let mut snap = rec.snapshot();
        snap.merge_registry(&reg);
        assert!(snap.counters.contains(&("shared".to_string(), 3)));
        assert!(snap.counters.contains(&("extra".to_string(), 7)));
    }
}
