//! The flight recorder: an always-on, fixed-capacity, lock-free ring
//! buffer retaining the last N telemetry events.
//!
//! A [`FlightRecorder`] implements [`Recorder`] and can wrap any inner
//! recorder (forwarding everything), so it composes with the
//! [`CollectingRecorder`](crate::CollectingRecorder) when full tracing is
//! on and stands alone when it is not. Unlike the collecting recorder it
//! never allocates and never blocks on the record path: each event is
//! encoded into a fixed number of `AtomicU64` words guarded by a per-slot
//! sequence counter (a seqlock). Writers claim a slot with one
//! `fetch_add` on the ring head and one CAS on the slot's sequence; a
//! writer that loses the CAS (another thread lapped it onto the same
//! slot) drops its event and bumps a `dropped` counter instead of
//! waiting. Readers ([`FlightRecorder::snapshot`]) copy slots word-wise
//! and discard any slot whose sequence changed mid-copy, so a snapshot
//! is always composed of whole events.
//!
//! The intended deployment is *always on*: the server keeps a flight
//! ring for every request and dumps it — as Chrome trace JSON via
//! [`FlightSnapshot::to_chrome_json`] — on demand (`GET /debug/flight`)
//! or automatically when a request fails, turning "that request 500'd a
//! minute ago" into an inspectable trace after the fact.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::chrome::{json_f64, json_string};
use crate::collect::current_tid;
use crate::recorder::{Attr, Recorder, SpanId};

/// Default ring capacity (events). At 11 words (88 bytes) per slot this
/// is under 100 KiB of fixed memory.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Bytes of event name retained per slot; longer names are truncated at
/// a char boundary.
pub const FLIGHT_NAME_BYTES: usize = 48;

const NAME_WORDS: usize = FLIGHT_NAME_BYTES / 8;
/// header + ts + value + ticket + name
const WORDS: usize = 4 + NAME_WORDS;

/// What one retained event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A span opened (`value` unused).
    SpanBegin,
    /// A span closed (name empty; matched to the begin by thread stack).
    SpanEnd,
    /// An instant event.
    Instant,
    /// A counter increment (`value` is the delta).
    Counter,
}

impl FlightEventKind {
    fn code(self) -> u64 {
        match self {
            FlightEventKind::SpanBegin => 0,
            FlightEventKind::SpanEnd => 1,
            FlightEventKind::Instant => 2,
            FlightEventKind::Counter => 3,
        }
    }

    fn from_code(c: u64) -> Option<Self> {
        Some(match c {
            0 => FlightEventKind::SpanBegin,
            1 => FlightEventKind::SpanEnd,
            2 => FlightEventKind::Instant,
            3 => FlightEventKind::Counter,
            _ => return None,
        })
    }
}

/// One decoded event out of the ring.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    pub kind: FlightEventKind,
    /// Event name, truncated to [`FLIGHT_NAME_BYTES`] at record time.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// Small stable id of the recording thread (see `current_tid`).
    pub tid: u64,
    /// Counter delta; 0 otherwise.
    pub value: f64,
    /// Global sequence number of the event (total order across threads).
    pub ticket: u64,
}

/// One ring slot: a sequence word (even = stable, odd = being written)
/// plus the event payload as relaxed atomic words, so concurrent reads
/// and writes are races only at the seqlock level, never data races.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot { seq: AtomicU64::new(0), words: [const { AtomicU64::new(0) }; WORDS] }
    }
}

/// The always-on ring recorder. See the module docs for the protocol.
pub struct FlightRecorder {
    origin: Instant,
    slots: Box<[Slot]>,
    head: AtomicU64,
    dropped: AtomicU64,
    inner: Option<Arc<dyn Recorder>>,
}

impl FlightRecorder {
    /// Ring with [`DEFAULT_FLIGHT_CAPACITY`] slots and no inner recorder.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// Ring with `capacity` slots (min 2) and no inner recorder.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        FlightRecorder {
            origin: Instant::now(),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            inner: None,
        }
    }

    /// Wrap an inner recorder: every call is both retained in the ring
    /// and forwarded, and span ids are the inner recorder's ids so
    /// nesting attribution still works there.
    pub fn wrapping(inner: Arc<dyn Recorder>) -> Self {
        let mut r = Self::new();
        r.inner = Some(inner);
        r
    }

    /// Events the ring refused because another thread was mid-write on
    /// the same (lapped) slot. Nonzero only under heavy contention.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&self, kind: FlightEventKind, name: &str, value: f64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq % 2 == 1 || slot.seq.compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed).is_err() {
            // Another writer owns this slot (we lapped it mid-write):
            // dropping one event beats blocking the caller.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut n = name.len().min(FLIGHT_NAME_BYTES);
        while !name.is_char_boundary(n) {
            n -= 1;
        }
        let header = kind.code() | ((n as u64) << 8) | ((current_tid() & 0xffff_ffff) << 32);
        slot.words[0].store(header, Ordering::Relaxed);
        slot.words[1].store(self.now_ns(), Ordering::Relaxed);
        slot.words[2].store(value.to_bits(), Ordering::Relaxed);
        slot.words[3].store(ticket, Ordering::Relaxed);
        let bytes = name.as_bytes();
        for w in 0..NAME_WORDS {
            let mut word = [0u8; 8];
            let lo = w * 8;
            if lo < n {
                let hi = (lo + 8).min(n);
                word[..hi - lo].copy_from_slice(&bytes[lo..hi]);
            }
            slot.words[4 + w].store(u64::from_le_bytes(word), Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Copy out every stable slot, decode, and order by ticket. Slots
    /// being written during the copy are skipped (they will appear in the
    /// next snapshot).
    pub fn snapshot(&self) -> FlightSnapshot {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or write in flight
            }
            let mut words = [0u64; WORDS];
            for (i, w) in slot.words.iter().enumerate() {
                words[i] = w.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn read: a writer overwrote the slot mid-copy
            }
            let Some(kind) = FlightEventKind::from_code(words[0] & 0xff) else { continue };
            let n = ((words[0] >> 8) & 0xff) as usize;
            let mut name_bytes = [0u8; FLIGHT_NAME_BYTES];
            for w in 0..NAME_WORDS {
                name_bytes[w * 8..w * 8 + 8].copy_from_slice(&words[4 + w].to_le_bytes());
            }
            events.push(FlightEvent {
                kind,
                name: String::from_utf8_lossy(&name_bytes[..n.min(FLIGHT_NAME_BYTES)]).into_owned(),
                ts_ns: words[1],
                tid: words[0] >> 32,
                value: f64::from_bits(words[2]),
                ticket: words[3],
            });
        }
        events.sort_by_key(|e| e.ticket);
        FlightSnapshot { events, dropped: self.dropped(), capacity: self.slots.len() }
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for FlightRecorder {
    /// Always true: the ring retains events, so instrumentation sites
    /// build attributes (the ring itself discards them, but a wrapped
    /// inner recorder keeps them).
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &str, attrs: &[Attr<'_>]) -> SpanId {
        self.record(FlightEventKind::SpanBegin, name, 0.0);
        match &self.inner {
            Some(inner) => inner.span_start(name, attrs),
            None => SpanId::NONE,
        }
    }

    fn span_end(&self, span: SpanId, attrs: &[Attr<'_>]) {
        self.record(FlightEventKind::SpanEnd, "", 0.0);
        if let Some(inner) = &self.inner {
            inner.span_end(span, attrs);
        }
    }

    fn add(&self, counter: &str, delta: u64) {
        self.record(FlightEventKind::Counter, counter, delta as f64);
        if let Some(inner) = &self.inner {
            inner.add(counter, delta);
        }
    }

    fn event(&self, name: &str, attrs: &[Attr<'_>]) {
        self.record(FlightEventKind::Instant, name, 0.0);
        if let Some(inner) = &self.inner {
            inner.event(name, attrs);
        }
    }
}

/// A decoded, ticket-ordered copy of the ring at one moment.
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// Retained events, oldest first (by global ticket).
    pub events: Vec<FlightEvent>,
    /// Events lost to slot contention over the recorder's lifetime.
    pub dropped: u64,
    /// Ring capacity the snapshot was taken from.
    pub capacity: usize,
}

impl FlightSnapshot {
    /// Render as a Chrome trace-event JSON document. Spans use `B`/`E`
    /// duration events (matched per thread by the viewer, so a begin
    /// whose end was evicted still renders) and counters emit running
    /// totals per name.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!("{{\"displayTimeUnit\":\"ms\",\"flightDropped\":{},\"traceEvents\":[", self.dropped),
        );
        let mut totals: Vec<(String, f64)> = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = e.ts_ns as f64 / 1000.0;
            match e.kind {
                FlightEventKind::SpanBegin | FlightEventKind::SpanEnd | FlightEventKind::Instant => {
                    let ph = match e.kind {
                        FlightEventKind::SpanBegin => "B",
                        FlightEventKind::SpanEnd => "E",
                        _ => "i",
                    };
                    out.push_str("{\"name\":");
                    json_string(&e.name, &mut out);
                    let _ = std::fmt::Write::write_fmt(
                        &mut out,
                        format_args!(",\"cat\":\"flight\",\"ph\":\"{ph}\",\"ts\":"),
                    );
                    json_f64(ts, &mut out);
                    let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"pid\":1,\"tid\":{}", e.tid));
                    if e.kind == FlightEventKind::Instant {
                        out.push_str(",\"s\":\"t\"");
                    }
                    out.push('}');
                }
                FlightEventKind::Counter => {
                    // running total per counter name, in ticket order
                    let value = match totals.iter_mut().find(|(n, _)| *n == e.name) {
                        Some((_, t)) => {
                            *t += e.value;
                            *t
                        }
                        None => {
                            totals.push((e.name.clone(), e.value));
                            e.value
                        }
                    };
                    out.push_str("{\"name\":");
                    json_string(&e.name, &mut out);
                    out.push_str(",\"cat\":\"flight\",\"ph\":\"C\",\"ts\":");
                    json_f64(ts, &mut out);
                    out.push_str(",\"pid\":1,\"args\":{\"value\":");
                    json_f64(value, &mut out);
                    out.push_str("}}");
                }
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::CollectingRecorder;
    use crate::recorder::AttrValue;

    #[test]
    fn retains_recent_events_in_order() {
        let fr = FlightRecorder::with_capacity(8);
        let s = fr.span_start("work", &[]);
        fr.add("points", 3);
        fr.event("note", &[]);
        fr.span_end(s, &[]);
        let snap = fr.snapshot();
        assert_eq!(snap.events.len(), 4);
        let kinds: Vec<FlightEventKind> = snap.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [FlightEventKind::SpanBegin, FlightEventKind::Counter, FlightEventKind::Instant, FlightEventKind::SpanEnd,]
        );
        assert_eq!(snap.events[0].name, "work");
        assert_eq!(snap.events[1].value, 3.0);
        assert_eq!(snap.dropped, 0);
        // timestamps are monotone in ticket order
        assert!(snap.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn ring_keeps_only_the_last_capacity_events() {
        let fr = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            fr.add(&format!("c{i}"), 1);
        }
        let snap = fr.snapshot();
        assert_eq!(snap.events.len(), 4);
        let names: Vec<&str> = snap.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["c6", "c7", "c8", "c9"]);
    }

    #[test]
    fn long_names_truncate_at_char_boundaries() {
        let fr = FlightRecorder::with_capacity(4);
        let long = "x".repeat(100);
        fr.add(&long, 1);
        fr.add("héllo-with-a-multibyte-char-right-at-the-48-bøundary", 1);
        let snap = fr.snapshot();
        assert_eq!(snap.events[0].name.len(), FLIGHT_NAME_BYTES);
        assert!(snap.events[1].name.is_char_boundary(snap.events[1].name.len()));
        assert!(!snap.events[1].name.contains('\u{fffd}'));
    }

    #[test]
    fn wrapping_forwards_to_the_inner_recorder() {
        let inner = std::sync::Arc::new(CollectingRecorder::new());
        let fr = FlightRecorder::wrapping(inner.clone());
        assert!(fr.enabled());
        let s = fr.span_start("stage", &[("k", AttrValue::U64(1))]);
        fr.add("c", 2);
        fr.span_end(s, &[]);
        let collected = inner.snapshot();
        assert_eq!(collected.spans.len(), 1);
        assert_eq!(collected.spans[0].name, "stage");
        assert_eq!(inner.counter_value("c"), 2);
        assert_eq!(fr.snapshot().events.len(), 3);
    }

    #[test]
    fn concurrent_writers_never_corrupt_decoded_events() {
        let fr = std::sync::Arc::new(FlightRecorder::with_capacity(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let fr = fr.clone();
                s.spawn(move || {
                    for i in 0..2000u64 {
                        fr.add(&format!("thread{t}"), i);
                    }
                });
            }
        });
        let snap = fr.snapshot();
        assert!(!snap.events.is_empty());
        for e in &snap.events {
            assert!(e.name.starts_with("thread"), "{:?}", e);
            assert_eq!(e.kind, FlightEventKind::Counter);
            assert!(e.value < 2000.0);
        }
        // total accounting: everything recorded is retained, evicted, or dropped
        assert_eq!(fr.head.load(Ordering::Relaxed), 8000);
        assert!(snap.dropped <= 8000);
    }

    #[test]
    fn chrome_export_has_begin_end_and_counter_phases() {
        let fr = FlightRecorder::with_capacity(16);
        let s = fr.span_start("req", &[]);
        fr.add("hits", 1);
        fr.add("hits", 2);
        fr.span_end(s, &[]);
        let json = fr.snapshot().to_chrome_json();
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"ph\":\"E\""), "{json}");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"flightDropped\":0"), "{json}");
        // counter samples are running totals: 1 then 3
        assert!(json.contains("\"args\":{\"value\":1.0}"), "{json}");
        assert!(json.contains("\"args\":{\"value\":3.0}"), "{json}");
    }

    #[test]
    fn empty_ring_exports_cleanly() {
        let json = FlightRecorder::new().snapshot().to_chrome_json();
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"flightDropped\":0,\"traceEvents\":[]}");
    }
}
