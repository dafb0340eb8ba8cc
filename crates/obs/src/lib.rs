//! # xflow-obs — pipeline telemetry core
//!
//! A lightweight, dependency-free observability layer for the modeling
//! pipeline: structured **spans** (enter/exit with wall time and thread
//! id), **counters** and instant **events** through the [`Recorder`]
//! trait, **histograms** observed straight into a [`MetricsRegistry`],
//! and a Chrome trace-event exporter ([`chrome`]) whose output loads
//! directly in `chrome://tracing` and Perfetto. Per-block projection
//! costs are not telemetry: `explain` reads them from the projection.
//!
//! The design constraint is that *disabled telemetry is free*: every
//! instrumented API in the workspace is generic over [`Recorder`] and
//! defaults to [`NoopRecorder`], whose methods are empty `#[inline]`
//! bodies — monomorphization folds the `rec.enabled()` guards away, so the
//! uninstrumented hot path compiles to the same code as before the layer
//! existed (`exp_obs` records the measured overhead). Instrumentation
//! sites must guard any attribute construction (string formatting, `Vec`
//! building) behind [`Recorder::enabled`] so the noop path allocates
//! nothing.
//!
//! Three concrete recorders cover the workspace's needs:
//!
//! * [`NoopRecorder`] — the zero-overhead default;
//! * [`CollectingRecorder`] — thread-safe accumulation of spans, events
//!   and counters (plus histograms observed into its
//!   [`CollectingRecorder::metrics`] registry); snapshot it with
//!   [`CollectingRecorder::snapshot`] and export with
//!   [`TraceSnapshot::to_chrome_json`];
//! * [`FlightRecorder`] — an always-on, lock-free fixed-capacity ring
//!   retaining the last N events for after-the-fact dumps (optionally
//!   wrapping another recorder).
//!
//! ```
//! use xflow_obs::{AttrValue, CollectingRecorder, Recorder};
//!
//! let rec = CollectingRecorder::new();
//! let span = rec.span_start("demo.work", &[("points", AttrValue::U64(3))]);
//! rec.add("demo.points", 3);
//! rec.span_end(span, &[("outcome", AttrValue::Str("ok"))]);
//! let snap = rec.snapshot();
//! assert_eq!(snap.spans.len(), 1);
//! assert!(snap.to_chrome_json().contains("\"traceEvents\""));
//! ```

pub mod chrome;
pub mod collect;
pub mod flight;
pub mod recorder;
pub mod registry;

pub use collect::{CollectingRecorder, EventRecord, SpanRecord, TraceSnapshot};
pub use flight::{FlightEvent, FlightEventKind, FlightRecorder, FlightSnapshot, DEFAULT_FLIGHT_CAPACITY};
pub use recorder::{span, Attr, AttrValue, NoopRecorder, OwnedAttr, Recorder, SpanGuard, SpanId};
pub use registry::{Counter, HistogramSummary, MetricsRegistry, BUCKET_BOUNDS};
