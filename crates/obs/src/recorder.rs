//! The [`Recorder`] trait, attribute values, and the zero-overhead
//! [`NoopRecorder`] default.

/// Identifier of one span issued by a recorder. [`SpanId::NONE`] is the
/// sentinel returned by recorders that track nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span" sentinel; [`Recorder::span_end`] ignores it.
    pub const NONE: SpanId = SpanId(u64::MAX);
}

/// A borrowed attribute value. Instrumentation sites build these on the
/// stack; recorders that retain attributes copy them into [`OwnedAttr`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'a str),
}

impl<'a> From<&'a str> for AttrValue<'a> {
    fn from(s: &'a str) -> Self {
        AttrValue::Str(s)
    }
}

impl From<u64> for AttrValue<'_> {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<f64> for AttrValue<'_> {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

/// One `(key, value)` attribute pair as passed to recorder methods.
pub type Attr<'a> = (&'a str, AttrValue<'a>);

/// An attribute value owned by a retaining recorder.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedAttr {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl OwnedAttr {
    /// Copy a borrowed value into an owned one.
    pub fn from_value(v: &AttrValue<'_>) -> OwnedAttr {
        match v {
            AttrValue::U64(x) => OwnedAttr::U64(*x),
            AttrValue::I64(x) => OwnedAttr::I64(*x),
            AttrValue::F64(x) => OwnedAttr::F64(*x),
            AttrValue::Str(s) => OwnedAttr::Str((*s).to_string()),
        }
    }
}

/// A telemetry sink for the modeling pipeline.
///
/// All methods take `&self`; implementations must be thread-safe (sweeps
/// call them from worker threads). Instrumented code paths are generic
/// over `R: Recorder + ?Sized`, so the [`NoopRecorder`] default statically
/// dispatches to empty inlined bodies, and `&dyn Recorder` works where a
/// trait object is more convenient (long-lived structs like `Session`).
pub trait Recorder: Send + Sync {
    /// Whether this recorder retains anything. Instrumentation sites must
    /// gate attribute construction (formatting, allocation) behind this so
    /// the disabled path stays allocation-free.
    fn enabled(&self) -> bool;

    /// Open a span. The returned id is passed to [`Recorder::span_end`];
    /// recorders stamp the wall-clock enter time and calling thread.
    fn span_start(&self, name: &str, attrs: &[Attr<'_>]) -> SpanId;

    /// Close a span, optionally attaching attributes learned during the
    /// span's body (cache outcome, node counts). [`SpanId::NONE`] is a
    /// no-op.
    fn span_end(&self, span: SpanId, attrs: &[Attr<'_>]);

    /// Increment a named monotonic counter.
    fn add(&self, counter: &str, delta: u64);

    /// Record an instant event (no duration).
    fn event(&self, name: &str, attrs: &[Attr<'_>]);
}

/// The zero-overhead default recorder: every method is an empty inlined
/// body, so monomorphized instrumentation disappears entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn span_start(&self, _name: &str, _attrs: &[Attr<'_>]) -> SpanId {
        SpanId::NONE
    }

    #[inline(always)]
    fn span_end(&self, _span: SpanId, _attrs: &[Attr<'_>]) {}

    #[inline(always)]
    fn add(&self, _counter: &str, _delta: u64) {}

    #[inline(always)]
    fn event(&self, _name: &str, _attrs: &[Attr<'_>]) {}
}

/// RAII guard closing a span on drop (with no exit attributes). Panics
/// unwinding through the guard still close the span, so a failed sweep
/// point leaves a well-formed trace.
pub struct SpanGuard<'r, R: Recorder + ?Sized> {
    rec: &'r R,
    id: SpanId,
}

impl<R: Recorder + ?Sized> Drop for SpanGuard<'_, R> {
    fn drop(&mut self) {
        self.rec.span_end(self.id, &[]);
    }
}

/// Open a span closed automatically at end of scope.
pub fn span<'r, R: Recorder + ?Sized>(rec: &'r R, name: &str, attrs: &[Attr<'_>]) -> SpanGuard<'r, R> {
    let id = rec.span_start(name, attrs);
    SpanGuard { rec, id }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_returns_none() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        assert_eq!(r.span_start("x", &[]), SpanId::NONE);
        r.span_end(SpanId::NONE, &[]);
        r.add("c", 1);
        r.event("e", &[("k", AttrValue::U64(1))]);
    }

    #[test]
    fn attr_conversions() {
        assert_eq!(AttrValue::from("s"), AttrValue::Str("s"));
        assert_eq!(AttrValue::from(3u64), AttrValue::U64(3));
        assert_eq!(AttrValue::from(0.5f64), AttrValue::F64(0.5));
        assert_eq!(OwnedAttr::from_value(&AttrValue::Str("s")), OwnedAttr::Str("s".into()));
    }
}
