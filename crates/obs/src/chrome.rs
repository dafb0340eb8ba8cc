//! Chrome trace-event export (`chrome://tracing` / Perfetto).
//!
//! Emits the JSON object format: `{"traceEvents": [...]}` with complete
//! (`"ph":"X"`) events for spans, instant (`"ph":"i"`) events, and counter
//! (`"ph":"C"`) samples. Timestamps are microseconds as required by the
//! format. The writer is hand-rolled so the crate stays dependency-free;
//! strings are escaped per JSON.

use std::fmt::Write as _;

use crate::collect::TraceSnapshot;
use crate::recorder::OwnedAttr;

/// Escape a string into a JSON string literal (with quotes).
pub(crate) fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // {:?} prints the shortest decimal that parses back exactly
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn json_attr(v: &OwnedAttr, out: &mut String) {
    match v {
        OwnedAttr::U64(x) => {
            let _ = write!(out, "{x}");
        }
        OwnedAttr::I64(x) => {
            let _ = write!(out, "{x}");
        }
        OwnedAttr::F64(x) => json_f64(*x, out),
        OwnedAttr::Str(s) => json_string(s, out),
    }
}

fn json_args(attrs: &[(String, OwnedAttr)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(k, out);
        out.push(':');
        json_attr(v, out);
    }
    out.push('}');
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

impl TraceSnapshot {
    /// Render the snapshot as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };

        for s in &self.spans {
            sep(&mut out);
            out.push_str("{\"name\":");
            json_string(&s.name, &mut out);
            out.push_str(",\"cat\":\"xflow\",\"ph\":\"X\",\"ts\":");
            json_f64(us(s.start_ns), &mut out);
            out.push_str(",\"dur\":");
            json_f64(us(s.dur_ns), &mut out);
            let _ = write!(out, ",\"pid\":1,\"tid\":{}", s.tid);
            if !s.attrs.is_empty() {
                out.push_str(",\"args\":");
                json_args(&s.attrs, &mut out);
            }
            out.push('}');
        }

        for e in &self.events {
            sep(&mut out);
            out.push_str("{\"name\":");
            json_string(&e.name, &mut out);
            out.push_str(",\"cat\":\"xflow\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
            json_f64(us(e.ts_ns), &mut out);
            let _ = write!(out, ",\"pid\":1,\"tid\":{}", e.tid);
            if !e.attrs.is_empty() {
                out.push_str(",\"args\":");
                json_args(&e.attrs, &mut out);
            }
            out.push('}');
        }

        // Counters and histogram summaries are sampled once, at the end of
        // the trace, so the Perfetto counter track shows the final totals.
        let end_ns =
            self.spans.iter().map(|s| s.end_ns()).chain(self.events.iter().map(|e| e.ts_ns)).max().unwrap_or(0);
        for (name, value) in &self.counters {
            sep(&mut out);
            out.push_str("{\"name\":");
            json_string(name, &mut out);
            out.push_str(",\"cat\":\"xflow\",\"ph\":\"C\",\"ts\":");
            json_f64(us(end_ns), &mut out);
            let _ = write!(out, ",\"pid\":1,\"args\":{{\"value\":{value}}}}}");
        }
        for (name, h) in &self.histograms {
            sep(&mut out);
            out.push_str("{\"name\":");
            json_string(name, &mut out);
            out.push_str(",\"cat\":\"xflow\",\"ph\":\"i\",\"s\":\"g\",\"ts\":");
            json_f64(us(end_ns), &mut out);
            out.push_str(",\"pid\":1,\"tid\":0,\"args\":{\"count\":");
            let _ = write!(out, "{}", h.count);
            out.push_str(",\"sum\":");
            json_f64(h.sum, &mut out);
            out.push_str(",\"min\":");
            json_f64(h.min, &mut out);
            out.push_str(",\"max\":");
            json_f64(h.max, &mut out);
            out.push_str(",\"p50\":");
            json_f64(h.quantile(0.50), &mut out);
            out.push_str(",\"p99\":");
            json_f64(h.quantile(0.99), &mut out);
            // Non-empty buckets as cumulative `le` samples, so the trace
            // carries the same distribution `/metrics` exposes.
            out.push_str(",\"buckets\":{");
            let mut first_bucket = true;
            for (le, cum) in h.cumulative_buckets() {
                if cum == 0 {
                    continue;
                }
                if !first_bucket {
                    out.push(',');
                }
                first_bucket = false;
                out.push('"');
                let _ = write!(out, "{le:?}");
                let _ = write!(out, "\":{cum}");
            }
            if h.count > 0 {
                if !first_bucket {
                    out.push(',');
                }
                let _ = write!(out, "\"+Inf\":{}", h.count);
            }
            out.push_str("}}}");
        }

        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::CollectingRecorder;
    use crate::recorder::{AttrValue, Recorder};

    #[test]
    fn escapes_json_strings() {
        let mut out = String::new();
        json_string("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn trace_has_span_counter_and_event_records() {
        let rec = CollectingRecorder::new();
        let s = rec.span_start("stage[x=1]", &[("machine", AttrValue::Str("bgq\"[a=2]"))]);
        rec.span_end(s, &[]);
        rec.event("note", &[]);
        rec.add("points", 3);
        rec.metrics().observe("lat", 0.5);
        let json = rec.snapshot().to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("bgq\\\"[a=2]"));
        // every event object carries the mandatory fields
        assert!(json.contains("\"pid\":1"));
    }

    #[test]
    fn histogram_samples_carry_buckets_and_quantiles() {
        let rec = CollectingRecorder::new();
        rec.metrics().observe("lat", 0.004);
        rec.metrics().observe("lat", 0.004);
        rec.metrics().observe("lat", 0.04);
        let json = rec.snapshot().to_chrome_json();
        // cumulative le samples: 2 at 5e-3, 3 at 5e-2, +Inf = count
        assert!(json.contains("\"buckets\":{\"0.005\":2,\"0.01\":2,\"0.025\":2,\"0.05\":3"), "{json}");
        assert!(json.contains("\"+Inf\":3"), "{json}");
        assert!(json.contains("\"p50\":"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let rec = CollectingRecorder::new();
        let json = rec.snapshot().to_chrome_json();
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }
}
