//! Output sinks: deterministic JSONL rendering and the human stderr
//! summary.
//!
//! The JSONL serializer is hand-rolled (no deps) and deterministic: field
//! order is the caller's, metric order is name-sorted, floats go through
//! Rust's shortest-roundtrip `Display`, and non-finite floats become
//! `null` (so a NaN loss is machine-greppable as `"loss":null`).

use std::fmt::Write as _;

use crate::registry::MetricValue;
use crate::{EventValue, Obs};

/// Escapes `s` as the inside of a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
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

/// Renders an `f64` as a JSON value; non-finite values become `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_event_value(out: &mut String, v: &EventValue) {
    match v {
        EventValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        EventValue::F64(x) => push_f64(out, *x),
        EventValue::Str(s) => push_json_str(out, s),
        EventValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

/// Renders one event as a single JSON object line (no trailing newline).
pub(crate) fn render_event(name: &str, fields: &[(&str, EventValue)]) -> String {
    let mut out = String::from("{\"event\":");
    push_json_str(&mut out, name);
    for (key, value) in fields {
        out.push(',');
        push_json_str(&mut out, key);
        out.push(':');
        push_event_value(&mut out, value);
    }
    out.push('}');
    out
}

/// Renders one metric as a single JSON object line (no trailing newline).
pub(crate) fn render_metric(name: &str, value: &MetricValue) -> String {
    let mut out = String::from("{\"metric\":");
    push_json_str(&mut out, name);
    match value {
        MetricValue::Counter(n) => {
            let _ = write!(out, ",\"type\":\"counter\",\"value\":{n}");
        }
        MetricValue::Gauge(v) => {
            out.push_str(",\"type\":\"gauge\",\"value\":");
            push_f64(&mut out, *v);
        }
        MetricValue::Histogram(h) => {
            let _ = write!(
                out,
                ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.max
            );
            for (i, (bucket, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{bucket},{n}]");
            }
            out.push(']');
        }
    }
    out.push('}');
    out
}

/// Renders the full JSONL document: event lines in insertion order, then
/// one line per metric in name-sorted order. Ends with a newline when
/// non-empty.
pub(crate) fn render_jsonl(events: &[String], metrics: &[(String, MetricValue)]) -> String {
    let mut out = String::new();
    for line in events {
        out.push_str(line);
        out.push('\n');
    }
    for (name, value) in metrics {
        out.push_str(&render_metric(name, value));
        out.push('\n');
    }
    out
}

/// Prints the human run summary to stderr: recorded metrics plus the
/// process-global diagnostics (checkpoint write retries, fired fault
/// injections).
pub(crate) fn print_summary(obs: &Obs) {
    eprintln!("[mhg-obs] run summary ({} events)", obs.event_count());
    for (name, value) in obs.metrics() {
        match value {
            MetricValue::Counter(n) => eprintln!("[mhg-obs]   counter {name} = {n}"),
            MetricValue::Gauge(v) => eprintln!("[mhg-obs]   gauge {name} = {v}"),
            MetricValue::Histogram(h) => {
                let mean = if h.count > 0 {
                    h.sum as f64 / h.count as f64
                } else {
                    0.0
                };
                eprintln!(
                    "[mhg-obs]   hist {name}: count={} sum_ns={} max_ns={} mean_ns={mean:.0}",
                    h.count, h.sum, h.max
                );
            }
        }
    }
    let retries = mhg_ckpt::write_retries();
    if retries > 0 {
        eprintln!("[mhg-obs]   ckpt write retries: {retries}");
    }
    let fired = mhg_faults::fired();
    if !fired.is_empty() {
        eprintln!("[mhg-obs]   fault injections fired: {}", fired.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{HistogramSnapshot, MetricValue};

    #[test]
    fn event_renders_fields_in_order() {
        let line = render_event(
            "epoch",
            &[
                ("epoch", EventValue::U64(3)),
                ("loss", EventValue::F64(0.5)),
                ("tag", EventValue::Str("a\"b".to_string())),
                ("ok", EventValue::Bool(true)),
            ],
        );
        assert_eq!(
            line,
            "{\"event\":\"epoch\",\"epoch\":3,\"loss\":0.5,\"tag\":\"a\\\"b\",\"ok\":true}"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let line = render_event("epoch", &[("loss", EventValue::F64(f64::NAN))]);
        assert_eq!(line, "{\"event\":\"epoch\",\"loss\":null}");
        let line = render_event("epoch", &[("loss", EventValue::F64(f64::INFINITY))]);
        assert_eq!(line, "{\"event\":\"epoch\",\"loss\":null}");
    }

    #[test]
    fn metric_lines_render_each_kind() {
        assert_eq!(
            render_metric("a/c", &MetricValue::Counter(7)),
            "{\"metric\":\"a/c\",\"type\":\"counter\",\"value\":7}"
        );
        assert_eq!(
            render_metric("a/g", &MetricValue::Gauge(1.25)),
            "{\"metric\":\"a/g\",\"type\":\"gauge\",\"value\":1.25}"
        );
        let h = HistogramSnapshot {
            count: 2,
            sum: 12,
            max: 9,
            buckets: vec![(2, 1), (4, 1)],
        };
        assert_eq!(
            render_metric("a/h", &MetricValue::Histogram(h)),
            "{\"metric\":\"a/h\",\"type\":\"histogram\",\"count\":2,\"sum\":12,\"max\":9,\
             \"buckets\":[[2,1],[4,1]]}"
        );
    }

    #[test]
    fn control_chars_are_escaped() {
        let line = render_event("note", &[("msg", EventValue::Str("a\nb\u{1}".to_string()))]);
        assert_eq!(line, "{\"event\":\"note\",\"msg\":\"a\\nb\\u0001\"}");
    }
}
