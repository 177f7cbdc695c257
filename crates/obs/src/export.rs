//! Exporters: Chrome `trace_event` JSON and JSONL.
//!
//! All output is hand-rolled (no serde in this workspace) and fully
//! deterministic: map iteration is `BTreeMap`-ordered, timestamps are
//! formatted with fixed-width integer arithmetic (never via `f64`
//! formatting), and floats go through one shared formatter — so a
//! virtual-time trace serializes to byte-identical JSON on every run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::MetricValue;
use crate::trace::{ArgValue, TraceEvent, TracePhase};

/// Appends `s` with JSON string escapes applied (no surrounding quotes):
/// the one escaper behind every exporter here and `ln-insight`'s writer.
pub fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
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
}

/// Deterministic `f64` formatting shared by every exporter: finite values
/// via Rust's shortest round-trip `{}`, except that integral values keep a
/// `.0` suffix so a reader can reconstruct the type — `ArgValue::F64(2.0)`
/// must not come back as an integer when the JSONL stream is re-ingested
/// (`ln-insight` relies on this for lossless round trips).
///
/// Public so downstream deterministic writers (the ln-watch flight
/// recorder's black-box header, the bench bins' JSON records) serialize
/// floats byte-identically to the exporters here.
pub fn fmt_f64(value: f64, out: &mut String) {
    if value.is_nan() {
        out.push_str("\"NaN\"");
    } else if value.is_infinite() {
        out.push_str(if value > 0.0 { "\"+Inf\"" } else { "\"-Inf\"" });
    } else if value == value.trunc() && value.abs() < 1e15 {
        let _ = write!(out, "{value:.1}");
    } else {
        let _ = write!(out, "{value}");
    }
}

/// Microsecond timestamp with fixed 3-digit sub-µs fraction, computed with
/// integer arithmetic so it is bit-stable: 1_234_567 ns → `"1234.567"`.
fn fmt_micros(nanos: u64, out: &mut String) {
    let _ = write!(out, "{}.{:03}", nanos / 1_000, nanos % 1_000);
}

fn write_args(args: &[(&'static str, ArgValue)], out: &mut String) {
    out.push('{');
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(key, out);
        out.push_str("\":");
        match value {
            ArgValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(v) => fmt_f64(*v, out),
            ArgValue::Str(s) => {
                out.push('"');
                escape_json(s, out);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// Serializes events as Chrome `trace_event` JSON (object format with a
/// `traceEvents` array), loadable in `chrome://tracing` or Perfetto.
///
/// Tracks map to `tid` under a single `pid` of 1; durations and timestamps
/// are microseconds with fixed 3-digit nanosecond fractions.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(128 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&event.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(event.cat, &mut out);
        out.push_str("\",\"ph\":\"");
        let (ph, dur) = match &event.phase {
            TracePhase::Begin => ("B", None),
            TracePhase::End => ("E", None),
            TracePhase::Complete { dur_nanos } => ("X", Some(*dur_nanos)),
            TracePhase::Instant => ("i", None),
        };
        out.push_str(ph);
        out.push_str("\",\"ts\":");
        fmt_micros(event.ts_nanos, &mut out);
        if let Some(dur_nanos) = dur {
            out.push_str(",\"dur\":");
            fmt_micros(dur_nanos, &mut out);
        }
        if matches!(event.phase, TracePhase::Instant) {
            // Thread-scoped instants render as small arrows on the track.
            out.push_str(",\"s\":\"t\"");
        }
        let _ = write!(out, ",\"pid\":1,\"tid\":{}", event.track);
        if !event.args.is_empty() {
            out.push_str(",\"args\":");
            write_args(&event.args, &mut out);
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Serializes events as one JSON object per line (JSONL), for piping into
/// `jq`-style tooling or log aggregation.
pub fn jsonl_events(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for event in events {
        out.push_str("{\"name\":\"");
        escape_json(&event.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(event.cat, &mut out);
        let (ph, dur) = match &event.phase {
            TracePhase::Begin => ("B", None),
            TracePhase::End => ("E", None),
            TracePhase::Complete { dur_nanos } => ("X", Some(*dur_nanos)),
            TracePhase::Instant => ("i", None),
        };
        let _ = write!(
            out,
            "\",\"ph\":\"{ph}\",\"ts_ns\":{},\"track\":{}",
            event.ts_nanos, event.track
        );
        if let Some(dur_nanos) = dur {
            let _ = write!(out, ",\"dur_ns\":{dur_nanos}");
        }
        if !event.args.is_empty() {
            out.push_str(",\"args\":");
            write_args(&event.args, &mut out);
        }
        out.push_str("}\n");
    }
    out
}

/// Serializes a registry snapshot as one JSON object per line (JSONL):
/// counters and gauges as `{"metric":...,"kind":...,"value":...}`,
/// histograms with `count`, `sum` and the non-zero buckets as
/// `[bucket_index, count]` pairs — index rather than upper bound so the
/// exact [`crate::HistogramSnapshot`] is reconstructible (the ln-watch
/// black box relies on this for its registry↔snapshot roundtrip).
///
/// `BTreeMap` ordering plus [`fmt_f64`] make the output deterministic.
pub fn metrics_jsonl(snapshot: &BTreeMap<String, MetricValue>) -> String {
    let mut out = String::with_capacity(snapshot.len() * 64);
    for (name, value) in snapshot {
        out.push_str("{\"metric\":\"");
        escape_json(name, &mut out);
        out.push_str("\",\"kind\":\"");
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "counter\",\"value\":{v}");
            }
            MetricValue::Gauge(v) => {
                out.push_str("gauge\",\"value\":");
                fmt_f64(*v, &mut out);
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                    h.count, h.sum
                );
                let mut first = true;
                for (i, &n) in h.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{i},{n}]");
                }
                out.push(']');
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::trace::{ArgValue, TraceEvent, TracePhase};
    use crate::ObsLevel;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                name: "queue_wait".into(),
                cat: "queue",
                phase: TracePhase::Complete { dur_nanos: 1500 },
                ts_nanos: 1_234_567,
                track: 2,
                args: vec![("seq_len", ArgValue::U64(128))],
            },
            TraceEvent {
                name: "retry \"x\"".into(),
                cat: "fault",
                phase: TracePhase::Instant,
                ts_nanos: 2_000_000,
                track: 0,
                args: vec![("why", ArgValue::Str("panic\n".into()))],
            },
        ]
    }

    #[test]
    fn chrome_trace_json_is_exact() {
        let json = chrome_trace_json(&sample_events());
        assert_eq!(
            json,
            concat!(
                "{\"traceEvents\":[",
                "{\"name\":\"queue_wait\",\"cat\":\"queue\",\"ph\":\"X\",",
                "\"ts\":1234.567,\"dur\":1.500,\"pid\":1,\"tid\":2,",
                "\"args\":{\"seq_len\":128}},",
                "{\"name\":\"retry \\\"x\\\"\",\"cat\":\"fault\",\"ph\":\"i\",",
                "\"ts\":2000.000,\"s\":\"t\",\"pid\":1,\"tid\":0,",
                "\"args\":{\"why\":\"panic\\n\"}}",
                "],\"displayTimeUnit\":\"ms\"}",
            )
        );
    }

    #[test]
    fn fmt_f64_keeps_float_typing_and_handles_non_finite() {
        let mut out = String::new();
        for (value, expected) in [
            (2.0, "2.0"),
            (-3.0, "-3.0"),
            (0.0, "0.0"),
            (0.5, "0.5"),
            (-1.25, "-1.25"),
            (f64::NAN, "\"NaN\""),
            (f64::INFINITY, "\"+Inf\""),
            (f64::NEG_INFINITY, "\"-Inf\""),
            (1e18, "1000000000000000000"),
        ] {
            out.clear();
            fmt_f64(value, &mut out);
            assert_eq!(out, expected, "fmt_f64({value})");
        }
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let text = jsonl_events(&sample_events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"queue_wait\""));
        assert!(lines[0].contains("\"ts_ns\":1234567"));
        assert!(lines[0].contains("\"dur_ns\":1500"));
        assert!(lines[1].contains("\"ph\":\"i\""));
    }

    #[test]
    fn metrics_jsonl_covers_all_kinds_exactly() {
        let _guard = crate::pin_level(ObsLevel::Counters);
        let reg = Registry::new();
        reg.counter("requests_total").add(3);
        reg.gauge("occupancy").set(0.5);
        let h = reg.histogram("latency_nanos");
        h.record(1);
        h.record(3);
        h.record(900);
        let text = metrics_jsonl(&reg.snapshot());
        let expected = concat!(
            "{\"metric\":\"latency_nanos\",\"kind\":\"histogram\",",
            "\"count\":3,\"sum\":904,\"buckets\":[[1,1],[2,1],[10,1]]}\n",
            "{\"metric\":\"occupancy\",\"kind\":\"gauge\",\"value\":0.5}\n",
            "{\"metric\":\"requests_total\",\"kind\":\"counter\",\"value\":3}\n",
        );
        assert_eq!(text, expected);
    }
}
