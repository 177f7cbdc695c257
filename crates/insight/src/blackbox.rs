//! Re-ingestion of `ln-watch` flight-recorder black boxes and the
//! memory-vs-length report over the watermark table.
//!
//! A black box is one header line, the in-window trace events as JSONL
//! (parsed by [`crate::jsonl`]) and a full registry snapshot as JSONL
//! (parsed here back into [`ln_obs::MetricValue`]s). Both parses are
//! exact inverses of the deterministic exporters, so
//! `ln_obs::metrics_jsonl(&doc.metrics)` reproduces the metric section
//! byte-identically — the fixed point the golden tests pin.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ln_obs::registry::HISTOGRAM_BUCKETS;
use ln_obs::{HistogramSnapshot, MetricValue, TraceEvent};
use ln_scope::{length_bucket_label, LENGTH_BUCKET_BOUNDS};
use ln_watch::WatermarkRow;

use crate::json::{self, Value};
use crate::jsonl;

/// A parsed flight-recorder black box.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackboxDoc {
    /// Snapshot sequence number within its run.
    pub seq: u64,
    /// What fired the snapshot.
    pub trigger: String,
    /// Capture time, virtual nanoseconds.
    pub ts_nanos: u64,
    /// Snapshot window length, nanoseconds.
    pub window_nanos: u64,
    /// Ring evictions up to the capture (0 ⇒ the window is complete).
    pub evicted_total: u64,
    /// The in-window trace events.
    pub events: Vec<TraceEvent>,
    /// The embedded registry snapshot.
    pub metrics: BTreeMap<String, MetricValue>,
}

fn header_u64(header: &Value, key: &str) -> Result<u64, String> {
    header
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("black box header: missing u64 field {key:?}"))
}

/// Parses one black-box artifact (as produced by
/// `ln_watch::FlightRecorder::snapshot`). Errors carry 1-based line
/// numbers; the declared event count is checked against the body.
pub fn parse_blackbox(text: &str) -> Result<BlackboxDoc, String> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or("empty black box")?;
    let header = json::parse(header_line).map_err(|e| format!("line 1: {e}"))?;
    if header.get("blackbox").and_then(Value::as_str) != Some("ln-watch") {
        return Err("line 1: not an ln-watch black box".to_string());
    }
    let trigger = header
        .get("trigger")
        .and_then(Value::as_str)
        .ok_or("line 1: missing trigger")?
        .to_string();
    let seq = header_u64(&header, "seq")?;
    let ts_nanos = header_u64(&header, "ts_ns")?;
    let window_nanos = header_u64(&header, "window_ns")?;
    let declared_events = header_u64(&header, "events")?;
    let evicted_total = header_u64(&header, "evicted_total")?;

    let mut event_text = String::new();
    let mut metrics = BTreeMap::new();
    for (idx, line) in lines.enumerate() {
        let line_no = idx + 2;
        if line.trim().is_empty() {
            continue;
        }
        let obj = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        if obj.get("metric").is_some() {
            let (name, value) = parse_metric_line(&obj, line_no)?;
            metrics.insert(name, value);
        } else {
            event_text.push_str(line);
            event_text.push('\n');
        }
    }
    let events = jsonl::parse_events(&event_text)?;
    if events.len() as u64 != declared_events {
        return Err(format!(
            "header declares {declared_events} events, body has {}",
            events.len()
        ));
    }
    Ok(BlackboxDoc {
        seq,
        trigger,
        ts_nanos,
        window_nanos,
        evicted_total,
        events,
        metrics,
    })
}

/// Parses a standalone [`ln_obs::metrics_jsonl`] document back into the
/// snapshot map it came from (the registry ↔ snapshot round trip).
pub fn parse_metrics(text: &str) -> Result<BTreeMap<String, MetricValue>, String> {
    let mut metrics = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let obj = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let (name, value) = parse_metric_line(&obj, line_no)?;
        metrics.insert(name, value);
    }
    Ok(metrics)
}

fn parse_metric_line(obj: &Value, line_no: usize) -> Result<(String, MetricValue), String> {
    let name = obj
        .get("metric")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("line {line_no}: metric name is not a string"))?
        .to_string();
    let kind = obj
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("line {line_no}: missing kind"))?;
    let value = match kind {
        "counter" => MetricValue::Counter(
            obj.get("value")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {line_no}: counter value is not a u64"))?,
        ),
        "gauge" => {
            let raw = obj
                .get("value")
                .ok_or_else(|| format!("line {line_no}: missing gauge value"))?;
            let v = match raw {
                // Non-finite gauges export as quoted strings.
                Value::Str(s) if s == "NaN" => f64::NAN,
                Value::Str(s) if s == "+Inf" => f64::INFINITY,
                Value::Str(s) if s == "-Inf" => f64::NEG_INFINITY,
                other => other
                    .as_f64()
                    .ok_or_else(|| format!("line {line_no}: gauge value is not a number"))?,
            };
            MetricValue::Gauge(v)
        }
        "histogram" => {
            let count = obj
                .get("count")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {line_no}: histogram count is not a u64"))?;
            let sum = obj
                .get("sum")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {line_no}: histogram sum is not a u64"))?;
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            let pairs = obj
                .get("buckets")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("line {line_no}: histogram buckets is not an array"))?;
            for pair in pairs {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("line {line_no}: bucket entry is not a pair"))?;
                let index = pair[0]
                    .as_u64()
                    .ok_or_else(|| format!("line {line_no}: bucket index is not a u64"))?;
                let hits = pair[1]
                    .as_u64()
                    .ok_or_else(|| format!("line {line_no}: bucket count is not a u64"))?;
                let slot = usize::try_from(index)
                    .ok()
                    .filter(|&i| i < HISTOGRAM_BUCKETS)
                    .ok_or_else(|| format!("line {line_no}: bucket index {index} out of range"))?;
                buckets[slot] = hits;
            }
            MetricValue::Histogram(Box::new(HistogramSnapshot {
                buckets,
                sum,
                count,
            }))
        }
        other => return Err(format!("line {line_no}: unknown metric kind {other:?}")),
    };
    Ok((name, value))
}

fn fmt_mib(bytes: f64) -> String {
    format!("{:.1}", bytes / (1024.0 * 1024.0))
}

/// Renders the watermark table as a memory-vs-length report: one row per
/// length bucket, the modeled peak activation footprint (MiB, max over
/// batches) per AAQ rung, and each quantized rung's fraction of FP32 —
/// the live-telemetry analogue of the paper's Fig. 4 memory cliff.
/// Deterministic: same rows, byte-identical text.
pub fn memory_vs_length_table(rows: &[WatermarkRow]) -> String {
    let mut cell = BTreeMap::new();
    for r in rows {
        cell.insert((r.bucket, r.precision), r);
    }
    let mut out = String::new();
    out.push_str("memory vs length (modeled peak activation MiB, max per cell)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "bucket", "batches", "fp32", "int8", "int4", "int8/fp32", "int4/fp32"
    );
    // One row per canonical length bucket, shortest first: each bound's
    // own bucket, then the one past the last bound.
    let buckets = LENGTH_BUCKET_BOUNDS.into_iter().chain([usize::MAX]);
    for bucket in buckets.map(length_bucket_label) {
        let fp32 = cell.get(&(bucket, "fp32")).copied();
        let int8 = cell.get(&(bucket, "int8")).copied();
        let int4 = cell.get(&(bucket, "int4")).copied();
        if fp32.is_none() && int8.is_none() && int4.is_none() {
            continue;
        }
        let batches: u64 = [fp32, int8, int4].iter().flatten().map(|r| r.batches).sum();
        let col =
            |r: Option<&WatermarkRow>| r.map_or_else(|| "-".to_string(), |r| fmt_mib(r.max_bytes));
        let ratio = |r: Option<&WatermarkRow>| match (r, fp32) {
            (Some(r), Some(f)) if f.max_bytes > 0.0 => {
                format!("{:.3}", r.max_bytes / f.max_bytes)
            }
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            bucket,
            batches,
            col(fp32),
            col(int8),
            col(int4),
            ratio(int8),
            ratio(int4),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_obs::Registry;

    fn demo_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("watch_recorder_dropped_total").add(3);
        reg.gauge("watch_slo_burn_rate{slo=\"deadline\"}").set(2.5);
        let h = reg.histogram("watch_peak_activation_bytes");
        h.record(900);
        h.record(1 << 20);
        reg
    }

    #[test]
    fn metrics_roundtrip_is_a_fixed_point() {
        let _guard = ln_obs::pin_level(ln_obs::ObsLevel::Counters);
        let reg = demo_registry();
        let snap = reg.snapshot();
        let text = ln_obs::metrics_jsonl(&snap);
        let parsed = parse_metrics(&text).expect("re-ingest own metrics");
        assert_eq!(parsed, snap);
        assert_eq!(ln_obs::metrics_jsonl(&parsed), text);
    }

    #[test]
    fn blackbox_roundtrip_preserves_header_events_and_metrics() {
        let _guard = ln_obs::pin_level(ln_obs::ObsLevel::Counters);
        let mut rec = ln_watch::FlightRecorder::new(16, 30.0);
        rec.record(TraceEvent {
            name: "fold_batch".to_string(),
            cat: "kernel",
            phase: ln_obs::TracePhase::Complete { dur_nanos: 5_000 },
            ts_nanos: ln_obs::seconds_to_nanos(9.0),
            track: 101,
            args: vec![("peak_bytes", ln_obs::ArgValue::F64(1024.0))],
        });
        let reg = demo_registry();
        let artifact = rec.snapshot("slo_breach:deadline@shard:1", 2, 10.0, &reg);
        let doc = parse_blackbox(&artifact).expect("re-ingest own black box");
        assert_eq!(doc.seq, 2);
        assert_eq!(doc.trigger, "slo_breach:deadline@shard:1");
        assert_eq!(doc.events.len(), 1);
        assert_eq!(doc.events[0].name, "fold_batch");
        assert_eq!(doc.metrics, reg.snapshot());
        // The metric section re-serializes byte-identically.
        assert!(artifact.ends_with(&ln_obs::metrics_jsonl(&doc.metrics)));
    }

    #[test]
    fn truncated_blackbox_is_rejected() {
        let reg = Registry::new();
        let rec = ln_watch::FlightRecorder::new(4, 30.0);
        let artifact = rec.snapshot("t", 0, 1.0, &reg);
        let mangled = artifact.replacen("\"events\":0", "\"events\":7", 1);
        assert!(parse_blackbox(&mangled).unwrap_err().contains("declares 7"));
    }

    #[test]
    fn memory_table_orders_buckets_and_shows_reduction() {
        let rows = vec![
            WatermarkRow {
                bucket: "le_2048",
                precision: "fp32",
                batches: 2,
                max_bytes: 8.0 * 1024.0 * 1024.0,
                mean_bytes: 8.0 * 1024.0 * 1024.0,
            },
            WatermarkRow {
                bucket: "le_2048",
                precision: "int8",
                batches: 1,
                max_bytes: 2.0 * 1024.0 * 1024.0,
                mean_bytes: 2.0 * 1024.0 * 1024.0,
            },
            WatermarkRow {
                bucket: "le_256",
                precision: "fp32",
                batches: 1,
                max_bytes: 1024.0 * 1024.0,
                mean_bytes: 1024.0 * 1024.0,
            },
        ];
        let table = memory_vs_length_table(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "{table}");
        assert!(lines[2].starts_with("le_256"), "{table}");
        assert!(lines[3].starts_with("le_2048"), "{table}");
        assert!(
            lines[3].contains("0.250"),
            "int8 is a quarter of fp32: {table}"
        );
        assert!(
            lines[2].contains('-'),
            "missing rungs render as '-': {table}"
        );
    }
}
