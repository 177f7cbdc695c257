//! # ln-watch
//!
//! Live observability for the LightNobel reproduction, layered on
//! `ln-obs` and consumed by the serving engine and the cluster router:
//!
//! * [`slo`] — declarative SLO specs (deadline hit rate, tail latency,
//!   degradation rate) evaluated as multi-window virtual-time burn rates
//!   with per-shard and per-length-bucket error budgets.
//! * [`recorder`] — the fault flight recorder: an always-on bounded event
//!   ring that snapshots a deterministic JSONL "black box" (recent spans
//!   plus a full registry snapshot) on SLO breach, breaker open, shard
//!   loss or partition window.
//! * [`watermark`] — per-request peak-activation-byte accounting by
//!   length bucket × AAQ precision (the quantity the paper bounds).
//! * [`health`] — shard health in `[0, 1]` from burn rate + watermark
//!   pressure, feeding the cluster's capability walk and autoscaler.
//!
//! [`Watch`] owns a **run-local** [`ln_obs::Registry`], not the process
//! registry: black boxes embed that local snapshot, so they are
//! byte-identical across `ln-par` pool sizes and across sequential runs in
//! one process (the global registry accumulates monotonically and mixes
//! wall-world metrics, which would break both). [`Watch::export_global`]
//! mirrors the local metrics into the global registry once, at end of
//! run, for dashboards and `report::obs_tables()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod recorder;
pub mod slo;
pub mod watermark;

pub use health::health_score;
pub use recorder::FlightRecorder;
pub use slo::{Breach, BudgetRow, FoldObservation, ObservedOutcome, SloEngine, SloKind, SloSpec};
pub use watermark::{WatermarkRow, WatermarkTracker};

use ln_obs::{MetricValue, Registry, TraceEvent};
use ln_quant::ActPrecision;
use ln_scope::length_bucket_label;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Configuration of one [`Watch`].
#[derive(Debug, Clone, PartialEq)]
pub struct WatchConfig {
    /// The objectives to evaluate. Defaults to a 90% deadline-hit-rate, a
    /// 99%-under-60s latency objective and an 80% full-precision
    /// objective.
    pub slos: Vec<SloSpec>,
    /// Flight-recorder ring capacity, events.
    pub recorder_capacity: usize,
    /// How many virtual seconds of events a black box includes.
    pub recorder_window_seconds: f64,
    /// At most this many black boxes per run (triggers past the cap still
    /// count events but skip the snapshot).
    pub max_blackboxes: usize,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            slos: vec![
                SloSpec::deadline_hit_rate("deadline", 0.9),
                SloSpec::p99_latency("p99_latency", 60.0, 0.99),
                SloSpec::degradation_rate("precision", 0.8),
            ],
            recorder_capacity: 4096,
            recorder_window_seconds: 30.0,
            max_blackboxes: 16,
        }
    }
}

/// One captured black-box artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Blackbox {
    /// Snapshot sequence number within the run (0-based).
    pub seq: u64,
    /// What fired the snapshot.
    pub trigger: String,
    /// Virtual capture time.
    pub at_seconds: f64,
    /// The JSONL artifact (header, events, metrics).
    pub artifact: String,
}

/// End-of-run summary of everything a [`Watch`] saw.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchReport {
    /// Error-budget accounting per `(slo, scope)`.
    pub budgets: Vec<BudgetRow>,
    /// The memory-vs-length watermark table.
    pub watermarks: Vec<WatermarkRow>,
    /// `(seq, trigger, at_seconds)` of every captured black box.
    pub blackboxes: Vec<(u64, String, f64)>,
    /// Events the flight-recorder ring evicted.
    pub recorder_evicted: u64,
    /// Breaches fired over the whole run (cumulative, not just currently
    /// burning scopes).
    pub breaches_total: u64,
}

/// The live-observability hub for one run: SLO engine + flight recorder +
/// watermark tracker over a run-local registry.
#[derive(Debug)]
pub struct Watch {
    config: WatchConfig,
    registry: Registry,
    slos: SloEngine,
    recorder: FlightRecorder,
    watermarks: WatermarkTracker,
    blackboxes: Vec<Blackbox>,
    breaches_total: u64,
    shard_pressure: BTreeMap<usize, f64>,
}

/// Shared handle: the engine and the cluster router both feed one `Watch`,
/// and the engine must stay `Send` for the threaded `FoldService`.
pub type WatchHandle = Arc<Mutex<Watch>>;

impl Watch {
    /// A watch over `config` with empty state.
    pub fn new(config: WatchConfig) -> Self {
        let slos = SloEngine::new(config.slos.clone());
        let recorder =
            FlightRecorder::new(config.recorder_capacity, config.recorder_window_seconds);
        Watch {
            config,
            registry: Registry::new(),
            slos,
            recorder,
            watermarks: WatermarkTracker::new(),
            blackboxes: Vec::new(),
            breaches_total: 0,
            shard_pressure: BTreeMap::new(),
        }
    }

    /// A shareable handle over a fresh watch.
    pub fn handle(config: WatchConfig) -> WatchHandle {
        Arc::new(Mutex::new(Watch::new(config)))
    }

    /// Locks a handle, recovering from poisoning (watch state is a plain
    /// data structure; a panicked holder cannot leave it logically torn
    /// in a way later readers care about).
    pub fn lock(handle: &WatchHandle) -> std::sync::MutexGuard<'_, Watch> {
        handle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The run-local registry (tests and exporters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Feeds one terminal request outcome into the SLO engine. Completed
    /// requests additionally record their worst-layer relative RMSE into
    /// a per-length-bucket histogram (parts-per-billion, so the integer
    /// buckets resolve 1e-9..1 RMSE) in the run-local registry — the raw
    /// series behind the accuracy error budget.
    pub fn observe(&mut self, obs: &FoldObservation) {
        if let ObservedOutcome::Completed { worst_rmse, .. } = obs.outcome {
            self.registry
                .histogram(&ln_obs::labeled(
                    "watch_worst_layer_rmse_ppb",
                    &[("bucket", length_bucket_label(obs.length))],
                ))
                .record((worst_rmse * 1e9).round() as u64);
        }
        self.slos.observe(obs);
    }

    /// Feeds one trace event into the flight recorder (always on).
    pub fn record_event(&mut self, event: TraceEvent) {
        let before = self.recorder.evicted();
        self.recorder.record(event);
        if self.recorder.evicted() > before {
            self.registry.counter("watch_recorder_dropped_total").inc();
            ln_obs::registry()
                .counter("watch_recorder_dropped_total")
                .inc();
        }
    }

    /// Records one settled batch's modeled peak activation bytes.
    pub fn record_watermark(
        &mut self,
        max_length: usize,
        precision: ActPrecision,
        peak_bytes: f64,
    ) {
        self.watermarks
            .record(&self.registry, max_length, precision, peak_bytes);
    }

    /// Notes a shard's activation-memory pressure fraction (peak bytes
    /// over capacity, clamped to `[0, 1]`) for health scoring.
    pub fn note_shard_pressure(&mut self, shard: usize, pressure: f64) {
        self.shard_pressure.insert(shard, pressure.clamp(0.0, 1.0));
    }

    /// Evaluates every SLO at virtual `now`: refreshes burn-rate and
    /// budget gauges, snapshots a black box per fresh breach, and returns
    /// the breaches so the caller can emit trace instants.
    pub fn evaluate(&mut self, now: f64) -> Vec<Breach> {
        let breaches = self.slos.evaluate(now, &self.registry);
        self.breaches_total += breaches.len() as u64;
        for b in &breaches {
            let trigger = format!("slo_breach:{}@{}", b.slo, b.scope);
            self.snapshot(&trigger, now);
        }
        breaches
    }

    /// Captures a black box for an external trigger (`"breaker_open"`,
    /// `"shard_loss:2"`, `"partition_window:1"`, ...).
    pub fn trigger(&mut self, trigger: &str, now: f64) {
        self.snapshot(trigger, now);
    }

    fn snapshot(&mut self, trigger: &str, now: f64) {
        if self.blackboxes.len() >= self.config.max_blackboxes {
            return;
        }
        let seq = self.blackboxes.len() as u64;
        let artifact = self.recorder.snapshot(trigger, seq, now, &self.registry);
        self.blackboxes.push(Blackbox {
            seq,
            trigger: trigger.to_string(),
            at_seconds: now,
            artifact,
        });
    }

    /// Health score in `[0, 1]` for one shard, from its fast-window burn
    /// and last-noted memory pressure. 1.0 for a shard with no history.
    pub fn shard_health(&self, shard: usize) -> f64 {
        let scope = format!("shard:{shard}");
        let burn = self.slos.max_fast_burn(&scope);
        let threshold = self
            .config
            .slos
            .iter()
            .map(|s| s.burn_threshold)
            .fold(f64::INFINITY, f64::min);
        let threshold = if threshold.is_finite() {
            threshold
        } else {
            2.0
        };
        let pressure = self.shard_pressure.get(&shard).copied().unwrap_or(0.0);
        health_score(burn, threshold, pressure)
    }

    /// The captured black boxes, in capture order.
    pub fn blackboxes(&self) -> &[Blackbox] {
        &self.blackboxes
    }

    /// The end-of-run summary.
    pub fn report(&self) -> WatchReport {
        WatchReport {
            budgets: self.slos.rows(),
            watermarks: self.watermarks.rows(),
            blackboxes: self
                .blackboxes
                .iter()
                .map(|b| (b.seq, b.trigger.clone(), b.at_seconds))
                .collect(),
            recorder_evicted: self.recorder.evicted(),
            breaches_total: self.breaches_total,
        }
    }

    /// Mirrors the run-local registry into the process-wide one — call
    /// once at end of run. Counters add, gauges overwrite, histograms
    /// merge, so dashboards and `report::obs_tables()` see the watch
    /// metrics alongside everything else.
    pub fn export_global(&self) {
        let global = ln_obs::registry();
        for (name, value) in self.registry.snapshot() {
            match value {
                MetricValue::Counter(v) => global.counter(&name).add(v),
                MetricValue::Gauge(v) => global.gauge(&name).set(v),
                MetricValue::Histogram(h) => global.histogram(&name).merge(&h),
            }
        }
    }
}

impl Default for Watch {
    fn default() -> Self {
        Watch::new(WatchConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_obs::TracePhase;

    fn instant(name: &str, at_seconds: f64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "test",
            phase: TracePhase::Instant,
            ts_nanos: ln_obs::seconds_to_nanos(at_seconds),
            track: 0,
            args: Vec::new(),
        }
    }

    fn failed(at: f64) -> FoldObservation {
        FoldObservation {
            shard: Some(1),
            length: 1024,
            at_seconds: at,
            outcome: ObservedOutcome::Failed,
        }
    }

    #[test]
    fn breach_captures_blackbox_and_counts_budget() {
        let mut watch = Watch::new(WatchConfig {
            slos: vec![SloSpec {
                min_events: 4,
                ..SloSpec::deadline_hit_rate("deadline", 0.5)
            }],
            ..WatchConfig::default()
        });
        for i in 0..4 {
            watch.record_event(instant("fail", i as f64));
            watch.observe(&failed(i as f64));
        }
        let breaches = watch.evaluate(4.0);
        assert_eq!(breaches.len(), 3, "global, shard:1, bucket:le_1024");
        let report = watch.report();
        assert_eq!(report.breaches_total, 3);
        assert_eq!(report.blackboxes.len(), 3);
        assert!(report.blackboxes[0].1.starts_with("slo_breach:deadline@"));
        let spent: u64 = report
            .budgets
            .iter()
            .filter(|r| r.scope == "global")
            .map(|r| r.budget_spent)
            .sum();
        assert_eq!(spent, 4, "every bad event is budget spent");
        assert!(watch.blackboxes()[0].artifact.contains("\"name\":\"fail\""));
    }

    #[test]
    fn unhealthy_shard_scores_below_fresh_shard() {
        let mut watch = Watch::new(WatchConfig {
            slos: vec![SloSpec {
                min_events: 4,
                ..SloSpec::deadline_hit_rate("deadline", 0.5)
            }],
            ..WatchConfig::default()
        });
        assert_eq!(watch.shard_health(0), 1.0);
        for i in 0..4 {
            watch.observe(&failed(i as f64));
        }
        watch.evaluate(4.0);
        assert_eq!(watch.shard_health(1), 0.0, "burning at 2x threshold");
        assert_eq!(watch.shard_health(0), 1.0, "other shards unaffected");
        watch.note_shard_pressure(0, 1.0);
        assert_eq!(watch.shard_health(0), 0.5);
    }

    #[test]
    fn blackbox_cap_bounds_snapshots() {
        let mut watch = Watch::new(WatchConfig {
            max_blackboxes: 2,
            ..WatchConfig::default()
        });
        for i in 0..5 {
            watch.trigger("breaker_open", i as f64);
        }
        assert_eq!(watch.blackboxes().len(), 2);
        assert_eq!(watch.blackboxes()[1].seq, 1);
    }
}
