//! Serving statistics: throughput, latency percentiles, queue depth and
//! per-bucket occupancy, rendered as `lightnobel::report` tables — plus
//! the resilience counters (injected faults, retries, breaker
//! transitions, precision degradations) added with the fault layer.

use crate::bucket::BucketPolicy;
use lightnobel::report::{fmt_pct, fmt_seconds, Table};
use ln_fault::BreakerEvent;
use ln_quant::ActPrecision;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Registry handles for the service-wide `serve_*` metrics. Resolved once;
/// every [`ServeStats`] update mirrors into these, so a Prometheus dump of
/// [`ln_obs::registry()`] includes live serving totals.
struct ServeMetrics {
    completed: ln_obs::Counter,
    rejected: ln_obs::Counter,
    timed_out: ln_obs::Counter,
    failed: ln_obs::Counter,
    batches: ln_obs::Counter,
    latency_nanos: ln_obs::Histogram,
    peak_activation_bytes: ln_obs::Histogram,
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = ln_obs::registry();
        ServeMetrics {
            completed: reg.counter("serve_completed_total"),
            rejected: reg.counter("serve_rejected_total"),
            timed_out: reg.counter("serve_timed_out_total"),
            failed: reg.counter("serve_failed_total"),
            batches: reg.counter("serve_batches_total"),
            latency_nanos: reg.histogram("serve_latency_nanos"),
            peak_activation_bytes: reg.histogram("serve_peak_activation_bytes"),
        }
    })
}

/// One dispatched batch (the unit of the deterministic schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Length bucket the batch was drawn from.
    pub bucket: usize,
    /// Executing backend.
    pub backend: String,
    /// Sequence lengths in dispatch order.
    pub lengths: Vec<usize>,
    /// Virtual dispatch time, seconds.
    pub start_seconds: f64,
    /// Virtual completion time, seconds.
    pub finish_seconds: f64,
    /// Activation precision the batch executed at.
    pub precision: ActPrecision,
    /// Modeled peak bytes of the batch at `precision` (from
    /// `Backend::batch_peak_bytes_at`: resident weights plus activations)
    /// — the quantity the paper bounds, logged per batch for watermark
    /// telemetry.
    pub peak_bytes: f64,
}

/// Counters and samples for one length bucket.
#[derive(Debug, Clone, Default)]
pub struct BucketStats {
    /// Requests folded to completion.
    pub completed: u64,
    /// Requests refused at admission (queue full / unroutable / deadline).
    pub rejected: u64,
    /// Requests that expired while queued.
    pub timed_out: u64,
    /// Requests that reached a typed terminal failure after admission.
    pub failed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Sum of batch sizes (for occupancy).
    pub co_batched: u64,
    /// End-to-end latencies of completed requests, seconds.
    latencies: Vec<f64>,
    /// Lazily sorted copy of `latencies` for percentile queries; `None`
    /// whenever new latencies have been pushed since the last sort, so the
    /// sort happens once per batch of queries instead of once per query.
    sorted_latencies: RefCell<Option<Vec<f64>>>,
    depth_sum: f64,
    depth_samples: u64,
}

/// The percentile cache is derived state: two collectors with the same
/// recorded samples are equal regardless of which has materialized its
/// sorted copy.
impl PartialEq for BucketStats {
    fn eq(&self, other: &Self) -> bool {
        self.completed == other.completed
            && self.rejected == other.rejected
            && self.timed_out == other.timed_out
            && self.failed == other.failed
            && self.batches == other.batches
            && self.co_batched == other.co_batched
            && self.latencies == other.latencies
            && self.depth_sum == other.depth_sum
            && self.depth_samples == other.depth_samples
    }
}

impl BucketStats {
    /// Latency percentile (0.0–1.0) over completed requests. Sorts the
    /// samples lazily on first query and reuses the sorted copy until the
    /// next [`ServeStats::record_batch`] invalidates it.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut cache = self.sorted_latencies.borrow_mut();
        let sorted = cache.get_or_insert_with(|| {
            let mut sorted = self.latencies.clone();
            sorted.sort_by(f64::total_cmp);
            sorted
        });
        let idx = ((p * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        Some(sorted[idx])
    }

    /// Mean queue depth over recorded samples.
    pub fn mean_depth(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum / self.depth_samples as f64
        }
    }

    /// Mean batch fill ratio against the configured maximum batch size.
    pub fn occupancy(&self, max_batch: usize) -> f64 {
        if self.batches == 0 || max_batch == 0 {
            0.0
        } else {
            self.co_batched as f64 / (self.batches * max_batch as u64) as f64
        }
    }
}

/// Resilience counters for one backend in the pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendResilience {
    /// Backend name (pool order is preserved, so rows are deterministic).
    pub name: String,
    /// Batches dispatched to this backend (including ones that later
    /// failed).
    pub dispatches: u64,
    /// Injected stalls absorbed (the batch still completed, late).
    pub stalls: u64,
    /// Injected transient compute errors.
    pub transients: u64,
    /// Contained worker panics.
    pub panics: u64,
    /// Circuit-breaker trips (closed/half-open → open).
    pub breaker_opens: u64,
    /// Half-open probe dispatches granted after cooldown.
    pub breaker_probes: u64,
    /// Breaker recoveries (half-open probe succeeded → closed).
    pub breaker_closes: u64,
    /// Batches executed at INT8 under memory pressure.
    pub degraded_int8: u64,
    /// Batches executed at INT4 under memory pressure.
    pub degraded_int4: u64,
}

impl BackendResilience {
    /// Records a batch executing at `precision` (no-op at FP32).
    pub fn record_precision(&mut self, precision: ActPrecision) {
        match precision {
            ActPrecision::Fp32 => {}
            ActPrecision::Int8 => self.degraded_int8 += 1,
            ActPrecision::Int4 => self.degraded_int4 += 1,
        }
    }

    /// Records a breaker state transition.
    pub fn record_breaker(&mut self, event: BreakerEvent) {
        match event {
            BreakerEvent::Opened => self.breaker_opens += 1,
            BreakerEvent::HalfOpened => self.breaker_probes += 1,
            BreakerEvent::Closed => self.breaker_closes += 1,
        }
    }
}

/// Service-wide resilience counters (fault layer observability).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceStats {
    /// Per-backend fault/breaker/degradation rows, in pool order.
    pub backends: Vec<BackendResilience>,
    /// Re-dispatch attempts scheduled after a failed batch.
    pub retries: u64,
    /// Injected bucket-queue poison events that fired.
    pub poison_events: u64,
    /// Admission rejections because the best-case service time already
    /// exceeded the request's deadline.
    pub deadline_unmeetable: u64,
    /// Requests answered `Cancelled` at shutdown.
    pub cancelled: u64,
}

impl ResilienceStats {
    /// Registers the backend pool (row order = pool order).
    pub fn register_backends<S: Into<String>>(&mut self, names: impl IntoIterator<Item = S>) {
        self.backends = names
            .into_iter()
            .map(|n| BackendResilience {
                name: n.into(),
                ..BackendResilience::default()
            })
            .collect();
    }

    /// Total injected faults observed across backends.
    pub fn faults(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.stalls + b.transients + b.panics)
            .sum()
    }

    /// Total batches executed below FP32.
    pub fn degraded_batches(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.degraded_int8 + b.degraded_int4)
            .sum()
    }
}

/// Per-request accuracy accounting: the modeled worst-layer relative
/// quantization RMSE each completed request was served with
/// (`ln_scope::modeled_worst_rmse` of its batch's precision and length).
///
/// Deliberately *not* folded into [`ServeStats::fingerprint`]: the
/// fingerprint pins the schedule and fault handling, and the accuracy
/// view is derived telemetry layered on top — extending it must not
/// invalidate golden fingerprints (same contract as the cluster's watch
/// artifacts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccuracyStats {
    /// Completed requests recorded.
    pub requests: u64,
    /// Σ worst-layer relative RMSE over those requests.
    pub sum_worst_rmse: f64,
    /// Largest per-request worst-layer RMSE seen.
    pub max_worst_rmse: f64,
    /// Requests served below FP32 (the ones carrying nonzero RMSE).
    pub degraded_requests: u64,
}

impl AccuracyStats {
    /// Records one completed request.
    pub fn record(&mut self, worst_rmse: f64, degraded: bool) {
        self.requests += 1;
        self.sum_worst_rmse += worst_rmse;
        self.max_worst_rmse = self.max_worst_rmse.max(worst_rmse);
        self.degraded_requests += u64::from(degraded);
    }

    /// Folds `other` into `self` (shard roll-up).
    pub fn merge(&mut self, other: &AccuracyStats) {
        self.requests += other.requests;
        self.sum_worst_rmse += other.sum_worst_rmse;
        self.max_worst_rmse = self.max_worst_rmse.max(other.max_worst_rmse);
        self.degraded_requests += other.degraded_requests;
    }
}

/// The service-wide statistics collector.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    buckets: Vec<BucketStats>,
    /// Every successfully completed batch, in dispatch order (failed
    /// batches are counted in [`ResilienceStats`], not logged here).
    pub batch_log: Vec<BatchRecord>,
    /// Virtual time of the last event, seconds.
    pub makespan_seconds: f64,
    /// Fault/retry/breaker/degradation counters.
    pub resilience: ResilienceStats,
    /// Per-request accuracy telemetry (outside the fingerprint).
    pub accuracy: AccuracyStats,
}

impl ServeStats {
    /// An empty collector for `n_buckets` buckets.
    pub fn new(n_buckets: usize) -> Self {
        ServeStats {
            buckets: vec![BucketStats::default(); n_buckets],
            batch_log: Vec::new(),
            makespan_seconds: 0.0,
            resilience: ResilienceStats::default(),
            accuracy: AccuracyStats::default(),
        }
    }

    /// Per-bucket statistics.
    pub fn bucket(&self, bucket: usize) -> &BucketStats {
        &self.buckets[bucket]
    }

    /// Records a refused request.
    pub fn record_rejection(&mut self, bucket: usize) {
        self.buckets[bucket].rejected += 1;
        serve_metrics().rejected.inc();
    }

    /// Records an expired request.
    pub fn record_timeout(&mut self, bucket: usize) {
        self.buckets[bucket].timed_out += 1;
        serve_metrics().timed_out.inc();
    }

    /// Records a typed terminal failure.
    pub fn record_failure(&mut self, bucket: usize) {
        self.buckets[bucket].failed += 1;
        serve_metrics().failed.inc();
    }

    /// Records a queue-depth observation.
    pub fn record_depth(&mut self, bucket: usize, depth: usize) {
        let b = &mut self.buckets[bucket];
        b.depth_sum += depth as f64;
        b.depth_samples += 1;
    }

    /// Records a completed batch and its per-request latencies.
    pub fn record_batch(&mut self, record: BatchRecord, latencies: &[f64]) {
        let b = &mut self.buckets[record.bucket];
        b.batches += 1;
        b.co_batched += record.lengths.len() as u64;
        b.completed += latencies.len() as u64;
        b.latencies.extend_from_slice(latencies);
        *b.sorted_latencies.borrow_mut() = None;
        let metrics = serve_metrics();
        metrics.batches.inc();
        metrics.completed.add(latencies.len() as u64);
        for &latency in latencies {
            metrics
                .latency_nanos
                .record(ln_obs::seconds_to_nanos(latency));
        }
        metrics
            .peak_activation_bytes
            .record(record.peak_bytes.max(0.0) as u64);
        self.makespan_seconds = self.makespan_seconds.max(record.finish_seconds);
        self.batch_log.push(record);
    }

    /// Marks the end of the run on the virtual clock.
    pub fn finish(&mut self, now: f64) {
        self.makespan_seconds = self.makespan_seconds.max(now);
    }

    /// Total completed requests.
    pub fn completed(&self) -> u64 {
        self.buckets.iter().map(|b| b.completed).sum()
    }

    /// Total rejected requests.
    pub fn rejected(&self) -> u64 {
        self.buckets.iter().map(|b| b.rejected).sum()
    }

    /// Total timed-out requests.
    pub fn timed_out(&self) -> u64 {
        self.buckets.iter().map(|b| b.timed_out).sum()
    }

    /// Total requests with a typed terminal failure.
    pub fn failed(&self) -> u64 {
        self.buckets.iter().map(|b| b.failed).sum()
    }

    /// Fraction of terminal outcomes that are completions (degraded
    /// completions count: the client got a structure).
    pub fn availability(&self) -> f64 {
        let total = self.completed() + self.rejected() + self.timed_out() + self.failed();
        if total == 0 {
            1.0
        } else {
            self.completed() as f64 / total as f64
        }
    }

    /// Completed requests per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.makespan_seconds <= 0.0 {
            0.0
        } else {
            self.completed() as f64 / self.makespan_seconds
        }
    }

    /// Global latency percentile across buckets.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        let mut all: Vec<f64> = self
            .buckets
            .iter()
            .flat_map(|b| b.latencies.iter().copied())
            .collect();
        if all.is_empty() {
            return None;
        }
        all.sort_by(f64::total_cmp);
        let idx = ((p * (all.len() - 1) as f64).round() as usize).min(all.len() - 1);
        Some(all[idx])
    }

    /// The per-bucket report table (the acceptance artifact: p50/p99
    /// latency, rejection/timeout/failure counts, occupancy, mean depth).
    pub fn table(&self, policy: &BucketPolicy, max_batch: usize) -> Table {
        let mut t = Table::new([
            "bucket", "done", "rej", "tout", "fail", "batches", "occup", "depth", "p50", "p99",
        ]);
        let dash = || "-".to_string();
        for (i, b) in self.buckets.iter().enumerate() {
            t.add_row([
                policy.label(i),
                b.completed.to_string(),
                b.rejected.to_string(),
                b.timed_out.to_string(),
                b.failed.to_string(),
                b.batches.to_string(),
                fmt_pct(b.occupancy(max_batch)),
                format!("{:.2}", b.mean_depth()),
                b.latency_percentile(0.5).map_or_else(dash, fmt_seconds),
                b.latency_percentile(0.99).map_or_else(dash, fmt_seconds),
            ]);
        }
        t
    }

    /// The resilience report: a per-backend fault/breaker/degradation
    /// table and a service-wide summary table (retries, poison events,
    /// deadline rejections, availability).
    pub fn resilience_tables(&self) -> (Table, Table) {
        let mut per_backend = Table::new([
            "backend", "disp", "stall", "trans", "panic", "open", "probe", "close", "int8", "int4",
        ])
        .with_title("faults and degradation by backend");
        for b in &self.resilience.backends {
            per_backend.add_row([
                b.name.clone(),
                b.dispatches.to_string(),
                b.stalls.to_string(),
                b.transients.to_string(),
                b.panics.to_string(),
                b.breaker_opens.to_string(),
                b.breaker_probes.to_string(),
                b.breaker_closes.to_string(),
                b.degraded_int8.to_string(),
                b.degraded_int4.to_string(),
            ]);
        }
        let mut summary = Table::new([
            "faults",
            "retries",
            "poison",
            "deadline-rej",
            "failed",
            "degraded",
            "cancelled",
            "availability",
        ])
        .with_title("resilience summary");
        summary.add_row([
            self.resilience.faults().to_string(),
            self.resilience.retries.to_string(),
            self.resilience.poison_events.to_string(),
            self.resilience.deadline_unmeetable.to_string(),
            self.failed().to_string(),
            self.resilience.degraded_batches().to_string(),
            self.resilience.cancelled.to_string(),
            fmt_pct(self.availability()),
        ]);
        (per_backend, summary)
    }

    /// A deterministic digest of the full schedule and counters (now
    /// including precision and the resilience counters): equal digests ⇔
    /// equal schedules *and* equal fault handling, used by the
    /// reproducibility and chaos tests.
    pub fn fingerprint(&self) -> u64 {
        let mut desc = String::new();
        for r in &self.batch_log {
            desc.push_str(&format!(
                "{}|{}|{:?}|{:.9}|{:.9}|{}|{:.3};",
                r.bucket,
                r.backend,
                r.lengths,
                r.start_seconds,
                r.finish_seconds,
                r.precision,
                r.peak_bytes
            ));
        }
        for b in &self.buckets {
            desc.push_str(&format!(
                "{},{},{},{};",
                b.completed, b.rejected, b.timed_out, b.failed
            ));
        }
        for b in &self.resilience.backends {
            desc.push_str(&format!(
                "{}:{},{},{},{},{},{},{},{},{};",
                b.name,
                b.dispatches,
                b.stalls,
                b.transients,
                b.panics,
                b.breaker_opens,
                b.breaker_probes,
                b.breaker_closes,
                b.degraded_int8,
                b.degraded_int4
            ));
        }
        desc.push_str(&format!(
            "r{},p{},d{},c{};",
            self.resilience.retries,
            self.resilience.poison_events,
            self.resilience.deadline_unmeetable,
            self.resilience.cancelled
        ));
        desc.push_str(&format!("{:.9}", self.makespan_seconds));
        ln_tensor::rng::seed_from_label(&desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bucket: usize, lengths: Vec<usize>, start: f64, finish: f64) -> BatchRecord {
        BatchRecord {
            bucket,
            backend: "b".into(),
            lengths,
            start_seconds: start,
            finish_seconds: finish,
            precision: ActPrecision::Fp32,
            peak_bytes: 0.0,
        }
    }

    #[test]
    fn counters_and_percentiles() {
        let mut s = ServeStats::new(2);
        s.record_batch(record(0, vec![10, 20], 0.0, 1.0), &[1.0, 2.0]);
        s.record_batch(record(0, vec![30], 1.0, 3.0), &[3.0]);
        s.record_rejection(1);
        s.record_timeout(0);
        s.record_failure(1);
        assert_eq!(s.completed(), 3);
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.timed_out(), 1);
        assert_eq!(s.failed(), 1);
        assert_eq!(s.bucket(0).latency_percentile(0.5), Some(2.0));
        assert_eq!(s.bucket(0).latency_percentile(0.99), Some(3.0));
        assert_eq!(s.makespan_seconds, 3.0);
        assert_eq!(s.throughput(), 1.0);
        assert!((s.bucket(0).occupancy(2) - 0.75).abs() < 1e-12);
        assert!((s.availability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_cache_invalidates_on_push() {
        let mut s = ServeStats::new(1);
        s.record_batch(record(0, vec![10], 0.0, 1.0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.bucket(0).latency_percentile(1.0), Some(3.0));
        assert!(
            s.bucket(0).sorted_latencies.borrow().is_some(),
            "first query materializes the sorted cache"
        );
        s.record_batch(record(0, vec![11], 1.0, 2.0), &[9.0]);
        assert!(
            s.bucket(0).sorted_latencies.borrow().is_none(),
            "push invalidates the cache"
        );
        assert_eq!(s.bucket(0).latency_percentile(1.0), Some(9.0));
        assert_eq!(s.bucket(0).latency_percentile(0.0), Some(1.0));
    }

    #[test]
    fn equality_ignores_percentile_cache() {
        let mut a = ServeStats::new(1);
        let mut b = ServeStats::new(1);
        a.record_batch(record(0, vec![10], 0.0, 1.0), &[2.0, 1.0]);
        b.record_batch(record(0, vec![10], 0.0, 1.0), &[2.0, 1.0]);
        let _ = a.bucket(0).latency_percentile(0.5);
        assert_eq!(a, b, "materialized cache must not affect equality");
        b.record_batch(record(0, vec![11], 1.0, 2.0), &[5.0]);
        assert_ne!(a, b);
    }

    #[test]
    fn stats_mirror_into_obs_registry() {
        let snap_before = ln_obs::registry().snapshot();
        let completed_before = match snap_before.get("serve_completed_total") {
            Some(ln_obs::MetricValue::Counter(n)) => *n,
            _ => 0,
        };
        let mut s = ServeStats::new(1);
        s.record_batch(record(0, vec![10, 20], 0.0, 1.0), &[1.0, 2.0]);
        s.record_rejection(0);
        let snap = ln_obs::registry().snapshot();
        // Other tests in this binary record concurrently, so assert a lower
        // bound rather than an exact delta.
        match snap.get("serve_completed_total") {
            Some(ln_obs::MetricValue::Counter(n)) => assert!(*n >= completed_before + 2),
            other => panic!("serve_completed_total missing: {other:?}"),
        }
        match snap.get("serve_latency_nanos") {
            Some(ln_obs::MetricValue::Histogram(h)) => assert!(h.count >= 2),
            other => panic!("serve_latency_nanos missing: {other:?}"),
        }
    }

    #[test]
    fn depth_mean() {
        let mut s = ServeStats::new(1);
        assert_eq!(s.bucket(0).mean_depth(), 0.0);
        s.record_depth(0, 2);
        s.record_depth(0, 4);
        assert_eq!(s.bucket(0).mean_depth(), 3.0);
    }

    #[test]
    fn fingerprint_tracks_schedule() {
        let mut a = ServeStats::new(1);
        let mut b = ServeStats::new(1);
        a.record_batch(record(0, vec![10], 0.0, 1.0), &[1.0]);
        b.record_batch(record(0, vec![10], 0.0, 1.0), &[1.0]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.record_batch(record(0, vec![11], 1.0, 2.0), &[1.0]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_accuracy_stats() {
        let mut a = ServeStats::new(1);
        let mut b = ServeStats::new(1);
        a.record_batch(record(0, vec![10], 0.0, 1.0), &[1.0]);
        b.record_batch(record(0, vec![10], 0.0, 1.0), &[1.0]);
        b.accuracy.record(0.032, true);
        assert_ne!(a.accuracy, b.accuracy);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "accuracy telemetry must stay outside the schedule fingerprint"
        );
        assert_eq!(b.accuracy.sum_worst_rmse, 0.032);
        assert_eq!(b.accuracy.degraded_requests, 1);
    }

    #[test]
    fn accuracy_stats_merge_rolls_up() {
        let mut a = AccuracyStats::default();
        a.record(0.004, true);
        a.record(0.0, false);
        let mut b = AccuracyStats::default();
        b.record(0.04, true);
        a.merge(&b);
        assert_eq!(a.requests, 3);
        assert_eq!(a.degraded_requests, 2);
        assert_eq!(a.max_worst_rmse, 0.04);
        assert_eq!(a.sum_worst_rmse, 0.004 + 0.04);
    }

    #[test]
    fn fingerprint_tracks_resilience_counters() {
        let mut a = ServeStats::new(1);
        let mut b = ServeStats::new(1);
        a.resilience.register_backends(["ln"]);
        b.resilience.register_backends(["ln"]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.resilience.backends[0].transients += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = ServeStats::new(1);
        c.resilience.register_backends(["ln"]);
        c.resilience.retries += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn resilience_counters_roll_up() {
        let mut s = ServeStats::new(1);
        s.resilience.register_backends(["ln", "a100"]);
        s.resilience.backends[0].stalls += 2;
        s.resilience.backends[1].transients += 1;
        s.resilience.backends[1].panics += 1;
        s.resilience.backends[0].record_precision(ActPrecision::Int4);
        s.resilience.backends[0].record_precision(ActPrecision::Fp32);
        s.resilience.backends[1].record_precision(ActPrecision::Int8);
        assert_eq!(s.resilience.faults(), 4);
        assert_eq!(s.resilience.degraded_batches(), 2);
        s.resilience.backends[0].record_breaker(BreakerEvent::Opened);
        s.resilience.backends[0].record_breaker(BreakerEvent::HalfOpened);
        s.resilience.backends[0].record_breaker(BreakerEvent::Closed);
        assert_eq!(s.resilience.backends[0].breaker_opens, 1);
        assert_eq!(s.resilience.backends[0].breaker_probes, 1);
        assert_eq!(s.resilience.backends[0].breaker_closes, 1);
    }

    #[test]
    fn resilience_tables_render_counters() {
        let mut s = ServeStats::new(1);
        s.resilience.register_backends(["LightNobel"]);
        s.resilience.backends[0].dispatches = 7;
        s.resilience.backends[0].degraded_int4 = 1;
        s.resilience.retries = 3;
        s.record_batch(record(0, vec![10], 0.0, 1.0), &[1.0]);
        let (per_backend, summary) = s.resilience_tables();
        assert_eq!(per_backend.num_rows(), 1);
        let rendered = per_backend.render();
        assert!(rendered.starts_with("== faults and degradation by backend =="));
        assert!(rendered.contains("LightNobel"));
        let sum = summary.render();
        assert!(sum.contains("availability"));
        assert!(sum.contains("100.0%"));
    }

    #[test]
    fn availability_is_one_when_empty() {
        let s = ServeStats::new(1);
        assert_eq!(s.availability(), 1.0);
    }

    #[test]
    fn table_has_one_row_per_bucket() {
        let policy = BucketPolicy::fixed(vec![100]);
        let mut s = ServeStats::new(policy.num_buckets());
        s.record_batch(record(0, vec![10], 0.0, 1.0), &[1.0]);
        let t = s.table(&policy, 8);
        assert_eq!(t.num_rows(), 2);
        assert!(t.render().contains("(0, 100]"));
    }
}
