//! The process-wide metrics registry.
//!
//! Metrics are created (or fetched) by name through [`Registry::counter`],
//! [`Registry::gauge`] and [`Registry::histogram`]; the returned handles are
//! cheap clones of `Arc`'d atomics, so the hot path never touches the
//! registry lock — callers resolve handles once (typically in a `OnceLock`)
//! and update them with single atomic operations afterwards.
//!
//! Every update is gated on [`crate::level`]: at `LN_OBS=off` a recording
//! call is one relaxed atomic load and a branch — no allocation, no store.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::counting;

/// Number of log2 buckets in a [`Histogram`]; indexed by bit length of the
/// recorded value, so bucket `i` holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing `u64` metric.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Self {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds `delta` to the counter (no-op when observability is off).
    #[inline]
    pub fn add(&self, delta: u64) {
        if counting() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter (no-op when observability is off).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins `f64` metric (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Sets the gauge (no-op when observability is off).
    #[inline]
    pub fn set(&self, value: f64) {
        if counting() {
            self.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Resets the gauge to zero.
    pub fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A log2-bucketed histogram of `u64` observations.
///
/// Sixty-four fixed buckets cover the full `u64` range (bucket = bit length
/// of the value), so recording is a single `fetch_add` with no allocation
/// and no comparison ladder — O(1) per event as the tentpole requires.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

#[inline]
fn bucket_index(value: u64) -> usize {
    // Bit length: 0 -> bucket 0, 1 -> 1, 2..3 -> 2, ..., 2^62.. -> 63.
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (inclusive) of histogram bucket `i`, used for export labels.
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else if index == 0 {
        0
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    fn new() -> Self {
        Self {
            inner: Arc::new(HistogramInner {
                buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation (no-op when observability is off).
    #[inline]
    pub fn record(&self, value: u64) {
        if counting() {
            self.inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            self.inner.sum.fetch_add(value, Ordering::Relaxed);
            self.inner.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A coherent-enough copy of the current state (buckets are read
    /// individually; concurrent writers may skew totals by in-flight events).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed)),
            sum: self.inner.sum.load(Ordering::Relaxed),
            count: self.inner.count.load(Ordering::Relaxed),
        }
    }

    /// Resets all buckets and totals to zero.
    pub fn reset(&self) {
        for bucket in &self.inner.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.inner.sum.store(0, Ordering::Relaxed);
        self.inner.count.store(0, Ordering::Relaxed);
    }

    /// Folds a snapshot's buckets and totals into this histogram (no-op
    /// when observability is off). Used to mirror a run-local registry —
    /// e.g. ln-watch's watermark histograms — into the process-wide one
    /// without replaying every observation.
    pub fn merge(&self, snapshot: &HistogramSnapshot) {
        if counting() {
            for (i, &n) in snapshot.buckets.iter().enumerate() {
                if n > 0 {
                    self.inner.buckets[i].fetch_add(n, Ordering::Relaxed);
                }
            }
            self.inner.sum.fetch_add(snapshot.sum, Ordering::Relaxed);
            self.inner
                .count
                .fetch_add(snapshot.count, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket event counts; bucket `i` holds values with bit length `i`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile (0..=100) from the log buckets: returns the
    /// upper bound of the bucket containing the requested rank, so the
    /// answer is within 2x of the true value.
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

/// The value of one registered metric in a [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's current count.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram's current state (boxed: the fixed bucket array is large).
    Histogram(Box<HistogramSnapshot>),
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics.
///
/// Registration takes a lock; updates through the returned handles do not.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry (tests; production code uses [`registry()`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Gets or creates the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Gets or creates the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Gets or creates the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Sorted name → value view of every registered metric.
    pub fn snapshot(&self) -> BTreeMap<String, MetricValue> {
        self.lock()
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Zeroes every registered metric (handles stay valid).
    pub fn reset(&self) {
        for metric in self.lock().values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Unregisters `name`; outstanding handles keep working but the metric
    /// no longer appears in snapshots. Returns whether it was present.
    pub fn remove(&self, name: &str) -> bool {
        self.lock().remove(name).is_some()
    }

    /// Unregisters every metric whose name starts with `prefix`, returning
    /// how many were removed.
    pub fn remove_prefix(&self, prefix: &str) -> usize {
        let mut map = self.lock();
        let before = map.len();
        map.retain(|name, _| !name.starts_with(prefix));
        before - map.len()
    }
}

fn kind_name(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

/// Encodes labels into a metric name, Prometheus-style:
/// `labeled("par_kernel_calls_total", &[("kernel", "tri_mul")])` →
/// `par_kernel_calls_total{kernel="tri_mul"}`.
///
/// Label *values* are escaped per the Prometheus text exposition rules
/// (`\` → `\\`, `"` → `\"`, newline → `\n`) at construction time, so every
/// exporter that prints the stored name verbatim — including
/// [`crate::prometheus_text`] — emits well-formed output even when a value
/// carries a quote or a path separator.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for ch in value.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// The process-wide registry every subsystem records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, ObsLevel};

    #[test]
    fn counter_and_gauge_round_trip() {
        let _guard = crate::pin_level(ObsLevel::Counters);
        let reg = Registry::new();
        let c = reg.counter("requests_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("occupancy");
        g.set(0.75);
        assert_eq!(g.get(), 0.75);

        let snap = reg.snapshot();
        assert_eq!(snap.get("requests_total"), Some(&MetricValue::Counter(5)));
        assert_eq!(snap.get("occupancy"), Some(&MetricValue::Gauge(0.75)));
    }

    #[test]
    fn handles_are_shared_by_name() {
        let _guard = crate::pin_level(ObsLevel::Counters);
        let reg = Registry::new();
        let a = reg.counter("shared");
        let b = reg.counter("shared");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("metric");
        reg.gauge("metric");
    }

    #[test]
    fn off_level_suppresses_updates() {
        let _guard = crate::pin_level(ObsLevel::Off);
        let reg = Registry::new();
        let c = reg.counter("gated");
        let g = reg.gauge("gated_g");
        let h = reg.histogram("gated_h");
        c.inc();
        g.set(1.0);
        h.record(9);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.snapshot().count, 0);
        set_level(ObsLevel::Counters);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);

        let _guard = crate::pin_level(ObsLevel::Counters);
        let h = Histogram::new();
        for v in [0u64, 1, 3, 900, 1100, 1100] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 3104);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.buckets[11], 2);
        assert!((snap.mean() - 3104.0 / 6.0).abs() < 1e-9);
        // p50 lands in bucket 2 (values 0,1,3 then 900): upper bound 3.
        assert_eq!(snap.percentile(50.0), 3);
        assert_eq!(snap.percentile(100.0), 2047);
    }

    #[test]
    fn reset_and_remove() {
        let _guard = crate::pin_level(ObsLevel::Counters);
        let reg = Registry::new();
        reg.counter("a").add(7);
        reg.counter("prefix_b").add(7);
        reg.counter("prefix_c").add(7);
        reg.reset();
        assert_eq!(reg.counter("a").get(), 0);
        assert_eq!(reg.remove_prefix("prefix_"), 2);
        assert!(!reg.remove("prefix_b"));
        assert!(reg.remove("a"));
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn labeled_formats_prometheus_style() {
        assert_eq!(labeled("x_total", &[]), "x_total");
        assert_eq!(
            labeled("x_total", &[("kernel", "tri_mul")]),
            "x_total{kernel=\"tri_mul\"}"
        );
        assert_eq!(
            labeled("x", &[("a", "1"), ("b", "2")]),
            "x{a=\"1\",b=\"2\"}"
        );
    }

    #[test]
    fn labeled_escapes_values() {
        assert_eq!(
            labeled("x", &[("path", "a\\b")]),
            "x{path=\"a\\\\b\"}",
            "backslash doubles"
        );
        assert_eq!(
            labeled("x", &[("why", "said \"no\"")]),
            "x{why=\"said \\\"no\\\"\"}",
            "quotes escape"
        );
        assert_eq!(
            labeled("x", &[("msg", "line1\nline2")]),
            "x{msg=\"line1\\nline2\"}",
            "newline becomes the two-character sequence"
        );
    }

    #[test]
    fn histogram_merge_folds_snapshots() {
        let _guard = crate::pin_level(ObsLevel::Counters);
        let a = Histogram::new();
        a.record(3);
        a.record(900);
        let b = Histogram::new();
        b.record(1);
        b.merge(&a.snapshot());
        let snap = b.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 904);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[10], 1);
        set_level(ObsLevel::Off);
        b.merge(&a.snapshot());
        assert_eq!(b.snapshot().count, 3, "merge is gated like record");
    }
}
