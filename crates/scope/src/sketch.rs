//! Mergeable streaming sketches of activation value distributions.
//!
//! One [`Sketch`] summarises every value that flowed through one
//! `(layer, stage, length bucket)` cell: exact min/max, first and second
//! moments, a 64-bucket log2-magnitude histogram (one bucket per octave,
//! covering `2^-32 ..= 2^31`), and an outlier census per AAQ rung — how
//! many values exceed the rung's inlier dynamic range when the token scale
//! is set by the token's RMS. The census is the quantity the paper's
//! Fig. 5/6 argument rests on: tokens whose spikes exceed `127 × RMS`
//! cannot be captured by INT8 inliers without outlier handling.
//!
//! Determinism rules (DESIGN.md §16):
//!
//! * Observation happens on the hook path, which the trunk drives in
//!   dataflow order regardless of the `ln-par` pool size, and every
//!   accumulator is updated in element order — so two runs that produce
//!   bit-identical activations produce bit-identical sketches.
//! * [`Sketch::merge`] is exact (associative *and* commutative) on every
//!   integer field and on min/max; the floating-point moment sums are
//!   exactly commutative and associative up to rounding, and merge order
//!   is fixed by the [`SketchBook`]'s `BTreeMap` iteration order, so
//!   snapshots stay byte-identical across pool sizes.

use std::collections::BTreeMap;

use ln_obs::registry::HISTOGRAM_BUCKETS;
use ln_obs::{labeled, HistogramSnapshot, MetricValue};
use ln_tensor::Tensor2;

/// The AAQ rungs the outlier census tracks, as `(label, max inlier level)`
/// pairs: INT8's ±127 and INT4's ±7 (Eq. 1's `2^(m-1) − 1`).
pub const CENSUS_RUNGS: [(&str, f32); 2] = [("int8", 127.0), ("int4", 7.0)];

/// Log2-magnitude bucket of one value: one bucket per octave, with bucket 0
/// holding everything at or below `2^-32` (including zero and denormals)
/// and bucket 63 everything at or above `2^31` (including non-finite
/// values). Pure integer arithmetic on the exponent bits, so the answer is
/// bit-exact on every host.
fn magnitude_bucket(value: f32) -> usize {
    let biased_exp = ((value.to_bits() >> 23) & 0xff) as i32;
    if biased_exp == 0 {
        0
    } else {
        (biased_exp - 95).clamp(0, HISTOGRAM_BUCKETS as i32 - 1) as usize
    }
}

/// A streaming summary of one activation population.
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch {
    /// Values observed.
    pub count: u64,
    /// Smallest value seen (`+inf` before the first observation).
    pub min: f64,
    /// Largest value seen (`-inf` before the first observation).
    pub max: f64,
    /// Σ value (first moment).
    pub sum: f64,
    /// Σ value² (second moment).
    pub sum_sq: f64,
    /// Log2-magnitude histogram, one bucket per octave.
    pub magnitude: [u64; HISTOGRAM_BUCKETS],
    /// Values whose magnitude exceeded each [`CENSUS_RUNGS`] rung's inlier
    /// range (`max_level × token RMS`), in rung order.
    pub outliers: [u64; CENSUS_RUNGS.len()],
}

impl Default for Sketch {
    fn default() -> Self {
        Sketch {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            sum_sq: 0.0,
            magnitude: [0; HISTOGRAM_BUCKETS],
            outliers: [0; CENSUS_RUNGS.len()],
        }
    }
}

impl Sketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one token (row) of values into the sketch. The outlier census
    /// is token-scoped: the rung's inlier range is `max_level × RMS(row)`,
    /// matching the paper's per-token dynamic scaling (Eq. 1).
    fn observe_token(&mut self, row: &[f32]) {
        if row.is_empty() {
            return;
        }
        let mut row_sum_sq = 0.0f64;
        for &v in row {
            let vd = v as f64;
            self.count += 1;
            self.min = self.min.min(vd);
            self.max = self.max.max(vd);
            self.sum += vd;
            self.sum_sq += vd * vd;
            row_sum_sq += vd * vd;
            self.magnitude[magnitude_bucket(v)] += 1;
        }
        let rms = (row_sum_sq / row.len() as f64).sqrt() as f32;
        for (i, &(_, max_level)) in CENSUS_RUNGS.iter().enumerate() {
            let range = max_level * rms;
            self.outliers[i] += row.iter().filter(|v| v.abs() > range).count() as u64;
        }
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance (0 when empty; clamped at 0 against rounding).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.count as f64 - mean * mean).max(0.0)
    }

    /// Fraction of values outside the census rung `rung_index`'s inlier
    /// range (0 when empty).
    pub fn outlier_fraction(&self, rung_index: usize) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.outliers[rung_index] as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self`. Exact on counts, histograms and min/max;
    /// the moment sums commute exactly and associate up to float rounding.
    pub fn merge(&mut self, other: &Sketch) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        for (a, b) in self.magnitude.iter_mut().zip(&other.magnitude) {
            *a += b;
        }
        for (a, b) in self.outliers.iter_mut().zip(&other.outliers) {
            *a += b;
        }
    }
}

/// Identity of one sketch cell: folding-block index ("layer"), dataflow
/// stage name (an `ln_ppm::taps::ActivationSite::name()`), and canonical
/// length-bucket label. `Ord` gives the deterministic snapshot order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SketchKey {
    /// Folding-block index.
    pub block: usize,
    /// Dataflow stage (site) name.
    pub stage: &'static str,
    /// Canonical length-bucket label.
    pub bucket: &'static str,
}

impl SketchKey {
    /// The `layer` metric-label value (`"b0"`, `"b1"`, ...).
    fn layer_label(&self) -> String {
        format!("b{}", self.block)
    }
}

/// All sketches of one run, keyed deterministically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SketchBook {
    sketches: BTreeMap<SketchKey, Sketch>,
}

impl SketchBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a whole `(tokens, channels)` activation into the cell for
    /// `key`, one token row at a time.
    pub fn observe(&mut self, key: SketchKey, activation: &Tensor2) {
        let sketch = self.sketches.entry(key).or_default();
        for row in activation.iter_rows() {
            sketch.observe_token(row);
        }
    }

    /// The sketch for `key`, if any values were observed there.
    pub fn get(&self, key: &SketchKey) -> Option<&Sketch> {
        self.sketches.get(key)
    }

    /// Iterates cells in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&SketchKey, &Sketch)> {
        self.sketches.iter()
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// Folds `other` into `self`, cell by cell, in `other`'s deterministic
    /// key order.
    pub fn merge(&mut self, other: &SketchBook) {
        for (key, sketch) in &other.sketches {
            self.sketches.entry(*key).or_default().merge(sketch);
        }
    }

    /// Contributes this book's cells to a metrics snapshot in the
    /// `ln-obs` exporter vocabulary: per cell a `scope_act_magnitude`
    /// histogram (sum = Σ bucket-index for exact round-tripping), min /
    /// max / mean / variance gauges, a values counter and one outlier
    /// counter per census rung.
    pub fn metrics(&self, out: &mut BTreeMap<String, MetricValue>) {
        for (key, sketch) in &self.sketches {
            let layer = key.layer_label();
            let labels = [
                ("layer", layer.as_str()),
                ("stage", key.stage),
                ("bucket", key.bucket),
            ];
            let hist_sum: u64 = sketch
                .magnitude
                .iter()
                .enumerate()
                .map(|(i, &n)| i as u64 * n)
                .sum();
            out.insert(
                labeled("scope_act_magnitude", &labels),
                MetricValue::Histogram(Box::new(HistogramSnapshot {
                    buckets: sketch.magnitude,
                    sum: hist_sum,
                    count: sketch.count,
                })),
            );
            out.insert(
                labeled("scope_act_values_total", &labels),
                MetricValue::Counter(sketch.count),
            );
            out.insert(
                labeled("scope_act_min", &labels),
                MetricValue::Gauge(sketch.min),
            );
            out.insert(
                labeled("scope_act_max", &labels),
                MetricValue::Gauge(sketch.max),
            );
            out.insert(
                labeled("scope_act_mean", &labels),
                MetricValue::Gauge(sketch.mean()),
            );
            out.insert(
                labeled("scope_act_variance", &labels),
                MetricValue::Gauge(sketch.variance()),
            );
            for (i, &(rung, _)) in CENSUS_RUNGS.iter().enumerate() {
                out.insert(
                    labeled(
                        "scope_act_outliers_total",
                        &[
                            ("layer", layer.as_str()),
                            ("stage", key.stage),
                            ("bucket", key.bucket),
                            ("rung", rung),
                        ],
                    ),
                    MetricValue::Counter(sketch.outliers[i]),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SketchKey {
        SketchKey {
            block: 0,
            stage: "tri_mul.post_ln",
            bucket: "le_256",
        }
    }

    #[test]
    fn magnitude_buckets_are_octaves() {
        assert_eq!(magnitude_bucket(0.0), 0);
        assert_eq!(magnitude_bucket(1.0), 32);
        assert_eq!(magnitude_bucket(-1.0), 32);
        assert_eq!(magnitude_bucket(2.0), 33);
        assert_eq!(magnitude_bucket(0.5), 31);
        assert_eq!(magnitude_bucket(f32::MAX), 63);
        assert_eq!(magnitude_bucket(f32::INFINITY), 63);
        assert!(magnitude_bucket(1e-40) == 0, "denormals land in bucket 0");
    }

    #[test]
    fn sketch_moments_are_exact_for_small_sets() {
        let mut s = Sketch::new();
        s.observe_token(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean(), 2.5);
        assert!((s.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn census_counts_spikes_past_each_rung() {
        // A token of tiny values plus one huge spike: RMS is dominated by
        // the spike, but a 1000x ratio still busts INT4's 7x range while a
        // flat token busts nothing.
        let mut flat = Sketch::new();
        flat.observe_token(&[1.0; 64]);
        assert_eq!(flat.outliers, [0, 0]);

        let mut spiky = Sketch::new();
        let mut token = vec![0.001f32; 63];
        token.push(1000.0);
        spiky.observe_token(&token);
        let int8 = spiky.outliers[0];
        let int4 = spiky.outliers[1];
        assert!(int4 >= 1, "spike exceeds 7x RMS: {:?}", spiky.outliers);
        assert!(int4 >= int8, "INT4's range is narrower than INT8's");
        assert!(spiky.outlier_fraction(1) > 0.0);
    }

    #[test]
    fn merge_is_exact_on_integer_fields() {
        let mut a = Sketch::new();
        a.observe_token(&[1.0, -5.0]);
        let mut b = Sketch::new();
        b.observe_token(&[100.0, 0.25, 3.0]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.count, 5);
        assert_eq!(ab.count, ba.count);
        assert_eq!(ab.min, -5.0);
        assert_eq!(ab.max, 100.0);
        assert_eq!(ab.magnitude, ba.magnitude);
        assert_eq!(ab.outliers, ba.outliers);
        // Float sums commute exactly.
        assert_eq!(ab.sum, ba.sum);
        assert_eq!(ab.sum_sq, ba.sum_sq);
    }

    #[test]
    fn book_metrics_use_deterministic_labels() {
        let mut book = SketchBook::new();
        let x = Tensor2::from_fn(4, 8, |i, j| (i * 8 + j) as f32 * 0.1);
        book.observe(key(), &x);
        let mut out = BTreeMap::new();
        book.metrics(&mut out);
        assert!(out.contains_key(
            "scope_act_magnitude{layer=\"b0\",stage=\"tri_mul.post_ln\",bucket=\"le_256\"}"
        ));
        assert!(out.contains_key(
            "scope_act_outliers_total{layer=\"b0\",stage=\"tri_mul.post_ln\",bucket=\"le_256\",rung=\"int4\"}"
        ));
        match out
            .get("scope_act_values_total{layer=\"b0\",stage=\"tri_mul.post_ln\",bucket=\"le_256\"}")
        {
            Some(MetricValue::Counter(n)) => assert_eq!(*n, 32),
            other => panic!("missing values counter: {other:?}"),
        }
    }
}
