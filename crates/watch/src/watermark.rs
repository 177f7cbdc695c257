//! Activation-memory watermark accounting.
//!
//! Modeled, per request: [`WatermarkTracker`] records the deterministic
//! peak bytes of every settled batch (from `Backend::batch_peak_bytes_at`:
//! resident weights plus activations at the batch's rung), keyed by
//! canonical length bucket × AAQ precision rung. This is the quantity the
//! paper bounds (Fig. 4 / Fig. 15): the FP32→INT8→INT4 reduction at a
//! given length is directly visible in the per-cell maxima, and being
//! modeled on the virtual clock it is byte-identical across hosts and
//! `ln-par` pool sizes — safe to embed in black boxes and golden tests.

use std::collections::BTreeMap;

use ln_obs::{labeled, Registry};
use ln_quant::ActPrecision;
use ln_scope::length_bucket_label;

/// One `(length bucket, precision)` cell of the watermark table.
#[derive(Debug, Clone, PartialEq)]
pub struct WatermarkRow {
    /// Length-bucket label (`"le_1024"`, ...).
    pub bucket: &'static str,
    /// AAQ precision label (`"fp32"` / `"int8"` / `"int4"`).
    pub precision: &'static str,
    /// Batches recorded into this cell.
    pub batches: u64,
    /// Largest modeled peak activation bytes seen.
    pub max_bytes: f64,
    /// Mean modeled peak activation bytes.
    pub mean_bytes: f64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Cell {
    batches: u64,
    sum_bytes: f64,
    max_bytes: f64,
}

/// Accumulates modeled peak-activation-byte observations.
///
/// The cell accumulators are plain fields (not `LN_OBS`-gated), so the
/// report table and black-box fingerprints do not depend on the process
/// observability level; the `watch_peak_activation_bytes` histograms in
/// the run-local registry additionally record each observation when
/// counting is on.
#[derive(Debug, Default)]
pub struct WatermarkTracker {
    cells: BTreeMap<(&'static str, &'static str), Cell>,
}

impl WatermarkTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one settled batch: `max_length` scopes the length bucket,
    /// `peak_bytes` is the modeled peak activation footprint.
    pub fn record(
        &mut self,
        registry: &Registry,
        max_length: usize,
        precision: ActPrecision,
        peak_bytes: f64,
    ) {
        let bucket = length_bucket_label(max_length);
        let cell = self.cells.entry((bucket, precision.label())).or_default();
        cell.batches += 1;
        cell.sum_bytes += peak_bytes;
        cell.max_bytes = cell.max_bytes.max(peak_bytes);
        registry
            .histogram(&labeled(
                "watch_peak_activation_bytes",
                &[("bucket", bucket), ("precision", precision.label())],
            ))
            .record(peak_bytes.max(0.0) as u64);
    }

    /// The table, ordered by (bucket label, precision label).
    pub fn rows(&self) -> Vec<WatermarkRow> {
        self.cells
            .iter()
            .map(|(&(bucket, precision), cell)| WatermarkRow {
                bucket,
                precision,
                batches: cell.batches,
                max_bytes: cell.max_bytes,
                mean_bytes: if cell.batches == 0 {
                    0.0
                } else {
                    cell.sum_bytes / cell.batches as f64
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_keeps_max_and_mean_per_cell() {
        let reg = Registry::new();
        let mut t = WatermarkTracker::new();
        t.record(&reg, 1000, ActPrecision::Fp32, 100.0);
        t.record(&reg, 1024, ActPrecision::Fp32, 300.0);
        t.record(&reg, 1024, ActPrecision::Int4, 40.0);
        let rows = t.rows();
        assert_eq!(rows.len(), 2);
        let fp32 = rows
            .iter()
            .find(|r| r.precision == "fp32" && r.bucket == "le_1024")
            .unwrap();
        assert_eq!(fp32.batches, 2);
        assert_eq!(fp32.max_bytes, 300.0);
        assert_eq!(fp32.mean_bytes, 200.0);
    }
}
