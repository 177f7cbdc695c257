//! Quantization-error ledger: per-layer encode/decode error accumulation.
//!
//! Where the sketches (sibling module) describe what the activations *look
//! like*, the ledger describes what quantization *does to them*: for each
//! `(layer, stage)` cell it accumulates the squared encode→decode error and
//! squared signal of the rung actually in effect, the bytes the encoded
//! form moves versus an FP16 baseline, and — optionally — the error the
//! *other* rungs on the AAQ ladder would have incurred on the same
//! activations (probe rungs). The probes are what lets the insight
//! precision-ledger report recommend the cheapest safe rung per layer
//! without re-running the model once per candidate.
//!
//! Accumulation replaces the AaqHook's original last-write-wins RMSE
//! gauges: relative RMSE here is `sqrt(Σ err² / Σ x²)` over *every* tap the
//! cell saw, so a single spiky late-block activation can no longer hide an
//! entire run's error history.

use std::collections::BTreeMap;

use ln_obs::{labeled, MetricValue};
use ln_quant::scheme::{Bits, QuantScheme};
use ln_quant::token::QuantError;

/// The candidate rungs every ledger cell probes, cheapest-first:
/// INT4+4 outliers (the paper's Group B/C workhorse) and INT8+4 outliers
/// (Group A). FP32 is the implicit final rung with zero error.
pub const PROBE_RUNGS: [(&str, QuantScheme); 2] = [
    (
        "int4",
        QuantScheme {
            inlier_bits: Bits::Int4,
            outliers: 4,
        },
    ),
    (
        "int8",
        QuantScheme {
            inlier_bits: Bits::Int8,
            outliers: 4,
        },
    ),
];

/// Accumulated error state of one `(layer, stage)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Display form of the rung in effect (e.g. `"INT4+4o"`), or
    /// `"fp32"` when the hook left the activation untouched.
    pub rung: String,
    /// Tap invocations accumulated.
    pub taps: u64,
    /// Σ (decoded − original)² under the rung in effect.
    pub err_sq: f64,
    /// Σ original² (the relative-RMSE denominator).
    pub val_sq: f64,
    /// Bytes the encoded form occupies, summed over taps.
    pub encoded_bytes: u64,
    /// Bytes an FP16 copy of the same activations would occupy.
    pub fp16_bytes: u64,
    /// Σ err² per [`PROBE_RUNGS`] candidate (same order).
    pub probe_err_sq: [f64; PROBE_RUNGS.len()],
    /// Σ x² per probe candidate (may differ from `val_sq` only when
    /// probing was disabled for part of the run).
    pub probe_val_sq: [f64; PROBE_RUNGS.len()],
}

impl Default for LedgerEntry {
    fn default() -> Self {
        LedgerEntry {
            rung: String::from("fp32"),
            taps: 0,
            err_sq: 0.0,
            val_sq: 0.0,
            encoded_bytes: 0,
            fp16_bytes: 0,
            probe_err_sq: [0.0; PROBE_RUNGS.len()],
            probe_val_sq: [0.0; PROBE_RUNGS.len()],
        }
    }
}

impl LedgerEntry {
    /// Relative RMSE of the rung in effect: `sqrt(Σ err² / Σ x²)`
    /// (0 when no signal was accumulated).
    pub fn relative_rmse(&self) -> f64 {
        QuantError {
            err_sq: self.err_sq,
            val_sq: self.val_sq,
        }
        .relative_rmse()
    }

    /// Relative RMSE the probe candidate `index` would have incurred.
    pub fn probe_rmse(&self, index: usize) -> f64 {
        QuantError {
            err_sq: self.probe_err_sq[index],
            val_sq: self.probe_val_sq[index],
        }
        .relative_rmse()
    }

    /// Compression ratio vs FP16 (1.0 when nothing was encoded).
    pub fn compression_vs_fp16(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.fp16_bytes as f64 / self.encoded_bytes as f64
        }
    }

    /// Folds `other` into `self`. The rung label follows the cell with
    /// more taps (ties keep `self`), so merged snapshots stay stable.
    pub fn merge(&mut self, other: &LedgerEntry) {
        if other.taps > self.taps {
            self.rung = other.rung.clone();
        }
        self.taps += other.taps;
        self.err_sq += other.err_sq;
        self.val_sq += other.val_sq;
        self.encoded_bytes += other.encoded_bytes;
        self.fp16_bytes += other.fp16_bytes;
        for (a, b) in self.probe_err_sq.iter_mut().zip(&other.probe_err_sq) {
            *a += b;
        }
        for (a, b) in self.probe_val_sq.iter_mut().zip(&other.probe_val_sq) {
            *a += b;
        }
    }
}

/// Per-layer quantization-error ledger, keyed `(block, stage name)` in
/// deterministic order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorLedger {
    entries: BTreeMap<(usize, &'static str), LedgerEntry>,
}

impl ErrorLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to (creating if absent) the cell for
    /// `(block, stage)`.
    pub fn entry(&mut self, block: usize, stage: &'static str) -> &mut LedgerEntry {
        self.entries.entry((block, stage)).or_default()
    }

    /// The cell for `(block, stage)`, if populated.
    pub fn get(&self, block: usize, stage: &'static str) -> Option<&LedgerEntry> {
        self.entries.get(&(block, stage))
    }

    /// Iterates cells in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(usize, &'static str), &LedgerEntry)> {
        self.entries.iter()
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The largest per-cell relative RMSE in the ledger — the quantity the
    /// ln-watch accuracy error budget is written against (0 when empty).
    pub fn worst_layer_rmse(&self) -> f64 {
        self.entries
            .values()
            .map(LedgerEntry::relative_rmse)
            .fold(0.0, f64::max)
    }

    /// Folds `other` into `self`, cell by cell, in key order.
    pub fn merge(&mut self, other: &ErrorLedger) {
        for (key, entry) in &other.entries {
            self.entries.entry(*key).or_default().merge(entry);
        }
    }

    /// Contributes this ledger's cells to a metrics snapshot:
    /// `scope_quant_relative_rmse` and per-probe `scope_probe_rmse`
    /// gauges, byte counters, and a per-rung tap counter whose `rung`
    /// label records the scheme in effect.
    pub fn metrics(&self, out: &mut BTreeMap<String, MetricValue>) {
        for ((block, stage), entry) in &self.entries {
            let layer = format!("b{block}");
            let labels = [("layer", layer.as_str()), ("stage", *stage)];
            out.insert(
                labeled("scope_quant_relative_rmse", &labels),
                MetricValue::Gauge(entry.relative_rmse()),
            );
            out.insert(
                labeled("scope_quant_encoded_bytes_total", &labels),
                MetricValue::Counter(entry.encoded_bytes),
            );
            out.insert(
                labeled("scope_quant_fp16_bytes_total", &labels),
                MetricValue::Counter(entry.fp16_bytes),
            );
            out.insert(
                labeled(
                    "scope_quant_taps_total",
                    &[
                        ("layer", layer.as_str()),
                        ("stage", *stage),
                        ("rung", entry.rung.as_str()),
                    ],
                ),
                MetricValue::Counter(entry.taps),
            );
            for (i, &(rung, _)) in PROBE_RUNGS.iter().enumerate() {
                out.insert(
                    labeled(
                        "scope_probe_rmse",
                        &[("layer", layer.as_str()), ("stage", *stage), ("rung", rung)],
                    ),
                    MetricValue::Gauge(entry.probe_rmse(i)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_rmse_accumulates_instead_of_last_write_wins() {
        let mut ledger = ErrorLedger::new();
        {
            let cell = ledger.entry(0, "tri_mul.post_ln");
            cell.rung = String::from("INT4+4o");
            // First tap: large error. Second tap: zero error. A
            // last-write-wins gauge would report 0; accumulation keeps
            // the blended value.
            cell.taps = 2;
            cell.err_sq += 4.0;
            cell.val_sq += 100.0;
            cell.val_sq += 100.0;
        }
        let rmse = ledger.get(0, "tri_mul.post_ln").unwrap().relative_rmse();
        assert!((rmse - (4.0f64 / 200.0).sqrt()).abs() < 1e-12);
        assert!((ledger.worst_layer_rmse() - rmse).abs() < 1e-15);
    }

    #[test]
    fn merge_sums_cells_and_prefers_busier_rung_label() {
        let mut a = ErrorLedger::new();
        {
            let cell = a.entry(1, "transition.post_ln");
            cell.rung = String::from("INT8+4o");
            cell.taps = 1;
            cell.encoded_bytes = 10;
            cell.fp16_bytes = 40;
        }
        let mut b = ErrorLedger::new();
        {
            let cell = b.entry(1, "transition.post_ln");
            cell.rung = String::from("INT4+4o");
            cell.taps = 5;
            cell.encoded_bytes = 50;
            cell.fp16_bytes = 200;
        }
        a.merge(&b);
        let cell = a.get(1, "transition.post_ln").unwrap();
        assert_eq!(cell.taps, 6);
        assert_eq!(cell.rung, "INT4+4o");
        assert_eq!(cell.encoded_bytes, 60);
        assert!((cell.compression_vs_fp16() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_expose_probe_rungs() {
        let mut ledger = ErrorLedger::new();
        {
            let cell = ledger.entry(0, "tri_attn.post_ln");
            cell.taps = 1;
            cell.probe_err_sq[0] = 1.0;
            cell.probe_val_sq[0] = 4.0;
        }
        let mut out = BTreeMap::new();
        ledger.metrics(&mut out);
        match out.get("scope_probe_rmse{layer=\"b0\",stage=\"tri_attn.post_ln\",rung=\"int4\"}") {
            Some(MetricValue::Gauge(g)) => assert!((*g - 0.5).abs() < 1e-12),
            other => panic!("missing probe gauge: {other:?}"),
        }
        assert!(out.contains_key(
            "scope_quant_taps_total{layer=\"b0\",stage=\"tri_attn.post_ln\",rung=\"fp32\"}"
        ));
    }
}
