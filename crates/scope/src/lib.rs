//! # ln-scope — activation numerics observatory
//!
//! The paper's premise is that PPM activations carry unpredictable
//! token-wise outliers that defeat static quantization (Fig. 5/6); AAQ
//! exists to manage them. The rest of the observability stack (ln-obs,
//! ln-watch, ln-insight) sees *time* — latency, queues, burn rates — but
//! is blind to the *numerics* AAQ manages. This crate closes that gap with
//! three deterministic, std-only instruments layered on ln-obs:
//!
//! * **Distribution sketches** ([`sketch`]): mergeable streaming summaries
//!   (min/max, moments, 64-bucket log2-magnitude histograms, per-rung
//!   outlier census) keyed by `(layer, stage, length bucket)`.
//! * **Quantization-error ledger** ([`ledger`]): per-layer accumulated
//!   encode/decode relative RMSE, bytes moved vs FP16, the rung in
//!   effect, and probe errors for the rungs *not* in effect.
//! * **Sensitivity instruments** ([`hook`]): the [`ScopeHook`] wrapper
//!   that feeds both of the above from any [`ActivationHook`], and the
//!   [`PerturbHook`] used to replay the golden fold and turn per-layer
//!   RMSE into an accuracy (TM-score) budget.
//!
//! Everything is gated on the global `LN_OBS` switch with ≈0 off-mode
//! cost, and every snapshot is byte-identical across `ln-par` pool sizes
//! (DESIGN.md §16 states the determinism rules; `tests/numerics_scope.rs`
//! pins them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod hook;
pub mod ledger;
pub mod model;
pub mod sketch;

use std::collections::BTreeMap;

use ln_obs::{metrics_jsonl, MetricValue, Registry};
use ln_ppm::taps::{ActivationHook, ALL_SITES};

pub use bucket::{length_bucket_label, LENGTH_BUCKET_BOUNDS};
pub use hook::{PerturbHook, ScopeHook, SensitivityModel};
pub use ledger::{ErrorLedger, LedgerEntry, PROBE_RUNGS};
pub use ln_ppm::taps::ActivationGroup;
pub use model::modeled_worst_rmse;
pub use sketch::{Sketch, SketchBook, SketchKey, CENSUS_RUNGS};

/// The AAQ group a stage (site) name belongs to, scanning the canonical
/// site table — the inverse of `ActivationSite::name()`. Lets consumers
/// that hold only a stage name (ln-insight's precision ledger) recover
/// group structure without re-parsing the dataflow.
pub fn group_for_stage(stage: &str) -> Option<ActivationGroup> {
    ALL_SITES
        .iter()
        .find(|site| site.name() == stage)
        .map(|site| site.group())
}

/// One run's collected numerics: the distribution sketches plus the
/// quantization-error ledger, with deterministic snapshot/merge semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scope {
    /// Per-`(layer, stage, bucket)` distribution sketches.
    pub book: SketchBook,
    /// Per-`(layer, stage)` quantization-error ledger.
    pub ledger: ErrorLedger,
}

impl Scope {
    /// An empty observatory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Collects the parts of a finished [`ScopeHook`], discarding the
    /// inner hook.
    pub fn from_hook<H: ActivationHook>(hook: ScopeHook<H>) -> Self {
        let (_, book, ledger) = hook.into_parts();
        Scope { book, ledger }
    }

    /// Folds `other` into `self`, cell by cell, in deterministic key
    /// order — merging per-worker or per-shard scopes yields the same
    /// bytes regardless of how the work was split.
    pub fn merge(&mut self, other: &Scope) {
        self.book.merge(&other.book);
        self.ledger.merge(&other.ledger);
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.book.is_empty() && self.ledger.is_empty()
    }

    /// The largest per-layer relative RMSE in the ledger (0 when empty).
    pub fn worst_layer_rmse(&self) -> f64 {
        self.ledger.worst_layer_rmse()
    }

    /// The full numerics snapshot in the `ln-obs` metric vocabulary.
    ///
    /// Built directly from the deterministic accumulators — not via a
    /// live registry — so the snapshot is exact regardless of the global
    /// observability level at snapshot time, and
    /// [`ln_obs::metrics_jsonl`] / `ln_insight::parse_metrics` round-trip
    /// it byte for byte.
    pub fn metrics(&self) -> BTreeMap<String, MetricValue> {
        let mut out = BTreeMap::new();
        self.book.metrics(&mut out);
        self.ledger.metrics(&mut out);
        out
    }

    /// The snapshot rendered as JSONL, one metric per line, in
    /// deterministic key order.
    pub fn snapshot_jsonl(&self) -> String {
        metrics_jsonl(&self.metrics())
    }

    /// Mirrors the snapshot into a live registry (e.g. a run-local
    /// ln-watch registry, so flight-recorder black boxes carry the
    /// numerics). Subject to the registry's normal `LN_OBS` gating.
    pub fn export_into(&self, registry: &Registry) {
        for (name, value) in self.metrics() {
            match value {
                MetricValue::Counter(n) => registry.counter(&name).add(n),
                MetricValue::Gauge(g) => registry.gauge(&name).set(g),
                MetricValue::Histogram(snapshot) => registry.histogram(&name).merge(&snapshot),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_tensor::Tensor2;

    #[test]
    fn group_for_stage_inverts_site_names() {
        assert_eq!(group_for_stage("tri_mul.post_ln"), Some(ActivationGroup::B));
        assert_eq!(
            group_for_stage("tri_attn.residual_in"),
            Some(ActivationGroup::A)
        );
        assert_eq!(group_for_stage("tri_attn.scores"), Some(ActivationGroup::C));
        assert_eq!(group_for_stage("not_a_stage"), None);
        for site in ALL_SITES {
            assert_eq!(group_for_stage(site.name()), Some(site.group()));
        }
    }

    #[test]
    fn snapshot_is_deterministic_and_merge_order_free() {
        let key_a = SketchKey {
            block: 0,
            stage: "tri_mul.post_ln",
            bucket: "le_256",
        };
        let key_b = SketchKey {
            block: 1,
            stage: "tri_attn.post_ln",
            bucket: "le_512",
        };
        let xa = Tensor2::from_fn(4, 8, |i, j| (i * 8 + j) as f32 * 0.03 - 0.5);
        let xb = Tensor2::from_fn(3, 8, |i, j| (i + j) as f32 * 0.2);

        let mut one = Scope::new();
        one.book.observe(key_a, &xa);
        one.book.observe(key_b, &xb);

        let mut left = Scope::new();
        left.book.observe(key_a, &xa);
        let mut right = Scope::new();
        right.book.observe(key_b, &xb);

        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right;
        rl.merge(&left);
        assert_eq!(one.snapshot_jsonl(), lr.snapshot_jsonl());
        assert_eq!(lr.snapshot_jsonl(), rl.snapshot_jsonl());
    }

    #[test]
    fn snapshot_jsonl_mentions_every_family() {
        let mut scope = Scope::new();
        let x = Tensor2::from_fn(2, 8, |i, j| (i * 8 + j) as f32 * 0.1);
        scope.book.observe(
            SketchKey {
                block: 0,
                stage: "transition.post_ln",
                bucket: "le_256",
            },
            &x,
        );
        scope.ledger.entry(0, "transition.post_ln").taps = 1;
        let jsonl = scope.snapshot_jsonl();
        for family in [
            "scope_act_magnitude",
            "scope_act_outliers_total",
            "scope_quant_relative_rmse",
            "scope_probe_rmse",
        ] {
            assert!(jsonl.contains(family), "snapshot missing {family}");
        }
    }
}
