//! The precision ledger: per-layer activation numerics rendered as a
//! report, with a cheapest-safe-rung recommendation per layer.
//!
//! Input is an `ln_scope::Scope`. Each `(layer, stage)` cell of its
//! `ErrorLedger` becomes one [`PrecisionRow`] holding:
//!
//! * the cell's [`LedgerEntry`] — the rung in effect and its accumulated
//!   relative RMSE, what the INT4/INT8 probe rungs *would* have cost, and
//!   bytes moved vs FP16;
//! * the cell's [`Sketch`]es merged over length buckets — the outlier
//!   census.
//!
//! The recommendation multiplies each probe RMSE by the group's measured
//! error→accuracy sensitivity ([`SensitivityModel`]) and picks the
//! cheapest rung whose estimated TM-score impact stays inside the budget
//! — the paper's Fig. 9 accuracy-vs-precision trade rendered as an
//! actionable per-layer table. Deterministic: same scope, same model,
//! byte-identical text.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ln_scope::{
    group_for_stage, ActivationGroup, LedgerEntry, Scope, SensitivityModel, Sketch, PROBE_RUNGS,
};

/// The default accuracy error budget: the reproduction's acceptance bound
/// on the quantized-vs-FP32 TM-score delta (`|ΔTM| < 0.001`).
pub const DEFAULT_TM_BUDGET: f64 = 1.0e-3;

/// One `(layer, stage)` row of the precision ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionRow {
    /// Folding-block index.
    pub block: usize,
    /// Dataflow stage (site) name.
    pub stage: &'static str,
    /// AAQ group of the stage, when the stage name is canonical.
    pub group: Option<ActivationGroup>,
    /// The cell's accumulated quantization error and byte accounting.
    pub entry: LedgerEntry,
    /// The cell's sketches merged over length buckets.
    pub census: Sketch,
}

impl PrecisionRow {
    /// The `layer` label (`"b0"`, ...).
    pub fn layer(&self) -> String {
        format!("b{}", self.block)
    }

    /// Relative RMSE probe rung `index` ([`PROBE_RUNGS`] order) would
    /// have incurred, or `None` when that rung saw no signal — probes
    /// disabled, or an all-zero activation.
    pub fn probe_rmse(&self, index: usize) -> Option<f64> {
        (self.entry.probe_val_sq[index] > 0.0).then(|| self.entry.probe_rmse(index))
    }

    /// The cheapest rung whose estimated TM-score impact
    /// (`sensitivity × probe RMSE`) stays within `tm_budget`, falling back
    /// to `"fp32"` when every quantized candidate busts the budget or was
    /// never probed. Stages whose group is unknown use the model's most
    /// pessimistic group sensitivity.
    pub fn recommend(&self, tm_budget: f64, model: &SensitivityModel) -> String {
        let sensitivity = match self.group {
            Some(group) => model.for_group(group),
            None => model.per_group.iter().copied().fold(0.0, f64::max),
        };
        for (i, (_, scheme)) in PROBE_RUNGS.iter().enumerate() {
            if let Some(rmse) = self.probe_rmse(i) {
                if sensitivity * rmse <= tm_budget {
                    return scheme.to_string();
                }
            }
        }
        String::from("fp32")
    }
}

/// One row per ledger cell of `scope`, sorted by `(block, stage)`.
pub fn precision_rows(scope: &Scope) -> Vec<PrecisionRow> {
    let mut census: BTreeMap<(usize, &str), Sketch> = BTreeMap::new();
    for (key, sketch) in scope.book.iter() {
        census
            .entry((key.block, key.stage))
            .or_default()
            .merge(sketch);
    }
    scope
        .ledger
        .iter()
        .map(|(&(block, stage), entry)| PrecisionRow {
            block,
            stage,
            group: group_for_stage(stage),
            entry: entry.clone(),
            census: census.remove(&(block, stage)).unwrap_or_default(),
        })
        .collect()
}

/// Renders the precision-ledger report: one row per `(layer, stage)`,
/// the rung in effect with its accumulated error, the probe errors, the
/// outlier census, and the cheapest rung that keeps the estimated
/// TM-score impact within `tm_budget` under `model`. Deterministic: same
/// inputs, byte-identical text.
pub fn precision_ledger_table(
    rows: &[PrecisionRow],
    tm_budget: f64,
    model: &SensitivityModel,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "precision ledger (accumulated quantization error per layer, TM budget {tm_budget:.1e})"
    );
    let _ = writeln!(
        out,
        "{:<6} {:<22} {:>3} {:>8} {:>6} {:>10} {:>10} {:>10} {:>8} {:>9} {:>10}",
        "layer",
        "stage",
        "grp",
        "rung",
        "taps",
        "rmse",
        "int4_rmse",
        "int8_rmse",
        "x_fp16",
        "outl_int8",
        "recommend",
    );
    for row in rows {
        let group = match row.group {
            Some(ActivationGroup::A) => "A",
            Some(ActivationGroup::B) => "B",
            Some(ActivationGroup::C) => "C",
            None => "-",
        };
        let probe = |i: usize| {
            row.probe_rmse(i)
                .map_or_else(|| "-".to_string(), |rmse| format!("{rmse:.3e}"))
        };
        let _ = writeln!(
            out,
            "{:<6} {:<22} {:>3} {:>8} {:>6} {:>10} {:>10} {:>10} {:>8} {:>9} {:>10}",
            row.layer(),
            row.stage,
            group,
            row.entry.rung,
            row.entry.taps,
            format!("{:.3e}", row.entry.relative_rmse()),
            probe(0),
            probe(1),
            format!("{:.2}", row.entry.compression_vs_fp16()),
            format!("{:.5}", row.census.outlier_fraction(0)),
            row.recommend(tm_budget, model),
        );
    }
    if rows.is_empty() {
        out.push_str("no numerics in the scope (was LN_OBS off?)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_scope::SketchKey;

    fn demo_scope() -> Scope {
        let mut scope = Scope::new();
        let x = ln_tensor_like(4, 8);
        scope.book.observe(
            SketchKey {
                block: 0,
                stage: "tri_mul.post_ln",
                bucket: "le_256",
            },
            &x,
        );
        scope.book.observe(
            SketchKey {
                block: 0,
                stage: "tri_mul.post_ln",
                bucket: "le_1024",
            },
            &x,
        );
        let cell = scope.ledger.entry(0, "tri_mul.post_ln");
        cell.rung = String::from("INT4+4o");
        cell.taps = 3;
        cell.err_sq = 1.0;
        cell.val_sq = 1e4;
        cell.encoded_bytes = 100;
        cell.fp16_bytes = 400;
        cell.probe_err_sq = [4.0, 0.01];
        cell.probe_val_sq = [1e4, 1e4];
        scope
    }

    // A tiny deterministic activation without depending on ln-tensor's rng.
    fn ln_tensor_like(rows: usize, cols: usize) -> ln_tensor::Tensor2 {
        ln_tensor::Tensor2::from_fn(rows, cols, |i, j| 0.1 * (i * cols + j) as f32 - 0.3)
    }

    #[test]
    fn rows_recover_ledger_and_aggregate_sketch_buckets() {
        let scope = demo_scope();
        let rows = precision_rows(&scope);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.layer(), "b0");
        assert_eq!(row.stage, "tri_mul.post_ln");
        assert_eq!(row.group, Some(ActivationGroup::B));
        assert_eq!(row.entry.rung, "INT4+4o");
        assert_eq!(row.entry.taps, 3);
        assert_eq!(row.census.count, 64, "both length buckets aggregate");
        assert!((row.entry.relative_rmse() - 0.01).abs() < 1e-12);
        assert!((row.probe_rmse(0).unwrap() - 0.02).abs() < 1e-12);
        assert!((row.probe_rmse(1).unwrap() - 0.001).abs() < 1e-12);
        assert!((row.entry.compression_vs_fp16() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn recommendation_picks_the_cheapest_rung_inside_the_budget() {
        let scope = demo_scope();
        let rows = precision_rows(&scope);
        let row = &rows[0];
        let model = SensitivityModel::default(); // sensitivity 1.0
                                                 // int4 probe RMSE 0.02 busts a 1e-3 budget; int8's 0.001 fits.
        assert_eq!(row.recommend(DEFAULT_TM_BUDGET, &model), "INT8+4o");
        // A generous budget admits the cheaper rung...
        assert_eq!(row.recommend(0.05, &model), "INT4+4o");
        // ...and a hostile sensitivity forces full precision.
        let paranoid = SensitivityModel {
            per_group: [100.0; 3],
        };
        assert_eq!(row.recommend(DEFAULT_TM_BUDGET, &paranoid), "fp32");
    }

    #[test]
    fn an_unprobed_rung_is_never_recommended() {
        let mut scope = demo_scope();
        scope.ledger.entry(0, "tri_mul.post_ln").probe_val_sq = [0.0, 1e4];
        let rows = precision_rows(&scope);
        let row = &rows[0];
        assert_eq!(row.probe_rmse(0), None);
        // INT4 would fit any budget at a reported RMSE of 0, but nothing
        // measured it: the cheapest measured rung wins.
        assert_eq!(row.recommend(0.05, &SensitivityModel::default()), "INT8+4o");
        scope.ledger.entry(0, "tri_mul.post_ln").probe_val_sq = [0.0; 2];
        let rows = precision_rows(&scope);
        assert_eq!(rows[0].recommend(1.0, &SensitivityModel::default()), "fp32");
    }

    #[test]
    fn table_renders_deterministically_with_recommendations() {
        let scope = demo_scope();
        let rows = precision_rows(&scope);
        let model = SensitivityModel::default();
        let table = precision_ledger_table(&rows, DEFAULT_TM_BUDGET, &model);
        let again = precision_ledger_table(&rows, DEFAULT_TM_BUDGET, &model);
        assert_eq!(table, again);
        assert!(table.contains("tri_mul.post_ln"), "{table}");
        assert!(table.contains("INT8+4o"), "{table}");
        let empty = precision_ledger_table(&[], DEFAULT_TM_BUDGET, &model);
        assert!(empty.contains("no numerics"), "{empty}");
    }
}
