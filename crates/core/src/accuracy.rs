//! Accuracy evaluation of quantization schemes (Fig. 13, §4.1).
//!
//! Every accuracy number is one operation, the scored fold: a record's
//! FP32 reference is folded once (no hook), then the record is folded
//! through any number of hooks, each rewriting every tagged activation,
//! and each fold is scored against the reference (the paper's "TM-Score
//! change" axis) and against the synthetic native (absolute quality).

use crate::hook::{AaqHook, BaselineHook, Calibration};
use ln_datasets::ProteinRecord;
use ln_ppm::taps::{ActivationHook, NoopHook};
use ln_ppm::{FoldingModel, PpmConfig, PpmError, PredictionOutput};
use ln_protein::{metrics, Sequence, Structure};
use ln_quant::baselines::BaselineScheme;
use ln_quant::scheme::AaqConfig;
use std::sync::OnceLock;

/// A quantization scheme under accuracy evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeUnderTest {
    /// The unquantized FP32 run (sanity row: deltas must be 0).
    Fp32,
    /// One of the comparison schemes.
    Baseline(BaselineScheme),
    /// AAQ with an explicit configuration.
    Aaq(AaqConfig),
}

impl SchemeUnderTest {
    /// The paper's AAQ configuration.
    pub fn aaq_paper() -> Self {
        SchemeUnderTest::Aaq(AaqConfig::paper())
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            SchemeUnderTest::Fp32 => "FP32".to_owned(),
            SchemeUnderTest::Baseline(b) => b.name().to_owned(),
            SchemeUnderTest::Aaq(c) => {
                format!("AAQ[A={} B={} C={}]", c.group_a, c.group_b, c.group_c)
            }
        }
    }

    /// Every scheme row of Fig. 13, in paper order.
    pub fn all_fig13() -> Vec<SchemeUnderTest> {
        let mut v: Vec<SchemeUnderTest> = ln_quant::baselines::ALL_BASELINES
            .iter()
            .map(|&b| SchemeUnderTest::Baseline(b))
            .collect();
        v.push(SchemeUnderTest::aaq_paper());
        v
    }
}

/// Result of evaluating one scheme on one protein.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccuracyResult {
    /// TM-Score of the quantized prediction against the native structure.
    pub tm_vs_native: f64,
    /// TM-Score of the FP32 reference prediction against the native.
    pub baseline_tm_vs_native: f64,
    /// TM-Score of the quantized prediction against the FP32 prediction
    /// (1.0 = numerically indistinguishable predictions).
    pub tm_vs_baseline: f64,
    /// RMSE between quantized and reference final pair representations.
    pub pair_rmse: f32,
}

impl AccuracyResult {
    /// The paper's "TM-Score change" (quantized − baseline, vs native).
    pub fn tm_delta(&self) -> f64 {
        self.tm_vs_native - self.baseline_tm_vs_native
    }
}

/// A record cut to the evaluator's length and folded in FP32, with no
/// hook: the reference every hooked fold of the record is scored against.
#[derive(Debug)]
pub struct Reference {
    sequence: Sequence,
    native: Structure,
    fold: PredictionOutput,
}

/// The accuracy-evaluation harness.
#[derive(Debug, Clone)]
pub struct AccuracyEvaluator {
    model: FoldingModel,
    max_len: usize,
    /// The baselines' calibration on this model, folded once, when a
    /// baseline is first scored, and shared by every record and scheme.
    calibration: OnceLock<Calibration>,
}

impl AccuracyEvaluator {
    /// Full-fidelity evaluator: `Hz = 128` trunk (the dimension AAQ and the
    /// hardware are built around), two folding blocks.
    pub fn standard() -> Self {
        AccuracyEvaluator {
            model: FoldingModel::new(PpmConfig::standard()),
            max_len: 160,
            calibration: OnceLock::new(),
        }
    }

    /// Faster evaluator for tests and smoke runs.
    pub fn fast() -> Self {
        let mut cfg = PpmConfig::standard();
        cfg.blocks = 1;
        AccuracyEvaluator {
            model: FoldingModel::new(cfg),
            max_len: 96,
            calibration: OnceLock::new(),
        }
    }

    /// The folding model in use.
    pub fn model(&self) -> &FoldingModel {
        &self.model
    }

    /// Longest protein the evaluator will fold numerically; longer records
    /// are truncated to this length (the paper's accuracy experiments
    /// sample proteins per dataset the same way).
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// The Fig. 13 baselines' [`Calibration`] on this evaluator's model,
    /// folded on the first call (a caller that races it waits for it).
    ///
    /// # Panics
    ///
    /// If the calibration record does not fold: the model folds every
    /// record it is given, so that is a construction bug.
    fn calibration(&self) -> &Calibration {
        self.calibration
            .get_or_init(|| Calibration::fold(&self.model).expect("the calibration record folds"))
    }

    /// Folds `record`'s FP32 reference.
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError`] from the folding model.
    pub fn reference(&self, record: &ProteinRecord) -> Result<Reference, PpmError> {
        let (sequence, native) = record.inputs(self.max_len);
        let fold = self
            .model
            .predict_with_hook(&sequence, &native, &mut NoopHook)?;
        Ok(Reference {
            sequence,
            native,
            fold,
        })
    }

    /// The scored fold: folds the reference's record through `hook` and
    /// scores the prediction against the reference and the native. `prior`
    /// replaces the native as the fold's structural input (MEFold's
    /// degraded language-model prior); `None` folds from the native, as
    /// the reference did. Returns the scores and the hooked prediction.
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError`] from the folding model.
    pub fn score(
        &self,
        reference: &Reference,
        prior: Option<&Structure>,
        hook: &mut dyn ActivationHook,
    ) -> Result<(AccuracyResult, PredictionOutput), PpmError> {
        let Reference {
            sequence,
            native,
            fold,
        } = reference;
        let hooked = self
            .model
            .predict_with_hook(sequence, prior.unwrap_or(native), hook)?;
        let tm = |a: &Structure, b: &Structure| {
            metrics::tm_score(a, b)
                .expect("same-length structures by construction")
                .score
        };
        let result = AccuracyResult {
            tm_vs_native: tm(&hooked.structure, native),
            baseline_tm_vs_native: tm(&fold.structure, native),
            tm_vs_baseline: tm(&hooked.structure, &fold.structure),
            pair_rmse: hooked
                .pair_rep
                .rmse(&fold.pair_rep)
                .expect("same-shape pair representations by construction"),
        };
        Ok((result, hooked))
    }

    /// Folds each record's reference on its own thread (the model is
    /// immutable) and hands it to `f` there; results come back in record
    /// order.
    pub(crate) fn each_reference<T: Send>(
        &self,
        records: &[&ProteinRecord],
        f: impl Fn(&ProteinRecord, &Reference) -> Result<T, PpmError> + Sync,
    ) -> Result<Vec<T>, PpmError> {
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = records
                .iter()
                .map(|&record| scope.spawn(move || f(record, &self.reference(record)?)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluation threads do not panic"))
                .collect()
        })
    }

    /// Scores one scheme's fold of `record` against its reference.
    fn score_scheme(
        &self,
        scheme: &SchemeUnderTest,
        record: &ProteinRecord,
        reference: &Reference,
    ) -> Result<AccuracyResult, PpmError> {
        let scored = match scheme {
            SchemeUnderTest::Fp32 => self.score(reference, None, &mut NoopHook),
            SchemeUnderTest::Baseline(BaselineScheme::MeFold) => {
                // MEFold quantizes the protein language model's weights to
                // INT4; the LM is what produces the structural prior that
                // seeds the pair stream, so the dominant accuracy effect is
                // a degraded prior — modelled as coordinate noise on the
                // embedding's native-structure input (DESIGN.md §2).
                let degraded_prior = ln_protein::generator::perturbed(
                    &reference.native,
                    &format!("mefold-int4-lm/{}", record.seed_label()),
                    0.6,
                );
                let mut hook = BaselineHook::new(BaselineScheme::MeFold, self.calibration());
                self.score(reference, Some(&degraded_prior), &mut hook)
            }
            SchemeUnderTest::Baseline(b) => {
                let mut hook = BaselineHook::new(*b, self.calibration());
                self.score(reference, None, &mut hook)
            }
            SchemeUnderTest::Aaq(cfg) => self.score(reference, None, &mut AaqHook::new(*cfg)),
        };
        Ok(scored?.0)
    }

    /// Evaluates a scheme on one protein record.
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError`] from the folding model.
    pub fn evaluate(
        &self,
        scheme: &SchemeUnderTest,
        record: &ProteinRecord,
    ) -> Result<AccuracyResult, PpmError> {
        self.score_scheme(scheme, record, &self.reference(record)?)
    }

    /// Mean accuracy of each scheme over several records, in `schemes`
    /// order. Each record's reference is folded once and every scheme is
    /// scored against it; records run on parallel threads.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PpmError`].
    pub fn evaluate_mean(
        &self,
        schemes: &[SchemeUnderTest],
        records: &[&ProteinRecord],
    ) -> Result<Vec<AccuracyResult>, PpmError> {
        assert!(!records.is_empty(), "need at least one record");
        let per_record = self.each_reference(records, |record, reference| {
            schemes
                .iter()
                .map(|scheme| self.score_scheme(scheme, record, reference))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let n = records.len() as f64;
        let mean = |s: usize| {
            let mut acc = AccuracyResult::default();
            for one in per_record.iter().map(|r| r[s]) {
                acc.tm_vs_native += one.tm_vs_native;
                acc.baseline_tm_vs_native += one.baseline_tm_vs_native;
                acc.tm_vs_baseline += one.tm_vs_baseline;
                acc.pair_rmse += one.pair_rmse;
            }
            acc.tm_vs_native /= n;
            acc.baseline_tm_vs_native /= n;
            acc.tm_vs_baseline /= n;
            acc.pair_rmse /= n as f32;
            acc
        };
        Ok((0..schemes.len()).map(mean).collect())
    }

    /// The §4.1 ablation: RMSE of Group-A token quantization with and
    /// without outlier handling, as a percentage increase over the AAQ
    /// reference. Returns `(rmse_without_pct, rmse_with_pct)`.
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError`].
    pub fn outlier_ablation(&self, record: &ProteinRecord) -> Result<(f64, f64), PpmError> {
        use ln_quant::scheme::QuantScheme;
        use ln_quant::token::quantization_rmse;
        let tokens = self.reference(record)?.fold.pair_rep.to_token_matrix();
        let with = quantization_rmse(&tokens, QuantScheme::int8_with_outliers(4));
        let without = quantization_rmse(&tokens, QuantScheme::int8_with_outliers(0));
        let reference = with.min(without).max(1e-12);
        Ok((
            (without / reference - 1.0) * 100.0,
            (with / reference - 1.0) * 100.0,
        ))
    }
}

impl Default for AccuracyEvaluator {
    fn default() -> Self {
        AccuracyEvaluator::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_datasets::{Dataset, Registry};

    fn record() -> ProteinRecord {
        Registry::standard()
            .dataset(Dataset::Cameo)
            .shortest()
            .clone()
    }

    #[test]
    fn fp32_row_is_exact() {
        let eval = AccuracyEvaluator::fast();
        let r = eval.evaluate(&SchemeUnderTest::Fp32, &record()).unwrap();
        assert!((r.tm_vs_baseline - 1.0).abs() < 1e-9);
        assert_eq!(r.pair_rmse, 0.0);
        assert_eq!(r.tm_delta(), 0.0);
    }

    #[test]
    fn aaq_is_nearly_lossless() {
        // Fig. 13: AAQ's TM change < 0.001 in the paper; our trunk is
        // shallower, so we assert the same shape with margin.
        let eval = AccuracyEvaluator::fast();
        let r = eval
            .evaluate(&SchemeUnderTest::aaq_paper(), &record())
            .unwrap();
        assert!(
            r.tm_vs_baseline > 0.95,
            "tm vs baseline {}",
            r.tm_vs_baseline
        );
        assert!(r.tm_delta().abs() < 0.05, "delta {}", r.tm_delta());
        assert!(r.pair_rmse > 0.0);
    }

    #[test]
    fn aggressive_int4_everywhere_hurts_more_than_aaq() {
        use ln_quant::scheme::{AaqConfig, QuantScheme};
        let eval = AccuracyEvaluator::fast();
        let aaq = eval
            .evaluate(&SchemeUnderTest::aaq_paper(), &record())
            .unwrap();
        let crushed = AaqConfig {
            group_a: QuantScheme::int4_with_outliers(0),
            group_b: QuantScheme::int4_with_outliers(0),
            group_c: QuantScheme::int4_with_outliers(0),
        };
        let bad = eval
            .evaluate(&SchemeUnderTest::Aaq(crushed), &record())
            .unwrap();
        assert!(
            bad.pair_rmse > aaq.pair_rmse,
            "{} vs {}",
            bad.pair_rmse,
            aaq.pair_rmse
        );
        assert!(bad.tm_vs_baseline <= aaq.tm_vs_baseline + 1e-9);
    }

    #[test]
    fn evaluate_mean_averages() {
        let reg = Registry::standard();
        let recs: Vec<&ProteinRecord> = reg
            .dataset(Dataset::Cameo)
            .records()
            .iter()
            .take(2)
            .collect();
        let eval = AccuracyEvaluator::fast();
        let r = eval.evaluate_mean(&[SchemeUnderTest::Fp32], &recs).unwrap();
        assert!((r[0].tm_vs_baseline - 1.0).abs() < 1e-9);
    }

    #[test]
    fn schemes_scored_against_one_reference_match_separate_evaluations() {
        // Fig. 13 folds a record's reference once for all seven schemes;
        // that must be bit-for-bit what seven evaluations, each folding
        // its own reference, give.
        let bits = |r: &AccuracyResult| {
            [
                r.tm_vs_native.to_bits(),
                r.baseline_tm_vs_native.to_bits(),
                r.tm_vs_baseline.to_bits(),
                u64::from(r.pair_rmse.to_bits()),
            ]
        };
        let eval = AccuracyEvaluator::fast();
        let record = record();
        let schemes = SchemeUnderTest::all_fig13();
        let shared = eval.evaluate_mean(&schemes, &[&record]).unwrap();
        assert_eq!(shared.len(), schemes.len());
        for (scheme, shared) in schemes.iter().zip(&shared) {
            let alone = eval.evaluate(scheme, &record).unwrap();
            assert_eq!(bits(shared), bits(&alone), "{}", scheme.name());
        }
    }

    #[test]
    fn outlier_ablation_shows_outlier_benefit() {
        // §4.1: without outlier handling RMSE rises far more than with it.
        let eval = AccuracyEvaluator::fast();
        let (without, with) = eval.outlier_ablation(&record()).unwrap();
        assert!(without > with, "{without} vs {with}");
        assert!(with.abs() < 1e-6, "AAQ reference is the better of the two");
        assert!(without > 5.0, "outlier handling must matter: {without}%");
    }

    #[test]
    fn fig13_scheme_list_is_complete() {
        let all = SchemeUnderTest::all_fig13();
        assert_eq!(all.len(), 7);
        assert!(all.iter().any(|s| matches!(s, SchemeUnderTest::Aaq(_))));
    }
}
