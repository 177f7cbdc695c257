//! Error→accuracy sensitivity: how much TM-score a unit of activation
//! error costs, per AAQ group.
//!
//! The precision ledger (ln-insight) wants to recommend the cheapest safe
//! rung per layer, which requires converting a layer's relative RMSE into
//! an expected TM-score impact. This module calibrates that conversion
//! empirically: replay the golden CAMEO fold with a seeded multiplicative
//! perturbation ([`ln_scope::PerturbHook`]) applied to *one* group's
//! activations at a known relative amplitude, and compare the perturbed
//! prediction against the unperturbed FP32 reference. The ratio
//! `|ΔTM| / amplitude` is the group's sensitivity — an empirical
//! first-order bound on accuracy loss per unit of relative RMSE.
//!
//! Everything is deterministic: the fold runs on the fixed golden record
//! (CAMEO shortest, each perturbed fold scored by
//! `AccuracyEvaluator::score` against one FP32 reference), the noise stream
//! is seeded by `(seed, tap, invocation)`, and the replay order is the
//! trunk's serial dataflow order — so the calibrated
//! [`ln_scope::SensitivityModel`] is byte-stable across hosts and pool
//! sizes.

use crate::accuracy::AccuracyEvaluator;
use ln_datasets::ProteinRecord;
use ln_ppm::taps::ActivationGroup;
use ln_ppm::PpmError;
use ln_scope::{PerturbHook, SensitivityModel};

/// One group's calibration measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// The perturbed AAQ group.
    pub group: ActivationGroup,
    /// Relative perturbation amplitude applied.
    pub amplitude: f64,
    /// TM-score of the perturbed prediction vs the FP32 reference
    /// prediction (1.0 = indistinguishable).
    pub tm_vs_reference: f64,
    /// `|1 − tm_vs_reference| / amplitude`: the sensitivity estimate.
    pub sensitivity: f64,
}

/// Replays `record` once per AAQ group with a relative perturbation of
/// `amplitude` and returns the per-group measurements plus the calibrated
/// [`SensitivityModel`].
///
/// # Errors
///
/// Propagates [`PpmError`] from the folding model.
pub fn measure_sensitivity(
    evaluator: &AccuracyEvaluator,
    record: &ProteinRecord,
    amplitude: f32,
) -> Result<(Vec<SensitivityRow>, SensitivityModel), PpmError> {
    assert!(amplitude > 0.0, "perturbation amplitude must be positive");
    let reference = evaluator.reference(record)?;
    let mut rows = Vec::with_capacity(3);
    let mut per_group = [0.0f64; 3];
    for (i, group) in [ActivationGroup::A, ActivationGroup::B, ActivationGroup::C]
        .into_iter()
        .enumerate()
    {
        let seed = format!("sensitivity/{}/{group}", record.seed_label());
        let mut hook = PerturbHook::new(group, amplitude, &seed);
        let (scored, _) = evaluator.score(&reference, None, &mut hook)?;
        let tm_vs_reference = scored.tm_vs_baseline;
        let sensitivity = (1.0 - tm_vs_reference).abs() / amplitude as f64;
        per_group[i] = sensitivity;
        rows.push(SensitivityRow {
            group,
            amplitude: amplitude as f64,
            tm_vs_reference,
            sensitivity,
        });
    }
    Ok((rows, SensitivityModel { per_group }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_datasets::{Dataset, Registry};

    #[test]
    fn sensitivity_replay_is_deterministic_and_finite() {
        let reg = Registry::standard();
        let record = reg.dataset(Dataset::Cameo).shortest();
        let eval = AccuracyEvaluator::fast();
        let (rows, model) = measure_sensitivity(&eval, record, 0.02).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.tm_vs_reference > 0.0 && row.tm_vs_reference <= 1.0);
            assert!(row.sensitivity.is_finite() && row.sensitivity >= 0.0);
        }
        // Byte-stable: a second replay reproduces the model exactly.
        let (_, model2) = measure_sensitivity(&eval, record, 0.02).unwrap();
        assert_eq!(model, model2);
    }
}
