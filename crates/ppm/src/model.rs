use crate::blocks::{workspace, FoldingBlock};
use crate::embed::Embedding;
use crate::structure_module;
use crate::taps::{ActivationHook, NoopHook};
use crate::{PpmConfig, PpmError};
use ln_protein::{Sequence, Structure};
use ln_tensor::nn::LayerNorm;
use ln_tensor::Tensor3;

/// The result of a full PPM prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionOutput {
    /// Predicted Cα backbone.
    pub structure: Structure,
    /// Final pair representation (for downstream analysis).
    pub pair_rep: Tensor3,
}

/// The end-to-end folding model: embedding → folding blocks (with
/// recycling) → structure module.
///
/// # Example
///
/// ```
/// use ln_ppm::{FoldingModel, PpmConfig};
/// use ln_protein::{generator::StructureGenerator, Sequence};
///
/// # fn main() -> Result<(), ln_ppm::PpmError> {
/// let model = FoldingModel::new(PpmConfig::tiny());
/// let seq = Sequence::random("demo", 24);
/// let native = StructureGenerator::new("demo").generate(24);
/// let out = model.predict(&seq, &native)?;
/// assert_eq!(out.structure.len(), 24);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FoldingModel {
    config: PpmConfig,
    embedding: Embedding,
    blocks: Vec<FoldingBlock>,
    recycle_norm: LayerNorm,
}

impl FoldingModel {
    /// Builds a model with deterministic weights from the default label.
    pub fn new(config: PpmConfig) -> Self {
        Self::with_label(config, "lightnobel/ppm")
    }

    /// Builds a model with weights derived from an explicit label.
    pub fn with_label(config: PpmConfig, label: &str) -> Self {
        config.validate().expect("preset configurations are valid");
        let blocks = (0..config.blocks)
            .map(|i| FoldingBlock::new(&config, label, i))
            .collect();
        FoldingModel {
            embedding: Embedding::new(config.clone()),
            recycle_norm: LayerNorm::deterministic(&format!("{label}/recycle_ln"), config.hz, 0.1),
            blocks,
            config,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &PpmConfig {
        &self.config
    }

    /// Total number of weight parameters in the folding trunk.
    pub fn num_params(&self) -> usize {
        self.blocks
            .iter()
            .map(FoldingBlock::num_params)
            .sum::<usize>()
            + self.recycle_norm.num_params()
    }

    /// Predicts the structure with the FP32 baseline (no hook).
    ///
    /// # Errors
    ///
    /// See [`FoldingModel::predict_with_hook`].
    pub fn predict(
        &self,
        sequence: &Sequence,
        native: &Structure,
    ) -> Result<PredictionOutput, PpmError> {
        self.predict_with_hook(sequence, native, &mut NoopHook)
    }

    /// Predicts the structure, reporting every tagged pair-dataflow
    /// activation to `hook` (which may rewrite them — this is how
    /// quantization schemes are evaluated).
    ///
    /// The `native` structure plays the role of the protein language model's
    /// structural prior (see [`crate::embed`]); it also defines the
    /// sequence length.
    ///
    /// # Errors
    ///
    /// Returns [`PpmError::SequenceTooShort`] or
    /// [`PpmError::NativeLengthMismatch`] for invalid inputs, and
    /// [`PpmError::Tensor`] if an internal shape is inconsistent.
    pub fn predict_with_hook(
        &self,
        sequence: &Sequence,
        native: &Structure,
        hook: &mut dyn ActivationHook,
    ) -> Result<PredictionOutput, PpmError> {
        let (mut seq_rep, mut pair_init) = self.embedding.embed(sequence, native)?;
        let ns = sequence.len();
        // The fold starts from the embedding itself; only a later recycle
        // reads it again, so only then is a copy kept.
        let mut pair = if self.config.recycles > 1 {
            pair_init.clone()
        } else {
            std::mem::take(&mut pair_init)
        };

        for recycle in 0..self.config.recycles {
            if recycle > 0 {
                // Recycling: re-seed from the embedding plus the normalised
                // previous pair state (ESMFold-style refinement).
                // The state's own buffer takes the embedding back and
                // the scaled norm is added in place.
                let mut tokens = pair.into_token_matrix();
                let mut prev = workspace::take(tokens.rows(), tokens.cols());
                self.recycle_norm.forward_into(&tokens, &mut prev)?;
                tokens.as_mut_slice().copy_from_slice(pair_init.as_slice());
                tokens.add_scaled_assign(&prev, 0.1)?;
                drop(prev);
                pair = Tensor3::from_token_matrix(ns, ns, tokens)?;
            }
            for (b, block) in self.blocks.iter().enumerate() {
                block.forward(&mut seq_rep, &mut pair, hook, b, recycle)?;
            }
        }

        let structure = structure_module::decode_structure(&pair)?;
        Ok(PredictionOutput {
            structure,
            pair_rep: pair,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taps::RecordingHook;
    use ln_protein::generator::StructureGenerator;
    use ln_protein::metrics;

    fn workload(ns: usize, label: &str) -> (Sequence, Structure) {
        (
            Sequence::random(label, ns),
            StructureGenerator::new(label).generate(ns),
        )
    }

    #[test]
    fn baseline_prediction_matches_native() {
        let model = FoldingModel::new(PpmConfig::standard());
        let (seq, native) = workload(40, "m1");
        let out = model.predict(&seq, &native).unwrap();
        let tm = metrics::tm_score(&out.structure, &native).unwrap().score;
        assert!(tm > 0.7, "baseline tm {tm}");
    }

    #[test]
    fn prediction_is_deterministic() {
        let model = FoldingModel::new(PpmConfig::tiny());
        let (seq, native) = workload(16, "m2");
        let a = model.predict(&seq, &native).unwrap();
        let b = model.predict(&seq, &native).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recycling_executes_all_iterations() {
        let mut cfg = PpmConfig::tiny();
        cfg.recycles = 2;
        let model = FoldingModel::new(cfg.clone());
        let (seq, native) = workload(12, "m3");
        let mut hook = RecordingHook::new();
        model.predict_with_hook(&seq, &native, &mut hook).unwrap();
        let max_recycle = hook.records().iter().map(|r| r.tap.recycle).max().unwrap();
        assert_eq!(max_recycle, cfg.recycles - 1);
    }

    #[test]
    fn multi_block_models_tap_all_blocks() {
        let mut cfg = PpmConfig::tiny();
        cfg.blocks = 3;
        let model = FoldingModel::new(cfg);
        let (seq, native) = workload(12, "m4");
        let mut hook = RecordingHook::new();
        model.predict_with_hook(&seq, &native, &mut hook).unwrap();
        let blocks: std::collections::HashSet<usize> =
            hook.records().iter().map(|r| r.tap.block).collect();
        assert_eq!(blocks, [0, 1, 2].into_iter().collect());
    }

    #[test]
    fn num_params_scales_with_blocks() {
        let one = FoldingModel::new(PpmConfig::tiny());
        let mut cfg = PpmConfig::tiny();
        cfg.blocks = 2;
        let two = FoldingModel::new(cfg);
        assert!(two.num_params() > one.num_params());
    }

    #[test]
    fn invalid_inputs_surface_errors() {
        let model = FoldingModel::new(PpmConfig::tiny());
        let (seq, _) = workload(16, "m5");
        let wrong_native = StructureGenerator::new("m5").generate(20);
        assert!(matches!(
            model.predict(&seq, &wrong_native),
            Err(PpmError::NativeLengthMismatch { .. })
        ));
    }
}
