//! Activation hooks that inject quantization error into the folding trunk.

use ln_datasets::{Dataset, Registry};
use ln_ppm::taps::{ActivationHook, ActivationSite, Tap};
use ln_ppm::{FoldingModel, PpmError};
use ln_quant::baselines::{BaselineScheme, ChannelSampler, ChannelStats};
use ln_quant::scheme::{AaqConfig, Group, QuantScheme};
use ln_quant::tensor::QuantizedTensor;
use ln_quant::token::{fake_quantize_tokens, QuantError};
use ln_tensor::Tensor2;
use std::collections::HashMap;

/// The AAQ hook: quantize→dequantize every tagged activation with the
/// scheme assigned to its group (§4.2), including attention score matrices
/// (which prior schemes skip).
///
/// Beside its configuration it keeps, per group, the error the quantizer
/// reported for what it rewrote (or, in the quantized domain, what the
/// trunk encoded), and the quantized byte volume for footprint accounting.
#[derive(Debug, Clone)]
pub struct AaqHook {
    config: AaqConfig,
    quantized_domain: bool,
    encoded_bytes: u64,
    fp16_bytes: u64,
    /// Indexed by [`Group::index`].
    error: [QuantError; 3],
}

impl AaqHook {
    /// Creates the hook for an AAQ configuration.
    pub fn new(config: AaqConfig) -> Self {
        AaqHook {
            config,
            quantized_domain: false,
            encoded_bytes: 0,
            fp16_bytes: 0,
            error: [QuantError::default(); 3],
        }
    }

    /// The paper's configuration (Fig. 11 optimum).
    pub fn paper() -> Self {
        Self::new(AaqConfig::paper())
    }

    /// Switches the post-LayerNorm projections from fake-quantization
    /// (quantize→dequantize→FP32 GEMM) to the fully quantized domain: the
    /// PPM encodes the activation once and runs the projections as integer
    /// GEMMs with a single dequantization epilogue — the RMPU execution
    /// model (§5.2) end to end in software.
    #[must_use]
    pub fn with_quantized_domain(mut self) -> Self {
        self.quantized_domain = true;
        self
    }

    /// Whether the quantized-domain GEMM path is enabled.
    pub fn quantized_domain(&self) -> bool {
        self.quantized_domain
    }

    /// The configuration in use.
    pub fn config(&self) -> &AaqConfig {
        &self.config
    }

    /// Total encoded bytes of every quantized activation seen so far.
    pub fn encoded_bytes(&self) -> u64 {
        self.encoded_bytes
    }

    /// What the same activations would occupy at FP16.
    pub fn fp16_bytes(&self) -> u64 {
        self.fp16_bytes
    }

    /// The scheme applied at a tap.
    pub fn scheme_for(&self, tap: Tap) -> QuantScheme {
        self.config.scheme_for(tap.group())
    }

    /// Relative quantization RMSE accumulated at the given group's taps:
    /// `sqrt(Σ err² / Σ x²)`. This is the sub-TM-resolution accuracy signal
    /// the Fig. 11 design-space exploration ranks schemes by.
    pub fn relative_rmse(&self, group: Group) -> f64 {
        self.error[group.index()].relative_rmse()
    }

    /// Books one quantized activation of `values` values.
    fn account(&mut self, tap: Tap, error: QuantError, encoded_bytes: usize, values: usize) {
        self.error[tap.group().index()] += error;
        self.encoded_bytes += encoded_bytes as u64;
        self.fp16_bytes += (values * 2) as u64;
    }
}

impl ActivationHook for AaqHook {
    fn quantized_matmul(&self, tap: Tap) -> Option<QuantScheme> {
        // Only the post-LN activations feed weight GEMMs directly; their
        // group scheme is what the RMPU would consume for the projections.
        if !self.quantized_domain {
            return None;
        }
        match tap.site {
            ActivationSite::TriMulPostLn
            | ActivationSite::TriAttnPostLn
            | ActivationSite::TransitionPostLn => Some(self.scheme_for(tap)),
            _ => None,
        }
    }

    fn scheme_at(&self, tap: Tap, channels: usize) -> Option<QuantScheme> {
        // Guard rails for narrow tensors (attention bias has `heads`
        // channels; score rows can be shorter than the outlier budget).
        if channels < 2 {
            return None;
        }
        let mut scheme = self.scheme_for(tap);
        scheme.outliers = scheme.outliers.min(channels - 1);
        Some(scheme)
    }

    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
        let (rows, cols) = activation.shape();
        let Some(scheme) = self.scheme_at(tap, cols) else {
            return;
        };
        let error = fake_quantize_tokens(activation, scheme);
        self.account(
            tap,
            error,
            rows * scheme.token_bytes(cols),
            activation.len(),
        );
    }

    fn on_encoded(
        &mut self,
        tap: Tap,
        activation: &Tensor2,
        encoded: &QuantizedTensor,
        error: QuantError,
    ) {
        // The trunk encoded the activation itself, with the scheme
        // `quantized_matmul` gave: the bytes and the error are the same
        // the rewrite above would have booked.
        self.account(tap, error, encoded.encoded_bytes(), activation.len());
    }
}

/// The Fig. 13 baselines' calibration: per `(block, recycle, site)` of the
/// trunk, the [`ChannelStats`] of one FP32 fold of CASP16's shortest
/// record, R0271 (L = 77). No accuracy experiment scores CASP16 — its
/// ground truth was unreleased at paper time — so the record is held out
/// of everything the baselines are scored on, as post-training
/// quantization calibrates on held-out data.
///
/// Attention scores are not calibrated: no baseline quantizes them. The
/// two units of a kind share their sites' keys (Outgoing and Incoming
/// multiplication, Starting and Ending attention), so each key holds the
/// statistics of both units' tokens.
#[derive(Debug, Clone)]
pub struct Calibration {
    sites: HashMap<Tap, ChannelStats>,
}

impl Calibration {
    /// Folds the calibration record through `model`, whose folds it will
    /// calibrate, and keeps what every baseline needs at each tap.
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError`] from the folding model.
    pub fn fold(model: &FoldingModel) -> Result<Self, PpmError> {
        let registry = Registry::standard();
        let record = registry.dataset(Dataset::Casp16).shortest();
        let (sequence, native) = record.inputs(record.length());
        let mut observer = CalibrationObserver::default();
        model.predict_with_hook(&sequence, &native, &mut observer)?;
        observer.close_stage();
        Ok(Calibration {
            sites: observer.closed,
        })
    }

    /// The statistics calibrated at `tap`, if any.
    pub fn site(&self, tap: Tap) -> Option<&ChannelStats> {
        self.sites.get(&tap)
    }
}

/// Samples every tap of the calibration fold but the scores. A stage's
/// keys are complete once a tap of the next stage fires, so only one
/// stage's magnitudes are held at a time.
#[derive(Default)]
struct CalibrationObserver {
    open: HashMap<Tap, ChannelSampler>,
    closed: HashMap<Tap, ChannelStats>,
}

impl CalibrationObserver {
    fn close_stage(&mut self) {
        let open = std::mem::take(&mut self.open);
        let stats = open.into_iter().map(|(tap, s)| (tap, s.finish()));
        self.closed.extend(stats);
    }
}

/// The stage a tap belongs to: its block, its recycle and its unit kind.
fn stage(tap: &Tap) -> (usize, usize, &'static str) {
    let kind = tap.site.name().split('.').next().unwrap_or_default();
    (tap.block, tap.recycle, kind)
}

impl ActivationHook for CalibrationObserver {
    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
        if tap.site == ActivationSite::TriAttnScores {
            return;
        }
        if self
            .open
            .keys()
            .next()
            .is_some_and(|t| stage(t) != stage(&tap))
        {
            self.close_stage();
        }
        self.open.entry(tap).or_default().observe(activation);
    }
}

/// The baseline-scheme hook: applies a comparison scheme's numeric error
/// model at the sites it covers, with the scales of its [`Calibration`],
/// FP16 rounding elsewhere, and MEFold's weight-quantization perturbation
/// on linear outputs. Every rewrite is per token, so the trunk may show it
/// any block of tokens.
#[derive(Debug, Clone)]
pub struct BaselineHook<'c> {
    scheme: BaselineScheme,
    calibration: &'c Calibration,
}

impl<'c> BaselineHook<'c> {
    /// Creates the hook for a baseline scheme, calibrated by `calibration`
    /// (which must come from the model that folds through the hook).
    pub fn new(scheme: BaselineScheme, calibration: &'c Calibration) -> Self {
        BaselineHook {
            scheme,
            calibration,
        }
    }

    /// The wrapped scheme.
    pub fn scheme(&self) -> BaselineScheme {
        self.scheme
    }
}

/// Sites whose values are outputs of weight multiplications — where
/// MEFold's weight-only INT4 error lands.
fn is_linear_output(site: ActivationSite) -> bool {
    use ActivationSite::*;
    matches!(
        site,
        TriMulProjLeft
            | TriMulProjRight
            | TriMulGateLeft
            | TriMulGateRight
            | TriMulOutGate
            | TriAttnQuery
            | TriAttnKey
            | TriAttnValue
            | TriAttnBias
            | TriAttnGate
            | TransitionHidden
    )
}

impl ActivationHook for BaselineHook<'_> {
    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
        let is_scores = tap.site == ActivationSite::TriAttnScores;
        if self.scheme == BaselineScheme::MeFold && is_linear_output(tap.site) {
            BaselineScheme::mefold_weight_noise(activation);
        }
        let calibrated = self.calibration.site(tap);
        self.scheme
            .process(tap.group(), is_scores, activation, calibrated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_ppm::taps::{ActivationSite, Tap};

    fn tap(site: ActivationSite) -> Tap {
        Tap {
            block: 0,
            recycle: 0,
            site,
        }
    }

    fn activation() -> Tensor2 {
        Tensor2::from_fn(16, 128, |i, j| {
            let scale = if i % 4 == 0 { 30.0 } else { 1.0 };
            scale * (((i * 13 + j * 7) % 19) as f32 * 0.1 - 0.9)
        })
    }

    #[test]
    fn aaq_hook_uses_group_schemes() {
        let hook = AaqHook::paper();
        assert_eq!(
            hook.scheme_for(tap(ActivationSite::TriMulResidualIn)),
            QuantScheme::int8_with_outliers(4)
        );
        assert_eq!(
            hook.scheme_for(tap(ActivationSite::TriAttnQuery)),
            QuantScheme::int4_with_outliers(0)
        );
    }

    #[test]
    fn aaq_hook_perturbs_and_accounts() {
        let mut hook = AaqHook::paper();
        let mut x = activation();
        let before = x.clone();
        hook.on_activation(tap(ActivationSite::TriMulResidualIn), &mut x);
        assert_ne!(x, before);
        assert!(hook.encoded_bytes() > 0);
        assert!(hook.encoded_bytes() < hook.fp16_bytes());
    }

    #[test]
    fn aaq_error_is_smaller_on_group_a_than_plain_int4() {
        let mut x8 = activation();
        let mut x4 = activation();
        let orig = activation();
        let mut hook = AaqHook::paper();
        hook.on_activation(tap(ActivationSite::TriMulResidualIn), &mut x8); // A: INT8+4
        hook.on_activation(tap(ActivationSite::TriAttnQuery), &mut x4); // C: INT4+0
        assert!(x8.rmse(&orig).unwrap() < x4.rmse(&orig).unwrap());
    }

    #[test]
    fn narrow_activations_are_handled() {
        // Bias tensors have `heads` (4) channels — fewer than the outlier
        // budget; the hook must degrade gracefully.
        let mut hook = AaqHook::paper();
        let mut bias = Tensor2::from_fn(8, 4, |i, j| (i + j) as f32 * 0.3);
        hook.on_activation(tap(ActivationSite::TriAttnBias), &mut bias);
        assert!(bias.as_slice().iter().all(|v| v.is_finite()));
    }

    /// A calibration of `activation()`'s tokens at every site the tests
    /// tap with a baseline hook.
    fn calibration() -> Calibration {
        use ActivationSite::*;
        let sites = [TriMulResidualIn, TriMulPostLn, TriAttnQuery];
        let stats = |site| {
            let mut sampler = ChannelSampler::default();
            sampler.observe(&activation());
            (tap(site), sampler.finish())
        };
        Calibration {
            sites: sites.into_iter().map(stats).collect(),
        }
    }

    #[test]
    fn baseline_hook_skips_uncovered_groups() {
        let calibration = calibration();
        let mut hook = BaselineHook::new(BaselineScheme::Ptq4Protein, &calibration);
        let orig = activation();
        let mut a = orig.clone();
        hook.on_activation(tap(ActivationSite::TriMulResidualIn), &mut a); // group A
                                                                           // Only f16 rounding.
        assert!(a.rmse(&orig).unwrap() < 0.05);
        let mut c = orig.clone();
        hook.on_activation(tap(ActivationSite::TriAttnQuery), &mut c); // group C
        assert!(c.rmse(&orig).unwrap() > a.rmse(&orig).unwrap());
    }

    #[test]
    fn calibrated_baselines_give_row_blocks_the_bits_of_the_whole() {
        // Every scheme rewrites each token on its own from calibrated
        // scales, so a site shown in blocks of 1, 7 or 64 rows (150 tokens:
        // ragged tails of 3 and 22) gets the bits it gets whole — at a
        // Group A, B and C site and at the scores.
        use ln_quant::baselines::ALL_BASELINES;
        use ActivationSite::*;
        let calibration = calibration();
        let x = Tensor2::from_fn(150, 128, |i, j| {
            let scale = if i % 9 == 0 { 40.0 } else { 1.0 };
            scale * (((i * 11 + j * 5) % 23) as f32 * 0.1 - 1.1)
        });
        let bits = |x: &Tensor2| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for scheme in ALL_BASELINES {
            for site in [TriMulResidualIn, TriMulPostLn, TriAttnQuery, TriAttnScores] {
                let mut hook = BaselineHook::new(scheme, &calibration);
                let mut whole = x.clone();
                hook.on_activation(tap(site), &mut whole);
                for rows in [1, 7, 64] {
                    let mut blocked = Vec::with_capacity(x.len());
                    for first in (0..x.rows()).step_by(rows) {
                        let len = rows.min(x.rows() - first);
                        let mut block = Tensor2::from_fn(len, x.cols(), |i, j| x.at(first + i, j));
                        hook.on_activation(tap(site), &mut block);
                        blocked.extend(bits(&block));
                    }
                    assert!(
                        blocked == bits(&whole),
                        "{} at {site}, blocks of {rows}",
                        scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn the_calibration_record_is_held_out_and_every_covered_tap_is_calibrated() {
        // R0271, CASP16's shortest record, which no accuracy experiment
        // scores. A fold under the hook looks up every tap but the scores.
        let registry = Registry::standard();
        let record = registry.dataset(Dataset::Casp16).shortest();
        assert_eq!((record.name(), record.length()), ("R0271", 77));
        let model = FoldingModel::new(ln_ppm::PpmConfig::tiny());
        let calibration = Calibration::fold(&model).unwrap();
        let mut recorder = ln_ppm::taps::RecordingHook::new();
        let (sequence, native) = record.inputs(24);
        model
            .predict_with_hook(&sequence, &native, &mut recorder)
            .unwrap();
        for r in recorder.records() {
            let stats = calibration.site(r.tap);
            if r.tap.site == ActivationSite::TriAttnScores {
                assert!(stats.is_none());
            } else {
                assert_eq!(
                    stats.map(|s| s.absmax().len()),
                    Some(r.channels),
                    "{}",
                    r.tap
                );
            }
        }
    }

    #[test]
    fn mefold_perturbs_linear_outputs_only() {
        let calibration = calibration();
        let mut hook = BaselineHook::new(BaselineScheme::MeFold, &calibration);
        let orig = activation();
        let mut q = orig.clone();
        hook.on_activation(tap(ActivationSite::TriAttnQuery), &mut q);
        let mut r = orig.clone();
        hook.on_activation(tap(ActivationSite::TriMulResidualIn), &mut r);
        assert!(q.rmse(&orig).unwrap() > 10.0 * r.rmse(&orig).unwrap());
    }
}
