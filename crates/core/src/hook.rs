//! Activation hooks that inject quantization error into the folding trunk.

use ln_ppm::taps::{ActivationHook, ActivationSite, Tap};
use ln_quant::baselines::BaselineScheme;
use ln_quant::scheme::{AaqConfig, Group, QuantScheme};
use ln_quant::tensor::QuantizedTensor;
use ln_quant::token::{fake_quantize_tokens, QuantError};
use ln_tensor::Tensor2;

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

/// The baseline-scheme hook: applies a comparison scheme's numeric error
/// model at the sites it covers, FP16 rounding elsewhere, and MEFold's
/// weight-quantization perturbation on linear outputs.
#[derive(Debug, Clone)]
pub struct BaselineHook {
    scheme: BaselineScheme,
}

impl BaselineHook {
    /// Creates the hook for a baseline scheme.
    pub fn new(scheme: BaselineScheme) -> Self {
        BaselineHook { scheme }
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

impl ActivationHook for BaselineHook {
    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
        let is_scores = tap.site == ActivationSite::TriAttnScores;
        if self.scheme == BaselineScheme::MeFold && is_linear_output(tap.site) {
            BaselineScheme::mefold_weight_noise(activation);
        }
        self.scheme.process(tap.group(), is_scores, activation);
    }

    fn takes_row_blocks(&self, site: ActivationSite) -> bool {
        // Every covered scheme calibrates its scales over the tokens it is
        // shown; the schemes it models calibrate over the whole tensor.
        !self.scheme.covers_group(site.group())
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

    #[test]
    fn baseline_hook_skips_uncovered_groups() {
        let mut hook = BaselineHook::new(BaselineScheme::Ptq4Protein);
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
    fn baseline_hook_sees_what_it_calibrates_on_whole() {
        // Every site the trunk can show in row blocks or lanes. Group C is
        // calibrated across its tokens by every scheme that covers Group C,
        // and rounded per element by FP16 and MEFold; the out LayerNorm
        // (Group B) by SmoothQuant, LLM.int8() and Tender; only Tender
        // covers Group A. AAQ's scales are per token.
        use ln_quant::baselines::ALL_BASELINES;
        use ActivationSite::*;
        let takes =
            |site| ALL_BASELINES.map(|scheme| BaselineHook::new(scheme).takes_row_blocks(site));
        let blocked = [
            TriMulGateLeft,
            TriMulProjLeft,
            TriMulGateRight,
            TriMulProjRight,
            TriMulTriangleOut,
            TriMulOutPostLn,
            TriMulOutGate,
            TriAttnKey,
            TriAttnValue,
            TriAttnGate,
            TransitionHidden,
        ];
        for site in blocked {
            // Fp16, SmoothQuant, LLM.int8(), PTQ4Protein, Tender, MEFold.
            let want = match site.group() {
                Group::B => [true, false, false, true, false, true],
                _ => [true, false, false, false, false, true],
            };
            assert_eq!(takes(site), want, "{site}");
            assert!(AaqHook::paper().takes_row_blocks(site), "{site}");
        }
        assert_eq!(
            takes(TransitionResidualIn),
            [true, true, true, true, false, true]
        );
    }

    #[test]
    fn mefold_perturbs_linear_outputs_only() {
        let mut hook = BaselineHook::new(BaselineScheme::MeFold);
        let orig = activation();
        let mut q = orig.clone();
        hook.on_activation(tap(ActivationSite::TriAttnQuery), &mut q);
        let mut r = orig.clone();
        hook.on_activation(tap(ActivationSite::TriMulResidualIn), &mut r);
        assert!(q.rmse(&orig).unwrap() > 10.0 * r.rmse(&orig).unwrap());
    }
}
