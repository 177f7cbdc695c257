//! The comparison quantization schemes of Table 1 / Fig. 13, as numeric
//! error models plus footprint accounting.
//!
//! Each scheme is modelled by (a) which activation groups it covers —
//! prior attention-model quantizers leave pre-LayerNorm residual streams
//! and score matrices untouched (§3.4) — (b) its numeric quantize→
//! dequantize transform, and (c) its bytes-per-element and weight-precision
//! accounting. The AAQ scheme itself lives in [`crate::scheme`] /
//! [`crate::token`]; this module provides the baselines it is compared
//! against.

use crate::scheme::Group;
use ln_tensor::Tensor2;

/// Rounds an `f32` to the nearest representable `f16` (IEEE binary16),
/// returning it as `f32`. Used to model the FP16 baseline faithfully.
pub fn round_to_f16(v: f32) -> f32 {
    if !v.is_finite() || v == 0.0 {
        return v;
    }
    let abs = v.abs();
    if abs >= 65520.0 {
        // Overflows f16: saturate (activations in the PPM stay far below
        // 65504 anyway).
        return 65504.0f32.copysign(v);
    }
    if abs < 2.0f32.powi(-14) {
        // Subnormal in f16: quantize the magnitude to multiples of 2^-24.
        let step = 2.0f32.powi(-24);
        return (v / step).round() * step;
    }
    // Keep 10 mantissa bits with round-half-up: adding half an f16 ulp
    // (2^12 in f32-bit units) carries into the exponent when needed, then
    // the low 13 bits are truncated.
    let bits = v.to_bits().wrapping_add(0x1000);
    f32::from_bits(bits & 0xFFFF_E000)
}

/// A baseline quantization scheme from the paper's comparison set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineScheme {
    /// The unquantized FP16 baseline (ESMFold as shipped).
    Fp16,
    /// SmoothQuant: per-channel smoothing migrated to weights, then
    /// token-wise INT8 activations; channel-wise INT8 weights.
    SmoothQuant,
    /// LLM.int8(): token-wise INT8 with outlier *channels* kept at FP16.
    LlmInt8,
    /// PTQ4Protein: tensor-wise INT8 activations and weights.
    Ptq4Protein,
    /// Tender: channel-wise INT4 activations and weights.
    Tender,
    /// MEFold: weight-only INT4/FP16 quantization (activations untouched).
    MeFold,
}

/// All baseline schemes in Table 1 order.
pub const ALL_BASELINES: [BaselineScheme; 6] = [
    BaselineScheme::Fp16,
    BaselineScheme::SmoothQuant,
    BaselineScheme::LlmInt8,
    BaselineScheme::Ptq4Protein,
    BaselineScheme::Tender,
    BaselineScheme::MeFold,
];

impl BaselineScheme {
    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BaselineScheme::Fp16 => "BaseLine",
            BaselineScheme::SmoothQuant => "SmoothQuant",
            BaselineScheme::LlmInt8 => "LLM.int8()",
            BaselineScheme::Ptq4Protein => "PTQ4Protein",
            BaselineScheme::Tender => "Tender",
            BaselineScheme::MeFold => "MEFold",
        }
    }

    /// Bytes per weight parameter.
    pub fn weight_bytes_per_param(self) -> f64 {
        match self {
            BaselineScheme::Fp16 => 2.0,
            BaselineScheme::SmoothQuant => 1.0,
            // INT8 plus FP16 outlier columns (~1 %).
            BaselineScheme::LlmInt8 => 1.01,
            BaselineScheme::Ptq4Protein => 1.0,
            BaselineScheme::Tender => 0.5,
            // INT4 bulk with FP16 sensitive layers.
            BaselineScheme::MeFold => 0.995,
        }
    }

    /// Whether the scheme quantizes activations of the given group.
    ///
    /// SmoothQuant and LLM.int8() quantize linear inputs (post-LayerNorm
    /// and projections, Groups B/C) but never the pre-LayerNorm residual
    /// stream; PTQ4Protein's tensor-wise calibration is restricted to the
    /// projection intermediates (Group C). Tender's channel-wise
    /// decomposition covers everything stored to memory — including the
    /// residual stream, where channel-wise INT4 scales clash with the
    /// token-wise magnitude pattern (§3.4, the source of its Fig. 13
    /// degradation).
    pub fn covers_group(self, group: Group) -> bool {
        match self {
            BaselineScheme::Fp16 | BaselineScheme::MeFold => false,
            BaselineScheme::SmoothQuant | BaselineScheme::LlmInt8 => {
                matches!(group, Group::B | Group::C)
            }
            BaselineScheme::Ptq4Protein => matches!(group, Group::C),
            BaselineScheme::Tender => true,
        }
    }

    /// Applies the scheme's numeric error model to one activation.
    ///
    /// `group` tags the activation's dataflow position; `is_scores` marks
    /// attention probability matrices. Activations outside the scheme's
    /// coverage still pass through FP16 rounding (everything is FP16 on the
    /// baseline hardware).
    pub fn process(self, group: Group, is_scores: bool, x: &mut Tensor2) {
        let covered = !is_scores && self.covers_group(group);
        if !covered {
            x.map_inplace(round_to_f16);
            return;
        }
        match self {
            BaselineScheme::Fp16 | BaselineScheme::MeFold => unreachable!("not covered"),
            BaselineScheme::SmoothQuant => smooth_quant_int8(x),
            BaselineScheme::LlmInt8 => llm_int8(x),
            BaselineScheme::Ptq4Protein => tensor_wise(x, 127.0),
            BaselineScheme::Tender => channel_wise(x, 7.0),
        }
    }

    /// MEFold's weight-only INT4 error, modelled as a deterministic
    /// per-output-channel relative perturbation of the layer outputs it
    /// affects. Called by the evaluation hook once per linear output
    /// (Group C) activation.
    pub fn mefold_weight_noise(x: &mut Tensor2) {
        // Tensor-wise INT4 weights: step = max|W|/7 ⇒ per-weight relative
        // error up to ~7 %; accumulated over a dot product the *systematic*
        // per-output-channel component survives averaging. Deterministic
        // pseudo-random channel factors model it.
        for i in 0..x.rows() {
            let row = x.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                let h = (j as u32).wrapping_mul(2654435761);
                let eps = ((h >> 16) & 0xFFFF) as f32 / 65535.0 - 0.5; // [-0.5, 0.5]
                *v *= 1.0 + eps * 0.12;
            }
        }
    }
}

/// SmoothQuant: divide each channel by a smoothing factor (α = 0.5), then
/// token-wise symmetric INT8, then multiply back.
fn smooth_quant_int8(x: &mut Tensor2) {
    let cols = x.cols();
    let mut channel_max = vec![1e-9f32; cols];
    for i in 0..x.rows() {
        for (j, &v) in x.row(i).iter().enumerate() {
            channel_max[j] = channel_max[j].max(v.abs());
        }
    }
    let smooth: Vec<f32> = channel_max.iter().map(|&m| m.sqrt().max(1e-4)).collect();
    for i in 0..x.rows() {
        let row = x.row_mut(i);
        let max = row
            .iter()
            .zip(&smooth)
            .fold(0.0f32, |a, (&v, &s)| a.max((v / s).abs()));
        let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
        for (v, &s) in row.iter_mut().zip(&smooth) {
            let q = (*v / s / scale).round().clamp(-127.0, 127.0);
            *v = q * scale * s;
        }
    }
}

/// LLM.int8(): columns whose max magnitude exceeds the 99.9-percentile-ish
/// threshold stay FP16; the rest are token-wise INT8.
fn llm_int8(x: &mut Tensor2) {
    let cols = x.cols();
    let mut channel_max = vec![0.0f32; cols];
    for i in 0..x.rows() {
        for (j, &v) in x.row(i).iter().enumerate() {
            channel_max[j] = channel_max[j].max(v.abs());
        }
    }
    let mean_max = channel_max.iter().sum::<f32>() / cols.max(1) as f32;
    let threshold = 6.0 * mean_max;
    let keep_fp16: Vec<bool> = channel_max.iter().map(|&m| m > threshold).collect();
    for i in 0..x.rows() {
        let row = x.row_mut(i);
        let max = row
            .iter()
            .zip(&keep_fp16)
            .filter(|&(_, &k)| !k)
            .fold(0.0f32, |a, (&v, _)| a.max(v.abs()));
        let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
        for (v, &k) in row.iter_mut().zip(&keep_fp16) {
            if k {
                *v = round_to_f16(*v);
            } else {
                let q = (*v / scale).round().clamp(-127.0, 127.0);
                *v = q * scale;
            }
        }
    }
}

/// Tensor-wise symmetric quantization with `levels` positive steps.
fn tensor_wise(x: &mut Tensor2, levels: f32) {
    let max = x.max_abs();
    let scale = if max > 0.0 { max / levels } else { 1.0 };
    x.map_inplace(|v| (v / scale).round().clamp(-levels, levels) * scale);
}

/// Channel-wise symmetric quantization with `levels` positive steps and a
/// *calibrated* scale: the 95th percentile of each channel's magnitudes.
///
/// Channel-wise schemes predetermine scales from calibration data (§4.1);
/// the PPM's unpredictable token-wise outliers exceed the calibrated range
/// at runtime and clip — the failure mode that makes Tender degrade on
/// PPMs while working on LLMs.
fn channel_wise(x: &mut Tensor2, levels: f32) {
    let cols = x.cols();
    let rows = x.rows();
    let mut scales = vec![1.0f32; cols];
    for (j, scale) in scales.iter_mut().enumerate() {
        let mut mags: Vec<f32> = (0..rows).map(|i| x.at(i, j).abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p95 = mags[(rows.saturating_sub(1)) * 95 / 100];
        if p95 > 0.0 {
            *scale = p95 / levels;
        }
    }
    for i in 0..rows {
        for (v, &s) in x.row_mut(i).iter_mut().zip(&scales) {
            *v = (*v / s).round().clamp(-levels, levels) * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spiky_activation() -> Tensor2 {
        // Token-scale structure: some rows are 20x larger; within-row
        // spikes on a few channels.
        Tensor2::from_fn(16, 64, |i, j| {
            let token_scale = if i % 5 == 0 { 20.0 } else { 1.0 };
            let spike = if j == (i * 3) % 64 { 8.0 } else { 1.0 };
            token_scale * spike * (((i * 13 + j * 7) % 17) as f32 * 0.1 - 0.8)
        })
    }

    #[test]
    fn f16_rounding_is_idempotent_and_close() {
        for v in [
            0.0f32,
            1.0,
            -1.0,
            core::f32::consts::PI,
            1e-3,
            -123.456,
            6e4,
        ] {
            let r = round_to_f16(v);
            assert_eq!(round_to_f16(r), r, "{v}");
            assert!((r - v).abs() <= v.abs() * 1e-3 + 1e-7, "{v} -> {r}");
        }
    }

    #[test]
    fn f16_handles_extremes() {
        assert!(round_to_f16(1e6).is_finite());
        assert_eq!(round_to_f16(0.0), 0.0);
        let tiny = round_to_f16(1e-8);
        assert!(tiny.abs() < 1e-7);
        assert!(round_to_f16(f32::NAN).is_nan());
    }

    #[test]
    fn coverage_matches_prior_work_limitations() {
        use BaselineScheme::*;
        assert!(!SmoothQuant.covers_group(Group::A));
        assert!(SmoothQuant.covers_group(Group::B));
        assert!(!Ptq4Protein.covers_group(Group::B));
        assert!(Tender.covers_group(Group::C));
        assert!(
            Tender.covers_group(Group::A),
            "channel-wise INT4 hits the residual stream"
        );
        assert!(!MeFold.covers_group(Group::C));
    }

    #[test]
    fn error_ordering_matches_precision() {
        let x0 = spiky_activation();
        let err = |s: BaselineScheme| {
            let mut x = x0.clone();
            s.process(Group::C, false, &mut x);
            x.rmse(&x0).unwrap()
        };
        let fp16 = err(BaselineScheme::Fp16);
        let sq = err(BaselineScheme::SmoothQuant);
        let tensor = err(BaselineScheme::Ptq4Protein);
        let tender = err(BaselineScheme::Tender);
        assert!(fp16 < sq, "fp16 {fp16} < smoothquant {sq}");
        assert!(sq < tensor, "smoothquant {sq} < tensorwise {tensor}");
        assert!(
            tensor < tender,
            "tensorwise int8 {tensor} < channelwise int4 {tender}"
        );
    }

    #[test]
    fn llm_int8_protects_outlier_channels() {
        let mut x = Tensor2::from_fn(8, 32, |_, j| if j == 5 { 1000.0 } else { 0.5 });
        let orig = x.clone();
        BaselineScheme::LlmInt8.process(Group::C, false, &mut x);
        // Channel 5 kept at fp16: near-exact.
        for i in 0..8 {
            assert!((x.at(i, 5) - orig.at(i, 5)).abs() < 1.0);
            assert!((x.at(i, 0) - orig.at(i, 0)).abs() < 0.01);
        }
    }

    #[test]
    fn uncovered_sites_get_f16_rounding_only() {
        let x0 = spiky_activation();
        let mut x = x0.clone();
        BaselineScheme::Ptq4Protein.process(Group::A, false, &mut x);
        let rmse = x.rmse(&x0).unwrap();
        assert!(
            rmse < 0.05,
            "group A must only see f16 rounding, rmse {rmse}"
        );
    }

    #[test]
    fn scores_are_never_quantized_by_baselines() {
        let x0 = ln_tensor::nn::softmax_rows(&spiky_activation());
        for s in ALL_BASELINES {
            let mut x = x0.clone();
            s.process(Group::C, true, &mut x);
            assert!(x.rmse(&x0).unwrap() < 1e-4, "{}", s.name());
        }
    }

    #[test]
    fn mefold_noise_is_deterministic_and_small() {
        let x0 = spiky_activation();
        let mut a = x0.clone();
        let mut b = x0.clone();
        BaselineScheme::mefold_weight_noise(&mut a);
        BaselineScheme::mefold_weight_noise(&mut b);
        assert_eq!(a, b);
        let rel = a.rmse(&x0).unwrap() / x0.frobenius_norm() * (x0.len() as f32).sqrt();
        assert!(rel > 0.001 && rel < 0.2, "relative noise {rel}");
    }

    #[test]
    fn weight_bytes_ordering_matches_table1() {
        use BaselineScheme::*;
        assert!(Tender.weight_bytes_per_param() < SmoothQuant.weight_bytes_per_param());
        assert!(SmoothQuant.weight_bytes_per_param() < Fp16.weight_bytes_per_param());
        assert_eq!(Fp16.weight_bytes_per_param(), 2.0);
    }

    #[test]
    fn names_are_unique() {
        let mut set = std::collections::HashSet::new();
        for s in ALL_BASELINES {
            assert!(set.insert(s.name()));
        }
    }
}
