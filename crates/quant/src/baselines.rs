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
//!
//! The baselines are post-training quantizers: every statistic that spans
//! tokens — SmoothQuant's and LLM.int8()'s channel maxima, PTQ4Protein's
//! tensor maximum, Tender's channel percentiles — is a [`ChannelStats`]
//! taken once, ahead of time, on a calibration run (`lightnobel`'s
//! `Calibration`: one FP32 fold of a record no experiment scores), and
//! [`BaselineScheme::process`] applies it one token at a time. Two
//! deviations from the schemes as published:
//!
//! * LLM.int8() detects its outlier columns per batch at run time; here
//!   they are the calibrated ones.
//! * Statistics are kept per site of a folding block, and the two units of
//!   a kind (Outgoing and Incoming multiplication, Starting and Ending
//!   attention) share their sites, so each is calibrated over both units'
//!   tokens.

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

    /// Applies the scheme's numeric error model to one activation, with
    /// the scales `calibrated` for its site ahead of time.
    ///
    /// `group` tags the activation's dataflow position; `is_scores` marks
    /// attention probability matrices. Activations outside the scheme's
    /// coverage still pass through FP16 rounding (everything is FP16 on the
    /// baseline hardware) and need no calibration. Each token is rewritten
    /// on its own — every statistic that spans tokens is in `calibrated` —
    /// so the activation may come a block of tokens at a time.
    ///
    /// # Panics
    ///
    /// If the scheme quantizes the activation and `calibrated` is `None`,
    /// or was calibrated at a different width.
    pub fn process(
        self,
        group: Group,
        is_scores: bool,
        x: &mut Tensor2,
        calibrated: Option<&ChannelStats>,
    ) {
        let covered = !is_scores && self.covers_group(group);
        if !covered {
            x.map_inplace(round_to_f16);
            return;
        }
        let stats = calibrated.expect("every site a scheme quantizes is calibrated");
        assert_eq!(stats.absmax.len(), x.cols(), "calibrated at this width");
        match self {
            BaselineScheme::Fp16 | BaselineScheme::MeFold => unreachable!("not covered"),
            BaselineScheme::SmoothQuant => smooth_quant_int8(x, stats),
            BaselineScheme::LlmInt8 => llm_int8(x, stats),
            BaselineScheme::Ptq4Protein => tensor_wise(x, stats, 127.0),
            BaselineScheme::Tender => channel_wise(x, stats, 7.0),
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

/// What the baselines calibrate at one activation site, ahead of time:
/// each channel's largest magnitude and the 95th percentile of its
/// magnitudes, over every token of the calibration run. Non-finite values
/// are left out, so both are finite and at least 0 (0 for a channel that
/// saw none).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChannelStats {
    absmax: Vec<f32>,
    /// The magnitude at index `(n − 1) · 95 / 100` of a channel's `n` in
    /// ascending order.
    p95: Vec<f32>,
}

impl ChannelStats {
    /// Each channel's largest finite magnitude.
    pub fn absmax(&self) -> &[f32] {
        &self.absmax
    }
}

/// Collects one site's magnitudes, a block of tokens at a time, into its
/// [`ChannelStats`]. Every magnitude is kept until [`ChannelSampler::finish`],
/// so the exact maximum and percentile of the set do not depend on how the
/// tokens were blocked.
#[derive(Debug, Clone, Default)]
pub struct ChannelSampler {
    /// Per channel, the finite magnitudes seen.
    mags: Vec<Vec<f32>>,
}

impl ChannelSampler {
    /// Adds every token of `x`.
    ///
    /// # Panics
    ///
    /// If `x` is narrower or wider than what the sampler saw before.
    pub fn observe(&mut self, x: &Tensor2) {
        if self.mags.is_empty() {
            self.mags = vec![Vec::new(); x.cols()];
        }
        assert_eq!(self.mags.len(), x.cols(), "one site, one width");
        for row in x.iter_rows() {
            for (mags, &v) in self.mags.iter_mut().zip(row) {
                if v.is_finite() {
                    mags.push(v.abs());
                }
            }
        }
    }

    /// The statistics of everything observed.
    pub fn finish(self) -> ChannelStats {
        let (absmax, p95) = self
            .mags
            .into_iter()
            .map(|mut mags| {
                let absmax = mags.iter().copied().fold(0.0, f32::max);
                let p95 = match mags.len() {
                    0 => 0.0,
                    n => {
                        *mags
                            .select_nth_unstable_by((n - 1) * 95 / 100, f32::total_cmp)
                            .1
                    }
                };
                (absmax, p95)
            })
            .unzip();
        ChannelStats { absmax, p95 }
    }
}

/// SmoothQuant: divide each channel by a smoothing factor (α = 0.5) from
/// its calibrated maximum, then token-wise symmetric INT8, then multiply
/// back.
fn smooth_quant_int8(x: &mut Tensor2, stats: &ChannelStats) {
    let smooth: Vec<f32> = stats
        .absmax
        .iter()
        .map(|&m| m.max(1e-9).sqrt().max(1e-4))
        .collect();
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

/// LLM.int8(): columns whose calibrated maximum exceeds six times the mean
/// channel maximum stay FP16; the rest are token-wise INT8.
///
/// Deviation: LLM.int8() detects its outlier columns per batch at run
/// time; here they are the calibrated ones, fixed ahead of time like every
/// other baseline's statistics.
fn llm_int8(x: &mut Tensor2, stats: &ChannelStats) {
    let channel_max = &stats.absmax;
    let mean_max = channel_max.iter().sum::<f32>() / channel_max.len().max(1) as f32;
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

/// Tensor-wise symmetric quantization with `levels` positive steps and one
/// scale from the calibrated maximum over every channel: a runtime value
/// past it clips.
fn tensor_wise(x: &mut Tensor2, stats: &ChannelStats, levels: f32) {
    let max = stats.absmax.iter().copied().fold(0.0, f32::max);
    let scale = if max > 0.0 { max / levels } else { 1.0 };
    x.map_inplace(|v| (v / scale).round().clamp(-levels, levels) * scale);
}

/// Each channel's scale for `levels` positive steps: its calibrated 95th
/// percentile over `levels`, or 1 for a channel whose percentile is 0.
fn channel_scales(stats: &ChannelStats, levels: f32) -> Vec<f32> {
    let scale = |p95: f32| if p95 > 0.0 { p95 / levels } else { 1.0 };
    stats.p95.iter().map(|&p95| scale(p95)).collect()
}

/// Channel-wise symmetric quantization with `levels` positive steps and a
/// *calibrated* scale: the 95th percentile of each channel's magnitudes on
/// the calibration run.
///
/// Channel-wise schemes predetermine scales from calibration data (§4.1);
/// the PPM's unpredictable token-wise outliers exceed the calibrated range
/// at runtime and clip — the failure mode that makes Tender degrade on
/// PPMs while working on LLMs.
fn channel_wise(x: &mut Tensor2, stats: &ChannelStats, levels: f32) {
    let scales = channel_scales(stats, levels);
    for i in 0..x.rows() {
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

    /// The statistics of `x`'s own tokens.
    fn calibrated(x: &Tensor2) -> ChannelStats {
        let mut sampler = ChannelSampler::default();
        sampler.observe(x);
        sampler.finish()
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
        let stats = calibrated(&x0);
        let err = |s: BaselineScheme| {
            let mut x = x0.clone();
            s.process(Group::C, false, &mut x, Some(&stats));
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
        let stats = calibrated(&x);
        BaselineScheme::LlmInt8.process(Group::C, false, &mut x, Some(&stats));
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
        BaselineScheme::Ptq4Protein.process(Group::A, false, &mut x, None);
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
            s.process(Group::C, true, &mut x, None);
            assert!(x.rmse(&x0).unwrap() < 1e-4, "{}", s.name());
        }
    }

    #[test]
    fn a_runtime_token_past_the_calibrated_range_clips_under_tender() {
        // §4.1's mechanism: Tender's channel scales are fixed on the
        // calibration run, so a token ten times past a channel's
        // calibrated 95th percentile saturates at ±7 levels — ±p95 —
        // while the calibration tokens themselves are reproduced closely.
        let calibration =
            Tensor2::from_fn(40, 16, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.2 - 1.0);
        let stats = calibrated(&calibration);
        let scales = channel_scales(&stats, 7.0);
        let mut x = Tensor2::from_fn(2, 16, |i, j| {
            let sign = if (i + j) % 2 == 0 { 1.0 } else { -1.0 };
            let scale = if i == 1 { 10.0 } else { 0.5 };
            sign * scale * stats.p95[j]
        });
        BaselineScheme::Tender.process(Group::A, false, &mut x, Some(&stats));
        for (j, &scale) in scales.iter().enumerate() {
            let sign = if (1 + j) % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(x.at(1, j), sign * 7.0 * scale, "channel {j} clips");
            assert!((x.at(0, j).abs() - 0.5 * stats.p95[j]).abs() <= 0.5 * scale);
        }
    }

    #[test]
    fn calibration_does_not_depend_on_how_the_tokens_were_blocked() {
        let x = spiky_activation();
        let whole = calibrated(&x);
        for rows in [1, 3, 7] {
            let mut sampler = ChannelSampler::default();
            for first in (0..x.rows()).step_by(rows) {
                let len = rows.min(x.rows() - first);
                sampler.observe(&Tensor2::from_fn(len, x.cols(), |i, j| x.at(first + i, j)));
            }
            assert_eq!(sampler.finish(), whole, "blocks of {rows}");
        }
        assert_eq!(
            whole.absmax()[0],
            (0..16).map(|i| x.at(i, 0).abs()).fold(0.0, f32::max)
        );
    }

    #[test]
    fn non_finite_and_all_zero_channels_calibrate_to_finite_scales() {
        // Channel 0 holds a NaN, 1 both infinities, 2 nothing but zeros,
        // 3 only non-finite values: the non-finite ones are left out, and
        // a channel with no magnitude above 0 gets scale 1.
        let x = Tensor2::from_fn(20, 4, |i, j| match (i, j) {
            (3, 0) => f32::NAN,
            (5, 1) => f32::INFINITY,
            (6, 1) => f32::NEG_INFINITY,
            (_, 2) => 0.0,
            (_, 3) => f32::NAN,
            _ => (i as f32 - 9.5) * 0.25,
        });
        let stats = calibrated(&x);
        let all_finite = |v: &[f32]| v.iter().all(|s| s.is_finite());
        assert!(
            all_finite(stats.absmax()) && all_finite(&stats.p95),
            "{stats:?}"
        );
        let scales = channel_scales(&stats, 7.0);
        assert!(
            all_finite(&scales) && scales.iter().all(|&s| s > 0.0),
            "{scales:?}"
        );
        assert_eq!(&scales[2..], [1.0, 1.0]);
        for scheme in ALL_BASELINES {
            let mut y = Tensor2::from_fn(16, 4, |i, j| (i * 4 + j) as f32 * 0.3 - 2.0);
            scheme.process(Group::C, false, &mut y, Some(&stats));
            assert!(all_finite(y.as_slice()), "{}", scheme.name());
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
