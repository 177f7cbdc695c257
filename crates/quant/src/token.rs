//! The runtime token quantizer: dynamic top-k outlier selection, dynamic
//! per-token scaling factors, and uniform symmetric quantization (Eq. 1).
//!
//! `quantize_token` is the software reference for what the VVPU does in
//! hardware (§5.3 *Runtime Quantization*): top-k via the bitonic sorter,
//! scaling via SIMD lanes, and reordering via the local crossbar network.
//! `ln-accel`'s VVPU model is cross-validated against this implementation.
//!
//! # One kernel, two bodies
//!
//! The quantizer is four streaming passes over one token of at most 128
//! (256 when the levels are kept) channels:
//!
//! 1. **select** the `k` outliers with
//!    [`ln_tensor::stats::top_k_abs_into`] (O(n·k), on the stack for
//!    `k ≤ 8`; ties to the lower channel, NaN below every number);
//! 2. **scale**: one max-|v| pass over the inliers, then
//!    [`symmetric_scale`];
//! 3. **quantize** every inlier with [`quantize_value`] (the fused form
//!    stops at its float-valued core, before the integer cast) — the division
//!    `v / σ` of Eq. 1, a clamp, and round-half-away-from-zero done in
//!    float arithmetic (add and subtract 1.5 · 2²³, then move an exact tie
//!    away from zero), which equals `f32::round` on every input the clamp
//!    lets through and, unlike libm's `roundf`, is branch-free and
//!    vectorises on baseline SSE2;
//! 4. **patch** the `k` outliers at INT16 under their own scale.
//!
//! They are written out twice, from the same primitives, and
//! `tests/bit_identity.rs` pins the two to each other bit for bit:
//!
//! * `quantize_into` keeps the **levels** and writes them where its caller
//!   says: [`quantize_token`] into a fresh [`QuantizedToken`],
//!   `QuantizedTensor::from_tensor` straight into its level panel, scale
//!   and outlier arrays — no token is built on the way, so encoding a
//!   tensor costs no allocation per token.
//! * `fake_quantize_segment` under [`fake_quantize_tokens`] is the
//!   **fused in-place** form: it dequantizes in pass 3 (`level · σ`) and
//!   touches no heap memory per token either.
//!
//! `fake_quantize_tokens` also returns what the passes did to the
//! activation, a [`QuantError`]: `Σ (v − r)²` and `Σ v²` (`v` a value as it
//! came in, `r` as it went out), taken on each segment while it is still in
//! L1 — the one place in the workspace quantization error is measured
//! without a second copy of the tensor. The sums are f64 and their order is
//! fixed: channels within a segment (on eight interleaved lanes, added up
//! in lane order), segments within a token, tokens within a block of 64,
//! blocks in index order. `ln-par` chunks hold whole blocks, so the pool
//! size never shows in the bits. A NaN or ±inf channel makes the sums NaN
//! or infinite just as diffing against a copy would.
//!
//! # Degenerate input
//!
//! What comes out for input the trunk never produces but a caller might:
//!
//! | token | result |
//! |---|---|
//! | all zeros | both scales fall back to `1.0`, every level is 0, decodes to exact zeros |
//! | constant `c ≠ 0` | the first `k` channels are the outliers (tie rule); every level is the top one and decodes to `c` within an ulp or two (`m · (c / m)`) |
//! | NaN channel | never outranks a number in the selection, is ignored by both max-|v| passes, quantizes to level 0 and decodes to `0.0` — unless its scale is infinite (next row) |
//! | ±inf channel | no panic. Selected as an outlier it makes the outlier scale infinite, so every outlier of the token decodes to NaN (`0 · inf`) while the inliers stay as they would be without it; left among the inliers (`k = 0`, or more than `k` infinities) it makes the inlier scale infinite and every inlier decodes to NaN |
//! | 1 channel | `fake_quantize_tokens` leaves it untouched (also a 1-wide last segment); `quantize_token` stores it at the top level |
//! | `outliers ≥ len` | `fake_quantize_tokens` clamps the budget to `len − 1` per segment; `quantize_token` panics with "outlier budget must leave inliers" |
//!
//! None of this changes any finite-input result.

use crate::scale::symmetric_scale;
use crate::scheme::{Bits, QuantScheme};
use ln_tensor::stats;
use ln_tensor::Tensor2;
use std::ops::{AddAssign, Range};
use std::sync::Mutex;

/// The hardware token width `Hz`: the VVPU SIMD lanes and the bitonic
/// network are 128 wide, so wider rows quantize in 128-channel segments.
const SEGMENT: usize = 128;

/// Widest token [`quantize_token`] accepts (outlier indices are `u8`).
pub(crate) const MAX_TOKEN_CHANNELS: usize = 256;

/// A quantized token: inliers at low precision with one dynamic scaling
/// factor, plus top-k outliers at INT16 with their own scaling factor.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedToken {
    scheme: QuantScheme,
    channels: usize,
    /// Quantized inlier levels, in channel order with outlier positions
    /// skipped (matching the Fig. 7 "inliers first" layout).
    inliers: Vec<i16>,
    /// Inlier scaling factor σ (Eq. 1).
    inlier_scale: f32,
    /// Outlier levels (INT16).
    outliers: Vec<i16>,
    /// Outlier scaling factor.
    outlier_scale: f32,
    /// Channel index of each outlier, ascending (`dequantize_into` walks
    /// the inlier runs between them).
    outlier_indices: Vec<u8>,
}

impl QuantizedToken {
    /// A token of `inliers.len() + outliers.len()` channels from its stored
    /// parts. The caller vouches for them: one index per outlier, strictly
    /// ascending and below the channel count (the quantizer's own output,
    /// or what [`crate::layout::decode_levels`] has checked).
    pub(crate) fn from_parts(
        scheme: QuantScheme,
        inliers: Vec<i16>,
        outliers: Vec<i16>,
        outlier_indices: Vec<u8>,
        (inlier_scale, outlier_scale): (f32, f32),
    ) -> Self {
        debug_assert_eq!(outliers.len(), outlier_indices.len());
        QuantizedToken {
            scheme,
            channels: inliers.len() + outliers.len(),
            inliers,
            inlier_scale,
            outliers,
            outlier_scale,
            outlier_indices,
        }
    }

    /// The scheme this token was quantized with.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Number of original channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The quantized inlier levels (outlier positions excluded).
    pub fn inliers(&self) -> &[i16] {
        &self.inliers
    }

    /// The inlier scaling factor.
    pub fn inlier_scale(&self) -> f32 {
        self.inlier_scale
    }

    /// The INT16 outlier levels.
    pub fn outliers(&self) -> &[i16] {
        &self.outliers
    }

    /// The outlier scaling factor.
    pub fn outlier_scale(&self) -> f32 {
        self.outlier_scale
    }

    /// Channel indices of the outliers.
    pub fn outlier_indices(&self) -> &[u8] {
        &self.outlier_indices
    }

    /// Reconstructs the full-precision token.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.channels];
        self.dequantize_into(&mut out);
        out
    }

    /// Reconstructs the full-precision token into `out` without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not [`QuantizedToken::channels`].
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.channels, "output width != token width");
        let mut levels = self.inliers.as_slice();
        for run in inlier_runs(self.channels, &self.outlier_indices) {
            let (here, rest) = levels.split_at(run.len());
            for (slot, &q) in out[run].iter_mut().zip(here) {
                *slot = q as f32 * self.inlier_scale;
            }
            levels = rest;
        }
        for (&idx, &q) in self.outlier_indices.iter().zip(&self.outliers) {
            out[idx as usize] = q as f32 * self.outlier_scale;
        }
    }

    /// Encoded byte size under the Fig. 7 layout.
    pub fn encoded_bytes(&self) -> usize {
        self.scheme.token_bytes(self.channels)
    }
}

/// Pass 1: the ascending channel indices of the `k` largest-magnitude
/// values, selected into the front of `buf`.
fn select_outliers<'a>(values: &[f32], k: usize, buf: &'a mut [usize]) -> &'a [usize] {
    let picked = &mut buf[..k];
    stats::top_k_abs_into(values, picked);
    picked.sort_unstable();
    picked
}

/// The runs of inlier channels left between ascending outlier positions
/// (some may be empty).
pub(crate) fn inlier_runs<I: Copy + Into<usize>>(
    channels: usize,
    outliers: &[I],
) -> impl Iterator<Item = Range<usize>> + '_ {
    let starts = std::iter::once(0).chain(outliers.iter().map(|&i| i.into() + 1));
    let ends = outliers
        .iter()
        .map(|&i| i.into())
        .chain(std::iter::once(channels));
    starts.zip(ends).map(|(start, end)| start..end)
}

/// Pass 2: `max |v|`, `0.0` for an empty slice; a NaN is ignored.
fn max_abs(values: &[f32]) -> f32 {
    values.iter().fold(0.0f32, |a, &v| a.max(v.abs()))
}

/// The four passes on one token with the levels kept, written where the
/// caller wants them: `put_inlier(ch, level)` for every inlier channel in
/// ascending order (outlier channels are skipped), the outliers' ascending
/// channel indices and INT16 levels into the `scheme.outliers`-long
/// `outlier_indices` and `outlier_levels`. Returns `(σ_in, σ_out)`.
///
/// # Panics
///
/// As [`quantize_token`], which is this into a fresh [`QuantizedToken`].
pub(crate) fn quantize_into(
    values: &[f32],
    scheme: QuantScheme,
    mut put_inlier: impl FnMut(usize, i16),
    outlier_levels: &mut [i16],
    outlier_indices: &mut [u8],
) -> (f32, f32) {
    assert!(
        values.len() <= MAX_TOKEN_CHANNELS,
        "token width above u8 index range"
    );
    assert!(
        scheme.outliers < values.len().max(1),
        "outlier budget must leave inliers"
    );
    debug_assert_eq!(outlier_levels.len(), scheme.outliers);
    debug_assert_eq!(outlier_indices.len(), scheme.outliers);

    let mut index_buf = [0usize; MAX_TOKEN_CHANNELS];
    let picked = select_outliers(values, scheme.outliers, &mut index_buf);

    // Inlier scale from the remaining max magnitude (Eq. 1).
    let inlier_max =
        inlier_runs(values.len(), picked).fold(0.0f32, |a, run| a.max(max_abs(&values[run])));
    let inlier_scale = symmetric_scale(inlier_max, scheme.inlier_bits.max_level());
    for ch in inlier_runs(values.len(), picked).flatten() {
        put_inlier(
            ch,
            quantize_value(values[ch], inlier_scale, scheme.inlier_bits),
        );
    }

    let outlier_max = picked.iter().fold(0.0f32, |a, &i| a.max(values[i].abs()));
    let outlier_scale = symmetric_scale(outlier_max, Bits::Int16.max_level());
    for ((level, index), &i) in outlier_levels.iter_mut().zip(outlier_indices).zip(picked) {
        *level = quantize_value(values[i], outlier_scale, Bits::Int16);
        *index = i as u8;
    }
    (inlier_scale, outlier_scale)
}

/// Quantizes one token (Eq. 1 with dynamic outlier handling).
///
/// The top-`k` values by magnitude become INT16 outliers with their own
/// dynamic scaling factor; the rest are inliers quantized symmetrically
/// with `σ = max|inlier| / (2^(m-1) - 1)`.
///
/// # Panics
///
/// Panics if the scheme's outlier budget is not below the channel count or
/// the token has more than 256 channels (u8 outlier indices; the PPM's
/// `Hz = 128` fits comfortably).
pub fn quantize_token(values: &[f32], scheme: QuantScheme) -> QuantizedToken {
    let mut inliers = Vec::with_capacity(values.len().saturating_sub(scheme.outliers));
    let mut outliers = vec![0i16; scheme.outliers];
    let mut outlier_indices = vec![0u8; scheme.outliers];
    let scales = quantize_into(
        values,
        scheme,
        |_, level| inliers.push(level),
        &mut outliers,
        &mut outlier_indices,
    );
    QuantizedToken::from_parts(scheme, inliers, outliers, outlier_indices, scales)
}

/// `1.5 · 2²³`: adding and then subtracting it rounds an `f32` of
/// magnitude below 2²² to the nearest integer, ties to even, because every
/// `f32` in `[2²³, 2²⁴)` is an integer.
const ROUND_TO_INT: f32 = 12_582_912.0;

/// Eq. 1 before the integer cast: `round(v / scale)` clamped to `±max_level`
/// as an integral `f32`, halves rounded away from zero; `+0.0` for NaN.
///
/// Bit-equivalent to `(v / scale).round().clamp(-m, m)` without the libm
/// `roundf` call, so a loop over it is branch-free and vectorises on
/// baseline SSE2. The clamp moves ahead of the rounding (its bounds are
/// integers, so the two commute), which keeps `|t| ≤ 32767`, inside the
/// range of the [`ROUND_TO_INT`] trick. That trick rounds ties to *even*;
/// `t − r` is exact, and equals `±0.5` with the sign of `t` exactly when a
/// tie was rounded toward zero, which is put right by one more step away
/// from zero. A result of zero always comes out as `+0.0`, like the
/// integer level it stands for.
#[inline]
fn round_level(v: f32, scale: f32, max_level: f32) -> f32 {
    let t = (v / scale).clamp(-max_level, max_level);
    let r = (t + ROUND_TO_INT) - ROUND_TO_INT;
    let half = 0.5f32.copysign(t);
    let away = if t - r == half { r + (half + half) } else { r };
    if t.is_nan() {
        0.0
    } else {
        away
    }
}

/// Quantizes a value to a level at the given scale/precision (Eq. 1):
/// `round(v / scale)` clamped to `±max_level`, halves rounded away from
/// zero. NaN gives level 0.
#[inline]
pub fn quantize_value(v: f32, scale: f32, bits: Bits) -> i16 {
    round_level(v, scale, bits.max_level() as f32) as i16
}

/// What a quantize→dequantize round trip did to the values it ran over:
/// the two sums every relative-RMSE figure in the workspace is a ratio of.
/// (Not to be confused with the crate's error enum, [`crate::QuantError`].)
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuantError {
    /// `Σ ((v − r) as f64)²`: the f32 difference between each value and its
    /// reconstruction, squared and summed in f64.
    pub err_sq: f64,
    /// `Σ (v as f64)²` over the same values.
    pub val_sq: f64,
}

impl QuantError {
    /// Interleaved f64 accumulators per sum in [`QuantError::between`]:
    /// enough independent chains for the adds to pipeline and vectorise.
    const LANES: usize = 8;

    /// Relative RMSE `sqrt(Σ err² / Σ v²)`; 0 when no signal was summed.
    pub fn relative_rmse(&self) -> f64 {
        if self.val_sq <= 0.0 {
            0.0
        } else {
            (self.err_sq / self.val_sq).sqrt()
        }
    }

    /// The sums over one segment: channel `j` goes to lane `j % LANES`,
    /// the lanes are added up in index order.
    fn between(original: &[f32], decoded: &[f32]) -> QuantError {
        let mut err = [0.0f64; Self::LANES];
        let mut val = [0.0f64; Self::LANES];
        for (o, d) in original
            .chunks(Self::LANES)
            .zip(decoded.chunks(Self::LANES))
        {
            for (((&o, &d), err), val) in o.iter().zip(d).zip(&mut err).zip(&mut val) {
                let e = (o - d) as f64;
                *err += e * e;
                *val += o as f64 * o as f64;
            }
        }
        QuantError {
            err_sq: err.iter().sum(),
            val_sq: val.iter().sum(),
        }
    }
}

impl AddAssign for QuantError {
    fn add_assign(&mut self, rhs: QuantError) {
        self.err_sq += rhs.err_sq;
        self.val_sq += rhs.val_sq;
    }
}

/// All four passes on one segment in place: quantize, then dequantize;
/// returns what that did to it. `index_buf` and `stash` are the caller's
/// per-thread scratch.
fn fake_quantize_segment(
    seg: &mut [f32],
    scheme: QuantScheme,
    index_buf: &mut [usize; SEGMENT],
    stash: &mut [f32; SEGMENT],
) -> QuantError {
    let mut original = [0.0f32; SEGMENT];
    let original = &mut original[..seg.len()];
    original.copy_from_slice(seg);

    let k = scheme.outliers.min(seg.len() - 1);
    let picked = select_outliers(seg, k, index_buf);

    // Pass 4 first, into the stash: the outliers at INT16. Zeroing their
    // slots then lets passes 2 and 3 stream over the whole segment — a
    // zero neither raises the max nor survives the final patch.
    let outlier_max = picked.iter().fold(0.0f32, |a, &i| a.max(seg[i].abs()));
    let outlier_scale = symmetric_scale(outlier_max, Bits::Int16.max_level());
    let outlier_levels = Bits::Int16.max_level() as f32;
    for (slot, &i) in stash.iter_mut().zip(picked) {
        *slot = round_level(seg[i], outlier_scale, outlier_levels) * outlier_scale;
        seg[i] = 0.0;
    }

    let inlier_levels = scheme.inlier_bits.max_level();
    let inlier_scale = symmetric_scale(max_abs(seg), inlier_levels);
    for v in seg.iter_mut() {
        *v = round_level(*v, inlier_scale, inlier_levels as f32) * inlier_scale;
    }

    for (&i, &v) in picked.iter().zip(stash.iter()) {
        seg[i] = v;
    }
    QuantError::between(original, seg)
}

/// Quantize→dequantize a whole `(tokens, channels)` activation in place —
/// the numeric error model used when evaluating schemes end to end — and
/// return the error that introduced (see the module docs for the order of
/// the sums; a caller that only wants the rewrite ignores the value).
///
/// Rows wider than 128 channels are segmented into 128-wide groups, each
/// with its own scaling factor and outlier budget — exactly how the
/// hardware handles tensors wider than its `Hz = 128` token width (the
/// VVPU SIMD width and the bitonic network are 128 lanes). The result
/// equals [`quantize_token`] → [`QuantizedToken::dequantize`] on every
/// segment bit for bit; a budget of `k ≤ 8` outliers costs no allocation
/// per token. A 1-wide segment has no inlier to scale by: it is left as it
/// is and adds to `val_sq` only.
pub fn fake_quantize_tokens(x: &mut Tensor2, scheme: QuantScheme) -> QuantError {
    const BLOCK: usize = crate::asymmetric::TOKEN_PAR_GRAIN_ROWS;
    let cols = x.cols();
    let rows = x.rows();
    if cols == 0 || rows == 0 {
        return QuantError::default();
    }
    // Tokens quantize independently (the 128-VVPU axis), so row-chunk
    // parallelism reproduces the serial loop bit for bit; the error sums
    // are kept per BLOCK-token block and added up in block order, so they
    // do too.
    ln_par::metrics::time_kernel("aaq.fake_quantize", rows as u64, || {
        let blocks_per_chunk = ln_par::chunk_len(rows, BLOCK).div_ceil(BLOCK);
        let block_errors = Mutex::new(vec![QuantError::default(); rows.div_ceil(BLOCK)]);
        ln_par::par_chunks_mut(
            x.as_mut_slice(),
            blocks_per_chunk * BLOCK * cols,
            |c, chunk| {
                let mut index_buf = [0usize; SEGMENT];
                let mut stash = [0.0f32; SEGMENT];
                for (b, block) in chunk.chunks_mut(BLOCK * cols).enumerate() {
                    let mut block_error = QuantError::default();
                    for row in block.chunks_mut(cols) {
                        let mut token_error = QuantError::default();
                        for seg in row.chunks_mut(SEGMENT) {
                            // A 1-wide segment is left as it is: no error,
                            // its value still counts.
                            token_error += if seg.len() < 2 {
                                QuantError::between(seg, seg)
                            } else {
                                fake_quantize_segment(seg, scheme, &mut index_buf, &mut stash)
                            };
                        }
                        block_error += token_error;
                    }
                    block_errors.lock().expect("block error slots poisoned")
                        [c * blocks_per_chunk + b] = block_error;
                }
            },
        );
        let mut total = QuantError::default();
        for block_error in block_errors
            .into_inner()
            .expect("block error slots poisoned")
        {
            total += block_error;
        }
        total
    })
}

/// Root-mean-square quantization error of a scheme over an activation
/// (segmenting wide rows as [`fake_quantize_tokens`] does).
pub fn quantization_rmse(x: &Tensor2, scheme: QuantScheme) -> f64 {
    let error = fake_quantize_tokens(&mut x.clone(), scheme);
    (error.err_sq / x.len().max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::QuantScheme;

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let values: Vec<f32> = (0..128)
            .map(|i| ((i * 37 % 100) as f32 - 50.0) * 0.1)
            .collect();
        for scheme in [
            QuantScheme::int8_with_outliers(0),
            QuantScheme::int8_with_outliers(4),
            QuantScheme::int4_with_outliers(4),
        ] {
            let q = quantize_token(&values, scheme);
            let back = q.dequantize();
            for (i, (&a, &b)) in values.iter().zip(&back).enumerate() {
                assert!(
                    (a - b).abs() <= q.inlier_scale() * 0.5 + 1e-6,
                    "{scheme} ch {i}: {a} vs {b} (scale {})",
                    q.inlier_scale()
                );
            }
        }
    }

    #[test]
    fn outliers_are_preserved_precisely() {
        let mut values = vec![0.1f32; 128];
        values[7] = 250.0;
        values[90] = -300.0;
        let q = quantize_token(&values, QuantScheme::int4_with_outliers(2));
        assert_eq!(q.outlier_indices(), &[7, 90]);
        let back = q.dequantize();
        assert!((back[7] - 250.0).abs() < 0.05);
        assert!((back[90] + 300.0).abs() < 0.05);
        // Inliers did not inherit the outlier scale: still accurate.
        assert!((back[0] - 0.1).abs() < 0.01);
    }

    #[test]
    fn outlier_handling_shrinks_inlier_scale() {
        let mut values = vec![0.5f32; 64];
        values[3] = 100.0;
        let without = quantize_token(&values, QuantScheme::int8_with_outliers(0));
        let with = quantize_token(&values, QuantScheme::int8_with_outliers(1));
        assert!(with.inlier_scale() < without.inlier_scale() / 50.0);
    }

    #[test]
    fn int4_levels_stay_in_range() {
        let values: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 3.0).collect();
        let q = quantize_token(&values, QuantScheme::int4_with_outliers(0));
        for &l in q.inliers() {
            assert!((-7..=7).contains(&(l as i32)));
        }
    }

    #[test]
    fn zero_token_quantizes_to_zero() {
        let values = vec![0.0f32; 16];
        let q = quantize_token(&values, QuantScheme::int8_with_outliers(2));
        assert!(q.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fake_quantize_changes_little_but_something() {
        let mut x = Tensor2::from_fn(8, 32, |i, j| ((i * 7 + j) % 13) as f32 * 0.3 - 1.5);
        let orig = x.clone();
        fake_quantize_tokens(&mut x, QuantScheme::int8_with_outliers(2));
        let rmse = x.rmse(&orig).unwrap();
        assert!(rmse > 0.0 && rmse < 0.02, "rmse {rmse}");
    }

    #[test]
    fn rmse_ordering_matches_precision() {
        let x = Tensor2::from_fn(32, 64, |i, j| ((i * 13 + j * 7) % 29) as f32 * 0.21 - 3.0);
        let e4 = quantization_rmse(&x, QuantScheme::int4_with_outliers(0));
        let e8 = quantization_rmse(&x, QuantScheme::int8_with_outliers(0));
        assert!(e4 > 5.0 * e8, "int4 {e4} vs int8 {e8}");
    }

    #[test]
    fn outlier_handling_reduces_rmse_on_spiky_tokens() {
        // The paper's §4.1 ablation: symmetric quantization without outlier
        // handling suffers on tokens with spikes; with handling the error
        // collapses.
        let x = Tensor2::from_fn(16, 128, |i, j| {
            if j == (i * 7) % 128 {
                80.0
            } else {
                ((i + j) % 11) as f32 * 0.1
            }
        });
        let without = quantization_rmse(&x, QuantScheme::int8_with_outliers(0));
        let with = quantization_rmse(&x, QuantScheme::int8_with_outliers(4));
        assert!(with < without / 10.0, "with {with} vs without {without}");
    }

    fn fake_quantized(values: &[f32], scheme: QuantScheme) -> Vec<f32> {
        let mut x = Tensor2::from_vec(1, values.len(), values.to_vec()).expect("one row");
        fake_quantize_tokens(&mut x, scheme);
        x.as_slice().to_vec()
    }

    #[test]
    fn all_zero_token_keeps_unit_scales_and_exact_zeros() {
        let scheme = QuantScheme::int4_with_outliers(4);
        let q = quantize_token(&[0.0, -0.0, 0.0, 0.0, -0.0, 0.0], scheme);
        assert_eq!((q.inlier_scale(), q.outlier_scale()), (1.0, 1.0));
        assert_eq!(
            q.outlier_indices(),
            &[0, 1, 2, 3],
            "ties go to the low channels"
        );
        for v in q
            .dequantize()
            .into_iter()
            .chain(fake_quantized(&[-0.0; 130], scheme))
        {
            assert_eq!(v.to_bits(), 0, "an exact +0.0");
        }
    }

    #[test]
    fn constant_token_decodes_to_the_constant() {
        for c in [3.7f32, -0.02, 1e-30, -6e20] {
            for scheme in [
                QuantScheme::int4_with_outliers(0),
                QuantScheme::int8_with_outliers(4),
            ] {
                let q = quantize_token(&[c; 32], scheme);
                let m = scheme.inlier_bits.max_level() as i16;
                assert!(q.inliers().iter().all(|&l| l == m * c.signum() as i16));
                for v in fake_quantized(&[c; 32], scheme) {
                    assert!((v - c).abs() <= c.abs() * 1e-6, "{scheme}: {v} vs {c}");
                }
            }
        }
    }

    #[test]
    fn nan_is_never_an_outlier_ahead_of_a_number_and_decodes_to_zero() {
        let nan = f32::NAN;
        let values = [nan, 0.5, -nan, -8.0, 0.25, nan, 3.0, 0.0];
        let q = quantize_token(&values, QuantScheme::int8_with_outliers(2));
        assert_eq!(q.outlier_indices(), &[3, 6]);
        assert_eq!(
            q.inlier_scale(),
            0.5 / 127.0,
            "NaN does not reach the scale"
        );
        let back = fake_quantized(&values, QuantScheme::int8_with_outliers(2));
        assert_eq!(back, q.dequantize());
        for (&v, &b) in values.iter().zip(&back) {
            if v.is_nan() {
                assert_eq!(b.to_bits(), 0, "NaN decodes to +0.0");
            } else {
                assert!((v - b).abs() <= 0.5 / 127.0);
            }
        }
        // With more outlier slots than numbers, NaNs fill the rest (lowest
        // channel first) and still decode to zero.
        let q = quantize_token(&[nan, 2.0, nan, nan], QuantScheme::int8_with_outliers(3));
        assert_eq!(q.outlier_indices(), &[0, 1, 2]);
        assert_eq!(q.dequantize(), [0.0, 2.0, 0.0, 0.0]);
        let all_nan = fake_quantized(&[nan; 16], QuantScheme::int4_with_outliers(4));
        assert!(all_nan.iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn infinities_do_not_panic_and_decode_as_documented() {
        let inf = f32::INFINITY;
        let values = [1.0, -inf, 0.5, 40.0, -0.25, 0.75];
        // Selected as an outlier: every outlier decodes to NaN, inliers
        // exactly as they would without it.
        let with = fake_quantized(&values, QuantScheme::int8_with_outliers(2));
        assert!(with[1].is_nan() && with[3].is_nan());
        let without = fake_quantized(&[1.0, 0.5, -0.25, 0.75], QuantScheme::int8_with_outliers(0));
        assert_eq!([with[0], with[2], with[4], with[5]], without[..]);
        // Left among the inliers: the inlier scale is infinite.
        let q = quantize_token(&values, QuantScheme::int8_with_outliers(0));
        assert_eq!(q.inlier_scale(), inf);
        assert!(q.dequantize().iter().all(|v| v.is_nan()));
        let back = fake_quantized(&[inf, -inf, inf, 1.0], QuantScheme::int4_with_outliers(2));
        assert!(back.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn one_wide_segments_are_left_untouched() {
        let scheme = QuantScheme::int4_with_outliers(4);
        assert_eq!(fake_quantized(&[0.123], scheme), [0.123]);
        let mut wide: Vec<f32> = (0..129).map(|j| j as f32 * 0.01).collect();
        wide[128] = 0.123_456;
        let back = fake_quantized(&wide, scheme);
        assert_eq!(back[128], 0.123_456, "the 1-wide tail segment");
        assert_ne!(back[..128], wide[..128], "the full segment quantized");
        // Through the container the single channel sits at the top level.
        let q = quantize_token(&[0.123], QuantScheme::int4_with_outliers(0));
        assert_eq!(q.inliers(), &[7]);
    }

    #[test]
    fn oversized_outlier_budget_is_clamped_per_segment() {
        let values: Vec<f32> = (0..5).map(|i| (i as f32 - 1.7) * 1.3).collect();
        for k in [5, 8, 300] {
            assert_eq!(
                fake_quantized(&values, QuantScheme::int4_with_outliers(k)),
                quantize_token(&values, QuantScheme::int4_with_outliers(4)).dequantize(),
                "k = {k}"
            );
        }
        // 130 wide, k = 9: nine outliers in the full segment, one in the
        // 2-wide tail.
        let wide: Vec<f32> = (0..130)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.1)
            .collect();
        let back = fake_quantized(&wide, QuantScheme::int8_with_outliers(9));
        let head = quantize_token(&wide[..128], QuantScheme::int8_with_outliers(9));
        let tail = quantize_token(&wide[128..], QuantScheme::int8_with_outliers(1));
        assert_eq!(back[..128], head.dequantize());
        assert_eq!(back[128..], tail.dequantize());
    }

    #[test]
    #[should_panic(expected = "outlier budget")]
    fn outlier_flood_panics() {
        let values = vec![1.0f32; 8];
        let _ = quantize_token(&values, QuantScheme::int8_with_outliers(8));
    }
}
