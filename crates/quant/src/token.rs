//! The runtime token quantizer: dynamic top-k outlier selection, dynamic
//! per-token scaling factors, and uniform symmetric quantization (Eq. 1).
//!
//! The quantizer is the software reference for what the VVPU does in
//! hardware (§5.3 *Runtime Quantization*): top-k via the bitonic sorter,
//! scaling via SIMD lanes, and reordering via the local crossbar network.
//! `ln-accel`'s VVPU model is cross-validated against this implementation.
//! It keeps no container of its own: an encoded token, one or
//! many, is a [`QuantizedTensor`](crate::tensor::QuantizedTensor).
//!
//! # One set of passes, in the AVX2 frame
//!
//! The quantizer is four passes over one token — or one 128-channel
//! segment of a wider row — of at most 256 channels, all run inside
//! [`ln_tensor::simd::wide`], so on an AVX2 host each is compiled at 256
//! bits (the same IEEE operations per element, so the same bits as on the
//! baseline):
//!
//! 1. **select** the `k` outliers: one vector pass over the channels'
//!    integer keys (`|v|`'s bits plus one, NaN 0 — the magnitude order)
//!    keeps, per lane of sixteen, the largest key, where it is and the
//!    second largest; a 16-wide bitonic network (the VVPU's sorter, §5.3)
//!    sorts the lane maxima. Usually the `k` outliers are then the maxima
//!    of the `k` top lanes, read off without a look at any element; a tie
//!    at the `k`-th lane maximum, or two large values in one lane, takes
//!    a second pass over the keys at or above it. The result is exactly
//!    [`ln_tensor::stats::top_k_abs_into`]'s (ties to the lower channel,
//!    NaN below every number), which a budget above 8 still calls;
//! 2. **scale**: the largest inlier magnitude falls out of the same lane
//!    numbers (the `(k + 1)`-th key), then [`symmetric_scale`];
//! 3. **quantize** every channel as an inlier with the float-valued core
//!    of [`quantize_value`] — the division `v / σ` of Eq. 1, a clamp, and
//!    round-half-away-from-zero done in float arithmetic (add and
//!    subtract 1.5 · 2²³, then move an exact tie away from zero), which
//!    equals `f32::round` on every input the clamp lets through and,
//!    unlike libm's `roundf`, is branch-free and vectorises;
//! 4. **patch** the `k` outliers at INT16 under their own scale.
//!
//! Both kinds of caller run the same passes (`Passes`):
//! [`fake_quantize_tokens`] dequantizes in pass 3 (`level · σ`) and writes
//! the reconstruction back in place; `Passes::quantize` keeps the levels —
//! `QuantizedTensor::from_tensor` and `QuantizedTensor::encode` into the
//! level panel, scale and outlier arrays. Neither touches heap memory per
//! token, and `tests/bit_identity.rs` pins the two to each other bit for
//! bit.
//!
//! [`fake_quantize_tokens`] and `QuantizedTensor::encode` also return
//! what the passes did to the activation, a [`QuantError`]: `Σ (v − r)²`
//! and `Σ v²` (`v` a value as it came in, `r` as it decodes), taken on
//! each segment while it and its reconstruction are still in L1 — the one
//! place in the workspace quantization error is measured without a second
//! copy of the tensor. The sums are f64 and their order is fixed: channels
//! within a segment (on eight interleaved lanes, added up in lane order),
//! segments within a token, tokens within a block of 64, blocks in index
//! order. `ln-par` chunks hold whole blocks, so the pool size never shows
//! in the bits. A NaN or ±inf channel makes the sums NaN or infinite just
//! as diffing against a copy would (which NaN, sign bit included, is not
//! specified: Rust leaves it to the instructions). Pass 3 and the sums
//! are separate loops over the segment: in one loop the vectoriser pairs
//! an `err` lane with a `val` lane in a register and the pass runs several
//! times slower.
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
//! | 1 channel | `fake_quantize_tokens` leaves it untouched (also a 1-wide last segment); the tensor constructors store it at the top level, and `QuantizedTensor::encode` reports the fake path's sums for it (no error) |
//! | `outliers ≥ len` | `fake_quantize_tokens` clamps the budget to `len − 1` per segment, `QuantizedTensor::encode` per token; `QuantizedTensor::from_tensor` panics with "outlier budget must leave inliers" |
//!
//! None of this changes any finite-input result.

use crate::scale::symmetric_scale;
use crate::scheme::{Bits, QuantScheme};
use ln_tensor::{simd, stats, Tensor2};
use std::ops::{AddAssign, Range};

/// The hardware token width `Hz`: the VVPU SIMD lanes and the bitonic
/// network are 128 wide, so wider rows quantize in 128-channel segments.
const SEGMENT: usize = 128;

/// Widest token the quantizer encodes (outlier indices are `u8`).
pub(crate) const MAX_TOKEN_CHANNELS: usize = 256;

/// Lanes of the select and max pass: element `j` goes to lane `j mod 16`
/// — two AVX2 registers, as in [`ln_tensor::vmath`].
const LANES: usize = 16;

/// Lanes of the f64 error sums (see [`QuantError`]).
const SUM_LANES: usize = QuantError::LANES;

/// The INT16 outliers' top level, as the float [`round_level`] clamps to.
const OUTLIER_MAX_LEVEL: f32 = Bits::Int16.max_level() as f32;

/// Largest outlier budget the lane select takes; a larger one is
/// [`stats::top_k_abs_into`]'s (the AAQ schemes use `k ≤ 8`).
const SELECT_LANES_MAX_K: usize = 8;

/// A value's place in the outlier order as an integer: `|v|`'s bits plus
/// one, and 0 for NaN. For the non-negative floats `|v|` takes, bit order
/// is value order, so keys compare exactly as
/// [`stats::top_k_abs_into`] ranks (magnitude, NaN below every number),
/// and `key − 1` is the bits of the `max |v|` that ignores NaN.
#[inline(always)]
fn key(v: f32) -> u32 {
    if v.is_nan() {
        0
    } else {
        (v.to_bits() & 0x7fff_ffff) + 1
    }
}

/// The magnitude a key stands for; `0.0` for NaN's (or no value's).
#[inline(always)]
fn magnitude(key: u32) -> f32 {
    f32::from_bits(key.saturating_sub(1))
}

/// `tail` in the front of an `N`-array, `fill` after it.
#[inline(always)]
fn padded<T: Copy, const N: usize>(tail: &[T], fill: T) -> [T; N] {
    let mut out = [fill; N];
    out[..tail.len()].copy_from_slice(tail);
    out
}

/// Per lane of a token, over its keys: the largest, the lowest index
/// holding it, and the second largest (a tie with the largest counts).
/// A lane with no element, or only NaNs, reads 0 and its own lane index.
struct LaneKeys {
    first: [u32; LANES],
    second: [u32; LANES],
    at: [u32; LANES],
}

impl LaneKeys {
    /// One vector pass over `values`; `TRACK` keeps `second` and `at`
    /// (the select needs them, the inlier max alone does not).
    #[inline(always)]
    fn of<const TRACK: bool>(values: &[f32]) -> LaneKeys {
        let mut lanes = LaneKeys {
            first: [0; LANES],
            second: [0; LANES],
            at: std::array::from_fn(|l| l as u32),
        };
        let (chunks, tail) = values.as_chunks::<LANES>();
        for (c, chunk) in chunks.iter().enumerate() {
            lanes.add::<TRACK>(&chunk.map(key), (c * LANES) as u32);
        }
        if !tail.is_empty() {
            // Padding keys 0, which moves nothing.
            let mut keys = [0; LANES];
            for (k, &v) in keys.iter_mut().zip(tail) {
                *k = key(v);
            }
            lanes.add::<TRACK>(&keys, (values.len() - tail.len()) as u32);
        }
        lanes
    }

    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // `l` indexes four parallel lane arrays
    fn add<const TRACK: bool>(&mut self, keys: &[u32; LANES], base: u32) {
        for l in 0..LANES {
            let (k, f) = (keys[l], self.first[l]);
            if TRACK {
                self.at[l] = if k > f { base + l as u32 } else { self.at[l] };
                self.second[l] = self.second[l].max(k.min(f));
            }
            self.first[l] = f.max(k);
        }
    }
}

/// One compare-exchange stage of a bitonic network on sixteen keys, the
/// larger first where the network sorts descending.
#[inline(always)]
fn bitonic_stage<const SIZE: usize, const STRIDE: usize>(a: [u32; LANES]) -> [u32; LANES] {
    let partner: [u32; LANES] = std::array::from_fn(|i| a[i ^ STRIDE]);
    std::array::from_fn(|i| {
        let larger_here = ((i & STRIDE) == 0) == ((i & SIZE) == 0);
        if larger_here {
            a[i].max(partner[i])
        } else {
            a[i].min(partner[i])
        }
    })
}

/// The sixteen keys in descending order: the ten stages of the bitonic
/// network the VVPU's top-k unit is built from (§5.3), at sixteen wide.
#[inline(always)]
fn sort_descending(a: [u32; LANES]) -> [u32; LANES] {
    let a = bitonic_stage::<2, 1>(a);
    let a = bitonic_stage::<4, 2>(a);
    let a = bitonic_stage::<4, 1>(a);
    let a = bitonic_stage::<8, 4>(a);
    let a = bitonic_stage::<8, 2>(a);
    let a = bitonic_stage::<8, 1>(a);
    let a = bitonic_stage::<16, 8>(a);
    let a = bitonic_stage::<16, 4>(a);
    let a = bitonic_stage::<16, 2>(a);
    bitonic_stage::<16, 1>(a)
}

/// Passes 1 and 2 on one token or segment (`k` at most its width): the
/// ascending channel indices of its `k` outliers into `picked[..k]` —
/// exactly [`stats::top_k_abs_into`] followed by an ascending sort — and
/// the largest magnitude left among the inliers (NaN ignored, `0.0` when
/// there is none).
///
/// For `1 ≤ k ≤ 8` one vector pass takes the [`LaneKeys`] and the
/// bitonic network sorts the sixteen lane maxima. The *floor* is the
/// `k`-th of them: `k` lanes each hold a key at or above it, so every
/// outlier is at or above it too. When the `k` lanes that reach it reach
/// it once each and no other key does, their maxima are the outliers and
/// the `(k + 1)`-th key overall — the inlier maximum — is the larger of
/// the next lane maximum and every lane's second. Otherwise (a tie at the
/// floor, or two large values in one lane) [`select_above`] takes the
/// keys at or above the floor in a second pass.
#[inline(always)]
fn select(values: &[f32], k: usize, picked: &mut [usize; MAX_TOKEN_CHANNELS]) -> f32 {
    if k == 0 {
        let lanes = LaneKeys::of::<false>(values);
        return magnitude(lanes.first.iter().fold(0, |m, &f| m.max(f)));
    }
    let picked = &mut picked[..k];
    if k > SELECT_LANES_MAX_K {
        stats::top_k_abs_into(values, picked);
        picked.sort_unstable();
        let mut is_outlier = [false; MAX_TOKEN_CHANNELS];
        for &i in picked.iter() {
            is_outlier[i] = true;
        }
        let rest = values
            .iter()
            .zip(is_outlier)
            .map(|(&v, o)| if o { 0 } else { key(v) });
        return magnitude(rest.fold(0, u32::max));
    }
    let lanes = LaneKeys::of::<true>(values);
    let sorted = sort_descending(lanes.first);
    let (floor, next) = (sorted[k - 1], sorted[k]);
    let second = lanes.second.iter().fold(0, |m, &s| m.max(s));
    let inlier_key = if next < floor && second < floor {
        let mut reaching = 0u32;
        for (l, &first) in lanes.first.iter().enumerate() {
            reaching |= ((first >= floor) as u32) << l;
        }
        for slot in picked.iter_mut() {
            *slot = lanes.at[reaching.trailing_zeros() as usize] as usize;
            reaching &= reaching - 1;
        }
        next.max(second)
    } else {
        select_above(values, floor, picked)
    };
    picked.sort_unstable();
    magnitude(inlier_key)
}

/// The `picked.len()` first values in the order — key descending, then
/// index ascending — when more than that many keys are at or above
/// `floor` and every one of the first is: the keys at or above it, taken
/// in index order (so an equal key never passes an earlier one) into a
/// sorted list one longer than `picked`. Returns the key of the one after
/// the last picked, the largest among the rest (0 when none is left).
#[inline(always)]
fn select_above(values: &[f32], floor: u32, picked: &mut [usize]) -> u32 {
    let k = picked.len();
    let mut best = [(0u32, 0usize); SELECT_LANES_MAX_K + 1];
    let mut held = 0;
    let mut take = |j: usize, key: u32| {
        if held > k && key <= best[k].0 {
            return;
        }
        let mut pos = held.min(k);
        held += 1;
        while pos > 0 && key > best[pos - 1].0 {
            best[pos] = best[pos - 1];
            pos -= 1;
        }
        best[pos] = (key, j);
    };
    let (chunks, tail) = values.as_chunks::<LANES>();
    for (c, chunk) in chunks.iter().enumerate() {
        let mut above = 0u32;
        for (l, &v) in chunk.iter().enumerate() {
            above |= ((key(v) >= floor) as u32) << l;
        }
        while above != 0 {
            let j = c * LANES + above.trailing_zeros() as usize;
            take(j, key(values[j]));
            above &= above - 1;
        }
    }
    let base = values.len() - tail.len();
    for (j, &v) in tail.iter().enumerate() {
        if key(v) >= floor {
            take(base + j, key(v));
        }
    }
    for (slot, &(_, j)) in picked.iter_mut().zip(&best) {
        *slot = j;
    }
    best[k].0
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

/// The f64 error sums: element `j` to lane `j mod 8`, the lanes added up
/// in index order (see [`QuantError`]). `original` against `decoded`,
/// which are the same length; `Σ (v − r)²` and `Σ v²` run as two loops
/// over the whole chunks, which the vectoriser keeps apart (one loop pairs
/// an `err` lane with a `val` lane in a register), then the last chunk
/// padded with zeros: per lane the same adds in the same order as one
/// loop over every chunk, which the vectoriser does not see through. A
/// lane holds `+0.0` or more, or NaN, so the padding adds `+0.0` and
/// moves no bit.
#[inline(always)]
fn error_sums(original: &[f32], decoded: &[f32]) -> QuantError {
    type Lanes = [f32; SUM_LANES];
    let add_err = |err: &mut [f64; SUM_LANES], o: &Lanes, d: &Lanes| {
        for l in 0..SUM_LANES {
            let e = (o[l] - d[l]) as f64;
            err[l] += e * e;
        }
    };
    let add_val = |val: &mut [f64; SUM_LANES], o: &Lanes| {
        for l in 0..SUM_LANES {
            val[l] += o[l] as f64 * o[l] as f64;
        }
    };
    let (originals, original_tail) = original.as_chunks::<SUM_LANES>();
    let (decodeds, decoded_tail) = decoded.as_chunks::<SUM_LANES>();
    let mut err = [0.0f64; SUM_LANES];
    for (o, d) in originals.iter().zip(decodeds) {
        add_err(&mut err, o, d);
    }
    let mut val = [0.0f64; SUM_LANES];
    for o in originals {
        add_val(&mut val, o);
    }
    if !original_tail.is_empty() {
        let o = padded(original_tail, 0.0);
        add_err(&mut err, &o, &padded(decoded_tail, 0.0));
        add_val(&mut val, &o);
    }
    QuantError {
        err_sq: err.iter().sum(),
        val_sq: val.iter().sum(),
    }
}

/// One thread's working set for the passes.
pub(crate) struct Passes {
    picked: [usize; MAX_TOKEN_CHANNELS],
    /// Reconstruction of the last token, every channel.
    decoded: [f32; MAX_TOKEN_CHANNELS],
}

impl Passes {
    pub(crate) fn new() -> Self {
        Passes {
            picked: [0; MAX_TOKEN_CHANNELS],
            decoded: [0.0; MAX_TOKEN_CHANNELS],
        }
    }

    /// Passes 1 and 2 on `values` (at most 256 of them, `k` below their
    /// count unless both are 0): the outliers' ascending indices into
    /// `self.picked[..k]`, and the two scales `(σ_in, σ_out)`.
    #[inline(always)]
    fn prepare(&mut self, values: &[f32], k: usize, inlier_bits: Bits) -> (f32, f32) {
        let inlier_max = select(values, k, &mut self.picked);
        let outlier_max = self.picked[..k]
            .iter()
            .fold(0.0f32, |a, &i| a.max(values[i].abs()));
        (
            symmetric_scale(inlier_max, inlier_bits.max_level()),
            symmetric_scale(outlier_max, Bits::Int16.max_level()),
        )
    }

    /// The whole body of [`fake_quantize_tokens`] on one segment of at
    /// least two channels: passes 1 and 2, then 3 — every channel
    /// quantized and dequantized as an inlier — then 4, the outliers'
    /// reconstructions written over theirs, then the error sums while the
    /// segment and its reconstruction are in L1, and the write-back.
    #[inline(always)]
    fn fake_quantize(&mut self, seg: &mut [f32], scheme: QuantScheme) -> QuantError {
        let n = seg.len();
        let k = scheme.outliers.min(n - 1);
        let (scale, outlier_scale) = self.prepare(seg, k, scheme.inlier_bits);
        let max_level = scheme.inlier_bits.max_level() as f32;
        let decoded = &mut self.decoded[..n];
        for (d, &v) in decoded.iter_mut().zip(&*seg) {
            *d = round_level(v, scale, max_level) * scale;
        }
        for &i in &self.picked[..k] {
            decoded[i] = round_level(seg[i], outlier_scale, OUTLIER_MAX_LEVEL) * outlier_scale;
        }
        let error = error_sums(seg, decoded);
        seg.copy_from_slice(decoded);
        error
    }

    /// The passes on one token with the levels kept: every channel's level
    /// into `levels` (as long as `values`; 0 at an outlier's), the
    /// outliers' ascending channel indices and INT16 levels into the
    /// `k`-long `outlier_indices` and `outlier_levels`. Returns
    /// `(σ_in, σ_out)` and the error sums [`Passes::fake_quantize`] takes
    /// on the same values.
    ///
    /// `values` is at most 256 wide and `k` below its width (or both 0).
    #[inline(always)]
    pub(crate) fn quantize(
        &mut self,
        values: &[f32],
        scheme: QuantScheme,
        levels: &mut [i16],
        outlier_levels: &mut [i16],
        outlier_indices: &mut [u8],
    ) -> ((f32, f32), QuantError) {
        let n = values.len();
        let k = outlier_levels.len();
        debug_assert_eq!(outlier_indices.len(), k);
        let (scale, outlier_scale) = self.prepare(values, k, scheme.inlier_bits);
        let max_level = scheme.inlier_bits.max_level() as f32;
        let decoded = &mut self.decoded[..n];
        for ((level, d), &v) in levels.iter_mut().zip(decoded.iter_mut()).zip(values) {
            let q = round_level(v, scale, max_level);
            *level = to_level(q);
            *d = q * scale;
        }
        for ((level, index), &i) in outlier_levels
            .iter_mut()
            .zip(outlier_indices)
            .zip(&self.picked[..k])
        {
            let q = round_level(values[i], outlier_scale, OUTLIER_MAX_LEVEL);
            *level = to_level(q);
            *index = i as u8;
            levels[i] = 0;
            decoded[i] = q * outlier_scale;
        }
        ((scale, outlier_scale), error_sums(values, decoded))
    }
}

/// Panics unless a token of `channels` values can be encoded under
/// `scheme`: at most 256 of them (`u8` outlier indices), the outlier
/// budget below their count.
pub(crate) fn assert_encodable(channels: usize, scheme: QuantScheme) {
    assert!(
        channels <= MAX_TOKEN_CHANNELS,
        "token width above u8 index range"
    );
    assert!(
        scheme.outliers < channels.max(1),
        "outlier budget must leave inliers"
    );
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
#[inline(always)]
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

/// A level [`round_level`] produced, an integral `f32` within ±32 767, as
/// the integer it is, without a float → int cast (the saturating `as`
/// cast is done a lane at a time): `q + 1.5 · 2²³` is exact and lies in
/// `[2²³, 2²⁴)`, where an `f32`'s low mantissa bits are the integer
/// itself, so its bits less those of `1.5 · 2²³` are `q`.
#[inline(always)]
fn to_level(q: f32) -> i16 {
    ((q + ROUND_TO_INT).to_bits() as i32 - ROUND_TO_INT.to_bits() as i32) as i16
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
    /// Interleaved f64 accumulators per sum: enough independent chains
    /// for the adds to pipeline and vectorise.
    const LANES: usize = 8;

    /// Relative RMSE `sqrt(Σ err² / Σ v²)`; 0 when no signal was summed.
    pub fn relative_rmse(&self) -> f64 {
        if self.val_sq <= 0.0 {
            0.0
        } else {
            (self.err_sq / self.val_sq).sqrt()
        }
    }

    /// The sums over values a pass left as they were: no error, every
    /// value still counts (NaN or infinite for a NaN or ±inf value, as a
    /// diff would be).
    #[inline(always)]
    pub(crate) fn untouched(values: &[f32]) -> QuantError {
        error_sums(values, values)
    }
}

impl AddAssign for QuantError {
    fn add_assign(&mut self, rhs: QuantError) {
        self.err_sq += rhs.err_sq;
        self.val_sq += rhs.val_sq;
    }
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
/// equals `QuantizedTensor::from_tensor` → `decode` on every segment bit
/// for bit; it costs no allocation per token. A 1-wide
/// segment has no inlier to scale by: it is left as it is and adds to
/// `val_sq` only.
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
        let mut block_errors = vec![QuantError::default(); rows.div_ceil(BLOCK)];
        let mut chunks: Vec<_> = x
            .as_mut_slice()
            .chunks_mut(blocks_per_chunk * BLOCK * cols)
            .zip(block_errors.chunks_mut(blocks_per_chunk))
            .collect();
        ln_par::par_chunks_mut(&mut chunks, 1, |_, chunk| {
            let (chunk, errors) = &mut chunk[0];
            let mut passes = Passes::new();
            simd::wide(
                #[inline(always)]
                || {
                    let blocks = chunk.chunks_mut(BLOCK * cols);
                    for (block, block_error) in blocks.zip(errors.iter_mut()) {
                        for row in block.chunks_mut(cols) {
                            let mut token_error = QuantError::default();
                            for seg in row.chunks_mut(SEGMENT) {
                                token_error += if seg.len() < 2 {
                                    QuantError::untouched(seg)
                                } else {
                                    passes.fake_quantize(seg, scheme)
                                };
                            }
                            *block_error += token_error;
                        }
                    }
                },
            );
        });
        drop(chunks);
        let mut total = QuantError::default();
        for block_error in block_errors {
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
    use crate::tensor::QuantizedTensor;

    /// `values` encoded as a one-token container.
    fn encoded(values: &[f32], scheme: QuantScheme) -> QuantizedTensor {
        let x = Tensor2::from_vec(1, values.len(), values.to_vec()).expect("one row");
        QuantizedTensor::from_tensor(&x, scheme)
    }

    /// The reconstruction of a one-token container.
    fn decoded(q: &QuantizedTensor) -> Vec<f32> {
        q.decode().into_vec()
    }

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
            let q = encoded(&values, scheme);
            let (inlier_scale, _) = q.scales(0);
            for (i, (&a, b)) in values.iter().zip(decoded(&q)).enumerate() {
                assert!(
                    (a - b).abs() <= inlier_scale * 0.5 + 1e-6,
                    "{scheme} ch {i}: {a} vs {b} (scale {inlier_scale})"
                );
            }
        }
    }

    #[test]
    fn outliers_are_preserved_precisely() {
        let mut values = vec![0.1f32; 128];
        values[7] = 250.0;
        values[90] = -300.0;
        let q = encoded(&values, QuantScheme::int4_with_outliers(2));
        assert_eq!(q.outliers(0).1, &[7, 90]);
        let back = decoded(&q);
        assert!((back[7] - 250.0).abs() < 0.05);
        assert!((back[90] + 300.0).abs() < 0.05);
        // Inliers did not inherit the outlier scale: still accurate.
        assert!((back[0] - 0.1).abs() < 0.01);
    }

    #[test]
    fn outlier_handling_shrinks_inlier_scale() {
        let mut values = vec![0.5f32; 64];
        values[3] = 100.0;
        let without = encoded(&values, QuantScheme::int8_with_outliers(0));
        let with = encoded(&values, QuantScheme::int8_with_outliers(1));
        assert!(with.scales(0).0 < without.scales(0).0 / 50.0);
    }

    #[test]
    fn int4_levels_stay_in_range() {
        let values: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 3.0).collect();
        let q = encoded(&values, QuantScheme::int4_with_outliers(0));
        for l in q.inliers(0) {
            assert!((-7..=7).contains(&(l as i32)));
        }
    }

    #[test]
    fn zero_token_quantizes_to_zero() {
        let values = vec![0.0f32; 16];
        let q = encoded(&values, QuantScheme::int8_with_outliers(2));
        assert!(decoded(&q).iter().all(|&v| v == 0.0));
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
        let q = encoded(&[0.0, -0.0, 0.0, 0.0, -0.0, 0.0], scheme);
        assert_eq!(q.scales(0), (1.0, 1.0));
        assert_eq!(
            q.outliers(0).1,
            &[0, 1, 2, 3],
            "ties go to the low channels"
        );
        for v in decoded(&q)
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
                let q = encoded(&[c; 32], scheme);
                let m = scheme.inlier_bits.max_level() as i16;
                assert!(q.inliers(0).all(|l| l == m * c.signum() as i16));
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
        let q = encoded(&values, QuantScheme::int8_with_outliers(2));
        assert_eq!(q.outliers(0).1, &[3, 6]);
        assert_eq!(q.scales(0).0, 0.5 / 127.0, "NaN does not reach the scale");
        let back = fake_quantized(&values, QuantScheme::int8_with_outliers(2));
        assert_eq!(back, decoded(&q));
        for (&v, &b) in values.iter().zip(&back) {
            if v.is_nan() {
                assert_eq!(b.to_bits(), 0, "NaN decodes to +0.0");
            } else {
                assert!((v - b).abs() <= 0.5 / 127.0);
            }
        }
        // With more outlier slots than numbers, NaNs fill the rest (lowest
        // channel first) and still decode to zero.
        let q = encoded(&[nan, 2.0, nan, nan], QuantScheme::int8_with_outliers(3));
        assert_eq!(q.outliers(0).1, &[0, 1, 2]);
        assert_eq!(decoded(&q), [0.0, 2.0, 0.0, 0.0]);
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
        let q = encoded(&values, QuantScheme::int8_with_outliers(0));
        assert_eq!(q.scales(0).0, inf);
        assert!(decoded(&q).iter().all(|v| v.is_nan()));
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
        let q = encoded(&[0.123], QuantScheme::int4_with_outliers(0));
        assert!(q.inliers(0).eq([7]));
    }

    #[test]
    fn oversized_outlier_budget_is_clamped_per_segment() {
        let values: Vec<f32> = (0..5).map(|i| (i as f32 - 1.7) * 1.3).collect();
        for k in [5, 8, 300] {
            assert_eq!(
                fake_quantized(&values, QuantScheme::int4_with_outliers(k)),
                decoded(&encoded(&values, QuantScheme::int4_with_outliers(4))),
                "k = {k}"
            );
        }
        // 130 wide, k = 9: nine outliers in the full segment, one in the
        // 2-wide tail.
        let wide: Vec<f32> = (0..130)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.1)
            .collect();
        let back = fake_quantized(&wide, QuantScheme::int8_with_outliers(9));
        let head = encoded(&wide[..128], QuantScheme::int8_with_outliers(9));
        let tail = encoded(&wide[128..], QuantScheme::int8_with_outliers(1));
        assert_eq!(back[..128], decoded(&head));
        assert_eq!(back[128..], decoded(&tail));
    }

    /// The select's answer the slow way: [`stats::top_k_abs_into`], an
    /// ascending sort, and `max |v|` (NaN ignored) over what is left.
    fn select_by_oracle(values: &[f32], k: usize) -> (Vec<usize>, f32) {
        let mut picked = vec![0; k];
        stats::top_k_abs_into(values, &mut picked);
        picked.sort_unstable();
        let rest = values
            .iter()
            .enumerate()
            .filter(|(j, _)| !picked.contains(j))
            .fold(0.0f32, |m, (_, &v)| m.max(v.abs()));
        (picked, rest)
    }

    /// Rows of `width` channels: seeded spiky tokens, and the degenerate
    /// table's ties, zeros (signed), constants, NaN, ±inf and denormals.
    fn select_rows(width: usize) -> Vec<Vec<f32>> {
        use ln_tensor::rng::{self, Rng};
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let mut rng = rng::stream_indexed("quant/token/select", width as u64);
        let mut rows: Vec<Vec<f32>> = (0..64)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        let v = rng::normal_approx(&mut rng);
                        match rng.gen_range(0..24usize) {
                            0 => v * 60.0,
                            1 => (v * 2.0).round(),
                            _ => v,
                        }
                    })
                    .collect()
            })
            .collect();
        let mut pattern = |f: &dyn Fn(usize) -> f32| rows.push((0..width).map(f).collect());
        pattern(&|j| if j % 3 == 0 { -2.5 } else { 2.5 });
        pattern(&|j| if j % 2 == 0 { 0.0 } else { -0.0 });
        pattern(&|_| 3.7);
        pattern(&|_| -1e-30);
        pattern(&|j| {
            if j % 5 == 1 {
                nan
            } else {
                (j % 7) as f32 - 3.0
            }
        });
        pattern(&|_| nan);
        pattern(&|j| [inf, -inf, 1.0, 0.5][j % 4]);
        pattern(&|j| if j % 9 == 4 { -inf } else { j as f32 * 0.01 });
        pattern(&|j| (j as f32 - 3.0) * 1e-41);
        pattern(&|j| {
            if j % 16 == 3 {
                9.0 - j as f32 * 1e-3
            } else {
                0.1
            }
        });
        pattern(&|j| {
            if j == width / 2 {
                nan
            } else {
                ((j * 37) % 11) as f32
            }
        });
        rows
    }

    #[test]
    fn the_bitonic_network_sorts_sixteen_keys() {
        use ln_tensor::rng::{self, Rng};
        let mut rng = rng::stream("quant/token/bitonic");
        for round in 0..2_000 {
            // Few distinct values on odd rounds, so ties are common.
            let range = if round % 2 == 1 { 4 } else { u32::MAX };
            let keys: [u32; LANES] = std::array::from_fn(|_| rng.gen_range(0..range));
            let mut expect = keys;
            expect.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(sort_descending(keys), expect, "{keys:?}");
        }
    }

    #[test]
    fn the_vector_select_equals_its_oracle() {
        for width in [2usize, 5, 16, 17, 96, 128, 129, 256] {
            let budgets = (0..=8).chain([width - 1, width]).filter(|&k| k <= width);
            let budgets: Vec<usize> = budgets.collect();
            for (r, row) in select_rows(width).iter().enumerate() {
                for &k in &budgets {
                    let mut buf = [0; MAX_TOKEN_CHANNELS];
                    let inlier_max = simd::wide(
                        #[inline(always)]
                        || select(row, k, &mut buf),
                    );
                    let (picked, rest) = select_by_oracle(row, k);
                    let what = format!("width {width}, row {r}, k {k}");
                    assert_eq!(buf[..k], picked[..], "{what}");
                    assert_eq!(inlier_max.to_bits(), rest.to_bits(), "{what}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outlier budget")]
    fn outlier_flood_panics() {
        let values = vec![1.0f32; 8];
        let _ = encoded(&values, QuantScheme::int8_with_outliers(8));
    }
}
