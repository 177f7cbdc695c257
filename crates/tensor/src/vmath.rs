//! Row math: the one home of `exp` and of the reductions a softmax, a
//! sigmoid and a LayerNorm are made of.
//!
//! Everything here is plain generic Rust marked `#[inline(always)]`: call
//! it inside a [`crate::simd::wide`] frame and it is compiled at the
//! host's vector width, call it anywhere else and it is baseline code —
//! with the same bits either way, because of two rules.
//!
//! # Bits, rule one: the same IEEE operations per element
//!
//! [`exp`] is `2ⁿ · p(r)` with `n = round(x / ln 2)` and `r = x − n · ln 2`
//! (Cody–Waite, `ln 2` split in two so the first subtraction is exact) and
//! `p` a degree-6 polynomial in separately rounded multiplies and adds.
//! There is no `floor` or `round` in it: both need SSE4.1 and fall to a
//! libm call per lane on the baseline tier. `n` is rounded by adding
//! 1.5 · 2²³ — the sum's mantissa then *is* the integer — and read back
//! from the bits, and `2ⁿ` is built by integer arithmetic on an exponent
//! field, in two factors because `n` reaches 128. Every step is an
//! operation both tiers have per lane, so [`simd`](crate::simd)'s "Bits"
//! argument carries over unchanged.
//!
//! Measured against `f64::exp` rounded to `f32` — every 8209th bit
//! pattern of the finite range, every 1021st of [−104, 89] and every
//! pattern within 4096 of the flush point, the overflow point and zero,
//! 2.7 M points: at most 1 ulp away (8.7 M points of [−88, 89] at stride
//! 257: 0.8 % of them 1 ulp off, none more), monotone non-decreasing,
//! `exp(0.0) == 1.0` exactly.
//!
//! # Bits, rule two: a reduction writes out its lanes and its tree
//!
//! A serial `f32` fold (`iter().sum()`, `fold(max)`) is one dependent
//! operation per element, which no vector width can help; and a fold the
//! compiler is left to vectorise would associate differently at each
//! width. So every reduction here runs in **sixteen fixed lanes** —
//! element `i` goes to lane `i mod 16`, which sends the remainder of a
//! length off the lane width to lanes `0..r` — joined by **one fixed
//! halving tree** (lane `i` with lane `i + 8`, then `+ 4`, `+ 2`, `+ 1`).
//! That order is part of the result's definition, the same on both tiers
//! and in any `ln-par` pool. Sixteen, not eight: eight is one AVX2
//! register, a single chain of dependent adds at four cycles each;
//! sixteen is two chains there and four on SSE2, enough to keep the adder
//! busy behind `exp`.
//!
//! # Edge cases
//!
//! One row each, one test each (`tests::edge_*`):
//!
//! | input | result |
//! |---|---|
//! | `exp(−∞)` | `+0.0` exactly — a masked key gets zero weight |
//! | `exp(x)`, `x <` [`EXP_FLUSH_BELOW`] (≈ −87.3365) | `+0.0`: a result below the smallest normal `f32` is flushed, never denormal |
//! | `exp(x)`, `x ≥ 88.73` | `+∞` (from 88.722 84 up, the first `x` whose `exp` exceeds `f32::MAX`) |
//! | `exp(NaN)` | NaN |
//! | `sigmoid(±∞)`, `sigmoid(NaN)` | `1.0` / `+0.0`, NaN |
//! | softmax of an all-`−∞` (or empty) row | all `+0.0` |
//! | softmax of a row holding a NaN or a `+∞` | every weight NaN: the score **poisons its row**, on both tiers; [`max`] itself skips NaN, the sum does not |
//! | `max` of an empty slice, `sum` of one | `−∞`, `+0.0` |

/// Lanes a reduction runs in (see the module docs).
const LANES: usize = 16;

/// The smallest `x` whose `exp` is a normal `f32` — the first `f32` above
/// `ln 2⁻¹²⁶`, 4.5e-6 above it, so `exp` of it is `f32::MIN_POSITIVE` and
/// 38 ulp; [`exp`] of anything below is `+0.0`.
pub const EXP_FLUSH_BELOW: f32 = -87.336_54;

/// Past `ln(f32::MAX)`: where [`exp`] stops looking at `x`.
const EXP_CLAMP_ABOVE: f32 = 89.0;
const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// 1.5 · 2²³: adding it rounds to an integer, held in the mantissa.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` in two parts; the first has nine significant bits, so its
/// product with any `n` of [`exp`]'s range is exact.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `exp(r) ≈ 1 + r + r²·(C[0] + C[1]·r + … + C[4]·r⁴)`: the minimax fit
/// for relative error (Remez, 40 digits, then rounded) on `|r| ≤ ln 2 / 2`
/// stretched by 0.05 % — `n` is rounded from a rounded product, so `r`
/// can overshoot by a few ulp. 0.03 ulp of error before rounding.
const C: [f32; 5] = [
    0.499_999_94,
    0.166_665_21,
    0.041_668_39,
    0.008_368_745,
    0.001_381_454,
];

/// `eˣ`, at most 1 ulp from the correctly rounded value; the module docs
/// give the method and the edges.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // `clamp`, not `f32::min` / `max`: it keeps a NaN. Below the flush
    // point the result is discarded; clamping there as well keeps the
    // discarded arithmetic in the normal range, where it costs nothing.
    let flush = x < EXP_FLUSH_BELOW;
    let x = x.clamp(EXP_FLUSH_BELOW, EXP_CLAMP_ABOVE);
    let t = x * LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let q = C[0] + r * (C[1] + r * (C[2] + r * (C[3] + r * C[4])));
    let p = 1.0 + (r + (r * r) * q);
    // −126 ≤ n ≤ 128 for any x that is not NaN (wrapping: NaN's bits are
    // arbitrary, and NaN · anything is the NaN we want).
    let n = t.to_bits().wrapping_sub(ROUND_MAGIC.to_bits()) as i32;
    let half = n >> 1;
    let y = p * pow2(half) * pow2(n.wrapping_sub(half));
    if flush {
        0.0
    } else {
        y
    }
}

/// `2ⁿ` for `−126 ≤ n ≤ 127`, straight into the exponent field.
#[inline(always)]
fn pow2(n: i32) -> f32 {
    f32::from_bits((n.wrapping_add(127) as u32) << 23)
}

/// The logistic function `1 / (1 + e⁻ˣ)`, on [`exp`].
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// The larger of two values; a NaN `x` is skipped, `acc` never becomes one.
#[inline(always)]
fn larger(acc: f32, x: f32) -> f32 {
    if x > acc {
        x
    } else {
        acc
    }
}

/// Joins the lanes by the fixed halving tree.
#[inline(always)]
fn join(mut lanes: [f32; LANES], op: impl Fn(f32, f32) -> f32) -> f32 {
    let mut width = LANES / 2;
    while width > 0 {
        for i in 0..width {
            lanes[i] = op(lanes[i], lanes[i + width]);
        }
        width /= 2;
    }
    lanes[0]
}

/// `xs` folded into lanes that start at `init` — lane `i mod 16` takes
/// `step(lane, xs[i])` — and the lanes joined by `op`.
#[inline(always)]
fn reduce(
    xs: &[f32],
    init: f32,
    step: impl Fn(f32, f32) -> f32,
    op: impl Fn(f32, f32) -> f32,
) -> f32 {
    let mut lanes = [init; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane = step(*lane, x);
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = step(*lane, x);
    }
    join(lanes, op)
}

/// The largest element that is not NaN; `−∞` when there is none.
#[inline(always)]
pub fn max(xs: &[f32]) -> f32 {
    reduce(xs, f32::NEG_INFINITY, larger, larger)
}

/// The sum of `xs` in the lane order.
#[inline(always)]
pub fn sum(xs: &[f32]) -> f32 {
    reduce(xs, 0.0, |acc, x| acc + x, |a, b| a + b)
}

/// `Σ (x − mean)²` in the lane order: a LayerNorm's variance numerator.
#[inline(always)]
pub(crate) fn sum_squared_deviations(xs: &[f32], mean: f32) -> f32 {
    reduce(
        xs,
        0.0,
        |acc, x| acc + (x - mean) * (x - mean),
        |a, b| a + b,
    )
}

/// The second pass of a softmax: `x ← exp(x − row_max)` over a row, and
/// the [`sum`] of the results. A row with no score above `−∞` (`row_max`
/// is `−∞`) is shifted by `0.0` instead: `−∞ − −∞` would be NaN where
/// `exp(−∞ − 0.0)` is the `+0.0` a masked key should weigh.
#[inline(always)]
pub fn exp_sub_sum(xs: &mut [f32], row_max: f32) -> f32 {
    let shift = if row_max == f32::NEG_INFINITY {
        0.0
    } else {
        row_max
    };
    for x in xs.iter_mut() {
        *x = exp(*x - shift);
    }
    sum(xs)
}

/// Numerically stable softmax of one row, in place. The edge cases are in
/// the module docs.
#[inline(always)]
pub fn softmax_inplace(row: &mut [f32]) {
    let sum = exp_sub_sum(row, max(row));
    // Zero only when every score was −∞ (or there is none): the weights
    // are the zeros already there.
    if sum != 0.0 {
        let inv = 1.0 / sum;
        for w in row.iter_mut() {
            *w *= inv;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::simd;

    /// Off the lane width on both sides, and a few lanes' worth.
    pub(crate) const LENGTHS: [usize; 11] = [0, 1, 15, 16, 17, 31, 33, 64, 65, 96, 192];

    /// What a lane reduction is defined to be, spelled out: element `i`
    /// folds into lane `i mod 16`, and the sixteen lanes join as
    /// `((l0 ∘ l8) ∘ (l4 ∘ l12)) ∘ ((l2 ∘ l10) ∘ (l6 ∘ l14))` and the same
    /// of the odd lanes, the even half on the left.
    pub(crate) fn lane_reference(
        xs: &[f32],
        init: f32,
        step: impl Fn(f32, f32) -> f32,
        op: impl Fn(f32, f32) -> f32,
    ) -> f32 {
        let mut l = [init; 16];
        for (i, &x) in xs.iter().enumerate() {
            l[i % 16] = step(l[i % 16], x);
        }
        let quad = |a: usize| op(op(l[a], l[a + 8]), op(l[a + 4], l[a + 12]));
        op(op(quad(0), quad(2)), op(quad(1), quad(3)))
    }

    pub(crate) fn sum_reference(xs: &[f32]) -> f32 {
        lane_reference(xs, 0.0, |a, x| a + x, |a, b| a + b)
    }

    /// Both signs, magnitudes from 1e-3 to 40, no two neighbours alike.
    pub(crate) fn row(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = ((i * 37 + seed * 11) % 29) as f32 * 0.21 - 2.9;
                match (i + seed) % 5 {
                    0 => v * 13.7,
                    1 => v * 1e-3,
                    _ => v,
                }
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Distance in representable values; `exp` is never negative.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `f64::exp` rounded once to `f32`, flushed where [`exp`] flushes.
    fn exp_reference(x: f32) -> f32 {
        if x < EXP_FLUSH_BELOW {
            0.0
        } else {
            f64::from(x).exp() as f32
        }
    }

    /// Every `stride`-th bit pattern from `-from` up to `to`, ascending.
    fn sweep(from: f32, to: f32, stride: usize) -> impl Iterator<Item = f32> {
        let negative = (1..=from.to_bits()).rev().step_by(stride);
        let positive = (0..=to.to_bits()).step_by(stride);
        negative
            .map(|b| f32::from_bits(b | 0x8000_0000))
            .chain(positive.map(f32::from_bits))
    }

    #[test]
    fn exp_is_within_an_ulp_of_correctly_rounded_and_monotone() {
        // The whole finite range coarsely (most of it is 0, 1 or ∞), the
        // range with a result of its own finely, and every pattern within
        // 4096 of the flush point, of the overflow point and of zero.
        let near = |x: f32| {
            let b = x.to_bits();
            (b - 4096..b + 4096).map(f32::from_bits)
        };
        let mut worst = (0u32, 0.0f32);
        let mut points = 0usize;
        let mut check = |xs: &mut dyn Iterator<Item = f32>| {
            let mut below = 0.0f32;
            for x in xs {
                let got = exp(x);
                let d = ulps(got, exp_reference(x));
                if d > worst.0 {
                    worst = (d, x);
                }
                assert!(got >= below, "exp({x:e}) = {got:e} after {below:e}");
                below = got;
                points += 1;
            }
        };
        check(&mut sweep(f32::MAX, f32::MAX, 8209));
        check(&mut sweep(104.0, 89.0, 1021));
        check(&mut near(-EXP_FLUSH_BELOW).map(|x| -x).rev());
        check(&mut near(88.722_84));
        check(&mut near(f32::from_bits(4096)).map(|x| -x).rev());
        check(&mut near(f32::from_bits(4096)));
        // 1 ulp (at −86.815) over 2 747 748 points where this was written;
        // the gate leaves one more for a libm whose `f64::exp` rounds some
        // point the other way.
        assert!(
            worst.0 <= 2,
            "{} ulp at {:e} over {points} points",
            worst.0,
            worst.1
        );
        assert!(points > 2_000_000, "{points}");
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn dispatched_and_baseline_code_agree_bitwise() {
        // The same `inline(always)` bodies compiled into the `wide` frame
        // and into this (baseline) function.
        let xs: Vec<f32> = sweep(120.0, 100.0, 4099)
            .chain([f32::NEG_INFINITY, f32::INFINITY, f32::NAN])
            .collect();
        let map = |f: fn(f32) -> f32, xs: &[f32]| xs.iter().map(|&x| f(x)).collect::<Vec<_>>();
        for f in [exp, sigmoid] {
            let wide = simd::wide(
                #[inline(always)]
                || map(f, &xs),
            );
            assert_eq!(bits(&wide), bits(&map(f, &xs)));
        }
        for len in LENGTHS {
            for seed in 0..3 {
                let x = row(len, seed);
                let all = |x: &[f32]| {
                    let mut soft = x.to_vec();
                    softmax_inplace(&mut soft);
                    let mean = sum(x) / len as f32;
                    soft.extend([max(x), sum(x), sum_squared_deviations(x, mean)]);
                    soft
                };
                let wide = simd::wide(
                    #[inline(always)]
                    || all(&x),
                );
                assert_eq!(bits(&wide), bits(&all(&x)), "len {len} seed {seed}");
            }
        }
    }

    #[test]
    fn reductions_follow_the_spelled_out_lanes_and_tree() {
        for len in LENGTHS {
            for seed in 0..3 {
                let x = row(len, seed);
                let what = format!("len {len} seed {seed}");
                assert_eq!(
                    max(&x).to_bits(),
                    lane_reference(&x, f32::NEG_INFINITY, f32::max, f32::max).to_bits(),
                    "max, {what}"
                );
                assert_eq!(
                    sum(&x).to_bits(),
                    sum_reference(&x).to_bits(),
                    "sum, {what}"
                );
                let mean = 0.37;
                let squares: Vec<f32> = x.iter().map(|v| (v - mean) * (v - mean)).collect();
                assert_eq!(
                    sum_squared_deviations(&x, mean).to_bits(),
                    sum_reference(&squares).to_bits(),
                    "squared deviations, {what}"
                );

                // Softmax: shift by the max, `exp`, the lane sum, one
                // reciprocal, one multiply each.
                let shift = max(&x);
                let mut want: Vec<f32> = x.iter().map(|v| exp(v - shift)).collect();
                let inv = 1.0 / sum_reference(&want);
                want.iter_mut().for_each(|w| *w *= inv);
                let mut got = x.clone();
                softmax_inplace(&mut got);
                assert_eq!(bits(&got), bits(&want), "softmax, {what}");
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_masked_entries_are_exactly_zero() {
        for len in LENGTHS.into_iter().filter(|&len| len > 0) {
            for seed in 0..3 {
                let mut x = row(len, seed);
                let masked: Vec<usize> = (0..len).filter(|i| i % 3 == 1 && len > 1).collect();
                for &i in &masked {
                    x[i] = f32::NEG_INFINITY;
                }
                softmax_inplace(&mut x);
                let total: f64 = x.iter().map(|&w| f64::from(w)).sum();
                // Within 0.6 ulp of 1.0 on these rows; gated at 2.
                assert!(
                    (total - 1.0).abs() <= 2.0 * f64::from(f32::EPSILON),
                    "len {len} seed {seed}: {total}"
                );
                assert!(x.iter().all(|&w| (0.0..=1.0).contains(&w)));
                for &i in &masked {
                    assert_eq!(x[i].to_bits(), 0.0f32.to_bits(), "len {len} entry {i}");
                }
            }
        }
    }

    #[test]
    fn edge_exp_of_negative_infinity_is_zero() {
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(f32::MIN).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn edge_exp_flushes_below_the_last_normal_result() {
        let last = exp(EXP_FLUSH_BELOW);
        assert!(last >= f32::MIN_POSITIVE && ulps(last, f32::MIN_POSITIVE) <= 64);
        let below = f32::from_bits(EXP_FLUSH_BELOW.to_bits() + 1);
        assert!(below < EXP_FLUSH_BELOW);
        assert_eq!(exp(below).to_bits(), 0.0f32.to_bits());
        // The flush point is the true one: one step down, the exact
        // result is already below the smallest normal.
        assert!(f64::from(below).exp() < f64::from(f32::MIN_POSITIVE));
        assert!(f64::from(EXP_FLUSH_BELOW).exp() >= f64::from(f32::MIN_POSITIVE));
    }

    #[test]
    fn edge_exp_overflows_to_infinity() {
        for x in [88.73, 89.0, 1e3, f32::MAX, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "{x}");
        }
        // Finite exactly as far as the correctly rounded result is: the
        // window straddles `ln(f32::MAX)`.
        let edge = f32::MAX.ln().to_bits();
        let window = || (edge - 64..edge + 64).map(f32::from_bits);
        for x in window() {
            assert_eq!(exp(x).is_finite(), exp_reference(x).is_finite(), "{x}");
        }
        assert!(window().any(|x| exp(x).is_finite()) && window().any(|x| exp(x).is_infinite()));
    }

    #[test]
    fn edge_exp_and_sigmoid_of_nan_are_nan() {
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        assert!(sigmoid(f32::NAN).is_nan());
    }

    #[test]
    fn edge_sigmoid_saturates_at_the_infinities() {
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(100.0), 1.0);
        assert_eq!(sigmoid(-100.0).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn edge_softmax_of_a_row_without_a_finite_score_is_zeros() {
        for len in LENGTHS {
            let mut x = vec![f32::NEG_INFINITY; len];
            softmax_inplace(&mut x);
            assert!(x.iter().all(|w| w.to_bits() == 0.0f32.to_bits()), "{len}");
        }
    }

    #[test]
    fn edge_softmax_of_a_row_with_a_nan_or_an_infinity_is_all_nan() {
        for len in LENGTHS.into_iter().filter(|&len| len > 0) {
            for poison in [f32::NAN, f32::INFINITY] {
                for at in [0, len / 2, len - 1] {
                    // Among ordinary scores, and among masked ones only.
                    for others in [row(len, 1), vec![f32::NEG_INFINITY; len]] {
                        let mut x = others;
                        x[at] = poison;
                        softmax_inplace(&mut x);
                        assert!(x.iter().all(|w| w.is_nan()), "{poison} at {at} of {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn edge_reductions_of_nothing_and_max_past_a_nan() {
        assert_eq!(max(&[]), f32::NEG_INFINITY);
        assert_eq!(sum(&[]).to_bits(), 0.0f32.to_bits());
        assert_eq!(max(&[f32::NAN, -3.0, f32::NAN]), -3.0);
        assert_eq!(max(&[f32::NAN]), f32::NEG_INFINITY);
        assert!(sum(&[1.0, f32::NAN]).is_nan());
    }
}
