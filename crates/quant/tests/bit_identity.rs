//! The fused runtime quantizer against its definitions, bit for bit.
//!
//! `fake_quantize_tokens` must equal `quantize_token` → `dequantize` on
//! every ≤ 128-wide segment, the error sums it returns must be those of a
//! clone-and-diff sweep and the same bits under every pool, and
//! `quantize_value`'s float-arithmetic rounding must equal the
//! `f32::round` form of Eq. 1 it replaced.

use ln_par::{with_pool, Pool};
use ln_quant::scheme::{Bits, QuantScheme};
use ln_quant::token::{
    fake_quantize_tokens, quantize_token, quantize_value, QuantError, QuantizedToken,
};
use ln_tensor::rng::{self, Rng};
use ln_tensor::Tensor2;

const SEGMENT: usize = 128;

/// Eq. 1 as it was written before the libm call was removed.
fn quantize_value_by_roundf(v: f32, scale: f32, bits: Bits) -> i16 {
    let m = bits.max_level();
    ((v / scale).round().clamp(-m as f32, m as f32)) as i16
}

/// `fake_quantize_tokens` spelled out through the token container.
fn fake_quantize_by_tokens(x: &Tensor2, scheme: QuantScheme) -> Tensor2 {
    let mut out = x.clone();
    for t in 0..x.rows() {
        for (seg, dst) in x
            .row(t)
            .chunks(SEGMENT)
            .zip(out.row_mut(t).chunks_mut(SEGMENT))
        {
            if seg.len() < 2 {
                continue;
            }
            let mut seg_scheme = scheme;
            seg_scheme.outliers = scheme.outliers.min(seg.len() - 1);
            dst.copy_from_slice(&quantize_token(seg, seg_scheme).dequantize());
        }
    }
    out
}

/// Seeded spiky rows, then one row each of: ties, zeros, values on the
/// half-steps of the row's own scale, denormals, a lone spike.
fn test_matrix(cols: usize) -> Tensor2 {
    let mut rng = rng::stream_indexed("quant/bit_identity", cols as u64);
    let seeded_rows = 24;
    let mut x = Tensor2::from_fn(seeded_rows + 5, cols, |_, _| {
        let v = rng::normal_approx(&mut rng);
        if rng.gen_range(0..24usize) == 0 {
            v * 60.0
        } else {
            v
        }
    });
    x.row_mut(seeded_rows)
        .iter_mut()
        .enumerate()
        .for_each(|(j, v)| *v = if j % 3 == 0 { -2.5 } else { 2.5 });
    x.row_mut(seeded_rows + 1).fill(0.0);
    // Max 7 (INT4 scale 1, INT8 scale 7/127): the rest sit on ±(n + ½).
    x.row_mut(seeded_rows + 2)
        .iter_mut()
        .enumerate()
        .for_each(|(j, v)| {
            let half_step = (j % 7) as f32 + 0.5;
            *v = match j {
                0 => 7.0,
                _ if j % 2 == 0 => half_step,
                _ => -half_step,
            };
        });
    x.row_mut(seeded_rows + 3)
        .iter_mut()
        .enumerate()
        .for_each(|(j, v)| *v = (j as f32 - 3.0) * 1e-41);
    x.row_mut(seeded_rows + 4).fill(0.0);
    x.row_mut(seeded_rows + 4)[cols / 2] = -1e30;
    x
}

#[test]
fn fused_fake_quant_equals_quantize_then_dequantize() {
    for cols in [2usize, 4, 5, 96, 128, 129, 512] {
        let x = test_matrix(cols);
        for k in [0usize, 1, 4, 8] {
            for scheme in [
                QuantScheme::int4_with_outliers(k),
                QuantScheme::int8_with_outliers(k),
            ] {
                let expect = fake_quantize_by_tokens(&x, scheme);
                let mut got = x.clone();
                fake_quantize_tokens(&mut got, scheme);
                for (i, (a, b)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{scheme} cols {cols} row {} ch {}: {a} vs {b}",
                        i / cols,
                        i % cols
                    );
                }
            }
        }
    }
}

/// The error sums as `AaqHook` took them before the quantizer returned
/// them: keep a copy, quantize, sweep both in element order.
fn error_by_clone_and_diff(x: &Tensor2, scheme: QuantScheme) -> QuantError {
    let original = x.clone();
    let mut activation = x.clone();
    fake_quantize_tokens(&mut activation, scheme);
    let mut err_sq = 0.0f64;
    let mut val_sq = 0.0f64;
    for (&a, &b) in original.as_slice().iter().zip(activation.as_slice()) {
        let e = (a - b) as f64;
        err_sq += e * e;
        val_sq += (a as f64) * (a as f64);
    }
    QuantError { err_sq, val_sq }
}

/// `got` within 1e-9 relative of `want`; NaN where `want` is NaN, and the
/// same infinity or zero.
fn assert_sum_agrees(got: f64, want: f64, what: &str) {
    let agrees = if want.is_nan() {
        got.is_nan()
    } else if want.is_infinite() {
        got == want
    } else {
        (got - want).abs() <= 1e-9 * want
    };
    assert!(agrees, "{what}: {got:e} vs {want:e}");
}

/// The lattice of this file, 1-wide and 130-wide rows, rows that do not
/// fill the 64-token blocks the sums are kept in, enough rows that pools
/// of 2 and 4 chunk them differently, and the degenerate tokens of the
/// `token.rs` module docs.
fn error_inputs() -> Vec<(String, Tensor2)> {
    let mut inputs: Vec<(String, Tensor2)> = [1usize, 2, 4, 5, 96, 128, 129, 130, 512]
        .into_iter()
        .map(|cols| (format!("lattice, {cols} wide"), test_matrix(cols)))
        .collect();
    for rows in [1usize, 63, 64, 65, 1000] {
        let mut rng = rng::stream_indexed("quant/bit_identity/rows", rows as u64);
        let x = Tensor2::from_fn(rows, 130, |_, j| {
            let v = rng::normal_approx(&mut rng);
            if j % 41 == 7 {
                v * 30.0
            } else {
                v
            }
        });
        inputs.push((format!("{rows} rows"), x));
    }
    let (nan, inf) = (f32::NAN, f32::INFINITY);
    let specials: [(&str, [f32; 6]); 5] = [
        ("NaN channels", [nan, 0.5, -8.0, nan, 3.0, 0.25]),
        ("an infinite outlier", [1.0, -inf, 0.5, 40.0, -0.25, 0.75]),
        (
            "more infinities than outliers",
            [inf, -inf, inf, inf, -inf, 1.0],
        ),
        ("NaN and infinity", [nan, inf, 2.0, -1.0, 0.5, nan]),
        ("all-zero token", [0.0, -0.0, 0.0, 0.0, -0.0, 0.0]),
    ];
    for (what, head) in specials {
        // The special values at the head of a 130-wide row and again in
        // its 2-wide tail segment, between two ordinary rows.
        let mut x = Tensor2::from_fn(3, 130, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.25 - 1.0);
        x.row_mut(1).fill(0.0);
        x.row_mut(1)[..6].copy_from_slice(&head);
        x.row_mut(1)[128..].copy_from_slice(&head[..2]);
        inputs.push((what.to_string(), x));
    }
    inputs
}

#[test]
fn returned_error_sums_match_a_clone_and_diff_sweep_under_every_pool() {
    for (what, x) in error_inputs() {
        // 300: an outlier budget above every width here.
        for k in [0usize, 1, 4, 8, 300] {
            for scheme in [
                QuantScheme::int4_with_outliers(k),
                QuantScheme::int8_with_outliers(k),
            ] {
                let what = format!("{what}, {scheme}");
                let under_pool = |threads: usize| {
                    let mut y = x.clone();
                    let error = with_pool(&Pool::new_exact(threads), || {
                        fake_quantize_tokens(&mut y, scheme)
                    });
                    (error, y)
                };
                let (error, written) = under_pool(1);
                let reference = error_by_clone_and_diff(&x, scheme);
                assert_sum_agrees(error.err_sq, reference.err_sq, &format!("{what}: err_sq"));
                assert_sum_agrees(error.val_sq, reference.val_sq, &format!("{what}: val_sq"));
                for threads in [2usize, 4] {
                    let (pooled, pooled_written) = under_pool(threads);
                    assert_eq!(
                        (pooled.err_sq.to_bits(), pooled.val_sq.to_bits()),
                        (error.err_sq.to_bits(), error.val_sq.to_bits()),
                        "{what}: sums under pool {threads}"
                    );
                    assert!(
                        pooled_written
                            .as_slice()
                            .iter()
                            .zip(written.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{what}: tensor under pool {threads}"
                    );
                }
            }
        }
    }
}

/// Reconstruction from the token's public parts through an outlier mask,
/// which (unlike `dequantize_into`) does not care how the outlier indices
/// are ordered.
fn dequantize_by_mask(q: &QuantizedToken) -> Vec<f32> {
    let mut out = vec![0.0f32; q.channels()];
    let mut is_outlier = vec![false; q.channels()];
    for (&idx, &level) in q.outlier_indices().iter().zip(q.outliers()) {
        is_outlier[idx as usize] = true;
        out[idx as usize] = level as f32 * q.outlier_scale();
    }
    let mut levels = q.inliers().iter();
    for (slot, _) in out.iter_mut().zip(&is_outlier).filter(|(_, &o)| !o) {
        *slot = *levels.next().expect("one level per inlier") as f32 * q.inlier_scale();
    }
    out
}

#[test]
fn dequantize_into_equals_the_masked_reconstruction() {
    let x = test_matrix(96);
    let mut out = vec![f32::NAN; 96];
    for t in 0..x.rows() {
        for k in [0usize, 1, 4, 12] {
            let q = quantize_token(x.row(t), QuantScheme::int8_with_outliers(k));
            q.dequantize_into(&mut out);
            let expect = dequantize_by_mask(&q);
            assert!(out
                .iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}

const ALL_BITS: [Bits; 3] = [Bits::Int4, Bits::Int8, Bits::Int16];

fn assert_matches_roundf(v: f32, scale: f32) {
    for bits in ALL_BITS {
        assert_eq!(
            quantize_value(v, scale, bits),
            quantize_value_by_roundf(v, scale, bits),
            "v = {v:e} ({:#010x}), scale = {scale:e}, {bits}",
            v.to_bits()
        );
    }
}

#[test]
fn rounding_matches_roundf_around_every_half_integer() {
    // Scale 1 makes `v / scale` the value itself, so every f32 within
    // 2 ulp of ±(n + ½) — where the two roundings could part — is hit.
    for n in 0..=32_768u32 {
        let half = n as f32 + 0.5;
        for ulps in -2i32..=2 {
            let v = f32::from_bits(half.to_bits().wrapping_add_signed(ulps));
            assert_matches_roundf(v, 1.0);
            assert_matches_roundf(-v, 1.0);
        }
    }
}

#[test]
fn rounding_matches_roundf_on_special_values() {
    let specials = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MIN_POSITIVE,
        1e-45,
        -1e-45,
        f32::MAX,
        f32::MIN,
        4_194_304.5,
        8_388_609.0,
        -12_582_912.0,
    ];
    for v in specials {
        for scale in [1.0, 0.05, 3.0, 1e-45, f32::INFINITY, f32::MAX] {
            assert_matches_roundf(v, scale);
        }
    }
}

#[test]
fn rounding_matches_roundf_on_a_seeded_sweep() {
    let mut rng = rng::stream("quant/bit_identity/sweep");
    for i in 0..10_000_000u32 {
        // Levels spread over the whole INT16 range and a little beyond,
        // as quotients of arbitrary values and scales.
        let scale = 10f32.powf(rng.gen_range(0..12u32) as f32 - 6.0) * (1.0 + rng.gen::<f32>());
        let level = (rng.gen::<f32>() - 0.5) * if i % 2 == 0 { 70_000.0 } else { 300.0 };
        assert_matches_roundf(level * scale, scale);
    }
}
