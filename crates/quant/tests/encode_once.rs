//! Encoding once, from the activation itself.
//!
//! In the quantized domain the trunk encodes each post-LayerNorm
//! activation exactly once, with `QuantizedTensor::encode`, and every
//! projection reads that encoding. The tap used to fake-quantize the
//! activation first and the trunk then encoded what the tap left. The two
//! encodings agree on the rows `bit_identity.rs` runs the quantizer over
//! and on 1 000 seeded spiky tokens (the first test) — every inlier level,
//! both scales of every token (the re-derived scale `m · (c / m)` lands on
//! the first one here), every outlier level and index — but not on every
//! token a fold produces: INT16 rounding can reorder two near-equal
//! candidates for the last outlier slot, and the copy then picks another
//! channel (the second test, a row from a real fold). At L = 96, seed 0,
//! that happens to 6 of the 92 160 post-LN tokens. The encoding the trunk
//! keeps is the activation's own, which is what the RMPU reads.
//!
//! `encode` also reports what it did to the activation, the sums
//! `fake_quantize_tokens` would have returned for it, and must hold up on
//! input the fold never produces (the third test).

use ln_par::{with_pool, Pool};
use ln_quant::scheme::{AaqConfig, Bits, Group, QuantScheme};
use ln_quant::tensor::QuantizedTensor;
use ln_quant::token::{fake_quantize_tokens, QuantError};
use ln_tensor::rng::{self, Rng};
use ln_tensor::Tensor2;

/// The rows `bit_identity.rs` runs the quantizer over — seeded spiky rows,
/// then one row each of ties, zeros, values on the half-steps of the row's
/// own scale, denormals and a lone spike — with `seeded_rows` seeded rows.
fn test_matrix(cols: usize, seeded_rows: usize) -> Tensor2 {
    let mut rng = rng::stream_indexed("quant/encode_once", cols as u64);
    let mut x = Tensor2::from_fn(seeded_rows + 5, cols, |_, _| {
        let v = rng::normal_approx(&mut rng);
        if rng.gen_range(0..24usize) == 0 {
            v * 60.0
        } else {
            v
        }
    });
    for (j, v) in x.row_mut(seeded_rows).iter_mut().enumerate() {
        *v = if j % 3 == 0 { -2.5 } else { 2.5 };
    }
    x.row_mut(seeded_rows + 1).fill(0.0);
    for (j, v) in x.row_mut(seeded_rows + 2).iter_mut().enumerate() {
        let half_step = (j % 7) as f32 + 0.5;
        *v = match j {
            0 => 7.0,
            _ if j % 2 == 0 => half_step,
            _ => -half_step,
        };
    }
    for (j, v) in x.row_mut(seeded_rows + 3).iter_mut().enumerate() {
        *v = (j as f32 - 3.0) * 1e-41;
    }
    x.row_mut(seeded_rows + 4).fill(0.0);
    x.row_mut(seeded_rows + 4)[cols / 2] = -1e30;
    x
}

/// The first part of token `t` of `b` that is not `a`'s, bit for bit.
fn first_difference(a: &QuantizedTensor, b: &QuantizedTensor, t: usize) -> Option<String> {
    let scales = |q: &QuantizedTensor| {
        let (inlier, outlier) = q.scales(t);
        [inlier, outlier].map(f32::to_bits)
    };
    let ((a_levels, a_indices), (b_levels, b_indices)) = (a.outliers(t), b.outliers(t));
    if !a.inliers(t).eq(b.inliers(t)) {
        Some("inlier levels".into())
    } else if scales(a) != scales(b) {
        Some(format!("scales {:?} → {:?}", a.scales(t), b.scales(t)))
    } else if a_levels != b_levels {
        Some("outlier levels".into())
    } else if a_indices != b_indices {
        Some("outlier indices".into())
    } else {
        None
    }
}

#[test]
fn encoding_the_fake_quantized_activation_reproduces_every_level() {
    // The paper's three schemes, on tokens no wider than one 128-channel
    // segment of `fake_quantize_tokens` (the fold's are 128 wide), with
    // 1 000 seeded rows at the full width.
    let schemes = [Group::A, Group::B, Group::C].map(|g| AaqConfig::paper().scheme_for(g));
    for (cols, seeded_rows) in [(5, 24), (96, 24), (128, 1000)] {
        let x = test_matrix(cols, seeded_rows);
        for scheme in schemes {
            let scheme = QuantScheme {
                outliers: scheme.outliers.min(cols - 1),
                ..scheme
            };
            let mut fake_quantized = x.clone();
            fake_quantize_tokens(&mut fake_quantized, scheme);
            assert_ne!(fake_quantized, x, "the rewrite moved values");
            let direct = QuantizedTensor::from_tensor(&x, scheme);
            let again = QuantizedTensor::from_tensor(&fake_quantized, scheme);
            let differences: Vec<(usize, String)> = (0..x.rows())
                .filter_map(|t| Some((t, first_difference(&direct, &again, t)?)))
                .collect();
            assert!(
                differences.is_empty(),
                "{scheme}, {cols} channels: {differences:?}"
            );
        }
    }
}

/// `tri_attn.post_ln` token 6398 of the first block of the L = 96 fold of
/// seed 0, as LayerNorm left it. Channels 64 and 66 hold −8.5786 and
/// −8.5788, the fourth and fifth largest magnitudes.
const NEAR_TIE_ROW: [u32; 128] = [
    0xbf4f3dc2, 0xbf95025e, 0xbfb7af6c, 0xbfc9d3e2, 0xbf7c00b3, 0xbf9e0d1d, 0xbfaa3247, 0xbfb7ba6e,
    0xbfb53a70, 0xbf61663e, 0xbf829bc2, 0xbfd8ba0d, 0xbfc886ee, 0xbf83519a, 0xbfdb6479, 0xbf91b398,
    0xbf8bf39e, 0x40569378, 0x41a0f2b7, 0x42267f7f, 0x41cb76a3, 0x40937e50, 0xbe62b278, 0xbfd28e1c,
    0xbfa0e8e3, 0xbf768cce, 0xbf9de98a, 0xbf8de6c6, 0xbfa7b232, 0xbfb2b092, 0xbf2a61fc, 0xbfc97663,
    0xbfa8f4e4, 0xbfb2f691, 0xbf9d24c5, 0xbfeddbd2, 0xbfa54fe8, 0xbf2a2097, 0xbfd60ef7, 0xbfa782c7,
    0xbfebef6c, 0xbf7d9ce7, 0xbf3b8dc7, 0xbfd0449c, 0xbfd4a418, 0xbfc336ac, 0xbf703df8, 0xbfa3de7e,
    0xbf9ac870, 0xbfb90242, 0xbfced132, 0xbfd2ad47, 0xbfdb3f55, 0xbf5e077a, 0xbf5f7723, 0xbff1756c,
    0xbf823e72, 0xbfafd22e, 0xbf474068, 0xbf95a521, 0xbfc504a6, 0xbfc6be68, 0xbfb3a601, 0xbf07c9aa,
    0xc1094225, 0xbf462f17, 0xc10942a9, 0x4028867c, 0xc0c76730, 0x40bfc372, 0xc05f831c, 0x40b7f855,
    0xc02675c1, 0x40d4d67e, 0xc022c9e3, 0x40c07381, 0xbfe2dbba, 0x40a0b2b8, 0xbfa7559c, 0x40c7a8ee,
    0xbf7365d0, 0x40c7c3c7, 0xbfe7362a, 0x40c7da01, 0xbf6d0a45, 0x40afd88d, 0xbfd30b5d, 0x40e2de39,
    0xbf8bfe13, 0x40c72f60, 0xbfc66410, 0x40d0e8a4, 0xbfd3f4bf, 0x40de088b, 0xbfa0b34a, 0x40be24c3,
    0xc0a7b870, 0x3f716ecc, 0xc0b43206, 0xc035d850, 0xbe61a970, 0xc027b371, 0xc0132e04, 0xbf159155,
    0xbfb66820, 0xbfdd07a5, 0xbf42286c, 0xc007447a, 0xbfc7496f, 0xbf7d64ef, 0xc0081652, 0xc004dce7,
    0xbf509cdc, 0xbfaecacd, 0xbf9ad60a, 0xbf518bb9, 0xbfe5826c, 0xbfaca072, 0xbfabd327, 0xbfe20640,
    0xbfa9370b, 0xbf806885, 0xc007514e, 0xbf881370, 0xbfb09b88, 0xbfcaeb73, 0xc010f70a, 0xbf69a16a,
];

#[test]
fn encoding_a_fake_quantized_near_tie_picks_another_outlier() {
    let x = Tensor2::from_vec(1, 128, NEAR_TIE_ROW.map(f32::from_bits).to_vec()).expect("one row");
    let scheme = AaqConfig::paper().scheme_for(Group::B);
    let mut fake_quantized = x.clone();
    fake_quantize_tokens(&mut fake_quantized, scheme);
    let (direct, _) = QuantizedTensor::encode(&x, scheme);
    let again = QuantizedTensor::from_tensor(&fake_quantized, scheme);
    // INT16 rounding of the copy turns the 4th and 5th magnitudes around.
    assert_eq!(direct.outliers(0).1, &[18, 19, 20, 66]);
    assert_eq!(again.outliers(0).1, &[18, 19, 20, 64]);
    assert_ne!(direct, again);
}

/// The degenerate tokens of the `token.rs` module docs, `cols` wide,
/// between seeded spiky rows: ties, all zeros (signed), constants, NaN
/// channels, an infinite outlier, more infinities than outliers, NaN and
/// infinity together, all NaN, denormals.
fn hostile(cols: usize) -> Tensor2 {
    let (nan, inf) = (f32::NAN, f32::INFINITY);
    let heads: [[f32; 6]; 4] = [
        [nan, 0.5, -8.0, nan, 3.0, 0.25],
        [1.0, -inf, 0.5, 40.0, -0.25, 0.75],
        [inf, -inf, inf, inf, -inf, 1.0],
        [nan, inf, 2.0, -1.0, 0.5, nan],
    ];
    let mut rows: Vec<Vec<f32>> = vec![
        (0..cols)
            .map(|j| if j % 3 == 0 { -2.5 } else { 2.5 })
            .collect(),
        (0..cols)
            .map(|j| if j % 2 == 0 { 0.0 } else { -0.0 })
            .collect(),
        vec![nan; cols],
        (0..cols).map(|j| (j as f32 - 3.0) * 1e-41).collect(),
    ];
    for c in [3.7f32, -0.02, 1e-30, -6e20] {
        rows.push(vec![c; cols]);
    }
    for head in heads {
        let mut row: Vec<f32> = (0..cols)
            .map(|j| ((j * 7) % 11) as f32 * 0.25 - 1.0)
            .collect();
        let n = head.len().min(cols);
        row[..n].copy_from_slice(&head[..n]);
        rows.push(row);
    }
    let mut rng = rng::stream_indexed("quant/encode_once/hostile", cols as u64);
    let mut values = Vec::new();
    // Spiky rows around the degenerate ones, 200 rows in all, so pools of
    // 2 and 4 cut the 64-token blocks differently.
    for t in 0..200 {
        match rows.get(t / 3).filter(|_| t % 3 == 1) {
            Some(row) => values.extend_from_slice(row),
            None => values.extend((0..cols).map(|_| {
                let v = rng::normal_approx(&mut rng);
                if rng.gen_range(0..24usize) == 0 {
                    v * 60.0
                } else {
                    v
                }
            })),
        }
    }
    Tensor2::from_vec(200, cols, values).expect("200 rows")
}

/// The same bits, or NaN both.
fn same_sum(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn encode_matches_from_tensor_and_the_fake_path_on_hostile_input() {
    let mut inputs: Vec<Tensor2> = [1usize, 2, 5, 6, 96, 128].map(hostile).to_vec();
    inputs.push(Tensor2::zeros(0, 128));
    inputs.push(Tensor2::zeros(0, 0));
    for x in &inputs {
        let cols = x.cols();
        for k in [0usize, 1, 4, 8, 300] {
            for inlier_bits in [Bits::Int4, Bits::Int8] {
                let scheme = QuantScheme {
                    inlier_bits,
                    outliers: k,
                };
                let what = format!("{scheme}, {:?}", x.shape());
                let under_pool = |threads: usize| {
                    with_pool(&Pool::new_exact(threads), || {
                        QuantizedTensor::encode(x, scheme)
                    })
                };
                let (encoded, error) = under_pool(1);
                // The budget is clamped as the fake path clamps it, and the
                // levels are the panicking constructor's under that budget.
                let applied = QuantScheme {
                    outliers: k.min(cols.saturating_sub(1)),
                    ..scheme
                };
                assert_eq!(encoded.scheme(), applied, "{what}");
                assert_eq!(encoded, QuantizedTensor::from_tensor(x, applied), "{what}");
                let fake: QuantError = fake_quantize_tokens(&mut x.clone(), scheme);
                assert!(
                    same_sum(error.err_sq, fake.err_sq) && same_sum(error.val_sq, fake.val_sq),
                    "{what}: {error:?} vs {fake:?}"
                );
                for threads in [2, 4] {
                    let (pooled, pooled_error) = under_pool(threads);
                    assert_eq!(pooled, encoded, "{what}: levels under pool {threads}");
                    assert_eq!(
                        [pooled_error.err_sq, pooled_error.val_sq].map(f64::to_bits),
                        [error.err_sq, error.val_sq].map(f64::to_bits),
                        "{what}: sums under pool {threads}"
                    );
                }
            }
        }
    }
}
