//! Encoding a fake-quantized activation gives the encoding of the
//! activation itself.
//!
//! In the quantized domain the fold's post-LayerNorm tap first rewrites
//! the activation with `fake_quantize_tokens`, and the trunk then encodes
//! what the tap left with `QuantizedTensor::from_tensor`. Producing the
//! encoding once, at the tap, is only the same computation if the second
//! encoding reproduces the first: every inlier level, both scales of every
//! token, every outlier level and every outlier index. Its scales are
//! re-derived from values already on the first one's grid, so this is a
//! property to check, not one to assume.

use ln_quant::scheme::{AaqConfig, Group, QuantScheme};
use ln_quant::tensor::QuantizedTensor;
use ln_quant::token::{fake_quantize_tokens, QuantizedToken};
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

/// The first part of `b` that is not `a`'s, bit for bit.
fn first_difference(a: &QuantizedToken, b: &QuantizedToken) -> Option<String> {
    let scales = |q: &QuantizedToken| [q.inlier_scale(), q.outlier_scale()].map(f32::to_bits);
    if a.inliers() != b.inliers() {
        Some("inlier levels".into())
    } else if scales(a) != scales(b) {
        Some(format!(
            "scales {:?} → {:?}",
            (a.inlier_scale(), a.outlier_scale()),
            (b.inlier_scale(), b.outlier_scale())
        ))
    } else if a.outliers() != b.outliers() {
        Some("outlier levels".into())
    } else if a.outlier_indices() != b.outlier_indices() {
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
                .filter_map(|t| Some((t, first_difference(&direct.token(t), &again.token(t))?)))
                .collect();
            assert!(
                differences.is_empty(),
                "{scheme}, {cols} channels: {differences:?}"
            );
        }
    }
}
