//! Seeded property tests for quantization and the Fig. 7 memory layout:
//! each property runs over `CASES` inputs drawn from `ln_tensor::rng`
//! streams keyed by the property's name and the case index, so a failure
//! names a case that replays.

use ln_quant::layout::{decode_levels, TokenBlock};
use ln_quant::scheme::{Bits, QuantScheme};
use ln_quant::tensor::QuantizedTensor;
use ln_quant::token::quantize_value;
use ln_tensor::rng::{self, Rng, StdRng};
use ln_tensor::Tensor2;
use std::collections::HashSet;

const CASES: u64 = 256;

const ALL_BITS: [Bits; 3] = [Bits::Int4, Bits::Int8, Bits::Int16];

/// Runs `property` on one fresh stream per case.
fn for_each_case(name: &str, mut property: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = rng::stream_indexed(&format!("quant/properties/{name}"), case);
        property(case, &mut rng);
    }
}

/// Any inlier precision with 0–7 outliers.
fn arb_scheme(rng: &mut StdRng) -> QuantScheme {
    QuantScheme {
        inlier_bits: ALL_BITS[rng.gen_range(0..ALL_BITS.len())],
        outliers: rng.gen_range(0..8usize),
    }
}

/// 16–127 channels uniform in `[-1000, 1000)`: always more channels than
/// `arb_scheme` has outliers.
fn arb_token(rng: &mut StdRng) -> Vec<f32> {
    let len = rng.gen_range(16..128usize);
    (0..len)
        .map(|_| rng.gen::<f32>() * 2000.0 - 1000.0)
        .collect()
}

fn outlier_set(indices: &[u8]) -> HashSet<usize> {
    indices.iter().map(|&i| i as usize).collect()
}

/// `values` encoded as a one-token container.
fn encoded(values: &[f32], scheme: QuantScheme) -> QuantizedTensor {
    let x = Tensor2::from_vec(1, values.len(), values.to_vec()).expect("one row");
    QuantizedTensor::from_tensor(&x, scheme)
}

/// A one-token container's Fig. 7 bytes.
fn bytes_of(q: &QuantizedTensor) -> Vec<u8> {
    let blocks = q.to_blocks();
    blocks
        .iter()
        .flat_map(TokenBlock::as_bytes)
        .copied()
        .collect()
}

#[test]
fn round_trip_error_bounded_by_half_step() {
    let check = |case: &str, values: &[f32], scheme: QuantScheme| {
        let q = encoded(values, scheme);
        let back = q.decode();
        let outliers = outlier_set(q.outliers(0).1);
        let (inlier_scale, outlier_scale) = q.scales(0);
        for (i, (&a, &b)) in values.iter().zip(back.row(0)).enumerate() {
            // 0.502: f32 rounding in the divide/multiply can push the error
            // marginally past the ideal half-step bound.
            let tol = if outliers.contains(&i) {
                outlier_scale * 0.502 + 1e-5
            } else {
                inlier_scale * 0.502 + 1e-5
            };
            assert!(
                (a - b).abs() <= tol,
                "{case} {scheme} ch {i}: {a} vs {b} tol {tol}"
            );
        }
    };
    // A shrunk failure once recorded for this property: two large channels
    // of opposite sign, fourteen zeros, INT16 with no outliers.
    let mut recorded = vec![0.0f32; 16];
    recorded[..2].copy_from_slice(&[720.35205, -983.3063]);
    let int16 = QuantScheme {
        inlier_bits: Bits::Int16,
        outliers: 0,
    };
    check("recorded case", &recorded, int16);
    for_each_case("round_trip", |case, rng| {
        let (values, scheme) = (arb_token(rng), arb_scheme(rng));
        check(&format!("case {case}"), &values, scheme);
    });
}

#[test]
fn encode_decode_is_identity_on_dequantized_values() {
    for_each_case("encode_decode", |case, rng| {
        let (values, scheme) = (arb_token(rng), arb_scheme(rng));
        let q = encoded(&values, scheme);
        let bytes = bytes_of(&q);
        assert_eq!(bytes.len(), scheme.token_bytes(values.len()), "case {case}");
        let levels = decode_levels(&bytes, scheme, values.len()).expect("fresh encoding decodes");
        assert_eq!(levels.decode(), q.decode(), "case {case} {scheme}");
        assert_eq!(levels, q, "case {case} {scheme}");
    });
}

#[test]
fn truncation_is_always_detected() {
    for_each_case("truncation", |case, rng| {
        let (values, scheme) = (arb_token(rng), arb_scheme(rng));
        let bytes = bytes_of(&encoded(&values, scheme));
        let cut = rng.gen_range(1..16usize.min(bytes.len()));
        let truncated = &bytes[..bytes.len() - cut];
        assert!(
            decode_levels(truncated, scheme, values.len()).is_err(),
            "case {case} {scheme}: {cut} bytes short went unnoticed"
        );
    });
}

#[test]
fn outlier_selection_covers_largest_magnitudes() {
    for_each_case("outlier_selection", |case, rng| {
        let values = arb_token(rng);
        let scheme = QuantScheme::int8_with_outliers(rng.gen_range(1..8usize));
        let selected = outlier_set(encoded(&values, scheme).outliers(0).1);
        let min_outlier = selected
            .iter()
            .map(|&i| values[i].abs())
            .fold(f32::INFINITY, f32::min);
        for (i, &v) in values.iter().enumerate() {
            if !selected.contains(&i) {
                assert!(v.abs() <= min_outlier + 1e-6, "case {case} ch {i}");
            }
        }
    });
}

#[test]
fn more_outliers_never_hurt_inlier_scale() {
    for_each_case("more_outliers", |case, rng| {
        let values = arb_token(rng);
        let (s0, _) = encoded(&values, QuantScheme::int8_with_outliers(0)).scales(0);
        let (s4, _) = encoded(&values, QuantScheme::int8_with_outliers(4)).scales(0);
        assert!(s4 <= s0 + 1e-9, "case {case}: {s4} vs {s0}");
    });
}

#[test]
fn quantize_value_stays_in_range() {
    for_each_case("value_range", |case, rng| {
        let v = rng.gen::<f32>() * 2e6 - 1e6;
        let scale = 0.001 + rng.gen::<f32>() * 99.999;
        for bits in ALL_BITS {
            let q = quantize_value(v, scale, bits) as i32;
            assert!(q.abs() <= bits.max_level(), "case {case}: {v} / {scale}");
        }
    });
}

#[test]
fn block_encoding_matches_sum_of_tokens() {
    for_each_case("block_encoding", |case, rng| {
        let n_tokens = rng.gen_range(1..12usize);
        let scheme = arb_scheme(rng);
        let channels = 64usize;
        let x = Tensor2::from_fn(n_tokens, channels, |t, c| {
            ((t * 31 + c * 7) % 41) as f32 - 20.0
        });
        let blocks = QuantizedTensor::from_tensor(&x, scheme).to_blocks();
        assert_eq!(
            blocks.iter().map(TokenBlock::encoded_bytes).sum::<usize>(),
            n_tokens * scheme.token_bytes(channels),
            "case {case}"
        );
        let decoded = QuantizedTensor::from_blocks(&blocks, scheme)
            .expect("fresh blocks decode")
            .decode();
        for t in 0..n_tokens {
            let token = encoded(x.row(t), scheme).decode();
            assert_eq!(token.row(0), decoded.row(t), "case {case} {scheme}");
        }
    });
}

#[test]
fn decoder_never_panics_on_fuzzed_bytes() {
    // Failure injection: arbitrary byte corruption must either decode to
    // the right number of values (NaN scale factors are possible after bit
    // flips) or return a structured error — never panic.
    for_each_case("fuzzed_bytes", |case, rng| {
        let (values, scheme) = (arb_token(rng), arb_scheme(rng));
        let mut bytes = bytes_of(&encoded(&values, scheme));
        for _ in 0..rng.gen_range(1..8usize) {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] ^= rng.gen_range(0..255u32) as u8;
        }
        match decode_levels(&bytes, scheme, values.len()) {
            Ok(q) => assert_eq!(q.decode().shape(), (1, values.len()), "case {case}"),
            Err(e) => assert!(!e.to_string().is_empty(), "case {case}"),
        }
    });
}

#[test]
fn token_bytes_monotone_in_outliers_for_int4() {
    // Each outlier costs 3 bytes (value + index) but saves half an inlier
    // byte: growing for INT4. Exhaustive over the old strategy's range.
    for k in 0..16usize {
        let a = QuantScheme::int4_with_outliers(k).token_bytes(128);
        let b = QuantScheme::int4_with_outliers(k + 1).token_bytes(128);
        assert!(b >= a, "k = {k}");
    }
}
