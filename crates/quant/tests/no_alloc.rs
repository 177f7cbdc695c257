//! The runtime quantizer touches no heap memory per token.
//!
//! This binary runs on the shared counting global allocator (counts are
//! per thread, so the harness's other test threads do not disturb them)
//! and checks that `fake_quantize_tokens`, `QuantizedTensor::from_tensor`,
//! `QuantizedTensor::decode` and `qgemm` make the same number of
//! allocations whatever the number of tokens, and that an encoded tensor
//! keeps no more bytes resident than its panel, scales and outliers. Under
//! a one-thread pool every kernel runs inline on the calling thread.

use ln_par::{with_pool, Pool};
use ln_quant::qgemm::{qgemm, MacMode, QuantizedWeights};
use ln_quant::scheme::QuantScheme;
use ln_quant::tensor::QuantizedTensor;
use ln_quant::token::fake_quantize_tokens;
use ln_tensor::Tensor2;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Allocations of any size this thread makes while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    counting_alloc::allocations_in(0, f)
}

fn spiky(rows: usize, cols: usize) -> Tensor2 {
    Tensor2::from_fn(rows, cols, |i, j| {
        let v = ((i * 31 + j * 17) % 41) as f32 * 0.1 - 2.0;
        if (i + j) % 29 == 0 {
            v * 40.0
        } else {
            v
        }
    })
}

#[test]
fn the_counter_sees_an_allocation() {
    let (n, v) = allocations_in(|| vec![1u8; 100]);
    assert_eq!((n, v.len()), (1, 100));
}

#[test]
fn fake_quantize_allocates_nothing_per_token() {
    with_pool(&Pool::new_exact(1), || {
        for scheme in [
            QuantScheme::int4_with_outliers(0),
            QuantScheme::int8_with_outliers(4),
        ] {
            let mut small = spiky(64, 128);
            let mut large = spiky(1024, 128);
            // The first call registers the kernel timer.
            fake_quantize_tokens(&mut small.clone(), scheme);
            let (few, _) = allocations_in(|| fake_quantize_tokens(&mut small, scheme));
            let (many, _) = allocations_in(|| fake_quantize_tokens(&mut large, scheme));
            assert_eq!(few, many, "{scheme}: 64 tokens vs 1024 tokens");
        }
    });
}

#[test]
fn from_tensor_allocates_nothing_per_token() {
    with_pool(&Pool::new_exact(1), || {
        for scheme in [
            QuantScheme::int4_with_outliers(0),
            QuantScheme::int4_with_outliers(4),
            QuantScheme::int8_with_outliers(4),
        ] {
            let (small, large) = (spiky(1024, 128), spiky(9216, 128));
            // The first call registers the kernel timer.
            QuantizedTensor::from_tensor(&small, scheme);
            let (few, _) = allocations_in(|| QuantizedTensor::from_tensor(&small, scheme));
            let (many, _) = allocations_in(|| QuantizedTensor::from_tensor(&large, scheme));
            assert_eq!(few, many, "{scheme}: 1024 tokens vs 9216 tokens");
            assert!(many <= 16, "{scheme}: {many} allocations");
        }
    });
}

#[test]
fn an_encoded_tensor_keeps_its_panel_scales_and_outliers_and_no_more() {
    with_pool(&Pool::new_exact(1), || {
        let (tokens, channels) = (9216, 128);
        let x = spiky(tokens, channels);
        let scheme = QuantScheme::int4_with_outliers(4);
        QuantizedTensor::from_tensor(&x, scheme);
        let (kept, q) = counting_alloc::bytes_kept_by(|| QuantizedTensor::from_tensor(&x, scheme));
        // One i16 a level, two f32 scales, an i16 and a u8 an outlier:
        // 256 + 8 + 8 + 4 bytes a token, under the 512 of its f32 row.
        let per_token = 2 * channels + 8 + 3 * scheme.outliers;
        assert!(
            kept <= tokens * 280,
            "{} bytes a token resident",
            kept as f64 / tokens as f64
        );
        assert!(kept >= tokens * per_token, "{kept} bytes cannot hold it");
        assert_eq!(q.num_tokens(), tokens);
    });
}

#[test]
fn decode_allocates_only_its_output() {
    with_pool(&Pool::new_exact(1), || {
        let scheme = QuantScheme::int4_with_outliers(4);
        let small = QuantizedTensor::from_tensor(&spiky(64, 128), scheme);
        let large = QuantizedTensor::from_tensor(&spiky(1024, 128), scheme);
        let (few, _) = allocations_in(|| small.decode());
        let (many, _) = allocations_in(|| large.decode());
        assert_eq!((few, many), (1, 1), "the output tensor and nothing else");
        let mut out = vec![0.0f32; 1024 * 128];
        let (none, ()) = allocations_in(|| large.dequantize_into(&mut out));
        assert_eq!(none, 0);
    });
}

#[test]
fn qgemm_allocates_only_its_output() {
    with_pool(&Pool::new_exact(1), || {
        let w = QuantizedWeights::from_tensor(&spiky(128, 43));
        let bias = [0.25f32; 43];
        for scheme in [
            QuantScheme::int4_with_outliers(4),
            QuantScheme::int8_with_outliers(4),
        ] {
            let small = QuantizedTensor::from_tensor(&spiky(61, 128), scheme);
            let large = QuantizedTensor::from_tensor(&spiky(1021, 128), scheme);
            for mode in [MacMode::Direct, MacMode::BitChunked] {
                // The first call registers the kernel timer.
                qgemm(&small, &w, &bias, mode).expect("shapes agree");
                let (few, _) = allocations_in(|| qgemm(&small, &w, &bias, mode));
                let (many, _) = allocations_in(|| qgemm(&large, &w, &bias, mode));
                assert_eq!((few, many), (1, 1), "{scheme} {mode:?}: the output tensor");
            }
        }
    });
}
