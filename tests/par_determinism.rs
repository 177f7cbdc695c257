//! Cross-crate determinism guarantees for the ln-par runtime: every
//! parallelised kernel must be **bitwise identical** to its serial execution
//! for any pool size, because each output row is owned by exactly one worker
//! and the per-row arithmetic order never changes (DESIGN.md §9).
//!
//! Fixed inputs first; the two seeded properties at the bottom widen the
//! input space over `ln_tensor::rng` streams keyed by the property's name
//! and the case index, so a failure names a case that replays.

use lightnobel::hook::AaqHook;
use ln_par::{with_pool, Pool};
use ln_ppm::blocks::{FoldingBlock, TriangleDirection, TriangularMultiplication};
use ln_ppm::taps::{ActivationHook, NoopHook};
use ln_ppm::PpmConfig;
use ln_quant::layout::TokenBlock;
use ln_quant::qgemm::{qgemm, QuantizedWeights, MR};
use ln_quant::scheme::{Group, QuantScheme};
use ln_quant::tensor::QuantizedTensor;
use ln_quant::token::fake_quantize_tokens;
use ln_tensor::rng::{fill_normal, stream, stream_indexed, Rng};
use ln_tensor::{Tensor2, Tensor3};

/// Pool sizes exercised by every test: serial, minimal parallel, and a size
/// guaranteed to exceed the chunk count of the smallest inputs.
const POOL_SIZES: [usize; 3] = [1, 2, 4];

fn seeded_tensor2(label: &str, rows: usize, cols: usize) -> Tensor2 {
    let mut rng = stream(label);
    let mut data = vec![0.0f32; rows * cols];
    fill_normal(&mut rng, &mut data, 1.0);
    Tensor2::from_vec(rows, cols, data).expect("shape matches data")
}

/// An `(ns, ns, hz)` pair representation drawn from the stream `label`.
fn seeded_pair(label: &str, ns: usize, hz: usize) -> Tensor3 {
    let mut rng = stream(label);
    let mut data = vec![0.0f32; ns * ns * hz];
    fill_normal(&mut rng, &mut data, 0.5);
    Tensor3::from_vec(ns, ns, hz, data).expect("shape matches data")
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` under a one-thread pool, then under each multi-thread pool size,
/// asserting that every parallel result is byte-identical to the serial one.
fn assert_pool_invariant<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) {
    let serial = with_pool(&Pool::new(1), &f);
    for threads in POOL_SIZES {
        let parallel = with_pool(&Pool::new_exact(threads), &f);
        assert_eq!(serial, parallel, "diverged at pool size {threads}");
    }
}

#[test]
fn matmul_is_bitwise_pool_invariant() {
    // 37x53: deliberately not a multiple of any block or chunk size, so the
    // row-chunk boundaries land mid-block in every pool configuration.
    let a = seeded_tensor2("par-det/matmul/a", 37, 53);
    let b = seeded_tensor2("par-det/matmul/b", 53, 29);
    assert_pool_invariant(|| bits(a.matmul(&b).expect("shapes agree").as_slice()));
}

#[test]
fn matmul_transposed_is_bitwise_pool_invariant() {
    let a = seeded_tensor2("par-det/matmul_t/a", 41, 23);
    let b = seeded_tensor2("par-det/matmul_t/b", 31, 23);
    assert_pool_invariant(|| {
        bits(
            a.matmul_transposed(&b)
                .expect("shared inner dimension")
                .as_slice(),
        )
    });
}

#[test]
fn matmul_edge_shapes_are_pool_invariant() {
    // Empty output and a single owned row: the smallest ownership units.
    for (m, k, n) in [(0, 4, 4), (1, 7, 5), (2, 1, 1)] {
        let a = seeded_tensor2("par-det/matmul-edge/a", m, k);
        let b = seeded_tensor2("par-det/matmul-edge/b", k, n);
        assert_pool_invariant(|| bits(a.matmul(&b).expect("shapes agree").as_slice()));
    }
}

#[test]
fn aaq_fake_quantize_is_bitwise_pool_invariant() {
    // One Hz-wide token matrix, one wide enough to quantize in four
    // 128-channel segments (the transition's hidden width), and one score
    // matrix (narrower than a segment, no outlier budget).
    for (rows, cols, scheme) in [
        (33, 128, QuantScheme::int4_with_outliers(4)),
        (40, 512, QuantScheme::int8_with_outliers(4)),
        (96, 96, QuantScheme::int4_with_outliers(0)),
    ] {
        // Spiky activations so the outlier top-k path participates.
        let mut x = seeded_tensor2("par-det/aaq", rows, cols);
        for t in 0..rows {
            x.as_mut_slice()[t * cols + (t * 7) % cols] *= 50.0;
        }
        assert_pool_invariant(|| {
            let mut q = x.clone();
            fake_quantize_tokens(&mut q, scheme);
            bits(q.as_slice())
        });
    }
}

#[test]
fn aaq_block_round_trip_is_pool_invariant() {
    let scheme = QuantScheme::int4_with_outliers(2);
    let x = seeded_tensor2("par-det/block", 19, 64);
    assert_pool_invariant(|| {
        let blocks = QuantizedTensor::from_tensor(&x, scheme).to_blocks();
        let decoded = QuantizedTensor::from_blocks(&blocks, scheme).expect("round trip");
        (
            blocks
                .iter()
                .flat_map(TokenBlock::as_bytes)
                .copied()
                .collect::<Vec<u8>>(),
            bits(decoded.decode().as_slice()),
        )
    });
}

#[test]
fn qgemm_is_bitwise_pool_invariant() {
    // 37 tokens: ten groups of MR, the last one partial, cut into chunks
    // of 5, 3 and 2 groups by the three pools. Encoding runs inside the
    // pool too, so the level panel is packed under every chunking.
    let tokens = 37;
    assert_ne!(tokens % MR, 0);
    let mut x = seeded_tensor2("par-det/qgemm/x", tokens, 128);
    for t in 0..tokens {
        x.as_mut_slice()[t * 128 + (t * 7) % 128] *= 50.0;
    }
    let w = QuantizedWeights::from_tensor(&seeded_tensor2("par-det/qgemm/w", 128, 43));
    let bias = seeded_tensor2("par-det/qgemm/bias", 1, 43);
    for scheme in [
        QuantScheme::int4_with_outliers(4),
        QuantScheme::int8_with_outliers(4),
    ] {
        assert_pool_invariant(|| {
            let q = QuantizedTensor::from_tensor(&x, scheme);
            bits(
                qgemm(&q, &w, bias.as_slice())
                    .expect("shapes agree")
                    .as_slice(),
            )
        });
    }
}

#[test]
fn evoformer_block_is_bitwise_pool_invariant() {
    let cfg = PpmConfig::tiny();
    let block = FoldingBlock::new(&cfg, "par-det", 0);
    let ns = 9;
    let seq0 = seeded_tensor2("par-det/evo/seq", ns, cfg.hm);
    let pair0 = seeded_pair("par-det/evo/pair", ns, cfg.hz);
    assert_pool_invariant(|| {
        let mut seq = seq0.clone();
        let mut pair = pair0.clone();
        block
            .forward(&mut seq, &mut pair, &mut NoopHook, 0, 0)
            .expect("tiny config is valid");
        (bits(seq.as_slice()), bits(pair.as_slice()))
    });
}

#[test]
fn triangular_multiplication_is_pool_invariant_where_its_einsum_splits() {
    // At the tiny widths above one einsum row is 5 184 flops against a
    // 4 Mflop grain, so the kernel only ever runs there as one chunk. At
    // the standard widths and ns = 40 a row is 409 600 flops and the
    // product runs in row blocks of 26 and 14 rows: one chunk a block on a
    // one-thread pool, two or three on pools of 2 and 4 — the split a real
    // fold makes, each chunk packing its own left panels.
    let cfg = PpmConfig::standard();
    let ns = 40;
    let pair0 = seeded_pair("par-det/tri-mul/pair", ns, cfg.hz);
    for direction in [TriangleDirection::Outgoing, TriangleDirection::Incoming] {
        let unit = TriangularMultiplication::new(&cfg, "par-det", direction);
        assert_pool_invariant(|| {
            let mut pair = pair0.clone();
            unit.forward(&mut pair, &mut NoopHook, 0, 0)
                .expect("standard config is valid");
            bits(pair.as_slice())
        });
    }
}

#[test]
fn chunked_evoformer_block_is_pool_invariant_and_tracks_the_unchunked_block() {
    // attention_chunk = 4 over ns = 9: two full blocks of query rows and a
    // 1-row tail per (lane, head), lanes split across the pool.
    let ns = 9;
    let unchunked_cfg = PpmConfig::tiny();
    let chunked_cfg = PpmConfig {
        attention_chunk: Some(4),
        ..PpmConfig::tiny()
    };
    let seq0 = seeded_tensor2("par-det/evo-chunked/seq", ns, chunked_cfg.hm);
    let pair0 = seeded_pair("par-det/evo-chunked/pair", ns, chunked_cfg.hz);
    let run = |cfg: &PpmConfig, hook: &mut dyn ActivationHook| {
        let block = FoldingBlock::new(cfg, "par-det", 0);
        let mut seq = seq0.clone();
        let mut pair = pair0.clone();
        block
            .forward(&mut seq, &mut pair, hook, 0, 0)
            .expect("tiny config is valid");
        (bits(seq.as_slice()), bits(pair.as_slice()))
    };
    assert_pool_invariant(|| run(&chunked_cfg, &mut NoopHook));
    assert_eq!(
        run(&chunked_cfg, &mut NoopHook),
        run(&unchunked_cfg, &mut NoopHook)
    );

    // Chunk + AAQ: under a hook that observes them, tri-attn's lanes run
    // in lane order on the calling thread, each lane's taps — every block
    // of score rows among them — one after another, so the hook's f64
    // error sums have one order whatever the pool and its totals are
    // bit-equal across pools.
    let run_aaq = |cfg: &PpmConfig| {
        let mut hook = AaqHook::paper();
        let (_, pair) = run(cfg, &mut hook);
        let rmse = [Group::A, Group::B, Group::C].map(|g| hook.relative_rmse(g));
        (pair, hook.encoded_bytes(), hook.fp16_bytes(), rmse)
    };
    assert_pool_invariant(|| {
        let (pair, encoded, _, rmse) = run_aaq(&chunked_cfg);
        (pair, encoded, rmse.map(f64::to_bits))
    });
    // Against the unchunked block: the same bits and — integer per-token
    // sums — the same bytes exactly; the error sums add per tap, so
    // grouping a lane's rows into blocks reorders f64 additions and they
    // agree to rounding, not by bits.
    let (pair_c, encoded_c, fp16_c, rmse_c) = run_aaq(&chunked_cfg);
    let (pair_u, encoded_u, fp16_u, rmse_u) = run_aaq(&unchunked_cfg);
    assert_eq!(pair_c, pair_u);
    assert_eq!((encoded_c, fp16_c), (encoded_u, fp16_u));
    for (c, u) in rmse_c.iter().zip(rmse_u) {
        assert!(u > 0.0 && (c - u).abs() <= 1e-12 * u, "{c} vs {u}");
    }
}

#[test]
fn layernorm_and_softmax_are_pool_invariant() {
    use ln_tensor::nn::{softmax_rows, LayerNorm};
    let ln = LayerNorm::new(48);
    let x = seeded_tensor2("par-det/ln", 27, 48);
    assert_pool_invariant(|| {
        let normed = ln.forward(&x).expect("channel counts match");
        let soft = softmax_rows(&x);
        (bits(normed.as_slice()), bits(soft.as_slice()))
    });
}

/// Cases per seeded property (each runs under four pools).
const CASES: u64 = 32;

#[test]
fn matmul_is_pool_invariant_for_arbitrary_shapes() {
    for case in 0..CASES {
        let mut rng = stream_indexed("par-det/properties/matmul", case);
        let (m, k, n) = (
            rng.gen_range(0..24usize),
            rng.gen_range(1..24usize),
            rng.gen_range(1..24usize),
        );
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill_normal(&mut rng, &mut a, 1.0);
        fill_normal(&mut rng, &mut b, 1.0);
        let a = Tensor2::from_vec(m, k, a).expect("shape matches data");
        let b = Tensor2::from_vec(k, n, b).expect("shape matches data");
        // The case rides along so that a divergence prints it.
        assert_pool_invariant(|| (case, bits(a.matmul(&b).expect("shapes agree").as_slice())));
    }
}

#[test]
fn aaq_is_pool_invariant_for_arbitrary_tokens() {
    let scheme = QuantScheme::int4_with_outliers(2);
    for case in 0..CASES {
        let mut rng = stream_indexed("par-det/properties/aaq", case);
        let rows = rng.gen_range(1..32usize);
        let mut data = vec![0.0f32; rows * 16];
        fill_normal(&mut rng, &mut data, 10.0);
        let x = Tensor2::from_vec(rows, 16, data).expect("shape matches data");
        assert_pool_invariant(|| {
            let mut q = x.clone();
            fake_quantize_tokens(&mut q, scheme);
            (case, bits(q.as_slice()))
        });
    }
}
