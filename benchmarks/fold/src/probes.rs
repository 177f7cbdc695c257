//! Kernel probes: public kernels of `ln-tensor` and `ln-quant` timed on
//! the workload's own Group-A tokens (the folded pair representation,
//! L² × Hz) at the trunk's shapes. They say what a kernel sustains on its
//! own, next to what the fold got out of it.

use ln_quant::qgemm::{MacMode, QLinear};
use ln_quant::scheme::{AaqConfig, Group};
use ln_quant::tensor::QuantizedTensor;
use ln_quant::token::fake_quantize_tokens;
use ln_tensor::nn::{self, LayerNorm, Linear};
use ln_tensor::Tensor2;
use std::hint::black_box;
use std::time::Instant;

/// Output width of the probed projection: the pair transition's
/// expansion, Hz → 4·Hz, the widest GEMM of the trunk.
const PROBE_OUT_FEATURES: usize = 512;

/// Each probe runs this many times and reports its median.
const REPEATS: usize = 3;

pub const NAMES: [&str; 10] = [
    "tensor.gemm_probe_gflops",
    "tensor.layernorm_probe_mtok_s",
    "tensor.softmax_probe_mrow_s",
    "quant.fakeq_probe_mtok_s",
    "quant.encode_probe_mtok_s",
    "quant.qgemm_int8_probe_gops",
    "quant.qgemm_int4_probe_gops",
    "quant.qgemm_vs_fp32_probe_ratio",
    "quant.codec_encode_probe_mb_s",
    "quant.codec_decode_probe_mb_s",
];

/// Median seconds of `f` over [`REPEATS`] runs; `prepare` makes each
/// run's input outside the timed part.
fn median_seconds<I, R>(mut prepare: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> f64 {
    let seconds: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let input = prepare();
            let started = Instant::now();
            black_box(f(black_box(input)));
            started.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&seconds)
}

/// Runs every probe on `tokens`, the `(len², hz)` token matrix of a fold's
/// pair representation. Values come in the order of [`NAMES`].
pub fn run(tokens: &Tensor2, len: usize) -> Vec<(&'static str, f64)> {
    let (rows, hz) = tokens.shape();
    let aaq = AaqConfig::paper();
    let linear = Linear::deterministic("foldbench/probe", hz, PROBE_OUT_FEATURES, 0.5);
    let qlinear = QLinear::from_linear(&linear);
    let norm = LayerNorm::deterministic_scaled("foldbench/probe_ln", hz, 0.2, 5.0);
    let gemm_ops = (2 * rows * hz * PROBE_OUT_FEATURES) as f64;
    let mtok = rows as f64 / 1e6;

    let gemm_s = median_seconds(|| (), |()| linear.forward(tokens));
    let layernorm_s = median_seconds(|| (), |()| norm.forward(tokens));
    // Post-LayerNorm (Group B) tokens: what the trunk encodes and feeds
    // its quantized-domain projections.
    let post_ln = norm.forward(tokens).expect("probe shapes agree");
    // The same values as rows of `len` scores, the shape of one head's
    // attention rows.
    let scores = Tensor2::from_vec(rows * hz / len, len, tokens.as_slice().to_vec())
        .expect("len divides len² · hz");
    let softmax_s = median_seconds(|| (), |()| nn::softmax_rows(&scores));

    let fakeq_s = median_seconds(
        || tokens.clone(),
        |mut x| {
            fake_quantize_tokens(&mut x, aaq.scheme_for(Group::A));
            x
        },
    );
    let encode_s = median_seconds(
        || (),
        |()| QuantizedTensor::from_tensor(&post_ln, aaq.scheme_for(Group::B)),
    );
    // INT8 inliers take the direct MAC, INT4 inliers the bit-chunked one,
    // as `mac_mode_for` in the trunk chooses.
    let q_int8 = QuantizedTensor::from_tensor(&post_ln, aaq.scheme_for(Group::A));
    let q_int4 = QuantizedTensor::from_tensor(&post_ln, aaq.scheme_for(Group::B));
    let qgemm_int8_s = median_seconds(|| (), |()| qlinear.forward(&q_int8, MacMode::Direct));
    let qgemm_int4_s = median_seconds(|| (), |()| qlinear.forward(&q_int4, MacMode::BitChunked));

    let encoded_mb = q_int4.encoded_bytes() as f64 / 1e6;
    let codec_encode_s = median_seconds(|| (), |()| q_int4.to_blocks());
    let blocks = q_int4.to_blocks();
    let codec_decode_s = median_seconds(
        || (),
        |()| {
            QuantizedTensor::from_blocks(&blocks, q_int4.scheme())
                .expect("blocks just encoded decode")
                .decode()
        },
    );

    let values = [
        gemm_ops / 1e9 / gemm_s,
        mtok / layernorm_s,
        scores.rows() as f64 / 1e6 / softmax_s,
        mtok / fakeq_s,
        mtok / encode_s,
        gemm_ops / 1e9 / qgemm_int8_s,
        gemm_ops / 1e9 / qgemm_int4_s,
        // The post-LN projections of the paper's scheme are INT4: below 1
        // means the quantized domain beats the FP32 GEMM of equal shape.
        qgemm_int4_s / gemm_s,
        encoded_mb / codec_encode_s,
        encoded_mb / codec_decode_s,
    ];
    NAMES.into_iter().zip(values).collect()
}
