//! Quantized-domain GEMM: integer matmul over AAQ-encoded activations
//! against INT8 weights, with a single dequantization epilogue — the
//! paper's RMPU execution model (§5.2), software edition.
//!
//! Where [`crate::tensor::QuantizedTensor::matmul`] multiplies integer
//! levels against *full-precision* weights (one float multiply per MAC),
//! this module keeps both operands integer: activations stay in their
//! encoded levels, weights are per-output-column symmetric INT8, and the
//! inner loop is pure `i32` multiply-accumulate. Scaling factors — the
//! token's dynamic σ and the weight column's σw — touch each output
//! element exactly once, in the epilogue.
//!
//! [`MacMode::BitChunked`] additionally reproduces the RMPU's bit-serial
//! MAC: every activation level splits into 4-bit chunks, each chunk
//! accumulates independently, and the partial sums recombine by shifted
//! addition. Because the split is exact integer arithmetic, the
//! bit-chunked product equals the direct product bit for bit — the
//! property that lets the hardware run INT4 natively and INT8/INT16 as
//! multi-pass without any accuracy cliff (and lets a test pin the two
//! modes equal here).

use crate::scheme::Bits;
use crate::tensor::QuantizedTensor;
use ln_tensor::nn::Linear;
use ln_tensor::{simd, Tensor2, TensorError};

/// Per-output-column symmetric INT8 weights for the quantized-domain GEMM.
///
/// Layout matches [`ln_tensor::nn::Linear`]: `(in_features, out_features)`
/// row-major levels, so activations `(tokens, in)` map to `(tokens, out)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedWeights {
    in_features: usize,
    out_features: usize,
    /// INT8 levels, row-major `(in, out)`.
    levels: Vec<i8>,
    /// Per-output-column scaling factor σw.
    scales: Vec<f32>,
}

impl QuantizedWeights {
    /// Quantizes a full-precision `(in, out)` weight matrix with one
    /// symmetric INT8 scale per output column.
    pub fn from_tensor(w: &Tensor2) -> Self {
        let (in_features, out_features) = w.shape();
        let mut scales = vec![0.0f32; out_features];
        for row in w.iter_rows() {
            for (s, &v) in scales.iter_mut().zip(row) {
                *s = s.max(v.abs());
            }
        }
        let max_level = Bits::Int8.max_level();
        for s in &mut scales {
            *s = crate::scale::symmetric_scale(*s, max_level);
        }
        let mut levels = Vec::with_capacity(in_features * out_features);
        for row in w.iter_rows() {
            for (j, &v) in row.iter().enumerate() {
                let q = (v / scales[j])
                    .round()
                    .clamp(-(max_level as f32), max_level as f32);
                levels.push(q as i8);
            }
        }
        QuantizedWeights {
            in_features,
            out_features,
            levels,
            scales,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Per-output-column scaling factors.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Reconstructs the full-precision weight matrix.
    pub fn decode(&self) -> Tensor2 {
        Tensor2::from_fn(self.in_features, self.out_features, |i, j| {
            self.levels[i * self.out_features + j] as f32 * self.scales[j]
        })
    }

    /// Encoded size in bytes (levels + per-column scales).
    pub fn encoded_bytes(&self) -> usize {
        self.levels.len() + self.scales.len() * 4
    }
}

/// Integer multiply-accumulate strategy for the quantized-domain GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacMode {
    /// Plain `i32` multiply-accumulate per (level, weight) pair.
    Direct,
    /// RMPU-style bit-serial MAC: activation levels split into 4-bit
    /// chunks that accumulate independently and recombine by shifted
    /// addition. Exactly equal to [`MacMode::Direct`] — the chunking is
    /// lossless integer arithmetic.
    BitChunked,
}

/// Quantized-domain GEMM: `(tokens, in)` AAQ activations × INT8 weights
/// `(in, out)`, integer inner loops, one dequantization epilogue.
///
/// Inliers accumulate in `i32` (bounded by `127 · 127 · 256` per output),
/// INT16 outliers in `i64`; the epilogue applies
/// `σ_in·σw[o]`, `σ_out·σw[o]` and the bias exactly once per element.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `x.channels() !=
/// w.in_features()` or `bias.len() != w.out_features()`.
pub fn qgemm(
    x: &QuantizedTensor,
    w: &QuantizedWeights,
    bias: &[f32],
    mode: MacMode,
) -> Result<Tensor2, TensorError> {
    if x.channels() != w.in_features || bias.len() != w.out_features {
        return Err(TensorError::ShapeMismatch {
            op: "qgemm",
            lhs: vec![x.num_tokens(), x.channels()],
            rhs: vec![w.in_features, w.out_features],
        });
    }
    let (tokens, n) = (x.num_tokens(), w.out_features);
    let mut out = Tensor2::zeros(tokens, n);
    if tokens == 0 || n == 0 {
        return Ok(out);
    }
    let toks = x.tokens();
    ln_par::metrics::time_kernel("aaq.qgemm", (tokens * n) as u64, || {
        let per_chunk = ln_par::chunk_len(tokens, QGEMM_PAR_GRAIN_TOKENS);
        ln_par::par_chunks_mut(out.as_mut_slice(), per_chunk * n, |c, chunk| {
            // Chunk-lifetime scratch: reused across the chunk's tokens so
            // the per-token loop allocates nothing.
            let mut in_acc = vec![0i32; n];
            let mut chunk_acc = vec![0i32; 4 * n];
            let mut out_acc = vec![0i64; n];
            // The integer MACs need a sign-extending byte load and a 32-bit
            // vector multiply, which baseline SSE2 has to emulate; the
            // chunk runs at the host's real width. Integer sums and the
            // per-element epilogue are exact either way.
            simd::wide(
                #[inline(always)]
                || {
                    for (local, row) in chunk.chunks_mut(n).enumerate() {
                        let q = &toks[c * per_chunk + local];
                        match mode {
                            MacMode::Direct => {
                                direct_inlier_macs(q, w, &mut in_acc);
                            }
                            MacMode::BitChunked => {
                                let chunks = q.scheme().inlier_bits.four_bit_chunks().max(1);
                                bit_chunked_inlier_macs(q, w, chunks, &mut chunk_acc, &mut in_acc);
                            }
                        }
                        outlier_macs(q, w, &mut out_acc);
                        // Dequantization epilogue: two scale applications and
                        // the bias, once per output element.
                        let si = q.inlier_scale();
                        let so = q.outlier_scale();
                        for (o, slot) in row.iter_mut().enumerate() {
                            let sw = w.scales[o];
                            *slot = in_acc[o] as f32 * (si * sw)
                                + out_acc[o] as f32 * (so * sw)
                                + bias[o];
                        }
                    }
                },
            );
        });
    });
    Ok(out)
}

/// Minimum tokens per parallel chunk for the quantized-domain GEMM.
const QGEMM_PAR_GRAIN_TOKENS: usize = 8;

/// Walks the token's inliers (channel order, outlier positions skipped —
/// a merge walk against the ascending outlier index list) and accumulates
/// `level · w[ch][·]` into `acc` as plain `i32` MACs.
#[inline(always)]
fn direct_inlier_macs(q: &crate::token::QuantizedToken, w: &QuantizedWeights, acc: &mut [i32]) {
    acc.fill(0);
    let n = w.out_features;
    let oi = q.outlier_indices();
    let mut next_out = 0usize;
    let mut inliers = q.inliers().iter();
    for ch in 0..q.channels() {
        if next_out < oi.len() && oi[next_out] as usize == ch {
            next_out += 1;
            continue;
        }
        let level = *inliers.next().expect("inlier count matches layout") as i32;
        if level == 0 {
            continue;
        }
        let wrow = &w.levels[ch * n..(ch + 1) * n];
        for (a, &wl) in acc.iter_mut().zip(wrow) {
            *a += level * wl as i32;
        }
    }
}

/// The RMPU bit-serial MAC: each inlier level splits into `chunks` 4-bit
/// pieces (low chunks unsigned, top chunk keeps the sign), every piece
/// accumulates into its own partial sum, and the partials recombine as
/// `Σ chunk_acc[c] << 4c` — exactly the direct product.
#[inline(always)]
fn bit_chunked_inlier_macs(
    q: &crate::token::QuantizedToken,
    w: &QuantizedWeights,
    chunks: usize,
    chunk_acc: &mut [i32],
    acc: &mut [i32],
) {
    let n = w.out_features;
    chunk_acc[..chunks * n].fill(0);
    let oi = q.outlier_indices();
    let mut next_out = 0usize;
    let mut inliers = q.inliers().iter();
    for ch in 0..q.channels() {
        if next_out < oi.len() && oi[next_out] as usize == ch {
            next_out += 1;
            continue;
        }
        let level = *inliers.next().expect("inlier count matches layout");
        if level == 0 {
            continue;
        }
        let wrow = &w.levels[ch * n..(ch + 1) * n];
        for c in 0..chunks {
            let piece = if c + 1 == chunks {
                // Top chunk: arithmetic shift preserves the sign.
                (level >> (4 * c)) as i32
            } else {
                ((level >> (4 * c)) & 0xF) as i32
            };
            if piece == 0 {
                continue;
            }
            let dst = &mut chunk_acc[c * n..(c + 1) * n];
            for (a, &wl) in dst.iter_mut().zip(wrow) {
                *a += piece * wl as i32;
            }
        }
    }
    // Shifted recombination (the RMPU adder tree).
    acc.fill(0);
    for c in 0..chunks {
        let src = &chunk_acc[c * n..(c + 1) * n];
        for (a, &p) in acc.iter_mut().zip(src) {
            *a += p << (4 * c);
        }
    }
}

/// Accumulates the token's INT16 outliers (a scalar loop over ≤ k
/// entries) into `acc` as `i64` MACs.
#[inline(always)]
fn outlier_macs(q: &crate::token::QuantizedToken, w: &QuantizedWeights, acc: &mut [i64]) {
    acc.fill(0);
    let n = w.out_features;
    for (&level, &idx) in q.outliers().iter().zip(q.outlier_indices()) {
        if level == 0 {
            continue;
        }
        let wrow = &w.levels[idx as usize * n..(idx as usize + 1) * n];
        for (a, &wl) in acc.iter_mut().zip(wrow) {
            *a += level as i64 * wl as i64;
        }
    }
}

/// A linear layer held entirely in the quantized domain: INT8 weights
/// plus a full-precision bias folded into the dequantization epilogue.
#[derive(Debug, Clone, PartialEq)]
pub struct QLinear {
    weights: QuantizedWeights,
    bias: Vec<f32>,
}

impl QLinear {
    /// Quantizes an existing full-precision layer.
    pub fn from_linear(linear: &Linear) -> Self {
        QLinear {
            weights: QuantizedWeights::from_tensor(linear.weight()),
            bias: linear.bias().to_vec(),
        }
    }

    /// The INT8 weight panel.
    pub fn weights(&self) -> &QuantizedWeights {
        &self.weights
    }

    /// Applies the layer to AAQ-encoded activations without leaving the
    /// quantized domain until the epilogue.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the activation width
    /// differs from the layer's input width.
    pub fn forward(&self, x: &QuantizedTensor, mode: MacMode) -> Result<Tensor2, TensorError> {
        qgemm(x, &self.weights, &self.bias, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::QuantScheme;

    fn activation() -> Tensor2 {
        Tensor2::from_fn(12, 32, |i, j| {
            let spike = if j == (i * 3) % 32 { 20.0 } else { 1.0 };
            spike * (((i * 7 + j * 5) % 13) as f32 * 0.2 - 1.2)
        })
    }

    fn weights() -> Tensor2 {
        Tensor2::from_fn(32, 8, |i, j| ((i * 11 + j * 3) % 17) as f32 * 0.1 - 0.8)
    }

    #[test]
    fn bit_chunked_equals_direct_exactly() {
        let w = QuantizedWeights::from_tensor(&weights());
        let bias: Vec<f32> = (0..8).map(|j| j as f32 * 0.05 - 0.2).collect();
        for scheme in [
            QuantScheme::int8_with_outliers(4),
            QuantScheme::int4_with_outliers(4),
            QuantScheme::int4_with_outliers(0),
        ] {
            let q = QuantizedTensor::from_tensor(&activation(), scheme);
            let direct = qgemm(&q, &w, &bias, MacMode::Direct).unwrap();
            let chunked = qgemm(&q, &w, &bias, MacMode::BitChunked).unwrap();
            for (a, b) in direct.as_slice().iter().zip(chunked.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{scheme}");
            }
        }
    }

    /// The quantized-domain product one output element at a time, in
    /// scalar integer arithmetic — nothing for a vectoriser to widen.
    fn scalar_reference(x: &QuantizedTensor, w: &QuantizedWeights, bias: &[f32]) -> Vec<f32> {
        let n = w.out_features();
        let mut out = Vec::with_capacity(x.num_tokens() * n);
        for q in x.tokens() {
            let inlier_channels: Vec<usize> = (0..q.channels())
                .filter(|ch| !q.outlier_indices().contains(&(*ch as u8)))
                .collect();
            for (o, (&sw, &b)) in w.scales.iter().zip(bias).enumerate() {
                let mut in_acc = 0i32;
                for (&level, &ch) in q.inliers().iter().zip(&inlier_channels) {
                    in_acc += level as i32 * w.levels[ch * n + o] as i32;
                }
                let mut out_acc = 0i64;
                for (&level, &ch) in q.outliers().iter().zip(q.outlier_indices()) {
                    out_acc += level as i64 * w.levels[ch as usize * n + o] as i64;
                }
                out.push(
                    in_acc as f32 * (q.inlier_scale() * sw)
                        + out_acc as f32 * (q.outlier_scale() * sw)
                        + b,
                );
            }
        }
        out
    }

    #[test]
    fn dispatched_kernels_equal_a_scalar_reference_bitwise() {
        // Trunk-like width (one 128-channel segment) and an output width
        // that leaves a remainder at 4, 8 and 16 lanes.
        let x = Tensor2::from_fn(9, 128, |i, j| {
            let spike = if j == (i * 29) % 128 { 30.0 } else { 1.0 };
            spike * (((i * 7 + j * 5) % 13) as f32 * 0.2 - 1.2)
        });
        let wt = Tensor2::from_fn(128, 43, |i, j| ((i * 11 + j * 3) % 17) as f32 * 0.1 - 0.8);
        let w = QuantizedWeights::from_tensor(&wt);
        let bias: Vec<f32> = (0..43).map(|j| j as f32 * 0.05 - 0.2).collect();
        for scheme in [
            QuantScheme::int4_with_outliers(0),
            QuantScheme::int4_with_outliers(4),
            QuantScheme::int8_with_outliers(0),
            QuantScheme::int8_with_outliers(4),
        ] {
            let q = QuantizedTensor::from_tensor(&x, scheme);
            let want = scalar_reference(&q, &w, &bias);
            for mode in [MacMode::Direct, MacMode::BitChunked] {
                let got = qgemm(&q, &w, &bias, mode).unwrap();
                let same = got
                    .as_slice()
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{scheme} {mode:?}");
            }
        }
    }

    #[test]
    fn qgemm_matches_dequantize_then_fp32_matmul_within_aaq_bound() {
        let wt = weights();
        let w = QuantizedWeights::from_tensor(&wt);
        let bias = vec![0.0f32; 8];
        for scheme in [
            QuantScheme::int8_with_outliers(4),
            QuantScheme::int4_with_outliers(4),
        ] {
            let q = QuantizedTensor::from_tensor(&activation(), scheme);
            let fast = qgemm(&q, &w, &bias, MacMode::Direct).unwrap();
            // Reference: dequantize both operands, FP32 matmul. The only
            // difference is float rounding in the accumulation order, so
            // the AAQ error bound (the matmul tolerance used throughout
            // the quant tests) applies.
            let slow = q.decode().matmul(&w.decode()).unwrap();
            for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!(
                    (a - b).abs() < 1e-3 * b.abs().max(1.0),
                    "{scheme}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn weight_quantization_round_trips_within_int8_resolution() {
        let wt = weights();
        let qw = QuantizedWeights::from_tensor(&wt);
        let back = qw.decode();
        for (o, col_scale) in qw.scales().iter().enumerate() {
            for i in 0..wt.rows() {
                let err = (back.at(i, o) - wt.at(i, o)).abs();
                assert!(err <= 0.5 * col_scale + 1e-6, "({i},{o}): err {err}");
            }
        }
        assert!(qw.encoded_bytes() < wt.len() * 4);
    }

    #[test]
    fn qlinear_forward_matches_qgemm() {
        let linear = ln_tensor::nn::Linear::deterministic_with_bias("qgemm_layer", 32, 8, 1.0, 0.3);
        let ql = QLinear::from_linear(&linear);
        let q = QuantizedTensor::from_tensor(&activation(), QuantScheme::int8_with_outliers(4));
        let via_layer = ql.forward(&q, MacMode::Direct).unwrap();
        let via_gemm = qgemm(&q, ql.weights(), linear.bias(), MacMode::Direct).unwrap();
        assert_eq!(via_layer, via_gemm);
    }

    #[test]
    fn qgemm_rejects_bad_shapes() {
        let q = QuantizedTensor::from_tensor(&activation(), QuantScheme::int8_with_outliers(2));
        let w = QuantizedWeights::from_tensor(&Tensor2::zeros(31, 8));
        assert!(qgemm(&q, &w, &[0.0; 8], MacMode::Direct).is_err());
    }
}
