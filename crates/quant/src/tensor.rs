//! A fully-quantized tensor container: `(tokens, channels)` activations
//! stored as encoded token blocks, with a dequantization-free matrix
//! multiply.
//!
//! This is the storage type a deployment would actually hold in device
//! memory: tokens live in the Fig. 7 byte layout (grouped into
//! bandwidth-sized blocks) and linear layers run directly on the integer
//! levels, applying each token's scaling factors exactly once per output
//! element — the RMPU's execution model (§5.2), in software.

use crate::layout::{TokenBlock, DEFAULT_BLOCK_BYTES};
use crate::qgemm::MR;
use crate::scheme::QuantScheme;
use crate::token::{inlier_runs, quantize_token, QuantizedToken};
use crate::QuantError;
use ln_tensor::{Tensor2, TensorError};

/// A `(tokens, channels)` activation stored quantized.
///
/// # Example
///
/// ```
/// use ln_quant::scheme::QuantScheme;
/// use ln_quant::tensor::QuantizedTensor;
/// use ln_tensor::Tensor2;
///
/// # fn main() -> Result<(), ln_tensor::TensorError> {
/// let x = Tensor2::from_fn(8, 16, |i, j| (i + j) as f32 * 0.1);
/// let q = QuantizedTensor::from_tensor(&x, QuantScheme::int8_with_outliers(2));
/// assert!(q.encoded_bytes() < 8 * 16 * 2); // beats FP16
/// let w = Tensor2::identity(16);
/// let y = q.matmul(&w)?; // dequantization-free
/// assert_eq!(y.shape(), (8, 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    scheme: QuantScheme,
    channels: usize,
    tokens: Vec<QuantizedToken>,
    /// The inlier levels once more, as [`crate::qgemm`]'s A operand:
    /// groups of [`MR`] tokens, each `[channel][MR]` contiguous, zero at
    /// outlier slots and in the padding tokens of the last group.
    level_panel: Vec<i16>,
}

/// Scatters the tokens' inlier levels into the dense panel
/// [`crate::qgemm`] reads (see [`QuantizedTensor::level_panel`]).
fn pack_level_panel(tokens: &[QuantizedToken], channels: usize) -> Vec<i16> {
    let groups = tokens.len().div_ceil(MR);
    let mut panel = vec![0i16; groups * channels * MR];
    let groups_per_chunk = ln_par::chunk_len(groups, crate::asymmetric::TOKEN_PAR_GRAIN_ROWS / MR);
    ln_par::par_chunks_mut(&mut panel, groups_per_chunk * channels * MR, |c, chunk| {
        let first = c * groups_per_chunk * MR;
        for (g, group) in chunk.chunks_mut(channels * MR).enumerate() {
            for (r, q) in tokens[first + g * MR..].iter().take(MR).enumerate() {
                let mut levels = q.inliers().iter();
                for ch in inlier_runs(channels, q.outlier_indices()).flatten() {
                    group[ch * MR + r] = *levels.next().expect("inlier count matches layout");
                }
            }
        }
    });
    panel
}

impl QuantizedTensor {
    /// Quantizes a full-precision token matrix.
    ///
    /// # Panics
    ///
    /// Panics if the scheme's outlier budget is not below the channel
    /// count or channels exceed 256 (the hardware token width bound).
    pub fn from_tensor(x: &Tensor2, scheme: QuantScheme) -> Self {
        // One token per row, quantized independently (the VVPU axis).
        ln_par::metrics::time_kernel("aaq.from_tensor", x.rows() as u64, || {
            let tokens =
                ln_par::par_map_collect(x.rows(), crate::asymmetric::TOKEN_PAR_GRAIN_ROWS, |t| {
                    quantize_token(x.row(t), scheme)
                });
            Self::from_tokens(tokens, scheme, x.cols())
        })
    }

    /// Takes the tokens and packs their level panel, once for every GEMM
    /// the tensor will feed.
    fn from_tokens(tokens: Vec<QuantizedToken>, scheme: QuantScheme, channels: usize) -> Self {
        QuantizedTensor {
            scheme,
            channels,
            level_panel: pack_level_panel(&tokens, channels),
            tokens,
        }
    }

    /// The shared scheme.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Number of tokens.
    pub fn num_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Channels per token.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The encoded token blocks, one per activation row.
    ///
    /// The quantized-domain GEMM ([`crate::qgemm`]) takes each token's
    /// scales and outliers from here and the inlier levels from the dense
    /// panel packed beside them, with no intermediate dequantization.
    pub fn tokens(&self) -> &[QuantizedToken] {
        &self.tokens
    }

    /// The dense inlier-level panel: `ceil(tokens / MR)` groups of
    /// `channels × MR` levels, token-minor.
    pub(crate) fn level_panel(&self) -> &[i16] {
        &self.level_panel
    }

    /// Encoded size in bytes (exactly what device memory would hold).
    pub fn encoded_bytes(&self) -> usize {
        self.tokens.len() * self.scheme.token_bytes(self.channels)
    }

    /// Serialises into memory-channel-sized blocks (Fig. 7 grouping).
    pub fn to_blocks(&self) -> Vec<TokenBlock> {
        let per_block =
            TokenBlock::tokens_per_block(self.scheme, self.channels, DEFAULT_BLOCK_BYTES);
        self.tokens
            .chunks(per_block)
            .map(TokenBlock::encode)
            .collect()
    }

    /// Rebuilds the container from blocks.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptBlock`] on structural damage.
    pub fn from_blocks(blocks: &[TokenBlock], scheme: QuantScheme) -> Result<Self, QuantError> {
        let mut tokens = Vec::new();
        let mut channels = 0;
        for b in blocks {
            for values in b.decode()? {
                channels = values.len();
                tokens.push(quantize_token(&values, scheme));
            }
        }
        Ok(Self::from_tokens(tokens, scheme, channels))
    }

    /// Decodes back to full precision.
    pub fn decode(&self) -> Tensor2 {
        let mut out = Tensor2::zeros(self.tokens.len(), self.channels);
        self.dequantize_into(out.as_mut_slice());
        out
    }

    /// Decodes into `out`, row-major `(tokens, channels)`, without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not `num_tokens() * channels()`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.tokens.len() * self.channels,
            "output size != tokens × channels"
        );
        if self.channels == 0 {
            return;
        }
        for (q, row) in self.tokens.iter().zip(out.chunks_mut(self.channels)) {
            q.dequantize_into(row);
        }
    }

    /// Dequantization-free matrix multiply against full-precision weights
    /// `(channels, out_features)`: inlier levels accumulate as integers
    /// against the weight values, outliers likewise, and each token's two
    /// scaling factors are applied once per output element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `weights.rows() !=
    /// channels`.
    pub fn matmul(&self, weights: &Tensor2) -> Result<Tensor2, TensorError> {
        if weights.rows() != self.channels {
            return Err(TensorError::ShapeMismatch {
                op: "quantized_matmul",
                lhs: vec![self.tokens.len(), self.channels],
                rhs: vec![weights.rows(), weights.cols()],
            });
        }
        let out_features = weights.cols();
        let mut out = Tensor2::zeros(self.tokens.len(), out_features);
        if out_features == 0 || self.tokens.is_empty() {
            return Ok(out);
        }
        let tokens = &self.tokens;
        let channels = self.channels;
        let per_chunk = ln_par::chunk_len(tokens.len(), QMATMUL_PAR_GRAIN_TOKENS);
        ln_par::par_chunks_mut(out.as_mut_slice(), per_chunk * out_features, |c, chunk| {
            for (local, row) in chunk.chunks_mut(out_features).enumerate() {
                let t = c * per_chunk + local;
                let q = &tokens[t];
                for (o, slot) in row.iter_mut().enumerate() {
                    // Inlier channels recovered by a merge walk against the
                    // ascending outlier index list — same channel-ascending
                    // accumulation order as the old materialised index
                    // vectors, with no per-token allocation.
                    let oi = q.outlier_indices();
                    let mut next_out = 0usize;
                    let mut inliers = q.inliers().iter();
                    let mut inlier_acc = 0.0f64;
                    for ch in 0..channels {
                        if next_out < oi.len() && oi[next_out] as usize == ch {
                            next_out += 1;
                            continue;
                        }
                        let level = *inliers.next().expect("inlier count matches layout");
                        inlier_acc += level as f64 * weights.at(ch, o) as f64;
                    }
                    let mut outlier_acc = 0.0f64;
                    for (&level, &idx) in q.outliers().iter().zip(q.outlier_indices()) {
                        outlier_acc += level as f64 * weights.at(idx as usize, o) as f64;
                    }
                    // Scales applied once per accumulator, never per element.
                    *slot = (inlier_acc * q.inlier_scale() as f64
                        + outlier_acc * q.outlier_scale() as f64)
                        as f32;
                }
            }
        });
        Ok(out)
    }
}

/// Minimum tokens per chunk for the dequantization-free matmul.
const QMATMUL_PAR_GRAIN_TOKENS: usize = 4;

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

    #[test]
    fn encode_decode_round_trip_bounds_error() {
        let x = activation();
        let q = QuantizedTensor::from_tensor(&x, QuantScheme::int8_with_outliers(4));
        let back = q.decode();
        assert_eq!(back.shape(), x.shape());
        let rmse = back.rmse(&x).expect("same shape");
        assert!(rmse < 0.05, "rmse {rmse}");
        assert!(q.encoded_bytes() < x.len() * 2, "must beat FP16");
    }

    #[test]
    fn block_round_trip_preserves_decode() {
        let x = activation();
        let q = QuantizedTensor::from_tensor(&x, QuantScheme::int4_with_outliers(4));
        let blocks = q.to_blocks();
        assert!(!blocks.is_empty());
        let back = QuantizedTensor::from_blocks(&blocks, q.scheme()).expect("fresh blocks");
        // Re-quantizing already-quantized values is idempotent up to f32
        // scale recomputation: the decoded tensors agree to ~1e-3 relative.
        let a = back.decode();
        let b = q.decode();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= 1e-3 * y.abs().max(0.01), "{x} vs {y}");
        }
    }

    #[test]
    fn dequantization_free_matmul_matches_decode_then_matmul() {
        let x = activation();
        let w = Tensor2::from_fn(32, 8, |i, j| ((i * 11 + j * 3) % 17) as f32 * 0.1 - 0.8);
        for scheme in [
            QuantScheme::int8_with_outliers(4),
            QuantScheme::int4_with_outliers(4),
            QuantScheme::int4_with_outliers(0),
        ] {
            let q = QuantizedTensor::from_tensor(&x, scheme);
            let fast = q.matmul(&w).expect("shapes match");
            let slow = q.decode().matmul(&w).expect("shapes match");
            for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!(
                    (a - b).abs() < 1e-3 * b.abs().max(1.0),
                    "{scheme}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let q = QuantizedTensor::from_tensor(&activation(), QuantScheme::int4_with_outliers(0));
        let w = Tensor2::zeros(31, 8);
        assert!(q.matmul(&w).is_err());
    }

    #[test]
    fn compression_matches_scheme_formula() {
        let x = activation();
        let scheme = QuantScheme::int4_with_outliers(4);
        let q = QuantizedTensor::from_tensor(&x, scheme);
        assert_eq!(q.encoded_bytes(), 12 * scheme.token_bytes(32));
    }
}
