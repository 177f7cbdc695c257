//! A fully-quantized tensor container: `(tokens, channels)` activations
//! held as the integer levels, scales and outliers of their AAQ encoding —
//! the A operand of the integer GEMM in [`crate::qgemm`], and the one
//! in-memory form of an encoded token: a single token is a one-row
//! `QuantizedTensor`.
//!
//! This is the storage type a deployment would actually hold in device
//! memory, and each part of a token's encoding is stored exactly once:
//!
//! * the inlier **levels**, dense, in the panel [`crate::qgemm`] reads as
//!   its A operand: groups of [`MR`] tokens, each `[channel][MR]`
//!   contiguous, zero at outlier slots and in the padding tokens of the
//!   last group;
//! * the two **scales** `(σ_in, σ_out)` per token;
//! * the `k` **outliers** per token, flat `tokens × k`: INT16 levels and
//!   ascending `u8` channel indices.
//!
//! [`QuantizedTensor::from_tensor`] fills all three through the
//! quantizer's passes — the ones
//! [`crate::token::fake_quantize_tokens`] runs, in the AVX2 frame — one
//! group of [`MR`] tokens at a time, their levels interleaved into the
//! panel, at a fixed number of allocations whatever the token count.
//! [`QuantizedTensor::encode`] is the same pass for a layer about to read
//! the activation in the quantized domain: it clamps the outlier budget
//! instead of panicking, and returns what the encoding did to the
//! activation — the error sums `fake_quantize_tokens` returns, so a
//! caller that encodes once needs no fake-quantized copy to measure it. A
//! [`crate::qgemm::QLinear`] runs directly on the levels and applies each
//! token's scaling factors exactly once per output element: the RMPU's
//! execution model (§5.2), in software.
//!
//! A token's parts are read through [`QuantizedTensor::inliers`],
//! [`QuantizedTensor::scales`] and [`QuantizedTensor::outliers`] — what
//! `qgemm` and the Fig. 7 codec read too. The codec writes each token's
//! bytes straight from them ([`QuantizedTensor::to_blocks`]) and
//! [`QuantizedTensor::from_blocks`], its exact inverse, decodes each
//! token's bytes straight into them. `encoded_bytes()` stays what device
//! memory would hold (the packed Fig. 7 size); the host copy here is one
//! `i16` per level.

use crate::layout::{check_width, decode_into, TokenBlock, DEFAULT_BLOCK_BYTES};
use crate::qgemm::MR;
use crate::scheme::QuantScheme;
use crate::token::{
    assert_encodable, inlier_runs, Passes, QuantError as RoundTrip, MAX_TOKEN_CHANNELS,
};
use crate::QuantError;
use ln_tensor::{simd, Tensor2};

/// A `(tokens, channels)` activation stored quantized.
///
/// # Example
///
/// ```
/// use ln_quant::scheme::QuantScheme;
/// use ln_quant::tensor::QuantizedTensor;
/// use ln_tensor::Tensor2;
///
/// let x = Tensor2::from_fn(8, 16, |i, j| (i + j) as f32 * 0.1);
/// let q = QuantizedTensor::from_tensor(&x, QuantScheme::int8_with_outliers(2));
/// assert!(q.encoded_bytes() < 8 * 16 * 2); // beats FP16
/// assert!(q.decode().rmse(&x).expect("same shape") < 0.01);
/// ```
///
/// The crate-level example runs a layer on one
/// ([`crate::qgemm::QLinear::forward`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    scheme: QuantScheme,
    channels: usize,
    /// Inlier levels: `ceil(tokens / MR)` groups of `channels × MR`,
    /// token-minor; zero at outlier slots and in the padding tokens.
    pub(crate) levels: Vec<i16>,
    /// `(σ_in, σ_out)` of each token; its length is the token count.
    pub(crate) scales: Vec<(f32, f32)>,
    /// INT16 outlier levels, `scheme.outliers` per token.
    outlier_levels: Vec<i16>,
    /// Their channel indices, ascending within a token.
    outlier_indices: Vec<u8>,
}

/// `slice` in consecutive pieces of `len` items; where there is nothing to
/// cut (no outliers, no channels) every piece is empty.
fn pieces<T>(slice: &mut [T], len: usize) -> impl Iterator<Item = &mut [T]> {
    slice
        .chunks_mut(len.max(1))
        .chain(std::iter::repeat_with(Default::default))
}

impl QuantizedTensor {
    /// `tokens` all-zero tokens: the storage the constructors fill.
    pub(crate) fn zeroed(scheme: QuantScheme, channels: usize, tokens: usize) -> Self {
        QuantizedTensor {
            scheme,
            channels,
            levels: vec![0; tokens.div_ceil(MR) * channels * MR],
            scales: vec![(0.0, 0.0); tokens],
            outlier_levels: vec![0; tokens * scheme.outliers],
            outlier_indices: vec![0; tokens * scheme.outliers],
        }
    }

    /// Quantizes a full-precision token matrix.
    ///
    /// # Panics
    ///
    /// Panics if the scheme's outlier budget is not below the channel
    /// count or channels exceed 256 (the hardware token width bound).
    pub fn from_tensor(x: &Tensor2, scheme: QuantScheme) -> Self {
        if x.rows() > 0 {
            assert_encodable(x.cols(), scheme);
        }
        Self::encode_rows(x, scheme).0
    }

    /// Quantizes a full-precision token matrix — what a layer about to
    /// read it in the quantized domain does, once — and returns what that
    /// did to it: the sums
    /// [`fake_quantize_tokens`](crate::token::fake_quantize_tokens) returns for `x` and
    /// the same scheme, bit for bit, tokens summed in the same 64-token
    /// blocks (so under any pool). Each token is one segment here, as
    /// the container holds one scale pair a token: for tokens of more than
    /// 128 channels, which `fake_quantize_tokens` splits, the sums are this
    /// encoding's own round-trip error in the same order. A 1-channel
    /// token reports no error, as `fake_quantize_tokens` leaves it alone.
    ///
    /// An outlier budget of `channels` or more is clamped to
    /// `channels − 1`, as `fake_quantize_tokens` clamps it;
    /// [`QuantizedTensor::scheme`] is the scheme as applied.
    ///
    /// # Panics
    ///
    /// Panics if channels exceed 256 (the hardware token width bound).
    pub fn encode(x: &Tensor2, scheme: QuantScheme) -> (Self, RoundTrip) {
        let scheme = QuantScheme {
            outliers: scheme.outliers.min(x.cols().saturating_sub(1)),
            ..scheme
        };
        assert_encodable(x.cols(), scheme);
        Self::encode_rows(x, scheme)
    }

    /// The body of [`QuantizedTensor::from_tensor`] and
    /// [`QuantizedTensor::encode`]. A chunk is whole 64-token blocks: whole
    /// groups of the panel, and whole blocks of the sums.
    fn encode_rows(x: &Tensor2, scheme: QuantScheme) -> (Self, RoundTrip) {
        const BLOCK: usize = crate::asymmetric::TOKEN_PAR_GRAIN_ROWS;
        let (tokens, channels) = x.shape();
        let k = scheme.outliers;
        ln_par::metrics::time_kernel("aaq.from_tensor", tokens as u64, || {
            let mut q = Self::zeroed(scheme, channels, tokens);
            let mut block_errors = vec![RoundTrip::default(); tokens.div_ceil(BLOCK)];
            let blocks_per_chunk = ln_par::chunk_len(tokens, BLOCK).div_ceil(BLOCK);
            let per_chunk = blocks_per_chunk * BLOCK;
            let mut chunks: Vec<_> = q
                .scales
                .chunks_mut(per_chunk)
                .zip(pieces(&mut q.levels, per_chunk * channels))
                .zip(pieces(&mut q.outlier_levels, per_chunk * k))
                .zip(pieces(&mut q.outlier_indices, per_chunk * k))
                .zip(block_errors.chunks_mut(blocks_per_chunk))
                .collect();
            ln_par::par_chunks_mut(&mut chunks, 1, |c, chunk| {
                let ((((scales, levels), outlier_levels), outlier_indices), errors) = &mut chunk[0];
                let mut passes = Passes::new();
                // One group of the panel at a time: its tokens' levels
                // side by side, then interleaved into the panel.
                let mut rows = [[0i16; MAX_TOKEN_CHANNELS]; MR];
                simd::wide(
                    #[inline(always)]
                    || {
                        for (g, scales) in scales.chunks_mut(MR).enumerate() {
                            for (r, scales) in scales.iter_mut().enumerate() {
                                let t = g * MR + r;
                                let row = x.row(c * per_chunk + t);
                                let (token_scales, error) = passes.quantize(
                                    row,
                                    scheme,
                                    &mut rows[r][..channels],
                                    &mut outlier_levels[t * k..][..k],
                                    &mut outlier_indices[t * k..][..k],
                                );
                                *scales = token_scales;
                                errors[t / BLOCK] += if channels < 2 {
                                    RoundTrip::untouched(row)
                                } else {
                                    error
                                };
                            }
                            // A last group's padding tokens stay zero.
                            for row in &mut rows[scales.len()..] {
                                row.fill(0);
                            }
                            let group = &mut levels[g * channels * MR..][..channels * MR];
                            let (slots, _) = group.as_chunks_mut::<MR>();
                            let [r0, r1, r2, r3] = &rows;
                            for (ch, slot) in slots.iter_mut().enumerate() {
                                *slot = [r0[ch], r1[ch], r2[ch], r3[ch]];
                            }
                        }
                    },
                );
            });
            drop(chunks);
            let mut total = RoundTrip::default();
            for block_error in block_errors {
                total += block_error;
            }
            (q, total)
        })
    }

    /// The shared scheme.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Number of tokens.
    pub fn num_tokens(&self) -> usize {
        self.scales.len()
    }

    /// Channels per token.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Token `t`'s `(σ_in, σ_out)`: the inlier scale, and the outliers'
    /// (`1.0` when the scheme has none).
    pub fn scales(&self, t: usize) -> (f32, f32) {
        self.scales[t]
    }

    /// Token `t`'s INT16 outlier levels and their ascending channel
    /// indices.
    pub fn outliers(&self, t: usize) -> (&[i16], &[u8]) {
        let k = self.scheme.outliers;
        (
            &self.outlier_levels[t * k..][..k],
            &self.outlier_indices[t * k..][..k],
        )
    }

    /// [`QuantizedTensor::outliers`], writable.
    pub(crate) fn outliers_mut(&mut self, t: usize) -> (&mut [i16], &mut [u8]) {
        let k = self.scheme.outliers;
        (
            &mut self.outlier_levels[t * k..][..k],
            &mut self.outlier_indices[t * k..][..k],
        )
    }

    /// Where token `t`'s level at channel `ch` sits in the panel.
    pub(crate) fn slot(&self, t: usize, ch: usize) -> usize {
        (t / MR * self.channels + ch) * MR + t % MR
    }

    /// Token `t`'s level at every channel, ascending (zero at an outlier's).
    fn token_levels(&self, t: usize) -> impl Iterator<Item = i16> + '_ {
        let group = &self.levels[t / MR * self.channels * MR..][..self.channels * MR];
        group.iter().skip(t % MR).step_by(MR).copied()
    }

    /// Token `t`'s inlier levels in channel order, outlier channels
    /// skipped: the Fig. 7 inlier section before it is packed.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not below [`QuantizedTensor::num_tokens`].
    pub fn inliers(&self, t: usize) -> impl Iterator<Item = i16> + '_ {
        let (_, indices) = self.outliers(t);
        inlier_runs(self.channels, indices)
            .flatten()
            .map(move |ch| self.levels[self.slot(t, ch)])
    }

    /// Encoded size in bytes (exactly what device memory would hold).
    pub fn encoded_bytes(&self) -> usize {
        self.num_tokens() * self.scheme.token_bytes(self.channels)
    }

    /// Serialises into memory-channel-sized blocks (Fig. 7 grouping),
    /// each token's bytes written straight from the panel.
    pub fn to_blocks(&self) -> Vec<TokenBlock> {
        let per_block =
            TokenBlock::tokens_per_block(self.scheme, self.channels, DEFAULT_BLOCK_BYTES);
        (0..self.num_tokens())
            .step_by(per_block)
            .map(|first| {
                TokenBlock::encode_rows(self, first..self.num_tokens().min(first + per_block))
            })
            .collect()
    }

    /// Rebuilds the container from blocks: the exact inverse of
    /// [`QuantizedTensor::to_blocks`], each token's bytes decoded straight
    /// into the panel, the scales and the outlier arrays. An empty slice
    /// is the empty `(0, 0)` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptBlock`] when a block was not encoded
    /// under `scheme`, differs in token width from the first, or is
    /// structurally damaged (the table in [`crate::layout`]).
    pub fn from_blocks(blocks: &[TokenBlock], scheme: QuantScheme) -> Result<Self, QuantError> {
        let channels = blocks.first().map_or(0, TokenBlock::channels);
        for (b, block) in blocks.iter().enumerate() {
            if (block.scheme(), block.channels()) != (scheme, channels) {
                return Err(QuantError::CorruptBlock {
                    what: format!(
                        "block {b} is {} × {} channels, not {scheme} × {channels}",
                        block.scheme(),
                        block.channels()
                    ),
                });
            }
        }
        if !blocks.is_empty() {
            check_width(scheme, channels)?;
        }
        let tokens = blocks.iter().map(TokenBlock::num_tokens).sum();
        let mut q = Self::zeroed(scheme, channels, tokens);
        ln_par::metrics::time_kernel("aaq.block_decode", tokens as u64, || {
            let mut t = 0;
            for block in blocks {
                for bytes in block.tokens()? {
                    decode_into(bytes, &mut q, t)?;
                    t += 1;
                }
            }
            Ok(())
        })?;
        Ok(q)
    }

    /// Decodes back to full precision.
    pub fn decode(&self) -> Tensor2 {
        let mut out = Tensor2::zeros(self.num_tokens(), self.channels);
        self.dequantize_into(out.as_mut_slice());
        out
    }

    /// Decodes into `out`, row-major `(tokens, channels)`, without
    /// allocating: `level · σ_in` streamed over every channel of the panel,
    /// then the token's outliers written over their (zero-level) slots.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not `num_tokens() * channels()`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.num_tokens() * self.channels,
            "output size != tokens × channels"
        );
        if self.channels == 0 {
            return;
        }
        for (t, row) in out.chunks_mut(self.channels).enumerate() {
            let (inlier_scale, outlier_scale) = self.scales[t];
            for (slot, level) in row.iter_mut().zip(self.token_levels(t)) {
                *slot = level as f32 * inlier_scale;
            }
            let (levels, indices) = self.outliers(t);
            for (&level, &idx) in levels.iter().zip(indices) {
                row[idx as usize] = level as f32 * outlier_scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Bits;
    use ln_tensor::rng::{self, Rng};

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

    /// Seeded tokens with a spike every few channels, so outliers matter.
    fn spiky(tokens: usize, channels: usize) -> Tensor2 {
        let mut rng = rng::stream_indexed("quant/tensor", (tokens * 1000 + channels) as u64);
        Tensor2::from_fn(tokens, channels, |_, _| {
            let v = rng::normal_approx(&mut rng);
            if rng.gen_range(0..24usize) == 0 {
                v * 60.0
            } else {
                v
            }
        })
    }

    /// The schemes × token counts × widths the container is pinned over:
    /// a single token, partial and just-over-full last groups, widths off
    /// the pack width and at the 256-channel bound.
    fn lattice() -> impl Iterator<Item = (Tensor2, QuantScheme)> {
        let schemes = [
            QuantScheme::int4_with_outliers(0),
            QuantScheme::int4_with_outliers(4),
            QuantScheme::int8_with_outliers(4),
            QuantScheme {
                inlier_bits: Bits::Int16,
                outliers: 8,
            },
        ];
        [1, MR - 1, MR + 1, 37, 1000]
            .into_iter()
            .flat_map(|tokens| [17, 128, 129, 256].map(|channels| spiky(tokens, channels)))
            .flat_map(move |x| schemes.map(|scheme| (x.clone(), scheme)))
    }

    #[test]
    fn every_token_is_the_one_token_encoding_of_its_row() {
        for (x, scheme) in lattice() {
            let q = QuantizedTensor::from_tensor(&x, scheme);
            let decoded = q.decode();
            for t in 0..x.rows() {
                let row = Tensor2::from_vec(1, x.cols(), x.row(t).to_vec()).expect("one row");
                let token = QuantizedTensor::from_tensor(&row, scheme);
                let what = format!("{scheme} token {t} of {:?}", x.shape());
                assert!(q.inliers(t).eq(token.inliers(0)), "{what}");
                assert_eq!(q.scales(t), token.scales(0), "{what}");
                assert_eq!(q.outliers(t), token.outliers(0), "{what}");
                let same_bits = decoded
                    .row(t)
                    .iter()
                    .zip(token.decode().row(0))
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same_bits, "{what}");
            }
        }
    }

    #[test]
    fn block_round_trip_is_exact() {
        for (x, scheme) in lattice() {
            let q = QuantizedTensor::from_tensor(&x, scheme);
            let blocks = q.to_blocks();
            assert_eq!(
                blocks.iter().map(TokenBlock::encoded_bytes).sum::<usize>(),
                q.encoded_bytes()
            );
            let back = QuantizedTensor::from_blocks(&blocks, scheme).expect("fresh blocks");
            assert_eq!(back, q, "{scheme}, {:?}", x.shape());
        }
    }

    #[test]
    fn zero_and_non_finite_tokens_round_trip_to_the_bit() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let rows: [&[f32]; 3] = [
            &[0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0],
            &[nan, 0.5, -inf, 2.0, nan, -0.25, inf, 1.0],
            &[inf, -inf, inf, 1.0, nan, -inf, 0.5, 0.0],
        ];
        let x = Tensor2::from_fn(3, 8, |i, j| rows[i][j]);
        for scheme in [
            QuantScheme::int4_with_outliers(0),
            QuantScheme::int4_with_outliers(2),
            QuantScheme::int8_with_outliers(4),
        ] {
            let q = QuantizedTensor::from_tensor(&x, scheme);
            let blocks = q.to_blocks();
            let back = QuantizedTensor::from_blocks(&blocks, scheme).expect("fresh blocks");
            assert_eq!(back.to_blocks(), blocks, "{scheme}: the same bytes");
            for t in 0..3 {
                let bits = |q: &QuantizedTensor| {
                    let (inlier, outlier) = q.scales(t);
                    (inlier.to_bits(), outlier.to_bits())
                };
                assert_eq!(bits(&back), bits(&q), "{scheme} token {t}");
                assert!(back.inliers(t).eq(q.inliers(t)), "{scheme} token {t}");
                assert_eq!(back.outliers(t), q.outliers(t), "{scheme} token {t}");
            }
            let same_bits = back
                .decode()
                .as_slice()
                .iter()
                .zip(q.decode().as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bits, "{scheme}");
            assert!(q.decode().row(0).iter().all(|v| v.to_bits() == 0));
        }
    }

    #[test]
    fn zero_width_tokens_round_trip() {
        let scheme = QuantScheme::int4_with_outliers(0);
        let q = QuantizedTensor::from_tensor(&Tensor2::zeros(MR + 2, 0), scheme);
        assert_eq!((q.num_tokens(), q.channels()), (MR + 2, 0));
        assert_eq!(q.decode().shape(), (MR + 2, 0));
        assert_eq!(QuantizedTensor::from_blocks(&q.to_blocks(), scheme), Ok(q));
    }

    #[test]
    fn no_blocks_are_the_empty_tensor() {
        let scheme = QuantScheme::int4_with_outliers(4);
        let q = QuantizedTensor::from_blocks(&[], scheme).expect("nothing to reject");
        assert_eq!((q.num_tokens(), q.channels()), (0, 0));
        assert_eq!(
            q,
            QuantizedTensor::from_tensor(&Tensor2::zeros(0, 0), scheme)
        );
        assert!(q.to_blocks().is_empty());
    }

    #[test]
    fn blocks_of_another_scheme_are_rejected() {
        let q = QuantizedTensor::from_tensor(&activation(), QuantScheme::int8_with_outliers(4));
        for requested in [
            QuantScheme::int4_with_outliers(0),
            QuantScheme::int8_with_outliers(2),
        ] {
            assert!(matches!(
                QuantizedTensor::from_blocks(&q.to_blocks(), requested),
                Err(QuantError::CorruptBlock { .. })
            ));
        }
    }

    #[test]
    fn blocks_of_mixed_width_are_rejected() {
        let scheme = QuantScheme::int4_with_outliers(4);
        let mut blocks = QuantizedTensor::from_tensor(&spiky(5, 128), scheme).to_blocks();
        blocks.extend(QuantizedTensor::from_tensor(&spiky(5, 64), scheme).to_blocks());
        assert!(matches!(
            QuantizedTensor::from_blocks(&blocks, scheme),
            Err(QuantError::CorruptBlock { .. })
        ));
    }

    #[test]
    fn compression_matches_scheme_formula() {
        let x = activation();
        let scheme = QuantScheme::int4_with_outliers(4);
        let q = QuantizedTensor::from_tensor(&x, scheme);
        assert_eq!(q.encoded_bytes(), 12 * scheme.token_bytes(32));
    }
}
