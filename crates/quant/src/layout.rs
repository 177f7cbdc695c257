//! The byte-exact memory layout of quantized tokens (Fig. 7).
//!
//! Per token: packed inliers first, then INT16 outliers, then the scaling
//! factor(s), then the u8 outlier indices. Tokens sharing a scheme are
//! grouped into *blocks* sized for the memory channel (the Token Aligner in
//! `ln-accel` consumes these blocks and realigns them token-wise into the
//! scratchpad).
//!
//! The encoder is the source of truth for all byte accounting: the
//! simulator charges HBM traffic for exactly these bytes, and
//! [`crate::scheme::QuantScheme::token_bytes`] is asserted (and property
//! tested) to equal the encoded length.
//!
//! # One encoder, one decoder
//!
//! `encode_into` writes a token's bytes from the parts of its encoding
//! (levels, scales, outlier indices), whether a
//! [`QuantizedToken`] holds them ([`encode_token`],
//! [`TokenBlock::encode`]) or a
//! [`QuantizedTensor`](crate::tensor::QuantizedTensor)'s panel
//! (`to_blocks`). [`decode_levels`] reads them back into a
//! `QuantizedToken` equal to the one encoded, so bytes → levels → bytes and
//! levels → bytes → levels are both the identity; the float-returning forms
//! ([`decode_token`], [`TokenBlock::decode`]) are that followed by
//! [`QuantizedToken::dequantize`]: this module turns no level back into a
//! value itself.
//!
//! # What the decoders do with input they did not write
//!
//! Nothing here panics on bytes, schemes or widths from outside; what each
//! case gives instead ([`decode_levels`] and everything built on it, and
//! `QuantizedTensor::from_blocks`):
//!
//! | input | result |
//! |---|---|
//! | byte length ≠ `scheme.token_bytes(channels)` (truncated or padded bytes, most mismatches of scheme or width) | `CorruptBlock` |
//! | bytes of the right length written under another scheme or width | decoded as what was asked for: a token's bytes carry no tag. A [`TokenBlock`] does, and `from_blocks` checks it (below) |
//! | block length ≠ tokens × token stride | `CorruptBlock` |
//! | outlier budget ≥ channel count, or more than 256 channels (the quantizer's own bounds) | `CorruptBlock` |
//! | an outlier index ≥ channel count | `CorruptBlock` |
//! | outlier indices repeated or not ascending (the encoder writes them ascending) | `CorruptBlock` |
//! | scale bytes that read as NaN, ±inf, zero or negative | accepted: any `f32` is a scale, and the token dequantizes as `level · σ` says (NaN or ±inf values, no panic). The quantizer itself stores an infinite scale for a token with an infinite channel (`token.rs`, "Degenerate input"), so this is a round trip, not damage |
//! | an INT4 nibble of −8 (the quantizer clamps to ±7) | accepted as level −8 |
//! | a width off the pack width (odd inlier count at INT4: 17, 129 channels with an even budget) | the last byte's high nibble is written 0 and ignored on decode |
//! | `from_blocks`: a block encoded under another scheme than the one asked for | `CorruptBlock` |
//! | `from_blocks`: a block whose token width differs from the first block's | `CorruptBlock` |
//! | `from_blocks`: no blocks | the empty `(0, 0)` tensor |
//! | `from_blocks`: a single token, or a token count off the panel's group of [`MR`](crate::qgemm::MR) | exact round trip; the padding tokens of the last group are all-zero levels, as `from_tensor` leaves them |

use crate::scheme::{Bits, QuantScheme};
use crate::token::{QuantizedToken, MAX_TOKEN_CHANNELS};
use crate::QuantError;

/// Default block size target in bytes (one HBM2E burst group; §4.3 sizes
/// blocks by the memory-channel bandwidth).
pub const DEFAULT_BLOCK_BYTES: usize = 1024;

/// Minimum tokens per chunk for the parallel block encode/decode paths.
const BLOCK_PAR_GRAIN_TOKENS: usize = 16;

/// Byte lengths of a token's first three sections — packed inliers, INT16
/// outliers, scaling factor(s); the u8 outlier indices are the rest.
fn section_bytes(scheme: QuantScheme, channels: usize) -> [usize; 3] {
    let inlier_bits = (channels - scheme.outliers) * scheme.inlier_bits.width();
    let scales = if scheme.outliers > 0 { 8 } else { 4 };
    [inlier_bits.div_ceil(8), scheme.outliers * 2, scales]
}

/// Writes one token's Fig. 7 bytes into `dst` from the parts of its
/// encoding, wherever they are stored: the inlier levels in channel order
/// (outlier positions skipped), the outliers' INT16 levels, `(σ_in,
/// σ_out)` and the outliers' channel indices.
///
/// # Panics
///
/// Panics unless `dst` is `scheme.token_bytes(channels)` long for the
/// `inliers.len() + outliers.len()` channels and there is one index per
/// outlier of the scheme.
pub(crate) fn encode_into(
    dst: &mut [u8],
    scheme: QuantScheme,
    inliers: &[i16],
    outliers: &[i16],
    (inlier_scale, outlier_scale): (f32, f32),
    outlier_indices: &[u8],
) {
    let sections = section_bytes(scheme, inliers.len() + outliers.len());
    let (inlier_raw, rest) = dst.split_at_mut(sections[0]);
    let (outlier_raw, rest) = rest.split_at_mut(sections[1]);
    let (scale_raw, index_raw) = rest.split_at_mut(sections[2]);
    // 1. Inliers, packed.
    match scheme.inlier_bits {
        // Two's-complement nibbles, the low one first.
        Bits::Int4 => {
            for (byte, pair) in inlier_raw.iter_mut().zip(inliers.chunks(2)) {
                let high = pair.get(1).map_or(0, |&level| (level as u8) << 4);
                *byte = (pair[0] as u8 & 0x0F) | high;
            }
        }
        Bits::Int8 => {
            for (byte, &level) in inlier_raw.iter_mut().zip(inliers) {
                *byte = level as u8;
            }
        }
        Bits::Int16 => {
            for (pair, level) in inlier_raw.chunks_exact_mut(2).zip(inliers) {
                pair.copy_from_slice(&level.to_le_bytes());
            }
        }
    }
    // 2. Outliers (INT16 little-endian).
    for (pair, level) in outlier_raw.chunks_exact_mut(2).zip(outliers) {
        pair.copy_from_slice(&level.to_le_bytes());
    }
    // 3. Scaling factors: inlier scale always; outlier scale when present.
    scale_raw[..4].copy_from_slice(&inlier_scale.to_le_bytes());
    if scheme.outliers > 0 {
        scale_raw[4..].copy_from_slice(&outlier_scale.to_le_bytes());
    }
    // 4. Outlier indices.
    index_raw.copy_from_slice(outlier_indices);
}

/// [`encode_into`] of a token held on its own.
fn encode_token_into(token: &QuantizedToken, dst: &mut [u8]) {
    encode_into(
        dst,
        token.scheme(),
        token.inliers(),
        token.outliers(),
        (token.inlier_scale(), token.outlier_scale()),
        token.outlier_indices(),
    );
}

/// Encodes one quantized token into the Fig. 7 byte layout.
pub fn encode_token(token: &QuantizedToken) -> Vec<u8> {
    let mut out = vec![0u8; token.encoded_bytes()];
    encode_token_into(token, &mut out);
    out
}

/// Decodes one token's bytes back into the levels, scales and outlier
/// indices they were encoded from: the inverse of [`encode_token`].
///
/// # Errors
///
/// Returns [`QuantError::CorruptBlock`] in the cases tabulated in the
/// module docs.
pub fn decode_levels(
    bytes: &[u8],
    scheme: QuantScheme,
    channels: usize,
) -> Result<QuantizedToken, QuantError> {
    let corrupt = |what: String| Err(QuantError::CorruptBlock { what });
    if scheme.outliers >= channels.max(1) || channels > MAX_TOKEN_CHANNELS {
        return corrupt(format!(
            "{} outliers in {channels} channels: no inlier left, or wider than a token gets",
            scheme.outliers
        ));
    }
    let expected = scheme.token_bytes(channels);
    if bytes.len() != expected {
        return corrupt(format!(
            "token length {} != expected {expected}",
            bytes.len()
        ));
    }
    let sections = section_bytes(scheme, channels);
    let (inlier_raw, rest) = bytes.split_at(sections[0]);
    let (outlier_raw, rest) = rest.split_at(sections[1]);
    let (scale_raw, index_raw) = rest.split_at(sections[2]);

    let le_i16 = |pair: &[u8]| i16::from_le_bytes([pair[0], pair[1]]);
    let le_f32 = |quad: &[u8]| f32::from_le_bytes([quad[0], quad[1], quad[2], quad[3]]);
    let inliers: Vec<i16> = match scheme.inlier_bits {
        // Two's-complement nibbles, low one first: shift each to the top of
        // an `i8` and back down to sign-extend it.
        Bits::Int4 => (0..channels - scheme.outliers)
            .map(|k| ((inlier_raw[k / 2] << (4 * (1 - k % 2))) as i8 >> 4) as i16)
            .collect(),
        Bits::Int8 => inlier_raw.iter().map(|&b| b as i8 as i16).collect(),
        Bits::Int16 => inlier_raw.chunks_exact(2).map(le_i16).collect(),
    };
    let outliers = outlier_raw.chunks_exact(2).map(le_i16).collect();
    let scales = if scheme.outliers > 0 {
        (le_f32(&scale_raw[..4]), le_f32(&scale_raw[4..]))
    } else {
        (le_f32(scale_raw), 1.0)
    };

    if let Some(&idx) = index_raw.iter().find(|&&idx| idx as usize >= channels) {
        return corrupt(format!(
            "outlier index {idx} out of range for {channels} channels"
        ));
    }
    if let Some(pair) = index_raw.windows(2).find(|pair| pair[0] >= pair[1]) {
        return corrupt(format!(
            "outlier indices {} then {}: not strictly ascending",
            pair[0], pair[1]
        ));
    }
    Ok(QuantizedToken::from_parts(
        scheme,
        inliers,
        outliers,
        index_raw.to_vec(),
        scales,
    ))
}

/// The reconstructed values of one encoded token: [`decode_levels`], then
/// [`QuantizedToken::dequantize`].
///
/// # Errors
///
/// As [`decode_levels`].
pub fn decode_token(
    bytes: &[u8],
    scheme: QuantScheme,
    channels: usize,
) -> Result<Vec<f32>, QuantError> {
    Ok(decode_levels(bytes, scheme, channels)?.dequantize())
}

/// A block of tokens sharing one scheme, sized for the memory channel.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBlock {
    scheme: QuantScheme,
    channels: usize,
    tokens: usize,
    bytes: Vec<u8>,
}

impl TokenBlock {
    /// Encodes a sequence of quantized tokens into one block.
    ///
    /// # Panics
    ///
    /// Panics if tokens disagree on scheme or channel count.
    pub fn encode(tokens: &[QuantizedToken]) -> TokenBlock {
        assert!(!tokens.is_empty(), "block needs at least one token");
        let scheme = tokens[0].scheme();
        let channels = tokens[0].channels();
        for t in tokens {
            assert_eq!(t.scheme(), scheme, "mixed schemes in block");
            assert_eq!(t.channels(), channels, "mixed widths in block");
        }
        Self::encode_with(scheme, channels, tokens.len(), |t, dst| {
            encode_token_into(&tokens[t], dst)
        })
    }

    /// A block of `tokens` tokens, token `t`'s bytes written by
    /// `encode(t, dst)` ([`encode_into`] of its parts).
    pub(crate) fn encode_with(
        scheme: QuantScheme,
        channels: usize,
        tokens: usize,
        encode: impl Fn(usize, &mut [u8]) + Sync,
    ) -> TokenBlock {
        // Uniform scheme ⇒ fixed stride, so tokens encode independently
        // into disjoint byte ranges (the paper's 128-VVPU token axis).
        let stride = scheme.token_bytes(channels);
        let mut bytes = vec![0u8; tokens * stride];
        ln_par::metrics::time_kernel("aaq.block_encode", tokens as u64, || {
            let per_chunk = ln_par::chunk_len(tokens, BLOCK_PAR_GRAIN_TOKENS);
            ln_par::par_chunks_mut(&mut bytes, per_chunk * stride, |c, chunk| {
                for (local, dst) in chunk.chunks_mut(stride).enumerate() {
                    encode(c * per_chunk + local, dst);
                }
            });
        });
        TokenBlock {
            scheme,
            channels,
            tokens,
            bytes,
        }
    }

    /// The shared scheme.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Tokens in the block.
    pub fn num_tokens(&self) -> usize {
        self.tokens
    }

    /// Channels per token.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Encoded size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Every token of the block as it was encoded: levels, scales and
    /// outlier indices ([`decode_levels`] per token).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptBlock`] on structural damage.
    pub fn decode_tokens(&self) -> Result<Vec<QuantizedToken>, QuantError> {
        let stride = self.scheme.token_bytes(self.channels);
        if self.bytes.len() != stride * self.tokens {
            return Err(QuantError::CorruptBlock {
                what: format!(
                    "block length {} != {} tokens × {stride} bytes",
                    self.bytes.len(),
                    self.tokens
                ),
            });
        }
        ln_par::metrics::time_kernel("aaq.block_decode", self.tokens as u64, || {
            ln_par::par_map_collect(self.tokens, BLOCK_PAR_GRAIN_TOKENS, |t| {
                decode_levels(
                    &self.bytes[t * stride..(t + 1) * stride],
                    self.scheme,
                    self.channels,
                )
            })
            .into_iter()
            .collect()
        })
    }

    /// Decodes every token back to full precision.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptBlock`] on structural damage.
    pub fn decode(&self) -> Result<Vec<Vec<f32>>, QuantError> {
        let tokens = self.decode_tokens()?;
        Ok(tokens.iter().map(QuantizedToken::dequantize).collect())
    }

    /// How many tokens of this shape fit a target block size.
    pub fn tokens_per_block(scheme: QuantScheme, channels: usize, block_bytes: usize) -> usize {
        (block_bytes / scheme.token_bytes(channels)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::quantize_token;

    fn sample_values(n: usize, seed: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (((i * 31 + seed * 17) % 97) as f32 - 48.0) * 0.21)
            .collect()
    }

    #[test]
    fn encoded_length_matches_scheme_formula() {
        for scheme in [
            QuantScheme::int4_with_outliers(0),
            QuantScheme::int4_with_outliers(4),
            QuantScheme::int8_with_outliers(4),
            QuantScheme::int8_with_outliers(0),
        ] {
            let values = sample_values(128, 1);
            let q = quantize_token(&values, scheme);
            assert_eq!(encode_token(&q).len(), scheme.token_bytes(128), "{scheme}");
        }
    }

    #[test]
    fn encode_decode_round_trip_equals_dequantize() {
        for scheme in [
            QuantScheme::int4_with_outliers(4),
            QuantScheme::int8_with_outliers(2),
            QuantScheme::int8_with_outliers(0),
        ] {
            let values = sample_values(64, 2);
            let q = quantize_token(&values, scheme);
            let bytes = encode_token(&q);
            let decoded = decode_token(&bytes, scheme, 64).unwrap();
            let direct = q.dequantize();
            assert_eq!(decoded, direct, "{scheme}");
        }
    }

    #[test]
    fn decode_levels_inverts_encode_token() {
        // Widths off the pack width included: 17 and 129 channels leave an
        // odd number of INT4 inliers under an even outlier budget.
        for channels in [1, 2, 17, 64, 128, 129, 256] {
            for bits in [Bits::Int4, Bits::Int8, Bits::Int16] {
                for outliers in [0, 1, 4, 8] {
                    let scheme = QuantScheme {
                        inlier_bits: bits,
                        outliers,
                    };
                    if scheme.validate(channels).is_err() {
                        continue;
                    }
                    let q = quantize_token(&sample_values(channels, channels), scheme);
                    let bytes = encode_token(&q);
                    let back = decode_levels(&bytes, scheme, channels).unwrap();
                    assert_eq!(back, q, "{scheme}, {channels} channels");
                    assert_eq!(encode_token(&back), bytes);
                }
            }
        }
    }

    #[test]
    fn non_finite_scales_decode_without_panicking() {
        let inf = f32::INFINITY;
        let scheme = QuantScheme::int8_with_outliers(2);
        let q = quantize_token(&[1.0, -inf, 0.5, inf, f32::NAN, 0.75, inf, -0.25], scheme);
        assert_eq!((q.inlier_scale(), q.outlier_scale()), (inf, inf));
        let back = decode_levels(&encode_token(&q), scheme, 8).unwrap();
        assert_eq!(back, q);
        // A NaN scale can only come from damaged bytes; it decodes too.
        let mut bytes = encode_token(&q);
        let scale_at = bytes.len() - 2 - 8;
        bytes[scale_at..scale_at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let decoded = decode_token(&bytes, scheme, 8).unwrap();
        assert_eq!(decoded.len(), 8);
    }

    #[test]
    fn int4_packing_is_two_per_byte() {
        let values = sample_values(128, 3);
        let q = quantize_token(&values, QuantScheme::int4_with_outliers(0));
        let bytes = encode_token(&q);
        // 64 inlier bytes + 4 scale bytes.
        assert_eq!(bytes.len(), 68);
    }

    #[test]
    fn negative_int4_values_sign_extend() {
        let mut values = vec![0.0f32; 8];
        values[0] = -7.0;
        values[1] = 7.0;
        let q = quantize_token(&values, QuantScheme::int4_with_outliers(0));
        let bytes = encode_token(&q);
        let decoded = decode_token(&bytes, QuantScheme::int4_with_outliers(0), 8).unwrap();
        assert!((decoded[0] + 7.0).abs() < 1e-4);
        assert!((decoded[1] - 7.0).abs() < 1e-4);
        // −8 is a nibble the quantizer never writes; it decodes as −8.
        let mut bytes = bytes;
        bytes[0] = 0x78;
        let q = decode_levels(&bytes, QuantScheme::int4_with_outliers(0), 8).unwrap();
        assert_eq!(q.inliers()[..2], [-8, 7]);
    }

    #[test]
    fn truncated_token_is_rejected() {
        let values = sample_values(32, 4);
        let scheme = QuantScheme::int8_with_outliers(2);
        let q = quantize_token(&values, scheme);
        let mut bytes = encode_token(&q);
        bytes.pop();
        assert!(matches!(
            decode_token(&bytes, scheme, 32),
            Err(QuantError::CorruptBlock { .. })
        ));
    }

    #[test]
    fn corrupt_outlier_index_is_rejected() {
        let values = sample_values(32, 5);
        let scheme = QuantScheme::int8_with_outliers(1);
        let q = quantize_token(&values, scheme);
        let mut bytes = encode_token(&q);
        let last = bytes.len() - 1;
        bytes[last] = 200; // out of range for 32 channels
        assert!(matches!(
            decode_token(&bytes, scheme, 32),
            Err(QuantError::CorruptBlock { .. })
        ));
    }

    #[test]
    fn duplicate_outlier_index_is_rejected() {
        let values = sample_values(32, 6);
        let scheme = QuantScheme::int8_with_outliers(2);
        let q = quantize_token(&values, scheme);
        let mut bytes = encode_token(&q);
        let n = bytes.len();
        // Make both indices identical.
        bytes[n - 1] = bytes[n - 2];
        assert!(matches!(
            decode_token(&bytes, scheme, 32),
            Err(QuantError::CorruptBlock { .. })
        ));
    }

    #[test]
    fn non_ascending_outlier_indices_are_rejected() {
        let values = sample_values(32, 6);
        let scheme = QuantScheme::int8_with_outliers(2);
        let q = quantize_token(&values, scheme);
        let mut bytes = encode_token(&q);
        let n = bytes.len();
        bytes.swap(n - 1, n - 2);
        assert!(matches!(
            decode_levels(&bytes, scheme, 32),
            Err(QuantError::CorruptBlock { .. })
        ));
    }

    #[test]
    fn budgets_and_widths_the_quantizer_refuses_are_rejected() {
        for (outliers, channels) in [(8, 8), (40, 32), (1, 0), (0, 257)] {
            let scheme = QuantScheme::int4_with_outliers(outliers);
            let bytes = vec![0u8; scheme.token_bytes(channels)];
            assert!(matches!(
                decode_levels(&bytes, scheme, channels),
                Err(QuantError::CorruptBlock { .. })
            ));
        }
    }

    #[test]
    fn truncated_block_is_rejected() {
        let scheme = QuantScheme::int4_with_outliers(4);
        let tokens: Vec<_> = (0..3)
            .map(|s| quantize_token(&sample_values(128, s), scheme))
            .collect();
        let mut block = TokenBlock::encode(&tokens);
        block.bytes.pop();
        assert!(matches!(
            block.decode_tokens(),
            Err(QuantError::CorruptBlock { .. })
        ));
        assert!(matches!(
            block.decode(),
            Err(QuantError::CorruptBlock { .. })
        ));
        assert!(matches!(
            crate::tensor::QuantizedTensor::from_blocks(&[block], scheme),
            Err(QuantError::CorruptBlock { .. })
        ));
    }

    #[test]
    fn block_round_trip() {
        let scheme = QuantScheme::int4_with_outliers(4);
        let tokens: Vec<_> = (0..10)
            .map(|s| quantize_token(&sample_values(128, s), scheme))
            .collect();
        let block = TokenBlock::encode(&tokens);
        assert_eq!(block.num_tokens(), 10);
        assert_eq!(block.encoded_bytes(), 10 * scheme.token_bytes(128));
        assert_eq!(block.decode_tokens().unwrap(), tokens);
        let decoded = block.decode().unwrap();
        for (t, d) in tokens.iter().zip(&decoded) {
            assert_eq!(&t.dequantize(), d);
        }
    }

    #[test]
    fn tokens_per_block_sizing() {
        let scheme = QuantScheme::int4_with_outliers(0); // 68 B at 128 ch
        assert_eq!(TokenBlock::tokens_per_block(scheme, 128, 1024), 15);
        // Never zero, even for tiny blocks.
        assert_eq!(TokenBlock::tokens_per_block(scheme, 128, 8), 1);
    }
}
