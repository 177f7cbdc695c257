//! The byte-exact memory layout of quantized tokens (Fig. 7).
//!
//! Per token: packed inliers first, then INT16 outliers, then the scaling
//! factor(s), then the u8 outlier indices. Tokens sharing a scheme are
//! grouped into *blocks* sized for the memory channel (the Token Aligner in
//! `ln-accel` consumes these blocks and realigns them token-wise into the
//! scratchpad).
//!
//! The layout is the source of truth for all byte accounting: the
//! simulator charges HBM traffic for exactly these bytes, and
//! [`crate::scheme::QuantScheme::token_bytes`] is the sum of the section
//! lengths the codec below splits a token at.
//!
//! # One codec, on the container
//!
//! An encoded token has one in-memory form, a
//! [`QuantizedTensor`]: its levels in the panel, its
//! scales, its outliers. `encode_into` writes a token's bytes straight
//! from those ([`QuantizedTensor::to_blocks`]) and `decode_into` reads
//! them straight back into them ([`QuantizedTensor::from_blocks`], and
//! [`decode_levels`] for one token's bytes — the one public way from raw
//! bytes to a container). Bytes → container → bytes and container → bytes
//! → container are both the identity, and this module turns no level into
//! a value: [`QuantizedTensor::decode`] does.
//!
//! # What the decoders do with input they did not write
//!
//! Nothing here panics on bytes, schemes or widths from outside; what each
//! case gives instead ([`decode_levels`], and
//! [`QuantizedTensor::from_blocks`]):
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
use crate::tensor::QuantizedTensor;
use crate::token::{inlier_runs, MAX_TOKEN_CHANNELS};
use crate::QuantError;
use std::ops::Range;

/// Default block size target in bytes (one HBM2E burst group; §4.3 sizes
/// blocks by the memory-channel bandwidth).
pub const DEFAULT_BLOCK_BYTES: usize = 1024;

/// Minimum tokens per chunk for the parallel block encode path.
const BLOCK_PAR_GRAIN_TOKENS: usize = 16;

fn corrupt<T>(what: String) -> Result<T, QuantError> {
    Err(QuantError::CorruptBlock { what })
}

/// `Ok` when tokens of `channels` values under `scheme` are ones the
/// quantizer can have written: an inlier left, at most 256 channels.
pub(crate) fn check_width(scheme: QuantScheme, channels: usize) -> Result<(), QuantError> {
    if scheme.outliers >= channels.max(1) || channels > MAX_TOKEN_CHANNELS {
        return corrupt(format!(
            "{} outliers in {channels} channels: no inlier left, or wider than a token gets",
            scheme.outliers
        ));
    }
    Ok(())
}

/// Writes token `t` of `q` into `dst` as its Fig. 7 bytes, straight from
/// the container: the inlier levels in channel order (outlier channels
/// skipped), the outliers' INT16 levels, `(σ_in, σ_out)` and the outliers'
/// channel indices.
///
/// # Panics
///
/// Panics unless `dst` is `q.scheme().token_bytes(q.channels())` long.
pub(crate) fn encode_into(dst: &mut [u8], q: &QuantizedTensor, t: usize) {
    let scheme = q.scheme();
    let [inliers, outliers, scales, _] = scheme.sections(q.channels());
    let (inlier_raw, rest) = dst.split_at_mut(inliers);
    let (outlier_raw, rest) = rest.split_at_mut(outliers);
    let (scale_raw, index_raw) = rest.split_at_mut(scales);
    // 1. Inliers, packed.
    let mut levels = q.inliers(t);
    match scheme.inlier_bits {
        // Two's-complement nibbles, the low one first.
        Bits::Int4 => {
            for byte in inlier_raw {
                let low = levels.next().unwrap_or(0) as u8 & 0x0F;
                *byte = low | (levels.next().unwrap_or(0) as u8) << 4;
            }
        }
        Bits::Int8 => {
            for (byte, level) in inlier_raw.iter_mut().zip(levels) {
                *byte = level as u8;
            }
        }
        Bits::Int16 => {
            for (pair, level) in inlier_raw.chunks_exact_mut(2).zip(levels) {
                pair.copy_from_slice(&level.to_le_bytes());
            }
        }
    }
    // 2. Outliers (INT16 little-endian).
    let (outlier_levels, outlier_indices) = q.outliers(t);
    for (pair, level) in outlier_raw.chunks_exact_mut(2).zip(outlier_levels) {
        pair.copy_from_slice(&level.to_le_bytes());
    }
    // 3. Scaling factors: inlier scale always; outlier scale when present.
    let (inlier_scale, outlier_scale) = q.scales(t);
    scale_raw[..4].copy_from_slice(&inlier_scale.to_le_bytes());
    if scheme.outliers > 0 {
        scale_raw[4..].copy_from_slice(&outlier_scale.to_le_bytes());
    }
    // 4. Outlier indices.
    index_raw.copy_from_slice(outlier_indices);
}

/// Reads one token's Fig. 7 bytes into token `t` of `q` — its panel
/// slots, scales and outliers — under `q`'s scheme and width: the inverse
/// of [`encode_into`]. Nothing is written before the bytes are checked.
/// Token `t` must still be all-zero, as `QuantizedTensor::zeroed` leaves
/// it: the panel slots of its outlier channels are not written.
///
/// # Errors
///
/// Returns [`QuantError::CorruptBlock`] for a byte length off
/// `token_bytes`, an outlier index out of range, or indices not strictly
/// ascending.
pub(crate) fn decode_into(
    bytes: &[u8],
    q: &mut QuantizedTensor,
    t: usize,
) -> Result<(), QuantError> {
    let (scheme, channels) = (q.scheme(), q.channels());
    let expected = scheme.token_bytes(channels);
    if bytes.len() != expected {
        return corrupt(format!(
            "token length {} != expected {expected}",
            bytes.len()
        ));
    }
    let [inliers, outliers, scales, _] = scheme.sections(channels);
    let (inlier_raw, rest) = bytes.split_at(inliers);
    let (outlier_raw, rest) = rest.split_at(outliers);
    let (scale_raw, index_raw) = rest.split_at(scales);
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

    let le_i16 = |pair: &[u8]| i16::from_le_bytes([pair[0], pair[1]]);
    let le_f32 = |quad: &[u8]| f32::from_le_bytes([quad[0], quad[1], quad[2], quad[3]]);
    let (outlier_levels, outlier_indices) = q.outliers_mut(t);
    for (level, pair) in outlier_levels.iter_mut().zip(outlier_raw.chunks_exact(2)) {
        *level = le_i16(pair);
    }
    outlier_indices.copy_from_slice(index_raw);
    q.scales[t] = if scheme.outliers > 0 {
        (le_f32(&scale_raw[..4]), le_f32(&scale_raw[4..]))
    } else {
        (le_f32(scale_raw), 1.0)
    };
    match scheme.inlier_bits {
        // Two's-complement nibbles, low one first: shift each to the top
        // of an `i8` and back down to sign-extend it.
        Bits::Int4 => scatter_inliers(
            q,
            t,
            index_raw,
            inlier_raw
                .iter()
                .flat_map(|&b| [b << 4, b].map(|n| (n as i8 >> 4) as i16)),
        ),
        Bits::Int8 => scatter_inliers(q, t, index_raw, inlier_raw.iter().map(|&b| b as i8 as i16)),
        Bits::Int16 => scatter_inliers(q, t, index_raw, inlier_raw.chunks_exact(2).map(le_i16)),
    }
    Ok(())
}

/// Writes `levels` to token `t`'s inlier slots of the panel, in channel
/// order, skipping the ascending outlier channels `indices`; a level past
/// the last inlier (an INT4 pad nibble) is dropped.
fn scatter_inliers(
    q: &mut QuantizedTensor,
    t: usize,
    indices: &[u8],
    levels: impl Iterator<Item = i16>,
) {
    for (ch, level) in inlier_runs(q.channels(), indices).flatten().zip(levels) {
        let slot = q.slot(t, ch);
        q.levels[slot] = level;
    }
}

/// Decodes one token's bytes into a one-token container holding the
/// levels, scales and outlier indices they were encoded from: the one
/// public way from raw bytes to a [`QuantizedTensor`], and the exact
/// inverse of its [`to_blocks`](QuantizedTensor::to_blocks) for one
/// token.
///
/// # Errors
///
/// Returns [`QuantError::CorruptBlock`] in the cases tabulated in the
/// module docs.
pub fn decode_levels(
    bytes: &[u8],
    scheme: QuantScheme,
    channels: usize,
) -> Result<QuantizedTensor, QuantError> {
    check_width(scheme, channels)?;
    let mut q = QuantizedTensor::zeroed(scheme, channels, 1);
    decode_into(bytes, &mut q, 0)?;
    Ok(q)
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
    /// The block of tokens `rows` of `q`, each written by [`encode_into`].
    pub(crate) fn encode_rows(q: &QuantizedTensor, rows: Range<usize>) -> TokenBlock {
        // Uniform scheme ⇒ fixed stride, so tokens encode independently
        // into disjoint byte ranges (the paper's 128-VVPU token axis).
        let (scheme, channels, tokens) = (q.scheme(), q.channels(), rows.len());
        let stride = scheme.token_bytes(channels);
        let mut bytes = vec![0u8; tokens * stride];
        ln_par::metrics::time_kernel("aaq.block_encode", tokens as u64, || {
            let per_chunk = ln_par::chunk_len(tokens, BLOCK_PAR_GRAIN_TOKENS);
            ln_par::par_chunks_mut(&mut bytes, per_chunk * stride, |c, chunk| {
                for (local, dst) in chunk.chunks_mut(stride).enumerate() {
                    encode_into(dst, q, rows.start + c * per_chunk + local);
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

    /// Each token's bytes, in order.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptBlock`] unless the block is its token
    /// count times the token stride long.
    pub(crate) fn tokens(&self) -> Result<std::slice::ChunksExact<'_, u8>, QuantError> {
        let stride = self.scheme.token_bytes(self.channels);
        if self.bytes.len() != stride * self.tokens {
            return corrupt(format!(
                "block length {} != {} tokens × {stride} bytes",
                self.bytes.len(),
                self.tokens
            ));
        }
        Ok(self.bytes.chunks_exact(stride))
    }

    /// How many tokens of this shape fit a target block size.
    pub fn tokens_per_block(scheme: QuantScheme, channels: usize, block_bytes: usize) -> usize {
        (block_bytes / scheme.token_bytes(channels)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_tensor::Tensor2;

    fn sample_values(n: usize, seed: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (((i * 31 + seed * 17) % 97) as f32 - 48.0) * 0.21)
            .collect()
    }

    /// `values` encoded as a one-token container.
    fn encoded(values: &[f32], scheme: QuantScheme) -> QuantizedTensor {
        let x = Tensor2::from_vec(1, values.len(), values.to_vec()).expect("one row");
        QuantizedTensor::from_tensor(&x, scheme)
    }

    /// A one-token container's Fig. 7 bytes.
    fn bytes_of(q: &QuantizedTensor) -> Vec<u8> {
        let blocks = q.to_blocks();
        assert_eq!(blocks.len(), 1);
        blocks[0].as_bytes().to_vec()
    }

    fn is_corrupt<T>(result: Result<T, QuantError>) -> bool {
        matches!(result, Err(QuantError::CorruptBlock { .. }))
    }

    #[test]
    fn encoded_length_matches_scheme_formula() {
        for scheme in [
            QuantScheme::int4_with_outliers(0),
            QuantScheme::int4_with_outliers(4),
            QuantScheme::int8_with_outliers(4),
            QuantScheme::int8_with_outliers(0),
        ] {
            let q = encoded(&sample_values(128, 1), scheme);
            assert_eq!(bytes_of(&q).len(), scheme.token_bytes(128), "{scheme}");
        }
    }

    #[test]
    fn decode_levels_inverts_the_encoding() {
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
                    let q = encoded(&sample_values(channels, channels), scheme);
                    let bytes = bytes_of(&q);
                    let back = decode_levels(&bytes, scheme, channels).unwrap();
                    assert_eq!(back, q, "{scheme}, {channels} channels");
                    assert_eq!(bytes_of(&back), bytes);
                }
            }
        }
    }

    #[test]
    fn non_finite_zero_and_negative_scales_decode_without_panicking() {
        let inf = f32::INFINITY;
        let scheme = QuantScheme::int8_with_outliers(2);
        let q = encoded(&[1.0, -inf, 0.5, inf, f32::NAN, 0.75, inf, -0.25], scheme);
        assert_eq!(q.scales(0), (inf, inf));
        let bytes = bytes_of(&q);
        assert_eq!(decode_levels(&bytes, scheme, 8).unwrap(), q);
        // Any other scale can only come from damaged bytes; each decodes,
        // and the values are `level · σ`.
        let scale_at = bytes.len() - 2 - 8;
        for scale in [f32::NAN, 0.0, -0.5] {
            let mut bytes = bytes.clone();
            bytes[scale_at..scale_at + 4].copy_from_slice(&scale.to_le_bytes());
            let back = decode_levels(&bytes, scheme, 8).unwrap();
            assert_eq!(back.scales(0).0.to_bits(), scale.to_bits());
            let values = back.decode();
            assert_eq!(values.shape(), (1, 8));
            let (_, indices) = back.outliers(0);
            for (ch, level) in (0..8)
                .filter(|ch| !indices.contains(&(*ch as u8)))
                .zip(back.inliers(0))
            {
                let want = level as f32 * scale;
                assert_eq!(
                    values.at(0, ch).to_bits(),
                    want.to_bits(),
                    "σ {scale} ch {ch}"
                );
            }
        }
    }

    #[test]
    fn int4_packing_is_two_per_byte() {
        let q = encoded(&sample_values(128, 3), QuantScheme::int4_with_outliers(0));
        // 64 inlier bytes + 4 scale bytes.
        assert_eq!(bytes_of(&q).len(), 68);
    }

    #[test]
    fn negative_int4_values_sign_extend() {
        let scheme = QuantScheme::int4_with_outliers(0);
        let mut values = vec![0.0f32; 8];
        values[0] = -7.0;
        values[1] = 7.0;
        let bytes = bytes_of(&encoded(&values, scheme));
        let decoded = decode_levels(&bytes, scheme, 8).unwrap().decode();
        assert!((decoded.at(0, 0) + 7.0).abs() < 1e-4);
        assert!((decoded.at(0, 1) - 7.0).abs() < 1e-4);
        // −8 is a nibble the quantizer never writes; it decodes as −8.
        let mut bytes = bytes;
        bytes[0] = 0x78;
        let q = decode_levels(&bytes, scheme, 8).unwrap();
        assert!(q.inliers(0).take(2).eq([-8, 7]));
    }

    #[test]
    fn the_pad_nibble_is_written_zero_and_ignored() {
        for channels in [17, 129] {
            let scheme = QuantScheme::int4_with_outliers(4);
            let q = encoded(&sample_values(channels, 7), scheme);
            let mut bytes = bytes_of(&q);
            let last_inlier = scheme.sections(channels)[0] - 1;
            assert_eq!(bytes[last_inlier] >> 4, 0, "{channels} channels");
            bytes[last_inlier] |= 0xF0;
            assert_eq!(decode_levels(&bytes, scheme, channels).unwrap(), q);
        }
    }

    #[test]
    fn truncated_or_padded_token_is_rejected() {
        let scheme = QuantScheme::int8_with_outliers(2);
        let bytes = bytes_of(&encoded(&sample_values(32, 4), scheme));
        assert!(is_corrupt(decode_levels(
            &bytes[..bytes.len() - 1],
            scheme,
            32
        )));
        let padded = [&bytes[..], &[0]].concat();
        assert!(is_corrupt(decode_levels(&padded, scheme, 32)));
    }

    #[test]
    fn bytes_of_another_scheme_and_width_decode_as_asked() {
        // INT8 + 0 at 8 channels and INT4 + 0 at 16 are both 12 bytes.
        let bytes = bytes_of(&encoded(
            &sample_values(8, 5),
            QuantScheme::int8_with_outliers(0),
        ));
        let scheme = QuantScheme::int4_with_outliers(0);
        let q = decode_levels(&bytes, scheme, 16).expect("no tag to disagree with");
        assert_eq!((q.scheme(), q.num_tokens(), q.channels()), (scheme, 1, 16));
        assert_eq!(bytes_of(&q), bytes);
    }

    #[test]
    fn corrupt_outlier_index_is_rejected() {
        let scheme = QuantScheme::int8_with_outliers(1);
        let mut bytes = bytes_of(&encoded(&sample_values(32, 5), scheme));
        let last = bytes.len() - 1;
        bytes[last] = 200; // out of range for 32 channels
        assert!(is_corrupt(decode_levels(&bytes, scheme, 32)));
    }

    #[test]
    fn duplicate_outlier_index_is_rejected() {
        let scheme = QuantScheme::int8_with_outliers(2);
        let mut bytes = bytes_of(&encoded(&sample_values(32, 6), scheme));
        let n = bytes.len();
        // Make both indices identical.
        bytes[n - 1] = bytes[n - 2];
        assert!(is_corrupt(decode_levels(&bytes, scheme, 32)));
    }

    #[test]
    fn non_ascending_outlier_indices_are_rejected() {
        let scheme = QuantScheme::int8_with_outliers(2);
        let mut bytes = bytes_of(&encoded(&sample_values(32, 6), scheme));
        let n = bytes.len();
        bytes.swap(n - 1, n - 2);
        assert!(is_corrupt(decode_levels(&bytes, scheme, 32)));
    }

    #[test]
    fn budgets_and_widths_the_quantizer_refuses_are_rejected() {
        for (outliers, channels) in [(8, 8), (40, 32), (1, 0), (0, 257), (usize::MAX, 8)] {
            let scheme = QuantScheme::int4_with_outliers(outliers);
            let bytes = vec![0u8; 64];
            assert!(is_corrupt(decode_levels(&bytes, scheme, channels)));
        }
        let huge = QuantScheme::int4_with_outliers(0);
        assert!(is_corrupt(decode_levels(&[0u8; 64], huge, usize::MAX)));
    }

    #[test]
    fn truncated_block_is_rejected() {
        let scheme = QuantScheme::int4_with_outliers(4);
        let x = Tensor2::from_fn(3, 128, |i, j| sample_values(128, i)[j]);
        let mut blocks = QuantizedTensor::from_tensor(&x, scheme).to_blocks();
        assert_eq!(blocks.len(), 1);
        blocks[0].bytes.pop();
        assert!(is_corrupt(QuantizedTensor::from_blocks(&blocks, scheme)));
    }

    #[test]
    fn blocks_hold_whole_tokens_of_one_stride() {
        let scheme = QuantScheme::int4_with_outliers(4);
        let x = Tensor2::from_fn(10, 128, |i, j| sample_values(128, i)[j]);
        let q = QuantizedTensor::from_tensor(&x, scheme);
        let blocks = q.to_blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].num_tokens(), 10);
        assert_eq!(blocks[0].encoded_bytes(), 10 * scheme.token_bytes(128));
        for (t, bytes) in blocks[0].tokens().unwrap().enumerate() {
            let token = decode_levels(bytes, scheme, 128).unwrap();
            let row = Tensor2::from_vec(1, 128, x.row(t).to_vec()).unwrap();
            assert_eq!(
                token,
                QuantizedTensor::from_tensor(&row, scheme),
                "token {t}"
            );
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
