//! Quantized-domain GEMM: integer matmul over AAQ-encoded activations
//! against INT8 weights, with a single dequantization epilogue — the
//! paper's RMPU execution model (§5.2), software edition.
//!
//! Where a product against *full-precision* weights would spend one
//! float multiply per MAC, this module keeps both operands integer:
//! activations stay in their encoded levels, weights are
//! per-output-column symmetric INT8, and the inner loop is pure integer
//! multiply-accumulate. Scaling factors — the
//! token's dynamic σ and the weight column's σw — touch each output
//! element exactly once, in the epilogue.
//!
//! # The tile
//!
//! A register-tiled GEMM over two packed operands. An [`MR`]` × `[`NR`]
//! block of **`i16`** accumulators (eight 256-bit registers under
//! [`ln_tensor::simd::wide`]; the same source compiled at 128 bits
//! elsewhere) takes one rank-1 update per channel — a weight row of `NR`
//! levels times each of the `MR` tokens' level, `wrapping_mul` and
//! `wrapping_add` per lane. The RMPU multiplies in 4-bit units and runs a
//! wider level as extra passes; a 16-bit lane plays that unit here. A
//! level splits into 4-bit chunks (low ones unsigned, the top one keeps
//! the sign), each chunk is one pass of the tile, and the passes recombine
//! by shifted addition into `i32`: INT4 costs one pass, INT8 two, INT16
//! four — the cost follows the bits in use.
//!
//! A pass runs `KC = 16` channels before its lanes are added into the
//! `i32` block. A chunk's largest step is nibble 15 (or top chunk −8)
//! times weight ±127 = 1905; sixteen steps reach 30 480 < 2¹⁵, so no lane
//! wraps and every sum is exact (eighteen would not be: 34 290). The `i32`
//! block holds at most `32767 · 127 · 256 < 2³⁰`, the whole-level bound at
//! the widest legal token. A token's ≤ k outliers (INT16 levels, zero in
//! the dense panel) join as `i32` rows under the same bound, and the
//! epilogue `in · (σ_in·σw) + out · (σ_out·σw) + bias` runs on the block
//! before it leaves the stack: each output element is written once.
//!
//! # What is packed when
//!
//! * Weights, at construction ([`QuantizedWeights::from_tensor`]): INT8
//!   levels widened to `i16` in panels of `NR` columns, `[channel][NR]`
//!   contiguous, the last panel zero-padded — 8 KB per 128 channels,
//!   L1-resident while a block of tokens passes over it, and the only
//!   copy of the levels.
//! * Activations, never: the A operand *is* how a [`QuantizedTensor`]
//!   stores its inlier levels — groups of `MR` tokens, `[channel][MR]`
//!   contiguous, zero at outlier slots — written once by the quantizer
//!   itself, however many projections read it. A token's two scales and
//!   its ≤ k outliers (level, channel) come from the tensor's flat
//!   per-token arrays beside the panel.
//!
//! # Weight level −128
//!
//! [`QuantizedWeights::from_tensor`] clamps to ±127 (symmetric INT8), so
//! −128 never occurs. Were one stored the lanes would still be exact
//! (`15 · 128 · 16 = 30 720`); the bound above does not lean on that.

use crate::scheme::Bits;
use crate::tensor::QuantizedTensor;
use ln_tensor::nn::Linear;
use ln_tensor::{simd, Tensor2, TensorError};

/// Tokens per register tile (and per group of the activation panel).
pub const MR: usize = 4;
/// Output columns per register tile (and per weight panel).
pub const NR: usize = 32;
/// Channels one chunk pass accumulates in `i16` lanes before they are
/// added into `i32`: the deepest at which `15 · 127 · KC` stays below 2¹⁵
/// with a round number.
const KC: usize = 16;
/// Tokens that pass over one weight panel before the next is taken up:
/// their levels (16 KB at 128 channels) and the panel share L1.
const TOKEN_BLOCK: usize = 16 * MR;

/// Per-output-column symmetric INT8 weights for the quantized-domain GEMM.
///
/// Logically an `(in_features, out_features)` level matrix like
/// [`ln_tensor::nn::Linear`]'s, so activations `(tokens, in)` map to
/// `(tokens, out)`; stored as the kernel's packed panels.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedWeights {
    in_features: usize,
    out_features: usize,
    /// INT8 levels as `i16`: panel `p` holds columns `p·NR ..` as
    /// `[in][NR]`, zero beyond `out_features`.
    panels: Vec<i16>,
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
        let mut panels = vec![0i16; out_features.div_ceil(NR) * in_features * NR];
        for (i, row) in w.iter_rows().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let q = (v / scales[j])
                    .round()
                    .clamp(-(max_level as f32), max_level as f32);
                panels[Self::panel_index(in_features, i, j)] = q as i16;
            }
        }
        QuantizedWeights {
            in_features,
            out_features,
            panels,
            scales,
        }
    }

    /// Where level `(i, j)` sits in the packed panels.
    fn panel_index(in_features: usize, i: usize, j: usize) -> usize {
        (j / NR * in_features + i) * NR + j % NR
    }

    /// The INT8 level of input channel `i`, output column `j`.
    fn level(&self, i: usize, j: usize) -> i16 {
        self.panels[Self::panel_index(self.in_features, i, j)]
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
            self.level(i, j) as f32 * self.scales[j]
        })
    }

    /// Encoded size in bytes (one byte per level + per-column scales).
    pub fn encoded_bytes(&self) -> usize {
        self.in_features * self.out_features + self.scales.len() * 4
    }
}

/// The RMPU's two multiply-accumulate dataflows, which this kernel runs
/// as one: its 16-bit lanes hold a 4-bit chunk's sums and nothing wider,
/// so every level runs as its width's chunk passes. Only
/// [`QLinear::forward`] takes one, and ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacMode {
    /// One multiply-accumulate per (level, weight) pair.
    Direct,
    /// RMPU-style bit-serial MAC: activation levels split into 4-bit
    /// chunks that accumulate independently and recombine by shifted
    /// addition — lossless, so exactly equal to [`MacMode::Direct`].
    BitChunked,
}

/// Quantized-domain GEMM: `(tokens, in)` AAQ activations × INT8 weights
/// `(in, out)`, integer inner loops, one dequantization epilogue.
///
/// Inlier chunks accumulate in `i16` lanes (at most `15 · 127 · KC =
/// 30 480` each) and recombine in `i32`; INT16 outliers accumulate in
/// `i32` (`32767 · 127 · k < 2³⁰` for any legal `k`). The epilogue applies
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
) -> Result<Tensor2, TensorError> {
    let mut out = Tensor2::zeros(x.num_tokens(), w.out_features);
    qgemm_into(x, w, bias, &mut out)?;
    Ok(out)
}

/// [`qgemm`] written into `out`, whatever it held: the epilogue writes
/// every element exactly once, so nothing is cleared first.
///
/// # Errors
///
/// As [`qgemm`], and when `out` is not `(x.num_tokens(), w.out_features())`.
pub fn qgemm_into(
    x: &QuantizedTensor,
    w: &QuantizedWeights,
    bias: &[f32],
    out: &mut Tensor2,
) -> Result<(), TensorError> {
    if out.shape() != (x.num_tokens(), w.out_features) {
        return Err(qgemm_mismatch(x, w));
    }
    qgemm_rows_into(x, w, bias, 0, out.as_mut_slice())
}

/// Tokens `first ..` of [`qgemm`] — `out.len() / w.out_features()` of
/// them, row-major — written into `out`, whatever it held. Each row has
/// the bits of the same row of the whole product: a tile computes its
/// whole token group and writes back only the rows asked for, so `first`
/// may fall anywhere in a group.
///
/// # Errors
///
/// As [`qgemm`], and when `out` is not a whole number of rows or the rows
/// run past the last token.
pub fn qgemm_rows_into(
    x: &QuantizedTensor,
    w: &QuantizedWeights,
    bias: &[f32],
    first: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let (tokens, n) = (x.num_tokens(), w.out_features);
    let rows = out.len().checked_div(n).unwrap_or(0);
    if x.channels() != w.in_features
        || bias.len() != n
        || rows * n != out.len()
        || first + rows > tokens
    {
        return Err(qgemm_mismatch(x, w));
    }
    if rows == 0 {
        return Ok(());
    }
    let passes = x.scheme().inlier_bits.four_bit_chunks();
    ln_par::metrics::time_kernel("aaq.qgemm", (rows * n) as u64, || {
        // Chunks span whole token groups; when `first` falls inside a
        // group, so does every chunk's start, and the group on a seam is
        // tiled by both chunks, each keeping its own rows.
        let per_chunk = ln_par::chunk_len(rows.div_ceil(MR), QGEMM_PAR_GRAIN_GROUPS) * MR;
        ln_par::par_chunks_mut(out, per_chunk * n, |c, chunk| {
            // The tile needs 16-bit multiplies at the host's real width;
            // integer sums and the per-element epilogue are exact either way.
            simd::wide(
                #[inline(always)]
                || token_chunk(x, w, bias, passes, first + c * per_chunk, chunk),
            );
        });
    });
    Ok(())
}

fn qgemm_mismatch(x: &QuantizedTensor, w: &QuantizedWeights) -> TensorError {
    TensorError::ShapeMismatch {
        op: "qgemm",
        lhs: vec![x.num_tokens(), x.channels()],
        rhs: vec![w.in_features, w.out_features],
    }
}

/// Minimum token groups per parallel chunk for the quantized-domain GEMM.
const QGEMM_PAR_GRAIN_GROUPS: usize = 2;

/// The output rows `chunk` of tokens `first_token ..`: token blocks over
/// weight panels over register tiles, outliers and epilogue per tile. The
/// tiles cover whole token groups of the level panel; a group the rows
/// only partly cover is tiled whole and written back in part.
#[inline(always)]
fn token_chunk(
    x: &QuantizedTensor,
    w: &QuantizedWeights,
    bias: &[f32],
    passes: usize,
    first_token: usize,
    chunk: &mut [f32],
) {
    let (k, n) = (w.in_features, w.out_features);
    // The tiles run from the group `first_token` is in, `skip` rows early.
    let skip = first_token % MR;
    let tiled = skip + chunk.len() / n;
    for block in (0..tiled).step_by(TOKEN_BLOCK) {
        for p in 0..n.div_ceil(NR) {
            let panel = &w.panels[p * k * NR..][..k * NR];
            let cols = p * NR..n.min((p + 1) * NR);
            let (scales, bias) = (&w.scales[cols.clone()], &bias[cols.clone()]);
            for g in (block..tiled.min(block + TOKEN_BLOCK)).step_by(MR) {
                let token = first_token - skip + g;
                let levels = &x.levels[token * k..][..k * MR];
                let mut acc = [[0i32; NR]; MR];
                for (a, wk) in levels.chunks(KC * MR).zip(panel.chunks(KC * NR)) {
                    kc_block(a, wk, passes, &mut acc);
                }
                let (lo, hi) = (g.max(skip), tiled.min(g + MR));
                let rows = &mut chunk[(lo - skip) * n..(hi - skip) * n];
                let accs = &acc[lo - g..hi - g];
                for ((row, t), in_acc) in rows.chunks_mut(n).zip(token + lo - g..).zip(accs) {
                    let out_acc = outlier_macs(x.outliers(t), panel);
                    let (si, so) = x.scales(t);
                    for ((slot, (&ia, &oa)), (&sw, &b)) in row[cols.clone()]
                        .iter_mut()
                        .zip(in_acc.iter().zip(&out_acc))
                        .zip(scales.iter().zip(bias))
                    {
                        *slot = ia as f32 * (si * sw) + oa as f32 * (so * sw) + b;
                    }
                }
            }
        }
    }
}

/// All chunk passes of the tile over ≤ [`KC`] channels: `levels` is
/// `[ch][MR]`, `w` `[ch][NR]`.
#[inline(always)]
fn kc_block(levels: &[i16], w: &[i16], passes: usize, acc: &mut [[i32; NR]; MR]) {
    if passes == 1 {
        // A one-chunk level is its own (signed, top) chunk: no copy.
        return chunk_pass(levels, w, 0, acc);
    }
    let mut pieces = [0i16; KC * MR];
    let pieces = &mut pieces[..levels.len()];
    for pass in 0..passes {
        let shift = 4 * pass as u32;
        let top = pass + 1 == passes;
        for (piece, &level) in pieces.iter_mut().zip(levels) {
            // Low chunks are unsigned nibbles; the arithmetic shift keeps
            // the sign in the top one.
            *piece = if top {
                level >> shift
            } else {
                (level >> shift) & 0xF
            };
        }
        chunk_pass(pieces, w, shift, acc);
    }
}

/// Lanes of one 256-bit register. The tile's `NR` columns are held as two
/// such halves, each its own array: rows wider than the widest register
/// do not vectorise reliably.
const HALF: usize = NR / 2;

/// One chunk pass: the rank-1 updates `pieces[ch][·] × w[ch][·]` summed in
/// `i16` lanes, then added into `acc` shifted back into place.
#[inline(always)]
fn chunk_pass(pieces: &[i16], w: &[i16], shift: u32, acc: &mut [[i32; NR]; MR]) {
    let mut lo = [[0i16; HALF]; MR];
    let mut hi = [[0i16; HALF]; MR];
    for (pieces, w_row) in pieces.chunks_exact(MR).zip(w.chunks_exact(NR)) {
        let (w_lo, w_hi) = w_row.split_at(HALF);
        for ((lo_row, hi_row), &piece) in lo.iter_mut().zip(&mut hi).zip(pieces) {
            for (lanes, w_half) in [(lo_row, w_lo), (hi_row, w_hi)] {
                for (lane, &wl) in lanes.iter_mut().zip(w_half) {
                    *lane = lane.wrapping_add(piece.wrapping_mul(wl));
                }
            }
        }
    }
    for ((acc_row, lo_row), hi_row) in acc.iter_mut().zip(&lo).zip(&hi) {
        let (acc_lo, acc_hi) = acc_row.split_at_mut(HALF);
        for (sums, lanes) in [(acc_lo, lo_row), (acc_hi, hi_row)] {
            for (sum, &lane) in sums.iter_mut().zip(lanes) {
                *sum += (lane as i32) << shift;
            }
        }
    }
}

/// The token's INT16 outliers (≤ k rows of the panel) as `i32` MACs.
#[inline(always)]
fn outlier_macs((levels, indices): (&[i16], &[u8]), panel: &[i16]) -> [i32; NR] {
    let mut acc = [0i32; NR];
    for (&level, &idx) in levels.iter().zip(indices) {
        let w_row = &panel[idx as usize * NR..][..NR];
        for (sum, &wl) in acc.iter_mut().zip(w_row) {
            *sum += level as i32 * wl as i32;
        }
    }
    acc
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
    /// quantized domain until the epilogue. `_mode` is ignored: both
    /// [`MacMode`]s are the same chunk passes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the activation width
    /// differs from the layer's input width.
    pub fn forward(&self, x: &QuantizedTensor, _mode: MacMode) -> Result<Tensor2, TensorError> {
        qgemm(x, &self.weights, &self.bias)
    }

    /// Tokens `first ..` of [`QLinear::forward`] written into `out`,
    /// whatever it held ([`qgemm_rows_into`]).
    ///
    /// # Errors
    ///
    /// As [`qgemm_rows_into`].
    pub fn forward_rows_into(
        &self,
        x: &QuantizedTensor,
        first: usize,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        qgemm_rows_into(x, &self.weights, &self.bias, first, out)
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

    /// The quantized-domain product one output element at a time, in
    /// scalar integer arithmetic — nothing for a vectoriser to widen.
    fn scalar_reference(x: &QuantizedTensor, w: &QuantizedWeights, bias: &[f32]) -> Vec<f32> {
        let n = w.out_features();
        let mut out = Vec::with_capacity(x.num_tokens() * n);
        for t in 0..x.num_tokens() {
            let (levels, indices) = x.outliers(t);
            let inlier_channels: Vec<usize> = (0..x.channels())
                .filter(|ch| !indices.contains(&(*ch as u8)))
                .collect();
            let (si, so) = x.scales(t);
            for (o, (&sw, &b)) in w.scales.iter().zip(bias).enumerate() {
                let mut in_acc = 0i32;
                for (level, &ch) in x.inliers(t).zip(&inlier_channels) {
                    in_acc += level as i32 * w.level(ch, o) as i32;
                }
                let mut out_acc = 0i64;
                for (&level, &ch) in levels.iter().zip(indices) {
                    out_acc += level as i64 * w.level(ch as usize, o) as i64;
                }
                out.push(in_acc as f32 * (si * sw) + out_acc as f32 * (so * sw) + b);
            }
        }
        out
    }

    /// `qgemm`, and the tile body compiled for the baseline
    /// (called outside [`simd::wide`]), against [`scalar_reference`].
    fn assert_equals_reference(
        x: &QuantizedTensor,
        w: &QuantizedWeights,
        bias: &[f32],
        what: &str,
    ) {
        let want = scalar_reference(x, w, bias);
        let same = |got: &[f32]| {
            got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        let (tokens, n) = (x.num_tokens(), w.out_features());
        let got = qgemm(x, w, bias).unwrap();
        assert!(same(got.as_slice()), "{what}");
        // Into a buffer that held something else.
        let mut out = Tensor2::full(tokens, n, f32::NAN);
        qgemm_into(x, w, bias, &mut out).unwrap();
        assert!(same(out.as_slice()), "{what} into");
        // Token ranges from every token, on a group boundary or inside
        // a group: one token, into the next group, to the end — each
        // the same rows of the whole.
        for first in 0..tokens {
            for rows in [1, MR + 1, tokens - first] {
                if first + rows > tokens {
                    continue;
                }
                let mut out = vec![f32::NAN; rows * n];
                qgemm_rows_into(x, w, bias, first, &mut out).unwrap();
                let same_rows = out
                    .iter()
                    .zip(&want[first * n..])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same_rows, "{what} tokens {first} + {rows}");
            }
        }
        // Rows past the last token, or (wider than one channel) not a
        // whole number of rows.
        let mut bad = vec![
            (0, (tokens + 1) * n),
            (tokens / MR * MR, (MR + 1) * n),
            (tokens, n),
        ];
        if n > 1 {
            bad.push((0, n + 1));
        }
        for (first, len) in bad {
            let mut out = vec![0.0; len];
            assert!(
                matches!(
                    qgemm_rows_into(x, w, bias, first, &mut out),
                    Err(TensorError::ShapeMismatch { .. })
                ),
                "{what} tokens {first} + {len} values"
            );
        }
        let mut baseline = vec![0.0f32; want.len()];
        let passes = x.scheme().inlier_bits.four_bit_chunks();
        token_chunk(x, w, bias, passes, 0, &mut baseline);
        assert!(same(&baseline), "{what} baseline body");
        // And from inside the first group.
        let first = 1.min(tokens);
        let mut tail = vec![f32::NAN; want.len() - first * n];
        token_chunk(x, w, bias, passes, first, &mut tail);
        let same_tail = tail
            .iter()
            .zip(&want[first * n..])
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same_tail, "{what} baseline body from token {first}");
    }

    fn scheme(inlier_bits: Bits, outliers: usize) -> QuantScheme {
        QuantScheme {
            inlier_bits,
            outliers,
        }
    }

    #[test]
    fn qgemm_equals_the_scalar_reference_off_the_happy_shape() {
        // Around the tile's MR × NR, the KC flush depth and the 128-wide
        // hardware token; token 1 and weight column 2 are all zeros.
        let token_counts = [0, 1, MR - 1, MR, MR + 1, 37];
        let out_widths = [1, 4, NR - 1, NR, NR + 1, 43, 130];
        let in_widths = [1, 15, 16, 17, 100, 128, 129, 256];
        for (tokens, k) in token_counts
            .into_iter()
            .flat_map(|t| in_widths.map(|k| (t, k)))
        {
            let x = Tensor2::from_fn(tokens, k, |i, j| {
                let spike = if j == (i * 29) % k { 30.0 } else { 1.0 };
                let v = spike * (((i * 7 + j * 5) % 13) as f32 * 0.2 - 1.2);
                if i == 1 {
                    0.0
                } else {
                    v
                }
            });
            let encoded: Vec<QuantizedTensor> = [Bits::Int4, Bits::Int8, Bits::Int16]
                .into_iter()
                .flat_map(|bits| [0, 4, 8].map(|outliers| scheme(bits, outliers)))
                .filter(|s| s.validate(k).is_ok())
                .map(|s| QuantizedTensor::from_tensor(&x, s))
                .collect();
            for n in out_widths {
                let wt = Tensor2::from_fn(k, n, |i, j| {
                    if j == 2 {
                        0.0
                    } else {
                        ((i * 11 + j * 3) % 17) as f32 * 0.1 - 0.8
                    }
                });
                let w = QuantizedWeights::from_tensor(&wt);
                let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.05 - 0.2).collect();
                for q in &encoded {
                    let what = format!("{tokens} × {k} → {n}, {}", q.scheme());
                    assert_equals_reference(q, &w, &bias, &what);
                }
            }
        }
    }

    #[test]
    fn saturated_chunks_never_leave_their_16_bit_lane() {
        // Every inlier at ± the top level (low nibbles 15 or 1, top chunk
        // +7 or −8) against weights all +127, all −127 and alternating,
        // at the widest legal token: the worst case the KC bound is for.
        let k = 256;
        let x = Tensor2::from_fn(MR + 1, k, |i, j| match i {
            0 => 2.5,
            1 => -2.5,
            _ if (i + j) % 2 == 0 => 2.5,
            _ => -2.5,
        });
        let wt = Tensor2::from_fn(k, NR + 1, |i, j| match j % 3 {
            0 => 0.75,
            1 => -0.75,
            _ if i % 2 == 0 => 0.75,
            _ => -0.75,
        });
        let w = QuantizedWeights::from_tensor(&wt);
        assert!((0..k).all(|i| w.level(i, 0) == 127 && w.level(i, 1) == -127));
        let bias = vec![0.0f32; NR + 1];
        for bits in [Bits::Int4, Bits::Int8, Bits::Int16] {
            for outliers in [0, 4] {
                let q = QuantizedTensor::from_tensor(&x, scheme(bits, outliers));
                let top = bits.max_level() as i16;
                assert!(q.inliers(0).all(|l| l == top));
                assert!(q.inliers(1).all(|l| l == -top));
                assert_equals_reference(&q, &w, &bias, &format!("saturated {}", q.scheme()));
            }
            // The sum itself, not only agreement with the reference.
            let q = QuantizedTensor::from_tensor(&x, scheme(bits, 0));
            let got = qgemm(&q, &w, &bias).unwrap();
            let sum = bits.max_level() * 127 * k as i32;
            let (si, _) = q.scales(0);
            assert_eq!(got.at(0, 0), sum as f32 * (si * w.scales()[0]) + 0.0 + 0.0);
            assert_eq!(got.at(1, 0), -sum as f32 * (si * w.scales()[0]) + 0.0 + 0.0);
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
            let fast = qgemm(&q, &w, &bias).unwrap();
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
    fn qlinear_forward_matches_qgemm_whatever_its_mode() {
        let linear = ln_tensor::nn::Linear::deterministic_with_bias("qgemm_layer", 32, 8, 1.0, 0.3);
        let ql = QLinear::from_linear(&linear);
        for scheme in [
            QuantScheme::int8_with_outliers(4),
            QuantScheme::int4_with_outliers(4),
        ] {
            let q = QuantizedTensor::from_tensor(&activation(), scheme);
            let via_gemm = qgemm(&q, ql.weights(), linear.bias()).unwrap();
            for mode in [MacMode::Direct, MacMode::BitChunked] {
                assert_eq!(ql.forward(&q, mode).unwrap(), via_gemm, "{scheme} {mode:?}");
            }
        }
    }

    #[test]
    fn qgemm_rejects_bad_shapes() {
        let q = QuantizedTensor::from_tensor(&activation(), QuantScheme::int8_with_outliers(2));
        let w = QuantizedWeights::from_tensor(&Tensor2::zeros(31, 8));
        assert!(qgemm(&q, &w, &[0.0; 8]).is_err());
        // A wrong-shaped `out` is an error too, not a panic.
        let w = QuantizedWeights::from_tensor(&weights());
        for (rows, cols) in [(12, 7), (11, 8), (0, 0)] {
            let mut out = Tensor2::zeros(rows, cols);
            assert!(matches!(
                qgemm_into(&q, &w, &[0.0; 8], &mut out),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
        let mut out = Tensor2::zeros(12, 8);
        assert!(qgemm_into(&q, &w, &[0.0; 8], &mut out).is_ok());
    }
}
