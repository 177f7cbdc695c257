//! Triangular Multiplication (Fig. 6(a)): refines pair interactions with a
//! gated "triangle" update — for every pair `(i, j)`, information flows
//! through all intermediate residues `k`.
//!
//! There is one body, Outgoing's: `out[i][j] = Σ_k l(i, k) ⊙ r(j, k)`.
//! Incoming runs it on the pair stream transposed in place, `(a, b) ↔
//! (b, a)`, with the gated sides' roles swapped — its right side is the
//! einsum's left operand — and transposes back. Transposed token `(p, q)`
//! then folds `Σ_k right(k, p) · left(k, q)`: the products of Incoming's
//! token `(q, p)` (a multiply commutes), in the same ascending `k`, scaled
//! the same way; every other step is token-wise, so the bits are
//! Incoming's. Its taps see the tokens in that order, as the Ending
//! attention node's do.
//!
//! Output row `i` reads every token of the right operand but only row `i`
//! of the left one. So only the right operand is whole — stored packed as
//! the einsum reads it, a block of tokens at a time — and the left one is
//! computed a block of whole output rows at a time, just before those
//! rows' product, out LayerNorm, output gate and projection, whose update
//! goes into the block's own rows of the post-LN buffer. Beside the
//! stream the stage holds two pair tensors — the post-LN activation and
//! the packed operand — and two row blocks, unless the hook
//! [wants](ActivationHook::takes_row_blocks) a blocked site whole: then
//! that block is the whole tensor, and the stage holds up to four.

use super::{
    block_len, residual_stage, transpose_pair_tokens, workspace, Activation, PostLn, Projection,
    ROW_BLOCK,
};
use crate::taps::{ActivationHook, ActivationSite, Tap};
use crate::{PpmConfig, PpmError};
use einsum::Einsum;
use ln_tensor::nn::{LayerNorm, Linear};
use ln_tensor::{Tensor2, Tensor3};

/// Which triangle edge orientation the unit updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriangleDirection {
    /// "Outgoing" edges: `out[i][j] = Σ_k left[i][k] ⊙ right[j][k]`.
    Outgoing,
    /// "Incoming" edges: `out[i][j] = Σ_k left[k][i] ⊙ right[k][j]`.
    Incoming,
}

/// A triangular-multiplication unit with the standard gated projections.
#[derive(Debug, Clone)]
pub struct TriangularMultiplication {
    direction: TriangleDirection,
    norm_in: LayerNorm,
    proj_left: Projection,
    proj_right: Projection,
    gate_left: Projection,
    gate_right: Projection,
    norm_out: LayerNorm,
    gate_out: Projection,
    proj_out: Linear,
    update_gain: f32,
}

impl TriangularMultiplication {
    /// Builds the unit with deterministic weights derived from `label`.
    pub fn new(config: &PpmConfig, label: &str, direction: TriangleDirection) -> Self {
        let hz = config.hz;
        let c = config.tri_mul_dim;
        // Post-LN magnitudes reproduce the paper's Group-B statistics
        // (mean |x| ≈ 4, Fig. 6(c)): trained trunks have LN gains ≫ 1.
        let norm_in = LayerNorm::deterministic_scaled(&format!("{label}/ln_in"), hz, 0.2, 5.0);
        let proj_left = Linear::deterministic_with_bias(&format!("{label}/pl"), hz, c, 0.8, 0.3);
        let proj_right = Linear::deterministic_with_bias(&format!("{label}/pr"), hz, c, 0.8, 0.3);
        let gate_left = Linear::deterministic(&format!("{label}/gl"), hz, c, 0.3);
        let gate_right = Linear::deterministic(&format!("{label}/gr"), hz, c, 0.3);
        let gate_out = Linear::deterministic(&format!("{label}/go"), hz, hz, 0.3);
        TriangularMultiplication {
            direction,
            norm_in,
            proj_left: Projection::new(proj_left),
            proj_right: Projection::new(proj_right),
            gate_left: Projection::new(gate_left),
            gate_right: Projection::new(gate_right),
            norm_out: LayerNorm::deterministic_scaled(&format!("{label}/ln_out"), c, 0.2, 5.0),
            gate_out: Projection::new(gate_out),
            proj_out: Linear::deterministic(&format!("{label}/po"), c, hz, 0.5),
            update_gain: config.update_gain,
        }
    }

    /// The triangle orientation.
    pub fn direction(&self) -> TriangleDirection {
        self.direction
    }

    /// Total number of weight parameters.
    pub fn num_params(&self) -> usize {
        self.norm_in.num_params()
            + self.proj_left.num_params()
            + self.proj_right.num_params()
            + self.gate_left.num_params()
            + self.gate_right.num_params()
            + self.norm_out.num_params()
            + self.gate_out.num_params()
            + self.proj_out.num_params()
    }

    /// Applies the unit in place to the pair representation.
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError::Tensor`] on internal shape mismatches; `pair`
    /// is then left empty (its tokens were moved out, not copied).
    pub fn forward(
        &self,
        pair: &mut Tensor3,
        hook: &mut dyn ActivationHook,
        block: usize,
        recycle: usize,
    ) -> Result<(), PpmError> {
        let ns = pair.shape().0;
        let tap = move |site| Tap {
            block,
            recycle,
            site,
        };
        let incoming = self.direction == TriangleDirection::Incoming;
        if incoming {
            transpose_pair_tokens(pair);
        }
        residual_stage(
            pair,
            hook,
            [
                tap(ActivationSite::TriMulResidualIn),
                tap(ActivationSite::TriMulPostLn),
            ],
            &self.norm_in,
            self.update_gain,
            |hook, post_ln| self.update(hook, post_ln, ns, tap),
        )?;
        if incoming {
            transpose_pair_tokens(pair);
        }
        Ok(())
    }

    /// The stage between its LayerNorm and its residual add: the gated
    /// output projection of the triangle product, in `post_ln`'s buffer.
    fn update(
        &self,
        hook: &mut dyn ActivationHook,
        mut post_ln: PostLn,
        ns: usize,
        tap: impl Fn(ActivationSite) -> Tap,
    ) -> Result<Tensor2, PpmError> {
        use ActivationSite::*;
        let tokens_n = ns * ns;
        let c = self.proj_left.out_features();
        let left = GatedSide {
            layers: [&self.gate_left, &self.proj_left],
            sites: [TriMulGateLeft, TriMulProjLeft],
        };
        let right = GatedSide {
            layers: [&self.gate_right, &self.proj_right],
            sites: [TriMulGateRight, TriMulProjRight],
        };
        // The einsum's operands on the stream as it runs (see the module
        // docs): Incoming's are the other way round.
        let (rows_side, packed_side) = match self.direction {
            TriangleDirection::Outgoing => (left, right),
            TriangleDirection::Incoming => (right, left),
        };

        // The right operand whole, packed as the einsum's tile reads it,
        // each block stored as it is produced.
        let mut packed = {
            let (rows, cols) = einsum::packed_shape(ns, c);
            workspace::take(rows, cols)
        };
        let block = block_len(hook, &packed_side.sites, ROW_BLOCK, tokens_n);
        for first in (0..tokens_n).step_by(block) {
            let product =
                packed_side.rows(hook, &post_ln, first, block.min(tokens_n - first), &tap)?;
            einsum::pack_right(ns, first, &product, packed.as_mut_slice());
            workspace::give(product);
        }

        // Then a block of whole rows at a time, each step reading only the
        // block's own tokens: the left operand's rows, the einsum's rows
        // (1/√Ns keeps magnitudes length-independent), the out LayerNorm,
        // the output gate and projection — whose update goes into the
        // block's post-LN rows, read by the gate for the last time.
        let [gate_site, proj_site] = rows_side.sites;
        let sites = [
            gate_site,
            proj_site,
            TriMulTriangleOut,
            TriMulOutPostLn,
            TriMulOutGate,
        ];
        let row = ns.max(1);
        let block = block_len(hook, &sites, ROW_BLOCK.div_ceil(row) * row, tokens_n);
        for first in (0..tokens_n).step_by(block) {
            let rows = block.min(tokens_n - first);
            let left = rows_side.rows(hook, &post_ln, first, rows, &tap)?;
            let mut tri = workspace::take(rows, c);
            let einsum = Einsum {
                left: left.as_slice(),
                right: packed.as_slice(),
                ns,
                c,
                scale: 1.0 / (ns as f32).sqrt(),
            };
            einsum.rows_on_pool(tri.as_mut_slice());
            workspace::give(left);
            hook.on_activation(tap(TriMulTriangleOut), &mut tri);
            let mut y = workspace::take(rows, c);
            self.norm_out.forward_into(&tri, &mut y)?;
            workspace::give(tri);
            hook.on_activation(tap(TriMulOutPostLn), &mut y);
            let mut g = workspace::take(rows, self.gate_out.out_features());
            post_ln.project_into(&self.gate_out, Activation::Sigmoid, first, &mut g)?;
            hook.on_activation(tap(TriMulOutGate), &mut g);
            let update = post_ln.spent_rows(first, rows);
            self.proj_out
                .forward_rows_into(&y, 0, Activation::None, update)?;
            workspace::give(y);
            for (u, &gate) in update.iter_mut().zip(g.as_slice()) {
                *u *= gate;
            }
            workspace::give(g);
        }
        workspace::give(packed);
        Ok(post_ln.into_buffer())
    }
}

/// One gated side of the product, `sigmoid(gate(x)) ⊙ proj(x)`, and the
/// sites its two factors pass.
struct GatedSide<'a> {
    layers: [&'a Projection; 2],
    sites: [ActivationSite; 2],
}

impl GatedSide<'_> {
    /// Tokens `first ..` of the side, `rows` of them, in a workspace
    /// tensor. In the quantized domain both factors are integer GEMMs on
    /// the encoded post-LN activation, otherwise FP32 ones; either way
    /// each passes the hook (which may record or rewrite it, or ignore
    /// it) before the gate's buffer takes the product.
    fn rows(
        &self,
        hook: &mut dyn ActivationHook,
        post_ln: &PostLn,
        first: usize,
        rows: usize,
        tap: &impl Fn(ActivationSite) -> Tap,
    ) -> Result<Tensor2, PpmError> {
        let [gate, proj] = self.layers;
        let mut g = workspace::take(rows, gate.out_features());
        post_ln.project_into(gate, Activation::Sigmoid, first, &mut g)?;
        hook.on_activation(tap(self.sites[0]), &mut g);
        let mut p = workspace::take(rows, proj.out_features());
        post_ln.project_into(proj, Activation::None, first, &mut p)?;
        hook.on_activation(tap(self.sites[1]), &mut p);
        g.hadamard_assign(&p)?;
        workspace::give(p);
        Ok(g)
    }
}

mod einsum {
    //! The triangle einsum, `out[i][j][ch] = scale · Σ_k l(i, k)[ch] · r(j, k)[ch]`,
    //! as a register tile over packed panels — the GEMM microkernel's
    //! recipe (`ln_tensor::microkernel`) for a product that is element-wise
    //! in its channel: the channel is the vector axis, `k` the reduction,
    //! and nothing is broadcast.
    //!
    //! # Shape
    //!
    //! Per k-panel of [`KB`] and per chunk of [`LANES`] channels, the chunk's
    //! rows of the left operand are packed as `[i][dk][LANES]` and every
    //! row of the right one is read as `[j / JT][dk][j % JT][LANES]`. A tile
    //! is one output row by [`JT`] columns: 6 × 2 YMM accumulators, two
    //! registers of left vector and two spare — the sixteen AVX2 has. Each
    //! k step loads its left vector once for six products and reads the
    //! right group as one contiguous 384-byte run. Columns past `ns` and
    //! channels past `c` are packed as zeros and never written back, so
    //! every remainder runs the same tile; rows have no remainder. The j
    //! group is the outer loop: its strip (`JT · KB` vectors, 24 KiB) stays
    //! in L1 while the chunk's left strips (4 KiB each) stream past it.
    //!
    //! The right operand is packed once, not once per row chunk: the stage
    //! hands [`pack_right`] each block of its tokens as it produces them,
    //! into a workspace tensor of [`packed_shape`] that replaces the
    //! operand in token order. So the stage never holds the right operand
    //! twice, and a block of output rows costs one pass over the packed
    //! panels instead of a gather of every right token.
    //!
    //! The left operand is only the output rows' own tokens, so the stage
    //! can compute it a row block at a time; there is one orientation,
    //! Outgoing's (Incoming runs on the transposed stream).
    //!
    //! # Why packed
    //!
    //! Tokens are `c` floats apart — 512 bytes at the standard width — so
    //! the 64 lines one operand row contributes to a k-panel fall into
    //! eight L1 sets, and a tile's seven rows compete for the same eight.
    //! The old kernel (one `(i, j)` at a time, 32 lanes, both operands read
    //! in place at that stride, so two loads a multiply-add) ran 5.5–6.5
    //! GFLOP/s at `ns` = 192 beside a GEMM tile at 26. Packing costs one
    //! copy of each operand — 13 ms of a 78 ms call there when each of two
    //! row chunks packed both.
    //!
    //! A row block of the stage is one call, so the packed right operand
    //! passes once through cache per block: 32 passes of 19 MB a unit at
    //! `ns` = 192, inside the 105 MB last-level cache of the measuring
    //! host. The einsum read 0.32–0.40 s a fold there, against 0.29–0.36 s when
    //! two row chunks each packed the whole right operand (EXPERIMENTS.md,
    //! "Row-blocked triangle stages record"); blocks four times larger read
    //! 0.31–0.33 s for four times the block memory.
    //!
    //! # Bits
    //!
    //! The rule the GEMM tile lives by: each `(i, j, channel)` is one
    //! k-ascending left fold in a single `f32`. The first panel starts its
    //! accumulators at `+0.0` (not at the first product: `0.0 + (−0.0)` is
    //! `+0.0`) and never reads `out`, later ones reload from it, and the
    //! last one's write-back applies `scale` as one separately rounded
    //! multiply. Any `ns`, `c` or chunk seam therefore gives the bits of
    //! `acc = 0.0; for k { acc += l·r }; acc · scale`, on either tier of
    //! [`simd::wide`].
    //!
    //! # What was measured
    //!
    //! On the 2-vCPU AVX2 host of EXPERIMENTS.md ("Triangle einsum record"),
    //! `ns` = 192, `c` = 128, two row chunks, packing included, medians of
    //! five, GFLOP/s:
    //!
    //! * tile, packed, `KB` = 64: 1 × 4: 20; **1 × 6: 22–25**; 1 × 7: 22 and
    //!   1 × 8: 20 (more accumulators than registers); 2 × 2: 16; 3 × 2: 19;
    //!   2 × 3: 18–20 (the same twelve accumulators, but the left strips
    //!   need interleaving and a row remainder). A body generic in its
    //!   tile shape needs LLVM to unroll the tile loops fully before it
    //!   will keep the accumulators in registers: it does not at eight of
    //!   them (2 × 4) nor at `JT` ∈ {3, 5}, and the result is scalar code at
    //!   3 GFLOP/s — which is why [`fold_tile`] names its six accumulators
    //!   instead of looping over them.
    //! * the tile inlined into the panel loops under one `wide` frame:
    //!   3–4, scalar, at every size; compiled on its own (`inline(never)`,
    //!   as `micro_tile` is): the numbers above.
    //! * `KB` 32: 20; 48: 22; **64: 22**; 96: 23; 128: 18; whole k: 19 — a
    //!   deeper panel saves reloads of `out` but its strip leaves L1; 64
    //!   also fits a 32 KiB L1.
    //! * i-row outer, j group inner (the 24 KiB strip streams, not the
    //!   4 KiB one): 20 against 22.
    //! * unpacked tiles, tried roughly: 1 × 4 × 16 read in place, 6–9. The
    //!   prototype that sized this change (same record) had, unpacked,
    //!   2 × 4 × 8 lanes: 10, 2 × 2 × 16: 13, 2 × 4 × 16: 16, and 22–23 for
    //!   packed 2 × 3 and 1 × 4.
    //! * packing in the operands' memory order (one strided stream a load
    //!   instruction): 11 ms for 13, not worth a second loop nest.

    use ln_tensor::{simd, Tensor2};
    use std::cell::RefCell;

    /// Channels per accumulator: one cache line, two YMM registers.
    const LANES: usize = 16;
    /// Output columns per register tile.
    const JT: usize = 6;
    /// k-panel depth.
    const KB: usize = 64;

    type Lanes = [f32; LANES];

    thread_local! {
        /// A row chunk's packed left strips for one k-panel and channel
        /// chunk: at most `rows · KB` entries. Per thread and kept between
        /// calls, as the GEMM's packing buffers are, so a warm fold
        /// allocates nothing for them.
        static LEFT_PANEL: RefCell<Vec<Lanes>> = const { RefCell::new(Vec::new()) };
    }

    /// The `(rows, cols)` of the workspace tensor the packed right operand
    /// of an `ns`-long, `c`-wide einsum fills: a row per `[Lanes; JT]`
    /// entry — per channel chunk, per k, per group of `JT` columns. As many
    /// floats as the operand in token order when `JT` divides `ns` and
    /// `LANES` divides `c`.
    pub(super) fn packed_shape(ns: usize, c: usize) -> (usize, usize) {
        (c.div_ceil(LANES) * ns * ns.div_ceil(JT), JT * LANES)
    }

    /// Where column `j`'s group sits for k-step `k` of channel chunk `cc`
    /// in the packed right operand: chunk-major, then k-panel, then the
    /// panel's `[j / JT][dk]`.
    fn packed_entry(ns: usize, cc: usize, j: usize, k: usize) -> usize {
        let groups = ns.div_ceil(JT);
        let kb = k - k % KB;
        let kb_len = KB.min(ns - kb);
        (cc * ns + kb) * groups + j / JT * kb_len + k % KB
    }

    /// Stores `block` — tokens `first ..` of the right operand — where the
    /// tile reads them in `packed` (a tensor of [`packed_shape`]). Channels
    /// past the width are stored as zeros, and so are a column group's
    /// columns past `ns`, with its last column; every other slot belongs
    /// to one token, so once each token has been stored nothing is left
    /// of what `packed` held.
    pub(super) fn pack_right(ns: usize, first: usize, block: &Tensor2, packed: &mut [f32]) {
        let entries = packed.as_chunks_mut::<LANES>().0.as_chunks_mut::<JT>().0;
        for (t, token) in (first..).zip(block.iter_rows()) {
            let (j, k) = (t / ns, t % ns);
            let mut store = |cc: usize, lanes: Lanes| {
                let group = &mut entries[packed_entry(ns, cc, j, k)];
                group[j % JT] = lanes;
                if j + 1 == ns {
                    group[j % JT + 1..].fill([0.0; LANES]);
                }
            };
            // Whole chunks move as constant-length copies.
            let (whole, ragged) = token.as_chunks::<LANES>();
            for (cc, &lanes) in whole.iter().enumerate() {
                store(cc, lanes);
            }
            if !ragged.is_empty() {
                let mut lanes = [0.0; LANES];
                lanes[..ragged.len()].copy_from_slice(ragged);
                store(whole.len(), lanes);
            }
        }
    }

    /// One triangle einsum over a block of output rows: `left` the left
    /// operand's tokens of those rows — `(rows · ns, c)`, in token order —
    /// and `right` the other operand as [`pack_right`] leaves it.
    pub(super) struct Einsum<'a> {
        pub left: &'a [f32],
        pub right: &'a [f32],
        pub ns: usize,
        pub c: usize,
        pub scale: f32,
    }

    /// Where a tile's sums come from and go.
    #[derive(Clone, Copy)]
    struct TileIo {
        /// Floats between two output columns.
        stride: usize,
        /// Columns and channels that exist, of [`JT`] and [`LANES`].
        cols: usize,
        lanes: usize,
        /// First k-panel: the sums start at `+0.0`, `out` is not read.
        first: bool,
        /// Last k-panel: the factor the finished sums leave with.
        scale: Option<f32>,
    }

    impl Einsum<'_> {
        /// The output rows of `left`'s rows written to `out`, whatever it
        /// held, split across the pool. Each `(i, j)` token folds its own
        /// k terms in ascending order, so any split has the bits of the
        /// serial loops; there are no more chunks than threads, as each
        /// makes a whole pass over the packed right operand.
        pub(super) fn rows_on_pool(&self, out: &mut [f32]) {
            let row_len = self.ns * self.c;
            let rows = out.len().checked_div(row_len).unwrap_or(0);
            ln_par::metrics::time_kernel("ppm.tri_mul.einsum", (rows * self.ns) as u64, || {
                // One row costs 2·ns²·c flops; demand a few megaflops per
                // chunk so small problems stay inline.
                let grain = ((1usize << 22) / (2 * self.ns * row_len).max(1)).max(1);
                let threads = ln_par::active().threads();
                let rows_per_chunk = ln_par::chunk_len(rows, grain.max(rows.div_ceil(threads)));
                ln_par::par_chunks_mut(out, rows_per_chunk * row_len, |ci, chunk| {
                    self.rows(ci * rows_per_chunk, chunk)
                });
            });
        }

        /// The output rows of `left`'s rows `i0 ..` — `out.len() / (ns · c)`
        /// of them — written to `out`, whatever it held, on the calling
        /// thread.
        fn rows(&self, i0: usize, out: &mut [f32]) {
            self.rows_with(i0, out, tile);
        }

        fn rows_with(
            &self,
            i0: usize,
            out: &mut [f32],
            tile: impl Fn(&[Lanes], &[[Lanes; JT]], &mut [f32], TileIo),
        ) {
            let (ns, c) = (self.ns, self.c);
            if out.is_empty() {
                return;
            }
            let rows = out.len() / (ns * c);
            let groups = ns.div_ceil(JT);
            let right = self.right.as_chunks::<LANES>().0.as_chunks::<JT>().0;
            LEFT_PANEL.with(|panel| {
                let left = &mut *panel.borrow_mut();
                let depth = KB.min(ns);
                if left.len() < rows * depth {
                    left.resize(rows * depth, [0.0; LANES]);
                }
                for kb in (0..ns).step_by(KB) {
                    let kb_len = KB.min(ns - kb);
                    let left = &mut left[..rows * kb_len];
                    for cc in (0..c).step_by(LANES) {
                        let lanes = LANES.min(c - cc);
                        for (i, strip) in (i0..).zip(left.chunks_exact_mut(kb_len)) {
                            for (k, dst) in (kb..).zip(strip) {
                                self.pack(i, k, cc, lanes, dst);
                            }
                        }
                        let panel = &right[packed_entry(ns, cc / LANES, 0, kb)..];
                        let panel = &panel[..groups * kb_len];
                        for (g, r_strip) in panel.chunks_exact(kb_len).enumerate() {
                            let io = TileIo {
                                stride: c,
                                cols: JT.min(ns - g * JT),
                                lanes,
                                first: kb == 0,
                                scale: (kb + kb_len == ns).then_some(self.scale),
                            };
                            let l_strips = left.chunks_exact(kb_len);
                            for (l_strip, out_row) in l_strips.zip(out.chunks_exact_mut(ns * c)) {
                                tile(l_strip, r_strip, &mut out_row[g * JT * c + cc..], io);
                            }
                        }
                    }
                }
            });
        }

        /// Channels `cc .. cc + lanes` of token `(i, k)` of `left`'s rows,
        /// zero-extended to a whole vector.
        #[inline(always)]
        fn pack(&self, i: usize, k: usize, cc: usize, lanes: usize, dst: &mut Lanes) {
            let src = &self.left[(i * self.ns + k) * self.c + cc..];
            // A whole vector moves with a constant length — vector loads
            // and stores; only a ragged last chunk pays a `memcpy` call.
            if lanes == LANES {
                dst.copy_from_slice(&src[..LANES]);
            } else {
                dst[..lanes].copy_from_slice(&src[..lanes]);
                dst[lanes..].fill(0.0);
            }
        }
    }

    /// One register tile at the host's vector width. `inline(never)` for
    /// `micro_tile`'s reason: compiled on its own the twelve accumulator
    /// registers stay registers; inlined into the panel loops they spill
    /// and the body runs scalar.
    #[inline(never)]
    fn tile(l: &[Lanes], r: &[[Lanes; JT]], out: &mut [f32], io: TileIo) {
        simd::wide(
            #[inline(always)]
            || tile_body(l, r, out, io),
        );
    }

    /// Loads the tile's partial sums (or starts them at `+0.0`), folds one
    /// k-panel onto them, stores them back — scaled, after the last panel.
    #[inline(always)]
    fn tile_body(l: &[Lanes], r: &[[Lanes; JT]], out: &mut [f32], io: TileIo) {
        let mut acc = [[0.0f32; LANES]; JT];
        let whole = io.lanes == LANES;
        if !io.first {
            for (j, a) in acc.iter_mut().enumerate().take(io.cols) {
                let src = &out[j * io.stride..];
                if whole {
                    a.copy_from_slice(&src[..LANES]);
                } else {
                    a[..io.lanes].copy_from_slice(&src[..io.lanes]);
                }
            }
        }
        fold_tile(l, r, &mut acc);
        for (j, a) in acc.iter_mut().enumerate().take(io.cols) {
            if let Some(scale) = io.scale {
                for v in a.iter_mut() {
                    *v *= scale;
                }
            }
            let dst = &mut out[j * io.stride..];
            if whole {
                dst[..LANES].copy_from_slice(a);
            } else {
                dst[..io.lanes].copy_from_slice(&a[..io.lanes]);
            }
        }
    }

    /// `acc[j] += l[dk] ⊙ r[dk][j]` for `dk` ascending. The accumulators
    /// are six named locals, not an array walked by a loop, so that
    /// keeping them in registers does not hang on the unroller (see the
    /// module docs).
    #[inline(always)]
    fn fold_tile(l: &[Lanes], r: &[[Lanes; JT]], acc: &mut [Lanes; JT]) {
        let [mut a0, mut a1, mut a2, mut a3, mut a4, mut a5] = *acc;
        for (lv, [r0, r1, r2, r3, r4, r5]) in l.iter().zip(r) {
            mul_add(&mut a0, lv, r0);
            mul_add(&mut a1, lv, r1);
            mul_add(&mut a2, lv, r2);
            mul_add(&mut a3, lv, r3);
            mul_add(&mut a4, lv, r4);
            mul_add(&mut a5, lv, r5);
        }
        *acc = [a0, a1, a2, a3, a4, a5];
    }

    /// `acc += l ⊙ r`: a multiply and a separately rounded add per lane.
    #[inline(always)]
    fn mul_add(acc: &mut Lanes, l: &Lanes, r: &Lanes) {
        for ((a, &l), &r) in acc.iter_mut().zip(l).zip(r) {
            *a += l * r;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// An einsum with both operands in token order.
        struct Operands<'a> {
            left: &'a [f32],
            right: &'a [f32],
            ns: usize,
            c: usize,
            scale: f32,
        }

        /// The definition: per element one k-ascending fold from `+0.0`,
        /// then one multiply.
        fn reference(e: &Operands) -> Vec<f32> {
            let (ns, c) = (e.ns, e.c);
            let token = |x: usize, k: usize| x * ns + k;
            let mut out = Vec::with_capacity(ns * ns * c);
            for i in 0..ns {
                for j in 0..ns {
                    for ch in 0..c {
                        let mut acc = 0.0f32;
                        for k in 0..ns {
                            acc += e.left[token(i, k) * c + ch] * e.right[token(j, k) * c + ch];
                        }
                        out.push(acc * e.scale);
                    }
                }
            }
            out
        }

        /// Ordinary values of both signs, and three in seven a `+0.0`, a
        /// `−0.0` or small enough that the product of two underflows —
        /// at offsets that differ with `seed`, so products of `−0.0` occur.
        fn operand(len: usize, seed: usize) -> Vec<f32> {
            (0..len)
                .map(|n| {
                    let v = ((n * 37 + seed * 11) % 29) as f32 * 0.21 - 2.9;
                    match (n + 2 * seed) % 7 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => v * 1e-30,
                        _ => v,
                    }
                })
                .collect()
        }

        /// The right operand packed five tokens at a time — blocks that
        /// straddle rows and leave a short last one — into a buffer of
        /// NaNs, so that a slot no token filled poisons what reads it.
        fn packed_right(e: &Operands) -> Vec<f32> {
            let (rows, cols) = packed_shape(e.ns, e.c);
            let mut packed = vec![f32::NAN; rows * cols];
            let tokens = e.right.chunks(5 * e.c.max(1));
            for (b, block) in tokens.enumerate() {
                let block = Tensor2::from_vec(block.len() / e.c, e.c, block.to_vec()).unwrap();
                pack_right(e.ns, 5 * b, &block, &mut packed);
            }
            packed
        }

        /// `e`, a chunk of `rows_per_chunk` rows at a time — its left
        /// operand only the chunk's rows, as the stage's row blocks are —
        /// through the dispatched tile and through the tile body compiled
        /// for the baseline (called outside [`simd::wide`]), against
        /// [`reference`].
        fn assert_equals_reference(e: &Operands, rows_per_chunk: usize) {
            let want = reference(e);
            let right = packed_right(e);
            type Tile = fn(&[Lanes], &[[Lanes; JT]], &mut [f32], TileIo);
            for (tier, tile) in [("dispatched", tile as Tile), ("baseline", tile_body)] {
                let mut got = vec![f32::NAN; want.len()];
                let chunk_len = rows_per_chunk * e.ns * e.c;
                for (chunk, left) in got.chunks_mut(chunk_len).zip(e.left.chunks(chunk_len)) {
                    let einsum = Einsum {
                        left,
                        right: &right,
                        ns: e.ns,
                        c: e.c,
                        scale: e.scale,
                    };
                    einsum.rows_with(0, chunk, tile);
                }
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                let (ns, c) = (e.ns, e.c);
                assert!(
                    same,
                    "ns {ns} c {c}, {rows_per_chunk} rows a chunk, {tier} tile"
                );
            }
        }

        #[test]
        fn every_shape_and_seam_gives_the_bits_of_the_naive_fold() {
            // Around the tile's JT and LANES, chunks that start off row 0
            // and leave a short last one.
            for ns in [1, 2, 3, 5, 7, 16, 33] {
                for c in [1, 15, 16, 17, 32, 48, 128] {
                    let left = operand(ns * ns * c, 1);
                    let right = operand(ns * ns * c, 2);
                    let e = Operands {
                        left: &left,
                        right: &right,
                        ns,
                        c,
                        scale: 1.0 / (ns as f32).sqrt(),
                    };
                    for rows_per_chunk in [1, 2, 3, ns] {
                        assert_equals_reference(&e, rows_per_chunk);
                    }
                }
            }
        }

        #[test]
        fn a_second_k_panel_continues_the_fold_of_the_first() {
            // ns past KB: the sums are stored, reloaded and only then
            // scaled; the last column group and channel chunk are ragged.
            let (ns, c) = (KB + 3, LANES + 1);
            let left = operand(ns * ns * c, 3);
            let right = operand(ns * ns * c, 4);
            let e = Operands {
                left: &left,
                right: &right,
                ns,
                c,
                scale: 0.37,
            };
            assert_equals_reference(&e, 5);
        }

        #[test]
        fn a_sum_of_minus_zero_products_is_plus_zero() {
            // The fold starts at `+0.0`, not at its first product: a
            // kernel that seeded its accumulators with `l·r` would answer
            // `−0.0` here. `operand`'s zeros put the same case, among
            // others, into the lattice above.
            let (ns, c) = (2, LANES);
            let (left, right) = (vec![-0.0f32; ns * ns * c], vec![1.0f32; ns * ns * c]);
            let e = Operands {
                left: &left,
                right: &right,
                ns,
                c,
                scale: 1.0,
            };
            assert!(reference(&e).iter().all(|v| v.to_bits() == 0));
            assert_equals_reference(&e, ns);
            let products_of = |seeds: [usize; 2]| {
                let [l, r] = seeds.map(|seed| operand(128, seed));
                l.into_iter().zip(r).map(|(l, r)| l * r)
            };
            assert!(products_of([1, 2]).any(|p| p.to_bits() == (-0.0f32).to_bits()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::tests::token_wise_hooks;
    use crate::taps::NoopHook;

    fn pair(ns: usize, hz: usize) -> Tensor3 {
        Tensor3::from_fn(ns, ns, hz, |i, j, k| {
            ((i * 31 + j * 7 + k * 3) % 13) as f32 * 0.5 - 3.0
        })
    }

    #[test]
    fn forward_preserves_shape_and_changes_values() {
        let cfg = PpmConfig::tiny();
        let unit = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Outgoing);
        let mut z = pair(8, cfg.hz);
        let before = z.clone();
        unit.forward(&mut z, &mut NoopHook, 0, 0).unwrap();
        assert_eq!(z.shape(), before.shape());
        assert_ne!(z, before);
    }

    #[test]
    fn directions_produce_different_updates() {
        let cfg = PpmConfig::tiny();
        let out = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Outgoing);
        let inc = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Incoming);
        let mut z1 = pair(8, cfg.hz);
        let mut z2 = pair(8, cfg.hz);
        out.forward(&mut z1, &mut NoopHook, 0, 0).unwrap();
        inc.forward(&mut z2, &mut NoopHook, 0, 0).unwrap();
        assert_ne!(z1, z2);
    }

    #[test]
    fn update_is_bounded_by_gain() {
        let cfg = PpmConfig::tiny();
        let unit = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Outgoing);
        let mut z = pair(10, cfg.hz);
        let before = z.clone();
        unit.forward(&mut z, &mut NoopHook, 0, 0).unwrap();
        // Max possible per-element update: gain × |gate| ≤ 1 × |proj_out(y)|.
        let delta = z.rmse(&before).unwrap();
        assert!(delta < 2.0, "delta {delta}");
    }

    #[test]
    fn triangle_mixes_distant_tokens() {
        // Information must flow through the triangle: for the outgoing
        // direction, out[i][j] reads left row i and right row j, so a
        // perturbation at token (0, 5) must reach token (5, 0) via
        // right[j=0][k=5]. The perturbation is a single channel (LayerNorm
        // erases uniform per-token shifts).
        let cfg = PpmConfig::tiny();
        let unit = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Outgoing);
        let mut z1 = pair(10, cfg.hz);
        let mut z2 = pair(10, cfg.hz);
        z2.token_mut(0, 5)[0] += 10.0;
        unit.forward(&mut z1, &mut NoopHook, 0, 0).unwrap();
        unit.forward(&mut z2, &mut NoopHook, 0, 0).unwrap();
        let t1 = z1.token(5, 0);
        let t2 = z2.token(5, 0);
        let diff: f32 = t1.iter().zip(t2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "triangle update must propagate information");
        // And a token outside both row 0 and column 0 stays untouched.
        let u1 = z1.token(3, 9);
        let u2 = z2.token(3, 9);
        for (a, b) in u1.iter().zip(u2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn a_hook_that_ignores_every_tap_changes_nothing() {
        // The stage has one body: what a hook answers to `observes` picks
        // no path here, so NoopHook (observes nothing) and a hook that
        // observes everything but rewrites nothing agree bit for bit.
        struct ObserveAll;
        impl ActivationHook for ObserveAll {
            fn on_activation(&mut self, _tap: Tap, _activation: &mut Tensor2) {}
        }
        let cfg = PpmConfig::tiny();
        for direction in [TriangleDirection::Outgoing, TriangleDirection::Incoming] {
            let unit = TriangularMultiplication::new(&cfg, "t", direction);
            let mut ignored = pair(9, cfg.hz);
            let mut observed = ignored.clone();
            unit.forward(&mut ignored, &mut NoopHook, 0, 0).unwrap();
            unit.forward(&mut observed, &mut ObserveAll, 0, 0).unwrap();
            assert_eq!(ignored, observed, "{direction:?}");
        }
    }

    #[test]
    fn incoming_is_outgoing_with_its_sides_swapped_on_the_transposed_stream() {
        // Incoming(P) = T(Outgoing'(T(P))) to the bit, where Outgoing' is
        // the Incoming unit with its left and right gates and projections
        // swapped, under hooks that rewrite token-wise and in the
        // quantized domain (the sides' sites share a group, so the
        // swapped taps are rewritten alike). ns = 48 runs three blocks of
        // whole rows and three packed blocks; 1, 2 and 7 one of each.
        let transposed = |z: &Tensor3| {
            let (ns, _, c) = z.shape();
            Tensor3::from_fn(ns, ns, c, |i, j, k| z.at(j, i, k))
        };
        let bits = |z: &Tensor3| z.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cfg = PpmConfig::tiny();
        let incoming = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Incoming);
        let mut swapped = incoming.clone();
        swapped.direction = TriangleDirection::Outgoing;
        std::mem::swap(&mut swapped.gate_left, &mut swapped.gate_right);
        std::mem::swap(&mut swapped.proj_left, &mut swapped.proj_right);
        for ns in [1, 2, 7, 48] {
            for ((name, mut in_hook), (_, mut out_hook)) in
                token_wise_hooks().into_iter().zip(token_wise_hooks())
            {
                let mut want = pair(ns, cfg.hz);
                incoming.forward(&mut want, in_hook.as_mut(), 0, 0).unwrap();
                let mut got = transposed(&pair(ns, cfg.hz));
                swapped.forward(&mut got, out_hook.as_mut(), 0, 0).unwrap();
                let got = transposed(&got);
                assert!(bits(&want) == bits(&got), "{name}, ns {ns}");
            }
        }
    }

    #[test]
    fn num_params_matches_structure() {
        let cfg = PpmConfig::tiny();
        let unit = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Outgoing);
        let hz = cfg.hz;
        let c = cfg.tri_mul_dim;
        let expected = 2 * hz // ln_in
            + 2 * (hz * c + c) // proj l/r
            + 2 * (hz * c + c) // gate l/r
            + 2 * c // ln_out
            + (hz * hz + hz) // gate_out
            + (c * hz + hz); // proj_out
        assert_eq!(unit.num_params(), expected);
    }
}
