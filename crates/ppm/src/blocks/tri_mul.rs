//! Triangular Multiplication (Fig. 6(a)): refines pair interactions with a
//! gated "triangle" update — for every pair `(i, j)`, information flows
//! through all intermediate residues `k`.

use super::{residual_stage, workspace, Activation, PostLn, Projection};
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
        )
    }

    /// The stage between its LayerNorm and its residual add: the gated
    /// output projection of the triangle product, in `post_ln`'s buffer.
    fn update(
        &self,
        hook: &mut dyn ActivationHook,
        post_ln: PostLn,
        ns: usize,
        tap: impl Fn(ActivationSite) -> Tap,
    ) -> Result<Tensor2, PpmError> {
        let tokens_n = ns * ns;
        let c = self.proj_left.out_features();
        // Group C: the gated projections, one way under every hook. In
        // the quantized domain each is an integer GEMM on the encoded
        // post-LN activation, otherwise an FP32 one; either way the
        // gate and the projection each pass the hook (which may record
        // or rewrite them, or ignore them), then the gate's buffer
        // becomes their product and the projection's goes back for the
        // other side to take.
        let mut gated_side = |gate, proj, sites: [ActivationSite; 2]| {
            let mut gate = post_ln.project(gate, Activation::Sigmoid)?;
            hook.on_activation(tap(sites[0]), &mut gate);
            let mut proj = post_ln.project(proj, Activation::None)?;
            hook.on_activation(tap(sites[1]), &mut proj);
            gate.hadamard_assign(&proj)?;
            workspace::give(proj);
            Ok::<_, PpmError>(gate)
        };
        let left = gated_side(
            &self.gate_left,
            &self.proj_left,
            [
                ActivationSite::TriMulGateLeft,
                ActivationSite::TriMulProjLeft,
            ],
        )?;
        let right = gated_side(
            &self.gate_right,
            &self.proj_right,
            [
                ActivationSite::TriMulGateRight,
                ActivationSite::TriMulProjRight,
            ],
        )?;

        // The triangle einsum; 1/√Ns keeps magnitudes length-independent.
        // The kernel packs either orientation, so Incoming costs no
        // transposed copy, and it writes (never accumulates onto) every
        // element of its output, scaled.
        let einsum = Einsum {
            direction: self.direction,
            left: left.as_slice(),
            right: right.as_slice(),
            ns,
            c,
            scale: 1.0 / (ns as f32).sqrt(),
        };
        let mut tri_tokens = workspace::take(tokens_n, c);
        // Each (i, j) token accumulates its own k terms in ascending order,
        // so the per-i-block parallel dispatch is bit-identical to the
        // serial loops for any pool size.
        ln_par::metrics::time_kernel("ppm.tri_mul.einsum", (ns * ns) as u64, || {
            // One i-row of the triangle einsum costs 2·ns²·c flops; demand
            // a few megaflops per chunk so small problems stay inline.
            let row_flops = 2 * ns * ns * c;
            let grain_rows = ((1usize << 22) / row_flops.max(1)).max(1);
            let rows_per_chunk = ln_par::chunk_len(ns, grain_rows);
            ln_par::par_chunks_mut(
                tri_tokens.as_mut_slice(),
                rows_per_chunk * ns * c,
                |ci, chunk| einsum.rows(ci * rows_per_chunk, chunk),
            );
        });
        workspace::give(left);
        workspace::give(right);
        hook.on_activation(tap(ActivationSite::TriMulTriangleOut), &mut tri_tokens);

        let mut y = workspace::take(tokens_n, c);
        self.norm_out.forward_into(&tri_tokens, &mut y)?;
        workspace::give(tri_tokens);
        hook.on_activation(tap(ActivationSite::TriMulOutPostLn), &mut y);

        let mut g = post_ln.project(&self.gate_out, Activation::Sigmoid)?;
        // That was the post-LN activation's last reader: its buffer
        // takes the output projection, which is gated there.
        let mut update = post_ln.into_buffer();
        hook.on_activation(tap(ActivationSite::TriMulOutGate), &mut g);
        self.proj_out.forward_into(&y, &mut update)?;
        workspace::give(y);
        update.hadamard_assign(&g)?;
        workspace::give(g);
        Ok(update)
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
    //! row of the right one as `[j / JT][dk][j % JT][LANES]`. A tile is one
    //! output row by [`JT`] columns: 6 × 2 YMM accumulators, two registers
    //! of left vector and two spare — the sixteen AVX2 has. Each k step
    //! loads its left vector once for six products and reads the right
    //! group as one contiguous 384-byte run. Columns past `ns` and
    //! channels past `c` are packed as zeros and never written back, so
    //! every remainder runs the same tile; rows have no remainder. The j
    //! group is the outer loop: its strip (`JT · KB` vectors, 24 KiB) stays
    //! in L1 while the chunk's left strips (4 KiB each) stream past it.
    //!
    //! A pack step reads whichever token it is told to, so the two
    //! orientations differ in one index expression ([`Einsum::pack`]) and
    //! Incoming needs no transposed copy of its operands.
    //!
    //! # Why packed
    //!
    //! Tokens are `c` floats apart — 512 bytes at the standard width — so
    //! the 64 lines one operand row contributes to a k-panel fall into
    //! eight L1 sets, and a tile's seven rows compete for the same eight.
    //! The old kernel (one `(i, j)` at a time, 32 lanes, both operands read
    //! in place at that stride, so two loads a multiply-add) ran 5.5–6.5
    //! GFLOP/s at `ns` = 192 beside a GEMM tile at 26. Packing costs one
    //! copy of each operand per row chunk — 13 ms of a 78 ms call there.
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

    use super::TriangleDirection;
    use ln_tensor::simd;
    use std::cell::RefCell;

    /// Channels per accumulator: one cache line, two YMM registers.
    const LANES: usize = 16;
    /// Output columns per register tile.
    const JT: usize = 6;
    /// k-panel depth.
    const KB: usize = 64;

    type Lanes = [f32; LANES];

    /// The packed panels of one k-panel and channel chunk: at most
    /// `rows · KB` and `⌈ns / JT⌉ · KB` entries — 0.4 and 0.8 MB at
    /// `ns` = 192. Per thread and kept between calls, as the GEMM's
    /// packing buffers are, so a warm fold allocates nothing for them.
    #[derive(Default)]
    struct Panels {
        left: Vec<Lanes>,
        right: Vec<[Lanes; JT]>,
    }

    thread_local! {
        static PANELS: RefCell<Panels> = RefCell::default();
    }

    /// One triangle einsum over `(ns·ns, c)` token matrices.
    pub(super) struct Einsum<'a> {
        pub direction: TriangleDirection,
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
        /// Output rows `i0 ..` — `out.len() / (ns · c)` of them — written
        /// to `out`, whatever it held.
        pub(super) fn rows(&self, i0: usize, out: &mut [f32]) {
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
            PANELS.with(|panels| {
                let Panels { left, right } = &mut *panels.borrow_mut();
                let depth = KB.min(ns);
                if left.len() < rows * depth {
                    left.resize(rows * depth, [0.0; LANES]);
                }
                if right.len() < groups * depth {
                    right.resize(groups * depth, [[0.0; LANES]; JT]);
                }
                for kb in (0..ns).step_by(KB) {
                    let kb_len = KB.min(ns - kb);
                    let left = &mut left[..rows * kb_len];
                    let right = &mut right[..groups * kb_len];
                    for cc in (0..c).step_by(LANES) {
                        let lanes = LANES.min(c - cc);
                        for (i, strip) in (i0..).zip(left.chunks_exact_mut(kb_len)) {
                            for (k, dst) in (kb..).zip(strip) {
                                self.pack(self.left, i, k, cc, lanes, dst);
                            }
                        }
                        for (g, strip) in right.chunks_exact_mut(kb_len).enumerate() {
                            for (k, group) in (kb..).zip(strip) {
                                for (j, dst) in (g * JT..).zip(group) {
                                    if j < ns {
                                        self.pack(self.right, j, k, cc, lanes, dst);
                                    } else {
                                        *dst = [0.0; LANES];
                                    }
                                }
                            }
                        }
                        for (g, r_strip) in right.chunks_exact(kb_len).enumerate() {
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

        /// Channels `cc .. cc + lanes` of an operand's token `(x, k)` —
        /// `(k, x)` for Incoming — zero-extended to a whole vector.
        #[inline(always)]
        fn pack(
            &self,
            operand: &[f32],
            x: usize,
            k: usize,
            cc: usize,
            lanes: usize,
            dst: &mut Lanes,
        ) {
            let token = match self.direction {
                TriangleDirection::Outgoing => x * self.ns + k,
                TriangleDirection::Incoming => k * self.ns + x,
            };
            let src = &operand[token * self.c + cc..];
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
        use TriangleDirection::{Incoming, Outgoing};

        /// The definition: per element one k-ascending fold from `+0.0`,
        /// then one multiply.
        fn reference(e: &Einsum) -> Vec<f32> {
            let (ns, c) = (e.ns, e.c);
            let token = |x: usize, k: usize| match e.direction {
                Outgoing => x * ns + k,
                Incoming => k * ns + x,
            };
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

        /// `e`, a chunk of `rows_per_chunk` rows at a time, through the
        /// dispatched tile and through the tile body compiled for the
        /// baseline (called outside [`simd::wide`]), against [`reference`].
        fn assert_equals_reference(e: &Einsum, rows_per_chunk: usize) {
            let want = reference(e);
            type Tile = fn(&[Lanes], &[[Lanes; JT]], &mut [f32], TileIo);
            for (tier, tile) in [("dispatched", tile as Tile), ("baseline", tile_body)] {
                let mut got = vec![f32::NAN; want.len()];
                for (ci, chunk) in got.chunks_mut(rows_per_chunk * e.ns * e.c).enumerate() {
                    e.rows_with(ci * rows_per_chunk, chunk, tile);
                }
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                let (direction, ns, c) = (e.direction, e.ns, e.c);
                assert!(
                    same,
                    "{direction:?} ns {ns} c {c}, {rows_per_chunk} rows a chunk, {tier} tile"
                );
            }
        }

        #[test]
        fn every_shape_and_seam_gives_the_bits_of_the_naive_fold() {
            // Around the tile's JT and LANES, both orientations, chunks
            // that start off row 0 and leave a short last one.
            for direction in [Outgoing, Incoming] {
                for ns in [1, 2, 3, 5, 7, 16, 33] {
                    for c in [1, 15, 16, 17, 32, 48, 128] {
                        let left = operand(ns * ns * c, 1);
                        let right = operand(ns * ns * c, 2);
                        let e = Einsum {
                            direction,
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
        }

        #[test]
        fn a_second_k_panel_continues_the_fold_of_the_first() {
            // ns past KB: the sums are stored, reloaded and only then
            // scaled; the last column group and channel chunk are ragged.
            let (ns, c) = (KB + 3, LANES + 1);
            let left = operand(ns * ns * c, 3);
            let right = operand(ns * ns * c, 4);
            for direction in [Outgoing, Incoming] {
                let e = Einsum {
                    direction,
                    left: &left,
                    right: &right,
                    ns,
                    c,
                    scale: 0.37,
                };
                assert_equals_reference(&e, 5);
            }
        }

        #[test]
        fn a_sum_of_minus_zero_products_is_plus_zero() {
            // The fold starts at `+0.0`, not at its first product: a
            // kernel that seeded its accumulators with `l·r` would answer
            // `−0.0` here. `operand`'s zeros put the same case, among
            // others, into the lattice above.
            let (ns, c) = (2, LANES);
            let (left, right) = (vec![-0.0f32; ns * ns * c], vec![1.0f32; ns * ns * c]);
            let e = Einsum {
                direction: Outgoing,
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
