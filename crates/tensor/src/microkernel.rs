//! Register-tiled GEMM microkernel: the single inner loop every dense
//! matmul in the workspace now runs through.
//!
//! The kernel computes an `MR × W` output tile in a local accumulator
//! array. It broadcasts from `MR` rows of A, read in place, and multiplies
//! them against a packed panel of B. Packing B and slicing each A row to
//! its k-panel turn every inner-loop access into a contiguous,
//! exactly-sized slice, which is the shape LLVM's autovectorizer needs to
//! emit SIMD without intrinsics: the tile body is one generic piece of
//! safe Rust.
//!
//! # Tile width
//!
//! The tile width `W` follows the host ([`crate::simd::tier`]): 5×8
//! ([`NR`], ten XMM accumulators) on the baseline, 5×16 ([`NR_WIDE`], ten
//! YMM accumulators) where [`crate::simd::wide`] finds AVX2 — the same
//! body instantiated twice and entered through that one dispatch point,
//! which holds the crate's only `unsafe`. With no FMA each product needs a
//! register of its own before its add, so a k step holds the
//! accumulators, two B vectors, one broadcast and one product: 14 of the
//! 16 vector registers. A 6×16 tile needs all 16, and rustc 1.95 spills
//! three accumulators to the stack every k step; on a 2.1 GHz AVX2 guest
//! it ran 0.99–1.29× the 4×16 packed tile's time at four of five fold
//! shapes, where the 5×16 tile runs 0.78–1.02× at all five
//! (EXPERIMENTS.md, "GEMM tile record").
//!
//! # Bitwise determinism
//!
//! Every output element accumulates its `k` products in strictly
//! ascending order into a single `f32` accumulator, a left fold from
//! `+0.0`: the first k-panel's accumulators start at `+0.0` and never read
//! `out`, and each later panel loads the partial sums the one before it
//! stored. Tiling reorders *which* elements are computed when, never the
//! summation order *within* an element, so the tiled path is bit-identical
//! to the reference triple loop at either tile width — and to any
//! row-chunked parallel execution over it (the ln-par
//! ownership-per-row contract).
//!
//! # Loop order
//!
//! k-panel, then column panel (B packed: `kc × nc`), then tiles: every
//! `MR`-row group of the caller's chunk, and within it every column tile
//! of the panel. A is not copied. A tile's rows are contiguous,
//! `kc`-long slices of the row-major A, at most 5 KiB, so they stay in L1
//! while the tile walks the panel's column tiles, and the packed B panel
//! stays in L2 while the row groups walk down the chunk. An edge tile
//! (fewer than `MR` rows left) points its missing rows at its own first
//! row and never stores them, which needs no zero buffer — the `Small`
//! class's `kc` is the whole `k`, however deep that is.
//!
//! # Epilogues
//!
//! [`gemm`] and [`gemm_bt`] take an [`Epilogue`] — bias, bias + sigmoid
//! ([`vmath::sigmoid`], under [`simd::wide`]) or bias + ReLU. The last
//! k-panel applies it to each `MR × W` block as soon as the tile has
//! stored it, while the block is in L1, so an element is finished in one
//! visit and no pass over the chunk follows. The epilogue is its own
//! `#[inline(never)]` function, called after the tile body has returned,
//! so `vmath::sigmoid`'s polynomial never competes with the accumulators
//! for registers (see `micro_tile` on inlining). Anything that
//! combines two products — a gate times a projection — is two calls and
//! an element-wise pass at the call site.
//!
//! # Scratch arena
//!
//! The one packing buffer — a panel of B, `kc × nc` floats rounded up to
//! the tile width: 256 KiB at the `Large` class, 128 KiB at `Mid` and all
//! of B at `Small` — lives in a per-thread scratch arena that is reused
//! across calls. Growth is counted in a per-thread [`alloc_events`]
//! counter and asserted *absent* inside the tile loops (`debug_assert`), so
//! CI can pin "zero allocations in the microkernel inner loop": warm the
//! arena with one call, snapshot the counter, re-run the same shape, and
//! require the counter unchanged. The counter is thread-local like the
//! arena itself — a pool worker growing *its* arena must not trip the
//! guard of a different worker mid-panel.

use crate::simd::{self, Tier};
use crate::vmath;
use std::cell::{Cell, RefCell};

/// Output-tile rows held in registers by the microkernel.
pub const MR: usize = 5;
/// Output-tile columns held in registers on the baseline tier.
pub const NR: usize = 8;
/// Output-tile columns held in registers on the AVX2 tier.
pub const NR_WIDE: usize = 16;

/// The tile width this host runs: a property of the CPU, so every chunk
/// of one matmul (and every run on one host) uses the same one.
fn host_nr() -> usize {
    match simd::tier() {
        Tier::Baseline => NR,
        Tier::Avx2 => NR_WIDE,
    }
}

/// Problem-size class, selected deterministically from `(m, k, n)`.
///
/// Mid-size problems (the L=512 regime) previously fell between the
/// small-kernel and large-kernel sweet spots; per-class tile constants
/// close that gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    /// Everything fits in L1/L2 at once — no panel blocking.
    Small,
    /// Panels sized so a full B panel stays L2-resident across row tiles.
    Mid,
    /// Deep k-panels and wide column panels to amortise packing.
    Large,
}

/// Cache-blocking panel shape: `kc × nc` elements of B are packed and
/// kept hot while a chunk of output rows accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileShape {
    /// k-panel depth.
    pub kc: usize,
    /// Column-panel width (a multiple of the tile width after padding).
    pub nc: usize,
}

/// Classifies a GEMM by its multiply-accumulate count.
pub fn size_class(m: usize, k: usize, n: usize) -> SizeClass {
    let macs = (m as u64).saturating_mul(k as u64).saturating_mul(n as u64);
    if macs < 1 << 16 {
        SizeClass::Small
    } else if macs < 1 << 24 {
        SizeClass::Mid
    } else {
        SizeClass::Large
    }
}

/// The panel shape used for a `(m, k, n)` problem — a pure function of
/// the shape, so every parallel chunk of one matmul picks the same tiles.
pub fn tile_shape(m: usize, k: usize, n: usize) -> TileShape {
    match size_class(m, k, n) {
        // Small: pack all of B once, no panel loop.
        SizeClass::Small => TileShape {
            kc: k.max(1),
            nc: n.max(1),
        },
        // Mid: 256×128 B panel = 128 KiB, L2-resident under the row
        // tiles; deep k amortises the per-panel pack.
        SizeClass::Mid => TileShape { kc: 256, nc: 128 },
        // Large: square-ish 256×256 panel (256 KiB) — wider columns so
        // each tile's A rows are reused across more column tiles.
        SizeClass::Large => TileShape { kc: 256, nc: 256 },
    }
}

/// What happens to each finished output element after accumulation.
///
/// The last k-panel applies it to each tile's block as the tile finishes,
/// exactly reproducing the arithmetic of the unfused sequence (matmul,
/// then bias pass, then activation map) while never materialising the
/// intermediate tensors between them.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Raw GEMM output.
    None,
    /// `out[i][j] += bias[j]` — the `Linear` bias.
    Bias(&'a [f32]),
    /// `out[i][j] = sigmoid(out[i][j] + bias[j])` — gate projections.
    BiasSigmoid(&'a [f32]),
    /// `out[i][j] = max(out[i][j] + bias[j], 0)` — transition hidden.
    BiasRelu(&'a [f32]),
}

/// Cumulative count of scratch-arena growth events on *this* thread.
///
/// A steady-state GEMM of an already-seen shape performs zero growths;
/// the ci.sh quick gate asserts exactly that. The count is per-thread
/// (matching the thread-local arena), so warm-then-measure patterns must
/// run both calls on the same thread.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

/// Process-wide high-water mark of any one thread's scratch arena, bytes.
///
/// Updated with a single `fetch_max` per GEMM call (never inside tile
/// loops), so it is free on the hot path; ln-watch stitches it into the
/// live activation-memory watermark. Wall-world only: the value depends on
/// which thread ran the largest GEMM, so it must never feed a
/// deterministic artifact — the modeled per-request watermark
/// (`Backend::batch_peak_bytes_at`) covers that side.
pub fn scratch_hwm_bytes() -> u64 {
    SCRATCH_HWM_BYTES.load(std::sync::atomic::Ordering::Relaxed)
}

/// Resets the scratch high-water mark (benches isolate phases with this).
pub fn reset_scratch_hwm() {
    SCRATCH_HWM_BYTES.store(0, std::sync::atomic::Ordering::Relaxed);
}

static SCRATCH_HWM_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

thread_local! {
    /// The packed B panel.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Grows `v` to at least `len`, counting real reallocations.
fn ensure(v: &mut Vec<f32>, len: usize) {
    if v.len() < len {
        if v.capacity() < len {
            ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        }
        v.resize(len, 0.0);
    }
}

/// How the B operand is laid out in memory.
enum BSource<'a> {
    /// `(k, n)` row-major: element `(dk, j)` at `b[dk * n + j]`.
    Normal(&'a [f32]),
    /// `(n, k)` row-major (i.e. `self × rhsᵀ`): element `(dk, j)` at
    /// `b[j * k + dk]`.
    Transposed(&'a [f32]),
}

/// `out[i][j] = ep(Σ_k a[row0 + i][k] · b[k][j])` for an output-row chunk
/// (`out.len() / n` rows starting at global row `row0`), written whatever
/// `out` held.
///
/// `a` is the full `(m, k)` matrix and `b` the full `(k, n)` matrix, both
/// row-major; the chunk-of-rows calling convention matches
/// `ln_par::par_chunks_mut` so every pool chunk runs the same code.
pub fn gemm(a: &[f32], b: &[f32], k: usize, n: usize, row0: usize, out: &mut [f32], ep: &Epilogue) {
    run_gemm(host_nr(), a, &BSource::Normal(b), k, n, row0, out, ep);
}

/// [`gemm`] against a transposed B operand: `b` is `(n, k)` row-major and
/// the kernel computes `self × rhsᵀ` without materialising the transpose.
pub fn gemm_bt(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out: &mut [f32],
    ep: &Epilogue,
) {
    run_gemm(host_nr(), a, &BSource::Transposed(b), k, n, row0, out, ep);
}

/// The panel loops at tile width `nr` ([`NR`] or [`NR_WIDE`]): k-panel,
/// column panel (pack B), then one [`micro_tile`] per `MR × nr` block of
/// the output chunk, each followed on the last k-panel by its
/// [`tile_epilogue`].
#[allow(clippy::too_many_arguments)]
fn run_gemm(
    nr: usize,
    a: &[f32],
    bsrc: &BSource,
    k: usize,
    n: usize,
    row0: usize,
    out: &mut [f32],
    ep: &Epilogue,
) {
    if n == 0 || out.is_empty() {
        return;
    }
    let rows = out.len() / n;
    if k == 0 {
        // Every element is an empty sum.
        out.fill(0.0);
        let whole = TilePos {
            ir: 0,
            jr: 0,
            mr_len: rows,
            nr_len: n,
        };
        tile_epilogue::<NR>(out, n, whole, ep);
        return;
    }
    let tile_fn = match nr {
        NR => micro_tile::<NR>,
        NR_WIDE => micro_tile::<NR_WIDE>,
        _ => unreachable!("tile width {nr} has no instantiation"),
    };
    let fused = (!matches!(ep, Epilogue::None)).then_some(ep);
    let ts = tile_shape(a.len() / k, k, n);
    SCRATCH.with(|cell| {
        let b_pack = &mut *cell.borrow_mut();
        ensure(b_pack, ts.nc.div_ceil(nr) * nr * ts.kc.min(k));
        let bytes = b_pack.capacity() * std::mem::size_of::<f32>();
        SCRATCH_HWM_BYTES.fetch_max(bytes as u64, std::sync::atomic::Ordering::Relaxed);
        let mut kb = 0;
        while kb < k {
            let kc_len = ts.kc.min(k - kb);
            let first_panel = kb == 0;
            let panel_ep = if kb + kc_len == k { fused } else { None };
            let mut jb = 0;
            while jb < n {
                let nc_len = ts.nc.min(n - jb);
                let col_tiles = nc_len.div_ceil(nr);
                pack_b(nr, bsrc, k, n, (kb, kc_len), (jb, nc_len), b_pack);
                // The loops below touch only the packed panel, A and the
                // output chunk: arena growth here would mean an alloc on
                // the innermost path.
                let arena_guard = ALLOC_EVENTS.with(Cell::get);
                for ir in (0..rows).step_by(MR) {
                    let mr_len = MR.min(rows - ir);
                    let a_rows: [&[f32]; MR] = std::array::from_fn(|il| {
                        let i = row0 + ir + if il < mr_len { il } else { 0 };
                        &a[i * k + kb..][..kc_len]
                    });
                    for (jt, b_strip) in
                        b_pack.chunks_exact(nr * kc_len).take(col_tiles).enumerate()
                    {
                        let jr = jb + jt * nr;
                        let tile = TilePos {
                            ir,
                            jr,
                            mr_len,
                            nr_len: nr.min(n - jr),
                        };
                        tile_fn(&a_rows, b_strip, out, n, tile, first_panel, panel_ep);
                    }
                }
                debug_assert_eq!(
                    ALLOC_EVENTS.with(Cell::get),
                    arena_guard,
                    "microkernel inner loop must not touch the allocator"
                );
                jb += nc_len;
            }
            kb += kc_len;
        }
    });
}

/// Packs `nr`-column strips of B for one `(k, j)` panel: strip `jt` holds
/// columns `jb + jt·nr ..` as `[dk][jl]`. Columns past `n` pad with zeros.
///
/// The row-major source walks B row-by-row (contiguous streams) rather
/// than column-by-column — a stride-`n` gather here costs more than the
/// multiply loop it feeds.
fn pack_b(
    nr: usize,
    bsrc: &BSource,
    k: usize,
    n: usize,
    (kb, kc_len): (usize, usize),
    (jb, nc_len): (usize, usize),
    pack: &mut [f32],
) {
    let col_tiles = nc_len.div_ceil(nr);
    match bsrc {
        BSource::Normal(b) => {
            for dk in 0..kc_len {
                let brow = &b[(kb + dk) * n..][..n];
                for jt in 0..col_tiles {
                    let dst = &mut pack[jt * nr * kc_len + dk * nr..][..nr];
                    let j0 = jb + jt * nr;
                    let take = nr.min(n - j0).min(nc_len - jt * nr);
                    dst[..take].copy_from_slice(&brow[j0..j0 + take]);
                    dst[take..].fill(0.0);
                }
            }
        }
        BSource::Transposed(b) => {
            // Column j of B is row j of the transposed source: contiguous
            // in dk already.
            for (jt, strip) in pack
                .chunks_exact_mut(nr * kc_len)
                .take(col_tiles)
                .enumerate()
            {
                for jl in 0..nr {
                    let j = jb + jt * nr + jl;
                    if j < n && jt * nr + jl < nc_len {
                        let src = &b[j * k + kb..][..kc_len];
                        for (dk, &v) in src.iter().enumerate() {
                            strip[dk * nr + jl] = v;
                        }
                    } else {
                        for dk in 0..kc_len {
                            strip[dk * nr + jl] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// Where a tile's block sits in the output chunk: rows `ir .. ir +
/// mr_len`, columns `jr .. jr + nr_len`.
#[derive(Clone, Copy)]
struct TilePos {
    ir: usize,
    jr: usize,
    mr_len: usize,
    nr_len: usize,
}

/// One register tile over one k-panel: start from `+0.0` on the first
/// panel or from the partial sums in `out` on a later one, accumulate the
/// panel's k terms in ascending order, store back. Loading from `out`
/// (rather than summing a panel-partial and adding it) is what keeps the
/// per-element left fold — and therefore the bits — identical across any
/// k-panel split.
///
/// `inline(never)` is load-bearing for performance: compiled standalone,
/// LLVM keeps the whole MR×W accumulator in vector registers; inlined into
/// the panel loop, register allocation degrades ~6× by spilling the
/// accumulator to the stack every k step. The body enters through
/// [`simd::wide`], so on an AVX2 host the W = 16 tile is ten YMM
/// accumulators; without AVX2 either width runs as plain baseline code.
#[inline(never)]
fn micro_tile<const W: usize>(
    a_rows: &[&[f32]; MR],
    b_strip: &[f32],
    out: &mut [f32],
    n: usize,
    tile: TilePos,
    first_panel: bool,
    ep: Option<&Epilogue>,
) {
    simd::wide(
        #[inline(always)]
        || micro_tile_body::<W>(a_rows, b_strip, out, n, tile, first_panel),
    );
    if let Some(ep) = ep {
        tile_epilogue::<W>(out, n, tile, ep);
    }
}

#[inline(always)]
fn micro_tile_body<const W: usize>(
    a_rows: &[&[f32]; MR],
    b_strip: &[f32],
    out: &mut [f32],
    n: usize,
    tile: TilePos,
    first_panel: bool,
) {
    // `acc` is only ever indexed at constants, so LLVM splits it into
    // registers. A partial tile moves it through the two out-of-line edge
    // functions instead: a copy bounded by `mr_len` or `nr_len` here would
    // index it at run time and leave it on the stack, a load and a store
    // per product.
    let full_tile = tile.mr_len == MR && tile.nr_len == W;
    let mut acc = [[0.0f32; W]; MR];
    if !first_panel {
        if full_tile {
            for (il, acc_row) in acc.iter_mut().enumerate() {
                acc_row.copy_from_slice(&out[(tile.ir + il) * n + tile.jr..][..W]);
            }
        } else {
            acc = load_edge(out, n, tile);
        }
    }
    // The rows walk in lockstep as zipped iterators: an indexed read per
    // row would put a bounds check between the broadcasts.
    let [a0, a1, a2, a3, a4] = *a_rows;
    let a_cols = a0.iter().zip(a1).zip(a2).zip(a3).zip(a4);
    for (((((&x0, &x1), &x2), &x3), &x4), b_row) in a_cols.zip(b_strip.chunks_exact(W)) {
        for (acc_row, av) in acc.iter_mut().zip([x0, x1, x2, x3, x4]) {
            for (slot, &bv) in acc_row.iter_mut().zip(b_row) {
                *slot += av * bv;
            }
        }
    }
    if full_tile {
        for (il, acc_row) in acc.iter().enumerate() {
            out[(tile.ir + il) * n + tile.jr..][..W].copy_from_slice(acc_row);
        }
    } else {
        store_edge(acc, out, n, tile);
    }
}

/// The partial sums of a partial tile's `mr_len × nr_len` block, zero
/// elsewhere.
#[inline(never)]
fn load_edge<const W: usize>(out: &[f32], n: usize, tile: TilePos) -> [[f32; W]; MR] {
    let mut acc = [[0.0f32; W]; MR];
    for (il, acc_row) in acc.iter_mut().enumerate().take(tile.mr_len) {
        let src = &out[(tile.ir + il) * n + tile.jr..];
        acc_row[..tile.nr_len].copy_from_slice(&src[..tile.nr_len]);
    }
    acc
}

/// Stores a partial tile's `mr_len × nr_len` block and drops the rest.
#[inline(never)]
fn store_edge<const W: usize>(acc: [[f32; W]; MR], out: &mut [f32], n: usize, tile: TilePos) {
    for (il, acc_row) in acc.iter().enumerate().take(tile.mr_len) {
        let dst = &mut out[(tile.ir + il) * n + tile.jr..];
        dst[..tile.nr_len].copy_from_slice(&acc_row[..tile.nr_len]);
    }
}

/// Applies `ep` to the finished block at `tile` while the tile that
/// stored it has it in L1. Kept out of [`micro_tile`] (see the module
/// docs' `# Epilogues`).
#[inline(never)]
fn tile_epilogue<const W: usize>(out: &mut [f32], n: usize, tile: TilePos, ep: &Epilogue) {
    let (Epilogue::Bias(bias) | Epilogue::BiasSigmoid(bias) | Epilogue::BiasRelu(bias)) = *ep
    else {
        return;
    };
    let bias = &bias[tile.jr..][..tile.nr_len];
    simd::wide(
        #[inline(always)]
        || {
            for row in out[tile.ir * n..].chunks_exact_mut(n).take(tile.mr_len) {
                let row = &mut row[tile.jr..][..tile.nr_len];
                // A full-width row at the constant length `W` compiles to
                // whole vectors.
                if tile.nr_len == W {
                    finish_row(&mut row[..W], &bias[..W], ep);
                } else {
                    finish_row(row, bias, ep);
                }
            }
        },
    );
}

/// `row[j] = ep(row[j] + bias[j])`.
#[inline(always)]
fn finish_row(row: &mut [f32], bias: &[f32], ep: &Epilogue) {
    let pairs = row.iter_mut().zip(bias);
    match ep {
        Epilogue::None => {}
        Epilogue::Bias(_) => pairs.for_each(|(v, &b)| *v += b),
        Epilogue::BiasSigmoid(_) => pairs.for_each(|(v, &b)| *v = vmath::sigmoid(*v + b)),
        Epilogue::BiasRelu(_) => pairs.for_each(|(v, &b)| *v = (*v + b).max(0.0)),
    }
}

/// The reference triple loop the tiled path must match bit for bit:
/// `out[i][j]` is a left fold of `a[i][k]·b[k][j]` over ascending k from
/// `+0.0`.
pub fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for dk in 0..k {
                acc += a[i * k + dk] * b[dk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(m: usize, n: usize, seed: usize) -> Vec<f32> {
        (0..m * n)
            .map(|i| ((i * 31 + seed * 17) % 23) as f32 * 0.17 - 1.9)
            .collect()
    }

    #[test]
    fn tiled_matches_reference_across_classes() {
        for (m, k, n) in [(3, 5, 7), (16, 32, 16), (70, 300, 70), (64, 260, 300)] {
            let a = mat(m, k, 1);
            let b = mat(k, n, 2);
            let reference = reference_matmul(&a, &b, m, k, n);
            let mut out = vec![0.0f32; m * n];
            gemm(&a, &b, k, n, 0, &mut out, &Epilogue::None);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn transposed_source_matches_reference() {
        let (m, k, n) = (9, 33, 13);
        let a = mat(m, k, 3);
        let bt = mat(n, k, 4); // (n, k): row j is column j of B
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for dk in 0..k {
                b[dk * n + j] = bt[j * k + dk];
            }
        }
        let reference = reference_matmul(&a, &b, m, k, n);
        let mut out = vec![0.0f32; m * n];
        gemm_bt(&a, &bt, k, n, 0, &mut out, &Epilogue::None);
        for (x, y) in out.iter().zip(&reference) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn row0_offset_computes_the_right_rows() {
        let (m, k, n) = (12, 6, 5);
        let a = mat(m, k, 5);
        let b = mat(k, n, 6);
        let reference = reference_matmul(&a, &b, m, k, n);
        // Compute rows 4..9 as an offset chunk.
        let mut chunk = vec![0.0f32; 5 * n];
        gemm(&a, &b, k, n, 4, &mut chunk, &Epilogue::None);
        assert_eq!(chunk, reference[4 * n..9 * n].to_vec());
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `b` as the `(n, k)` operand of `gemm_bt`.
    fn transpose(b: &[f32], k: usize, n: usize) -> Vec<f32> {
        let mut bt = vec![0.0f32; n * k];
        for j in 0..n {
            for dk in 0..k {
                bt[j * k + dk] = b[dk * n + j];
            }
        }
        bt
    }

    // Around the tile's MR, and one chunk past the 128 rows A was once
    // packed in.
    const WIDTH_MS: [usize; 6] = [1, MR - 1, MR, MR + 1, 2 * MR + 1, 130];
    const WIDTH_KS: [usize; 5] = [0, 1, 127, 256, 300];
    const WIDTH_NS: [usize; 8] = [1, 7, 8, 9, 15, 16, 17, 130];

    #[test]
    fn both_tile_widths_match_the_reference_bitwise() {
        // Both instantiations are called directly, so W = 16 is covered on
        // a host without AVX2 and W = 8 on a host with it. `row0 = 2` puts
        // the chunk off the top of A; `out` starts as NaN, which any read
        // of it would carry into the result (k = 0 included: an empty sum
        // is +0.0).
        let row0 = 2;
        for nr in [NR, NR_WIDE] {
            for m in WIDTH_MS {
                for k in WIDTH_KS {
                    for n in WIDTH_NS {
                        let a = mat(row0 + m, k, 1);
                        let b = mat(k, n, 2);
                        let bt = transpose(&b, k, n);
                        let whole = reference_matmul(&a, &b, row0 + m, k, n);
                        let want = &whole[row0 * n..];
                        for (name, bsrc) in [
                            ("gemm", BSource::Normal(&b)),
                            ("gemm_bt", BSource::Transposed(&bt)),
                        ] {
                            let mut out = vec![f32::NAN; m * n];
                            run_gemm(nr, &a, &bsrc, k, n, row0, &mut out, &Epilogue::None);
                            assert_eq!(bits(&out), bits(want), "{name} W={nr} ({m},{k},{n})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn epilogues_run_once_on_the_finished_sums() {
        // k = 300 spans two k-panels, so an epilogue applied before the
        // last one would be folded into the sums and fail here.
        let (m, k, n) = (13, 300, 130);
        assert!(tile_shape(m, k, n).kc < k, "two k-panels");
        let a = mat(m, k, 7);
        let b = mat(k, n, 8);
        let bt = transpose(&b, k, n);
        let bias: Vec<f32> = (0..n).map(|j| (j % 9) as f32 * 0.7 - 2.5).collect();
        let reference = reference_matmul(&a, &b, m, k, n);
        let unfused = |f: fn(f32) -> f32| -> Vec<f32> {
            let mut want = reference.clone();
            for row in want.chunks_exact_mut(n) {
                for (v, &c) in row.iter_mut().zip(&bias) {
                    *v = f(*v + c);
                }
            }
            want
        };
        let cases = [
            (Epilogue::Bias(&bias), unfused(|x| x)),
            (Epilogue::BiasSigmoid(&bias), unfused(vmath::sigmoid)),
            (Epilogue::BiasRelu(&bias), unfused(|x| x.max(0.0))),
        ];
        for nr in [NR, NR_WIDE] {
            for (ep, want) in &cases {
                for bsrc in [BSource::Normal(&b), BSource::Transposed(&bt)] {
                    let mut out = vec![f32::NAN; m * n];
                    run_gemm(nr, &a, &bsrc, k, n, 0, &mut out, ep);
                    assert_eq!(bits(&out), bits(want), "{ep:?} W={nr}");
                }
            }
        }
    }

    #[test]
    fn warm_arena_does_not_allocate() {
        // `gemm` takes the host's dispatched tile width, so this (and the
        // debug_assert guard around the tile loops, live in this profile)
        // covers whichever tier the host selects; the explicit widths
        // cover the other one.
        let (m, k, n) = (33, 40, 29);
        let a = mat(m, k, 10);
        let b = mat(k, n, 11);
        let mut out = vec![0.0f32; m * n];
        let run = |width: Option<usize>, out: &mut [f32]| match width {
            None => gemm(&a, &b, k, n, 0, out, &Epilogue::None),
            Some(nr) => run_gemm(nr, &a, &BSource::Normal(&b), k, n, 0, out, &Epilogue::None),
        };
        for width in [None, Some(NR), Some(NR_WIDE)] {
            run(width, &mut out); // warm-up
            let before = alloc_events();
            run(width, &mut out);
            assert_eq!(
                alloc_events(),
                before,
                "steady-state GEMM must not grow the arena ({width:?})"
            );
        }
    }

    #[test]
    fn size_classes_are_deterministic_and_ordered() {
        assert_eq!(size_class(8, 8, 8), SizeClass::Small);
        assert_eq!(size_class(512, 512, 512), SizeClass::Large);
        assert_eq!(size_class(128, 128, 128), SizeClass::Mid);
        let ts = tile_shape(128, 128, 128);
        assert_eq!(ts, tile_shape(128, 128, 128));
    }
}
