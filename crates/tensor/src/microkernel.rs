//! Register-tiled GEMM microkernel: the single inner loop every dense
//! matmul in the workspace now runs through.
//!
//! The kernel computes an `MR × W` output tile in a local accumulator
//! array over packed panels of A and B. Packing turns every inner-loop
//! access into a contiguous, exactly-sized slice (`chunks_exact`), which
//! is the shape LLVM's autovectorizer needs to emit SIMD without
//! intrinsics: the tile body is one generic piece of safe Rust.
//!
//! # Tile width
//!
//! The tile width `W` follows the host ([`crate::simd::tier`]): 4×8
//! ([`NR`], eight XMM accumulators) on the baseline, 4×16 ([`NR_WIDE`],
//! eight YMM accumulators) where [`crate::simd::wide`] finds AVX2 — the
//! same body instantiated twice and entered through that one dispatch
//! point, which holds the crate's only `unsafe`. On the 2-vCPU AVX2 host
//! every fold record since PR 15 was taken on, W = 16 (no FMA, so a
//! multiply and an add per lane) runs the fold's GEMMs at 22–29 GFLOP/s
//! — `tensor.matmul_s` against its flop count, and
//! `tensor.gemm_probe_gflops`, a whole `Linear::forward` into a freshly
//! allocated output, reads the same.
//!
//! # Bitwise determinism
//!
//! Every output element accumulates its `k` products in strictly
//! ascending order into a single `f32` accumulator (a left fold starting
//! from the value already in `out`). Tiling and packing reorder *which*
//! elements are computed when, never the summation order *within* an
//! element, so the tiled path is bit-identical to the reference triple
//! loop at either tile width — and to any row-chunked parallel execution
//! over it (the ln-par ownership-per-row contract).
//!
//! # Loop order
//!
//! k-panel, then column panel (B packed: `kc × nc`), then block of `MC`
//! rows (A packed: `MC × kc`), then tiles. A is therefore packed once per
//! column panel rather than once per k-panel — `n / nc` times, twice at
//! most at the widths the fold uses — and in exchange the packed A is a
//! 128 KiB block that stays in L2 instead of a copy of every row the
//! caller's chunk holds (half a pair tensor on a one-thread pool).
//!
//! # Epilogues
//!
//! [`gemm`] and [`gemm_bt`] take an [`Epilogue`] — bias, bias + sigmoid
//! ([`vmath::sigmoid`], under [`simd::wide`]) or bias + ReLU — and apply it
//! in one more pass over the output chunk they were handed, after the
//! chunk's last k-panel. The row blocks do not
//! shorten that distance: the k-panel loop is outside them, so a row's
//! sums are finished only when the whole chunk's are, and the pass still
//! runs per `ln-par` chunk — half the tensor on a one-thread pool, long
//! out of cache (ROADMAP 3(c), the half that is open). It saves the
//! intermediate tensor, not the pass. Anything that combines two products
//! — a gate times a projection — is two calls and an element-wise pass at
//! the call site.
//!
//! # Scratch arena
//!
//! The packing buffers — one row block of A and one panel of B, `MC × 256`
//! and `256 × 256` floats (384 KiB together) at the blocked size classes
//! however many rows the product has, and nothing else — live in a
//! per-thread scratch arena that is reused across calls. Growth is counted
//! in a per-thread [`alloc_events`] counter and asserted *absent* inside
//! the tile loops (`debug_assert`), so CI can pin "zero allocations in the
//! microkernel inner loop": warm the arena with one call, snapshot the
//! counter, re-run the same shape, and require the counter unchanged. The
//! counter is thread-local like the arena itself — a pool worker growing
//! *its* arena must not trip the guard of a different worker mid-panel.

use crate::simd::{self, Tier};
use crate::vmath;
use std::cell::{Cell, RefCell};

/// Output-tile rows held in registers by the microkernel.
pub const MR: usize = 4;
/// Output-tile columns held in registers on the baseline tier.
pub const NR: usize = 8;
/// Output-tile columns held in registers on the AVX2 tier.
pub const NR_WIDE: usize = 16;
/// Rows of A packed at a time: a `MC × kc` block (128 KiB at the deepest
/// k-panel) that stays L2-resident under the B panel it is multiplied with.
const MC: usize = 128;

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
        // Small: pack everything once, no panel loop.
        SizeClass::Small => TileShape {
            kc: k.max(1),
            nc: n.max(1),
        },
        // Mid: 256×128 B panel = 128 KiB, L2-resident alongside the A
        // strips; deep k amortises the per-panel pack.
        SizeClass::Mid => TileShape { kc: 256, nc: 128 },
        // Large: square-ish 256×256 panel (256 KiB) — wider columns so
        // each packed A strip is reused across more register tiles.
        SizeClass::Large => TileShape { kc: 256, nc: 256 },
    }
}

/// What happens to each finished output element after accumulation.
///
/// Epilogues run as one extra pass over the output chunk once all
/// k-panels have accumulated, exactly reproducing the arithmetic of the
/// unfused sequence (matmul, then bias pass, then activation map) while
/// never materialising the intermediate tensors between them.
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

fn note_scratch_hwm(s: &Scratch) {
    let bytes =
        (s.a_pack.capacity() + s.b_pack.capacity()) as u64 * std::mem::size_of::<f32>() as u64;
    SCRATCH_HWM_BYTES.fetch_max(bytes, std::sync::atomic::Ordering::Relaxed);
}

#[derive(Default)]
struct Scratch {
    a_pack: Vec<f32>,
    b_pack: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
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

/// `out[i][j] += Σ_k a[row0 + i][k] · b[k][j]` for an output-row chunk
/// (`out.len() / n` rows starting at global row `row0`), with `epilogue`
/// applied once per element after full accumulation.
///
/// `a` is the full `(m, k)` matrix and `b` the full `(k, n)` matrix, both
/// row-major; the chunk-of-rows calling convention matches
/// `ln_par::par_chunks_mut` so every pool chunk runs the same code.
pub fn gemm(a: &[f32], b: &[f32], k: usize, n: usize, row0: usize, out: &mut [f32], ep: &Epilogue) {
    run_gemm(host_nr(), a, &BSource::Normal(b), k, n, row0, out);
    apply_epilogue(out, n, ep);
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
    run_gemm(host_nr(), a, &BSource::Transposed(b), k, n, row0, out);
    apply_epilogue(out, n, ep);
}

/// The panel loops at tile width `nr` ([`NR`] or [`NR_WIDE`]): k-panel,
/// column panel (pack B), block of [`MC`] rows (pack A), then one
/// [`micro_tile`] per `MR × nr` block of the output chunk.
fn run_gemm(
    nr: usize,
    a: &[f32],
    bsrc: &BSource,
    k: usize,
    n: usize,
    row0: usize,
    out: &mut [f32],
) {
    if n == 0 || k == 0 || out.is_empty() {
        return;
    }
    let tile_fn = match nr {
        NR => micro_tile::<NR>,
        NR_WIDE => micro_tile::<NR_WIDE>,
        _ => unreachable!("tile width {nr} has no instantiation"),
    };
    let rows = out.len() / n;
    let m_total = a.len() / k;
    let ts = tile_shape(m_total, k, n);
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        ensure(&mut s.a_pack, MC.min(rows).div_ceil(MR) * MR * ts.kc.min(k));
        ensure(&mut s.b_pack, ts.nc.div_ceil(nr) * nr * ts.kc.min(k));
        note_scratch_hwm(s);
        let mut kb = 0;
        while kb < k {
            let kc_len = ts.kc.min(k - kb);
            let mut jb = 0;
            while jb < n {
                let nc_len = ts.nc.min(n - jb);
                let col_tiles = nc_len.div_ceil(nr);
                pack_b(nr, bsrc, k, n, (kb, kc_len), (jb, nc_len), &mut s.b_pack);
                // The loops below touch only the packing buffers and the
                // output chunk: arena growth here would mean an alloc on
                // the innermost path.
                let arena_guard = ALLOC_EVENTS.with(Cell::get);
                for ib in (0..rows).step_by(MC) {
                    let mc_len = MC.min(rows - ib);
                    let row_tiles = mc_len.div_ceil(MR);
                    pack_a(a, k, row0 + ib, mc_len, kb, kc_len, &mut s.a_pack);
                    for (it, a_strip) in s
                        .a_pack
                        .chunks_exact(MR * kc_len)
                        .take(row_tiles)
                        .enumerate()
                    {
                        let ir = ib + it * MR;
                        let mr_len = MR.min(rows - ir);
                        for (jt, b_strip) in s
                            .b_pack
                            .chunks_exact(nr * kc_len)
                            .take(col_tiles)
                            .enumerate()
                        {
                            let jr = jb + jt * nr;
                            let nr_len = nr.min(n - jr);
                            let tile = TilePos {
                                ir,
                                jr,
                                mr_len,
                                nr_len,
                            };
                            tile_fn(a_strip, b_strip, out, n, tile);
                        }
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

/// Packs MR-row strips of one row block of A for one k-panel: strip `it`
/// holds rows `row0 + it·MR ..` as `[dk][il]` so the microkernel broadcast
/// reads a contiguous MR-column. Rows past the block's `rows` pad with
/// zeros (their products land in accumulator lanes that are never written
/// back).
fn pack_a(
    a: &[f32],
    k: usize,
    row0: usize,
    rows: usize,
    kb: usize,
    kc_len: usize,
    pack: &mut [f32],
) {
    let row_tiles = rows.div_ceil(MR);
    for (it, strip) in pack
        .chunks_exact_mut(MR * kc_len)
        .take(row_tiles)
        .enumerate()
    {
        for il in 0..MR {
            let i = it * MR + il;
            if i < rows {
                let src = &a[(row0 + i) * k + kb..][..kc_len];
                for (dk, &v) in src.iter().enumerate() {
                    strip[dk * MR + il] = v;
                }
            } else {
                for dk in 0..kc_len {
                    strip[dk * MR + il] = 0.0;
                }
            }
        }
    }
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

struct TilePos {
    ir: usize,
    jr: usize,
    mr_len: usize,
    nr_len: usize,
}

/// One register tile: load the partial sums from `out`, accumulate the
/// packed panels' k terms in ascending order, store back. Loading from
/// `out` (rather than summing a panel-partial and adding it) is what
/// keeps the per-element left fold — and therefore the bits — identical
/// across any k-panel split.
///
/// `inline(never)` is load-bearing for performance: compiled standalone,
/// LLVM keeps the whole MR×W accumulator in vector registers; inlined into
/// the panel loop, register allocation degrades ~6× by spilling the
/// accumulator to the stack every k step. The body enters through
/// [`simd::wide`], so on an AVX2 host the W = 16 tile is eight YMM
/// accumulators; without AVX2 either width runs as plain baseline code.
#[inline(never)]
fn micro_tile<const W: usize>(
    a_strip: &[f32],
    b_strip: &[f32],
    out: &mut [f32],
    n: usize,
    tile: TilePos,
) {
    simd::wide(
        #[inline(always)]
        || micro_tile_body::<W>(a_strip, b_strip, out, n, tile),
    );
}

#[inline(always)]
fn micro_tile_body<const W: usize>(
    a_strip: &[f32],
    b_strip: &[f32],
    out: &mut [f32],
    n: usize,
    tile: TilePos,
) {
    let mut acc = [[0.0f32; W]; MR];
    // A full-width tile moves its rows with a constant length, which
    // compiles to vector loads and stores; only edge tiles pay a `memcpy`
    // call per row.
    let full_width = tile.nr_len == W;
    for (il, acc_row) in acc.iter_mut().enumerate().take(tile.mr_len) {
        let src = &out[(tile.ir + il) * n + tile.jr..];
        if full_width {
            acc_row.copy_from_slice(&src[..W]);
        } else {
            acc_row[..tile.nr_len].copy_from_slice(&src[..tile.nr_len]);
        }
    }
    for (a_col, b_row) in a_strip.chunks_exact(MR).zip(b_strip.chunks_exact(W)) {
        for (acc_row, &av) in acc.iter_mut().zip(a_col) {
            for (slot, &bv) in acc_row.iter_mut().zip(b_row) {
                *slot += av * bv;
            }
        }
    }
    for (il, acc_row) in acc.iter().enumerate().take(tile.mr_len) {
        let dst = &mut out[(tile.ir + il) * n + tile.jr..];
        if full_width {
            dst[..W].copy_from_slice(acc_row);
        } else {
            dst[..tile.nr_len].copy_from_slice(&acc_row[..tile.nr_len]);
        }
    }
}

/// Applies `ep` to every finished element of the chunk, one row at a time.
fn apply_epilogue(out: &mut [f32], n: usize, ep: &Epilogue) {
    match *ep {
        Epilogue::None => {}
        Epilogue::Bias(bias) => {
            for row in out.chunks_exact_mut(n) {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
        }
        Epilogue::BiasSigmoid(bias) => simd::wide(
            #[inline(always)]
            || {
                for row in out.chunks_exact_mut(n) {
                    for (v, &b) in row.iter_mut().zip(bias) {
                        *v = vmath::sigmoid(*v + b);
                    }
                }
            },
        ),
        Epilogue::BiasRelu(bias) => {
            for row in out.chunks_exact_mut(n) {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v = (*v + b).max(0.0);
                }
            }
        }
    }
}

/// The reference triple loop the tiled path must match bit for bit:
/// `out[i][j] = fold over ascending k of out[i][j] + a[i][k]·b[k][j]`.
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

    /// Rows `row0..` of `a × b`, each element a k-ascending left fold
    /// that starts from `init` (the accumulate contract of `run_gemm`).
    fn fold_reference(
        init: &[f32],
        a: &[f32],
        b: &[f32],
        (k, n): (usize, usize),
        row0: usize,
    ) -> Vec<f32> {
        let mut out = init.to_vec();
        for (i, row) in out.chunks_exact_mut(n).enumerate() {
            for (j, acc) in row.iter_mut().enumerate() {
                for dk in 0..k {
                    *acc += a[(row0 + i) * k + dk] * b[dk * n + j];
                }
            }
        }
        out
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    // Around the tile's MR and the row block's MC.
    const WIDTH_MS: [usize; 8] = [1, 3, 4, 5, MC - 1, MC, MC + 1, 2 * MC + 3];
    const WIDTH_KS: [usize; 4] = [1, 127, 256, 300];
    const WIDTH_NS: [usize; 8] = [1, 7, 8, 9, 15, 16, 17, 130];

    #[test]
    fn both_tile_widths_match_the_reference_bitwise() {
        // Both instantiations are called directly, so W = 16 is covered on
        // a host without AVX2 and W = 8 on a host with it. `row0 = 2` puts
        // the chunk off the top of A; the second pass accumulates onto a
        // pre-filled `out`.
        let row0 = 2;
        for nr in [NR, NR_WIDE] {
            for m in WIDTH_MS {
                for k in WIDTH_KS {
                    for n in WIDTH_NS {
                        let a = mat(row0 + m, k, 1);
                        let b = mat(k, n, 2);
                        let mut bt = vec![0.0f32; n * k];
                        for j in 0..n {
                            for dk in 0..k {
                                bt[j * k + dk] = b[dk * n + j];
                            }
                        }
                        let whole = reference_matmul(&a, &b, row0 + m, k, n);
                        let want = &whole[row0 * n..];
                        let prefill = mat(m, n, 3);
                        let want_acc = fold_reference(&prefill, &a, &b, (k, n), row0);
                        for (name, bsrc) in [
                            ("gemm", BSource::Normal(&b)),
                            ("gemm_bt", BSource::Transposed(&bt)),
                        ] {
                            let mut out = vec![0.0f32; m * n];
                            run_gemm(nr, &a, &bsrc, k, n, row0, &mut out);
                            assert_eq!(bits(&out), bits(want), "{name} W={nr} ({m},{k},{n})");
                            let mut out = prefill.clone();
                            run_gemm(nr, &a, &bsrc, k, n, row0, &mut out);
                            assert_eq!(
                                bits(&out),
                                bits(&want_acc),
                                "{name} accumulate W={nr} ({m},{k},{n})"
                            );
                        }
                    }
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
            Some(nr) => run_gemm(nr, &a, &BSource::Normal(&b), k, n, 0, out),
        };
        for width in [None, Some(NR), Some(NR_WIDE)] {
            run(width, &mut out); // warm-up
            let before = alloc_events();
            out.fill(0.0);
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
