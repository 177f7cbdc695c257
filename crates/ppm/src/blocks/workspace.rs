//! The fold workspace: the pair stages' large temporaries, kept between
//! stages and between folds instead of going back to the allocator (which
//! hands freed pair-sized blocks to the kernel and faults them in again at
//! the next stage).
//!
//! One stack of buffers per thread. A stage [`take`]s a tensor and gets a
//! [`Loan`], which goes back to the stack when it is dropped: where its
//! last reader is done (an explicit `drop`, or the end of its scope), and
//! on unwind, so a panic that runs through a stage costs the thread no
//! buffer. One invariant — **every buffer that goes back was taken** — is
//! the type's: only a `Loan` goes back, and only [`take`] makes one; a
//! tensor from anywhere else (a kernel's fresh output, say) is simply
//! dropped.
//!
//! It is for pair-sized tensors and the stages' row blocks. No stage has
//! more than one pair tensor on loan beside the stream — triangular
//! multiplication's packed einsum operand — unless the hook asks for more:
//! the post-LN `x` for a hook that observes it; every hook is shown the
//! same row blocks. At most three row blocks go beside it (a block's
//! post-LN rows, recomputed from the stream, with a gated side's gate and
//! projection or the triangle product's left rows and its consumers'; 0.6
//! MB each at the standard widths). A block finds a block-sized buffer it
//! left before, because [`take`] gives no request a buffer more than four
//! times its size: else a block would take the packed operand's buffer
//! and keep it on loan beside the next stage's. Anything much smaller
//! stays out (`tri_attn`'s bias, a lane's scratch and update): it would
//! make the stack one deeper.
//! The transition's hidden block (2 MiB) goes into the free pair-sized
//! buffer from L = 64 to L = 128, where that is at most four times the
//! block; above, it has a buffer of its own; below, it regrows one, which
//! then holds a pair tensor.
//!
//! A taken tensor's **contents are unspecified**. Whoever takes one
//! overwrites all of it: the `_into` kernels do (the GEMM tile, like the
//! triangle einsum, stores every element of its output on its first
//! k-panel without reading it), and the
//! quantized-domain GEMM's epilogue writes every element once.
//! Test and debug builds poison it with NaN so that a stale read cannot
//! pass.
//!
//! Stage code runs on the thread that called it; `ln-par` workers only
//! ever see slices of a loan, so they never reach this module.

use ln_tensor::Tensor2;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::ops::{Deref, DerefMut};

#[derive(Default)]
struct Workspace {
    /// Buffers not in use, in the order they came back.
    free: Vec<Vec<f32>>,
    /// Bytes out on loan, and the most there have been.
    #[cfg(test)]
    taken_bytes: usize,
    #[cfg(test)]
    taken_hwm_bytes: usize,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// A `(rows, cols)` tensor with unspecified contents: the free buffer
/// whose capacity fits most tightly (the most recently returned of equal
/// ones) if it is at most four times the request, else the largest free
/// one smaller than the request, regrown, else a new one — never a far
/// larger buffer, which the request would keep on loan (module docs).
pub(crate) fn take(rows: usize, cols: usize) -> Loan {
    let len = rows * cols;
    let mut buf = WORKSPACE.with(|w| {
        let w = &mut *w.borrow_mut();
        #[cfg(test)]
        {
            w.taken_bytes += len * 4;
            w.taken_hwm_bytes = w.taken_hwm_bytes.max(w.taken_bytes);
        }
        let free = w.free.iter().enumerate();
        let tightest = free
            .clone()
            .filter(|(_, b)| (len..=4 * len).contains(&b.capacity()))
            .min_by_key(|&(i, b)| (b.capacity(), Reverse(i)));
        let smaller = free.filter(|(_, b)| b.capacity() < len);
        let largest_smaller = || smaller.max_by_key(|&(i, b)| (b.capacity(), i));
        match tightest.or_else(largest_smaller) {
            Some((i, _)) => w.free.remove(i),
            None => Vec::new(),
        }
    });
    if buf.capacity() < len {
        // Regrowing: a fresh zeroed block, not a copy of stale contents.
        buf = vec![0.0; len];
    }
    buf.resize(len, 0.0);
    if cfg!(any(test, debug_assertions)) {
        buf.fill(f32::NAN);
    }
    Loan(Tensor2::from_vec(rows, cols, buf).expect("the buffer was sized to rows * cols"))
}

/// A tensor [`take`] handed out; it goes back to the calling thread's
/// workspace when dropped.
pub(crate) struct Loan(Tensor2);

impl Deref for Loan {
    type Target = Tensor2;

    fn deref(&self) -> &Tensor2 {
        &self.0
    }
}

impl DerefMut for Loan {
    fn deref_mut(&mut self) -> &mut Tensor2 {
        &mut self.0
    }
}

impl Drop for Loan {
    fn drop(&mut self) {
        let buf = std::mem::replace(&mut self.0, Tensor2::zeros(0, 0)).into_vec();
        // A thread being torn down has no workspace left to return to:
        // the buffer is freed with it.
        let _ = WORKSPACE.try_with(|w| {
            let w = &mut *w.borrow_mut();
            #[cfg(test)]
            {
                w.taken_bytes = w.taken_bytes.saturating_sub(buf.len() * 4);
            }
            w.free.push(buf);
        });
    }
}

/// Frees the buffers the calling thread's fold workspace retains between
/// folds — one pair-sized tensor and a few row blocks at the longest length
/// folded (6.3 MB at L = 96, 22.2 MB at L = 192, where the transition's
/// hidden block is one of them). A hook that observes the post-LN sites
/// adds a pair tensor (10.5 MB at L = 96). The next fold on this thread
/// allocates them again. For a caller that folds once and lives on.
///
/// The kernels' packing buffers are not part of the workspace and stay:
/// the triangle einsum's left panel (`64 · 16` floats a row of a row
/// chunk; 24 KB at Ns = 192) and the GEMM scratch arena (under 1 MB).
pub fn release_fold_workspace() {
    WORKSPACE.with(|w| w.borrow_mut().free = Vec::new());
}

/// `(buffers, bytes)` the calling thread retains.
#[cfg(test)]
pub(crate) fn retained() -> (usize, usize) {
    WORKSPACE.with(|w| {
        let w = w.borrow();
        (w.free.len(), w.free.iter().map(|b| b.capacity() * 4).sum())
    })
}

/// The most bytes on loan at once since the last call, which resets it.
#[cfg(test)]
pub(crate) fn take_hwm_bytes() -> usize {
    WORKSPACE.with(|w| {
        let w = &mut *w.borrow_mut();
        std::mem::replace(&mut w.taken_hwm_bytes, w.taken_bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::ROW_BLOCK;
    use crate::blocks::{
        AttentionNode, PairTransition, SequenceTrack, TriangleDirection, TriangularAttention,
        TriangularMultiplication,
    };
    use crate::taps::{ActivationHook, NoopHook, Tap};
    use crate::{FoldingModel, PpmConfig};
    use ln_protein::generator::StructureGenerator;
    use ln_protein::Sequence;
    use ln_quant::scheme::QuantScheme;
    use ln_tensor::Tensor3;

    /// Observes every site (so tri-attn runs its lanes in order) and
    /// rewrites nothing.
    struct ObserveAll;
    impl ActivationHook for ObserveAll {
        fn on_activation(&mut self, _tap: Tap, _activation: &mut Tensor2) {}
    }

    /// Sends every post-LN projection through the integer GEMMs.
    struct QuantizedDomain;
    impl ActivationHook for QuantizedDomain {
        fn on_activation(&mut self, _tap: Tap, _activation: &mut Tensor2) {}
        fn quantized_matmul(&self, _tap: Tap) -> Option<QuantScheme> {
            Some(QuantScheme::int8_with_outliers(4))
        }
    }

    fn hooks() -> [(&'static str, Box<dyn ActivationHook>); 3] {
        [
            ("noop", Box::new(NoopHook)),
            ("observe-all", Box::new(ObserveAll)),
            ("quantized-domain", Box::new(QuantizedDomain)),
        ]
    }

    /// A two-recycle tiny model: every block runs Outgoing and Incoming,
    /// Starting and Ending, and the recycle branch runs once.
    fn model(chunk: Option<usize>) -> FoldingModel {
        FoldingModel::new(PpmConfig {
            recycles: 2,
            attention_chunk: chunk,
            ..PpmConfig::tiny()
        })
    }

    fn fold_bits(model: &FoldingModel, ns: usize, hook: &mut dyn ActivationHook) -> Vec<u32> {
        let seq = Sequence::random("workspace", ns);
        let native = StructureGenerator::new("workspace").generate(ns);
        let out = model.predict_with_hook(&seq, &native, hook).expect("folds");
        out.pair_rep
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn retained_buffers_are_the_same_after_one_fold_and_after_three() {
        for chunk in [None, Some(5)] {
            let model = model(chunk);
            for (name, mut hook) in hooks() {
                release_fold_workspace();
                assert_eq!(retained(), (0, 0));
                fold_bits(&model, 12, hook.as_mut());
                let after_one = retained();
                assert!(after_one.0 > 0, "{name}: the stages use the workspace");
                fold_bits(&model, 12, hook.as_mut());
                fold_bits(&model, 12, hook.as_mut());
                assert_eq!(retained(), after_one, "{name}, chunk {chunk:?}");
                WORKSPACE.with(|w| assert_eq!(w.borrow().taken_bytes, 0, "{name}: all given back"));
            }
        }
    }

    #[test]
    fn a_fold_never_reads_what_an_earlier_fold_left_behind() {
        // `take` poisons with NaN here, and the 16-long fold in between
        // leaves every retained buffer with the wrong length and contents.
        for chunk in [None, Some(5)] {
            let model = model(chunk);
            for (name, mut hook) in hooks() {
                release_fold_workspace();
                let first = fold_bits(&model, 24, hook.as_mut());
                assert!(first.iter().all(|&b| f32::from_bits(b).is_finite()));
                fold_bits(&model, 16, hook.as_mut());
                let again = fold_bits(&model, 24, hook.as_mut());
                assert!(first == again, "{name}, chunk {chunk:?}");
            }
        }
    }

    #[test]
    fn each_stage_keeps_a_bounded_set_of_pair_tensors_on_loan() {
        // Standard widths at L = 48: 2 304 pair tokens, two full row blocks
        // and a partial one. One pair-sized tensor is `pair_bytes`; a
        // block of `width`-wide tokens is `block_bytes(width)` (0.44 of a
        // pair tensor at 128 channels), one of tri-mul's row-blocked gated
        // side and the triangle product's consumers — 22 whole rows —
        // `rows_bytes` (0.46); one of the transition's hidden activation
        // `hidden_block_bytes` (1.78); one of the outer-product mean's
        // pair rows, their outer products and update, `opm_bytes` (0.69).
        let cfg = PpmConfig::standard();
        let ns = 48;
        let pair_bytes = ns * ns * cfg.hz * 4;
        let block_bytes = |width: usize| ROW_BLOCK * width * 4;
        let whole_rows = ROW_BLOCK.div_ceil(ns) * ns;
        let rows_bytes = whole_rows * cfg.hz * 4;
        let hidden_block_bytes = block_bytes(cfg.hz * cfg.transition_factor);
        let opm_bytes = whole_rows * (64 + cfg.hz) * 4;
        assert!(ns * ns > 2 * ROW_BLOCK && ns * ns % ROW_BLOCK != 0);
        let pair = Tensor3::from_fn(ns, ns, cfg.hz, |i, j, k| {
            ((i * 31 + j * 7 + k * 3) % 13) as f32 * 0.5 - 3.0
        });
        let mut seq = Tensor2::from_fn(ns, cfg.hm, |i, j| ((i * 5 + j) % 7) as f32 * 0.3 - 1.0);

        type Stage<'a> = Box<dyn FnMut(&mut Tensor3, &mut dyn ActivationHook) + 'a>;
        let tri_mul = |direction| {
            let unit = TriangularMultiplication::new(&cfg, "ws", direction);
            Box::new(move |z: &mut Tensor3, h: &mut dyn ActivationHook| {
                unit.forward(z, h, 0, 0).unwrap()
            })
        };
        let tri_attn = |node| {
            let unit = TriangularAttention::new(&cfg, "ws", node);
            Box::new(move |z: &mut Tensor3, h: &mut dyn ActivationHook| {
                unit.forward(z, h, 0, 0).unwrap()
            })
        };
        let transition = PairTransition::new(&cfg, "ws");
        let seq_track = SequenceTrack::new(&cfg, "ws");
        // (stage, most bytes it may have on loan under each of `hooks()`:
        // one that observes nothing, one that observes every site, and the
        // quantized domain). A stage
        // holds the post-LN `x` whole only for a hook that observes it and
        // asks for no encoding; otherwise a block's post-LN rows are a row
        // block — recomputed, or in the quantized domain the buffer of its
        // update, `x` given back as soon as it is encoded.
        // - tri-mul: the packed right operand and three blocks — a gated
        //   side's gate and projection beside its post-LN rows, the left
        //   rows and their product, or the consumers' rows; with `x`
        //   whole, two;
        // - tri-attn: nothing pair-sized beside `x` — one block of post-LN
        //   rows for the bias, and a lane's queries, keys, values and gate
        //   are lane scratch, not the workspace's, whether the lanes run
        //   on the pool or in order; in the quantized domain `x` is on loan
        //   only while it is encoded;
        // - the transition: a block of the hidden activation beside its
        //   post-LN rows or `x`;
        // - the outer product and its update, a block of pair rows each.
        let stages: [(&str, [usize; 3], Stage); 6] = [
            (
                "tri_mul_out",
                [
                    pair_bytes + 3 * rows_bytes,
                    2 * pair_bytes + 2 * rows_bytes,
                    pair_bytes + 3 * rows_bytes,
                ],
                tri_mul(TriangleDirection::Outgoing),
            ),
            (
                "tri_mul_in",
                [
                    pair_bytes + 3 * rows_bytes,
                    2 * pair_bytes + 2 * rows_bytes,
                    pair_bytes + 3 * rows_bytes,
                ],
                tri_mul(TriangleDirection::Incoming),
            ),
            (
                "tri_attn_start",
                [
                    block_bytes(cfg.hz),
                    pair_bytes,
                    pair_bytes.max(block_bytes(cfg.hz)),
                ],
                tri_attn(AttentionNode::Starting),
            ),
            (
                "tri_attn_end",
                [
                    block_bytes(cfg.hz),
                    pair_bytes,
                    pair_bytes.max(block_bytes(cfg.hz)),
                ],
                tri_attn(AttentionNode::Ending),
            ),
            (
                "transition",
                [
                    block_bytes(cfg.hz) + hidden_block_bytes,
                    pair_bytes + hidden_block_bytes,
                    pair_bytes.max(block_bytes(cfg.hz) + hidden_block_bytes),
                ],
                Box::new(|z, h| transition.forward(z, h, 0, 0).unwrap()),
            ),
            (
                "seq_track",
                [opm_bytes; 3],
                Box::new(|z, _| seq_track.forward(&mut seq, z).unwrap()),
            ),
        ];
        for (stage, bounds, mut run) in stages {
            for ((name, mut hook), bound) in hooks().into_iter().zip(bounds) {
                let mut z = pair.clone();
                take_hwm_bytes();
                run(&mut z, hook.as_mut());
                let peak = take_hwm_bytes();
                assert!(
                    peak <= bound,
                    "{stage} under {name}: {:.2} pair tensors on loan, at most {:.2} allowed",
                    peak as f64 / pair_bytes as f64,
                    bound as f64 / pair_bytes as f64,
                );
            }
        }
    }

    #[test]
    fn a_warm_fold_retains_one_pair_tensor_and_row_blocks() {
        // Standard widths at L = 96: every buffer a warm fold leaves is
        // pair-sized — one, triangular multiplication's packed operand,
        // which the transition's hidden block also fits — or at most a
        // block of whole rows. No stage takes a second pair tensor beside
        // the stream, and no row block takes a far larger buffer.
        let cfg = PpmConfig::standard();
        let ns = 96;
        let pair_bytes = ns * ns * cfg.hz * 4;
        let rows_bytes = ROW_BLOCK.div_ceil(ns) * ns * cfg.hz * 4;
        let model = FoldingModel::new(cfg);
        release_fold_workspace();
        fold_bits(&model, ns, &mut NoopHook);
        fold_bits(&model, ns, &mut NoopHook);
        let sizes: Vec<usize> =
            WORKSPACE.with(|w| w.borrow().free.iter().map(|b| b.capacity() * 4).collect());
        let pair_sized = sizes.iter().filter(|&&bytes| bytes >= pair_bytes).count();
        assert_eq!(pair_sized, 1, "{sizes:?}");
        let between = |&&bytes: &&usize| rows_bytes < bytes && bytes < pair_bytes;
        assert_eq!(sizes.iter().find(between), None, "{sizes:?}");
    }

    #[test]
    fn take_prefers_a_close_fit_and_regrows_only_a_smaller_buffer() {
        release_fold_workspace();
        let (small, large) = (take(4, 4), take(16, 16));
        drop(large);
        drop(small);
        // A small request leaves the large buffer alone.
        let t = take(2, 2);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(retained(), (1, 16 * 16 * 4));
        drop(t);
        // Nothing fits: the largest smaller one is replaced, the count
        // stays.
        let t = take(32, 32);
        assert_eq!(retained(), (1, 4 * 4 * 4));
        drop(t);
        assert_eq!(retained(), (2, (32 * 32 + 4 * 4) * 4));
        // More than four times the request is no fit, and a larger buffer
        // is never taken to be regrown: a new one is made.
        let t = take(4, 4);
        assert_eq!(retained(), (1, 32 * 32 * 4));
        let u = take(2, 2);
        assert_eq!(retained(), (1, 32 * 32 * 4));
        drop(u);
        drop(t);
        assert_eq!(retained(), (3, (32 * 32 + 4 * 4 + 2 * 2) * 4));
        release_fold_workspace();
        assert_eq!(retained(), (0, 0));
    }
}
