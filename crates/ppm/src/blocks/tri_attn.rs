//! Triangular Attention (Fig. 6(b)): multi-head attention over rows
//! (starting node) or columns (ending node) of the pair representation,
//! with a triangle bias from the third edge.
//!
//! This is the paper's dominant cost: the per-head score tensor is
//! `(Ns, Ns, Ns)`, which is what makes activation size — not weight size —
//! the PPM bottleneck (§3.2). It is never held here: one body,
//! `HeadBuffers::attend`, takes a (lane, head) through blocks of
//! [`PpmConfig::attention_chunk`] query rows — scores, whole-row softmax,
//! the score tap, context — so a thread keeps `r · Ns` scores alive and
//! the output bits do not depend on `r`. The context of a block of query
//! rows goes over those queries, so the stage holds no context buffer.
//!
//! Nor does it hold keys or values: a lane's are its own `Ns` tokens,
//! projected into the lane's scratch when the lane comes up. The output
//! gate and projection then run a block of tokens at a time into the
//! post-LN activation's spent rows, so beside the stream the stage holds
//! two pair tensors — the post-LN activation and the queries — unless
//! the hook [wants](ActivationHook::takes_row_blocks) the keys, values or
//! gate whole.
//!
//! There is one body for both nodes: the Ending node is the Starting node
//! on the transposed pair stream, `(a, b) ↔ (b, a)` by exact swaps in
//! place before and after — so its taps see the tokens in that order.

use super::{
    block_len, residual_stage, transpose_pair_tokens, workspace, Activation, PostLn, Projection,
    ROW_BLOCK,
};
use crate::taps::{ActivationHook, ActivationSite, Tap};
use crate::{PpmConfig, PpmError};
use ln_tensor::nn::{LayerNorm, Linear};
use ln_tensor::{nn, Tensor2, Tensor3, TensorError};

/// Which pair-matrix axis the attention runs along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttentionNode {
    /// Row-wise attention ("around the starting node"): for each `i`,
    /// tokens `(i, *)` attend to each other.
    Starting,
    /// Column-wise attention ("around the ending node"): for each `j`,
    /// tokens `(*, j)` attend to each other.
    Ending,
}

/// A triangular-attention unit.
#[derive(Debug, Clone)]
pub struct TriangularAttention {
    node: AttentionNode,
    heads: usize,
    head_dim: usize,
    chunk: Option<usize>,
    norm_in: LayerNorm,
    to_q: Projection,
    to_k: Projection,
    to_v: Projection,
    to_bias: Projection,
    to_gate: Projection,
    proj_out: Linear,
    update_gain: f32,
}

impl TriangularAttention {
    /// Builds the unit with deterministic weights derived from `label`.
    pub fn new(config: &PpmConfig, label: &str, node: AttentionNode) -> Self {
        let hz = config.hz;
        let attn = config.pair_attn_dim();
        let to_q = Linear::deterministic(&format!("{label}/q"), hz, attn, 0.7);
        let to_k = Linear::deterministic(&format!("{label}/k"), hz, attn, 0.7);
        let to_v = Linear::deterministic(&format!("{label}/v"), hz, attn, 0.7);
        let to_bias =
            Linear::deterministic_with_bias(&format!("{label}/b"), hz, config.pair_heads, 0.4, 0.2);
        let to_gate = Linear::deterministic(&format!("{label}/g"), hz, attn, 0.3);
        TriangularAttention {
            node,
            heads: config.pair_heads,
            head_dim: config.pair_head_dim,
            chunk: config.attention_chunk,
            norm_in: LayerNorm::deterministic_scaled(&format!("{label}/ln"), hz, 0.2, 5.0),
            to_q: Projection::new(to_q),
            to_k: Projection::new(to_k),
            to_v: Projection::new(to_v),
            to_bias: Projection::new(to_bias),
            to_gate: Projection::new(to_gate),
            proj_out: Linear::deterministic(&format!("{label}/o"), attn, hz, 0.5),
            update_gain: config.update_gain,
        }
    }

    /// The attention axis.
    pub fn node(&self) -> AttentionNode {
        self.node
    }

    /// Total number of weight parameters.
    pub fn num_params(&self) -> usize {
        self.norm_in.num_params()
            + self.to_q.num_params()
            + self.to_k.num_params()
            + self.to_v.num_params()
            + self.to_bias.num_params()
            + self.to_gate.num_params()
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
        let ending = self.node == AttentionNode::Ending;
        if ending {
            transpose_pair_tokens(pair);
        }
        residual_stage(
            pair,
            hook,
            [
                tap(ActivationSite::TriAttnResidualIn),
                tap(ActivationSite::TriAttnPostLn),
            ],
            &self.norm_in,
            self.update_gain,
            |hook, post_ln| self.update(hook, post_ln, ns, tap),
        )?;
        if ending {
            transpose_pair_tokens(pair);
        }
        Ok(())
    }

    /// The stage between its LayerNorm and its residual add: the output
    /// projection of the gated attention context, in `post_ln`'s buffer.
    /// Lane `i` (a contiguous `ns`-token band) is row `i` of the stream.
    fn update(
        &self,
        hook: &mut dyn ActivationHook,
        mut post_ln: PostLn,
        ns: usize,
        tap: impl Fn(ActivationSite) -> Tap,
    ) -> Result<Tensor2, PpmError> {
        use ActivationSite::*;
        let tokens_n = ns * ns;
        // All five post-LN projections read `post_ln` — as integer GEMMs
        // when the hook opts in.
        let mut q = post_ln.project(&self.to_q, Activation::None)?;
        hook.on_activation(tap(TriAttnQuery), &mut q);
        // The bias and its per-head matrices are 1/32 of a pair tensor:
        // not worth a pair-sized workspace buffer each.
        let mut bias = Tensor2::zeros(tokens_n, self.heads);
        post_ln.project_into(&self.to_bias, Activation::None, 0, &mut bias)?;
        hook.on_activation(tap(TriAttnBias), &mut bias);

        let attn_dim = self.heads * self.head_dim;

        // Per-head (ns, ns) bias matrices for the score grid, one a row —
        // shared by every lane, so the third-edge bias costs one strided
        // gather per head instead of Ns³ virtual lookups.
        let (heads, src) = (self.heads, bias.as_slice());
        let bias_mats = Tensor2::from_fn(heads, tokens_n, |h, t| src[t * heads + h]);

        // Every (lane, head, block of query rows) reads its queries before
        // writing their context over them — same rows, the head's columns
        // — so `q` becomes the context, every slot written. A lane's keys
        // and values are its own `ns` tokens, projected when the lane
        // comes up into the lane's scratch.
        let block_rows = self.chunk.unwrap_or(ns);
        if [TriAttnKey, TriAttnValue, TriAttnScores]
            .iter()
            .any(|&site| hook.observes(site))
        {
            // Observing driver: the hook sees (and may rewrite) each
            // lane's keys and values, then each block of its probability
            // rows — the paper quantizes the scores (Group C), a row a
            // token — so taps fire serially in ascending (lane, head,
            // block) order, on one set of head buffers. A hook that wants
            // the keys and values whole gets them projected once, for
            // every lane, in workspace tensors.
            let mut bufs = HeadBuffers::new(ns, self.head_dim, block_rows);
            let kv_lanes = block_len(hook, &[TriAttnKey, TriAttnValue], 1, ns);
            let mut kv = match kv_lanes {
                1 => lane_kv(ns, attn_dim),
                _ => [(); 2].map(|_| workspace::take(tokens_n, attn_dim)),
            };
            let lanes = q.as_mut_slice().chunks_mut((ns * attn_dim).max(1));
            for (lane, lane_q) in lanes.enumerate() {
                if lane % kv_lanes == 0 {
                    self.project_kv(&post_ln, lane * ns, &mut kv)?;
                    hook.on_activation(tap(TriAttnKey), &mut kv[0]);
                    hook.on_activation(tap(TriAttnValue), &mut kv[1]);
                }
                let row0 = lane % kv_lanes * ns;
                for h in 0..heads {
                    bufs.attend(&kv, row0, h, bias_mats.row(h), lane_q, |p| {
                        hook.on_activation(tap(TriAttnScores), p)
                    })?;
                }
            }
            if kv_lanes > 1 {
                for operand in kv {
                    workspace::give(operand);
                }
            }
        } else {
            // Lane-parallel driver: nobody looks at the keys, values or
            // scores, so lanes are independent and dispatch across the
            // pool. Per-lane arithmetic is the serial loop's —
            // bit-identical for any pool size.
            let lane_flops = (self.heads * 2 * 2 * ns * ns * self.head_dim).max(1);
            let grain_lanes = ((1usize << 21) / lane_flops).max(1);
            let lanes_per_chunk = ln_par::chunk_len(ns, grain_lanes);
            ln_par::par_chunks_mut(
                q.as_mut_slice(),
                lanes_per_chunk * ns * attn_dim,
                |c, chunk| {
                    // One lane's keys and values and one set of per-head
                    // buffers per lane chunk, reused across its lanes.
                    let mut bufs = HeadBuffers::new(ns, self.head_dim, block_rows);
                    let mut kv = lane_kv(ns, attn_dim);
                    for (local, lane_q) in chunk.chunks_mut(ns * attn_dim).enumerate() {
                        let lane = c * lanes_per_chunk + local;
                        self.project_kv(&post_ln, lane * ns, &mut kv)
                            .expect("projection shapes are internally consistent");
                        for h in 0..heads {
                            bufs.attend(&kv, 0, h, bias_mats.row(h), lane_q, |_| {})
                                .expect("head shapes are internally consistent");
                        }
                    }
                },
            );
        }
        let mut ctx = q;
        hook.on_activation(tap(TriAttnContext), &mut ctx);

        // The output gate and projection, a block of tokens at a time:
        // each block's post-LN rows, read by the gate for the last time,
        // take the block's update.
        let block = block_len(hook, &[TriAttnGate], ROW_BLOCK, tokens_n);
        for first in (0..tokens_n).step_by(block) {
            let rows = block.min(tokens_n - first);
            let mut gate = workspace::take(rows, attn_dim);
            post_ln.project_into(&self.to_gate, Activation::Sigmoid, first, &mut gate)?;
            hook.on_activation(tap(TriAttnGate), &mut gate);
            let ctx_rows = &ctx.as_slice()[first * attn_dim..];
            for (g, &c) in gate.as_mut_slice().iter_mut().zip(ctx_rows) {
                *g *= c;
            }
            let update = post_ln.spent_rows(first, rows);
            self.proj_out
                .forward_rows_into(&gate, 0, Activation::None, update)?;
            workspace::give(gate);
        }
        workspace::give(ctx);
        Ok(post_ln.into_buffer())
    }

    /// The keys and values of tokens `first ..` — `kv[0].rows()` of them.
    fn project_kv(
        &self,
        post_ln: &PostLn,
        first: usize,
        kv: &mut [Tensor2; 2],
    ) -> Result<(), PpmError> {
        post_ln.project_into(&self.to_k, Activation::None, first, &mut kv[0])?;
        post_ln.project_into(&self.to_v, Activation::None, first, &mut kv[1])
    }
}

/// Scratch for one lane's keys and values, `ns` tokens of `attn_dim`.
fn lane_kv(ns: usize, attn_dim: usize) -> [Tensor2; 2] {
    [(); 2].map(|_| Tensor2::zeros(ns, attn_dim))
}

/// What one (lane, head) works in, allocated once per lane chunk instead
/// of fresh tensors per pair: the head's keys and values, and a
/// [`RowBlock`] for the full blocks of query rows plus, when the block
/// length does not divide `ns`, one for the tail.
struct HeadBuffers {
    k: Tensor2,
    v: Tensor2,
    blocks: Vec<RowBlock>,
}

/// One block of a head's query rows: the queries, their probability rows
/// over all `ns` keys, and their context rows.
struct RowBlock {
    q: Tensor2,
    probs: Tensor2,
    ctx: Tensor2,
}

impl RowBlock {
    fn new(rows: usize, ns: usize, dim: usize) -> Self {
        RowBlock {
            q: Tensor2::zeros(rows, dim),
            probs: Tensor2::zeros(rows, ns),
            ctx: Tensor2::zeros(rows, dim),
        }
    }
}

/// Copies head `h` columns out of the first `band.rows()` rows of a
/// row-major `(tokens, heads·dim)` operand whose rows are `width` long —
/// contiguous `dim`-wide row slices, no per-element indexing.
fn load_head(rows: &[f32], width: usize, h: usize, band: &mut Tensor2) {
    let dim = band.cols();
    let dst = band.as_mut_slice().chunks_exact_mut(dim);
    for (dst, row) in dst.zip(rows.chunks(width)) {
        dst.copy_from_slice(&row[h * dim..][..dim]);
    }
}

impl HeadBuffers {
    /// Buffers for lanes of `ns` tokens taken `block_rows` query rows at a
    /// time (clamped to `1..=ns`).
    fn new(ns: usize, dim: usize, block_rows: usize) -> Self {
        let rows = block_rows.clamp(1, ns.max(1));
        let mut blocks = vec![RowBlock::new(rows, ns, dim)];
        let tail = ns % rows;
        if tail != 0 {
            blocks.push(RowBlock::new(tail, ns, dim));
        }
        HeadBuffers {
            k: Tensor2::zeros(ns, dim),
            v: Tensor2::zeros(ns, dim),
            blocks,
        }
    }

    /// Head `h` of the lane whose `ns` tokens start at row `lane_row0` of
    /// the `(tokens, heads·dim)` keys and values, and whose queries are
    /// `lane_q`'s `ns` interleaved rows: per block of query rows, the
    /// probabilities `softmax(q kᵀ/√d + bias)` of those rows over every
    /// key, which `observe` sees (and may rewrite), then their context
    /// `probs · v` over the queries it was computed from — the same rows,
    /// columns `h·dim ..`.
    ///
    /// A row's softmax spans the whole row and each GEMM output element is
    /// a k-ascending fold whatever rows share its call, so the context
    /// bits do not depend on the block length.
    fn attend(
        &mut self,
        [km, vm]: &[Tensor2; 2],
        lane_row0: usize,
        h: usize,
        bias_mat: &[f32],
        lane_q: &mut [f32],
        mut observe: impl FnMut(&mut Tensor2),
    ) -> Result<(), TensorError> {
        let (ns, dim) = self.k.shape();
        let width = km.cols();
        let inv_sqrt = 1.0 / (dim as f32).sqrt();
        load_head(&km.as_slice()[lane_row0 * width..], width, h, &mut self.k);
        load_head(&vm.as_slice()[lane_row0 * width..], width, h, &mut self.v);
        let block_rows = self.blocks[0].q.rows();
        for row0 in (0..ns).step_by(block_rows) {
            let is_tail = ns - row0 < block_rows;
            let RowBlock { q, probs, ctx } = &mut self.blocks[usize::from(is_tail)];
            let rows = &mut lane_q[row0 * width..][..q.rows() * width];
            load_head(rows, width, h, q);
            q.matmul_transposed_into(&self.k, probs)?;
            // The 1/√d scale and the head's triangle-bias rows in one
            // pass, two separately rounded operations per element.
            for (s, b) in probs.as_mut_slice().iter_mut().zip(&bias_mat[row0 * ns..]) {
                *s = *s * inv_sqrt + b;
            }
            for row in probs.as_mut_slice().chunks_exact_mut(ns) {
                nn::softmax_inplace(row);
            }
            observe(probs);
            probs.matmul_into(&self.v, ctx)?;
            let ctx_rows = ctx.as_slice().chunks_exact(dim);
            for (row, ctx_row) in rows.chunks_exact_mut(width).zip(ctx_rows) {
                row[h * dim..][..dim].copy_from_slice(ctx_row);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::tests::FakeQuant;
    use crate::taps::{NoopHook, RecordingHook};

    fn pair(ns: usize, hz: usize) -> Tensor3 {
        Tensor3::from_fn(ns, ns, hz, |i, j, k| {
            ((i * 17 + j * 5 + k) % 11) as f32 * 0.4 - 2.0
        })
    }

    #[test]
    fn forward_preserves_shape() {
        let cfg = PpmConfig::tiny();
        let unit = TriangularAttention::new(&cfg, "a", AttentionNode::Starting);
        let mut z = pair(8, cfg.hz);
        let before = z.clone();
        unit.forward(&mut z, &mut NoopHook, 0, 0).unwrap();
        assert_eq!(z.shape(), before.shape());
        assert_ne!(z, before);
    }

    #[test]
    fn starting_and_ending_differ() {
        let cfg = PpmConfig::tiny();
        let s = TriangularAttention::new(&cfg, "a", AttentionNode::Starting);
        let e = TriangularAttention::new(&cfg, "a", AttentionNode::Ending);
        let mut z1 = pair(8, cfg.hz);
        let mut z2 = pair(8, cfg.hz);
        s.forward(&mut z1, &mut NoopHook, 0, 0).unwrap();
        e.forward(&mut z2, &mut NoopHook, 0, 0).unwrap();
        assert_ne!(z1, z2);
    }

    #[test]
    fn score_taps_fire_per_lane_per_head() {
        let cfg = PpmConfig::tiny();
        let unit = TriangularAttention::new(&cfg, "a", AttentionNode::Starting);
        let ns = 6;
        let mut z = pair(ns, cfg.hz);
        let mut hook = RecordingHook::new();
        unit.forward(&mut z, &mut hook, 0, 0).unwrap();
        let scores: Vec<_> = hook
            .records()
            .iter()
            .filter(|r| r.tap.site == ActivationSite::TriAttnScores)
            .collect();
        assert_eq!(scores.len(), ns * cfg.pair_heads);
        // Probability rows: every recorded score matrix is (ns, ns).
        for r in &scores {
            assert_eq!((r.tokens, r.channels), (ns, ns));
            assert!(r.max_abs <= 1.0 + 1e-5);
        }
    }

    #[test]
    fn fast_path_matches_observed_path_bitwise() {
        // NoopHook (lane-parallel, no score taps) must agree bit for bit
        // with a hook that observes everything but rewrites nothing —
        // whole lanes or blocks of 4 query rows (two and a 1-row tail).
        struct ObserveAll;
        impl ActivationHook for ObserveAll {
            fn on_activation(&mut self, _tap: Tap, _activation: &mut Tensor2) {}
        }
        let hz = PpmConfig::tiny().hz;
        for node in [AttentionNode::Starting, AttentionNode::Ending] {
            let unit = |attention_chunk| {
                let cfg = PpmConfig {
                    attention_chunk,
                    ..PpmConfig::tiny()
                };
                TriangularAttention::new(&cfg, "a", node)
            };
            let mut reference = pair(9, hz);
            unit(None)
                .forward(&mut reference, &mut NoopHook, 0, 0)
                .unwrap();
            for chunk in [None, Some(4)] {
                let mut fast = pair(9, hz);
                let mut observed = fast.clone();
                unit(chunk).forward(&mut fast, &mut NoopHook, 0, 0).unwrap();
                unit(chunk)
                    .forward(&mut observed, &mut ObserveAll, 0, 0)
                    .unwrap();
                assert_eq!(fast, reference, "{node:?} {chunk:?}");
                assert_eq!(observed, reference, "{node:?} {chunk:?}");
            }
        }
    }

    #[test]
    fn row_attention_is_row_local_information_flow() {
        // Perturbing a token in row 0 must not change rows ≥ 1 except via
        // the bias (which is token-local): check row 3 context unchanged
        // when only row 0 tokens are perturbed and bias of row 3 unchanged.
        let cfg = PpmConfig::tiny();
        let unit = TriangularAttention::new(&cfg, "a", AttentionNode::Starting);
        let ns = 6;
        let mut z1 = pair(ns, cfg.hz);
        let mut z2 = pair(ns, cfg.hz);
        for v in z2.token_mut(0, 2) {
            *v += 5.0;
        }
        unit.forward(&mut z1, &mut NoopHook, 0, 0).unwrap();
        unit.forward(&mut z2, &mut NoopHook, 0, 0).unwrap();
        // Token (3, 4) is in row 3: its update uses q/k/v of row 3 and bias
        // from tokens (j, t) of row 3's score grid — but biases come from
        // tokens (4, t), untouched. So it must be unchanged.
        let a = z1.token(3, 4);
        let b = z2.token(3, 4);
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn chunked_score_taps_fire_per_lane_per_head_per_block() {
        // ns = 9 in blocks of 4 query rows: two full blocks and a 1-row
        // tail per (lane, head), each a tap of whole probability rows; a
        // block length above ns clamps to one block.
        let ns = 9;
        for (chunk, block_rows) in [(4, vec![4, 4, 1]), (ns + 5, vec![ns])] {
            let mut cfg = PpmConfig::tiny();
            cfg.attention_chunk = Some(chunk);
            let unit = TriangularAttention::new(&cfg, "lm2", AttentionNode::Ending);
            let mut z = pair(ns, cfg.hz);
            let mut hook = RecordingHook::new();
            unit.forward(&mut z, &mut hook, 0, 0).unwrap();
            let scores: Vec<_> = hook
                .records()
                .iter()
                .filter(|r| r.tap.site == ActivationSite::TriAttnScores)
                .collect();
            assert_eq!(scores.len(), ns * cfg.pair_heads * block_rows.len());
            for (r, rows) in scores.iter().zip(block_rows.iter().cycle()) {
                assert_eq!((r.tokens, r.channels), (*rows, ns), "chunk {chunk}");
                assert!(r.max_abs <= 1.0 + 1e-5);
            }
        }
    }

    #[test]
    fn ending_is_starting_on_the_transposed_stream() {
        // Ending(P) = T(Starting(T(P))) to the bit, for units of one label
        // (so one set of weights), with and without row blocks, under
        // hooks that rewrite token-wise and in the quantized domain.
        let transposed = |z: &Tensor3| {
            let (ns, _, c) = z.shape();
            Tensor3::from_fn(ns, ns, c, |i, j, k| z.at(j, i, k))
        };
        let hooks = || -> [(&str, Box<dyn ActivationHook>); 3] {
            [
                ("noop", Box::new(NoopHook)),
                ("fake-quant", Box::new(FakeQuant { domain: false })),
                ("quantized-domain", Box::new(FakeQuant { domain: true })),
            ]
        };
        for ns in [7, 24] {
            for attention_chunk in [None, Some(5)] {
                let cfg = PpmConfig {
                    attention_chunk,
                    ..PpmConfig::tiny()
                };
                let start = TriangularAttention::new(&cfg, "lm-t", AttentionNode::Starting);
                let end = TriangularAttention::new(&cfg, "lm-t", AttentionNode::Ending);
                for ((name, mut end_hook), (_, mut start_hook)) in hooks().into_iter().zip(hooks())
                {
                    let mut ending = pair(ns, cfg.hz);
                    end.forward(&mut ending, end_hook.as_mut(), 0, 0).unwrap();
                    let mut starting = transposed(&pair(ns, cfg.hz));
                    start
                        .forward(&mut starting, start_hook.as_mut(), 0, 0)
                        .unwrap();
                    let starting = transposed(&starting);
                    let bits =
                        |z: &Tensor3| z.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert!(
                        bits(&ending) == bits(&starting),
                        "{name}, ns {ns}, chunk {attention_chunk:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_gain_bounds_change() {
        let cfg = PpmConfig::tiny();
        let unit = TriangularAttention::new(&cfg, "a", AttentionNode::Ending);
        let mut z = pair(8, cfg.hz);
        let before = z.clone();
        unit.forward(&mut z, &mut NoopHook, 0, 0).unwrap();
        let delta = z.rmse(&before).unwrap();
        assert!(delta > 0.0 && delta < 2.0, "delta {delta}");
    }
}
