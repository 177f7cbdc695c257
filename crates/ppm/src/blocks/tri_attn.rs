//! Triangular Attention (Fig. 6(b)): multi-head attention over rows
//! (starting node) or columns (ending node) of the pair representation,
//! with a triangle bias from the third edge.
//!
//! This is the paper's dominant cost: the per-head score tensor is
//! `(Ns, Ns, Ns)`, which is what makes activation size — not weight size —
//! the PPM bottleneck (§3.2).

use super::{residual_stage, transposed_pair_tokens, workspace, Activation, PostLn, Projection};
use crate::taps::{ActivationHook, ActivationSite, Tap};
use crate::{PpmConfig, PpmError};
use ln_tensor::microkernel::{self, Epilogue};
use ln_tensor::nn::{LayerNorm, Linear};
use ln_tensor::{nn, simd, vmath, Tensor2, Tensor3};

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
        )
    }

    /// The stage between its LayerNorm and its residual add: the output
    /// projection of the gated attention context, in `post_ln`'s buffer.
    fn update(
        &self,
        hook: &mut dyn ActivationHook,
        post_ln: PostLn,
        ns: usize,
        tap: impl Fn(ActivationSite) -> Tap,
    ) -> Result<Tensor2, PpmError> {
        let tokens_n = ns * ns;
        // All five post-LN projections read `post_ln` — as integer GEMMs
        // when the hook opts in.
        let project = |layer| post_ln.project(layer, Activation::None);
        // Orient an operand so every lane (attention row for Starting,
        // column for Ending) is a contiguous `ns`-row band: the Ending
        // node transposes with exact copies — as soon as the hook has
        // seen the operand, its source going straight back — instead of
        // gathering strided columns per lane.
        let orient = |m: Tensor2| match self.node {
            AttentionNode::Starting => m,
            AttentionNode::Ending => transposed_pair_tokens(m, ns),
        };

        let mut q = project(&self.to_q)?;
        hook.on_activation(tap(ActivationSite::TriAttnQuery), &mut q);
        let qm = orient(q);
        let mut k = project(&self.to_k)?;
        hook.on_activation(tap(ActivationSite::TriAttnKey), &mut k);
        let km = orient(k);
        let mut v = project(&self.to_v)?;
        hook.on_activation(tap(ActivationSite::TriAttnValue), &mut v);
        let vm = orient(v);
        // The bias and its per-head matrices are 1/32 of a pair tensor:
        // not worth a pair-sized workspace buffer each.
        let mut bias = Tensor2::zeros(tokens_n, self.heads);
        post_ln.project_into(&self.to_bias, Activation::None, &mut bias)?;
        hook.on_activation(tap(ActivationSite::TriAttnBias), &mut bias);

        let attn_dim = self.heads * self.head_dim;
        let inv_sqrt = 1.0 / (self.head_dim as f32).sqrt();

        // Per-head (ns, ns) bias matrices oriented for the score grid, one
        // a row — shared by every lane, so the third-edge bias costs one
        // strided gather per head instead of Ns³ virtual lookups.
        let heads = self.heads;
        let mut bias_mats = Tensor2::zeros(heads, tokens_n);
        for (h, bm) in bias_mats
            .as_mut_slice()
            .chunks_exact_mut(tokens_n.max(1))
            .enumerate()
        {
            let src = bias.as_slice();
            match self.node {
                AttentionNode::Starting => {
                    for (idx, slot) in bm.iter_mut().enumerate() {
                        *slot = src[idx * heads + h];
                    }
                }
                AttentionNode::Ending => {
                    for j in 0..ns {
                        for t in 0..ns {
                            bm[j * ns + t] = src[(t * ns + j) * heads + h];
                        }
                    }
                }
            }
        }

        // Context accumulates lane-major: token (lane, j) of the oriented
        // problem lives at row `lane·ns + j`. For Starting that IS the
        // ctx token layout; Ending transposes back at the end. Every slot
        // is written by a `scatter_head`.
        let mut ctx_lanes = workspace::take(tokens_n, attn_dim);
        if self.chunk.is_some() || !hook.observes(ActivationSite::TriAttnScores) {
            // Lane-parallel fast path: no score tap can fire (chunked
            // attention never materialises scores; a non-observing hook
            // ignores them), so lanes are independent and dispatch across
            // the pool. Per-lane arithmetic is unchanged from the serial
            // loop — bit-identical for any pool size.
            let lane_flops = (self.heads * 2 * 2 * ns * ns * self.head_dim).max(1);
            let grain_lanes = ((1usize << 21) / lane_flops).max(1);
            let lanes_per_chunk = ln_par::chunk_len(ns, grain_lanes);
            ln_par::par_chunks_mut(
                ctx_lanes.as_mut_slice(),
                lanes_per_chunk * ns * attn_dim,
                |c, chunk| {
                    // One set of per-head buffers per lane chunk, reused
                    // across its (lane, head) pairs.
                    let mut bufs = HeadBuffers::new(ns, self.head_dim);
                    let mut scores = match self.chunk {
                        Some(chunk) => ScoreBuffer::Online(OnlineSoftmax::new(ns, chunk)),
                        None => ScoreBuffer::Full(Tensor2::zeros(ns, ns)),
                    };
                    for (local, lane_buf) in chunk.chunks_mut(ns * attn_dim).enumerate() {
                        let lane = c * lanes_per_chunk + local;
                        for h in 0..heads {
                            bufs.load([&qm, &km, &vm], lane * ns, h);
                            let bm = bias_mats.row(h);
                            match &mut scores {
                                ScoreBuffer::Online(state) => chunked_attention_into(
                                    [&bufs.q, &bufs.k, &bufs.v],
                                    bm,
                                    inv_sqrt,
                                    state,
                                    bufs.ctx.as_mut_slice(),
                                ),
                                ScoreBuffer::Full(probs) => {
                                    materialised_head(&mut bufs, bm, inv_sqrt, probs, |_| {})
                                        .expect("head shapes are internally consistent")
                                }
                            }
                            scatter_head(&bufs.ctx, lane_buf, h, self.head_dim, attn_dim);
                        }
                    }
                },
            );
        } else {
            // Observing path: the hook sees (and may rewrite) each
            // (lane, head) probability matrix — the paper quantizes the
            // scores (Group C), one tap activation each — so taps fire
            // serially in ascending (lane, head) order, on one set of
            // head buffers.
            let mut bufs = HeadBuffers::new(ns, self.head_dim);
            let mut probs = Tensor2::zeros(ns, ns);
            for (lane, lane_buf) in ctx_lanes
                .as_mut_slice()
                .chunks_mut((ns * attn_dim).max(1))
                .enumerate()
            {
                for h in 0..heads {
                    bufs.load([&qm, &km, &vm], lane * ns, h);
                    materialised_head(&mut bufs, bias_mats.row(h), inv_sqrt, &mut probs, |p| {
                        hook.on_activation(tap(ActivationSite::TriAttnScores), p)
                    })?;
                    scatter_head(&bufs.ctx, lane_buf, h, self.head_dim, attn_dim);
                }
            }
        }
        for operand in [qm, km, vm] {
            workspace::give(operand);
        }
        let mut ctx_tokens = orient(ctx_lanes);
        hook.on_activation(tap(ActivationSite::TriAttnContext), &mut ctx_tokens);

        let mut gate = post_ln.project(&self.to_gate, Activation::Sigmoid)?;
        // That was the post-LN activation's last reader: its buffer takes
        // the output projection of the gated context.
        let mut update = post_ln.into_buffer();
        hook.on_activation(tap(ActivationSite::TriAttnGate), &mut gate);
        gate.hadamard_assign(&ctx_tokens)?;
        workspace::give(ctx_tokens);
        self.proj_out.forward_into(&gate, &mut update)?;
        workspace::give(gate);
        Ok(update)
    }
}

/// The per-(lane, head) operand bands and context, allocated once per
/// lane chunk instead of fresh tensors per pair.
struct HeadBuffers {
    q: Tensor2,
    k: Tensor2,
    v: Tensor2,
    ctx: Tensor2,
}

/// Where a fast path keeps its scores.
enum ScoreBuffer {
    /// The materialised `(ns, ns)` score/probability matrix.
    Full(Tensor2),
    /// `attention_chunk` is set: one `ns × chunk` tile, never the matrix.
    Online(OnlineSoftmax),
}

impl HeadBuffers {
    fn new(ns: usize, dim: usize) -> Self {
        HeadBuffers {
            q: Tensor2::zeros(ns, dim),
            k: Tensor2::zeros(ns, dim),
            v: Tensor2::zeros(ns, dim),
            ctx: Tensor2::zeros(ns, dim),
        }
    }

    /// Copies head `h` columns out of the `ns` consecutive rows starting
    /// at `row0` of the three `(tokens, heads·dim)` operands — contiguous
    /// `dim`-wide row slices, no per-element indexing.
    fn load(&mut self, qkv: [&Tensor2; 3], row0: usize, h: usize) {
        for (m, band) in qkv.into_iter().zip([&mut self.q, &mut self.k, &mut self.v]) {
            let dim = band.cols();
            for (j, dst) in band.as_mut_slice().chunks_exact_mut(dim).enumerate() {
                dst.copy_from_slice(&m.row(row0 + j)[h * dim..(h + 1) * dim]);
            }
        }
    }
}

/// One (lane, head) with its scores materialised: the probability matrix
/// `softmax(q kᵀ/√d + bias)` into the reused `(ns, ns)` buffer `probs`,
/// which `observe` sees (and may rewrite), then the context `probs · v`
/// into `bufs.ctx`.
fn materialised_head(
    bufs: &mut HeadBuffers,
    bias_mat: &[f32],
    inv_sqrt: f32,
    probs: &mut Tensor2,
    observe: impl FnOnce(&mut Tensor2),
) -> Result<(), ln_tensor::TensorError> {
    bufs.q.matmul_transposed_into(&bufs.k, probs)?;
    scale_and_bias(probs, inv_sqrt, bias_mat);
    let ns = probs.cols();
    for row in probs.as_mut_slice().chunks_exact_mut(ns.max(1)) {
        nn::softmax_inplace(row);
    }
    observe(probs);
    probs.matmul_into(&bufs.v, &mut bufs.ctx)
}

/// `scores[j][t] = scores[j][t]·inv_sqrt + bias_mat[j][t]`: the 1/√d scale
/// and the per-head triangle-bias matrix (same row-major shape) in one
/// pass, two separately rounded operations per element.
fn scale_and_bias(scores: &mut Tensor2, inv_sqrt: f32, bias_mat: &[f32]) {
    for (s, b) in scores.as_mut_slice().iter_mut().zip(bias_mat) {
        *s = *s * inv_sqrt + b;
    }
}

/// Writes one head's `(ns, dim)` context into the lane's interleaved
/// `(ns, attn_dim)` buffer at column offset `h·dim`.
fn scatter_head(ctx_h: &Tensor2, lane_buf: &mut [f32], h: usize, dim: usize, attn_dim: usize) {
    for (j, row) in lane_buf.chunks_mut(attn_dim).enumerate() {
        row[h * dim..(h + 1) * dim].copy_from_slice(ctx_h.row(j));
    }
}

/// The state of the chunked path over `n` queries: the key-chunk length,
/// one `n × chunk` score tile, and each query row's running maximum and
/// normaliser.
struct OnlineSoftmax {
    chunk: usize,
    tile: Vec<f32>,
    row_max: Vec<f32>,
    row_sum: Vec<f32>,
}

impl OnlineSoftmax {
    fn new(n: usize, chunk: usize) -> Self {
        let chunk = chunk.clamp(1, n.max(1));
        OnlineSoftmax {
            chunk,
            tile: vec![0.0; n * chunk],
            row_max: vec![0.0; n],
            row_sum: vec![0.0; n],
        }
    }
}

/// Chunked attention with online softmax — the numeric core of the GPU
/// `chunk` option (low-memory attention) and of the accelerator's
/// token-wise MHA (§5.4): the `(Ns, Ns)` score matrix is never
/// materialised; keys/values stream in chunks of `chunk` while a running
/// maximum and normaliser are maintained per query.
///
/// `bias` is the `(n, n)` row-major matrix added to the scaled scores.
/// Returns exactly what `softmax(q kᵀ / √d + bias) v` would, up to
/// floating-point reassociation, degenerate rows included
/// ([`ln_tensor::vmath`]'s table): a key chunk whose scores are all `-inf`
/// for some query (a fully masked stretch) contributes nothing to it, a
/// query with no score above `-inf` gets a context of zeros, and a NaN or
/// `+inf` score turns its query's context into NaN.
///
/// # Panics
///
/// Panics on shape mismatches between `q`, `k`, `v` and `bias` (callers in
/// this crate construct them consistently).
pub fn chunked_attention(
    q: &Tensor2,
    k: &Tensor2,
    v: &Tensor2,
    bias: &[f32],
    inv_sqrt: f32,
    chunk: usize,
) -> Tensor2 {
    let n = q.rows();
    let mut out = Tensor2::zeros(n, v.cols());
    chunked_attention_into(
        [q, k, v],
        bias,
        inv_sqrt,
        &mut OnlineSoftmax::new(n, chunk),
        out.as_mut_slice(),
    );
    out
}

/// [`chunked_attention`] into `out` (`n × dv`, overwritten) with
/// caller-owned, reusable state. A flash-style tiled loop on the GEMM microkernel —
/// per key chunk:
///
/// 1. `S = Q·K_cᵀ` into the `n × chunk` tile ([`microkernel::gemm_bt`]);
/// 2. per query row, under one [`simd::wide`] frame a tile: `S ← S/√d +
///    bias` and its [`vmath::max`]; if that raises the running maximum,
///    the normaliser and the row of `out` are rescaled by
///    `exp(old − new)`; then `S ← exp(S − max)` and the normaliser takes
///    its [`vmath::sum`] — `vmath`'s polynomial `exp` and fixed-lane
///    reductions, four sweeps of a row that is in L1;
/// 3. `out += S·V_c` ([`microkernel::gemm`] accumulates onto `out`).
///
/// Every query row only ever reads its own row of the tile, the state
/// and `out`; each element of `out` is a k-ascending fold and each
/// reduction of step 2 has `vmath`'s fixed order, so rows are independent
/// and any split of the surrounding lanes across an ln-par pool is
/// bitwise pool-invariant.
fn chunked_attention_into(
    [q, k, v]: [&Tensor2; 3],
    bias: &[f32],
    inv_sqrt: f32,
    state: &mut OnlineSoftmax,
    out: &mut [f32],
) {
    let (n, dim) = q.shape();
    let dv = v.cols();
    assert_eq!(k.shape(), (n, dim), "keys must match the queries' shape");
    assert_eq!(v.rows(), n, "value count must match key count");
    assert_eq!(bias.len(), n * n, "bias must be an (n, n) matrix");
    assert_eq!(out.len(), n * dv, "out must be (n, dv)");
    out.fill(0.0);
    if n == 0 || dv == 0 {
        return;
    }
    let OnlineSoftmax {
        chunk,
        tile,
        row_max,
        row_sum,
    } = state;
    let chunk = *chunk;
    assert_eq!(row_max.len(), n, "state was sized for another query count");
    row_max.fill(f32::NEG_INFINITY);
    row_sum.fill(0.0);

    for start in (0..n).step_by(chunk) {
        let len = chunk.min(n - start);
        let tile = &mut tile[..n * len];
        tile.fill(0.0);
        let k_chunk = &k.as_slice()[start * dim..][..len * dim];
        microkernel::gemm_bt(q.as_slice(), k_chunk, dim, len, 0, tile, &Epilogue::None);

        simd::wide(
            #[inline(always)]
            || {
                for (j, (scores, out_row)) in tile
                    .chunks_exact_mut(len)
                    .zip(out.chunks_exact_mut(dv))
                    .enumerate()
                {
                    for (s, b) in scores.iter_mut().zip(&bias[j * n + start..][..len]) {
                        *s = *s * inv_sqrt + b;
                    }
                    let new_max = vmath::max(scores).max(row_max[j]);
                    // Online-softmax rescale of the accumulated state;
                    // from nothing (`row_max` still −∞) the factor is
                    // `exp(−∞)`, exactly zero.
                    if row_max[j] != new_max {
                        let correction = vmath::exp(row_max[j] - new_max);
                        row_sum[j] *= correction;
                        for value in out_row.iter_mut() {
                            *value *= correction;
                        }
                        row_max[j] = new_max;
                    }
                    row_sum[j] += vmath::exp_sub_sum(scores, new_max);
                }
            },
        );

        let v_chunk = &v.as_slice()[start * dv..][..len * dv];
        microkernel::gemm(tile, v_chunk, len, dv, 0, out, &Epilogue::None);
    }

    for (out_row, &sum) in out.chunks_exact_mut(dv).zip(row_sum.iter()) {
        let z = sum.max(1e-30);
        for o in out_row.iter_mut() {
            *o /= z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // with a hook that observes everything but rewrites nothing.
        struct ObserveAll;
        impl ActivationHook for ObserveAll {
            fn on_activation(&mut self, _tap: Tap, _activation: &mut Tensor2) {}
        }
        let cfg = PpmConfig::tiny();
        for node in [AttentionNode::Starting, AttentionNode::Ending] {
            let unit = TriangularAttention::new(&cfg, "a", node);
            let mut fast = pair(9, cfg.hz);
            let mut observed = fast.clone();
            unit.forward(&mut fast, &mut NoopHook, 0, 0).unwrap();
            unit.forward(&mut observed, &mut ObserveAll, 0, 0).unwrap();
            assert_eq!(fast, observed, "{node:?}");
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
    fn low_memory_mode_matches_vanilla_forward() {
        // The full unit with attention_chunk set must reproduce the
        // vanilla forward pass (up to online-softmax reassociation).
        let mut cfg = PpmConfig::tiny();
        let vanilla_unit = TriangularAttention::new(&cfg, "lm", AttentionNode::Starting);
        cfg.attention_chunk = Some(3);
        let chunked_unit = TriangularAttention::new(&cfg, "lm", AttentionNode::Starting);
        let mut z1 = pair(9, cfg.hz);
        let mut z2 = pair(9, cfg.hz);
        vanilla_unit.forward(&mut z1, &mut NoopHook, 0, 0).unwrap();
        chunked_unit.forward(&mut z2, &mut NoopHook, 0, 0).unwrap();
        let rmse = z1.rmse(&z2).unwrap();
        assert!(rmse < 1e-5, "rmse {rmse}");
    }

    #[test]
    fn low_memory_mode_never_fires_score_taps() {
        let mut cfg = PpmConfig::tiny();
        cfg.attention_chunk = Some(4);
        let unit = TriangularAttention::new(&cfg, "lm2", AttentionNode::Ending);
        let mut z = pair(8, cfg.hz);
        let mut hook = RecordingHook::new();
        unit.forward(&mut z, &mut hook, 0, 0).unwrap();
        assert!(
            hook.records()
                .iter()
                .all(|r| r.tap.site != ActivationSite::TriAttnScores),
            "score tensors must not exist in low-memory mode"
        );
    }

    /// `softmax(q kᵀ·inv_sqrt + bias) v` with the scores materialised.
    fn full_attention(
        q: &Tensor2,
        k: &Tensor2,
        v: &Tensor2,
        bias: &[f32],
        inv_sqrt: f32,
    ) -> Tensor2 {
        let mut scores = q.matmul_transposed(k).unwrap();
        scale_and_bias(&mut scores, inv_sqrt, bias);
        nn::softmax_rows(&scores).matmul(v).unwrap()
    }

    fn qkv(n: usize, dim: usize) -> [Tensor2; 3] {
        [
            Tensor2::from_fn(n, dim, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.3 - 1.5),
            Tensor2::from_fn(n, dim, |i, j| ((i * 5 + j) % 13) as f32 * 0.25 - 1.4),
            Tensor2::from_fn(n, dim, |i, j| ((i + j * 9) % 17) as f32 * 0.2 - 1.0),
        ]
    }

    fn assert_close(got: &Tensor2, want: &Tensor2, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-5, "{what}: {a} vs {b}");
        }
    }

    #[test]
    fn chunked_attention_matches_full_softmax() {
        let dim = 8;
        let inv_sqrt = 1.0 / (dim as f32).sqrt();
        for n in [1usize, 5, 96] {
            let [q, k, v] = qkv(n, dim);
            let bias: Vec<f32> = (0..n * n)
                .map(|i| ((i / n * 3 + i % n) % 7) as f32 * 0.1 - 0.3)
                .collect();
            let reference = full_attention(&q, &k, &v, &bias, inv_sqrt);
            // Off `vmath`'s sixteen lanes (7, 17, 65 — the last leaves a
            // second tile of 31) as well as on them.
            for chunk in [1, 7, 17, 64, 65, n, n + 5] {
                let out = chunked_attention(&q, &k, &v, &bias, inv_sqrt, chunk);
                assert_close(&out, &reference, &format!("n {n} chunk {chunk}"));
            }
        }
    }

    #[test]
    fn chunked_attention_is_stable_for_large_scores() {
        // Scores of ±1e4 overflow a naive exp(); the running maximum must
        // absorb them whichever chunk they arrive in.
        let n = 9;
        let [q, k, v] = qkv(n, 4);
        let bias: Vec<f32> = (0..n * n)
            .map(|i| [1e4, -1e4, 0.0][(i / n + 2 * (i % n)) % 3])
            .collect();
        let reference = full_attention(&q, &k, &v, &bias, 0.5);
        assert!(reference.as_slice().iter().all(|x| x.is_finite()));
        for chunk in [1, 2, 4, n] {
            let out = chunked_attention(&q, &k, &v, &bias, 0.5, chunk);
            assert_close(&out, &reference, &format!("chunk {chunk}"));
        }
    }

    #[test]
    fn fully_masked_chunks_contribute_nothing() {
        // -inf bias over whole key chunks — first, middle and last — of
        // different rows: the full softmax gives those keys zero weight,
        // and so must the chunked path (the first-chunk case used to turn
        // the row into NaN through `(-inf − -inf).exp()`).
        let (n, chunk) = (12, 4);
        let [q, k, v] = qkv(n, 8);
        let mut bias = vec![0.1f32; n * n];
        for (row, masked_chunk) in [(0, 0), (1, 1), (2, 2), (3, 0), (3, 1)] {
            bias[row * n + masked_chunk * chunk..][..chunk].fill(f32::NEG_INFINITY);
        }
        let reference = full_attention(&q, &k, &v, &bias, 0.35);
        assert!(reference.as_slice().iter().all(|x| x.is_finite()));
        let out = chunked_attention(&q, &k, &v, &bias, 0.35, chunk);
        assert_close(&out, &reference, "masked chunks");

        // A row with no finite score has no softmax: zeros, and the other
        // rows do not move.
        bias[5 * n..6 * n].fill(f32::NEG_INFINITY);
        let with_dead_row = chunked_attention(&q, &k, &v, &bias, 0.35, chunk);
        for row in 0..n {
            if row == 5 {
                assert!(with_dead_row.row(row).iter().all(|&x| x == 0.0));
            } else {
                assert_eq!(with_dead_row.row(row), out.row(row));
            }
        }
    }

    #[test]
    fn degenerate_rows_behave_alike_in_both_softmaxes() {
        // `vmath`'s table, through both attention paths: a query with no
        // score above −∞ gets zeros, a NaN or +∞ score — among ordinary
        // scores or among masked ones, in the first tile or a later one —
        // turns its query's context into NaN, and no other row notices.
        let (n, chunk) = (12, 5);
        let [q, k, v] = qkv(n, 8);
        let plain = vec![0.1f32; n * n];
        let clean = chunked_attention(&q, &k, &v, &plain, 0.35, chunk);
        for poison in [f32::NAN, f32::INFINITY] {
            let mut bias = plain.clone();
            bias[2 * n..3 * n].fill(f32::NEG_INFINITY);
            bias[4 * n + 1] = poison;
            bias[6 * n + 9] = poison;
            bias[8 * n..9 * n].fill(f32::NEG_INFINITY);
            bias[8 * n + 7] = poison;
            let full = full_attention(&q, &k, &v, &bias, 0.35);
            let chunked = chunked_attention(&q, &k, &v, &bias, 0.35, chunk);
            for (path, out) in [("full", &full), ("chunked", &chunked)] {
                for row in 0..n {
                    let what = format!("{path}, {poison} poison, row {row}");
                    match row {
                        2 => assert!(out.row(row).iter().all(|&x| x == 0.0), "{what}"),
                        4 | 6 | 8 => assert!(out.row(row).iter().all(|x| x.is_nan()), "{what}"),
                        _ => assert!(
                            out.row(row)
                                .iter()
                                .zip(clean.row(row))
                                .all(|(a, b)| (a - b).abs() < 1e-5),
                            "{what}"
                        ),
                    }
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
