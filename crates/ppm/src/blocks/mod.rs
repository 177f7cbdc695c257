//! The Protein Folding Block (Fig. 2(b)): the Pair-Representation dataflow
//! (Triangular Multiplication, Triangular Attention, Pair Transition) plus
//! the Sequence-Representation track (row attention with pair bias,
//! transition, outer-product-mean update).
//!
//! Every pair-dataflow activation edge is reported to the caller's
//! [`ActivationHook`] with its Fig. 6 site tag; the sequence track is not
//! quantized by the paper and carries no taps.

mod seq_track;
mod transition;
mod tri_attn;
mod tri_mul;
pub(crate) mod workspace;

pub use seq_track::SequenceTrack;
pub use transition::PairTransition;
pub use tri_attn::{AttentionNode, TriangularAttention};
pub use tri_mul::{TriangleDirection, TriangularMultiplication};
pub use workspace::release_fold_workspace;

use crate::taps::{ActivationHook, Tap};
use crate::{PpmConfig, PpmError};
use ln_quant::qgemm::{MacMode, QLinear};
use ln_quant::scheme::QuantScheme;
use ln_quant::tensor::QuantizedTensor;
use ln_tensor::nn::{Activation, LayerNorm, Linear};
use ln_tensor::{Tensor2, Tensor3};

/// A layer that reads a stage's post-LayerNorm activation: the
/// full-precision [`Linear`] and, built from it, the INT8-weight twin that
/// runs in its place when the hook asks for the quantized domain.
#[derive(Debug, Clone)]
struct Projection {
    fp: Linear,
    qd: QLinear,
}

impl Projection {
    fn new(fp: Linear) -> Self {
        Projection {
            qd: QLinear::from_linear(&fp),
            fp,
        }
    }

    fn out_features(&self) -> usize {
        self.fp.out_features()
    }

    fn num_params(&self) -> usize {
        self.fp.num_params()
    }
}

/// A stage's post-LayerNorm activation as its projections read it: in
/// full precision, or — when the hook asked for the quantized domain —
/// AAQ-encoded once and run through each layer's integer twin (numerics
/// change; the hook opted in).
struct PostLn {
    x: Tensor2,
    encoded: Option<(QuantizedTensor, MacMode)>,
}

impl PostLn {
    fn new(x: Tensor2, scheme: Option<QuantScheme>) -> Self {
        let encoded = scheme.map(|scheme| {
            (
                QuantizedTensor::from_tensor(&x, scheme),
                MacMode::for_scheme(scheme),
            )
        });
        PostLn { x, encoded }
    }

    /// Pair tokens in the activation.
    fn tokens(&self) -> usize {
        self.x.rows()
    }

    /// `act(layer(x))` in a tensor taken from the fold workspace.
    fn project(&self, layer: &Projection, act: Activation) -> Result<Tensor2, PpmError> {
        let mut out = workspace::take(self.tokens(), layer.out_features());
        self.project_into(layer, act, 0, &mut out)?;
        Ok(out)
    }

    /// Tokens `first ..` of `act(layer(x))` — `out.rows()` of them — into
    /// `out`, whatever it held; in the quantized domain `first` is a
    /// multiple of [`ln_quant::qgemm::MR`]. In full precision the
    /// activation is fused into the GEMM epilogue (bitwise identical to
    /// applying it afterwards).
    fn project_into(
        &self,
        layer: &Projection,
        act: Activation,
        first: usize,
        out: &mut Tensor2,
    ) -> Result<(), PpmError> {
        match &self.encoded {
            Some((qx, mode)) => {
                layer
                    .qd
                    .forward_rows_into(qx, *mode, first, out.as_mut_slice())?;
                act.apply(out);
            }
            None => layer
                .fp
                .forward_rows_into(&self.x, first, act, out.as_mut_slice())?,
        }
        Ok(())
    }

    /// Rows `first ..` of the activation's own buffer, `rows` of them, for
    /// a caller that has run every projection of those rows: it writes the
    /// stage's update there.
    fn spent_rows(&mut self, first: usize, rows: usize) -> &mut [f32] {
        let c = self.x.cols();
        &mut self.x.as_mut_slice()[first * c..][..rows * c]
    }

    /// The activation's own buffer, once its last projection has read it:
    /// the stage's output projection writes the update there. The encoded
    /// copy, if there is one, ends here.
    fn into_buffer(self) -> Tensor2 {
        self.x
    }
}

/// The frame all three pair stages run in. The residual stream moves
/// through it — taken out of `pair`, shown to the hook (Group A), updated
/// in place, moved back — and `body` runs on its LayerNorm (Group B, shown
/// to the hook, then read through a [`PostLn`] in the domain the hook
/// asks for). `body` returns the stage's update in a workspace tensor —
/// [`PostLn::into_buffer`]'s, so a stage holds no pair tensor of its own
/// for it — which is added in at `gain`.
///
/// On an error `pair` is left empty: its tokens were moved out, not copied.
fn residual_stage(
    pair: &mut Tensor3,
    hook: &mut dyn ActivationHook,
    [residual_in_tap, post_ln_tap]: [Tap; 2],
    norm: &LayerNorm,
    gain: f32,
    body: impl FnOnce(&mut dyn ActivationHook, PostLn) -> Result<Tensor2, PpmError>,
) -> Result<(), PpmError> {
    let (ns, _, hz) = pair.shape();
    let mut tokens = std::mem::take(pair).into_token_matrix();
    hook.on_activation(residual_in_tap, &mut tokens);

    let mut x = workspace::take(ns * ns, hz);
    norm.forward_into(&tokens, &mut x)?;
    hook.on_activation(post_ln_tap, &mut x);

    let post_ln = PostLn::new(x, hook.quantized_matmul(post_ln_tap));
    let update = body(hook, post_ln)?;
    // The hook may have rewritten `tokens`; the update goes onto what it left.
    tokens.add_scaled_assign(&update, gain)?;
    workspace::give(update);
    *pair = Tensor3::from_token_matrix(ns, ns, tokens)?;
    Ok(())
}

/// One folding block: sequence track + the four pair-dataflow units.
#[derive(Debug, Clone)]
pub struct FoldingBlock {
    seq_track: SequenceTrack,
    tri_mul_out: TriangularMultiplication,
    tri_mul_in: TriangularMultiplication,
    tri_attn_start: TriangularAttention,
    tri_attn_end: TriangularAttention,
    transition: PairTransition,
}

impl FoldingBlock {
    /// Builds block `index` with weights derived from `(label, index)`.
    pub fn new(config: &PpmConfig, label: &str, index: usize) -> Self {
        let tag = |unit: &str| format!("{label}/block{index}/{unit}");
        FoldingBlock {
            seq_track: SequenceTrack::new(config, &tag("seq")),
            tri_mul_out: TriangularMultiplication::new(
                config,
                &tag("tri_mul_out"),
                TriangleDirection::Outgoing,
            ),
            tri_mul_in: TriangularMultiplication::new(
                config,
                &tag("tri_mul_in"),
                TriangleDirection::Incoming,
            ),
            tri_attn_start: TriangularAttention::new(
                config,
                &tag("tri_attn_start"),
                AttentionNode::Starting,
            ),
            tri_attn_end: TriangularAttention::new(
                config,
                &tag("tri_attn_end"),
                AttentionNode::Ending,
            ),
            transition: PairTransition::new(config, &tag("transition")),
        }
    }

    /// Runs the block in place over `(seq_rep, pair_rep)`.
    ///
    /// `block` and `recycle` identify this invocation in the taps.
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError::Tensor`] on internal shape mismatches (which
    /// indicate a construction bug, not a user error).
    pub fn forward(
        &self,
        seq_rep: &mut Tensor2,
        pair_rep: &mut Tensor3,
        hook: &mut dyn ActivationHook,
        block: usize,
        recycle: usize,
    ) -> Result<(), PpmError> {
        let tokens = pair_rep.num_tokens() as u64;
        // Sequence track first (as in the Evoformer/folding trunk), feeding
        // the outer-product-mean update into the pair stream.
        ln_par::metrics::time_kernel("ppm.seq_track", tokens, || {
            self.seq_track.forward(seq_rep, pair_rep)
        })?;
        // Pair-representation dataflow (the paper's main bottleneck).
        ln_par::metrics::time_kernel("ppm.tri_mul", tokens, || {
            self.tri_mul_out.forward(pair_rep, hook, block, recycle)?;
            self.tri_mul_in.forward(pair_rep, hook, block, recycle)
        })?;
        ln_par::metrics::time_kernel("ppm.tri_attn", tokens, || {
            self.tri_attn_start
                .forward(pair_rep, hook, block, recycle)?;
            self.tri_attn_end.forward(pair_rep, hook, block, recycle)
        })?;
        ln_par::metrics::time_kernel("ppm.transition", tokens, || {
            self.transition.forward(pair_rep, hook, block, recycle)
        })?;
        Ok(())
    }

    /// Total number of weight parameters in this block.
    pub fn num_params(&self) -> usize {
        self.seq_track.num_params()
            + self.tri_mul_out.num_params()
            + self.tri_mul_in.num_params()
            + self.tri_attn_start.num_params()
            + self.tri_attn_end.num_params()
            + self.transition.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::Embedding;
    use crate::taps::{NoopHook, RecordingHook};
    use ln_protein::generator::StructureGenerator;
    use ln_protein::Sequence;

    fn setup(ns: usize) -> (PpmConfig, Tensor2, Tensor3) {
        let cfg = PpmConfig::tiny();
        let seq = Sequence::random("blk", ns);
        let native = StructureGenerator::new("blk").generate(ns);
        let e = Embedding::new(cfg.clone());
        let (s, z) = e.embed(&seq, &native).unwrap();
        (cfg, s, z)
    }

    #[test]
    fn block_preserves_shapes() {
        let (cfg, mut s, mut z) = setup(12);
        let block = FoldingBlock::new(&cfg, "w", 0);
        let (s0, z0) = (s.shape(), z.shape());
        block.forward(&mut s, &mut z, &mut NoopHook, 0, 0).unwrap();
        assert_eq!(s.shape(), s0);
        assert_eq!(z.shape(), z0);
    }

    #[test]
    fn block_changes_both_streams() {
        let (cfg, mut s, mut z) = setup(12);
        let s_before = s.clone();
        let z_before = z.clone();
        let block = FoldingBlock::new(&cfg, "w", 0);
        block.forward(&mut s, &mut z, &mut NoopHook, 0, 0).unwrap();
        assert_ne!(s, s_before);
        assert_ne!(z, z_before);
    }

    #[test]
    fn residual_stream_stays_dominant() {
        // update_gain keeps the distogram-carrying stream dominant: the
        // relative change per block must be well below 1.
        let (cfg, mut s, mut z) = setup(12);
        let z_before = z.clone();
        let block = FoldingBlock::new(&cfg, "w", 0);
        block.forward(&mut s, &mut z, &mut NoopHook, 0, 0).unwrap();
        let delta = z.rmse(&z_before).unwrap();
        let scale = z_before.max_abs();
        assert!(delta < 0.2 * scale, "delta {delta} vs scale {scale}");
        assert!(delta > 0.0);
    }

    #[test]
    fn all_sites_fire_once_per_block() {
        // ns = 48: 2 304 pair tokens, two full transition row blocks and a
        // partial one.
        let ns = 48;
        let (cfg, mut s, mut z) = setup(ns);
        let block = FoldingBlock::new(&cfg, "w", 3);
        let mut hook = RecordingHook::new();
        block.forward(&mut s, &mut z, &mut hook, 3, 1).unwrap();
        use crate::taps::{ActivationSite, ALL_SITES};
        use std::collections::HashMap;
        let mut counts: HashMap<ActivationSite, usize> = HashMap::new();
        for r in hook.records() {
            assert_eq!(r.tap.block, 3);
            assert_eq!(r.tap.recycle, 1);
            *counts.entry(r.tap.site).or_default() += 1;
        }
        for site in ALL_SITES {
            let expected = match site {
                // Two tri-mul units and two tri-attn units per block; the
                // scores site fires once per (row/column, head), the
                // transition's hidden activation once per row block.
                ActivationSite::TriAttnScores => ns * 2 * 2,
                ActivationSite::TransitionHidden => (ns * ns).div_ceil(transition::ROW_BLOCK),
                s if s.name().starts_with("tri_mul") => 2,
                s if s.name().starts_with("tri_attn") => 2,
                _ => 1,
            };
            assert_eq!(counts.get(&site), Some(&expected), "site {site}");
        }
        // The hidden blocks are whole row blocks but the last, and hold
        // every pair token once between them (which tokens each holds:
        // `transition::tests`).
        let hidden_rows: Vec<usize> = hook
            .records()
            .iter()
            .filter(|r| r.tap.site == ActivationSite::TransitionHidden)
            .map(|r| r.tokens)
            .collect();
        assert_eq!(hidden_rows.iter().sum::<usize>(), ns * ns);
        let (last, full) = hidden_rows.split_last().unwrap();
        assert!(full.iter().all(|&rows| rows == transition::ROW_BLOCK));
        assert_eq!(*last, ns * ns % transition::ROW_BLOCK);
    }

    #[test]
    fn blocks_are_deterministic() {
        let (cfg, mut s1, mut z1) = setup(10);
        let (_, mut s2, mut z2) = setup(10);
        let block = FoldingBlock::new(&cfg, "w", 0);
        block
            .forward(&mut s1, &mut z1, &mut NoopHook, 0, 0)
            .unwrap();
        block
            .forward(&mut s2, &mut z2, &mut NoopHook, 0, 0)
            .unwrap();
        assert_eq!(z1, z2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn param_count_positive_and_stable() {
        let cfg = PpmConfig::tiny();
        let b0 = FoldingBlock::new(&cfg, "w", 0);
        let b1 = FoldingBlock::new(&cfg, "w", 1);
        assert!(b0.num_params() > 1000);
        assert_eq!(b0.num_params(), b1.num_params());
    }
}
