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

use crate::taps::{ActivationHook, ActivationSite, Tap};
use crate::{PpmConfig, PpmError};
use ln_quant::qgemm::{MacMode, QLinear};
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
/// AAQ-encoded once, here, and run through each layer's integer twin
/// (numerics change; the hook opted in).
struct PostLn {
    x: Tensor2,
    encoded: Option<(QuantizedTensor, MacMode)>,
}

impl PostLn {
    /// Shows `x` to the hook at `tap`: through
    /// [`ActivationHook::on_activation`], or — where the hook asks for the
    /// quantized domain — encoded once and through
    /// [`ActivationHook::on_encoded`], `x` itself left as it is.
    fn new(hook: &mut dyn ActivationHook, tap: Tap, mut x: Tensor2) -> Self {
        let encoded = match hook.quantized_matmul(tap) {
            Some(scheme) => {
                let (encoded, error) = QuantizedTensor::encode(&x, scheme);
                hook.on_encoded(tap, &x, &encoded, error);
                let mode = MacMode::for_scheme(encoded.scheme());
                Some((encoded, mode))
            }
            None => {
                hook.on_activation(tap, &mut x);
                None
            }
        };
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
    /// `out`, whatever it held, each row with the bits of the same row of
    /// the whole projection. In full precision the activation is fused
    /// into the GEMM epilogue (bitwise identical to applying it
    /// afterwards).
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

/// Pair tokens a stage takes through a row-blocked site at a time, when
/// the hook [takes row blocks](ActivationHook::takes_row_blocks): the
/// transition's hidden activation, triangular multiplication's packed
/// gated side and triangular attention's output gate; its other gated
/// side and the triangle product's consumers take whole rows, as near
/// this many as `ns` allows. A multiple of the quantizer's 64-token error
/// block.
const ROW_BLOCK: usize = 1024;

/// Tokens a stage takes through `sites` at a time: `block`, or all
/// `tokens` (one block) for a hook that wants any of them whole.
fn block_len(
    hook: &dyn ActivationHook,
    sites: &[ActivationSite],
    block: usize,
    tokens: usize,
) -> usize {
    if sites.iter().all(|&site| hook.takes_row_blocks(site)) {
        block
    } else {
        tokens.max(1)
    }
}

/// The frame all three pair stages run in. The residual stream moves
/// through it — taken out of `pair`, shown to the hook (Group A), updated
/// in place, moved back — and `body` runs on its LayerNorm (Group B,
/// shown to the hook and read through a [`PostLn`] in the domain the hook
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
    let post_ln = PostLn::new(hook, post_ln_tap, x);
    let update = body(hook, post_ln)?;
    // The hook may have rewritten `tokens`; the update goes onto what it left.
    tokens.add_scaled_assign(&update, gain)?;
    workspace::give(update);
    *pair = Tensor3::from_token_matrix(ns, ns, tokens)?;
    Ok(())
}

/// Transposes the pair stream in place, token `(a, b)` ↔ `(b, a)`: exact
/// swaps, no buffer, its own inverse.
fn transpose_pair_tokens(pair: &mut Tensor3) {
    let (ns, _, c) = pair.shape();
    let tokens = pair.as_mut_slice();
    for a in 0..ns {
        for b in a + 1..ns {
            let (ab, ba) = tokens.split_at_mut((b * ns + a) * c);
            ab[(a * ns + b) * c..][..c].swap_with_slice(&mut ba[..c]);
        }
    }
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
pub(crate) mod tests {
    use super::*;
    use crate::embed::Embedding;
    use crate::taps::{ActivationSite, NoopHook};
    use ln_protein::generator::StructureGenerator;
    use ln_protein::Sequence;
    use ln_quant::scheme::{AaqConfig, QuantScheme};
    use ln_quant::token::fake_quantize_tokens;

    /// Rewrites every activation it is shown the way `AaqHook` does —
    /// token-wise quantize→dequantize at its group's paper scheme — and,
    /// when `domain` is set, runs the post-LN projections as integer GEMMs.
    pub(crate) struct FakeQuant {
        pub(crate) domain: bool,
    }

    impl ActivationHook for FakeQuant {
        fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
            let channels = activation.cols();
            if channels >= 2 {
                let mut scheme = AaqConfig::paper().scheme_for(tap.group());
                scheme.outliers = scheme.outliers.min(channels - 1);
                fake_quantize_tokens(activation, scheme);
            }
        }

        fn quantized_matmul(&self, tap: Tap) -> Option<QuantScheme> {
            use ActivationSite::{TransitionPostLn, TriAttnPostLn, TriMulPostLn};
            let post_ln = matches!(tap.site, TriMulPostLn | TriAttnPostLn | TransitionPostLn);
            (self.domain && post_ln).then(|| AaqConfig::paper().scheme_for(tap.group()))
        }
    }

    /// The hook it wraps, shown every activation whole: it declines row
    /// blocks and lanes at every site.
    pub(crate) struct Declining<'a>(pub(crate) &'a mut dyn ActivationHook);

    impl ActivationHook for Declining<'_> {
        fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
            self.0.on_activation(tap, activation);
        }

        fn observes(&self, site: ActivationSite) -> bool {
            self.0.observes(site)
        }

        fn takes_row_blocks(&self, _site: ActivationSite) -> bool {
            false
        }

        fn quantized_matmul(&self, tap: Tap) -> Option<QuantScheme> {
            self.0.quantized_matmul(tap)
        }

        fn on_encoded(
            &mut self,
            tap: Tap,
            activation: &Tensor2,
            encoded: &QuantizedTensor,
            error: ln_quant::token::QuantError,
        ) {
            self.0.on_encoded(tap, activation, encoded, error);
        }
    }

    /// The three hooks the stages' bit-identity is stated for: none, a
    /// token-wise rewrite, and the quantized domain.
    pub(crate) fn token_wise_hooks() -> [(&'static str, Box<dyn ActivationHook>); 3] {
        [
            ("noop", Box::new(NoopHook)),
            ("fake-quant", Box::new(FakeQuant { domain: false })),
            ("quantized-domain", Box::new(FakeQuant { domain: true })),
        ]
    }

    fn bits(z: &Tensor3) -> Vec<u32> {
        z.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A seeded pair stream, one token in seven eight times larger.
    fn seeded_pair(ns: usize, hz: usize) -> Tensor3 {
        let mut r = ln_tensor::rng::stream("blocks/seeded-pair");
        Tensor3::from_fn(ns, ns, hz, |i, j, _| {
            let scale = if (i + 2 * j) % 7 == 0 { 8.0 } else { 1.0 };
            scale * ln_tensor::rng::normal_approx(&mut r)
        })
    }

    #[test]
    fn tri_mul_and_tri_attn_give_a_declining_hook_the_same_bits() {
        // A hook that declines row blocks sees every activation whole; a
        // token-wise hook cannot tell the difference in what it rewrites,
        // so each unit's output is the same to the bit. ns = 48 leaves a
        // partial last row block and lanes of 48 tokens; 24 and 7 fit one
        // block.
        for ns in [7, 24, 48] {
            for attention_chunk in [None, Some(5)] {
                let cfg = PpmConfig {
                    attention_chunk,
                    ..PpmConfig::tiny()
                };
                let z = seeded_pair(ns, cfg.hz);
                type Unit = Box<dyn Fn(&mut Tensor3, &mut dyn ActivationHook)>;
                let tri_mul = |direction| -> Unit {
                    let unit = TriangularMultiplication::new(&cfg, "declining", direction);
                    Box::new(move |z, hook| unit.forward(z, hook, 0, 0).unwrap())
                };
                let tri_attn = |node| -> Unit {
                    let unit = TriangularAttention::new(&cfg, "declining", node);
                    Box::new(move |z, hook| unit.forward(z, hook, 0, 0).unwrap())
                };
                let units = [
                    ("tri_mul_out", tri_mul(TriangleDirection::Outgoing)),
                    ("tri_mul_in", tri_mul(TriangleDirection::Incoming)),
                    ("tri_attn_start", tri_attn(AttentionNode::Starting)),
                    ("tri_attn_end", tri_attn(AttentionNode::Ending)),
                ];
                for (unit, run) in &units {
                    for ((name, mut hook), (_, mut twin)) in
                        token_wise_hooks().into_iter().zip(token_wise_hooks())
                    {
                        let mut blocked = z.clone();
                        run(&mut blocked, hook.as_mut());
                        let mut whole = z.clone();
                        run(&mut whole, &mut Declining(twin.as_mut()));
                        assert!(
                            bits(&blocked) == bits(&whole),
                            "{unit} under {name}, ns {ns}, chunk {attention_chunk:?}"
                        );
                    }
                }
            }
        }
    }

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

    /// Keeps a copy of every activation it is shown, rewriting none.
    #[derive(Default)]
    struct Keeper(Vec<(Tap, Tensor2)>);

    impl ActivationHook for Keeper {
        fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
            self.0.push((tap, activation.clone()));
        }
    }

    #[test]
    fn every_site_fires_in_ascending_blocks_that_cover_each_unit() {
        // ns = 48: 2 304 pair tokens — row blocks of 1 024, 1 024 and 256
        // tokens; of 22, 22 and 4 whole rows for tri-mul's row-blocked
        // gated side (left for Outgoing, right for Incoming) and the
        // triangle product's consumers; lanes of 48 tokens for the keys
        // and values. Two tri-mul and two tri-attn units per block, one
        // transition.
        use crate::taps::ALL_SITES;
        use ActivationSite::*;
        let ns = 48;
        let (cfg, s, z) = setup(ns);
        let block = FoldingBlock::new(&cfg, "w", 3);
        let run = |hook: &mut dyn ActivationHook| {
            let (mut s, mut z) = (s.clone(), z.clone());
            block.forward(&mut s, &mut z, hook, 3, 1).unwrap();
        };
        let mut blocked = Keeper::default();
        run(&mut blocked);
        let mut whole = Keeper::default();
        run(&mut Declining(&mut whole));
        for (tap, _) in blocked.0.iter().chain(&whole.0) {
            assert_eq!((tap.block, tap.recycle), (3, 1));
        }
        let fired = |hook: &Keeper, site| -> Vec<Tensor2> {
            let taps = hook.0.iter().filter(|(tap, _)| tap.site == site);
            taps.map(|(_, activation)| activation.clone()).collect()
        };
        let unit_tokens = ns * ns;
        for site in ALL_SITES {
            let (blocks, wholes) = (fired(&blocked, site), fired(&whole, site));
            let units = if site.name().starts_with("transition") {
                1
            } else {
                2
            };
            let per_unit = match site {
                // Once per (lane, head) under either hook: probability rows.
                TriAttnScores => {
                    assert_eq!(wholes.len(), units * ns * cfg.pair_heads);
                    assert_eq!(blocks.len(), wholes.len());
                    continue;
                }
                TriAttnGate | TransitionHidden => unit_tokens.div_ceil(ROW_BLOCK),
                // A gated side goes in row blocks in one tri-mul unit and
                // in whole rows in the other: three blocks either way.
                TriMulGateLeft | TriMulProjLeft | TriMulGateRight | TriMulProjRight
                | TriMulTriangleOut | TriMulOutPostLn | TriMulOutGate => 3,
                TriAttnKey | TriAttnValue => ns,
                _ => 1,
            };
            // A declining hook sees each unit's activation once, whole.
            assert_eq!(wholes.len(), units, "{site}");
            assert!(wholes.iter().all(|a| a.rows() == unit_tokens), "{site}");
            // Otherwise the blocks of each unit are its activation in
            // ascending, disjoint token ranges that add up to the unit: in
            // firing order they hold the whole activations' bits.
            assert_eq!(blocks.len(), units * per_unit, "{site}");
            let sizes: Vec<usize> = blocks.iter().map(Tensor2::rows).collect();
            for unit in sizes.chunks(per_unit) {
                assert_eq!(unit.iter().sum::<usize>(), unit_tokens, "{site}");
            }
            let bits = |activations: &[Tensor2]| -> Vec<u32> {
                let values = activations.iter().flat_map(|a| a.as_slice());
                values.map(|v| v.to_bits()).collect()
            };
            assert!(bits(&blocks) == bits(&wholes), "{site}");
        }
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
