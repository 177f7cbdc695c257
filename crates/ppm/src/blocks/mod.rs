//! The Protein Folding Block (Fig. 2(b)): the Pair-Representation dataflow
//! (Triangular Multiplication, Triangular Attention, Pair Transition) plus
//! the Sequence-Representation track (row attention with pair bias,
//! transition, outer-product-mean update).
//!
//! Every pair-dataflow activation edge is reported to the caller's
//! [`ActivationHook`] with its Fig. 6 site tag; the sequence track is not
//! quantized by the paper and carries no taps.
//!
//! The three pair stages run in one frame, `residual_stage`: it moves the
//! residual stream out of the pair tensor (transposed, for the Incoming and
//! Ending units), taps it, and hands it to the stage inside a `PostLn`,
//! which holds the post-LayerNorm activation in the form the hook asks for
//! and owns every loop over it — a read-only pass over its blocks, the
//! pass that adds each block's update into the stream as soon as the block
//! is done, and tri-attn's lanes, on the pool or in lane order. The stages
//! themselves keep only their arithmetic: what a block's rows become, and
//! what its update is.

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
use workspace::Loan;

use crate::taps::{ActivationHook, ActivationSite, Tap};
use crate::{PpmConfig, PpmError};
use ln_quant::qgemm::QLinear;
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

/// A stage's residual stream and its post-LayerNorm activation (Group B),
/// and the loops every pass over that activation runs in: a stage reads
/// the post-LN rows a block of tokens at a time ([`Rows`]) through
/// [`PostLn::read`], for a pass that only reads, and [`PostLn::update`] —
/// or [`PostLn::lanes`], for lanes that may run apart — for the pass whose
/// update goes into the stream a block at a time, as soon as the block is
/// done.
///
/// The activation is held in one of three [`Form`]s, chosen once per stage
/// by what the hook asks of the post-LN site: encoded, whole, or not held
/// at all but recomputed from the stream a block at a time. LayerNorm is
/// per token, so a recomputed row has the bits of the whole activation's.
/// A block's recomputed rows are LayerNorm of stream rows no update has
/// reached yet: every stage reads a token's post-LN row for the last time
/// in the block that adds its update.
struct PostLn<'a> {
    stream: Tensor2,
    gain: f32,
    form: Form<'a>,
}

/// Where a stage's post-LN rows come from.
enum Form<'a> {
    /// AAQ-encoded once, when the hook asks for the quantized domain; the
    /// projections are the layers' integer twins (numerics change; the
    /// hook opted in). The f32 activation is dropped once
    /// [`ActivationHook::on_encoded`] has seen it.
    Encoded(QuantizedTensor),
    /// LayerNorm's output whole, for a hook that
    /// [observes](ActivationHook::observes) the site and so may rewrite it;
    /// a block's update goes over its spent rows.
    Whole(Loan),
    /// Nothing held: a block's rows are this LayerNorm of the stream's,
    /// computed when the block is read. The hook is not shown the site.
    Recomputed(&'a LayerNorm),
}

/// Tokens `first ..` of a stage's post-LN activation, `len` of them, as a
/// stage reads them: rows of the activation's form, or `local`, the
/// block's own LayerNorm, where the form recomputes.
struct Rows<'r> {
    form: &'r Form<'r>,
    first: usize,
    len: usize,
    local: Option<&'r Tensor2>,
}

impl<'r> Form<'r> {
    fn rows(&'r self, first: usize, len: usize, local: Option<&'r Tensor2>) -> Rows<'r> {
        Rows {
            form: self,
            first,
            len,
            local,
        }
    }
}

impl Rows<'_> {
    /// `act(layer(x))` of these tokens into `out` — `len` rows of
    /// `layer`'s width — whatever it held, each row with the bits of the
    /// same row of the whole projection. In full precision the activation
    /// is fused into the GEMM epilogue (bitwise identical to applying it
    /// afterwards).
    fn project_into(
        &self,
        layer: &Projection,
        act: Activation,
        out: &mut [f32],
    ) -> Result<(), PpmError> {
        match self.form {
            Form::Encoded(qx) => {
                layer.qd.forward_rows_into(qx, self.first, out)?;
                act.apply(out);
            }
            Form::Whole(x) => layer.fp.forward_rows_into(x, self.first, act, out)?,
            Form::Recomputed(_) => {
                let local = self.local.expect("recomputed rows are loaded");
                layer.fp.forward_rows_into(local, 0, act, out)?;
            }
        }
        Ok(())
    }
}

/// A lane's view of a hook: shown an activation at a site, it may rewrite
/// it.
type Observe<'h> = dyn FnMut(ActivationSite, &mut Tensor2) + 'h;

impl<'a> PostLn<'a> {
    /// Shows `stream` to the hook at `tap`'s post-LN site in the form the
    /// hook asks for: encoded once and shown through
    /// [`ActivationHook::on_encoded`] where it asks for the quantized
    /// domain; else whole and shown through
    /// [`ActivationHook::on_activation`] where it observes the site; else
    /// not at all, and recomputed.
    fn new(
        hook: &mut dyn ActivationHook,
        tap: Tap,
        norm: &'a LayerNorm,
        stream: Tensor2,
        gain: f32,
    ) -> Result<Self, PpmError> {
        let whole = |stream: &Tensor2| -> Result<Loan, PpmError> {
            let mut x = workspace::take(stream.rows(), stream.cols());
            norm.forward_into(stream, &mut x)?;
            Ok(x)
        };
        let form = if let Some(scheme) = hook.quantized_matmul(tap) {
            let x = whole(&stream)?;
            let (encoded, error) = QuantizedTensor::encode(&x, scheme);
            hook.on_encoded(tap, &x, &encoded, error);
            Form::Encoded(encoded)
        } else if hook.observes(tap.site) {
            let mut x = whole(&stream)?;
            hook.on_activation(tap, &mut x);
            Form::Whole(x)
        } else {
            Form::Recomputed(norm)
        };
        Ok(PostLn { stream, gain, form })
    }

    /// `(first, len)` of each block of `block` tokens, ascending.
    fn blocks(&self, block: usize) -> impl Iterator<Item = (usize, usize)> {
        let tokens = self.stream.rows();
        (0..tokens)
            .step_by(block)
            .map(move |first| (first, block.min(tokens - first)))
    }

    /// The LayerNorm of tokens `first ..`, `len` of them, where the form
    /// recomputes; else nothing.
    fn recompute(&self, first: usize, len: usize) -> Result<Option<Loan>, PpmError> {
        let Form::Recomputed(norm) = self.form else {
            return Ok(None);
        };
        let c = self.stream.cols();
        let mut local = workspace::take(len, c);
        let stream_rows = &self.stream.as_slice()[first * c..][..len * c];
        norm.forward_rows_into(stream_rows, local.as_mut_slice())?;
        Ok(Some(local))
    }

    /// A pass that only reads: `body` on the rows of each block of `block`
    /// tokens, in ascending order.
    fn read(
        &self,
        block: usize,
        mut body: impl FnMut(&Rows) -> Result<(), PpmError>,
    ) -> Result<(), PpmError> {
        for (first, len) in self.blocks(block) {
            let local = self.recompute(first, len)?;
            body(&self.form.rows(first, len, local.as_deref()))?;
        }
        Ok(())
    }

    /// The pass that adds the stage's update, a block of `block` tokens at a
    /// time in ascending order. `read` gets the block's rows and returns
    /// what `write` needs; `write` gets only the buffer the block's update
    /// goes into, whatever it held — the block's spent post-LN rows, or
    /// where the form holds none, a buffer of their size. So a block's rows
    /// are read before its update overwrites them. The update goes into the
    /// stream at the stage's gain as soon as `write` returns.
    fn update<R>(
        &mut self,
        block: usize,
        mut read: impl FnMut(&Rows) -> Result<R, PpmError>,
        mut write: impl FnMut(R, &mut [f32]) -> Result<(), PpmError>,
    ) -> Result<(), PpmError> {
        let c = self.stream.cols();
        for (first, len) in self.blocks(block) {
            let mut local = self.recompute(first, len)?;
            let read_out = read(&self.form.rows(first, len, local.as_deref()))?;
            let span = first * c..(first + len) * c;
            let update = match &mut self.form {
                Form::Whole(x) => &mut x.as_mut_slice()[span.clone()],
                _ => local
                    .get_or_insert_with(|| workspace::take(len, c))
                    .as_mut_slice(),
            };
            write(read_out, update)?;
            add_scaled(&mut self.stream.as_mut_slice()[span], update, self.gain);
        }
        Ok(())
    }

    /// [`PostLn::update`] for a stage whose blocks are `lane_len`-token
    /// lanes, each its own: one chunk body runs a chunk of lanes in order
    /// — `lane` on a lane's rows, the chunk's `scratch()`, made once and
    /// reused across its lanes, and the lane-sized buffer its update goes
    /// into — and adds each lane's update into the stream as soon as the
    /// lane is done. Without `observe` the chunks, of `lanes_per_chunk`
    /// lanes, run across the pool, and `lane` is passed an `observe` that
    /// does nothing; with it, all lanes are one chunk on the calling thread,
    /// and `lane` is passed `observe`. None of a chunk's buffers comes from
    /// the fold workspace, which pool workers never reach.
    fn lanes<S>(
        &mut self,
        lane_len: usize,
        lanes_per_chunk: usize,
        observe: Option<&mut Observe>,
        scratch: impl Fn() -> S + Sync,
        lane: impl Fn(&Rows, &mut S, &mut [f32], &mut Observe) -> Result<(), PpmError> + Sync,
    ) -> Result<(), PpmError> {
        let c = self.stream.cols();
        let PostLn { stream, gain, form } = self;
        let (form, gain) = (&*form, *gain);
        let lane_size = lane_len * c;
        let chunk = |first_lane: usize, lanes: &mut [f32], observe: &mut Observe| {
            let mut scratch = scratch();
            let mut update = vec![0.0; lane_size];
            let recomputed = matches!(form, Form::Recomputed(_));
            let mut local = recomputed.then(|| Tensor2::zeros(lane_len, c));
            for (index, stream_lane) in (first_lane..).zip(lanes.chunks_mut(lane_size)) {
                if let (Form::Recomputed(norm), Some(local)) = (form, local.as_mut()) {
                    norm.forward_rows_into(stream_lane, local.as_mut_slice())?;
                }
                let rows = form.rows(index * lane_len, lane_len, local.as_ref());
                lane(&rows, &mut scratch, &mut update, observe)?;
                add_scaled(stream_lane, &update, gain);
            }
            Ok(())
        };
        match observe {
            Some(observe) => chunk(0, stream.as_mut_slice(), observe),
            None => {
                let chunk_size = lanes_per_chunk * lane_size;
                ln_par::par_chunks_mut(stream.as_mut_slice(), chunk_size, |index, lanes| {
                    chunk(index * lanes_per_chunk, lanes, &mut |_, _| {})
                        .expect("lane shapes are internally consistent")
                });
                Ok(())
            }
        }
    }
}

/// `a + u · gain` per element, the bits of [`Tensor2::add_scaled_assign`].
fn add_scaled(stream: &mut [f32], update: &[f32], gain: f32) {
    for (a, &u) in stream.iter_mut().zip(update) {
        *a += u * gain;
    }
}

/// Pair tokens a stage takes through a row-blocked site at a time: the
/// transition's hidden activation and triangular multiplication's packed
/// gated side; its other gated side and the triangle product's consumers
/// take whole rows, as near this many as `ns` allows. A multiple of the
/// quantizer's 64-token error block.
const ROW_BLOCK: usize = 1024;

/// The frame all three pair stages run in. The residual stream moves
/// through it — transposed in place, `(a, b) ↔ (b, a)`, for a unit that
/// runs on the transposed stream; taken out of `pair`, shown to the hook
/// (Group A), updated in place a block at a time, moved back and
/// transposed back — and `body` reads its LayerNorm (Group B) through a
/// [`PostLn`] in the form the hook asks for, whose drivers add each block's
/// update at the stage's gain as soon as the block is done.
///
/// On an error `pair` is left empty: its tokens were moved out, not copied.
fn residual_stage(
    pair: &mut Tensor3,
    hook: &mut dyn ActivationHook,
    transposed: bool,
    [residual_in_tap, post_ln_tap]: [Tap; 2],
    norm: &LayerNorm,
    gain: f32,
    body: impl FnOnce(&mut dyn ActivationHook, &mut PostLn) -> Result<(), PpmError>,
) -> Result<(), PpmError> {
    if transposed {
        transpose_pair_tokens(pair);
    }
    let ns = pair.shape().0;
    let mut tokens = std::mem::take(pair).into_token_matrix();
    // The hook may rewrite the stream here; LayerNorm and the updates
    // start from what it left.
    hook.on_activation(residual_in_tap, &mut tokens);
    let mut post_ln = PostLn::new(hook, post_ln_tap, norm, tokens, gain)?;
    body(hook, &mut post_ln)?;
    *pair = Tensor3::from_token_matrix(ns, ns, post_ln.stream)?;
    if transposed {
        transpose_pair_tokens(pair);
    }
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

    /// The bits of `activations` in order, one after another.
    fn all_bits(activations: &[Tensor2]) -> Vec<u32> {
        let values = activations.iter().flat_map(|a| a.as_slice());
        values.map(|v| v.to_bits()).collect()
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

    /// Keeps a copy of every activation it is shown, rewriting none; it
    /// observes every site, or — `blind` — none.
    #[derive(Default)]
    struct Keeper {
        kept: Vec<(Tap, Tensor2)>,
        blind: bool,
    }

    impl ActivationHook for Keeper {
        fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
            self.kept.push((tap, activation.clone()));
        }

        fn observes(&self, _site: ActivationSite) -> bool {
            !self.blind
        }
    }

    #[test]
    fn every_site_fires_in_ascending_blocks_that_cover_each_unit() {
        // ns = 48: 2 304 pair tokens — row blocks of 1 024, 1 024 and 256
        // tokens; of 22, 22 and 4 whole rows for tri-mul's row-blocked
        // gated side (left for Outgoing, right for Incoming) and the
        // triangle product's consumers; lanes of 48 tokens for tri-attn's
        // queries, keys, values, context and gate. Two tri-mul and two
        // tri-attn units per block, one transition. A hook that observes
        // no site is shown neither the post-LN activations (the stages
        // recompute their rows) nor tri-attn's lane sites (the lanes run
        // on their own), and the rest in the same blocks with the same
        // bits; the fold's bits are the same.
        use crate::taps::ALL_SITES;
        use ActivationSite::*;
        let ns = 48;
        let (cfg, s, z) = setup(ns);
        let block = FoldingBlock::new(&cfg, "w", 3);
        let run = |hook: &mut dyn ActivationHook| {
            let (mut s, mut z) = (s.clone(), z.clone());
            block.forward(&mut s, &mut z, hook, 3, 1).unwrap();
            bits(&z)
        };
        let mut blocked = Keeper::default();
        let folded = run(&mut blocked);
        let mut blind = Keeper {
            blind: true,
            ..Keeper::default()
        };
        assert!(run(&mut blind) == folded);
        for (tap, _) in &blocked.kept {
            assert_eq!((tap.block, tap.recycle), (3, 1));
        }
        let fired = |hook: &Keeper, site| -> Vec<Tensor2> {
            let taps = hook.kept.iter().filter(|(tap, _)| tap.site == site);
            taps.map(|(_, activation)| activation.clone()).collect()
        };
        let unit_tokens = ns * ns;
        let unseen = [
            TriMulPostLn,
            TriAttnPostLn,
            TransitionPostLn,
            TriAttnQuery,
            TriAttnKey,
            TriAttnValue,
            TriAttnScores,
            TriAttnContext,
            TriAttnGate,
        ];
        for site in ALL_SITES {
            let blocks = fired(&blocked, site);
            let blind_taps = fired(&blind, site);
            if unseen.contains(&site) {
                assert!(blind_taps.is_empty(), "{site}");
            } else {
                assert!(all_bits(&blind_taps) == all_bits(&blocks), "{site}");
            }
            let units = if site.name().starts_with("transition") {
                1
            } else {
                2
            };
            let per_unit = match site {
                // Once per (lane, head): probability rows.
                TriAttnScores => {
                    assert_eq!(blocks.len(), units * ns * cfg.pair_heads);
                    assert!(blocks.iter().all(|a| a.shape() == (ns, ns)), "{site}");
                    continue;
                }
                TransitionHidden => unit_tokens.div_ceil(ROW_BLOCK),
                // A gated side goes in row blocks in one tri-mul unit and
                // in whole rows in the other: three blocks either way.
                TriMulGateLeft | TriMulProjLeft | TriMulGateRight | TriMulProjRight
                | TriMulTriangleOut | TriMulOutPostLn | TriMulOutGate => 3,
                TriAttnQuery | TriAttnKey | TriAttnValue | TriAttnContext | TriAttnGate => ns,
                _ => 1,
            };
            // The blocks of each unit add up to the unit's tokens.
            assert_eq!(blocks.len(), units * per_unit, "{site}");
            let sizes: Vec<usize> = blocks.iter().map(Tensor2::rows).collect();
            for unit in sizes.chunks(per_unit) {
                assert_eq!(unit.iter().sum::<usize>(), unit_tokens, "{site}");
            }
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
