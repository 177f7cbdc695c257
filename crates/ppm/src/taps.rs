//! Activation taps: the instrumentation points of the Pair Representation
//! dataflow.
//!
//! The paper classifies every activation edge in the Triangular
//! Multiplication / Triangular Attention / Transition dataflow into three
//! groups (Fig. 6):
//!
//! * **Group A** — pre-LayerNorm activations on the residual stream: large
//!   values, outliers propagated through residual connections.
//! * **Group B** — post-LayerNorm, pre-linear activations: compressed range
//!   but still outlier-bearing.
//! * **Group C** — everything else (projections, gates, attention
//!   intermediates): small values, fewer than one outlier per token.
//!
//! An [`ActivationHook`] observes — and may rewrite — the `(tokens, Hz)`
//! matrix at every tagged edge. The `lightnobel` crate implements the hook
//! that performs AAQ quantize→dequantize, making the numeric effect of each
//! quantization scheme measurable end to end. At a post-LayerNorm edge
//! whose projections the hook sends to the quantized domain the trunk
//! encodes the activation itself, once, and shows the hook the encoding
//! instead ([`ActivationHook::on_encoded`]).

use ln_tensor::Tensor2;
use std::fmt;

/// The paper's activation classification (Fig. 6(c)).
pub use ln_quant::scheme::Group as ActivationGroup;

/// A quantization-relevant activation edge in the folding-block dataflow.
///
/// Sites follow Fig. 6(a)/(b); names read `<block>-<edge>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // Names mirror the dataflow edges of Fig. 6.
pub enum ActivationSite {
    // Triangular multiplication (outgoing or incoming).
    TriMulResidualIn,
    TriMulPostLn,
    TriMulProjLeft,
    TriMulProjRight,
    TriMulGateLeft,
    TriMulGateRight,
    TriMulTriangleOut,
    TriMulOutPostLn,
    TriMulOutGate,
    // Triangular attention (starting or ending node).
    TriAttnResidualIn,
    TriAttnPostLn,
    TriAttnQuery,
    TriAttnKey,
    TriAttnValue,
    TriAttnBias,
    TriAttnScores,
    TriAttnContext,
    TriAttnGate,
    // Pair transition.
    TransitionResidualIn,
    TransitionPostLn,
    TransitionHidden,
}

/// All tagged sites, in dataflow order.
pub const ALL_SITES: [ActivationSite; 21] = [
    ActivationSite::TriMulResidualIn,
    ActivationSite::TriMulPostLn,
    ActivationSite::TriMulProjLeft,
    ActivationSite::TriMulProjRight,
    ActivationSite::TriMulGateLeft,
    ActivationSite::TriMulGateRight,
    ActivationSite::TriMulTriangleOut,
    ActivationSite::TriMulOutPostLn,
    ActivationSite::TriMulOutGate,
    ActivationSite::TriAttnResidualIn,
    ActivationSite::TriAttnPostLn,
    ActivationSite::TriAttnQuery,
    ActivationSite::TriAttnKey,
    ActivationSite::TriAttnValue,
    ActivationSite::TriAttnBias,
    ActivationSite::TriAttnScores,
    ActivationSite::TriAttnContext,
    ActivationSite::TriAttnGate,
    ActivationSite::TransitionResidualIn,
    ActivationSite::TransitionPostLn,
    ActivationSite::TransitionHidden,
];

impl ActivationSite {
    /// The paper's group classification for this edge (Fig. 6).
    pub fn group(self) -> ActivationGroup {
        use ActivationSite::*;
        match self {
            TriMulResidualIn | TriAttnResidualIn | TransitionResidualIn => ActivationGroup::A,
            TriMulPostLn | TriMulOutPostLn | TriAttnPostLn | TransitionPostLn => ActivationGroup::B,
            _ => ActivationGroup::C,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        use ActivationSite::*;
        match self {
            TriMulResidualIn => "tri_mul.residual_in",
            TriMulPostLn => "tri_mul.post_ln",
            TriMulProjLeft => "tri_mul.proj_left",
            TriMulProjRight => "tri_mul.proj_right",
            TriMulGateLeft => "tri_mul.gate_left",
            TriMulGateRight => "tri_mul.gate_right",
            TriMulTriangleOut => "tri_mul.triangle_out",
            TriMulOutPostLn => "tri_mul.out_post_ln",
            TriMulOutGate => "tri_mul.out_gate",
            TriAttnResidualIn => "tri_attn.residual_in",
            TriAttnPostLn => "tri_attn.post_ln",
            TriAttnQuery => "tri_attn.query",
            TriAttnKey => "tri_attn.key",
            TriAttnValue => "tri_attn.value",
            TriAttnBias => "tri_attn.bias",
            TriAttnScores => "tri_attn.scores",
            TriAttnContext => "tri_attn.context",
            TriAttnGate => "tri_attn.gate",
            TransitionResidualIn => "transition.residual_in",
            TransitionPostLn => "transition.post_ln",
            TransitionHidden => "transition.hidden",
        }
    }
}

impl fmt::Display for ActivationSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifies one activation instance: which block, which recycling
/// iteration, which dataflow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tap {
    /// Folding-block index (0-based).
    pub block: usize,
    /// Recycling iteration (0-based).
    pub recycle: usize,
    /// The dataflow edge.
    pub site: ActivationSite,
}

impl Tap {
    /// The group classification of this tap's site.
    pub fn group(&self) -> ActivationGroup {
        self.site.group()
    }
}

impl fmt::Display for Tap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.b{}.{}", self.recycle, self.block, self.site)
    }
}

/// Observer/rewriter of activations in flight.
///
/// The trunk calls [`ActivationHook::on_activation`] with a mutable
/// `(tokens, channels)` view of each tagged activation — at the
/// post-LayerNorm and triangular-attention lane sites, those it
/// [observes](ActivationHook::observes) — except a post-LayerNorm one it
/// encodes for the quantized domain, which goes to
/// [`ActivationHook::on_encoded`]. Implementations may:
///
/// * record statistics (distribution analysis, Fig. 5/6),
/// * rewrite values in place (quantize→dequantize, the AAQ error model),
/// * do nothing ([`NoopHook`], the FP32 baseline).
///
/// A row-blocked site arrives a block of tokens at a time — one call per
/// block, in ascending token order, the blocks adding up to the unit's
/// activation: triangular multiplication's gated sides, triangle product
/// and its consumers, triangular attention's lane sites (a lane of `Ns`
/// tokens; the scores a block of a head's query rows) and the transition's
/// hidden activation. So a hook must treat tokens independently, or
/// accumulate across calls what it needs of the whole; it cannot ask for
/// the whole. The residual-stream, post-LayerNorm and bias sites come
/// whole.
pub trait ActivationHook {
    /// Called for every tagged activation, in dataflow order.
    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2);

    /// Whether this hook looks at activations at `site` at all.
    ///
    /// It decides two things in the trunk, each for the same arithmetic,
    /// bit for bit:
    ///
    /// * Asked about a post-LayerNorm site
    ///   ([`ActivationSite::TriMulPostLn`], [`ActivationSite::TriAttnPostLn`],
    ///   [`ActivationSite::TransitionPostLn`]) that it does not send to the
    ///   quantized domain, a yes holds the activation whole and taps it; a
    ///   no never calls the hook there, and the stage recomputes a block's
    ///   rows from the stream when it reads them — one pair tensor less.
    /// * Asked about triangular attention's lane sites
    ///   ([`ActivationSite::TriAttnQuery`], [`ActivationSite::TriAttnKey`],
    ///   [`ActivationSite::TriAttnValue`], [`ActivationSite::TriAttnScores`],
    ///   [`ActivationSite::TriAttnContext`], [`ActivationSite::TriAttnGate`]),
    ///   a yes to any runs the lanes in order on the calling thread and taps
    ///   all six — each lane's query, key, value, context and gate, and
    ///   every block of its score rows (per head and block of
    ///   [`crate::PpmConfig::attention_chunk`] query rows); a no to all six
    ///   runs the same lanes across the pool and never calls the hook at
    ///   those sites.
    ///
    /// Everywhere else [`ActivationHook::on_activation`] is called whatever
    /// this returns, and a hook that does not care ignores the call. A hook
    /// that wraps another forwards the question. Defaults to `true`, so a
    /// custom hook sees every activation unless it opts out.
    fn observes(&self, site: ActivationSite) -> bool {
        let _ = site;
        true
    }

    /// Asks the hook whether the matmuls consuming the activation at
    /// `tap` should run in the quantized domain, and with which scheme.
    ///
    /// Returning `Some(scheme)` makes the trunk AAQ-encode the post-LN
    /// activation once, with
    /// [`QuantizedTensor::encode`](ln_quant::tensor::QuantizedTensor::encode),
    /// and feed every downstream projection through the integer
    /// [`ln_quant::qgemm`] path (the paper's RMPU dataflow); the hook is
    /// then shown the encoding through [`ActivationHook::on_encoded`]
    /// instead of the activation through
    /// [`ActivationHook::on_activation`]. `None` (the default) keeps
    /// full-precision GEMMs.
    fn quantized_matmul(&self, tap: Tap) -> Option<ln_quant::scheme::QuantScheme> {
        let _ = tap;
        None
    }

    /// Called, in place of [`ActivationHook::on_activation`], at a `tap`
    /// whose activation the trunk encoded because
    /// [`ActivationHook::quantized_matmul`] asked for it: `activation` as
    /// LayerNorm left it, `encoded` the one encoding every projection
    /// reads, and `error` what that encoding did to the activation (the
    /// sums `fake_quantize_tokens` returns for it). The encoding belongs
    /// to the trunk, so a hook that wraps another and does not forward
    /// this changes no bit of the fold — it only leaves the inner hook
    /// unaware of the tap. Defaults to doing nothing.
    fn on_encoded(
        &mut self,
        tap: Tap,
        activation: &Tensor2,
        encoded: &ln_quant::tensor::QuantizedTensor,
        error: ln_quant::token::QuantError,
    ) {
        let _ = (tap, activation, encoded, error);
    }

    /// The scheme this hook quantizes a `channels`-wide activation at
    /// `tap` with, as applied (outlier budget clamped to the width);
    /// `None` (the default) when it leaves the activation at full
    /// precision. An observer wrapped around the hook asks this instead
    /// of being told the hook's configuration a second time.
    fn scheme_at(&self, tap: Tap, channels: usize) -> Option<ln_quant::scheme::QuantScheme> {
        let _ = (tap, channels);
        None
    }
}

/// The do-nothing hook: the unquantized baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopHook;

impl ActivationHook for NoopHook {
    fn on_activation(&mut self, _tap: Tap, _activation: &mut Tensor2) {}

    fn observes(&self, _site: ActivationSite) -> bool {
        false
    }
}

/// A hook that records per-tap summary statistics (used by the Fig. 5/6
/// analyses).
#[derive(Debug, Clone, Default)]
pub struct RecordingHook {
    records: Vec<TapRecord>,
}

/// Statistics recorded for one tap invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TapRecord {
    /// The tap identity.
    pub tap: Tap,
    /// Number of tokens in the activation.
    pub tokens: usize,
    /// Number of channels per token.
    pub channels: usize,
    /// Mean absolute value over all elements.
    pub mean_abs: f32,
    /// Maximum absolute value.
    pub max_abs: f32,
    /// Mean per-token 3σ outlier count.
    pub mean_outliers_per_token: f32,
    /// Per-token mean absolute values (kept for distogram-pattern analysis).
    pub token_mean_abs: Vec<f32>,
}

impl RecordingHook {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded statistics, in dataflow order.
    pub fn records(&self) -> &[TapRecord] {
        &self.records
    }

    /// Consumes the recorder into its records.
    pub fn into_records(self) -> Vec<TapRecord> {
        self.records
    }
}

impl ActivationHook for RecordingHook {
    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
        let tokens = activation.rows();
        let channels = activation.cols();
        let mut sum_abs = 0.0f64;
        let mut max_abs = 0.0f32;
        let mut outliers = 0usize;
        let mut token_mean_abs = Vec::with_capacity(tokens);
        for t in 0..tokens {
            let row = activation.row(t);
            let mut row_sum = 0.0f32;
            for &v in row {
                row_sum += v.abs();
                max_abs = max_abs.max(v.abs());
            }
            sum_abs += row_sum as f64;
            token_mean_abs.push(row_sum / channels.max(1) as f32);
            outliers += ln_tensor::stats::count_3sigma_outliers(row);
        }
        let n = (tokens * channels).max(1);
        self.records.push(TapRecord {
            tap,
            tokens,
            channels,
            mean_abs: (sum_abs / n as f64) as f32,
            max_abs,
            mean_outliers_per_token: outliers as f32 / tokens.max(1) as f32,
            token_mean_abs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_classification_matches_figure6() {
        use ActivationSite::*;
        assert_eq!(TriMulResidualIn.group(), ActivationGroup::A);
        assert_eq!(TriAttnResidualIn.group(), ActivationGroup::A);
        assert_eq!(TransitionResidualIn.group(), ActivationGroup::A);
        assert_eq!(TriMulPostLn.group(), ActivationGroup::B);
        assert_eq!(TriAttnPostLn.group(), ActivationGroup::B);
        assert_eq!(TriAttnQuery.group(), ActivationGroup::C);
        assert_eq!(TriMulGateLeft.group(), ActivationGroup::C);
        assert_eq!(TriAttnScores.group(), ActivationGroup::C);
    }

    #[test]
    fn all_sites_have_unique_names_and_cover_groups() {
        let mut names = std::collections::HashSet::new();
        let mut groups = std::collections::HashSet::new();
        for s in ALL_SITES {
            assert!(names.insert(s.name()));
            groups.insert(s.group());
        }
        assert_eq!(groups.len(), 3);
        assert_eq!(ALL_SITES.len(), 21);
    }

    #[test]
    fn recording_hook_measures_statistics() {
        let mut hook = RecordingHook::new();
        let mut x = Tensor2::from_fn(4, 16, |_, j| if j == 0 { 100.0 } else { 0.1 });
        let tap = Tap {
            block: 0,
            recycle: 0,
            site: ActivationSite::TriMulResidualIn,
        };
        hook.on_activation(tap, &mut x);
        let r = &hook.records()[0];
        assert_eq!(r.tokens, 4);
        assert_eq!(r.channels, 16);
        assert!(r.max_abs == 100.0);
        assert!(r.mean_outliers_per_token >= 1.0);
        assert_eq!(r.token_mean_abs.len(), 4);
    }

    #[test]
    fn tap_display_is_informative() {
        let tap = Tap {
            block: 3,
            recycle: 1,
            site: ActivationSite::TriAttnQuery,
        };
        assert_eq!(tap.to_string(), "r1.b3.tri_attn.query");
    }
}
