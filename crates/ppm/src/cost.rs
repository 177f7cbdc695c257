//! Analytic op/byte accounting for the PPM dataflow at paper scale.
//!
//! The paper's performance and memory experiments (Figs. 3, 4, 15, 16) are
//! driven by how each dataflow stage scales with sequence length `Ns`:
//! Pair-Representation tensors are `(Ns, Ns, Hz)` and the per-head
//! triangular-attention score tensor is `(Ns, Ns, Ns)`, so score-matrix
//! work grows cubically and everything else quadratically (§3.2). This
//! module computes exact MAC counts, activation element counts, DRAM
//! traffic and peak-residency estimates for every stage *without
//! allocating the tensors* — the same methodology the paper uses to report
//! peak memory beyond single-GPU capacity (Fig. 15(b)).
//!
//! All byte figures assume the FP16 baseline, except the token-wise peak,
//! which takes its bytes per token from an `ln-quant` AAQ configuration.

use crate::PpmConfig;
use ln_quant::scheme::AaqConfig;

/// Bytes per FP16 element.
pub const FP16_BYTES: f64 = 2.0;

/// Parameter count of the ESM-2 3B language model used for Input Embedding
/// (`esm2_t36_3B_UR50D`, §6).
pub const ESM2_PARAMS: u64 = 3_000_000_000;

/// One dataflow stage of the PPM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Input embedding (the ESM-2 language model + projections).
    InputEmbedding,
    /// Sequence-track attention (with pair bias).
    SeqAttention,
    /// Sequence-track transition MLP.
    SeqTransition,
    /// Outer-product-mean sequence→pair update.
    OuterProductMean,
    /// Triangular multiplication, outgoing edges.
    TriMulOutgoing,
    /// Triangular multiplication, incoming edges.
    TriMulIncoming,
    /// Triangular attention, starting node (row-wise).
    TriAttnStarting,
    /// Triangular attention, ending node (column-wise).
    TriAttnEnding,
    /// Pair transition MLP.
    PairTransition,
    /// Structure module (distogram head + coordinate decoding).
    StructureModule,
}

/// All stages in dataflow order.
pub const ALL_STAGES: [Stage; 10] = [
    Stage::InputEmbedding,
    Stage::SeqAttention,
    Stage::SeqTransition,
    Stage::OuterProductMean,
    Stage::TriMulOutgoing,
    Stage::TriMulIncoming,
    Stage::TriAttnStarting,
    Stage::TriAttnEnding,
    Stage::PairTransition,
    Stage::StructureModule,
];

impl Stage {
    /// Whether the stage belongs to the Pair Representation dataflow (the
    /// paper's bottleneck and AAQ target).
    pub fn is_pair_dataflow(self) -> bool {
        matches!(
            self,
            Stage::TriMulOutgoing
                | Stage::TriMulIncoming
                | Stage::TriAttnStarting
                | Stage::TriAttnEnding
                | Stage::PairTransition
        )
    }

    /// Whether the stage runs once per folding block (vs once per model).
    pub fn is_per_block(self) -> bool {
        !matches!(self, Stage::InputEmbedding | Stage::StructureModule)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::InputEmbedding => "input_embedding",
            Stage::SeqAttention => "seq_attention",
            Stage::SeqTransition => "seq_transition",
            Stage::OuterProductMean => "outer_product_mean",
            Stage::TriMulOutgoing => "tri_mul_outgoing",
            Stage::TriMulIncoming => "tri_mul_incoming",
            Stage::TriAttnStarting => "tri_attn_starting",
            Stage::TriAttnEnding => "tri_attn_ending",
            Stage::PairTransition => "pair_transition",
            Stage::StructureModule => "structure_module",
        }
    }
}

/// How the baseline executes the pair dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Vanilla: full score tensors are materialised.
    Vanilla,
    /// The `chunk` option: triangular attention processes `rows` query rows
    /// at a time (ESMFold/AlphaFold `Chunk4` ⇒ `rows = 4`), trading latency
    /// (kernel launches) for peak memory. The numeric path blocks the same
    /// way: [`PpmConfig::attention_chunk`]` = Some(rows)`.
    Chunked {
        /// Rows per chunk.
        rows: usize,
    },
}

/// The analytic cost model for a PPM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    config: PpmConfig,
}

impl CostModel {
    /// Cost model at paper scale (ESMFold trunk, 48 blocks, `Hz`=128,
    /// `Hm`=1024, 3 recycles).
    pub fn paper() -> Self {
        CostModel {
            config: PpmConfig::paper_scale(),
        }
    }

    /// Cost model for an arbitrary configuration.
    pub fn new(config: PpmConfig) -> Self {
        CostModel { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &PpmConfig {
        &self.config
    }

    // ---------------------------------------------------------------
    // Weights
    // ---------------------------------------------------------------

    /// Folding-trunk parameter count (all blocks).
    pub fn trunk_params(&self) -> u64 {
        let c = &self.config;
        let (hz, hm) = (c.hz as u64, c.hm as u64);
        let attn = c.pair_attn_dim() as u64;
        let heads = c.pair_heads as u64;
        let opm: u64 = 8;
        // Sequence track.
        let seq = 2 * hm // ln_a
            + 3 * (hm * hm + hm) // qkv
            + (hz * heads + heads) // pair bias
            + (hm * hm + hm) // attn out
            + 2 * hm // ln_t
            + (hm * 2 * hm + 2 * hm) + (2 * hm * hm + hm) // transition
            + 2 * hm // ln_o
            + 2 * (hm * opm + opm) // opm projections
            + (opm * opm * hz + hz); // opm out
                                     // One triangular multiplication unit.
        let tri_mul = 2 * hz + 4 * (hz * hz + hz) + 2 * hz + (hz * hz + hz) + (hz * hz + hz);
        // One triangular attention unit.
        let tri_attn = 2 * hz
            + 3 * (hz * attn + attn)
            + (hz * heads + heads)
            + (hz * attn + attn) // gate
            + (attn * hz + hz); // out
                                // Pair transition.
        let tf = c.transition_factor as u64;
        let transition = 2 * hz + (hz * hz * tf + hz * tf) + (hz * tf * hz + hz);
        let per_block = seq + 2 * tri_mul + 2 * tri_attn + transition;
        per_block * c.blocks as u64 + 2 * hz // recycle LN
    }

    /// Total weight bytes at FP16 (language model + trunk), the paper's
    /// "Weight / Size" axis (Table 1 reports 7.90 GB).
    pub fn total_weight_bytes_fp16(&self) -> f64 {
        (ESM2_PARAMS + self.trunk_params()) as f64 * FP16_BYTES
    }

    /// Folding-trunk weight bytes at INT16: what the accelerator model,
    /// which runs the trunk only, keeps resident.
    pub fn trunk_weight_bytes_int16(&self) -> f64 {
        self.trunk_params() as f64 * 2.0
    }

    // ---------------------------------------------------------------
    // Compute
    // ---------------------------------------------------------------

    /// MAC count of one invocation of `stage` at sequence length `ns`.
    ///
    /// Per-block stages report the cost of a single block; multiply by
    /// `blocks × recycles` (or use [`CostModel::total_macs`]).
    pub fn stage_macs(&self, stage: Stage, ns: usize) -> f64 {
        let c = &self.config;
        let n = ns as f64;
        let hz = c.hz as f64;
        let hm = c.hm as f64;
        let attn = c.pair_attn_dim() as f64;
        let heads = c.pair_heads as f64;
        let opm = 8.0;
        match stage {
            // Transformer LM: ~2 MACs per parameter per token.
            Stage::InputEmbedding => 2.0 * ESM2_PARAMS as f64 * n,
            Stage::SeqAttention => 4.0 * n * hm * hm + 2.0 * n * n * hm + n * n * hz * heads,
            Stage::SeqTransition => 4.0 * n * hm * hm,
            Stage::OuterProductMean => 2.0 * n * hm * opm + n * n * opm * opm * hz,
            Stage::TriMulOutgoing | Stage::TriMulIncoming => {
                // ln + 4 projections + out gate + out proj + triangle einsum
                n * n * hz
                    + 4.0 * n * n * hz * hz
                    + n * n * hz * hz
                    + n * n * hz * hz
                    + n * n * n * hz
            }
            Stage::TriAttnStarting | Stage::TriAttnEnding => {
                // qkv + gate + out projections, bias, and the cubic scores.
                5.0 * n * n * hz * attn + n * n * hz * heads + 2.0 * n * n * n * attn
            }
            Stage::PairTransition => 2.0 * n * n * hz * hz * c.transition_factor as f64,
            Stage::StructureModule => n * n * hz + 3.0 * n * n * 300.0,
        }
    }

    /// Total model MACs at sequence length `ns` (all blocks, all recycles).
    pub fn total_macs(&self, ns: usize) -> f64 {
        let per_model: f64 = [Stage::InputEmbedding, Stage::StructureModule]
            .iter()
            .map(|&s| self.stage_macs(s, ns))
            .sum();
        let per_block: f64 = ALL_STAGES
            .iter()
            .filter(|s| s.is_per_block())
            .map(|&s| self.stage_macs(s, ns))
            .sum();
        per_model + per_block * self.config.blocks as f64 * self.config.recycles as f64
    }

    /// MACs spent in the Pair Representation dataflow only.
    pub fn pair_dataflow_macs(&self, ns: usize) -> f64 {
        ALL_STAGES
            .iter()
            .filter(|s| s.is_pair_dataflow())
            .map(|&s| self.stage_macs(s, ns))
            .sum::<f64>()
            * self.config.blocks as f64
            * self.config.recycles as f64
    }

    // ---------------------------------------------------------------
    // Activations
    // ---------------------------------------------------------------

    /// Number of pair-representation elements (`Ns² × Hz`).
    pub fn pair_rep_elems(&self, ns: usize) -> f64 {
        (ns as f64) * (ns as f64) * self.config.hz as f64
    }

    /// Score-tensor elements of one triangular-attention unit
    /// (`heads × Ns³`).
    pub fn score_elems(&self, ns: usize) -> f64 {
        self.config.pair_heads as f64 * (ns as f64).powi(3)
    }

    /// DRAM traffic (bytes, FP16) of one invocation of `stage`: activations
    /// read + written, counting one trip per tensor (GPU L2 is negligible
    /// against GB-scale tensors) and three trips for score tensors
    /// (write, fused softmax update, A×V read).
    pub fn stage_traffic_bytes(&self, stage: Stage, ns: usize) -> f64 {
        let c = &self.config;
        let n = ns as f64;
        let hz = c.hz as f64;
        let hm = c.hm as f64;
        let attn = c.pair_attn_dim() as f64;
        let pair = self.pair_rep_elems(ns);
        let elems = match stage {
            Stage::InputEmbedding => n * hm + pair,
            Stage::SeqAttention => 6.0 * n * hm + 2.0 * n * n,
            Stage::SeqTransition => 4.0 * n * hm,
            Stage::OuterProductMean => 2.0 * n * 8.0 + pair,
            Stage::TriMulOutgoing | Stage::TriMulIncoming => {
                // read z, write x, left/right (2 passes: produce + consume),
                // triangle out, out ln, update, write z.
                2.0 * pair + n * n * hz + 4.0 * n * n * hz + 2.0 * n * n * hz + pair
            }
            Stage::TriAttnStarting | Stage::TriAttnEnding => {
                2.0 * pair
                    + n * n * hz
                    + 3.0 * n * n * attn
                    + 3.0 * self.score_elems(ns)
                    + n * n * attn
            }
            Stage::PairTransition => {
                2.0 * pair + n * n * hz + 2.0 * n * n * hz * c.transition_factor as f64
            }
            Stage::StructureModule => pair + n * n,
        };
        elems * FP16_BYTES
    }

    /// [`CostModel::stage_traffic_bytes`] without the score tensor's three
    /// trips: the stage's activation bytes under Table 1's fairness rule
    /// and Fig. 16(b) (eliminating scores is the hardware's advantage,
    /// measured separately), and its traffic under the GPU `chunk` option,
    /// which keeps each score slice on chip.
    pub fn stage_scoreless_bytes(&self, stage: Stage, ns: usize) -> f64 {
        let bytes = self.stage_traffic_bytes(stage, ns);
        if matches!(stage, Stage::TriAttnStarting | Stage::TriAttnEnding) {
            bytes - 3.0 * self.score_elems(ns) * FP16_BYTES
        } else {
            bytes
        }
    }

    /// [`CostModel::stage_scoreless_bytes`] summed over one folding block.
    pub fn block_scoreless_bytes(&self, ns: usize) -> f64 {
        ALL_STAGES
            .iter()
            .filter(|s| s.is_per_block())
            .map(|&s| self.stage_scoreless_bytes(s, ns))
            .sum()
    }

    /// Total activation DRAM traffic (bytes, FP16) for a full prediction —
    /// the paper's "memory footprint" axis (Fig. 16(b)).
    pub fn total_traffic_bytes(&self, ns: usize) -> f64 {
        let per_model: f64 = [Stage::InputEmbedding, Stage::StructureModule]
            .iter()
            .map(|&s| self.stage_traffic_bytes(s, ns))
            .sum();
        let per_block: f64 = ALL_STAGES
            .iter()
            .filter(|s| s.is_per_block())
            .map(|&s| self.stage_traffic_bytes(s, ns))
            .sum();
        per_model + per_block * self.config.blocks as f64 * self.config.recycles as f64
    }

    /// Peak activation residency (bytes, FP16) of the baseline PPM.
    ///
    /// Vanilla execution materialises the per-unit score tensor twice
    /// (scores + softmax output), which dominates; chunked execution keeps
    /// only `rows` query rows of scores live but still holds several full
    /// pair-representation buffers.
    pub fn peak_activation_bytes(&self, ns: usize, mode: ExecMode) -> f64 {
        let n = ns as f64;
        let c = &self.config;
        let pair = self.pair_rep_elems(ns);
        let attn = c.pair_attn_dim() as f64;
        let qkv = 3.0 * n * n * attn;
        match mode {
            ExecMode::Vanilla => {
                let scores = 2.0 * self.score_elems(ns);
                (scores + qkv + 2.0 * pair) * FP16_BYTES
            }
            ExecMode::Chunked { rows } => {
                let live_scores = 2.0 * c.pair_heads as f64 * rows.max(1) as f64 * n * n;
                // z, x, update, and the tri-mul left/right intermediates
                // stay resident across the chunk loop.
                let resident = 3.0 * pair + 2.0 * n * n * c.hz as f64;
                (live_scores + qkv + resident) * FP16_BYTES
            }
        }
    }

    /// Peak activation residency (bytes) for a token-wise engine that never
    /// materialises score tensors (LightNobel's token-wise MHA, §5.4), with
    /// every resident tensor AAQ-encoded: the residual pair stream
    /// (double-buffered) plus the recycling copy of the previous pair state
    /// at Group A, and the left/right triangle operands plus the q/k/v
    /// streams of the in-flight attention unit at Group C.
    pub fn peak_activation_bytes_tokenwise(&self, ns: usize, aaq: &AaqConfig) -> f64 {
        let c = &self.config;
        let tokens = (ns as f64) * (ns as f64);
        let a_bytes = aaq.group_a.token_bytes(c.hz) as f64;
        let c_bytes = aaq.group_c.token_bytes(c.hz) as f64;
        3.0 * tokens * a_bytes + (2.0 + 3.0) * tokens * c_bytes
    }
}

/// Formats a byte count as GiB-style gigabytes (10⁹, as the paper does).
pub fn gb(bytes: f64) -> f64 {
    bytes / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> CostModel {
        CostModel::paper()
    }

    #[test]
    fn weight_bytes_match_table1() {
        // Table 1: baseline weights 7.90 GB at FP16.
        let w = gb(paper().total_weight_bytes_fp16());
        assert!((w - 7.9).abs() < 1.5, "weights {w} GB");
    }

    #[test]
    fn peak_activation_matches_fig4_anchor() {
        // §3.2: at Ns = 2034 the activation size reaches ~144 GB and is
        // tens of times the weight size.
        let m = paper();
        let act = gb(m.peak_activation_bytes(2034, ExecMode::Vanilla));
        assert!(act > 100.0 && act < 190.0, "peak activation {act} GB");
        let ratio = act / gb(m.total_weight_bytes_fp16());
        assert!(ratio > 10.0, "activation/weight ratio {ratio}");
    }

    #[test]
    fn cubic_scaling_of_scores() {
        let m = paper();
        let a = m.score_elems(500);
        let b = m.score_elems(1000);
        assert!((b / a - 8.0).abs() < 1e-9);
    }

    #[test]
    fn tri_attn_dominates_at_long_lengths() {
        // Fig. 3(b): triangular attention becomes ~76 % of runtime for long
        // proteins. In MAC terms the cubic term must dominate the block.
        let m = paper();
        let ns = 1410;
        let attn = 2.0 * m.stage_macs(Stage::TriAttnStarting, ns);
        let per_block: f64 = ALL_STAGES
            .iter()
            .filter(|s| s.is_per_block())
            .map(|&s| m.stage_macs(s, ns))
            .sum();
        assert!(
            attn / per_block > 0.5,
            "tri-attn share {}",
            attn / per_block
        );
    }

    #[test]
    fn pair_dataflow_share_grows_with_length() {
        // Fig. 3: pair-dataflow share rises from ~69 % (77 aa) to ~92 %
        // (1410 aa) of total runtime; in MAC terms it must grow
        // monotonically and strongly.
        let m = paper();
        let share = |ns: usize| m.pair_dataflow_macs(ns) / m.total_macs(ns);
        assert!(share(1410) > share(77));
        assert!(share(1410) > 0.85, "share(1410) = {}", share(1410));
        assert!(share(45212) > 0.99, "PKZILLA share = {}", share(45212));
    }

    #[test]
    fn chunking_cuts_peak_memory() {
        let m = paper();
        let vanilla = m.peak_activation_bytes(2034, ExecMode::Vanilla);
        let chunked = m.peak_activation_bytes(2034, ExecMode::Chunked { rows: 4 });
        assert!(vanilla / chunked > 5.0, "ratio {}", vanilla / chunked);
    }

    #[test]
    fn tokenwise_peak_is_smallest() {
        let m = paper();
        let ns = 2034;
        let chunked = m.peak_activation_bytes(ns, ExecMode::Chunked { rows: 4 });
        let tokenwise = m.peak_activation_bytes_tokenwise(ns, &AaqConfig::paper());
        assert!(chunked > tokenwise, "{chunked} vs {tokenwise}");
    }

    #[test]
    fn total_macs_monotone_in_ns() {
        let m = paper();
        let mut prev = 0.0;
        for ns in [64, 128, 256, 512, 1024, 2048] {
            let t = m.total_macs(ns);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn traffic_grows_cubically_at_scale() {
        let m = paper();
        let r = m.total_traffic_bytes(2000) / m.total_traffic_bytes(1000);
        assert!(r > 6.0 && r < 9.0, "traffic ratio {r}");
    }

    #[test]
    fn embedding_dominates_for_short_sequences_only() {
        // Fig. 3(a) vs (b): the LM embedding share shrinks with length.
        let m = paper();
        let share = |ns: usize| m.stage_macs(Stage::InputEmbedding, ns) / m.total_macs(ns);
        assert!(share(77) > share(1410) * 2.0);
    }

    #[test]
    fn stage_names_unique() {
        let mut set = std::collections::HashSet::new();
        for s in ALL_STAGES {
            assert!(set.insert(s.name()));
        }
    }

    #[test]
    fn gb_conversion() {
        assert_eq!(gb(2e9), 2.0);
    }
}
