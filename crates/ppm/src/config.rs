use crate::PpmError;

/// Configuration of the folding model.
///
/// Defaults mirror ESMFold's folding trunk where it matters to the paper:
/// the pair hidden dimension `Hz` is 128 (the value the RMPU/VVPU hardware
/// is sized for), triangular attention uses 4 heads of dimension 32 (the
/// PE-Lane dataflow target). Numeric experiments use reduced block counts;
/// the [`crate::cost`] model always accounts at paper scale.
#[derive(Debug, Clone, PartialEq)]
pub struct PpmConfig {
    /// Pair-representation hidden dimension `Hz` (paper: 128).
    pub hz: usize,
    /// Sequence-representation hidden dimension `Hm` (paper: 1024; the
    /// numeric default is reduced to keep experiments fast — the cost model
    /// uses [`PpmConfig::paper_scale`]).
    pub hm: usize,
    /// Number of triangular-attention heads (paper hardware targets 4×32).
    pub pair_heads: usize,
    /// Per-head dimension for triangular attention (paper hardware: 32).
    pub pair_head_dim: usize,
    /// Number of sequence-attention heads.
    pub seq_heads: usize,
    /// Number of folding blocks (ESMFold: 48).
    pub blocks: usize,
    /// Number of recycling iterations (1 = single pass).
    pub recycles: usize,
    /// Pair-transition expansion factor (ESMFold: 4).
    pub transition_factor: usize,
    /// Hidden dimension of the triangular-multiplication projections
    /// (ESMFold: equals `hz`).
    pub tri_mul_dim: usize,
    /// Gain applied to each block's residual update. Values below 1 keep
    /// the distogram-carrying residual stream dominant, which is what makes
    /// the untrained-but-engineered trunk predictive.
    pub update_gain: f32,
    /// Low-memory attention: triangular attention takes each (lane, head)
    /// this many query rows at a time (clamped to `Ns`; `None` = the whole
    /// lane), so a thread holds `chunk · Ns` scores, never `Ns²` — the
    /// numeric counterpart of the GPU `chunk` option and, at 1, of the
    /// accelerator's token-wise MHA (§5.4), and what
    /// [`crate::cost::ExecMode::Chunked`] prices. Every row is still
    /// softmaxed whole and tapped: output bits and the bytes a hook counts
    /// do not depend on it.
    pub attention_chunk: Option<usize>,
}

impl PpmConfig {
    /// Paper-scale configuration (ESMFold folding trunk): 48 blocks,
    /// `Hz = 128`, `Hm = 1024`. Used for cost accounting; numerically
    /// executing it on long sequences is exactly the scalability problem
    /// the paper addresses.
    pub fn paper_scale() -> Self {
        PpmConfig {
            hz: 128,
            hm: 1024,
            pair_heads: 4,
            pair_head_dim: 32,
            seq_heads: 8,
            blocks: 48,
            recycles: 3,
            transition_factor: 4,
            tri_mul_dim: 128,
            update_gain: 0.1,
            attention_chunk: None,
        }
    }

    /// Default numeric configuration: full `Hz = 128` (so quantization
    /// behaviour is faithful) with a reduced sequence track and 2 blocks.
    pub fn standard() -> Self {
        PpmConfig {
            hz: 128,
            hm: 256,
            pair_heads: 4,
            pair_head_dim: 32,
            seq_heads: 4,
            blocks: 2,
            recycles: 1,
            transition_factor: 4,
            tri_mul_dim: 128,
            update_gain: 0.1,
            attention_chunk: None,
        }
    }

    /// Minimal configuration for unit tests: one block, narrow tracks.
    pub fn tiny() -> Self {
        PpmConfig {
            hz: 32,
            hm: 48,
            pair_heads: 2,
            pair_head_dim: 16,
            seq_heads: 2,
            blocks: 1,
            recycles: 1,
            transition_factor: 2,
            tri_mul_dim: 32,
            update_gain: 0.1,
            attention_chunk: None,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PpmError::InvalidConfig`] when a dimension is zero or the
    /// attention head geometry is inconsistent.
    pub fn validate(&self) -> Result<(), PpmError> {
        let positive: [(&str, usize); 8] = [
            ("hz", self.hz),
            ("hm", self.hm),
            ("pair_heads", self.pair_heads),
            ("pair_head_dim", self.pair_head_dim),
            ("seq_heads", self.seq_heads),
            ("blocks", self.blocks),
            ("recycles", self.recycles),
            ("transition_factor", self.transition_factor),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(PpmError::InvalidConfig {
                    what: format!("{name} must be positive"),
                });
            }
        }
        if !self.hm.is_multiple_of(self.seq_heads) {
            return Err(PpmError::InvalidConfig {
                what: format!(
                    "hm ({}) must be divisible by seq_heads ({})",
                    self.hm, self.seq_heads
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.update_gain) {
            return Err(PpmError::InvalidConfig {
                what: format!("update_gain ({}) must be in [0, 1]", self.update_gain),
            });
        }
        if self.attention_chunk == Some(0) {
            return Err(PpmError::InvalidConfig {
                what: "attention_chunk must be positive when set".to_owned(),
            });
        }
        Ok(())
    }

    /// Dimension of the attention hidden space (`pair_heads * pair_head_dim`).
    pub fn pair_attn_dim(&self) -> usize {
        self.pair_heads * self.pair_head_dim
    }
}

impl Default for PpmConfig {
    fn default() -> Self {
        PpmConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        PpmConfig::paper_scale().validate().unwrap();
        PpmConfig::standard().validate().unwrap();
        PpmConfig::tiny().validate().unwrap();
    }

    #[test]
    fn paper_scale_matches_esmfold() {
        let c = PpmConfig::paper_scale();
        assert_eq!(c.hz, 128);
        assert_eq!(c.hm, 1024);
        assert_eq!(c.blocks, 48);
        assert_eq!(c.pair_attn_dim(), 128);
    }

    #[test]
    fn zero_dimension_is_rejected() {
        let mut c = PpmConfig::tiny();
        c.hz = 0;
        assert!(matches!(c.validate(), Err(PpmError::InvalidConfig { .. })));
    }

    #[test]
    fn head_divisibility_is_checked() {
        let mut c = PpmConfig::tiny();
        c.hm = 50;
        c.seq_heads = 4;
        assert!(c.validate().is_err());
    }

    #[test]
    fn update_gain_range_checked() {
        let mut c = PpmConfig::tiny();
        c.update_gain = 1.5;
        assert!(c.validate().is_err());
    }
}
