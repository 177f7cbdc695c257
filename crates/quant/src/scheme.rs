//! Quantization schemes and the AAQ per-group configuration.

use crate::QuantError;
use std::fmt;

/// Inlier precision of a quantization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bits {
    /// 4-bit signed integers (packed two per byte).
    Int4,
    /// 8-bit signed integers.
    Int8,
    /// 16-bit signed integers (the paper's weight/outlier precision).
    Int16,
}

impl Bits {
    /// Bit width.
    pub const fn width(self) -> usize {
        match self {
            Bits::Int4 => 4,
            Bits::Int8 => 8,
            Bits::Int16 => 16,
        }
    }

    /// Largest representable magnitude (`2^(m-1) - 1`, Eq. 1).
    pub const fn max_level(self) -> i32 {
        (1 << (self.width() - 1)) - 1
    }

    /// Cost of a multiply in 4-bit-unit terms (bit-serial RMPU accounting:
    /// a `w`-bit operand splits into `w/4` chunks).
    pub fn four_bit_chunks(self) -> usize {
        self.width() / 4
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INT{}", self.width())
    }
}

/// A rung of the AAQ activation-precision ladder, as seen by a *serving*
/// layer deciding how to route a request under memory pressure.
///
/// The full [`AaqConfig`] describes per-group schemes; `ActPrecision`
/// collapses that to the coarse question capacity planning asks: what
/// fraction of an FP32 activation footprint does this run need? `Fp32`
/// models an unquantized baseline backend, `Int8` a uniformly-INT8
/// activation regime, and `Int4` the paper's most aggressive rung
/// (Fig. 11's C-group scheme applied everywhere). Degrading down the
/// ladder trades activation fidelity for memory headroom — the dynamic
/// counterpart of what MEFold/PTQ4Protein do statically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ActPrecision {
    /// Full-precision activations (no AAQ): scale 1.0.
    Fp32,
    /// INT8 activations: ~4× smaller than FP32.
    Int8,
    /// INT4 activations: ~8× smaller than FP32 (the floor of the ladder).
    Int4,
}

impl ActPrecision {
    /// The ladder from most to least precise.
    pub const LADDER: [ActPrecision; 3] =
        [ActPrecision::Fp32, ActPrecision::Int8, ActPrecision::Int4];

    /// Activation-footprint multiplier relative to FP32.
    pub fn activation_scale(self) -> f64 {
        match self {
            ActPrecision::Fp32 => 1.0,
            ActPrecision::Int8 => 0.25,
            ActPrecision::Int4 => 0.125,
        }
    }

    /// The next rung down the ladder, or `None` at the INT4 floor.
    pub fn degrade(self) -> Option<ActPrecision> {
        match self {
            ActPrecision::Fp32 => Some(ActPrecision::Int8),
            ActPrecision::Int8 => Some(ActPrecision::Int4),
            ActPrecision::Int4 => None,
        }
    }

    /// Whether this rung is below full precision.
    pub fn is_degraded(self) -> bool {
        self != ActPrecision::Fp32
    }

    /// Stable lowercase label for metric names and trace vocabulary
    /// (`"fp32"` / `"int8"` / `"int4"`): the single source the serving
    /// layer and ln-watch share, so label-keyed series line up.
    pub fn label(self) -> &'static str {
        match self {
            ActPrecision::Fp32 => "fp32",
            ActPrecision::Int8 => "int8",
            ActPrecision::Int4 => "int4",
        }
    }
}

impl fmt::Display for ActPrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActPrecision::Fp32 => write!(f, "FP32"),
            ActPrecision::Int8 => write!(f, "INT8"),
            ActPrecision::Int4 => write!(f, "INT4"),
        }
    }
}

/// A token-wise quantization scheme: inlier precision plus a dynamic
/// outlier budget (top-k values kept at INT16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantScheme {
    /// Inlier precision.
    pub inlier_bits: Bits,
    /// Number of outliers handled per token (k of the runtime top-k).
    pub outliers: usize,
}

impl QuantScheme {
    /// INT8 inliers with `k` outliers.
    pub fn int8_with_outliers(k: usize) -> Self {
        QuantScheme {
            inlier_bits: Bits::Int8,
            outliers: k,
        }
    }

    /// INT4 inliers with `k` outliers.
    pub fn int4_with_outliers(k: usize) -> Self {
        QuantScheme {
            inlier_bits: Bits::Int4,
            outliers: k,
        }
    }

    /// Validates the scheme against a token width.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] when the outlier budget is not
    /// below the channel count (at least one inlier must remain to define a
    /// scaling factor).
    pub fn validate(&self, channels: usize) -> Result<(), QuantError> {
        if self.outliers >= channels {
            return Err(QuantError::InvalidScheme {
                what: format!(
                    "outlier budget {} must be below channel count {channels}",
                    self.outliers
                ),
            });
        }
        Ok(())
    }

    /// Encoded size in bytes of one quantized token of `channels` values
    /// under the Fig. 7 layout: packed inliers, INT16 outliers, the f32
    /// scaling factor pair (inlier + outlier scale), and u8 outlier indices.
    pub fn token_bytes(&self, channels: usize) -> usize {
        let inliers = channels - self.outliers.min(channels);
        let inlier_bytes = (inliers * self.inlier_bits.width()).div_ceil(8);
        let outlier_bytes = self.outliers * 2;
        let scale_bytes = if self.outliers > 0 { 8 } else { 4 };
        let index_bytes = self.outliers;
        inlier_bytes + outlier_bytes + scale_bytes + index_bytes
    }

    /// Compression ratio against an FP16 token.
    pub fn compression_vs_fp16(&self, channels: usize) -> f64 {
        (channels * 2) as f64 / self.token_bytes(channels) as f64
    }
}

impl fmt::Display for QuantScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}o", self.inlier_bits, self.outliers)
    }
}

/// The paper's activation classification (Fig. 6(c)); `ln-ppm` tags every
/// tap with one (`ln_ppm::taps::ActivationGroup` is this type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Group {
    /// Pre-LayerNorm residual-stream activations.
    A,
    /// Post-LayerNorm, pre-linear activations.
    B,
    /// All other quantized activations.
    C,
}

impl Group {
    /// Position in per-group tables ordered A, B, C.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Group::A => "A",
            Group::B => "B",
            Group::C => "C",
        })
    }
}

/// The full AAQ configuration: one scheme per activation group.
///
/// # Example
///
/// ```
/// use ln_quant::scheme::{AaqConfig, Bits, Group};
///
/// let aaq = AaqConfig::paper();
/// assert_eq!(aaq.scheme_for(Group::A).inlier_bits, Bits::Int8);
/// assert_eq!(aaq.scheme_for(Group::C).outliers, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AaqConfig {
    /// Scheme for Group A (residual streams).
    pub group_a: QuantScheme,
    /// Scheme for Group B (post-LayerNorm).
    pub group_b: QuantScheme,
    /// Scheme for Group C (projections/gates/scores).
    pub group_c: QuantScheme,
}

impl AaqConfig {
    /// The configuration the paper's DSE selects (Fig. 11): A = INT8 + 4,
    /// B = INT4 + 4, C = INT4 + 0.
    pub fn paper() -> Self {
        AaqConfig {
            group_a: QuantScheme::int8_with_outliers(4),
            group_b: QuantScheme::int4_with_outliers(4),
            group_c: QuantScheme::int4_with_outliers(0),
        }
    }

    /// The scheme for a group.
    pub fn scheme_for(&self, group: Group) -> QuantScheme {
        match group {
            Group::A => self.group_a,
            Group::B => self.group_b,
            Group::C => self.group_c,
        }
    }

    /// Replaces the scheme of one group (used by the Fig. 11 DSE sweep).
    pub fn with_scheme(mut self, group: Group, scheme: QuantScheme) -> Self {
        match group {
            Group::A => self.group_a = scheme,
            Group::B => self.group_b = scheme,
            Group::C => self.group_c = scheme,
        }
        self
    }
}

impl Default for AaqConfig {
    fn default() -> Self {
        AaqConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_properties() {
        assert_eq!(Bits::Int4.max_level(), 7);
        assert_eq!(Bits::Int8.max_level(), 127);
        assert_eq!(Bits::Int16.max_level(), 32767);
        assert_eq!(Bits::Int4.four_bit_chunks(), 1);
        assert_eq!(Bits::Int16.four_bit_chunks(), 4);
        assert_eq!(Bits::Int8.to_string(), "INT8");
    }

    #[test]
    fn token_bytes_hand_computed() {
        // 128 channels, INT8 + 4 outliers: 124 inlier bytes + 8 outlier
        // bytes + 8 scale bytes + 4 index bytes = 144.
        let s = QuantScheme::int8_with_outliers(4);
        assert_eq!(s.token_bytes(128), 124 + 8 + 8 + 4);
        // INT4 + 0 outliers: 64 + 4 = 68.
        let s = QuantScheme::int4_with_outliers(0);
        assert_eq!(s.token_bytes(128), 64 + 4);
        // INT4 + 4: 62 + 8 + 8 + 4 = 82.
        let s = QuantScheme::int4_with_outliers(4);
        assert_eq!(s.token_bytes(128), 62 + 8 + 8 + 4);
    }

    #[test]
    fn compression_beats_fp16() {
        for s in [
            QuantScheme::int8_with_outliers(4),
            QuantScheme::int4_with_outliers(4),
            QuantScheme::int4_with_outliers(0),
        ] {
            assert!(s.compression_vs_fp16(128) > 1.5, "{s}");
        }
        // INT4+0 approaches 4x next to FP16 (scale overhead only).
        assert!(QuantScheme::int4_with_outliers(0).compression_vs_fp16(128) > 3.5);
    }

    #[test]
    fn validate_rejects_outlier_flood() {
        assert!(QuantScheme::int8_with_outliers(128).validate(128).is_err());
        assert!(QuantScheme::int8_with_outliers(127).validate(128).is_ok());
    }

    #[test]
    fn paper_config_matches_fig11() {
        let c = AaqConfig::paper();
        assert_eq!(c.group_a, QuantScheme::int8_with_outliers(4));
        assert_eq!(c.group_b, QuantScheme::int4_with_outliers(4));
        assert_eq!(c.group_c, QuantScheme::int4_with_outliers(0));
    }

    #[test]
    fn with_scheme_replaces_one_group() {
        let c = AaqConfig::paper().with_scheme(Group::B, QuantScheme::int8_with_outliers(8));
        assert_eq!(c.group_b.outliers, 8);
        assert_eq!(c.group_a, AaqConfig::paper().group_a);
    }

    #[test]
    fn display_format() {
        assert_eq!(QuantScheme::int4_with_outliers(4).to_string(), "INT4+4o");
    }

    #[test]
    fn precision_ladder_descends_to_a_floor() {
        assert_eq!(ActPrecision::Fp32.degrade(), Some(ActPrecision::Int8));
        assert_eq!(ActPrecision::Int8.degrade(), Some(ActPrecision::Int4));
        assert_eq!(ActPrecision::Int4.degrade(), None);
        assert_eq!(ActPrecision::LADDER.len(), 3);
        // Scales strictly shrink down the ladder.
        for w in ActPrecision::LADDER.windows(2) {
            assert!(w[0].activation_scale() > w[1].activation_scale());
        }
        assert!(!ActPrecision::Fp32.is_degraded());
        assert!(ActPrecision::Int4.is_degraded());
        assert_eq!(ActPrecision::Int4.to_string(), "INT4");
    }
}
