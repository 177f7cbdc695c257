//! The RMPU compute fabric at the bit-chunk level (§5.2).
//!
//! The Reconfigurable Data Aligner splits every operand into 4-bit chunks;
//! a multiply between a `a`-bit activation and a `w`-bit weight costs
//! `(a/4) × (w/4)` *four-bit units*. A PE contributes 16 units per cycle
//! (one full 16×16 multiply), a PE Lane 8 PEs, a PE Cluster 20 lanes with
//! Dynamic Accumulation Logic supporting the 4-lane and 5-lane dot-product
//! groupings, and an RMPU Engine 4 clusters.

use crate::HwConfig;
use ln_quant::scheme::{Bits, QuantScheme};

/// Weight precision used by LightNobel (16-bit fixed point, unquantized
/// information density, §4.1).
pub const WEIGHT_BITS: Bits = Bits::Int16;

/// Four-bit units needed for one dot product between a quantized token of
/// `channels` elements and an unquantized (INT16) weight vector.
///
/// Reproduces the paper's example: 124 INT4 inliers + 4 INT16 outliers vs
/// INT16 weights = `4×124 + 16×4 = 560` units.
pub fn units_per_token_dot(scheme: QuantScheme, channels: usize) -> usize {
    let inliers = channels - scheme.outliers.min(channels);
    let inlier_units =
        inliers * scheme.inlier_bits.four_bit_chunks() * WEIGHT_BITS.four_bit_chunks();
    let outlier_units =
        scheme.outliers * Bits::Int16.four_bit_chunks() * WEIGHT_BITS.four_bit_chunks();
    inlier_units + outlier_units
}

/// Four-bit units for one dot product between *two quantized activations*
/// (the triangle einsum and the attention score/context products): each
/// multiply costs `chunks(a) × chunks(b)`, with outliers at INT16.
pub fn units_per_act_act_dot(a: QuantScheme, b: QuantScheme, channels: usize) -> usize {
    let a_in = channels - a.outliers.min(channels);
    let b_in = channels - b.outliers.min(channels);
    // Average chunk width of each operand, weighted by inlier/outlier mix.
    let a_chunks = (a_in * a.inlier_bits.four_bit_chunks()
        + a.outliers * Bits::Int16.four_bit_chunks()) as f64
        / channels as f64;
    let b_chunks = (b_in * b.inlier_bits.four_bit_chunks()
        + b.outliers * Bits::Int16.four_bit_chunks()) as f64
        / channels as f64;
    (channels as f64 * a_chunks * b_chunks).ceil() as usize
}

/// PE lanes required for one token dot product (ceil of units over the
/// per-lane capacity).
pub fn lanes_per_token_dot(hw: &HwConfig, scheme: QuantScheme, channels: usize) -> usize {
    units_per_token_dot(scheme, channels)
        .div_ceil(hw.four_bit_units_per_lane())
        .max(1)
}

/// Tokens processed per cycle by one PE Cluster under DAL constraints: the
/// cluster groups its 20 lanes into `floor(20 / lanes_per_token)` token
/// slots (the DAL supports the 4- and 5-lane groupings natively; other
/// groupings still work but strand the remainder lanes).
pub fn tokens_per_cluster_cycle(hw: &HwConfig, lanes_per_token: usize) -> usize {
    if lanes_per_token == 0 {
        return 0;
    }
    hw.lanes_per_cluster / lanes_per_token
}

/// Throughput summary of an RMPU for one operand shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmpuThroughput {
    /// PE lanes needed per token dot product.
    pub lanes_per_token: usize,
    /// Token dot products completed per cycle per RMPU.
    pub tokens_per_cycle: usize,
    /// Fraction of the lane fabric doing useful work.
    pub utilization: f64,
}

/// Computes one RMPU's throughput for dot products of quantized tokens of
/// width `channels` under `scheme`.
pub fn rmpu_throughput(hw: &HwConfig, scheme: QuantScheme, channels: usize) -> RmpuThroughput {
    let lanes = lanes_per_token_dot(hw, scheme, channels);
    let per_cluster = tokens_per_cluster_cycle(hw, lanes);
    let tokens_per_cycle = per_cluster * hw.clusters_per_rmpu;
    let used_lanes = per_cluster * lanes * hw.clusters_per_rmpu;
    RmpuThroughput {
        lanes_per_token: lanes,
        tokens_per_cycle,
        utilization: used_lanes as f64 / hw.lanes_per_rmpu() as f64,
    }
}

/// Cycles for a matrix multiplication on `num_rmpus` RMPUs: `m` tokens,
/// each needing `n_out` dot products of `channels` elements.
///
/// Weight-stationary: the weight column is resident; each (token, output)
/// pair is one dot product.
pub fn matmul_cycles(
    hw: &HwConfig,
    scheme: QuantScheme,
    m_tokens: usize,
    channels: usize,
    n_out: usize,
) -> u64 {
    let tp = rmpu_throughput(hw, scheme, channels);
    if tp.tokens_per_cycle == 0 {
        return u64::MAX;
    }
    let dots = m_tokens as u64 * n_out as u64;
    dots.div_ceil((tp.tokens_per_cycle * hw.num_rmpus) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_560_units_5_lanes() {
        // §5.2: 124 INT4 inliers + 4 INT16 outliers vs INT16 weights.
        let hw = HwConfig::paper();
        let scheme = QuantScheme::int4_with_outliers(4);
        assert_eq!(units_per_token_dot(scheme, 128), 560);
        assert_eq!(lanes_per_token_dot(&hw, scheme, 128), 5);
        let tp = rmpu_throughput(&hw, scheme, 128);
        assert_eq!(tp.tokens_per_cycle, 16); // 4 clusters × (20/5)
        assert!((tp.utilization - 1.0).abs() < 1e-9); // 5 divides 20
    }

    #[test]
    fn int8_inliers_need_more_lanes() {
        let hw = HwConfig::paper();
        let s8 = QuantScheme::int8_with_outliers(4);
        let s4 = QuantScheme::int4_with_outliers(4);
        assert!(lanes_per_token_dot(&hw, s8, 128) > lanes_per_token_dot(&hw, s4, 128));
    }

    #[test]
    fn unquantized_tokens_use_16_lanes() {
        // A full INT16 token: 128 × 4 chunks × 4 chunks = 2048 units = 16
        // lanes; an INT8 token needs 8 lanes (the "sums of 8 or 16 PE Lane
        // results" outputs in §5.2).
        let hw = HwConfig::paper();
        let s16 = QuantScheme {
            inlier_bits: Bits::Int16,
            outliers: 0,
        };
        assert_eq!(units_per_token_dot(s16, 128), 2048);
        assert_eq!(lanes_per_token_dot(&hw, s16, 128), 16);
        let s8 = QuantScheme {
            inlier_bits: Bits::Int8,
            outliers: 0,
        };
        assert_eq!(lanes_per_token_dot(&hw, s8, 128), 8);
    }

    #[test]
    fn act_act_int4_dots_are_cheap() {
        let c = QuantScheme::int4_with_outliers(0);
        // INT4 × INT4: one unit per multiply.
        assert_eq!(units_per_act_act_dot(c, c, 128), 128);
        // Mixing in outliers raises the average chunk width.
        let b = QuantScheme::int4_with_outliers(4);
        assert!(units_per_act_act_dot(b, b, 128) > 128);
    }

    #[test]
    fn four_lane_grouping_reaches_20_tokens() {
        // §5.2: "a single RMPU Engine supports up to 20 tokens
        // simultaneously" — the INT4+0 (4-lane) configuration.
        let hw = HwConfig::paper();
        let scheme = QuantScheme::int4_with_outliers(0); // 512 units → 4 lanes
        let tp = rmpu_throughput(&hw, scheme, 128);
        assert_eq!(tp.lanes_per_token, 4);
        assert_eq!(tp.tokens_per_cycle, 20);
        assert!((tp.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn matmul_cycles_scale_linearly() {
        let hw = HwConfig::paper();
        let scheme = QuantScheme::int4_with_outliers(4);
        let a = matmul_cycles(&hw, scheme, 1000, 128, 128);
        let b = matmul_cycles(&hw, scheme, 2000, 128, 128);
        assert!((b as f64 / a as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn odd_lane_groupings_strand_lanes() {
        let hw = HwConfig::paper();
        // 3 lanes per token: 6 tokens × 3 = 18 lanes used of 20.
        assert_eq!(tokens_per_cluster_cycle(&hw, 3), 6);
        let used = 6 * 3;
        assert!(used < hw.lanes_per_cluster);
    }
}
