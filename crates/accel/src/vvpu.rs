//! The Versatile Vector Processing Unit (§5.3): its cycle model. The
//! outlier selection of its runtime quantization — the bitonic top-k
//! network of [`crate::bitonic`] — is cross-validated against `ln-quant`'s
//! software quantizer in this module's tests.

use crate::bitonic;
use crate::HwConfig;
use ln_quant::scheme::QuantScheme;

/// Vector operations the VVPU executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorOp {
    /// Layer normalisation of one token (two reduction passes + scale).
    LayerNorm,
    /// Softmax over one row (max via top-1, exponent LUT, sum, divide).
    Softmax,
    /// Residual addition of one token.
    ResidualAdd,
    /// Runtime quantization of one token (top-k sort, scale, reorder, pack).
    Quantize {
        /// The scheme being applied (drives the top-k depth).
        scheme: QuantScheme,
    },
    /// Dequantize-and-accumulate of one partial result token.
    DequantAccumulate,
}

/// Cycle cost of one vector operation over a token of `channels` elements
/// on a single VVPU.
///
/// The SIMD width covers one full token per pass (`Hz = 128` lanes), so
/// costs count passes plus reduction/LUT/network latencies:
///
/// * reductions use a `log2(width)` adder tree,
/// * softmax exponentials use the two-level LUT (1 cycle/element pass),
/// * top-k runs the bitonic network (`bitonic::num_stages`) — the LCN then
///   reorders values in 2 passes and the SSU formats the block.
pub fn op_cycles(hw: &HwConfig, op: VectorOp, channels: usize) -> u64 {
    let width = hw.simd_lanes_per_vvpu.max(1);
    let passes = channels.div_ceil(width) as u64;
    let tree = (width as f64).log2().ceil() as u64;
    match op {
        VectorOp::LayerNorm => {
            // mean reduce + variance reduce + normalise pass.
            2 * (passes + tree) + passes
        }
        VectorOp::Softmax => {
            // max (top-1 via the sorter's first bitonic merge ≈ tree), exp
            // LUT pass, sum reduce, divide pass.
            tree + passes + (passes + tree) + passes
        }
        VectorOp::ResidualAdd => passes,
        VectorOp::Quantize { scheme } => {
            let sort = if scheme.outliers > 0 {
                bitonic::num_stages(channels.next_power_of_two()) as u64
            } else {
                // No outliers: only the max (scale) is needed.
                tree
            };
            // scale pass + LCN reorder (2) + SSU formatting (2).
            sort + passes + 2 + 2
        }
        VectorOp::DequantAccumulate => 2 * passes,
    }
}

/// Cycles for `tokens` independent vector ops spread over all VVPUs.
pub fn batch_cycles(hw: &HwConfig, op: VectorOp, channels: usize, tokens: u64) -> u64 {
    let per_token = op_cycles(hw, op, channels);
    let vvpus = hw.total_vvpus() as u64;
    (tokens * per_token).div_ceil(vvpus.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_quant::scheme::AaqConfig;
    use ln_quant::tensor::QuantizedTensor;
    use ln_tensor::rng::{self, Rng, SliceRandom};
    use ln_tensor::Tensor2;

    #[test]
    fn quantize_cost_includes_sorting_network() {
        let hw = HwConfig::paper();
        let with_outliers = op_cycles(
            &hw,
            VectorOp::Quantize {
                scheme: QuantScheme::int8_with_outliers(4),
            },
            128,
        );
        let without = op_cycles(
            &hw,
            VectorOp::Quantize {
                scheme: QuantScheme::int8_with_outliers(0),
            },
            128,
        );
        assert!(with_outliers > without);
        // The 128-wide bitonic network is 28 stages.
        assert_eq!(with_outliers - without, 28 - 7);
    }

    #[test]
    fn layer_norm_cost_is_small_for_one_token() {
        let hw = HwConfig::paper();
        let c = op_cycles(&hw, VectorOp::LayerNorm, 128);
        assert!(c < 30, "{c}");
    }

    #[test]
    fn batch_cycles_scale_with_vvpus() {
        let hw1 = HwConfig::paper().with_vvpus_per_rmpu(1);
        let hw4 = HwConfig::paper().with_vvpus_per_rmpu(4);
        let a = batch_cycles(&hw1, VectorOp::Softmax, 128, 100_000);
        let b = batch_cycles(&hw4, VectorOp::Softmax, 128, 100_000);
        assert!((a as f64 / b as f64 - 4.0).abs() < 0.05);
    }

    #[test]
    fn multi_pass_for_wide_rows() {
        let hw = HwConfig::paper();
        let narrow = op_cycles(&hw, VectorOp::Softmax, 128);
        let wide = op_cycles(&hw, VectorOp::Softmax, 1024);
        // 8 element passes vs 1, but tree latencies amortise: > 2x.
        assert!(wide > 2 * narrow, "{wide} vs {narrow}");
    }

    #[test]
    fn bitonic_network_selects_the_quantizers_outliers() {
        // Tie-free 128-channel tokens (all magnitudes distinct), so the
        // network's index set and the software selection cannot differ by
        // a tie rule: the claim `ln_quant::token`'s module docs make.
        for seed in 0..16u64 {
            let mut rng = rng::stream_indexed("accel/vvpu/topk", seed);
            let mut magnitudes: Vec<f32> = (1..=128).map(|i| i as f32 * 0.37).collect();
            magnitudes.shuffle(&mut rng);
            let values: Vec<f32> = magnitudes
                .into_iter()
                .map(|m| if rng.gen::<bool>() { m } else { -m })
                .collect();
            let aaq = AaqConfig::paper();
            let token = Tensor2::from_vec(1, 128, values.clone()).expect("one row");
            for scheme in [aaq.group_a, aaq.group_b, aaq.group_c] {
                let mut network = bitonic::top_k_abs(&values, scheme.outliers);
                network.sort_unstable();
                let encoded = QuantizedTensor::from_tensor(&token, scheme);
                let software: Vec<usize> =
                    encoded.outliers(0).1.iter().map(|&i| i as usize).collect();
                assert_eq!(network, software, "{scheme}, seed {seed}");
            }
        }
    }
}
