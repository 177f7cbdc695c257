//! Modeled per-request accuracy: what worst-layer relative RMSE a request
//! served at a given precision rung is expected to carry.
//!
//! The serving layer decides *precision*, not per-layer schemes, and it
//! cannot afford to replay the model per request — so the accuracy stats
//! it attaches to each response come from this closed-form curve, which is
//! calibrated against the measured ledger on the golden CAMEO fold
//! (EXPERIMENTS.md): uniform INT8+4 encode/decode sits at a few ×10⁻³
//! relative RMSE, uniform INT4+4 at a few ×10⁻², and the error grows
//! mildly with sequence length as longer tokens raise the per-token
//! dynamic range the shared scale must cover.
//!
//! The curve is deterministic and monotone in both precision and length,
//! which is all the SLO layer needs: it never crosses the FP32 floor of
//! exactly 0, and a fleet running INT4 on long sequences reliably sits
//! above an INT8 fleet on short ones.

use ln_quant::scheme::ActPrecision;

use crate::bucket::length_bucket_rank;

/// Relative RMSE of uniform INT8+4-outlier activations on the shortest
/// length bucket (calibration point, golden CAMEO fold).
const INT8_BASE_RMSE: f64 = 4.0e-3;

/// Relative RMSE of uniform INT4+4-outlier activations on the shortest
/// length bucket (calibration point, golden CAMEO fold).
const INT4_BASE_RMSE: f64 = 3.2e-2;

/// Per-length-bucket-rank growth of the base RMSE (12.5% per rank).
const LENGTH_RMSE_GROWTH: f64 = 0.125;

/// Modeled worst-layer relative RMSE for a request of `length` residues
/// served at `precision`. FP32 is exactly 0; the quantized rungs scale
/// their calibrated base by `1 + 0.125 × bucket rank`.
pub fn modeled_worst_rmse(precision: ActPrecision, length: usize) -> f64 {
    let base = match precision {
        ActPrecision::Fp32 => return 0.0,
        ActPrecision::Int8 => INT8_BASE_RMSE,
        ActPrecision::Int4 => INT4_BASE_RMSE,
    };
    base * (1.0 + LENGTH_RMSE_GROWTH * length_bucket_rank(length) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_is_exactly_zero() {
        assert_eq!(modeled_worst_rmse(ActPrecision::Fp32, 10_000), 0.0);
    }

    #[test]
    fn monotone_in_precision_and_length() {
        for len in [32usize, 300, 1500, 9000] {
            let fp32 = modeled_worst_rmse(ActPrecision::Fp32, len);
            let int8 = modeled_worst_rmse(ActPrecision::Int8, len);
            let int4 = modeled_worst_rmse(ActPrecision::Int4, len);
            assert!(fp32 < int8 && int8 < int4, "ladder ordering at len {len}");
        }
        let mut last = 0.0;
        for len in [32usize, 300, 600, 1500, 3000, 5000, 9000] {
            let r = modeled_worst_rmse(ActPrecision::Int4, len);
            assert!(r >= last, "rmse non-decreasing in length");
            last = r;
        }
    }

    #[test]
    fn same_bucket_same_rmse() {
        assert_eq!(
            modeled_worst_rmse(ActPrecision::Int8, 10),
            modeled_worst_rmse(ActPrecision::Int8, 256),
        );
    }
}
