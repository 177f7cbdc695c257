//! Design-space exploration drivers (Fig. 11: AAQ schemes, Fig. 12:
//! hardware configuration).

use crate::accuracy::AccuracyEvaluator;
use ln_accel::{Accelerator, HwConfig};
use ln_datasets::ProteinRecord;
use ln_ppm::PpmError;
use ln_quant::scheme::{AaqConfig, Bits, Group, QuantScheme};

/// One point of the Fig. 11 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AaqDsePoint {
    /// The group being swept.
    pub group: Group,
    /// The candidate scheme for that group.
    pub scheme: QuantScheme,
    /// Mean TM-Score of the quantized prediction vs the FP32 prediction.
    pub tm_vs_baseline: f64,
    /// Relative quantization RMSE at the swept group's taps.
    pub relative_rmse: f64,
    /// Mean encoded bytes per token under the candidate.
    pub token_bytes: usize,
    /// The efficiency metric (see [`efficiency`]).
    pub efficiency: f64,
}

/// The relative-RMSE tolerance of an activation group.
///
/// The residual stream (Group A) *is* the model's memory: its quantization
/// error lands in the final pair representation undamped (we measure an
/// end-to-end amplification of ~2.3x over the per-tap error), so its
/// tolerance is tight. Groups B and C only reach the output through the
/// gated, `update_gain`-scaled block updates (>10x attenuation), so they
/// tolerate more than an order of magnitude higher local error — the
/// asymmetry that makes *adaptive* quantization the right design (§4.2).
pub fn group_tolerance(group: Group) -> f64 {
    match group {
        Group::A => 0.012,
        Group::B | Group::C => 0.30,
    }
}

/// The paper's efficiency metric shape: compression wins, but accuracy
/// degradation is punished steeply ("decreases significantly as TM-Score
/// drops", §7.1).
///
/// Accuracy has two terms: the TM loss itself, and — because at our trunk
/// depth near-lossless schemes all sit below TM measurement resolution —
/// the relative quantization RMSE at the swept group's taps, judged
/// against that group's tolerance ([`group_tolerance`]).
pub fn efficiency(
    compression: f64,
    tm_vs_baseline: f64,
    relative_rmse: f64,
    tolerance: f64,
) -> f64 {
    let tm_loss = (1.0 - tm_vs_baseline).max(0.0);
    let penalty = (tm_loss / 0.002).powi(2) + (relative_rmse / tolerance).powi(2);
    compression / (1.0 + penalty)
}

/// The candidate grid of Fig. 11: inlier bits × outlier budgets.
pub fn candidate_schemes() -> Vec<QuantScheme> {
    let mut v = Vec::new();
    for bits in [Bits::Int4, Bits::Int8] {
        for outliers in [0usize, 4, 8, 16, 32] {
            v.push(QuantScheme {
                inlier_bits: bits,
                outliers,
            });
        }
    }
    v
}

/// Runs the Fig. 11 sweep for one group, measuring accuracy with the given
/// evaluator over the given records. The other two groups stay at the
/// paper configuration. Each record's FP32 reference is folded once and
/// every candidate is scored against it.
///
/// # Errors
///
/// Propagates [`PpmError`] from the folding model.
pub fn sweep_group(
    eval: &AccuracyEvaluator,
    records: &[&ProteinRecord],
    group: Group,
    channels: usize,
) -> Result<Vec<AaqDsePoint>, PpmError> {
    use crate::hook::AaqHook;
    let candidates = candidate_schemes();
    // Per record, per candidate: (TM vs the reference, relative RMSE).
    let per_record = eval.each_reference(records, |_, reference| {
        candidates
            .iter()
            .map(|&scheme| {
                let mut hook = AaqHook::new(AaqConfig::paper().with_scheme(group, scheme));
                let (scored, _) = eval.score(reference, None, &mut hook)?;
                Ok((scored.tm_vs_baseline, hook.relative_rmse(group)))
            })
            .collect::<Result<Vec<_>, PpmError>>()
    })?;
    let n = records.len().max(1) as f64;
    let points = candidates.iter().enumerate().map(|(c, &scheme)| {
        let mut tm_sum = 0.0;
        let mut rmse_sum = 0.0;
        for (tm, rmse) in per_record.iter().map(|r| r[c]) {
            tm_sum += tm;
            rmse_sum += rmse;
        }
        let tm = tm_sum / n;
        let rho = rmse_sum / n;
        AaqDsePoint {
            group,
            scheme,
            tm_vs_baseline: tm,
            relative_rmse: rho,
            token_bytes: scheme.token_bytes(channels),
            efficiency: efficiency(
                scheme.compression_vs_fp16(channels),
                tm,
                rho,
                group_tolerance(group),
            ),
        }
    });
    Ok(points.collect())
}

/// One point of the Fig. 12 hardware sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwDsePoint {
    /// RMPU count.
    pub rmpus: usize,
    /// VVPUs per RMPU.
    pub vvpus_per_rmpu: usize,
    /// Mean folding latency (seconds) over the probe workload.
    pub seconds: f64,
}

/// Fig. 12(a): latency vs VVPUs-per-RMPU at fixed RMPU counts.
pub fn sweep_vvpus(rmpus: usize, lengths: &[usize]) -> Vec<HwDsePoint> {
    (1..=8)
        .map(|v| {
            let accel =
                Accelerator::new(HwConfig::paper().with_rmpus(rmpus).with_vvpus_per_rmpu(v));
            let seconds = mean_latency(&accel, lengths);
            HwDsePoint {
                rmpus,
                vvpus_per_rmpu: v,
                seconds,
            }
        })
        .collect()
}

/// Fig. 12(b): latency vs RMPU count at 4 VVPUs per RMPU.
pub fn sweep_rmpus(lengths: &[usize]) -> Vec<HwDsePoint> {
    [1usize, 2, 4, 8, 16, 32, 64, 128]
        .iter()
        .map(|&r| {
            let accel = Accelerator::new(HwConfig::paper().with_rmpus(r));
            HwDsePoint {
                rmpus: r,
                vvpus_per_rmpu: 4,
                seconds: mean_latency(&accel, lengths),
            }
        })
        .collect()
}

fn mean_latency(accel: &Accelerator, lengths: &[usize]) -> f64 {
    let total: f64 = lengths
        .iter()
        .map(|&ns| accel.simulate(ns).total_seconds())
        .sum();
    total / lengths.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_datasets::{Dataset, Registry};

    #[test]
    fn efficiency_prefers_compression_at_equal_accuracy() {
        assert!(efficiency(4.0, 1.0, 0.0, 0.3) > efficiency(2.0, 1.0, 0.0, 0.3));
    }

    #[test]
    fn efficiency_punishes_accuracy_loss_steeply() {
        // A 4x-compression scheme that costs 0.01 TM must lose to a 2x
        // scheme that is lossless.
        assert!(efficiency(2.0, 1.0, 0.0, 0.3) > efficiency(4.0, 0.99, 0.0, 0.3));
        // But noise-level loss (0.0005) barely matters.
        assert!(efficiency(4.0, 0.9995, 0.0, 0.3) > efficiency(2.0, 1.0, 0.0, 0.3));
        // Quantization noise is judged against the group tolerance: 20%
        // relative error at a 6% tolerance kills a 4x scheme.
        assert!(efficiency(2.0, 1.0, 0.01, 0.06) > efficiency(4.0, 1.0, 0.20, 0.06));
    }

    #[test]
    fn group_tolerances_reflect_dataflow_roles() {
        assert!(group_tolerance(Group::A) < group_tolerance(Group::B) / 10.0);
        assert_eq!(group_tolerance(Group::B), group_tolerance(Group::C));
    }

    #[test]
    fn candidate_grid_matches_fig11_axes() {
        let c = candidate_schemes();
        assert_eq!(c.len(), 10);
        assert!(c.contains(&QuantScheme::int8_with_outliers(4))); // A optimum
        assert!(c.contains(&QuantScheme::int4_with_outliers(4))); // B optimum
        assert!(c.contains(&QuantScheme::int4_with_outliers(0))); // C optimum
    }

    #[test]
    fn hw_sweeps_produce_monotone_improvements_then_flatten() {
        let lengths = [256usize, 512];
        let rmpus = sweep_rmpus(&lengths);
        assert_eq!(rmpus.len(), 8);
        for w in rmpus.windows(2) {
            assert!(w[1].seconds <= w[0].seconds * 1.001, "{w:?}");
        }
        let vvpus = sweep_vvpus(32, &lengths);
        assert_eq!(vvpus.len(), 8);
        // Fig. 12(a): saturates by 4 VVPUs per RMPU.
        let at4 = vvpus[3].seconds;
        let at8 = vvpus[7].seconds;
        assert!(at4 / at8 < 1.15, "{at4} vs {at8}");
    }

    #[test]
    fn paper_schemes_win_their_groups() {
        let reg = Registry::standard();
        let recs: Vec<&ln_datasets::ProteinRecord> = reg
            .dataset(Dataset::Cameo)
            .records()
            .iter()
            .take(1)
            .collect();
        let eval = AccuracyEvaluator::fast();
        for (group, best) in [
            (Group::A, QuantScheme::int8_with_outliers(4)),
            (Group::B, QuantScheme::int4_with_outliers(4)),
            (Group::C, QuantScheme::int4_with_outliers(0)),
        ] {
            let points = sweep_group(&eval, &recs, group, 128).expect("sweep runs");
            let winner = points
                .iter()
                .max_by(|a, b| a.efficiency.partial_cmp(&b.efficiency).expect("finite"))
                .expect("non-empty");
            // The paper's optimum must be at least near-optimal (within 10%).
            let paper_point = points.iter().find(|p| p.scheme == best).expect("in grid");
            assert!(
                paper_point.efficiency >= 0.9 * winner.efficiency,
                "group {group:?}: paper {} vs winner {} ({})",
                paper_point.efficiency,
                winner.efficiency,
                winner.scheme
            );
        }
    }
}
