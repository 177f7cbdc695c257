//! Roofline classification of the accelerator's pipeline stages.
//!
//! `ln-accel` mirrors each simulated stage into the registry as five
//! gauges — `accel_stage_cycles`, `accel_stage_rmpu_cycles`,
//! `accel_stage_vvpu_cycles`, `accel_stage_hbm_cycles` and
//! `accel_stage_hbm_bytes`, all labelled `{stage="..."}`. Combined with
//! the machine [`Ceilings`] (RMPU peak INT8 TOPS, the 2 TB/s HBM2E
//! bandwidth, the clock), each stage gets the paper's §8 treatment:
//! which resource bounds it, and how close to that resource's peak it
//! runs. A stage's resource cycles are the time it *would* take with
//! only that resource in play; dividing by the stage's total cycles
//! (which include arbitration overhead and fill/drain) yields the
//! attained-vs-peak ratio directly.

use std::collections::BTreeMap;

use ln_obs::MetricValue;

/// Peak-throughput ceilings of the simulated machine, taken from
/// `ln_accel::HwConfig` by callers (this crate depends only on `ln-obs`,
/// so the numbers arrive as plain values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ceilings {
    /// Peak INT8-equivalent TOPS of the RMPU array.
    pub int8_tops: f64,
    /// Peak HBM bandwidth in GB/s.
    pub hbm_gbps: f64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
}

/// Which resource bounds a stage. Mirrors `StageLatency::bound_by` in
/// `ln-accel`: memory wins ties, then RMPU over VVPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The RMPU matrix array is the bottleneck.
    Rmpu,
    /// The VVPU vector units are the bottleneck.
    Vvpu,
    /// HBM bandwidth is the bottleneck.
    Hbm,
}

impl Bound {
    /// Human label used in the dashboard.
    pub fn label(self) -> &'static str {
        match self {
            Bound::Rmpu => "compute (RMPU)",
            Bound::Vvpu => "vector (VVPU)",
            Bound::Hbm => "bandwidth (HBM)",
        }
    }
}

/// One stage's roofline classification.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRoofline {
    /// Stage name (the `stage` label).
    pub stage: String,
    /// Total modeled cycles (arbitration + fill/drain included).
    pub total_cycles: f64,
    /// Cycles the RMPU array alone would need.
    pub rmpu_cycles: f64,
    /// Cycles the VVPU array alone would need.
    pub vvpu_cycles: f64,
    /// Cycles the HBM transfer alone would need.
    pub hbm_cycles: f64,
    /// Encoded bytes moved through HBM.
    pub hbm_bytes: f64,
    /// The bounding resource.
    pub bound: Bound,
}

impl StageRoofline {
    /// Fraction of the RMPU peak attained over the stage's duration.
    pub fn rmpu_frac(&self) -> f64 {
        frac(self.rmpu_cycles, self.total_cycles)
    }

    /// Fraction of the VVPU peak attained over the stage's duration.
    pub fn vvpu_frac(&self) -> f64 {
        frac(self.vvpu_cycles, self.total_cycles)
    }

    /// Fraction of peak HBM bandwidth attained over the stage's duration.
    pub fn hbm_frac(&self) -> f64 {
        frac(self.hbm_cycles, self.total_cycles)
    }
}

fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        (part / whole).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Roofline classification of every stage present in a registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineReport {
    /// The machine ceilings the fractions are relative to.
    pub ceilings: Ceilings,
    /// Per-stage classification, in stage-name order.
    pub stages: Vec<StageRoofline>,
}

fn gauge(snapshot: &BTreeMap<String, MetricValue>, key: &str) -> Option<f64> {
    match snapshot.get(key) {
        Some(MetricValue::Gauge(v)) => Some(*v),
        _ => None,
    }
}

/// Extracts the `stage` label from `accel_stage_cycles{stage="x"}`-style
/// keys; `None` for anything else.
fn stage_of<'a>(key: &'a str, base: &str) -> Option<&'a str> {
    let rest = key.strip_prefix(base)?;
    let rest = rest.strip_prefix("{stage=\"")?;
    rest.strip_suffix("\"}")
}

impl RooflineReport {
    /// Classify every stage with a complete gauge set in `snapshot`.
    ///
    /// Stages missing the per-resource gauges (e.g. a snapshot taken by an
    /// older binary) are skipped rather than misclassified.
    pub fn from_snapshot(snapshot: &BTreeMap<String, MetricValue>, ceilings: Ceilings) -> Self {
        let mut stages = Vec::new();
        for key in snapshot.keys() {
            let Some(stage) = stage_of(key, "accel_stage_cycles") else {
                continue;
            };
            let labels = format!("{{stage=\"{stage}\"}}");
            let (Some(total), Some(rmpu), Some(vvpu), Some(hbm), Some(bytes)) = (
                gauge(snapshot, key),
                gauge(snapshot, &format!("accel_stage_rmpu_cycles{labels}")),
                gauge(snapshot, &format!("accel_stage_vvpu_cycles{labels}")),
                gauge(snapshot, &format!("accel_stage_hbm_cycles{labels}")),
                gauge(snapshot, &format!("accel_stage_hbm_bytes{labels}")),
            ) else {
                continue;
            };
            // Mirror StageLatency::bound_by: memory wins ties, then RMPU.
            let bound = if hbm >= rmpu && hbm >= vvpu {
                Bound::Hbm
            } else if rmpu >= vvpu {
                Bound::Rmpu
            } else {
                Bound::Vvpu
            };
            stages.push(StageRoofline {
                stage: stage.to_string(),
                total_cycles: total,
                rmpu_cycles: rmpu,
                vvpu_cycles: vvpu,
                hbm_cycles: hbm,
                hbm_bytes: bytes,
                bound,
            });
        }
        RooflineReport { ceilings, stages }
    }

    /// How many stages each bound claims: `(rmpu, vvpu, hbm)`.
    pub fn bound_summary(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for s in &self.stages {
            match s.bound {
                Bound::Rmpu => counts.0 += 1,
                Bound::Vvpu => counts.1 += 1,
                Bound::Hbm => counts.2 += 1,
            }
        }
        counts
    }

    /// Deterministic markdown table: one row per stage with the bounding
    /// resource and attained-vs-peak ratios.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## Roofline — ceilings: {:.1} INT8 TOPS (RMPU), {:.0} GB/s (HBM2E), {:.1} GHz\n\n",
            self.ceilings.int8_tops, self.ceilings.hbm_gbps, self.ceilings.clock_ghz
        ));
        if self.stages.is_empty() {
            out.push_str("no accelerator stage gauges in the snapshot\n");
            return out;
        }
        out.push_str("| stage | cycles | bound | RMPU attained | VVPU busy | HBM attained |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for s in &self.stages {
            out.push_str(&format!(
                "| {} | {:.0} | {} | {:.1} TOPS ({:.1}%) | {:.1}% | {:.1} GB/s ({:.1}%) |\n",
                s.stage,
                s.total_cycles,
                s.bound.label(),
                s.rmpu_frac() * self.ceilings.int8_tops,
                s.rmpu_frac() * 100.0,
                s.vvpu_frac() * 100.0,
                s.hbm_frac() * self.ceilings.hbm_gbps,
                s.hbm_frac() * 100.0,
            ));
        }
        let (rmpu, vvpu, hbm) = self.bound_summary();
        out.push_str(&format!(
            "\nbound summary: {rmpu} compute-bound, {vvpu} vector-bound, {hbm} bandwidth-bound\n"
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ceilings() -> Ceilings {
        Ceilings {
            int8_tops: 163.84,
            hbm_gbps: 2000.0,
            clock_ghz: 1.0,
        }
    }

    fn snapshot_with(
        stage: &str,
        total: f64,
        rmpu: f64,
        vvpu: f64,
        hbm: f64,
    ) -> BTreeMap<String, MetricValue> {
        let mut snap = BTreeMap::new();
        let labels = [("stage", stage)];
        snap.insert(
            ln_obs::labeled("accel_stage_cycles", &labels),
            MetricValue::Gauge(total),
        );
        snap.insert(
            ln_obs::labeled("accel_stage_rmpu_cycles", &labels),
            MetricValue::Gauge(rmpu),
        );
        snap.insert(
            ln_obs::labeled("accel_stage_vvpu_cycles", &labels),
            MetricValue::Gauge(vvpu),
        );
        snap.insert(
            ln_obs::labeled("accel_stage_hbm_cycles", &labels),
            MetricValue::Gauge(hbm),
        );
        snap.insert(
            ln_obs::labeled("accel_stage_hbm_bytes", &labels),
            MetricValue::Gauge(hbm * 2000.0),
        );
        snap
    }

    #[test]
    fn classifies_bound_like_the_simulator() {
        let mut snap = snapshot_with("tri_mul_outgoing", 1400.0, 1000.0, 300.0, 600.0);
        snap.extend(snapshot_with("pair_transition", 900.0, 200.0, 300.0, 600.0));
        snap.extend(snapshot_with(
            "tri_attn_starting",
            800.0,
            100.0,
            500.0,
            300.0,
        ));
        let report = RooflineReport::from_snapshot(&snap, ceilings());
        assert_eq!(report.stages.len(), 3);
        let by_name: BTreeMap<&str, &StageRoofline> = report
            .stages
            .iter()
            .map(|s| (s.stage.as_str(), s))
            .collect();
        assert_eq!(by_name["tri_mul_outgoing"].bound, Bound::Rmpu);
        assert_eq!(by_name["pair_transition"].bound, Bound::Hbm);
        assert_eq!(by_name["tri_attn_starting"].bound, Bound::Vvpu);
        assert_eq!(report.bound_summary(), (1, 1, 1));
    }

    #[test]
    fn attained_fractions_are_resource_over_total() {
        let snap = snapshot_with("s", 2000.0, 1000.0, 500.0, 250.0);
        let report = RooflineReport::from_snapshot(&snap, ceilings());
        let s = &report.stages[0];
        assert!((s.rmpu_frac() - 0.5).abs() < 1e-12);
        assert!((s.vvpu_frac() - 0.25).abs() < 1e-12);
        assert!((s.hbm_frac() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn incomplete_gauge_sets_are_skipped() {
        let mut snap = BTreeMap::new();
        snap.insert(
            ln_obs::labeled("accel_stage_cycles", &[("stage", "orphan")]),
            MetricValue::Gauge(100.0),
        );
        let report = RooflineReport::from_snapshot(&snap, ceilings());
        assert!(report.stages.is_empty());
        assert!(report
            .render_markdown()
            .contains("no accelerator stage gauges"));
    }

    #[test]
    fn markdown_is_deterministic() {
        let snap = snapshot_with("tri_mul_outgoing", 1400.0, 1000.0, 300.0, 600.0);
        let a = RooflineReport::from_snapshot(&snap, ceilings()).render_markdown();
        let b = RooflineReport::from_snapshot(&snap, ceilings()).render_markdown();
        assert_eq!(a, b);
        assert!(a.contains("| tri_mul_outgoing | 1400 | compute (RMPU) |"));
    }
}
