//! The stage-level performance model of LightNobel.
//!
//! For every Pair-Representation dataflow stage the model computes three
//! pipelined resource times — RMPU compute, VVPU vector work, and HBM
//! traffic of the *encoded* (AAQ-quantized) activations — and takes their
//! maximum plus a fill/drain term, per the paper's methodology (§6). The
//! token-wise MHA (§5.4) never writes score tensors to memory, which is
//! where the accelerator's bandwidth advantage over the GPUs comes from.

use crate::hbm::{AccessPattern, HbmModel};
use crate::pe;
use crate::vvpu::{self, VectorOp};
use crate::HwConfig;
use ln_ppm::cost::{CostModel, Stage, ALL_STAGES};
use ln_ppm::PpmConfig;
use ln_quant::scheme::{AaqConfig, QuantScheme};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Pipeline fill/drain overhead charged once per stage invocation, in
/// cycles (scratchpad double-buffer priming + crossbar setup).
const FILL_DRAIN_CYCLES: u64 = 400;

/// Multiplier on the binding resource time for GCN arbitration and
/// RMPU↔VVPU hand-off stalls (cross-validated against the paper's
/// RTL-vs-simulator discrepancy analysis, §6).
const ARBITRATION_FACTOR: f64 = 1.35;

/// Per-stage observability handles, resolved once against the global
/// registry so the `simulate()` hot path (it sits inside binary searches
/// like `max_single_length`) only does atomic stores.
struct StageObs {
    cycles: ln_obs::Gauge,
    hbm_bytes: ln_obs::Gauge,
    fusion_saved_bytes: ln_obs::Gauge,
}

struct AccelObs {
    simulations: ln_obs::Counter,
    hbm_bandwidth_gbps: ln_obs::Gauge,
    hbm_peak_bytes: ln_obs::Gauge,
    stages: BTreeMap<&'static str, StageObs>,
}

fn accel_obs() -> &'static AccelObs {
    static OBS: OnceLock<AccelObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = ln_obs::registry();
        let stages = ALL_STAGES
            .iter()
            .filter(|s| s.is_per_block())
            .map(|&s| {
                let name = s.name();
                let labels = [("stage", name)];
                (
                    name,
                    StageObs {
                        cycles: reg.gauge(&ln_obs::labeled("accel_stage_cycles", &labels)),
                        hbm_bytes: reg.gauge(&ln_obs::labeled("accel_stage_hbm_bytes", &labels)),
                        fusion_saved_bytes: reg
                            .gauge(&ln_obs::labeled("accel_stage_fusion_saved_bytes", &labels)),
                    },
                )
            })
            .collect();
        AccelObs {
            simulations: reg.counter("accel_simulations_total"),
            hbm_bandwidth_gbps: reg.gauge("accel_hbm_bandwidth_gbps"),
            hbm_peak_bytes: reg.gauge("accel_hbm_peak_bytes"),
            stages,
        }
    })
}

/// Mirrors a simulation's per-stage breakdown into the metrics registry:
/// last-seen cycle and HBM-byte gauges per stage, an effective-bandwidth
/// gauge, and a simulation counter.
fn record_obs(report: &LatencyReport) {
    if ln_obs::level() == ln_obs::ObsLevel::Off {
        return;
    }
    let obs = accel_obs();
    obs.simulations.inc();
    for s in &report.per_block_stages {
        if let Some(h) = obs.stages.get(s.stage.name()) {
            h.cycles.set(s.cycles() as f64);
            h.hbm_bytes.set(s.hbm_bytes as f64);
            h.fusion_saved_bytes.set(s.fusion_saved_bytes as f64);
        }
    }
    let seconds = report.total_seconds();
    if seconds > 0.0 {
        obs.hbm_bandwidth_gbps
            .set(report.total_hbm_bytes() as f64 / seconds / 1e9);
    }
    // The heaviest single stage's traffic bounds residency pressure; the
    // ln-watch live watermark stitches this alongside the scratch-arena
    // high-water mark and the AAQ byte counters.
    let peak = report
        .per_block_stages
        .iter()
        .map(|s| s.hbm_bytes)
        .max()
        .unwrap_or(0);
    obs.hbm_peak_bytes.set(peak as f64);
}

/// Latency breakdown of one stage invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageLatency {
    /// The dataflow stage.
    pub stage: Stage,
    /// RMPU compute cycles.
    pub rmpu_cycles: u64,
    /// VVPU vector cycles.
    pub vvpu_cycles: u64,
    /// HBM transfer cycles (encoded bytes).
    pub hbm_cycles: u64,
    /// Encoded bytes moved.
    pub hbm_bytes: u64,
    /// Encoded bytes of intermediate activations that stage fusion keeps
    /// on-chip — the write + re-read traffic an unfused implementation
    /// would have added to `hbm_bytes` (the paper's token-wise-MHA
    /// bandwidth argument, quantified per stage).
    pub fusion_saved_bytes: u64,
}

impl StageLatency {
    /// The pipelined latency of this invocation.
    pub fn cycles(&self) -> u64 {
        let bound = self.rmpu_cycles.max(self.vvpu_cycles).max(self.hbm_cycles);
        (bound as f64 * ARBITRATION_FACTOR) as u64 + FILL_DRAIN_CYCLES
    }

    /// Which resource bounds this stage: memory wins ties, then RMPU over
    /// VVPU.
    pub fn bound_by(&self) -> Bound {
        if self.hbm_cycles >= self.rmpu_cycles && self.hbm_cycles >= self.vvpu_cycles {
            Bound::Hbm
        } else if self.rmpu_cycles >= self.vvpu_cycles {
            Bound::Rmpu
        } else {
            Bound::Vvpu
        }
    }

    /// Fraction of the RMPU peak attained over the stage's pipelined
    /// latency (arbitration and fill/drain included, so always below 1).
    pub fn rmpu_frac(&self) -> f64 {
        self.frac(self.rmpu_cycles)
    }

    /// Fraction of the VVPU peak attained over the stage's latency.
    pub fn vvpu_frac(&self) -> f64 {
        self.frac(self.vvpu_cycles)
    }

    /// Fraction of peak HBM bandwidth attained over the stage's latency.
    pub fn hbm_frac(&self) -> f64 {
        self.frac(self.hbm_cycles)
    }

    fn frac(&self, resource_cycles: u64) -> f64 {
        resource_cycles as f64 / self.cycles() as f64
    }
}

/// The resource that bounds a stage — the paper's §8 roofline label.
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
    /// The dashboard label.
    pub fn label(self) -> &'static str {
        match self {
            Bound::Rmpu => "compute (RMPU)",
            Bound::Vvpu => "vector (VVPU)",
            Bound::Hbm => "bandwidth (HBM)",
        }
    }
}

/// Full latency report for one protein.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Sequence length.
    pub ns: usize,
    /// Per-stage latency of a single block invocation.
    pub per_block_stages: Vec<StageLatency>,
    /// Folding blocks × recycles executed.
    pub block_invocations: usize,
    /// Clock period (seconds).
    pub cycle_seconds: f64,
}

impl LatencyReport {
    /// Total folding-trunk cycles.
    pub fn total_cycles(&self) -> u64 {
        let per_block: u64 = self.per_block_stages.iter().map(StageLatency::cycles).sum();
        per_block * self.block_invocations as u64
    }

    /// Total folding-trunk seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_cycles() as f64 * self.cycle_seconds
    }

    /// Total encoded HBM bytes moved.
    pub fn total_hbm_bytes(&self) -> u64 {
        let per_block: u64 = self.per_block_stages.iter().map(|s| s.hbm_bytes).sum();
        per_block * self.block_invocations as u64
    }

    /// The roofline table in dataflow order: each stage's bounding
    /// resource and attained-vs-peak ratios against `hw`'s RMPU, VVPU and
    /// HBM ceilings, then how many stages each bound claims.
    pub fn roofline_markdown(&self, hw: &HwConfig) -> String {
        let tops = hw.int8_tops();
        let gbps = hw.hbm_bandwidth_bytes_per_s / 1e9;
        let mut out = format!(
            "## Roofline — ceilings: {tops:.1} INT8 TOPS (RMPU), {gbps:.0} GB/s (HBM2E), {:.1} GHz\n\n",
            hw.clock_ghz
        );
        out.push_str("| stage | cycles | bound | RMPU attained | VVPU busy | HBM attained |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        let mut counts = [0usize; 3];
        for s in &self.per_block_stages {
            let bound = s.bound_by();
            counts[bound as usize] += 1;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.1} TOPS ({:.1}%) | {:.1}% | {:.1} GB/s ({:.1}%) |",
                s.stage.name(),
                s.cycles(),
                bound.label(),
                s.rmpu_frac() * tops,
                s.rmpu_frac() * 100.0,
                s.vvpu_frac() * 100.0,
                s.hbm_frac() * gbps,
                s.hbm_frac() * 100.0,
            );
        }
        let [rmpu, vvpu, hbm] = counts;
        let _ = writeln!(
            out,
            "\nbound summary: {rmpu} compute-bound, {vvpu} vector-bound, {hbm} bandwidth-bound"
        );
        out
    }
}

/// The LightNobel accelerator model.
#[derive(Debug, Clone)]
pub struct Accelerator {
    hw: HwConfig,
    hbm: HbmModel,
    cost: CostModel,
    aaq: AaqConfig,
}

impl Accelerator {
    /// Builds the accelerator at paper-scale PPM dimensions with the
    /// paper's AAQ configuration.
    pub fn new(hw: HwConfig) -> Self {
        Self::with_model(hw, PpmConfig::paper_scale(), AaqConfig::paper())
    }

    /// Builds the accelerator for an arbitrary PPM configuration and AAQ
    /// scheme set.
    pub fn with_model(hw: HwConfig, model: PpmConfig, aaq: AaqConfig) -> Self {
        let hbm = HbmModel::new(&hw);
        Accelerator {
            hbm,
            cost: CostModel::new(model),
            aaq,
            hw,
        }
    }

    /// The hardware configuration.
    pub fn hw(&self) -> &HwConfig {
        &self.hw
    }

    /// The AAQ configuration in use.
    pub fn aaq(&self) -> &AaqConfig {
        &self.aaq
    }

    /// The PPM cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Simulates the folding trunk for sequence length `ns`.
    pub fn simulate(&self, ns: usize) -> LatencyReport {
        let cfg = self.cost.config();
        let per_block_stages = ALL_STAGES
            .iter()
            .filter(|s| s.is_per_block())
            .map(|&s| self.stage_latency(s, ns))
            .collect();
        let report = LatencyReport {
            ns,
            per_block_stages,
            block_invocations: cfg.blocks * cfg.recycles,
            cycle_seconds: self.hw.cycle_seconds(),
        };
        record_obs(&report);
        report
    }

    /// Peak device-memory requirement (bytes): the token-wise encoded
    /// activation peak plus the resident weights.
    pub fn peak_memory_bytes(&self, ns: usize) -> f64 {
        self.cost.peak_activation_bytes_tokenwise(ns, &self.aaq) + self.weight_bytes()
    }

    /// Resident weight bytes (trunk parameters at INT16).
    pub fn weight_bytes(&self) -> f64 {
        self.cost.trunk_weight_bytes_int16()
    }

    /// Whether a protein of length `ns` fits device memory.
    pub fn fits_memory(&self, ns: usize) -> bool {
        self.peak_memory_bytes(ns) <= self.hw.hbm_capacity_bytes as f64
    }

    /// Latency of one invocation of a per-block stage.
    pub fn stage_latency(&self, stage: Stage, ns: usize) -> StageLatency {
        let cfg = self.cost.config();
        let tokens = (ns as u64) * (ns as u64);
        let hz = cfg.hz;
        let cm = cfg.tri_mul_dim;
        let attn = cfg.pair_attn_dim();
        let heads = cfg.pair_heads as u64;
        let b = self.aaq.group_b;
        let c_scheme = self.aaq.group_c;
        let units_cap = self.hw.four_bit_units_per_cycle() as f64;

        // Effective unit throughput accounting for DAL lane quantization on
        // token-dot work.
        let dot_cycles = |scheme: QuantScheme, dots: u64, channels: usize| -> u64 {
            pe::matmul_cycles(&self.hw, scheme, dots as usize, channels, 1)
        };
        let act_act_cycles = |a: QuantScheme, bb: QuantScheme, dots: u64, channels: usize| -> u64 {
            let units = pe::units_per_act_act_dot(a, bb, channels) as f64 * dots as f64;
            (units / (units_cap * 0.9)).ceil() as u64
        };

        let (rmpu_cycles, vvpu_cycles, hbm_bytes, fusion_saved_bytes): (u64, u64, u64, u64) =
            match stage {
                Stage::TriMulOutgoing | Stage::TriMulIncoming => {
                    // 5 projections hz→cm/hz from post-LN tokens + out proj.
                    let proj = dot_cycles(b, tokens * (4 * cm as u64 + hz as u64), hz)
                        + dot_cycles(b, tokens * hz as u64, cm);
                    // Triangle einsum: tokens × cm channel-dots of length ns.
                    let tri = act_act_cycles(c_scheme, c_scheme, tokens * cm as u64, ns);
                    let v = vvpu::batch_cycles(&self.hw, VectorOp::LayerNorm, hz, 2 * tokens)
                        + vvpu::batch_cycles(
                            &self.hw,
                            VectorOp::Quantize { scheme: c_scheme },
                            cm,
                            6 * tokens,
                        )
                        + vvpu::batch_cycles(
                            &self.hw,
                            VectorOp::Quantize {
                                scheme: self.aaq.group_a,
                            },
                            hz,
                            tokens,
                        )
                        + vvpu::batch_cycles(&self.hw, VectorOp::ResidualAdd, hz, tokens);
                    // Residual read+write (A), left/right write + 2× blocked
                    // re-read (C), triangle out stays in the pipeline.
                    let bytes = tokens
                        * (2 * self.aaq.group_a.token_bytes(hz) as u64
                            + (2 + 4) * c_scheme.token_bytes(cm) as u64);
                    // Fused: the ns²×cm triangle product feeds the gate and
                    // out-projection without a round trip to HBM.
                    let saved = 2 * tokens * c_scheme.token_bytes(cm) as u64;
                    (proj + tri, v, bytes, saved)
                }
                Stage::TriAttnStarting | Stage::TriAttnEnding => {
                    let proj = dot_cycles(b, tokens * (4 * attn as u64 + heads), hz)
                        + dot_cycles(c_scheme, tokens * hz as u64, attn);
                    // Scores q·k and probs·v: 2 × ns³ dots of head_dim /
                    // context products, both on quantized activations.
                    let score_dots = heads * (ns as u64) * (ns as u64) * (ns as u64);
                    let scores =
                        act_act_cycles(c_scheme, c_scheme, 2 * score_dots, cfg.pair_head_dim);
                    let softmax_rows = heads * (ns as u64) * (ns as u64);
                    let v = vvpu::batch_cycles(&self.hw, VectorOp::LayerNorm, hz, tokens)
                        + vvpu::batch_cycles(&self.hw, VectorOp::Softmax, ns, softmax_rows)
                        + vvpu::batch_cycles(
                            &self.hw,
                            VectorOp::Quantize { scheme: c_scheme },
                            attn,
                            5 * tokens,
                        )
                        + vvpu::batch_cycles(
                            &self.hw,
                            VectorOp::Quantize {
                                scheme: self.aaq.group_a,
                            },
                            hz,
                            tokens,
                        )
                        + vvpu::batch_cycles(&self.hw, VectorOp::ResidualAdd, hz, tokens);
                    // Residual r/w + q,k,v write and ~2× lane re-read; scores
                    // never leave the chip (token-wise MHA).
                    let bytes = tokens
                        * (2 * self.aaq.group_a.token_bytes(hz) as u64
                            + 3 * 3 * c_scheme.token_bytes(attn) as u64);
                    // Token-wise MHA: the heads × ns³ score/prob tensor never
                    // materialises — the single biggest fusion win (§5.4),
                    // and it grows cubically while everything else is ns².
                    let saved = 2 * heads * tokens * c_scheme.token_bytes(ns) as u64;
                    (proj + scores, v, bytes, saved)
                }
                Stage::PairTransition => {
                    let hidden = hz * cfg.transition_factor;
                    let up = dot_cycles(b, tokens * hidden as u64, hz);
                    let down = dot_cycles(c_scheme, tokens * hz as u64, hidden);
                    let v = vvpu::batch_cycles(&self.hw, VectorOp::LayerNorm, hz, tokens)
                        + vvpu::batch_cycles(
                            &self.hw,
                            VectorOp::Quantize {
                                scheme: self.aaq.group_a,
                            },
                            hz,
                            tokens,
                        )
                        + vvpu::batch_cycles(&self.hw, VectorOp::ResidualAdd, hz, tokens);
                    // Token-local: only the residual stream hits memory.
                    let bytes = tokens * 2 * self.aaq.group_a.token_bytes(hz) as u64;
                    // Fused: the 4×-expanded hidden activation stays on-chip
                    // between the up- and down-projections.
                    let saved = 2 * tokens * c_scheme.token_bytes(hidden) as u64;
                    (up + down, v, bytes, saved)
                }
                Stage::SeqAttention | Stage::SeqTransition | Stage::OuterProductMean => {
                    // Sequence track: unquantized INT16 on the VVPU-heavy path;
                    // multiple VVPUs gang via the GCN (§5).
                    let macs = self.cost.stage_macs(stage, ns);
                    let s16 = QuantScheme {
                        inlier_bits: ln_quant::scheme::Bits::Int16,
                        outliers: 0,
                    };
                    let units = macs * 16.0;
                    let r = (units / (units_cap * 0.9)).ceil() as u64;
                    let v =
                        vvpu::batch_cycles(&self.hw, VectorOp::LayerNorm, cfg.hm, 2 * ns as u64);
                    let bytes = if stage == Stage::OuterProductMean {
                        // Read-modify-write of the residual pair stream.
                        let _ = s16;
                        tokens * 2 * self.aaq.group_a.token_bytes(hz) as u64
                    } else {
                        (ns * cfg.hm * 2 * 4) as u64
                    };
                    (r, v, bytes, 0)
                }
                Stage::InputEmbedding | Stage::StructureModule => (0, 0, 0, 0),
            };

        let hbm_cycles = self
            .hbm
            .transfer_cycles(hbm_bytes, AccessPattern::Sequential);
        StageLatency {
            stage,
            rmpu_cycles,
            vvpu_cycles,
            hbm_cycles,
            hbm_bytes,
            fusion_saved_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accel() -> Accelerator {
        Accelerator::new(HwConfig::paper())
    }

    #[test]
    fn latency_grows_superlinearly_with_ns() {
        let a = accel();
        let t1 = a.simulate(512).total_seconds();
        let t2 = a.simulate(1024).total_seconds();
        assert!(t2 / t1 > 3.0, "ratio {}", t2 / t1);
        assert!(t1 > 0.0);
    }

    #[test]
    fn tri_attention_share_grows_with_length() {
        // The cubic score work makes triangular attention the largest and
        // fastest-growing stage pair (the GPU-side Fig. 3 claim is asserted
        // in ln-gpu; here the accelerator's own breakdown must trend the
        // same way).
        let a = accel();
        let share = |ns: usize| {
            let r = a.simulate(ns);
            let attn: u64 = r
                .per_block_stages
                .iter()
                .filter(|s| matches!(s.stage, Stage::TriAttnStarting | Stage::TriAttnEnding))
                .map(StageLatency::cycles)
                .sum();
            let total: u64 = r.per_block_stages.iter().map(StageLatency::cycles).sum();
            attn as f64 / total as f64
        };
        assert!(share(2048) > share(256));
        assert!(share(2048) > 0.35, "share {}", share(2048));
    }

    #[test]
    fn peak_memory_beats_fp16_dramatically() {
        let a = accel();
        let ns = 3364;
        let ours = a.peak_memory_bytes(ns);
        let vanilla = a
            .cost()
            .peak_activation_bytes(ns, ln_ppm::cost::ExecMode::Vanilla);
        assert!(vanilla / ours > 20.0, "ratio {}", vanilla / ours);
    }

    #[test]
    fn supports_much_longer_sequences_than_80gb_gpus() {
        // §8.3: LightNobel processes up to 9 945 residues in 80 GB.
        let a = accel();
        assert!(a.fits_memory(6879), "must fit the longest CASP16 target");
        assert!(a.fits_memory(9000));
        assert!(!a.fits_memory(20000));
    }

    #[test]
    fn more_rmpus_reduce_latency_until_memory_bound() {
        let t = |n: usize| {
            Accelerator::new(HwConfig::paper().with_rmpus(n))
                .simulate(512)
                .total_seconds()
        };
        let t1 = t(1);
        let t2 = t(2);
        let t8 = t(8);
        let t32 = t(32);
        let t64 = t(64);
        let t256 = t(256);
        assert!(t1 > t8 && t8 > t32, "{t1} {t8} {t32}");
        // Fig. 12(b) shape: returns diminish as the VVPU/memory terms stop
        // scaling. (The paper's knee is at 32 RMPUs; our stricter compute
        // accounting places it higher — see EXPERIMENTS.md.)
        assert!(t32 / t64 <= t1 / t2 + 1e-9, "{} vs {}", t32 / t64, t1 / t2);
        let gain_past_128 = t(128) / t256;
        assert!(gain_past_128 < 1.3, "gain past 128 RMPUs {gain_past_128}");
    }

    #[test]
    fn vvpu_count_saturates_at_4_per_rmpu() {
        // Fig. 12(a).
        let t = |v: usize| {
            Accelerator::new(HwConfig::paper().with_vvpus_per_rmpu(v))
                .simulate(1024)
                .total_seconds()
        };
        let t1 = t(1);
        let t4 = t(4);
        let t8 = t(8);
        assert!(t1 > t4, "{t1} vs {t4}");
        assert!(t4 / t8 < 1.15, "saturation broken: {} ", t4 / t8);
    }

    #[test]
    fn stage_latency_reports_consistent_bound() {
        let a = accel();
        for s in &a.simulate(512).per_block_stages {
            let max = s.rmpu_cycles.max(s.vvpu_cycles).max(s.hbm_cycles);
            assert_eq!(
                s.cycles(),
                (max as f64 * ARBITRATION_FACTOR) as u64 + FILL_DRAIN_CYCLES
            );
            let bound_cycles = match s.bound_by() {
                Bound::Rmpu => s.rmpu_cycles,
                Bound::Vvpu => s.vvpu_cycles,
                Bound::Hbm => s.hbm_cycles,
            };
            assert_eq!(bound_cycles, max, "{:?}", s.stage);
        }
    }

    fn stage(rmpu_cycles: u64, vvpu_cycles: u64, hbm_cycles: u64) -> StageLatency {
        StageLatency {
            stage: Stage::TriMulOutgoing,
            rmpu_cycles,
            vvpu_cycles,
            hbm_cycles,
            hbm_bytes: 0,
            fusion_saved_bytes: 0,
        }
    }

    #[test]
    fn bound_prefers_memory_then_rmpu_on_ties() {
        // Strict maxima.
        assert_eq!(stage(1000, 300, 600).bound_by(), Bound::Rmpu);
        assert_eq!(stage(100, 500, 300).bound_by(), Bound::Vvpu);
        assert_eq!(stage(200, 300, 600).bound_by(), Bound::Hbm);
        // Exact two-way ties at the top.
        assert_eq!(stage(500, 100, 500).bound_by(), Bound::Hbm);
        assert_eq!(stage(100, 500, 500).bound_by(), Bound::Hbm);
        assert_eq!(stage(500, 500, 100).bound_by(), Bound::Rmpu);
        // Three-way ties, including the all-zero stage.
        assert_eq!(stage(500, 500, 500).bound_by(), Bound::Hbm);
        assert_eq!(stage(0, 0, 0).bound_by(), Bound::Hbm);
        assert_eq!(Bound::Rmpu.label(), "compute (RMPU)");
        assert_eq!(Bound::Vvpu.label(), "vector (VVPU)");
        assert_eq!(Bound::Hbm.label(), "bandwidth (HBM)");
    }

    #[test]
    fn attained_fractions_are_resource_over_pipelined_cycles() {
        // max 1000 → 1000 × 1.35 + 400 = 1750 pipelined cycles.
        let s = stage(1000, 350, 175);
        assert_eq!(s.cycles(), 1750);
        assert_eq!(s.rmpu_frac(), 1000.0 / 1750.0);
        assert_eq!(s.vvpu_frac(), 0.2);
        assert_eq!(s.hbm_frac(), 0.1);
        let idle = stage(0, 0, 0);
        assert_eq!(idle.cycles(), FILL_DRAIN_CYCLES);
        assert_eq!(
            (idle.rmpu_frac(), idle.vvpu_frac(), idle.hbm_frac()),
            (0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn roofline_rows_follow_the_report_in_dataflow_order() {
        let hw = HwConfig::paper();
        let report = accel().simulate(512);
        let md = report.roofline_markdown(&hw);
        assert_eq!(md, report.roofline_markdown(&hw), "deterministic");
        assert!(md.starts_with("## Roofline — ceilings: 163.8 INT8 TOPS (RMPU), 2000 GB/s"));
        let rows: Vec<&str> = md
            .lines()
            .filter(|l| l.starts_with("| ") && !l.starts_with("| stage"))
            .collect();
        assert_eq!(rows.len(), report.per_block_stages.len());
        for (row, s) in rows.iter().zip(&report.per_block_stages) {
            let head = format!(
                "| {} | {} | {} |",
                s.stage.name(),
                s.cycles(),
                s.bound_by().label()
            );
            assert!(row.starts_with(&head), "{row}");
        }
        assert!(
            md.ends_with("bound summary: 6 compute-bound, 2 vector-bound, 0 bandwidth-bound\n"),
            "{md}"
        );
    }

    #[test]
    fn hbm_capacity_threads_through_fits_memory() {
        let a = accel();
        let ns = 6879;
        assert!(a.fits_memory(ns));
        let need = a.peak_memory_bytes(ns);
        let small = Accelerator::new(HwConfig::paper().with_hbm_capacity(need as u64 / 2));
        assert!(!small.fits_memory(ns));
    }

    #[test]
    fn simulation_mirrors_stage_gauges_into_registry() {
        let a = accel();
        let r = a.simulate(384);
        assert!(r.total_cycles() > 0);
        let snap = ln_obs::registry().snapshot();
        for stage in ["tri_mul_outgoing", "tri_attn_starting", "pair_transition"] {
            let key = ln_obs::labeled("accel_stage_cycles", &[("stage", stage)]);
            match snap.get(&key) {
                Some(ln_obs::MetricValue::Gauge(v)) => assert!(*v > 0.0, "{key}"),
                other => panic!("missing gauge {key}: {other:?}"),
            }
            let key = ln_obs::labeled("accel_stage_hbm_bytes", &[("stage", stage)]);
            assert!(snap.contains_key(&key), "missing {key}");
            let key = ln_obs::labeled("accel_stage_fusion_saved_bytes", &[("stage", stage)]);
            match snap.get(&key) {
                Some(ln_obs::MetricValue::Gauge(v)) => assert!(*v > 0.0, "{key}"),
                other => panic!("missing gauge {key}: {other:?}"),
            }
        }
        match snap.get("accel_simulations_total") {
            Some(ln_obs::MetricValue::Counter(n)) => assert!(*n >= 1),
            other => panic!("missing simulation counter: {other:?}"),
        }
        match snap.get("accel_hbm_bandwidth_gbps") {
            Some(ln_obs::MetricValue::Gauge(v)) => assert!(*v > 0.0),
            other => panic!("missing bandwidth gauge: {other:?}"),
        }
    }

    #[test]
    fn fusion_savings_are_dominated_by_cubic_attention_scores() {
        let a = accel();
        let saved_for = |ns: usize, stage_filter: fn(Stage) -> bool| -> u64 {
            a.simulate(ns)
                .per_block_stages
                .iter()
                .filter(|s| stage_filter(s.stage))
                .map(|s| s.fusion_saved_bytes)
                .sum()
        };
        let attn = |s: Stage| matches!(s, Stage::TriAttnStarting | Stage::TriAttnEnding);
        let any = |_: Stage| true;
        // The never-materialised score tensor grows as ns³ while the
        // tri-mul/transition intermediates grow as ns²: attention must
        // dominate at paper scale and its share must grow with length.
        let (a512, a1024) = (saved_for(512, attn), saved_for(1024, attn));
        let (t512, t1024) = (saved_for(512, any), saved_for(1024, any));
        assert!(a1024 * 2 > t1024, "attention saves under half at L=1024");
        assert!(
            a1024 as f64 / a512 as f64 > 6.0,
            "score savings must scale ~ns³: {a512} -> {a1024}"
        );
        assert!(t1024 > t512);
    }

    #[test]
    fn hbm_bytes_shrink_with_aggressive_quantization() {
        let cheap = AaqConfig {
            group_a: QuantScheme::int4_with_outliers(0),
            group_b: QuantScheme::int4_with_outliers(0),
            group_c: QuantScheme::int4_with_outliers(0),
        };
        let a_cheap = Accelerator::with_model(HwConfig::paper(), PpmConfig::paper_scale(), cheap);
        let a_paper = accel();
        assert!(
            a_cheap.simulate(1024).total_hbm_bytes() < a_paper.simulate(1024).total_hbm_bytes()
        );
    }
}
