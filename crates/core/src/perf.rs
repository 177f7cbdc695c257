//! LightNobel-vs-GPU performance comparison drivers (Figs. 14, 15, 16 and
//! the §8.4 power-efficiency numbers).

use ln_accel::power::{area_power, GpuEnvelope, A100_ENVELOPE, H100_ENVELOPE};
use ln_accel::{Accelerator, HwConfig};
use ln_gpu::esmfold::{EsmFoldGpuModel, ExecOptions};
use ln_gpu::{GpuDevice, A100, H100};
use ln_ppm::cost::ExecMode;

/// The performance-comparison harness: one LightNobel instance plus the
/// two GPU baselines.
#[derive(Debug, Clone)]
pub struct PerfComparison {
    accel: Accelerator,
    a100: EsmFoldGpuModel,
    h100: EsmFoldGpuModel,
}

/// Speedup of LightNobel over a GPU for one protein (folding block only,
/// as in Fig. 14(b–d)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    /// Sequence length.
    pub ns: usize,
    /// LightNobel folding seconds.
    pub lightnobel_seconds: f64,
    /// GPU folding seconds (`None` = out of memory).
    pub gpu_seconds: Option<f64>,
}

impl Speedup {
    /// GPU time / LightNobel time, if the GPU completed.
    pub fn factor(&self) -> Option<f64> {
        self.gpu_seconds.map(|g| g / self.lightnobel_seconds)
    }
}

impl PerfComparison {
    /// Builds the paper configuration.
    pub fn paper() -> Self {
        PerfComparison {
            accel: Accelerator::new(HwConfig::paper()),
            a100: EsmFoldGpuModel::new(A100),
            h100: EsmFoldGpuModel::new(H100),
        }
    }

    /// The accelerator model.
    pub fn accel(&self) -> &Accelerator {
        &self.accel
    }

    /// The GPU model for a device.
    pub fn gpu(&self, device: &GpuDevice) -> &EsmFoldGpuModel {
        if device.name == "A100" {
            &self.a100
        } else {
            &self.h100
        }
    }

    /// LightNobel folding-trunk seconds for a protein.
    pub fn lightnobel_folding_seconds(&self, ns: usize) -> f64 {
        self.accel.simulate(ns).total_seconds()
    }

    /// Folding speedup over one GPU/option pair (Fig. 14(b–d) points).
    pub fn folding_speedup(&self, ns: usize, device: &GpuDevice, opts: ExecOptions) -> Speedup {
        let gpu = self.gpu(device);
        let gpu_seconds = if gpu.fits_memory(ns, opts) {
            Some(gpu.folding_seconds(ns, opts))
        } else {
            None
        };
        Speedup {
            ns,
            lightnobel_seconds: self.lightnobel_folding_seconds(ns),
            gpu_seconds,
        }
    }

    /// Mean speedup over a workload, skipping GPU-OOM proteins (the
    /// paper's Fig. 14(c) filtering).
    pub fn mean_speedup(
        &self,
        lengths: &[usize],
        device: &GpuDevice,
        opts: ExecOptions,
    ) -> Option<f64> {
        let factors: Vec<f64> = lengths
            .iter()
            .filter_map(|&ns| self.folding_speedup(ns, device, opts).factor())
            .collect();
        if factors.is_empty() {
            return None;
        }
        Some(factors.iter().sum::<f64>() / factors.len() as f64)
    }

    /// Peak-memory comparison for Fig. 15: `(vanilla, chunk4, lightnobel)`
    /// bytes.
    pub fn peak_memory(&self, ns: usize) -> (f64, f64, f64) {
        let cost = self.accel.cost();
        let weights = cost.total_weight_bytes_fp16();
        (
            cost.peak_activation_bytes(ns, ExecMode::Vanilla) + weights,
            cost.peak_activation_bytes(ns, ExecMode::Chunked { rows: 4 }) + weights,
            self.accel.peak_memory_bytes(ns),
        )
    }

    /// The longest sequence LightNobel fits in 80 GB (§8.3 reports 9 945).
    pub fn max_supported_length(&self) -> usize {
        let mut lo = 1usize;
        let mut hi = 100_000usize;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.accel.fits_memory(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Fig. 16(a): INT8-equivalent operation counts `(baseline, lightnobel)`
    /// for the pair dataflow. FP16 multiplies count 4 INT8-equivalents;
    /// LightNobel's bit-chunked ops count `units / 4`.
    pub fn int8_equivalent_ops(&self, ns: usize) -> (f64, f64) {
        let cost = self.accel.cost();
        let baseline = cost.pair_dataflow_macs(ns) * 4.0;
        // LightNobel: RMPU cycles × units/cycle bound the executed units;
        // dequantization-free accumulation applies scales once per dot.
        let report = self.accel.simulate(ns);
        let units: f64 = report
            .per_block_stages
            .iter()
            .map(|s| s.rmpu_cycles as f64)
            .sum::<f64>()
            * self.accel.hw().four_bit_units_per_cycle() as f64
            * report.block_invocations as f64
            * 0.9; // modelled utilization
        (baseline, units / 4.0)
    }

    /// Fig. 16(b): activation memory footprint `(baseline, lightnobel)`
    /// bytes for a full prediction. As in Table 1, the baseline footprint
    /// excludes score-tensor traffic (eliminating it is the hardware
    /// token-wise-MHA advantage, measured separately in Fig. 15).
    pub fn memory_footprint(&self, ns: usize) -> (f64, f64) {
        let cost = self.accel.cost();
        let cfg = cost.config();
        let baseline = cost.block_scoreless_bytes(ns) * (cfg.blocks * cfg.recycles) as f64;
        let ln = self.accel.simulate(ns).total_hbm_bytes() as f64;
        (baseline, ln)
    }

    /// Power efficiency gain over a GPU: speedup × (GPU watts / LightNobel
    /// watts).
    pub fn power_efficiency_gain(
        &self,
        ns: usize,
        device: &GpuDevice,
        envelope: GpuEnvelope,
        opts: ExecOptions,
    ) -> Option<f64> {
        let speedup = self.folding_speedup(ns, device, opts).factor()?;
        let ln_watts = area_power(self.accel.hw()).total.power_mw / 1000.0;
        Some(speedup * envelope.power_w / ln_watts)
    }
}

impl Default for PerfComparison {
    fn default() -> Self {
        PerfComparison::paper()
    }
}

/// The GPU physical envelopes re-exported for benches.
pub const GPU_ENVELOPES: [GpuEnvelope; 2] = [A100_ENVELOPE, H100_ENVELOPE];

#[cfg(test)]
mod tests {
    use super::*;

    fn perf() -> PerfComparison {
        PerfComparison::paper()
    }

    #[test]
    fn chunked_speedups_land_in_paper_band() {
        // Fig. 14(b): 3.85–8.44× (A100) and 3.67–8.41× (H100) with chunk.
        let p = perf();
        for device in [&A100, &H100] {
            let s = p
                .mean_speedup(&[400, 800, 1200], device, ExecOptions::chunk4())
                .expect("all fit with chunking");
            assert!((2.0..12.0).contains(&s), "{}: {s}", device.name);
        }
    }

    #[test]
    fn vanilla_speedups_are_modest() {
        // Fig. 14(b): 1.22× (A100) / 1.01× (H100) without chunking.
        let p = perf();
        let s = p
            .mean_speedup(&[200, 400, 800], &H100, ExecOptions::vanilla())
            .expect("short proteins fit");
        assert!((0.7..4.0).contains(&s), "vanilla speedup {s}");
    }

    #[test]
    fn long_proteins_oom_on_vanilla_gpu_but_run_on_lightnobel() {
        let p = perf();
        let s = p.folding_speedup(3364, &H100, ExecOptions::vanilla());
        assert!(s.factor().is_none(), "3364 must OOM on vanilla 80 GB");
        assert!(s.lightnobel_seconds > 0.0);
        assert!(p.accel().fits_memory(3364));
    }

    #[test]
    fn peak_memory_ratios_match_fig15_shape() {
        let p = perf();
        let (vanilla, chunk, ln) = p.peak_memory(1410);
        assert!(vanilla > chunk && chunk > ln, "{vanilla} {chunk} {ln}");
        // §8.3: up to 120× vs vanilla; 1.26–5.05× vs chunked.
        assert!(vanilla / ln > 20.0, "vanilla/LN {}", vanilla / ln);
        assert!(
            (1.1..20.0).contains(&(chunk / ln)),
            "chunk/LN {}",
            chunk / ln
        );
    }

    #[test]
    fn supports_beyond_casp16_maximum() {
        // §8.3: sequence lengths up to 9 945 (1.45× the CASP16 max 6 879).
        let p = perf();
        let max = p.max_supported_length();
        assert!(max > 6879, "max {max}");
        assert!(max < 30_000, "max {max}");
    }

    #[test]
    fn computational_cost_is_reduced() {
        // Fig. 16(a): ~43 % average reduction in INT8-equivalent ops.
        let p = perf();
        let (base, ln) = p.int8_equivalent_ops(1024);
        let reduction = 1.0 - ln / base;
        assert!(reduction > 0.25, "reduction {reduction}");
        assert!(reduction < 0.95, "reduction {reduction}");
    }

    #[test]
    fn memory_footprint_is_reduced() {
        // Fig. 16(b): ~74 % lower footprint on average.
        let p = perf();
        let (base, ln) = p.memory_footprint(1024);
        let reduction = 1.0 - ln / base;
        assert!(reduction > 0.5, "reduction {reduction}");
    }

    #[test]
    fn power_efficiency_beats_gpus_strongly_with_chunk() {
        // §8.4: up to 37.29× (A100) / 43.35× (H100) with the chunk option.
        let p = perf();
        let a = p
            .power_efficiency_gain(1200, &A100, A100_ENVELOPE, ExecOptions::chunk4())
            .expect("fits");
        let h = p
            .power_efficiency_gain(1200, &H100, H100_ENVELOPE, ExecOptions::chunk4())
            .expect("fits");
        assert!(a > 8.0, "A100 gain {a}");
        assert!(h > 8.0, "H100 gain {h}");
    }
}
