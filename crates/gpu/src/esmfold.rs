//! The ESMFold-on-GPU execution model: the paper's measured baseline
//! (§6, Figs. 3, 14, 15), reconstructed as a roofline/event model over the
//! exact dataflow cost accounting from `ln-ppm`.

use crate::device::GpuDevice;
use ln_ppm::cost::{CostModel, ExecMode, Stage, ALL_STAGES, FP16_BYTES};
use ln_ppm::PpmConfig;

/// Execution options for the baseline PPM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecOptions {
    /// `Some(rows)` enables the chunk option with the given chunk size
    /// (the paper uses `Chunk4`).
    pub chunk: Option<usize>,
}

impl ExecOptions {
    /// Vanilla execution (no chunking).
    pub fn vanilla() -> Self {
        ExecOptions { chunk: None }
    }

    /// The paper's `Chunk4` option.
    pub fn chunk4() -> Self {
        ExecOptions { chunk: Some(4) }
    }

    /// The cost model's execution mode for these options.
    pub fn exec_mode(&self) -> ExecMode {
        match self.chunk {
            None => ExecMode::Vanilla,
            Some(rows) => ExecMode::Chunked { rows },
        }
    }
}

/// Outcome of attempting a protein on the GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpuRunOutcome {
    /// The run fits memory and completes.
    Completed {
        /// End-to-end seconds (embedding + folding + structure module).
        total_seconds: f64,
        /// Folding-trunk seconds only.
        folding_seconds: f64,
        /// Peak memory bytes.
        peak_memory_bytes: f64,
    },
    /// The run exceeds device memory.
    OutOfMemory {
        /// Peak memory the run would have needed.
        required_bytes: f64,
    },
}

impl GpuRunOutcome {
    /// Folding seconds, if the run completed.
    pub fn folding_seconds(&self) -> Option<f64> {
        match self {
            GpuRunOutcome::Completed {
                folding_seconds, ..
            } => Some(*folding_seconds),
            GpuRunOutcome::OutOfMemory { .. } => None,
        }
    }

    /// Total seconds, if the run completed.
    pub fn total_seconds(&self) -> Option<f64> {
        match self {
            GpuRunOutcome::Completed { total_seconds, .. } => Some(*total_seconds),
            GpuRunOutcome::OutOfMemory { .. } => None,
        }
    }
}

/// ESMFold running on a GPU device.
#[derive(Debug, Clone)]
pub struct EsmFoldGpuModel {
    device: GpuDevice,
    cost: CostModel,
}

/// Kernels launched per stage invocation in vanilla mode (projection,
/// einsum, normalisation, softmax, gating kernels — from profiling-style
/// counts of the reference implementation).
fn vanilla_kernels(stage: Stage) -> f64 {
    match stage {
        Stage::InputEmbedding => 36.0 * 5.0, // 36 LM layers × ~5 kernels
        Stage::TriMulOutgoing | Stage::TriMulIncoming => 10.0,
        Stage::TriAttnStarting | Stage::TriAttnEnding => 12.0,
        Stage::PairTransition => 4.0,
        Stage::SeqAttention => 8.0,
        Stage::SeqTransition => 4.0,
        Stage::OuterProductMean => 4.0,
        Stage::StructureModule => 60.0,
    }
}

impl EsmFoldGpuModel {
    /// Builds the model at paper scale for a device.
    pub fn new(device: GpuDevice) -> Self {
        EsmFoldGpuModel {
            device,
            cost: CostModel::paper(),
        }
    }

    /// Builds the model for an arbitrary PPM configuration.
    pub fn with_model(device: GpuDevice, config: PpmConfig) -> Self {
        EsmFoldGpuModel {
            device,
            cost: CostModel::new(config),
        }
    }

    /// The device.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// The PPM cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Peak memory (bytes) of a run: activations + weights.
    pub fn peak_memory_bytes(&self, ns: usize, opts: ExecOptions) -> f64 {
        self.cost.peak_activation_bytes(ns, opts.exec_mode()) + self.cost.total_weight_bytes_fp16()
    }

    /// Whether a protein fits the device memory.
    pub fn fits_memory(&self, ns: usize, opts: ExecOptions) -> bool {
        self.peak_memory_bytes(ns, opts) <= self.device.vram_bytes as f64
    }

    /// Latency of one invocation of a stage (seconds).
    pub fn stage_seconds(&self, stage: Stage, ns: usize, opts: ExecOptions) -> f64 {
        let flops = 2.0 * self.cost.stage_macs(stage, ns);
        let mut bytes = self.cost.stage_traffic_bytes(stage, ns);
        let mut kernels = vanilla_kernels(stage);
        let mut compute_derate = 1.0;
        if let Some(rows) = opts.chunk {
            // The chunk option (low-memory attention) keeps each chunk's
            // score slice on chip — no score-tensor traffic — but pays for
            // it with one kernel-launch triple per chunk and few-row
            // kernels that cannot saturate the SMs (§8.2).
            if matches!(
                stage,
                Stage::TriAttnStarting
                    | Stage::TriAttnEnding
                    | Stage::TriMulOutgoing
                    | Stage::TriMulIncoming
            ) {
                bytes = self.cost.stage_scoreless_bytes(stage, ns);
                let chunks = (ns as f64 / rows.max(1) as f64).ceil().max(1.0);
                kernels += chunks * 3.0;
                compute_derate = self.device.chunk_compute_derate;
            }
        }
        let roofline = (flops / (self.device.effective_flops() * compute_derate))
            .max(bytes / self.device.effective_bandwidth());
        roofline + kernels * self.device.kernel_launch_seconds
    }

    /// Folding-trunk seconds (all blocks × recycles).
    pub fn folding_seconds(&self, ns: usize, opts: ExecOptions) -> f64 {
        let cfg = self.cost.config();
        let per_block: f64 = ALL_STAGES
            .iter()
            .filter(|s| s.is_per_block())
            .map(|&s| self.stage_seconds(s, ns, opts))
            .sum();
        per_block * (cfg.blocks * cfg.recycles) as f64
    }

    /// Input-embedding seconds (the ESM-2 language model; weight-read
    /// bound for short proteins).
    pub fn embedding_seconds(&self, ns: usize) -> f64 {
        let flops = 2.0 * self.cost.stage_macs(Stage::InputEmbedding, ns);
        // The 3B-parameter LM reads its weights per layer batch.
        let weight_bytes = ln_ppm::cost::ESM2_PARAMS as f64 * FP16_BYTES;
        let act_bytes = (ns * 2560 * 2) as f64 * 36.0;
        self.device.kernel_seconds(flops, weight_bytes + act_bytes)
            + vanilla_kernels(Stage::InputEmbedding) * self.device.kernel_launch_seconds
    }

    /// Structure-module seconds.
    pub fn structure_seconds(&self, ns: usize) -> f64 {
        let flops = 2.0 * self.cost.stage_macs(Stage::StructureModule, ns);
        let bytes = self.cost.stage_traffic_bytes(Stage::StructureModule, ns);
        self.device.kernel_seconds(flops, bytes)
            + vanilla_kernels(Stage::StructureModule) * self.device.kernel_launch_seconds
    }

    /// Attempts a full run.
    pub fn run(&self, ns: usize, opts: ExecOptions) -> GpuRunOutcome {
        let peak = self.peak_memory_bytes(ns, opts);
        if peak > self.device.vram_bytes as f64 {
            return GpuRunOutcome::OutOfMemory {
                required_bytes: peak,
            };
        }
        let folding = self.folding_seconds(ns, opts);
        let total = self.embedding_seconds(ns) + folding + self.structure_seconds(ns);
        GpuRunOutcome::Completed {
            total_seconds: total,
            folding_seconds: folding,
            peak_memory_bytes: peak,
        }
    }

    /// Latency share of each stage class for the Fig. 3 breakdown:
    /// `(embedding, seq_dataflow, tri_mul, tri_attn, structure)` fractions.
    pub fn latency_breakdown(&self, ns: usize, opts: ExecOptions) -> [f64; 5] {
        let cfg = self.cost.config();
        let inv = (cfg.blocks * cfg.recycles) as f64;
        let emb = self.embedding_seconds(ns);
        let seq: f64 = [
            Stage::SeqAttention,
            Stage::SeqTransition,
            Stage::OuterProductMean,
        ]
        .iter()
        .map(|&s| self.stage_seconds(s, ns, opts))
        .sum::<f64>()
            * inv;
        let tri_mul: f64 = [Stage::TriMulOutgoing, Stage::TriMulIncoming]
            .iter()
            .map(|&s| self.stage_seconds(s, ns, opts))
            .sum::<f64>()
            * inv;
        let tri_attn: f64 = [Stage::TriAttnStarting, Stage::TriAttnEnding]
            .iter()
            .map(|&s| self.stage_seconds(s, ns, opts))
            .sum::<f64>()
            * inv
            + self.stage_seconds(Stage::PairTransition, ns, opts) * inv;
        let st = self.structure_seconds(ns);
        let total = emb + seq + tri_mul + tri_attn + st;
        [
            emb / total,
            seq / total,
            tri_mul / total,
            tri_attn / total,
            st / total,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{A100, H100};

    fn h100() -> EsmFoldGpuModel {
        EsmFoldGpuModel::new(H100)
    }

    #[test]
    fn t1269_fits_vanilla_but_longer_does_not() {
        // §3.1/§6: T1269 (1410) is the longest CASP16 protein processable
        // on a single 80 GB GPU without chunking.
        let m = h100();
        assert!(m.fits_memory(1410, ExecOptions::vanilla()));
        assert!(!m.fits_memory(2034, ExecOptions::vanilla()));
    }

    #[test]
    fn chunking_extends_reach_but_costs_time() {
        let m = h100();
        let opts = ExecOptions::chunk4();
        assert!(m.fits_memory(3364, opts));
        // Kernel overhead dominates at short-to-mid lengths (§8.2); at
        // long lengths the avoided score traffic partially pays it back.
        let ns = 512;
        let vanilla = m.folding_seconds(ns, ExecOptions::vanilla());
        let chunked = m.folding_seconds(ns, opts);
        assert!(
            chunked > 1.5 * vanilla,
            "chunk {chunked} vs vanilla {vanilla}"
        );
    }

    #[test]
    fn fig3_breakdown_shapes() {
        // Fig. 3: pair dataflow ~69 % at 77 aa and ~92 % at 1410 aa, with
        // triangular attention surging from ~29 % to ~76 %.
        let m = h100();
        let short = m.latency_breakdown(77, ExecOptions::vanilla());
        let long = m.latency_breakdown(1410, ExecOptions::vanilla());
        let pair_short = short[2] + short[3];
        let pair_long = long[2] + long[3];
        assert!(pair_long > pair_short);
        assert!(pair_long > 0.85, "pair share at 1410: {pair_long}");
        assert!(long[3] > short[3], "tri-attn share must surge");
        // Embedding share shrinks with length.
        assert!(short[0] > long[0]);
    }

    #[test]
    fn h100_barely_beats_a100_on_memory_bound_folding() {
        // §8.2: despite ~5× INT8 and ~2.4× FP16 compute, H100 gains little
        // because the workload is memory-bound.
        let a = EsmFoldGpuModel::new(A100).folding_seconds(1024, ExecOptions::vanilla());
        let h = h100().folding_seconds(1024, ExecOptions::vanilla());
        assert!(a / h < 1.35, "H100 speedup {}", a / h);
        assert!(a / h >= 1.0);
    }

    #[test]
    fn oom_reports_required_bytes() {
        let m = h100();
        match m.run(4000, ExecOptions::vanilla()) {
            GpuRunOutcome::OutOfMemory { required_bytes } => {
                assert!(required_bytes > 80e9);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn completed_run_has_consistent_parts() {
        let m = h100();
        match m.run(512, ExecOptions::vanilla()) {
            GpuRunOutcome::Completed {
                total_seconds,
                folding_seconds,
                peak_memory_bytes,
            } => {
                assert!(folding_seconds < total_seconds);
                assert!(peak_memory_bytes > 0.0);
                assert_eq!(
                    m.run(512, ExecOptions::vanilla()).folding_seconds(),
                    Some(folding_seconds)
                );
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn folding_scales_superquadratically() {
        let m = h100();
        let a = m.folding_seconds(400, ExecOptions::vanilla());
        let b = m.folding_seconds(800, ExecOptions::vanilla());
        assert!(b / a > 4.0, "{}", b / a);
    }
}
