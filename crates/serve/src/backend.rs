//! Pluggable simulated folding backends.
//!
//! The scheduler only needs three things from a device: how much memory a
//! batch takes (its peak-memory model), how long a batch takes (its
//! latency model), and a per-dispatch setup cost that batching amortizes
//! (weight streaming / kernel-launch overhead). Both the LightNobel
//! accelerator and the GPU baselines already expose the first two through
//! their simulators; this module adapts them behind one [`Backend`] trait.
//!
//! Routing falls out of the memory models: a vanilla 80 GB GPU stops
//! fitting single sequences around 1.4 k residues (Fig. 15), the chunked
//! GPU a few thousand, while the AAQ accelerator runs past 9.9 k (§8.3) —
//! so the pool's long-sequence traffic lands on LightNobel without any
//! hand-written routing table.

use ln_accel::{Accelerator, HwConfig};
use ln_gpu::esmfold::{EsmFoldGpuModel, ExecOptions};
use ln_gpu::{GpuDevice, A100, H100};
use ln_quant::ActPrecision;

/// A simulated folding device the scheduler can dispatch batches to.
///
/// All times are virtual seconds from the device's latency model — never
/// wall-clock — so every scheduling decision derived from them is
/// deterministic. Backends are plain latency-model data (`Send + Sync`), so
/// the engine can probe their capacities from the ln-par pool at startup.
pub trait Backend: Send + Sync {
    /// Display name (unique within a pool, e.g. `"LightNobel"`, `"A100-chunk4"`).
    fn name(&self) -> &str;

    /// Total device memory, bytes.
    fn memory_capacity_bytes(&self) -> f64;

    /// Bytes of model weights resident regardless of batch.
    fn weight_bytes(&self) -> f64;

    /// Peak activation bytes of a *single* sequence of length `ns` (weights
    /// excluded), at the backend's native activation encoding.
    fn activation_bytes(&self, ns: usize) -> f64;

    /// Per-dispatch setup seconds paid once per batch: weight streaming
    /// plus kernel-launch floors. Batched execution walks the layer grid
    /// once for the whole (padded) batch, so this scales with the batch's
    /// *longest* member, never with its size — it is exactly what dynamic
    /// batching amortizes.
    fn setup_seconds(&self, longest_ns: usize) -> f64;

    /// Marginal compute/traffic seconds for one sequence within a batch
    /// (the roofline part; launch floors and shared weight reads are in
    /// [`Backend::setup_seconds`]).
    fn marginal_seconds(&self, ns: usize) -> f64;

    /// Peak memory of a batch with activations re-quantized to `precision`
    /// down the AAQ ladder: weights once, at their native encoding, plus
    /// every co-batched sequence's activations (all resident concurrently),
    /// which are the only share the ladder shrinks.
    fn batch_peak_bytes_at(&self, lengths: &[usize], precision: ActPrecision) -> f64 {
        self.weight_bytes()
            + lengths
                .iter()
                .map(|&ns| self.activation_bytes(ns))
                .sum::<f64>()
                * precision.activation_scale()
    }

    /// Whether a batch fits device memory at FP32.
    fn fits_batch(&self, lengths: &[usize]) -> bool {
        self.batch_peak_bytes_at(lengths, ActPrecision::Fp32) <= self.memory_capacity_bytes()
    }

    /// Whether the backend may run `lengths` at `precision` with
    /// `available_fraction` of its memory usable (a fault plan's pressure
    /// window squeezes it below 1).
    ///
    /// FP32 only has to fit the squeezed capacity. A degraded rung is
    /// permitted solely as a *pressure* fallback: the backend must actually
    /// be squeezed and the batch must fit its full FP32 capacity —
    /// degradation recovers memory a fault took away; it never extends a
    /// backend's reach beyond what admission and least-capable-first
    /// routing promised.
    fn permits(&self, lengths: &[usize], precision: ActPrecision, available_fraction: f64) -> bool {
        self.batch_peak_bytes_at(lengths, precision)
            <= self.memory_capacity_bytes() * available_fraction
            && (precision == ActPrecision::Fp32
                || (available_fraction < 1.0 && self.fits_batch(lengths)))
    }

    /// Virtual seconds to execute a batch: one setup pass sized by the
    /// longest member, plus every member's marginal roofline time.
    fn batch_seconds(&self, lengths: &[usize]) -> f64 {
        let longest = lengths.iter().copied().max().unwrap_or(0);
        self.setup_seconds(longest)
            + lengths
                .iter()
                .map(|&ns| self.marginal_seconds(ns))
                .sum::<f64>()
    }

    /// The longest single sequence that fits device memory (binary search
    /// over the peak-memory model; this is the backend's routing capacity).
    fn max_single_length(&self) -> usize {
        let mut lo = 0usize;
        let mut hi = 200_000usize;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.fits_batch(&[mid]) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The LightNobel accelerator as a serving backend (AAQ-capable: its
/// peak-memory model has no sequence-length cliff, so it receives the
/// long-sequence buckets).
#[derive(Debug, Clone)]
pub struct LightNobelBackend {
    label: String,
    accel: Accelerator,
}

impl LightNobelBackend {
    /// Paper-configuration accelerator.
    pub fn paper(label: impl Into<String>) -> Self {
        LightNobelBackend {
            label: label.into(),
            accel: Accelerator::new(HwConfig::paper()),
        }
    }
}

impl Backend for LightNobelBackend {
    fn name(&self) -> &str {
        &self.label
    }

    fn memory_capacity_bytes(&self) -> f64 {
        self.accel.hw().hbm_capacity_bytes as f64
    }

    fn weight_bytes(&self) -> f64 {
        self.accel.weight_bytes()
    }

    fn activation_bytes(&self, ns: usize) -> f64 {
        self.accel
            .cost()
            .peak_activation_bytes_tokenwise(ns, self.accel.aaq())
    }

    fn setup_seconds(&self, _longest_ns: usize) -> f64 {
        // Streaming the resident INT16 trunk weights over HBM once per
        // dispatch; the accelerator's deep tile pipeline keeps its launch
        // floor negligible next to the GPUs' kernel grids.
        self.weight_bytes() / self.accel.hw().hbm_bandwidth_bytes_per_s
    }

    fn marginal_seconds(&self, ns: usize) -> f64 {
        self.accel.simulate(ns).total_seconds()
    }
}

/// An ESMFold-on-GPU baseline as a serving backend.
///
/// The latency split follows §8.2: at short-to-mid lengths the chunked
/// GPU run is dominated by kernel-launch overhead (the chunk option
/// multiplies kernel count), and batched execution launches each kernel
/// once over the padded batch — so the launch floor moves into
/// `setup_seconds` and only the roofline compute/traffic stays marginal.
#[derive(Debug, Clone)]
pub struct GpuBackend {
    label: String,
    model: EsmFoldGpuModel,
    /// Twin model on a zero-launch-overhead copy of the device: the gap
    /// between the two isolates the per-dispatch kernel-launch floor.
    no_launch: EsmFoldGpuModel,
    opts: ExecOptions,
}

impl GpuBackend {
    /// Builds a backend for a device and execution options.
    pub(crate) fn new(label: impl Into<String>, device: GpuDevice, opts: ExecOptions) -> Self {
        let mut zero_launch = device;
        zero_launch.kernel_launch_seconds = 0.0;
        GpuBackend {
            label: label.into(),
            model: EsmFoldGpuModel::new(device),
            no_launch: EsmFoldGpuModel::new(zero_launch),
            opts,
        }
    }

    /// Full single-run seconds under a model (embedding + trunk + structure).
    fn run_seconds(model: &EsmFoldGpuModel, ns: usize, opts: ExecOptions) -> f64 {
        model.embedding_seconds(ns) + model.folding_seconds(ns, opts) + model.structure_seconds(ns)
    }

    /// The ESM-2 language-model weight read: per-dispatch and weight-bound,
    /// so co-batched sequences share one pass (§8.1's embedding-stage
    /// bottleneck is exactly this read).
    fn lm_weight_read_seconds(&self) -> f64 {
        use ln_ppm::cost::{ESM2_PARAMS, FP16_BYTES};
        ESM2_PARAMS as f64 * FP16_BYTES / self.model.device().effective_bandwidth()
    }

    /// An A100 with the paper's `Chunk4` low-memory option.
    pub fn a100_chunk4() -> Self {
        GpuBackend::new("A100-chunk4", A100, ExecOptions::chunk4())
    }

    /// An H100 with the paper's `Chunk4` low-memory option.
    pub fn h100_chunk4() -> Self {
        GpuBackend::new("H100-chunk4", H100, ExecOptions::chunk4())
    }

    /// The underlying GPU model.
    pub fn model(&self) -> &EsmFoldGpuModel {
        &self.model
    }
}

impl Backend for GpuBackend {
    fn name(&self) -> &str {
        &self.label
    }

    fn memory_capacity_bytes(&self) -> f64 {
        self.model.device().vram_bytes as f64
    }

    fn weight_bytes(&self) -> f64 {
        self.model.cost().total_weight_bytes_fp16()
    }

    fn activation_bytes(&self, ns: usize) -> f64 {
        self.model
            .cost()
            .peak_activation_bytes(ns, self.opts.exec_mode())
    }

    fn setup_seconds(&self, longest_ns: usize) -> f64 {
        // Kernel-launch floor of one walk over the padded batch grid
        // (isolated as real-device minus zero-launch-device time), plus
        // the shared ESM-2 weight read.
        let launch = Self::run_seconds(&self.model, longest_ns, self.opts)
            - Self::run_seconds(&self.no_launch, longest_ns, self.opts);
        launch.max(0.0) + self.lm_weight_read_seconds()
    }

    fn marginal_seconds(&self, ns: usize) -> f64 {
        // Launch-free roofline time, minus the weight read charged in setup.
        (Self::run_seconds(&self.no_launch, ns, self.opts) - self.lm_weight_read_seconds()).max(0.0)
    }
}

/// The standard serving pool: one AAQ-capable LightNobel device plus the
/// two chunked GPU baselines.
pub fn standard_backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(LightNobelBackend::paper("LightNobel")),
        Box::new(GpuBackend::a100_chunk4()),
        Box::new(GpuBackend::h100_chunk4()),
    ]
}

/// Best-case service seconds for a single sequence of `length` over a
/// pool: the fastest backend whose memory fits it at FP32, ignoring all
/// queueing. `None` when nothing fits (the `TooLong` case).
pub(crate) fn best_case_seconds(backends: &[Box<dyn Backend>], length: usize) -> Option<f64> {
    backends
        .iter()
        .filter(|b| b.fits_batch(&[length]))
        .map(|b| b.batch_seconds(&[length]))
        .fold(None, |acc: Option<f64>, t| {
            Some(acc.map_or(t, |cur| cur.min(t)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lightnobel_outlasts_gpus_in_length() {
        let ln = LightNobelBackend::paper("ln");
        let a100 = GpuBackend::a100_chunk4();
        let vanilla = GpuBackend::new("A100-vanilla", A100, ExecOptions::vanilla());
        assert!(
            ln.max_single_length() > a100.max_single_length(),
            "{} vs {}",
            ln.max_single_length(),
            a100.max_single_length()
        );
        assert!(vanilla.max_single_length() < a100.max_single_length());
        // §8.3: LightNobel supports ~9 945 residues in 80 GB.
        assert!(ln.max_single_length() > 6879);
    }

    #[test]
    fn batching_amortizes_setup() {
        for b in standard_backends() {
            let one = b.batch_seconds(&[300]);
            let four = b.batch_seconds(&[300, 300, 300, 300]);
            assert!(
                four < 4.0 * one,
                "{}: batch of 4 ({four}) must beat 4 sequential ({})",
                b.name(),
                4.0 * one
            );
            assert!(four > one, "{}: more work takes longer", b.name());
        }
    }

    #[test]
    fn batch_memory_sums_activations_not_weights() {
        let b = GpuBackend::a100_chunk4();
        let single = b.batch_peak_bytes_at(&[400], ActPrecision::Fp32);
        let pair = b.batch_peak_bytes_at(&[400, 400], ActPrecision::Fp32);
        assert_eq!(pair - single, b.activation_bytes(400), "weights once");
        // A batch can exceed capacity even when each member alone fits.
        let n = b.max_single_length();
        assert!(b.fits_batch(&[n]));
        assert!(!b.fits_batch(&[n, n]));
    }

    #[test]
    fn precision_degradation_extends_memory_reach() {
        let b = LightNobelBackend::paper("ln");
        let n = b.max_single_length();
        let capacity = b.memory_capacity_bytes();
        // At full capacity the rungs nest: whatever fits at FP32 fits at
        // INT8, and INT4 extends past both.
        assert!(b.batch_peak_bytes_at(&[n], ActPrecision::Int8) <= capacity);
        assert!(b.batch_peak_bytes_at(&[2 * n], ActPrecision::Int4) <= capacity);
        assert!(!b.fits_batch(&[2 * n]));
        // Under pressure (a fraction of capacity) FP32 stops fitting long
        // before INT4 does — the degradation window the fallback exploits.
        let squeezed = crate::fault::int4_only_pressure().available_fraction;
        assert!(!b.permits(&[n], ActPrecision::Fp32, squeezed));
        assert!(b.permits(&[n], ActPrecision::Int4, squeezed));
        // A degraded rung is a pressure fallback only: never at full
        // capacity, and never for a batch FP32 capacity could not hold.
        assert!(!b.permits(&[n], ActPrecision::Int4, 1.0));
        assert!(!b.permits(&[2 * n], ActPrecision::Int4, 0.99));
    }

    #[test]
    fn empty_batch_costs_only_setup() {
        let b = LightNobelBackend::paper("ln");
        assert_eq!(b.batch_seconds(&[]), b.setup_seconds(0));
        assert!(b.fits_batch(&[]));
    }

    #[test]
    fn chunked_gpu_launch_floor_dominates_short_lengths() {
        // §8.2: the chunk option multiplies kernel count, so at short
        // lengths most of a solo run is launch overhead — which batching
        // pays once. The batch split must preserve the solo total.
        let b = GpuBackend::a100_chunk4();
        for ns in [200usize, 600, 1200] {
            let solo = GpuBackend::run_seconds(&b.model, ns, b.opts);
            let split = b.setup_seconds(ns) + b.marginal_seconds(ns);
            assert!(
                (split - solo).abs() < 0.05 * solo + 1e-9,
                "ns={ns}: split {split} vs solo {solo}"
            );
        }
        assert!(
            b.setup_seconds(300) > b.marginal_seconds(300),
            "short chunked runs are launch-bound: setup {} vs marginal {}",
            b.setup_seconds(300),
            b.marginal_seconds(300)
        );
    }
}
