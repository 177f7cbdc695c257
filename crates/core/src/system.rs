//! The one-call LightNobel system: the API a downstream user adopts.
//!
//! [`LightNobelSystem`] bundles the folding trunk, the AAQ configuration
//! and the accelerator/GPU performance models behind two calls:
//! [`LightNobelSystem::fold`] (numeric, quantized, returns the structure
//! with quality and quantization reports) and
//! [`LightNobelSystem::project`] (analytic, returns latency/memory
//! projections for any sequence length).

use crate::accuracy::AccuracyEvaluator;
use crate::hook::AaqHook;
use crate::perf::PerfComparison;
use ln_accel::power::area_power;
use ln_datasets::ProteinRecord;
use ln_gpu::esmfold::ExecOptions;
use ln_gpu::H100;
use ln_ppm::PpmError;
use ln_protein::Structure;
use ln_quant::scheme::AaqConfig;

/// Result of a quantized fold.
#[derive(Debug, Clone)]
pub struct FoldReport {
    /// The predicted Cα backbone (from the AAQ-quantized trunk).
    pub structure: Structure,
    /// TM-Score of the quantized prediction against the FP32 reference
    /// prediction (the quantization fidelity; ~1.0 for AAQ).
    pub tm_vs_reference: f64,
    /// TM-Score against the record's native structure.
    pub tm_vs_native: f64,
    /// Encoded bytes of every quantized activation.
    pub quantized_bytes: u64,
    /// The same activations at FP16.
    pub fp16_bytes: u64,
}

impl FoldReport {
    /// Activation compression achieved by AAQ on this fold.
    pub fn compression(&self) -> f64 {
        self.fp16_bytes as f64 / self.quantized_bytes.max(1) as f64
    }
}

/// Performance projection for one sequence length.
#[derive(Debug, Clone, Copy)]
pub struct Projection {
    /// Sequence length.
    pub ns: usize,
    /// LightNobel folding-block latency, seconds.
    pub lightnobel_seconds: f64,
    /// LightNobel peak device memory, bytes.
    pub lightnobel_peak_bytes: f64,
    /// H100 folding latency with the chunk option (`None` = OOM).
    pub h100_chunk_seconds: Option<f64>,
    /// H100 folding latency without chunking (`None` = OOM).
    pub h100_vanilla_seconds: Option<f64>,
    /// Accelerator power draw, watts.
    pub accelerator_watts: f64,
}

/// The bundled LightNobel system.
///
/// # Example
///
/// ```
/// use lightnobel::system::LightNobelSystem;
/// use ln_datasets::{Dataset, Registry};
///
/// # fn main() -> Result<(), ln_ppm::PpmError> {
/// let system = LightNobelSystem::fast();
/// let registry = Registry::standard();
/// let record = registry.dataset(Dataset::Cameo).shortest();
/// let report = system.fold(record)?;
/// assert!(report.tm_vs_reference > 0.9);
/// assert!(report.compression() > 1.5);
///
/// let projection = system.project(1410);
/// assert!(projection.lightnobel_seconds > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LightNobelSystem {
    evaluator: AccuracyEvaluator,
    aaq: AaqConfig,
    perf: PerfComparison,
}

impl LightNobelSystem {
    /// Standard system: [`AccuracyEvaluator::standard`]'s trunk and
    /// length cap, the paper's AAQ config.
    pub fn standard() -> Self {
        Self::on(AccuracyEvaluator::standard())
    }

    /// Faster system for tests and demos, on [`AccuracyEvaluator::fast`].
    pub fn fast() -> Self {
        Self::on(AccuracyEvaluator::fast())
    }

    fn on(evaluator: AccuracyEvaluator) -> Self {
        LightNobelSystem {
            evaluator,
            aaq: AaqConfig::paper(),
            perf: PerfComparison::paper(),
        }
    }

    /// The AAQ configuration in use.
    pub fn aaq(&self) -> &AaqConfig {
        &self.aaq
    }

    /// Folds a dataset record through the AAQ-quantized trunk, truncated
    /// to the evaluator's length cap (projections are unlimited).
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError`] from the folding model.
    pub fn fold(&self, record: &ProteinRecord) -> Result<FoldReport, PpmError> {
        let reference = self.evaluator.reference(record)?;
        let mut hook = AaqHook::new(self.aaq);
        let (scored, quantized) = self.evaluator.score(&reference, None, &mut hook)?;
        Ok(FoldReport {
            structure: quantized.structure,
            tm_vs_reference: scored.tm_vs_baseline,
            tm_vs_native: scored.tm_vs_native,
            quantized_bytes: hook.encoded_bytes(),
            fp16_bytes: hook.fp16_bytes(),
        })
    }

    /// Projects folding-block performance for a sequence length (no
    /// numeric execution; works for any length).
    pub fn project(&self, ns: usize) -> Projection {
        let gpu = self.perf.gpu(&H100);
        let watts = area_power(self.perf.accel().hw()).total.power_mw / 1000.0;
        let run = |opts: ExecOptions| {
            if gpu.fits_memory(ns, opts) {
                Some(gpu.folding_seconds(ns, opts))
            } else {
                None
            }
        };
        Projection {
            ns,
            lightnobel_seconds: self.perf.lightnobel_folding_seconds(ns),
            lightnobel_peak_bytes: self.perf.accel().peak_memory_bytes(ns),
            h100_chunk_seconds: run(ExecOptions::chunk4()),
            h100_vanilla_seconds: run(ExecOptions::vanilla()),
            accelerator_watts: watts,
        }
    }
}

impl Default for LightNobelSystem {
    fn default() -> Self {
        LightNobelSystem::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_datasets::{Dataset, Registry};

    #[test]
    fn fold_reports_fidelity_and_compression() {
        let system = LightNobelSystem::fast();
        let reg = Registry::standard();
        let record = reg.dataset(Dataset::Cameo).shortest();
        let r = system.fold(record).expect("folds");
        assert!(r.tm_vs_reference > 0.95, "{}", r.tm_vs_reference);
        assert!(r.tm_vs_native > 0.5, "{}", r.tm_vs_native);
        assert!(
            r.compression() > 1.5 && r.compression() < 4.0,
            "{}",
            r.compression()
        );
        assert_eq!(r.structure.len(), record.length().min(96));
    }

    #[test]
    fn projection_handles_oom_frontier() {
        let system = LightNobelSystem::fast();
        let short = system.project(512);
        assert!(short.h100_vanilla_seconds.is_some());
        assert!(short.h100_chunk_seconds.expect("fits") > short.lightnobel_seconds);
        let long = system.project(6879);
        assert!(long.h100_vanilla_seconds.is_none(), "6879 must OOM vanilla");
        assert!(
            long.h100_chunk_seconds.is_none(),
            "6879 must OOM even chunked"
        );
        assert!(long.lightnobel_peak_bytes < 80e9, "LightNobel fits");
        assert!(long.accelerator_watts > 10.0 && long.accelerator_watts < 100.0);
    }
}
