//! The four workloads, their set-up, and the checks every fold must pass.

use lightnobel::hook::AaqHook;
use ln_ppm::taps::{ActivationHook, NoopHook};
use ln_ppm::{FoldingModel, PpmConfig, PpmError, PredictionOutput};
use ln_protein::generator::StructureGenerator;
use ln_protein::{metrics, Sequence, Structure};
use std::time::Instant;

/// A fold whose TM-score against the FP32 reference is below this is a
/// failed operation (the repo's hard line is a delta under 0.001).
pub const MIN_TM_VS_FP32: f64 = 0.999;

/// Sequence length of every workload under `--quick`.
pub const QUICK_LEN: usize = 32;

/// The precision a workload folds under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// `NoopHook`: full-precision baseline.
    Fp32,
    /// `AaqHook::paper()`: fake-quantization at every tap.
    Aaq,
    /// `AaqHook::paper().with_quantized_domain()`: integer GEMMs after
    /// every post-LayerNorm tap.
    AaqQuantizedDomain,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub len: usize,
    pub precision: Precision,
    pub attention_chunk: Option<usize>,
    /// Set-ups per run, `setup_s` being their median. One set-up at
    /// L = 192 costs a 10 s reference fold, so that workload affords one.
    pub setups: usize,
}

/// Names are the contract for later issues; `BENCHMARK.json` carries the
/// reason each exists.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fold_fp32",
        len: 96,
        precision: Precision::Fp32,
        attention_chunk: None,
        setups: 3,
    },
    Workload {
        name: "fold_aaq",
        len: 96,
        precision: Precision::Aaq,
        attention_chunk: None,
        setups: 3,
    },
    Workload {
        name: "fold_qdomain",
        len: 96,
        precision: Precision::AaqQuantizedDomain,
        attention_chunk: None,
        setups: 3,
    },
    Workload {
        name: "fold_long_chunked",
        len: 192,
        precision: Precision::Fp32,
        attention_chunk: Some(64),
        setups: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn config(&self) -> PpmConfig {
        PpmConfig {
            attention_chunk: self.attention_chunk,
            ..PpmConfig::standard()
        }
    }

    /// A fresh hook: its byte and error sums then belong to one fold.
    pub fn hook(&self) -> FoldHook {
        match self.precision {
            Precision::Fp32 => FoldHook::Noop(NoopHook),
            Precision::Aaq => FoldHook::Aaq(AaqHook::paper()),
            Precision::AaqQuantizedDomain => {
                FoldHook::Aaq(AaqHook::paper().with_quantized_domain())
            }
        }
    }

    pub fn quantizes(&self) -> bool {
        self.precision != Precision::Fp32
    }
}

/// The two hooks the workloads use, so the caller can read the AAQ sums
/// back after handing the trunk a `&mut dyn ActivationHook`.
#[derive(Debug)]
pub enum FoldHook {
    Noop(NoopHook),
    Aaq(AaqHook),
}

impl FoldHook {
    pub fn as_dyn(&mut self) -> &mut dyn ActivationHook {
        match self {
            FoldHook::Noop(h) => h,
            FoldHook::Aaq(h) => h,
        }
    }

    pub fn aaq(&self) -> Option<&AaqHook> {
        match self {
            FoldHook::Noop(_) => None,
            FoldHook::Aaq(h) => Some(h),
        }
    }

    /// FP16 bytes over encoded bytes of every activation the hook saw;
    /// 1.0 when nothing was quantized.
    pub fn act_compression(&self) -> f64 {
        match self.aaq() {
            Some(h) if h.encoded_bytes() > 0 => h.fp16_bytes() as f64 / h.encoded_bytes() as f64,
            _ => 1.0,
        }
    }
}

/// Everything the timed folds need, and what making it cost.
#[derive(Debug)]
pub struct Ready {
    pub model: FoldingModel,
    pub sequence: Sequence,
    pub native: Structure,
    /// The unchunked FP32 fold of the same inputs: warm-up and accuracy
    /// reference in one.
    pub reference: Structure,
    pub setup_s: f64,
    pub generate_native_s: f64,
}

/// Builds the model, generates the inputs from `seed`, and runs the
/// reference fold. Model weights keep the program's default label.
pub fn set_up(workload: &Workload, len: usize, seed: u64) -> Ready {
    let started = Instant::now();
    let label = format!("foldbench/{seed}");
    let model = FoldingModel::new(workload.config());
    let sequence = Sequence::random(&label, len);
    let generate_started = Instant::now();
    let native = StructureGenerator::new(&label).generate(len);
    let generate_native_s = generate_started.elapsed().as_secs_f64();
    let reference = FoldingModel::new(PpmConfig::standard())
        .predict(&sequence, &native)
        .expect("generated inputs have equal, sufficient lengths")
        .structure;
    Ready {
        model,
        sequence,
        native,
        reference,
        setup_s: started.elapsed().as_secs_f64(),
        generate_native_s,
    }
}

/// What one fold produced, reduced to what the metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldCheck {
    /// Hash of every `pair_rep` and coordinate bit.
    pub fingerprint: u64,
    pub tm_vs_fp32: f64,
    pub tm_score_s: f64,
    pub act_compression: f64,
    /// Why the fold counts as failed, if it does.
    pub failure: Option<String>,
}

/// Checks one fold: it returned, every coordinate is finite, it matches
/// the FP32 reference to [`MIN_TM_VS_FP32`], and a quantizing hook
/// compressed the activations.
pub fn check_fold(
    workload: &Workload,
    ready: &Ready,
    hook: &FoldHook,
    result: &Result<PredictionOutput, PpmError>,
) -> FoldCheck {
    let failed = |failure: String| FoldCheck {
        fingerprint: 0,
        tm_vs_fp32: 0.0,
        tm_score_s: 0.0,
        act_compression: hook.act_compression(),
        failure: Some(failure),
    };
    let output = match result {
        Ok(output) => output,
        Err(e) => return failed(format!("fold returned an error: {e}")),
    };
    let coords = output.structure.coords();
    if !coords
        .iter()
        .all(|c| c.x.is_finite() && c.y.is_finite() && c.z.is_finite())
    {
        return failed("non-finite coordinate".to_owned());
    }
    let tm_started = Instant::now();
    let tm_vs_fp32 = match metrics::tm_score(&output.structure, &ready.reference) {
        Ok(tm) => tm.score,
        Err(e) => return failed(format!("tm_score failed: {e}")),
    };
    let tm_score_s = tm_started.elapsed().as_secs_f64();
    let act_compression = hook.act_compression();
    let failure = if tm_vs_fp32 < MIN_TM_VS_FP32 {
        Some(format!("tm_vs_fp32 {tm_vs_fp32} < {MIN_TM_VS_FP32}"))
    } else if workload.quantizes() && act_compression <= 1.0 {
        Some(format!("act_compression {act_compression} <= 1"))
    } else {
        None
    };
    FoldCheck {
        fingerprint: fingerprint(output),
        tm_vs_fp32,
        tm_score_s,
        act_compression,
        failure,
    }
}

/// An FNV-style hash, one word a step, over the bits of the pair
/// representation and the coordinates: equal fingerprints mean
/// bit-identical folds.
pub fn fingerprint(output: &PredictionOutput) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut mix = |word: u64| hash = (hash ^ word).wrapping_mul(PRIME);
    for v in output.pair_rep.as_slice() {
        mix(u64::from(v.to_bits()));
    }
    for c in output.structure.coords() {
        mix(c.x.to_bits());
        mix(c.y.to_bits());
        mix(c.z.to_bits());
    }
    hash
}
