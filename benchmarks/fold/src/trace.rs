//! The traced run: one fold rebuilt from the trunk's public units with a
//! span around every stage and every hook call, and the kernel counters
//! read at every stage boundary. Never used for end-to-end numbers.

use crate::json::{self, Value};
use crate::report::Outcome;
use crate::span::{self_time_ns, Recorder, Span};
use crate::workload::{check_fold, set_up, Workload};
use crate::{host, probes};
use ln_par::metrics::KernelStat;
use ln_ppm::blocks::{
    AttentionNode, PairTransition, SequenceTrack, TriangleDirection, TriangularAttention,
    TriangularMultiplication,
};
use ln_ppm::embed::Embedding;
use ln_ppm::structure_module;
use ln_ppm::taps::{ActivationHook, ActivationSite, Tap};
use ln_ppm::{PpmConfig, PpmError, PredictionOutput};
use ln_protein::{Sequence, Structure};
use ln_quant::scheme::{Group, QuantScheme};
use ln_tensor::nn::LayerNorm;
use ln_tensor::{microkernel, Tensor2, Tensor3};
use std::time::Instant;

/// Time outside every stage span may be at most this share of the fold.
const MAX_UNATTRIBUTED_FRAC: f64 = 0.01;

/// The label `FoldingModel::new` derives its weights from.
const MODEL_LABEL: &str = "lightnobel/ppm";

/// Which per-layer metric a stage span is summed into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Embed,
    Recycle,
    SeqTrack,
    TriMul,
    TriAttn,
    Transition,
    StructureModule,
}

/// One stage span and the kernel counters it moved.
#[derive(Debug)]
pub struct StageSample {
    pub span: u32,
    pub stage: Stage,
    pub kernels: Vec<(&'static str, KernelStat)>,
    pub serial_fallbacks: u64,
    pub parallel_dispatches: u64,
}

/// Wraps the workload's hook: forwards everything, times each
/// `on_activation` at a site the hook observes as a child of the stage it
/// fires in, and owns the fold's recorder. A site the hook does not
/// observe gets no span: the hook does no work there, and a span would
/// time the clock alone.
pub struct TimedHook<'a> {
    inner: &'a mut dyn ActivationHook,
    pub rec: Recorder,
    pub stages: Vec<StageSample>,
    pub taps: u64,
}

impl<'a> TimedHook<'a> {
    pub fn new(inner: &'a mut dyn ActivationHook, fold: u32) -> Self {
        TimedHook {
            inner,
            rec: Recorder::new(fold),
            stages: Vec::new(),
            taps: 0,
        }
    }

    /// Runs `f` under a stage span, with the ln-par counters zeroed before
    /// and read after, so they hold this stage's kernels only.
    fn stage<R>(&mut self, stage: Stage, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        ln_par::metrics::reset();
        let span = self.rec.begin(name);
        let out = f(self);
        self.rec.end(span);
        let pool = ln_par::metrics::snapshot();
        self.stages.push(StageSample {
            span,
            stage,
            kernels: ln_par::metrics::kernel_stats(),
            serial_fallbacks: pool.serial_fallbacks,
            parallel_dispatches: pool.parallel_dispatches,
        });
        out
    }
}

impl ActivationHook for TimedHook<'_> {
    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
        self.taps += 1;
        if !self.inner.observes(tap.site) {
            return self.inner.on_activation(tap, activation);
        }
        let span = self.rec.begin(&format!("hook/{}", tap.site));
        self.inner.on_activation(tap, activation);
        self.rec.end(span);
    }

    fn observes(&self, site: ActivationSite) -> bool {
        self.inner.observes(site)
    }

    fn quantized_matmul(&self, tap: Tap) -> Option<QuantScheme> {
        self.inner.quantized_matmul(tap)
    }
}

struct BlockUnits {
    seq_track: SequenceTrack,
    tri_mul_out: TriangularMultiplication,
    tri_mul_in: TriangularMultiplication,
    tri_attn_start: TriangularAttention,
    tri_attn_end: TriangularAttention,
    transition: PairTransition,
}

/// `FoldingModel`, taken apart: the same units built from the same
/// labels, so that a fold through them is bit-identical to
/// `FoldingModel::predict_with_hook` (every traced run checks that).
pub struct Trunk {
    config: PpmConfig,
    embedding: Embedding,
    blocks: Vec<BlockUnits>,
    recycle_norm: LayerNorm,
}

impl Trunk {
    pub fn new(config: &PpmConfig) -> Self {
        let blocks = (0..config.blocks)
            .map(|i| {
                let tag = |unit: &str| format!("{MODEL_LABEL}/block{i}/{unit}");
                BlockUnits {
                    seq_track: SequenceTrack::new(config, &tag("seq")),
                    tri_mul_out: TriangularMultiplication::new(
                        config,
                        &tag("tri_mul_out"),
                        TriangleDirection::Outgoing,
                    ),
                    tri_mul_in: TriangularMultiplication::new(
                        config,
                        &tag("tri_mul_in"),
                        TriangleDirection::Incoming,
                    ),
                    tri_attn_start: TriangularAttention::new(
                        config,
                        &tag("tri_attn_start"),
                        AttentionNode::Starting,
                    ),
                    tri_attn_end: TriangularAttention::new(
                        config,
                        &tag("tri_attn_end"),
                        AttentionNode::Ending,
                    ),
                    transition: PairTransition::new(config, &tag("transition")),
                }
            })
            .collect();
        Trunk {
            config: config.clone(),
            embedding: Embedding::new(config.clone()),
            blocks,
            recycle_norm: LayerNorm::deterministic(
                &format!("{MODEL_LABEL}/recycle_ln"),
                config.hz,
                0.1,
            ),
        }
    }

    /// One fold under a root span `fold`, every stage a child of it.
    pub fn fold(
        &self,
        sequence: &Sequence,
        native: &Structure,
        hook: &mut TimedHook,
    ) -> Result<PredictionOutput, PpmError> {
        let root = hook.rec.begin("fold");
        let result = self.fold_stages(sequence, native, hook);
        hook.rec.end(root);
        result
    }

    fn fold_stages(
        &self,
        sequence: &Sequence,
        native: &Structure,
        hook: &mut TimedHook,
    ) -> Result<PredictionOutput, PpmError> {
        let ns = sequence.len();
        let (mut seq_rep, pair_init, mut pair) = hook.stage(Stage::Embed, "ppm/embed", |_| {
            let (seq_rep, pair_init) = self.embedding.embed(sequence, native)?;
            let pair = pair_init.clone();
            Ok::<_, PpmError>((seq_rep, pair_init, pair))
        })?;

        for recycle in 0..self.config.recycles {
            if recycle > 0 {
                pair = hook.stage(Stage::Recycle, "ppm/recycle", |_| {
                    let prev = self.recycle_norm.forward(&pair.to_token_matrix())?;
                    let scaled: Vec<f32> = prev.as_slice().iter().map(|&x| x * 0.1).collect();
                    let mut next = pair_init.clone();
                    next.add_assign(&Tensor3::from_vec(ns, ns, prev.cols(), scaled)?)?;
                    Ok::<_, PpmError>(next)
                })?;
            }
            for (b, units) in self.blocks.iter().enumerate() {
                let name = |unit: &str| format!("ppm/block{b}/{unit}");
                hook.stage(Stage::SeqTrack, &name("seq"), |_| {
                    units.seq_track.forward(&mut seq_rep, &mut pair)
                })?;
                hook.stage(Stage::TriMul, &name("tri_mul_out"), |h| {
                    units.tri_mul_out.forward(&mut pair, h, b, recycle)
                })?;
                hook.stage(Stage::TriMul, &name("tri_mul_in"), |h| {
                    units.tri_mul_in.forward(&mut pair, h, b, recycle)
                })?;
                hook.stage(Stage::TriAttn, &name("tri_attn_start"), |h| {
                    units.tri_attn_start.forward(&mut pair, h, b, recycle)
                })?;
                hook.stage(Stage::TriAttn, &name("tri_attn_end"), |h| {
                    units.tri_attn_end.forward(&mut pair, h, b, recycle)
                })?;
                hook.stage(Stage::Transition, &name("transition"), |h| {
                    units.transition.forward(&mut pair, h, b, recycle)
                })?;
            }
        }

        let structure = hook.stage(Stage::StructureModule, "ppm/structure_module", |_| {
            structure_module::decode_structure(&pair)
        })?;
        Ok(PredictionOutput {
            structure,
            pair_rep: pair,
        })
    }
}

/// Kernels that run in the trunk's own code. `aaq.fake_quantize` is
/// missing on purpose: it runs inside the hook, whose spans cover it.
/// The `ppm.*` wrappers of `FoldingBlock::forward` are not leaves (and the
/// decomposed fold never enters them).
fn is_trunk_leaf_kernel(name: &str) -> bool {
    name.starts_with("tensor2.")
        || matches!(name, "ppm.tri_mul.einsum" | "aaq.from_tensor" | "aaq.qgemm")
}

/// The per-layer numbers one traced fold gives, from its spans and the
/// counters sampled at the stage boundaries.
pub struct FoldProfile<'a> {
    spans: &'a [Span],
    stages: &'a [StageSample],
}

impl<'a> FoldProfile<'a> {
    pub fn new(spans: &'a [Span], stages: &'a [StageSample]) -> Self {
        FoldProfile { spans, stages }
    }

    /// Seconds of the root span.
    pub fn fold_s(&self) -> f64 {
        self.spans[0].seconds()
    }

    /// Seconds of the fold outside every stage span.
    pub fn unattributed_s(&self) -> f64 {
        self_time_ns(self.spans, self.spans[0].id) as f64 / 1e9
    }

    fn of(&self, stage: Stage) -> impl Iterator<Item = &StageSample> {
        self.stages.iter().filter(move |s| s.stage == stage)
    }

    pub fn stage_s(&self, stage: Stage) -> f64 {
        self.of(stage)
            .map(|s| self.spans[s.span as usize].seconds())
            .sum()
    }

    /// Calls, seconds and items of one kernel over the whole fold.
    pub fn kernel(&self, name: &str) -> (u64, f64, u64) {
        let (mut calls, mut nanos, mut items) = (0, 0, 0);
        for (_, stat) in self
            .stages
            .iter()
            .flat_map(|s| &s.kernels)
            .filter(|(kernel, _)| *kernel == name)
        {
            calls += stat.calls;
            nanos += stat.nanos;
            items += stat.items;
        }
        (calls, nanos as f64 / 1e9, items)
    }

    /// Seconds inside hook spans: what the stages' children cover.
    pub fn hook_s(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| {
                let span = &self.spans[s.span as usize];
                (span.end_ns - span.start_ns - self_time_ns(self.spans, s.span)) as f64 / 1e9
            })
            .sum()
    }

    /// What is left of a stage once its hook calls and the kernels its own
    /// code ran are taken out: copies, transposes, gathers, element-wise
    /// passes and allocation. Signed, so a bookkeeping error shows.
    pub fn glue_s(&self, stage: Stage) -> f64 {
        self.of(stage)
            .map(|s| {
                let kernel_ns: u64 = s
                    .kernels
                    .iter()
                    .filter(|(name, _)| is_trunk_leaf_kernel(name))
                    .map(|(_, stat)| stat.nanos)
                    .sum();
                (self_time_ns(self.spans, s.span) as f64 - kernel_ns as f64) / 1e9
            })
            .sum()
    }

    pub fn pool_counts(&self) -> (u64, u64) {
        self.stages.iter().fold((0, 0), |(s, p), sample| {
            (s + sample.serial_fallbacks, p + sample.parallel_dispatches)
        })
    }
}

/// The traced run of one workload: set-up, one plain fold through
/// `FoldingModel::predict_with_hook`, the same fold decomposed under
/// spans, the kernel probes, and one plain fold on a pool of `nproc`.
/// Returns the outcome and the spans to write out.
pub fn run(workload: &Workload, seed: u64, len: usize) -> (Outcome, Vec<Span>) {
    let ready = set_up(workload, len, seed);
    let plain_fold = |hook: &mut crate::workload::FoldHook| {
        let started = Instant::now();
        let result = ready
            .model
            .predict_with_hook(&ready.sequence, &ready.native, hook.as_dyn());
        (started.elapsed().as_secs_f64(), result)
    };

    let mut plain_hook = workload.hook();
    let (plain_s, plain) = plain_fold(&mut plain_hook);
    let plain_check = check_fold(workload, &ready, &plain_hook, &plain);
    drop(plain);

    let trunk = Trunk::new(&workload.config());
    let mut traced_hook = workload.hook();
    let mut timed = TimedHook::new(traced_hook.as_dyn(), 0);
    microkernel::reset_scratch_hwm();
    let allocs_before = microkernel::alloc_events();
    let traced = trunk.fold(&ready.sequence, &ready.native, &mut timed);
    let alloc_events = microkernel::alloc_events() - allocs_before;
    let scratch_hwm_bytes = microkernel::scratch_hwm_bytes();
    let TimedHook {
        rec, stages, taps, ..
    } = timed;
    let spans = rec.into_spans();
    let traced_check = check_fold(workload, &ready, &traced_hook, &traced);
    let profile = FoldProfile::new(&spans, &stages);

    let probe_values = match &traced {
        Ok(output) => probes::run(&output.pair_rep.to_token_matrix(), len),
        Err(_) => probes::NAMES.iter().map(|name| (*name, f64::NAN)).collect(),
    };
    drop(traced);

    let mut wide_hook = workload.hook();
    let (wide_s, wide) = ln_par::with_pool(&ln_par::Pool::new_exact(host::nproc()), || {
        plain_fold(&mut wide_hook)
    });
    let wide_check = check_fold(workload, &ready, &wide_hook, &wide);
    drop(wide);

    let checks = [&plain_check, &traced_check, &wide_check];
    let mut violations: Vec<String> = ["plain", "traced", "nproc-pool"]
        .iter()
        .zip(checks)
        .filter_map(|(which, c)| c.failure.as_ref().map(|f| format!("{which} fold: {f}")))
        .collect();
    if traced_check.fingerprint != plain_check.fingerprint {
        violations.push("decomposed fold differs from FoldingModel::predict_with_hook".to_owned());
    }
    if wide_check.fingerprint != plain_check.fingerprint {
        violations.push("fold on the nproc pool differs from the pool-1 fold".to_owned());
    }
    let fold_s = profile.fold_s();
    let unattributed_s = profile.unattributed_s();
    if unattributed_s > MAX_UNATTRIBUTED_FRAC * fold_s {
        violations.push(format!(
            "{unattributed_s} s of the {fold_s} s traced fold lie outside every stage span"
        ));
    }

    let (matmul_calls, matmul_s, _) = profile.kernel("tensor2.matmul");
    let (matmul_t_calls, matmul_t_s, _) = profile.kernel("tensor2.matmul_t");
    let (_, matmul_gated_s, _) = profile.kernel("tensor2.matmul_gated");
    let (_, einsum_s, _) = profile.kernel("ppm.tri_mul.einsum");
    let (fakeq_calls, fakeq_s, fakeq_tokens) = profile.kernel("aaq.fake_quantize");
    let (_, from_tensor_s, _) = profile.kernel("aaq.from_tensor");
    let (qgemm_calls, qgemm_s, _) = profile.kernel("aaq.qgemm");
    let hook_s = profile.hook_s();
    let (serial_fallbacks, parallel_dispatches) = profile.pool_counts();
    let aaq = traced_hook.aaq();
    let rel_rmse = |group| aaq.map_or(0.0, |h| h.relative_rmse(group));

    let mut values = vec![
        ("ppm.embed_s", profile.stage_s(Stage::Embed)),
        ("ppm.seq_track_s", profile.stage_s(Stage::SeqTrack)),
        ("ppm.tri_mul_s", profile.stage_s(Stage::TriMul)),
        ("ppm.tri_attn_s", profile.stage_s(Stage::TriAttn)),
        ("ppm.transition_s", profile.stage_s(Stage::Transition)),
        (
            "ppm.structure_module_s",
            profile.stage_s(Stage::StructureModule),
        ),
        ("ppm.unattributed_s", unattributed_s),
        ("ppm.tri_mul_einsum_s", einsum_s),
        ("ppm.tri_mul_glue_s", profile.glue_s(Stage::TriMul)),
        ("ppm.tri_attn_glue_s", profile.glue_s(Stage::TriAttn)),
        ("ppm.transition_glue_s", profile.glue_s(Stage::Transition)),
        ("ppm.taps", taps as f64),
        ("tensor.matmul_calls", matmul_calls as f64),
        ("tensor.matmul_s", matmul_s),
        ("tensor.matmul_t_calls", matmul_t_calls as f64),
        ("tensor.matmul_t_s", matmul_t_s),
        ("tensor.matmul_gated_s", matmul_gated_s),
        ("tensor.scratch_hwm_bytes", scratch_hwm_bytes as f64),
        ("tensor.alloc_events", alloc_events as f64),
        ("quant.fake_quantize_calls", fakeq_calls as f64),
        ("quant.fake_quantize_tokens", fakeq_tokens as f64),
        ("quant.fake_quantize_s", fakeq_s),
        ("quant.from_tensor_s", from_tensor_s),
        ("quant.qgemm_calls", qgemm_calls as f64),
        ("quant.qgemm_s", qgemm_s),
        ("core.hook_s", hook_s),
        ("core.hook_overhead_s", hook_s - fakeq_s),
        (
            "core.encoded_bytes",
            aaq.map_or(0, |h| h.encoded_bytes()) as f64,
        ),
        ("core.fp16_bytes", aaq.map_or(0, |h| h.fp16_bytes()) as f64),
        ("core.rel_rmse_a", rel_rmse(Group::A)),
        ("core.rel_rmse_b", rel_rmse(Group::B)),
        ("core.rel_rmse_c", rel_rmse(Group::C)),
        ("par.serial_fallbacks", serial_fallbacks as f64),
        ("par.parallel_dispatches", parallel_dispatches as f64),
        ("par.pool_nproc_fold_ratio", wide_s / plain_s),
        ("protein.generate_native_s", ready.generate_native_s),
        ("protein.tm_score_s", traced_check.tm_score_s),
        ("bench.trace_overhead_frac", fold_s / plain_s - 1.0),
    ];
    values.extend(probe_values);

    let outcome = Outcome {
        attempted: checks.len() as u64,
        failed: checks.iter().filter(|c| c.failure.is_some()).count() as u64,
        violations,
        values,
        details: json::obj([
            ("seed", Value::UInt(seed)),
            ("len", Value::UInt(len as u64)),
            ("host", host::facts(1)),
            ("plain_fold_s", Value::Float(plain_s)),
            ("traced_fold_s", Value::Float(fold_s)),
            ("nproc_pool_fold_s", Value::Float(wide_s)),
            ("spans", Value::UInt(spans.len() as u64)),
        ]),
    };
    (outcome, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{fingerprint, FoldHook};
    use lightnobel::hook::AaqHook;
    use ln_ppm::taps::NoopHook;
    use ln_ppm::FoldingModel;
    use ln_protein::generator::StructureGenerator;

    /// Folds the same inputs through `FoldingModel` and through the
    /// decomposed trunk, each with a fresh hook from `make_hook`.
    fn both_ways(
        config: &PpmConfig,
        make_hook: impl Fn() -> FoldHook,
    ) -> (
        PredictionOutput,
        PredictionOutput,
        Vec<Span>,
        Vec<StageSample>,
    ) {
        let sequence = Sequence::random("foldbench/test", 24);
        let native = StructureGenerator::new("foldbench/test").generate(24);
        let mut hook = make_hook();
        let whole = FoldingModel::new(config.clone())
            .predict_with_hook(&sequence, &native, hook.as_dyn())
            .unwrap();
        let mut hook = make_hook();
        let mut timed = TimedHook::new(hook.as_dyn(), 0);
        let parts = Trunk::new(config)
            .fold(&sequence, &native, &mut timed)
            .unwrap();
        let TimedHook { rec, stages, .. } = timed;
        (whole, parts, rec.into_spans(), stages)
    }

    // The ln-par counters are process-wide and `stage` resets them, so the
    // folds of this module run in one test, one after another.
    #[test]
    fn decomposed_fold_is_bit_identical_and_fully_attributed() {
        let tiny = PpmConfig::tiny();
        let recycling_chunked = PpmConfig {
            recycles: 2,
            blocks: 2,
            attention_chunk: Some(8),
            ..PpmConfig::tiny()
        };
        type MakeHook = fn() -> FoldHook;
        let cases: [(&PpmConfig, MakeHook); 4] = [
            (&tiny, || FoldHook::Noop(NoopHook)),
            (&tiny, || FoldHook::Aaq(AaqHook::paper())),
            (&tiny, || {
                FoldHook::Aaq(AaqHook::paper().with_quantized_domain())
            }),
            (&recycling_chunked, || FoldHook::Noop(NoopHook)),
        ];
        for (config, make_hook) in cases {
            let quantizes = make_hook().aaq().is_some();
            let (whole, parts, spans, stages) = both_ways(config, make_hook);
            assert_eq!(fingerprint(&whole), fingerprint(&parts));
            assert_eq!(whole, parts);

            let profile = FoldProfile::new(&spans, &stages);
            // Stages are the root's only children and tile it: what they
            // leave is the gaps between them.
            let stage_sum: f64 = stages
                .iter()
                .map(|s| spans[s.span as usize].seconds())
                .sum();
            assert!((profile.fold_s() - stage_sum - profile.unattributed_s()).abs() < 1e-9);
            assert!(stages
                .iter()
                .all(|s| spans[s.span as usize].parent == Some(0)));
            assert_eq!(
                stages.len(),
                2 + (config.recycles - 1) + 6 * config.blocks * config.recycles
            );
            // Glue may not go negative beyond the clock's resolution: a
            // kernel's time is measured inside the stage that ran it.
            for stage in [Stage::TriMul, Stage::TriAttn, Stage::Transition] {
                assert!(profile.glue_s(stage) > -1e-6, "{stage:?} glue");
                assert!(profile.glue_s(stage) <= profile.stage_s(stage));
            }
            let (fakeq_calls, fakeq_s, _) = profile.kernel("aaq.fake_quantize");
            if quantizes {
                assert!(fakeq_calls > 0);
                assert!(profile.hook_s() >= fakeq_s);
            } else {
                assert_eq!(fakeq_calls, 0);
                assert_eq!(profile.hook_s(), 0.0);
                assert!(spans.iter().all(|s| !s.name.starts_with("hook/")));
            }
        }
    }
}
