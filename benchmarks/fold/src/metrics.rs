//! Every metric the benchmark prints, by name and unit. `BENCHMARK.json`
//! lists the same names with their direction and bound; a self-test keeps
//! the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the repo sees; printed by an untraced run.
pub const END_TO_END: [Metric; 8] = [
    m("fold_s", "s"),
    m("pair_tokens_per_s", "tokens/s"),
    m("peak_rss_mb", "MB"),
    m("setup_s", "s"),
    m("tm_vs_fp32", "TM-score"),
    m("act_compression", "ratio"),
    m("fold_bitwise_repeat", "0/1"),
    m("succeeded_frac", "ratio"),
];

/// Single layers (layer = crate); printed by a traced run.
pub const PER_LAYER: [Metric; 48] = [
    // ln-ppm: stage spans, and what is left of a stage once its kernels
    // and hook calls are taken out.
    m("ppm.embed_s", "s"),
    m("ppm.seq_track_s", "s"),
    m("ppm.tri_mul_s", "s"),
    m("ppm.tri_attn_s", "s"),
    m("ppm.transition_s", "s"),
    m("ppm.structure_module_s", "s"),
    m("ppm.unattributed_s", "s"),
    m("ppm.tri_mul_einsum_s", "s"),
    m("ppm.tri_mul_glue_s", "s"),
    m("ppm.tri_attn_glue_s", "s"),
    m("ppm.transition_glue_s", "s"),
    m("ppm.taps", "count"),
    // ln-tensor
    m("tensor.matmul_calls", "count"),
    m("tensor.matmul_s", "s"),
    m("tensor.matmul_t_calls", "count"),
    m("tensor.matmul_t_s", "s"),
    m("tensor.matmul_gated_s", "s"),
    m("tensor.scratch_hwm_bytes", "bytes"),
    m("tensor.alloc_events", "count"),
    m("tensor.gemm_probe_gflops", "GFLOP/s"),
    m("tensor.layernorm_probe_mtok_s", "Mtok/s"),
    m("tensor.softmax_probe_mrow_s", "Mrow/s"),
    // ln-quant
    m("quant.fake_quantize_calls", "count"),
    m("quant.fake_quantize_tokens", "count"),
    m("quant.fake_quantize_s", "s"),
    m("quant.from_tensor_s", "s"),
    m("quant.qgemm_calls", "count"),
    m("quant.qgemm_s", "s"),
    m("quant.fakeq_probe_mtok_s", "Mtok/s"),
    m("quant.encode_probe_mtok_s", "Mtok/s"),
    m("quant.qgemm_int8_probe_gops", "Gop/s"),
    m("quant.qgemm_int4_probe_gops", "Gop/s"),
    m("quant.qgemm_vs_fp32_probe_ratio", "ratio"),
    m("quant.codec_encode_probe_mb_s", "MB/s"),
    m("quant.codec_decode_probe_mb_s", "MB/s"),
    // lightnobel (core): the AAQ hook
    m("core.hook_s", "s"),
    m("core.hook_overhead_s", "s"),
    m("core.encoded_bytes", "bytes"),
    m("core.fp16_bytes", "bytes"),
    m("core.rel_rmse_a", "ratio"),
    m("core.rel_rmse_b", "ratio"),
    m("core.rel_rmse_c", "ratio"),
    // ln-par
    m("par.serial_fallbacks", "count"),
    m("par.parallel_dispatches", "count"),
    m("par.pool_nproc_fold_ratio", "ratio"),
    // ln-protein
    m("protein.generate_native_s", "s"),
    m("protein.tm_score_s", "s"),
    // the benchmark itself
    m("bench.trace_overhead_frac", "ratio"),
];
