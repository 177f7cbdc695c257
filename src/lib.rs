//! Umbrella crate for the LightNobel reproduction workspace: re-exports
//! every member crate so the examples and integration tests (and a casual
//! `cargo add lightnobel-suite` user) can reach the whole system through
//! one dependency.
//!
//! The interesting entry points:
//!
//! * [`lightnobel::system::LightNobelSystem`] — fold a protein through the
//!   AAQ-quantized trunk and project accelerator performance.
//! * [`lightnobel::accuracy::AccuracyEvaluator`] — compare quantization
//!   schemes by TM-Score.
//! * [`ln_accel::Accelerator`] — the cycle-level accelerator simulator.
//! * [`ln_gpu::EsmFoldGpuModel`] — the A100/H100 baselines.
//! * [`ln_serve::FoldService`] / [`ln_serve::Engine`] — the batched
//!   folding-request scheduler (length-bucketed dispatch, backpressure),
//!   with [`ln_serve::fault`] injecting chaos into it and
//!   [`ln_serve::cluster`] sharding it.
//!
//! See the repository README for the experiment index.

#![forbid(unsafe_code)]

pub use lightnobel;
pub use ln_accel;
pub use ln_datasets;
pub use ln_gpu;
pub use ln_insight;
pub use ln_obs;
pub use ln_par;
pub use ln_ppm;
pub use ln_protein;
pub use ln_quant;
pub use ln_scope;
pub use ln_serve;
pub use ln_tensor;
pub use ln_watch;

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reaches_every_crate() {
        // One symbol per library member crate, proving the re-exports
        // resolve; `ln-bench`, the harness over all of them, is the one
        // member the umbrella does not depend on.
        let _ = crate::ln_obs::level();
        let _ = crate::ln_par::chunk_len(4, 1);
        let _ = crate::ln_tensor::Tensor2::zeros(1, 1);
        let _ = crate::ln_protein::Sequence::random("u", 4);
        let _ = crate::ln_datasets::Registry::standard();
        let _ = crate::ln_ppm::PpmConfig::tiny();
        let _ = crate::ln_quant::scheme::AaqConfig::paper();
        let _ = crate::ln_accel::HwConfig::paper();
        let _ = crate::ln_gpu::H100;
        let _ = crate::ln_scope::Scope::new();
        let _ = crate::ln_serve::BatcherConfig::default();
        let _ = crate::ln_insight::fmt_nanos(1);
        let _ = crate::ln_watch::WatchConfig::default();
        let _ = crate::lightnobel::report::Table::new(["x"]);
    }
}
