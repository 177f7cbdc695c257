//! # lightnobel
//!
//! The top-level crate of the LightNobel reproduction: it wires the PPM
//! substrate (`ln-ppm`), the quantization library (`ln-quant`), the
//! accelerator simulator (`ln-accel`) and the GPU baseline models
//! (`ln-gpu`) into the experiment drivers behind every table and figure in
//! the paper.
//!
//! * [`hook`] — [`hook::AaqHook`] injects Token-wise Adaptive Activation
//!   Quantization into the folding trunk at every tagged dataflow edge;
//!   [`hook::BaselineHook`] does the same for the comparison schemes.
//! * [`accuracy`] — the scored fold: a record's FP32 reference folded
//!   once, any number of hooked folds TM-scored against it and the
//!   synthetic native. Fig. 11, Fig. 13, the sensitivity replay and
//!   [`system`] all score through it (and the §4.1 RMSE ablation).
//! * [`footprint`] — Table 1 memory-footprint accounting.
//! * [`perf`] — LightNobel-vs-GPU latency, peak memory, computational cost
//!   and memory footprint comparisons (Figs. 14, 15, 16).
//! * [`dse`] — the design-space explorations behind Fig. 11 (AAQ schemes)
//!   and Fig. 12 (hardware configuration).
//! * [`sensitivity`] — the error→accuracy sensitivity replay: perturbs
//!   one AAQ group at a time on the golden CAMEO fold to calibrate
//!   `ln_scope::SensitivityModel` (how much TM-score a unit of relative
//!   activation RMSE costs).
//! * [`report`] — plain-text table formatting shared by the bench binaries.
//! * [`system`] — the bundled one-call API ([`system::LightNobelSystem`]):
//!   quantized folding plus performance projection.
//!
//! # Quickstart
//!
//! ```
//! use lightnobel::accuracy::{AccuracyEvaluator, SchemeUnderTest};
//! use ln_datasets::{Dataset, Registry};
//!
//! # fn main() -> Result<(), ln_ppm::PpmError> {
//! let reg = Registry::standard();
//! let record = reg.dataset(Dataset::Cameo).shortest();
//! let eval = AccuracyEvaluator::fast();
//! let result = eval.evaluate(&SchemeUnderTest::aaq_paper(), record)?;
//! assert!(result.tm_vs_baseline > 0.9); // AAQ barely moves the prediction
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod dse;
pub mod footprint;
pub mod hook;
pub mod perf;
pub mod report;
pub mod sensitivity;
pub mod system;

pub use accuracy::{AccuracyEvaluator, AccuracyResult, SchemeUnderTest};
pub use sensitivity::{measure_sensitivity, SensitivityRow};
