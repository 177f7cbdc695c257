//! # ln-ppm
//!
//! A from-scratch Protein Structure Prediction Model (PPM) substrate with
//! the exact dataflow the paper targets (§2.3, Fig. 2/6):
//!
//! * **Input embedding** ([`embed`]): converts an amino-acid sequence into a
//!   Sequence Representation `(Ns, Hm)` and a Pair Representation
//!   `(Ns, Ns, Hz)` whose channels carry a distogram encoding — the source
//!   of the token-wise distogram pattern the paper's AAQ exploits (§3.3).
//! * **Protein Folding Block** ([`blocks`]): Triangular Multiplication
//!   (outgoing/incoming), Triangular Attention (starting/ending node), Pair
//!   Transition, sequence row-attention with pair bias, and the
//!   outer-product-mean sequence→pair update, all with residual streams.
//! * **Structure Module** ([`structure_module`]): decodes the final pair
//!   representation into 3-D Cα coordinates via distogram decoding and
//!   classical multidimensional scaling, with chirality fixing.
//! * **Activation taps** ([`taps`]): every quantization-relevant activation
//!   edge in the dataflow is tagged with an [`taps::ActivationSite`] and the
//!   paper's Group A/B/C classification (Fig. 6); an [`taps::ActivationHook`]
//!   lets callers observe or *rewrite* activations in flight, which is how
//!   `lightnobel` injects quantize→dequantize at every tagged edge.
//! * **Cost model** ([`cost`]): exact op/byte accounting for every dataflow
//!   stage at paper scale, used by the latency/memory experiments
//!   (Figs. 3, 4, 15, 16) without allocating hundred-GB tensors.
//!
//! The trunk executes numerically (no stubs): weights are deterministic and
//! layer gains are engineered so that activation *statistics* match the
//! paper's measurements (Group A ≈ large values + outliers, Group B ≈
//! LayerNorm-compressed, Group C ≈ small with <1 outlier/token) while the
//! residual distogram stream keeps baseline predictions accurate against
//! the synthetic natives.
//!
//! # Example
//!
//! ```
//! use ln_ppm::{PpmConfig, FoldingModel};
//! use ln_datasets::{Dataset, Registry};
//!
//! # fn main() -> Result<(), ln_ppm::PpmError> {
//! let reg = Registry::standard();
//! let rec = reg.dataset(Dataset::Cameo).shortest();
//! let model = FoldingModel::new(PpmConfig::tiny());
//! let out = model.predict(&rec.sequence(), &rec.native_structure())?;
//! assert_eq!(out.structure.len(), rec.length());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
mod config;
pub mod cost;
pub mod embed;
mod error;
mod model;
pub mod multimer;
pub mod structure_module;
pub mod taps;

pub use config::PpmConfig;
pub use error::PpmError;
pub use model::{FoldingModel, PredictionOutput};
