//! # ln-quant
//!
//! Token-wise Adaptive Activation Quantization (AAQ) — the paper's software
//! contribution (§4) — plus the competing quantization schemes it is
//! evaluated against (Table 1, Fig. 13).
//!
//! * [`scheme`] — quantization schemes: inlier precision (INT4/8/16) and
//!   dynamic outlier count, plus the per-group AAQ configuration found by
//!   the paper's design-space exploration (Fig. 11): Group A = INT8 + 4
//!   outliers, Group B = INT4 + 4 outliers, Group C = INT4 + 0 outliers.
//! * [`token`] — the runtime quantizer: per-token dynamic scaling factors,
//!   top-k outlier selection, uniform symmetric inlier quantization
//!   (Eq. 1), and the fake-quantizing error model.
//! * [`layout`] — the byte-exact memory layout of quantized token blocks
//!   (Fig. 7): packed inliers, INT16 outliers, scaling factors, outlier
//!   indices, grouped into bandwidth-aligned blocks, read and written
//!   straight from a [`tensor::QuantizedTensor`].
//! * [`baselines`] — numeric error models and footprint accounting for the
//!   comparison schemes: SmoothQuant, LLM.int8(), PTQ4Protein, Tender and
//!   MEFold.
//! * [`asymmetric`] — the affine-quantization alternative the paper
//!   evaluates and rejects (§4.1), kept for the ablation benches.
//! * [`tensor`] — [`tensor::QuantizedTensor`], the one container of an
//!   encoded activation, a single token included: one dense level panel
//!   plus flat per-token scales and outliers, with an exact round trip
//!   through the [`layout`] bytes.
//! * [`qgemm`] — the fully quantized-domain GEMM: AAQ levels × INT8
//!   weights with pure-integer inner loops (direct or RMPU-style
//!   bit-chunked MACs) and a single dequantization epilogue.
//!
//! # Example
//!
//! ```
//! use ln_quant::scheme::QuantScheme;
//! use ln_quant::tensor::QuantizedTensor;
//! use ln_tensor::Tensor2;
//!
//! // One token is a one-row tensor.
//! let values = vec![0.5, -1.0, 8.0, 0.25, -0.75, 0.1, 0.0, -0.2];
//! let token = Tensor2::from_vec(1, values.len(), values).expect("one row");
//! let q = QuantizedTensor::from_tensor(&token, QuantScheme::int8_with_outliers(1));
//! assert_eq!(q.outliers(0).1, &[2]);
//! let back = q.decode();
//! // The 8.0 outlier is preserved almost exactly; inliers within scale/2.
//! assert!((back.at(0, 2) - 8.0).abs() < 0.001);
//! ```
//!
//! A whole activation is encoded once and every layer that reads it runs
//! on the levels ([`qgemm::QLinear::forward`]), never on decoded values:
//!
//! ```
//! use ln_quant::qgemm::{MacMode, QLinear};
//! use ln_quant::scheme::QuantScheme;
//! use ln_quant::tensor::QuantizedTensor;
//! use ln_tensor::{nn::Linear, Tensor2};
//!
//! # fn main() -> Result<(), ln_tensor::TensorError> {
//! let x = Tensor2::from_fn(8, 16, |i, j| (i + j) as f32 * 0.1);
//! let scheme = QuantScheme::int4_with_outliers(4);
//! let encoded = QuantizedTensor::from_tensor(&x, scheme);
//! let layer = QLinear::from_linear(&Linear::deterministic("demo", 16, 4, 1.0));
//! let y = layer.forward(&encoded, MacMode::Direct)?;
//! assert_eq!(y.shape(), (8, 4));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asymmetric;
pub mod baselines;
mod error;
pub mod layout;
pub mod qgemm;
pub mod scale;
pub mod scheme;
pub mod tensor;
pub mod token;

pub use error::QuantError;
pub use scheme::ActPrecision;
