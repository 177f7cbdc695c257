//! # ln-tensor
//!
//! A small, deterministic, dependency-light dense tensor library used as the
//! numeric substrate of the LightNobel reproduction.
//!
//! The crate provides:
//!
//! * [`Tensor2`] — a row-major 2-D `f32` matrix, the workhorse type. In the
//!   Protein Structure Prediction Model (PPM) most computations are
//!   *token-wise*: a `(tokens, channels)` matrix where every row is one token.
//! * [`Tensor3`] — a `(d0, d1, d2)` tensor used for the Pair Representation
//!   `(Ns, Ns, Hz)`; it exposes token-matrix views with [`Tensor2`]
//!   semantics.
//! * [`nn`] — the neural-network building blocks the PPM needs: [`nn::Linear`],
//!   [`nn::LayerNorm`], softmax, sigmoid/ReLU.
//! * [`rng`] — named-seed deterministic random streams so that every
//!   experiment in the reproduction regenerates bit-identically.
//! * [`simd`] — the one runtime dispatch point that lets the inner loops
//!   (GEMM microkernel, `qgemm`, the triangle einsum) run at the host's
//!   real vector width, bit-identically.
//! * [`vmath`] — row math at that width: one polynomial `exp` and
//!   fixed-lane `max` / `sum`, which softmax, sigmoid and LayerNorm are
//!   written in.
//! * [`stats`] — summary statistics (mean/std, absolute-value profiles,
//!   3σ outlier counting) used for activation analysis (paper Fig. 5/6).
//!
//! # Example
//!
//! ```
//! use ln_tensor::{Tensor2, nn};
//!
//! # fn main() -> Result<(), ln_tensor::TensorError> {
//! let x = Tensor2::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
//! let w = Tensor2::identity(3);
//! let y = x.matmul(&w)?;
//! assert_eq!(x, y);
//! let s = nn::softmax_rows(&x);
//! assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: `simd::wide` holds the workspace's one `unsafe`
// block (the call into its `#[target_feature]` frame) behind an `#[allow]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod microkernel;
pub mod nn;
pub mod rng;
pub mod simd;
pub mod stats;
mod tensor2;
mod tensor3;
pub mod vmath;

pub use error::TensorError;
pub use tensor2::Tensor2;
pub use tensor3::Tensor3;
