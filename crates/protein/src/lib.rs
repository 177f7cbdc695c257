//! # ln-protein
//!
//! Protein-domain substrate for the LightNobel reproduction: amino-acid
//! sequences, 3-D backbone structures, synthetic native-structure
//! generation, and the structural-similarity metrics the paper evaluates
//! with (TM-Score, RMSD, GDT-TS, lDDT).
//!
//! The paper measures prediction quality with the TM-Score (§2.4) between a
//! predicted and a reference structure; `TM ≥ 0.5` indicates strong
//! structural similarity. Because no experimental structures are available
//! in this environment, [`generator`] produces deterministic synthetic
//! native structures (helix/sheet/coil segments on a compact self-avoiding
//! walk) that play the role of PDB ground truth, and [`metrics::tm_score`]
//! implements the real Zhang–Skolnick metric so relative accuracy
//! comparisons (FP32 baseline vs quantized) are faithful.
//!
//! # Example
//!
//! ```
//! use ln_protein::{generator::StructureGenerator, metrics};
//!
//! let native = StructureGenerator::new("demo").generate(64);
//! let tm = metrics::tm_score(&native, &native).expect("same length");
//! assert!((tm.score - 1.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amino;
mod error;
pub mod generator;
pub mod geometry;
pub mod metrics;
pub mod pdb;
mod sequence;
mod structure;

pub use amino::AminoAcid;
pub use error::ProteinError;
pub use sequence::Sequence;
pub use structure::{distance_matrix, Structure};
