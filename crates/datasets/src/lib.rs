//! # ln-datasets
//!
//! Synthetic stand-ins for the evaluation datasets the paper uses:
//! CAMEO, CASP14, CASP15 and CASP16 (§6 *Datasets*).
//!
//! The real datasets consist of protein targets with experimentally
//! determined reference structures. Neither is redistributable here, so this
//! crate provides *registries* whose target names and — crucially — sequence
//! *length distributions* mirror the published target lists, including the
//! specific proteins the paper calls out:
//!
//! * `R0271` (77 aa) — shortest CASP16 protein in the latency breakdown,
//! * `T1269` (1 410 aa) — longest CASP16 protein fitting a single 80 GB GPU,
//! * `T1169` (3 364 aa) — longest CASP15 protein (Table 1 workload),
//! * the 6 879 aa CASP16 maximum target length (§8.3),
//! * `PKZILLA-1` (45 212 aa) — the giant-protein motivation (§3.1).
//!
//! Sequences and native structures are generated deterministically on demand
//! from each record's identity via `ln-protein`, so the accuracy pipeline
//! has ground truth to score against. Length statistics drive every
//! memory/latency experiment, which is what makes the performance figures
//! reproduce.
//!
//! # Example
//!
//! ```
//! use ln_datasets::{Dataset, Registry};
//!
//! let reg = Registry::standard();
//! let casp16 = reg.dataset(Dataset::Casp16);
//! assert!(casp16.records().iter().any(|r| r.name() == "T1269" && r.length() == 1410));
//! let native = casp16.record("R0271").expect("listed").native_structure();
//! assert_eq!(native.len(), 77);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod record;
mod registry;

pub use record::ProteinRecord;
pub use registry::{Dataset, DatasetView, Registry, ALL_DATASETS};
