//! # ln-accel
//!
//! A cycle-level simulator of the LightNobel accelerator (§5) together with
//! its area/power model (Table 2).
//!
//! The hardware hierarchy follows the paper exactly:
//!
//! * [`pe`] — the bit-chunked compute fabric: a PE is 16 minimal 4-bit
//!   units (one 16×16-bit multiply per cycle); a PE Lane is 8 PEs; a PE
//!   Cluster is 20 lanes plus Dynamic Accumulation Logic (DAL); an RMPU
//!   Engine is 4 clusters (≤ 20 tokens in flight). Lane demand is computed
//!   from the actual inlier/outlier precision mix (e.g. 124 INT4 inliers +
//!   4 INT16 outliers against INT16 weights = 560 four-bit units ⇒ 5
//!   lanes), reproducing the paper's §5.2 example.
//! * [`vvpu`] — the Versatile Vector Processing Unit: 128 16-bit SIMD
//!   lanes, a Scalar Support Unit, a local crossbar, and *runtime
//!   quantization* built on a real [`bitonic`] top-k network whose stage
//!   count drives the cycle model and whose output is cross-checked
//!   against the software quantizer in `ln-quant`.
//! * [`hbm`] — a compact HBM2E timing model (5 stacks, 80 GB, 2 TB/s):
//!   per-channel queues, 64-byte bursts, row-buffer hits/misses.
//! * [`pipeline`] — the stage-level performance model: for every PPM
//!   dataflow stage the RMPU, VVPU and HBM cycle counts are computed and
//!   the pipelined latency is their maximum plus fill/drain, following the
//!   paper's methodology (§6: "overall latency is the summation of the
//!   longest delay of each pipelining stage"). Each stage also knows the
//!   resource that bounds it ([`Bound`]) and its attained-vs-peak
//!   fractions, and [`LatencyReport::roofline_markdown`] renders the §8
//!   roofline table from one report.
//! * [`power`] — the component-level area/power model regenerating
//!   Table 2, with crossbar cost scaling quadratically in port count so
//!   the Fig. 12 design-space sweeps stay meaningful.
//!
//! The Token Aligner, scratchpads, crossbars and controller have no
//! behavioural model: they appear as Table 2 area/power constants in
//! [`power`] and, in latency, only through [`pipeline`]'s fill/drain and
//! arbitration constants.
//!
//! # Example
//!
//! ```
//! use ln_accel::{Accelerator, HwConfig};
//!
//! let accel = Accelerator::new(HwConfig::paper());
//! let report = accel.simulate(256);
//! assert!(report.total_seconds() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitonic;
mod config;
pub mod hbm;
pub mod pe;
pub mod pipeline;
pub mod power;
pub mod vvpu;

pub use config::HwConfig;
pub use pipeline::{Accelerator, Bound, LatencyReport, StageLatency};
