//! # ln-serve
//!
//! A batched folding-request scheduler: the serving layer that turns the
//! one-shot experiment drivers of the reproduction into a multi-tenant
//! folding service. The paper's core claim — AAQ removes the
//! sequence-length memory cliff (§8.3) — only pays off under traffic if a
//! scheduler can pack wildly different sequence lengths onto backends
//! without head-of-line blocking; this crate provides that scheduler on
//! std-only primitives (threads, `mpsc`, `Mutex`/`Condvar`).
//!
//! The moving parts:
//!
//! * [`request`] — the [`FoldRequest`]/[`FoldResponse`] API with explicit
//!   [`FoldOutcome::Rejected`], [`FoldOutcome::TimedOut`] and typed
//!   [`FoldOutcome::Failed`] outcomes: every admitted request terminates
//!   definitely, even under injected faults.
//! * [`bucket`] — the length-bucket policy; boundaries are derived from
//!   `ln-datasets` length distributions so buckets match real traffic.
//! * [`batcher`] — the length-bucketed dynamic batcher: per-bucket bounded
//!   FIFO queues, flush on batch-size or deadline, admission control that
//!   *rejects* (never blocks) when a queue is full.
//! * [`backend`] — the [`Backend`] trait over simulated devices: the
//!   LightNobel accelerator (`ln-accel`) and the A100/H100 GPU baselines
//!   (`ln-gpu`). Per-backend capacity comes from their peak-memory models,
//!   so long sequences route to AAQ-capable backends automatically.
//! * `scheduler` — the one policy body (admit, pick, launch, settle) the next two drive.
//! * [`engine`] — the deterministic virtual-time scheduler: identical seed
//!   in, identical batch schedule and statistics out. All latency numbers
//!   come from the device models, never from wall-clock.
//! * [`service`] — the threaded front-end ([`FoldService`]): one worker
//!   thread per backend, non-blocking `submit`, graceful shutdown with a
//!   `Cancelled` sweep, and panic containment per worker.
//! * [`workload`] — deterministic synthetic CAMEO/CASP-mix traffic.
//! * [`stats`] — throughput, p50/p99 latency, queue depth, per-bucket
//!   occupancy, plus the resilience counters (faults, retries, breaker
//!   transitions, precision degradations), rendered via
//!   `lightnobel::report`.
//!
//! # Resilience
//!
//! Both schedulers accept a seeded, deterministic
//! [`ln_fault::FaultPlan`] (backend stalls, transient errors, worker
//! panics, HBM pressure windows, queue poison) through
//! [`Engine::with_resilience`] / [`FoldService::start_with_resilience`],
//! and answer it with bounded retry + deterministic backoff, a per-backend
//! circuit breaker, and the AAQ precision-degradation fallback: under
//! memory pressure a route is re-quantized down the
//! [`ln_quant::ActPrecision`] ladder (FP32 → INT8 → INT4) instead of
//! rejected, with the degradation recorded in the response and in
//! [`ServeStats::resilience_tables`].
//!
//! # Quickstart
//!
//! ```
//! use ln_serve::{standard_backends, BatcherConfig, BucketPolicy, Engine, WorkloadSpec};
//! use ln_datasets::Registry;
//!
//! let reg = Registry::standard();
//! let policy = BucketPolicy::from_registry(&reg, 4);
//! let workload = WorkloadSpec::cameo_casp_mix(64, 2.0).synthesize(&reg);
//! let mut engine = Engine::new(policy, BatcherConfig::default(), standard_backends());
//! let outcome = engine.run(&workload);
//! assert!(outcome.stats.completed() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batcher;
pub mod bucket;
pub mod engine;
pub mod request;
mod scheduler;
pub mod service;
pub mod stats;
pub mod workload;

pub use backend::{standard_backends, Backend, GpuBackend, LightNobelBackend};
pub use batcher::{Batcher, BatcherConfig, QueuedRequest};
pub use bucket::BucketPolicy;
pub use engine::{Engine, EngineOutcome};
pub use request::{FoldError, FoldOutcome, FoldRequest, FoldResponse, RejectReason};
pub use service::{FoldService, ServiceConfig, SubmitError};
pub use stats::{AccuracyStats, BackendResilience, BatchRecord, ResilienceStats, ServeStats};
pub use workload::WorkloadSpec;
