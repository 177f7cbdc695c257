//! Deterministic fault injection and the resilience primitives that answer
//! it. The rest of the workspace models a *healthy* machine; this module
//! supplies the unhealthy one — reproducibly. Every fault is scheduled from
//! a seed label through `ln_tensor::rng`, so a chaos run is as
//! bit-replayable as any other experiment in the reproduction (the
//! property the `chaos` bin gates on).
//!
//! The moving parts:
//!
//! * [`FaultPlan`] — per-backend dispatch faults (stalls, transient compute
//!   errors, worker panics), HBM capacity-pressure windows scaled against a
//!   device's memory model, bucket-queue poison events, and the cluster's
//!   shard losses and partitions; either built explicitly or sampled from a
//!   [`ChaosSpec`] under a seed label.
//! * [`GoldenChaos`] — the one seeded scenario the chaos gate, the insight
//!   dashboard and the golden chaos and trace tests run: a giant request
//!   that completes only at INT4 under HBM pressure.
//! * `retry` — bounded retries with exponential backoff and *deterministic*
//!   jitter (the jitter stream is keyed by request id and attempt, never by
//!   wall-clock).
//! * `breaker` — the per-backend closed → open → half-open probe state
//!   machine, driven entirely by a caller-supplied clock so the
//!   virtual-time engine and the threaded service share one
//!   implementation.
//!
//! The retry budget and the breaker's threshold and cooldown are
//! constants: every scheduler in the stack runs the one policy. The
//! schedulers ask the plan "what happens to dispatch *k* on backend *i*?"
//! and "how much device memory is available at time *t*?", and route the
//! answers through the retry policy and breakers. Nothing here reads
//! wall-clock or global state.

pub(crate) mod breaker;
mod golden;
mod plan;
pub(crate) mod retry;

pub use golden::{int4_only_pressure, GoldenChaos};
pub(crate) use plan::DispatchFault;
pub use plan::{
    ChaosSpec, FaultPlan, FaultPlanBuilder, PartitionWindow, PoisonEvent, PressureWindow,
    ShardLossEvent,
};
