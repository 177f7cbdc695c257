//! Sharded multi-engine serving: N deterministic virtual-time
//! [`Engine`](crate::Engine) shards behind a consistent-hash router
//! ([`Cluster`]) with length-aware placement, occupancy-skew work
//! stealing, hedged dispatch and occupancy-driven autoscaling.
//!
//! The paper's serving story (§8.3) is single-device: AAQ removes the
//! sequence-length memory cliff so one accelerator can hold CASP-scale
//! sequences. This module asks the next operational question — what does a
//! *fleet* of such devices look like? — and answers it without giving up
//! the repo's core invariant: everything runs on the shared virtual
//! clock, so a fixed `(config, workload, fault plan)` triple produces a
//! bitwise-identical [`ClusterOutcome`] on any host and any `ln-par`
//! pool size.
//!
//! The moving parts:
//!
//! * `ring` — the consistent-hash ring. A request keys to a
//!   deterministic shard preference order; the router takes the first
//!   shard that passes the capability filter (alive, active, not
//!   partitioned, fits the sequence in memory, and can still meet the
//!   deadline best-case — the same admission math the shards apply
//!   locally). Long sequences therefore pin to AAQ-capable shards
//!   automatically.
//! * [`ClusterConfig`] — hop latency, hedging threshold, steal threshold
//!   and the autoscale switch.
//! * `router` — the global discrete-event loop: placement, hop
//!   deliveries, hedged dispatch with first-winner-cancels, work
//!   stealing, shard-loss evacuation + reroute, partition deferral and
//!   autoscaling, all tie-broken by `(time, id)`.
//! * [`ClusterStats`] — the hedging/stealing counters,
//!   `cluster_tables()` rendering, registry mirroring and a
//!   reproducibility fingerprint.
//!
//! # Chaos
//!
//! The cluster consumes the same [`FaultPlan`](crate::fault::FaultPlan)
//! the shards do, reading its cluster-scope events: a
//! [`ShardLossEvent`](crate::fault::ShardLossEvent) kills a shard mid-run
//! (in-flight batches burn, queued work is evacuated and rerouted within
//! the reroute budget, the rest fails typed with
//! [`FoldError::ShardLost`](crate::FoldError::ShardLost)), and a
//! [`PartitionWindow`](crate::fault::PartitionWindow) makes a shard
//! unreachable for placement and delivery while it keeps draining local
//! work. Every affected request still terminates definitely.
//!
//! # Live observability
//!
//! [`Cluster::enable_watch`] attaches one shared [`ln_watch::Watch`] hub
//! to every shard: trace events feed its always-on flight recorder,
//! settled batches feed the activation-memory watermark table, and every
//! terminal outcome feeds the SLO burn-rate engine. The router triggers
//! black-box snapshots on shard loss and partition onset, prefers healthy
//! shards in placement, treats an unhealthy active set as autoscale
//! scale-up pressure, and returns the end-of-run
//! [`ln_watch::WatchReport`] on [`ClusterOutcome::watch`].
//!
//! # Tracing
//!
//! With tracing on, [`Cluster::run`] returns one merged trace: the
//! router's own events (per-attempt `arrive` instants, `shard_hop`
//! spans, terminal `cancel`/`timeout` instants) followed by each shard's
//! engine trace with tracks remapped by a fixed stride of 1000 per shard.
//! `ln-insight`'s critical path replays it into an exact per-attempt
//! decomposition `e2e = queue + shard_hop + service + fault_burn +
//! backoff` with zero unattributed spans.
//!
//! # Quickstart
//!
//! ```
//! use ln_datasets::Registry;
//! use ln_serve::cluster::{Cluster, ClusterConfig};
//! use ln_serve::fault::FaultPlan;
//! use ln_serve::{standard_backends, BatcherConfig, BucketPolicy, Engine, WorkloadSpec};
//!
//! let reg = Registry::standard();
//! let policy = BucketPolicy::from_registry(&reg);
//! let shards: Vec<Engine> = (0..4)
//!     .map(|_| {
//!         Engine::new(
//!             policy.clone(),
//!             BatcherConfig::default(),
//!             standard_backends(),
//!         )
//!     })
//!     .collect();
//! let mut cluster = Cluster::new(ClusterConfig::default(), shards, FaultPlan::none());
//! let workload = WorkloadSpec::cameo_casp_mix(64, 4.0).synthesize(&reg);
//! let outcome = cluster.run(&workload);
//! assert_eq!(outcome.responses.len(), workload.len());
//! assert!(outcome.stats.completed > 0);
//! ```

mod config;
mod ring;
mod router;
mod stats;

pub use config::ClusterConfig;
pub use router::{Cluster, ClusterOutcome, ClusterResponse};
pub use stats::ClusterStats;
