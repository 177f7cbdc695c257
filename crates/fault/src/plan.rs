//! The deterministic fault schedule.
//!
//! A [`FaultPlan`] answers three questions a scheduler asks while running:
//!
//! 1. *What happens to the `seq`-th dispatch on backend `i`?* — nothing, a
//!    stall (the batch takes `factor`× its modeled time), a transient
//!    compute error (the batch fails and its requests must be retried), or
//!    a worker panic (the executing worker dies mid-batch; containment is
//!    the scheduler's job).
//! 2. *How much of backend `i`'s device memory is available at time `t`?* —
//!    a fraction in `[0, 1]`, the minimum over all active
//!    [`PressureWindow`]s. This is the HBM capacity-pressure/OOM fault: the
//!    paper's activation-explosion failure mode (§2) made injectable, so
//!    the AAQ precision-degradation fallback has something to degrade
//!    against.
//! 3. *Which bucket queues get poisoned, and when?* — one-shot
//!    [`PoisonEvent`]s that wipe a queue, forcing the resilience layer to
//!    re-admit the victims.
//!
//! Faults are keyed by **per-backend dispatch sequence numbers** and
//! **virtual seconds**, never wall-clock, so the same plan replays
//! identically through the virtual-time engine regardless of host speed or
//! thread-pool size.

use ln_tensor::rng::{self, Rng};
use std::collections::BTreeMap;

/// What happens to one dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchFault {
    /// The batch completes, but takes `factor`× its modeled time
    /// (backend stall / slowdown; `factor > 1`).
    Stall {
        /// Service-time multiplier.
        factor: f64,
    },
    /// The batch fails with a transient compute error after burning its
    /// modeled time; its requests are retryable.
    Transient,
    /// The worker executing the batch panics partway through; the batch
    /// fails and the scheduler must contain the panic.
    WorkerPanic,
}

/// A window of device-memory pressure on one backend: between
/// `start_seconds` and `end_seconds` only `available_fraction` of the
/// backend's memory capacity is usable for batches (the rest is claimed by
/// the injected co-tenant / fragmentation / leak being simulated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureWindow {
    /// Backend index in the scheduler's pool.
    pub backend: usize,
    /// Window start, virtual seconds (inclusive).
    pub start_seconds: f64,
    /// Window end, virtual seconds (exclusive).
    pub end_seconds: f64,
    /// Fraction of memory capacity still available, in `[0, 1]`.
    pub available_fraction: f64,
}

/// A one-shot bucket-queue poison: at `at_seconds` every request queued in
/// `bucket` is lost and must be re-admitted by the resilience layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoisonEvent {
    /// Length-bucket index.
    pub bucket: usize,
    /// Virtual time at which the queue is wiped.
    pub at_seconds: f64,
}

/// A whole-shard loss in a sharded (cluster) deployment: at `at_seconds`
/// shard `shard` dies permanently — its queued and in-flight work must be
/// evacuated by the cluster layer and either rerouted or failed typed.
/// Keyed by shard id + virtual seconds, like every other event here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLossEvent {
    /// Shard index in the cluster.
    pub shard: usize,
    /// Virtual time at which the shard is lost.
    pub at_seconds: f64,
}

/// A network partition window on one shard: between `start_seconds` and
/// `end_seconds` the router cannot *reach* the shard for new placements,
/// steals or hedges — work already on the shard keeps executing (the
/// shard itself is healthy; the control path to it is not).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Shard index in the cluster.
    pub shard: usize,
    /// Partition start, virtual seconds (inclusive).
    pub start_seconds: f64,
    /// Partition end, virtual seconds (exclusive).
    pub end_seconds: f64,
}

/// A complete, immutable fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    dispatch: BTreeMap<(usize, u64), DispatchFault>,
    pressure: Vec<PressureWindow>,
    poisons: Vec<PoisonEvent>,
    shard_losses: Vec<ShardLossEvent>,
    partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire (the healthy-machine default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Starts building an explicit plan.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::default(),
        }
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.dispatch.is_empty()
            && self.pressure.is_empty()
            && self.poisons.is_empty()
            && self.shard_losses.is_empty()
            && self.partitions.is_empty()
    }

    /// The fault (if any) afflicting the `seq`-th dispatch on `backend`.
    pub fn dispatch_fault(&self, backend: usize, seq: u64) -> Option<DispatchFault> {
        self.dispatch.get(&(backend, seq)).copied()
    }

    /// Fraction of `backend`'s memory capacity available at `now`: the
    /// minimum over active pressure windows, `1.0` outside all windows.
    pub fn available_fraction(&self, backend: usize, now: f64) -> f64 {
        self.pressure
            .iter()
            .filter(|w| w.backend == backend && now >= w.start_seconds && now < w.end_seconds)
            .map(|w| w.available_fraction)
            .fold(1.0f64, f64::min)
            .clamp(0.0, 1.0)
    }

    /// The queue-poison events, sorted by time (ties break on bucket).
    pub fn poisons(&self) -> &[PoisonEvent] {
        &self.poisons
    }

    /// The shard-loss events, sorted by time (ties break on shard).
    pub fn shard_losses(&self) -> &[ShardLossEvent] {
        &self.shard_losses
    }

    /// The partition windows, sorted by start time (ties break on shard).
    pub fn partitions(&self) -> &[PartitionWindow] {
        &self.partitions
    }

    /// Whether `shard` is unreachable from the router at `now` (inside any
    /// partition window).
    pub fn partitioned(&self, shard: usize, now: f64) -> bool {
        self.partitions
            .iter()
            .any(|w| w.shard == shard && now >= w.start_seconds && now < w.end_seconds)
    }

    /// The earliest pressure-window boundary strictly after `now` — a wake
    /// point for event loops, so a request parked behind a pressure window
    /// is retried the instant the window lifts rather than timing out.
    pub fn next_pressure_boundary(&self, now: f64) -> Option<f64> {
        self.pressure
            .iter()
            .flat_map(|w| [w.start_seconds, w.end_seconds])
            .filter(|&t| t > now)
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |cur| cur.min(t)))
            })
    }

    /// Total scheduled dispatch faults (for reporting).
    pub fn dispatch_fault_count(&self) -> usize {
        self.dispatch.len()
    }

    /// Samples a plan from a [`ChaosSpec`] under a seed label. Identical
    /// `(label, spec)` pairs always produce identical plans.
    pub fn seeded(label: &str, spec: &ChaosSpec) -> Self {
        let mut b = FaultPlan::builder();
        for backend in 0..spec.backends {
            let mut r = rng::stream_indexed(&format!("{label}/dispatch"), backend as u64);
            for seq in 0..spec.horizon_dispatches {
                // One draw per decision keeps the stream layout stable when
                // rates change.
                let is_transient = r.gen_bool(spec.transient_rate);
                let is_stall = r.gen_bool(spec.stall_rate);
                let factor = 1.0 + r.gen::<f64>() * (spec.max_stall_factor - 1.0).max(0.0);
                if is_transient {
                    b = b.transient(backend, seq);
                } else if is_stall {
                    b = b.stall(backend, seq, factor);
                }
            }
        }
        if spec.worker_panics > 0 && spec.backends > 0 && spec.horizon_dispatches > 0 {
            let mut r = rng::stream(&format!("{label}/panic"));
            for _ in 0..spec.worker_panics {
                let backend = r.gen_range(0..spec.backends);
                let seq = r.gen_range(0..spec.horizon_dispatches);
                b = b.worker_panic(backend, seq);
            }
        }
        for w in &spec.pressure {
            b = b.pressure(*w);
        }
        for p in &spec.poisons {
            b = b.poison(p.bucket, p.at_seconds);
        }
        // Cluster events are sampled per shard (the stream is keyed by the
        // shard id, the event by shard id + virtual seconds), so widening
        // the cluster or changing one shard's draw never reshuffles the
        // chaos hitting the others.
        if spec.shards > 0 {
            for shard in 0..spec.shards {
                let mut r = rng::stream_indexed(&format!("{label}/shard_loss"), shard as u64);
                let lost = r.gen_bool(spec.shard_loss_rate.clamp(0.0, 1.0));
                let at = r.gen::<f64>() * spec.cluster_horizon_seconds.max(0.0);
                if lost {
                    b = b.shard_loss(shard, at);
                }
            }
            for shard in 0..spec.shards {
                let mut r = rng::stream_indexed(&format!("{label}/partition"), shard as u64);
                let cut = r.gen_bool(spec.partition_rate.clamp(0.0, 1.0));
                let start = r.gen::<f64>() * spec.cluster_horizon_seconds.max(0.0);
                let dur = r.gen::<f64>() * spec.max_partition_seconds.max(0.0);
                if cut {
                    b = b.partition(PartitionWindow {
                        shard,
                        start_seconds: start,
                        end_seconds: start + dur,
                    });
                }
            }
        }
        for e in &spec.shard_loss_events {
            b = b.shard_loss(e.shard, e.at_seconds);
        }
        for w in &spec.partition_windows {
            b = b.partition(*w);
        }
        b.build()
    }
}

/// Builder for explicit fault plans.
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Stalls the `seq`-th dispatch on `backend` by `factor`× (`factor`
    /// is clamped to at least 1).
    pub fn stall(mut self, backend: usize, seq: u64, factor: f64) -> Self {
        self.plan.dispatch.insert(
            (backend, seq),
            DispatchFault::Stall {
                factor: factor.max(1.0),
            },
        );
        self
    }

    /// Fails the `seq`-th dispatch on `backend` with a transient error.
    pub fn transient(mut self, backend: usize, seq: u64) -> Self {
        self.plan
            .dispatch
            .insert((backend, seq), DispatchFault::Transient);
        self
    }

    /// Panics the worker executing the `seq`-th dispatch on `backend`.
    pub fn worker_panic(mut self, backend: usize, seq: u64) -> Self {
        self.plan
            .dispatch
            .insert((backend, seq), DispatchFault::WorkerPanic);
        self
    }

    /// Adds a memory-pressure window (the fraction is clamped to `[0, 1]`).
    pub fn pressure(mut self, mut window: PressureWindow) -> Self {
        window.available_fraction = window.available_fraction.clamp(0.0, 1.0);
        self.plan.pressure.push(window);
        self
    }

    /// Poisons `bucket`'s queue at `at_seconds`.
    pub fn poison(mut self, bucket: usize, at_seconds: f64) -> Self {
        self.plan.poisons.push(PoisonEvent { bucket, at_seconds });
        self
    }

    /// Kills `shard` permanently at `at_seconds`.
    pub fn shard_loss(mut self, shard: usize, at_seconds: f64) -> Self {
        self.plan
            .shard_losses
            .push(ShardLossEvent { shard, at_seconds });
        self
    }

    /// Adds a network-partition window (the end is clamped to at least the
    /// start, so a degenerate window never fires).
    pub fn partition(mut self, mut window: PartitionWindow) -> Self {
        window.end_seconds = window.end_seconds.max(window.start_seconds);
        self.plan.partitions.push(window);
        self
    }

    /// Finalizes the plan (timed events are sorted by time, then index).
    pub fn build(mut self) -> FaultPlan {
        self.plan.poisons.sort_by(|a, b| {
            a.at_seconds
                .total_cmp(&b.at_seconds)
                .then(a.bucket.cmp(&b.bucket))
        });
        self.plan.shard_losses.sort_by(|a, b| {
            a.at_seconds
                .total_cmp(&b.at_seconds)
                .then(a.shard.cmp(&b.shard))
        });
        self.plan.partitions.sort_by(|a, b| {
            a.start_seconds
                .total_cmp(&b.start_seconds)
                .then(a.shard.cmp(&b.shard))
        });
        self.plan
    }
}

/// Rates and shapes for a sampled chaos schedule.
///
/// Pressure windows and poisons are listed explicitly (their magnitudes
/// are usually derived from a device's memory model by the caller — e.g.
/// "claim everything but 1.3× the weight footprint of the LightNobel
/// accelerator"); dispatch faults are sampled per `(backend, seq)` at the
/// given rates.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Number of backends in the pool.
    pub backends: usize,
    /// Dispatch-sequence horizon per backend to pre-sample faults for.
    pub horizon_dispatches: u64,
    /// Probability a dispatch stalls.
    pub stall_rate: f64,
    /// Maximum stall factor (sampled uniformly in `[1, max]`).
    pub max_stall_factor: f64,
    /// Probability a dispatch fails with a transient error.
    pub transient_rate: f64,
    /// Number of worker panics to schedule at random `(backend, seq)`.
    pub worker_panics: u32,
    /// Explicit memory-pressure windows.
    pub pressure: Vec<PressureWindow>,
    /// Explicit bucket-queue poison events.
    pub poisons: Vec<PoisonEvent>,
    /// Number of shards in the cluster (0 disables cluster-event sampling).
    pub shards: usize,
    /// Per-shard probability of a permanent shard loss inside the horizon.
    pub shard_loss_rate: f64,
    /// Per-shard probability of one network-partition window.
    pub partition_rate: f64,
    /// Maximum partition duration (sampled uniformly in `[0, max]`).
    pub max_partition_seconds: f64,
    /// Virtual-time horizon cluster events are sampled within.
    pub cluster_horizon_seconds: f64,
    /// Explicit shard-loss events (added on top of any sampled ones).
    pub shard_loss_events: Vec<ShardLossEvent>,
    /// Explicit partition windows (added on top of any sampled ones).
    pub partition_windows: Vec<PartitionWindow>,
}

impl ChaosSpec {
    /// A light default mix: occasional stalls and transients, no panics or
    /// pressure (add those explicitly for targeted scenarios).
    pub fn light(backends: usize) -> Self {
        ChaosSpec {
            backends,
            horizon_dispatches: 256,
            stall_rate: 0.10,
            max_stall_factor: 4.0,
            transient_rate: 0.05,
            worker_panics: 0,
            pressure: Vec::new(),
            poisons: Vec::new(),
            shards: 0,
            shard_loss_rate: 0.0,
            partition_rate: 0.0,
            max_partition_seconds: 0.0,
            cluster_horizon_seconds: 0.0,
            shard_loss_events: Vec::new(),
            partition_windows: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.dispatch_fault(0, 0), None);
        assert_eq!(p.available_fraction(3, 42.0), 1.0);
        assert!(p.poisons().is_empty());
        assert_eq!(p.next_pressure_boundary(0.0), None);
    }

    #[test]
    fn builder_schedules_and_queries_round_trip() {
        let p = FaultPlan::builder()
            .stall(0, 3, 2.5)
            .transient(1, 0)
            .worker_panic(2, 7)
            .pressure(PressureWindow {
                backend: 0,
                start_seconds: 10.0,
                end_seconds: 20.0,
                available_fraction: 0.25,
            })
            .poison(1, 5.0)
            .build();
        assert_eq!(
            p.dispatch_fault(0, 3),
            Some(DispatchFault::Stall { factor: 2.5 })
        );
        assert_eq!(p.dispatch_fault(1, 0), Some(DispatchFault::Transient));
        assert_eq!(p.dispatch_fault(2, 7), Some(DispatchFault::WorkerPanic));
        assert_eq!(p.dispatch_fault(0, 4), None);
        assert_eq!(p.available_fraction(0, 15.0), 0.25);
        assert_eq!(p.available_fraction(0, 20.0), 1.0, "end is exclusive");
        assert_eq!(p.available_fraction(1, 15.0), 1.0, "other backend");
        assert_eq!(
            p.poisons(),
            &[PoisonEvent {
                bucket: 1,
                at_seconds: 5.0
            }]
        );
        assert_eq!(p.dispatch_fault_count(), 3);
    }

    #[test]
    fn overlapping_pressure_windows_take_the_minimum() {
        let p = FaultPlan::builder()
            .pressure(PressureWindow {
                backend: 0,
                start_seconds: 0.0,
                end_seconds: 100.0,
                available_fraction: 0.8,
            })
            .pressure(PressureWindow {
                backend: 0,
                start_seconds: 50.0,
                end_seconds: 60.0,
                available_fraction: 0.3,
            })
            .build();
        assert_eq!(p.available_fraction(0, 10.0), 0.8);
        assert_eq!(p.available_fraction(0, 55.0), 0.3);
        assert_eq!(p.next_pressure_boundary(0.0), Some(50.0));
        assert_eq!(p.next_pressure_boundary(55.0), Some(60.0));
        assert_eq!(p.next_pressure_boundary(100.0), None);
    }

    #[test]
    fn stall_factor_clamped_and_fraction_clamped() {
        let p = FaultPlan::builder()
            .stall(0, 0, 0.2)
            .pressure(PressureWindow {
                backend: 0,
                start_seconds: 0.0,
                end_seconds: 1.0,
                available_fraction: 7.0,
            })
            .build();
        assert_eq!(
            p.dispatch_fault(0, 0),
            Some(DispatchFault::Stall { factor: 1.0 })
        );
        assert_eq!(p.available_fraction(0, 0.5), 1.0);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let spec = ChaosSpec {
            worker_panics: 2,
            ..ChaosSpec::light(3)
        };
        let a = FaultPlan::seeded("chaos/a", &spec);
        let b = FaultPlan::seeded("chaos/a", &spec);
        let c = FaultPlan::seeded("chaos/b", &spec);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(
            a.dispatch_fault_count() > 0,
            "rates should fire over 768 draws"
        );
    }

    #[test]
    fn seeded_rates_are_plausible() {
        let spec = ChaosSpec {
            horizon_dispatches: 2000,
            ..ChaosSpec::light(1)
        };
        let p = FaultPlan::seeded("chaos/rates", &spec);
        let n = p.dispatch_fault_count() as f64 / 2000.0;
        // stall 10% + transient 5% (transient wins collisions) ≈ 14.5%.
        assert!((0.10..0.20).contains(&n), "fault rate {n}");
    }

    #[test]
    fn cluster_events_round_trip_sorted() {
        let p = FaultPlan::builder()
            .shard_loss(3, 40.0)
            .shard_loss(1, 10.0)
            .partition(PartitionWindow {
                shard: 2,
                start_seconds: 5.0,
                end_seconds: 15.0,
            })
            .partition(PartitionWindow {
                shard: 0,
                start_seconds: 1.0,
                end_seconds: 2.0,
            })
            .build();
        assert!(!p.is_empty());
        let losses: Vec<(usize, f64)> = p
            .shard_losses()
            .iter()
            .map(|e| (e.shard, e.at_seconds))
            .collect();
        assert_eq!(losses, vec![(1, 10.0), (3, 40.0)]);
        let windows: Vec<usize> = p.partitions().iter().map(|w| w.shard).collect();
        assert_eq!(windows, vec![0, 2]);

        assert!(p.partitioned(2, 5.0), "start inclusive");
        assert!(p.partitioned(2, 14.9));
        assert!(!p.partitioned(2, 15.0), "end exclusive");
        assert!(!p.partitioned(1, 10.0), "other shard untouched");
    }

    #[test]
    fn degenerate_partition_never_fires() {
        let p = FaultPlan::builder()
            .partition(PartitionWindow {
                shard: 0,
                start_seconds: 9.0,
                end_seconds: 3.0,
            })
            .build();
        assert!(!p.partitioned(0, 9.0));
        assert_eq!(p.partitions()[0].end_seconds, 9.0, "end clamped to start");
    }

    #[test]
    fn seeded_cluster_events_are_reproducible_and_per_shard_stable() {
        let spec = ChaosSpec {
            shards: 8,
            shard_loss_rate: 0.5,
            partition_rate: 0.5,
            max_partition_seconds: 30.0,
            cluster_horizon_seconds: 120.0,
            ..ChaosSpec::light(0)
        };
        let a = FaultPlan::seeded("cluster/a", &spec);
        let b = FaultPlan::seeded("cluster/a", &spec);
        let c = FaultPlan::seeded("cluster/b", &spec);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(
            !a.shard_losses().is_empty() || !a.partitions().is_empty(),
            "50% rates over 8 shards should fire"
        );
        for e in a.shard_losses() {
            assert!((0.0..120.0).contains(&e.at_seconds));
        }
        for w in a.partitions() {
            assert!(w.end_seconds - w.start_seconds <= 30.0 + 1e-9);
        }

        // Widening the cluster must not reshuffle existing shards' draws.
        let wide = FaultPlan::seeded(
            "cluster/a",
            &ChaosSpec {
                shards: 16,
                ..spec.clone()
            },
        );
        let narrow_losses: Vec<_> = a.shard_losses().to_vec();
        let wide_low: Vec<_> = wide
            .shard_losses()
            .iter()
            .copied()
            .filter(|e| e.shard < 8)
            .collect();
        assert_eq!(narrow_losses, wide_low);
    }

    #[test]
    fn explicit_cluster_events_pass_through_seeded() {
        let spec = ChaosSpec {
            shard_loss_events: vec![ShardLossEvent {
                shard: 5,
                at_seconds: 7.5,
            }],
            partition_windows: vec![PartitionWindow {
                shard: 1,
                start_seconds: 2.0,
                end_seconds: 4.0,
            }],
            ..ChaosSpec::light(0)
        };
        let p = FaultPlan::seeded("cluster/explicit", &spec);
        assert_eq!(
            p.shard_losses(),
            &[ShardLossEvent {
                shard: 5,
                at_seconds: 7.5
            }]
        );
        assert!(p.partitioned(1, 3.0));
    }

    #[test]
    fn poisons_sorted_by_time() {
        let p = FaultPlan::builder()
            .poison(2, 9.0)
            .poison(0, 1.0)
            .poison(1, 9.0)
            .build();
        let times: Vec<(usize, f64)> = p
            .poisons()
            .iter()
            .map(|e| (e.bucket, e.at_seconds))
            .collect();
        assert_eq!(times, vec![(0, 1.0), (1, 9.0), (2, 9.0)]);
    }
}
