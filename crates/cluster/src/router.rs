//! The sharded router: a deterministic discrete-event loop over N
//! virtual-time [`Engine`] shards.
//!
//! One global virtual clock drives everything. Each iteration finds the
//! earliest pending event — a workload arrival, a cross-shard delivery, a
//! deferred placement waking up, a shard's own next engine event, an
//! injected shard loss, or an autoscale tick — and processes every event
//! due at that instant in a fixed order:
//!
//! 1. partition onsets (a black box per window, when watched),
//! 2. shard losses (evacuate, then reroute or fail the victims),
//! 3. hop deliveries (inject the attempt into its target shard),
//! 4. deferred placements (partition healed — place again),
//! 5. workload arrivals (consistent-hash placement + hedging),
//! 6. engine advancement in shard-index order, then response resolution
//!    (first winner cancels hedge losers),
//! 7. work stealing on queue-depth skew,
//! 8. the autoscale tick,
//! 9. the SLO pass (when watched).
//!
//! Ties within a category break by request/attempt id. Because every
//! step is a pure function of `(config, workload, fault plan)` on the
//! virtual clock, the full [`ClusterOutcome`] — responses, stats, merged
//! trace — is bitwise identical across hosts and `ln-par` pool sizes.
//! The state one run carries between steps lives in one private `Run`,
//! whose methods are the steps.
//!
//! # Attempts
//!
//! The cluster never shows an engine the original request id: every
//! placement, hedge twin, steal hand-off and reroute becomes a fresh
//! *attempt* with its own id, its arrival set to the delivery time and
//! its timeout set to the budget remaining under the original deadline.
//! That keeps per-attempt latency attribution exact — the hop span covers
//! transit, the shard's queue span starts at delivery — and it keeps ids
//! unique per shard trace. The router remembers which original request
//! each attempt belongs to and resolves the first definite winner.

use std::collections::BTreeMap;

use ln_fault::FaultPlan;
use ln_obs::{seconds_to_nanos, ArgValue, TraceEvent, TracePhase};
use ln_serve::{
    Engine, FoldError, FoldOutcome, FoldRequest, FoldResponse, RejectReason, ServeStats,
};
use ln_watch::{FoldObservation, ObservedOutcome, Watch, WatchConfig, WatchHandle, WatchReport};

use crate::config::ClusterConfig;
use crate::ring::HashRing;
use crate::stats::ClusterStats;

/// Track offset separating shard trace lanes in the merged trace: shard
/// `s` keeps its engine-local tracks, shifted by `(s + 1) * STRIDE`;
/// track 0 is the router's own lane.
pub const SHARD_TRACK_STRIDE: u32 = 1000;

/// Virtual nodes per shard on the consistent-hash ring: enough to smooth
/// the key distribution for up to 64 shards.
const VIRTUAL_NODES: usize = 64;

/// How many times one request may be re-placed after losing its shard
/// before it fails typed with [`FoldError::ShardLost`].
const MAX_REROUTES: u32 = 2;

/// Terminal record for one original request.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResponse {
    /// Original request id.
    pub id: u64,
    /// Target name echoed back.
    pub name: String,
    /// Sequence length echoed back.
    pub length: usize,
    /// The winning (or final failing) outcome.
    pub outcome: FoldOutcome,
    /// The shard that produced the outcome, when one did.
    pub shard: Option<usize>,
    /// Attempts dispatched for this request (1 = plain placement).
    pub attempts: u32,
    /// Cross-shard hops paid (placement, hedge, steal, reroute).
    pub hops: u32,
}

/// The result of driving a workload through the cluster.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// One terminal record per workload request, in request-id order.
    pub responses: Vec<ClusterResponse>,
    /// Cluster-level counters and latency percentiles.
    pub stats: ClusterStats,
    /// Per-shard engine statistics, in shard-index order.
    pub shard_stats: Vec<ServeStats>,
    /// Merged trace (`Some` when tracing was on): router events first,
    /// then each shard's events in index order, tracks remapped by
    /// [`SHARD_TRACK_STRIDE`]. Feed to `ln_insight`'s critical path or
    /// [`ln_obs::chrome_trace_json`].
    pub trace: Option<Vec<TraceEvent>>,
    /// Total events evicted across all shard trace rings.
    pub trace_dropped: u64,
    /// Live-observability summary (`Some` when [`Cluster::enable_watch`]
    /// was called): error budgets, the memory-vs-length watermark table
    /// and every captured black box. Deliberately *not* part of
    /// [`ClusterOutcome::fingerprint`] — black-box identity is pinned by
    /// its own golden test.
    pub watch: Option<WatchReport>,
    /// Cluster-wide per-request accuracy telemetry: every shard's
    /// [`ServeStats::accuracy`] rolled up. Like `watch`, deliberately
    /// *not* part of the fingerprint — it is derived numerics telemetry,
    /// not schedule identity.
    pub accuracy: ln_serve::AccuracyStats,
}

impl ClusterOutcome {
    /// A deterministic digest over responses, cluster counters and every
    /// shard's schedule fingerprint: equal digests ⇔ bitwise-equal runs.
    pub fn fingerprint(&self) -> u64 {
        let mut desc = String::new();
        for r in &self.responses {
            desc.push_str(&format!(
                "{}|{}|{}|{:?}|{:?}|{}|{};",
                r.id, r.name, r.length, r.outcome, r.shard, r.attempts, r.hops
            ));
        }
        desc.push_str(&format!("stats:{};", self.stats.fingerprint()));
        for s in &self.shard_stats {
            desc.push_str(&format!("shard:{};", s.fingerprint()));
        }
        ln_tensor::rng::seed_from_label(&desc)
    }
}

/// Book-keeping for one original request still being served.
#[derive(Debug)]
struct Pending {
    req: FoldRequest,
    /// Live attempts as `(attempt id, shard)`.
    outstanding: Vec<(u64, usize)>,
    attempts: u32,
    hops: u32,
    reroutes: u32,
    /// The winning completion, once one attempt lands.
    resolved: Option<(FoldOutcome, usize)>,
    /// The most recent non-completion outcome (used when no attempt wins).
    failure: Option<(FoldOutcome, Option<usize>)>,
}

/// A request in transit to a shard.
#[derive(Debug)]
struct Delivery {
    due: f64,
    attempt: u64,
    origin: u64,
    shard: usize,
    deadline: f64,
}

/// A placement waiting for a partition to heal.
#[derive(Debug)]
struct Deferred {
    wake: f64,
    origin: u64,
    /// `Some(shard)` when this is a reroute after losing `shard` (a
    /// rejection then fails typed as `ShardLost` instead of `Rejected`).
    from: Option<usize>,
}

enum Placement {
    Place {
        primary: usize,
        hedge: Option<usize>,
    },
    Defer {
        wake: f64,
    },
    Reject {
        reason: RejectReason,
    },
}

/// The sharded multi-engine cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    shards: Vec<Engine>,
    plan: FaultPlan,
    ring: HashRing,
    tracing: bool,
    /// The shared live-observability hub, when enabled: every shard feeds
    /// it, the router triggers black boxes on cluster-level faults, and
    /// placement/autoscaling consult its shard health scores.
    watch: Option<WatchHandle>,
}

impl Cluster {
    /// Builds a cluster over pre-configured shard engines plus a cluster
    /// fault plan (its [`ln_fault::ShardLossEvent`]s and
    /// [`ln_fault::PartitionWindow`]s drive chaos; per-shard backend
    /// faults live in each engine's own plan).
    ///
    /// # Panics
    ///
    /// Panics on an empty shard list or a non-positive hop latency.
    pub fn new(cfg: ClusterConfig, shards: Vec<Engine>, plan: FaultPlan) -> Self {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        assert!(
            cfg.hop_seconds > 0.0,
            "hop_seconds must be positive (zero would allow same-instant loops)"
        );
        let ring = HashRing::new(&cfg.seed, shards.len(), VIRTUAL_NODES);
        Cluster {
            cfg,
            shards,
            plan,
            ring,
            tracing: false,
            watch: None,
        }
    }

    /// Turns on live observability: builds one shared [`ln_watch::Watch`]
    /// from `config`, attaches it to every shard engine (scoped by shard
    /// index), and returns the handle. From then on the router also
    /// triggers black-box snapshots on shard loss and partition onset,
    /// health-gates placement, treats unhealthy shards as scale-up
    /// pressure, and carries the end-of-run [`WatchReport`] on
    /// [`ClusterOutcome::watch`].
    pub fn enable_watch(&mut self, config: WatchConfig) -> WatchHandle {
        let handle = Watch::handle(config);
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.attach_watch(handle.clone(), Some(s));
        }
        self.watch = Some(handle.clone());
        handle
    }

    /// Feeds a router-terminal outcome (one no shard ever observed) into
    /// the watch's SLO engine, scoped global + length bucket only.
    fn watch_observe(&self, length: usize, at_seconds: f64, outcome: ObservedOutcome) {
        if let Some(watch) = &self.watch {
            Watch::lock(watch).observe(&FoldObservation {
                shard: None,
                length,
                at_seconds,
                outcome,
            });
        }
    }

    /// Snapshots a black box for a cluster-level fault.
    fn watch_trigger(&self, trigger: &str, now: f64) {
        if let Some(watch) = &self.watch {
            Watch::lock(watch).trigger(trigger, now);
        }
    }

    /// Health score for shard `s`: 1.0 when no watch is enabled.
    fn shard_health(&self, s: usize) -> f64 {
        match &self.watch {
            Some(watch) => Watch::lock(watch).shard_health(s),
            None => 1.0,
        }
    }

    /// Forces tracing on or off for the router and every shard engine.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for shard in &mut self.shards {
            shard.set_tracing(on);
        }
    }

    /// Number of shards (dead ones included).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Drives a workload to completion. Every request terminates
    /// definitely — completed (possibly on a hedge twin or after a
    /// reroute), rejected, timed out, or failed typed — even when the
    /// plan kills shards and partitions the network mid-run.
    pub fn run(&mut self, workload: &[FoldRequest]) -> ClusterOutcome {
        let mut run = Run::begin(self, workload);
        while let Some(t) = run.next_instant() {
            run.now = t;
            // 1. Partition onsets: one black box per window.
            run.partition_onsets();
            // 2. Shard losses: evacuate, then reroute or fail.
            run.shard_losses();
            // 3. Hop deliveries, in (due, attempt) order.
            run.deliveries();
            // 4. Deferred placements whose partition healed.
            run.deferred_placements();
            // 5. Workload arrivals.
            run.arrivals();
            // 6. Engine events, then their settled attempts.
            run.advance_shards();
            // 7. Work stealing on queue-depth skew.
            run.steal();
            // 8. Autoscale tick.
            run.autoscale();
            // 9. SLO evaluation over everything this instant settled.
            run.evaluate_slos();
        }
        run.finish()
    }

    /// Whether shard `s` can take a sequence of `len` residues and still
    /// meet `deadline` after one hop from the moment it is reachable —
    /// `now`, or its heal time when partitioned (the same admission math
    /// [`Engine::best_case_seconds`] applies shard-side).
    fn capable(&self, s: usize, len: usize, deadline: f64, now: f64) -> bool {
        let e = &self.shards[s];
        !e.is_dead()
            && e.max_routable_length() >= len
            && e.best_case_seconds(len).is_some_and(|best| {
                best <= deadline - (self.heal_time(s, now) + self.cfg.hop_seconds)
            })
    }

    /// First virtual time at or after `t` when shard `s` is out of every
    /// partition window.
    fn heal_time(&self, s: usize, mut t: f64) -> f64 {
        loop {
            let mut end: Option<f64> = None;
            for w in self.plan.partitions() {
                if w.shard == s && w.start_seconds <= t && t < w.end_seconds {
                    end = Some(end.map_or(w.end_seconds, |e: f64| e.max(w.end_seconds)));
                }
            }
            match end {
                Some(e) => t = e,
                None => return t,
            }
        }
    }
}

/// The state of one [`Cluster::run`], over the cluster it drives: the
/// event queues, the per-request book-keeping, the router's trace lane
/// and the clock. Each method is one step of the event loop or a rule
/// those steps share.
struct Run<'c> {
    cluster: &'c mut Cluster,
    /// The workload in `(arrival, id)` order.
    arrivals: Vec<FoldRequest>,
    next_arrival: usize,
    /// Cursor into the plan's shard losses.
    next_loss: usize,
    next_tick: Option<f64>,
    /// Partition windows already seen in effect (one black box each).
    partition_seen: Vec<bool>,
    /// Shards taking new placements; the autoscaler drains and restores.
    active: Vec<bool>,
    now: f64,
    /// Original requests still being served, by id.
    pending: BTreeMap<u64, Pending>,
    /// Live attempt id → original request id.
    attempt_of: BTreeMap<u64, u64>,
    next_attempt: u64,
    deliveries: Vec<Delivery>,
    deferred: Vec<Deferred>,
    stats: ClusterStats,
    /// The router's lane (track 0) of the merged trace.
    trace: Vec<TraceEvent>,
    /// Terminal records, each with its request's arrival time.
    responses: Vec<(ClusterResponse, f64)>,
}

impl<'c> Run<'c> {
    fn begin(cluster: &'c mut Cluster, workload: &[FoldRequest]) -> Self {
        let mut arrivals = workload.to_vec();
        arrivals.sort_by(|a, b| {
            a.arrival_seconds
                .total_cmp(&b.arrival_seconds)
                .then(a.id.cmp(&b.id))
        });
        for shard in &mut cluster.shards {
            shard.begin(&[]);
        }
        Run {
            next_attempt: arrivals.iter().map(|r| r.id).max().map_or(1, |m| m + 1),
            responses: Vec::with_capacity(arrivals.len()),
            arrivals,
            next_arrival: 0,
            next_loss: 0,
            next_tick: cluster.cfg.autoscale.map(|a| a.interval_seconds),
            partition_seen: vec![false; cluster.plan.partitions().len()],
            active: vec![true; cluster.shards.len()],
            now: 0.0,
            pending: BTreeMap::new(),
            attempt_of: BTreeMap::new(),
            deliveries: Vec::new(),
            deferred: Vec::new(),
            stats: ClusterStats::default(),
            trace: Vec::new(),
            cluster,
        }
    }

    /// The earliest pending event, never before the clock; `None` ends
    /// the run. Shard losses and autoscale ticks count only while work is
    /// left, so they never keep an idle cluster alive.
    fn next_instant(&self) -> Option<f64> {
        let c = &*self.cluster;
        let work_left = self.next_arrival < self.arrivals.len()
            || !self.pending.is_empty()
            || !self.deliveries.is_empty()
            || !self.deferred.is_empty();
        let loss = c
            .plan
            .shard_losses()
            .get(self.next_loss)
            .map(|l| l.at_seconds);
        let timers = [loss, self.next_tick].into_iter().flatten();
        self.arrivals
            .get(self.next_arrival)
            .map(|r| r.arrival_seconds)
            .into_iter()
            .chain(self.deliveries.iter().map(|d| d.due))
            .chain(self.deferred.iter().map(|d| d.wake))
            .chain(c.shards.iter().filter_map(Engine::next_event_seconds))
            .chain(timers.filter(|_| work_left))
            .map(|t| t.max(self.now))
            .reduce(f64::min)
    }

    /// Snapshots a black box the first time each partition window is
    /// seen in effect.
    fn partition_onsets(&mut self) {
        if self.cluster.watch.is_none() {
            return;
        }
        for (i, w) in self.cluster.plan.partitions().iter().enumerate() {
            if !self.partition_seen[i] && w.start_seconds <= self.now {
                self.partition_seen[i] = true;
                self.cluster
                    .watch_trigger(&format!("partition_window:shard:{}", w.shard), self.now);
            }
        }
    }

    /// Kills every shard whose loss is due: evacuates its queue, then
    /// reroutes or fails each victim.
    fn shard_losses(&mut self) {
        while let Some(shard) = self
            .cluster
            .plan
            .shard_losses()
            .get(self.next_loss)
            .filter(|l| l.at_seconds <= self.now)
            .map(|l| l.shard)
        {
            self.next_loss += 1;
            if shard >= self.cluster.shards.len() || self.cluster.shards[shard].is_dead() {
                continue;
            }
            self.stats.shard_losses += 1;
            let victims = self.cluster.shards[shard].evacuate();
            // The evacuation's shard_loss/cancel instants are already in
            // the recorder ring; capture them before rerouting.
            self.cluster
                .watch_trigger(&format!("shard_loss:shard:{shard}"), self.now);
            for victim in victims {
                self.displaced(victim.id, shard);
            }
        }
    }

    /// Lands every delivery due, in `(due, attempt)` order.
    fn deliveries(&mut self) {
        while let Some(pos) = earliest_due(&self.deliveries, self.now, |d| (d.due, d.attempt)) {
            let d = self.deliveries.swap_remove(pos);
            self.deliver(d);
        }
    }

    /// Places again every deferral whose wake is due, in `(wake, origin)`
    /// order.
    fn deferred_placements(&mut self) {
        while let Some(pos) = earliest_due(&self.deferred, self.now, |d| (d.wake, d.origin)) {
            let d = self.deferred.swap_remove(pos);
            self.try_place(d.origin, d.from, false);
        }
    }

    /// Admits and places every workload arrival due.
    fn arrivals(&mut self) {
        while let Some(req) = self
            .arrivals
            .get(self.next_arrival)
            .filter(|r| r.arrival_seconds <= self.now)
            .cloned()
        {
            self.next_arrival += 1;
            let origin = req.id;
            self.pending.insert(
                origin,
                Pending {
                    req,
                    outstanding: Vec::new(),
                    attempts: 0,
                    hops: 0,
                    reroutes: 0,
                    resolved: None,
                    failure: None,
                },
            );
            self.try_place(origin, None, false);
        }
    }

    /// Advances every shard through its events due by now, in shard-index
    /// order, then resolves the attempts they settled.
    fn advance_shards(&mut self) {
        let mut settled: Vec<(usize, FoldResponse)> = Vec::new();
        for (s, shard) in self.cluster.shards.iter_mut().enumerate() {
            while let Some(te) = shard.next_event_seconds().filter(|&te| te <= self.now) {
                settled.extend(shard.advance(te).into_iter().map(|resp| (s, resp)));
            }
        }
        for (s, resp) in settled {
            self.settle(s, resp);
        }
    }

    /// One work-stealing evaluation: the shallowest eligible shard takes
    /// half the skew from the deepest, tail-first, capped by its own
    /// routable length.
    fn steal(&mut self) {
        let eligible: Vec<usize> = (0..self.active.len())
            .filter(|&s| self.in_service(s) && !self.cluster.plan.partitioned(s, self.now))
            .collect();
        if eligible.len() < 2 {
            return;
        }
        let depth = |s: usize| self.cluster.shards[s].queue_depth();
        let victim = *eligible
            .iter()
            .max_by(|&&a, &&b| depth(a).cmp(&depth(b)).then(b.cmp(&a)))
            .expect("eligible non-empty");
        let thief = *eligible
            .iter()
            .min_by(|&&a, &&b| depth(a).cmp(&depth(b)).then(a.cmp(&b)))
            .expect("eligible non-empty");
        let skew = depth(victim) - depth(thief);
        if victim == thief || skew < self.cluster.cfg.steal_threshold {
            return;
        }
        let max_len = self.cluster.shards[thief].max_routable_length();
        let stolen = self.cluster.shards[victim].steal((skew / 2).max(1), max_len);
        for q in stolen {
            self.stats.steals += 1;
            let Some(&origin) = self.attempt_of.get(&q.id) else {
                continue;
            };
            self.drop_attempt(q.id, origin);
            if self
                .pending
                .get(&origin)
                .is_some_and(|p| p.resolved.is_none())
            {
                self.send_attempt(origin, thief);
            } else {
                self.finalize(origin);
            }
        }
    }

    /// The autoscale tick, when one is due: activate a shard under
    /// pressure or drain the shallowest when the fleet idles.
    fn autoscale(&mut self) {
        let (Some(auto), Some(tick)) = (self.cluster.cfg.autoscale, self.next_tick) else {
            return;
        };
        if tick > self.now {
            return;
        }
        let serving: Vec<usize> = (0..self.active.len())
            .filter(|&s| self.in_service(s))
            .collect();
        if !serving.is_empty() {
            let depth = |s: usize| self.cluster.shards[s].queue_depth();
            let mean = serving.iter().map(|&s| depth(s) as f64).sum::<f64>() / serving.len() as f64;
            // A burning or memory-saturated active shard is scale-up
            // pressure even at a shallow mean depth.
            let unhealthy = serving.iter().any(|&s| self.cluster.shard_health(s) < 0.5);
            if mean >= auto.up_depth || unhealthy {
                let shards = &self.cluster.shards;
                if let Some(s) =
                    (0..shards.len()).find(|&s| !shards[s].is_dead() && !self.active[s])
                {
                    self.active[s] = true;
                    self.stats.scale_ups += 1;
                }
            } else if mean <= auto.down_depth && serving.len() > auto.min_active {
                // Drain the shallowest; ties drain the highest index so
                // shard 0 stays up longest.
                if let Some(&s) = serving
                    .iter()
                    .min_by(|&&a, &&b| depth(a).cmp(&depth(b)).then(b.cmp(&a)))
                {
                    self.active[s] = false;
                    self.stats.scale_downs += 1;
                }
            }
        }
        let mut next = tick;
        while next <= self.now {
            next += auto.interval_seconds;
        }
        self.next_tick = Some(next);
    }

    /// Evaluates the watch's SLOs over everything this instant settled
    /// (router-terminal outcomes included; shard steps already evaluated
    /// their own instants).
    fn evaluate_slos(&mut self) {
        let Some(watch) = &self.cluster.watch else {
            return;
        };
        let breaches = Watch::lock(watch).evaluate(self.now);
        for b in breaches {
            self.instant(
                "slo_breach",
                "slo",
                vec![
                    ("slo", ArgValue::Str(b.slo)),
                    ("scope", ArgValue::Str(b.scope)),
                    ("fast_burn", ArgValue::F64(b.fast_burn)),
                    ("slow_burn", ArgValue::F64(b.slow_burn)),
                ],
            );
        }
    }

    /// Finishes every shard and assembles the outcome: traces merge
    /// router-first, shards in index order, tracks (and dispatch bucket
    /// args) remapped per shard.
    fn finish(self) -> ClusterOutcome {
        debug_assert!(
            self.pending.is_empty(),
            "unresolved requests: {:?}",
            self.pending
        );
        let active_count = (0..self.active.len())
            .filter(|&s| self.in_service(s))
            .count();
        let Run {
            cluster,
            mut stats,
            trace,
            mut responses,
            ..
        } = self;
        let mut shard_stats = Vec::with_capacity(cluster.shards.len());
        let mut trace_dropped = 0u64;
        let mut merged: Option<Vec<TraceEvent>> = cluster.tracing.then_some(trace);
        for (s, shard) in cluster.shards.iter_mut().enumerate() {
            let out = shard.finish();
            trace_dropped += out.trace_dropped;
            if let (Some(merged), Some(events)) = (merged.as_mut(), out.trace) {
                let base = SHARD_TRACK_STRIDE * (s as u32 + 1);
                for mut ev in events {
                    ev.track += base;
                    if ev.name == "dispatch" {
                        for (key, value) in &mut ev.args {
                            if *key == "bucket" {
                                if let ArgValue::U64(b) = value {
                                    *b += u64::from(base);
                                }
                            }
                        }
                    }
                    merged.push(ev);
                }
            }
            shard_stats.push(out.stats);
        }

        responses.sort_by_key(|(r, _)| r.id);
        for (r, arrival) in &responses {
            match &r.outcome {
                FoldOutcome::Completed {
                    finished_seconds, ..
                } => {
                    stats.completed += 1;
                    if r.outcome.is_degraded() {
                        stats.degraded += 1;
                    }
                    stats.latencies_seconds.push(finished_seconds - arrival);
                }
                FoldOutcome::Rejected(_) => stats.rejected += 1,
                FoldOutcome::TimedOut { .. } => stats.timed_out += 1,
                FoldOutcome::Failed(_) => stats.failed += 1,
            }
        }
        stats.export_metrics(active_count);

        // Mirror the watch's run-local metrics into the global registry
        // exactly once, then carry its summary on the outcome.
        let watch = cluster.watch.as_ref().map(|w| {
            let guard = Watch::lock(w);
            guard.export_global();
            guard.report()
        });

        let mut accuracy = ln_serve::AccuracyStats::default();
        for s in &shard_stats {
            accuracy.merge(&s.accuracy);
        }

        ClusterOutcome {
            responses: responses.into_iter().map(|(r, _)| r).collect(),
            stats,
            shard_stats,
            trace: merged,
            trace_dropped,
            watch,
            accuracy,
        }
    }

    /// Whether shard `s` is alive and taking new placements.
    fn in_service(&self, s: usize) -> bool {
        !self.cluster.shards[s].is_dead() && self.active[s]
    }

    /// Where `req` goes now: its first capable shard in ring-walk order
    /// (plus a hedge twin for long sequences), a deferral until a
    /// partition heals, or a rejection. `drained_too` counts drained
    /// shards as active.
    fn decide(&self, req: &FoldRequest, drained_too: bool) -> Placement {
        let c = &*self.cluster;
        let now = self.now;
        let walk = c.ring.walk(HashRing::key(&c.cfg.seed, req.id, &req.name));
        let deadline = req.deadline();
        let mut capable: Vec<usize> = walk
            .iter()
            .copied()
            .filter(|&s| (drained_too || self.active[s]) && c.capable(s, req.length, deadline, now))
            .collect();
        if capable.is_empty() {
            // Fall back to drained-but-alive shards rather than rejecting:
            // autoscale must never make a long sequence unservable.
            capable = walk
                .iter()
                .copied()
                .filter(|&s| c.capable(s, req.length, deadline, now))
                .collect();
        }
        let open: Vec<usize> = capable
            .iter()
            .copied()
            .filter(|&s| !c.plan.partitioned(s, now))
            .collect();
        // Health gate: prefer shards the watch scores healthy, but fall
        // back to the full open set — health never reduces reachability.
        let healthy: Vec<usize> = open
            .iter()
            .copied()
            .filter(|&s| c.shard_health(s) >= 0.5)
            .collect();
        let preferred = if healthy.is_empty() { &open } else { &healthy };
        if let Some(&primary) = preferred.first() {
            let hedge = (req.length >= c.cfg.hedge_min_length)
                .then(|| {
                    preferred
                        .get(1)
                        .copied()
                        .or_else(|| open.iter().copied().find(|&s| s != primary))
                })
                .flatten();
            return Placement::Place { primary, hedge };
        }
        if !capable.is_empty() {
            let wake = capable
                .iter()
                .map(|&s| c.heal_time(s, now))
                .fold(f64::INFINITY, f64::min);
            return Placement::Defer { wake };
        }
        let fits_somewhere = walk
            .iter()
            .any(|&s| !c.shards[s].is_dead() && c.shards[s].max_routable_length() >= req.length);
        Placement::Reject {
            reason: if fits_somewhere {
                RejectReason::DeadlineUnmeetable
            } else {
                RejectReason::TooLong
            },
        }
    }

    /// Places `origin` — on arrival, after a deferral, or as a reroute off
    /// the lost shard `from`: sends its attempt (and, on a first
    /// placement, its hedge twin), defers it, or rejects it.
    fn try_place(&mut self, origin: u64, from: Option<usize>, drained_too: bool) {
        let Some(p) = self.pending.get(&origin) else {
            return;
        };
        match self.decide(&p.req, drained_too) {
            Placement::Place { primary, hedge } => {
                self.send_attempt(origin, primary);
                if let (None, Some(h)) = (from, hedge) {
                    self.stats.hedges += 1;
                    self.send_attempt(origin, h);
                }
            }
            Placement::Defer { wake } => {
                self.stats.deferred += 1;
                self.deferred.push(Deferred { wake, origin, from });
            }
            Placement::Reject { reason } => {
                let outcome = match from {
                    // A reroute that finds no home fails typed: the shard
                    // was lost and nobody could take its work.
                    Some(shard) => FoldOutcome::Failed(FoldError::ShardLost { shard }),
                    None => {
                        self.stats.router_rejected += 1;
                        self.instant(
                            "reject",
                            "queue",
                            vec![("reason", ArgValue::Str(reason.label().to_string()))],
                        );
                        FoldOutcome::Rejected(reason)
                    }
                };
                self.fail(origin, outcome);
            }
        }
    }

    /// Creates a fresh attempt for `origin` targeting `shard`: emits the
    /// router `arrive` instant and the `shard_hop` span, and schedules the
    /// delivery one hop out.
    fn send_attempt(&mut self, origin: u64, shard: usize) {
        let p = self
            .pending
            .get_mut(&origin)
            .expect("send_attempt for unknown request");
        let attempt = self.next_attempt;
        self.next_attempt += 1;
        self.attempt_of.insert(attempt, origin);
        p.outstanding.push((attempt, shard));
        p.attempts += 1;
        p.hops += 1;
        if p.attempts == 1 {
            self.stats.placed += 1;
        }
        let (length, deadline) = (p.req.length as u64, p.req.deadline());
        let hop = self.cluster.cfg.hop_seconds;
        self.instant(
            "arrive",
            "router",
            vec![
                ("id", ArgValue::U64(attempt)),
                ("seq_len", ArgValue::U64(length)),
            ],
        );
        if self.cluster.tracing {
            self.trace.push(TraceEvent {
                name: "shard_hop".to_string(),
                cat: "hop",
                phase: TracePhase::Complete {
                    dur_nanos: seconds_to_nanos(hop),
                },
                ts_nanos: seconds_to_nanos(self.now),
                track: 0,
                args: vec![
                    ("id", ArgValue::U64(attempt)),
                    ("shard", ArgValue::U64(shard as u64)),
                ],
            });
        }
        self.deliveries.push(Delivery {
            due: self.now + hop,
            attempt,
            origin,
            shard,
            deadline,
        });
    }

    /// Lands one delivery: reroute off a dead target, wait out a partition
    /// that heals within budget, time out definitely when it does not or
    /// the budget is spent, and otherwise inject the attempt.
    fn deliver(&mut self, d: Delivery) {
        let now = self.now;
        if self.cluster.shards[d.shard].is_dead() {
            // The attempt never reached the shard: close its trace and
            // treat it like an evacuation victim.
            self.instant("cancel", "cancel", vec![("id", ArgValue::U64(d.attempt))]);
            self.displaced(d.attempt, d.shard);
            return;
        }
        let partitioned = self.cluster.plan.partitioned(d.shard, now);
        if partitioned {
            let heal = self.cluster.heal_time(d.shard, now);
            if heal < d.deadline {
                self.stats.deferred += 1;
                self.deliveries.push(Delivery { due: heal, ..d });
                return;
            }
        }
        let Some(p) = self.pending.get(&d.origin) else {
            return;
        };
        let remaining = d.deadline - now;
        if partitioned || remaining <= 0.0 {
            // The partition outlives the budget, or the budget is spent:
            // fail definite, now.
            let waited_seconds = now - p.req.arrival_seconds;
            self.instant("timeout", "timeout", vec![("id", ArgValue::U64(d.attempt))]);
            self.drop_attempt(d.attempt, d.origin);
            self.fail(d.origin, FoldOutcome::TimedOut { waited_seconds });
            return;
        }
        let attempt = FoldRequest {
            id: d.attempt,
            name: p.req.name.clone(),
            length: p.req.length,
            arrival_seconds: now,
            timeout_seconds: remaining,
        };
        self.cluster.shards[d.shard].inject(attempt);
    }

    /// One settled shard response: resolve the original request, cancel
    /// hedge losers, or account a wasted loser completion.
    fn settle(&mut self, shard: usize, resp: FoldResponse) {
        let Some(&origin) = self.attempt_of.get(&resp.id) else {
            return;
        };
        let Some(p) = self.pending.get_mut(&origin) else {
            return;
        };
        p.outstanding.retain(|&(a, _)| a != resp.id);
        let won = p.resolved.is_some();
        match resp.outcome {
            // A hedge loser that was already executing when the winner
            // landed: its completion is pure wasted backend time.
            FoldOutcome::Completed {
                started_seconds,
                finished_seconds,
                ..
            } if won => {
                self.stats.hedge_wasted += 1;
                self.stats.hedge_wasted_seconds += finished_seconds - started_seconds;
            }
            _ if won => {}
            outcome @ FoldOutcome::Completed { .. } => {
                p.resolved = Some((outcome, shard));
                // First winner cancels every still-queued twin; ones
                // already executing run on as wasted work.
                let shards = &mut self.cluster.shards;
                let stats = &mut self.stats;
                p.outstanding.retain(|&(attempt, s)| {
                    let cancelled = !shards[s].is_dead() && shards[s].cancel(attempt).is_some();
                    if cancelled {
                        stats.hedge_cancelled += 1;
                    }
                    !cancelled
                });
            }
            outcome => p.failure = Some((outcome, Some(shard))),
        }
        self.finalize(origin);
    }

    /// Handles an attempt displaced from `shard` (evacuation victim or a
    /// delivery that found its target dead): reroute within budget, lean
    /// on a surviving hedge twin, or fail typed with `ShardLost`.
    fn displaced(&mut self, attempt: u64, shard: usize) {
        let Some(&origin) = self.attempt_of.get(&attempt) else {
            return;
        };
        self.drop_attempt(attempt, origin);
        // Any in-transit delivery for the same attempt is moot.
        self.deliveries.retain(|d| d.attempt != attempt);
        let Some(p) = self.pending.get_mut(&origin) else {
            return;
        };
        if p.resolved.is_some() || !p.outstanding.is_empty() {
            // Already won, or a hedge twin is still alive elsewhere.
            self.finalize(origin);
        } else if p.reroutes < MAX_REROUTES {
            p.reroutes += 1;
            self.stats.reroutes += 1;
            self.try_place(origin, Some(shard), true);
        } else {
            self.fail(origin, FoldOutcome::Failed(FoldError::ShardLost { shard }));
        }
    }

    /// Records a router-lane instant at the current time, when tracing.
    fn instant(&mut self, name: &str, cat: &'static str, args: Vec<(&'static str, ArgValue)>) {
        if self.cluster.tracing {
            self.trace.push(TraceEvent {
                name: name.to_string(),
                cat,
                phase: TracePhase::Instant,
                ts_nanos: seconds_to_nanos(self.now),
                track: 0,
                args,
            });
        }
    }

    fn drop_attempt(&mut self, attempt: u64, origin: u64) {
        self.attempt_of.remove(&attempt);
        if let Some(p) = self.pending.get_mut(&origin) {
            p.outstanding.retain(|&(a, _)| a != attempt);
        }
    }

    /// Fails `origin` at the router with `outcome` — unless a winner
    /// landed or an attempt is still live — and retires it once nothing
    /// is left to wait for.
    fn fail(&mut self, origin: u64, outcome: FoldOutcome) {
        if let Some(p) = self.pending.get_mut(&origin) {
            if p.outstanding.is_empty() && p.resolved.is_none() {
                // The router only ever rejects, times out or fails.
                let observed = match outcome {
                    FoldOutcome::Rejected(_) => ObservedOutcome::Rejected,
                    FoldOutcome::TimedOut { .. } => ObservedOutcome::TimedOut,
                    _ => ObservedOutcome::Failed,
                };
                self.cluster.watch_observe(p.req.length, self.now, observed);
                p.failure = Some((outcome, None));
            }
        }
        self.finalize(origin);
    }

    /// If `origin` has no live attempts and a terminal outcome, records
    /// its cluster response and retires it.
    fn finalize(&mut self, origin: u64) {
        let done = self.pending.get(&origin).is_some_and(|p| {
            p.outstanding.is_empty() && (p.resolved.is_some() || p.failure.is_some())
        });
        if !done {
            return;
        }
        let p = self.pending.remove(&origin).expect("checked above");
        let (outcome, shard) = match (p.resolved, p.failure) {
            (Some((outcome, shard)), _) => (outcome, Some(shard)),
            (None, Some((outcome, shard))) => (outcome, shard),
            (None, None) => unreachable!("finalize requires a terminal outcome"),
        };
        let response = ClusterResponse {
            id: origin,
            name: p.req.name,
            length: p.req.length,
            outcome,
            shard,
            attempts: p.attempts,
            hops: p.hops,
        };
        self.responses.push((response, p.req.arrival_seconds));
    }
}

/// Position of the entry due by `now` with the smallest `(time, id)` key.
fn earliest_due<T>(items: &[T], now: f64, key: impl Fn(&T) -> (f64, u64)) -> Option<usize> {
    items
        .iter()
        .map(key)
        .enumerate()
        .filter(|(_, (due, _))| *due <= now)
        .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_datasets::Registry;
    use ln_fault::{ChaosSpec, PartitionWindow, ResilienceConfig, ShardLossEvent};
    use ln_serve::{
        standard_backends, Backend, BatcherConfig, BucketPolicy, GpuBackend, LightNobelBackend,
        WorkloadSpec,
    };

    fn policy() -> BucketPolicy {
        BucketPolicy::from_registry(&Registry::standard(), 4)
    }

    fn standard_shard(plan: FaultPlan) -> Engine {
        Engine::with_resilience(
            policy(),
            BatcherConfig::default(),
            standard_backends(),
            plan,
            ResilienceConfig::default(),
        )
    }

    fn cluster(n: usize, cfg: ClusterConfig, plan: FaultPlan) -> Cluster {
        let shards = (0..n).map(|_| standard_shard(FaultPlan::none())).collect();
        Cluster::new(cfg, shards, plan)
    }

    fn workload(n: usize, rate: f64) -> Vec<FoldRequest> {
        WorkloadSpec::cameo_casp_mix(n, rate)
            .with_seed("cluster/test-workload")
            .synthesize(&Registry::standard())
    }

    #[test]
    fn every_request_terminates_and_reruns_are_identical() {
        let wl = workload(60, 6.0);
        let cfg = ClusterConfig {
            seed: "cluster/unit".to_string(),
            ..ClusterConfig::default()
        };
        let a = cluster(4, cfg.clone(), FaultPlan::none()).run(&wl);
        assert_eq!(a.responses.len(), wl.len());
        assert_eq!(a.stats.total() as usize, wl.len());
        assert!(a.stats.completed > 0, "{:?}", a.stats);
        // Responses come back in id order with the original ids.
        let ids: Vec<u64> = a.responses.iter().map(|r| r.id).collect();
        let mut want: Vec<u64> = wl.iter().map(|r| r.id).collect();
        want.sort_unstable();
        assert_eq!(ids, want);
        let b = cluster(4, cfg, FaultPlan::none()).run(&wl);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn placement_spreads_load_across_shards() {
        let wl = workload(80, 20.0);
        let out = cluster(4, ClusterConfig::default(), FaultPlan::none()).run(&wl);
        let with_work = out.shard_stats.iter().filter(|s| s.completed() > 0).count();
        assert!(with_work >= 2, "all work landed on one shard");
    }

    #[test]
    fn long_sequences_pin_to_aaq_capable_shards() {
        // Shard 0 holds the AAQ accelerator; shards 1..3 only have GPUs
        // that cannot fit a 7000-residue sequence.
        let aaq: Vec<Box<dyn Backend>> = vec![Box::new(LightNobelBackend::paper("LightNobel"))];
        let mut shards = vec![Engine::new(policy(), BatcherConfig::default(), aaq)];
        for _ in 0..3 {
            let gpus: Vec<Box<dyn Backend>> = vec![Box::new(GpuBackend::a100_chunk4())];
            shards.push(Engine::new(policy(), BatcherConfig::default(), gpus));
        }
        let mut cl = Cluster::new(ClusterConfig::default(), shards, FaultPlan::none());
        let wl: Vec<FoldRequest> = (0..6)
            .map(|i| FoldRequest {
                id: i,
                name: format!("giant-{i}"),
                length: 7000,
                arrival_seconds: i as f64,
                timeout_seconds: 1e6,
            })
            .collect();
        let out = cl.run(&wl);
        for r in &out.responses {
            assert!(r.outcome.is_completed(), "{r:?}");
            assert_eq!(r.shard, Some(0), "long sequence landed off the AAQ shard");
        }
    }

    #[test]
    fn hedged_dispatch_first_winner_cancels() {
        let wl = workload(40, 8.0);
        let cfg = ClusterConfig {
            hedge_min_length: 0,
            ..ClusterConfig::default()
        };
        let out = cluster(3, cfg, FaultPlan::none()).run(&wl);
        assert_eq!(out.stats.hedges as usize, wl.len());
        assert!(
            out.stats.hedge_cancelled + out.stats.hedge_wasted > 0,
            "hedging produced no losers: {:?}",
            out.stats
        );
        assert_eq!(out.stats.total() as usize, wl.len());
        // Wasted completions burned real backend time.
        if out.stats.hedge_wasted > 0 {
            assert!(out.stats.hedge_wasted_seconds > 0.0);
        }
    }

    #[test]
    fn shard_loss_reroutes_or_fails_typed_never_hangs() {
        let wl = workload(60, 10.0);
        let plan = FaultPlan::builder()
            .shard_loss(1, 2.0)
            .shard_loss(2, 3.5)
            .build();
        let out = cluster(4, ClusterConfig::default(), plan).run(&wl);
        assert_eq!(out.stats.total() as usize, wl.len(), "{:?}", out.stats);
        assert_eq!(out.stats.shard_losses, 2);
        assert!(out.stats.reroutes > 0, "{:?}", out.stats);
        // Nothing ever completes on a dead shard after its loss instant.
        for r in &out.responses {
            if let (
                Some(s),
                FoldOutcome::Completed {
                    started_seconds, ..
                },
            ) = (r.shard, &r.outcome)
            {
                if s == 1 {
                    assert!(*started_seconds < 2.0 + 1e-9, "{r:?}");
                }
                if s == 2 {
                    assert!(*started_seconds < 3.5 + 1e-9, "{r:?}");
                }
            }
        }
    }

    #[test]
    fn losing_every_shard_fails_typed() {
        let wl = workload(30, 10.0);
        let plan = FaultPlan::builder()
            .shard_loss(0, 1.0)
            .shard_loss(1, 1.0)
            .build();
        let out = cluster(2, ClusterConfig::default(), plan).run(&wl);
        assert_eq!(out.stats.total() as usize, wl.len());
        assert!(
            out.responses
                .iter()
                .any(|r| matches!(r.outcome, FoldOutcome::Failed(FoldError::ShardLost { .. }))),
            "no typed ShardLost outcome in {:?}",
            out.stats
        );
    }

    #[test]
    fn partition_defers_placement_until_heal() {
        // One shard, partitioned for the first 3 seconds: arrivals during
        // the window defer and then complete after the heal.
        let wl: Vec<FoldRequest> = (0..4)
            .map(|i| FoldRequest {
                id: i,
                name: format!("p{i}"),
                length: 300,
                arrival_seconds: 0.5 + i as f64 * 0.1,
                timeout_seconds: 600.0,
            })
            .collect();
        let plan = FaultPlan::builder()
            .partition(PartitionWindow {
                shard: 0,
                start_seconds: 0.0,
                end_seconds: 3.0,
            })
            .build();
        let out = cluster(1, ClusterConfig::default(), plan).run(&wl);
        assert!(out.stats.deferred > 0, "{:?}", out.stats);
        for r in &out.responses {
            match &r.outcome {
                FoldOutcome::Completed {
                    started_seconds, ..
                } => {
                    assert!(
                        *started_seconds >= 3.0,
                        "served inside the partition: {r:?}"
                    )
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
    }

    #[test]
    fn partition_outliving_the_budget_is_rejected_at_arrival() {
        // The only shard heals at 100 s, long after the 2 s budget: it
        // cannot meet the deadline from its heal time, so the router
        // refuses the request up front instead of deferring it.
        let wl = vec![FoldRequest {
            id: 0,
            name: "doomed".to_string(),
            length: 300,
            arrival_seconds: 0.0,
            timeout_seconds: 2.0,
        }];
        let plan = FaultPlan::builder()
            .partition(PartitionWindow {
                shard: 0,
                start_seconds: 0.0,
                end_seconds: 100.0,
            })
            .build();
        let mut cl = cluster(1, ClusterConfig::default(), plan);
        cl.set_tracing(true);
        let out = cl.run(&wl);
        assert_eq!(out.responses.len(), 1);
        assert_eq!(
            out.responses[0].outcome,
            FoldOutcome::Rejected(RejectReason::DeadlineUnmeetable),
            "{:?}",
            out.responses[0]
        );
        assert_eq!(out.stats.deferred, 0, "{:?}", out.stats);
        let reason = vec![("reason", ArgValue::Str("deadline_unmeetable".to_string()))];
        let trace = out.trace.expect("tracing was on");
        assert!(
            trace.iter().any(|e| e.track == 0
                && e.name == "reject"
                && e.ts_nanos == seconds_to_nanos(wl[0].arrival_seconds)
                && e.args == reason),
            "no router reject at arrival: {trace:?}"
        );
    }

    #[test]
    fn occupancy_skew_triggers_work_stealing() {
        // Shard 0 can hold everything; shard 1 only short sequences. A
        // burst of long sequences buries shard 0 while short ones queue
        // behind them — the skew lets shard 1 steal the short tail.
        let aaq: Vec<Box<dyn Backend>> = vec![Box::new(LightNobelBackend::paper("LightNobel"))];
        let gpus: Vec<Box<dyn Backend>> = vec![Box::new(GpuBackend::a100_chunk4())];
        let shards = vec![
            Engine::new(policy(), BatcherConfig::default(), aaq),
            Engine::new(policy(), BatcherConfig::default(), gpus),
        ];
        let cfg = ClusterConfig {
            steal_threshold: 3,
            ..ClusterConfig::default()
        };
        let mut cl = Cluster::new(cfg, shards, FaultPlan::none());
        let mut wl: Vec<FoldRequest> = (0..12)
            .map(|i| FoldRequest {
                id: i,
                name: format!("long-{i}"),
                length: 7000,
                arrival_seconds: 0.1,
                timeout_seconds: 1e6,
            })
            .collect();
        for i in 12..24 {
            wl.push(FoldRequest {
                id: i,
                name: format!("short-{i}"),
                length: 250,
                arrival_seconds: 0.2,
                timeout_seconds: 1e6,
            });
        }
        let out = cl.run(&wl);
        assert_eq!(out.stats.total() as usize, wl.len());
        assert!(
            out.stats.steals > 0,
            "no steals despite skew: {:?}",
            out.stats
        );
        assert!(
            out.responses
                .iter()
                .any(|r| r.length == 250 && r.shard == Some(1)),
            "stolen work never completed on the thief"
        );
    }

    #[test]
    fn autoscale_drains_idle_shards_and_reports_gauge() {
        let wl = workload(20, 0.5); // trickle traffic, deep fleet
        let cfg = ClusterConfig {
            autoscale: Some(crate::config::AutoscaleConfig {
                min_active: 1,
                interval_seconds: 2.0,
                up_depth: 1000.0,
                down_depth: 2.0,
            }),
            ..ClusterConfig::default()
        };
        let out = cluster(4, cfg, FaultPlan::none()).run(&wl);
        assert_eq!(out.stats.total() as usize, wl.len());
        assert!(out.stats.scale_downs > 0, "{:?}", out.stats);
    }

    #[test]
    fn watch_captures_shard_loss_blackbox_and_watermarks() {
        let wl = workload(40, 8.0);
        let plan = FaultPlan::builder().shard_loss(1, 2.0).build();
        let mut cl = cluster(3, ClusterConfig::default(), plan);
        cl.enable_watch(ln_watch::WatchConfig::default());
        let out = cl.run(&wl);
        assert_eq!(out.stats.total() as usize, wl.len());
        let report = out.watch.expect("watch enabled");
        assert!(
            report
                .blackboxes
                .iter()
                .any(|(_, trigger, at)| trigger == "shard_loss:shard:1" && *at == 2.0),
            "no shard-loss black box: {:?}",
            report.blackboxes
        );
        assert!(
            !report.watermarks.is_empty(),
            "settled batches must populate the watermark table"
        );
        assert!(
            report
                .budgets
                .iter()
                .any(|r| r.scope == "global" && r.total > 0),
            "terminal outcomes must land in the global error budget"
        );
    }

    #[test]
    fn chaos_outcome_is_identical_across_par_pools() {
        let wl = workload(50, 8.0);
        let spec = ChaosSpec {
            shards: 3,
            shard_loss_events: vec![ShardLossEvent {
                shard: 1,
                at_seconds: 2.0,
            }],
            partition_windows: vec![PartitionWindow {
                shard: 2,
                start_seconds: 1.0,
                end_seconds: 4.0,
            }],
            ..ChaosSpec::light(3)
        };
        let plan = FaultPlan::seeded("cluster/pool-test", &spec);
        let run = |threads: usize| {
            let pool = ln_par::Pool::new_exact(threads);
            ln_par::with_pool(&pool, || {
                cluster(3, ClusterConfig::default(), plan.clone()).run(&wl)
            })
        };
        let a = run(1);
        let b = run(2);
        let c = run(4);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.stats.total() as usize, wl.len());
    }
}
