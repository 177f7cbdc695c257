//! The scheduling policy, without a clock.
//!
//! Everything a scheduler decides that does not depend on which clock
//! drives it: admission, time-driven breaker transitions, queue poison,
//! timeouts, which (backend, bucket, precision rung) goes next, launching a
//! batch under the fault plan, and settling it — success, or retry-or-fail
//! per request. The virtual-time [`crate::engine::Engine`] and the threaded
//! [`crate::service::FoldService`] are its two drivers: a driver owns how a
//! launched batch's execution elapses, and hands the core a [`Sink`] for
//! everything that leaves it (trace events, watch observations, responses).
//!
//! Resilience semantics:
//!
//! * an injected **stall** completes late (modeled time × factor) but
//!   successfully;
//! * a **transient error** burns the batch's modeled time, then fails it —
//!   its requests retry with exponential backoff and deterministic jitter;
//! * a **worker panic** kills the batch a quarter of the way in;
//! * consecutive failures trip the backend's **circuit breaker** (open →
//!   cooldown → half-open probe), rerouting traffic to surviving backends;
//! * under **memory pressure** the oldest ready bucket first tries every
//!   backend at FP32, then walks the AAQ ladder (INT8, INT4) — degrading
//!   the activation precision of the route instead of rejecting the request.

use crate::backend::{best_case_seconds, Backend};
use crate::batcher::{Batcher, BatcherConfig, QueuedRequest};
use crate::bucket::BucketPolicy;
use crate::fault::breaker::{BreakerEvent, CircuitBreaker};
use crate::fault::{retry, DispatchFault, FaultPlan};
use crate::request::{FoldError, FoldOutcome, FoldRequest, RejectReason};
use crate::stats::{BatchRecord, ServeStats};
use ln_obs::ArgValue;
use ln_quant::ActPrecision;
use ln_watch::ObservedOutcome;

/// Backend tracks start here in a trace so they sort after the per-bucket
/// queue tracks in `chrome://tracing`.
pub(crate) const BACKEND_TRACK_BASE: u32 = 100;

/// Key/value arguments of one trace event.
pub(crate) type Args = Vec<(&'static str, ArgValue)>;

/// Where a driver takes what the core emits. The core calls it inline, at
/// the point of the schedule each event belongs to, so a driver's event
/// order is the core's statement order. Times are seconds on the driver's
/// clock; a wall-clock driver stamps events itself and ignores them.
pub(crate) trait Sink {
    /// A point-in-time trace event.
    fn instant(&mut self, at: f64, name: &'static str, cat: &'static str, track: u32, args: Args);

    /// A completed trace span over `[start, end]`.
    fn span(
        &mut self,
        start: f64,
        end: f64,
        name: &'static str,
        cat: &'static str,
        track: u32,
        args: Args,
    );

    /// The terminal `outcome` of `request`. A rejection is reported here
    /// too, for drivers that answer refused requests with a response.
    fn respond(&mut self, request: FoldRequest, outcome: FoldOutcome);

    /// One request outcome, for a live SLO engine.
    fn observe(&mut self, _length: usize, _at: f64, _outcome: ObservedOutcome) {}

    /// A non-SLO fault worth a black box (breaker trip, the run's first
    /// unmeetable deadline).
    fn trigger(&mut self, _trigger: &str, _at: f64) {}

    /// A batch completed on `backend` (index `idx`) with a modeled
    /// `peak_bytes`; called before its statistics and responses.
    fn batch_completed(
        &mut self,
        _idx: usize,
        _flight: &InFlight,
        _peak_bytes: f64,
        _backend: &dyn Backend,
    ) {
    }
}

/// How a launched batch's execution failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchFailure {
    /// The backend hit a transient compute error.
    Transient,
    /// The worker executing the batch panicked.
    WorkerPanic,
}

/// A launched batch: what [`Scheduler::launch`] decided, held by the driver
/// while the execution elapses, then handed back to [`Scheduler::settle`].
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    /// Modeled completion (or failure) time, fault timing included.
    pub(crate) finish_seconds: f64,
    pub(crate) start_seconds: f64,
    pub(crate) bucket: usize,
    pub(crate) precision: ActPrecision,
    /// The injected fault afflicting this dispatch, if any.
    fault: Option<DispatchFault>,
    pub(crate) requests: Vec<QueuedRequest>,
}

impl InFlight {
    /// What the fault plan alone makes of this batch: a stall completes
    /// (late), a transient or a worker panic fails it.
    pub(crate) fn modeled(&self) -> Result<(), BatchFailure> {
        match self.fault {
            None | Some(DispatchFault::Stall { .. }) => Ok(()),
            Some(DispatchFault::Transient) => Err(BatchFailure::Transient),
            Some(DispatchFault::WorkerPanic) => Err(BatchFailure::WorkerPanic),
        }
    }
}

/// The clock-free scheduler state and policy over a backend pool, emitting
/// into its driver's `sink`.
pub(crate) struct Scheduler<S: Sink> {
    pub(crate) batcher: Batcher,
    pub(crate) backends: Vec<Box<dyn Backend>>,
    /// `max_single_length` per backend (its routing capacity).
    capacities: Vec<usize>,
    /// Backend indices sorted by ascending capacity: dispatch prefers the
    /// least capable device that fits, keeping AAQ-capable memory free for
    /// the long-sequence buckets.
    dispatch_order: Vec<usize>,
    plan: FaultPlan,
    breakers: Vec<CircuitBreaker>,
    /// Per-backend dispatch sequence numbers (the fault-plan key).
    dispatch_seq: Vec<u64>,
    /// Index of the next unfired queue-poison event.
    next_poison: usize,
    /// Whether this run already triggered a `deadline_unmeetable` black
    /// box: the first such rejection captures the admission context,
    /// repeats would only burn a watch's black-box budget on identical
    /// evidence.
    deadline_box_fired: bool,
    pub(crate) stats: ServeStats,
    pub(crate) sink: S,
}

impl<S: Sink> Scheduler<S> {
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub(crate) fn new(
        policy: BucketPolicy,
        cfg: BatcherConfig,
        backends: Vec<Box<dyn Backend>>,
        plan: FaultPlan,
        sink: S,
    ) -> Self {
        assert!(!backends.is_empty(), "need at least one backend");
        // Each capacity probe binary-searches one backend's latency model —
        // independent pure work, fanned out per backend. Order is preserved,
        // so the deterministic schedule is unchanged.
        let capacities: Vec<usize> =
            ln_par::par_map_collect(backends.len(), 1, |i| backends[i].max_single_length());
        let mut dispatch_order: Vec<usize> = (0..backends.len()).collect();
        dispatch_order.sort_by_key(|&i| capacities[i]);
        let mut core = Scheduler {
            stats: ServeStats::new(policy.num_buckets()),
            batcher: Batcher::new(policy, cfg),
            backends,
            capacities,
            dispatch_order,
            plan,
            breakers: Vec::new(),
            dispatch_seq: Vec::new(),
            next_poison: 0,
            deadline_box_fired: false,
            sink,
        };
        core.reset_run();
        core
    }

    /// Starts a fresh run — breakers closed, dispatch sequences and the
    /// poison cursor rewound, so a reused scheduler replays the same plan
    /// identically — and returns the statistics of the run it ends. Queued
    /// requests stay queued.
    pub(crate) fn reset_run(&mut self) -> ServeStats {
        self.breakers = vec![CircuitBreaker::new(); self.backends.len()];
        self.dispatch_seq = vec![0; self.backends.len()];
        self.next_poison = 0;
        self.deadline_box_fired = false;
        let mut stats = ServeStats::new(self.batcher.policy().num_buckets());
        stats
            .resilience
            .register_backends(self.backends.iter().map(|b| b.name().to_string()));
        std::mem::replace(&mut self.stats, stats)
    }

    /// The longest sequence any backend in the pool can fold.
    pub(crate) fn max_routable_length(&self) -> usize {
        self.capacities.iter().copied().max().unwrap_or(0)
    }

    /// The earliest time anything here changes on its own: a batcher
    /// deadline, a breaker cooldown, a pressure-window boundary while
    /// requests wait, or the next queue poison. A poison consumes itself,
    /// so one due at `now` counts; the others do not, so only strictly
    /// future ones do (a stale flush deadline just means the bucket is
    /// already ready and waiting for a backend).
    pub(crate) fn next_timer(&self, now: f64) -> Option<f64> {
        let mut next = self.batcher.next_deadline(now);
        let mut fold = |cand: f64| next = Some(next.map_or(cand, |cur: f64| cur.min(cand)));
        for b in &self.breakers {
            if let Some(t) = b.next_transition_seconds().filter(|&t| t > now) {
                fold(t);
            }
        }
        if self.batcher.total_depth() > 0 {
            if let Some(t) = self.plan.next_pressure_boundary(now) {
                fold(t);
            }
        }
        if let Some(ev) = self.plan.poisons().get(self.next_poison) {
            fold(ev.at_seconds.max(now));
        }
        next
    }

    /// Records a breaker transition of backend `idx`.
    fn breaker_event(&mut self, idx: usize, event: BreakerEvent, now: f64) {
        self.stats.resilience.backends[idx].record_breaker(event);
        let name = match event {
            BreakerEvent::Opened => "breaker_open",
            BreakerEvent::HalfOpened => "breaker_half_open",
            BreakerEvent::Closed => "breaker_close",
        };
        let track = BACKEND_TRACK_BASE + idx as u32;
        self.sink.instant(now, name, "breaker", track, Vec::new());
        if event == BreakerEvent::Opened {
            self.sink.trigger("breaker_open", now);
        }
    }

    /// Time-driven breaker transitions (open → half-open probe).
    pub(crate) fn poll_breakers(&mut self, now: f64) {
        for idx in 0..self.breakers.len() {
            if let Some(event) = self.breakers[idx].poll(now) {
                self.breaker_event(idx, event, now);
            }
        }
    }

    /// Admission control: refuses a request no backend can ever fit, one
    /// whose deadline even the best backend cannot meet (instead of burning
    /// backend time on it), or one whose bucket queue is full; otherwise
    /// queues it and returns its bucket.
    pub(crate) fn admit(&mut self, request: FoldRequest, now: f64) -> Result<usize, RejectReason> {
        let bucket = self.batcher.policy().bucket_of(request.length);
        let (id, length) = (request.id, request.length);
        let offered = match best_case_seconds(&self.backends, length) {
            None => Err((request, RejectReason::TooLong)),
            Some(best) if best > request.timeout_seconds => {
                Err((request, RejectReason::DeadlineUnmeetable))
            }
            Some(_) => self
                .batcher
                .offer(request)
                .map_err(|request| (request, RejectReason::QueueFull)),
        };
        let (request, reason) = match offered {
            Ok(b) => {
                self.stats.record_depth(b, self.batcher.depth(b));
                let args = vec![
                    ("id", ArgValue::U64(id)),
                    ("seq_len", ArgValue::U64(length as u64)),
                ];
                self.sink.instant(now, "enqueue", "queue", b as u32, args);
                return Ok(b);
            }
            Err(refused) => refused,
        };
        let unmeetable = reason == RejectReason::DeadlineUnmeetable;
        self.stats.record_rejection(bucket);
        if unmeetable {
            self.stats.resilience.deadline_unmeetable += 1;
        }
        let args = vec![
            ("id", ArgValue::U64(id)),
            ("reason", ArgValue::Str(reason.label().to_string())),
        ];
        self.sink
            .instant(now, "reject", "queue", bucket as u32, args);
        self.sink.observe(length, now, ObservedOutcome::Rejected);
        if unmeetable && !self.deadline_box_fired {
            self.deadline_box_fired = true;
            self.sink.trigger("deadline_unmeetable", now);
        }
        self.sink.respond(request, FoldOutcome::Rejected(reason));
        Err(reason)
    }

    /// Fires the injected queue poisons due by `now`: the bucket's queue is
    /// wiped and each victim retries or fails.
    pub(crate) fn fire_poisons(&mut self, now: f64) {
        while let Some(&ev) = self.plan.poisons().get(self.next_poison) {
            if ev.at_seconds > now {
                break;
            }
            self.next_poison += 1;
            self.stats.resilience.poison_events += 1;
            let args = vec![("bucket", ArgValue::U64(ev.bucket as u64))];
            self.sink
                .instant(now, "queue_poison", "poison", ev.bucket as u32, args);
            let cause = FoldError::QueuePoisoned { bucket: ev.bucket };
            for q in self.batcher.poison_bucket(ev.bucket) {
                self.retry_or_fail(q, ev.bucket, &cause, false, now);
            }
        }
    }

    /// One request of a failed attempt: re-queued while the retry budget
    /// lasts, failed typed once it is spent. A failed backend
    /// (`backend_failed`) earns exponential backoff with deterministic
    /// jitter; a poisoned queue re-admits at once — the queue failed, not
    /// the backend.
    fn retry_or_fail(
        &mut self,
        q: QueuedRequest,
        bucket: usize,
        cause: &FoldError,
        backend_failed: bool,
        now: f64,
    ) {
        let attempt = q.attempt + 1;
        let mut args = vec![
            ("id", ArgValue::U64(q.request.id)),
            ("attempt", ArgValue::U64(u64::from(attempt))),
        ];
        if retry::exhausted(attempt) {
            self.stats.record_failure(bucket);
            self.sink.instant(now, "fail", "fault", bucket as u32, args);
            self.sink
                .observe(q.request.length, now, ObservedOutcome::Failed);
            let error = FoldError::RetriesExhausted {
                attempts: attempt,
                last: cause.to_string(),
            };
            self.sink.respond(q.request, FoldOutcome::Failed(error));
            return;
        }
        let mut earliest_seconds = now;
        if backend_failed {
            self.stats.resilience.retries += 1;
            let backoff = retry::backoff_seconds(q.request.id, attempt);
            args.push(("backoff_seconds", ArgValue::F64(backoff)));
            earliest_seconds += backoff;
        }
        self.sink
            .instant(now, "retry", "retry", bucket as u32, args);
        self.batcher.requeue(QueuedRequest {
            request: q.request,
            attempt,
            earliest_seconds,
        });
    }

    /// Times out every queued request whose dispatch deadline has passed.
    pub(crate) fn expire(&mut self, now: f64) {
        for r in self.batcher.expire(now) {
            let bucket = self.batcher.policy().bucket_of(r.length);
            self.stats.record_timeout(bucket);
            let args = vec![("id", ArgValue::U64(r.id))];
            self.sink
                .instant(now, "timeout", "timeout", bucket as u32, args);
            self.sink.observe(r.length, now, ObservedOutcome::TimedOut);
            let waited_seconds = now - r.arrival_seconds;
            self.sink
                .respond(r, FoldOutcome::TimedOut { waited_seconds });
        }
    }

    /// Memory backend `idx` may plan with at `now`, as a fraction of its
    /// capacity; drain mode ignores pressure.
    fn available_fraction(&self, idx: usize, now: f64, drain: bool) -> f64 {
        if drain {
            1.0
        } else {
            self.plan.available_fraction(idx, now)
        }
    }

    /// Which `(backend, bucket, rung)` goes next: the oldest ready bucket
    /// whose head some `idle` backend fits, on the least capable such
    /// backend its breaker permits (long sequences end up on AAQ-capable
    /// memory, short ones leave it free). The FP32 rung is tried on every
    /// candidate first; only when none fits the head at FP32 under the
    /// pressure-adjusted capacity does the bucket walk down the AAQ ladder —
    /// degradation is strictly a fallback, never a preference. Drain mode
    /// (shutdown flush) ignores flush gates, breakers and pressure.
    pub(crate) fn pick(
        &self,
        now: f64,
        drain: bool,
        idle: impl Fn(usize) -> bool,
    ) -> Option<(usize, usize, ActPrecision)> {
        for bucket in self.batcher.ready_buckets(now, drain) {
            let Some(head_len) = self.batcher.head_length(bucket) else {
                continue;
            };
            for precision in ActPrecision::LADDER {
                let candidate = self.dispatch_order.iter().copied().find(|&i| {
                    idle(i)
                        && (drain || self.breakers[i].can_dispatch())
                        && self.backends[i].permits(
                            &[head_len],
                            precision,
                            self.available_fraction(i, now, drain),
                        )
                });
                if let Some(idx) = candidate {
                    return Some((idx, bucket, precision));
                }
            }
        }
        None
    }

    /// Takes a batch from `bucket` for backend `idx` at `precision` — as
    /// many requests as fit its memory and the batch-time budget —
    /// consulting the fault plan for this dispatch. Drain mode ignores
    /// backoff gates, pressure and faults.
    pub(crate) fn launch(
        &mut self,
        idx: usize,
        bucket: usize,
        precision: ActPrecision,
        now: f64,
        drain: bool,
    ) -> InFlight {
        let fraction = self.available_fraction(idx, now, drain);
        let backend = &self.backends[idx];
        let budget = self.batcher.config().max_batch_seconds;
        let gate = if drain { f64::INFINITY } else { now };
        let batch = self.batcher.take_batch(bucket, gate, |lens| {
            backend.permits(lens, precision, fraction) && backend.batch_seconds(lens) <= budget
        });
        debug_assert!(!batch.is_empty(), "the picked head fits by construction");
        let lengths: Vec<usize> = batch.iter().map(|q| q.request.length).collect();
        let base = backend.batch_seconds(&lengths);
        let seq = self.dispatch_seq[idx];
        self.dispatch_seq[idx] += 1;
        let fault = self.plan.dispatch_fault(idx, seq).filter(|_| !drain);
        // Fault timing: a stall completes late; a transient burns the full
        // modeled time before failing; a panic kills the worker a quarter
        // of the way in.
        let finish_seconds = match fault {
            Some(DispatchFault::Stall { factor }) => {
                self.stats.resilience.backends[idx].stalls += 1;
                now + base * factor
            }
            Some(DispatchFault::WorkerPanic) => now + 0.25 * base,
            Some(DispatchFault::Transient) | None => now + base,
        };
        self.breakers[idx].on_dispatch();
        self.stats.resilience.backends[idx].dispatches += 1;
        self.stats.resilience.backends[idx].record_precision(precision);
        // Per-request queue_wait spans land on the bucket's track; the
        // dispatch marker (and any degradation) on the backend's track.
        for q in &batch {
            let waited_from = q.request.arrival_seconds.max(q.earliest_seconds);
            let args = vec![
                ("id", ArgValue::U64(q.request.id)),
                ("seq_len", ArgValue::U64(q.request.length as u64)),
            ];
            self.sink
                .span(waited_from, now, "queue_wait", "queue", bucket as u32, args);
        }
        let track = BACKEND_TRACK_BASE + idx as u32;
        let label = || ArgValue::Str(precision.label().to_string());
        let args = vec![
            ("bucket", ArgValue::U64(bucket as u64)),
            ("batch_size", ArgValue::U64(batch.len() as u64)),
            ("precision", label()),
        ];
        self.sink.instant(now, "dispatch", "dispatch", track, args);
        if precision != ActPrecision::Fp32 {
            let args = vec![("precision", label())];
            self.sink
                .instant(now, "degrade", "degradation", track, args);
        }
        self.stats.record_depth(bucket, self.batcher.depth(bucket));
        InFlight {
            finish_seconds,
            start_seconds: now,
            bucket,
            precision,
            fault,
            requests: batch,
        }
    }

    /// Resolves a launched batch once its execution has elapsed. Success
    /// (an absorbed stall included) records it at its modeled
    /// `finish_seconds` and answers its requests; a failure feeds the
    /// breaker and retries or fails each request at `now`, the driver's
    /// clock at settlement — the engine's *is* `finish_seconds`, while a
    /// wall clock runs far behind a modeled finish and is what backoff
    /// gates and breaker cooldowns are paced on.
    pub(crate) fn settle(
        &mut self,
        idx: usize,
        f: InFlight,
        outcome: Result<(), BatchFailure>,
        now: f64,
    ) {
        let backend = self.backends[idx].name().to_string();
        let track = BACKEND_TRACK_BASE + idx as u32;
        if let Err(failure) = outcome {
            let counters = &mut self.stats.resilience.backends[idx];
            let (cause, label) = match failure {
                BatchFailure::Transient => {
                    counters.transients += 1;
                    (FoldError::Transient { backend }, "transient")
                }
                BatchFailure::WorkerPanic => {
                    counters.panics += 1;
                    (FoldError::WorkerPanic { backend }, "worker_panic")
                }
            };
            let args = vec![("bucket", ArgValue::U64(f.bucket as u64))];
            self.sink.instant(now, label, "fault", track, args);
            if let Some(event) = self.breakers[idx].on_failure(now) {
                self.breaker_event(idx, event, now);
            }
            for q in f.requests {
                self.retry_or_fail(q, f.bucket, &cause, true, now);
            }
            return;
        }
        let finish = f.finish_seconds;
        if let Some(event) = self.breakers[idx].on_success() {
            self.breaker_event(idx, event, finish);
        }
        let lengths: Vec<usize> = f.requests.iter().map(|q| q.request.length).collect();
        let peak_bytes = self.backends[idx].batch_peak_bytes_at(&lengths, f.precision);
        self.sink
            .batch_completed(idx, &f, peak_bytes, self.backends[idx].as_ref());
        let latencies: Vec<f64> = f
            .requests
            .iter()
            .map(|q| finish - q.request.arrival_seconds)
            .collect();
        self.stats.record_batch(
            BatchRecord {
                bucket: f.bucket,
                backend: backend.clone(),
                lengths,
                start_seconds: f.start_seconds,
                finish_seconds: finish,
                precision: f.precision,
                peak_bytes,
            },
            &latencies,
        );
        let batch_size = f.requests.len();
        let degraded = f.precision.is_degraded();
        for q in f.requests {
            let worst_rmse = ln_scope::modeled_worst_rmse(f.precision, q.request.length);
            self.stats.accuracy.record(worst_rmse, degraded);
            self.sink.observe(
                q.request.length,
                finish,
                ObservedOutcome::Completed {
                    latency_seconds: finish - q.request.arrival_seconds,
                    deadline_seconds: q.request.timeout_seconds,
                    degraded,
                    worst_rmse,
                },
            );
            let outcome = FoldOutcome::Completed {
                backend: backend.clone(),
                started_seconds: f.start_seconds,
                finished_seconds: finish,
                batch_size,
                precision: f.precision,
            };
            self.sink.respond(q.request, outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LightNobelBackend;
    use crate::fault::int4_only_pressure;
    use crate::request::FoldResponse;

    /// A sink that only writes down what the core emits, in order.
    #[derive(Default)]
    struct Recording {
        events: Vec<(&'static str, &'static str)>,
        responses: Vec<FoldResponse>,
    }

    impl Sink for Recording {
        fn instant(&mut self, _: f64, name: &'static str, cat: &'static str, _: u32, _: Args) {
            self.events.push((cat, name));
        }

        fn span(&mut self, _: f64, _: f64, name: &'static str, cat: &'static str, _: u32, _: Args) {
            self.events.push((cat, name));
        }

        fn respond(&mut self, request: FoldRequest, outcome: FoldOutcome) {
            self.responses.push(FoldResponse::to(request, outcome));
        }
    }

    fn req(id: u64, length: usize, arrival: f64) -> FoldRequest {
        FoldRequest {
            id,
            name: format!("r{id}"),
            length,
            arrival_seconds: arrival,
            timeout_seconds: 1e6,
        }
    }

    fn core(plan: FaultPlan) -> Scheduler<Recording> {
        Scheduler::new(
            BucketPolicy::fixed(vec![256, 1024, 4096]),
            BatcherConfig::default(),
            vec![Box::new(LightNobelBackend::paper("LightNobel"))],
            plan,
            Recording::default(),
        )
    }

    #[test]
    fn scripted_policy_needs_no_clock_and_no_thread() {
        // The first dispatch fails transiently; bucket 1 is poisoned at 1 s.
        let plan = FaultPlan::builder().transient(0, 0).poison(1, 1.0).build();
        let mut core = core(plan);

        assert_eq!(core.admit(req(0, 500, 0.0), 0.0), Ok(1));
        assert_eq!(core.admit(req(1, 600, 0.1), 0.1), Ok(1));
        assert_eq!(
            core.admit(req(2, 150_000, 0.2), 0.2),
            Err(RejectReason::TooLong)
        );
        assert_eq!(core.pick(0.5, false, |_| true), None, "still batching");

        // The poison wipes the queue; both victims re-admit at once.
        core.fire_poisons(1.0);
        assert_eq!(core.batcher.depth(1), 2);
        let (idx, bucket, rung) = core
            .pick(1.0, false, |_| true)
            .expect("retried head is ready");
        assert_eq!((idx, bucket, rung), (0, 1, ActPrecision::Fp32));
        let flight = core.launch(idx, bucket, rung, 1.0, false);
        assert_eq!(flight.requests.len(), 2);
        assert_eq!(flight.modeled(), Err(BatchFailure::Transient));
        let failed_at = flight.finish_seconds;
        core.settle(idx, flight, Err(BatchFailure::Transient), failed_at);
        assert_eq!(core.pick(failed_at, false, |_| true), None, "backing off");

        let now = failed_at + 1.0;
        let (idx, bucket, rung) = core.pick(now, false, |_| true).expect("backoff elapsed");
        let flight = core.launch(idx, bucket, rung, now, false);
        assert_eq!(flight.modeled(), Ok(()));
        let finish = flight.finish_seconds;
        core.settle(idx, flight, Ok(()), finish);

        let launch = [
            ("queue", "queue_wait"),
            ("queue", "queue_wait"),
            ("dispatch", "dispatch"),
        ];
        let retries = [("retry", "retry"), ("retry", "retry")];
        let mut expected = vec![
            ("queue", "enqueue"),
            ("queue", "enqueue"),
            ("queue", "reject"),
        ];
        expected.push(("poison", "queue_poison"));
        expected.extend(retries);
        expected.extend(launch);
        expected.push(("fault", "transient"));
        expected.extend(retries);
        expected.extend(launch);
        assert_eq!(core.sink.events, expected);

        let completed = |id: u64, length: usize| FoldResponse {
            id,
            name: format!("r{id}"),
            length,
            outcome: FoldOutcome::Completed {
                backend: "LightNobel".to_string(),
                started_seconds: now,
                finished_seconds: finish,
                batch_size: 2,
                precision: ActPrecision::Fp32,
            },
        };
        let rejected = FoldResponse::to(
            req(2, 150_000, 0.2),
            FoldOutcome::Rejected(RejectReason::TooLong),
        );
        assert_eq!(
            core.sink.responses,
            vec![rejected, completed(0, 500), completed(1, 600)]
        );
        let stats = &core.stats;
        assert_eq!((stats.completed(), stats.rejected()), (2, 1));
        assert_eq!(stats.accuracy.requests, 2);
        assert_eq!(stats.resilience.poison_events, 1);
        assert_eq!(
            stats.resilience.retries, 2,
            "poison re-admission is no retry"
        );
        assert_eq!(stats.resilience.backends[0].transients, 1);
    }

    #[test]
    fn an_old_bucket_degrades_before_a_younger_one_runs_at_fp32() {
        // Squeezed to ~1.2x the INT4 footprint of its longest sequence, the
        // backend fits that sequence at INT4 only, and a short one at FP32.
        let ln = LightNobelBackend::paper("LightNobel");
        let giant = ln.max_single_length();
        let plan = FaultPlan::builder().pressure(int4_only_pressure()).build();
        let mut core = core(plan);
        let old = core.admit(req(0, giant, 0.0), 0.0).expect("admitted");
        let young = core.admit(req(1, 200, 1.0), 1.0).expect("admitted");
        assert_eq!(core.batcher.ready_buckets(10.0, false), vec![old, young]);

        // Buckets outside, ladder inside: the engine's closure ("not in
        // flight") and worker 0's ("is backend 0") pick the same thing.
        let expected = Some((0, old, ActPrecision::Int4));
        assert_eq!(core.pick(10.0, false, |_| true), expected);
        assert_eq!(core.pick(10.0, false, |b| b == 0), expected);
        assert_eq!(core.pick(10.0, false, |_| false), None);
    }
}
