//! The deterministic virtual-time scheduler.
//!
//! A discrete-event loop over the event kinds — request arrivals, batch
//! completions (or failures), batcher deadlines (max-wait flushes, backoff
//! gates, request timeouts), breaker cooldowns, pressure-window boundaries
//! and queue-poison instants — with all latencies drawn from the backends'
//! device models. Nothing reads wall-clock, every tie breaks on
//! `(time, id)`, and iteration orders are fixed, so an identical workload
//! under an identical [`FaultPlan`] always yields an identical batch
//! schedule and statistics (the reproducibility the integration and chaos
//! tests pin).
//!
//! What is decided at each event is `crate::scheduler`'s; the engine is
//! its virtual clock: it stages arrivals, parks each launched batch until
//! its modeled finish time, and records what the core emits on a virtual
//! tracer and an attached [`ln_watch::Watch`].

use crate::backend::Backend;
use crate::batcher::BatcherConfig;
use crate::bucket::BucketPolicy;
use crate::request::{FoldOutcome, FoldRequest, FoldResponse};
use crate::scheduler::{Args, InFlight, Scheduler, Sink, BACKEND_TRACK_BASE};
use crate::stats::ServeStats;
use ln_fault::{FaultPlan, ResilienceConfig};
use ln_obs::{seconds_to_nanos, ArgValue, Clock, TraceEvent, TracePhase, Tracer, VirtualClock};
use ln_watch::{FoldObservation, ObservedOutcome, Watch, WatchHandle};
use std::sync::Arc;

/// Ring capacity of the engine's per-run tracer: large enough that test and
/// bench workloads never evict (eviction would still be deterministic, just
/// lossy).
const ENGINE_TRACE_CAPACITY: usize = 1 << 20;

/// The engine's trace state for one `run`: a virtual clock slaved to the
/// event loop and a *forced* tracer over it, so the trace records regardless
/// of `LN_OBS` and every timestamp derives from the deterministic schedule —
/// the run's Chrome-trace JSON is byte-identical across machines and
/// `ln-par` pool sizes.
struct RunTrace {
    clock: Arc<VirtualClock>,
    tracer: Tracer,
}

impl RunTrace {
    fn new() -> Self {
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::forced(clock.clone() as Arc<dyn Clock>, ENGINE_TRACE_CAPACITY);
        RunTrace { clock, tracer }
    }
}

/// The result of driving a workload through the engine.
#[derive(Debug)]
pub struct EngineOutcome {
    /// One response per workload request, in request-id order.
    pub responses: Vec<FoldResponse>,
    /// The statistics collector (schedule, percentiles, counters).
    pub stats: ServeStats,
    /// The virtual-time trace of the run (`Some` when tracing was on —
    /// `LN_OBS=trace` or [`Engine::set_tracing`]); feed it to
    /// [`ln_obs::chrome_trace_json`] for a `chrome://tracing` timeline.
    pub trace: Option<Vec<TraceEvent>>,
    /// Events the trace ring evicted during the run. Zero in practice (the
    /// ring holds 2²⁰ events); critical-path analysis treats any non-zero
    /// value as a truncated — untrustworthy — trace.
    pub trace_dropped: u64,
}

/// The mutable state of one run, alive between [`Engine::begin`] and
/// [`Engine::finish`]. Keeping it on the engine (rather than on `run`'s
/// stack) lets external drivers — the cluster router — single-step the
/// event loop and interleave injections between steps.
struct RunState {
    /// The workload in `(arrival, id)` order; `inject` keeps the unseen
    /// tail sorted.
    arrivals: Vec<FoldRequest>,
    next_arrival: usize,
    /// Virtual time of the last processed event.
    now: f64,
    /// Cursor into the sink's responses: everything before it was already
    /// handed out by an earlier [`Engine::advance`] call.
    emitted: usize,
}

/// Where the engine takes what the scheduler core emits: the run's virtual
/// tracer, the attached watch, and the run's responses.
#[derive(Default)]
struct VirtualSink {
    /// Per-run trace state, present only while a run executes with tracing
    /// on.
    run_trace: Option<RunTrace>,
    /// Live-observability hub ([`ln_watch::Watch`]) shared with the cluster
    /// layer, when attached: feeds the flight recorder, SLO engine and
    /// watermark tracker as the schedule unfolds.
    watch: Option<WatchHandle>,
    /// The cluster shard index this engine serves, for per-shard SLO
    /// scoping; `None` for a standalone engine.
    watch_shard: Option<usize>,
    responses: Vec<FoldResponse>,
}

impl Sink for VirtualSink {
    /// With a watch attached the event also lands in its flight-recorder
    /// ring — unconditionally, so black boxes exist even with tracing off.
    fn instant(&mut self, at: f64, name: &'static str, cat: &'static str, track: u32, args: Args) {
        if let Some(watch) = &self.watch {
            Watch::lock(watch).record_event(TraceEvent {
                name: name.to_string(),
                cat,
                phase: TracePhase::Instant,
                ts_nanos: seconds_to_nanos(at),
                track,
                args: args.clone(),
            });
        }
        if let Some(rt) = &self.run_trace {
            rt.clock.set_seconds(at);
            rt.tracer.instant(name, cat, track, args);
        }
    }

    fn span(
        &mut self,
        start: f64,
        end: f64,
        name: &'static str,
        cat: &'static str,
        track: u32,
        args: Args,
    ) {
        let begin = seconds_to_nanos(start);
        let dur_nanos = seconds_to_nanos(end).saturating_sub(begin);
        if let Some(watch) = &self.watch {
            Watch::lock(watch).record_event(TraceEvent {
                name: name.to_string(),
                cat,
                phase: TracePhase::Complete { dur_nanos },
                ts_nanos: begin,
                track,
                args: args.clone(),
            });
        }
        if let Some(rt) = &self.run_trace {
            rt.tracer.complete(name, cat, track, begin, dur_nanos, args);
        }
    }

    fn respond(&mut self, request: FoldRequest, outcome: FoldOutcome) {
        self.responses.push(FoldResponse::to(request, outcome));
    }

    fn observe(&mut self, length: usize, at_seconds: f64, outcome: ObservedOutcome) {
        if let Some(watch) = &self.watch {
            Watch::lock(watch).observe(&FoldObservation {
                shard: self.watch_shard,
                length,
                at_seconds,
                outcome,
            });
        }
    }

    fn trigger(&mut self, trigger: &str, at: f64) {
        if let Some(watch) = &self.watch {
            Watch::lock(watch).trigger(trigger, at);
        }
    }

    /// The batch's `fold_batch` span over its virtual execution, and its
    /// modeled peak into the watch's watermark tracker.
    fn batch_completed(
        &mut self,
        idx: usize,
        f: &InFlight,
        peak_bytes: f64,
        backend: &dyn Backend,
    ) {
        let args = vec![
            ("bucket", ArgValue::U64(f.bucket as u64)),
            ("batch_size", ArgValue::U64(f.requests.len() as u64)),
            ("precision", ArgValue::Str(f.precision.label().to_string())),
            ("peak_bytes", ArgValue::F64(peak_bytes)),
        ];
        let track = BACKEND_TRACK_BASE + idx as u32;
        self.span(
            f.start_seconds,
            f.finish_seconds,
            "fold_batch",
            "kernel",
            track,
            args,
        );
        if let Some(watch) = &self.watch {
            let lengths = f.requests.iter().map(|q| q.request.length);
            let mut w = Watch::lock(watch);
            w.record_watermark(lengths.max().unwrap_or(0), f.precision, peak_bytes);
            if let Some(shard) = self.watch_shard {
                // Pressure = modeled peak over the backend's
                // activation headroom (capacity minus weights).
                let headroom = (backend.memory_capacity_bytes() - backend.weight_bytes()).max(1.0);
                w.note_shard_pressure(shard, peak_bytes / headroom);
            }
        }
    }
}

/// The batched folding scheduler over a pool of simulated backends.
pub struct Engine {
    core: Scheduler<VirtualSink>,
    /// The batch each backend is executing, parked until its virtual
    /// `finish_seconds`.
    in_flight: Vec<Option<InFlight>>,
    /// `Some(_)` forces tracing on/off for this engine; `None` follows the
    /// process-wide `LN_OBS` level.
    trace_override: Option<bool>,
    /// Stepper state, present between `begin` and `finish`.
    run_state: Option<RunState>,
    /// A dead engine (evacuated shard) schedules nothing ever again.
    dead: bool,
}

impl Engine {
    /// Builds an engine over a backend pool with no injected faults and the
    /// default resilience policy.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn new(policy: BucketPolicy, cfg: BatcherConfig, backends: Vec<Box<dyn Backend>>) -> Self {
        Engine::with_resilience(
            policy,
            cfg,
            backends,
            FaultPlan::none(),
            ResilienceConfig::default(),
        )
    }

    /// Builds an engine with an explicit fault schedule and resilience
    /// policy (the chaos-testing entry point).
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn with_resilience(
        policy: BucketPolicy,
        cfg: BatcherConfig,
        backends: Vec<Box<dyn Backend>>,
        plan: FaultPlan,
        resilience: ResilienceConfig,
    ) -> Self {
        let sink = VirtualSink::default();
        let core = Scheduler::new(policy, cfg, backends, plan, resilience, sink);
        Engine {
            in_flight: vec![None; core.backends.len()],
            core,
            trace_override: None,
            run_state: None,
            dead: false,
        }
    }

    /// Attaches a shared [`ln_watch::Watch`] hub. From then on every trace
    /// event (instants and spans alike, independent of the tracing level)
    /// also lands in the hub's flight-recorder ring, settled batches feed
    /// the watermark tracker, request outcomes feed the SLO engine, and the
    /// engine evaluates SLOs — snapshotting black boxes on breach — at the
    /// end of every step. `shard` scopes this engine's observations for
    /// per-shard error budgets.
    pub fn attach_watch(&mut self, watch: WatchHandle, shard: Option<usize>) {
        self.core.sink.watch = Some(watch);
        self.core.sink.watch_shard = shard;
    }

    /// Forces virtual-time tracing on or off for this engine's runs,
    /// overriding the `LN_OBS` level. With tracing on,
    /// [`EngineOutcome::trace`] carries the run's events.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace_override = Some(on);
    }

    /// Whether the next run will trace.
    pub fn tracing(&self) -> bool {
        self.trace_override
            .unwrap_or(ln_obs::level() == ln_obs::ObsLevel::Trace)
    }

    /// Evaluates the attached watch's SLOs at `now`; each fresh breach
    /// already snapshotted a black box inside `evaluate`, and is echoed
    /// here as an `"slo_breach"` trace instant so timelines show *when* the
    /// budget ran out.
    fn watch_evaluate(&mut self, now: f64) {
        let Some(watch) = &self.core.sink.watch else {
            return;
        };
        let breaches = Watch::lock(watch).evaluate(now);
        for b in breaches {
            let args = vec![
                ("slo", ArgValue::Str(b.slo)),
                ("scope", ArgValue::Str(b.scope)),
                ("fast_burn", ArgValue::F64(b.fast_burn)),
                ("slow_burn", ArgValue::F64(b.slow_burn)),
            ];
            self.core.sink.instant(now, "slo_breach", "slo", 0, args);
        }
    }

    /// The longest sequence any backend in the pool can fold.
    pub fn max_routable_length(&self) -> usize {
        self.core.max_routable_length()
    }

    /// Best-case service seconds for a single sequence of `length`: the
    /// fastest backend whose memory fits it at FP32, ignoring all queueing.
    /// `None` when nothing fits (the `TooLong` case). Public so a cluster
    /// router can reuse the same admission math for placement.
    pub fn best_case_seconds(&self, length: usize) -> Option<f64> {
        crate::backend::best_case_seconds(&self.core.backends, length)
    }

    /// Runs a workload to completion and returns responses plus stats.
    ///
    /// The workload is processed in `(arrival, id)` order regardless of
    /// input order, so shuffled inputs yield the same schedule. Every
    /// admitted request reaches a definite [`FoldOutcome`] —
    /// completion (possibly precision-degraded), typed failure, rejection
    /// or timeout — even under an adversarial fault plan.
    ///
    /// Exactly equivalent to driving the stepper by hand:
    /// [`Engine::begin`], then [`Engine::advance`] at every
    /// [`Engine::next_event_seconds`] until [`Engine::idle`], then
    /// [`Engine::finish`].
    pub fn run(&mut self, workload: &[FoldRequest]) -> EngineOutcome {
        self.begin(workload);
        while let Some(t) = self.next_event_seconds() {
            self.advance(t);
            if self.idle() {
                break;
            }
        }
        self.finish()
    }

    /// Starts a run: resets per-run fault/breaker state (so reusing an
    /// engine replays the same plan identically) and stages the workload
    /// in `(arrival, id)` order.
    pub fn begin(&mut self, workload: &[FoldRequest]) {
        self.core.reset_run();
        self.core.sink.run_trace = self.tracing().then(RunTrace::new);
        self.core.sink.responses = Vec::with_capacity(workload.len());
        self.in_flight.fill(None);
        self.dead = false;

        let mut arrivals: Vec<FoldRequest> = workload.to_vec();
        arrivals.sort_by(|a, b| {
            a.arrival_seconds
                .total_cmp(&b.arrival_seconds)
                .then(a.id.cmp(&b.id))
        });
        self.run_state = Some(RunState {
            arrivals,
            next_arrival: 0,
            now: 0.0,
            emitted: 0,
        });
    }

    /// The next event time, or `None` when nothing is scheduled (run not
    /// begun, engine dead, or workload fully drained and settled).
    ///
    /// Arrivals and completions consume themselves, so candidates at `now`
    /// are fine; the core's own timers follow `Scheduler::next_timer`.
    pub fn next_event_seconds(&self) -> Option<f64> {
        if self.dead {
            return None;
        }
        let rs = self.run_state.as_ref()?;
        let now = rs.now;
        let mut next = self.core.next_timer(now);
        let mut fold = |cand: f64| next = Some(next.map_or(cand, |cur: f64| cur.min(cand)));
        if let Some(r) = rs.arrivals.get(rs.next_arrival) {
            fold(r.arrival_seconds.max(now));
        }
        for f in self.in_flight.iter().flatten() {
            fold(f.finish_seconds.max(now));
        }
        next
    }

    /// Whether the run has nothing left to do: every staged arrival was
    /// admitted, every queue is empty and every backend is idle. A dead
    /// engine is always idle.
    pub fn idle(&self) -> bool {
        let Some(rs) = self.run_state.as_ref() else {
            return true;
        };
        self.dead
            || (rs.next_arrival >= rs.arrivals.len()
                && self.core.batcher.total_depth() == 0
                && self.in_flight.iter().all(Option::is_none))
    }

    /// Processes every event due at virtual time `t` — breaker
    /// transitions, completions, arrivals, poisons, dispatch, timeouts —
    /// and returns the responses newly settled by this step.
    ///
    /// `t` must be the value [`Engine::next_event_seconds`] returned:
    /// skipping ahead past an intermediate event time would reorder the
    /// schedule. Times are clamped to be non-decreasing.
    pub fn advance(&mut self, t: f64) -> Vec<FoldResponse> {
        let Some(mut rs) = self.run_state.take() else {
            return Vec::new();
        };
        if self.dead {
            self.run_state = Some(rs);
            return Vec::new();
        }
        let now = t.max(rs.now);
        rs.now = now;
        self.step(now, &mut rs);
        let fresh = self.core.sink.responses[rs.emitted..].to_vec();
        rs.emitted = self.core.sink.responses.len();
        self.run_state = Some(rs);
        fresh
    }

    /// Ends the run: final stats, responses in id order, trace drained.
    ///
    /// # Panics
    ///
    /// Panics when called without a matching [`Engine::begin`].
    pub fn finish(&mut self) -> EngineOutcome {
        let rs = self
            .run_state
            .take()
            .expect("Engine::finish without Engine::begin");
        let mut stats = self.core.reset_run();
        stats.finish(rs.now);
        let mut responses = std::mem::take(&mut self.core.sink.responses);
        responses.sort_by_key(|r| r.id);
        let (trace, trace_dropped) = match self.core.sink.run_trace.take() {
            Some(rt) => (Some(rt.tracer.drain()), rt.tracer.dropped()),
            None => (None, 0),
        };
        EngineOutcome {
            responses,
            stats,
            trace,
            trace_dropped,
        }
    }

    /// Adds a request to a live run (cluster placement / reroute). The
    /// unseen arrival tail stays `(arrival, id)`-sorted; an arrival time
    /// at or before `now` is admitted at the next step.
    ///
    /// # Panics
    ///
    /// Panics without a matching [`Engine::begin`] or on a dead engine.
    pub fn inject(&mut self, request: FoldRequest) {
        assert!(!self.dead, "inject into a dead engine");
        let rs = self
            .run_state
            .as_mut()
            .expect("Engine::inject without Engine::begin");
        let tail = &rs.arrivals[rs.next_arrival..];
        let pos = tail.partition_point(|r| {
            r.arrival_seconds
                .total_cmp(&request.arrival_seconds)
                .then(r.id.cmp(&request.id))
                .is_lt()
        });
        rs.arrivals.insert(rs.next_arrival + pos, request);
    }

    /// Marks request `r` as gone from this engine without a response.
    fn trace_cancel(&mut self, now: f64, name: &'static str, r: &FoldRequest) {
        let bucket = self.core.batcher.policy().bucket_of(r.length);
        let args = vec![("id", ArgValue::U64(r.id))];
        self.core
            .sink
            .instant(now, name, "cancel", bucket as u32, args);
    }

    /// Removes a request that has not yet dispatched — queued or still in
    /// the unseen arrival tail — and returns it (hedged-dispatch
    /// first-winner-cancels). A request already executing in a batch is
    /// *not* cancelled (the batch cannot be split); the caller observes
    /// `None` and writes the eventual completion off as wasted work.
    pub fn cancel(&mut self, id: u64) -> Option<FoldRequest> {
        let (now, pending) = {
            let rs = self.run_state.as_mut()?;
            let pos = rs.arrivals[rs.next_arrival..]
                .iter()
                .position(|r| r.id == id);
            let req = pos.map(|p| rs.arrivals.remove(rs.next_arrival + p));
            (rs.now, req)
        };
        let request = match pending {
            Some(r) => r,
            None => self.core.batcher.remove(id)?.request,
        };
        self.trace_cancel(now, "cancel", &request);
        Some(request)
    }

    /// Steals up to `max_n` queued requests no longer than `max_len`
    /// residues, tail-first from the deepest buckets (work stealing: the
    /// victims are the requests that would have waited longest here).
    pub fn steal(&mut self, max_n: usize, max_len: usize) -> Vec<FoldRequest> {
        let Some(now) = self.run_state.as_ref().map(|rs| rs.now) else {
            return Vec::new();
        };
        let mut stolen = Vec::new();
        for _ in 0..max_n {
            let Some(q) = self.core.batcher.steal_tail(max_len) else {
                break;
            };
            self.trace_cancel(now, "steal", &q.request);
            stolen.push(q.request);
        }
        stolen
    }

    /// Kills the engine (injected shard loss): every in-flight batch dies
    /// where it stands, every queued and not-yet-arrived request is
    /// evicted, and the engine never schedules again. Returns the victims
    /// for the cluster layer to reroute or fail typed — none of them got
    /// a response here.
    pub fn evacuate(&mut self) -> Vec<FoldRequest> {
        let now = self.run_state.as_ref().map_or(0.0, |rs| rs.now);
        let mut victims: Vec<FoldRequest> = Vec::new();
        for idx in 0..self.in_flight.len() {
            if let Some(f) = self.in_flight[idx].take() {
                let args = vec![("bucket", ArgValue::U64(f.bucket as u64))];
                let track = BACKEND_TRACK_BASE + idx as u32;
                self.core
                    .sink
                    .instant(now, "shard_loss", "fault", track, args);
                victims.extend(f.requests.into_iter().map(|q| q.request));
            }
        }
        for bucket in 0..self.core.batcher.policy().num_buckets() {
            let wiped = self.core.batcher.poison_bucket(bucket);
            victims.extend(wiped.into_iter().map(|q| q.request));
        }
        if let Some(rs) = self.run_state.as_mut() {
            victims.extend(rs.arrivals.split_off(rs.next_arrival));
        }
        for r in &victims {
            self.trace_cancel(now, "cancel", r);
        }
        self.dead = true;
        victims
    }

    /// Whether the engine was killed by [`Engine::evacuate`].
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Total queued requests across buckets (the work-stealing signal).
    pub fn queue_depth(&self) -> usize {
        self.core.batcher.total_depth()
    }

    /// Virtual time of the last processed event (0 before any).
    pub fn now_seconds(&self) -> f64 {
        self.run_state.as_ref().map_or(0.0, |rs| rs.now)
    }

    /// One full event step at `now`.
    fn step(&mut self, now: f64, rs: &mut RunState) {
        let core = &mut self.core;
        core.poll_breakers(now);

        // Completions (and fault manifestations) due by now, in
        // (finish, backend) order.
        loop {
            let due = self
                .in_flight
                .iter()
                .enumerate()
                .filter_map(|(i, f)| f.as_ref().map(|f| (f.finish_seconds, i)))
                .filter(|&(fin, _)| fin <= now)
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let Some((finish, idx)) = due else { break };
            let Some(f) = self.in_flight[idx].take() else {
                break;
            };
            let outcome = f.modeled();
            core.settle(idx, f, outcome, finish);
        }

        while let Some(req) = rs.arrivals.get(rs.next_arrival) {
            if req.arrival_seconds > now {
                break;
            }
            rs.next_arrival += 1;
            // A refusal is answered through the sink like any outcome.
            let _ = core.admit(req.clone(), now);
        }

        core.fire_poisons(now);

        // Dispatch every ready bucket that has an idle, fitting,
        // breaker-permitting backend; the ready set changes with each
        // launch, so pick afresh. Requests get their dispatch chance before
        // the same-instant timeout check below.
        while let Some((idx, bucket, precision)) =
            core.pick(now, false, |i| self.in_flight[i].is_none())
        {
            let flight = core.launch(idx, bucket, precision, now, false);
            self.in_flight[idx] = Some(flight);
        }

        core.expire(now);

        // Live-observability pass: re-evaluate SLO burn rates against
        // everything this step observed; fresh breaches snapshot black
        // boxes and echo "slo_breach" instants into the timeline.
        self.watch_evaluate(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{standard_backends, LightNobelBackend};
    use crate::request::{FoldError, RejectReason};
    use ln_fault::{BreakerConfig, ChaosSpec, PressureWindow, RetryPolicy};
    use ln_quant::ActPrecision;

    fn req(id: u64, length: usize, arrival: f64, timeout: f64) -> FoldRequest {
        FoldRequest {
            id,
            name: format!("r{id}"),
            length,
            arrival_seconds: arrival,
            timeout_seconds: timeout,
        }
    }

    fn small_policy() -> BucketPolicy {
        BucketPolicy::fixed(vec![256, 1024, 4096])
    }

    fn single_lightnobel() -> Vec<Box<dyn Backend>> {
        vec![Box::new(LightNobelBackend::paper("LightNobel"))]
    }

    fn fast_retry(max_attempts: u32) -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy {
                max_attempts,
                base_seconds: 0.05,
                multiplier: 2.0,
                max_seconds: 1.0,
                jitter: 0.0,
            },
            breaker: BreakerConfig::default(),
        }
    }

    #[test]
    fn every_request_gets_exactly_one_response() {
        let workload: Vec<FoldRequest> = (0..24)
            .map(|i| req(i, 100 + (i as usize * 137) % 1200, i as f64 * 0.3, 1e6))
            .collect();
        let mut e = Engine::new(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
        );
        let out = e.run(&workload);
        assert_eq!(out.responses.len(), workload.len());
        assert!(out.responses.iter().all(|r| r.outcome.is_completed()));
        assert!(out.responses.iter().all(|r| !r.outcome.is_degraded()));
        assert_eq!(out.stats.completed(), 24);
        let ids: Vec<u64> = out.responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn batches_never_cross_buckets() {
        let workload: Vec<FoldRequest> = (0..40)
            .map(|i| req(i, 60 + (i as usize * 211) % 3000, i as f64 * 0.1, 1e6))
            .collect();
        let policy = small_policy();
        let mut e = Engine::new(
            policy.clone(),
            BatcherConfig::default(),
            standard_backends(),
        );
        let out = e.run(&workload);
        for b in &out.stats.batch_log {
            for &len in &b.lengths {
                assert_eq!(policy.bucket_of(len), b.bucket, "{b:?}");
            }
        }
    }

    #[test]
    fn absurd_lengths_are_rejected_as_unroutable() {
        let mut e = Engine::new(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
        );
        let out = e.run(&[req(0, 150_000, 0.0, 1e6), req(1, 200, 0.0, 1e6)]);
        assert_eq!(
            out.responses[0].outcome,
            FoldOutcome::Rejected(RejectReason::TooLong)
        );
        assert!(out.responses[1].outcome.is_completed());
        assert_eq!(out.stats.rejected(), 1);
    }

    #[test]
    fn long_sequences_route_to_lightnobel() {
        // One residue past the chunked GPUs' memory reach: only the
        // AAQ-quantized accelerator can hold it (~10k, paper §8.3).
        let gpu_reach = crate::GpuBackend::h100_chunk4()
            .max_single_length()
            .max(crate::GpuBackend::a100_chunk4().max_single_length());
        let workload = vec![req(0, gpu_reach + 1, 0.0, 1e6)];
        let mut e = Engine::new(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
        );
        let out = e.run(&workload);
        match &out.responses[0].outcome {
            FoldOutcome::Completed {
                backend, precision, ..
            } => {
                assert_eq!(backend, "LightNobel");
                assert_eq!(
                    *precision,
                    ActPrecision::Fp32,
                    "no pressure, no degradation"
                );
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn batch_service_time_budget_caps_batches() {
        // 2 000-residue folds take ~10 s each on the accelerator: a 1 s
        // budget must force singleton batches, while no budget batches them.
        let workload: Vec<FoldRequest> = (0..8).map(|i| req(i, 2000, 0.0, 1e6)).collect();
        let free = BatcherConfig::default();
        let capped = BatcherConfig {
            max_batch_seconds: 1.0,
            ..free
        };
        let mut unbounded = Engine::new(small_policy(), free, standard_backends());
        let out = unbounded.run(&workload);
        assert!(out.stats.batch_log.iter().any(|b| b.lengths.len() > 1));
        let mut bounded = Engine::new(small_policy(), capped, standard_backends());
        let out = bounded.run(&workload);
        assert!(
            out.stats.batch_log.iter().all(|b| b.lengths.len() == 1),
            "{:?}",
            out.stats.batch_log
        );
        assert_eq!(
            out.stats.completed(),
            8,
            "the budget never rejects, only splits"
        );
    }

    #[test]
    fn saturated_queue_rejects_and_starved_requests_time_out() {
        // One-slot queues under a burst: requests bounce at admission
        // (queue full, or deadline already unmeetable for the tight-budget
        // variant) while at most a queue's worth completes.
        let cfg = BatcherConfig {
            max_batch: 1,
            max_wait_seconds: 0.0,
            queue_capacity: 1,
            ..BatcherConfig::default()
        };
        let workload: Vec<FoldRequest> = (0..30).map(|i| req(i, 900, 0.0, 0.5)).collect();
        let mut e = Engine::new(small_policy(), cfg, standard_backends());
        let out = e.run(&workload);
        assert!(
            out.stats.rejected() > 0,
            "burst must overflow the 1-deep queue"
        );
        assert_eq!(out.responses.len(), 30);
        assert_eq!(
            out.stats.completed()
                + out.stats.rejected()
                + out.stats.timed_out()
                + out.stats.failed(),
            30,
            "every request is accounted for"
        );
    }

    #[test]
    fn unmeetable_deadlines_are_rejected_at_admission() {
        // Far below any backend's service time for 2 000 residues: the
        // request must bounce at admission with zero backend time burnt.
        let mut e = Engine::new(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
        );
        let out = e.run(&[req(0, 2000, 0.0, 1e-3), req(1, 2000, 0.0, 1e6)]);
        assert_eq!(
            out.responses[0].outcome,
            FoldOutcome::Rejected(RejectReason::DeadlineUnmeetable)
        );
        assert!(out.responses[1].outcome.is_completed());
        assert_eq!(out.stats.resilience.deadline_unmeetable, 1);
        assert_eq!(
            out.stats.batch_log.len(),
            1,
            "the doomed request never reached a backend"
        );
    }

    #[test]
    fn injected_transient_retries_and_completes() {
        // First dispatch on every backend fails transiently; the retry
        // (dispatch seq 1) succeeds.
        let plan = FaultPlan::builder()
            .transient(0, 0)
            .transient(1, 0)
            .transient(2, 0)
            .build();
        let mut e = Engine::with_resilience(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
            plan,
            fast_retry(3),
        );
        let out = e.run(&[req(0, 500, 0.0, 1e6)]);
        assert!(out.responses[0].outcome.is_completed());
        assert_eq!(out.stats.resilience.retries, 1);
        assert_eq!(out.stats.resilience.faults(), 1);
        assert_eq!(out.stats.completed(), 1);
        assert_eq!(out.stats.failed(), 0);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers() {
        let plan = FaultPlan::builder().transient(0, 0).transient(0, 1).build();
        let resilience = ResilienceConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_seconds: 1.0,
            },
            ..fast_retry(5)
        };
        let mut e = Engine::with_resilience(
            small_policy(),
            BatcherConfig::default(),
            single_lightnobel(),
            plan,
            resilience,
        );
        let out = e.run(&[req(0, 500, 0.0, 1e6)]);
        assert!(out.responses[0].outcome.is_completed());
        let b = &out.stats.resilience.backends[0];
        assert_eq!(b.transients, 2);
        assert_eq!(b.breaker_opens, 1, "two consecutive failures trip it");
        assert_eq!(b.breaker_probes, 1, "cooldown elapsed, probe admitted");
        assert_eq!(b.breaker_closes, 1, "probe success closes it");
        assert_eq!(out.stats.resilience.retries, 2);
    }

    #[test]
    fn open_breaker_reroutes_to_surviving_backends() {
        // Trip the least-capable backend's breaker with a failure barrage;
        // later short requests must complete on another backend while it
        // cools down, rather than waiting or failing.
        let mut e0 = Engine::new(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
        );
        let probe = e0.run(&[req(0, 300, 0.0, 1e6)]);
        let first_choice = match &probe.responses[0].outcome {
            FoldOutcome::Completed { backend, .. } => backend.clone(),
            other => panic!("probe should complete, got {other:?}"),
        };
        let victim = standard_backends()
            .iter()
            .position(|b| b.name() == first_choice)
            .expect("probe backend is in the pool");
        let mut builder = FaultPlan::builder();
        for seq in 0..8 {
            builder = builder.transient(victim, seq);
        }
        let resilience = ResilienceConfig {
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown_seconds: 1e5,
            },
            ..fast_retry(4)
        };
        let mut e = Engine::with_resilience(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
            builder.build(),
            resilience,
        );
        let workload: Vec<FoldRequest> = (0..6).map(|i| req(i, 300, i as f64, 1e6)).collect();
        let out = e.run(&workload);
        assert_eq!(out.stats.completed(), 6, "all rerouted and completed");
        let routed_elsewhere = out
            .stats
            .batch_log
            .iter()
            .filter(|b| b.backend != first_choice)
            .count();
        assert!(routed_elsewhere > 0, "{:?}", out.stats.batch_log);
        assert_eq!(out.stats.resilience.backends[victim].breaker_opens, 1);
    }

    #[test]
    fn worker_panic_is_contained_as_typed_error() {
        // Single attempt: the panic surfaces as its direct typed cause.
        let plan = FaultPlan::builder().worker_panic(0, 0).build();
        let mut e = Engine::with_resilience(
            small_policy(),
            BatcherConfig::default(),
            single_lightnobel(),
            plan.clone(),
            fast_retry(1),
        );
        let out = e.run(&[req(0, 500, 0.0, 1e6)]);
        assert_eq!(
            out.responses[0].outcome,
            FoldOutcome::Failed(FoldError::WorkerPanic {
                backend: "LightNobel".into()
            })
        );
        assert_eq!(out.stats.failed(), 1);
        assert_eq!(out.stats.resilience.backends[0].panics, 1);
        assert!(out.stats.batch_log.is_empty(), "failed batches not logged");

        // Exhausted retry budget: the last cause is wrapped with the count.
        let plan = FaultPlan::builder()
            .worker_panic(0, 0)
            .worker_panic(0, 1)
            .build();
        let mut e = Engine::with_resilience(
            small_policy(),
            BatcherConfig::default(),
            single_lightnobel(),
            plan,
            fast_retry(2),
        );
        let out = e.run(&[req(0, 500, 0.0, 1e6)]);
        match &out.responses[0].outcome {
            FoldOutcome::Failed(FoldError::RetriesExhausted { attempts, last }) => {
                assert_eq!(*attempts, 2);
                assert!(last.contains("panic"), "{last}");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn memory_pressure_degrades_precision_instead_of_rejecting() {
        // Leave only ~1.2× the INT4 footprint of a near-capacity sequence
        // available: FP32 and INT8 cannot fit, INT4 can — the request must
        // complete degraded rather than starve.
        let ln = LightNobelBackend::paper("LightNobel");
        let n = {
            use crate::backend::Backend as _;
            ln.max_single_length()
        };
        let fraction = {
            use crate::backend::Backend as _;
            ln.batch_peak_bytes_at(&[n], ActPrecision::Int4) * 1.2 / ln.memory_capacity_bytes()
        };
        let plan = FaultPlan::builder()
            .pressure(PressureWindow {
                backend: 0,
                start_seconds: 0.0,
                end_seconds: 1e9,
                available_fraction: fraction,
            })
            .build();
        let mut e = Engine::with_resilience(
            small_policy(),
            BatcherConfig::default(),
            single_lightnobel(),
            plan,
            ResilienceConfig::default(),
        );
        let out = e.run(&[req(0, n, 0.0, 1e6)]);
        match &out.responses[0].outcome {
            FoldOutcome::Completed { precision, .. } => {
                assert_eq!(*precision, ActPrecision::Int4)
            }
            other => panic!("expected degraded completion, got {other:?}"),
        }
        assert!(out.responses[0].outcome.is_degraded());
        assert_eq!(out.stats.resilience.backends[0].degraded_int4, 1);
        assert_eq!(out.stats.resilience.degraded_batches(), 1);
    }

    #[test]
    fn poisoned_bucket_requeues_then_fails_when_exhausted() {
        // With retry budget left, a poison victim is re-admitted and still
        // completes.
        let plan = FaultPlan::builder().poison(1, 0.0).build();
        let mut e = Engine::with_resilience(
            small_policy(),
            BatcherConfig::default(),
            single_lightnobel(),
            plan.clone(),
            fast_retry(3),
        );
        let out = e.run(&[req(0, 500, 0.0, 1e6)]);
        assert!(out.responses[0].outcome.is_completed());
        assert_eq!(out.stats.resilience.poison_events, 1);

        // Without budget, the victim fails typed.
        let mut e = Engine::with_resilience(
            small_policy(),
            BatcherConfig::default(),
            single_lightnobel(),
            plan,
            fast_retry(1),
        );
        let out = e.run(&[req(0, 500, 0.0, 1e6)]);
        assert_eq!(
            out.responses[0].outcome,
            FoldOutcome::Failed(FoldError::QueuePoisoned { bucket: 1 })
        );
        assert_eq!(out.stats.failed(), 1);
    }

    #[test]
    fn seeded_chaos_runs_are_reproducible() {
        let spec = ChaosSpec {
            worker_panics: 1,
            poisons: vec![ln_fault::PoisonEvent {
                bucket: 1,
                at_seconds: 2.0,
            }],
            ..ChaosSpec::light(3)
        };
        let plan = FaultPlan::seeded("engine/chaos", &spec);
        let workload: Vec<FoldRequest> = (0..24)
            .map(|i| req(i, 80 + (i as usize * 311) % 2000, i as f64 * 0.25, 300.0))
            .collect();
        let run = |w: &[FoldRequest]| {
            Engine::with_resilience(
                small_policy(),
                BatcherConfig::default(),
                standard_backends(),
                plan.clone(),
                ResilienceConfig::default(),
            )
            .run(w)
        };
        let a = run(&workload);
        let b = run(&workload);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.responses.len(), 24, "definite outcome per request");
    }

    #[test]
    fn traced_chaos_run_is_byte_identical_and_covers_event_kinds() {
        let spec = ChaosSpec {
            worker_panics: 1,
            poisons: vec![ln_fault::PoisonEvent {
                bucket: 1,
                at_seconds: 2.0,
            }],
            ..ChaosSpec::light(3)
        };
        let plan = FaultPlan::seeded("engine/trace", &spec);
        let workload: Vec<FoldRequest> = (0..24)
            .map(|i| req(i, 80 + (i as usize * 311) % 2000, i as f64 * 0.25, 300.0))
            .collect();
        let run = |w: &[FoldRequest]| {
            let mut e = Engine::with_resilience(
                small_policy(),
                BatcherConfig::default(),
                standard_backends(),
                plan.clone(),
                fast_retry(3),
            );
            e.set_tracing(true);
            e.run(w)
        };
        let a = run(&workload);
        let b = run(&workload);
        let trace_a = a.trace.expect("tracing forced on");
        let trace_b = b.trace.expect("tracing forced on");
        let json_a = ln_obs::chrome_trace_json(&trace_a);
        assert_eq!(json_a, ln_obs::chrome_trace_json(&trace_b));
        for cat in ["queue", "dispatch", "kernel", "retry"] {
            assert!(
                trace_a.iter().any(|e| e.cat == cat),
                "no {cat:?} events in trace"
            );
        }
        assert!(trace_a.iter().any(|e| e.name == "enqueue"));
        assert!(trace_a.iter().any(|e| e.name == "fold_batch"));

        let mut untraced = Engine::with_resilience(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
            plan.clone(),
            fast_retry(3),
        );
        untraced.set_tracing(false);
        assert!(untraced.run(&workload).trace.is_none());
    }

    #[test]
    fn degradation_shows_up_in_trace() {
        let ln = LightNobelBackend::paper("LightNobel");
        let n = {
            use crate::backend::Backend as _;
            ln.max_single_length()
        };
        let fraction = {
            use crate::backend::Backend as _;
            ln.batch_peak_bytes_at(&[n], ActPrecision::Int4) * 1.2 / ln.memory_capacity_bytes()
        };
        let plan = FaultPlan::builder()
            .pressure(PressureWindow {
                backend: 0,
                start_seconds: 0.0,
                end_seconds: 1e9,
                available_fraction: fraction,
            })
            .build();
        let mut e = Engine::with_resilience(
            small_policy(),
            BatcherConfig::default(),
            single_lightnobel(),
            plan,
            ResilienceConfig::default(),
        );
        e.set_tracing(true);
        let out = e.run(&[req(0, n, 0.0, 1e6)]);
        let trace = out.trace.expect("tracing on");
        let degrade = trace
            .iter()
            .find(|e| e.cat == "degradation")
            .expect("degradation event recorded");
        assert_eq!(
            degrade.args[0],
            ("precision", ln_obs::ArgValue::Str("int4".into()))
        );
    }

    #[test]
    fn stepper_replays_run_exactly_and_streams_responses() {
        let workload: Vec<FoldRequest> = (0..16)
            .map(|i| req(i, 100 + (i as usize * 137) % 1200, i as f64 * 0.3, 1e6))
            .collect();
        let mut a = Engine::new(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
        );
        let out_a = a.run(&workload);

        let mut b = Engine::new(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
        );
        b.begin(&workload);
        let mut streamed = Vec::new();
        while let Some(t) = b.next_event_seconds() {
            streamed.extend(b.advance(t));
            if b.idle() {
                break;
            }
        }
        let out_b = b.finish();
        assert_eq!(out_a.responses, out_b.responses);
        assert_eq!(out_a.stats, out_b.stats);
        streamed.sort_by_key(|r| r.id);
        assert_eq!(streamed, out_b.responses, "advance streams every response");
    }

    #[test]
    fn injected_requests_are_served_mid_run() {
        let mut e = Engine::new(
            small_policy(),
            BatcherConfig::default(),
            standard_backends(),
        );
        e.begin(&[req(0, 500, 0.0, 1e6)]);
        let t = e.next_event_seconds().expect("arrival pending");
        e.advance(t);
        e.inject(req(7, 400, e.now_seconds(), 1e6));
        e.inject(req(3, 600, e.now_seconds() + 0.5, 1e6));
        while let Some(t) = e.next_event_seconds() {
            e.advance(t);
            if e.idle() {
                break;
            }
        }
        let out = e.finish();
        let ids: Vec<u64> = out.responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 3, 7], "id order, all served");
        assert!(out.responses.iter().all(|r| r.outcome.is_completed()));
    }

    #[test]
    fn cancel_removes_queued_but_not_in_flight() {
        // Sequential dispatch on one backend: first request executes
        // (~10 s for 2 000 residues), the rest queue behind it.
        let cfg = BatcherConfig {
            max_batch: 1,
            max_wait_seconds: 0.0,
            ..BatcherConfig::default()
        };
        let workload: Vec<FoldRequest> = (0..4).map(|i| req(i, 2000, 0.0, 1e6)).collect();
        let mut e = Engine::new(small_policy(), cfg, single_lightnobel());
        e.begin(&workload);
        let t = e.next_event_seconds().unwrap();
        e.advance(t);
        assert_eq!(e.in_flight.iter().flatten().count(), 1);
        assert_eq!(e.queue_depth(), 3);
        let got = e.cancel(2).expect("queued request cancellable");
        assert_eq!(got.id, 2);
        assert!(
            e.cancel(0).is_none(),
            "in-flight request is not cancellable"
        );
        assert!(e.cancel(99).is_none(), "unknown id");
        while let Some(t) = e.next_event_seconds() {
            e.advance(t);
            if e.idle() {
                break;
            }
        }
        let out = e.finish();
        let ids: Vec<u64> = out.responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 3], "cancelled request has no response here");
    }

    #[test]
    fn steal_takes_tail_work_and_respects_length_cap() {
        let cfg = BatcherConfig {
            max_batch: 1,
            max_wait_seconds: 0.0,
            ..BatcherConfig::default()
        };
        let mut workload: Vec<FoldRequest> = (0..5).map(|i| req(i, 2000, 0.0, 1e6)).collect();
        workload.push(req(5, 100, 0.0, 1e6));
        let mut e = Engine::new(small_policy(), cfg, single_lightnobel());
        e.begin(&workload);
        let t = e.next_event_seconds().unwrap();
        e.advance(t);
        // The 2000-residue bucket is deepest; its tail (id 4) goes first.
        let stolen = e.steal(2, usize::MAX);
        let ids: Vec<u64> = stolen.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![4, 3]);
        // A thief that only fits short sequences gets the short request.
        let stolen = e.steal(10, 500);
        let ids: Vec<u64> = stolen.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![5]);
        while let Some(t) = e.next_event_seconds() {
            e.advance(t);
            if e.idle() {
                break;
            }
        }
        let out = e.finish();
        assert_eq!(out.responses.len(), 3, "stolen work answers elsewhere");
    }

    #[test]
    fn evacuate_returns_all_victims_and_kills_the_engine() {
        let cfg = BatcherConfig {
            max_batch: 1,
            max_wait_seconds: 0.0,
            ..BatcherConfig::default()
        };
        let workload: Vec<FoldRequest> = (0..4).map(|i| req(i, 2000, 0.0, 1e6)).collect();
        let mut e = Engine::new(small_policy(), cfg, single_lightnobel());
        e.begin(&workload);
        let t = e.next_event_seconds().unwrap();
        e.advance(t);
        e.inject(req(9, 800, e.now_seconds() + 100.0, 1e6));
        let mut victims: Vec<u64> = e.evacuate().iter().map(|r| r.id).collect();
        victims.sort_unstable();
        assert_eq!(victims, vec![0, 1, 2, 3, 9], "in-flight + queued + unseen");
        assert!(e.is_dead());
        assert!(e.idle());
        assert_eq!(e.next_event_seconds(), None, "a dead engine never wakes");
        assert_eq!(e.queue_depth(), 0);
        assert_eq!(e.in_flight.iter().flatten().count(), 0);
        let out = e.finish();
        assert!(out.responses.is_empty(), "victims answer at the cluster");
    }

    #[test]
    fn identical_runs_identical_schedules() {
        let workload: Vec<FoldRequest> = (0..32)
            .map(|i| req(i, 80 + (i as usize * 311) % 2000, i as f64 * 0.25, 50.0))
            .collect();
        let run = |w: &[FoldRequest]| {
            Engine::new(
                small_policy(),
                BatcherConfig::default(),
                standard_backends(),
            )
            .run(w)
        };
        let a = run(&workload);
        let b = run(&workload);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.responses, b.responses);
        // Input order must not matter either.
        let mut shuffled = workload.clone();
        shuffled.reverse();
        let c = run(&shuffled);
        assert_eq!(a.stats.fingerprint(), c.stats.fingerprint());
    }
}
