//! The threaded serving front-end.
//!
//! [`FoldService`] runs one worker thread per backend over the shared
//! length-bucketed batcher, built entirely on std primitives (`thread`,
//! `Mutex`/`Condvar`, `mpsc`). `submit` is non-blocking: a full bucket
//! queue rejects immediately with [`RejectReason::QueueFull`] instead of
//! applying backpressure by stalling the caller.
//!
//! Wall-clock is used only to *pace* the service (max-wait flushes and
//! queueing timeouts); all reported latencies are virtual seconds from the
//! backends' device models, the same numbers the deterministic
//! [`crate::engine::Engine`] produces.
//!
//! What is decided at each step is `crate::scheduler`'s, the policy the
//! engine drives too: injected faults from a [`FaultPlan`], bounded retry
//! with deterministic backoff, a per-backend circuit breaker, AAQ precision
//! degradation under memory pressure. The service is its wall clock:
//! threads, the lock, the device hold and panic containment — a worker that
//! panics mid-batch (injected or real) is caught, the batch fails typed,
//! and the thread keeps serving. Every admitted request reaches a definite
//! [`crate::FoldOutcome`]: completed (possibly degraded), timed out, failed
//! typed, or cancelled at shutdown — never a silently dropped channel.

use crate::backend::Backend;
use crate::batcher::BatcherConfig;
use crate::bucket::BucketPolicy;
use crate::fault::FaultPlan;
use crate::request::{FoldError, FoldOutcome, FoldRequest, FoldResponse, RejectReason};
use crate::scheduler::{Args, BatchFailure, Scheduler, Sink, BACKEND_TRACK_BASE};
use crate::stats::ServeStats;
use ln_obs::{seconds_to_nanos, ArgValue};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Why `submit` refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control refused it, for the reason the engine would give.
    Rejected(RejectReason),
    /// The service is shutting down.
    ShuttingDown,
}

/// Service tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Batching and admission parameters.
    pub batcher: BatcherConfig,
    /// Wall-clock delay a worker holds per dispatched batch, emulating
    /// device occupancy so queueing (and hence rejection/timeout paths)
    /// is observable in tests. Zero by default.
    pub dispatch_wall_delay: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batcher: BatcherConfig::default(),
            dispatch_wall_delay: Duration::ZERO,
        }
    }
}

/// The response channel plus enough request identity to answer it even
/// when the request itself is gone (the shutdown `Cancelled` sweep).
struct Pending {
    tx: Sender<FoldResponse>,
    name: String,
    length: usize,
    bucket: usize,
}

/// Where the service takes what the scheduler core emits: the global
/// wall-clock tracer, which stamps events itself, and the response
/// channels.
struct WallSink {
    senders: HashMap<u64, Pending>,
}

impl Sink for WallSink {
    fn instant(&mut self, _at: f64, name: &'static str, cat: &'static str, track: u32, args: Args) {
        ln_obs::tracer().instant(name, cat, track, args);
    }

    /// The core closes a span at the instant it reports it, so on the wall
    /// tracer the span ends now and reaches back its service-clock length.
    fn span(
        &mut self,
        start: f64,
        end: f64,
        name: &'static str,
        cat: &'static str,
        track: u32,
        args: Args,
    ) {
        let obs = ln_obs::tracer();
        let dur = seconds_to_nanos(end - start);
        let begin = obs.now_nanos().saturating_sub(dur);
        obs.complete(name, cat, track, begin, dur, args);
    }

    /// A refused submission has no channel: `submit` returns its reason.
    fn respond(&mut self, request: FoldRequest, outcome: FoldOutcome) {
        if let Some(p) = self.senders.remove(&request.id) {
            let _ = p.tx.send(FoldResponse::to(request, outcome));
        }
    }
}

struct State {
    core: Scheduler<WallSink>,
    next_id: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    started: Instant,
    dispatch_wall_delay: Duration,
}

impl Shared {
    fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Locks the service state, recovering from mutex poisoning: a worker that
/// panicked mid-update is already contained by `catch_unwind`, and every
/// state transition here is written to be valid at each lock release, so
/// the data is usable — abandoning it would turn one contained panic into
/// a service-wide outage.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running folding service: worker threads, bounded queues, graceful
/// shutdown.
pub struct FoldService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl FoldService {
    /// Starts the service with one worker thread per backend and no
    /// injected faults.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn start(
        policy: BucketPolicy,
        config: ServiceConfig,
        backends: Vec<Box<dyn Backend>>,
    ) -> Self {
        FoldService::start_with_resilience(policy, config, backends, FaultPlan::none())
    }

    /// Starts the service with an explicit fault schedule, answered by the
    /// stack's retry policy and per-backend circuit breakers (the
    /// chaos-testing entry point; fault times are seconds on the service
    /// clock, which starts at zero here).
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn start_with_resilience(
        policy: BucketPolicy,
        config: ServiceConfig,
        backends: Vec<Box<dyn Backend>>,
        plan: FaultPlan,
    ) -> Self {
        let pool = backends.len();
        let sink = WallSink {
            senders: HashMap::new(),
        };
        let core = Scheduler::new(policy, config.batcher, backends, plan, sink);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                core,
                next_id: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            started: Instant::now(),
            dispatch_wall_delay: config.dispatch_wall_delay,
        });
        let workers = (0..pool)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker(shared, i))
            })
            .collect();
        FoldService { shared, workers }
    }

    /// Submits a fold request. Never blocks: a full queue, unroutable
    /// length, or unmeetable deadline returns an error immediately. On
    /// success the returned channel eventually yields exactly one
    /// [`FoldResponse`].
    pub fn submit(
        &self,
        name: &str,
        length: usize,
        timeout_seconds: f64,
    ) -> Result<Receiver<FoldResponse>, SubmitError> {
        let now = self.shared.now();
        let mut st = lock_state(&self.shared);
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let id = st.next_id;
        st.next_id += 1;
        let request = FoldRequest {
            id,
            name: name.to_string(),
            length,
            arrival_seconds: now,
            timeout_seconds,
        };
        let bucket = st.core.admit(request, now).map_err(SubmitError::Rejected)?;
        let (tx, rx) = mpsc::channel();
        st.core.sink.senders.insert(
            id,
            Pending {
                tx,
                name: name.to_string(),
                length,
                bucket,
            },
        );
        drop(st);
        self.shared.work.notify_all();
        Ok(rx)
    }

    /// Drains the queues, stops the workers, and returns the collected
    /// statistics. Every request still owed a response when the workers
    /// finish is answered `Failed(Cancelled)` — shutdown never silently
    /// drops a response channel.
    pub fn shutdown(self) -> ServeStats {
        {
            let mut st = lock_state(&self.shared);
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
        let mut st = lock_state(&self.shared);
        let mut leftover: Vec<(u64, Pending)> = st.core.sink.senders.drain().collect();
        leftover.sort_by_key(|(id, _)| *id);
        let stats = &mut st.core.stats;
        for (id, p) in leftover {
            stats.record_failure(p.bucket);
            stats.resilience.cancelled += 1;
            let _ = p.tx.send(FoldResponse {
                id,
                name: p.name,
                length: p.length,
                outcome: FoldOutcome::Failed(FoldError::Cancelled),
            });
        }
        stats.finish(self.shared.now());
        stats.clone()
    }
}

/// One backend's worker loop, a scheduler step per iteration: advance the
/// breakers, fire due poisons, launch the batch the core picks for this
/// backend, expire overdue requests; then, outside the lock, execute the
/// batch with panic containment, and settle it; otherwise sleep until the
/// next deadline or signal.
///
/// Drain mode (after shutdown) ignores breakers, faults, and pressure so
/// the queues empty deterministically.
fn worker(shared: Arc<Shared>, idx: usize) {
    let mut st = lock_state(&shared);
    let name = st.core.backends[idx].name().to_string();
    loop {
        let now = shared.now();
        let drain = st.shutdown;
        st.core.poll_breakers(now);
        st.core.fire_poisons(now);
        // From where this worker stands, its backend is the idle one.
        let picked = st.core.pick(now, drain, |b| b == idx);
        let flight =
            picked.map(|(_, bucket, precision)| st.core.launch(idx, bucket, precision, now, drain));
        st.core.expire(now);

        if let Some(flight) = flight {
            drop(st);
            // Wall-clock span over the worker's device hold; reported
            // latencies stay virtual, this only shapes the trace timeline.
            let exec_span = ln_obs::tracer().span_with(
                "fold_batch",
                "kernel",
                BACKEND_TRACK_BASE + idx as u32,
                vec![("bucket", ArgValue::U64(flight.bucket as u64))],
            );
            // Execute with panic containment: an injected worker panic
            // actually unwinds here and is caught, so the thread survives
            // and the batch fails typed instead of poisoning the service.
            let injected_panic = flight.modeled() == Err(BatchFailure::WorkerPanic);
            let exec = panic::catch_unwind(AssertUnwindSafe(|| {
                if injected_panic {
                    panic!("fault plan: injected worker panic on {name}");
                }
                // Hold the device for the configured wall slice so queueing
                // pressure is observable.
                if !shared.dispatch_wall_delay.is_zero() {
                    thread::sleep(shared.dispatch_wall_delay);
                }
            }));
            drop(exec_span);
            let outcome = match exec {
                Ok(()) => flight.modeled(),
                Err(_) => Err(BatchFailure::WorkerPanic),
            };

            st = lock_state(&shared);
            st.core.settle(idx, flight, outcome, shared.now());
            shared.work.notify_all();
            continue;
        }

        if drain && st.core.batcher.total_depth() == 0 {
            return;
        }

        // Sleep until the next flush/backoff/timeout deadline or a new
        // submission (capped so breaker cooldowns and pressure-window
        // boundaries are picked up promptly).
        let wait = st
            .core
            .batcher
            .next_deadline(shared.now())
            .map(|d| (d - shared.now()).max(0.001))
            .unwrap_or(0.05)
            .min(0.05);
        let (woken, _) = shared
            .work
            .wait_timeout(st, Duration::from_secs_f64(wait))
            .unwrap_or_else(PoisonError::into_inner);
        st = woken;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{standard_backends, LightNobelBackend};
    use crate::fault::int4_only_pressure;

    fn policy() -> BucketPolicy {
        BucketPolicy::fixed(vec![256, 1024, 4096])
    }

    fn single_lightnobel() -> Vec<Box<dyn Backend>> {
        vec![Box::new(LightNobelBackend::paper("LightNobel"))]
    }

    #[test]
    fn submits_fold_and_shutdown_drains() {
        let svc = FoldService::start(policy(), ServiceConfig::default(), standard_backends());
        let rxs: Vec<_> = (0..6)
            .map(|i| {
                svc.submit(&format!("t{i}"), 200 + i * 150, 60.0)
                    .expect("admitted")
            })
            .collect();
        let stats = svc.shutdown();
        for rx in rxs {
            let resp = rx.recv().expect("response delivered");
            assert!(resp.outcome.is_completed(), "{resp:?}");
        }
        assert_eq!(stats.completed(), 6);
        assert_eq!(stats.rejected() + stats.timed_out() + stats.failed(), 0);
        assert_eq!(stats.accuracy.requests, stats.completed());
        assert_eq!(stats.accuracy.degraded_requests, 0);
    }

    #[test]
    fn a_completion_below_fp32_is_counted_degraded() {
        // The pressure window of `examples/chaos_recovery.rs`: ~1.2x the
        // INT4 footprint of the longest routable sequence, so it fits at
        // INT4 only.
        let ln = LightNobelBackend::paper("LightNobel");
        let giant = ln.max_single_length();
        let plan = FaultPlan::builder().pressure(int4_only_pressure()).build();
        let config = ServiceConfig {
            batcher: BatcherConfig {
                max_batch: 1,
                max_wait_seconds: 0.0,
                ..BatcherConfig::default()
            },
            ..ServiceConfig::default()
        };
        let svc = FoldService::start_with_resilience(policy(), config, standard_backends(), plan);
        let rx = svc.submit("giant", giant, 1e6).expect("admitted");
        let resp = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("degraded, not rejected");
        assert!(resp.outcome.is_degraded(), "{resp:?}");
        let stats = svc.shutdown();
        assert_eq!(stats.accuracy.requests, 1);
        assert_eq!(stats.accuracy.degraded_requests, 1);
        assert!(stats.accuracy.max_worst_rmse > 0.0);
    }

    #[test]
    fn immediate_shutdown_still_answers_every_request() {
        // The shutdown-drain regression: submit a burst and shut down
        // right away — every channel must still yield a definite outcome
        // (drained completion or typed cancellation), never a hang.
        let svc = FoldService::start(policy(), ServiceConfig::default(), standard_backends());
        let rxs: Vec<_> = (0..8)
            .map(|i| {
                svc.submit(&format!("t{i}"), 150 + i * 90, 60.0)
                    .expect("admitted")
            })
            .collect();
        let stats = svc.shutdown();
        let mut definite = 0u64;
        for rx in rxs {
            let resp = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("every request is answered at shutdown");
            match resp.outcome {
                FoldOutcome::Completed { .. } | FoldOutcome::Failed(FoldError::Cancelled) => {
                    definite += 1
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(definite, 8);
        assert_eq!(stats.completed() + stats.resilience.cancelled, 8);
    }

    #[test]
    fn too_long_is_refused_up_front() {
        let svc = FoldService::start(policy(), ServiceConfig::default(), standard_backends());
        assert_eq!(
            svc.submit("giant", 150_000, 60.0).unwrap_err(),
            SubmitError::Rejected(RejectReason::TooLong)
        );
        let stats = svc.shutdown();
        assert_eq!(stats.rejected(), 1);
    }

    #[test]
    fn unmeetable_deadline_is_refused_before_burning_backend_time() {
        // Far below any backend's modeled service time for 2 000 residues:
        // admission must bounce it, and no batch may ever be dispatched.
        let svc = FoldService::start(policy(), ServiceConfig::default(), standard_backends());
        assert_eq!(
            svc.submit("rush", 2000, 1e-6).unwrap_err(),
            SubmitError::Rejected(RejectReason::DeadlineUnmeetable)
        );
        let stats = svc.shutdown();
        assert_eq!(stats.rejected(), 1);
        assert_eq!(stats.resilience.deadline_unmeetable, 1);
        assert!(
            stats.batch_log.is_empty(),
            "the doomed request never reached a backend"
        );
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let svc = FoldService::start(policy(), ServiceConfig::default(), standard_backends());
        {
            let mut st = lock_state(&svc.shared);
            st.shutdown = true;
        }
        assert_eq!(
            svc.submit("late", 100, 60.0).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn injected_transient_retries_to_completion() {
        // The one backend's first dispatch fails transiently; the retry,
        // after its backoff, is its second dispatch and clean.
        let plan = FaultPlan::builder().transient(0, 0).build();
        let svc = FoldService::start_with_resilience(
            policy(),
            ServiceConfig::default(),
            single_lightnobel(),
            plan,
        );
        let rx = svc.submit("retry-me", 500, 60.0).expect("admitted");
        let resp = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("retried to completion");
        assert!(resp.outcome.is_completed(), "{resp:?}");
        let stats = svc.shutdown();
        assert_eq!(stats.resilience.retries, 1);
        assert_eq!(stats.resilience.faults(), 1);
        assert_eq!(stats.completed(), 1);
    }

    #[test]
    fn worker_panic_is_contained_and_the_thread_survives() {
        // The one worker's first dispatch panics. Containment must keep
        // that thread alive: the same request retries to completion on it
        // and a follow-up request also completes there.
        let plan = FaultPlan::builder().worker_panic(0, 0).build();
        let svc = FoldService::start_with_resilience(
            policy(),
            ServiceConfig::default(),
            single_lightnobel(),
            plan,
        );
        let rx = svc.submit("survivor", 500, 60.0).expect("admitted");
        let resp = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("panic contained, retry completed");
        assert!(resp.outcome.is_completed(), "{resp:?}");
        let rx2 = svc.submit("after-panic", 300, 60.0).expect("admitted");
        let resp2 = rx2
            .recv_timeout(Duration::from_secs(30))
            .expect("workers still serving");
        assert!(resp2.outcome.is_completed(), "{resp2:?}");
        let stats = svc.shutdown();
        assert_eq!(stats.resilience.backends[0].panics, 1);
        assert_eq!(stats.completed(), 2);
    }
}
