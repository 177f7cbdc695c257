//! The threaded serving front-end.
//!
//! [`FoldService`] runs one worker thread per backend over the shared
//! length-bucketed batcher, built entirely on std primitives (`thread`,
//! `Mutex`/`Condvar`, `mpsc`). `submit` is non-blocking: a full bucket
//! queue rejects immediately with [`SubmitError::QueueFull`] instead of
//! applying backpressure by stalling the caller.
//!
//! Wall-clock is used only to *pace* the service (max-wait flushes and
//! queueing timeouts); all reported latencies are virtual seconds from the
//! backends' device models, the same numbers the deterministic
//! [`crate::engine::Engine`] produces.
//!
//! The service carries the same resilience layer as the engine: injected
//! faults from a [`FaultPlan`], bounded retry with deterministic backoff,
//! a per-backend circuit breaker, AAQ precision degradation under memory
//! pressure, and panic containment — a worker that panics mid-batch
//! (injected or real) is caught, the batch fails typed, and the thread
//! keeps serving. Every admitted request reaches a definite
//! [`FoldOutcome`]: completed (possibly degraded), timed out, failed
//! typed, or cancelled at shutdown — never a silently dropped channel.

use crate::backend::{best_case_seconds, Backend};
use crate::batcher::{Batcher, BatcherConfig, QueuedRequest};
use crate::bucket::BucketPolicy;
use crate::request::{terminal_error, FoldError, FoldOutcome, FoldRequest, FoldResponse};
use crate::stats::{BatchRecord, ServeStats};
use ln_fault::{BreakerEvent, CircuitBreaker, DispatchFault, FaultPlan, ResilienceConfig};
use ln_obs::ArgValue;
use ln_quant::ActPrecision;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Why `submit` refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The length bucket's bounded queue is full (backpressure).
    QueueFull,
    /// No backend in the pool can ever fit the sequence.
    TooLong,
    /// Even the fastest fitting backend's service time exceeds the
    /// request's budget: refused at admission instead of burning backend
    /// time on a fold that cannot meet its deadline.
    DeadlineUnmeetable,
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

struct State {
    batcher: Batcher,
    senders: HashMap<u64, Pending>,
    stats: ServeStats,
    next_id: u64,
    shutdown: bool,
    breakers: Vec<CircuitBreaker>,
    /// Per-backend dispatch sequence numbers (the fault-plan key).
    dispatch_seq: Vec<u64>,
    /// Index of the next unfired queue-poison event.
    next_poison: usize,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    started: Instant,
    config: ServiceConfig,
    backends: Vec<Arc<dyn Backend>>,
    plan: FaultPlan,
    resilience: ResilienceConfig,
}

impl Shared {
    fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Backend tracks start here on the global wall-clock tracer (buckets use
/// their own index), mirroring the deterministic engine's track layout.
const BACKEND_TRACK_BASE: u32 = 100;

fn trace_breaker(idx: usize, event: BreakerEvent) {
    let name = match event {
        BreakerEvent::Opened => "breaker_open",
        BreakerEvent::HalfOpened => "breaker_half_open",
        BreakerEvent::Closed => "breaker_close",
    };
    ln_obs::tracer().instant(name, "breaker", BACKEND_TRACK_BASE + idx as u32, Vec::new());
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
    /// Starts the service with one worker thread per backend, no injected
    /// faults, and the default resilience policy.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn start(
        policy: BucketPolicy,
        config: ServiceConfig,
        backends: Vec<Box<dyn Backend>>,
    ) -> Self {
        FoldService::start_with_resilience(
            policy,
            config,
            backends,
            FaultPlan::none(),
            ResilienceConfig::default(),
        )
    }

    /// Starts the service with an explicit fault schedule and resilience
    /// policy (the chaos-testing entry point; fault times are seconds on
    /// the service clock, which starts at zero here).
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn start_with_resilience(
        policy: BucketPolicy,
        config: ServiceConfig,
        backends: Vec<Box<dyn Backend>>,
        plan: FaultPlan,
        resilience: ResilienceConfig,
    ) -> Self {
        assert!(!backends.is_empty(), "need at least one backend");
        let backends: Vec<Arc<dyn Backend>> = backends.into_iter().map(Arc::from).collect();
        let mut stats = ServeStats::new(policy.num_buckets());
        stats
            .resilience
            .register_backends(backends.iter().map(|b| b.name().to_string()));
        let breakers = backends
            .iter()
            .map(|_| CircuitBreaker::new(resilience.breaker))
            .collect();
        let dispatch_seq = vec![0; backends.len()];
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                batcher: Batcher::new(policy, config.batcher),
                senders: HashMap::new(),
                stats,
                next_id: 0,
                shutdown: false,
                breakers,
                dispatch_seq,
                next_poison: 0,
            }),
            work: Condvar::new(),
            started: Instant::now(),
            config,
            backends,
            plan,
            resilience,
        });
        let workers = (0..shared.backends.len())
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
        // The admission models are pure reads on the backend pool — keep
        // them outside the lock.
        let best_case = best_case_seconds(&self.shared.backends, length);
        let mut st = lock_state(&self.shared);
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let bucket = st.batcher.policy().bucket_of(length);
        let Some(best) = best_case else {
            st.stats.record_rejection(bucket);
            return Err(SubmitError::TooLong);
        };
        if best > timeout_seconds {
            st.stats.record_rejection(bucket);
            st.stats.resilience.deadline_unmeetable += 1;
            return Err(SubmitError::DeadlineUnmeetable);
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
        match st.batcher.offer(request) {
            Ok(b) => {
                let depth = st.batcher.depth(b);
                st.stats.record_depth(b, depth);
                ln_obs::tracer().instant(
                    "enqueue",
                    "queue",
                    b as u32,
                    vec![
                        ("id", ArgValue::U64(id)),
                        ("seq_len", ArgValue::U64(length as u64)),
                    ],
                );
            }
            Err(_) => {
                st.stats.record_rejection(bucket);
                return Err(SubmitError::QueueFull);
            }
        }
        let (tx, rx) = mpsc::channel();
        st.senders.insert(
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

    /// Current queued-request count (all buckets).
    pub fn queue_depth(&self) -> usize {
        lock_state(&self.shared).batcher.total_depth()
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
        let mut leftover: Vec<(u64, Pending)> = st.senders.drain().collect();
        leftover.sort_by_key(|(id, _)| *id);
        for (id, p) in leftover {
            st.stats.record_failure(p.bucket);
            st.stats.resilience.cancelled += 1;
            let _ = p.tx.send(FoldResponse {
                id,
                name: p.name,
                length: p.length,
                outcome: FoldOutcome::Failed(FoldError::Cancelled),
            });
        }
        let now = self.shared.now();
        st.stats.finish(now);
        st.stats.clone()
    }
}

/// One backend's worker loop: advance the breaker, fire due poisons,
/// expire overdue requests, pick a ready bucket that fits (walking the
/// AAQ precision ladder under memory pressure), execute with panic
/// containment, settle success or typed failure; otherwise sleep until the
/// next deadline or signal.
///
/// Drain mode (after shutdown) ignores breakers, faults, and pressure so
/// the queues empty deterministically.
fn worker(shared: Arc<Shared>, idx: usize) {
    let backend = Arc::clone(&shared.backends[idx]);
    let mut st = lock_state(&shared);
    loop {
        let now = shared.now();
        let drain = st.shutdown;

        // Time-driven breaker transition (open → half-open probe).
        if let Some(ev) = st.breakers[idx].poll(now) {
            st.stats.resilience.backends[idx].record_breaker(ev);
            trace_breaker(idx, ev);
        }

        // Fire due queue poisons (any worker may process them): victims
        // re-admit without backoff — the queue failed, not the backend —
        // or fail typed when out of attempts.
        while st.next_poison < shared.plan.poisons().len()
            && shared.plan.poisons()[st.next_poison].at_seconds <= now
        {
            let ev = shared.plan.poisons()[st.next_poison];
            st.next_poison += 1;
            st.stats.resilience.poison_events += 1;
            for q in st.batcher.poison_bucket(ev.bucket) {
                let attempt = q.attempt + 1;
                if shared.resilience.retry.exhausted(attempt) {
                    st.stats.record_failure(ev.bucket);
                    if let Some(p) = st.senders.remove(&q.request.id) {
                        let _ = p.tx.send(FoldResponse {
                            id: q.request.id,
                            name: q.request.name.clone(),
                            length: q.request.length,
                            outcome: FoldOutcome::Failed(terminal_error(
                                FoldError::QueuePoisoned { bucket: ev.bucket },
                                attempt,
                            )),
                        });
                    }
                } else {
                    st.batcher.requeue(QueuedRequest {
                        request: q.request,
                        attempt,
                        earliest_seconds: now,
                    });
                }
            }
        }

        // Expire overdue requests.
        for r in st.batcher.expire(now) {
            let bucket = st.batcher.policy().bucket_of(r.length);
            st.stats.record_timeout(bucket);
            ln_obs::tracer().instant(
                "timeout",
                "timeout",
                bucket as u32,
                vec![("id", ArgValue::U64(r.id))],
            );
            if let Some(p) = st.senders.remove(&r.id) {
                let _ = p.tx.send(FoldResponse {
                    id: r.id,
                    name: r.name.clone(),
                    length: r.length,
                    outcome: FoldOutcome::TimedOut {
                        waited_seconds: now - r.arrival_seconds,
                    },
                });
            }
        }

        // Find the oldest ready bucket whose head this backend fits. The
        // FP32 rung is tried across all ready buckets first; only when
        // nothing fits at FP32 under the pressure-adjusted capacity does
        // the worker walk down the AAQ ladder, and then only as the pressure
        // fallback `Backend::permits` allows.
        let fraction = if drain {
            1.0
        } else {
            shared.plan.available_fraction(idx, now)
        };
        let permits =
            |lens: &[usize], precision: ActPrecision| backend.permits(lens, precision, fraction);
        let mut candidate: Option<(usize, ActPrecision)> = None;
        if drain || st.breakers[idx].can_dispatch() {
            'ladder: for precision in ActPrecision::LADDER {
                for b in st.batcher.ready_buckets(now, drain) {
                    let fits = st
                        .batcher
                        .head_length(b)
                        .is_some_and(|len| permits(&[len], precision));
                    if fits {
                        candidate = Some((b, precision));
                        break 'ladder;
                    }
                }
            }
        }

        if let Some((bucket, precision)) = candidate {
            let budget = st.batcher.config().max_batch_seconds;
            let take_now = if drain { f64::INFINITY } else { now };
            let batch = st.batcher.take_batch(bucket, take_now, |lens| {
                permits(lens, precision) && backend.batch_seconds(lens) <= budget
            });
            debug_assert!(!batch.is_empty(), "candidate head fits by construction");
            let seq = st.dispatch_seq[idx];
            st.dispatch_seq[idx] += 1;
            let fault = if drain {
                None
            } else {
                shared.plan.dispatch_fault(idx, seq)
            };
            st.breakers[idx].on_dispatch();
            st.stats.resilience.backends[idx].dispatches += 1;
            st.stats.resilience.backends[idx].record_precision(precision);
            let lengths: Vec<usize> = batch.iter().map(|q| q.request.length).collect();
            let base = backend.batch_seconds(&lengths);
            let start = now;
            // Fault timing on the virtual clock: a stall completes late, a
            // transient burns the full modeled time, a panic kills the
            // worker a quarter of the way in.
            let finish = match fault {
                Some(DispatchFault::Stall { factor }) => {
                    st.stats.resilience.backends[idx].stalls += 1;
                    start + base * factor
                }
                Some(DispatchFault::WorkerPanic) => start + 0.25 * base,
                Some(DispatchFault::Transient) | None => start + base,
            };
            drop(st);

            let obs = ln_obs::tracer();
            let track = BACKEND_TRACK_BASE + idx as u32;
            obs.instant(
                "dispatch",
                "dispatch",
                track,
                vec![
                    ("bucket", ArgValue::U64(bucket as u64)),
                    ("batch_size", ArgValue::U64(batch.len() as u64)),
                    ("precision", ArgValue::Str(precision.label().to_string())),
                ],
            );
            if precision != ActPrecision::Fp32 {
                obs.instant(
                    "degrade",
                    "degradation",
                    track,
                    vec![("precision", ArgValue::Str(precision.label().to_string()))],
                );
            }
            // Wall-clock span over the worker's device hold; reported
            // latencies stay virtual, this only shapes the trace timeline.
            let exec_span = obs.span_with(
                "fold_batch",
                "kernel",
                track,
                vec![("bucket", ArgValue::U64(bucket as u64))],
            );

            // Execute with panic containment: an injected worker panic
            // actually unwinds here and is caught, so the thread survives
            // and the batch fails typed instead of poisoning the service.
            let injected_panic = matches!(fault, Some(DispatchFault::WorkerPanic));
            let exec = panic::catch_unwind(AssertUnwindSafe(|| {
                if injected_panic {
                    panic!("ln-fault: injected worker panic on {}", backend.name());
                }
                // Hold the device for the configured wall slice so queueing
                // pressure is observable.
                if !shared.config.dispatch_wall_delay.is_zero() {
                    thread::sleep(shared.config.dispatch_wall_delay);
                }
            }));
            drop(exec_span);
            let failure = match (&exec, fault) {
                (Err(_), _) => Some(FoldError::WorkerPanic {
                    backend: backend.name().to_string(),
                }),
                (Ok(()), Some(DispatchFault::Transient)) => Some(FoldError::Transient {
                    backend: backend.name().to_string(),
                }),
                _ => None,
            };

            st = lock_state(&shared);
            match failure {
                None => {
                    if let Some(ev) = st.breakers[idx].on_success() {
                        st.stats.resilience.backends[idx].record_breaker(ev);
                        trace_breaker(idx, ev);
                    }
                    let latencies: Vec<f64> = batch
                        .iter()
                        .map(|q| finish - q.request.arrival_seconds)
                        .collect();
                    let peak_bytes = backend.batch_peak_bytes_at(&lengths, precision);
                    st.stats.record_batch(
                        BatchRecord {
                            bucket,
                            backend: backend.name().to_string(),
                            lengths,
                            start_seconds: start,
                            finish_seconds: finish,
                            precision,
                            peak_bytes,
                        },
                        &latencies,
                    );
                    let batch_size = batch.len();
                    let mut deliveries: Vec<(Sender<FoldResponse>, FoldResponse)> = Vec::new();
                    for q in &batch {
                        if let Some(p) = st.senders.remove(&q.request.id) {
                            deliveries.push((
                                p.tx,
                                FoldResponse {
                                    id: q.request.id,
                                    name: q.request.name.clone(),
                                    length: q.request.length,
                                    outcome: FoldOutcome::Completed {
                                        backend: backend.name().to_string(),
                                        started_seconds: start,
                                        finished_seconds: finish,
                                        batch_size,
                                        precision,
                                    },
                                },
                            ));
                        }
                    }
                    drop(st);
                    for (tx, resp) in deliveries {
                        let _ = tx.send(resp);
                    }
                    shared.work.notify_all();
                    st = lock_state(&shared);
                }
                Some(cause) => {
                    let settle_now = shared.now();
                    match &cause {
                        FoldError::WorkerPanic { .. } => {
                            st.stats.resilience.backends[idx].panics += 1
                        }
                        _ => st.stats.resilience.backends[idx].transients += 1,
                    }
                    if let Some(ev) = st.breakers[idx].on_failure(settle_now) {
                        st.stats.resilience.backends[idx].record_breaker(ev);
                        trace_breaker(idx, ev);
                    }
                    for q in batch {
                        let attempt = q.attempt + 1;
                        if shared.resilience.retry.exhausted(attempt) {
                            st.stats.record_failure(bucket);
                            if let Some(p) = st.senders.remove(&q.request.id) {
                                let _ = p.tx.send(FoldResponse {
                                    id: q.request.id,
                                    name: q.request.name.clone(),
                                    length: q.request.length,
                                    outcome: FoldOutcome::Failed(terminal_error(
                                        cause.clone(),
                                        attempt,
                                    )),
                                });
                            }
                        } else {
                            st.stats.resilience.retries += 1;
                            let backoff = shared
                                .resilience
                                .retry
                                .backoff_seconds(q.request.id, attempt);
                            ln_obs::tracer().instant(
                                "retry",
                                "retry",
                                bucket as u32,
                                vec![
                                    ("id", ArgValue::U64(q.request.id)),
                                    ("attempt", ArgValue::U64(u64::from(attempt))),
                                ],
                            );
                            st.batcher.requeue(QueuedRequest {
                                request: q.request,
                                attempt,
                                earliest_seconds: settle_now + backoff,
                            });
                        }
                    }
                    shared.work.notify_all();
                }
            }
            continue;
        }

        if st.shutdown && st.batcher.total_depth() == 0 {
            return;
        }

        // Sleep until the next flush/backoff/timeout deadline or a new
        // submission (capped so breaker cooldowns and pressure-window
        // boundaries are picked up promptly).
        let wait = st
            .batcher
            .next_deadline(shared.now())
            .map(|d| (d - shared.now()).max(0.001))
            .unwrap_or(0.05)
            .min(0.05);
        let (guard, _) = shared
            .work
            .wait_timeout(st, Duration::from_secs_f64(wait))
            .unwrap_or_else(PoisonError::into_inner);
        st = guard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::standard_backends;
    use ln_fault::RetryPolicy;

    fn policy() -> BucketPolicy {
        BucketPolicy::fixed(vec![256, 1024, 4096])
    }

    fn fast_retry(max_attempts: u32) -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy {
                max_attempts,
                base_seconds: 0.005,
                multiplier: 2.0,
                max_seconds: 0.05,
                jitter: 0.0,
            },
            ..ResilienceConfig::default()
        }
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
            SubmitError::TooLong
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
            SubmitError::DeadlineUnmeetable
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
        // First dispatch on every backend fails transiently; whichever
        // worker picks the retry up, its later sequence numbers are clean.
        let plan = FaultPlan::builder()
            .transient(0, 0)
            .transient(1, 0)
            .transient(2, 0)
            .build();
        let svc = FoldService::start_with_resilience(
            policy(),
            ServiceConfig::default(),
            standard_backends(),
            plan,
            fast_retry(6),
        );
        let rx = svc.submit("retry-me", 500, 60.0).expect("admitted");
        let resp = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("retried to completion");
        assert!(resp.outcome.is_completed(), "{resp:?}");
        let stats = svc.shutdown();
        assert!(stats.resilience.retries >= 1);
        assert!(stats.resilience.faults() >= 1);
        assert_eq!(stats.completed(), 1);
    }

    #[test]
    fn worker_panic_is_contained_and_the_thread_survives() {
        // Every backend's first dispatch panics its worker. Containment
        // must keep all three threads alive: the same request retries to
        // completion and a follow-up request also completes.
        let plan = FaultPlan::builder()
            .worker_panic(0, 0)
            .worker_panic(1, 0)
            .worker_panic(2, 0)
            .build();
        let svc = FoldService::start_with_resilience(
            policy(),
            ServiceConfig::default(),
            standard_backends(),
            plan,
            fast_retry(6),
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
        assert!(stats.resilience.backends.iter().any(|b| b.panics > 0));
        assert_eq!(stats.completed(), 2);
    }
}
