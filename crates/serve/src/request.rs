//! The folding-service request/response API.

use ln_quant::ActPrecision;
use std::fmt;

/// A folding request as admitted to the scheduler.
///
/// Times are *virtual* seconds on the service clock (the engine advances
/// it deterministically; the threaded service maps wall-clock onto it).
#[derive(Debug, Clone, PartialEq)]
pub struct FoldRequest {
    /// Monotonic request id (also the deterministic tie-breaker).
    pub id: u64,
    /// Target name (e.g. a CASP target like `"T1169"`).
    pub name: String,
    /// Sequence length in residues — the only feature the scheduler needs.
    pub length: usize,
    /// Arrival time on the virtual clock, seconds.
    pub arrival_seconds: f64,
    /// Queueing budget: the request times out if not *dispatched* within
    /// this many seconds of arrival.
    pub timeout_seconds: f64,
}

impl FoldRequest {
    /// Latest virtual time at which the request may still be dispatched.
    pub(crate) fn deadline(&self) -> f64 {
        self.arrival_seconds + self.timeout_seconds
    }
}

/// Why a request was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bucket's bounded queue was full (backpressure).
    QueueFull,
    /// No backend in the pool can ever fit the sequence in memory.
    TooLong,
    /// Even with zero queueing, the fastest fitting backend's service time
    /// exceeds the request's budget — rejected up front instead of burning
    /// backend time on a fold that cannot meet its deadline.
    DeadlineUnmeetable,
}

impl RejectReason {
    /// The reason as a trace-event argument.
    pub(crate) fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::TooLong => "too_long",
            RejectReason::DeadlineUnmeetable => "deadline_unmeetable",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => f.write_str("queue full"),
            RejectReason::TooLong => f.write_str("no backend fits sequence"),
            RejectReason::DeadlineUnmeetable => {
                f.write_str("deadline shorter than best-case service time")
            }
        }
    }
}

/// A typed terminal failure — the resilience layer's replacement for the
/// panic paths. Every variant is a definite outcome: the client never hangs
/// and never sees an unwinding worker.
#[derive(Debug, Clone, PartialEq)]
pub enum FoldError {
    /// The executing backend hit a transient compute error.
    Transient {
        /// The backend that failed.
        backend: String,
    },
    /// The worker executing the batch panicked (contained, never escapes).
    WorkerPanic {
        /// The backend whose worker died.
        backend: String,
    },
    /// The request's bucket queue was poisoned while it waited.
    QueuePoisoned {
        /// The poisoned length bucket.
        bucket: usize,
    },
    /// The retry budget ran out.
    RetriesExhausted {
        /// Total attempts made (counting the first).
        attempts: u32,
        /// Description of the last failure.
        last: String,
    },
    /// The service shut down before the request reached a backend.
    Cancelled,
    /// The shard holding the request died (cluster deployments) and the
    /// reroute budget was exhausted or no other shard could take it.
    ShardLost {
        /// The shard that was lost.
        shard: usize,
    },
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::Transient { backend } => write!(f, "transient error on {backend}"),
            FoldError::WorkerPanic { backend } => write!(f, "worker panic on {backend}"),
            FoldError::QueuePoisoned { bucket } => write!(f, "bucket {bucket} queue poisoned"),
            FoldError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "retries exhausted after {attempts} attempts (last: {last})"
                )
            }
            FoldError::Cancelled => f.write_str("cancelled at shutdown"),
            FoldError::ShardLost { shard } => write!(f, "shard {shard} lost"),
        }
    }
}

impl std::error::Error for FoldError {}

/// Terminal outcome of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum FoldOutcome {
    /// The fold ran to completion.
    Completed {
        /// Backend that executed the batch.
        backend: String,
        /// Virtual dispatch time, seconds.
        started_seconds: f64,
        /// Virtual completion time, seconds.
        finished_seconds: f64,
        /// Number of requests co-batched with this one (including it).
        batch_size: usize,
        /// Activation precision the batch ran at. [`ActPrecision::Fp32`]
        /// is the backend's native regime; a degraded rung means memory
        /// pressure forced the route down the AAQ ladder instead of
        /// rejecting the request.
        precision: ActPrecision,
    },
    /// Admission control refused the request.
    Rejected(RejectReason),
    /// The request waited past its deadline without being dispatched.
    TimedOut {
        /// How long it waited before expiring, seconds.
        waited_seconds: f64,
    },
    /// The request failed with a typed error after admission (transient
    /// errors past the retry budget, contained worker panics, queue
    /// poison, shutdown cancellation).
    Failed(FoldError),
}

impl FoldOutcome {
    /// Whether the fold completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, FoldOutcome::Completed { .. })
    }

    /// Whether the fold completed at a degraded activation precision.
    pub fn is_degraded(&self) -> bool {
        matches!(
            self,
            FoldOutcome::Completed { precision, .. } if precision.is_degraded()
        )
    }
}

/// The response delivered for every admitted or refused request.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldResponse {
    /// Id of the originating request.
    pub id: u64,
    /// Target name echoed back.
    pub name: String,
    /// Sequence length echoed back.
    pub length: usize,
    /// What happened.
    pub outcome: FoldOutcome,
}

impl FoldResponse {
    /// The response that answers `request` with `outcome`.
    pub(crate) fn to(request: FoldRequest, outcome: FoldOutcome) -> Self {
        FoldResponse {
            id: request.id,
            name: request.name,
            length: request.length,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_completion_is_completed() {
        let done = FoldOutcome::Completed {
            backend: "ln".into(),
            started_seconds: 1.0,
            finished_seconds: 3.5,
            batch_size: 4,
            precision: ActPrecision::Fp32,
        };
        assert!(done.is_completed());
        assert!(!done.is_degraded());
        assert!(!FoldOutcome::Rejected(RejectReason::QueueFull).is_completed());
        assert!(!FoldOutcome::TimedOut {
            waited_seconds: 9.0
        }
        .is_completed());
        assert!(!FoldOutcome::Failed(FoldError::Cancelled).is_completed());
    }

    #[test]
    fn degraded_completion_is_flagged() {
        let degraded = FoldOutcome::Completed {
            backend: "ln".into(),
            started_seconds: 0.0,
            finished_seconds: 1.0,
            batch_size: 1,
            precision: ActPrecision::Int4,
        };
        assert!(degraded.is_completed());
        assert!(degraded.is_degraded());
    }

    #[test]
    fn deadline_is_arrival_plus_timeout() {
        let r = FoldRequest {
            id: 1,
            name: "x".into(),
            length: 100,
            arrival_seconds: 2.0,
            timeout_seconds: 30.0,
        };
        assert_eq!(r.deadline(), 32.0);
    }

    #[test]
    fn fold_errors_display_their_context() {
        assert_eq!(
            FoldError::Transient {
                backend: "A100".into()
            }
            .to_string(),
            "transient error on A100"
        );
        assert!(FoldError::WorkerPanic {
            backend: "H100".into()
        }
        .to_string()
        .contains("panic"));
        assert!(FoldError::QueuePoisoned { bucket: 2 }
            .to_string()
            .contains("2"));
        let e = FoldError::RetriesExhausted {
            attempts: 3,
            last: "transient error on A100".into(),
        };
        assert!(e.to_string().contains("3 attempts"));
        assert!(e.to_string().contains("A100"));
        assert_eq!(
            FoldError::ShardLost { shard: 4 }.to_string(),
            "shard 4 lost"
        );
    }
}
