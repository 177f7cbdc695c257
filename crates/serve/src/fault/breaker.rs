//! Per-backend circuit breaker: closed → open → half-open probe.
//!
//! The breaker never reads a clock of its own — every decision point takes
//! `now` (seconds, virtual or wall) from the caller, so the same state
//! machine runs under the virtual-time engine and the threaded service.
//!
//! ```text
//!             FAILURE_THRESHOLD consecutive failures
//!   Closed ───────────────────────────────────────────▶ Open
//!     ▲ ▲                                                │
//!     │ └── probe success ── HalfOpen ◀── cooldown ──────┘
//!     │                        │
//!     └──────────── probe failure ─▶ Open (cooldown restarts)
//! ```

/// Consecutive failures that trip the breaker open.
const FAILURE_THRESHOLD: u32 = 3;
/// Seconds to stay open before admitting a half-open probe.
const COOLDOWN_SECONDS: f64 = 5.0;

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Healthy: dispatches flow freely.
    Closed,
    /// Tripped: all dispatches are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe dispatch is admitted; its
    /// outcome decides between `Closed` and `Open`.
    HalfOpen,
}

/// A state transition, surfaced so schedulers can count them in stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerEvent {
    /// Closed/HalfOpen → Open.
    Opened,
    /// Open → HalfOpen (cooldown elapsed).
    HalfOpened,
    /// HalfOpen → Closed (probe succeeded).
    Closed,
}

/// One backend's breaker.
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// When the open cooldown elapses (`Open` only).
    reopen_at: f64,
    /// Whether the single half-open probe slot is taken.
    probe_in_flight: bool,
}

impl CircuitBreaker {
    /// A fresh, closed breaker.
    pub(crate) fn new() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            reopen_at: 0.0,
            probe_in_flight: false,
        }
    }

    /// Current state (after the last `poll`).
    #[cfg(test)]
    fn state(&self) -> BreakerState {
        self.state
    }

    /// Advances time-driven transitions: an open breaker whose cooldown has
    /// elapsed becomes half-open. Returns the transition if one fired.
    pub(crate) fn poll(&mut self, now: f64) -> Option<BreakerEvent> {
        if self.state == BreakerState::Open && now >= self.reopen_at {
            self.state = BreakerState::HalfOpen;
            self.probe_in_flight = false;
            return Some(BreakerEvent::HalfOpened);
        }
        None
    }

    /// Whether a dispatch may be routed to this backend right now. Call
    /// `poll(now)` first; in `HalfOpen` only one probe is admitted at a
    /// time.
    pub(crate) fn can_dispatch(&self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => !self.probe_in_flight,
        }
    }

    /// Records that a dispatch was routed here (claims the probe slot when
    /// half-open).
    pub(crate) fn on_dispatch(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probe_in_flight = true;
        }
    }

    /// Records a successful batch. A half-open probe success closes the
    /// breaker.
    pub(crate) fn on_success(&mut self) -> Option<BreakerEvent> {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.probe_in_flight = false;
            return Some(BreakerEvent::Closed);
        }
        None
    }

    /// Records a failed batch at `now`. Trips the breaker when the
    /// threshold is reached, or re-opens it on a failed probe.
    pub(crate) fn on_failure(&mut self, now: f64) -> Option<BreakerEvent> {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::Closed => {
                if self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.state = BreakerState::Open;
                    self.reopen_at = now + COOLDOWN_SECONDS;
                    Some(BreakerEvent::Opened)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.reopen_at = now + COOLDOWN_SECONDS;
                self.probe_in_flight = false;
                Some(BreakerEvent::Opened)
            }
            BreakerState::Open => None,
        }
    }

    /// The next time-driven transition (the half-open instant), if any — a
    /// wake point for event loops.
    pub(crate) fn next_transition_seconds(&self) -> Option<f64> {
        (self.state == BreakerState::Open).then_some(self.reopen_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new();
        assert_eq!(b.on_failure(0.0), None);
        assert_eq!(b.on_failure(1.0), None);
        assert_eq!(b.on_failure(2.0), Some(BreakerEvent::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.can_dispatch());
        assert_eq!(b.next_transition_seconds(), Some(7.0));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new();
        b.on_failure(0.0);
        b.on_failure(0.0);
        assert_eq!(b.on_success(), None);
        assert_eq!(b.on_failure(1.0), None, "streak restarted");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_success_closes() {
        let mut b = CircuitBreaker::new();
        for t in 0..3 {
            b.on_failure(t as f64);
        }
        assert_eq!(b.poll(6.0), None, "cooldown not elapsed");
        assert_eq!(b.poll(7.0), Some(BreakerEvent::HalfOpened));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.can_dispatch());
        b.on_dispatch();
        assert!(!b.can_dispatch(), "only one probe at a time");
        assert_eq!(b.on_success(), Some(BreakerEvent::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.can_dispatch());
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = CircuitBreaker::new();
        for t in 0..3 {
            b.on_failure(t as f64);
        }
        b.poll(10.0);
        b.on_dispatch();
        assert_eq!(b.on_failure(10.5), Some(BreakerEvent::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.next_transition_seconds(), Some(15.5));
        assert_eq!(b.poll(15.5), Some(BreakerEvent::HalfOpened));
    }

    #[test]
    fn open_breaker_ignores_further_failures() {
        let mut b = CircuitBreaker::new();
        for t in 0..3 {
            b.on_failure(t as f64);
        }
        assert_eq!(b.on_failure(3.0), None);
        assert_eq!(
            b.next_transition_seconds(),
            Some(7.0),
            "cooldown not extended"
        );
    }
}
