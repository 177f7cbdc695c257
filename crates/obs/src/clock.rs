//! Pluggable time sources for tracing.
//!
//! A [`Tracer`](crate::Tracer) stamps events through a [`Clock`]. The
//! threaded `FoldService` uses [`WallClock`]; the deterministic engine uses
//! [`VirtualClock`] driven by its own simulated schedule, so a seeded chaos
//! run produces byte-identical traces on any machine at any pool size.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond time source.
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's epoch.
    fn now_nanos(&self) -> u64;
}

/// Wall time, measured from the moment the clock was created.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of process uptime.
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Converts simulated seconds to whole nanoseconds, rounding half-up.
///
/// All virtual timestamps funnel through this one rounding rule so the
/// engine's trace is reproducible regardless of how the schedule computed
/// the floating-point seconds.
pub fn seconds_to_nanos(seconds: f64) -> u64 {
    if seconds <= 0.0 {
        0
    } else {
        (seconds * 1e9).round() as u64
    }
}

/// Simulated time, advanced explicitly by the owner.
///
/// The deterministic engine calls [`VirtualClock::set_seconds`] as its event
/// loop advances, so every event the attached tracer records is stamped with
/// schedule-derived time rather than wall time.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock to an absolute simulated time in seconds.
    pub fn set_seconds(&self, seconds: f64) {
        self.nanos
            .store(seconds_to_nanos(seconds), Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_follows_set_calls() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_nanos(), 0);
        clock.set_seconds(1.5);
        assert_eq!(clock.now_nanos(), 1_500_000_000);
        clock.set_seconds(42e-9);
        assert_eq!(clock.now_nanos(), 42);
    }

    #[test]
    fn seconds_to_nanos_rounds_and_clamps() {
        assert_eq!(seconds_to_nanos(0.0), 0);
        assert_eq!(seconds_to_nanos(-1.0), 0);
        assert_eq!(seconds_to_nanos(1e-9), 1);
        assert_eq!(seconds_to_nanos(0.25), 250_000_000);
        // Half-up rounding at the nanosecond boundary.
        assert_eq!(seconds_to_nanos(1.5e-9), 2);
    }
}
