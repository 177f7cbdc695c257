//! # ln-obs
//!
//! The unified observability layer of the LightNobel reproduction: one
//! process-wide metrics registry plus structured span tracing, shared by
//! the serving layer (`ln-serve`), the data-parallel runtime (`ln-par`),
//! the accelerator model (`ln-accel`) and the AAQ quantization hook — so a
//! single report can answer "where did this fold's time and precision go?"
//! the way the paper's evaluation breaks latency down per stage and
//! quantization error down per activation group (§7, Figs. 11–14).
//!
//! The moving parts:
//!
//! * [`registry`](mod@registry) — named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s behind lock-free atomics on the hot path,
//!   with a `BTreeMap` [`Registry::snapshot`] API for rendering and export.
//! * [`clock`] — the pluggable [`Clock`]: [`WallClock`] for the threaded
//!   `FoldService`, [`VirtualClock`] for the deterministic engine, so
//!   traces of seeded chaos runs are bitwise-reproducible.
//! * [`trace`] — [`Tracer`] ring buffers of [`TraceEvent`]s (bounded, O(1)
//!   per event) and RAII span guards; the [`span!`] macro records a
//!   `span!("tri_mul", seq_len)`-style guard against the global tracer.
//! * [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing`), a Prometheus-style text dump, and a JSONL event
//!   stream.
//!
//! # Cost gating
//!
//! The `LN_OBS` environment variable selects the level once per process
//! (overridable programmatically with [`set_level`]):
//!
//! | `LN_OBS` | effect |
//! |---|---|
//! | `off` | every hook is a relaxed atomic load + branch: no allocation, no locking |
//! | `counters` *(default)* | counters/gauges/histograms record; spans are dropped |
//! | `trace` | everything records, including span events into ring buffers |
//!
//! Tracers created with [`Tracer::forced`] record regardless of the level —
//! that is how the deterministic engine captures a golden trace without
//! depending on the environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod registry;
pub mod trace;

pub use clock::{seconds_to_nanos, Clock, VirtualClock, WallClock};
pub use export::{chrome_trace_json, fmt_f64, jsonl_events, metrics_jsonl, prometheus_text};
pub use registry::{
    labeled, registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry,
};
pub use trace::{trace_dropped_total, tracer, ArgValue, SpanGuard, TraceEvent, TracePhase, Tracer};

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the observability layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsLevel {
    /// Nothing records; every hook is an atomic load + branch.
    Off = 0,
    /// Counters, gauges and histograms record; span events are dropped.
    Counters = 1,
    /// Everything records, including span events into tracer ring buffers.
    Trace = 2,
}

const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn parse_level(value: &str) -> ObsLevel {
    match value.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "none" => ObsLevel::Off,
        "trace" | "2" | "all" => ObsLevel::Trace,
        // Unknown values (and the explicit "counters"/"1") get the default.
        _ => ObsLevel::Counters,
    }
}

/// The active observability level: the last [`set_level`] call, else the
/// `LN_OBS` environment variable parsed once, else [`ObsLevel::Counters`].
#[inline]
pub fn level() -> ObsLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => ObsLevel::Off,
        1 => ObsLevel::Counters,
        2 => ObsLevel::Trace,
        _ => init_level(),
    }
}

#[cold]
fn init_level() -> ObsLevel {
    let parsed = std::env::var("LN_OBS")
        .map(|v| parse_level(&v))
        .unwrap_or(ObsLevel::Counters);
    // Racing initializers agree on the env value; an interleaved
    // `set_level` wins either way, which is the documented contract.
    let _ = LEVEL.compare_exchange(
        LEVEL_UNSET,
        parsed as u8,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    level()
}

/// Overrides the observability level for the whole process (benches flip
/// between `Off` phases and recording phases; tests pin a level).
pub fn set_level(level: ObsLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether counters/gauges/histograms record at the current level.
#[inline]
pub(crate) fn counting() -> bool {
    level() >= ObsLevel::Counters
}

/// Records an RAII span against the global [`tracer`].
///
/// Forms:
///
/// ```
/// # let seq_len = 128usize;
/// let _g = ln_obs::span!("tri_mul");
/// let _g = ln_obs::span!("tri_mul", seq_len); // bare ident: name + value
/// let _g = ln_obs::span!("tri_mul", rows = seq_len * 2);
/// ```
///
/// At any level below [`ObsLevel::Trace`] the guard is inert: no event is
/// recorded and the argument expressions are still evaluated exactly once.
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::tracer().span($name, "span", 0)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::tracer().span_with(
            $name,
            "span",
            0,
            vec![$((stringify!($key), $crate::ArgValue::from($val))),+],
        )
    };
    ($name:expr, $($key:ident),+ $(,)?) => {
        $crate::tracer().span_with(
            $name,
            "span",
            0,
            vec![$((stringify!($key), $crate::ArgValue::from($key))),+],
        )
    };
}

/// Test support: sets the level and holds it until dropped, then restores
/// the level it found. The level is process-global and the test harness
/// runs tests on parallel threads, so every guard holds one process-wide
/// lock for its lifetime: a test that sets the level through a guard never
/// races another that does.
#[doc(hidden)]
#[must_use = "the level is restored when the guard drops"]
pub struct LevelGuard {
    prev: ObsLevel,
    _lock: std::sync::MutexGuard<'static, ()>,
}

/// Test support: see [`LevelGuard`].
#[doc(hidden)]
pub fn pin_level(level: ObsLevel) -> LevelGuard {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let lock = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let prev = self::level();
    set_level(level);
    LevelGuard { prev, _lock: lock }
}

impl Drop for LevelGuard {
    fn drop(&mut self) {
        set_level(self.prev);
    }
}

/// The nearest-rank `p`-percentile (`p` a fraction, 0.0–1.0) of samples
/// sorted ascending: the `⌈p · n⌉`-th smallest of the `n` (the smallest
/// for `p = 0`), `None` when there are none. Every latency percentile the
/// workspace reports — serving, cluster, critical-path phases — is this
/// one rule.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=10).collect();
        assert_eq!(
            percentile(&sorted, 0.5),
            Some(5),
            "the 5th of 10, not the 6th"
        );
        assert_eq!(percentile(&sorted, 0.99), Some(10));
        assert_eq!(percentile(&sorted, 1.0), Some(10));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&[42], 0.5), Some(42));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.99), Some(4.0));
        assert_eq!(percentile::<u64>(&[], 0.99), None);
        // ⌈0.99 · n⌉ where 0.99 · n is a whole number: the f64 product
        // never lands above it.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(99));
    }

    #[test]
    fn level_parsing_covers_aliases_and_defaults() {
        assert_eq!(parse_level("off"), ObsLevel::Off);
        assert_eq!(parse_level(" OFF "), ObsLevel::Off);
        assert_eq!(parse_level("0"), ObsLevel::Off);
        assert_eq!(parse_level("trace"), ObsLevel::Trace);
        assert_eq!(parse_level("all"), ObsLevel::Trace);
        assert_eq!(parse_level("counters"), ObsLevel::Counters);
        assert_eq!(parse_level("garbage"), ObsLevel::Counters);
    }

    #[test]
    fn set_level_round_trips() {
        let _guard = pin_level(ObsLevel::Off);
        assert_eq!(level(), ObsLevel::Off);
        set_level(ObsLevel::Trace);
        assert_eq!(level(), ObsLevel::Trace);
        assert!(counting());
        set_level(ObsLevel::Off);
        assert!(!counting());
    }

    #[test]
    fn levels_are_ordered() {
        assert!(ObsLevel::Off < ObsLevel::Counters);
        assert!(ObsLevel::Counters < ObsLevel::Trace);
    }
}
