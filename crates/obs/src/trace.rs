//! Structured span tracing with bounded ring buffers.
//!
//! A [`Tracer`] owns a [`Clock`] and a bounded `VecDeque` of
//! [`TraceEvent`]s; recording is O(1) per event and overflow evicts the
//! oldest event while counting drops. Spans are RAII: [`Tracer::span`]
//! returns a [`SpanGuard`] that records a single `Complete` event (begin
//! timestamp + duration) when dropped, which keeps the buffer half the size
//! of paired begin/end events and makes traces trivially well-nested.
//!
//! The global [`tracer()`] runs on wall time and obeys the `LN_OBS` level;
//! the deterministic engine builds its own [`Tracer::forced`] over a
//! [`VirtualClock`](crate::VirtualClock) so its traces record regardless of
//! the environment and are bitwise-reproducible.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::clock::{Clock, WallClock};
use crate::registry::Counter;
use crate::{level, ObsLevel};

/// Default capacity of the global tracer's ring buffer.
const DEFAULT_RING_CAPACITY: usize = 65_536;

/// A typed span/event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer argument.
    U64(u64),
    /// A floating-point argument.
    F64(f64),
    /// A string argument.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// The Chrome `trace_event` phase of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TracePhase {
    /// Span start (`ph: "B"`).
    Begin,
    /// Span end (`ph: "E"`).
    End,
    /// A whole span in one event (`ph: "X"`), with its duration.
    Complete {
        /// Span duration in nanoseconds.
        dur_nanos: u64,
    },
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span or marker name).
    pub name: String,
    /// Category, e.g. `"queue"`, `"kernel"`, `"degradation"`.
    pub cat: &'static str,
    /// What kind of event this is.
    pub phase: TracePhase,
    /// Timestamp in nanoseconds on the tracer's clock.
    pub ts_nanos: u64,
    /// Track (rendered as a thread lane in `chrome://tracing`).
    pub track: u32,
    /// Typed key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
}

/// Records [`TraceEvent`]s against a pluggable clock into a bounded ring.
pub struct Tracer {
    clock: Arc<dyn Clock>,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
    forced: bool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("forced", &self.forced)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer that records only when the level is [`ObsLevel::Trace`].
    pub fn new(clock: Arc<dyn Clock>, capacity: usize) -> Self {
        Self {
            clock,
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            dropped: AtomicU64::new(0),
            forced: false,
        }
    }

    /// A tracer that records regardless of the `LN_OBS` level — used by the
    /// deterministic engine so golden traces don't depend on the
    /// environment.
    pub fn forced(clock: Arc<dyn Clock>, capacity: usize) -> Self {
        Self {
            forced: true,
            ..Self::new(clock, capacity)
        }
    }

    /// Whether this tracer records events right now.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.forced || level() == ObsLevel::Trace
    }

    /// The tracer's current time in nanoseconds.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, event: TraceEvent) {
        let mut ring = self.lock();
        if ring.events.len() >= ring.capacity {
            ring.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            // Mirror the drop into the registry so truncation is visible
            // in every metrics dump, not just to whoever holds the tracer.
            // (Gated like any counter: at LN_OBS=off only the tracer's own
            // `dropped()` count advances.)
            trace_dropped_total().inc();
        }
        ring.events.push_back(event);
    }

    /// Records a point-in-time marker.
    #[inline]
    pub fn instant(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        track: u32,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled() {
            return;
        }
        self.push(TraceEvent {
            name: name.into(),
            cat,
            phase: TracePhase::Instant,
            ts_nanos: self.clock.now_nanos(),
            track,
            args,
        });
    }

    /// Records a whole span with explicit timestamps (the deterministic
    /// engine computes begin/duration from its schedule rather than from
    /// the clock).
    #[inline]
    pub fn complete(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        track: u32,
        ts_nanos: u64,
        dur_nanos: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled() {
            return;
        }
        self.push(TraceEvent {
            name: name.into(),
            cat,
            phase: TracePhase::Complete { dur_nanos },
            ts_nanos,
            track,
            args,
        });
    }

    /// Starts an RAII span; the returned guard records one `Complete` event
    /// on drop. Inert (records nothing) when the tracer is disabled.
    #[inline]
    pub fn span(&self, name: impl Into<String>, cat: &'static str, track: u32) -> SpanGuard<'_> {
        self.span_with(name, cat, track, Vec::new())
    }

    /// Like [`Tracer::span`] with key/value arguments attached.
    #[inline]
    pub fn span_with(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        track: u32,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { inner: None };
        }
        SpanGuard {
            inner: Some(SpanInner {
                tracer: self,
                name: name.into(),
                cat,
                track,
                begin_nanos: self.clock.now_nanos(),
                args,
            }),
        }
    }

    /// Drains and returns all buffered events in record order.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.lock().events.drain(..).collect()
    }

    /// Copies the buffered events without draining them.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// How many events the ring evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct SpanInner<'a> {
    tracer: &'a Tracer,
    name: String,
    cat: &'static str,
    track: u32,
    begin_nanos: u64,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII guard returned by [`Tracer::span`]; records a `Complete` event with
/// the measured duration when dropped.
#[must_use = "the span is recorded when this guard drops"]
pub struct SpanGuard<'a> {
    inner: Option<SpanInner<'a>>,
}

impl SpanGuard<'_> {
    /// Attaches an argument after creation (e.g. a result computed inside
    /// the span). No-op on an inert guard.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let end = inner.tracer.clock.now_nanos();
            inner.tracer.push(TraceEvent {
                name: inner.name,
                cat: inner.cat,
                phase: TracePhase::Complete {
                    dur_nanos: end.saturating_sub(inner.begin_nanos),
                },
                ts_nanos: inner.begin_nanos,
                track: inner.track,
                args: inner.args,
            });
        }
    }
}

/// The process-wide wall-clock tracer the [`span!`](crate::span) macro
/// records into. Obeys the `LN_OBS` level.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer::new(Arc::new(WallClock::new()), DEFAULT_RING_CAPACITY))
}

/// The global `obs_trace_dropped_total` counter: every ring-buffer
/// eviction by *any* tracer in the process increments it, so a metrics
/// dump (or `report::obs_tables()`) shows at a glance whether some trace
/// was truncated. Calling this registers the counter, so reports can
/// force the row to exist even before the first drop.
pub fn trace_dropped_total() -> Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER
        .get_or_init(|| crate::registry().counter("obs_trace_dropped_total"))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::{set_level, ObsLevel};

    fn forced_virtual() -> (Arc<VirtualClock>, Tracer) {
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::forced(clock.clone() as Arc<dyn Clock>, 16);
        (clock, tracer)
    }

    #[test]
    fn span_guard_records_complete_event() {
        let (clock, tracer) = forced_virtual();
        clock.set_seconds(100e-9);
        {
            let mut guard = tracer.span("fold", "kernel", 3);
            guard.arg("rows", 8u64);
            clock.set_seconds(250e-9);
        }
        let events = tracer.drain();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.name, "fold");
        assert_eq!(e.cat, "kernel");
        assert_eq!(e.track, 3);
        assert_eq!(e.ts_nanos, 100);
        assert_eq!(e.phase, TracePhase::Complete { dur_nanos: 150 });
        assert_eq!(e.args, vec![("rows", ArgValue::U64(8))]);
    }

    #[test]
    fn ring_buffer_is_bounded_and_counts_drops() {
        // Its evictions bump the process-wide drop counter, which
        // `ring_drops_mirror_into_the_registry_counter` reads.
        let _guard = crate::pin_level(ObsLevel::Counters);
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::forced(clock as Arc<dyn Clock>, 4);
        for i in 0..10u64 {
            tracer.instant(format!("e{i}"), "test", 0, Vec::new());
        }
        assert_eq!(tracer.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        let events = tracer.events();
        assert_eq!(events[0].name, "e6");
        assert_eq!(events[3].name, "e9");
        assert_eq!(tracer.len(), 4, "events() must not drain");
        assert_eq!(tracer.drain().len(), 4);
        assert!(tracer.is_empty());
    }

    #[test]
    fn ring_drops_mirror_into_the_registry_counter() {
        let _guard = crate::pin_level(ObsLevel::Counters);
        let before = trace_dropped_total().get();
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::forced(clock as Arc<dyn Clock>, 2);
        for i in 0..5u64 {
            tracer.instant(format!("e{i}"), "test", 0, Vec::new());
        }
        assert_eq!(tracer.dropped(), 3);
        assert_eq!(
            trace_dropped_total().get() - before,
            3,
            "registry counter must track ring evictions"
        );
    }

    #[test]
    fn unforced_tracer_obeys_level() {
        let _guard = crate::pin_level(ObsLevel::Counters);
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(clock as Arc<dyn Clock>, 16);
        assert!(!tracer.enabled());
        tracer.instant("dropped", "test", 0, Vec::new());
        drop(tracer.span("dropped_span", "test", 0));
        assert!(tracer.is_empty());

        set_level(ObsLevel::Trace);
        assert!(tracer.enabled());
        tracer.instant("kept", "test", 0, Vec::new());
        assert_eq!(tracer.len(), 1);
    }

    #[test]
    fn forced_tracer_ignores_level() {
        let _guard = crate::pin_level(ObsLevel::Off);
        let (_clock, tracer) = forced_virtual();
        assert!(tracer.enabled());
        tracer.instant("kept", "test", 0, Vec::new());
        assert_eq!(tracer.len(), 1);
    }

    #[test]
    fn span_macro_forms_compile_and_record() {
        let _guard = crate::pin_level(ObsLevel::Trace);
        let before = tracer().len();
        let seq_len = 64usize;
        {
            let _a = crate::span!("plain");
            let _b = crate::span!("ident", seq_len);
            let _c = crate::span!("kv", rows = seq_len * 2, label = "tri_mul");
        }
        let events = tracer().events();
        assert!(events.len() >= before + 3);
        let kv = events.iter().rev().find(|e| e.name == "kv").unwrap();
        assert_eq!(kv.args[0], ("rows", ArgValue::U64(128)));
        assert_eq!(kv.args[1], ("label", ArgValue::Str("tri_mul".into())));
        let ident = events.iter().rev().find(|e| e.name == "ident").unwrap();
        assert_eq!(ident.args[0], ("seq_len", ArgValue::U64(64)));
    }
}
