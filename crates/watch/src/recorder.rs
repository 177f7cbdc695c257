//! The fault flight recorder: an always-on bounded event ring that, when
//! something goes wrong, snapshots "what the system was doing right then"
//! into a deterministic JSONL black box.
//!
//! The ring is separate from the [`ln_obs::Tracer`] export ring and is not
//! gated on the `LN_OBS` level — it records unconditionally at O(1) per
//! event with deterministic oldest-first eviction, so a black box is
//! available even in an `LN_OBS=off` production configuration. Snapshots
//! serialize the last [`FlightRecorder::window_seconds`] of events (via
//! [`ln_obs::jsonl_events`]) plus a full registry snapshot (via
//! [`ln_obs::metrics_jsonl`]); both exporters are byte-deterministic, so a
//! black box from a virtual-time run is identical across hosts and
//! `ln-par` pool sizes.

use ln_obs::{seconds_to_nanos, Registry, TraceEvent};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// The bounded always-on event ring.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    window_seconds: f64,
    evicted: u64,
}

impl FlightRecorder {
    /// A ring holding at most `capacity` events, snapshotting the last
    /// `window_seconds` of virtual time.
    pub fn new(capacity: usize, window_seconds: f64) -> Self {
        assert!(capacity > 0, "flight recorder needs a non-zero ring");
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            window_seconds,
            evicted: 0,
        }
    }

    /// Appends one event, evicting the oldest when full. O(1).
    pub fn record(&mut self, event: TraceEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(event);
    }

    /// Events evicted since construction (mirrored into
    /// `watch_recorder_dropped_total` by the owning [`crate::Watch`]).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The snapshot window, virtual seconds.
    pub fn window_seconds(&self) -> f64 {
        self.window_seconds
    }

    /// Serializes a black box: one header line, then the in-window events
    /// as JSONL, then every metric of `registry` as JSONL.
    ///
    /// `seq` distinguishes multiple black boxes from one run; `trigger`
    /// names what fired (`"slo_breach:deadline@shard:1"`,
    /// `"breaker_open"`, `"shard_loss"`, `"partition_window"`, ...).
    pub fn snapshot(
        &self,
        trigger: &str,
        seq: u64,
        now_seconds: f64,
        registry: &Registry,
    ) -> String {
        let now_nanos = seconds_to_nanos(now_seconds);
        let cutoff = now_nanos.saturating_sub(seconds_to_nanos(self.window_seconds));
        let window: Vec<TraceEvent> = self
            .ring
            .iter()
            .filter(|e| e.ts_nanos >= cutoff)
            .cloned()
            .collect();
        let mut out = String::with_capacity(256 + window.len() * 96);
        out.push_str("{\"blackbox\":\"ln-watch\",\"seq\":");
        let _ = write!(out, "{seq}");
        out.push_str(",\"trigger\":\"");
        ln_obs::export::escape_json(trigger, &mut out);
        let _ = writeln!(
            out,
            "\",\"ts_ns\":{now_nanos},\"window_ns\":{},\"events\":{},\"evicted_total\":{}}}",
            seconds_to_nanos(self.window_seconds),
            window.len(),
            self.evicted,
        );
        out.push_str(&ln_obs::jsonl_events(&window));
        out.push_str(&ln_obs::metrics_jsonl(&registry.snapshot()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_obs::{ArgValue, TracePhase};

    fn ev(name: &str, ts_nanos: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "test",
            phase: TracePhase::Instant,
            ts_nanos,
            track: 0,
            args: vec![("id", ArgValue::U64(ts_nanos))],
        }
    }

    #[test]
    fn ring_evicts_oldest_deterministically() {
        let mut rec = FlightRecorder::new(3, 60.0);
        for i in 0..5u64 {
            rec.record(ev("e", i));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.evicted(), 2);
        let reg = Registry::new();
        let snap = rec.snapshot("test", 0, 0.0, &reg);
        assert!(!snap.contains("\"id\":0"), "oldest two were evicted");
        assert!(!snap.contains("\"id\":1"));
        assert!(snap.contains("\"id\":4"));
    }

    #[test]
    fn snapshot_is_header_then_events_then_metrics() {
        let _guard = ln_obs::pin_level(ln_obs::ObsLevel::Counters);
        let mut rec = FlightRecorder::new(16, 10.0);
        // 5 s and 15 s before "now" at 20 s: only the first is in window.
        rec.record(ev("old", seconds_to_nanos(5.0)));
        rec.record(ev("fresh", seconds_to_nanos(15.0)));
        let reg = Registry::new();
        reg.counter("c_total").add(2);
        let snap = rec.snapshot("slo_breach:\"x\"", 7, 20.0, &reg);
        let lines: Vec<&str> = snap.lines().collect();
        assert_eq!(lines.len(), 3, "header + 1 event + 1 metric:\n{snap}");
        assert!(lines[0].starts_with("{\"blackbox\":\"ln-watch\",\"seq\":7,"));
        assert!(lines[0].contains("\"trigger\":\"slo_breach:\\\"x\\\"\""));
        assert!(lines[0].contains("\"events\":1"));
        assert!(lines[1].contains("\"name\":\"fresh\""));
        assert_eq!(
            lines[2],
            "{\"metric\":\"c_total\",\"kind\":\"counter\",\"value\":2}"
        );
    }
}
