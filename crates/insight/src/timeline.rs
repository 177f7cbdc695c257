//! Critical-path attribution over the serve engine's trace vocabulary.
//!
//! The deterministic engine (ln-serve) emits a fixed event vocabulary:
//! `enqueue`/`reject` instants and `queue_wait` spans on bucket tracks,
//! `dispatch`/`degrade`/`fold_batch`/fault/breaker events on backend
//! tracks (track ≥ 100), and `retry`/`fail`/`timeout`
//! instants back on the bucket tracks. [`CriticalPath::analyze`] replays
//! that stream once, chronologically, and charges every nanosecond of
//! each request's life to exactly one phase:
//!
//! | phase | meaning |
//! |---|---|
//! | `queue` | waiting in a bucket queue for capacity |
//! | `shard_hop` | in transit between a cluster router and a shard |
//! | `service` | inside a successful `fold_batch` span (incl. stalls) |
//! | `fault_burn` | backend time burned by an attempt that then failed |
//! | `backoff` | retry backoff imposed after a backend fault |
//!
//! Cluster traces (ln-cluster) extend the vocabulary: `arrive` instants
//! and `shard_hop` spans on router tracks, `cancel`/`steal` instants for
//! hedged-dispatch losers and stolen work, `shard_loss` fault instants
//! for batches that died with their shard, and shard-level `reject`
//! instants that terminate an already-arrived attempt. Every attempt id
//! still reaches exactly one terminal.
//!
//! The association between a `fold_batch` span and the requests inside it
//! uses the engine's ring ordering: each launch pushes the batch's
//! `queue_wait` spans (carrying request ids) immediately before the
//! `dispatch` instant that names the batch size, so the analyzer drains
//! exactly `batch_size` pending ids per dispatch and keeps them keyed by
//! backend track until the batch settles. Any structural mismatch —
//! unknown ids, leftover batches, requests with no terminal event — is
//! reported in [`CriticalPath::unattributed`] rather than silently
//! guessed, and a non-zero ring-drop count marks the whole analysis
//! [`CriticalPath::truncated`]: a truncated trace must not masquerade as
//! a complete one.

use std::collections::BTreeMap;

use ln_obs::{ArgValue, TraceEvent, TracePhase};

use crate::fmt_nanos;

/// How a request's life ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Folded successfully (`fold_batch` settled).
    Completed,
    /// Failed terminally (`fail` instant — retries exhausted).
    Failed,
    /// Expired in queue (`timeout` instant).
    TimedOut,
    /// Removed before dispatch (`cancel`/`steal` instant): a hedged
    /// attempt whose twin won, a stolen attempt re-placed elsewhere, or a
    /// shard-loss eviction. The logical request lives on under another
    /// attempt id.
    Cancelled,
    /// Refused by a shard after routing (`reject` instant naming an
    /// already-arrived attempt).
    Rejected,
}

/// Requests per terminal kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TerminalCounts {
    /// Folded successfully.
    pub completed: usize,
    /// Failed terminally.
    pub failed: usize,
    /// Expired in queue.
    pub timed_out: usize,
    /// Cancelled or stolen before dispatch.
    pub cancelled: usize,
    /// Rejected by a shard after routing.
    pub rejected: usize,
}

/// Which phase dominates a request's attributed time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blame {
    /// Queue wait dominates.
    Queue,
    /// Successful backend service dominates.
    Compute,
    /// Retry machinery (burned attempts + backoff) dominates.
    Retry,
}

/// One request's fully attributed timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestPath {
    /// Request id (from the workload).
    pub id: u64,
    /// Sequence length, from the `enqueue` args.
    pub seq_len: u64,
    /// `enqueue` (or cluster `arrive`) timestamp, nanoseconds of virtual
    /// time.
    pub enqueue_nanos: u64,
    /// Timestamp of the terminal event.
    pub end_nanos: u64,
    /// Nanoseconds waiting in bucket queues.
    pub queue_nanos: u64,
    /// Nanoseconds in transit between the cluster router and a shard.
    pub shard_hop_nanos: u64,
    /// Nanoseconds of successful backend service.
    pub service_nanos: u64,
    /// Nanoseconds burned by attempts that later faulted.
    pub fault_burn_nanos: u64,
    /// Nanoseconds of imposed retry backoff.
    pub backoff_nanos: u64,
    /// Retry instants observed for this request.
    pub retries: u32,
    /// How the request ended.
    pub terminal: Terminal,
    /// Precision of the successful dispatch, if completed.
    pub precision: Option<String>,
}

impl RequestPath {
    /// End-to-end latency: terminal minus enqueue.
    pub fn total_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.enqueue_nanos)
    }

    /// Sum of the five attributed phases.
    pub fn attributed_nanos(&self) -> u64 {
        self.queue_nanos
            + self.shard_hop_nanos
            + self.service_nanos
            + self.fault_burn_nanos
            + self.backoff_nanos
    }

    /// Which phase dominates; ties resolve queue → compute → retry so the
    /// verdict is deterministic. Hop time counts toward queue: both are
    /// "not yet computing" from the client's perspective.
    pub fn blame(&self) -> Blame {
        let retry = self.fault_burn_nanos + self.backoff_nanos;
        let mut best = (self.queue_nanos + self.shard_hop_nanos, Blame::Queue);
        if self.service_nanos > best.0 {
            best = (self.service_nanos, Blame::Compute);
        }
        if retry > best.0 {
            best = (retry, Blame::Retry);
        }
        best.1
    }
}

/// Order statistics for one phase across all requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Requests contributing a (possibly zero) duration.
    pub count: usize,
    /// Sum of all durations.
    pub total_nanos: u64,
    /// Nearest-rank 50th percentile.
    pub p50_nanos: u64,
    /// Nearest-rank 99th percentile.
    pub p99_nanos: u64,
    /// Maximum.
    pub max_nanos: u64,
}

fn phase_stats(values: &mut [u64]) -> PhaseStats {
    values.sort_unstable();
    PhaseStats {
        count: values.len(),
        total_nanos: values.iter().sum(),
        p50_nanos: ln_obs::percentile(values, 0.5).unwrap_or(0),
        p99_nanos: ln_obs::percentile(values, 0.99).unwrap_or(0),
        max_nanos: values.last().copied().unwrap_or(0),
    }
}

/// A batch in flight on a backend track.
struct InFlightBatch {
    ids: Vec<u64>,
    dispatch_nanos: u64,
    precision: Option<String>,
}

/// Per-request accumulator during the replay.
struct ReqState {
    seq_len: u64,
    enqueue: u64,
    /// Last attributed instant: everything up to here is charged.
    cursor: u64,
    queue: u64,
    hop: u64,
    service: u64,
    fault_burn: u64,
    backoff: u64,
    retries: u32,
    /// Set by a fault-retry: the gap before the next progress event is
    /// backoff (bounded by the announced backoff), not queue wait.
    pending_backoff_nanos: Option<u64>,
    terminal: Option<(Terminal, u64)>,
    precision: Option<String>,
}

impl ReqState {
    /// Charge the gap `[cursor, now]` to backoff (up to any announced
    /// backoff) then queue, and advance the cursor.
    fn advance_to(&mut self, now: u64) {
        let gap = now.saturating_sub(self.cursor);
        let backoff = self.pending_backoff_nanos.take().unwrap_or(0).min(gap);
        self.backoff += backoff;
        self.queue += gap - backoff;
        self.cursor = now;
    }
}

/// The full critical-path analysis of one engine trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Every request that was enqueued, in id order, fully attributed.
    pub requests: Vec<RequestPath>,
    /// Admission rejections by reason (`too_long`, `queue_full`, ...).
    pub rejected: BTreeMap<String, u64>,
    /// Circuit-breaker transitions by label (`breaker_open`, ...).
    pub breaker_events: BTreeMap<String, u64>,
    /// Injected queue poisons observed.
    pub poison_events: u64,
    /// Dispatches that ran below FP32 (`degrade` instants).
    pub degraded_dispatches: u64,
    /// Work-stealing victims observed (`steal` instants).
    pub steals: u64,
    /// Events outside the engine vocabulary (kernel spans from other
    /// tracers, bench markers); counted, not errors.
    pub foreign_events: u64,
    /// Structural mismatches: spans or requests the replay could not
    /// attribute. Empty on a well-formed engine trace — CI fails on it.
    pub unattributed: Vec<String>,
    /// Whether the source ring dropped events; a truncated trace cannot
    /// vouch for completeness.
    pub truncated: bool,
}

impl CriticalPath {
    /// Replay `events` (in ring order) into per-request attributions.
    /// `dropped` is the source tracer's eviction count
    /// ([`ln_obs::Tracer::dropped`]); non-zero marks the result truncated.
    pub fn analyze(events: &[TraceEvent], dropped: u64) -> Self {
        let mut reqs: BTreeMap<u64, ReqState> = BTreeMap::new();
        let mut pending_by_bucket: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let mut in_flight: BTreeMap<u32, InFlightBatch> = BTreeMap::new();
        let mut out = CriticalPath {
            requests: Vec::new(),
            rejected: BTreeMap::new(),
            breaker_events: BTreeMap::new(),
            poison_events: 0,
            degraded_dispatches: 0,
            steals: 0,
            foreign_events: 0,
            unattributed: Vec::new(),
            truncated: dropped > 0,
        };
        let fresh_state = |seq_len: u64, ts: u64| ReqState {
            seq_len,
            enqueue: ts,
            cursor: ts,
            queue: 0,
            hop: 0,
            service: 0,
            fault_burn: 0,
            backoff: 0,
            retries: 0,
            pending_backoff_nanos: None,
            terminal: None,
            precision: None,
        };

        for event in events {
            let ts = event.ts_nanos;
            match (event.cat, event.name.as_str(), &event.phase) {
                ("router", "arrive", TracePhase::Instant) => {
                    let (Some(id), Some(seq_len)) =
                        (arg_u64(event, "id"), arg_u64(event, "seq_len"))
                    else {
                        out.unattributed
                            .push(format!("arrive at {ts} without id/seq_len"));
                        continue;
                    };
                    reqs.insert(id, fresh_state(seq_len, ts));
                }
                ("queue", "enqueue", TracePhase::Instant) => {
                    let (Some(id), Some(seq_len)) =
                        (arg_u64(event, "id"), arg_u64(event, "seq_len"))
                    else {
                        out.unattributed
                            .push(format!("enqueue at {ts} without id/seq_len"));
                        continue;
                    };
                    match reqs.get_mut(&id) {
                        // The attempt already arrived at a cluster router:
                        // the shard-side admission only moves the cursor
                        // (the hop span covered transit); the router's
                        // arrive instant stays the life start.
                        Some(req) => req.advance_to(ts),
                        None => {
                            reqs.insert(id, fresh_state(seq_len, ts));
                        }
                    }
                }
                ("hop", "shard_hop", TracePhase::Complete { dur_nanos }) => {
                    let Some(id) = arg_u64(event, "id") else {
                        out.unattributed
                            .push(format!("shard_hop at {ts} without id"));
                        continue;
                    };
                    let Some(req) = reqs.get_mut(&id) else {
                        out.unattributed
                            .push(format!("shard_hop for unknown id {id}"));
                        continue;
                    };
                    req.advance_to(ts);
                    req.hop += dur_nanos;
                    req.cursor = ts + dur_nanos;
                }
                ("cancel", "cancel" | "steal", TracePhase::Instant) => {
                    if event.name == "steal" {
                        out.steals += 1;
                    }
                    let Some(id) = arg_u64(event, "id") else {
                        out.unattributed
                            .push(format!("{} at {ts} without id", event.name));
                        continue;
                    };
                    // A cancel for an id the replay never saw admitted is
                    // benign (a pending-arrival eviction): nothing started,
                    // nothing to attribute.
                    if let Some(req) = reqs.get_mut(&id) {
                        req.advance_to(ts);
                        req.terminal = Some((Terminal::Cancelled, ts));
                    }
                }
                ("queue", "reject", TracePhase::Instant) => {
                    let reason = arg_str(event, "reason").unwrap_or("unknown").to_string();
                    *out.rejected.entry(reason).or_insert(0) += 1;
                    // A shard-level reject of an attempt that already
                    // arrived via a cluster router must still terminate it.
                    if let Some(req) = arg_u64(event, "id").and_then(|id| reqs.get_mut(&id)) {
                        req.advance_to(ts);
                        req.terminal = Some((Terminal::Rejected, ts));
                    }
                }
                ("queue", "queue_wait", TracePhase::Complete { dur_nanos }) => {
                    let Some(id) = arg_u64(event, "id") else {
                        out.unattributed
                            .push(format!("queue_wait at {ts} without id"));
                        continue;
                    };
                    let Some(req) = reqs.get_mut(&id) else {
                        out.unattributed
                            .push(format!("queue_wait for unknown id {id}"));
                        continue;
                    };
                    // The span covers [max(arrival, earliest), dispatch];
                    // any gap before it is backoff (post-fault) or queue.
                    req.advance_to(ts);
                    req.queue += dur_nanos;
                    req.cursor = ts + dur_nanos;
                    pending_by_bucket.entry(event.track).or_default().push(id);
                }
                ("dispatch", "dispatch", TracePhase::Instant) => {
                    let bucket = arg_u64(event, "bucket").unwrap_or(u64::MAX) as u32;
                    let batch_size = arg_u64(event, "batch_size").unwrap_or(0) as usize;
                    let precision = arg_str(event, "precision").map(str::to_string);
                    let pending = pending_by_bucket.entry(bucket).or_default();
                    if pending.len() < batch_size {
                        out.unattributed.push(format!(
                            "dispatch at {ts} wants {batch_size} requests, {} pending",
                            pending.len()
                        ));
                    }
                    let ids = pending.split_off(pending.len().saturating_sub(batch_size));
                    in_flight.insert(
                        event.track,
                        InFlightBatch {
                            ids,
                            dispatch_nanos: ts,
                            precision,
                        },
                    );
                }
                ("kernel", "fold_batch", TracePhase::Complete { dur_nanos }) => {
                    let Some(batch) = in_flight.remove(&event.track) else {
                        out.unattributed
                            .push(format!("fold_batch at {ts} with no dispatched batch"));
                        continue;
                    };
                    for id in batch.ids {
                        let Some(req) = reqs.get_mut(&id) else {
                            out.unattributed
                                .push(format!("fold_batch settles unknown id {id}"));
                            continue;
                        };
                        req.advance_to(ts);
                        req.service += dur_nanos;
                        req.cursor = ts + dur_nanos;
                        req.precision.clone_from(&batch.precision);
                        req.terminal = Some((Terminal::Completed, ts + dur_nanos));
                    }
                }
                ("fault", "transient" | "worker_panic" | "shard_loss", TracePhase::Instant) => {
                    let Some(batch) = in_flight.remove(&event.track) else {
                        out.unattributed
                            .push(format!("{} at {ts} with no dispatched batch", event.name));
                        continue;
                    };
                    let burn = ts.saturating_sub(batch.dispatch_nanos);
                    for id in batch.ids {
                        let Some(req) = reqs.get_mut(&id) else {
                            out.unattributed.push(format!("fault hits unknown id {id}"));
                            continue;
                        };
                        req.advance_to(batch.dispatch_nanos);
                        req.fault_burn += burn;
                        req.cursor = ts;
                    }
                }
                ("fault", "fail", TracePhase::Instant) => {
                    let Some(id) = arg_u64(event, "id") else {
                        out.unattributed.push(format!("fail at {ts} without id"));
                        continue;
                    };
                    let Some(req) = reqs.get_mut(&id) else {
                        out.unattributed.push(format!("fail for unknown id {id}"));
                        continue;
                    };
                    req.advance_to(ts);
                    req.terminal = Some((Terminal::Failed, ts));
                }
                ("retry", "retry", TracePhase::Instant) => {
                    let Some(id) = arg_u64(event, "id") else {
                        out.unattributed.push(format!("retry at {ts} without id"));
                        continue;
                    };
                    let Some(req) = reqs.get_mut(&id) else {
                        out.unattributed.push(format!("retry for unknown id {id}"));
                        continue;
                    };
                    req.advance_to(ts);
                    req.retries += 1;
                    // A backend-fault retry announces its backoff; the gap
                    // until the next queue_wait is charged against it. A
                    // poison retry has none — the queue, not the backend,
                    // failed — so its wait stays queue time.
                    req.pending_backoff_nanos =
                        arg_f64(event, "backoff_seconds").map(seconds_to_nanos_approx);
                }
                ("timeout", "timeout", TracePhase::Instant) => {
                    let Some(id) = arg_u64(event, "id") else {
                        out.unattributed.push(format!("timeout at {ts} without id"));
                        continue;
                    };
                    let Some(req) = reqs.get_mut(&id) else {
                        out.unattributed
                            .push(format!("timeout for unknown id {id}"));
                        continue;
                    };
                    req.advance_to(ts);
                    req.terminal = Some((Terminal::TimedOut, ts));
                }
                ("poison", "queue_poison", TracePhase::Instant) => out.poison_events += 1,
                ("degradation", "degrade", TracePhase::Instant) => out.degraded_dispatches += 1,
                ("breaker", name, TracePhase::Instant) => {
                    *out.breaker_events.entry(name.to_string()).or_insert(0) += 1;
                }
                _ => out.foreign_events += 1,
            }
        }

        for (track, batch) in in_flight {
            out.unattributed.push(format!(
                "batch of {} on track {track} never settled",
                batch.ids.len()
            ));
        }
        for (track, ids) in pending_by_bucket {
            if !ids.is_empty() {
                out.unattributed.push(format!(
                    "{} queue_wait spans on track {track} never dispatched",
                    ids.len()
                ));
            }
        }
        for (id, req) in reqs {
            let Some((terminal, end)) = req.terminal else {
                out.unattributed
                    .push(format!("request {id} has no terminal event"));
                continue;
            };
            out.requests.push(RequestPath {
                id,
                seq_len: req.seq_len,
                enqueue_nanos: req.enqueue,
                end_nanos: end,
                queue_nanos: req.queue,
                shard_hop_nanos: req.hop,
                service_nanos: req.service,
                fault_burn_nanos: req.fault_burn,
                backoff_nanos: req.backoff,
                retries: req.retries,
                terminal,
                precision: req.precision,
            });
        }
        out
    }

    /// Per-phase order statistics across all attributed requests, in a
    /// fixed order: `queue`, `shard_hop`, `service`, `fault_burn`,
    /// `backoff`, `e2e`.
    pub fn phases(&self) -> Vec<(&'static str, PhaseStats)> {
        let mut queue = Vec::with_capacity(self.requests.len());
        let mut hop = Vec::with_capacity(self.requests.len());
        let mut service = Vec::with_capacity(self.requests.len());
        let mut burn = Vec::with_capacity(self.requests.len());
        let mut backoff = Vec::with_capacity(self.requests.len());
        let mut e2e = Vec::with_capacity(self.requests.len());
        for r in &self.requests {
            queue.push(r.queue_nanos);
            hop.push(r.shard_hop_nanos);
            service.push(r.service_nanos);
            burn.push(r.fault_burn_nanos);
            backoff.push(r.backoff_nanos);
            e2e.push(r.total_nanos());
        }
        vec![
            ("queue", phase_stats(&mut queue)),
            ("shard_hop", phase_stats(&mut hop)),
            ("service", phase_stats(&mut service)),
            ("fault_burn", phase_stats(&mut burn)),
            ("backoff", phase_stats(&mut backoff)),
            ("e2e", phase_stats(&mut e2e)),
        ]
    }

    /// Requests per dominant phase: `(queue_bound, compute_bound,
    /// retry_bound)`.
    pub fn blame_summary(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for r in &self.requests {
            match r.blame() {
                Blame::Queue => counts.0 += 1,
                Blame::Compute => counts.1 += 1,
                Blame::Retry => counts.2 += 1,
            }
        }
        counts
    }

    /// Requests per terminal kind.
    pub fn terminal_summary(&self) -> TerminalCounts {
        let mut counts = TerminalCounts::default();
        for r in &self.requests {
            match r.terminal {
                Terminal::Completed => counts.completed += 1,
                Terminal::Failed => counts.failed += 1,
                Terminal::TimedOut => counts.timed_out += 1,
                Terminal::Cancelled => counts.cancelled += 1,
                Terminal::Rejected => counts.rejected += 1,
            }
        }
        counts
    }

    /// Total retry instants across all requests.
    pub fn total_retries(&self) -> u64 {
        self.requests.iter().map(|r| u64::from(r.retries)).sum()
    }

    /// Deterministic markdown dashboard: phase table, blame summary and
    /// resilience-event roll-up. Byte-identical for identical traces.
    pub fn render_markdown(&self) -> String {
        let t = self.terminal_summary();
        let rejected: u64 = self.rejected.values().sum();
        let mut out = String::new();
        out.push_str(&format!(
            "## Critical path — {} requests ({} completed, {} failed, \
             {} timed out, {} cancelled, {} shard-rejected; {rejected} rejected at admission)\n\n",
            self.requests.len(),
            t.completed,
            t.failed,
            t.timed_out,
            t.cancelled,
            t.rejected,
        ));
        out.push_str("| phase | total | p50 | p99 | max | share |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        let phases = self.phases();
        let attributed_total: u64 = phases
            .iter()
            .filter(|(name, _)| *name != "e2e")
            .map(|(_, s)| s.total_nanos)
            .sum();
        for (name, stats) in &phases {
            let share = if *name == "e2e" || attributed_total == 0 {
                "—".to_string()
            } else {
                format!(
                    "{:.1}%",
                    stats.total_nanos as f64 / attributed_total as f64 * 100.0
                )
            };
            out.push_str(&format!(
                "| {name} | {} | {} | {} | {} | {share} |\n",
                fmt_nanos(stats.total_nanos),
                fmt_nanos(stats.p50_nanos),
                fmt_nanos(stats.p99_nanos),
                fmt_nanos(stats.max_nanos),
            ));
        }
        let (queue_bound, compute_bound, retry_bound) = self.blame_summary();
        out.push_str(&format!(
            "\nblame: {queue_bound} queue-bound, {compute_bound} compute-bound, \
             {retry_bound} retry-bound\n"
        ));
        out.push_str(&format!(
            "events: {} retries, {} poisons, {} degraded dispatches, {} steals, {} foreign\n",
            self.total_retries(),
            self.poison_events,
            self.degraded_dispatches,
            self.steals,
            self.foreign_events,
        ));
        if !self.rejected.is_empty() {
            let mut parts: Vec<String> = Vec::new();
            for (reason, n) in &self.rejected {
                parts.push(format!("{reason}={n}"));
            }
            out.push_str(&format!("rejections: {}\n", parts.join(", ")));
        }
        if !self.breaker_events.is_empty() {
            let mut parts: Vec<String> = Vec::new();
            for (name, n) in &self.breaker_events {
                parts.push(format!("{name}={n}"));
            }
            out.push_str(&format!("breaker: {}\n", parts.join(", ")));
        }
        out.push_str(&format!(
            "unattributed spans: {}; trace truncated: {}\n",
            self.unattributed.len(),
            if self.truncated { "yes" } else { "no" },
        ));
        out
    }
}

/// Approximate seconds→nanos for announced backoffs; the engine's own
/// timestamps use `ln_obs::seconds_to_nanos`, and the bound is only used
/// to split a gap, so half-up rounding here matches closely enough.
fn seconds_to_nanos_approx(seconds: f64) -> u64 {
    ln_obs::seconds_to_nanos(seconds)
}

fn arg_u64(event: &TraceEvent, key: &str) -> Option<u64> {
    event.args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(u) if *k == key => Some(*u),
        _ => None,
    })
}

fn arg_f64(event: &TraceEvent, key: &str) -> Option<f64> {
    event.args.iter().find_map(|(k, v)| match v {
        ArgValue::F64(f) if *k == key => Some(*f),
        _ => None,
    })
}

fn arg_str<'a>(event: &'a TraceEvent, key: &str) -> Option<&'a str> {
    event.args.iter().find_map(|(k, v)| match v {
        ArgValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(
        ts: u64,
        name: &str,
        cat: &'static str,
        track: u32,
        args: Vec<(&'static str, ArgValue)>,
    ) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat,
            phase: TracePhase::Instant,
            ts_nanos: ts,
            track,
            args,
        }
    }

    fn complete(
        ts: u64,
        dur: u64,
        name: &str,
        cat: &'static str,
        track: u32,
        args: Vec<(&'static str, ArgValue)>,
    ) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat,
            phase: TracePhase::Complete { dur_nanos: dur },
            ts_nanos: ts,
            track,
            args,
        }
    }

    fn u(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }

    /// One request folds cleanly: 40 ns queue, 100 ns service.
    fn clean_fold() -> Vec<TraceEvent> {
        vec![
            instant(
                10,
                "enqueue",
                "queue",
                0,
                vec![("id", u(7)), ("seq_len", u(256))],
            ),
            complete(
                10,
                40,
                "queue_wait",
                "queue",
                0,
                vec![("id", u(7)), ("seq_len", u(256))],
            ),
            instant(
                50,
                "dispatch",
                "dispatch",
                100,
                vec![
                    ("bucket", u(0)),
                    ("batch_size", u(1)),
                    ("precision", ArgValue::Str("fp32".into())),
                ],
            ),
            complete(
                50,
                100,
                "fold_batch",
                "kernel",
                100,
                vec![
                    ("bucket", u(0)),
                    ("batch_size", u(1)),
                    ("precision", ArgValue::Str("fp32".into())),
                ],
            ),
        ]
    }

    #[test]
    fn clean_fold_attributes_fully() {
        let cp = CriticalPath::analyze(&clean_fold(), 0);
        assert!(cp.unattributed.is_empty(), "{:?}", cp.unattributed);
        assert!(!cp.truncated);
        assert_eq!(cp.requests.len(), 1);
        let r = &cp.requests[0];
        assert_eq!(r.id, 7);
        assert_eq!(r.queue_nanos, 40);
        assert_eq!(r.service_nanos, 100);
        assert_eq!(r.fault_burn_nanos, 0);
        assert_eq!(r.backoff_nanos, 0);
        assert_eq!(r.terminal, Terminal::Completed);
        assert_eq!(r.precision.as_deref(), Some("fp32"));
        assert_eq!(r.total_nanos(), 140);
        assert_eq!(r.attributed_nanos(), 140);
        assert_eq!(r.blame(), Blame::Compute);
        assert_eq!(cp.blame_summary(), (0, 1, 0));
    }

    /// A transient fault burns 60 ns, the retry backs off 30 ns, a second
    /// attempt succeeds: every phase lands where it should.
    #[test]
    fn fault_retry_splits_burn_and_backoff() {
        let events = vec![
            instant(
                0,
                "enqueue",
                "queue",
                1,
                vec![("id", u(3)), ("seq_len", u(512))],
            ),
            complete(
                0,
                20,
                "queue_wait",
                "queue",
                1,
                vec![("id", u(3)), ("seq_len", u(512))],
            ),
            instant(
                20,
                "dispatch",
                "dispatch",
                101,
                vec![
                    ("bucket", u(1)),
                    ("batch_size", u(1)),
                    ("precision", ArgValue::Str("fp32".into())),
                ],
            ),
            instant(80, "transient", "fault", 101, vec![("bucket", u(1))]),
            instant(
                80,
                "retry",
                "retry",
                1,
                vec![
                    ("id", u(3)),
                    ("attempt", u(1)),
                    ("backoff_seconds", ArgValue::F64(30e-9)),
                ],
            ),
            // Backoff ends at 110; the request then waits 15 more ns in queue.
            complete(
                110,
                15,
                "queue_wait",
                "queue",
                1,
                vec![("id", u(3)), ("seq_len", u(512))],
            ),
            instant(
                125,
                "dispatch",
                "dispatch",
                101,
                vec![
                    ("bucket", u(1)),
                    ("batch_size", u(1)),
                    ("precision", ArgValue::Str("int8".into())),
                ],
            ),
            complete(
                125,
                100,
                "fold_batch",
                "kernel",
                101,
                vec![
                    ("bucket", u(1)),
                    ("batch_size", u(1)),
                    ("precision", ArgValue::Str("int8".into())),
                ],
            ),
        ];
        let cp = CriticalPath::analyze(&events, 0);
        assert!(cp.unattributed.is_empty(), "{:?}", cp.unattributed);
        let r = &cp.requests[0];
        assert_eq!(r.queue_nanos, 20 + 15);
        assert_eq!(r.fault_burn_nanos, 60);
        assert_eq!(r.backoff_nanos, 30);
        assert_eq!(r.service_nanos, 100);
        assert_eq!(r.retries, 1);
        assert_eq!(r.terminal, Terminal::Completed);
        assert_eq!(r.precision.as_deref(), Some("int8"));
        // 0..225 fully attributed: 35 queue + 60 burn + 30 backoff + 100 service.
        assert_eq!(r.attributed_nanos(), r.total_nanos());
        assert_eq!(r.blame(), Blame::Compute);
    }

    #[test]
    fn exhausted_retries_fail_and_blame_retry() {
        let events = vec![
            instant(
                0,
                "enqueue",
                "queue",
                0,
                vec![("id", u(1)), ("seq_len", u(64))],
            ),
            complete(
                0,
                5,
                "queue_wait",
                "queue",
                0,
                vec![("id", u(1)), ("seq_len", u(64))],
            ),
            instant(
                5,
                "dispatch",
                "dispatch",
                100,
                vec![
                    ("bucket", u(0)),
                    ("batch_size", u(1)),
                    ("precision", ArgValue::Str("fp32".into())),
                ],
            ),
            instant(205, "worker_panic", "fault", 100, vec![("bucket", u(0))]),
            instant(
                205,
                "fail",
                "fault",
                0,
                vec![("id", u(1)), ("attempt", u(3))],
            ),
        ];
        let cp = CriticalPath::analyze(&events, 0);
        assert!(cp.unattributed.is_empty(), "{:?}", cp.unattributed);
        let r = &cp.requests[0];
        assert_eq!(r.terminal, Terminal::Failed);
        assert_eq!(r.fault_burn_nanos, 200);
        assert_eq!(r.blame(), Blame::Retry);
        assert_eq!(cp.blame_summary(), (0, 0, 1));
    }

    #[test]
    fn timeout_and_reject_are_terminal() {
        let events = vec![
            instant(
                0,
                "reject",
                "queue",
                0,
                vec![("id", u(9)), ("reason", ArgValue::Str("too_long".into()))],
            ),
            instant(
                0,
                "enqueue",
                "queue",
                0,
                vec![("id", u(2)), ("seq_len", u(64))],
            ),
            instant(500, "timeout", "timeout", 0, vec![("id", u(2))]),
        ];
        let cp = CriticalPath::analyze(&events, 0);
        assert!(cp.unattributed.is_empty(), "{:?}", cp.unattributed);
        assert_eq!(cp.rejected.get("too_long"), Some(&1));
        let r = &cp.requests[0];
        assert_eq!(r.terminal, Terminal::TimedOut);
        assert_eq!(r.queue_nanos, 500);
        assert_eq!(r.blame(), Blame::Queue);
    }

    #[test]
    fn structural_mismatches_are_reported_not_guessed() {
        // fold_batch with no dispatch; request with no terminal.
        let events = vec![
            instant(
                0,
                "enqueue",
                "queue",
                0,
                vec![("id", u(4)), ("seq_len", u(64))],
            ),
            complete(10, 50, "fold_batch", "kernel", 100, vec![("bucket", u(0))]),
        ];
        let cp = CriticalPath::analyze(&events, 0);
        assert_eq!(cp.unattributed.len(), 2, "{:?}", cp.unattributed);
        assert!(cp.unattributed[0].contains("no dispatched batch"));
        assert!(cp.unattributed[1].contains("no terminal event"));
        assert!(cp.requests.is_empty());
    }

    #[test]
    fn dropped_events_mark_the_analysis_truncated() {
        let cp = CriticalPath::analyze(&clean_fold(), 3);
        assert!(cp.truncated);
        assert!(cp.render_markdown().contains("trace truncated: yes"));
    }

    #[test]
    fn foreign_events_are_counted_not_fatal() {
        let mut events = clean_fold();
        events.push(complete(0, 9, "tri_mul", "span", 0, vec![]));
        events.push(complete(0, 9, "matmul", "kernel", 100, vec![]));
        let cp = CriticalPath::analyze(&events, 0);
        assert_eq!(cp.foreign_events, 2);
        assert!(cp.unattributed.is_empty(), "{:?}", cp.unattributed);
    }

    #[test]
    fn markdown_is_deterministic_and_complete() {
        let cp = CriticalPath::analyze(&clean_fold(), 0);
        let a = cp.render_markdown();
        let b = CriticalPath::analyze(&clean_fold(), 0).render_markdown();
        assert_eq!(a, b);
        assert!(a.contains("## Critical path — 1 requests"));
        assert!(a.contains("| queue | 40 ns |"));
        assert!(a.contains("| e2e | 140 ns |"));
        assert!(a.contains("blame: 0 queue-bound, 1 compute-bound, 0 retry-bound"));
        assert!(a.contains("unattributed spans: 0; trace truncated: no"));
    }

    /// A full cluster attempt: router arrive, hop span, shard enqueue,
    /// queue_wait, dispatch, fold — every nanosecond attributed.
    #[test]
    fn cluster_hop_is_charged_exactly() {
        let events = vec![
            instant(
                0,
                "arrive",
                "router",
                0,
                vec![("id", u(11)), ("seq_len", u(300))],
            ),
            complete(
                0,
                25,
                "shard_hop",
                "hop",
                0,
                vec![("id", u(11)), ("shard", u(2))],
            ),
            instant(
                25,
                "enqueue",
                "queue",
                2000,
                vec![("id", u(11)), ("seq_len", u(300))],
            ),
            complete(
                25,
                40,
                "queue_wait",
                "queue",
                2000,
                vec![("id", u(11)), ("seq_len", u(300))],
            ),
            instant(
                65,
                "dispatch",
                "dispatch",
                2100,
                vec![
                    ("bucket", u(2000)),
                    ("batch_size", u(1)),
                    ("precision", ArgValue::Str("fp32".into())),
                ],
            ),
            complete(
                65,
                100,
                "fold_batch",
                "kernel",
                2100,
                vec![("bucket", u(2000)), ("batch_size", u(1))],
            ),
        ];
        let cp = CriticalPath::analyze(&events, 0);
        assert!(cp.unattributed.is_empty(), "{:?}", cp.unattributed);
        let r = &cp.requests[0];
        assert_eq!(r.shard_hop_nanos, 25);
        assert_eq!(r.queue_nanos, 40);
        assert_eq!(r.service_nanos, 100);
        assert_eq!(r.total_nanos(), 165);
        assert_eq!(r.attributed_nanos(), r.total_nanos(), "e2e fully covered");
        let phases = cp.phases();
        assert_eq!(phases[1].0, "shard_hop");
        assert_eq!(phases[1].1.total_nanos, 25);
    }

    #[test]
    fn cancel_steal_and_shard_reject_are_terminal() {
        let events = vec![
            instant(
                0,
                "arrive",
                "router",
                0,
                vec![("id", u(1)), ("seq_len", u(100))],
            ),
            complete(0, 10, "shard_hop", "hop", 0, vec![("id", u(1))]),
            instant(
                10,
                "enqueue",
                "queue",
                1000,
                vec![("id", u(1)), ("seq_len", u(100))],
            ),
            // Hedged twin won elsewhere: cancelled 30 ns into its wait.
            instant(40, "cancel", "cancel", 1000, vec![("id", u(1))]),
            // A second attempt is stolen away.
            instant(
                0,
                "enqueue",
                "queue",
                1000,
                vec![("id", u(2)), ("seq_len", u(100))],
            ),
            instant(50, "steal", "cancel", 1000, vec![("id", u(2))]),
            // A third arrives at a shard whose queue is full.
            instant(
                0,
                "arrive",
                "router",
                0,
                vec![("id", u(3)), ("seq_len", u(100))],
            ),
            complete(0, 10, "shard_hop", "hop", 0, vec![("id", u(3))]),
            instant(
                10,
                "reject",
                "queue",
                1000,
                vec![("id", u(3)), ("reason", ArgValue::Str("queue_full".into()))],
            ),
            // A cancel for an id never admitted is benign.
            instant(60, "cancel", "cancel", 1000, vec![("id", u(99))]),
        ];
        let cp = CriticalPath::analyze(&events, 0);
        assert!(cp.unattributed.is_empty(), "{:?}", cp.unattributed);
        assert_eq!(cp.requests.len(), 3);
        let t = cp.terminal_summary();
        assert_eq!(t.cancelled, 2);
        assert_eq!(t.rejected, 1);
        assert_eq!(cp.steals, 1);
        assert_eq!(cp.rejected.get("queue_full"), Some(&1));
        let r1 = &cp.requests[0];
        assert_eq!(r1.terminal, Terminal::Cancelled);
        assert_eq!(r1.shard_hop_nanos, 10);
        assert_eq!(r1.queue_nanos, 30);
        assert_eq!(r1.attributed_nanos(), r1.total_nanos());
        let r3 = &cp.requests[2];
        assert_eq!(r3.terminal, Terminal::Rejected);
        assert_eq!(r3.attributed_nanos(), r3.total_nanos());
    }

    #[test]
    fn shard_loss_burns_in_flight_batches() {
        let events = vec![
            instant(
                0,
                "enqueue",
                "queue",
                0,
                vec![("id", u(5)), ("seq_len", u(200))],
            ),
            complete(
                0,
                10,
                "queue_wait",
                "queue",
                0,
                vec![("id", u(5)), ("seq_len", u(200))],
            ),
            instant(
                10,
                "dispatch",
                "dispatch",
                100,
                vec![
                    ("bucket", u(0)),
                    ("batch_size", u(1)),
                    ("precision", ArgValue::Str("fp32".into())),
                ],
            ),
            // The shard dies 70 ns into the batch; the victim is evicted.
            instant(80, "shard_loss", "fault", 100, vec![("bucket", u(0))]),
            instant(80, "cancel", "cancel", 0, vec![("id", u(5))]),
        ];
        let cp = CriticalPath::analyze(&events, 0);
        assert!(cp.unattributed.is_empty(), "{:?}", cp.unattributed);
        let r = &cp.requests[0];
        assert_eq!(r.terminal, Terminal::Cancelled);
        assert_eq!(r.fault_burn_nanos, 70);
        assert_eq!(r.queue_nanos, 10);
        assert_eq!(r.attributed_nanos(), r.total_nanos());
    }
}
