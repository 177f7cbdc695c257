//! The SLO engine: declarative objectives evaluated as multi-window
//! burn rates over virtual time.
//!
//! Each [`SloSpec`] classifies request outcomes into good/bad events and
//! keeps a sliding window of them per *scope* (global, per shard, per
//! length bucket). The burn rate is the classic SRE quantity
//!
//! ```text
//! burn = (bad / total within window) / (1 − target)
//! ```
//!
//! i.e. how many times faster than "exactly on budget" the error budget is
//! being consumed. A breach fires — edge-triggered — when **both** the
//! fast window (default 5 virtual minutes) and the slow window (default
//! 1 virtual hour) burn at or above [`SloSpec::burn_threshold`]: the fast
//! window makes the alert prompt, the slow window keeps a short blip from
//! paging. Everything runs on the deterministic virtual clock, so the same
//! workload produces the same breaches, in the same order, at every
//! `ln-par` pool size.

use std::collections::{BTreeMap, VecDeque};

use ln_obs::{labeled, Registry};
use ln_scope::length_bucket_label;

/// What a service-level objective measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// Fraction of *all* requests that complete within their deadline.
    /// Rejections, timeouts and typed failures all count against it.
    DeadlineHitRate,
    /// Fraction of completed requests at or under
    /// [`SloSpec::threshold_seconds`] of latency (a p99-style objective:
    /// with `target = 0.99` it reads "99% of completions under the
    /// threshold").
    P99Latency,
    /// Fraction of completed requests served at full FP32 precision
    /// (degraded AAQ rungs count against it).
    DegradationRate,
    /// Fraction of completed requests whose worst-layer relative
    /// quantization RMSE stays at or under [`SloSpec::threshold_rmse`] —
    /// the *accuracy error budget*: how often the fleet is allowed to
    /// serve numerics worse than the calibrated bound.
    AccuracyRmse,
}

/// A declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Metric-label-safe name, e.g. `"deadline"`.
    pub name: String,
    /// What is measured.
    pub kind: SloKind,
    /// Target good fraction in `(0, 1)`; the error budget is `1 − target`.
    pub target: f64,
    /// Latency threshold for [`SloKind::P99Latency`] (ignored otherwise).
    pub threshold_seconds: f64,
    /// Worst-layer relative-RMSE threshold for [`SloKind::AccuracyRmse`]
    /// (ignored otherwise).
    pub threshold_rmse: f64,
    /// Fast burn window, virtual seconds (default 300 — five minutes).
    pub fast_window_seconds: f64,
    /// Slow burn window, virtual seconds (default 3600 — one hour).
    pub slow_window_seconds: f64,
    /// Both windows must burn at or above this multiple of "exactly on
    /// budget" to breach (default 2.0).
    pub burn_threshold: f64,
    /// Minimum events in the fast window before a breach may fire, so an
    /// empty system's first bad request does not page.
    pub min_events: u64,
}

impl SloSpec {
    fn base(name: &str, kind: SloKind, target: f64) -> Self {
        assert!(
            target > 0.0 && target < 1.0,
            "SLO target must be in (0,1), got {target}"
        );
        SloSpec {
            name: name.to_string(),
            kind,
            target,
            threshold_seconds: 0.0,
            threshold_rmse: 0.0,
            fast_window_seconds: 300.0,
            slow_window_seconds: 3600.0,
            burn_threshold: 2.0,
            min_events: 8,
        }
    }

    /// A deadline-hit-rate objective: `target` of all requests complete
    /// within their deadline.
    pub fn deadline_hit_rate(name: &str, target: f64) -> Self {
        Self::base(name, SloKind::DeadlineHitRate, target)
    }

    /// A tail-latency objective: `target` of completions finish at or
    /// under `threshold_seconds`.
    pub fn p99_latency(name: &str, threshold_seconds: f64, target: f64) -> Self {
        SloSpec {
            threshold_seconds,
            ..Self::base(name, SloKind::P99Latency, target)
        }
    }

    /// A precision objective: `target` of completions run at full FP32.
    pub fn degradation_rate(name: &str, target: f64) -> Self {
        Self::base(name, SloKind::DegradationRate, target)
    }

    /// An accuracy error budget: `target` of completions carry a
    /// worst-layer relative quantization RMSE at or under
    /// `threshold_rmse`.
    pub fn accuracy_rmse(name: &str, threshold_rmse: f64, target: f64) -> Self {
        SloSpec {
            threshold_rmse,
            ..Self::base(name, SloKind::AccuracyRmse, target)
        }
    }
}

/// Terminal request outcome as the SLO engine sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObservedOutcome {
    /// The request completed.
    Completed {
        /// Arrival-to-finish latency, virtual seconds.
        latency_seconds: f64,
        /// The request's deadline (timeout), virtual seconds.
        deadline_seconds: f64,
        /// Whether it ran on a degraded AAQ rung (INT8/INT4).
        degraded: bool,
        /// Worst-layer relative quantization RMSE of the serving run
        /// (modeled from the precision rung, or measured when a scope
        /// ledger is attached; exactly 0 for FP32).
        worst_rmse: f64,
    },
    /// The request timed out in queue.
    TimedOut,
    /// Admission control refused the request.
    Rejected,
    /// The request failed typed (transient/panic/poison/shard loss).
    Failed,
}

/// One terminal request outcome plus its routing context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldObservation {
    /// Cluster shard that served (or refused) the request, when known.
    pub shard: Option<usize>,
    /// Sequence length, residues — scoped into canonical length buckets.
    pub length: usize,
    /// Virtual time of the terminal outcome.
    pub at_seconds: f64,
    /// What happened.
    pub outcome: ObservedOutcome,
}

/// An edge-triggered SLO breach.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// The breached [`SloSpec::name`].
    pub slo: String,
    /// Scope key: `"global"`, `"shard:N"` or `"bucket:le_NNN"`.
    pub scope: String,
    /// Fast-window burn rate at breach time.
    pub fast_burn: f64,
    /// Slow-window burn rate at breach time.
    pub slow_burn: f64,
    /// Virtual breach time.
    pub at_seconds: f64,
}

/// Error-budget accounting for one `(slo, scope)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// The objective's name.
    pub slo: String,
    /// Scope key.
    pub scope: String,
    /// Events ever classified into this scope.
    pub total: u64,
    /// Bad events ever classified — exactly the budget spent.
    pub budget_spent: u64,
    /// `(1 − target) · total − budget_spent`: negative when overdrawn.
    pub budget_remaining: f64,
    /// Burn rates as of the last [`SloEngine::evaluate`].
    pub fast_burn: f64,
    /// Slow-window burn rate as of the last evaluation.
    pub slow_burn: f64,
    /// Whether the scope is currently in breach.
    pub breached: bool,
}

#[derive(Debug, Default)]
struct ScopeState {
    /// `(time, good)` events inside the slow window, time-ordered.
    events: VecDeque<(f64, bool)>,
    total: u64,
    bad: u64,
    fast_burn: f64,
    slow_burn: f64,
    breached: bool,
}

/// Evaluates a set of [`SloSpec`]s over scoped event windows.
#[derive(Debug)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    /// Keyed `(spec index, scope key)`; `BTreeMap` for deterministic
    /// iteration in `evaluate` and `rows`.
    scopes: BTreeMap<(usize, String), ScopeState>,
}

impl SloEngine {
    /// An engine over `specs` with no events yet.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        SloEngine {
            specs,
            scopes: BTreeMap::new(),
        }
    }

    /// The configured objectives.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Classifies `obs` under `spec`: `Some(good)` when counted.
    fn classify(spec: &SloSpec, obs: &FoldObservation) -> Option<bool> {
        match (spec.kind, obs.outcome) {
            (
                SloKind::DeadlineHitRate,
                ObservedOutcome::Completed {
                    latency_seconds,
                    deadline_seconds,
                    ..
                },
            ) => Some(latency_seconds <= deadline_seconds),
            (SloKind::DeadlineHitRate, _) => Some(false),
            (
                SloKind::P99Latency,
                ObservedOutcome::Completed {
                    latency_seconds, ..
                },
            ) => Some(latency_seconds <= spec.threshold_seconds),
            (SloKind::DegradationRate, ObservedOutcome::Completed { degraded, .. }) => {
                Some(!degraded)
            }
            (SloKind::AccuracyRmse, ObservedOutcome::Completed { worst_rmse, .. }) => {
                Some(worst_rmse <= spec.threshold_rmse)
            }
            // Latency, precision and accuracy objectives are conditioned
            // on completion; non-completions are the deadline SLO's
            // problem.
            (SloKind::P99Latency | SloKind::DegradationRate | SloKind::AccuracyRmse, _) => None,
        }
    }

    /// Feeds one terminal outcome into every objective and scope it
    /// matches. O(specs × scopes) with tiny constants; events must arrive
    /// in non-decreasing virtual time (the engine's event loop guarantees
    /// this).
    pub fn observe(&mut self, obs: &FoldObservation) {
        let mut scope_keys: Vec<String> = vec!["global".to_string()];
        if let Some(shard) = obs.shard {
            scope_keys.push(format!("shard:{shard}"));
        }
        scope_keys.push(format!("bucket:{}", length_bucket_label(obs.length)));
        for (i, spec) in self.specs.iter().enumerate() {
            let Some(good) = Self::classify(spec, obs) else {
                continue;
            };
            for key in &scope_keys {
                let state = self.scopes.entry((i, key.clone())).or_default();
                state.events.push_back((obs.at_seconds, good));
                state.total += 1;
                if !good {
                    state.bad += 1;
                }
            }
        }
    }

    /// Prunes windows, recomputes burn rates, refreshes the
    /// `watch_slo_burn_rate` / `watch_error_budget_remaining` gauges in
    /// `registry`, and returns newly fired (edge-triggered) breaches.
    pub fn evaluate(&mut self, now: f64, registry: &Registry) -> Vec<Breach> {
        let mut breaches = Vec::new();
        for ((spec_idx, scope), state) in &mut self.scopes {
            let spec = &self.specs[*spec_idx];
            while let Some(&(t, _)) = state.events.front() {
                if t < now - spec.slow_window_seconds {
                    state.events.pop_front();
                } else {
                    break;
                }
            }
            let budget = 1.0 - spec.target;
            let (mut slow_total, mut slow_bad) = (0u64, 0u64);
            let (mut fast_total, mut fast_bad) = (0u64, 0u64);
            let fast_cutoff = now - spec.fast_window_seconds;
            for &(t, good) in &state.events {
                slow_total += 1;
                slow_bad += u64::from(!good);
                if t >= fast_cutoff {
                    fast_total += 1;
                    fast_bad += u64::from(!good);
                }
            }
            let burn = |bad: u64, total: u64| {
                if total == 0 {
                    0.0
                } else {
                    (bad as f64 / total as f64) / budget
                }
            };
            state.fast_burn = burn(fast_bad, fast_total);
            state.slow_burn = burn(slow_bad, slow_total);
            let labels = |window| {
                labeled(
                    "watch_slo_burn_rate",
                    &[("slo", &spec.name), ("scope", scope), ("window", window)],
                )
            };
            registry.gauge(&labels("fast")).set(state.fast_burn);
            registry.gauge(&labels("slow")).set(state.slow_burn);
            registry
                .gauge(&labeled(
                    "watch_error_budget_remaining",
                    &[("slo", &spec.name), ("scope", scope)],
                ))
                .set(budget * state.total as f64 - state.bad as f64);
            let burning = state.fast_burn >= spec.burn_threshold
                && state.slow_burn >= spec.burn_threshold
                && fast_total >= spec.min_events;
            if burning && !state.breached {
                state.breached = true;
                registry.counter("watch_slo_breaches_total").inc();
                breaches.push(Breach {
                    slo: spec.name.clone(),
                    scope: scope.clone(),
                    fast_burn: state.fast_burn,
                    slow_burn: state.slow_burn,
                    at_seconds: now,
                });
            } else if !burning && state.breached && state.fast_burn < spec.burn_threshold {
                // Recovery: the fast window cooled down below threshold.
                state.breached = false;
            }
        }
        breaches
    }

    /// The largest fast-window burn rate across objectives for one scope
    /// key (health scoring input); 0 when the scope has no events.
    pub(crate) fn max_fast_burn(&self, scope: &str) -> f64 {
        self.scopes
            .iter()
            .filter(|((_, s), _)| s == scope)
            .map(|(_, state)| state.fast_burn)
            .fold(0.0, f64::max)
    }

    /// Budget accounting for every `(slo, scope)` pair, in deterministic
    /// order. `budget_spent` is exactly the count of bad events — the
    /// invariant the golden test pins.
    pub fn rows(&self) -> Vec<BudgetRow> {
        self.scopes
            .iter()
            .map(|((spec_idx, scope), state)| {
                let spec = &self.specs[*spec_idx];
                BudgetRow {
                    slo: spec.name.clone(),
                    scope: scope.clone(),
                    total: state.total,
                    budget_spent: state.bad,
                    budget_remaining: (1.0 - spec.target) * state.total as f64 - state.bad as f64,
                    fast_burn: state.fast_burn,
                    slow_burn: state.slow_burn,
                    breached: state.breached,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(at: f64, latency: f64) -> FoldObservation {
        FoldObservation {
            shard: Some(0),
            length: 512,
            at_seconds: at,
            outcome: ObservedOutcome::Completed {
                latency_seconds: latency,
                deadline_seconds: 10.0,
                degraded: false,
                worst_rmse: 0.0,
            },
        }
    }

    fn failed(at: f64) -> FoldObservation {
        FoldObservation {
            shard: Some(0),
            length: 512,
            at_seconds: at,
            outcome: ObservedOutcome::Failed,
        }
    }

    #[test]
    fn burn_rate_is_error_rate_over_budget() {
        let mut eng = SloEngine::new(vec![SloSpec::deadline_hit_rate("deadline", 0.9)]);
        let reg = Registry::new();
        // 2 bad out of 10 → error rate 0.2, budget 0.1 → burn 2.0.
        for i in 0..8 {
            eng.observe(&complete(i as f64, 1.0));
        }
        eng.observe(&failed(8.0));
        eng.observe(&failed(9.0));
        let breaches = eng.evaluate(10.0, &reg);
        let rows = eng.rows();
        let global = rows.iter().find(|r| r.scope == "global").unwrap();
        assert!((global.fast_burn - 2.0).abs() < 1e-12);
        assert_eq!(global.budget_spent, 2);
        assert!((global.budget_remaining - 1.0 * 0.1 * 10.0 + 2.0).abs() < 1e-9);
        assert_eq!(breaches.len(), 3, "global + shard:0 + bucket scopes");
        // Edge-triggered: a second evaluate with no new events re-fires
        // nothing.
        assert!(eng.evaluate(11.0, &reg).is_empty());
    }

    #[test]
    fn fast_window_recovers_and_rearms() {
        let spec = SloSpec {
            min_events: 4,
            ..SloSpec::deadline_hit_rate("deadline", 0.5)
        };
        let mut eng = SloEngine::new(vec![spec]);
        let reg = Registry::new();
        for i in 0..4 {
            eng.observe(&failed(i as f64));
        }
        assert_eq!(eng.evaluate(4.0, &reg).len(), 3, "breach fires per scope");
        // 400 s later the fast window (300 s) is empty → burn 0 → recovered.
        assert!(eng.evaluate(404.0, &reg).is_empty());
        assert!(eng.rows().iter().all(|r| !r.breached));
        // A fresh burst re-fires.
        for i in 0..4 {
            eng.observe(&failed(500.0 + i as f64));
        }
        assert_eq!(eng.evaluate(504.0, &reg).len(), 3);
    }

    #[test]
    fn accuracy_budget_classifies_on_worst_rmse() {
        let mut eng = SloEngine::new(vec![SloSpec::accuracy_rmse("accuracy", 0.05, 0.9)]);
        let reg = Registry::new();
        let mut obs = complete(0.0, 1.0);
        // Within budget: INT8-grade numerics.
        obs.outcome = ObservedOutcome::Completed {
            latency_seconds: 1.0,
            deadline_seconds: 10.0,
            degraded: true,
            worst_rmse: 0.004,
        };
        eng.observe(&obs);
        // Over budget: INT4 numerics past the 0.05 threshold.
        obs.at_seconds = 1.0;
        obs.outcome = ObservedOutcome::Completed {
            latency_seconds: 1.0,
            deadline_seconds: 10.0,
            degraded: true,
            worst_rmse: 0.08,
        };
        eng.observe(&obs);
        // Non-completions don't count.
        eng.observe(&failed(2.0));
        eng.evaluate(3.0, &reg);
        let rows = eng.rows();
        let acc = rows
            .iter()
            .find(|r| r.slo == "accuracy" && r.scope == "global")
            .unwrap();
        assert_eq!(acc.total, 2);
        assert_eq!(acc.budget_spent, 1);
    }

    #[test]
    fn latency_and_degradation_ignore_non_completions() {
        let mut eng = SloEngine::new(vec![
            SloSpec::p99_latency("p99", 5.0, 0.9),
            SloSpec::degradation_rate("precision", 0.8),
        ]);
        let reg = Registry::new();
        eng.observe(&failed(0.0));
        eng.observe(&complete(1.0, 6.0)); // over the 5 s threshold
        eng.evaluate(2.0, &reg);
        let rows = eng.rows();
        let p99 = rows
            .iter()
            .find(|r| r.slo == "p99" && r.scope == "global")
            .unwrap();
        assert_eq!(p99.total, 1, "the failure was not counted");
        assert_eq!(p99.budget_spent, 1);
        let prec = rows
            .iter()
            .find(|r| r.slo == "precision" && r.scope == "global")
            .unwrap();
        assert_eq!(prec.total, 1);
        assert_eq!(prec.budget_spent, 0);
    }
}
