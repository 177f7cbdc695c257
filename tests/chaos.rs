//! Chaos acceptance test for the resilience layer (ISSUE 3).
//!
//! Under the golden scenario's seeded plan ([`GoldenChaos`]) injecting
//! backend stalls, transient compute errors, HBM capacity pressure, a
//! queue poison and a worker panic:
//!
//! 1. every submitted request terminates with a definite [`FoldOutcome`]
//!    (no hangs, no lost responses),
//! 2. the run is bitwise-reproducible for a fixed seed across `ln-par`
//!    pool sizes 1/2/4, and
//! 3. at least one long-sequence request completes via the INT4
//!    precision-degradation path, visible in
//!    `ServeStats::resilience_tables()`.

use ln_quant::ActPrecision;
use ln_serve::fault::GoldenChaos;
use ln_serve::{EngineOutcome, FoldOutcome, FoldRequest};

/// One run of the golden chaos scenario on an `ln-par` pool of `threads`
/// executors.
fn run_chaos(threads: usize) -> (Vec<FoldRequest>, EngineOutcome) {
    run_chaos_traced(threads, false)
}

/// [`run_chaos`], with the engine's virtual-time tracing forced on or left
/// to the process level.
fn run_chaos_traced(threads: usize, traced: bool) -> (Vec<FoldRequest>, EngineOutcome) {
    let pool = ln_par::Pool::new_exact(threads);
    ln_par::with_pool(&pool, || {
        let scenario = GoldenChaos::new("chaos/acceptance", 120);
        assert!(
            scenario.plan.dispatch_fault_count() > 0,
            "spec must schedule faults"
        );
        let mut engine = scenario.engine();
        if traced {
            engine.set_tracing(true);
        }
        let out = engine.run(&scenario.workload);
        (scenario.workload, out)
    })
}

#[test]
fn every_request_terminates_with_a_definite_outcome() {
    let (workload, out) = run_chaos(1);

    let mut expected: Vec<u64> = workload.iter().map(|r| r.id).collect();
    let mut answered: Vec<u64> = out.responses.iter().map(|r| r.id).collect();
    expected.sort_unstable();
    answered.sort_unstable();
    assert_eq!(
        answered, expected,
        "every submitted request must receive exactly one response"
    );

    // The plan actually bit: stalls, transients, the worker panic and the
    // queue poison all manifested, and retries fired.
    let res = &out.stats.resilience;
    let stalls: u64 = res.backends.iter().map(|b| b.stalls).sum();
    let transients: u64 = res.backends.iter().map(|b| b.transients).sum();
    let panics: u64 = res.backends.iter().map(|b| b.panics).sum();
    assert!(stalls > 0, "seeded stalls should manifest");
    assert!(transients > 0, "seeded transients should manifest");
    assert_eq!(panics, 1, "exactly one worker panic was scheduled");
    assert_eq!(res.poison_events, 1, "the queue poison should fire");
    assert!(res.retries > 0, "failed batches should be retried");
    assert!(
        out.stats.availability() > 0.5,
        "the pool must stay mostly available under this plan: {}",
        out.stats.availability()
    );
}

#[test]
fn fixed_seed_is_bitwise_reproducible_across_pool_sizes() {
    let (_, base) = run_chaos(1);
    for threads in [2usize, 4] {
        let (_, other) = run_chaos(threads);
        assert_eq!(
            base.stats.fingerprint(),
            other.stats.fingerprint(),
            "pool size {threads} changed the schedule fingerprint"
        );
        assert_eq!(base.stats, other.stats, "pool size {threads}");
        assert_eq!(base.responses, other.responses, "pool size {threads}");
    }
}

#[test]
fn long_sequence_completes_via_int4_degradation() {
    let (workload, out) = run_chaos(1);
    // The scenario appends the giant request last.
    let giant_id = workload.last().expect("giant request present").id;
    let giant = out
        .responses
        .iter()
        .find(|r| r.id == giant_id)
        .expect("giant request answered");
    match &giant.outcome {
        FoldOutcome::Completed {
            backend, precision, ..
        } => {
            assert_eq!(backend, "LightNobel");
            assert_eq!(
                *precision,
                ActPrecision::Int4,
                "pressure should force the route down to INT4"
            );
        }
        other => panic!("giant request should complete degraded, got {other:?}"),
    }
    assert!(giant.outcome.is_degraded());

    // … and the degradation is visible in the resilience report.
    assert!(out.stats.resilience.backends[0].degraded_int4 >= 1);
    assert!(out.stats.resilience.degraded_batches() >= 1);
    let (per_backend, summary) = out.stats.resilience_tables();
    let rendered = format!("{}{}", per_backend.render(), summary.render());
    assert!(
        rendered.contains("LightNobel"),
        "per-backend table lists the degraded backend:\n{rendered}"
    );
    assert!(
        rendered.contains("availability"),
        "summary table reports availability:\n{rendered}"
    );
}

/// Responses per outcome class: completed, rejected, timed out, failed.
fn outcome_classes(out: &EngineOutcome) -> [usize; 4] {
    let mut classes = [0usize; 4];
    for r in &out.responses {
        classes[match r.outcome {
            FoldOutcome::Completed { .. } => 0,
            FoldOutcome::Rejected(_) => 1,
            FoldOutcome::TimedOut { .. } => 2,
            FoldOutcome::Failed(_) => 3,
        }] += 1;
    }
    classes
}

#[test]
fn engine_schedule_stats_and_trace_are_pinned() {
    // Absolute values, recorded at commit d924d36 (before the scheduler
    // core was split out of the engine): every other test here compares the
    // engine to a re-run of itself, so only this one sees the schedule, the
    // statistics or the trace's event order move.
    const FINGERPRINT: u64 = 0x71e2_fb53_32cc_f3cd;
    const CLASSES: [usize; 4] = [121, 0, 0, 0];
    const TRACE_EVENTS: usize = 312;
    const TRACE_JSON_FNV1A: u64 = 0x6e40_6e20_4729_e943;

    let (_, plain) = run_chaos(1);
    let (_, traced) = run_chaos_traced(1, true);
    let trace = traced.trace.as_ref().expect("tracing forced on");
    let json_hash = ln_tensor::rng::seed_from_label(&ln_obs::chrome_trace_json(trace));
    for out in [&plain, &traced] {
        assert_eq!(out.stats.fingerprint(), FINGERPRINT);
        assert_eq!(outcome_classes(out), CLASSES);
    }
    assert_eq!(traced.trace_dropped, 0);
    assert_eq!(trace.len(), TRACE_EVENTS);
    assert_eq!(json_hash, TRACE_JSON_FNV1A);
}
