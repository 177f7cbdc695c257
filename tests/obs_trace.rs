//! Golden acceptance test for deterministic tracing (ln-obs).
//!
//! A seeded chaos run of the virtual-time `ln_serve::Engine` with tracing enabled
//! must emit a Chrome-trace JSON document that is **byte-identical** across
//! `ln-par` pool sizes 1/2/4: every event timestamp derives from the
//! virtual schedule, never from wall time, so host parallelism cannot
//! perturb the trace. The same trace must cover the full event vocabulary —
//! queue, dispatch, kernel, retry, fault and degradation spans.

use ln_obs::TraceEvent;
use ln_serve::fault::GoldenChaos;

/// One traced run of the golden chaos scenario on an `ln-par` pool of
/// `threads` executors, returning the raw events, their Chrome-trace
/// rendering, and the tracer's eviction count. The `insight` bin's
/// dashboard describes the same run.
fn traced_run(threads: usize) -> (Vec<TraceEvent>, String, u64) {
    let pool = ln_par::Pool::new_exact(threads);
    ln_par::with_pool(&pool, || {
        let scenario = GoldenChaos::new("obs/trace-workload", 120);
        let mut engine = scenario.engine();
        engine.set_tracing(true);
        let out = engine.run(&scenario.workload);
        let events = out.trace.expect("tracing was enabled");
        let json = ln_obs::chrome_trace_json(&events);
        (events, json, out.trace_dropped)
    })
}

#[test]
fn chrome_trace_is_byte_identical_across_pool_sizes() {
    let (events, base, dropped) = traced_run(1);
    assert!(!events.is_empty(), "a chaos run must emit trace events");
    assert_eq!(dropped, 0, "the golden trace must fit the ring");
    for threads in [2usize, 4] {
        let (_, other, _) = traced_run(threads);
        assert_eq!(
            base, other,
            "pool size {threads} perturbed the Chrome-trace JSON"
        );
    }

    // The golden trace covers the whole event vocabulary of the serve loop.
    for cat in [
        "queue",
        "dispatch",
        "kernel",
        "retry",
        "fault",
        "degradation",
    ] {
        assert!(
            events.iter().any(|e| e.cat == cat),
            "no {cat:?} span in the golden trace"
        );
    }
    for name in ["enqueue", "fold_batch", "queue_wait"] {
        assert!(
            events.iter().any(|e| e.name == name),
            "no {name:?} event in the golden trace"
        );
    }

    // Well-formed, loadable Chrome-trace document.
    assert!(base.starts_with("{\"traceEvents\":["));
    assert!(base.ends_with("}"));
}

#[test]
fn insight_summary_is_byte_identical_across_pool_sizes() {
    let (events, _, dropped) = traced_run(1);
    let base = ln_insight::CriticalPath::analyze(&events, dropped);
    assert!(
        base.unattributed.is_empty(),
        "the critical-path replay must place every engine span: {:?}",
        base.unattributed
    );
    assert!(!base.truncated, "the golden trace must be complete");
    assert!(!base.requests.is_empty());
    let base_md = base.render_markdown();
    for threads in [2usize, 4] {
        let (events, _, dropped) = traced_run(threads);
        let other = ln_insight::CriticalPath::analyze(&events, dropped).render_markdown();
        assert_eq!(
            base_md, other,
            "pool size {threads} perturbed the insight critical-path summary"
        );
    }
}
