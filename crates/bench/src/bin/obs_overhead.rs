//! Overhead microbenchmark for the ln-obs instrumentation primitives, and
//! the one gate on what observability costs when it is off.
//!
//! Two questions decide whether instrumentation may sit on hot paths:
//!
//! 1. What does one *enabled* event cost (counter add, gauge set, histogram
//!    record, traced span)?
//! 2. What does the instrumentation cost under `LN_OBS=off`, relative to
//!    the same code without it? The contract is "one relaxed atomic load
//!    or branch, no allocation", so every off-mode path must stay within
//!    `OFF_BUDGET_PCT` of its bare loop. The off-mode table covers each
//!    path the budget protects: a gated ln-obs counter plus the serving hot
//!    path's branch on an unattached ln-watch (the production default),
//!    and the ln-scope `ScopeHook` wrapped around the paper's AAQ hook.
//!
//! The full run writes `BENCH_OBS.json` at the repo root; `--quick`
//! (ci.sh step 6) runs smaller iteration counts and writes nothing. Both
//! exit non-zero if any off-mode row is over budget.

use std::hint::black_box;
use std::sync::Arc;

use ln_bench::{
    banner, emit, mix, off_mode_cost, paper_note, probe_tap, show, spiky_activation, time_best,
    OffCost, OFF_BUDGET_PCT,
};
use ln_insight::json::{obj, Value};
use ln_obs::{ArgValue, ObsLevel, TraceEvent, TracePhase, Tracer, WallClock};
use ln_ppm::taps::ActivationHook;
use ln_scope::ScopeHook;
use ln_watch::{Watch, WatchHandle};

use lightnobel::hook::AaqHook;
use lightnobel::report::Table;

struct EventCost {
    event: &'static str,
    level: &'static str,
    ns_per_op: f64,
}

/// One row of the off-mode table: an instrumented loop against its bare
/// twin, each timed per `per`.
struct OffRow {
    instrumentation: &'static str,
    per: &'static str,
    cost: OffCost,
}

/// A gated counter and the engine's `Option` branch on an unattached
/// watch, inside a compute loop: the serving hot path as it runs in
/// production.
fn off_counter_and_watch(iters: u64, reps: usize) -> OffRow {
    ln_obs::set_level(ObsLevel::Off);
    let counter = ln_obs::registry().counter("obs_overhead_off_probe");
    let watch: Option<WatchHandle> = None;
    let cost = off_mode_cost(
        reps,
        iters,
        |n| {
            let mut acc = 0x5EED_u64;
            for i in 0..n {
                acc = mix(acc ^ black_box(i));
            }
            acc
        },
        |n| {
            let mut acc = 0x5EED_u64;
            for i in 0..n {
                acc = mix(acc ^ black_box(i));
                counter.add(1);
                if let Some(w) = black_box(&watch) {
                    Watch::lock(w).record_event(TraceEvent {
                        name: "obs_overhead_probe".to_string(),
                        cat: "bench",
                        phase: TracePhase::Instant,
                        ts_nanos: i,
                        track: 0,
                        args: vec![("id", ArgValue::U64(i))],
                    });
                }
            }
            acc
        },
    );
    OffRow {
        instrumentation: "counter+watch_branch",
        per: "iter",
        cost,
    }
}

/// A bare `AaqHook` versus the same hook inside a `ScopeHook`: the wrapper
/// must cost one level check per tap, next to a tap that quantizes a
/// 16 × 128 activation.
fn off_scope_hook(iters: u64, reps: usize) -> OffRow {
    ln_obs::set_level(ObsLevel::Off);
    let mut bare = AaqHook::paper();
    let mut scoped = ScopeHook::new(AaqHook::paper(), 128);
    // One activation for both sides, so that where the allocator placed it
    // cannot favour one of them.
    let x = std::cell::RefCell::new(spiky_activation());
    let cost = off_mode_cost(
        reps,
        iters,
        |n| {
            let x = &mut *x.borrow_mut();
            for i in 0..n {
                bare.on_activation(probe_tap(i), black_box(&mut *x));
            }
            n
        },
        |n| {
            let x = &mut *x.borrow_mut();
            for i in 0..n {
                scoped.on_activation(probe_tap(i), black_box(&mut *x));
            }
            n
        },
    );
    assert!(
        scoped.book().is_empty(),
        "off mode must not populate the sketches"
    );
    OffRow {
        instrumentation: "scope_hook",
        per: "tap",
        cost,
    }
}

fn bench_enabled_events(iters: u64, reps: usize) -> Vec<EventCost> {
    let mut out = Vec::new();
    let reg = ln_obs::registry();

    ln_obs::set_level(ObsLevel::Counters);
    let counter = reg.counter("obs_overhead_counter");
    out.push(EventCost {
        event: "counter_add",
        level: "counters",
        ns_per_op: time_best(reps, iters, |n| {
            for _ in 0..n {
                counter.add(1);
            }
            counter.get()
        }),
    });
    let gauge = reg.gauge("obs_overhead_gauge");
    out.push(EventCost {
        event: "gauge_set",
        level: "counters",
        ns_per_op: time_best(reps, iters, |n| {
            for i in 0..n {
                gauge.set(i as f64);
            }
            n
        }),
    });
    let hist = reg.histogram("obs_overhead_histogram");
    out.push(EventCost {
        event: "histogram_record",
        level: "counters",
        ns_per_op: time_best(reps, iters, |n| {
            for i in 0..n {
                hist.record(i);
            }
            n
        }),
    });

    // Span cost with tracing live: a dedicated ring so the global tracer
    // stays clean; eviction past the capacity is part of the steady state.
    let tracer = Tracer::forced(Arc::new(WallClock::new()), 4096);
    out.push(EventCost {
        event: "span_guard",
        level: "trace",
        ns_per_op: time_best(reps, iters, |n| {
            for _ in 0..n {
                let _g = tracer.span("obs_overhead", "bench", 0);
            }
            tracer.len() as u64
        }),
    });

    // Span call sites below the trace level: must collapse to a branch.
    ln_obs::set_level(ObsLevel::Counters);
    let global = ln_obs::tracer();
    out.push(EventCost {
        event: "span_guard",
        level: "counters",
        ns_per_op: time_best(reps, iters, |n| {
            for _ in 0..n {
                let _g = global.span("obs_overhead", "bench", 0);
            }
            global.len() as u64
        }),
    });
    out
}

fn document(events: &[EventCost], off: &[OffRow]) -> Value {
    let events = events.iter().map(|e| {
        obj([
            ("event", Value::Str(e.event.to_owned())),
            ("level", Value::Str(e.level.to_owned())),
            ("ns_per_op", Value::Float(e.ns_per_op)),
        ])
    });
    let off = off.iter().map(|r| {
        obj([
            ("instrumentation", Value::Str(r.instrumentation.to_owned())),
            ("per", Value::Str(r.per.to_owned())),
            ("baseline_ns", Value::Float(r.cost.baseline_ns)),
            ("gated_ns", Value::Float(r.cost.gated_ns)),
            ("delta_pct", Value::Float(r.cost.delta_pct)),
        ])
    });
    obj([
        ("bench", Value::Str("obs_overhead".to_owned())),
        ("off_budget_pct", Value::Float(OFF_BUDGET_PCT)),
        ("off_mode", Value::Arr(off.collect())),
        ("events", Value::Arr(events.collect())),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner(if quick {
        "obs_overhead --quick — off-mode cost gate (ln-obs, ln-watch, ln-scope)"
    } else {
        "obs_overhead — per-event cost of the ln-obs primitives, off-mode cost"
    });
    paper_note(
        "instrumentation must not perturb what it measures: the LN_OBS=off \
         path is one relaxed atomic load or branch, so the simulator's \
         reported latencies stay valid with observability compiled in",
    );

    let (iters, reps) = if quick { (200_000, 7) } else { (2_000_000, 9) };
    // The off-mode rows take the median of many short interleaved pairs
    // (`off_mode_cost`): at 500 taps × 15 reps, best rep per side, two
    // runs of the `scope_hook` row on one host read −2.45 % and +0.81 %;
    // at these counts ten back-to-back runs read −0.35 … +0.77 %.
    let off_reps = if quick { 201 } else { 401 };
    let events = bench_enabled_events(iters, reps);
    let off = [
        off_counter_and_watch(20_000, off_reps),
        off_scope_hook(500, off_reps),
    ];

    let mut t = Table::new(["event", "level", "ns/op"]);
    for e in &events {
        t.add_row([
            e.event.to_string(),
            e.level.to_string(),
            format!("{:.2}", e.ns_per_op),
        ]);
    }
    show(&t);
    let mut t = Table::new(["LN_OBS=off", "per", "baseline ns", "gated ns", "delta"]);
    for r in &off {
        t.add_row([
            r.instrumentation.to_string(),
            r.per.to_string(),
            format!("{:.2}", r.cost.baseline_ns),
            format!("{:.2}", r.cost.gated_ns),
            format!("{:+.2}%", r.cost.delta_pct),
        ]);
    }
    show(&t);

    let over: Vec<&OffRow> = off.iter().filter(|r| r.cost.over_budget()).collect();
    for r in &over {
        eprintln!(
            "REGRESSION: LN_OBS=off {} adds {:.2}% to its bare loop (budget {OFF_BUDGET_PCT:.1}%)",
            r.instrumentation, r.cost.delta_pct
        );
    }
    if !over.is_empty() {
        std::process::exit(1);
    }
    emit("BENCH_OBS.json", &document(&events, &off), quick);
    println!("off-mode overhead within budget ({OFF_BUDGET_PCT:.1}%) on every row");
}
