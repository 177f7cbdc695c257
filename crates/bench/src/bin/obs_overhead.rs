//! Overhead microbenchmark for the ln-obs instrumentation primitives.
//!
//! Two questions decide whether the registry may sit on hot paths:
//!
//! 1. What does one *enabled* event cost (counter add, gauge set, histogram
//!    record, traced span)?
//! 2. What does a *disabled* (`LN_OBS=off`) event cost relative to
//!    uninstrumented code? The contract is "one relaxed atomic load, no
//!    allocation", so a gated counter inside a realistic compute loop must
//!    stay within a few percent of the bare loop.
//!
//! The full run writes `BENCH_OBS.json` at the repo root; `--quick` runs a
//! smaller iteration count and exits non-zero if the off-mode delta exceeds
//! `OFF_BUDGET_PCT` — the tier-1 regression gate for observability cost.

use std::hint::black_box;
use std::sync::Arc;

use ln_bench::{
    banner, emit, mix, off_mode_cost, paper_note, show, time_best, OffCost, OFF_BUDGET_PCT,
};
use ln_insight::json::{obj, Value};
use ln_obs::{ObsLevel, Tracer, WallClock};

use lightnobel::report::Table;

struct EventCost {
    event: &'static str,
    level: &'static str,
    ns_per_op: f64,
}

fn bench_off_delta(iters: u64, reps: usize) -> OffCost {
    ln_obs::set_level(ObsLevel::Off);
    let counter = ln_obs::registry().counter("obs_overhead_off_probe");
    off_mode_cost(
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
            }
            acc
        },
    )
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

fn document(events: &[EventCost], off: OffCost) -> Value {
    let events = events.iter().map(|e| {
        obj([
            ("event", Value::Str(e.event.to_owned())),
            ("level", Value::Str(e.level.to_owned())),
            ("ns_per_op", Value::Float(e.ns_per_op)),
        ])
    });
    obj([
        ("bench", Value::Str("obs_overhead".to_owned())),
        ("off_budget_pct", Value::Float(OFF_BUDGET_PCT)),
        (
            "off_mode",
            obj([
                ("baseline_ns_per_iter", Value::Float(off.baseline_ns)),
                ("gated_ns_per_iter", Value::Float(off.gated_ns)),
                ("delta_pct", Value::Float(off.delta_pct)),
            ]),
        ),
        ("events", Value::Arr(events.collect())),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner(if quick {
        "obs_overhead --quick — off-mode cost gate (ln-obs)"
    } else {
        "obs_overhead — per-event cost of the ln-obs primitives"
    });
    paper_note(
        "instrumentation must not perturb what it measures: the LN_OBS=off \
         path is one relaxed atomic load, so the simulator's reported \
         latencies stay valid with observability compiled in",
    );

    let (iters, reps) = if quick { (200_000, 7) } else { (2_000_000, 9) };

    let events = bench_enabled_events(iters, reps);
    let off = bench_off_delta(iters, reps);

    let mut t = Table::new(["event", "level", "ns/op"]);
    for e in &events {
        t.add_row([
            e.event.to_string(),
            e.level.to_string(),
            format!("{:.2}", e.ns_per_op),
        ]);
    }
    show(&t);
    println!(
        "off-mode: baseline {:.2} ns/iter, gated counter {:.2} ns/iter, \
         delta {:+.2}% (budget {OFF_BUDGET_PCT:.1}%)",
        off.baseline_ns, off.gated_ns, off.delta_pct
    );

    emit("BENCH_OBS.json", &document(&events, off), quick);
    if off.over_budget() {
        eprintln!(
            "REGRESSION: LN_OBS=off adds {:.2}% to the baseline loop \
             (budget {OFF_BUDGET_PCT:.1}%)",
            off.delta_pct
        );
        std::process::exit(1);
    }
    println!("off-mode overhead within budget");
}
