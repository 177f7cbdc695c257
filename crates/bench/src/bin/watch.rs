//! Cost and fidelity benchmark for the ln-watch live-observability layer.
//!
//! Three sections:
//!
//! 1. **Per-event overhead** — what one watch touch costs on the serving
//!    hot path: the `LN_OBS=off` configuration with *no watch attached*
//!    (an `Option` branch plus one gated counter — the production default,
//!    gated at `OFF_BUDGET_PCT`), feeding the always-on flight recorder,
//!    and classifying an outcome through the SLO engine.
//! 2. **Burn-rate fixtures** — deterministic SLO-engine workloads (steady
//!    traffic, a failure burst, burst-then-recovery) timing `evaluate()`
//!    over populated scope windows and pinning the breach counts.
//! 3. **Memory vs length** — the modeled peak-activation watermark table
//!    over the paper-configuration LightNobel backend, asserting the
//!    FP32→INT8→INT4 reduction is monotone at L ≥ 1024 (the paper's
//!    Fig. 15 claim, live-telemetry edition).
//!
//! The full run writes `BENCH_WATCH.json` at the repo root; `--quick` runs
//! a smaller iteration count and exits non-zero on an off-mode or
//! monotonicity violation.

use std::hint::black_box;

use ln_bench::{
    banner, emit, mix, off_mode_cost, paper_note, show, time_best, OffCost, OFF_BUDGET_PCT,
};
use ln_insight::json::{obj, Value};
use ln_obs::{ArgValue, ObsLevel, Registry, TraceEvent, TracePhase};
use ln_quant::ActPrecision;
use ln_scope::length_bucket_label;
use ln_serve::{Backend, LightNobelBackend};
use ln_watch::{
    FoldObservation, ObservedOutcome, SloEngine, SloSpec, Watch, WatchConfig, WatchHandle,
    WatermarkTracker,
};

use lightnobel::report::Table;

struct OverheadRow {
    mode: &'static str,
    ns_per_event: f64,
}

struct BurnRow {
    fixture: &'static str,
    evaluate_ns: f64,
    breaches: u64,
}

struct MemoryRow {
    bucket: &'static str,
    precision: &'static str,
    max_bytes: f64,
}

/// `LN_OBS=off`, no watch attached: the engine hot path is an `Option`
/// branch plus one gated counter per event. This is the configuration the
/// ≤5% budget protects.
fn bench_off_mode(iters: u64, reps: usize) -> OffCost {
    ln_obs::set_level(ObsLevel::Off);
    let counter = ln_obs::registry().counter("watch_bench_off_probe");
    let watch: Option<WatchHandle> = None;
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
                if let Some(w) = black_box(&watch) {
                    Watch::lock(w).record_event(probe_event(i));
                }
            }
            acc
        },
    )
}

fn probe_event(i: u64) -> TraceEvent {
    TraceEvent {
        name: "watch_bench_probe".to_string(),
        cat: "bench",
        phase: TracePhase::Instant,
        ts_nanos: i,
        track: 0,
        args: vec![("id", ArgValue::U64(i))],
    }
}

/// Absolute per-event cost of feeding the always-on flight recorder
/// (lock + event construction + ring push) and of one SLO classification.
fn bench_watch_events(iters: u64, reps: usize) -> Vec<OverheadRow> {
    ln_obs::set_level(ObsLevel::Off);
    let mut out = Vec::new();

    let handle = Watch::handle(WatchConfig::default());
    out.push(OverheadRow {
        mode: "recorder",
        ns_per_event: time_best(reps, iters, |n| {
            for i in 0..n {
                Watch::lock(&handle).record_event(probe_event(i));
            }
            n
        }),
    });

    let obs_handle = Watch::handle(WatchConfig::default());
    out.push(OverheadRow {
        mode: "observe",
        ns_per_event: time_best(reps, iters, |n| {
            for i in 0..n {
                Watch::lock(&obs_handle).observe(&FoldObservation {
                    shard: Some((i % 4) as usize),
                    length: 512 + (i % 4) as usize * 512,
                    at_seconds: i as f64 * 1e-3,
                    outcome: ObservedOutcome::Completed {
                        latency_seconds: 1.0,
                        deadline_seconds: 10.0,
                        degraded: false,
                        worst_rmse: 0.0,
                    },
                });
            }
            n
        }),
    });
    out
}

/// One deterministic SLO-engine fixture: `observations` pre-loaded, then
/// breaches counted from a single evaluation pass and `evaluate()` timed
/// in steady state.
fn burn_fixture(
    fixture: &'static str,
    observations: &[FoldObservation],
    eval_at: &[f64],
    iters: u64,
    reps: usize,
) -> BurnRow {
    let specs = || {
        vec![
            SloSpec {
                min_events: 4,
                burn_threshold: 1.0,
                ..SloSpec::deadline_hit_rate("deadline", 0.9)
            },
            SloSpec::p99_latency("p99_latency", 60.0, 0.99),
            SloSpec::degradation_rate("precision", 0.8),
        ]
    };
    // Breach count from a fresh engine: deterministic, independent of the
    // timing loop's repeated evaluations.
    let reg = Registry::new();
    let mut engine = SloEngine::new(specs());
    let mut breaches = 0u64;
    let mut obs_iter = observations.iter().peekable();
    for &at in eval_at {
        while let Some(o) = obs_iter.peek() {
            if o.at_seconds <= at {
                engine.observe(obs_iter.next().unwrap());
            } else {
                break;
            }
        }
        breaches += engine.evaluate(at, &reg).len() as u64;
    }

    // Steady-state evaluate cost over the fully populated engine.
    let last = eval_at.last().copied().unwrap_or(0.0);
    let evaluate_ns = time_best(reps, iters, |n| {
        for i in 0..n {
            black_box(engine.evaluate(last + i as f64 * 1e-3, &reg));
        }
        n
    });
    BurnRow {
        fixture,
        evaluate_ns,
        breaches,
    }
}

fn completed(shard: usize, length: usize, at: f64, latency: f64) -> FoldObservation {
    FoldObservation {
        shard: Some(shard),
        length,
        at_seconds: at,
        outcome: ObservedOutcome::Completed {
            latency_seconds: latency,
            deadline_seconds: 30.0,
            degraded: false,
            worst_rmse: 0.0,
        },
    }
}

fn failed(shard: usize, length: usize, at: f64) -> FoldObservation {
    FoldObservation {
        shard: Some(shard),
        length,
        at_seconds: at,
        outcome: ObservedOutcome::Failed,
    }
}

fn bench_burn_fixtures(iters: u64, reps: usize) -> Vec<BurnRow> {
    let lengths = [256usize, 700, 1400, 3000];

    // Steady: 512 healthy completions over 500 s — no scope ever burns.
    let steady: Vec<FoldObservation> = (0..512)
        .map(|i| {
            completed(
                i % 4,
                lengths[i % lengths.len()],
                i as f64,
                1.0 + (i % 7) as f64,
            )
        })
        .collect();

    // Burst: the same traffic, but shard 1 fails every request in a 60 s
    // window — the deadline objective breaches on several scopes.
    let burst: Vec<FoldObservation> = (0..512)
        .map(|i| {
            let at = i as f64;
            if i % 4 == 1 && (200.0..260.0).contains(&at) {
                failed(1, lengths[i % lengths.len()], at)
            } else {
                completed(i % 4, lengths[i % lengths.len()], at, 1.0 + (i % 7) as f64)
            }
        })
        .collect();

    vec![
        burn_fixture("steady", &steady, &[250.0, 512.0], iters, reps),
        burn_fixture("burst", &burst, &[230.0, 260.0, 512.0], iters, reps),
        // Recovery: the burst traffic evaluated again 400 s after the last
        // event, once the fast window has drained — scopes re-arm.
        burn_fixture("recovery", &burst, &[260.0, 512.0, 912.0], iters, reps),
    ]
}

/// Sweep the paper-configuration LightNobel backend across lengths and
/// AAQ rungs through the watermark tracker, exactly as the serve engine
/// records settled batches.
fn memory_sweep() -> (Vec<MemoryRow>, String) {
    ln_obs::set_level(ObsLevel::Counters);
    let backend = LightNobelBackend::paper("LightNobel");
    let reg = Registry::new();
    let mut tracker = WatermarkTracker::new();
    for &length in &[256usize, 512, 1024, 2048, 3364, 4096] {
        for precision in ActPrecision::LADDER {
            let peak = backend.batch_peak_bytes_at(&[length], precision);
            tracker.record(&reg, length, precision, peak);
        }
    }
    let rows = tracker
        .rows()
        .into_iter()
        .map(|r| MemoryRow {
            bucket: r.bucket,
            precision: r.precision,
            max_bytes: r.max_bytes,
        })
        .collect();
    let table = ln_insight::memory_vs_length_table(&tracker.rows());
    (rows, table)
}

/// The acceptance invariant: at every bucket covering L ≥ 1024 the
/// modeled peak strictly decreases FP32 → INT8 → INT4.
fn check_monotone(rows: &[MemoryRow]) -> Result<(), String> {
    for &length in &[1024usize, 2048, 3364, 4096] {
        let bucket = length_bucket_label(length);
        let peak = |precision: &str| {
            rows.iter()
                .find(|r| r.bucket == bucket && r.precision == precision)
                .map(|r| r.max_bytes)
                .ok_or_else(|| format!("no {precision} watermark for bucket {bucket}"))
        };
        let (fp32, int8, int4) = (peak("fp32")?, peak("int8")?, peak("int4")?);
        if !(fp32 > int8 && int8 > int4) {
            return Err(format!(
                "bucket {bucket}: peak bytes not monotone fp32 {fp32} > int8 {int8} > int4 {int4}"
            ));
        }
    }
    Ok(())
}

fn document(
    off: OffCost,
    overhead: &[OverheadRow],
    burn: &[BurnRow],
    memory: &[MemoryRow],
) -> Value {
    let text = |s: &str| Value::Str(s.to_owned());
    let off_row = OverheadRow {
        mode: "off",
        ns_per_event: (off.gated_ns - off.baseline_ns).max(0.0),
    };
    let overhead = std::iter::once(&off_row).chain(overhead).map(|r| {
        obj([
            ("mode", text(r.mode)),
            ("ns_per_event", Value::Float(r.ns_per_event)),
        ])
    });
    let burn = burn.iter().map(|r| {
        obj([
            ("fixture", text(r.fixture)),
            ("evaluate_ns", Value::Float(r.evaluate_ns)),
            ("breaches", Value::UInt(r.breaches)),
        ])
    });
    let memory = memory.iter().map(|r| {
        obj([
            ("bucket", text(r.bucket)),
            ("precision", text(r.precision)),
            ("max_bytes", Value::Float(r.max_bytes)),
        ])
    });
    obj([
        ("bench", text("watch")),
        ("off_budget_pct", Value::Float(OFF_BUDGET_PCT)),
        (
            "off_mode",
            obj([
                ("baseline_ns_per_iter", Value::Float(off.baseline_ns)),
                ("gated_ns_per_iter", Value::Float(off.gated_ns)),
                ("delta_pct", Value::Float(off.delta_pct)),
            ]),
        ),
        ("overhead", Value::Arr(overhead.collect())),
        ("burn", Value::Arr(burn.collect())),
        ("memory", Value::Arr(memory.collect())),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner(if quick {
        "watch --quick — live-observability cost gate (ln-watch)"
    } else {
        "watch — SLO burn fixtures, recorder overhead, memory watermarks"
    });
    paper_note(
        "the watch must be cheap enough to stay on in production: the \
         LN_OBS=off serving path with no watch attached pays one branch \
         and one gated counter, and the activation watermark it surfaces \
         is the quantity AAQ exists to bound (Fig. 15)",
    );

    let (iters, reps) = if quick { (100_000, 5) } else { (1_000_000, 9) };

    let off = bench_off_mode(iters, reps);
    let overhead = bench_watch_events(iters, reps);
    let burn = bench_burn_fixtures(iters.min(10_000), reps);
    let (memory, table) = memory_sweep();

    let mut t = Table::new(["mode", "ns/event"]);
    t.add_row([
        "off".to_string(),
        format!("{:.2}", (off.gated_ns - off.baseline_ns).max(0.0)),
    ]);
    for r in &overhead {
        t.add_row([r.mode.to_string(), format!("{:.2}", r.ns_per_event)]);
    }
    show(&t);
    let mut t = Table::new(["fixture", "evaluate ns", "breaches"]);
    for r in &burn {
        t.add_row([
            r.fixture.to_string(),
            format!("{:.1}", r.evaluate_ns),
            r.breaches.to_string(),
        ]);
    }
    show(&t);
    print!("{table}");
    println!(
        "off-mode: baseline {:.2} ns/iter, gated {:.2} ns/iter, \
         delta {:+.2}% (budget {OFF_BUDGET_PCT:.1}%)",
        off.baseline_ns, off.gated_ns, off.delta_pct
    );

    let mut failed_gate = false;
    if off.over_budget() {
        eprintln!(
            "REGRESSION: LN_OBS=off with the watch compiled in adds {:.2}% \
             (budget {OFF_BUDGET_PCT:.1}%)",
            off.delta_pct
        );
        failed_gate = true;
    }
    if let Err(e) = check_monotone(&memory) {
        eprintln!("REGRESSION: {e}");
        failed_gate = true;
    }
    if burn.iter().any(|r| r.fixture == "steady" && r.breaches > 0) {
        eprintln!("REGRESSION: the steady fixture breached");
        failed_gate = true;
    }
    if burn.iter().any(|r| r.fixture == "burst" && r.breaches == 0) {
        eprintln!("REGRESSION: the burst fixture never breached");
        failed_gate = true;
    }
    if failed_gate {
        std::process::exit(1);
    }

    emit(
        "BENCH_WATCH.json",
        &document(off, &overhead, &burn, &memory),
        quick,
    );
    println!("watch gates passed");
}
