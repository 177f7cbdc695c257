//! insight — the analysis dashboard over everything the repo measures.
//!
//! Two sections, one markdown document:
//!
//! 1. **Critical path** — a seeded chaos run of the virtual-time serve
//!    engine with tracing on, replayed through
//!    [`ln_insight::CriticalPath`] into per-request queue / service /
//!    fault-burn / backoff attributions with p50/p99 and a blame summary
//!    (the live-trace analogue of the paper's Fig. 3 latency profile).
//!    Virtual time makes the whole section byte-identical across hosts
//!    and pool sizes.
//! 2. **Roofline** — one `ln-accel` simulation at paper scale, each stage
//!    labelled by its bounding resource against the RMPU/VVPU/HBM ceilings
//!    of `HwConfig::paper()` ([`ln_accel::LatencyReport::roofline_markdown`]).
//!
//! Each run writes `BENCH_INSIGHT.json` at the repo root, or exits
//! non-zero, writing nothing, if any trace span cannot be attributed or
//! if the trace ring dropped events. Everything in the record is modeled, so it is a byte
//! pin: ci.sh step 10 runs the bin and step 12 fails if the committed
//! record moved. Speed is judged elsewhere, by same-host before/after pairs
//! (EXPERIMENTS.md).

use ln_accel::{Accelerator, HwConfig, LatencyReport};
use ln_bench::{banner, emit, paper_note};
use ln_insight::json::{obj, Value};
use ln_insight::CriticalPath;
use ln_serve::fault::GoldenChaos;

/// Mixed requests in the traced run, before the giant one: the same run
/// `tests/obs_trace.rs` pins.
const REQUESTS: usize = 120;

/// Sequence length of the roofline's accelerator run.
const SIM_LEN: usize = 1024;

/// One traced run of the golden chaos scenario.
fn traced_chaos_run() -> (Vec<ln_obs::TraceEvent>, u64) {
    let scenario = GoldenChaos::new("obs/trace-workload", REQUESTS);
    let mut engine = scenario.engine();
    engine.set_tracing(true);
    let out = engine.run(&scenario.workload);
    (out.trace.expect("tracing was enabled"), out.trace_dropped)
}

fn document(cp: &CriticalPath, roofline: &LatencyReport) -> Value {
    let count = |n: usize| Value::UInt(n as u64);
    let t = cp.terminal_summary();
    let (queue_bound, compute_bound, retry_bound) = cp.blame_summary();
    let phases = cp.phases().into_iter().map(|(name, stats)| {
        obj([
            ("phase", Value::Str(name.to_string())),
            ("total_ns", Value::UInt(stats.total_nanos)),
            ("p50_ns", Value::UInt(stats.p50_nanos)),
            ("p99_ns", Value::UInt(stats.p99_nanos)),
            ("max_ns", Value::UInt(stats.max_nanos)),
        ])
    });
    let stages = roofline.per_block_stages.iter().map(|stage| {
        obj([
            ("stage", Value::Str(stage.stage.name().to_owned())),
            ("bound", Value::Str(stage.bound_by().label().to_owned())),
            ("rmpu_frac", Value::Float(stage.rmpu_frac())),
            ("vvpu_frac", Value::Float(stage.vvpu_frac())),
            ("hbm_frac", Value::Float(stage.hbm_frac())),
        ])
    });
    obj([
        ("bench", Value::Str("insight".to_owned())),
        ("tag", Value::Str(format!("q{REQUESTS}"))),
        (
            "requests",
            obj([
                ("total", count(cp.requests.len())),
                ("completed", count(t.completed)),
                ("failed", count(t.failed)),
                ("timed_out", count(t.timed_out)),
                ("cancelled", count(t.cancelled)),
                ("shard_rejected", count(t.rejected)),
            ]),
        ),
        (
            "blame",
            obj([
                ("queue", count(queue_bound)),
                ("compute", count(compute_bound)),
                ("retry", count(retry_bound)),
            ]),
        ),
        ("phases", Value::Arr(phases.collect())),
        ("roofline", Value::Arr(stages.collect())),
        ("unattributed", count(cp.unattributed.len())),
        ("truncated", Value::Bool(cp.truncated)),
    ])
}

fn main() {
    banner("insight — critical-path and roofline dashboards");
    paper_note(
        "interprets the telemetry instead of just exporting it: per-request \
         latency attribution from the engine trace (paper Fig. 3) and roofline \
         classification against the 32-RMPU/128-VVPU/2TB-s ceilings",
    );

    // 1. Critical path from a traced chaos run (virtual time; byte-stable).
    let (events, dropped) = traced_chaos_run();
    let cp = CriticalPath::analyze(&events, dropped);
    println!("{}", cp.render_markdown());

    // 2. Roofline from one paper-scale simulation.
    let accel = Accelerator::new(HwConfig::paper());
    let roofline = accel.simulate(SIM_LEN);
    println!("{}", roofline.roofline_markdown(accel.hw()));

    let mut bad = false;
    if !cp.unattributed.is_empty() {
        eprintln!(
            "UNATTRIBUTED: {} trace span(s) the critical-path replay could not place:",
            cp.unattributed.len()
        );
        for line in cp.unattributed.iter().take(10) {
            eprintln!("  {line}");
        }
        bad = true;
    }
    if cp.truncated {
        eprintln!("TRUNCATED: the trace ring dropped {dropped} event(s); analysis is partial");
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
    emit("BENCH_INSIGHT.json", &document(&cp, &roofline), false);
    println!("insight gate clean: all spans attributed");
}
