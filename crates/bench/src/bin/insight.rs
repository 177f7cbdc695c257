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
//! The full run writes `BENCH_INSIGHT.json` at the repo root; `--quick`
//! (ci.sh step 8) runs a smaller workload. Both exit non-zero if any trace
//! span cannot be attributed or if the trace ring dropped events. Speed is
//! judged elsewhere, by same-host before/after pairs (EXPERIMENTS.md).

use ln_accel::{Accelerator, HwConfig, LatencyReport};
use ln_bench::{banner, emit, paper_note};
use ln_datasets::Registry;
use ln_fault::{ChaosSpec, FaultPlan, PoisonEvent, PressureWindow, ResilienceConfig};
use ln_insight::json::{obj, Value};
use ln_insight::CriticalPath;
use ln_quant::ActPrecision;
use ln_serve::{
    standard_backends, Backend, BatcherConfig, BucketPolicy, Engine, FoldRequest,
    LightNobelBackend, WorkloadSpec,
};

const SEED: &str = "obs/trace-workload";
const PLAN_SEED: &str = "chaos/plan-h";

/// One traced chaos run of `n` requests plus the giant under-pressure
/// request, identical in shape to `tests/obs_trace.rs` so the dashboard
/// describes the same trace the golden test pins.
fn traced_chaos_run(n: usize) -> (Vec<ln_obs::TraceEvent>, u64) {
    let reg = Registry::standard();
    let policy = BucketPolicy::from_registry(&reg, 4);
    let mut workload = WorkloadSpec::cameo_casp_mix(n, 3.0)
        .with_seed(SEED)
        .synthesize(&reg);

    // A sequence only the AAQ backend can hold, arriving under capacity
    // pressure tight enough that only the INT4 rung fits — guarantees a
    // degradation instant for the dashboard to count.
    let ln = LightNobelBackend::paper("LightNobel");
    let giant_len = ln.max_single_length();
    let fraction =
        ln.batch_peak_bytes_at(&[giant_len], ActPrecision::Int4) * 1.2 / ln.memory_capacity_bytes();
    let giant_id = workload.iter().map(|r| r.id).max().map_or(0, |m| m + 1);
    workload.push(FoldRequest {
        id: giant_id,
        name: "giant-under-pressure".to_string(),
        length: giant_len,
        arrival_seconds: 5.0,
        timeout_seconds: 1e6,
    });

    let spec = ChaosSpec {
        worker_panics: 1,
        horizon_dispatches: 8,
        pressure: vec![PressureWindow {
            backend: 0,
            start_seconds: 0.0,
            end_seconds: 1e9,
            available_fraction: fraction,
        }],
        poisons: vec![PoisonEvent {
            bucket: 0,
            at_seconds: 12.0,
        }],
        ..ChaosSpec::light(3)
    };
    let plan = FaultPlan::seeded(PLAN_SEED, &spec);

    let mut engine = Engine::with_resilience(
        policy,
        BatcherConfig::default(),
        standard_backends(),
        plan,
        ResilienceConfig::default(),
    );
    engine.set_tracing(true);
    let out = engine.run(&workload);
    (out.trace.expect("tracing was enabled"), out.trace_dropped)
}

fn document(tag: &str, cp: &CriticalPath, roofline: &LatencyReport) -> Value {
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
        ("tag", Value::Str(tag.to_owned())),
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
    let quick = std::env::args().any(|a| a == "--quick");
    banner(if quick {
        "insight --quick — critical-path + roofline"
    } else {
        "insight — critical-path and roofline dashboards"
    });
    paper_note(
        "interprets the telemetry instead of just exporting it: per-request \
         latency attribution from the engine trace (paper Fig. 3) and roofline \
         classification against the 32-RMPU/128-VVPU/2TB-s ceilings",
    );

    let (n, sim_len) = if quick { (60, 512) } else { (120, 1024) };
    let tag = format!("q{n}");

    // 1. Critical path from a traced chaos run (virtual time; byte-stable).
    let (events, dropped) = traced_chaos_run(n);
    let cp = CriticalPath::analyze(&events, dropped);
    println!("{}", cp.render_markdown());

    // 2. Roofline from one paper-scale simulation.
    let accel = Accelerator::new(HwConfig::paper());
    let roofline = accel.simulate(sim_len);
    println!("{}", roofline.roofline_markdown(accel.hw()));

    emit("BENCH_INSIGHT.json", &document(&tag, &cp, &roofline), quick);

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
    println!("insight gate clean: all spans attributed");
}
