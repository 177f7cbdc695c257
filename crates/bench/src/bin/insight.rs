//! insight — the analysis dashboard over everything the repo measures.
//!
//! Three sections, one markdown document:
//!
//! 1. **Critical path** — a seeded chaos run of the virtual-time serve
//!    engine with tracing on, replayed through
//!    [`ln_insight::CriticalPath`] into per-request queue / service /
//!    fault-burn / backoff attributions with p50/p99 and a blame summary
//!    (the live-trace analogue of the paper's Fig. 3 latency profile).
//!    Virtual time makes the whole section byte-identical across hosts
//!    and pool sizes.
//! 2. **Roofline** — one `ln-accel` simulation at paper scale, classified
//!    against the RMPU/VVPU/HBM ceilings of `HwConfig::paper()` via
//!    [`ln_insight::RooflineReport`].
//! 3. **Regression gate** — the committed `BENCH_PAR.json` /
//!    `BENCH_OBS.json` / `BENCH_CLUSTER.json` / `BENCH_NUMERICS.json`
//!    plus this run's phase times, scored with median + MAD thresholds
//!    against `benchmarks/history/`.
//!
//! The full run writes `BENCH_INSIGHT.json` at the repo root; `--quick`
//! (ci.sh step 8) runs a smaller workload and exits non-zero if the gate
//! fails, if any committed kernel speedup sits below the
//! [`MIN_SPEEDUP`] floor at any pool size, if any trace span cannot be
//! attributed, or if the trace ring dropped events.

use std::path::Path;

use ln_accel::{Accelerator, HwConfig};
use ln_bench::{banner, emit, paper_note};
use ln_datasets::Registry;
use ln_fault::{ChaosSpec, FaultPlan, PoisonEvent, PressureWindow, ResilienceConfig};
use ln_insight::json::{obj, Value};
use ln_insight::regression::{self, BaselineStore, GateConfig, Sample};
use ln_insight::{Ceilings, CpuKernelProfile, CriticalPath, RooflineReport};
use ln_quant::ActPrecision;
use ln_serve::{
    standard_backends, Backend, BatcherConfig, BucketPolicy, Engine, FoldRequest,
    LightNobelBackend, WorkloadSpec,
};

const SEED: &str = "obs/trace-workload";
const PLAN_SEED: &str = "chaos/plan-h";

/// Hard kernel-speedup floor over `BENCH_PAR.json`: any `(kernel, L)` at
/// or below this under the parallel pool, or any kernel whose worst
/// speedup across pool sizes dips below it, fails the gate. Promoted
/// from a WARN after the register-tiled kernel rework retired the
/// 0.598× Evoformer regression — a slowdown past this floor is a bug
/// now, not a known characteristic. Matches `par_speedup`'s own
/// `KERNEL_MIN_SPEEDUP` so both gates agree.
const MIN_SPEEDUP: f64 = 0.95;

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

/// Parse one committed `BENCH_*.json` into gate samples; a missing or
/// unparseable file contributes nothing (and says so).
fn samples_from_file(path: &str) -> (Vec<Sample>, Option<Value>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("note: {path} not found; skipping its samples");
        return (Vec::new(), None);
    };
    match ln_insight::json::parse(&text) {
        Ok(doc) => (regression::bench_samples(&doc), Some(doc)),
        Err(e) => {
            println!("note: {path} failed to parse ({e}); skipping its samples");
            (Vec::new(), None)
        }
    }
}

fn document(
    tag: &str,
    cp: &CriticalPath,
    roofline: &RooflineReport,
    gate: &regression::RegressionReport,
) -> Value {
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
    let stages = roofline.stages.iter().map(|stage| {
        obj([
            ("stage", Value::Str(stage.stage.clone())),
            ("bound", Value::Str(stage.bound.label().to_owned())),
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
        (
            "regression",
            obj([
                ("metrics", count(gate.verdicts.len())),
                ("failures", count(gate.failures())),
                ("no_baseline", count(gate.no_baseline())),
            ]),
        ),
        ("unattributed", count(cp.unattributed.len())),
        ("truncated", Value::Bool(cp.truncated)),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner(if quick {
        "insight --quick — critical-path + roofline + regression gate"
    } else {
        "insight — critical-path, roofline and regression dashboards"
    });
    paper_note(
        "interprets the telemetry instead of just exporting it: per-request \
         latency attribution from the engine trace (paper Fig. 3), roofline \
         classification against the 32-RMPU/128-VVPU/2TB-s ceilings, and a \
         median+MAD regression gate over the archived BENCH_*.json history",
    );

    let (n, sim_len) = if quick { (60, 512) } else { (120, 1024) };
    let tag = format!("q{n}");

    // 1. Critical path from a traced chaos run (virtual time; byte-stable).
    let (events, dropped) = traced_chaos_run(n);
    let cp = CriticalPath::analyze(&events, dropped);
    println!("{}", cp.render_markdown());

    // 2. Roofline from one paper-scale simulation's registry gauges.
    let accel = Accelerator::new(HwConfig::paper());
    let _report = accel.simulate(sim_len);
    let hw = accel.hw();
    let ceilings = Ceilings {
        int8_tops: hw.int8_tops(),
        hbm_gbps: hw.hbm_bandwidth_bytes_per_s / 1e9,
        clock_ghz: hw.clock_ghz,
    };
    let snapshot = ln_obs::registry().snapshot();
    let roofline = RooflineReport::from_snapshot(&snapshot, ceilings);
    println!("{}", roofline.render_markdown());

    // 3. Regression gate: committed BENCH files + this run's phase times
    //    against the archived history.
    let (store, history_files) =
        BaselineStore::load_dir(Path::new("benchmarks/history")).expect("read benchmarks/history");
    let mut current = Vec::new();
    let (par_samples, par_doc) = samples_from_file("BENCH_PAR.json");
    let (obs_samples, _) = samples_from_file("BENCH_OBS.json");
    let (cluster_samples, _) = samples_from_file("BENCH_CLUSTER.json");
    let (numerics_samples, _) = samples_from_file("BENCH_NUMERICS.json");
    current.extend(par_samples);
    current.extend(obs_samples);
    current.extend(cluster_samples);
    current.extend(numerics_samples);
    current.extend(cp.samples(&tag));
    let gate = regression::evaluate(GateConfig::default(), &store, &current);
    println!("{}", gate.render_markdown());
    println!(
        "history: {history_files} archived documents; {} current metrics \
         ({} without baseline)",
        gate.verdicts.len(),
        gate.no_baseline()
    );

    // CPU kernel profile: achieved GFLOP/s from the committed
    // BENCH_PAR.json, shown against the simulated machine's ceilings.
    if let Some(doc) = &par_doc {
        let profiles = CpuKernelProfile::from_bench_doc(doc);
        if !profiles.is_empty() {
            println!("{}", CpuKernelProfile::render_markdown(&profiles, ceilings));
        }
    }

    emit(
        "BENCH_INSIGHT.json",
        &document(&tag, &cp, &roofline, &gate),
        quick,
    );

    let mut bad = false;
    // Kernel speedup floor over the committed BENCH_PAR.json. A slowdown
    // already baked into the baselines can't trip the median+MAD gate,
    // so this check fails hard on its own.
    if let Some(doc) = &par_doc {
        for failure in regression::speedup_warnings(doc, MIN_SPEEDUP) {
            eprintln!("SPEEDUP FLOOR: {failure}");
            bad = true;
        }
    }
    if gate.failures() > 0 {
        eprintln!(
            "REGRESSION: {} metric(s) beyond the median+MAD threshold",
            gate.failures()
        );
        bad = true;
    }
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
    println!("insight gate clean: all spans attributed, no regressions");
}
