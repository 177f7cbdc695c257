//! Analysis end to end: run a traced chaos workload through the
//! virtual-time engine, replay the trace into a per-request critical-path
//! attribution, and classify the accelerator stages against their
//! roofline ceilings.
//!
//! Run with `cargo run --release --example insight_analysis`. Everything
//! printed is deterministic: the engine trace runs on a virtual clock and
//! the analyses are pure functions of it, so the dashboards are
//! byte-identical across hosts and `ln-par` pool sizes.

use ln_insight::CriticalPath;
use ln_serve::fault::{ChaosSpec, FaultPlan};
use ln_serve::{standard_backends, BatcherConfig, BucketPolicy, Engine, WorkloadSpec};

fn main() {
    // 1. A seeded chaos run with tracing on: transient faults, a worker
    //    panic and retries, all on the engine's virtual clock.
    let reg = ln_datasets::Registry::standard();
    let policy = BucketPolicy::from_registry(&reg, 4);
    let workload = WorkloadSpec::cameo_casp_mix(48, 2.5)
        .with_seed("example/insight")
        .synthesize(&reg);
    let plan = FaultPlan::seeded("example/insight-plan", &ChaosSpec::light(3));
    let mut engine =
        Engine::with_resilience(policy, BatcherConfig::default(), standard_backends(), plan);
    engine.set_tracing(true);
    let out = engine.run(&workload);

    // 2. Critical path: where did each request's latency actually go —
    //    queue wait, kernel service, fault burn or retry backoff?
    let events = out.trace.expect("tracing was enabled");
    let cp = CriticalPath::analyze(&events, out.trace_dropped);
    println!("{}", cp.render_markdown());

    // 3. Roofline: simulate the paper-scale accelerator once and label
    //    every pipeline stage with its bounding resource.
    let accel = ln_accel::Accelerator::new(ln_accel::HwConfig::paper());
    let report = accel.simulate(512);
    println!("{}", report.roofline_markdown(accel.hw()));
}
