//! Fault injection against the live threaded service: a worker panic is
//! contained, a transient error is retried to completion, and memory
//! pressure degrades a long sequence down the AAQ ladder instead of
//! rejecting it.
//!
//! Run with `cargo run --release --example chaos_recovery`.
//!
//! A panic message appears mid-run: that is the injected worker panic
//! itself. The worker contains it (`catch_unwind`), converts it to a typed
//! `FoldError::WorkerPanic`, retries the batch, and the service keeps
//! answering — which is the point.

use ln_serve::fault::{int4_only_pressure, FaultPlan};
use ln_serve::{
    standard_backends, Backend, BatcherConfig, BucketPolicy, FoldOutcome, FoldService,
    LightNobelBackend, ServiceConfig,
};
use std::time::Duration;

fn main() {
    let reg = ln_datasets::Registry::standard();
    let policy = BucketPolicy::from_registry(&reg);

    // Squeeze the AAQ backend to ~1.2x the INT4 footprint of its longest
    // routable sequence, panic the A100 worker's first dispatch, and fail
    // the H100's first dispatch transiently.
    let plan = FaultPlan::builder()
        .worker_panic(1, 0)
        .transient(2, 0)
        .pressure(int4_only_pressure())
        .build();

    let cfg = ServiceConfig {
        batcher: BatcherConfig {
            max_wait_seconds: 0.05,
            ..BatcherConfig::default()
        },
        dispatch_wall_delay: Duration::from_millis(5),
    };
    let svc = FoldService::start_with_resilience(policy, cfg, standard_backends(), plan);

    let folds = [
        ("CAMEO-ish", 180),
        ("CASP14-ish", 1100),
        (
            "giant-under-pressure",
            LightNobelBackend::paper("LightNobel").max_single_length(),
        ),
    ];
    let tickets: Vec<_> = folds
        .iter()
        // A near-capacity fold takes a long virtual time on its own, so
        // budgets are generous: the point here is faults, not deadlines.
        .map(|&(name, len)| (name, svc.submit(name, len, 1e5).expect("admitted")))
        .collect();
    for (name, rx) in tickets {
        let resp = rx.recv().expect("every admitted request is answered");
        match resp.outcome {
            FoldOutcome::Completed {
                backend, precision, ..
            } => {
                let note = if precision.is_degraded() {
                    " (degraded under memory pressure)"
                } else {
                    ""
                };
                println!(
                    "{name:>22} ({} aa) -> {backend:<12} at {precision}{note}",
                    resp.length
                );
            }
            other => println!("{name:>22} -> {other:?}"),
        }
    }

    let stats = svc.shutdown();
    let (per_backend, summary) = stats.resilience_tables();
    println!("\n{}", per_backend.render());
    println!("{}", summary.render());
    println!(
        "injected faults survived: {} faults, {} retries, {} degraded batches, \
         availability {:.1}%",
        stats.resilience.faults(),
        stats.resilience.retries,
        stats.resilience.degraded_batches(),
        stats.availability() * 100.0
    );
}
