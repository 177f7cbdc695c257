//! Seeded chaos run through the resilience layer.
//!
//! Drives the `ln-serve` virtual-time engine over a synthetic CAMEO/CASP
//! mix — plus one deliberately giant sequence — under a seeded
//! `ln_serve::fault::FaultPlan` injecting backend stalls, transient compute
//! errors, a worker panic, a bucket-queue poison and an HBM
//! capacity-pressure window on the AAQ-capable backend. Prints the
//! per-backend fault/degradation table and the resilience summary, and
//! asserts the run is byte-identical across two executions (zero hangs,
//! zero nondeterminism).
//!
//! `--quick` shrinks the workload for the `scripts/ci.sh chaos --quick`
//! smoke gate; the assertions are identical.

use ln_bench::{banner, paper_note, show};
use ln_datasets::Registry;
use ln_quant::ActPrecision;
use ln_serve::fault::{ChaosSpec, FaultPlan, PoisonEvent, PressureWindow};
use ln_serve::{
    standard_backends, Backend, BatcherConfig, BucketPolicy, Engine, EngineOutcome, FoldRequest,
    LightNobelBackend, WorkloadSpec,
};

const WORKLOAD_SEED: &str = "chaos/bench";
const PLAN_SEED: &str = "chaos/plan-h";

fn build_workload(reg: &Registry, requests: usize) -> Vec<FoldRequest> {
    let mut workload = WorkloadSpec::cameo_casp_mix(requests, 3.0)
        .with_seed(WORKLOAD_SEED)
        .synthesize(reg);
    // One sequence only the AAQ backend can hold, arriving while that
    // backend is squeezed: completing it requires the INT4 fallback.
    let ln = LightNobelBackend::paper("LightNobel");
    let id = workload.iter().map(|r| r.id).max().map_or(0, |m| m + 1);
    workload.push(FoldRequest {
        id,
        name: "giant-under-pressure".to_string(),
        length: ln.max_single_length(),
        arrival_seconds: 5.0,
        timeout_seconds: 1e6,
    });
    workload
}

fn build_plan() -> FaultPlan {
    let ln = LightNobelBackend::paper("LightNobel");
    let giant_len = ln.max_single_length();
    // Leave ~1.2x the giant sequence's INT4 footprint: FP32 and INT8
    // cannot fit, INT4 can.
    let fraction =
        ln.batch_peak_bytes_at(&[giant_len], ActPrecision::Int4) * 1.2 / ln.memory_capacity_bytes();
    let spec = ChaosSpec {
        worker_panics: 1,
        horizon_dispatches: 8,
        pressure: vec![PressureWindow {
            backend: 0, // LightNobel's index in `standard_backends()`
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
    FaultPlan::seeded(PLAN_SEED, &spec)
}

fn drive(workload: &[FoldRequest], policy: &BucketPolicy) -> EngineOutcome {
    let mut engine = Engine::with_resilience(
        policy.clone(),
        BatcherConfig::default(),
        standard_backends(),
        build_plan(),
    );
    engine.run(workload)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner(
        "chaos — seeded fault injection through the resilience layer (ln_serve::fault + ln-serve)",
    );
    paper_note(
        "robustness extension: the paper's activation-explosion failure mode (§2) made \
         injectable as HBM pressure; the serving layer answers with retry/backoff, \
         per-backend circuit breakers and the AAQ precision-degradation fallback \
         (FP32 -> INT8 -> INT4) instead of rejecting long sequences",
    );

    let requests = if quick { 60 } else { 240 };
    let reg = Registry::standard();
    let policy = BucketPolicy::from_registry(&reg, 4);
    let workload = build_workload(&reg, requests);

    let out = drive(&workload, &policy);

    // Zero hangs: every submitted request has exactly one response.
    assert_eq!(
        out.responses.len(),
        workload.len(),
        "every request must terminate with a definite outcome"
    );

    // Byte-identical resilience stats across two runs of the same seed.
    let rerun = drive(&workload, &policy);
    let render = |o: &EngineOutcome| {
        let (per_backend, summary) = o.stats.resilience_tables();
        format!("{}{}", per_backend.render(), summary.render())
    };
    assert_eq!(out.stats.fingerprint(), rerun.stats.fingerprint());
    assert_eq!(out.stats, rerun.stats);
    assert_eq!(
        render(&out).into_bytes(),
        render(&rerun).into_bytes(),
        "resilience tables must be byte-identical for a fixed seed"
    );

    println!("\n{} requests under the seeded plan:", workload.len());
    let (per_backend, summary) = out.stats.resilience_tables();
    show(&per_backend);
    println!();
    show(&summary);

    let res = &out.stats.resilience;
    println!(
        "\nfaults={} retries={} degraded={} availability={:.4} fingerprint={:#018x}",
        res.faults(),
        res.retries,
        res.degraded_batches(),
        out.stats.availability(),
        out.stats.fingerprint()
    );
    assert!(res.faults() > 0, "the seeded plan must actually bite");
    assert!(
        res.degraded_batches() > 0,
        "the giant sequence must complete via the degradation path"
    );
    println!("\nchaos: OK (two runs byte-identical, zero hangs)");
}
