//! Serving-layer throughput: batched vs sequential dispatch.
//!
//! Drives the `ln-serve` virtual-time scheduler over a synthetic
//! CAMEO/CASP-mix workload on the standard pool (LightNobel + chunked
//! A100/H100) twice — once with length-bucketed dynamic batching, once
//! with sequential one-request dispatch — and prints per-bucket p50/p99
//! latency, rejection/timeout counts, occupancy, and the throughput
//! comparison. Everything is derived from a fixed seed and the device
//! latency models, so the table is bit-identical across runs.

use lightnobel::report::{fmt_ratio, fmt_seconds, Table};
use ln_bench::{banner, paper_note, show};
use ln_datasets::Registry;
use ln_serve::{
    standard_backends, BatcherConfig, BucketPolicy, Engine, EngineOutcome, WorkloadSpec,
};

fn drive(
    policy: &BucketPolicy,
    cfg: BatcherConfig,
    workload: &[ln_serve::FoldRequest],
) -> EngineOutcome {
    Engine::new(policy.clone(), cfg, standard_backends()).run(workload)
}

fn main() {
    banner("serve_throughput — batched vs sequential dispatch (ln-serve)");
    paper_note(
        "extension experiment: the paper's single-protein latency model (Fig. 14) \
         lifted into a serving context; batching amortizes per-dispatch kernel-launch \
         floors (§8.2) and weight streaming, bucketing prevents cross-length \
         head-of-line blocking",
    );

    let reg = Registry::standard();
    let policy = BucketPolicy::from_registry(&reg);
    let workload = WorkloadSpec::cameo_casp_mix(240, 2.0).synthesize(&reg);

    // Batched: up to 8 per batch, 2 s collection window, and a 60 s batch
    // service-time budget so long-sequence buckets cannot serialize one
    // backend for minutes while the rest of the pool idles.
    let batched_cfg = BatcherConfig {
        max_batch: 8,
        max_wait_seconds: 2.0,
        queue_capacity: 32,
        max_batch_seconds: 60.0,
    };
    let sequential_cfg = BatcherConfig {
        max_batch: 1,
        max_wait_seconds: 0.0,
        queue_capacity: 32,
        max_batch_seconds: f64::INFINITY,
    };

    let batched = drive(&policy, batched_cfg, &workload);
    let sequential = drive(&policy, sequential_cfg, &workload);

    println!(
        "\nper-bucket, batched dispatch (max_batch = {}):",
        batched_cfg.max_batch
    );
    show(&batched.stats.table(&policy, batched_cfg.max_batch));
    println!("\nper-bucket, sequential dispatch (max_batch = 1):");
    show(&sequential.stats.table(&policy, sequential_cfg.max_batch));

    let mut cmp = Table::new([
        "dispatch",
        "completed",
        "rejected",
        "timed-out",
        "makespan",
        "throughput",
        "p50",
        "p99",
    ]);
    let dash = || "-".to_string();
    for (label, out) in [("batched", &batched), ("sequential", &sequential)] {
        cmp.add_row([
            label.to_string(),
            out.stats.completed().to_string(),
            out.stats.rejected().to_string(),
            out.stats.timed_out().to_string(),
            fmt_seconds(out.stats.makespan_seconds),
            format!("{:.3} req/s", out.stats.throughput()),
            out.stats
                .latency_percentile(0.5)
                .map_or_else(dash, fmt_seconds),
            out.stats
                .latency_percentile(0.99)
                .map_or_else(dash, fmt_seconds),
        ]);
    }
    println!("\ncomparison:");
    show(&cmp);

    let gain = batched.stats.throughput() / sequential.stats.throughput();
    println!(
        "\nbatched dispatch throughput gain over sequential: {}",
        fmt_ratio(gain)
    );
    assert!(
        batched.stats.throughput() > sequential.stats.throughput(),
        "batched dispatch must achieve strictly higher simulated throughput \
         ({} vs {} req/s)",
        batched.stats.throughput(),
        sequential.stats.throughput()
    );
}
