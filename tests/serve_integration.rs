//! Integration tests for the `ln-serve` scheduler, pinning the three
//! properties the serving layer is built on:
//!
//! 1. length-bucketing never co-batches sequences across bucket boundaries,
//! 2. bounded queues *reject* rather than block when full,
//! 3. an identical seed yields an identical batch schedule and statistics,
//!
//! and pinning the fault-free schedule itself to absolute values.

use ln_datasets::Registry;
use ln_serve::{
    standard_backends, Backend, BatcherConfig, BucketPolicy, Engine, FoldOutcome, FoldService,
    RejectReason, ServiceConfig, SubmitError, WorkloadSpec,
};
use std::time::{Duration, Instant};

fn registry_policy(reg: &Registry) -> BucketPolicy {
    BucketPolicy::from_registry(reg)
}

#[test]
fn batches_never_cross_bucket_boundaries() {
    let reg = Registry::standard();
    let policy = registry_policy(&reg);
    let workload = WorkloadSpec::cameo_casp_mix(160, 4.0).synthesize(&reg);
    let mut engine = Engine::new(
        policy.clone(),
        BatcherConfig::default(),
        standard_backends(),
    );
    let out = engine.run(&workload);
    assert!(!out.stats.batch_log.is_empty());
    for batch in &out.stats.batch_log {
        for &len in &batch.lengths {
            assert_eq!(
                policy.bucket_of(len),
                batch.bucket,
                "length {len} co-batched outside bucket {} ({:?})",
                batch.bucket,
                batch.lengths
            );
        }
    }
    // The mixed workload actually exercises multiple buckets and batching.
    let buckets_used: std::collections::HashSet<usize> =
        out.stats.batch_log.iter().map(|b| b.bucket).collect();
    assert!(
        buckets_used.len() >= 2,
        "workload should span buckets: {buckets_used:?}"
    );
    assert!(
        out.stats.batch_log.iter().any(|b| b.lengths.len() > 1),
        "dynamic batching should form multi-request batches"
    );
}

#[test]
fn bounded_queues_reject_rather_than_block() {
    // A worker that holds the (single) backend for 50 ms per batch while
    // submissions arrive back-to-back: the one-deep queues must overflow,
    // and overflowing must not stall the caller.
    let policy = BucketPolicy::fixed(vec![512]);
    let cfg = ServiceConfig {
        batcher: BatcherConfig {
            max_batch: 1,
            max_wait_seconds: 0.0,
            queue_capacity: 1,
            ..BatcherConfig::default()
        },
        dispatch_wall_delay: Duration::from_millis(50),
    };
    let backends: Vec<Box<dyn Backend>> =
        vec![Box::new(ln_serve::LightNobelBackend::paper("LightNobel"))];
    let svc = FoldService::start(policy, cfg, backends);

    let started = Instant::now();
    let mut rejected = 0usize;
    let mut tickets = Vec::new();
    for i in 0..32 {
        match svc.submit(&format!("r{i}"), 300, 60.0) {
            Ok(rx) => tickets.push(rx),
            Err(SubmitError::Rejected(RejectReason::QueueFull)) => rejected += 1,
            Err(other) => panic!("unexpected submit error {other:?}"),
        }
    }
    let submit_elapsed = started.elapsed();
    assert!(
        rejected > 0,
        "32 instant submissions must overflow a 1-deep queue"
    );
    assert!(
        submit_elapsed < Duration::from_secs(1),
        "submission must never block on a full queue (took {submit_elapsed:?})"
    );

    let stats = svc.shutdown();
    assert_eq!(stats.rejected(), rejected as u64);
    for rx in tickets {
        let resp = rx.recv().expect("admitted requests are always answered");
        assert!(
            matches!(
                resp.outcome,
                FoldOutcome::Completed { .. } | FoldOutcome::TimedOut { .. }
            ),
            "{resp:?}"
        );
    }
}

#[test]
fn identical_seed_identical_schedule_and_stats() {
    let reg = Registry::standard();
    let policy = registry_policy(&reg);
    let spec = WorkloadSpec::cameo_casp_mix(120, 3.0).with_seed("serve/repro");
    let run = |spec: &WorkloadSpec| {
        let workload = spec.synthesize(&reg);
        Engine::new(
            policy.clone(),
            BatcherConfig::default(),
            standard_backends(),
        )
        .run(&workload)
    };
    let a = run(&spec);
    let b = run(&spec);
    assert_eq!(
        a.stats, b.stats,
        "same seed must reproduce the full statistics"
    );
    assert_eq!(
        a.stats.batch_log, b.stats.batch_log,
        "… including the batch schedule"
    );
    assert_eq!(a.stats.fingerprint(), b.stats.fingerprint());
    assert_eq!(a.responses, b.responses);

    // A different seed produces different traffic, hence a different
    // schedule (lengths, arrivals, and therefore batches all shift).
    let c = run(&spec.clone().with_seed("serve/other"));
    assert_ne!(a.stats.fingerprint(), c.stats.fingerprint());
}

#[test]
fn memory_routing_sends_long_sequences_to_aaq() {
    // Across a full mixed workload, every sequence beyond the chunked
    // GPUs' memory reach must land on the LightNobel backend.
    let reg = Registry::standard();
    let policy = registry_policy(&reg);
    let gpu_reach = ln_serve::GpuBackend::h100_chunk4().max_single_length();
    let workload = WorkloadSpec::cameo_casp_mix(200, 4.0).synthesize(&reg);
    let mut engine = Engine::new(policy, BatcherConfig::default(), standard_backends());
    let out = engine.run(&workload);
    let mut long_seen = 0;
    for batch in &out.stats.batch_log {
        if batch.lengths.iter().any(|&l| l > gpu_reach) {
            long_seen += 1;
            assert_eq!(batch.backend, "LightNobel", "{batch:?}");
        }
    }
    assert!(
        long_seen > 0,
        "CASP tail should exceed GPU reach ({gpu_reach})"
    );
}

#[test]
fn serve_throughput_schedules_are_pinned() {
    // The two `BatcherConfig`s and the workload of the `serve_throughput`
    // bin, with no fault plan: the fault-free schedule pinned in absolute
    // terms, so a change to the scheduling core that reproduces itself run
    // against run but moves a batch still fails here.
    const BATCHED: u64 = 0xdfc0_82cf_c48b_c623;
    const SEQUENTIAL: u64 = 0x428e_9537_db37_2c74;
    let reg = Registry::standard();
    let policy = registry_policy(&reg);
    let workload = WorkloadSpec::cameo_casp_mix(240, 2.0).synthesize(&reg);
    let batched = BatcherConfig {
        max_batch: 8,
        max_wait_seconds: 2.0,
        queue_capacity: 32,
        max_batch_seconds: 60.0,
    };
    let sequential = BatcherConfig {
        max_batch: 1,
        max_wait_seconds: 0.0,
        queue_capacity: 32,
        max_batch_seconds: f64::INFINITY,
    };
    let fingerprint = |cfg: BatcherConfig| {
        Engine::new(policy.clone(), cfg, standard_backends())
            .run(&workload)
            .stats
            .fingerprint()
    };
    let (b, s) = (fingerprint(batched), fingerprint(sequential));
    println!("batched {b:#018x}, sequential {s:#018x}");
    assert_eq!(b, BATCHED, "batched schedule moved: {b:#018x}");
    assert_eq!(s, SEQUENTIAL, "sequential schedule moved: {s:#018x}");
}
