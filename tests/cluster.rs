//! Golden acceptance test for sharded cluster serving (`ln_serve::cluster`).
//!
//! A seeded chaos run — shard loss, a network partition, hedging and work
//! stealing all active — must produce a [`ClusterOutcome`] that is
//! **bitwise identical** across `ln-par` pool sizes 1/2/4, with every
//! request terminating definitely. The merged router+shard trace must
//! replay through the insight critical path with zero unattributed spans
//! and *exact* accounting: for every attempt,
//! `e2e = queue + shard_hop + service + fault_burn + backoff`.

use ln_datasets::Registry;
use ln_insight::CriticalPath;
use ln_serve::cluster::{Cluster, ClusterConfig, ClusterOutcome};
use ln_serve::fault::{ChaosSpec, FaultPlan, PartitionWindow, ShardLossEvent};
use ln_serve::{
    standard_backends, BatcherConfig, BucketPolicy, Engine, FoldOutcome, FoldRequest, WorkloadSpec,
};

const SEED: &str = "cluster/golden-workload";
const PLAN_SEED: &str = "cluster/golden-plan";
const SHARDS: usize = 4;

fn chaos_plan() -> FaultPlan {
    let spec = ChaosSpec {
        shards: SHARDS,
        // Late enough that the victim shard has dispatched work, so the
        // evacuation emits "shard_loss" fault spans for its in-flight
        // batches (an idle shard's loss would be trace-silent).
        shard_loss_events: vec![ShardLossEvent {
            shard: 1,
            at_seconds: 6.0,
        }],
        partition_windows: vec![PartitionWindow {
            shard: 2,
            start_seconds: 1.0,
            end_seconds: 4.0,
        }],
        ..ChaosSpec::light(SHARDS)
    };
    FaultPlan::seeded(PLAN_SEED, &spec)
}

fn workload() -> Vec<FoldRequest> {
    WorkloadSpec::cameo_casp_mix(100, 8.0)
        .with_seed(SEED)
        .synthesize(&Registry::standard())
}

/// One traced chaos run on an `ln-par` pool of `threads` executors.
fn traced_run(threads: usize) -> ClusterOutcome {
    let pool = ln_par::Pool::new_exact(threads);
    ln_par::with_pool(&pool, || {
        let reg = Registry::standard();
        let policy = BucketPolicy::from_registry(&reg);
        let shards: Vec<Engine> = (0..SHARDS)
            .map(|_| {
                Engine::with_resilience(
                    policy.clone(),
                    BatcherConfig::default(),
                    standard_backends(),
                    FaultPlan::none(),
                )
            })
            .collect();
        let cfg = ClusterConfig {
            hedge_min_length: 2600,
            steal_threshold: 4,
            seed: "cluster/golden".to_string(),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(cfg, shards, chaos_plan());
        cluster.set_tracing(true);
        cluster.run(&workload())
    })
}

#[test]
fn cluster_outcome_is_byte_identical_across_pool_sizes() {
    let wl = workload();
    let base = traced_run(1);
    assert_eq!(
        base.stats.total() as usize,
        wl.len(),
        "every request must terminate definitely: {:?}",
        base.stats
    );
    assert_eq!(base.responses.len(), wl.len());
    assert_eq!(base.stats.shard_losses, 1, "{:?}", base.stats);
    assert!(base.stats.completed > 0, "{:?}", base.stats);

    let base_json = ln_obs::chrome_trace_json(base.trace.as_deref().expect("tracing was enabled"));
    for threads in [2usize, 4] {
        let other = traced_run(threads);
        assert_eq!(
            base.fingerprint(),
            other.fingerprint(),
            "pool size {threads} perturbed the cluster outcome"
        );
        let other_json =
            ln_obs::chrome_trace_json(other.trace.as_deref().expect("tracing was enabled"));
        assert_eq!(
            base_json, other_json,
            "pool size {threads} perturbed the merged cluster trace"
        );
    }

    // The merged trace covers the cluster vocabulary on top of the
    // engine's own: router hops, steal hand-offs and the injected loss.
    let events = base.trace.as_deref().expect("tracing was enabled");
    for name in ["shard_hop", "steal", "shard_loss", "enqueue", "fold_batch"] {
        assert!(
            events.iter().any(|e| e.name == name),
            "no {name:?} event in the golden cluster trace"
        );
    }
}

#[test]
fn cluster_critical_path_accounts_every_span_exactly() {
    let out = traced_run(1);
    let events = out.trace.as_deref().expect("tracing was enabled");
    let cp = CriticalPath::analyze(events, out.trace_dropped);

    assert!(
        cp.unattributed.is_empty(),
        "the critical-path replay must place every cluster span: {:?}",
        cp.unattributed
    );
    assert!(!cp.truncated, "the golden cluster trace must be complete");
    assert!(!cp.requests.is_empty());
    assert!(cp.steals > 0, "skew never triggered work stealing");

    // Exact attribution: each attempt's end-to-end time decomposes into
    // queue + shard_hop + service + fault_burn + backoff with nothing
    // left over — the cluster's hop spans close the books.
    for r in &cp.requests {
        assert_eq!(
            r.attributed_nanos(),
            r.total_nanos(),
            "attempt {} leaks unattributed time: {r:?}",
            r.id
        );
    }
    let hop_total: u64 = cp.requests.iter().map(|r| r.shard_hop_nanos).sum();
    assert!(hop_total > 0, "no shard_hop time attributed");

    // Steal hand-offs and hedge losers surface as cancelled terminals.
    let terminals = cp.terminal_summary();
    assert!(terminals.cancelled > 0, "{terminals:?}");
    assert!(terminals.completed > 0, "{terminals:?}");
}

#[test]
fn partition_starting_mid_hop_times_the_attempt_out_at_the_router() {
    // Placed at 0 s on the only shard; its partition starts 1 ms later,
    // while the attempt is in transit, and outlives the 2 s budget — so
    // the delivery fails definite at the router.
    let plan = FaultPlan::builder()
        .partition(PartitionWindow {
            shard: 0,
            start_seconds: 0.001,
            end_seconds: 100.0,
        })
        .build();
    let shard = Engine::with_resilience(
        BucketPolicy::from_registry(&Registry::standard()),
        BatcherConfig::default(),
        standard_backends(),
        FaultPlan::none(),
    );
    let cfg = ClusterConfig::default();
    let hop = cfg.hop_seconds;
    let mut cluster = Cluster::new(cfg, vec![shard], plan);
    cluster.set_tracing(true);
    let out = cluster.run(&[FoldRequest {
        id: 0,
        name: "in-transit".to_string(),
        length: 300,
        arrival_seconds: 0.0,
        timeout_seconds: 2.0,
    }]);
    assert_eq!(out.responses.len(), 1);
    assert!(
        matches!(out.responses[0].outcome, FoldOutcome::TimedOut { .. }),
        "{:?}",
        out.responses[0]
    );

    let events = out.trace.as_deref().expect("tracing was enabled");
    let attempt = events
        .iter()
        .find(|e| e.name == "arrive")
        .and_then(|e| e.args.iter().find(|(key, _)| *key == "id"))
        .cloned()
        .expect("the router sent an attempt");
    assert!(
        events.iter().any(|e| e.track == 0
            && e.name == "timeout"
            && e.ts_nanos == ln_obs::seconds_to_nanos(hop)
            && e.args == [attempt.clone()]),
        "no router timeout for {attempt:?} at delivery: {events:?}"
    );
    let cp = CriticalPath::analyze(events, out.trace_dropped);
    assert!(cp.unattributed.is_empty(), "{:?}", cp.unattributed);
}

/// Responses per outcome class: completed, rejected, timed out, failed.
fn outcome_classes(out: &ClusterOutcome) -> [usize; 4] {
    let mut classes = [0usize; 4];
    for r in &out.responses {
        classes[match r.outcome {
            FoldOutcome::Completed { .. } => 0,
            FoldOutcome::Rejected(_) => 1,
            FoldOutcome::TimedOut { .. } => 2,
            FoldOutcome::Failed(_) => 3,
        }] += 1;
    }
    classes
}

#[test]
fn cluster_outcome_and_trace_are_pinned() {
    // Absolute values, recorded at commit ebb1c0b (before the router's run
    // state moved into one struct): the golden tests above compare the
    // cluster to a re-run of itself, so only this one sees the schedule,
    // the outcome or the merged trace's event order move.
    const FINGERPRINT: u64 = 0xde1a_1a83_b600_0538;
    const CLASSES: [usize; 4] = [100, 0, 0, 0];
    const TRACE_EVENTS: usize = 746;
    const TRACE_JSON_FNV1A: u64 = 0x64c2_63fc_4a7a_ef6b;

    let out = traced_run(1);
    let trace = out.trace.as_ref().expect("tracing was enabled");
    let json_hash = ln_tensor::rng::seed_from_label(&ln_obs::chrome_trace_json(trace));
    assert_eq!(out.fingerprint(), FINGERPRINT);
    assert_eq!(outcome_classes(&out), CLASSES);
    assert_eq!(out.trace_dropped, 0);
    assert_eq!(trace.len(), TRACE_EVENTS);
    assert_eq!(json_hash, TRACE_JSON_FNV1A);
}
