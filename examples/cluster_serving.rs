//! Sharded cluster serving end to end: length-aware placement over a
//! heterogeneous fleet, hedged dispatch, work stealing, a mid-run shard
//! loss and a network partition — all on the deterministic virtual clock.
//!
//! Run with `cargo run --release --example cluster_serving`.

use ln_serve::cluster::{Cluster, ClusterConfig};
use ln_serve::fault::{ChaosSpec, FaultPlan, PartitionWindow, ShardLossEvent};
use ln_serve::{standard_backends, BatcherConfig, BucketPolicy, Engine, WorkloadSpec};

fn main() {
    let reg = ln_datasets::Registry::standard();
    let policy = BucketPolicy::from_registry(&reg);

    // Six shards, each a full virtual-time engine over the standard
    // backend pool (LightNobel AAQ accelerator + chunked A100/H100).
    let shards: Vec<Engine> = (0..6)
        .map(|_| {
            Engine::new(
                policy.clone(),
                BatcherConfig::default(),
                standard_backends(),
            )
        })
        .collect();

    // Hedge CASP-scale sequences onto a second shard, steal on a queue
    // skew of 4, and let the autoscaler drain idle shards.
    let cfg = ClusterConfig {
        hedge_min_length: 2600,
        steal_threshold: 4,
        autoscale: true,
        seed: "cluster/example".to_string(),
        ..ClusterConfig::default()
    };

    // Cluster-level chaos: shard 1 dies at t=6s (its in-flight work is
    // evacuated and rerouted), shard 2 is unreachable for t in [1s, 4s)
    // (placements defer until the partition heals).
    let spec = ChaosSpec {
        shards: 6,
        shard_loss_events: vec![ShardLossEvent {
            shard: 1,
            at_seconds: 6.0,
        }],
        partition_windows: vec![PartitionWindow {
            shard: 2,
            start_seconds: 1.0,
            end_seconds: 4.0,
        }],
        ..ChaosSpec::light(6)
    };
    let plan = FaultPlan::seeded("cluster/example-plan", &spec);

    let workload = WorkloadSpec::cameo_casp_mix(120, 6.0)
        .with_seed("cluster/example-workload")
        .synthesize(&reg);
    let mut cluster = Cluster::new(cfg, shards, plan);
    let out = cluster.run(&workload);

    let (outcomes, machinery) = out.stats.cluster_tables();
    print!("{}", outcomes.render());
    print!("{}", machinery.render());

    // Per-shard view: the loss victim stops early, the rest absorb it.
    for (i, s) in out.shard_stats.iter().enumerate() {
        println!(
            "shard {i}: {} completed, {} rejected, makespan {:.1}s",
            s.completed(),
            s.rejected(),
            s.makespan_seconds
        );
    }
    println!(
        "every request terminated: {} of {} definite, outcome fingerprint {:#018x}",
        out.stats.total(),
        workload.len(),
        out.fingerprint()
    );
}
