//! Golden acceptance test for the ln-watch flight recorder and SLO engine.
//!
//! The same seeded chaos run as `tests/cluster.rs` — shard loss at 6 s, a
//! network partition over shard 2, hedging and stealing active — but with a
//! [`Watch`] attached. The black boxes it captures must be **byte
//! identical** across `ln-par` pool sizes 1/2/4, the error-budget
//! accounting must be exact (bucket scopes partition the global scope, and
//! `budget_remaining` is an affine function of `total`/`budget_spent`), and
//! every artifact must re-ingest losslessly through the `ln-insight`
//! black-box parser.

use ln_cluster::{Cluster, ClusterConfig, ClusterOutcome};
use ln_datasets::Registry;
use ln_fault::{ChaosSpec, FaultPlan, PartitionWindow, ResilienceConfig, ShardLossEvent};
use ln_serve::{standard_backends, BatcherConfig, BucketPolicy, Engine, FoldRequest, WorkloadSpec};
use ln_watch::{Blackbox, SloSpec, WatchConfig};

const SEED: &str = "cluster/golden-workload";
const PLAN_SEED: &str = "cluster/golden-plan";
const SHARDS: usize = 4;

// Every test holds `ln_obs::pin_level` for its whole run: it pins the global
// `LN_OBS` level, and its one lock serializes the tests, whose watches
// mirror into the global registry at end of run.

fn chaos_plan() -> FaultPlan {
    let spec = ChaosSpec {
        shards: SHARDS,
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

/// Sensitive objectives so the chaos plan deterministically breaches: the
/// partition and shard loss stretch several tail latencies past 60 s, so
/// the p99 objective (budget 1%) burns far over threshold.
fn watch_config() -> WatchConfig {
    WatchConfig {
        slos: vec![
            SloSpec {
                min_events: 4,
                burn_threshold: 1.0,
                ..SloSpec::deadline_hit_rate("deadline", 0.9)
            },
            SloSpec::p99_latency("p99_latency", 60.0, 0.99),
            SloSpec::degradation_rate("precision", 0.8),
        ],
    }
}

/// One watched chaos run on an `ln-par` pool of `threads` executors.
fn watched_run(threads: usize) -> (ClusterOutcome, Vec<Blackbox>) {
    let pool = ln_par::Pool::new_exact(threads);
    ln_par::with_pool(&pool, || {
        let reg = Registry::standard();
        let policy = BucketPolicy::from_registry(&reg, 4);
        let shards: Vec<Engine> = (0..SHARDS)
            .map(|_| {
                Engine::with_resilience(
                    policy.clone(),
                    BatcherConfig::default(),
                    standard_backends(),
                    FaultPlan::none(),
                    ResilienceConfig::default(),
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
        let handle = cluster.enable_watch(watch_config());
        let outcome = cluster.run(&workload());
        let boxes = ln_watch::Watch::lock(&handle).blackboxes().to_vec();
        (outcome, boxes)
    })
}

#[test]
fn blackboxes_are_byte_identical_across_pool_sizes() {
    let _obs = ln_obs::pin_level(ln_obs::ObsLevel::Counters);

    let (base_out, base_boxes) = watched_run(1);
    let report = base_out.watch.as_ref().expect("watch was enabled");

    // The chaos plan's injected faults must leave black boxes behind, and
    // the tuned deadline objective must breach at least once.
    assert!(
        report
            .blackboxes
            .iter()
            .any(|(_, trigger, at)| trigger == "shard_loss:shard:1" && *at == 6.0),
        "no shard-loss black box: {:?}",
        report.blackboxes
    );
    assert!(
        report
            .blackboxes
            .iter()
            .any(|(_, trigger, _)| trigger == "partition_window:shard:2"),
        "no partition black box: {:?}",
        report.blackboxes
    );
    assert!(
        report.breaches_total > 0,
        "no SLO ever breached under chaos: {report:?}"
    );
    assert!(
        report
            .blackboxes
            .iter()
            .any(|(_, trigger, _)| trigger.starts_with("slo_breach:p99_latency@")),
        "no breach black box: {:?}",
        report.blackboxes
    );
    assert!(!report.watermarks.is_empty(), "no watermark rows recorded");

    for threads in [2usize, 4] {
        let (other_out, other_boxes) = watched_run(threads);
        assert_eq!(
            base_out.fingerprint(),
            other_out.fingerprint(),
            "pool size {threads} perturbed the cluster outcome"
        );
        assert_eq!(
            base_out.watch, other_out.watch,
            "pool size {threads} perturbed the watch report"
        );
        assert_eq!(
            base_boxes.len(),
            other_boxes.len(),
            "pool size {threads} changed the number of black boxes"
        );
        for (a, b) in base_boxes.iter().zip(&other_boxes) {
            assert_eq!(a.trigger, b.trigger);
            assert_eq!(
                a.artifact, b.artifact,
                "pool size {threads} perturbed black box {} ({})",
                a.seq, a.trigger
            );
        }
    }
}

#[test]
fn blackbox_artifacts_are_pinned() {
    // Absolute values, recorded at commit ebb1c0b (before the router's run
    // state moved into one struct): the test above compares the black boxes
    // to a re-run of themselves, so only this one sees them move.
    const BLACKBOXES: usize = 7;
    const ARTIFACTS_FNV1A: u64 = 0x39ab_60f2_1fc1_ff10;

    let _obs = ln_obs::pin_level(ln_obs::ObsLevel::Counters);

    let (_, boxes) = watched_run(1);
    let mut all = String::new();
    for b in &boxes {
        all.push_str(&b.trigger);
        all.push('\n');
        all.push_str(&b.artifact);
    }
    assert_eq!(boxes.len(), BLACKBOXES);
    assert_eq!(ln_tensor::rng::seed_from_label(&all), ARTIFACTS_FNV1A);
}

#[test]
fn error_budget_accounting_is_exact() {
    let _obs = ln_obs::pin_level(ln_obs::ObsLevel::Counters);

    let (out, _) = watched_run(1);
    let report = out.watch.expect("watch was enabled");
    let slo_names = ["deadline", "p99_latency", "precision"];

    for slo in slo_names {
        let rows: Vec<_> = report.budgets.iter().filter(|r| r.slo == slo).collect();
        let global = rows
            .iter()
            .find(|r| r.scope == "global")
            .unwrap_or_else(|| panic!("no global budget row for {slo}"));

        // Every event lands in exactly one length bucket, so the bucket
        // scopes partition the global scope — totals and spend conserve.
        let bucket_total: u64 = rows
            .iter()
            .filter(|r| r.scope.starts_with("bucket:"))
            .map(|r| r.total)
            .sum();
        let bucket_spent: u64 = rows
            .iter()
            .filter(|r| r.scope.starts_with("bucket:"))
            .map(|r| r.budget_spent)
            .sum();
        assert_eq!(bucket_total, global.total, "{slo}: bucket totals leak");
        assert_eq!(
            bucket_spent, global.budget_spent,
            "{slo}: bucket budget spend leaks"
        );

        // Shard scopes cover at most the global scope (router-terminal
        // outcomes carry no shard attribution).
        let shard_total: u64 = rows
            .iter()
            .filter(|r| r.scope.starts_with("shard:"))
            .map(|r| r.total)
            .sum();
        assert!(
            shard_total <= global.total,
            "{slo}: shard totals exceed global"
        );

        // budget_remaining is exactly (1 − target) · total − spent.
        let target = match slo {
            "deadline" => 0.9,
            "p99_latency" => 0.99,
            _ => 0.8,
        };
        for r in &rows {
            let expect = (1.0 - target) * r.total as f64 - r.budget_spent as f64;
            assert!(
                (r.budget_remaining - expect).abs() < 1e-9,
                "{slo}@{}: remaining {} != {expect}",
                r.scope,
                r.budget_remaining
            );
        }
    }

    // The deadline objective counts attempt-level outcomes: every request
    // terminates exactly once, plus one extra completion per wasted hedge
    // (the loser shard still settles its copy of the batch).
    let deadline_global = report
        .budgets
        .iter()
        .find(|r| r.slo == "deadline" && r.scope == "global")
        .unwrap();
    assert_eq!(
        deadline_global.total,
        out.stats.total() + out.stats.hedge_wasted,
        "deadline SLO must count every attempt-level outcome: {:?}",
        out.stats
    );
}

#[test]
fn blackbox_artifacts_reingest_through_insight() {
    let _obs = ln_obs::pin_level(ln_obs::ObsLevel::Counters);

    let (_, boxes) = watched_run(1);
    assert!(!boxes.is_empty());
    for b in &boxes {
        let doc = ln_insight::parse_blackbox(&b.artifact)
            .unwrap_or_else(|e| panic!("black box {} failed to parse: {e}", b.seq));
        assert_eq!(doc.seq, b.seq);
        assert_eq!(doc.trigger, b.trigger);
        assert_eq!(doc.ts_nanos, ln_obs::seconds_to_nanos(b.at_seconds));

        // Lossless: re-serializing the parsed events and metrics must
        // reproduce the artifact body byte for byte — the exporters and
        // the insight parsers are exact inverses.
        let header_len = b.artifact.find('\n').expect("header line") + 1;
        let body = &b.artifact[header_len..];
        let reserialized = format!(
            "{}{}",
            ln_obs::jsonl_events(&doc.events),
            ln_obs::metrics_jsonl(&doc.metrics)
        );
        assert_eq!(
            body, reserialized,
            "black box {} body is not a fixed point",
            b.seq
        );
    }

    // At least one breach box embeds the registry at breach time: burn
    // gauges and the breach counter must be present in the snapshot.
    let breach = boxes
        .iter()
        .find(|b| b.trigger.starts_with("slo_breach:"))
        .expect("no breach black box");
    let doc = ln_insight::parse_blackbox(&breach.artifact).unwrap();
    assert!(
        doc.metrics
            .keys()
            .any(|k| k.starts_with("watch_slo_burn_rate")),
        "breach box carries no burn-rate gauges"
    );
    assert!(
        doc.metrics.contains_key("watch_slo_breaches_total"),
        "breach box carries no breach counter"
    );
}
