//! cluster_scale — sharded-serving scalability sweep over `ln_serve::cluster`.
//!
//! Drives the same heavy CAMEO/CASP-mix workload through clusters of
//! 1 → 16 virtual-time shard engines (each shard owns a full standard
//! backend pool) and reports per-shard-count p50/p99 completion latency,
//! SLO attainment and the hedging/stealing machinery counters. Because
//! every shard runs on the shared virtual clock, the whole sweep is
//! byte-identical across hosts and `ln-par` pool sizes.
//!
//! Each run writes `BENCH_CLUSTER.json` at the repo root, or exits
//! non-zero, writing nothing, if any sweep point leaves a request
//! unanswered, if a merged cluster trace leaves any span unattributed (or
//! drops events), or if p99 fails to improve monotonically 1 → 4 → 16
//! shards. Everything in the record is modeled, so it is a byte pin:
//! ci.sh step 11 runs the bin on the host's default pool and step 12
//! fails if the committed record moved. The golden cluster's identity
//! across `ln-par` pools 1/2/4 is held by `tests/cluster.rs`.

use ln_bench::{banner, emit, paper_note, show};
use ln_datasets::Registry;
use ln_insight::json::{obj, Value};
use ln_insight::CriticalPath;
use ln_serve::cluster::{Cluster, ClusterConfig, ClusterOutcome};
use ln_serve::fault::FaultPlan;
use ln_serve::{standard_backends, BatcherConfig, BucketPolicy, Engine, FoldRequest, WorkloadSpec};

const SEED: &str = "cluster/scale-workload";

/// The swept shard counts; p99 must fall across the 1, 4 and 16 points.
const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Completion-latency SLO for the attainment curve (virtual seconds).
const SLO_SECONDS: f64 = 120.0;

fn workload() -> Vec<FoldRequest> {
    let reg = Registry::standard();
    WorkloadSpec::cameo_casp_mix(360, 8.0)
        .with_seed(SEED)
        .with_timeout(100_000.0)
        .synthesize(&reg)
}

fn build_cluster(shards: usize) -> Cluster {
    let reg = Registry::standard();
    let policy = BucketPolicy::from_registry(&reg);
    // A deep queue keeps admission open under the deliberately heavy
    // traffic, so the sweep measures queueing delay rather than shedding.
    let cfg = BatcherConfig {
        queue_capacity: 4096,
        ..BatcherConfig::default()
    };
    let engines: Vec<Engine> = (0..shards)
        .map(|_| Engine::new(policy.clone(), cfg, standard_backends()))
        .collect();
    let mut cluster = Cluster::new(
        ClusterConfig {
            hedge_min_length: 2600,
            seed: "cluster/scale".to_string(),
            ..ClusterConfig::default()
        },
        engines,
        FaultPlan::none(),
    );
    cluster.set_tracing(true);
    cluster
}

struct SweepPoint {
    shards: usize,
    outcome: ClusterOutcome,
}

impl SweepPoint {
    fn p50(&self) -> f64 {
        self.outcome.stats.latency_percentile(0.5).unwrap_or(0.0)
    }

    fn p99(&self) -> f64 {
        self.outcome.stats.latency_percentile(0.99).unwrap_or(0.0)
    }

    /// Fraction of the whole workload that completed within the SLO.
    fn slo_attainment(&self) -> f64 {
        let within = self
            .outcome
            .stats
            .latencies_seconds
            .iter()
            .filter(|&&l| l <= SLO_SECONDS)
            .count();
        within as f64 / self.outcome.responses.len().max(1) as f64
    }
}

fn sweep(reqs: &[FoldRequest]) -> Vec<SweepPoint> {
    SHARD_COUNTS
        .iter()
        .map(|&shards| SweepPoint {
            shards,
            outcome: build_cluster(shards).run(reqs),
        })
        .collect()
}

fn sweep_table(points: &[SweepPoint]) -> lightnobel::report::Table {
    let mut t = lightnobel::report::Table::new([
        "shards",
        "completed",
        "timed-out",
        "rejected",
        "failed",
        "p50",
        "p99",
        "slo<=120s",
        "hedges",
        "steals",
    ]);
    for p in points {
        let s = &p.outcome.stats;
        t.add_row([
            p.shards.to_string(),
            s.completed.to_string(),
            s.timed_out.to_string(),
            s.rejected.to_string(),
            s.failed.to_string(),
            lightnobel::report::fmt_seconds(p.p50()),
            lightnobel::report::fmt_seconds(p.p99()),
            lightnobel::report::fmt_pct(p.slo_attainment()),
            s.hedges.to_string(),
            s.steals.to_string(),
        ]);
    }
    t
}

fn document(points: &[SweepPoint]) -> Value {
    let sweeps = points.iter().map(|p| {
        let st = &p.outcome.stats;
        obj([
            ("shards", Value::UInt(p.shards as u64)),
            ("p50_seconds", Value::Float(p.p50())),
            ("p99_seconds", Value::Float(p.p99())),
            ("slo_attainment", Value::Float(p.slo_attainment())),
            ("completed", Value::UInt(st.completed)),
            ("timed_out", Value::UInt(st.timed_out)),
            ("rejected", Value::UInt(st.rejected)),
            ("failed", Value::UInt(st.failed)),
            ("hedges", Value::UInt(st.hedges)),
            ("hedge_wasted", Value::UInt(st.hedge_wasted)),
            ("steals", Value::UInt(st.steals)),
        ])
    });
    obj([
        ("bench", Value::Str("cluster_scale".to_owned())),
        ("slo_seconds", Value::Float(SLO_SECONDS)),
        ("sweeps", Value::Arr(sweeps.collect())),
    ])
}

/// Every check the sweep must pass, one message per failure: one answer
/// per request and a fully attributed, untruncated merged trace at every
/// point, and p99 falling 1 → 4 → 16 shards.
fn failures(points: &[SweepPoint], requests: usize) -> Vec<String> {
    let mut out = Vec::new();
    for p in points {
        let (outcome, shards) = (&p.outcome, p.shards);
        if outcome.responses.len() != requests || outcome.stats.total() as usize != requests {
            out.push(format!(
                "LOST: {} response(s), {} terminal outcome(s) for {requests} request(s) at {shards} shards",
                outcome.responses.len(),
                outcome.stats.total(),
            ));
        }
        let trace = outcome.trace.as_deref().expect("tracing was on");
        let cp = CriticalPath::analyze(trace, outcome.trace_dropped);
        if !cp.unattributed.is_empty() {
            out.push(format!(
                "UNATTRIBUTED: {} span(s) at {shards} shards, first {:?}",
                cp.unattributed.len(),
                cp.unattributed.first()
            ));
        }
        if cp.truncated {
            out.push(format!(
                "TRUNCATED: {} trace event(s) dropped at {shards} shards",
                outcome.trace_dropped
            ));
        }
    }
    let at = |shards| points.iter().find(|p| p.shards == shards).expect("swept");
    for pair in [1, 4, 16].map(at).windows(2) {
        if pair[1].p99() >= pair[0].p99() {
            out.push(format!(
                "NO SCALING: p99 {:.3}s at {} shards vs {:.3}s at {} shards",
                pair[1].p99(),
                pair[1].shards,
                pair[0].p99(),
                pair[0].shards
            ));
        }
    }
    out
}

fn main() {
    banner("cluster_scale — sharded serving p99/SLO curves (ln_serve::cluster)");
    paper_note(
        "extension experiment: the paper's single-device serving model scaled \
         out to a shard fleet; consistent-hash placement with length-aware \
         override keeps CASP-scale sequences on AAQ-capable shards, hedging \
         and work stealing bound the tail, and the virtual clock keeps every \
         curve bit-identical across hosts and pool sizes",
    );

    let reqs = workload();
    let points = sweep(&reqs);
    show(&sweep_table(&points));

    let (outcomes, machinery) = points
        .last()
        .expect("non-empty sweep")
        .outcome
        .stats
        .cluster_tables();
    println!("\nat 16 shards:");
    show(&outcomes);
    show(&machinery);
    println!(
        "\np99 scaling 1 -> 4 -> 16 shards: {} -> {} -> {}",
        lightnobel::report::fmt_seconds(points[0].p99()),
        lightnobel::report::fmt_seconds(points[2].p99()),
        lightnobel::report::fmt_seconds(points[4].p99()),
    );

    let failures = failures(&points, reqs.len());
    for line in &failures {
        eprintln!("{line}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    emit("BENCH_CLUSTER.json", &document(&points), false);
    println!("cluster gate clean: every request answered, fully attributed, p99 scales");
}
