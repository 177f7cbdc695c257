//! cluster_scale — sharded-serving scalability sweep over `ln_serve::cluster`.
//!
//! Drives the same heavy CAMEO/CASP-mix workload through clusters of
//! 1 → 16 virtual-time shard engines (each shard owns a full standard
//! backend pool) and reports per-shard-count p50/p99 completion latency,
//! SLO attainment and the hedging/stealing machinery counters. Because
//! every shard runs on the shared virtual clock, the whole sweep is
//! byte-identical across hosts and `ln-par` pool sizes.
//!
//! The full run writes `BENCH_CLUSTER.json` at the repo root. `--quick`
//! (ci.sh) runs a smaller sweep and exits non-zero if the outcome
//! fingerprint diverges across `ln-par` pools {1, 2, 4}, if any request
//! goes unanswered, if the merged trace leaves any span unattributed (or
//! drops events), or if p99 fails to improve monotonically 1 → 4 → 16.

use ln_bench::{banner, emit, paper_note, show};
use ln_datasets::Registry;
use ln_insight::json::{obj, Value};
use ln_insight::CriticalPath;
use ln_serve::cluster::{Cluster, ClusterConfig, ClusterOutcome};
use ln_serve::fault::FaultPlan;
use ln_serve::{standard_backends, BatcherConfig, BucketPolicy, Engine, FoldRequest, WorkloadSpec};

const SEED: &str = "cluster/scale-workload";

/// Completion-latency SLO for the attainment curve (virtual seconds).
const SLO_SECONDS: f64 = 120.0;

fn workload(requests: usize, rate: f64) -> Vec<FoldRequest> {
    let reg = Registry::standard();
    WorkloadSpec::cameo_casp_mix(requests, rate)
        .with_seed(SEED)
        .with_timeout(100_000.0)
        .synthesize(&reg)
}

fn build_cluster(shards: usize, tracing: bool) -> Cluster {
    let reg = Registry::standard();
    let policy = BucketPolicy::from_registry(&reg, 4);
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
    cluster.set_tracing(tracing);
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

fn sweep(shard_counts: &[usize], reqs: &[FoldRequest], tracing: bool) -> Vec<SweepPoint> {
    shard_counts
        .iter()
        .map(|&shards| SweepPoint {
            shards,
            outcome: build_cluster(shards, tracing).run(reqs),
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

/// The --quick gate: pool-size reproducibility, one answer per request,
/// full trace attribution, and monotone p99 scaling over {1, 4, 16}
/// shards.
fn quick_gate(shard_counts: &[usize], reqs: &[FoldRequest]) -> bool {
    let mut bad = false;
    let mut points = Vec::new();
    for &shards in shard_counts {
        // One traced run per pool size; fingerprints must match bitwise.
        let outcomes: Vec<ClusterOutcome> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let pool = ln_par::Pool::new_exact(threads);
                ln_par::with_pool(&pool, || build_cluster(shards, true).run(reqs))
            })
            .collect();
        let prints: Vec<u64> = outcomes.iter().map(ClusterOutcome::fingerprint).collect();
        if prints.iter().any(|&p| p != prints[0]) {
            eprintln!("DIVERGENCE: {shards}-shard fingerprints across pools 1/2/4: {prints:?}");
            bad = true;
        }

        let outcome = outcomes.into_iter().next().expect("three runs");
        if outcome.responses.len() != reqs.len() || outcome.stats.total() as usize != reqs.len() {
            eprintln!(
                "LOST: {} response(s), {} terminal outcome(s) for {} request(s) at {shards} shards",
                outcome.responses.len(),
                outcome.stats.total(),
                reqs.len()
            );
            bad = true;
        }
        let trace = outcome.trace.as_deref().expect("tracing was on");
        let cp = CriticalPath::analyze(trace, outcome.trace_dropped);
        if !cp.unattributed.is_empty() {
            eprintln!(
                "UNATTRIBUTED: {} span(s) at {shards} shards:",
                cp.unattributed.len()
            );
            for line in cp.unattributed.iter().take(10) {
                eprintln!("  {line}");
            }
            bad = true;
        }
        if cp.truncated {
            eprintln!(
                "TRUNCATED: {} trace event(s) dropped at {shards} shards",
                outcome.trace_dropped
            );
            bad = true;
        }
        points.push(SweepPoint { shards, outcome });
    }

    show(&sweep_table(&points));
    emit("BENCH_CLUSTER.json", &document(&points), true);
    for pair in points.windows(2) {
        if pair[1].p99() >= pair[0].p99() {
            eprintln!(
                "NO SCALING: p99 {:.3}s at {} shards vs {:.3}s at {} shards",
                pair[1].p99(),
                pair[1].shards,
                pair[0].p99(),
                pair[0].shards
            );
            bad = true;
        }
    }
    bad
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner(if quick {
        "cluster_scale --quick — reproducibility + attribution + scaling gate"
    } else {
        "cluster_scale — sharded serving p99/SLO curves (ln_serve::cluster)"
    });
    paper_note(
        "extension experiment: the paper's single-device serving model scaled \
         out to a shard fleet; consistent-hash placement with length-aware \
         override keeps CASP-scale sequences on AAQ-capable shards, hedging \
         and work stealing bound the tail, and the virtual clock keeps every \
         curve bit-identical across hosts and pool sizes",
    );

    if quick {
        let reqs = workload(96, 6.0);
        if quick_gate(&[1, 4, 16], &reqs) {
            std::process::exit(1);
        }
        println!("cluster gate clean: reproducible, fully attributed, p99 scales");
        return;
    }

    let reqs = workload(360, 8.0);
    let points = sweep(&[1, 2, 4, 8, 16], &reqs, false);
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

    for (a, b) in [(0usize, 2usize), (2, 4)] {
        let (lo, hi) = (&points[b], &points[a]);
        assert!(
            lo.p99() < hi.p99(),
            "p99 must improve monotonically {} -> {} shards ({:.3}s vs {:.3}s)",
            hi.shards,
            lo.shards,
            hi.p99(),
            lo.p99()
        );
    }
    println!(
        "\np99 scaling 1 -> 4 -> 16 shards: {} -> {} -> {}",
        lightnobel::report::fmt_seconds(points[0].p99()),
        lightnobel::report::fmt_seconds(points[2].p99()),
        lightnobel::report::fmt_seconds(points[4].p99()),
    );

    emit("BENCH_CLUSTER.json", &document(&points), false);
}
