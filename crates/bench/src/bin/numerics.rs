//! Cost and fidelity benchmark for the ln-scope activation-numerics
//! observatory.
//!
//! Three sections:
//!
//! 1. **On-mode cost** — ns per activation value for the sketch + ledger
//!    path and for the full path with per-rung probes (which re-quantizes
//!    every activation once per candidate rung).
//! 2. **Pool-identity gate** — the golden CAMEO fold observed through a
//!    `ScopeHook` under `ln-par` pool sizes 1, 2 and 4 must produce
//!    byte-identical numerics snapshots (DESIGN.md §16).
//! 3. **Precision ledger** — the per-layer error/probe/census table over
//!    the golden fold, with the cheapest-safe-rung recommendation under
//!    the measured error→accuracy sensitivity model.
//!
//! What wrapping the AAQ hook in a [`ScopeHook`] costs when `LN_OBS=off`
//! is gated with the other off-mode paths by `obs_overhead`.
//!
//! The full run writes `BENCH_NUMERICS.json` at the repo root; `--quick`
//! (ci.sh step 8) runs a smaller iteration count and writes nothing. Both
//! exit non-zero, writing nothing, if the snapshots differ across pools or
//! the ledger comes back empty.

use std::hint::black_box;

use ln_bench::{banner, emit, paper_note, probe_tap, show, spiky_activation, time_best};
use ln_datasets::{Dataset, Registry};
use ln_insight::json::{obj, Value};
use ln_obs::ObsLevel;
use ln_ppm::taps::ActivationHook;
use ln_scope::{Scope, ScopeHook, SensitivityModel};

use lightnobel::hook::AaqHook;
use lightnobel::report::Table;
use lightnobel::{measure_sensitivity, AccuracyEvaluator, SensitivityRow};

/// The pool sizes the snapshot-identity gate sweeps.
const POOLS: [usize; 3] = [1, 2, 4];

struct OverheadRow {
    mode: &'static str,
    ns_per_value: f64,
}

/// `LN_OBS=counters`: absolute per-value cost of the sketch + ledger path,
/// with and without the per-rung probes.
fn bench_on_modes(iters: u64, reps: usize) -> Vec<OverheadRow> {
    ln_obs::set_level(ObsLevel::Counters);
    let values_per_tap = (16 * 128) as f64;
    let mut out = Vec::new();

    let mut lean = ScopeHook::new(AaqHook::paper(), 128).without_probes();
    let mut x = spiky_activation();
    out.push(OverheadRow {
        mode: "sketch+ledger",
        ns_per_value: time_best(reps, iters, |n| {
            for i in 0..n {
                lean.on_activation(probe_tap(i), black_box(&mut x));
            }
            n
        }) / values_per_tap,
    });

    let mut probing = ScopeHook::new(AaqHook::paper(), 128);
    let mut y = spiky_activation();
    out.push(OverheadRow {
        mode: "sketch+ledger+probes",
        ns_per_value: time_best(reps, iters, |n| {
            for i in 0..n {
                probing.on_activation(probe_tap(i), black_box(&mut y));
            }
            n
        }) / values_per_tap,
    });
    ln_obs::set_level(ObsLevel::Off);
    out
}

/// Runs the golden CAMEO fold once with a `ScopeHook` around the paper
/// AAQ hook and returns the collected numerics.
fn fold_scope(evaluator: &AccuracyEvaluator) -> Scope {
    let registry = Registry::standard();
    let record = registry.dataset(Dataset::Cameo).shortest();
    let (seq, native) = record.inputs(evaluator.max_len());
    let mut hook = ScopeHook::new(AaqHook::paper(), seq.len());
    evaluator
        .model()
        .predict_with_hook(&seq, &native, &mut hook)
        .expect("golden fold");
    Scope::from_hook(hook)
}

/// The pool-identity gate: the same fold under pool sizes 1/2/4 must
/// produce byte-identical snapshots. Returns the snapshots (pool order)
/// and the pool-1 scope for the ledger report.
fn pool_snapshots(evaluator: &AccuracyEvaluator) -> (Vec<String>, Scope) {
    ln_obs::set_level(ObsLevel::Counters);
    let mut snapshots = Vec::new();
    let mut first = None;
    for &threads in &POOLS {
        let pool = ln_par::Pool::new_exact(threads);
        let scope = ln_par::with_pool(&pool, || fold_scope(evaluator));
        snapshots.push(scope.snapshot_jsonl());
        if first.is_none() {
            first = Some(scope);
        }
    }
    ln_obs::set_level(ObsLevel::Off);
    (snapshots, first.expect("at least one pool"))
}

fn document(
    overhead: &[OverheadRow],
    identical: bool,
    sensitivity: &[SensitivityRow],
    rows: &[ln_insight::PrecisionRow],
    model: &SensitivityModel,
) -> Value {
    let text = |s: &str| Value::Str(s.to_owned());
    let overhead = overhead.iter().map(|r| {
        obj([
            ("mode", text(r.mode)),
            ("ns_per_value", Value::Float(r.ns_per_value)),
        ])
    });
    let sensitivity = sensitivity.iter().map(|r| {
        obj([
            ("group", text(&format!("{:?}", r.group))),
            ("amplitude", Value::Float(r.amplitude)),
            ("tm_vs_reference", Value::Float(r.tm_vs_reference)),
            ("sensitivity", Value::Float(r.sensitivity)),
        ])
    });
    let ledger = rows.iter().map(|r| {
        let recommend = r.recommend(ln_insight::DEFAULT_TM_BUDGET, model);
        obj([
            ("layer", text(&r.layer())),
            ("stage", text(r.stage)),
            ("rung", text(&r.entry.rung)),
            ("taps", Value::UInt(r.entry.taps)),
            ("relative_rmse", Value::Float(r.entry.relative_rmse())),
            ("int4_rmse", Value::Float(r.probe_rmse(0).unwrap_or(0.0))),
            ("int8_rmse", Value::Float(r.probe_rmse(1).unwrap_or(0.0))),
            (
                "compression_vs_fp16",
                Value::Float(r.entry.compression_vs_fp16()),
            ),
            (
                "outlier_fraction_int8",
                Value::Float(r.census.outlier_fraction(0)),
            ),
            ("recommend", text(&recommend)),
        ])
    });
    let pools = POOLS.iter().map(|&p| Value::UInt(p as u64));
    obj([
        ("bench", text("numerics")),
        ("overhead", Value::Arr(overhead.collect())),
        (
            "pool_identity",
            obj([
                ("pools", Value::Arr(pools.collect())),
                ("identical", Value::Bool(identical)),
            ]),
        ),
        ("sensitivity", Value::Arr(sensitivity.collect())),
        ("ledger", Value::Arr(ledger.collect())),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner(if quick {
        "numerics --quick — activation-numerics pool-identity and ledger gate (ln-scope)"
    } else {
        "numerics — sketch/ledger overhead, pool identity, precision ledger"
    });
    paper_note(
        "the observatory watches the quantity AAQ manages — token-wise \
         activation outliers (Fig. 5/6) and the per-layer error each rung \
         introduces — so it must be free when off, cheap when on, and \
         byte-deterministic across worker pools",
    );

    let (on_iters, reps) = if quick { (200, 9) } else { (2_000, 15) };

    let overhead = bench_on_modes(on_iters, reps);

    let evaluator = AccuracyEvaluator::fast();
    let (snapshots, scope) = pool_snapshots(&evaluator);
    let identical = snapshots.iter().all(|s| s == &snapshots[0]);

    let registry = Registry::standard();
    let record = registry.dataset(Dataset::Cameo).shortest();
    let (sensitivity, model) =
        measure_sensitivity(&evaluator, record, 0.02).expect("sensitivity replay");

    let rows = ln_insight::precision_rows(&scope);
    let table = ln_insight::precision_ledger_table(&rows, ln_insight::DEFAULT_TM_BUDGET, &model);

    let mut t = Table::new(["mode", "ns/value"]);
    for r in &overhead {
        t.add_row([r.mode.to_string(), format!("{:.2}", r.ns_per_value)]);
    }
    show(&t);
    let mut t = Table::new(["group", "amplitude", "tm vs ref", "sensitivity"]);
    for r in &sensitivity {
        t.add_row([
            format!("{:?}", r.group),
            format!("{:.3}", r.amplitude),
            format!("{:.6}", r.tm_vs_reference),
            format!("{:.6}", r.sensitivity),
        ]);
    }
    show(&t);
    print!("{table}");
    println!(
        "pool snapshots {}",
        if identical {
            "byte-identical across pools 1/2/4"
        } else {
            "DIVERGED across pools"
        }
    );

    let mut failed_gate = false;
    if !identical {
        eprintln!("REGRESSION: numerics snapshots differ across ln-par pool sizes");
        failed_gate = true;
    }
    if rows.is_empty() {
        eprintln!("REGRESSION: the golden fold produced an empty precision ledger");
        failed_gate = true;
    }
    if failed_gate {
        std::process::exit(1);
    }

    emit(
        "BENCH_NUMERICS.json",
        &document(&overhead, identical, &sensitivity, &rows, &model),
        quick,
    );
    println!("numerics gates passed");
}
