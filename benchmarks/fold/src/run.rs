//! The untraced run: set-up, then timed folds back to back. Its numbers
//! are the end-to-end metrics.

use crate::json::{self, Value};
use crate::report::Outcome;
use crate::workload::{check_fold, set_up, Workload};
use crate::{host, stats};
use std::time::Instant;

/// At least this many timed folds, so that `fold_bitwise_repeat` compares
/// something.
const MIN_FOLDS: usize = 2;

/// How much to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub len: usize,
    pub setups: usize,
    /// Timed folds go on until this much time has passed …
    pub seconds: f64,
    /// … unless a fold count is fixed.
    pub folds: Option<usize>,
}

pub fn run(workload: &Workload, seed: u64, plan: Plan) -> Outcome {
    let mut ready = set_up(workload, plan.len, seed);
    let mut setup_seconds = vec![ready.setup_s];
    for _ in 1..plan.setups {
        ready = set_up(workload, plan.len, seed);
        setup_seconds.push(ready.setup_s);
    }
    let rss_reset = host::reset_peak_rss();

    let mut fold_seconds = Vec::new();
    let mut checks = Vec::new();
    let timed = Instant::now();
    loop {
        let mut hook = workload.hook();
        let started = Instant::now();
        let result = ready
            .model
            .predict_with_hook(&ready.sequence, &ready.native, hook.as_dyn());
        fold_seconds.push(started.elapsed().as_secs_f64());
        checks.push(check_fold(workload, &ready, &hook, &result));
        // Free the fold's output before the next one starts, so the peak
        // is one fold's, not two.
        drop(result);
        let done = match plan.folds {
            Some(n) => checks.len() >= n,
            None => checks.len() >= MIN_FOLDS && timed.elapsed().as_secs_f64() >= plan.seconds,
        };
        if done {
            break;
        }
    }
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);

    let attempted = checks.len() as u64;
    let failed = checks.iter().filter(|c| c.failure.is_some()).count() as u64;
    let mut violations: Vec<String> = checks
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.failure.as_ref().map(|f| format!("fold {i}: {f}")))
        .collect();
    let bitwise_repeat = checks
        .iter()
        .all(|c| c.fingerprint == checks[0].fingerprint);
    if !bitwise_repeat {
        violations.push("timed folds are not bit-identical".to_owned());
    }

    let fold = stats::quartiles(&fold_seconds);
    let config = workload.config();
    let pair_tokens = (plan.len * plan.len * config.blocks * config.recycles) as f64;
    let min_of = |f: fn(&crate::workload::FoldCheck) -> f64| {
        checks.iter().map(f).fold(f64::INFINITY, f64::min)
    };
    println!(
        "{} fold_s over n={} folds: min {:?} q1 {:?} median {:?} q3 {:?}; peak-RSS reset took: {rss_reset}",
        workload.name,
        fold_seconds.len(),
        fold_seconds.iter().copied().fold(f64::INFINITY, f64::min),
        fold.q1,
        fold.median,
        fold.q3,
    );
    Outcome {
        attempted,
        failed,
        violations,
        values: vec![
            ("fold_s", fold.median),
            ("pair_tokens_per_s", pair_tokens / fold.median),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", stats::median(&setup_seconds)),
            ("tm_vs_fp32", min_of(|c| c.tm_vs_fp32)),
            ("act_compression", min_of(|c| c.act_compression)),
            ("fold_bitwise_repeat", f64::from(u8::from(bitwise_repeat))),
            (
                "succeeded_frac",
                (attempted - failed) as f64 / attempted as f64,
            ),
        ],
        details: json::obj([
            ("seed", Value::UInt(seed)),
            ("len", Value::UInt(plan.len as u64)),
            ("host", host::facts(1)),
            ("rss_reset", Value::Bool(rss_reset)),
            ("fold_seconds", float_array(&fold_seconds)),
            ("setup_seconds", float_array(&setup_seconds)),
        ]),
    }
}

pub fn float_array(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::Float(v)).collect())
}
