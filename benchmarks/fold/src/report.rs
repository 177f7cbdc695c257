//! Prints a run's metrics by name with their units, writes the result
//! file, and ends standard output with the one-line JSON result.

use crate::json::{self, Value};
use crate::metrics::Metric;
use std::path::PathBuf;

/// What one run of one workload measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks that belong to the run, not to one fold.
    pub violations: Vec<String>,
    pub values: Vec<(&'static str, f64)>,
    /// Context for the result file: inputs, host facts, per-fold times.
    pub details: Value,
}

/// `benchmarks/fold/out/`, inside the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Prints every metric of `table` and the result line; returns whether
/// the run was correct. `outcome.values` must hold exactly the metrics of
/// `table`: a missing or an unknown name is a bug, not a default.
pub fn emit(workload: &str, file_stem: &str, table: &[Metric], outcome: &Outcome) -> bool {
    for (name, _) in &outcome.values {
        assert!(
            table.iter().any(|m| m.name == *name),
            "metric {name} is not declared"
        );
    }
    let mut violations = outcome.violations.clone();
    let mut metrics = Vec::with_capacity(table.len());
    for metric in table {
        let value = outcome
            .values
            .iter()
            .find(|(name, _)| *name == metric.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", metric.name))
            .1;
        if !value.is_finite() {
            violations.push(format!("{} is not finite", metric.name));
        }
        println!("{workload} {} = {value:?} {}", metric.name, metric.unit);
        metrics.push((
            metric.name.to_owned(),
            json::obj([
                ("value", Value::Float(value)),
                ("unit", Value::Str(metric.unit.to_owned())),
            ]),
        ));
    }
    println!(
        "{workload} folds: attempted {} succeeded {} failed {}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    for violation in &violations {
        println!("{workload} CHECK FAILED: {violation}");
    }
    let correct = outcome.failed == 0 && violations.is_empty();
    let result = json::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        ("metrics", Value::Obj(metrics)),
    ]);

    let file = json::obj([
        ("workload", Value::Str(workload.to_owned())),
        ("details", outcome.details.clone()),
        (
            "violations",
            Value::Arr(violations.into_iter().map(Value::Str).collect()),
        ),
        ("result", result.clone()),
    ]);
    let path = out_dir().join(format!("{file_stem}.json"));
    if let Err(e) = write_file(&path, &(json::write(&file) + "\n")) {
        eprintln!("foldbench: cannot write {}: {e}", path.display());
    }

    println!("{}", json::write(&result));
    correct
}

pub fn write_file(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
