//! Repeatability mode: whole sets of runs of the same code, compared by
//! the median of each set against the bounds `BENCHMARK.json` fixes. A
//! single fold swings by ±10 % on a shared host and a slow minute lifts a
//! whole run, so a set is several runs and sets are compared by medians.

use crate::json::{self, Value};
use crate::metrics::{Metric, END_TO_END};
use crate::stats;
use crate::Args;
use std::path::PathBuf;

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub bound: f64,
}

fn manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json")
}

pub fn load_manifest() -> Result<Value, String> {
    let path = manifest_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The end-to-end metrics `manifest` declares. They must be exactly the
/// ones this program prints: an unknown or a missing name is an error.
pub fn end_to_end_bounds(manifest: &Value) -> Result<Vec<Bounded>, String> {
    let entries = manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let bounds = entries
        .iter()
        .map(|entry| {
            let text = |key| entry.get(key).and_then(Value::as_str).map(str::to_owned);
            Some(Bounded {
                name: text("name")?,
                unit: text("unit")?,
                bound: entry.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("an end_to_end entry of BENCHMARK.json lacks name, unit or bound")?;
    check_names(bounds.iter().map(|b| (&*b.name, &*b.unit)), &END_TO_END)?;
    Ok(bounds)
}

/// `declared` (name, unit) pairs must be `printed`, one for one.
fn check_names<'a>(
    declared: impl Iterator<Item = (&'a str, &'a str)>,
    printed: &[Metric],
) -> Result<(), String> {
    let declared: Vec<_> = declared.collect();
    for (name, unit) in &declared {
        match printed.iter().find(|m| m.name == *name) {
            None => return Err(format!("BENCHMARK.json names the unknown metric {name:?}")),
            Some(m) if m.unit != *unit => {
                return Err(format!(
                    "{name}: unit {unit:?} declared, {:?} printed",
                    m.unit
                ))
            }
            Some(_) => {}
        }
    }
    match printed
        .iter()
        .find(|m| !declared.iter().any(|(name, _)| *name == m.name))
    {
        Some(m) => Err(format!("BENCHMARK.json does not declare {:?}", m.name)),
        None => Ok(()),
    }
}

/// The metric values of one run, read from the result line a child
/// printed last.
fn parse_result(stdout: &str, bounds: &[Bounded]) -> Result<Vec<f64>, String> {
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err("the run reported correct: false".to_owned());
    }
    bounds
        .iter()
        .map(|b| {
            result
                .get("metrics")
                .and_then(|m| m.get(&b.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("the run did not report {}", b.name))
        })
        .collect()
}

/// Whether the set medians of one metric agree: the widest gap between
/// two of them, as a share of the median of all runs, within the bound.
pub fn sets_agree(set_medians: &[f64], overall_median: f64, bound: f64) -> bool {
    let max = set_medians
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let min = set_medians.iter().copied().fold(f64::INFINITY, f64::min);
    max - min <= bound * overall_median.abs()
}

/// Runs `--sets` sets of `--runs` runs of every chosen workload, each run
/// a process of its own, and prints one row per workload and metric.
/// Run `r` of every set takes seed `--seed + r`, so exact-repeat metrics
/// must come out equal across sets. Returns whether every metric agreed.
pub fn run(args: &Args) -> bool {
    let bounds = match load_manifest().and_then(|m| end_to_end_bounds(&m)) {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("foldbench: {e}");
            return false;
        }
    };
    let workloads = args.workloads();
    // values[workload][set][run][metric]
    let mut values = vec![vec![Vec::new(); args.sets]; workloads.len()];
    for set in 0..args.sets {
        for run in 0..args.runs {
            for (workload, of_workload) in workloads.iter().zip(&mut values) {
                let seed = args.seed + run as u64;
                eprintln!("repeat: set {set} run {run} {} seed {seed}", workload.name);
                let output = args
                    .child(workload.name, seed)
                    .output()
                    .expect("foldbench can start itself");
                let stdout = String::from_utf8_lossy(&output.stdout);
                match parse_result(&stdout, &bounds) {
                    Ok(run_values) if output.status.success() => of_workload[set].push(run_values),
                    Ok(_) => {
                        eprintln!("foldbench: {} exited with {}", workload.name, output.status);
                        return false;
                    }
                    Err(e) => {
                        eprintln!("foldbench: {}: {e}", workload.name);
                        return false;
                    }
                }
            }
        }
    }

    let mut all_agree = true;
    println!(
        "{:<18} {:<20} {:>12} {:>12} {:>12} {:>8} {:>7}  {:<10} set medians",
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict"
    );
    for (w, workload) in workloads.iter().enumerate() {
        for (m, bounded) in bounds.iter().enumerate() {
            let of_set = |set: &Vec<Vec<f64>>| set.iter().map(|run| run[m]).collect::<Vec<_>>();
            let set_medians: Vec<f64> = values[w]
                .iter()
                .map(|set| stats::median(&of_set(set)))
                .collect();
            let all: Vec<f64> = values[w].iter().flat_map(of_set).collect();
            let q = stats::quartiles(&all);
            let agree = sets_agree(&set_medians, q.median, bounded.bound);
            all_agree &= agree;
            println!(
                "{:<18} {:<20} {:>12.6} {:>12.6} {:>12.6} {:>7.2}% {:>6.2}%  {:<10} {:?}",
                workload.name,
                bounded.name,
                q.median,
                q.q1,
                q.q3,
                100.0 * q.spread(),
                100.0 * bounded.bound,
                if agree { "agree" } else { "unresolved" },
                set_medians,
            );
        }
    }
    all_agree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workload::WORKLOADS;

    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let manifest = load_manifest().unwrap();
        let bounds = end_to_end_bounds(&manifest).unwrap();
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));

        let per_layer = manifest.get("per_layer").and_then(Value::as_arr).unwrap();
        let text =
            |entry: &'_ Value, key| entry.get(key).and_then(Value::as_str).unwrap().to_owned();
        let declared: Vec<(String, String)> = per_layer
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit")))
            .collect();
        check_names(declared.iter().map(|(n, u)| (&**n, &**u)), &PER_LAYER).unwrap();

        let workloads = manifest.get("workloads").and_then(Value::as_arr).unwrap();
        let names: Vec<String> = workloads.iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
        assert_eq!(
            manifest.get("run_seconds").and_then(Value::as_f64),
            Some(crate::RUN_SECONDS)
        );
    }

    #[test]
    fn unknown_and_missing_metric_names_are_errors() {
        let printed = [
            Metric {
                name: "a",
                unit: "s",
            },
            Metric {
                name: "b",
                unit: "s",
            },
        ];
        assert!(check_names([("a", "s"), ("b", "s")].into_iter(), &printed).is_ok());
        assert!(check_names([("a", "s")].into_iter(), &printed).is_err());
        assert!(check_names([("a", "s"), ("b", "s"), ("c", "s")].into_iter(), &printed).is_err());
        assert!(check_names([("a", "s"), ("b", "ms")].into_iter(), &printed).is_err());
    }

    #[test]
    fn result_line_is_read_back() {
        let bounds = [Bounded {
            name: "fold_s".to_owned(),
            unit: "s".to_owned(),
            bound: 0.1,
        }];
        let good = "noise\n{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
                    \"metrics\": {\"fold_s\": {\"value\": 2.5, \"unit\": \"s\"}}}";
        assert_eq!(parse_result(good, &bounds).unwrap(), vec![2.5]);
        assert!(parse_result(&good.replace("true", "false"), &bounds).is_err());
        assert!(parse_result(&good.replace("fold_s", "fold_ms"), &bounds).is_err());
        assert!(parse_result("", &bounds).is_err());
    }

    #[test]
    fn set_medians_are_compared_with_the_bound() {
        assert!(sets_agree(&[2.0, 2.1], 2.05, 0.1));
        assert!(!sets_agree(&[2.0, 2.3], 2.1, 0.1));
        assert!(sets_agree(&[1.0, 1.0, 1.0], 1.0, 0.0005));
        assert!(!sets_agree(&[1.0, 0.0], 1.0, 0.01));
    }
}
