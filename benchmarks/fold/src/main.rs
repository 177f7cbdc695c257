//! foldbench — the repo's benchmark: one real fold
//! (`FoldingModel::predict_with_hook`) under FP32, fake-quant AAQ and
//! quantized-domain AAQ, plus the chunked long-sequence path. See
//! `README.md` beside this package for the load shape and every metric.

mod host;
mod json;
mod metrics;
mod probes;
mod repeat;
mod report;
mod run;
mod span;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode};

/// Seconds of timed folds per run unless `--seconds` says otherwise;
/// equal to `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "\
usage: foldbench [run|trace|repeat] [flags]
  run     (default) set-up, then timed folds; prints the end-to-end metrics
  trace   same as `run --trace 1`: one traced fold; prints the per-layer metrics
  repeat  whole sets of runs; do their medians agree within the bounds?
flags:
  --workload <name|all>  fold_fp32 | fold_aaq | fold_qdomain | fold_long_chunked (default all)
  --seed <u64>           inputs come from the label foldbench/<seed> (default 0)
  --seconds <s>          timed folds go on until this has passed, two at least (default 15)
  --folds <n>            a fixed number of timed folds instead
  --trace <0|1>          1: the traced run
  --quick                L=32, one set-up, one fold, every check on
  --sets <n> --runs <n>  repeat: sets to compare and runs in each (default 2 and 3)";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    repeat: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    folds: Option<usize>,
    trace: bool,
    quick: bool,
    sets: usize,
    runs: usize,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            repeat: false,
            workload: "all".to_owned(),
            seed: 0,
            seconds: RUN_SECONDS,
            folds: None,
            trace: false,
            quick: false,
            sets: 2,
            runs: 3,
        };
        let mut args = args.into_iter().peekable();
        if let Some(command) = args.next_if(|a| !a.starts_with("--")) {
            match command.as_str() {
                "run" => {}
                "trace" => parsed.trace = true,
                "repeat" => parsed.repeat = true,
                other => return Err(format!("unknown command {other:?}")),
            }
        }
        while let Some(flag) = args.next() {
            if flag == "--quick" {
                parsed.quick = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
            match flag.as_str() {
                "--workload" => parsed.workload = value,
                "--seed" => parsed.seed = value.parse().map_err(|_| bad("a u64"))?,
                "--seconds" => {
                    parsed.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("seconds"))?;
                }
                "--folds" => parsed.folds = Some(positive(&value).ok_or_else(|| bad("a count"))?),
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--sets" => parsed.sets = positive(&value).ok_or_else(|| bad("a count"))?,
                "--runs" => parsed.runs = positive(&value).ok_or_else(|| bad("a count"))?,
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        if parsed.workload != "all" && workload::find(&parsed.workload).is_none() {
            return Err(format!("unknown workload {:?}", parsed.workload));
        }
        Ok(parsed)
    }

    /// The workloads `--workload` names.
    fn workloads(&self) -> Vec<&'static workload::Workload> {
        workload::WORKLOADS
            .iter()
            .filter(|w| self.workload == "all" || self.workload == w.name)
            .collect()
    }

    /// This process's own executable, asked for one run of one workload.
    /// Every workload runs in a process of its own, so that its peak RSS
    /// is its own. The arguments are the driver's, in the driver's order:
    /// the allocator's layout, and with it the peak RSS by one pair tensor,
    /// depends on as little as the length of the argument list.
    fn child(&self, workload: &str, seed: u64) -> Command {
        let exe = std::env::current_exe().expect("the running executable has a path");
        let mut command = Command::new(exe);
        command.args(["--workload", workload]);
        command.args(["--seed", &seed.to_string()]);
        command.args(["--seconds", &self.seconds.to_string()]);
        command.args(["--trace", if self.trace { "1" } else { "0" }]);
        if let Some(folds) = self.folds {
            command.args(["--folds", &folds.to_string()]);
        }
        if self.quick {
            command.arg("--quick");
        }
        command
    }
}

fn positive(text: &str) -> Option<usize> {
    text.parse().ok().filter(|&n| n > 0)
}

/// One run of one workload in this process, under a pool of one thread.
fn run_one(workload: &'static workload::Workload, args: &Args) -> bool {
    let len = if args.quick {
        workload::QUICK_LEN
    } else {
        workload.len
    };
    ln_par::with_pool(&ln_par::Pool::new_exact(1), || {
        if args.trace {
            let (outcome, spans) = trace::run(workload, args.seed, len);
            let path = report::out_dir().join(format!("{}.trace.jsonl", workload.name));
            if let Err(e) = report::write_file(&path, &span::to_jsonl(&spans)) {
                eprintln!("foldbench: cannot write {}: {e}", path.display());
            }
            let stem = format!("{}.trace", workload.name);
            report::emit(workload.name, &stem, &metrics::PER_LAYER, &outcome)
        } else {
            let plan = run::Plan {
                len,
                setups: if args.quick { 1 } else { workload.setups },
                seconds: args.seconds,
                folds: if args.quick { Some(1) } else { args.folds },
            };
            let outcome = run::run(workload, args.seed, plan);
            report::emit(workload.name, workload.name, &metrics::END_TO_END, &outcome)
        }
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("foldbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.repeat {
        repeat::run(&args)
    } else if let [workload] = args.workloads()[..] {
        run_one(workload, &args)
    } else {
        let mut ok = true;
        for workload in args.workloads() {
            let status = args
                .child(workload.name, args.seed)
                .status()
                .expect("foldbench can start itself");
            ok &= status.success();
        }
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&[
            "--workload",
            "fold_aaq",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, "fold_aaq");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 15.0, true));
        assert!(!args.repeat && !args.quick && args.folds.is_none());
    }

    #[test]
    fn commands_and_defaults() {
        let args = parse(&["trace", "--workload", "fold_fp32"]).unwrap();
        assert!(args.trace && !args.repeat);
        let args = parse(&["repeat", "--sets", "3", "--runs", "4"]).unwrap();
        assert!(args.repeat);
        assert_eq!((args.sets, args.runs), (3, 4));
        assert_eq!(args.workloads().len(), 4);
        let args = parse(&["run", "--quick", "--folds", "2"]).unwrap();
        assert!(args.quick);
        assert_eq!(args.folds, Some(2));
        assert_eq!(parse(&[]).unwrap().seconds, RUN_SECONDS);
    }

    #[test]
    fn unknown_names_are_errors() {
        assert!(parse(&["--workload", "fold_fp16"]).is_err());
        assert!(parse(&["bench"]).is_err());
        assert!(parse(&["--metric", "fold_s"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--folds", "0"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "nan"]).is_err());
    }
}
