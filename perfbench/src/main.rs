//! The repo benchmark: six layer-isolating workloads over the Charon
//! simulator, host-time end-to-end metrics, and an outside-in traced pass.
//! See README.md beside this package for why each workload exists, what
//! each metric means, and the library API the benchmark pins.

mod catalog;
mod compare;
mod driver;
mod layers;
mod run;
mod spans;
mod stats;
mod suite;

use catalog::{WorkloadDef, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
      one run in the benchmark contract's shape; the last line of standard
      output is the result object
  benchmark [--workload NAME] [--seed N] [--seconds S] [--runs K] [--out FILE]
      the whole suite (or one workload of it): K untraced runs and one
      traced run per workload, each in a child process
  benchmark --compare A.json B.json
      compare two suite result files; exit 2 on a metric that is worse by
      more than its bound, on a failed operation, or on exact-counter drift
workloads: graph-functional graph-host graph-device spark-stream cms-sweep paper-matrix";

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: u64 = 15;
/// Untraced runs per workload in suite mode when `--runs` is not given.
const DEFAULT_RUNS: usize = 5;

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    runs: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a whole number".to_string())?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|_| "--seconds takes a whole number".to_string())?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds takes 1 to 60".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--runs" => {
                let k: usize = value()?.parse().map_err(|_| "--runs takes a whole number".to_string())?;
                if !(1..=100).contains(&k) {
                    return Err("--runs takes 1 to 100".to_string());
                }
                args.runs = Some(k);
            }
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn find_workload(name: &str) -> Result<&'static WorkloadDef, String> {
    catalog::workload(name).ok_or_else(|| format!("unknown workload {name}"))
}

/// Exit codes: 0 all good, 1 usage or I/O error, 2 a check failed or a
/// comparison found a difference.
fn real_main(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    let verdict = |good: bool| if good { ExitCode::SUCCESS } else { ExitCode::from(2) };

    if let Some((a, b)) = &args.compare {
        let comparison = compare::compare_files(a, b)?;
        comparison.lines.iter().for_each(|l| println!("{l}"));
        return Ok(verdict(comparison.clean));
    }

    if let Some(trace) = args.trace {
        let name = args.workload.as_deref().ok_or("--trace needs --workload")?;
        let run_args = run::RunArgs {
            workload: find_workload(name)?,
            seed: args.seed,
            seconds: args.seconds.unwrap_or(DEFAULT_SECONDS) as f64,
            trace,
            spans_out: args.spans,
        };
        let report = run::run(&run_args);
        println!("workload {} seed {} seconds {} trace {}", name, args.seed, run_args.seconds, u8::from(trace));
        report.notes.iter().for_each(|n| println!("{n}"));
        for m in &report.metrics {
            println!("metric {} {} {} ({} is better)", m.name, m.value, m.unit, m.better.as_str());
        }
        println!("{}", report.result_line());
        return Ok(verdict(report.correct()));
    }

    let workloads = match &args.workload {
        Some(name) => vec![find_workload(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let suite_args = suite::SuiteArgs {
        workloads,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        runs: args.runs.unwrap_or(DEFAULT_RUNS),
        out: args.out.as_deref(),
    };
    suite::run(&suite_args).map(verdict)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match real_main(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_flags_parse() {
        let a = parse_args(&argv("--workload graph-host --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("graph-host"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(12), Some(true)));
        let c = parse_args(&argv("--compare a.json b.json")).unwrap();
        assert_eq!(c.compare, Some((PathBuf::from("a.json"), PathBuf::from("b.json"))));
    }

    #[test]
    fn bad_input_is_refused_where_it_enters() {
        for bad in [
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--runs 0",
            "--workload",
            "--compare a.json",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
        assert!(find_workload("graph-gpu").is_err());
        assert!(real_main(&argv("--trace 0")).is_err(), "--trace needs --workload");
    }
}
