//! The whole benchmark in one command: every workload, `--runs` untraced
//! runs and one traced run each, one child process per run so that
//! `peak_rss_mb` is per workload and per run. Writes the result file
//! `--compare` reads.

use crate::catalog::{WorkloadDef, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use charon_sim::json::Json;
use std::path::Path;
use std::process::{Command, Stdio};

pub const SCHEMA: &str = "charon-perfbench-v1";

pub struct SuiteArgs<'a> {
    pub workloads: Vec<&'static WorkloadDef>,
    pub seed: u64,
    pub seconds: u64,
    pub runs: usize,
    pub out: Option<&'a Path>,
}

/// Runs this binary in the contract's single-run shape and returns its
/// parsed result line.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: the run printed nothing ({})", output.status))?;
    Json::parse(last).map_err(|e| format!("{workload}: the last line is not a result ({e}): {last}"))
}

/// The value a result line reports for `name`.
pub fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn run_failed(run: &Json) -> bool {
    run.get("correct").and_then(Json::as_bool) != Some(true) || run.get("failed").and_then(Json::as_u64) != Some(0)
}

/// Runs the suite; returns whether every run was correct.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for def in &args.workloads {
        println!("== {} — {}", def.name, def.why);
        let mut runs = Vec::new();
        for i in 0..args.runs {
            let run = child_run(def.name, args.seed, args.seconds, false)?;
            all_correct &= !run_failed(&run);
            println!(
                "   run {}/{}: attempted {} failed {}",
                i + 1,
                args.runs,
                run.get("attempted").and_then(Json::as_u64).unwrap_or(0),
                run.get("failed").and_then(Json::as_u64).unwrap_or(0)
            );
            runs.push(run);
        }
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, m.name)).collect();
            if values.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&values);
            println!(
                "   {:<28} {:>14.4} {:<6} (quartiles {:.4}..{:.4}, {} runs)",
                m.name,
                median(&values),
                m.unit,
                q1,
                q3,
                values.len()
            );
        }
        let traced = child_run(def.name, args.seed, args.seconds, true)?;
        all_correct &= !run_failed(&traced);
        for m in PER_LAYER {
            if let Some(v) = metric_value(&traced, m.name) {
                println!("   {:<28} {:>14.4} {}", m.name, v, m.unit);
            }
        }
        workloads.push(Json::obj(vec![("name", Json::str(def.name)), ("runs", Json::Arr(runs)), ("traced", traced)]));
    }
    let doc = Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("nproc", Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64))),
        ("workloads", Json::Arr(workloads)),
    ]);
    if let Some(path) = args.out {
        std::fs::write(path, doc.to_string() + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    println!("{}", if all_correct { "all checks passed" } else { "SOME CHECKS FAILED" });
    Ok(all_correct)
}
