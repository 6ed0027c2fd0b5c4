//! `--compare A.json B.json`: applies each end-to-end metric's bound and
//! direction to two suite result files and diffs every exact simulated
//! counter.

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::run::worse_by_more_than;
use crate::stats::{median, quartiles, spread};
use crate::suite::{metric_value, run_failed, SCHEMA};
use charon_sim::json::Json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound, so "no worse" cannot be
    /// told from "worse" — unless every run of B beats every run of A.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if worse_by_more_than(better, median(a), median(b), bound) {
        return Verdict::Worse;
    }
    let b_always_better = match better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    if spread(a).max(spread(b)) > bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} result file", path.display()));
    }
    Ok(doc)
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn runs(workload: &Json) -> &[Json] {
    workload.get("runs").and_then(Json::as_arr).unwrap_or(&[])
}

fn values(runs: &[Json], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// What a comparison found: the printed rows and whether anything is
/// worse, failed, or drifted.
pub struct Comparison {
    pub lines: Vec<String>,
    pub clean: bool,
}

pub fn compare_docs<'a>(a: &'a Json, b: &'a Json) -> Result<Comparison, String> {
    for key in ["seed", "seconds"] {
        let (x, y) = (a.get(key).and_then(Json::as_u64), b.get(key).and_then(Json::as_u64));
        if x != y {
            return Err(format!("the files were made with different {key} ({x:?} vs {y:?}); they do not compare"));
        }
    }
    let mut lines = Vec::new();
    let mut clean = true;
    lines.push(format!(
        "{:<18} {:<22} {:>12} {:>24} {:>12} {:>24} {:>8}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "change"
    ));
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(b).iter().find(|w| w.get("name").and_then(Json::as_str) == Some(name)) else {
            lines.push(format!("{name}: missing from B"));
            clean = false;
            continue;
        };
        let traced = |w: &'a Json| w.get("traced").unwrap_or(&Json::Null);
        let failed = |w: &'a Json| runs(w).iter().chain([traced(w)]).filter(|r| run_failed(r)).count();
        for (side, w) in [("A", wa), ("B", wb)] {
            if failed(w) > 0 {
                lines.push(format!("{name}: {} run(s) of {side} report failed operations", failed(w)));
                clean = false;
            }
        }
        for m in END_TO_END {
            let (va, vb) = (values(runs(wa), m.name), values(runs(wb), m.name));
            if va.is_empty() || vb.is_empty() {
                lines.push(format!("{name} {}: missing on one side", m.name));
                clean = false;
                continue;
            }
            let v = verdict(m.better, m.bound, &va, &vb);
            clean &= v != Verdict::Worse;
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let (ma, mb) = (median(&va), median(&vb));
            lines.push(format!(
                "{:<18} {:<22} {:>12.4} {:>24} {:>12.4} {:>24} {:>+7.1}%  {} (bound {:.0}%, {})",
                name,
                m.name,
                ma,
                format!("{:.4}..{:.4}", qa.0, qa.1),
                mb,
                format!("{:.4}..{:.4}", qb.0, qb.1),
                (mb - ma) * 100.0 / ma,
                v.as_str(),
                m.bound * 100.0,
                m.better.as_str(),
            ));
        }
        // Exact simulated counters must repeat bit for bit.
        let (ta, tb) = (traced(wa), traced(wb));
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (x, y) = (metric_value(ta, m.name), metric_value(tb, m.name));
            if x != y {
                lines.push(format!("{name} {}: exact counter drifted, {x:?} vs {y:?}", m.name));
                clean = false;
            }
        }
    }
    lines.push(if clean {
        "no metric is worse and no exact counter drifted".to_string()
    } else {
        "DIFFERENCES FOUND".to_string()
    });
    Ok(Comparison { lines, clean })
}

pub fn compare_files(a: &Path, b: &Path) -> Result<Comparison, String> {
    compare_docs(&load(a)?, &load(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.5];
        let noisy = [8.0, 12.0, 10.0, 14.0, 6.0];
        assert_eq!(verdict(Better::Lower, 0.10, &steady, &steady), Verdict::Ok);
        assert_eq!(verdict(Better::Lower, 0.10, &steady, &slower), Verdict::Worse);
        assert_eq!(verdict(Better::Lower, 0.10, &slower, &steady), Verdict::Ok);
        assert_eq!(verdict(Better::Higher, 0.10, &slower, &steady), Verdict::Worse);
        assert_eq!(verdict(Better::Lower, 0.10, &steady, &noisy), Verdict::Unresolved);
        // Wide spread, but every run of B beats every run of A.
        let fast_noisy = [1.0, 3.0, 2.0, 4.0, 5.0];
        assert_eq!(verdict(Better::Lower, 0.10, &noisy, &fast_noisy), Verdict::Ok);
    }

    fn doc(seed: u64, rss: f64, digest: f64, failed: u64) -> Json {
        let run = |v: f64| {
            Json::obj(vec![
                ("correct", Json::Bool(failed == 0)),
                ("attempted", Json::U64(4)),
                ("failed", Json::U64(failed)),
                (
                    "metrics",
                    Json::obj(
                        END_TO_END
                            .iter()
                            .map(|m| (m.name, Json::obj(vec![("value", Json::F64(v)), ("unit", Json::str(m.unit))]))),
                    ),
                ),
            ])
        };
        let traced = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::U64(4)),
            ("failed", Json::U64(0)),
            (
                "metrics",
                Json::obj(vec![(
                    "sim.digest",
                    Json::obj(vec![("value", Json::F64(digest)), ("unit", Json::str("count"))]),
                )]),
            ),
        ]);
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("seed", Json::U64(seed)),
            ("seconds", Json::U64(12)),
            (
                "workloads",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("graph-device")),
                    ("runs", Json::Arr(vec![run(rss), run(rss * 1.01), run(rss * 0.99)])),
                    ("traced", traced),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_flags_worse_drift_failures_and_refuses_other_seeds() {
        let base = doc(0, 100.0, 7.0, 0);
        assert!(compare_docs(&base, &base).unwrap().clean);
        assert!(!compare_docs(&base, &doc(0, 130.0, 7.0, 0)).unwrap().clean, "30 % worse on every metric");
        assert!(compare_docs(&doc(0, 130.0, 7.0, 0), &base).unwrap().clean, "better is fine");
        let drift = compare_docs(&base, &doc(0, 100.0, 8.0, 0)).unwrap();
        assert!(!drift.clean && drift.lines.iter().any(|l| l.contains("sim.digest")));
        assert!(!compare_docs(&base, &doc(0, 100.0, 7.0, 1)).unwrap().clean, "failed operations");
        assert!(compare_docs(&base, &doc(1, 100.0, 7.0, 0)).is_err(), "different seeds do not compare");
    }
}
