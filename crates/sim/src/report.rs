//! The shared **metric flattener**: every machine-readable report the
//! repo writes (bench, compare, bare run/profile, fleet, chaos) flattens
//! through [`extract_metrics`] into the same
//! `name → u64` rows, so `charon-cli regress`, the history ledger
//! (`charon-workloads::history`), and CI gates all agree on metric names
//! and on which direction each one regresses ([`higher_is_better`]).

use crate::json::Json;

/// Pulls the gated metrics out of one run-shaped object (`RunResult` JSON,
/// or a bare `RunProfile` JSON): wall GC time plus, when a profile is
/// present, the per-kind p99 pause. Keys are `workload/platform/metric`.
pub fn run_metrics(out: &mut Vec<(String, u64)>, run: &Json) {
    let w = run.get("workload").and_then(Json::as_str).unwrap_or("?");
    let p = run.get("platform").and_then(Json::as_str).unwrap_or("?");
    if let Some(t) = run.get("gc_time_ps").and_then(Json::as_u64) {
        out.push((format!("{w}/{p}/gc_time_ps"), t));
    }
    // Either a RunResult carrying a "profile" field, or a RunProfile itself.
    let profile = run.get("profile").unwrap_or(run);
    if let Some(pauses) = profile.get("pauses") {
        for kind in ["minor", "major"] {
            if let Some(p99) = pauses.get(kind).and_then(|h| h.get("p99")).and_then(Json::as_u64) {
                out.push((format!("{w}/{p}/pause_{kind}_p99_ps"), p99));
            }
        }
    }
}

/// Flattens any report this repo writes — `bench` ({"benches": […]}),
/// `compare --json` ({"runs": […]}), `run --json` / `profile
/// --profile-out` (a single run or profile object), plus the
/// schema-tagged fleet/chaos shapes — into comparable metrics.
pub fn extract_metrics(report: &Json) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    if report.get("schema").and_then(Json::as_str) == Some("charon-chaos-v1") {
        // Chaos campaign report: rates are gated upward (higher is
        // better), escapes downward. Rates are re-derived from the integer
        // counts in basis points so the gate compares integers like every
        // other metric; the products saturate, so a hostile count cannot
        // wrap or panic.
        let count = |k: &str| report.get(k).and_then(Json::as_u64).unwrap_or(0);
        let (injected, detected, repaired) = (count("injected"), count("detected"), count("repaired"));
        let harmful = injected.saturating_sub(count("benign"));
        let bp = |part: u64, whole: u64| part.saturating_mul(10_000).checked_div(whole).unwrap_or(10_000);
        out.push(("chaos/detection_rate_bp".into(), bp(detected, harmful)));
        out.push(("chaos/repair_rate_bp".into(), bp(repaired, detected)));
        out.push(("chaos/escaped".into(), count("escaped")));
        for c in report.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
            let w = c.get("workload").and_then(Json::as_str).unwrap_or("?");
            let s = c.get("site").and_then(Json::as_str).unwrap_or("?");
            let r = c.get("rate").and_then(Json::as_f64).unwrap_or(0.0);
            if let Some(e) = c.get("escaped").and_then(Json::as_u64) {
                out.push((format!("chaos/{w}/{s}/{r}/escaped"), e));
            }
        }
    } else if report.get("schema").and_then(Json::as_str) == Some("charon-fleet-v1") {
        // Fleet report: scheduled-pause p99, makespan, and per-tenant
        // pause inflation all regress upward (lower is better).
        let sched = report.get("sched").and_then(Json::as_str).unwrap_or("?");
        if let Some(fleet) = report.get("fleet") {
            for m in ["p99_ps", "max_inflation_bp", "makespan_ps"] {
                if let Some(v) = fleet.get(m).and_then(Json::as_u64) {
                    out.push((format!("fleet/{sched}/{m}"), v));
                }
            }
        }
        for t in report.get("tenant_detail").and_then(Json::as_arr).unwrap_or(&[]) {
            let label = t.get("label").and_then(Json::as_str).unwrap_or("?");
            if let Some(v) = t.get("inflation_bp").and_then(Json::as_u64) {
                out.push((format!("fleet/{sched}/{label}/inflation_bp"), v));
            }
        }
    } else if let Some(benches) = report.get("benches").and_then(Json::as_arr) {
        for bench in benches {
            for run in bench.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
                run_metrics(&mut out, run);
            }
        }
    } else if let Some(runs) = report.get("runs").and_then(Json::as_arr) {
        for run in runs {
            run_metrics(&mut out, run);
        }
    } else {
        run_metrics(&mut out, report);
    }
    out
}

/// One metric that got slower beyond the tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Flattened metric name (`workload/platform/metric`).
    pub metric: String,
    /// Baseline value.
    pub old: u64,
    /// Candidate value.
    pub new: u64,
}

impl Regression {
    /// `new / old` (old clamped to ≥ 1 so a zero baseline stays finite).
    pub fn ratio(&self) -> f64 {
        self.new as f64 / self.old.max(1) as f64
    }
}

/// Whether a metric improves by growing. Timing metrics (the default)
/// regress upward; the chaos campaign's detection/repair rates regress
/// downward. (Chaos `escaped` counts keep the default direction: any
/// growth over a zero baseline is a regression.)
pub fn higher_is_better(metric: &str) -> bool {
    metric.contains("detection") || metric.contains("repair")
}

/// Direction-aware single-value comparison: does `new_v` regress against
/// `old_v` beyond `tolerance_pct`? Lower-is-better metrics regress on
/// `new > old × (1 + tol/100)` (a zero baseline regresses on any nonzero
/// new value); higher-is-better metrics on `new < old × (1 - tol/100)`.
/// This is the one predicate `regress`, `trend report`, and `trend
/// bisect` all share.
pub fn value_regressed(metric: &str, old_v: u64, new_v: u64, tolerance_pct: f64) -> bool {
    if higher_is_better(metric) {
        (new_v as f64) < old_v as f64 * (1.0 - tolerance_pct / 100.0)
    } else {
        let limit = old_v as f64 * (1.0 + tolerance_pct / 100.0);
        new_v as f64 > limit || (old_v == 0 && new_v > 0)
    }
}

/// Compares every metric of `old` against `new` with [`value_regressed`].
/// Returns (metrics compared, regressions, metrics `old` has and `new`
/// lacks, metrics `new` has and `old` lacks). A missing metric is a
/// finding of its own: a report that stops emitting a gated number must
/// not pass the gate by omission. A metric only `new` has cannot regress,
/// but it is ungated until the baseline is re-cut, so it is returned for
/// the caller to show.
pub fn regressions(old: &Json, new: &Json, tolerance_pct: f64) -> (usize, Vec<Regression>, Vec<String>, Vec<String>) {
    let old_metrics = extract_metrics(old);
    let new_metrics = extract_metrics(new);
    let mut compared = 0;
    let mut regs = Vec::new();
    let mut missing = Vec::new();
    for (metric, old_v) in &old_metrics {
        let Some(&(_, new_v)) = new_metrics.iter().find(|(m, _)| m == metric) else {
            missing.push(metric.clone());
            continue;
        };
        compared += 1;
        if value_regressed(metric, *old_v, new_v, tolerance_pct) {
            regs.push(Regression { metric: metric.clone(), old: *old_v, new: new_v });
        }
    }
    let added = new_metrics
        .into_iter()
        .map(|(m, _)| m)
        .filter(|m| old_metrics.iter().all(|(o, _)| o != m))
        .collect();
    (compared, regs, missing, added)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_regressed_is_direction_aware() {
        // Lower is better (timing): 10% tolerance.
        assert!(!value_regressed("BS/DDR4/gc_time_ps", 100, 110, 10.0));
        assert!(value_regressed("BS/DDR4/gc_time_ps", 100, 111, 10.0));
        assert!(value_regressed("BS/DDR4/gc_time_ps", 0, 1, 10.0), "zero baseline regresses on any growth");
        assert!(!value_regressed("BS/DDR4/gc_time_ps", 0, 0, 10.0));
        // Higher is better (a chaos rate): direction flips.
        assert!(value_regressed("chaos/detection_rate_bp", 100, 89, 10.0));
        assert!(!value_regressed("chaos/detection_rate_bp", 100, 90, 10.0));
        assert!(!value_regressed("chaos/detection_rate_bp", 100, 200, 10.0));
    }

    /// A minimal bench-shaped report with one run per (workload, gc_time).
    fn bench_report(runs: &[(&str, u64, u64)]) -> Json {
        Json::obj(vec![(
            "benches",
            Json::Arr(vec![Json::obj(vec![(
                "runs",
                Json::Arr(
                    runs.iter()
                        .map(|&(w, gc, p99)| {
                            Json::obj(vec![
                                ("workload", Json::str(w)),
                                ("platform", Json::str("Charon")),
                                ("gc_time_ps", Json::U64(gc)),
                                (
                                    "profile",
                                    Json::obj(vec![(
                                        "pauses",
                                        Json::obj(vec![("minor", Json::obj(vec![("p99", Json::U64(p99))]))]),
                                    )]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            )])]),
        )])
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = bench_report(&[("BS", 1_000, 100), ("KM", 2_000, 200)]);
        let (compared, regs, ..) = regressions(&r, &r, 10.0);
        assert_eq!(compared, 4, "gc_time + p99 per run");
        assert!(regs.is_empty(), "{regs:?}");
    }

    #[test]
    fn doubled_gc_time_is_flagged() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 2_000, 100)]);
        let (compared, regs, ..) = regressions(&old, &new, 10.0);
        assert_eq!(compared, 2);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "BS/Charon/gc_time_ps");
        assert!((regs[0].ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn p99_regression_is_flagged_independently() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 1_000, 250)]);
        let (_, regs, ..) = regressions(&old, &new, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "BS/Charon/pause_minor_p99_ps");
    }

    #[test]
    fn growth_within_tolerance_passes() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 1_050, 104)]);
        let (_, regs, ..) = regressions(&old, &new, 10.0);
        assert!(regs.is_empty(), "{regs:?}");
        let (_, regs, ..) = regressions(&old, &new, 1.0);
        assert_eq!(regs.len(), 2, "tighter tolerance flags both");
    }

    #[test]
    fn zero_baseline_regresses_on_any_growth() {
        let old = bench_report(&[("BS", 0, 0)]);
        let new = bench_report(&[("BS", 1, 0)]);
        let (_, regs, ..) = regressions(&old, &new, 10.0);
        assert_eq!(regs.len(), 1);
    }

    #[test]
    fn disjoint_reports_compare_nothing() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("KM", 1_000, 100)]);
        let (compared, regs, missing, _) = regressions(&old, &new, 10.0);
        assert_eq!((compared, regs.len()), (0, 0));
        assert_eq!(missing.len(), extract_metrics(&old).len(), "nothing of OLD is in NEW");
    }

    #[test]
    fn metric_dropped_from_new_is_reported_missing() {
        let old = bench_report(&[("BS", 1_000, 100), ("KM", 2_000, 200)]);
        let new = bench_report(&[("BS", 1_000, 100)]);
        let (compared, regs, missing, _) = regressions(&old, &new, 10.0);
        assert!(compared > 0 && regs.is_empty());
        assert!(!missing.is_empty() && missing.iter().all(|m| m.starts_with("KM/")), "{missing:?}");
        // A metric only NEW has is not a finding.
        assert_eq!(regressions(&new, &old, 10.0).2, Vec::<String>::new());
    }

    #[test]
    fn metric_only_new_has_is_returned_as_added() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 1_000, 100), ("KM", 2_000, 200)]);
        let (compared, regs, missing, added) = regressions(&old, &new, 10.0);
        assert_eq!((compared, regs.len(), missing.len()), (extract_metrics(&old).len(), 0, 0));
        assert_eq!(added.len(), extract_metrics(&new).len() - compared);
        assert!(added.iter().all(|m| m.starts_with("KM/")), "{added:?}");
        assert_eq!(regressions(&old, &old, 10.0).3, Vec::<String>::new());
    }

    #[test]
    fn bare_profile_reports_are_comparable() {
        // The `profile --profile-out` shape: pauses at top level.
        let p = Json::obj(vec![
            ("workload", Json::str("KM")),
            ("platform", Json::str("DDR4")),
            ("gc_time_ps", Json::U64(5_000)),
            ("pauses", Json::obj(vec![("major", Json::obj(vec![("p99", Json::U64(900))]))])),
        ]);
        let m = extract_metrics(&p);
        assert_eq!(m, vec![("KM/DDR4/gc_time_ps".to_string(), 5_000), ("KM/DDR4/pause_major_p99_ps".to_string(), 900)]);
    }

    /// A minimal fleet-shaped report with one tenant.
    fn fleet_report(p99: u64, makespan: u64, inflation: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::str("charon-fleet-v1")),
            ("sched", Json::str("fifo")),
            (
                "fleet",
                Json::obj(vec![
                    ("p99_ps", Json::U64(p99)),
                    ("max_inflation_bp", Json::U64(inflation)),
                    ("makespan_ps", Json::U64(makespan)),
                ]),
            ),
            (
                "tenant_detail",
                Json::Arr(vec![Json::obj(vec![("label", Json::str("t0:BS")), ("inflation_bp", Json::U64(inflation))])]),
            ),
        ])
    }

    #[test]
    fn fleet_reports_extract_lower_is_better_metrics() {
        let m = extract_metrics(&fleet_report(500, 9_000, 12_000));
        assert_eq!(
            m,
            vec![
                ("fleet/fifo/p99_ps".to_string(), 500),
                ("fleet/fifo/max_inflation_bp".to_string(), 12_000),
                ("fleet/fifo/makespan_ps".to_string(), 9_000),
                ("fleet/fifo/t0:BS/inflation_bp".to_string(), 12_000),
            ]
        );
        for (name, _) in &m {
            assert!(!higher_is_better(name), "{name} must regress upward");
        }
        // Worse interference trips the gate; identical reports pass.
        let old = fleet_report(500, 9_000, 12_000);
        let (compared, regs, ..) = regressions(&old, &fleet_report(500, 9_000, 15_000), 10.0);
        assert_eq!(compared, 4);
        assert_eq!(regs.len(), 2, "fleet-wide and per-tenant inflation both flagged");
        let (_, regs, ..) = regressions(&old, &old, 10.0);
        assert!(regs.is_empty(), "{regs:?}");
    }

    /// A minimal chaos-campaign report with the given counts and one cell.
    fn chaos_report(injected: u64, detected: u64, repaired: u64, escaped: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::str("charon-chaos-v1")),
            ("injected", Json::U64(injected)),
            ("detected", Json::U64(detected)),
            ("repaired", Json::U64(repaired)),
            ("benign", Json::U64(0)),
            ("escaped", Json::U64(escaped)),
            (
                "cells",
                Json::Arr(vec![Json::obj(vec![
                    ("workload", Json::str("BS")),
                    ("site", Json::str("bitmap")),
                    ("rate", Json::F64(0.05)),
                    ("escaped", Json::U64(escaped)),
                ])]),
            ),
        ])
    }

    #[test]
    fn chaos_reports_extract_direction_aware_metrics() {
        let m = extract_metrics(&chaos_report(200, 190, 190, 10));
        assert_eq!(
            m,
            vec![
                ("chaos/detection_rate_bp".to_string(), 9_500),
                ("chaos/repair_rate_bp".to_string(), 10_000),
                ("chaos/escaped".to_string(), 10),
                ("chaos/BS/bitmap/0.05/escaped".to_string(), 10),
            ]
        );
        assert!(higher_is_better("chaos/detection_rate_bp"));
        assert!(higher_is_better("chaos/repair_rate_bp"));
        assert!(!higher_is_better("chaos/escaped"));
    }

    #[test]
    fn chaos_detection_regresses_downward_and_escapes_upward() {
        let old = chaos_report(200, 200, 200, 0);
        // Detection dropped 100% -> 80%: trips the higher-is-better gate.
        let worse_detection = chaos_report(200, 160, 160, 40);
        let (compared, regs, ..) = regressions(&old, &worse_detection, 10.0);
        assert_eq!(compared, 4);
        let names: Vec<&str> = regs.iter().map(|r| r.metric.as_str()).collect();
        assert!(names.contains(&"chaos/detection_rate_bp"), "{names:?}");
        // Escapes over a zero baseline regress on any nonzero count.
        assert!(names.contains(&"chaos/escaped"), "{names:?}");
        // Identical reports pass clean.
        let (_, regs, ..) = regressions(&old, &chaos_report(200, 200, 200, 0), 10.0);
        assert!(regs.is_empty(), "{regs:?}");
    }
}
