//! Multi-run trend history: an append-only ledger of flattened metrics
//! plus trend rendering and first-regressing-run bisection.
//!
//! The `regress` gate compares exactly two reports; a performance story
//! is usually longer than that. [`Ledger`] is the `charon-history-v1`
//! append-only record: each `trend record` flattens one report (any
//! shape [`extract_metrics`] understands — bench, compare, single
//! run/profile, fleet, chaos) into named integer metrics and
//! appends them as one labelled run. On top of the ledger:
//!
//! * `trend report` — per-metric N-run series with an ASCII sparkline
//!   and a direction-aware first→last delta (the same
//!   [`higher_is_better`] convention the pairwise gate uses);
//! * `trend bisect` — for every metric whose latest value regresses
//!   against run 0, a git-bisect-style binary search for the *first*
//!   regressing run, under the usual step-change assumption (noise
//!   below the tolerance does not flip the predicate, so the search
//!   stays valid on realistically noisy series).
//!
//! The shared predicate is [`value_regressed`]; `regress`, `trend
//! report`, and `trend bisect` cannot disagree about direction.

use charon_sim::json::Json;
use charon_sim::report::{extract_metrics, higher_is_better, value_regressed};
use std::fmt;

/// Schema tag stamped into every serialized ledger.
pub const SCHEMA: &str = "charon-history-v1";

/// One recorded run: a label (free text — a commit id, a date, a CI run
/// number) plus the flattened metrics of one report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRun {
    /// Caller-chosen identifier for the run.
    pub label: String,
    /// Flattened `(metric, value)` pairs, in extraction order.
    pub metrics: Vec<(String, u64)>,
}

impl HistoryRun {
    /// Value of one metric in this run, if it was recorded.
    pub fn get(&self, metric: &str) -> Option<u64> {
        self.metrics.iter().find(|(m, _)| m == metric).map(|(_, v)| *v)
    }
}

/// Where one metric first went bad, per [`Ledger::bisect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectHit {
    /// Metric name.
    pub metric: String,
    /// Index of the first regressing run.
    pub first_bad: usize,
    /// Label of that run.
    pub label: String,
    /// Baseline (run 0) value.
    pub old: u64,
    /// Value at the first regressing run.
    pub new: u64,
}

/// Append-only multi-run metric history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Recorded runs, oldest first.
    pub runs: Vec<HistoryRun>,
}

impl Ledger {
    /// Empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Flattens `report` with [`extract_metrics`] and appends it as one
    /// run. Returns the number of metrics ingested (0 means the report
    /// shape carried nothing comparable — the run is still appended so
    /// indices keep matching what was recorded).
    pub fn record(&mut self, label: impl Into<String>, report: &Json) -> usize {
        let metrics = extract_metrics(report);
        let n = metrics.len();
        self.runs.push(HistoryRun { label: label.into(), metrics });
        n
    }

    /// Every metric name that appears in any run, in first-appearance
    /// order (so a metric added by a later report sorts after the
    /// original set, and the report stays stable as runs accumulate).
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for run in &self.runs {
            for (m, _) in &run.metrics {
                if !names.iter().any(|n| n == m) {
                    names.push(m.clone());
                }
            }
        }
        names
    }

    /// Per-run values of one metric, `None` where a run did not record
    /// it. Always `runs.len()` entries long.
    pub fn series(&self, metric: &str) -> Vec<Option<u64>> {
        self.runs.iter().map(|r| r.get(metric)).collect()
    }

    /// First run whose value of `metric` regresses against run 0, under
    /// the step-change assumption: run 0 is good, and once a series goes
    /// bad it stays bad (up to noise below `tolerance_pct`, which does
    /// not flip [`value_regressed`] and therefore cannot mislead the
    /// binary search). `None` when the metric is missing from run 0,
    /// the latest recorded value does not regress, or there are fewer
    /// than two runs. Missing values at a probe point count as
    /// not-regressed (the search moves right past them).
    pub fn bisect(&self, metric: &str, tolerance_pct: f64) -> Option<BisectHit> {
        let series = self.series(metric);
        if series.len() < 2 {
            return None;
        }
        let old = series[0]?;
        let bad = |i: usize| series[i].is_some_and(|v| value_regressed(metric, old, v, tolerance_pct));
        // The newest run that actually recorded the metric is the "bad"
        // anchor; a trailing gap must not hide an older regression.
        let last = (1..series.len()).rev().find(|&i| series[i].is_some())?;
        if !bad(last) {
            return None;
        }
        let (mut good, mut first_bad) = (0usize, last);
        while first_bad - good > 1 {
            let mid = good + (first_bad - good) / 2;
            if bad(mid) {
                first_bad = mid;
            } else {
                good = mid;
            }
        }
        Some(BisectHit {
            metric: metric.to_string(),
            first_bad,
            label: self.runs[first_bad].label.clone(),
            old,
            new: series[first_bad].expect("bisect endpoint recorded the metric"),
        })
    }

    /// [`Ledger::bisect`] over every metric (optionally filtered by a
    /// case-sensitive substring), in [`Ledger::metric_names`] order.
    pub fn bisect_all(&self, filter: Option<&str>, tolerance_pct: f64) -> Vec<BisectHit> {
        self.metric_names()
            .iter()
            .filter(|m| filter.is_none_or(|f| m.contains(f)))
            .filter_map(|m| self.bisect(m, tolerance_pct))
            .collect()
    }

    /// Human-readable per-metric trend table: label header, then one
    /// line per metric with a sparkline, first/last values, and the
    /// direction-aware verdict at `tolerance_pct`.
    pub fn trend_report(&self, filter: Option<&str>, tolerance_pct: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!("trend: {} runs", self.runs.len()));
        if let Some(f) = filter {
            out.push_str(&format!(" (metrics ~ {f:?})"));
        }
        out.push('\n');
        for (i, run) in self.runs.iter().enumerate() {
            out.push_str(&format!("  run {i}: {}\n", run.label));
        }
        let names: Vec<String> = self
            .metric_names()
            .into_iter()
            .filter(|m| filter.is_none_or(|f| m.contains(f)))
            .collect();
        if names.is_empty() {
            out.push_str("  (no metrics match)\n");
            return out;
        }
        let width = names.iter().map(String::len).max().unwrap_or(0);
        for m in &names {
            let series = self.series(m);
            let present: Vec<u64> = series.iter().flatten().copied().collect();
            let (Some(&first), Some(&last)) = (present.first(), present.last()) else {
                out.push_str(&format!("  {m:<width$}  (never recorded)\n"));
                continue;
            };
            let arrow = if higher_is_better(m) { "↑better" } else { "↓better" };
            let verdict =
                if series[0].is_some_and(|o| value_regressed(m, o, last, tolerance_pct)) { "REGRESSED" } else { "ok" };
            out.push_str(&format!(
                "  {m:<width$}  {}  first={first} last={last} Δ={:+.1}% {arrow} {verdict}\n",
                sparkline(&series),
                delta_pct(first, last),
            ));
        }
        out
    }

    /// Machine-readable trend view (same selection as
    /// [`Ledger::trend_report`]).
    pub fn trend_json(&self, filter: Option<&str>, tolerance_pct: f64) -> Json {
        let metrics: Vec<Json> = self
            .metric_names()
            .into_iter()
            .filter(|m| filter.is_none_or(|f| m.contains(f)))
            .map(|m| {
                let series = self.series(&m);
                let present: Vec<u64> = series.iter().flatten().copied().collect();
                let mut fields = vec![
                    ("name", Json::str(&m)),
                    ("series", Json::Arr(series.iter().map(|v| v.map_or(Json::Null, Json::U64)).collect())),
                    ("higher_is_better", Json::Bool(higher_is_better(&m))),
                ];
                if let (Some(&first), Some(&last)) = (present.first(), present.last()) {
                    fields.push(("first", Json::U64(first)));
                    fields.push(("last", Json::U64(last)));
                    fields.push(("delta_pct", Json::F64(delta_pct(first, last))));
                    fields.push((
                        "regressed",
                        Json::Bool(series[0].is_some_and(|o| value_regressed(&m, o, last, tolerance_pct))),
                    ));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str("charon-trend-v1")),
            ("tolerance_pct", Json::F64(tolerance_pct)),
            ("runs", Json::Arr(self.runs.iter().map(|r| Json::str(&r.label)).collect())),
            ("metrics", Json::Arr(metrics)),
        ])
    }

    /// Serializes to the `charon-history-v1` shape; round-trips through
    /// [`Ledger::parse`].
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            (
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("label", Json::str(&r.label)),
                                (
                                    "metrics",
                                    Json::Obj(r.metrics.iter().map(|(m, v)| (m.clone(), Json::U64(*v))).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a serialized ledger, validating the schema tag.
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let j = Json::parse(text).map_err(|e| format!("ledger is not JSON: {e}"))?;
        match j.get("schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => {}
            other => return Err(format!("ledger schema is {other:?}, expected {SCHEMA:?}")),
        }
        let mut runs = Vec::new();
        for (i, run) in j.get("runs").and_then(Json::as_arr).unwrap_or(&[]).iter().enumerate() {
            let label = run
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("run {i} has no label"))?
                .to_string();
            let mut metrics = Vec::new();
            if let Some(Json::Obj(pairs)) = run.get("metrics") {
                for (m, v) in pairs {
                    let v = v.as_u64().ok_or_else(|| format!("run {i} metric {m:?} is not a u64"))?;
                    metrics.push((m.clone(), v));
                }
            }
            runs.push(HistoryRun { label, metrics });
        }
        Ok(Ledger { runs })
    }
}

impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.trend_report(None, 0.0))
    }
}

/// Signed first→last percentage change (0 when the baseline is 0).
fn delta_pct(first: u64, last: u64) -> f64 {
    if first == 0 {
        return 0.0;
    }
    (last as f64 - first as f64) / first as f64 * 100.0
}

/// Min-max scaled Unicode sparkline, one glyph per run; `·` where the
/// run did not record the metric. A flat series renders mid-height so
/// it does not look like the minimum.
pub fn sparkline(series: &[Option<u64>]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let present: Vec<u64> = series.iter().flatten().copied().collect();
    let (Some(&lo), Some(&hi)) = (present.iter().min(), present.iter().max()) else {
        return "·".repeat(series.len());
    };
    series
        .iter()
        .map(|&v| match v {
            None => '·',
            Some(_) if lo == hi => BARS[3],
            Some(v) => {
                let t = (v - lo) as f64 / (hi - lo) as f64;
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ledger with one lower-is-better metric taking `values` in order.
    fn fixture(metric: &str, values: &[Option<u64>]) -> Ledger {
        let runs = values
            .iter()
            .enumerate()
            .map(|(i, v)| HistoryRun {
                label: format!("run-{i}"),
                metrics: v.map(|v| (metric.to_string(), v)).into_iter().collect(),
            })
            .collect();
        Ledger { runs }
    }

    #[test]
    fn record_flattens_and_round_trips() {
        let mut ledger = Ledger::new();
        let report =
            Json::parse(r#"{"benches":[{"runs":[{"workload":"BS","platform":"DDR4","gc_time_ps":1000}]}]}"#).unwrap();
        let n = ledger.record("abc123", &report);
        assert_eq!(n, 1, "bench shape flattens to per-run gc_time");
        assert_eq!(ledger.runs[0].get("BS/DDR4/gc_time_ps"), Some(1000));
        let text = ledger.to_json().to_string();
        let back = Ledger::parse(&text).expect("round-trip");
        assert_eq!(back, ledger);
        assert!(text.contains("charon-history-v1"));
        // Wrong schema is rejected, not silently accepted.
        assert!(Ledger::parse(r#"{"schema":"charon-chaos-v1","runs":[]}"#).is_err());
    }

    #[test]
    fn metric_names_keep_first_appearance_order() {
        let mut ledger = Ledger::new();
        ledger
            .runs
            .push(HistoryRun { label: "a".into(), metrics: vec![("z".into(), 1), ("a".into(), 2)] });
        ledger
            .runs
            .push(HistoryRun { label: "b".into(), metrics: vec![("m".into(), 3), ("z".into(), 4)] });
        assert_eq!(ledger.metric_names(), ["z", "a", "m"]);
        assert_eq!(ledger.series("z"), [Some(1), Some(4)]);
        assert_eq!(ledger.series("m"), [None, Some(3)]);
    }

    #[test]
    fn bisect_pins_the_step_on_a_monotone_series() {
        // Strictly worsening after run 2: tolerance 5% means the first
        // value past 105 is the first bad run.
        let l = fixture("x/gc_time_ps", &[100, 101, 102, 200, 400].map(Some));
        let hit = l.bisect("x/gc_time_ps", 5.0).expect("regressed");
        assert_eq!((hit.first_bad, hit.old, hit.new), (3, 100, 200));
        assert_eq!(hit.label, "run-3");
    }

    #[test]
    fn bisect_pins_a_clean_step() {
        let l = fixture("x/gc_time_ps", &[100, 100, 100, 150, 150, 150].map(Some));
        assert_eq!(l.bisect("x/gc_time_ps", 5.0).unwrap().first_bad, 3);
    }

    #[test]
    fn bisect_survives_noise_below_tolerance() {
        // ±2% wobble around 100 never trips a 5% tolerance, so the
        // predicate is still monotone and the search lands on the jump.
        let l = fixture("x/gc_time_ps", &[100, 102, 98, 101, 180, 182, 179].map(Some));
        assert_eq!(l.bisect("x/gc_time_ps", 5.0).unwrap().first_bad, 4);
    }

    #[test]
    fn bisect_is_direction_aware_and_knows_when_nothing_regressed() {
        // Improving lower-is-better series: no regression.
        assert!(fixture("x/gc_time_ps", &[100, 90, 80].map(Some))
            .bisect("x/gc_time_ps", 5.0)
            .is_none());
        // Higher-is-better (a chaos rate) series that DROPS regresses.
        let l = fixture("chaos/detection_rate_bp", &[1000, 1000, 600, 590].map(Some));
        assert_eq!(l.bisect("chaos/detection_rate_bp", 5.0).unwrap().first_bad, 2);
        // Single run: nothing to compare.
        assert!(fixture("x", &[Some(5)]).bisect("x", 5.0).is_none());
    }

    #[test]
    fn bisect_skips_gaps_and_anchors_on_the_last_recorded_value() {
        // Run 3 is missing; the step at run 4 is still found, and a
        // trailing gap does not hide the regression.
        let l = fixture("x/gc_time_ps", &[Some(100), Some(100), Some(100), None, Some(200), None]);
        assert_eq!(l.bisect("x/gc_time_ps", 5.0).unwrap().first_bad, 4);
        // Metric absent from run 0: nothing to anchor on.
        let l = fixture("x/gc_time_ps", &[None, Some(100), Some(200)]);
        assert!(l.bisect("x/gc_time_ps", 5.0).is_none());
    }

    #[test]
    fn trend_report_renders_sparkline_and_verdict() {
        let l = fixture("x/gc_time_ps", &[100, 100, 200].map(Some));
        let s = l.trend_report(None, 5.0);
        assert!(s.contains("trend: 3 runs"), "{s}");
        assert!(s.contains("REGRESSED"), "{s}");
        assert!(s.contains('▁') && s.contains('█'), "{s}");
        // Filter that matches nothing says so.
        assert!(l.trend_report(Some("zzz"), 5.0).contains("no metrics match"));
        let j = l.trend_json(None, 5.0);
        assert_eq!(j.get("schema").and_then(Json::as_str), Some("charon-trend-v1"));
        let m = &j.get("metrics").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(m.get("regressed").and_then(Json::as_bool), Some(true));
        let round = Json::parse(&j.to_string()).expect("trend json parses");
        assert_eq!(round.get("runs").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
    }

    #[test]
    fn sparkline_scales_min_to_max_with_gaps() {
        assert_eq!(sparkline(&[Some(0), Some(50), Some(100)]), "▁▅█");
        assert_eq!(sparkline(&[Some(7), None, Some(7)]), "▄·▄", "flat series sits mid-height");
        assert_eq!(sparkline(&[None, None]), "··");
    }
}
