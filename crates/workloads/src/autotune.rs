//! Static-vs-adaptive comparison driver for the offload controller.
//!
//! One [`autotune`] call runs the same workload twice on identically
//! constructed systems — once with [`PolicyKind::Static`] (the platform's
//! fixed mask; bit-identical to running without a controller) and once
//! with the requested adaptive policy — and packages the gc_time and
//! pause-p99 deltas plus the adaptive run's full [`DecisionJournal`] into
//! an [`AutotuneReport`]. This is the evaluation harness behind
//! `charon-cli autotune` and the CI smoke job.

use crate::run::{run_workload, RunOptions, RunResult};
use crate::spec::WorkloadSpec;
use charon_gc::adapt::PolicyKind;
use charon_gc::collector::{GcKind, OutOfMemory};
use charon_gc::system::System;
use charon_sim::json::Json;
use charon_sim::time::Ps;
use std::fmt;

/// The two runs and their deltas.
#[derive(Debug, Clone)]
pub struct AutotuneReport {
    /// Two-letter workload code.
    pub workload: &'static str,
    /// Platform label.
    pub platform: &'static str,
    /// The adaptive policy evaluated against the static baseline.
    pub policy: PolicyKind,
    /// The static-mask run.
    pub baseline: RunResult,
    /// The adaptive run.
    pub adaptive: RunResult,
}

fn pause_p99(r: &RunResult, kind: GcKind) -> u64 {
    r.profile.as_ref().map_or(0, |p| p.pauses(kind).p99())
}

/// Percent change from `base` to `new` (negative = improvement for
/// time-like quantities). Zero baseline reports 0.
fn delta_pct(base: u64, new: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        (new as f64 - base as f64) / base as f64 * 100.0
    }
}

impl AutotuneReport {
    /// gc_time change in percent; negative means the adaptive run paused
    /// less.
    pub fn gc_time_delta_pct(&self) -> f64 {
        delta_pct(self.baseline.gc_time.0, self.adaptive.gc_time.0)
    }

    /// Minor-pause p99 change in percent.
    pub fn minor_p99_delta_pct(&self) -> f64 {
        delta_pct(pause_p99(&self.baseline, GcKind::Minor), pause_p99(&self.adaptive, GcKind::Minor))
    }

    /// Machine-readable view; round-trips through [`Json::parse`].
    pub fn to_json(&self) -> Json {
        let side = |r: &RunResult| {
            Json::obj(vec![
                ("gc_time_ps", Json::U64(r.gc_time.0)),
                ("minor_count", Json::U64(r.minor.1 as u64)),
                ("major_count", Json::U64(r.major.1 as u64)),
                ("minor_p99_ps", Json::U64(pause_p99(r, GcKind::Minor))),
                ("major_p99_ps", Json::U64(pause_p99(r, GcKind::Major))),
                ("mask_switches", Json::U64(r.decisions.as_ref().map_or(0, |j| j.mask_switches() as u64))),
            ])
        };
        let mut fields = vec![
            ("workload", Json::str(self.workload)),
            ("platform", Json::str(self.platform)),
            ("policy", Json::str(self.policy.name())),
            ("static", side(&self.baseline)),
            ("adaptive", side(&self.adaptive)),
            (
                "delta_pct",
                Json::obj(vec![
                    ("gc_time", Json::F64(self.gc_time_delta_pct())),
                    ("minor_p99", Json::F64(self.minor_p99_delta_pct())),
                ]),
            ),
        ];
        if let Some(j) = &self.adaptive.decisions {
            fields.push(("journal", j.to_json()));
        }
        Json::obj(fields)
    }
}

impl fmt::Display for AutotuneReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "autotune {} on {} — policy {}", self.workload, self.platform, self.policy)?;
        let row = |f: &mut fmt::Formatter<'_>, label: &str, r: &RunResult| {
            writeln!(
                f,
                "  {label:<9} GC {} ({} minor / {} major), minor p99 {}",
                r.gc_time,
                r.minor.1,
                r.major.1,
                Ps(pause_p99(r, GcKind::Minor))
            )
        };
        row(f, "static:", &self.baseline)?;
        row(f, "adaptive:", &self.adaptive)?;
        writeln!(
            f,
            "  delta:    gc_time {:+.1}%, minor p99 {:+.1}%",
            self.gc_time_delta_pct(),
            self.minor_p99_delta_pct()
        )?;
        if let Some(j) = &self.adaptive.decisions {
            writeln!(f, "  decisions: {} ({} mask switches)", j.decisions.len(), j.mask_switches())?;
        }
        Ok(())
    }
}

/// Runs the static baseline and the `policy` run on identically built
/// systems (`make_sys` is called once per run) and reports the deltas.
/// The census is forced on for both runs so pause percentiles and the
/// controller's signals exist; it never changes simulated timing.
///
/// The two runs never share state — each gets its own `make_sys()` system
/// and its own heap — so with `jobs > 1` they go on separate OS threads
/// and the report is bit-identical to the serial one.
///
/// # Errors
///
/// Propagates [`OutOfMemory`] from either run.
pub fn autotune(
    spec: &WorkloadSpec,
    make_sys: impl Fn() -> System + Sync,
    policy: PolicyKind,
    opts: &RunOptions,
    jobs: usize,
) -> Result<AutotuneReport, OutOfMemory> {
    let sides = [PolicyKind::Static, policy];
    let runs = crate::parmatrix::parallel_map_labeled(
        &sides,
        jobs,
        |_, side| format!("{}/{}", spec.short, side.name()),
        |&side| run_workload(spec, make_sys(), &RunOptions { census: true, policy: Some(side), ..*opts }),
    );
    let mut runs = runs.into_iter();
    let (baseline, adaptive) = (runs.next().expect("two sides")?, runs.next().expect("two sides")?);
    Ok(AutotuneReport { workload: spec.short, platform: baseline.platform, policy, baseline, adaptive })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::phase_shift;

    #[test]
    fn report_json_round_trips() {
        let spec = phase_shift();
        let opts = RunOptions { supersteps: Some(4), ..Default::default() };
        let rep = autotune(&spec, System::charon, PolicyKind::Census, &opts, 1).unwrap();
        assert_eq!(rep.workload, "PS");
        assert_eq!(rep.platform, "Charon");
        let j = rep.to_json();
        let back = Json::parse(&j.to_string()).expect("report JSON parses");
        assert_eq!(back.get("policy").and_then(Json::as_str), Some("census"));
        assert!(back.get("journal").is_some(), "adaptive journal exported");
        assert!(back.get("delta_pct").is_some());
    }

    #[test]
    fn parallel_autotune_matches_serial_report() {
        let spec = phase_shift();
        let opts = RunOptions { supersteps: Some(2), ..Default::default() };
        let serial = autotune(&spec, System::charon, PolicyKind::Census, &opts, 1).unwrap();
        let par = autotune(&spec, System::charon, PolicyKind::Census, &opts, 3).unwrap();
        assert_eq!(serial.baseline.fingerprint(), par.baseline.fingerprint());
        assert_eq!(serial.adaptive.fingerprint(), par.adaptive.fingerprint());
        assert_eq!(serial.to_json().to_string(), par.to_json().to_string());
    }

    #[test]
    fn static_policy_baseline_matches_plain_run() {
        // The static side of an autotune run must be indistinguishable
        // from a plain run with no controller attached.
        let spec = phase_shift();
        let opts = RunOptions { supersteps: Some(4), ..Default::default() };
        let plain = run_workload(&spec, System::charon(), &opts).unwrap();
        let rep = autotune(&spec, System::charon, PolicyKind::Census, &opts, 1).unwrap();
        assert_eq!(rep.baseline.fingerprint(), plain.fingerprint());
    }
}
