//! Per-run profile: pause-time histograms, offload/memory latency
//! distributions, heap demographics, and accelerator utilization.
//!
//! This is the observability layer the paper's measurement methodology
//! implies but never spells out: Figs. 2/5 need per-collection dead-object
//! demographics, Fig. 12's speedups hide the *distribution* of pauses, and
//! the Charon bar is only explainable with per-primitive latency and
//! per-unit-class utilization. [`RunProfile`] packages all of that for one
//! run; it is entirely opt-in (see [`crate::RunOptions`]) and never
//! perturbs simulated timing.

use charon_core::device::{units_json, UnitClassStats, UNIT_CLASS_NAMES};
use charon_gc::census::Census;
use charon_gc::collector::{Collector, GcKind};
use charon_gc::postmortem::Postmortem;
use charon_sim::hist::Histogram;
use charon_sim::json::Json;
use charon_sim::profile::{Channel, LatencyProfile};
use charon_sim::time::Ps;
use std::fmt;

/// Everything the profiler observed during one run.
#[derive(Debug, Clone)]
pub struct RunProfile {
    /// Two-letter workload code.
    pub workload: &'static str,
    /// Platform label ("DDR4", "HMC", "Charon", …).
    pub platform: &'static str,
    /// Total stop-the-world time (the utilization denominator).
    pub gc_time: Ps,
    /// MinorGC pause distribution, picoseconds.
    pub pause_minor: Histogram,
    /// MajorGC pause distribution, picoseconds.
    pub pause_major: Histogram,
    /// Per-channel memory/offload latency distributions.
    pub latencies: LatencyProfile,
    /// Heap demographics, when the collector's census was on.
    pub census: Option<Census>,
    /// Per-unit-class pool counters (offloading backends only), in
    /// [`UNIT_CLASS_NAMES`] order.
    pub units: Option<[UnitClassStats; 3]>,
    /// Tail-pause attribution, when [`crate::RunOptions::postmortem`]
    /// asked for it: the top-K worst pauses per kind with breakdown,
    /// unit-delta, and energy context, plus per-bucket energy.
    pub postmortem: Option<Postmortem>,
}

impl RunProfile {
    /// Assembles the profile from a finished collector plus the latency
    /// snapshot the [`charon_sim::profile::Profiler`] accumulated; the
    /// census and the postmortem (keeping `postmortem` worst pauses per
    /// kind, when set) are folds over the collector's events.
    pub fn collect(
        workload: &'static str,
        platform: &'static str,
        gc: &Collector,
        latencies: LatencyProfile,
        postmortem: Option<usize>,
    ) -> RunProfile {
        let mut pause_minor = Histogram::new();
        let mut pause_major = Histogram::new();
        for e in &gc.events {
            match e.kind {
                GcKind::Minor => pause_minor.record(e.wall.0),
                GcKind::Major => pause_major.record(e.wall.0),
            }
        }
        RunProfile {
            workload,
            platform,
            gc_time: gc.gc_total_time(),
            pause_minor,
            pause_major,
            latencies,
            census: gc.census.then(|| Census::fold(&gc.events)),
            units: gc.sys.unit_stats(),
            postmortem: postmortem.map(|top_k| Postmortem::fold(&gc.events, top_k)),
        }
    }

    /// Pause histogram for one collection kind.
    pub fn pauses(&self, kind: GcKind) -> &Histogram {
        match kind {
            GcKind::Minor => &self.pause_minor,
            GcKind::Major => &self.pause_major,
        }
    }

    /// Per-unit-class utilization over the GC region of interest, in
    /// [`UNIT_CLASS_NAMES`] order. Empty on host-only platforms.
    pub fn unit_utilization(&self) -> Vec<(&'static str, f64)> {
        match &self.units {
            None => Vec::new(),
            Some(units) => UNIT_CLASS_NAMES
                .iter()
                .zip(units.iter())
                .map(|(&name, u)| (name, u.utilization(self.gc_time)))
                .collect(),
        }
    }

    /// Machine-readable view; round-trips through [`Json::parse`].
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload", Json::str(self.workload)),
            ("platform", Json::str(self.platform)),
            ("gc_time_ps", Json::U64(self.gc_time.0)),
            ("pauses", Json::obj(vec![("minor", self.pause_minor.to_json()), ("major", self.pause_major.to_json())])),
            ("latencies", self.latencies.to_json()),
        ];
        if let Some(units) = &self.units {
            fields.push(("units", units_json(units, self.gc_time)));
        }
        if let Some(census) = &self.census {
            fields.push(("census", census.to_json()));
        }
        if let Some(pm) = &self.postmortem {
            fields.push(("postmortem", pm.to_json()));
        }
        Json::obj(fields)
    }
}

fn hist_row(f: &mut fmt::Formatter<'_>, label: &str, h: &Histogram) -> fmt::Result {
    if h.is_empty() {
        return Ok(());
    }
    writeln!(
        f,
        "  {label:<18} n={:<6} p50={:<12} p90={:<12} p99={:<12} max={}",
        h.count(),
        format!("{}", Ps(h.p50())),
        format!("{}", Ps(h.p90())),
        format!("{}", Ps(h.p99())),
        Ps(h.max())
    )
}

impl fmt::Display for RunProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "profile: {} on {} — GC {}", self.workload, self.platform, self.gc_time)?;
        writeln!(f, "pauses:")?;
        if self.pause_minor.is_empty() && self.pause_major.is_empty() {
            // Zero-GC run: say so rather than print an empty table (or a
            // 0 ps percentile that was never measured).
            writeln!(f, "  (no collections)")?;
        }
        hist_row(f, "MinorGC", &self.pause_minor)?;
        hist_row(f, "MajorGC", &self.pause_major)?;
        if self.latencies.total_samples() > 0 {
            writeln!(f, "latencies:")?;
            for ch in Channel::ALL {
                hist_row(f, ch.name(), self.latencies.get(ch))?;
            }
        }
        if let Some(units) = &self.units {
            writeln!(f, "units (utilization over GC time):")?;
            for (&name, u) in UNIT_CLASS_NAMES.iter().zip(units.iter()) {
                writeln!(
                    f,
                    "  {name:<18} util={:>5.1}% busy={:<12} execs={:<8} qmax={} x{}",
                    u.utilization(self.gc_time) * 100.0,
                    format!("{}", u.busy),
                    u.executions,
                    u.queue_high_water,
                    u.total_units
                )?;
            }
        }
        if let Some(census) = &self.census {
            writeln!(
                f,
                "census: {} collections, mean dead fraction: minor {:.1}%, major {:.1}%",
                census.records.len(),
                census.mean_dead_fraction(GcKind::Minor) * 100.0,
                census.mean_dead_fraction(GcKind::Major) * 100.0
            )?;
            for r in &census.records {
                writeln!(f, "  {r}")?;
            }
        }
        if let Some(pm) = &self.postmortem {
            write!(f, "{pm}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_renders_and_serializes() {
        let p = RunProfile {
            workload: "BS",
            platform: "DDR4",
            gc_time: Ps::ZERO,
            pause_minor: Histogram::new(),
            pause_major: Histogram::new(),
            latencies: LatencyProfile::new(),
            census: None,
            units: None,
            postmortem: None,
        };
        let s = format!("{p}");
        assert!(s.contains("profile: BS on DDR4"));
        assert!(s.contains("(no collections)"), "zero-GC run must say so: {s}");
        assert!(!s.contains("latencies:"), "no samples, no section: {s}");
        let j = p.to_json();
        let pauses = j.get("pauses").expect("pauses always serialized");
        let p50 = pauses.get("minor").and_then(|h| h.get("p50"));
        assert!(matches!(p50, Some(Json::Null)), "empty pause percentiles are null, not 0");
        assert!(j.get("units").is_none());
        assert!(j.get("census").is_none());
        let round = Json::parse(&j.to_string()).unwrap();
        assert_eq!(round.get("workload").and_then(Json::as_str), Some("BS"));
    }
}
