//! Aggregated simulation reporting: one struct collecting everything a run
//! reveals about the machine — cache behaviour, traffic split, energy —
//! with a human-readable rendering for the CLI and examples.
//!
//! Also home of the shared **metric flattener**: every machine-readable
//! report the repo writes (bench, compare, bare run/profile, fleet,
//! chaos) flattens through [`extract_metrics`] into the same
//! `name → u64` rows, so `charon-cli regress`, the history ledger
//! (`charon-workloads::history`), and CI gates all agree on metric names
//! and on which direction each one regresses ([`higher_is_better`]).

use crate::energy::EnergyAccount;
use crate::host::HostTiming;
use crate::json::Json;
use crate::stats::{CacheStats, MemTrafficStats};
use crate::time::Ps;
use std::fmt;

/// A machine-level summary at a point in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineReport {
    /// Simulated time covered.
    pub elapsed: Ps,
    /// L1D stats (summed over cores).
    pub l1d: CacheStats,
    /// L2 stats (summed over cores).
    pub l2: CacheStats,
    /// Shared L3 stats.
    pub l3: CacheStats,
    /// Stream prefetches issued.
    pub prefetches: u64,
    /// DRAM / off-chip / inter-cube traffic and locality.
    pub traffic: MemTrafficStats,
    /// Per-cube DRAM bytes (empty on DDR4).
    pub per_cube_bytes: Vec<u64>,
    /// Energy spent so far.
    pub energy: EnergyAccount,
}

impl MachineReport {
    /// Snapshots a host (and its fabric) after `elapsed` of simulation,
    /// with the energy meter's current account.
    pub fn capture(host: &HostTiming, energy: EnergyAccount, elapsed: Ps) -> MachineReport {
        let (l1d, l2, l3) = host.cache_stats();
        MachineReport {
            elapsed,
            l1d,
            l2,
            l3,
            prefetches: host.prefetches(),
            traffic: host.fabric.stats(),
            per_cube_bytes: host.fabric.per_cube_bytes().to_vec(),
            energy,
        }
    }

    /// Average DRAM bandwidth over the covered period, GB/s.
    pub fn avg_dram_bandwidth_gbps(&self) -> f64 {
        if self.elapsed == Ps::ZERO {
            0.0
        } else {
            self.traffic.dram.total_bytes() as f64 / self.elapsed.as_secs() / 1e9
        }
    }

    /// Ratio of DRAM traffic served without crossing the off-chip boundary
    /// (only meaningful for near-memory configurations).
    pub fn onchip_traffic_ratio(&self) -> f64 {
        let total = self.traffic.dram.total_bytes();
        if total == 0 {
            return 0.0;
        }
        1.0 - (self.traffic.offchip.total_bytes() as f64 / total as f64).min(1.0)
    }

    /// Machine-readable form of the full report ([`crate::json`]).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("elapsed_ps", Json::U64(self.elapsed.0)),
            ("l1d", self.l1d.to_json()),
            ("l2", self.l2.to_json()),
            ("l3", self.l3.to_json()),
            ("prefetches", Json::U64(self.prefetches)),
            ("traffic", self.traffic.to_json()),
            ("per_cube_bytes", Json::Arr(self.per_cube_bytes.iter().map(|&b| Json::U64(b)).collect())),
            ("avg_dram_bandwidth_gbps", Json::F64(self.avg_dram_bandwidth_gbps())),
            ("onchip_traffic_ratio", Json::F64(self.onchip_traffic_ratio())),
            ("energy", self.energy.to_json()),
        ])
    }
}

impl fmt::Display for MachineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "machine report over {}:", self.elapsed)?;
        writeln!(f, "  L1D {}", self.l1d)?;
        writeln!(f, "  L2  {}", self.l2)?;
        writeln!(f, "  L3  {}  ({} prefetches)", self.l3, self.prefetches)?;
        writeln!(f, "  DRAM {} ({:.1} GB/s avg)", self.traffic.dram, self.avg_dram_bandwidth_gbps())?;
        writeln!(f, "  off-chip {}", self.traffic.offchip)?;
        if !self.per_cube_bytes.is_empty() {
            write!(f, "  per-cube MB:")?;
            for (i, b) in self.per_cube_bytes.iter().enumerate() {
                write!(f, " cube{i}={:.1}", *b as f64 / 1e6)?;
            }
            writeln!(f)?;
            writeln!(f, "  near-memory locality: {:.1}%", self.traffic.local_ratio() * 100.0)?;
        }
        write!(f, "  energy: {}", self.energy)
    }
}

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
        // other metric.
        let count = |k: &str| report.get(k).and_then(Json::as_u64).unwrap_or(0);
        let (injected, detected, repaired) = (count("injected"), count("detected"), count("repaired"));
        let harmful = injected.saturating_sub(count("benign"));
        out.push(("chaos/detection_rate_bp".into(), (detected * 10_000).checked_div(harmful).unwrap_or(10_000)));
        out.push(("chaos/repair_rate_bp".into(), (repaired * 10_000).checked_div(detected).unwrap_or(10_000)));
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
    use crate::cache::AccessKind;
    use crate::config::SystemConfig;
    use crate::energy::{EnergyModel, EnergyParams};

    #[test]
    fn capture_reflects_host_activity() {
        let mut host = HostTiming::new(&SystemConfig::table2_hmc());
        let mut now = Ps::ZERO;
        for i in 0..2000u64 {
            now = host.mem_access(0, now, i * 64, 8, AccessKind::Read);
        }
        let mut meter = EnergyModel::new(EnergyParams::default());
        meter.add_core_active(1, now);
        let r = MachineReport::capture(&host, meter.account().clone(), now);
        assert!(r.l1d.accesses() >= 2000);
        assert!(r.traffic.dram.total_bytes() > 0);
        assert!(r.avg_dram_bandwidth_gbps() > 0.0);
        assert!(r.prefetches > 0, "a sequential stream must trigger the prefetcher");
        assert_eq!(r.per_cube_bytes.len(), 4);
        let text = r.to_string();
        assert!(text.contains("L1D") && text.contains("per-cube MB"));
    }

    #[test]
    fn empty_report_is_safe() {
        let host = HostTiming::new(&SystemConfig::table2_ddr4());
        let r = MachineReport::capture(&host, EnergyAccount::default(), Ps::ZERO);
        assert_eq!(r.avg_dram_bandwidth_gbps(), 0.0);
        assert_eq!(r.onchip_traffic_ratio(), 0.0);
        assert!(r.per_cube_bytes.is_empty());
        assert!(!r.to_string().is_empty());
    }

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

    #[test]
    fn onchip_ratio_reflects_near_memory_service() {
        use crate::dram::DramOp;
        use crate::noc::Node;
        let mut host = HostTiming::new(&SystemConfig::table2_hmc());
        // Near-memory accesses from cube 1 to its own pages: DRAM traffic
        // grows, off-chip does not.
        let page = 1u64 << SystemConfig::table2_hmc().hmc.cube_interleave_bits;
        for i in 0..64 {
            host.fabric.access(Node::Cube(1), page + i * 256, 256, DramOp::Read, Ps::ZERO);
        }
        let r = MachineReport::capture(&host, EnergyAccount::default(), Ps::from_us(1.0));
        assert!(r.onchip_traffic_ratio() > 0.9, "{}", r.onchip_traffic_ratio());
    }
}
