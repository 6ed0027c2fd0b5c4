//! Seeded fault-injection campaigns over the offload path.
//!
//! A campaign runs one workload fault-free, then once per fault site with
//! that site's failure rate turned up, and checks the robustness contract
//! of the fault layer ([`charon_sim::faults`]): injected faults may cost
//! time (retries, timeouts, host fallbacks, degradation) but must never
//! change what the collector *does* — the reachable-graph signatures, the
//! reachability counters, and the collection sequence must be identical to
//! the fault-free run, and simulated time must stay strictly monotone
//! across collections.
//!
//! A run here is [`run_case`]: one workload on a [`System`] the caller
//! built and armed ([`System::inject_faults`], [`System::set_telemetry`])
//! under the [`RunOptions`] every other driver takes — all of them, since
//! it is the same [`Run`] that [`crate::run::run_workload`] drives, stepped
//! by hand so that the graph signature can be taken between supersteps.

use crate::run::{Run, RunOptions};
use crate::spec::WorkloadSpec;
use charon_gc::breakdown::RecoverySummary;
use charon_gc::collector::{GcKind, OutOfMemory};
use charon_gc::system::System;
use charon_gc::verify::{graph_signature, ReachableStats};
use charon_heap::addr::VAddr;
use charon_heap::heap::JavaHeap;
use charon_sim::faults::{FaultRates, FaultSite, RecoveryConfig};
use charon_sim::json::Json;
use charon_sim::time::Ps;
use std::fmt;

/// A campaign run died outright (as opposed to completing with a failed
/// check, which lands in the [`SiteVerdict`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The heap could not hold the workload.
    OutOfMemory(OutOfMemory),
    /// A reachable reference escaped the heap — the one thing injected
    /// faults must never cause, caught by
    /// [`charon_gc::verify::graph_signature`].
    Corrupt {
        /// Which checkpoint tripped ("resident", "step 3", …).
        stage: String,
        /// The escaping reference.
        addr: VAddr,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::OutOfMemory(e) => write!(f, "{e}"),
            CampaignError::Corrupt { stage, addr } => {
                write!(f, "heap corruption at {stage}: reachable reference {addr} points outside the heap")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// What one run (fault-free or faulty) produced.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// `(graph_signature, reachable_stats)` after resident build and after
    /// every superstep — the correctness stream compared across runs.
    pub signatures: Vec<(u64, ReachableStats)>,
    /// Kind of every collection, in order.
    pub event_kinds: Vec<GcKind>,
    /// Total stop-the-world time.
    pub gc_time: Ps,
    /// Whether event times were strictly monotone (positive pauses, no
    /// collection starting before the previous one ended).
    pub monotone: bool,
    /// Human-readable detail when `monotone` is false.
    pub monotone_detail: Option<String>,
    /// Cumulative recovery accounting (all zero on the fault-free run).
    pub recovery: RecoverySummary,
    /// Faults the injector fired, total across sites.
    pub injected: u64,
}

fn checkpoint(heap: &JavaHeap, stage: &str) -> Result<(u64, ReachableStats), CampaignError> {
    graph_signature(heap).map_err(|e| CampaignError::Corrupt { stage: stage.to_string(), addr: e.addr })
}

/// Runs one case on `sys`: fault-free on a plain system, faulty on one
/// the caller armed with [`System::inject_faults`]. Campaigns and property
/// tests compare the returned [`CaseReport`]s.
///
/// Every [`RunOptions`] field applies, [`RunOptions::collector`] included,
/// but the campaign's "same collection sequence as the fault-free run"
/// check is only sound for the stop-the-world collectors: `cms` paces its
/// concurrent marker by simulated time, so a faulty cms run may
/// legitimately collect at other points than its fault-free twin. That is
/// why `fault-campaign` takes no `--collector` yet (ROADMAP, correctness
/// item (c)).
///
/// # Errors
///
/// Returns [`CampaignError`] when the run cannot complete or a checkpoint
/// finds heap corruption.
pub fn run_case(spec: &WorkloadSpec, sys: System, opts: &RunOptions) -> Result<CaseReport, CampaignError> {
    let mut run = Run::new(spec, sys, opts);
    let mut signatures = Vec::new();
    run.build_resident().map_err(CampaignError::OutOfMemory)?;
    signatures.push(checkpoint(&run.heap, "resident")?);
    for step in 0..run.steps() {
        run.superstep().map_err(CampaignError::OutOfMemory)?;
        signatures.push(checkpoint(&run.heap, &format!("step {step}"))?);
    }
    let gc = &run.gc;

    let mut monotone = true;
    let mut monotone_detail = None;
    let mut prev_end = Ps::ZERO;
    for (i, e) in gc.events.iter().enumerate() {
        if e.wall <= Ps::ZERO {
            monotone = false;
            monotone_detail = Some(format!("collection {i} has a non-positive pause {}", e.wall));
            break;
        }
        if e.start < prev_end {
            monotone = false;
            monotone_detail =
                Some(format!("collection {i} starts at {} before the previous one ended at {prev_end}", e.start));
            break;
        }
        prev_end = e.start + e.wall;
    }

    let injected = gc
        .sys
        .device
        .as_ref()
        .and_then(|d| d.fault_injector())
        .map(|inj| inj.total_injected())
        .unwrap_or(0);
    Ok(CaseReport {
        signatures,
        event_kinds: gc.events.iter().map(|e| e.kind).collect(),
        gc_time: gc.gc_total_time(),
        monotone,
        monotone_detail,
        recovery: gc.sys.recovery,
        injected,
    })
}

/// One row of the campaign matrix.
#[derive(Debug, Clone, Copy)]
pub struct MatrixEntry {
    /// Display label.
    pub label: &'static str,
    /// The site under fire.
    pub site: FaultSite,
    /// Injector seed (distinct per row so sites draw distinct schedules).
    pub seed: u64,
    /// The rates for this row.
    pub rates: FaultRates,
}

/// The standard campaign matrix: one seeded run per fault site at a
/// moderate rate (retries dominate), plus a near-certain unit-failure row
/// that drives the watchdog all the way to per-primitive degradation.
pub fn fault_matrix(base_seed: u64) -> Vec<MatrixEntry> {
    let mut rows: Vec<MatrixEntry> = FaultSite::ALL
        .iter()
        .enumerate()
        .map(|(i, &site)| MatrixEntry {
            label: site.name(),
            site,
            seed: base_seed.wrapping_add(i as u64 + 1),
            rates: FaultRates::only(site, 0.2),
        })
        .collect();
    rows.push(MatrixEntry {
        label: "unit-degrade",
        site: FaultSite::Unit,
        seed: base_seed.wrapping_add(99),
        rates: FaultRates::only(FaultSite::Unit, 0.95),
    });
    rows
}

/// The checked outcome of one matrix row.
#[derive(Debug, Clone)]
pub struct SiteVerdict {
    /// The matrix row.
    pub entry: MatrixEntry,
    /// Faults injected during the run.
    pub injected: u64,
    /// Recovery accounting (retries / fallbacks / degradations).
    pub recovery: RecoverySummary,
    /// Collections completed.
    pub collections: usize,
    /// Total GC time under faults (≥ the fault-free time).
    pub gc_time: Ps,
    /// All checks passed.
    pub pass: bool,
    /// What failed, when `pass` is false.
    pub failures: Vec<String>,
}

/// A full campaign: fault-free baseline plus every matrix row.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Two-letter workload code.
    pub workload: &'static str,
    /// The fault-free reference run.
    pub baseline: CaseReport,
    /// One verdict per matrix row.
    pub verdicts: Vec<SiteVerdict>,
}

impl CampaignReport {
    /// True when every matrix row passed.
    pub fn pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// Machine-readable view of the whole campaign.
    pub fn to_json(&self) -> Json {
        let case = |c: &CaseReport| {
            Json::obj(vec![
                ("gc_time_ps", Json::U64(c.gc_time.0)),
                ("collections", Json::U64(c.event_kinds.len() as u64)),
                ("checkpoints", Json::U64(c.signatures.len() as u64)),
                ("monotone", Json::Bool(c.monotone)),
                ("injected", Json::U64(c.injected)),
                ("recovery", c.recovery.to_json()),
            ])
        };
        let verdicts = self
            .verdicts
            .iter()
            .map(|v| {
                Json::obj(vec![
                    ("site", Json::str(v.entry.label)),
                    ("seed", Json::U64(v.entry.seed)),
                    ("injected", Json::U64(v.injected)),
                    ("collections", Json::U64(v.collections as u64)),
                    ("gc_time_ps", Json::U64(v.gc_time.0)),
                    ("recovery", v.recovery.to_json()),
                    ("pass", Json::Bool(v.pass)),
                    ("failures", Json::Arr(v.failures.iter().map(Json::str).collect())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("pass", Json::Bool(self.pass())),
            ("baseline", case(&self.baseline)),
            ("verdicts", Json::Arr(verdicts)),
        ])
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: fault-free {} over {} collections",
            self.workload,
            self.baseline.gc_time,
            self.baseline.event_kinds.len()
        )?;
        for v in &self.verdicts {
            writeln!(
                f,
                "  {:<14} seed={:<4} {:>7} injected  gc {}  recovery: {}  {}",
                v.entry.label,
                v.entry.seed,
                v.injected,
                v.gc_time,
                v.recovery,
                if v.pass { "PASS" } else { "FAIL" },
            )?;
            for msg in &v.failures {
                writeln!(f, "      ! {msg}")?;
            }
        }
        Ok(())
    }
}

fn check(entry: MatrixEntry, baseline: &CaseReport, case: &CaseReport) -> SiteVerdict {
    let mut failures = Vec::new();
    if case.signatures.len() != baseline.signatures.len() {
        failures.push(format!(
            "checkpoint count diverged: {} vs fault-free {}",
            case.signatures.len(),
            baseline.signatures.len()
        ));
    } else if let Some(i) = (0..case.signatures.len()).find(|&i| case.signatures[i] != baseline.signatures[i]) {
        failures.push(format!(
            "graph signature diverged at checkpoint {i}: {:016x} vs fault-free {:016x}",
            case.signatures[i].0, baseline.signatures[i].0
        ));
    }
    if case.event_kinds != baseline.event_kinds {
        failures.push(format!(
            "collection sequence diverged: {} events vs fault-free {}",
            case.event_kinds.len(),
            baseline.event_kinds.len()
        ));
    }
    if !case.monotone {
        failures.push(
            case.monotone_detail
                .clone()
                .unwrap_or_else(|| "non-monotone simulated time".to_string()),
        );
    }
    if case.injected == 0 {
        failures.push(format!("fault site {} never fired — dead injection wiring", entry.site));
    }
    SiteVerdict {
        entry,
        injected: case.injected,
        recovery: case.recovery,
        collections: case.event_kinds.len(),
        gc_time: case.gc_time,
        pass: failures.is_empty(),
        failures,
    }
}

/// Runs the full campaign for one workload on the Charon platform: the
/// fault-free baseline on the calling thread, then the matrix rows fanned
/// across up to `jobs` OS threads ([`crate::parmatrix::parallel_map_labeled`]).
/// Every row is an independent seeded run against its own [`System`]
/// (armed with [`RecoveryConfig::default`]), so the verdicts are
/// bit-identical at any job count and come back in matrix order.
///
/// # Errors
///
/// Returns [`CampaignError`] when the *fault-free* run cannot complete;
/// failures of the faulty runs land in their [`SiteVerdict`] instead.
pub fn run_fault_campaign(
    spec: &WorkloadSpec,
    base_seed: u64,
    opts: &RunOptions,
    jobs: usize,
) -> Result<CampaignReport, CampaignError> {
    let baseline = run_case(spec, System::charon(), opts)?;
    let rows = fault_matrix(base_seed);
    let cases = crate::parmatrix::parallel_map_labeled(
        &rows,
        jobs,
        |_, entry| format!("{}/{}", spec.short, entry.label),
        |entry| {
            let mut sys = System::charon();
            sys.inject_faults(entry.seed, entry.rates, RecoveryConfig::default());
            run_case(spec, sys, opts)
        },
    );
    let verdicts = rows
        .iter()
        .zip(cases)
        .map(|(&entry, case)| match case {
            Ok(case) => check(entry, &baseline, &case),
            Err(e) => SiteVerdict {
                entry,
                injected: 0,
                recovery: RecoverySummary::default(),
                collections: 0,
                gc_time: Ps::ZERO,
                pass: false,
                failures: vec![e.to_string()],
            },
        })
        .collect();
    Ok(CampaignReport { workload: spec.short, baseline, verdicts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_workload;
    use crate::spec::by_short;
    use charon_gc::collector::CollectorKind;

    #[test]
    fn campaign_passes_on_bs_and_exercises_recovery() {
        let spec = by_short("BS").unwrap();
        let opts = RunOptions { supersteps: Some(2), ..Default::default() };
        let report = run_fault_campaign(&spec, 42, &opts, 1).unwrap();
        assert!(report.pass(), "campaign failed:\n{report}");
        assert!(report.baseline.recovery.is_empty(), "fault-free run must record no recovery events");
        assert_eq!(report.baseline.injected, 0);
        for v in &report.verdicts {
            assert!(v.injected > 0, "{} fired nothing", v.entry.label);
            assert!(v.gc_time >= report.baseline.gc_time, "{}: faults cannot make GC faster", v.entry.label);
        }
        // Every faulty run costs retries somewhere.
        assert!(report.verdicts.iter().any(|v| v.recovery.total_retries() > 0));
        // The near-certain unit-failure row must walk the whole ladder:
        // retries, fallbacks, and at least one degraded primitive.
        let degrade = report.verdicts.iter().find(|v| v.entry.label == "unit-degrade").unwrap();
        assert!(degrade.recovery.total_fallbacks() > 0, "no fallbacks under {}", degrade.entry.label);
        assert!(degrade.recovery.degraded.iter().any(|&d| d), "watchdog never degraded a primitive");
    }

    #[test]
    fn run_case_honours_every_run_option() {
        // Ten supersteps is the shortest BS run with a MajorGC, the one
        // place the collector kind shows: ms collects 5 minor + 1 major
        // where ps collects 4 + 1, in less time.
        let spec = by_short("BS").unwrap();
        let opts = RunOptions { collector: CollectorKind::Ms, supersteps: Some(10), ..Default::default() };
        let case = run_case(&spec, System::charon(), &opts).unwrap();
        let run = run_workload(&spec, System::charon(), &opts).unwrap();
        let count = |kind| case.event_kinds.iter().filter(|&&k| k == kind).count();
        assert_eq!((count(GcKind::Minor), count(GcKind::Major)), (run.minor.1, run.major.1));
        assert_eq!(case.gc_time, run.gc_time);
        let ps = run_workload(&spec, System::charon(), &RunOptions { collector: CollectorKind::Ps, ..opts }).unwrap();
        assert_ne!(run.gc_time, ps.gc_time, "the collector kind must matter at this length");
    }

    #[test]
    fn parallel_campaign_matches_serial_verdicts() {
        let spec = by_short("BS").unwrap();
        let opts = RunOptions { supersteps: Some(1), ..Default::default() };
        let serial = run_fault_campaign(&spec, 42, &opts, 1).unwrap();
        let par = run_fault_campaign(&spec, 42, &opts, 3).unwrap();
        assert_eq!(serial.baseline.gc_time, par.baseline.gc_time);
        assert_eq!(serial.verdicts.len(), par.verdicts.len());
        for (s, p) in serial.verdicts.iter().zip(&par.verdicts) {
            assert_eq!(s.entry.label, p.entry.label, "row order must be matrix order");
            assert_eq!((s.injected, s.collections, s.gc_time, s.pass), (p.injected, p.collections, p.gc_time, p.pass));
        }
        assert_eq!(serial.to_json().to_string(), par.to_json().to_string());
    }

    #[test]
    fn fault_matrix_covers_every_site_with_distinct_seeds() {
        let rows = fault_matrix(7);
        for site in FaultSite::ALL {
            assert!(rows.iter().any(|r| r.site == site && r.rates.get(site) > 0.0), "site {site} missing");
        }
        let mut seeds: Vec<u64> = rows.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), rows.len(), "matrix seeds must be distinct");
    }
}
