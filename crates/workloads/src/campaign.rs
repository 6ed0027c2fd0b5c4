//! Seeded campaigns over the offload path, for both fault tiers.
//!
//! The *timing* tier ([`run_fault_campaign`]) arms the §4.1 fault layer
//! ([`charon_sim::faults`]): lost packets, NACKs, wedged units. Injected
//! faults may cost time (retries, timeouts, host fallbacks, degradation) but
//! must never change what the collector *does* — the reachable-graph
//! signatures, the reachability counters, and the collection sequence must
//! be identical to the control's, simulated time must stay strictly
//! monotone across collections, and the site must have fired.
//!
//! The *corruption* tier ([`run_chaos_campaign`]) arms the integrity layer
//! (`charon-gc::integrity`): seeded bit flips in the outputs an offload
//! writes back (mark-bitmap words, forwarding pointers, card bytes, copied
//! payloads), swept over sites × rates × workloads. Every run must complete
//! with a traversable reachable graph at every checkpoint, every *detected*
//! corruption must be repaired, and with the shadow oracle on **nothing**
//! may escape.
//!
//! One driver runs both. A campaign is a matrix of [`Cell`]s; the control of
//! a workload is its first cell with the rate at zero — armed the same way,
//! which is timing-identical to an unarmed run (`tests/chaos_integrity.rs`
//! checks both tiers). Controls and cells go through one
//! [`crate::parmatrix`] fan-out, each a [`run_case`]; then each tier checks
//! its cells against their control with its own verdict function.
//!
//! A run here is [`run_case`]: one workload on a [`System`] the caller
//! built and armed ([`System::inject_faults`], [`System::enable_integrity`],
//! [`System::set_telemetry`]) under the [`RunOptions`] every other driver
//! takes — all of them, since it is the same [`Run`] that
//! [`crate::run::run_workload`] drives, stepped by hand so that the graph
//! signature can be taken between supersteps.

use crate::run::{Run, RunOptions};
use crate::spec::WorkloadSpec;
use charon_gc::breakdown::RecoverySummary;
use charon_gc::collector::{GcKind, OutOfMemory};
use charon_gc::integrity::IntegrityConfig;
use charon_gc::system::System;
use charon_gc::verify::{graph_signature, ReachableStats};
use charon_heap::addr::VAddr;
use charon_heap::heap::JavaHeap;
use charon_sim::faults::{CorruptionSite, FaultSite, Injector, RecoveryConfig};
use charon_sim::json::Json;
use charon_sim::time::Ps;
use std::fmt;

/// A campaign run died outright (as opposed to completing with a failed
/// check, which lands in its [`Verdict`]).
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
    /// A simulator invariant tripped: the panic message.
    Panicked(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::OutOfMemory(e) => write!(f, "{e}"),
            CampaignError::Corrupt { stage, addr } => {
                write!(f, "heap corruption at {stage}: reachable reference {addr} points outside the heap")
            }
            CampaignError::Panicked(msg) => write!(f, "panic: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// What one run (control or cell) produced.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// Two-letter workload code.
    pub workload: &'static str,
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
    /// The run's recovery ledger ([`System::recovery`]; empty on a control).
    pub recovery: RecoverySummary,
    /// Timing faults the injector fired.
    pub injected: u64,
    /// Bytes the mutator allocated.
    pub allocated_bytes: u64,
}

fn count(kinds: &[GcKind], kind: GcKind) -> u64 {
    kinds.iter().filter(|&&k| k == kind).count() as u64
}

fn checkpoint(heap: &JavaHeap, stage: &str) -> Result<(u64, ReachableStats), CampaignError> {
    graph_signature(heap).map_err(|e| CampaignError::Corrupt { stage: stage.to_string(), addr: e.addr })
}

/// Runs one case on `sys`: a plain system, or one the caller armed with
/// [`System::inject_faults`] or [`System::enable_integrity`]. Campaigns and
/// property tests compare the returned [`CaseReport`]s.
///
/// Every [`RunOptions`] field applies, [`RunOptions::collector`] included,
/// but the timing tier's "same collection sequence as the control" check is
/// only sound for the stop-the-world collectors: `cms` paces its concurrent
/// marker by simulated time, so a faulty cms run may legitimately collect
/// at other points than its fault-free twin. That is why `fault-campaign`
/// takes no `--collector` yet (ROADMAP, correctness item (c)).
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

    let mut prev_end = Ps::ZERO;
    let monotone_detail = gc.events.iter().enumerate().find_map(|(i, e)| {
        let detail = if e.wall <= Ps::ZERO {
            Some(format!("collection {i} has a non-positive pause {}", e.wall))
        } else if e.start < prev_end {
            Some(format!("collection {i} starts at {} before the previous one ended at {prev_end}", e.start))
        } else {
            None
        };
        prev_end = e.start + e.wall;
        detail
    });
    let injector = gc.sys.device.as_ref().and_then(|d| d.fault_injector());
    Ok(CaseReport {
        workload: spec.short,
        signatures,
        event_kinds: gc.events.iter().map(|e| e.kind).collect(),
        gc_time: gc.gc_total_time(),
        monotone: monotone_detail.is_none(),
        monotone_detail,
        recovery: gc.sys.recovery,
        injected: injector.map_or(0, Injector::injected),
        allocated_bytes: run.mutator.allocated_bytes,
    })
}

/// How a cell arms its `System::charon()`: the tier, and the site it fires
/// at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arm {
    /// Timing faults ([`System::inject_faults`], default recovery ladder).
    Fault(FaultSite),
    /// Silent corruption ([`System::enable_integrity`]).
    Corruption {
        /// The site under fire.
        site: CorruptionSite,
        /// Arm the shadow oracle on top of the checksum/read-back detectors.
        oracle: bool,
        /// Probe-after-N-GCs re-enable of quarantined units
        /// ([`System::set_rearm`]).
        rearm: Option<u32>,
    },
}

/// One cell of a campaign matrix: a workload on a `System::charon()` armed
/// at one site and rate.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The workload to run.
    pub spec: WorkloadSpec,
    /// Display label: the site's name, `unit-degrade`, or `control`.
    pub label: &'static str,
    /// Per-invocation fault or corruption probability at the site; zero
    /// for a control.
    pub rate: f64,
    /// Injector seed (distinct per cell so cells draw distinct schedules).
    pub seed: u64,
    /// The tier and site.
    pub arm: Arm,
}

impl Cell {
    fn system(&self) -> System {
        let mut sys = System::charon();
        match self.arm {
            Arm::Fault(at) => sys.inject_faults(at.arm(self.seed, self.rate), RecoveryConfig::default()),
            Arm::Corruption { site, oracle, rearm } => {
                let config = IntegrityConfig { shadow_oracle: oracle, ..Default::default() };
                sys.enable_integrity(site.arm(self.seed, self.rate), config);
                if let Some(n) = rearm {
                    sys.set_rearm(n);
                }
            }
        }
        sys
    }
}

/// The checked outcome of one cell.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The cell.
    pub cell: Cell,
    /// What its run produced; `None` when the run did not complete.
    pub case: Option<CaseReport>,
    /// What failed; empty when every check passed.
    pub failures: Vec<String>,
}

impl Verdict {
    /// True when every check passed.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    /// The run's report, all zero when it did not complete.
    fn report(&self) -> CaseReport {
        self.case.clone().unwrap_or_default()
    }
}

/// Runs `cells` and one zero-rate control per workload — the workload's
/// first cell with its rate at zero — through one fan-out on up to `jobs`
/// OS threads ([`crate::parmatrix`]). Every run is an independent seeded
/// [`run_case`] on its own [`System`], so the results are bit-identical at
/// any job count and come back in matrix order. `verdict` checks a
/// completed cell against its workload's control; a cell that did not
/// complete (out of memory, a corrupt checkpoint, a panic) fails with the
/// reason.
///
/// # Errors
///
/// Returns the [`CampaignError`] of the first control that did not
/// complete.
fn run_campaign(
    cells: &[Cell],
    opts: &RunOptions,
    jobs: usize,
    verdict: fn(&Cell, &CaseReport, &CaseReport) -> Vec<String>,
) -> Result<(Vec<CaseReport>, Vec<Verdict>), CampaignError> {
    let mut runs: Vec<Cell> = Vec::new();
    for cell in cells {
        if runs.iter().all(|c| c.spec.short != cell.spec.short) {
            runs.push(Cell { label: "control", rate: 0.0, ..cell.clone() });
        }
    }
    let controls = runs.len();
    runs.extend_from_slice(cells);
    let mut cases = crate::parmatrix::parallel_map_result(&runs, jobs, |c| run_case(&c.spec, c.system(), opts))
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| Err(CampaignError::Panicked(msg))));
    let controls: Vec<CaseReport> = cases.by_ref().take(controls).collect::<Result<_, _>>()?;
    let verdicts = cells.iter().zip(cases).map(|(cell, case)| {
        let control = controls.iter().find(|c| c.workload == cell.spec.short);
        let failures = match &case {
            Ok(case) => verdict(cell, control.expect("one control per workload"), case),
            Err(e) => vec![format!("run did not complete: {e}")],
        };
        Verdict { cell: cell.clone(), case: case.ok(), failures }
    });
    let verdicts = verdicts.collect();
    Ok((controls, verdicts))
}

// ----- timing tier ---------------------------------------------------------

/// The standard timing-fault matrix for `spec`: one seeded run per fault
/// site at a moderate rate (retries dominate), plus a near-certain
/// unit-failure row that drives the watchdog all the way to per-primitive
/// degradation.
pub fn fault_matrix(spec: &WorkloadSpec, base_seed: u64) -> Vec<Cell> {
    let cell = |label, site, seed, rate| Cell { spec: spec.clone(), label, rate, seed, arm: Arm::Fault(site) };
    let mut rows: Vec<Cell> = FaultSite::ALL
        .iter()
        .enumerate()
        .map(|(i, &site)| cell(site.name(), site, base_seed.wrapping_add(i as u64 + 1), 0.2))
        .collect();
    rows.push(cell("unit-degrade", FaultSite::Unit, base_seed.wrapping_add(99), 0.95));
    rows
}

/// The timing tier's checks: the signature stream and the collection
/// sequence equal the control's, simulated time is monotone, and the site
/// fired.
fn timing_verdict(cell: &Cell, control: &CaseReport, case: &CaseReport) -> Vec<String> {
    let mut failures = Vec::new();
    if case.signatures.len() != control.signatures.len() {
        failures.push(format!(
            "checkpoint count diverged: {} vs fault-free {}",
            case.signatures.len(),
            control.signatures.len()
        ));
    } else if let Some(i) = (0..case.signatures.len()).find(|&i| case.signatures[i] != control.signatures[i]) {
        failures.push(format!(
            "graph signature diverged at checkpoint {i}: {:016x} vs fault-free {:016x}",
            case.signatures[i].0, control.signatures[i].0
        ));
    }
    if case.event_kinds != control.event_kinds {
        failures.push(format!(
            "collection sequence diverged: {} events vs fault-free {}",
            case.event_kinds.len(),
            control.event_kinds.len()
        ));
    }
    if let Some(detail) = &case.monotone_detail {
        failures.push(detail.clone());
    }
    if case.injected == 0 {
        failures.push(format!("fault site {} never fired — dead injection wiring", cell.label));
    }
    failures
}

/// A timing-fault campaign: the zero-rate control plus every matrix row.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Two-letter workload code.
    pub workload: &'static str,
    /// The zero-rate control run.
    pub baseline: CaseReport,
    /// One verdict per matrix row.
    pub verdicts: Vec<Verdict>,
}

impl CampaignReport {
    /// True when every matrix row passed.
    pub fn pass(&self) -> bool {
        self.verdicts.iter().all(Verdict::pass)
    }

    /// Machine-readable view of the whole campaign.
    pub fn to_json(&self) -> Json {
        let b = &self.baseline;
        let baseline = Json::obj(vec![
            ("gc_time_ps", Json::U64(b.gc_time.0)),
            ("collections", Json::U64(b.event_kinds.len() as u64)),
            ("checkpoints", Json::U64(b.signatures.len() as u64)),
            ("monotone", Json::Bool(b.monotone)),
            ("injected", Json::U64(b.injected)),
            ("recovery", b.recovery.to_json()),
        ]);
        let verdicts = self
            .verdicts
            .iter()
            .map(|v| {
                let case = v.report();
                Json::obj(vec![
                    ("site", Json::str(v.cell.label)),
                    ("seed", Json::U64(v.cell.seed)),
                    ("injected", Json::U64(case.injected)),
                    ("collections", Json::U64(case.event_kinds.len() as u64)),
                    ("gc_time_ps", Json::U64(case.gc_time.0)),
                    ("recovery", case.recovery.to_json()),
                    ("pass", Json::Bool(v.pass())),
                    ("failures", Json::Arr(v.failures.iter().map(Json::str).collect())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("pass", Json::Bool(self.pass())),
            ("baseline", baseline),
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
            let case = v.report();
            writeln!(
                f,
                "  {:<14} seed={:<4} {:>7} injected  gc {}  recovery: {}  {}",
                v.cell.label,
                v.cell.seed,
                case.injected,
                case.gc_time,
                case.recovery,
                if v.pass() { "PASS" } else { "FAIL" },
            )?;
            for msg in &v.failures {
                writeln!(f, "      ! {msg}")?;
            }
        }
        Ok(())
    }
}

/// Runs the timing-fault campaign for one workload on the Charon platform:
/// [`fault_matrix`] and its control, fanned across up to `jobs` OS threads.
///
/// # Errors
///
/// Returns [`CampaignError`] when the *control* cannot complete; failures
/// of the faulty runs land in their [`Verdict`] instead.
pub fn run_fault_campaign(
    spec: &WorkloadSpec,
    base_seed: u64,
    opts: &RunOptions,
    jobs: usize,
) -> Result<CampaignReport, CampaignError> {
    let (mut controls, verdicts) = run_campaign(&fault_matrix(spec, base_seed), opts, jobs, timing_verdict)?;
    Ok(CampaignReport { workload: spec.short, baseline: controls.remove(0), verdicts })
}

// ----- corruption tier -----------------------------------------------------

/// Options shared by every cell of a chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Base seed; every cell derives a distinct injector seed from it.
    pub seed: u64,
    /// Corruption rates to sweep (per primitive invocation), each in
    /// (0, 1]. A zero-rate control is always run in addition, one per
    /// workload.
    pub rates: Vec<f64>,
    /// Sites to sweep.
    pub sites: Vec<CorruptionSite>,
    /// Arm the shadow oracle (re-execute each primitive in host software
    /// and diff) on top of the checksum/read-back detectors.
    pub oracle: bool,
    /// Probe-after-N-GCs re-enable of quarantined units, armed on every
    /// cell's [`System`] ([`System::set_rearm`]).
    pub rearm: Option<u32>,
    /// Per-cell run options (campaigns usually override `supersteps`).
    pub run: RunOptions,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            seed: 0xC0DE,
            rates: vec![0.02, 0.1],
            sites: CorruptionSite::ALL.to_vec(),
            oracle: false,
            rearm: None,
            run: RunOptions::default(),
        }
    }
}

/// SplitMix64-style finalizer: distinct, well-spread per-cell seeds from
/// the base seed and the cell's matrix coordinates.
fn mix_seed(base: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = base
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x | 1
}

/// The full chaos matrix for a set of workloads: every workload × site ×
/// rate, workload-major then site then rate — a stable report order.
pub fn chaos_matrix(specs: &[WorkloadSpec], opts: &ChaosOptions) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (wi, spec) in specs.iter().enumerate() {
        for (si, &site) in opts.sites.iter().enumerate() {
            for (ri, &rate) in opts.rates.iter().enumerate() {
                let seed = mix_seed(opts.seed, wi as u64, si as u64, ri as u64);
                let arm = Arm::Corruption { site, oracle: opts.oracle, rearm: opts.rearm };
                cells.push(Cell { spec: spec.clone(), label: site.name(), rate, seed, arm });
            }
        }
    }
    cells
}

/// The corruption tier's checks (the graph is checked by [`run_case`] at
/// every checkpoint): every detected corruption was repaired, and under
/// the shadow oracle nothing escaped.
fn corruption_verdict(cell: &Cell, _control: &CaseReport, case: &CaseReport) -> Vec<String> {
    let r = &case.recovery;
    let mut failures = Vec::new();
    if r.total_repaired() < r.total_detected() {
        failures.push(format!(
            "repair ladder lost corruptions: {} detected but only {} repaired",
            r.total_detected(),
            r.total_repaired()
        ));
    }
    if matches!(cell.arm, Arm::Corruption { oracle: true, .. }) && r.escaped() > 0 {
        failures.push(format!("{} corruptions escaped the shadow oracle", r.escaped()));
    }
    failures
}

/// `num / den`, or 1.0 when there is nothing to divide by.
fn ratio(num: u64, den: u64) -> f64 {
    match den {
        0 => 1.0,
        den => num as f64 / den as f64,
    }
}

/// A full chaos campaign: per-workload zero-rate controls plus every
/// injection cell.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Whether the shadow oracle was armed.
    pub oracle: bool,
    /// One control per workload, in workload order.
    pub baselines: Vec<CaseReport>,
    /// One verdict per matrix cell, in matrix order.
    pub cells: Vec<Verdict>,
}

impl ChaosReport {
    fn total(&self, count: impl Fn(&RecoverySummary) -> u64) -> u64 {
        self.cells.iter().map(|c| count(&c.report().recovery)).sum()
    }

    /// Corruptions injected across the campaign.
    pub fn injected(&self) -> u64 {
        self.total(RecoverySummary::total_injected)
    }

    /// Corruptions detected across the campaign.
    pub fn detected(&self) -> u64 {
        self.total(RecoverySummary::total_detected)
    }

    /// Corruptions repaired across the campaign.
    pub fn repaired(&self) -> u64 {
        self.total(RecoverySummary::total_repaired)
    }

    /// Injections proven benign (dead-region or self-cancelling flips).
    pub fn benign(&self) -> u64 {
        self.total(|r| r.corrupt_benign.iter().sum())
    }

    /// Corruptions neither detected nor proven benign.
    pub fn escaped(&self) -> u64 {
        self.total(RecoverySummary::escaped)
    }

    /// Detected fraction of the non-benign injections (1.0 when nothing
    /// harmful was injected).
    pub fn detection_rate(&self) -> f64 {
        ratio(self.detected(), self.injected() - self.benign())
    }

    /// Repaired fraction of the detected corruptions (1.0 when nothing
    /// was detected).
    pub fn repair_rate(&self) -> f64 {
        ratio(self.repaired(), self.detected())
    }

    /// True when every cell passed.
    pub fn pass(&self) -> bool {
        self.cells.iter().all(Verdict::pass)
    }

    /// GC-pause overhead of a cell's run versus its workload's control.
    fn pause_overhead(&self, v: &Verdict) -> f64 {
        let base = self.baselines.iter().find(|b| b.workload == v.cell.spec.short);
        let base = base.map_or(0, |b| b.gc_time.0);
        (v.report().gc_time.0 as f64 - base as f64) / (base.max(1) as f64)
    }

    /// Machine-readable view of the whole campaign.
    pub fn to_json(&self) -> Json {
        let baselines = self
            .baselines
            .iter()
            .map(|b| {
                Json::obj(vec![
                    ("workload", Json::str(b.workload)),
                    ("gc_time_ps", Json::U64(b.gc_time.0)),
                    ("minor", Json::U64(count(&b.event_kinds, GcKind::Minor))),
                    ("major", Json::U64(count(&b.event_kinds, GcKind::Major))),
                    ("allocated_bytes", Json::U64(b.allocated_bytes)),
                    ("graph_sig", Json::U64(b.signatures.last().map_or(0, |s| s.0))),
                ])
            })
            .collect();
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let case = c.report();
                let r = case.recovery;
                Json::obj(vec![
                    ("workload", Json::str(c.cell.spec.short)),
                    ("site", Json::str(c.cell.label)),
                    ("rate", Json::F64(c.cell.rate)),
                    ("seed", Json::U64(c.cell.seed)),
                    ("injected", Json::U64(r.total_injected())),
                    ("detected", Json::U64(r.total_detected())),
                    ("repaired", Json::U64(r.total_repaired())),
                    ("benign", Json::U64(r.corrupt_benign.iter().sum())),
                    ("escaped", Json::U64(r.escaped())),
                    ("repair_rungs", Json::Arr(r.repair_rungs.iter().map(|&n| Json::U64(n)).collect())),
                    ("quarantined_extents", Json::U64(r.quarantined_extents)),
                    ("rearmed", Json::U64(r.rearmed.iter().sum())),
                    ("gc_time_ps", Json::U64(case.gc_time.0)),
                    ("pause_overhead", Json::F64(self.pause_overhead(c))),
                    ("graph_ok", Json::Bool(c.case.is_some())),
                    ("pass", Json::Bool(c.pass())),
                    ("failures", Json::Arr(c.failures.iter().map(Json::str).collect())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str("charon-chaos-v1")),
            ("oracle", Json::Bool(self.oracle)),
            ("pass", Json::Bool(self.pass())),
            ("injected", Json::U64(self.injected())),
            ("detected", Json::U64(self.detected())),
            ("repaired", Json::U64(self.repaired())),
            ("benign", Json::U64(self.benign())),
            ("escaped", Json::U64(self.escaped())),
            ("detection_rate", Json::F64(self.detection_rate())),
            ("repair_rate", Json::F64(self.repair_rate())),
            ("baselines", Json::Arr(baselines)),
            ("cells", Json::Arr(cells)),
        ])
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos campaign ({} cells, oracle {}): {} injected, {} detected, {} repaired, {} benign, {} escaped",
            self.cells.len(),
            if self.oracle { "on" } else { "off" },
            self.injected(),
            self.detected(),
            self.repaired(),
            self.benign(),
            self.escaped(),
        )?;
        writeln!(
            f,
            "  detection rate {:.1}%, repair rate {:.1}%",
            self.detection_rate() * 100.0,
            self.repair_rate() * 100.0
        )?;
        for c in &self.cells {
            let r = c.report().recovery;
            writeln!(
                f,
                "  {} {:<8} rate {:<5} inj {:>5} det {:>5} rep {:>5} benign {:>4} escaped {:>4} overhead {:>6.2}% {}",
                c.cell.spec.short,
                c.cell.label,
                c.cell.rate,
                r.total_injected(),
                r.total_detected(),
                r.total_repaired(),
                r.corrupt_benign.iter().sum::<u64>(),
                r.escaped(),
                self.pause_overhead(c) * 100.0,
                if c.pass() { "PASS" } else { "FAIL" },
            )?;
            for msg in &c.failures {
                writeln!(f, "      ! {msg}")?;
            }
        }
        Ok(())
    }
}

/// Runs the full chaos campaign: [`chaos_matrix`] and one zero-rate
/// control per workload, fanned across up to `jobs` OS threads. With
/// [`ChaosOptions::oracle`] set, any escaped corruption fails its cell —
/// the oracle contract is *zero* escapes.
///
/// # Errors
///
/// Returns [`CampaignError`] when a workload's control cannot complete;
/// failures of the injection cells land in their [`Verdict`] instead.
pub fn run_chaos_campaign(
    specs: &[WorkloadSpec],
    opts: &ChaosOptions,
    jobs: usize,
) -> Result<ChaosReport, CampaignError> {
    let (baselines, cells) = run_campaign(&chaos_matrix(specs, opts), &opts.run, jobs, corruption_verdict)?;
    Ok(ChaosReport { oracle: opts.oracle, baselines, cells })
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
        assert!(report.baseline.recovery.is_empty(), "the control must record no recovery events");
        assert_eq!(report.baseline.injected, 0);
        let cases: Vec<(&str, CaseReport)> = report.verdicts.iter().map(|v| (v.cell.label, v.report())).collect();
        for (label, case) in &cases {
            assert!(case.injected > 0, "{label} fired nothing");
            assert!(case.gc_time >= report.baseline.gc_time, "{label}: faults cannot make GC faster");
        }
        // Every faulty run costs retries somewhere.
        assert!(cases.iter().any(|(_, c)| c.recovery.total_retries() > 0));
        // The near-certain unit-failure row must walk the whole ladder:
        // retries, fallbacks, and at least one degraded primitive.
        let (_, degrade) = cases.iter().find(|(label, _)| *label == "unit-degrade").unwrap();
        assert!(degrade.recovery.total_fallbacks() > 0, "no fallbacks under unit-degrade");
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
        let kinds = &case.event_kinds;
        assert_eq!(
            (count(kinds, GcKind::Minor), count(kinds, GcKind::Major)),
            (run.minor.1 as u64, run.major.1 as u64)
        );
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
            assert_eq!(s.cell.label, p.cell.label, "row order must be matrix order");
            let (sc, pc) = (s.report(), p.report());
            assert_eq!((sc.injected, sc.event_kinds, sc.gc_time), (pc.injected, pc.event_kinds, pc.gc_time));
            assert_eq!(s.failures, p.failures);
        }
        assert_eq!(serial.to_json().to_string(), par.to_json().to_string());
    }

    #[test]
    fn fault_matrix_covers_every_site_with_distinct_seeds() {
        let rows = fault_matrix(&by_short("BS").unwrap(), 7);
        for site in FaultSite::ALL {
            assert!(rows.iter().any(|r| r.arm == Arm::Fault(site) && r.rate > 0.0), "site {site} missing");
        }
        let mut seeds: Vec<u64> = rows.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), rows.len(), "matrix seeds must be distinct");
    }

    fn small_opts() -> ChaosOptions {
        ChaosOptions {
            rates: vec![0.05],
            run: RunOptions { supersteps: Some(2), ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn campaign_detects_and_repairs_on_bs() {
        let specs = [by_short("BS").unwrap()];
        let report = run_chaos_campaign(&specs, &small_opts(), 2).unwrap();
        assert!(report.pass(), "chaos campaign failed:\n{report}");
        assert!(report.injected() > 0, "no corruption fired at 5%:\n{report}");
        assert_eq!(report.repaired(), report.detected(), "every detected corruption must be repaired");
        assert!(report.detection_rate() >= 0.95, "detection below 95%:\n{report}");
        for c in &report.cells {
            assert!(c.case.is_some(), "{}/{}: final graph corrupt", c.cell.spec.short, c.cell.label);
        }
    }

    #[test]
    fn oracle_campaign_lets_nothing_escape() {
        let specs = [by_short("BS").unwrap()];
        let opts = ChaosOptions { oracle: true, ..small_opts() };
        let report = run_chaos_campaign(&specs, &opts, 2).unwrap();
        assert!(report.pass(), "oracle campaign failed:\n{report}");
        assert!(report.injected() > 0);
        assert_eq!(report.escaped(), 0, "shadow oracle must catch everything:\n{report}");
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let specs = [by_short("BS").unwrap()];
        let opts = ChaosOptions {
            rates: vec![0.05],
            run: RunOptions { supersteps: Some(1), ..Default::default() },
            ..Default::default()
        };
        let serial = run_chaos_campaign(&specs, &opts, 1).unwrap();
        let par = run_chaos_campaign(&specs, &opts, 4).unwrap();
        assert_eq!(serial.to_json().to_string(), par.to_json().to_string());
    }

    #[test]
    fn matrix_seeds_are_distinct() {
        let specs = [by_short("BS").unwrap(), by_short("KM").unwrap()];
        let opts = ChaosOptions { rates: vec![0.02, 0.1], ..Default::default() };
        let cells = chaos_matrix(&specs, &opts);
        assert_eq!(cells.len(), 2 * CorruptionSite::ALL.len() * 2);
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 2 * CorruptionSite::ALL.len() * 2, "cell seeds must be distinct");
    }
}
