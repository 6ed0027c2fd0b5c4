//! Chaos campaign: seeded silent-corruption sweeps over the integrity
//! subsystem (`charon-gc::integrity`).
//!
//! Where [`crate::campaign`] proves the *timing-layer* fault ladder
//! (retries, fallbacks, degradation) never changes what the collector
//! does, this campaign attacks the *data* layer: seeded bit flips in the
//! offload primitives' outputs (mark-bitmap words, forwarding pointers,
//! card bytes, copied payloads), swept over sites × rates × workloads.
//! Each cell reports what the detection layer caught, what the repair
//! ladder fixed, and what escaped; the campaign aggregates detection and
//! repair rates and checks the contract:
//!
//! * every run completes and its final reachable graph is traversable
//!   ([`charon_gc::verify::graph_signature`] returns `Ok`),
//! * every *detected* corruption is repaired,
//! * with the shadow oracle on, **nothing** escapes,
//! * the zero-rate control cell is bit-identical to an unarmed run
//!   (pinned by `tests/chaos_integrity.rs` against the committed
//!   fingerprint baselines).

use crate::parmatrix::parallel_map_result;
use crate::run::{Run, RunOptions};
use crate::spec::WorkloadSpec;
use charon_gc::breakdown::RecoverySummary;
use charon_gc::integrity::IntegrityConfig;
use charon_gc::system::System;
use charon_gc::verify::graph_signature;
use charon_sim::faults::{CorruptionRates, CorruptionSite};
use charon_sim::json::Json;
use std::fmt;

/// Options shared by every cell of a chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Base seed; every cell derives a distinct injector seed from it.
    pub seed: u64,
    /// Corruption rates to sweep (per primitive invocation). Zero-rate
    /// control cells are always run in addition, one per workload.
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

/// One cell of the chaos matrix: workload × site × rate.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// The workload to run.
    pub spec: WorkloadSpec,
    /// The site under fire.
    pub site: CorruptionSite,
    /// The per-invocation corruption rate.
    pub rate: f64,
    /// Derived injector seed (distinct per cell).
    pub seed: u64,
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
pub fn chaos_matrix(specs: &[WorkloadSpec], opts: &ChaosOptions) -> Vec<ChaosCell> {
    let mut cells = Vec::new();
    for (wi, spec) in specs.iter().enumerate() {
        for (si, &site) in opts.sites.iter().enumerate() {
            for (ri, &rate) in opts.rates.iter().enumerate() {
                if rate > 0.0 {
                    cells.push(ChaosCell {
                        spec: spec.clone(),
                        site,
                        rate,
                        seed: mix_seed(opts.seed, wi as u64, si as u64, ri as u64),
                    });
                }
            }
        }
    }
    cells
}

/// The zero-rate control run of one workload: corruption injection
/// compiled in and armed, rates all zero, detectors on. Its simulated
/// outcome must be bit-identical to an unarmed run — the campaign's
/// pause-overhead denominators come from here.
#[derive(Debug, Clone)]
pub struct ChaosBaseline {
    /// Two-letter workload code.
    pub workload: &'static str,
    /// Total stop-the-world time.
    pub gc_time_ps: u64,
    /// Minor / major collection counts.
    pub collections: (usize, usize),
    /// Bytes the mutator allocated.
    pub allocated_bytes: u64,
    /// Final reachable-graph signature.
    pub graph_sig: u64,
}

/// The checked outcome of one chaos cell.
#[derive(Debug, Clone)]
pub struct ChaosCellReport {
    /// Two-letter workload code.
    pub workload: &'static str,
    /// Site name ("bitmap", "forward", "card", "payload").
    pub site: &'static str,
    /// The swept rate.
    pub rate: f64,
    /// The cell's injector seed.
    pub seed: u64,
    /// Corruption/repair accounting summed over every collection.
    pub recovery: RecoverySummary,
    /// Minor / major collection counts.
    pub collections: (usize, usize),
    /// Total stop-the-world time.
    pub gc_time_ps: u64,
    /// GC-pause overhead versus the workload's zero-rate control.
    pub pause_overhead: f64,
    /// Whether the final reachable graph was traversable.
    pub graph_ok: bool,
    /// All checks passed.
    pub pass: bool,
    /// What failed, when `pass` is false.
    pub failures: Vec<String>,
}

/// A full chaos campaign: per-workload zero-rate controls plus every
/// injection cell.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Whether the shadow oracle was armed.
    pub oracle: bool,
    /// One control per workload, in workload order.
    pub baselines: Vec<ChaosBaseline>,
    /// One report per matrix cell, in matrix order.
    pub cells: Vec<ChaosCellReport>,
}

impl ChaosReport {
    /// Corruptions injected across the campaign.
    pub fn injected(&self) -> u64 {
        self.cells.iter().map(|c| c.recovery.total_injected()).sum()
    }

    /// Corruptions detected across the campaign.
    pub fn detected(&self) -> u64 {
        self.cells.iter().map(|c| c.recovery.total_detected()).sum()
    }

    /// Corruptions repaired across the campaign.
    pub fn repaired(&self) -> u64 {
        self.cells.iter().map(|c| c.recovery.total_repaired()).sum()
    }

    /// Injections proven benign (dead-region or self-cancelling flips).
    pub fn benign(&self) -> u64 {
        self.cells.iter().map(|c| c.recovery.corrupt_benign.iter().sum::<u64>()).sum()
    }

    /// Corruptions neither detected nor proven benign.
    pub fn escaped(&self) -> u64 {
        self.cells.iter().map(|c| c.recovery.escaped()).sum()
    }

    /// Detected fraction of the non-benign injections (1.0 when nothing
    /// harmful was injected).
    pub fn detection_rate(&self) -> f64 {
        let harmful = self.injected() - self.benign();
        if harmful == 0 {
            1.0
        } else {
            self.detected() as f64 / harmful as f64
        }
    }

    /// Repaired fraction of the detected corruptions (1.0 when nothing
    /// was detected).
    pub fn repair_rate(&self) -> f64 {
        let d = self.detected();
        if d == 0 {
            1.0
        } else {
            self.repaired() as f64 / d as f64
        }
    }

    /// True when every cell passed.
    pub fn pass(&self) -> bool {
        self.cells.iter().all(|c| c.pass)
    }

    /// Machine-readable view of the whole campaign.
    pub fn to_json(&self) -> Json {
        let baselines = self
            .baselines
            .iter()
            .map(|b| {
                Json::obj(vec![
                    ("workload", Json::str(b.workload)),
                    ("gc_time_ps", Json::U64(b.gc_time_ps)),
                    ("minor", Json::U64(b.collections.0 as u64)),
                    ("major", Json::U64(b.collections.1 as u64)),
                    ("allocated_bytes", Json::U64(b.allocated_bytes)),
                    ("graph_sig", Json::U64(b.graph_sig)),
                ])
            })
            .collect();
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("workload", Json::str(c.workload)),
                    ("site", Json::str(c.site)),
                    ("rate", Json::F64(c.rate)),
                    ("seed", Json::U64(c.seed)),
                    ("injected", Json::U64(c.recovery.total_injected())),
                    ("detected", Json::U64(c.recovery.total_detected())),
                    ("repaired", Json::U64(c.recovery.total_repaired())),
                    ("benign", Json::U64(c.recovery.corrupt_benign.iter().sum())),
                    ("escaped", Json::U64(c.recovery.escaped())),
                    ("repair_rungs", Json::Arr(c.recovery.repair_rungs.iter().map(|&r| Json::U64(r)).collect())),
                    ("quarantined_extents", Json::U64(c.recovery.quarantined_extents)),
                    ("rearmed", Json::U64(c.recovery.rearmed.iter().sum())),
                    ("gc_time_ps", Json::U64(c.gc_time_ps)),
                    ("pause_overhead", Json::F64(c.pause_overhead)),
                    ("graph_ok", Json::Bool(c.graph_ok)),
                    ("pass", Json::Bool(c.pass)),
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
            writeln!(
                f,
                "  {} {:<8} rate {:<5} inj {:>5} det {:>5} rep {:>5} benign {:>4} escaped {:>4} overhead {:>6.2}% {}",
                c.workload,
                c.site,
                c.rate,
                c.recovery.total_injected(),
                c.recovery.total_detected(),
                c.recovery.total_repaired(),
                c.recovery.corrupt_benign.iter().sum::<u64>(),
                c.recovery.escaped(),
                c.pause_overhead * 100.0,
                if c.pass { "PASS" } else { "FAIL" },
            )?;
            for msg in &c.failures {
                writeln!(f, "      ! {msg}")?;
            }
        }
        Ok(())
    }
}

/// What one run (control or injection cell) measured.
struct CellOutcome {
    recovery: RecoverySummary,
    collections: (usize, usize),
    gc_time_ps: u64,
    allocated_bytes: u64,
    graph: Result<u64, String>,
}

/// One integrity-armed run on the Charon platform.
fn run_cell(
    spec: &WorkloadSpec,
    rates: CorruptionRates,
    seed: u64,
    opts: &ChaosOptions,
) -> Result<CellOutcome, String> {
    let mut sys = System::charon();
    sys.enable_integrity(seed, rates, IntegrityConfig { shadow_oracle: opts.oracle, ..Default::default() });
    if let Some(n) = opts.rearm {
        sys.set_rearm(n);
    }
    let mut run = Run::new(spec, sys, &opts.run);
    run.drive().map_err(|e| e.to_string())?;
    let r = run.result();
    Ok(CellOutcome {
        recovery: r.minor_breakdown.recovery() + r.major_breakdown.recovery(),
        collections: (r.minor.1, r.major.1),
        gc_time_ps: r.gc_time.0,
        allocated_bytes: r.allocated_bytes,
        graph: graph_signature(&run.heap).map(|(sig, _)| sig).map_err(|e| e.to_string()),
    })
}

fn check_cell(cell: &ChaosCell, base: Option<&ChaosBaseline>, outcome: Result<CellOutcome, String>) -> ChaosCellReport {
    let site = cell.site.name();
    let (recovery, collections, gc_time_ps, graph_ok, mut failures) = match outcome {
        Ok(o) => {
            let mut failures = Vec::new();
            if let Err(e) = &o.graph {
                failures.push(format!("final heap graph corrupt: {e}"));
            }
            (o.recovery, o.collections, o.gc_time_ps, o.graph.is_ok(), failures)
        }
        Err(e) => (RecoverySummary::default(), (0, 0), 0, false, vec![format!("run did not complete: {e}")]),
    };
    if recovery.total_repaired() < recovery.total_detected() {
        failures.push(format!(
            "repair ladder lost corruptions: {} detected but only {} repaired",
            recovery.total_detected(),
            recovery.total_repaired()
        ));
    }
    let pause_overhead = base.map_or(0.0, |b| (gc_time_ps as f64 - b.gc_time_ps as f64) / (b.gc_time_ps.max(1) as f64));
    ChaosCellReport {
        workload: cell.spec.short,
        site,
        rate: cell.rate,
        seed: cell.seed,
        recovery,
        collections,
        gc_time_ps,
        pause_overhead,
        graph_ok,
        pass: failures.is_empty(),
        failures,
    }
}

/// Runs the full chaos campaign: one zero-rate control per workload, then
/// every matrix cell, fanned across up to `jobs` OS threads
/// ([`crate::parmatrix::parallel_map_result`] — a panicking cell becomes
/// that cell's failure, not the campaign's). Results come back in matrix
/// order at any job count.
///
/// With [`ChaosOptions::oracle`] set, any escaped corruption fails its
/// cell — the oracle contract is *zero* escapes.
pub fn run_chaos_campaign(specs: &[WorkloadSpec], opts: &ChaosOptions, jobs: usize) -> ChaosReport {
    // Controls first: the cells' pause-overhead denominators.
    let baselines: Vec<ChaosBaseline> =
        parallel_map_result(specs, jobs, |spec| run_cell(spec, CorruptionRates::zero(), opts.seed, opts))
            .into_iter()
            .zip(specs)
            .map(|(r, spec)| match r.unwrap_or_else(|p| Err(format!("panic: {p}"))) {
                Ok(o) => ChaosBaseline {
                    workload: spec.short,
                    gc_time_ps: o.gc_time_ps,
                    collections: o.collections,
                    allocated_bytes: o.allocated_bytes,
                    graph_sig: o.graph.unwrap_or(0),
                },
                Err(e) => panic!("zero-rate control for {} failed: {e}", spec.short),
            })
            .collect();

    let cells = chaos_matrix(specs, opts);
    let outcomes = parallel_map_result(&cells, jobs, |cell| {
        run_cell(&cell.spec, CorruptionRates::only(cell.site, cell.rate), cell.seed, opts)
    });
    let reports = cells
        .iter()
        .zip(outcomes)
        .map(|(cell, outcome)| {
            let base = baselines.iter().find(|b| b.workload == cell.spec.short);
            // Flatten the panic-catch layer into the cell's own error.
            let flat = match outcome {
                Ok(inner) => inner,
                Err(p) => Err(format!("panic: {p}")),
            };
            let mut rep = check_cell(cell, base, flat);
            if opts.oracle && rep.recovery.escaped() > 0 {
                rep.failures
                    .push(format!("{} corruptions escaped the shadow oracle", rep.recovery.escaped()));
                rep.pass = false;
            }
            rep
        })
        .collect();
    ChaosReport { oracle: opts.oracle, baselines, cells: reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_short;

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
        let report = run_chaos_campaign(&specs, &small_opts(), 2);
        assert!(report.pass(), "chaos campaign failed:\n{report}");
        assert!(report.injected() > 0, "no corruption fired at 5%:\n{report}");
        assert_eq!(report.repaired(), report.detected(), "every detected corruption must be repaired");
        assert!(report.detection_rate() >= 0.95, "detection below 95%:\n{report}");
        for c in &report.cells {
            assert!(c.graph_ok, "{}/{}: final graph corrupt", c.workload, c.site);
        }
    }

    #[test]
    fn oracle_campaign_lets_nothing_escape() {
        let specs = [by_short("BS").unwrap()];
        let opts = ChaosOptions { oracle: true, ..small_opts() };
        let report = run_chaos_campaign(&specs, &opts, 2);
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
        let serial = run_chaos_campaign(&specs, &opts, 1);
        let par = run_chaos_campaign(&specs, &opts, 4);
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
