//! The experiment driver: workload × system → measurements.
//!
//! This is the region-of-interest instrumentation of §5.1: the paper
//! evaluates *GC events only*, so every figure-facing number here is
//! derived from the collector's event log, with mutator time kept
//! separately for Fig. 2.
//!
//! There is one run in the workspace and it is staged: [`Run`] orders
//! heap → mutator → collector → resident structure → supersteps → result,
//! and every driver goes through it. [`run_workload`] is the whole
//! sequence in one call; [`crate::campaign`] (both fault tiers) and
//! [`crate::fleet`] step or drive a `Run` themselves because they need
//! the heap or the event log it ends with.

use crate::mutator::Mutator;
use crate::profile::RunProfile;
use crate::spec::WorkloadSpec;
use charon_core::device::CharonStats;
use charon_gc::adapt::{Controller, DecisionJournal, PolicyKind};
use charon_gc::breakdown::Breakdown;
use charon_gc::collector::{Collector, CollectorKind, GcKind, OutOfMemory};
use charon_gc::system::System;
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_sim::energy::EnergyAccount;
use charon_sim::json::Json;
use charon_sim::stats::{CacheStats, MemTrafficStats};
use charon_sim::telemetry::Event;
use charon_sim::time::Ps;
use std::fmt;

/// Options for one run — plain data (`Copy + Send + Sync`), so one value
/// serves the serial drivers and every worker thread of the parallel
/// ones. What configures the *machine* is not here: telemetry and
/// profiler sinks, fault and integrity arming and unit re-arm are set on
/// the [`System`] the caller hands to [`run_workload`]
/// ([`System::set_telemetry`], [`System::set_profiler`],
/// [`System::inject_faults`], [`System::enable_integrity`],
/// [`System::set_rearm`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Heap size as a factor over the workload's minimum (Fig. 2 sweeps
    /// 1.0 / 1.25 / 1.5 / 2.0; `None` uses the spec default).
    pub heap_factor: Option<f64>,
    /// GC threads (the paper's default is one per core; Fig. 15 sweeps).
    pub gc_threads: usize,
    /// Override the superstep count (shorter runs for quick benches).
    pub supersteps: Option<usize>,
    /// Run the per-GC heap-demographics census ([`charon_gc::census`]).
    /// Purely functional — never changes simulated timing.
    pub census: bool,
    /// Attach an adaptive offload controller ([`charon_gc::adapt`]) that
    /// re-decides the [`charon_gc::system::OffloadMask`] at every GC
    /// prologue. `None` (the default) keeps the platform mask fixed; the
    /// census is auto-enabled when a policy needs it.
    pub policy: Option<PolicyKind>,
    /// Seed for stochastic policies ([`PolicyKind::Bandit`]); ignored by
    /// the deterministic ones.
    pub policy_seed: u64,
    /// Tail-pause attribution ([`charon_gc::postmortem`]) in the run
    /// profile: keep the top-K worst pauses per GC kind with full
    /// breakdown/unit/energy context and attribute energy to pause
    /// buckets. A fold over the events at the end of the run, so it
    /// never touches simulated timing.
    pub postmortem: Option<usize>,
    /// Which old-generation collector the Major arm dispatches to
    /// ([`CollectorKind::Ps`], the default, is the paper's
    /// ParallelScavenge and keeps every committed fingerprint
    /// byte-identical; `Ms`/`Cms`/`G1` select the Table 1 alternatives).
    pub collector: CollectorKind,
}

// Drivers hand one `&RunOptions` to every worker thread.
const _: fn() = || {
    fn plain_data<T: Copy + Send + Sync>() {}
    plain_data::<RunOptions>();
};

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            heap_factor: None,
            gc_threads: 8,
            supersteps: None,
            census: false,
            policy: None,
            policy_seed: 0xC4A0,
            postmortem: None,
            collector: CollectorKind::default(),
        }
    }
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Two-letter workload code.
    pub workload: &'static str,
    /// Platform label ("DDR4", "HMC", "Charon", …).
    pub platform: &'static str,
    /// Useful-work (mutator) time.
    pub mutator_time: Ps,
    /// Total stop-the-world GC time (the paper's ROI).
    pub gc_time: Ps,
    /// MinorGC pause total and count.
    pub minor: (Ps, usize),
    /// MajorGC pause total and count.
    pub major: (Ps, usize),
    /// Summed MinorGC breakdown (Fig. 4a).
    pub minor_breakdown: Breakdown,
    /// Summed MajorGC breakdown (Fig. 4b).
    pub major_breakdown: Breakdown,
    /// DRAM bytes moved during GC.
    pub gc_dram_bytes: u64,
    /// Energy spent (GC ROI).
    pub energy: EnergyAccount,
    /// Fabric traffic counters at end of run.
    pub traffic: MemTrafficStats,
    /// Per-cube DRAM bytes (HMC platforms).
    pub per_cube_bytes: Vec<u64>,
    /// Device offload stats (offloading backends only).
    pub device: Option<CharonStats>,
    /// Bitmap-cache stats (offloading backends only).
    pub bitmap_cache: Option<CacheStats>,
    /// Bytes the mutator allocated.
    pub allocated_bytes: u64,
    /// Run profile (pause histograms, latency distributions, census,
    /// unit utilization) — present when the system carried an enabled
    /// profiler ([`System::set_profiler`]), or [`RunOptions::census`] or
    /// [`RunOptions::postmortem`] was set.
    pub profile: Option<RunProfile>,
    /// The adaptive controller's decision journal — present when
    /// [`RunOptions::policy`] was set.
    pub decisions: Option<DecisionJournal>,
}

impl RunResult {
    /// GC overhead relative to useful work (Fig. 2's metric).
    pub fn gc_overhead(&self) -> f64 {
        self.gc_time.0 as f64 / self.mutator_time.0.max(1) as f64
    }

    /// Average DRAM bandwidth during GC pauses, GB/s (Fig. 13's bars).
    pub fn gc_bandwidth_gbps(&self) -> f64 {
        if self.gc_time == Ps::ZERO {
            0.0
        } else {
            self.gc_dram_bytes as f64 / self.gc_time.as_secs() / 1e9
        }
    }

    /// Fraction of near-memory accesses served locally (Fig. 13's line).
    pub fn local_ratio(&self) -> f64 {
        self.traffic.local_ratio()
    }

    /// A compact identity of the run's simulated outcome. Two runs whose
    /// fingerprints match produced the same timing and the same functional
    /// result — the telemetry property tests assert this is invariant
    /// under enabling telemetry.
    pub fn fingerprint(&self) -> (&'static str, &'static str, u64, usize, usize, u64) {
        (self.workload, self.platform, self.gc_time.0, self.minor.1, self.major.1, self.allocated_bytes)
    }

    /// Machine-readable view of everything the run measured.
    pub fn to_json(&self) -> Json {
        let pair = |(t, n): (Ps, usize)| Json::obj(vec![("ps", Json::U64(t.0)), ("count", Json::U64(n as u64))]);
        let mut fields = vec![
            ("workload", Json::str(self.workload)),
            ("platform", Json::str(self.platform)),
            ("mutator_time_ps", Json::U64(self.mutator_time.0)),
            ("gc_time_ps", Json::U64(self.gc_time.0)),
            ("gc_overhead", Json::F64(self.gc_overhead())),
            ("minor", pair(self.minor)),
            ("major", pair(self.major)),
            ("minor_breakdown", self.minor_breakdown.to_json()),
            ("major_breakdown", self.major_breakdown.to_json()),
            ("gc_dram_bytes", Json::U64(self.gc_dram_bytes)),
            ("gc_bandwidth_gbps", Json::F64(self.gc_bandwidth_gbps())),
            ("energy", self.energy.to_json()),
            ("traffic", self.traffic.to_json()),
            ("per_cube_bytes", Json::Arr(self.per_cube_bytes.iter().map(|&b| Json::U64(b)).collect())),
            ("allocated_bytes", Json::U64(self.allocated_bytes)),
        ];
        if let Some(d) = &self.device {
            fields.push(("device", d.to_json()));
        }
        if let Some(c) = &self.bitmap_cache {
            fields.push(("bitmap_cache", c.to_json()));
        }
        if let Some(p) = &self.profile {
            fields.push(("profile", p.to_json()));
        }
        if let Some(j) = &self.decisions {
            fields.push(("decisions", j.to_json()));
        }
        Json::obj(fields)
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: GC {} ({} minor / {} major), mutator {}, overhead {:.1}%",
            self.workload,
            self.platform,
            self.gc_time,
            self.minor.1,
            self.major.1,
            self.mutator_time,
            self.gc_overhead() * 100.0
        )
    }
}

/// One run, stage by stage: heap → mutator → collector → resident
/// structure → supersteps → result. [`Run::new`] is the only code in the
/// workspace that sizes the heap, builds the [`Mutator`] and [`Collector`]
/// and applies every [`RunOptions`] field; [`Run::result`] is the only
/// code that assembles a [`RunResult`]. A driver that has to look at the
/// heap or the collector between stages — the campaigns' graph
/// checkpoints, the fleet's pause stream — steps a `Run` by hand and reads its fields; everything else
/// calls [`run_workload`].
///
/// ```
/// use charon_gc::system::System;
/// use charon_gc::verify::graph_signature;
/// use charon_workloads::{run::Run, RunOptions, spec::by_short};
///
/// # fn main() -> Result<(), charon_gc::collector::OutOfMemory> {
/// let spec = by_short("BS").expect("Table 3 workload");
/// let opts = RunOptions { supersteps: Some(2), ..Default::default() };
/// let mut run = Run::new(&spec, System::charon(), &opts);
/// run.build_resident()?;
/// for _ in 0..run.steps() {
///     run.superstep()?;
///     graph_signature(&run.heap).expect("every reachable reference stays inside the heap");
/// }
/// let r = run.result();
/// assert_eq!(r.minor.1 + r.major.1, run.gc.events.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Run {
    /// The simulated Java heap.
    pub heap: JavaHeap,
    /// The workload driver.
    pub mutator: Mutator,
    /// The collector, which owns the [`System`] (`gc.sys`) and the per-GC
    /// event log (`gc.events`).
    pub gc: Collector,
    opts: RunOptions,
}

impl Run {
    /// Builds the heap, the mutator and the collector of one run of
    /// `spec` on `sys`; nothing is allocated yet.
    pub fn new(spec: &WorkloadSpec, sys: System, opts: &RunOptions) -> Run {
        let heap_bytes = spec.heap_bytes(opts.heap_factor.unwrap_or(spec.default_heap_factor));
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(heap_bytes));
        let mutator = Mutator::new(spec.clone(), &mut heap);
        let mut gc = Collector::new(sys, &heap, opts.gc_threads);
        gc.kind = opts.collector;
        // The controller reads census signals, so attaching one implies
        // the (timing-invisible) census walk.
        gc.census = opts.census || opts.policy.is_some();
        if let Some(kind) = opts.policy {
            gc.adapt = Some(Controller::new(kind.build(gc.sys.offload, opts.policy_seed)));
        }
        Run { heap, mutator, gc, opts: *opts }
    }

    /// Allocates the workload's resident structure.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the heap cannot hold it.
    pub fn build_resident(&mut self) -> Result<(), OutOfMemory> {
        self.mutator.build_resident(&mut self.heap, &mut self.gc)
    }

    /// Runs one superstep of allocation and mutation.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when a collection cannot make room.
    pub fn superstep(&mut self) -> Result<(), OutOfMemory> {
        self.mutator.superstep(&mut self.heap, &mut self.gc)
    }

    /// How many supersteps the run is for: [`RunOptions::supersteps`], or
    /// the spec's own count.
    pub fn steps(&self) -> usize {
        self.opts.supersteps.unwrap_or(self.mutator.spec().supersteps)
    }

    /// The resident structure, then every superstep.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] from the first stage that hits it.
    pub fn drive(&mut self) -> Result<(), OutOfMemory> {
        self.build_resident()?;
        for _ in 0..self.steps() {
            self.superstep()?;
        }
        Ok(())
    }

    /// What the run has measured so far. Call it once, at the end: when
    /// the system carries an enabled telemetry journal, every call appends
    /// the per-link epoch occupancy to it (one [`Event::BwSample`] per
    /// non-empty metering epoch) — read-only, so timing is untouched.
    pub fn result(&self) -> RunResult {
        let gc = &self.gc;
        if gc.sys.telemetry.is_enabled() {
            for (link, fills) in gc.sys.host.fabric.link_epoch_fills() {
                for (at, used) in fills {
                    gc.sys
                        .telemetry
                        .record(|| Event::BwSample { link: link.clone(), epoch_start: at, used });
                }
            }
        }

        let workload = self.mutator.spec().short;
        let platform = gc.sys.label();
        let profile = (gc.sys.profiler.is_enabled() || self.opts.census || self.opts.postmortem.is_some())
            .then(|| RunProfile::collect(workload, platform, gc, gc.sys.profiler.snapshot(), self.opts.postmortem));
        RunResult {
            workload,
            platform,
            mutator_time: self.mutator.mutator_time,
            gc_time: gc.gc_total_time(),
            minor: (gc.gc_time_by_kind(GcKind::Minor), gc.count(GcKind::Minor)),
            major: (gc.gc_time_by_kind(GcKind::Major), gc.count(GcKind::Major)),
            minor_breakdown: gc.breakdown_by_kind(GcKind::Minor),
            major_breakdown: gc.breakdown_by_kind(GcKind::Major),
            gc_dram_bytes: gc.events.iter().map(|e| e.dram_bytes).sum(),
            energy: gc.sys.energy.account().clone(),
            traffic: gc.sys.host.fabric.stats(),
            per_cube_bytes: gc.sys.host.fabric.per_cube_bytes().to_vec(),
            device: gc.sys.device.as_ref().map(|d| d.stats().clone()),
            bitmap_cache: gc.sys.device.as_ref().map(|d| d.bitmap_cache_stats()),
            allocated_bytes: self.mutator.allocated_bytes,
            profile,
            decisions: gc.adapt.as_ref().map(|c| c.journal.clone()),
        }
    }
}

/// Runs one workload on one system: [`Run::new`], [`Run::drive`],
/// [`Run::result`].
///
/// ```
/// use charon_gc::system::System;
/// use charon_workloads::{run_workload, RunOptions, spec::by_short};
///
/// # fn main() -> Result<(), charon_gc::collector::OutOfMemory> {
/// let spec = by_short("KM").expect("Table 3 workload");
/// let opts = RunOptions { supersteps: Some(2), ..Default::default() };
/// let r = run_workload(&spec, System::charon(), &opts)?;
/// println!("{r}");
/// assert!(r.gc_time.0 > 0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`OutOfMemory`] when the chosen heap factor cannot hold the
/// workload (by construction this never happens at factor ≥ 1.0).
pub fn run_workload(spec: &WorkloadSpec, sys: System, opts: &RunOptions) -> Result<RunResult, OutOfMemory> {
    let mut run = Run::new(spec, sys, opts);
    run.drive()?;
    Ok(run.result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_short;

    fn quick(short: &str, sys: System) -> RunResult {
        let spec = by_short(short).unwrap();
        run_workload(&spec, sys, &RunOptions { supersteps: Some(4), ..Default::default() }).unwrap()
    }

    #[test]
    fn bs_runs_and_collects_on_every_platform() {
        for sys in [System::ddr4(), System::hmc(), System::charon(), System::ideal()] {
            let r = quick("BS", sys);
            assert!(r.minor.1 + r.major.1 > 0, "no GC on {}", r.platform);
            assert!(r.gc_time > Ps::ZERO);
            assert!(r.mutator_time > Ps::ZERO);
            assert!(r.gc_dram_bytes > 0 || r.platform == "Ideal");
        }
    }

    #[test]
    fn charon_beats_ddr4_on_copy_heavy_als() {
        // Full-length run: the first collections are resident-building
        // noise; the steady state is where ALS's huge copies dominate.
        let spec = by_short("ALS").unwrap();
        let d = run_workload(&spec, System::ddr4(), &RunOptions::default()).unwrap();
        let c = run_workload(&spec, System::charon(), &RunOptions::default()).unwrap();
        assert!(
            c.gc_time.0 * 2 < d.gc_time.0,
            "ALS should be a Charon best case: DDR4 {} vs Charon {}",
            d.gc_time,
            c.gc_time
        );
        assert!(c.device.is_some());
        assert!(c.local_ratio() > 0.3, "near-memory accesses mostly local");
    }

    #[test]
    fn charon_runs_report_settled_structure_energy() {
        let r = quick("KM", System::charon());
        let j = r.to_json();
        let e = j
            .get("device")
            .and_then(|d| d.get("energy_pj"))
            .expect("Charon runs report device energy");
        let pj = |key: &str| e.get(key).and_then(Json::as_f64).expect("energy part present");
        assert!(pj("tlb") > 0.0, "TLB lookups were settled: {e}");
        assert!(pj("queues") > 0.0, "queue traffic was settled: {e}");
        assert_eq!(pj("total"), pj("units") + pj("queues") + pj("tlb") + pj("bitmap_cache"));
        let general = r.device.expect("device stats").energy.general_fraction();
        assert!(general > 0.0 && general < 0.05, "§5.3: general components are a few percent, got {general}");
    }

    /// DRAM energy reads the platform's pJ/bit from `sys.cfg` (Table 2):
    /// doubling it doubles `energy.dram_j` and moves nothing else.
    #[test]
    fn the_config_drives_dram_energy() {
        use charon_sim::config::MemPlatform;
        use charon_sim::energy::EnergyAccount;
        let spec = by_short("BS").unwrap();
        let opts = RunOptions { supersteps: Some(2), ..Default::default() };
        for make in [System::hmc, System::ddr4] {
            let base = run_workload(&spec, make(), &opts).unwrap();
            let mut sys = make();
            match sys.cfg.platform {
                MemPlatform::Ddr4 => sys.cfg.ddr4.pj_per_bit *= 2.0,
                MemPlatform::Hmc => sys.cfg.hmc.pj_per_bit *= 2.0,
            }
            let doubled = run_workload(&spec, sys, &opts).unwrap();
            assert_eq!(doubled.fingerprint(), base.fingerprint());
            let (want, got) = (2.0 * base.energy.dram_j, doubled.energy.dram_j);
            assert!(
                want > 0.0 && ((got - want) / want).abs() <= 1e-12,
                "{}: dram {got} J, want {want} J",
                base.platform
            );
            let rest = |e: &EnergyAccount| EnergyAccount { dram_j: 0.0, ..e.clone() };
            assert_eq!(rest(&doubled.energy), rest(&base.energy), "{}", base.platform);
        }
    }

    #[test]
    fn sinks_on_the_system_survive_the_run() {
        let telemetry = charon_sim::telemetry::Telemetry::enabled();
        let mut sys = System::charon();
        sys.set_telemetry(telemetry.clone());
        sys.set_profiler(charon_sim::profile::Profiler::enabled());
        let r = quick("BS", sys);
        let events = telemetry.events();
        assert!(events.iter().any(|e| matches!(e, Event::Prim { .. })), "the caller's journal saw no primitive");
        assert!(events.iter().any(|e| matches!(e, Event::BwSample { .. })), "link fills were not drained into it");
        assert!(r.profile.is_some(), "an enabled profiler on the system yields a profile");
    }

    #[test]
    fn hand_driven_run_equals_run_workload() {
        use charon_sim::profile::Profiler;
        use charon_sim::telemetry::Telemetry;
        let spec = by_short("BS").unwrap();
        let opts = RunOptions { supersteps: Some(4), ..Default::default() };
        for make in [System::ddr4, System::charon] {
            let instrumented = || {
                let (mut sys, journal) = (make(), Telemetry::enabled());
                sys.set_telemetry(journal.clone());
                sys.set_profiler(Profiler::enabled());
                (sys, journal)
            };
            let (sys, by_hand_journal) = instrumented();
            let mut run = Run::new(&spec, sys, &opts);
            run.build_resident().unwrap();
            for _ in 0..run.steps() {
                run.superstep().unwrap();
            }
            let by_hand = run.result();
            let (sys, one_call_journal) = instrumented();
            let one_call = run_workload(&spec, sys, &opts).unwrap();
            assert_eq!(by_hand.to_json().to_string(), one_call.to_json().to_string(), "{}", one_call.platform);
            assert_eq!(by_hand_journal.events().len(), one_call_journal.events().len(), "{}", one_call.platform);
            charon_gc::verify::graph_signature(&run.heap).expect("the end-of-run heap is traversable");
        }
    }

    #[test]
    fn results_are_deterministic() {
        let a = quick("KM", System::ddr4());
        let b = quick("KM", System::ddr4());
        assert_eq!(a.gc_time, b.gc_time);
        assert_eq!(a.allocated_bytes, b.allocated_bytes);
        assert_eq!(a.minor.1, b.minor.1);
    }
}
