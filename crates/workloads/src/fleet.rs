//! Multi-tenant fleet simulation — N independent tenant heaps sharing
//! one Charon device, with a cross-tenant offload scheduler.
//!
//! The paper evaluates one JVM per machine; real deployments co-locate
//! many. This module answers the co-location question the same way the
//! rest of the repo answers single-tenant questions: deterministically,
//! with no OS threads in the model. A fleet run has two phases:
//!
//! 1. **Solo phase** — each *distinct* workload in the tenant mix runs
//!    alone on its platform (a [`crate::run::Run`] driven to the end),
//!    and the collector's event log is moved out of it: the tenant's GC
//!    event stream (inter-GC gap + pause service time per event).
//!    Distinct workloads run in parallel worker threads
//!    ([`crate::parmatrix::parallel_map_labeled`], honoring `--jobs`);
//!    tenants sharing a workload share one solo run, because solo runs
//!    are bit-for-bit reproducible.
//! 2. **Schedule phase** — a serial discrete-event loop replays every
//!    tenant's GC requests against the shared device, arbitrated by a
//!    [`SchedKind`]. A tenant's time moves only at its own GC
//!    completions, and the last completion is the fleet makespan.
//!
//! Because phase 1 is reproducible at any `--jobs` and phase 2 is
//! serial integer arithmetic, the whole fleet report is bit-for-bit
//! replayable, which is what lets CI diff two runs with `cmp`.
//!
//! The interference metric is per-tenant *pause inflation*:
//! `scheduled_pause / solo_pause` in basis points (10000 = no
//! interference). A single-tenant fleet always reports 10000 — the
//! scheduler is work-conserving and an uncontended request starts
//! immediately.

use crate::parmatrix::{parallel_map_labeled, system_by_label, PLATFORM_LABELS};
use crate::run::{Run, RunOptions};
use crate::spec::{by_short, table3, WorkloadSpec};
use charon_sim::hist::Histogram;
use charon_sim::json::Json;
use charon_sim::time::Ps;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt;
use std::str::FromStr;

/// Deadline slack for [`SchedKind::PauseDeadline`]: a request for `service`
/// time arriving at `t` must finish by `t + SLACK × service`.
const DEADLINE_SLACK: u64 = 2;

// ---------------------------------------------------------------------------
// Scheduler policies
// ---------------------------------------------------------------------------

/// A tenant's outstanding offload-window request, as the scheduler sees
/// it at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobView {
    /// Tenant index (stable across the run).
    pub tenant: usize,
    /// When the request arrived (its GC pause began).
    pub arrival: Ps,
    /// Completion deadline (`arrival + slack × service`).
    pub deadline: Ps,
    /// Device time still owed.
    pub remaining: Ps,
}

/// What the scheduler grants until the next decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// The indexed job (into the `active` slice) gets the whole device.
    Serve(usize),
    /// Every active job shares the device equally (processor sharing).
    ShareAll,
}

/// The cross-tenant offload schedulers (`--sched` on the CLI). All three
/// are stateless: a decision is a function of the active requests alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// First-come-first-served, non-preemptive. The in-service job always
    /// has the earliest arrival, so re-deciding at every event never
    /// switches away from it.
    Fifo,
    /// Processor sharing: every active request progresses at `1/k` device
    /// speed. No tenant can starve another, at the cost of stretching
    /// everyone's pause under contention.
    FairShare,
    /// Earliest-deadline-first, preemptive: the job whose pause deadline
    /// is tightest runs; a newly arrived short request preempts a long one.
    PauseDeadline,
}

impl SchedKind {
    /// Every kind, in CLI listing order.
    pub const ALL: [SchedKind; 3] = [SchedKind::Fifo, SchedKind::FairShare, SchedKind::PauseDeadline];

    /// Stable name, matching what [`FromStr`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Fifo => "fifo",
            SchedKind::FairShare => "fair",
            SchedKind::PauseDeadline => "deadline",
        }
    }

    /// Picks an allocation for the currently active jobs. Called at
    /// every decision point (arrival or completion); `active` is never
    /// empty and its order is deterministic (ascending tenant).
    pub fn decide(self, _now: Ps, active: &[JobView]) -> Allocation {
        match self {
            SchedKind::Fifo => serve_least(active, |j| (j.arrival, j.tenant)),
            SchedKind::FairShare => Allocation::ShareAll,
            SchedKind::PauseDeadline => serve_least(active, |j| (j.deadline, j.arrival, j.tenant)),
        }
    }
}

/// The whole device to the active job with the least `key`.
fn serve_least<K: Ord>(active: &[JobView], key: impl Fn(&JobView) -> K) -> Allocation {
    let (i, _) = active
        .iter()
        .enumerate()
        .min_by_key(|(_, j)| key(j))
        .expect("decide called with active jobs");
    Allocation::Serve(i)
}

impl fmt::Display for SchedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchedKind {
    type Err = String;

    fn from_str(s: &str) -> Result<SchedKind, String> {
        match s {
            "fifo" => Ok(SchedKind::Fifo),
            "fair" | "fairshare" => Ok(SchedKind::FairShare),
            "deadline" => Ok(SchedKind::PauseDeadline),
            other => Err(format!("unknown scheduler '{other}' (expected fifo, fair, or deadline)")),
        }
    }
}

// ---------------------------------------------------------------------------
// Tenant planning
// ---------------------------------------------------------------------------

/// The most tenants one fleet holds: the `--tenants` range and the
/// longest pattern a `--mix` may expand to.
pub const MAX_TENANTS: usize = 256;

/// Why a `--mix` string was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixError {
    /// An entry whose weight is not a number.
    BadWeight(String),
    /// An entry whose weight is zero.
    ZeroWeight(String),
    /// A workload code that is not in Table 3.
    UnknownWorkload(String),
    /// No entries at all.
    Empty,
    /// The weights expand to more than [`MAX_TENANTS`] slots (at least
    /// this many).
    TooManySlots(usize),
}

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixError::BadWeight(entry) => write!(f, "bad weight in mix entry '{entry}'"),
            MixError::ZeroWeight(entry) => write!(f, "zero weight in mix entry '{entry}'"),
            MixError::UnknownWorkload(short) => write!(f, "unknown workload '{short}' in mix"),
            MixError::Empty => f.write_str("empty mix"),
            MixError::TooManySlots(n) => write!(f, "mix expands to {n} tenant slots, more than {MAX_TENANTS}"),
        }
    }
}

impl std::error::Error for MixError {}

/// Expands a `--mix` string (`"BS:4,PR:2,ALS:1"`) into a weighted
/// workload pattern: each entry contributes `weight` consecutive slots
/// (`"BS"` alone means weight 1).
///
/// # Errors
///
/// Unknown workload codes, zero weights, malformed entries, and weights
/// that expand past [`MAX_TENANTS`] slots (checked before any slot is
/// allocated).
pub fn parse_mix(mix: &str) -> Result<Vec<WorkloadSpec>, MixError> {
    let mut pattern = Vec::new();
    for entry in mix.split(',') {
        let entry = entry.trim();
        let (short, weight) = match entry.split_once(':') {
            Some((s, w)) => (s, w.parse::<usize>().map_err(|_| MixError::BadWeight(entry.to_string()))?),
            None => (entry, 1),
        };
        if weight == 0 {
            return Err(MixError::ZeroWeight(entry.to_string()));
        }
        let spec = by_short(short).ok_or_else(|| MixError::UnknownWorkload(short.to_string()))?;
        if weight > MAX_TENANTS - pattern.len() {
            return Err(MixError::TooManySlots(pattern.len().saturating_add(weight)));
        }
        pattern.extend(std::iter::repeat_with(|| spec.clone()).take(weight));
    }
    if pattern.is_empty() {
        return Err(MixError::Empty);
    }
    Ok(pattern)
}

/// Resolves the tenant list: `mix` (default: the Table 3 workloads in
/// order) is cycled to fill `tenants` slots; `tenants == 0` means "one
/// tenant per pattern slot".
///
/// # Errors
///
/// Propagates [`parse_mix`] errors.
pub fn plan_tenants(tenants: usize, mix: Option<&str>) -> Result<Vec<WorkloadSpec>, MixError> {
    let pattern = match mix {
        Some(m) => parse_mix(m)?,
        None => table3(),
    };
    let n = if tenants == 0 { pattern.len() } else { tenants };
    Ok((0..n).map(|i| pattern[i % pattern.len()].clone()).collect())
}

// ---------------------------------------------------------------------------
// Fleet run
// ---------------------------------------------------------------------------

/// Configuration for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Platform label (one of [`PLATFORM_LABELS`]).
    pub platform: String,
    /// Tenant count; 0 derives it from the mix pattern length.
    pub tenants: usize,
    /// Workload mix string (`"BS:4,PR:2"`); `None` cycles Table 3.
    pub mix: Option<String>,
    /// Cross-tenant scheduler.
    pub sched: SchedKind,
    /// Seed for the deterministic tenant stagger offsets.
    pub seed: u64,
    /// Worker threads for the solo phase (the schedule phase is serial).
    pub jobs: usize,
    /// Per-tenant run options.
    pub run: RunOptions,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            platform: "Charon".to_string(),
            tenants: 0,
            mix: None,
            sched: SchedKind::Fifo,
            seed: 7,
            jobs: 1,
            run: RunOptions::default(),
        }
    }
}

/// One tenant's interference summary.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant index.
    pub tenant: usize,
    /// Two-letter workload code.
    pub workload: &'static str,
    /// Display label, `"t0:BS"`.
    pub label: String,
    /// GC events (scheduled requests).
    pub events: usize,
    /// Total pause time running alone.
    pub solo_pause: Ps,
    /// Total pause time under the fleet scheduler (service + queueing).
    pub sched_pause: Ps,
}

impl TenantReport {
    /// Pause inflation in basis points: `10000` = no interference,
    /// `15000` = pauses stretched 1.5×. An event-free tenant reports
    /// `10000`.
    pub fn inflation_bp(&self) -> u64 {
        if self.solo_pause.0 == 0 {
            10_000
        } else {
            (self.sched_pause.0 as u128 * 10_000 / self.solo_pause.0 as u128) as u64
        }
    }
}

/// The full fleet report: per-tenant interference plus the fleet-wide
/// scheduled-pause distribution.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Platform label.
    pub platform: &'static str,
    /// Scheduler used.
    pub sched: SchedKind,
    /// Stagger seed.
    pub seed: u64,
    /// Per-tenant summaries, ascending tenant index.
    pub tenants: Vec<TenantReport>,
    /// Every scheduled pause across the fleet.
    pub pauses: Histogram,
    /// Time the last tenant's last GC completed.
    pub makespan: Ps,
}

impl FleetReport {
    /// Fleet-wide p99 scheduled pause in picoseconds.
    pub fn p99_ps(&self) -> u64 {
        self.pauses.p99()
    }

    /// Total GC events scheduled across all tenants.
    pub fn events(&self) -> usize {
        self.tenants.iter().map(|t| t.events).sum()
    }

    /// Worst per-tenant pause inflation in basis points.
    pub fn max_inflation_bp(&self) -> u64 {
        self.tenants.iter().map(TenantReport::inflation_bp).max().unwrap_or(10_000)
    }

    /// Machine-readable view (schema `charon-fleet-v1`); round-trips
    /// through [`Json::parse`] and contains no wall-clock values, so it
    /// is byte-identical at any `--jobs`.
    pub fn to_json(&self) -> Json {
        let detail = self
            .tenants
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("tenant", Json::U64(t.tenant as u64)),
                    ("label", Json::str(t.label.clone())),
                    ("workload", Json::str(t.workload)),
                    ("events", Json::U64(t.events as u64)),
                    ("solo_pause_ps", Json::U64(t.solo_pause.0)),
                    ("sched_pause_ps", Json::U64(t.sched_pause.0)),
                    ("inflation_bp", Json::U64(t.inflation_bp())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str("charon-fleet-v1")),
            ("platform", Json::str(self.platform)),
            ("sched", Json::str(self.sched.name())),
            ("seed", Json::U64(self.seed)),
            ("tenants", Json::U64(self.tenants.len() as u64)),
            (
                "fleet",
                Json::obj(vec![
                    ("events", Json::U64(self.events() as u64)),
                    ("p99_ps", Json::U64(self.p99_ps())),
                    ("max_inflation_bp", Json::U64(self.max_inflation_bp())),
                    ("makespan_ps", Json::U64(self.makespan.0)),
                    ("pauses", self.pauses.to_json()),
                ]),
            ),
            ("tenant_detail", Json::Arr(detail)),
        ])
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} tenants on {} — sched {}, {} GC events, makespan {}",
            self.tenants.len(),
            self.platform,
            self.sched,
            self.events(),
            self.makespan
        )?;
        writeln!(
            f,
            "  pause p99 {}, worst inflation {:.2}x",
            Ps(self.p99_ps()),
            self.max_inflation_bp() as f64 / 10_000.0
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "  {:<8} {:>3} events, solo {} -> sched {} ({:.2}x)",
                t.label,
                t.events,
                t.solo_pause,
                t.sched_pause,
                t.inflation_bp() as f64 / 10_000.0
            )?;
        }
        Ok(())
    }
}

/// One tenant's GC request stream, extracted from its solo run: each
/// job is `(gap, service)` — simulated time between the previous GC's
/// completion and this pause starting, and the pause's solo length.
#[derive(Debug, Clone)]
struct TenantStream {
    jobs: Vec<(Ps, Ps)>,
    /// First-arrival stagger offset.
    offset: Ps,
}

/// What the schedule phase produced.
#[derive(Debug, Clone)]
struct SimOut {
    /// Per-tenant total scheduled pause.
    sched_pause: Vec<Ps>,
    /// Every scheduled pause.
    pauses: Histogram,
    /// Last completion across the fleet.
    makespan: Ps,
}

/// The serial discrete-event schedule phase. Each tenant replays its
/// job stream: job `j+1` arrives `gap` after job `j` completes (the
/// mutator between GCs is unaffected by other tenants — only the
/// shared device is contended). At every arrival or completion the
/// policy re-decides; the last completion is the makespan.
fn simulate(streams: &[TenantStream], sched: SchedKind) -> SimOut {
    let n = streams.len();
    let mut makespan = Ps::ZERO;
    let mut sched_pause = vec![Ps::ZERO; n];
    let mut pauses = Histogram::new();
    // Per-tenant cursor into its job stream and the pending arrival of
    // the next job, if it has been released (a job is released when its
    // predecessor completes; at most one job per tenant is ever
    // released or in flight).
    let mut next_job = vec![0usize; n];
    let mut pending: Vec<Option<Ps>> = streams.iter().map(|s| s.jobs.first().map(|&(gap, _)| s.offset + gap)).collect();
    let mut active: Vec<JobView> = Vec::new();
    let mut now = Ps::ZERO;

    // Admits every released job whose arrival is at or before `now`,
    // ascending tenant index (deterministic).
    let admit = |now: Ps, pending: &mut Vec<Option<Ps>>, next_job: &mut Vec<usize>, active: &mut Vec<JobView>| {
        for t in 0..n {
            if let Some(arrival) = pending[t] {
                if arrival <= now {
                    let (_, service) = streams[t].jobs[next_job[t]];
                    pending[t] = None;
                    active.push(JobView {
                        tenant: t,
                        arrival,
                        deadline: arrival + Ps(service.0.saturating_mul(DEADLINE_SLACK)),
                        remaining: service,
                    });
                    active.sort_by_key(|j| j.tenant);
                }
            }
        }
    };

    loop {
        admit(now, &mut pending, &mut next_job, &mut active);
        let next_arrival = pending.iter().flatten().copied().min();
        if active.is_empty() {
            match next_arrival {
                Some(a) => {
                    now = now.max(a);
                    continue;
                }
                None => break,
            }
        }

        // Completes `active[i]` at `now`: records the pause, moves the
        // makespan, and releases the tenant's next job.
        let mut complete = |i: usize, now: Ps, active: &mut Vec<JobView>| {
            let job = active.remove(i);
            let t = job.tenant;
            let pause = now - job.arrival;
            sched_pause[t] += pause;
            pauses.record(pause.0);
            makespan = makespan.max(now);
            next_job[t] += 1;
            if let Some(&(gap, _)) = streams[t].jobs.get(next_job[t]) {
                pending[t] = Some(now + gap);
            }
        };

        match sched.decide(now, &active) {
            Allocation::Serve(i) => {
                assert!(i < active.len(), "policy picked job {i} of {}", active.len());
                let finish = now + active[i].remaining;
                match next_arrival.filter(|&a| a < finish) {
                    Some(a) => {
                        // A new arrival may change the decision; bank
                        // progress and re-decide there.
                        active[i].remaining -= a - now;
                        now = a;
                    }
                    None => {
                        now = finish;
                        complete(i, now, &mut active);
                    }
                }
            }
            Allocation::ShareAll => {
                let k = active.len() as u64;
                let min_rem = active.iter().map(|j| j.remaining).min().expect("active jobs");
                let finish = now + Ps(min_rem.0.saturating_mul(k));
                match next_arrival.filter(|&a| a < finish) {
                    Some(a) => {
                        // Everyone progressed elapsed/k; integer floor
                        // is safe (never exceeds min_rem) and exact on
                        // the completion path below.
                        let progress = Ps((a - now).0 / k);
                        for j in &mut active {
                            j.remaining = j.remaining.saturating_sub(progress);
                        }
                        now = a;
                    }
                    None => {
                        now = finish;
                        for j in &mut active {
                            j.remaining = j.remaining.saturating_sub(min_rem);
                        }
                        // Lowest tenant first — `active` is tenant-sorted
                        // and `complete` shifts left, so scan from 0.
                        let mut i = 0;
                        while i < active.len() {
                            if active[i].remaining == Ps::ZERO {
                                complete(i, now, &mut active);
                            } else {
                                i += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    SimOut { sched_pause, pauses, makespan }
}

/// Runs the fleet: solo phase (parallel over distinct workloads), then
/// the serial schedule phase.
///
/// # Errors
///
/// Unknown platform, bad mix, or a tenant's solo run going out of
/// memory — all as strings, ready for CLI reporting.
pub fn run_fleet(opts: &FleetOptions) -> Result<FleetReport, String> {
    let specs = plan_tenants(opts.tenants, opts.mix.as_deref()).map_err(|e| e.to_string())?;
    let platform = *PLATFORM_LABELS
        .iter()
        .find(|l| **l == opts.platform)
        .ok_or_else(|| format!("unknown platform '{}'", opts.platform))?;

    // Solo phase: one run per *distinct* workload, in parallel.
    let mut uniq: Vec<WorkloadSpec> = Vec::new();
    for s in &specs {
        if !uniq.iter().any(|u| u.short == s.short) {
            uniq.push(s.clone());
        }
    }
    let solo_runs = parallel_map_labeled(
        &uniq,
        opts.jobs.max(1),
        |_, s| format!("solo:{}/{platform}", s.short),
        |s| {
            let sys = system_by_label(platform).expect("platform label pre-validated");
            let mut run = Run::new(s, sys, &opts.run);
            run.drive().map(|()| run.gc.events)
        },
    );
    let mut events_by_short = Vec::with_capacity(uniq.len());
    for (s, r) in uniq.iter().zip(solo_runs) {
        events_by_short.push((s.short, r.map_err(|e| format!("solo {}: {e}", s.short))?));
    }
    let events_of = |short: &str| &events_by_short.iter().find(|(s, _)| *s == short).expect("solo run recorded").1;

    // Extract each tenant's (gap, service) stream and stagger it.
    let mut streams = Vec::with_capacity(specs.len());
    for (t, spec) in specs.iter().enumerate() {
        let events = events_of(spec.short);
        let mut jobs = Vec::with_capacity(events.len());
        let mut prev_end = Ps::ZERO;
        for ev in events {
            jobs.push((ev.start.saturating_sub(prev_end), ev.wall));
            prev_end = ev.start + ev.wall;
        }
        let mean_gap = if jobs.is_empty() { 0 } else { jobs.iter().map(|(g, _)| g.0).sum::<u64>() / jobs.len() as u64 };
        // The first SplitMix64 draw: the stagger offsets only need to be
        // well-spread and deterministic.
        let offset = Ps(StdRng::seed_from_u64(opts.seed ^ t as u64).next_u64() % (mean_gap + 1));
        streams.push(TenantStream { jobs, offset });
    }

    let sim = simulate(&streams, opts.sched);

    let tenants = specs
        .iter()
        .enumerate()
        .map(|(t, spec)| TenantReport {
            tenant: t,
            workload: spec.short,
            label: format!("t{t}:{}", spec.short),
            events: streams[t].jobs.len(),
            solo_pause: streams[t].jobs.iter().map(|&(_, s)| s).sum(),
            sched_pause: sim.sched_pause[t],
        })
        .collect();
    Ok(FleetReport {
        platform,
        sched: opts.sched,
        seed: opts.seed,
        tenants,
        pauses: sim.pauses,
        makespan: sim.makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_mix_expands_weights() {
        let p = parse_mix("BS:2,PR").unwrap();
        let shorts: Vec<_> = p.iter().map(|s| s.short).collect();
        assert_eq!(shorts, ["BS", "BS", "PR"]);
        assert!(parse_mix("XX:1").is_err(), "unknown workload rejected");
        assert!(parse_mix("BS:0").is_err(), "zero weight rejected");
        assert!(parse_mix("BS:two").is_err(), "non-numeric weight rejected");
        // No more slots than a fleet has tenants, refused before expanding.
        assert_eq!(parse_mix("BS:256").unwrap().len(), MAX_TENANTS);
        assert_eq!(parse_mix("BS:257").unwrap_err(), MixError::TooManySlots(257));
        assert_eq!(parse_mix("BS:200,KM:57").unwrap_err(), MixError::TooManySlots(257));
        assert_eq!(parse_mix("BS:4000000000").unwrap_err(), MixError::TooManySlots(4_000_000_000));
        assert_eq!(parse_mix(&format!("BS:{}", usize::MAX)).unwrap_err(), MixError::TooManySlots(usize::MAX));
    }

    #[test]
    fn plan_tenants_cycles_the_pattern() {
        let t = plan_tenants(5, Some("BS,PR")).unwrap();
        let shorts: Vec<_> = t.iter().map(|s| s.short).collect();
        assert_eq!(shorts, ["BS", "PR", "BS", "PR", "BS"]);
        let derived = plan_tenants(0, Some("BS:3")).unwrap();
        assert_eq!(derived.len(), 3, "tenants=0 derives the count from the mix");
        assert_eq!(plan_tenants(0, None).unwrap().len(), table3().len());
    }

    #[test]
    fn sched_kind_round_trips_names() {
        for kind in SchedKind::ALL {
            assert_eq!(kind.name().parse::<SchedKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("rr".parse::<SchedKind>().is_err());
    }

    fn stream(offset: u64, jobs: &[(u64, u64)]) -> TenantStream {
        TenantStream { jobs: jobs.iter().map(|&(g, s)| (Ps(g), Ps(s))).collect(), offset: Ps(offset) }
    }

    #[test]
    fn fifo_queues_the_later_arrival() {
        // t0 arrives at 0 for 100; t1 arrives at 10 for 100 and waits.
        let streams = [stream(0, &[(0, 100)]), stream(0, &[(10, 100)])];
        let out = simulate(&streams, SchedKind::Fifo);
        assert_eq!(out.sched_pause, [Ps(100), Ps(190)]);
        assert_eq!(out.makespan, Ps(200));
        assert_eq!(out.pauses.count(), 2);
    }

    #[test]
    fn fair_share_stretches_both() {
        // Same offered load as the FIFO test, under processor sharing:
        // from t=10 both jobs run at half speed; t0 finishes at 190,
        // t1's last 10 units then run alone until 200.
        let streams = [stream(0, &[(0, 100)]), stream(0, &[(10, 100)])];
        let out = simulate(&streams, SchedKind::FairShare);
        assert_eq!(out.sched_pause, [Ps(190), Ps(190)]);
        assert_eq!(out.makespan, Ps(200));
    }

    #[test]
    fn deadline_preempts_for_the_short_job() {
        // t0: long job (service 1000, deadline 2000). t1 arrives at 100
        // with a short job (service 10, deadline 120) and preempts.
        let streams = [stream(0, &[(0, 1000)]), stream(0, &[(100, 10)])];
        let edf = simulate(&streams, SchedKind::PauseDeadline);
        assert_eq!(edf.sched_pause, [Ps(1010), Ps(10)], "short job runs immediately under EDF");
        let fifo = simulate(&streams, SchedKind::Fifo);
        assert_eq!(fifo.sched_pause, [Ps(1000), Ps(910)], "FIFO makes the short job wait");
        assert_eq!(edf.makespan, fifo.makespan, "work-conserving: same makespan");
    }

    #[test]
    fn next_job_arrives_relative_to_completion() {
        // Single tenant, two jobs: the second's gap counts from the
        // first's completion, so pauses equal solo service exactly.
        let streams = [stream(5, &[(10, 100), (20, 50)])];
        let out = simulate(&streams, SchedKind::Fifo);
        assert_eq!(out.sched_pause, [Ps(150)]);
        // offset 5 + gap 10 + service 100 + gap 20 + service 50.
        assert_eq!(out.makespan, Ps(185));
    }

    #[test]
    fn makespan_is_the_last_completion() {
        // t0 arrives late and finishes last, t1 finishes first, t2 never
        // asks: the makespan is t0's completion, whatever the index order.
        let streams = [stream(0, &[(50, 100)]), stream(0, &[(0, 10)]), stream(0, &[])];
        assert_eq!(simulate(&streams, SchedKind::Fifo).makespan, Ps(150));
        assert_eq!(simulate(&[stream(0, &[])], SchedKind::Fifo).makespan, Ps::ZERO, "no completion, no makespan");
        assert_eq!(simulate(&[], SchedKind::Fifo).makespan, Ps::ZERO);
    }

    #[test]
    fn single_tenant_fleet_has_unit_inflation() {
        let opts = FleetOptions {
            tenants: 1,
            mix: Some("BS".to_string()),
            run: RunOptions { supersteps: Some(2), ..Default::default() },
            ..Default::default()
        };
        let rep = run_fleet(&opts).unwrap();
        assert_eq!(rep.tenants.len(), 1);
        let t = &rep.tenants[0];
        assert_eq!(t.label, "t0:BS");
        assert!(t.events > 0, "BS at 2 supersteps still collects");
        assert_eq!(t.sched_pause, t.solo_pause, "uncontended tenant sees solo pauses");
        assert_eq!(t.inflation_bp(), 10_000);
    }

    #[test]
    fn fleet_json_is_jobs_invariant() {
        let mk = |jobs| FleetOptions {
            tenants: 4,
            mix: Some("BS:2,KM:2".to_string()),
            sched: SchedKind::FairShare,
            jobs,
            run: RunOptions { supersteps: Some(2), ..Default::default() },
            ..Default::default()
        };
        let serial = run_fleet(&mk(1)).unwrap();
        let par = run_fleet(&mk(4)).unwrap();
        assert_eq!(serial.to_json().to_string(), par.to_json().to_string());
        let back = Json::parse(&serial.to_json().to_string()).expect("fleet JSON parses");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some("charon-fleet-v1"));
        assert_eq!(back.get("tenants").and_then(Json::as_u64), Some(4));
        let detail = back.get("tenant_detail").and_then(Json::as_arr).expect("detail");
        assert_eq!(detail.len(), 4);
        assert!(
            detail
                .iter()
                .all(|t| t.get("inflation_bp").and_then(Json::as_u64).unwrap_or(0) >= 10_000),
            "shared device never shortens a pause"
        );
    }

    #[test]
    fn shared_workload_tenants_differ_only_by_stagger() {
        // Two BS tenants: identical streams, different offsets, so both
        // report the same solo pause but generally different schedules.
        let opts = FleetOptions {
            tenants: 2,
            mix: Some("BS".to_string()),
            run: RunOptions { supersteps: Some(2), ..Default::default() },
            ..Default::default()
        };
        let rep = run_fleet(&opts).unwrap();
        assert_eq!(rep.tenants[0].solo_pause, rep.tenants[1].solo_pause);
        assert_eq!(rep.tenants[0].events, rep.tenants[1].events);
        assert!(rep.max_inflation_bp() >= 10_000);
    }
}
