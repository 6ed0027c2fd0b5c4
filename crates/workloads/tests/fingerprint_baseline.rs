//! Committed timing baselines: the simulated outcome of every workload ×
//! platform pair at the standard short configuration, pinned bit-exact.
//!
//! These fingerprints were captured before the telemetry layer landed and
//! act as the regression floor for "telemetry off changes nothing": any
//! change to the timing core, cache model, epoch metering, or collector
//! phase structure that shifts a single picosecond fails here. When a
//! deliberate timing change lands, re-capture with the loop at the bottom.

use charon_gc::system::System;
use charon_workloads::parmatrix::system_by_label;
use charon_workloads::spec::by_short;
use charon_workloads::{run_workload, RunOptions};

fn opts() -> RunOptions {
    RunOptions { supersteps: Some(2), ..Default::default() }
}

/// The platform with an enabled latency profiler attached.
fn profiled_system(label: &str) -> System {
    let mut sys = system_by_label(label).unwrap();
    sys.set_profiler(charon_sim::profile::Profiler::enabled());
    sys
}

/// `(workload, platform, gc_time ps, minor count, major count, allocated
/// bytes)` at supersteps=2, default heap, 8 GC threads.
const BASELINES: [(&str, &str, u64, usize, usize, u64); 15] = [
    ("BS", "DDR4", 685110530, 1, 0, 8301176),
    ("BS", "HMC", 394478741, 1, 0, 8301176),
    ("BS", "Charon", 205784564, 1, 0, 8301176),
    ("BS", "Charon-CPU-side", 200743835, 1, 0, 8301176),
    ("BS", "Ideal", 81058157, 1, 0, 8301176),
    ("KM", "DDR4", 708001304, 1, 0, 5686448),
    ("KM", "HMC", 332313491, 1, 0, 5686448),
    ("KM", "Charon", 190398335, 1, 0, 5686448),
    ("KM", "Charon-CPU-side", 186611535, 1, 0, 5686448),
    ("KM", "Ideal", 72211163, 1, 0, 5686448),
    ("CC", "DDR4", 3666074441, 1, 0, 15862608),
    ("CC", "HMC", 3670715017, 1, 0, 15862608),
    ("CC", "Charon", 5274700853, 1, 0, 15862608),
    ("CC", "Charon-CPU-side", 6109597410, 1, 0, 15862608),
    ("CC", "Ideal", 2312736447, 1, 0, 15862608),
];

#[test]
fn telemetry_off_fingerprints_match_committed_baselines() {
    let mut mismatches = Vec::new();
    for &(wl, platform, gc_ps, minors, majors, alloc) in &BASELINES {
        let spec = by_short(wl).unwrap();
        let r = run_workload(&spec, system_by_label(platform).unwrap(), &opts()).unwrap();
        let got = r.fingerprint();
        let want = (wl, platform, gc_ps, minors, majors, alloc);
        if got != want {
            mismatches.push(format!("  {want:?}\n  got {got:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} fingerprint(s) drifted from the committed baselines:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// Enabling the latency profiler and the heap census must not move a
/// single picosecond: both only observe values the simulation already
/// computed. Every committed baseline must hold with them switched on.
#[test]
fn profiler_and_census_on_fingerprints_match_committed_baselines() {
    for &(wl, platform, gc_ps, minors, majors, alloc) in &BASELINES {
        let spec = by_short(wl).unwrap();
        let o = RunOptions { census: true, ..opts() };
        let r = run_workload(&spec, profiled_system(platform), &o).unwrap();
        assert_eq!(
            r.fingerprint(),
            (wl, platform, gc_ps, minors, majors, alloc),
            "{wl} on {platform}: profiling must be timing-invisible"
        );
        let p = r.profile.as_ref().expect("profiler enabled produces a profile");
        assert_eq!(p.pause_minor.count() as usize + p.pause_major.count() as usize, minors + majors);
        assert!(p.latencies.total_samples() > 0 || platform == "Ideal", "{wl} on {platform}: no latency samples");
    }
}

/// Tail-pause postmortem capture (with energy-bucket attribution) is a
/// pure observer: snapshots before each collection, deltas after, never
/// a clock advanced. Every committed baseline must hold with it on —
/// stacked on top of the profiler and census for maximum interference
/// surface — and the captured per-bucket energy must conserve against
/// the run's own account.
#[test]
fn postmortem_on_fingerprints_match_committed_baselines() {
    use charon_gc::collector::GcKind;
    for &(wl, platform, gc_ps, minors, majors, alloc) in &BASELINES {
        let spec = by_short(wl).unwrap();
        let o = RunOptions { census: true, postmortem: Some(4), ..opts() };
        let r = run_workload(&spec, profiled_system(platform), &o).unwrap();
        assert_eq!(
            r.fingerprint(),
            (wl, platform, gc_ps, minors, majors, alloc),
            "{wl} on {platform}: postmortem capture must be timing-invisible"
        );
        let pm = r
            .profile
            .as_ref()
            .and_then(|p| p.postmortem.as_ref())
            .expect("postmortem was enabled");
        assert_eq!(pm.pauses(GcKind::Minor) as usize, minors, "{wl} on {platform}");
        assert_eq!(pm.pauses(GcKind::Major) as usize, majors, "{wl} on {platform}");
        let total = pm.energy_total().total_j();
        let run_total = r.energy.total_j();
        assert!(
            (total - run_total).abs() <= run_total.abs() * 1e-9,
            "{wl} on {platform}: bucketed energy {total} J != run account {run_total} J"
        );
    }
}

/// Heap-factor and step overrides land in the fingerprint too.
#[test]
fn fingerprints_pin_heap_factor_and_steps() {
    let cases = [
        ("BS", "DDR4", 1503238658u64, 2usize),
        ("BS", "Charon", 434481748, 2),
        ("KM", "DDR4", 720723637, 1),
        ("KM", "Charon", 193165778, 1),
    ];
    for (wl, platform, gc_ps, minors) in cases {
        let spec = by_short(wl).unwrap();
        let o = RunOptions { heap_factor: Some(1.0), supersteps: Some(2), ..Default::default() };
        let r = run_workload(&spec, system_by_label(platform).unwrap(), &o).unwrap();
        assert_eq!((r.gc_time.0, r.minor.1, r.major.1), (gc_ps, minors, 0), "{wl} on {platform} at heap factor 1.0");
    }
}
