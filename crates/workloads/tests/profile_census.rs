//! The profiler and census over real workload runs: the profile agrees
//! with the run it came from, its JSON round-trips through the strict
//! parser, and the census conserves bytes on every real collection.

use charon_gc::collector::GcKind;
use charon_gc::system::System;
use charon_sim::json::Json;
use charon_sim::profile::Profiler;
use charon_workloads::spec::by_short;
use charon_workloads::{run_workload, RunOptions, RunResult};

fn profiled(short: &str, mut sys: System) -> RunResult {
    let spec = by_short(short).unwrap();
    sys.set_profiler(Profiler::enabled());
    let opts = RunOptions { supersteps: Some(2), census: true, ..Default::default() };
    run_workload(&spec, sys, &opts).unwrap()
}

#[test]
fn pause_histograms_agree_with_the_run_totals() {
    let r = profiled("BS", System::charon());
    let p = r.profile.as_ref().unwrap();
    assert_eq!(p.pause_minor.count() as usize, r.minor.1);
    assert_eq!(p.pause_major.count() as usize, r.major.1);
    assert_eq!(p.pause_minor.sum(), r.minor.0 .0, "histogram sums the same picoseconds");
    assert_eq!(p.pause_major.sum(), r.major.0 .0);
    assert_eq!(p.gc_time, r.gc_time);
    assert!(p.latencies.total_samples() > 0, "an offloading run produces latency samples");
}

#[test]
fn profile_json_round_trips_with_everything_attached() {
    let r = profiled("KM", System::charon());
    let p = r.profile.as_ref().unwrap();
    let parsed = Json::parse(&p.to_json().to_string()).expect("profile JSON is parseable");
    assert_eq!(parsed.get("workload").and_then(Json::as_str), Some("KM"));
    assert_eq!(parsed.get("platform").and_then(Json::as_str), Some("Charon"));
    assert_eq!(parsed.get("gc_time_ps").and_then(Json::as_u64), Some(r.gc_time.0));
    let minor = parsed.get("pauses").and_then(|x| x.get("minor")).expect("minor pauses");
    assert_eq!(minor.get("count").and_then(Json::as_u64), Some(r.minor.1 as u64));
    let units = parsed.get("units").expect("offloading platform has unit stats");
    let cs = units.get("copy_search").expect("copy_search class");
    assert!(cs.get("total_units").and_then(Json::as_u64).unwrap() > 0);
    let util = cs.get("utilization").and_then(Json::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&util), "utilization {util} out of range");
    let census = parsed.get("census").expect("census was enabled");
    assert_eq!(
        census.get("collections").and_then(Json::as_u64),
        Some((r.minor.1 + r.major.1) as u64),
        "one census record per collection"
    );
    // The whole RunResult embeds the same profile under "profile".
    let run_json = Json::parse(&r.to_json().to_string()).unwrap();
    assert_eq!(run_json.get("profile"), Some(&p.to_json()));
}

#[test]
fn host_platforms_profile_without_unit_stats() {
    let r = profiled("BS", System::ddr4());
    let p = r.profile.as_ref().unwrap();
    assert!(p.units.is_none(), "DDR4 has no accelerator");
    assert!(p.unit_utilization().is_empty());
    assert!(p.to_json().get("units").is_none());
    assert!(p.latencies.total_samples() > 0, "DRAM packets still profiled");
    let table = format!("{p}");
    assert!(table.contains("profile: BS on DDR4"), "{table}");
    assert!(table.contains("census:"), "{table}");
}

#[test]
fn census_conserves_bytes_on_every_real_collection() {
    for sys in [System::ddr4(), System::charon()] {
        let r = profiled("KM", sys);
        let census = r.profile.as_ref().unwrap().census.as_ref().unwrap();
        assert!(!census.records.is_empty());
        for rec in &census.records {
            for s in &rec.spaces {
                assert_eq!(
                    s.live_bytes + s.dead_bytes,
                    s.allocated_bytes,
                    "#{} {} {}: live+dead must equal allocated",
                    rec.seq,
                    rec.kind,
                    s.name
                );
            }
            let klass_total: u64 = rec.per_klass.iter().map(|k| k.live_bytes + k.dead_bytes).sum();
            assert_eq!(klass_total, rec.collected_bytes(), "per-klass tallies cover the collected spaces");
        }
        // The paper's motivating observation: at scavenge time most of the
        // young generation is garbage.
        let mean = census.mean_dead_fraction(GcKind::Minor);
        assert!(mean > 0.2, "dead fraction {mean} implausibly low for a Spark-like workload");
    }
}

#[test]
fn disabled_profiling_leaves_no_profile() {
    let spec = by_short("BS").unwrap();
    let r = run_workload(&spec, System::charon(), &RunOptions { supersteps: Some(2), ..Default::default() }).unwrap();
    assert!(r.profile.is_none());
    assert!(r.to_json().get("profile").is_none());
}

/// The `prim_*` channels sample each primitive as the collector issued
/// it, wherever it ran; the `prim_*_host` channels sample the host
/// software path. On DDR4 every primitive runs that path, so each pair is
/// one histogram; on Ideal every primitive is free and none runs it.
#[test]
fn prim_channels_sample_every_issued_primitive_wherever_it_ran() {
    use charon_sim::profile::Channel::*;
    let pairs = [
        (PrimCopy, HostPrimCopy),
        (PrimSearch, HostPrimSearch),
        (PrimScanPush, HostPrimScanPush),
        (PrimBitmapCount, HostPrimBitmapCount),
    ];
    let latencies = |sys| profiled("BS", sys).profile.unwrap().latencies;
    let ddr4 = latencies(System::ddr4());
    for (issued, host) in pairs {
        assert_eq!(ddr4.get(issued), ddr4.get(host), "DDR4: {} is {}", issued.name(), host.name());
    }
    for ch in [PrimCopy, PrimScanPush] {
        assert!(!ddr4.get(ch).is_empty(), "DDR4 issued no {}", ch.name());
    }
    let ideal = latencies(System::ideal());
    for (issued, host) in pairs {
        assert_eq!(ideal.get(issued).count(), ddr4.get(issued).count(), "Ideal issues what DDR4 issues");
        assert_eq!(ideal.get(issued).max(), 0, "Ideal: every {} sample is 0 ps", issued.name());
        assert!(ideal.get(host).is_empty(), "Ideal: no {} sample", host.name());
    }
}
