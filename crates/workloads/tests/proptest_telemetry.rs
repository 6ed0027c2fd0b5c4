//! Telemetry's two contracts, property-tested:
//!
//! 1. **Inertness** — enabling the journal never changes simulated time or
//!    functional behaviour, for any workload, platform, step count, or
//!    fault schedule. The fingerprint (and, under faults, the graph
//!    signatures) of a telemetry-on run is bit-identical to the same run
//!    with telemetry off.
//! 2. **Validity** — everything the telemetry layer emits is structurally
//!    valid: the run report and the Chrome trace parse with the in-repo
//!    JSON checker, and every trace event carries the required keys.

use charon_gc::system::System;
use charon_sim::faults::{FaultSite, RecoveryConfig};
use charon_sim::json::Json;
use charon_sim::telemetry::{chrome_trace, Event, Telemetry};
use charon_workloads::campaign::run_case;
use charon_workloads::spec::{by_short, table3};
use charon_workloads::{run_workload, RunOptions};
use proptest::prelude::*;

type MakeSystem = fn() -> System;

const PLATFORMS: [(&str, MakeSystem); 5] = [
    ("DDR4", System::ddr4),
    ("HMC", System::hmc),
    ("Charon", System::charon),
    ("Charon-CPU-side", System::cpu_side),
    ("Ideal", System::ideal),
];

const SHORTS: [&str; 2] = ["BS", "KM"];

proptest! {
    // Every case is two full (short) workload runs; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn telemetry_never_changes_the_fingerprint(
        which in 0usize..SHORTS.len(),
        platform in 0usize..PLATFORMS.len(),
        steps in 1usize..=2,
    ) {
        let spec = by_short(SHORTS[which]).unwrap();
        let (label, make) = PLATFORMS[platform];
        let opts = RunOptions { supersteps: Some(steps), ..Default::default() };
        let off = run_workload(&spec, make(), &opts).unwrap();
        let telemetry = Telemetry::enabled();
        let mut sys = make();
        sys.set_telemetry(telemetry.clone());
        let on = run_workload(&spec, sys, &opts).unwrap();
        prop_assert_eq!(off.fingerprint(), on.fingerprint(),
            "telemetry changed the simulation on {} x {}", SHORTS[which], label);
        if on.minor.1 + on.major.1 > 0 {
            prop_assert!(!telemetry.is_empty(), "an enabled journal must record the collections");
        }
    }

    #[test]
    fn telemetry_never_changes_a_fault_campaign(
        seed in any::<u64>(),
        rate in 50u32..400,
    ) {
        let spec = by_short("BS").unwrap();
        let opts = RunOptions { supersteps: Some(2), ..Default::default() };
        let armed = || {
            let mut sys = System::charon();
            sys.inject_faults(FaultSite::Unit.arm(seed, f64::from(rate) / 1000.0), RecoveryConfig::default());
            sys
        };
        let off = run_case(&spec, armed(), &opts).unwrap();
        let telemetry = Telemetry::enabled();
        let mut sys = armed();
        sys.set_telemetry(telemetry.clone());
        let on = run_case(&spec, sys, &opts).unwrap();
        prop_assert_eq!(off.gc_time, on.gc_time, "telemetry changed timing under seed {}", seed);
        prop_assert_eq!(&off.signatures, &on.signatures);
        prop_assert_eq!(&off.event_kinds, &on.event_kinds);
        prop_assert_eq!(off.recovery, on.recovery);
        prop_assert_eq!(off.injected, on.injected);
        if off.recovery.total_retries() > 0 {
            let events = telemetry.events();
            prop_assert!(events.iter().any(|e| matches!(e, Event::Fault { .. })),
                "retries happened but no Fault event was journaled");
            prop_assert!(events.iter().any(|e| matches!(e, Event::Recovery { .. })),
                "retries happened but no Recovery event was journaled");
        }
    }
}

/// The emitted JSON is valid for one workload on EVERY platform — both
/// the machine-readable run report and the Chrome trace round-trip
/// through the in-repo parser, and every trace event carries the keys
/// `chrome://tracing` requires. One `#[test]` per workload below keeps
/// the heavy graph workloads off the critical path (the harness runs
/// them in parallel).
fn assert_emitted_json_is_valid(short: &str) {
    let spec = table3().into_iter().find(|s| s.short == short).expect("known workload");
    for (label, make) in PLATFORMS {
        let telemetry = Telemetry::enabled();
        let mut sys = make();
        sys.set_telemetry(telemetry.clone());
        let r = run_workload(&spec, sys, &RunOptions { supersteps: Some(1), ..Default::default() })
            .unwrap_or_else(|e| panic!("{short} on {label}: {e}"));
        let report = r.to_json().to_string();
        let parsed = Json::parse(&report).unwrap_or_else(|e| panic!("{short} on {label}: {e}"));
        assert!(parsed.get("gc_time_ps").and_then(Json::as_u64).is_some());
        assert!(parsed.get("minor_breakdown").and_then(|b| b.get("buckets")).is_some());
        assert!(parsed.get("minor_breakdown").and_then(|b| b.get("recovery")).is_some());
        assert!(parsed.get("energy").and_then(|e| e.get("total_j")).is_some());

        let trace = chrome_trace(&telemetry.events()).to_string();
        let parsed = Json::parse(&trace).unwrap_or_else(|e| panic!("{short} on {label} trace: {e}"));
        let arr = parsed.as_arr().expect("chrome trace is a JSON array");
        assert!(!arr.is_empty(), "{short} on {label}: empty trace");
        for ev in arr {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "{short} on {label}: trace event missing {key}");
            }
        }
    }
}

#[test]
fn emitted_json_is_valid_bs() {
    assert_emitted_json_is_valid("BS");
}

#[test]
fn emitted_json_is_valid_km() {
    assert_emitted_json_is_valid("KM");
}

#[test]
fn emitted_json_is_valid_lr() {
    assert_emitted_json_is_valid("LR");
}

#[test]
fn emitted_json_is_valid_cc() {
    assert_emitted_json_is_valid("CC");
}

#[test]
fn emitted_json_is_valid_pr() {
    assert_emitted_json_is_valid("PR");
}

#[test]
fn emitted_json_is_valid_als() {
    assert_emitted_json_is_valid("ALS");
}
