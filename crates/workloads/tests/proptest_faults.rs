//! Property tests over the fault-injection layer's robustness contract:
//! whatever fault schedule hits the offload path, the collector's
//! functional behaviour — graph signatures, reachability counters, the
//! collection sequence — matches the fault-free run, and simulated time
//! stays strictly monotone.

use charon_gc::system::System;
use charon_sim::faults::{FaultSite, RecoveryConfig};
use charon_workloads::campaign::{run_case, CaseReport};
use charon_workloads::spec::by_short;
use charon_workloads::RunOptions;
use proptest::prelude::*;
use std::sync::OnceLock;

const SHORTS: [&str; 2] = ["BS", "KM"];

fn opts() -> RunOptions {
    RunOptions { supersteps: Some(2), ..Default::default() }
}

/// A Charon system with the fault injector armed at one site.
fn armed(site: FaultSite, seed: u64, rate: f64) -> System {
    let mut sys = System::charon();
    sys.inject_faults(site.arm(seed, rate), RecoveryConfig::default());
    sys
}

/// Fault-free reference runs, computed once per workload.
fn baseline(short: &str) -> &'static CaseReport {
    static BASELINES: OnceLock<Vec<CaseReport>> = OnceLock::new();
    let all = BASELINES.get_or_init(|| {
        SHORTS
            .iter()
            .map(|s| run_case(&by_short(s).unwrap(), System::charon(), &opts()).expect("fault-free run completes"))
            .collect()
    });
    let i = SHORTS.iter().position(|&s| s == short).expect("known workload");
    &all[i]
}

proptest! {
    // Each case is a full (short) workload run; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_fault_schedule_preserves_gc_correctness(
        seed in any::<u64>(),
        site in 0usize..FaultSite::ALL.len(),
        rate_milli in 0u32..400,
        which in 0usize..SHORTS.len(),
    ) {
        let short = SHORTS[which];
        let (site, rate) = (FaultSite::ALL[site], f64::from(rate_milli) / 1000.0);
        let faulty = run_case(&by_short(short).unwrap(), armed(site, seed, rate), &opts())
            .expect("faulty run must still complete");
        let base = baseline(short);
        prop_assert_eq!(&faulty.signatures, &base.signatures,
            "graph signatures diverged under schedule seed={} {}={}", seed, site, rate);
        prop_assert_eq!(&faulty.event_kinds, &base.event_kinds,
            "collection sequence diverged under seed={}", seed);
        prop_assert!(faulty.monotone, "{}",
            faulty.monotone_detail.unwrap_or_default());
        prop_assert!(faulty.gc_time >= base.gc_time,
            "faults made GC faster: {} vs {}", faulty.gc_time, base.gc_time);
        if rate == 0.0 {
            prop_assert_eq!(faulty.injected, 0);
            prop_assert_eq!(faulty.gc_time, base.gc_time,
                "a zero-rate schedule must be timing-identical to fault-free");
        }
    }

    #[test]
    fn replayed_schedules_are_bit_identical(
        seed in any::<u64>(), site in 0usize..FaultSite::ALL.len(), p_milli in 10u32..300
    ) {
        let spec = by_short("BS").unwrap();
        let (site, rate) = (FaultSite::ALL[site], f64::from(p_milli) / 1000.0);
        let a = run_case(&spec, armed(site, seed, rate), &opts()).expect("run completes");
        let b = run_case(&spec, armed(site, seed, rate), &opts()).expect("run completes");
        prop_assert_eq!(a.injected, b.injected);
        prop_assert_eq!(a.gc_time, b.gc_time, "same seed must replay the same timing");
        prop_assert_eq!(a.recovery, b.recovery);
    }
}
