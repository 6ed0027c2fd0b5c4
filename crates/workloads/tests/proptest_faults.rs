//! Property tests over the fault-injection layer's robustness contract:
//! whatever fault schedule hits the offload path, the collector's
//! functional behaviour — graph signatures, reachability counters, the
//! collection sequence — matches the fault-free run, and simulated time
//! stays strictly monotone.

use charon_gc::system::System;
use charon_sim::faults::{FaultRates, RecoveryConfig};
use charon_workloads::campaign::{run_case, CaseReport};
use charon_workloads::spec::by_short;
use charon_workloads::RunOptions;
use proptest::prelude::*;
use std::sync::OnceLock;

const SHORTS: [&str; 2] = ["BS", "KM"];

fn opts() -> RunOptions {
    RunOptions { supersteps: Some(2), ..Default::default() }
}

/// A Charon system with the fault injector armed.
fn armed(seed: u64, rates: FaultRates) -> System {
    let mut sys = System::charon();
    sys.inject_faults(seed, rates, RecoveryConfig::default());
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
        link in 0u32..400, queue in 0u32..400, tlb in 0u32..400,
        mai in 0u32..400, unit in 0u32..400,
        which in 0usize..SHORTS.len(),
    ) {
        let short = SHORTS[which];
        let rates = FaultRates {
            link: f64::from(link) / 1000.0,
            queue: f64::from(queue) / 1000.0,
            tlb: f64::from(tlb) / 1000.0,
            mai: f64::from(mai) / 1000.0,
            unit: f64::from(unit) / 1000.0,
        };
        let faulty = run_case(&by_short(short).unwrap(), armed(seed, rates), &opts())
            .expect("faulty run must still complete");
        let base = baseline(short);
        prop_assert_eq!(&faulty.signatures, &base.signatures,
            "graph signatures diverged under schedule seed={} rates={}", seed, rates);
        prop_assert_eq!(&faulty.event_kinds, &base.event_kinds,
            "collection sequence diverged under seed={}", seed);
        prop_assert!(faulty.monotone, "{}",
            faulty.monotone_detail.unwrap_or_default());
        prop_assert!(faulty.gc_time >= base.gc_time,
            "faults made GC faster: {} vs {}", faulty.gc_time, base.gc_time);
        if rates.is_zero() {
            prop_assert_eq!(faulty.injected, 0);
            prop_assert_eq!(faulty.gc_time, base.gc_time,
                "a zero-rate schedule must be timing-identical to fault-free");
        }
    }

    #[test]
    fn replayed_schedules_are_bit_identical(seed in any::<u64>(), p_milli in 10u32..300) {
        let spec = by_short("BS").unwrap();
        let rates = FaultRates::uniform(f64::from(p_milli) / 1000.0);
        let a = run_case(&spec, armed(seed, rates), &opts()).expect("run completes");
        let b = run_case(&spec, armed(seed, rates), &opts()).expect("run completes");
        prop_assert_eq!(a.injected, b.injected);
        prop_assert_eq!(a.gc_time, b.gc_time, "same seed must replay the same timing");
        prop_assert_eq!(a.recovery, b.recovery);
    }
}
