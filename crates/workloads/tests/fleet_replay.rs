//! Property test: a fleet run is bit-for-bit replayable at any `--jobs`.
//!
//! The solo phase fans distinct workloads across worker threads and the
//! schedule phase is serial integer arithmetic, so the full report —
//! every tenant's scheduled pauses, the fleet histogram, the makespan —
//! must be byte-identical no matter how the solo runs were scheduled
//! onto OS threads, for every scheduler policy and stagger seed.

use charon_workloads::fleet::{run_fleet, FleetOptions, SchedKind};
use charon_workloads::RunOptions;
use proptest::prelude::*;

/// Cheap mixes only — each distinct workload is one full (short) solo
/// run per `run_fleet` call.
const MIXES: [&str; 4] = ["BS", "KM", "BS:2,KM", "BS,KM:3"];

fn opts(tenants: usize, mix: &str, sched: SchedKind, seed: u64, jobs: usize) -> FleetOptions {
    FleetOptions {
        tenants,
        mix: Some(mix.to_string()),
        sched,
        seed,
        jobs,
        run: RunOptions { supersteps: Some(2), ..Default::default() },
        ..Default::default()
    }
}

proptest! {
    // Each case is two fleet runs, each with up to two solo workload
    // runs; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fleet_report_is_identical_at_any_jobs(
        tenants in 4usize..=6,
        mix_i in 0usize..MIXES.len(),
        sched_i in 0usize..SchedKind::ALL.len(),
        seed in any::<u64>(),
        jobs in 2usize..=8,
    ) {
        let sched = SchedKind::ALL[sched_i];
        let serial = run_fleet(&opts(tenants, MIXES[mix_i], sched, seed, 1))
            .expect("fleet run completes");
        let par = run_fleet(&opts(tenants, MIXES[mix_i], sched, seed, jobs))
            .expect("fleet run completes");
        prop_assert_eq!(
            serial.to_json().to_string(),
            par.to_json().to_string(),
            "fleet report diverged between --jobs 1 and --jobs {} (mix {}, sched {}, seed {})",
            jobs, MIXES[mix_i], sched, seed
        );
        // Interference sanity on every generated fleet: a shared device
        // never shortens a pause, and the histogram saw every event.
        prop_assert!(serial.max_inflation_bp() >= 10_000);
        prop_assert_eq!(serial.pauses.count() as usize, serial.events());
    }
}
