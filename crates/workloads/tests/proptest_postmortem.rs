//! Property tests over the tail-pause postmortem's accounting contract:
//! on real runs, whatever the configuration, the per-bucket energy
//! attribution must conserve — bucket sums telescope back to exactly
//! the run's own [`EnergyAccount`] — and the worst-pause list must obey
//! its top-K/ordering invariants. Energy is charged once per collection
//! (in `System::charge_gc_energy`), so per-pause deltas summed over the
//! histogram partition can only disagree with the final account through
//! f64 rounding; the tolerance here is relative 1e-9.

use charon_gc::collector::{CollectorKind, GcKind};
use charon_gc::system::System;
use charon_sim::hist::bucket_index;
use charon_sim::time::Ps;
use charon_workloads::spec::by_short;
use charon_workloads::{run_workload, Run, RunOptions, RunResult};
use proptest::prelude::*;

const SHORTS: [&str; 2] = ["BS", "KM"];
const PLATFORMS: [&str; 3] = ["DDR4", "Charon", "Charon-CPU-side"];

fn system_by_label(label: &str) -> charon_gc::system::System {
    use charon_gc::system::System;
    match label {
        "DDR4" => System::ddr4(),
        "Charon" => System::charon(),
        "Charon-CPU-side" => System::cpu_side(),
        other => panic!("unknown platform {other}"),
    }
}

fn run(short: &str, platform: &str, top_k: usize) -> RunResult {
    let opts = RunOptions { supersteps: Some(2), postmortem: Some(top_k), ..Default::default() };
    run_workload(&by_short(short).unwrap(), system_by_label(platform), &opts).expect("run completes")
}

proptest! {
    // Each case is a full (short) workload run; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bucketed_energy_conserves_on_real_runs(
        which in 0usize..SHORTS.len(),
        plat in 0usize..PLATFORMS.len(),
        top_k in 1usize..6,
    ) {
        let r = run(SHORTS[which], PLATFORMS[plat], top_k);
        let pm = r.profile.as_ref().and_then(|p| p.postmortem.as_ref()).expect("postmortem enabled");
        prop_assert_eq!(pm.top_k(), top_k);

        // Per-bucket energy sums to the per-kind total, kinds sum to the
        // run's account — for the grand total AND component-wise.
        let mut pauses = 0;
        for kind in [GcKind::Minor, GcKind::Major] {
            let by_kind = pm.energy_by_kind(kind).total_j();
            let bucket_sum: f64 = pm.energy_buckets(kind).iter().map(|(_, _, _, e)| e.total_j()).sum();
            prop_assert!(
                (by_kind - bucket_sum).abs() <= by_kind.abs() * 1e-9 + 1e-15,
                "{kind}: buckets {bucket_sum} J != kind total {by_kind} J"
            );
            pauses += pm.pauses(kind);
        }
        let total = pm.energy_total();
        let run_total = &r.energy;
        for (got, want, name) in [
            (total.dram_j, run_total.dram_j, "dram"),
            (total.core_active_j, run_total.core_active_j, "core_active"),
            (total.core_idle_j, run_total.core_idle_j, "core_idle"),
            (total.uncore_j, run_total.uncore_j, "uncore"),
            (total.charon_j, run_total.charon_j, "charon"),
        ] {
            prop_assert!(
                (got - want).abs() <= want.abs() * 1e-9 + 1e-15,
                "{name}: attributed {got} J != run account {want} J"
            );
        }

        // Every pause landed in a bucket, and the count partition agrees.
        prop_assert_eq!(pauses as usize, (r.minor.1 + r.major.1), "every collection is attributed");

        // The worst list is capped at top_k, sorted longest-first, and
        // each record sits in the bucket the shared partition says.
        for kind in [GcKind::Minor, GcKind::Major] {
            let worst = pm.worst(kind);
            prop_assert!(worst.len() <= top_k);
            prop_assert!(worst.windows(2).all(|w| w[0].wall >= w[1].wall), "{kind}: worst not sorted");
            let buckets = pm.energy_buckets(kind);
            for rec in worst {
                let b = bucket_index(rec.wall.0);
                prop_assert!(
                    buckets.iter().any(|&(i, _, _, _)| i == b),
                    "{kind}: worst pause bucket {b} missing from the energy table"
                );
            }
        }
    }
}

/// Every event carries its own deltas whether or not a postmortem is
/// asked for: with it off, the per-event energy sums to the run's
/// account, and the per-event unit-pool busy time to the device's, under
/// the moving and the concurrent collector alike. The cms runs are long
/// enough (10 steps) for a concurrent cycle, whose steps run between
/// pauses, to complete.
#[test]
fn event_deltas_conserve_with_postmortem_off() {
    for (collector, steps) in [(CollectorKind::Ps, 4), (CollectorKind::Cms, 10)] {
        for short in SHORTS {
            let opts = RunOptions { supersteps: Some(steps), collector, ..Default::default() };
            let mut run = Run::new(&by_short(short).unwrap(), System::charon(), &opts);
            run.drive().expect("run completes");
            if collector == CollectorKind::Cms {
                assert!(run.gc.concmark.cycles_started > 0, "{short}: no concurrent cycle");
            }
            let r = run.result();
            assert!(r.profile.is_none(), "nothing asked for a profile");
            let events = &run.gc.events;
            assert!(!events.is_empty(), "{short}/{collector}: no collections");

            let mut energy = charon_sim::energy::EnergyAccount::default();
            for e in events {
                energy.accumulate(&e.energy);
            }
            for (got, want, name) in [
                (energy.dram_j, r.energy.dram_j, "dram"),
                (energy.core_active_j, r.energy.core_active_j, "core_active"),
                (energy.core_idle_j, r.energy.core_idle_j, "core_idle"),
                (energy.uncore_j, r.energy.uncore_j, "uncore"),
                (energy.charon_j, r.energy.charon_j, "charon"),
            ] {
                assert!(
                    (got - want).abs() <= want.abs() * 1e-9 + 1e-15,
                    "{short}/{collector} {name}: events {got} J != run account {want} J"
                );
            }

            let device = r.device.as_ref().expect("Charon has a device");
            for (class, pool) in device.units.iter().enumerate() {
                let busy: Ps = events
                    .iter()
                    .map(|e| e.units.expect("Charon events carry units")[class].busy)
                    .sum();
                assert_eq!(busy, pool.busy, "{short}/{collector}: unit class {class} busy");
            }
            assert!(device.units.iter().any(|u| u.busy > Ps::ZERO), "{short}/{collector}: nothing offloaded");
        }
    }
}
