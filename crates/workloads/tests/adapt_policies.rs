//! Integration contract of the adaptive offload controller
//! ([`charon_gc::adapt`]) over full workload runs:
//!
//! * the [`PolicyKind::Static`] policy is a timing no-op — fingerprints
//!   stay bit-identical to the committed baselines,
//! * the [`PolicyKind::Bandit`] policy replays bit-for-bit from one seed,
//! * [`PolicyKind::Census`] beats the static mask on the phase-shifting
//!   workload by the advertised margin, and
//! * no policy ever re-enables a unit class the device watchdog declared
//!   dead.

use charon_gc::adapt::PolicyKind;
use charon_gc::system::System;
use charon_sim::faults::{FaultSite, RecoveryConfig};
use charon_workloads::parmatrix::system_by_label;
use charon_workloads::spec::{by_short, phase_shift};
use charon_workloads::{autotune, run_workload, RunOptions};
use proptest::prelude::*;

fn opts() -> RunOptions {
    RunOptions { supersteps: Some(2), ..Default::default() }
}

/// A slice of the committed baselines from `fingerprint_baseline.rs`:
/// attaching a `Static` controller (census on, journal on) must not move
/// a single picosecond on any platform class.
const STATIC_BASELINES: [(&str, &str, u64, usize, usize, u64); 3] = [
    ("BS", "DDR4", 685110530, 1, 0, 8301176),
    ("BS", "Charon", 205784564, 1, 0, 8301176),
    ("CC", "Charon", 5274700853, 1, 0, 15862608),
];

#[test]
fn static_policy_fingerprints_match_committed_baselines() {
    for &(wl, platform, gc_ps, minors, majors, alloc) in &STATIC_BASELINES {
        let spec = by_short(wl).unwrap();
        let o = RunOptions { census: true, policy: Some(PolicyKind::Static), ..opts() };
        let r = run_workload(&spec, system_by_label(platform).unwrap(), &o).unwrap();
        assert_eq!(r.fingerprint(), (wl, platform, gc_ps, minors, majors, alloc));
        let journal = r.decisions.expect("controller attached");
        assert!(!journal.decisions.is_empty(), "every GC is journaled");
        assert_eq!(journal.mask_switches(), 0, "static never switches");
    }
}

#[test]
fn census_threshold_beats_static_on_phase_shift() {
    let rep = autotune(&phase_shift(), System::charon, PolicyKind::Census, &RunOptions::default(), 1).unwrap();
    assert!(
        rep.gc_time_delta_pct() <= -5.0,
        "census must cut PS gc_time by >= 5% over static, got {:+.1}%",
        rep.gc_time_delta_pct()
    );
    let journal = rep.adaptive.decisions.as_ref().expect("adaptive journal");
    assert!(journal.mask_switches() >= 2, "PS must force at least one switch each way");
}

#[test]
fn controller_never_enables_watchdog_dead_units() {
    let mut sys = System::charon();
    // A near-certain unit-fault rate plus a hair-trigger watchdog gets
    // unit classes declared dead early in the run; the controller must
    // keep them clamped off from the first dead verdict onwards.
    let recovery = RecoveryConfig { retry_budget: 0, watchdog_threshold: 1 };
    sys.inject_faults(FaultSite::Unit.arm(0xDEAD, 0.95), recovery);
    let o = RunOptions { policy: Some(PolicyKind::Census), ..RunOptions::default() };
    let r = run_workload(&phase_shift(), sys, &o).unwrap();
    let journal = r.decisions.expect("controller attached");
    assert!(
        journal.decisions.iter().any(|d| d.unit_dead.iter().any(|&x| x)),
        "fault schedule failed to kill any unit; the clamp assertion below would be vacuous"
    );
    for d in &journal.decisions {
        for (p, &dead) in charon_core::packet::PrimType::ALL.iter().zip(&d.unit_dead) {
            assert!(!(dead && d.chosen.get(*p)), "GC #{}: decision enables dead unit {p:?}", d.seq);
        }
    }
}

proptest! {
    // Each case is two full PS runs; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn bandit_decisions_replay_bit_for_bit(seed in any::<u64>()) {
        let spec = phase_shift();
        let o = RunOptions {
            supersteps: Some(8),
            policy: Some(PolicyKind::Bandit),
            policy_seed: seed,
            ..Default::default()
        };
        let a = run_workload(&spec, System::charon(), &o).unwrap();
        let b = run_workload(&spec, System::charon(), &o).unwrap();
        prop_assert_eq!(a.gc_time, b.gc_time, "same seed must replay the same timing");
        let (ja, jb) = (a.decisions.unwrap(), b.decisions.unwrap());
        prop_assert_eq!(ja.decisions.len(), jb.decisions.len());
        for (da, db) in ja.decisions.iter().zip(&jb.decisions) {
            prop_assert_eq!(da.chosen, db.chosen, "GC #{} chose a different mask", da.seq);
            prop_assert_eq!(da.realized_pause, db.realized_pause);
        }
    }
}
