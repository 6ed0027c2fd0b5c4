//! The integrity subsystem's end-to-end contract:
//!
//! 1. **Zero-rate bit-identity** — arming the corruption injector at all-
//!    zero rates with the checksum/canary detectors ON must not move a
//!    single picosecond: every committed workload × platform fingerprint
//!    from `fingerprint_baseline.rs` must still hold exactly.
//! 2. **Detection** — without the shadow oracle, the checksum layer
//!    detects ≥ 95% of the injected live-region corruptions and the
//!    repair ladder recovers every detected one.
//! 3. **Oracle** — with the shadow oracle armed, *nothing* escapes.
//! 4. **Ledger** — the per-collection recovery deltas add up to the
//!    run's `System::recovery`, re-arms included.

use charon_gc::breakdown::RecoverySummary;
use charon_gc::integrity::IntegrityConfig;
use charon_gc::system::System;
use charon_sim::faults::{CorruptionRates, CorruptionSite};
use charon_workloads::chaos::ChaosOptions;
use charon_workloads::run::Run;
use charon_workloads::spec::by_short;
use charon_workloads::{run_chaos_campaign, run_workload, RunOptions};

fn system_by_label(label: &str) -> System {
    match label {
        "DDR4" => System::ddr4(),
        "HMC" => System::hmc(),
        "Charon" => System::charon(),
        "Charon-CPU-side" => System::cpu_side(),
        "Ideal" => System::ideal(),
        other => panic!("unknown platform {other}"),
    }
}

/// The same table `fingerprint_baseline.rs` pins: `(workload, platform,
/// gc_time ps, minor count, major count, allocated bytes)` at
/// supersteps=2, default heap, 8 GC threads.
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

/// Detection charges no simulated time and zero-rate sites never draw
/// from their RNG streams, so an armed-but-idle integrity layer is
/// invisible: all 15 committed fingerprints must survive it bit-exact.
#[test]
fn integrity_armed_zero_rate_fingerprints_match_committed_baselines() {
    let mut mismatches = Vec::new();
    for &(wl, platform, gc_ps, minors, majors, alloc) in &BASELINES {
        let spec = by_short(wl).unwrap();
        let mut sys = system_by_label(platform);
        sys.enable_integrity(0xC0DE, CorruptionRates::zero(), IntegrityConfig::default());
        let opts = RunOptions { supersteps: Some(2), ..Default::default() };
        let r = run_workload(&spec, sys, &opts).unwrap();
        let got = r.fingerprint();
        let want = (wl, platform, gc_ps, minors, majors, alloc);
        if got != want {
            mismatches.push(format!("  {want:?}\n  got {got:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} fingerprint(s) drifted with the integrity layer armed at zero rates:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The shadow oracle mode must additionally leave the fingerprints
/// untouched at zero rates — it re-executes primitives but charges
/// nothing when nothing was corrupted.
#[test]
fn shadow_oracle_zero_rate_is_also_timing_invisible() {
    for wl in ["BS", "KM"] {
        let spec = by_short(wl).unwrap();
        let base = BASELINES.iter().find(|b| b.0 == wl && b.1 == "Charon").unwrap();
        let mut sys = System::charon();
        let config = IntegrityConfig { shadow_oracle: true, ..Default::default() };
        sys.enable_integrity(7, CorruptionRates::zero(), config);
        let opts = RunOptions { supersteps: Some(2), ..Default::default() };
        let r = run_workload(&spec, sys, &opts).unwrap();
        assert_eq!(r.fingerprint(), (base.0, base.1, base.2, base.3, base.4, base.5));
    }
}

fn campaign_opts() -> ChaosOptions {
    ChaosOptions {
        rates: vec![0.05],
        run: RunOptions { supersteps: Some(2), ..Default::default() },
        ..Default::default()
    }
}

/// Acceptance: without the oracle, the checksum/canary layer detects
/// ≥ 95% of the injected live-region corruptions, the ladder repairs
/// every detected one, and every run still ends with a traversable heap.
#[test]
fn checksum_detection_and_repair_meet_the_bar() {
    let specs = [by_short("BS").unwrap(), by_short("KM").unwrap()];
    let report = run_chaos_campaign(&specs, &campaign_opts(), 4);
    assert!(report.pass(), "chaos campaign failed:\n{report}");
    assert!(report.injected() > 0, "5% over two workloads must inject:\n{report}");
    assert!(report.detection_rate() >= 0.95, "detection below 95%:\n{report}");
    assert_eq!(report.repaired(), report.detected(), "every detected corruption must be repaired:\n{report}");
    for c in &report.cells {
        assert!(c.graph_ok, "{}/{} rate {}: final graph corrupt", c.workload, c.site, c.rate);
    }
}

/// Acceptance: with the shadow oracle armed the escaped-corruption count
/// is zero — every injected flip is either caught or provably benign.
#[test]
fn oracle_campaign_has_zero_escapes() {
    let specs = [by_short("BS").unwrap(), by_short("KM").unwrap()];
    let opts = ChaosOptions { oracle: true, ..campaign_opts() };
    let report = run_chaos_campaign(&specs, &opts, 4);
    assert!(report.pass(), "oracle campaign failed:\n{report}");
    assert!(report.injected() > 0);
    assert_eq!(report.escaped(), 0, "the oracle contract is zero escapes:\n{report}");
}

/// Every recovery the run books lands in exactly one collection's
/// breakdown — the re-arms the GC-prologue tick books included, which
/// is what the chaos cells' `rearmed` count and the gclog's `rearmed[…]`
/// suffix read. (Degradation is a state, not a count: a unit that died
/// and was re-armed reads degraded in its collection but not at the end.)
#[test]
fn rearm_run_breakdowns_sum_to_the_system_ledger() {
    let spec = by_short("BS").unwrap();
    let mut sys = System::charon();
    let rates = CorruptionRates::only(CorruptionSite::CopyPayload, 0.3);
    sys.enable_integrity(0xC0DE, rates, IntegrityConfig::default());
    sys.set_rearm(1);
    let mut run = Run::new(&spec, sys, &RunOptions { supersteps: Some(8), ..Default::default() });
    run.drive().unwrap();
    let r = run.result();
    let ledger = run.gc.sys.recovery;
    assert!(ledger.rearmed.iter().sum::<u64>() > 0, "quarantines at 30% must re-arm a unit: {ledger:?}");
    let counts = |s: RecoverySummary| RecoverySummary { degraded: [false; 4], ..s };
    let booked = r.minor_breakdown.recovery() + r.major_breakdown.recovery();
    assert_eq!(counts(booked), counts(ledger));
}
