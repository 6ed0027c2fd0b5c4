//! The integrity subsystem's end-to-end contract:
//!
//! 1. **Zero-rate bit-identity** — arming the corruption injector at a
//!    zero rate with the checksum/canary detectors ON must not move a
//!    single picosecond: every committed workload × platform fingerprint
//!    from `fingerprint_baseline.rs` must still hold exactly, and each
//!    campaign tier's zero-rate control is the unarmed run.
//! 2. **Detection** — without the shadow oracle, the checksum layer
//!    detects ≥ 95% of the injected live-region corruptions and the
//!    repair ladder recovers every detected one.
//! 3. **Oracle** — with the shadow oracle armed, *nothing* escapes.
//! 4. **Ledger** — the per-collection recovery deltas add up to the
//!    run's `System::recovery`, re-arms included.

use charon_gc::breakdown::RecoverySummary;
use charon_gc::collector::GcKind;
use charon_gc::integrity::IntegrityConfig;
use charon_gc::system::System;
use charon_gc::verify::graph_signature;
use charon_sim::faults::CorruptionSite;
use charon_workloads::parmatrix::system_by_label;
use charon_workloads::run::Run;
use charon_workloads::spec::by_short;
use charon_workloads::{run_chaos_campaign, run_fault_campaign, run_workload, ChaosOptions, RunOptions};

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

/// Detection charges no simulated time and a zero-rate site never draws
/// from its RNG stream, so an armed-but-idle integrity layer is invisible:
/// all 15 committed fingerprints must survive it bit-exact. The rows take
/// turns at the armed site, so each site is armed on several of them.
#[test]
fn integrity_armed_zero_rate_fingerprints_match_committed_baselines() {
    let mut mismatches = Vec::new();
    for (i, &(wl, platform, gc_ps, minors, majors, alloc)) in BASELINES.iter().enumerate() {
        let spec = by_short(wl).unwrap();
        let mut sys = system_by_label(platform).expect("known platform");
        let site = CorruptionSite::ALL[i % CorruptionSite::ALL.len()];
        sys.enable_integrity(site.arm(0xC0DE, 0.0), IntegrityConfig::default());
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
/// untouched at a zero rate — it re-executes primitives but charges
/// nothing when nothing was corrupted.
#[test]
fn shadow_oracle_zero_rate_is_also_timing_invisible() {
    for wl in ["BS", "KM"] {
        let spec = by_short(wl).unwrap();
        let base = BASELINES.iter().find(|b| b.0 == wl && b.1 == "Charon").unwrap();
        for site in CorruptionSite::ALL {
            let mut sys = System::charon();
            let config = IntegrityConfig { shadow_oracle: true, ..Default::default() };
            sys.enable_integrity(site.arm(7, 0.0), config);
            let opts = RunOptions { supersteps: Some(2), ..Default::default() };
            let r = run_workload(&spec, sys, &opts).unwrap();
            assert_eq!(r.fingerprint(), (base.0, base.1, base.2, base.3, base.4, base.5), "{site}");
        }
    }
}

/// Each campaign tier's control — its zero-rate cell, armed like the cells
/// — is the unarmed run: `run_workload`'s fingerprint on a plain
/// `System::charon()` and the same final graph signature.
#[test]
fn zero_rate_controls_equal_an_unarmed_run() {
    let spec = by_short("BS").unwrap();
    let opts = RunOptions { supersteps: Some(2), ..Default::default() };
    let mut run = Run::new(&spec, System::charon(), &opts);
    run.drive().unwrap();
    let (r, sig) = (run.result(), graph_signature(&run.heap).unwrap().0);
    let unarmed = (r.workload, r.gc_time, r.minor.1, r.major.1, r.allocated_bytes, sig);
    let timing = run_fault_campaign(&spec, 42, &opts, 2).unwrap().baseline;
    let chaos = ChaosOptions { rates: vec![0.05], run: opts, ..Default::default() };
    let corruption = run_chaos_campaign(&[spec], &chaos, 2).unwrap().baselines.remove(0);
    for (tier, c) in [("timing", timing), ("corruption", corruption)] {
        let count = |kind| c.event_kinds.iter().filter(|&&k| k == kind).count();
        let sig = c.signatures.last().expect("one checkpoint per stage").0;
        let control = (c.workload, c.gc_time, count(GcKind::Minor), count(GcKind::Major), c.allocated_bytes, sig);
        assert_eq!(control, unarmed, "{tier} control");
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
    let report = run_chaos_campaign(&specs, &campaign_opts(), 4).unwrap();
    assert!(report.pass(), "chaos campaign failed:\n{report}");
    assert!(report.injected() > 0, "5% over two workloads must inject:\n{report}");
    assert!(report.detection_rate() >= 0.95, "detection below 95%:\n{report}");
    assert_eq!(report.repaired(), report.detected(), "every detected corruption must be repaired:\n{report}");
    for c in &report.cells {
        let cell = &c.cell;
        assert!(c.case.is_some(), "{}/{} rate {}: a graph checkpoint failed", cell.spec.short, cell.label, cell.rate);
    }
}

/// Acceptance: with the shadow oracle armed the escaped-corruption count
/// is zero — every injected flip is either caught or provably benign.
#[test]
fn oracle_campaign_has_zero_escapes() {
    let specs = [by_short("BS").unwrap(), by_short("KM").unwrap()];
    let opts = ChaosOptions { oracle: true, ..campaign_opts() };
    let report = run_chaos_campaign(&specs, &opts, 4).unwrap();
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
    sys.enable_integrity(CorruptionSite::CopyPayload.arm(0xC0DE, 0.3), IntegrityConfig::default());
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

/// What one site's run books: journal events `[Corruption{detected},
/// Corruption{benign}, Repair{rung 1}, Repair{rung 2}, Repair{rung 3}]`,
/// then the site's ledger `[injected, detected, repaired, benign]`, the
/// rung counts, quarantined extents and whether a unit degraded.
type SiteBooking = ([usize; 5], [u64; 4], [u64; 3], u64, bool);

/// Runs BS for 10 supersteps (the first MajorGC, where the bitmap site
/// fires) with corruption at `rate` on `site` and a telemetry journal
/// attached; `quarantine: false` sets a threshold rung 3 never reaches.
fn site_booking(site: CorruptionSite, rate: f64, shadow_oracle: bool, quarantine: bool) -> SiteBooking {
    use charon_sim::telemetry::{Event, Telemetry};
    let mut sys = System::charon();
    let journal = Telemetry::enabled();
    sys.set_telemetry(journal.clone());
    let quarantine_threshold = if quarantine { IntegrityConfig::default().quarantine_threshold } else { u32::MAX };
    sys.enable_integrity(site.arm(0xC0DE, rate), IntegrityConfig { shadow_oracle, quarantine_threshold });
    let mut run = Run::new(&by_short("BS").unwrap(), sys, &RunOptions { supersteps: Some(10), ..Default::default() });
    run.drive().unwrap();
    let mut events = [0; 5];
    for e in journal.events() {
        match e {
            Event::Corruption { detected, .. } => events[usize::from(!detected)] += 1,
            Event::Repair { rung, .. } => events[1 + usize::from(rung)] += 1,
            _ => {}
        }
    }
    let r = run.gc.sys.recovery;
    let i = site.index();
    let mut rest = r;
    for counter in
        [&mut rest.corrupt_injected, &mut rest.corrupt_detected, &mut rest.corrupt_repaired, &mut rest.corrupt_benign]
    {
        counter[i] = 0;
    }
    let rest = RecoverySummary { repair_rungs: [0; 3], quarantined_extents: 0, degraded: [false; 4], ..rest };
    assert!(rest.is_empty(), "{site}: booked outside its own site: {rest:?}");
    let ledger = [r.corrupt_injected[i], r.corrupt_detected[i], r.corrupt_repaired[i], r.corrupt_benign[i]];
    (events, ledger, r.repair_rungs, r.quarantined_extents, r.degraded.iter().any(|&d| d))
}

/// Pins what the integrity layer books — the journal's per-kind event
/// counts and the ledger — for every corruption site, with the checksum
/// detectors and with the shadow oracle, at 30 % with quarantine and at
/// 5 % without (where forwarding flips are proven benign and the bitmap
/// verify repairs hundreds of extents). The journal and the ledger do not
/// count one for one: a bitmap verify books all of its pending detections
/// under one `Corruption` event, an oracle verify that finds damage with
/// nothing pending books an event and no count, and a quarantine is a
/// `Repair` event with no repaired corruption. The checksum-only bitmap
/// row at 30 % is run at 5 %: at 30 % damage survives the end-of-mark
/// verify and trips `live_words_fast`'s begin-bit assertion in the compact
/// phase.
#[test]
fn integrity_bookings_are_pinned_per_site() {
    use CorruptionSite::{BitmapWord, CardByte, CopyPayload, ForwardPointer};
    const PINNED: [(CorruptionSite, f64, bool, bool, SiteBooking); 16] = [
        (BitmapWord, 0.05, false, true, ([1, 0, 0, 1, 1], [199, 199, 199, 0], [0, 97, 1], 1, true)),
        (ForwardPointer, 0.3, false, true, ([3, 0, 3, 0, 1], [3, 3, 3, 0], [3, 0, 1], 1, true)),
        (CardByte, 0.3, false, true, ([3, 0, 3, 0, 1], [3, 3, 3, 0], [3, 0, 1], 1, true)),
        (CopyPayload, 0.3, false, true, ([3, 0, 3, 0, 1], [3, 3, 3, 0], [3, 0, 1], 1, true)),
        (BitmapWord, 0.3, true, true, ([3, 0, 0, 3, 1], [3, 3, 3, 0], [0, 3, 1], 1, true)),
        (ForwardPointer, 0.3, true, true, ([3, 0, 3, 0, 1], [3, 3, 3, 0], [3, 0, 1], 1, true)),
        (CardByte, 0.3, true, true, ([3, 0, 3, 0, 1], [3, 3, 3, 0], [3, 0, 1], 1, true)),
        (CopyPayload, 0.3, true, true, ([3, 0, 3, 0, 1], [3, 3, 3, 0], [3, 0, 1], 1, true)),
        (BitmapWord, 0.05, false, false, ([1, 0, 0, 1, 0], [199, 199, 199, 0], [0, 97, 0], 0, false)),
        (ForwardPointer, 0.05, false, false, ([515, 37, 515, 0, 0], [552, 515, 515, 37], [515, 0, 0], 0, false)),
        (CardByte, 0.05, false, false, ([13, 0, 13, 0, 0], [13, 13, 13, 0], [13, 0, 0], 0, false)),
        (CopyPayload, 0.05, false, false, ([634, 0, 634, 0, 0], [634, 634, 634, 0], [634, 0, 0], 0, false)),
        (BitmapWord, 0.05, true, false, ([200, 0, 0, 200, 0], [199, 199, 199, 0], [0, 206, 0], 0, false)),
        (ForwardPointer, 0.05, true, false, ([552, 0, 552, 0, 0], [552, 552, 552, 0], [552, 0, 0], 0, false)),
        (CardByte, 0.05, true, false, ([13, 0, 13, 0, 0], [13, 13, 13, 0], [13, 0, 0], 0, false)),
        (CopyPayload, 0.05, true, false, ([634, 0, 634, 0, 0], [634, 634, 634, 0], [634, 0, 0], 0, false)),
    ];
    let mut drift = Vec::new();
    for &(site, rate, oracle, quarantine, want) in &PINNED {
        let got = site_booking(site, rate, oracle, quarantine);
        if got != want {
            drift.push(format!("  ({site:?}, {rate}, {oracle}, {quarantine}, {got:?}),"));
        }
    }
    assert!(drift.is_empty(), "integrity bookings drifted:\n{}", drift.join("\n"));
}
