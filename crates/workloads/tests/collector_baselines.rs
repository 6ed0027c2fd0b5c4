//! Committed timing baselines at full workload length, pinned bit-exact:
//! the non-PS collectors (`--collector ms|cms|g1`) and the PS cells whose
//! majors fire — short runs never fill the old generation far enough to
//! trigger a major or a concurrent cycle, so unlike
//! `fingerprint_baseline.rs` these cells run the spec's own superstep
//! count.
//!
//! The cms rows are the tentpole check: the free-list old generation and
//! the incremental concurrent marker flow through the same
//! run/census/postmortem plumbing as PS, and their simulated outcome is
//! as reproducible. When a deliberate timing change lands, re-capture
//! with `charon-cli run <W> --platform <P> --collector <C> --json`.

use charon_gc::breakdown::Bucket;
use charon_gc::collector::CollectorKind;
use charon_gc::system::System;
use charon_workloads::parmatrix::system_by_label;
use charon_workloads::spec::by_short;
use charon_workloads::{run_workload, RunOptions};

fn opts(collector: CollectorKind) -> RunOptions {
    RunOptions { collector, ..Default::default() }
}

/// `(collector, workload, platform, gc_time ps, minor count, major
/// count, allocated bytes)` at full length, default heap, 8 GC threads.
///
/// The ps rows pin `major.rs` timing (the 15 short PS fingerprints are
/// 1 minor / 0 majors), and the Charon rows pin the offloaded/blocked
/// path of every old-generation collector. Captured at commit `d8ae845`,
/// before the pause-context refactor touched any of it. The two g1 rows
/// were re-captured when g1lite began dirtying the card of an evacuated
/// copy's field that holds a young referent (2553686448 and 1594155233
/// ps before).
const BASELINES: [(CollectorKind, &str, &str, u64, usize, usize, u64); 18] = [
    (CollectorKind::Cms, "BS", "DDR4", 5012736392, 7, 3, 46332904),
    (CollectorKind::Cms, "BS", "HMC", 3745665157, 7, 3, 46332904),
    (CollectorKind::Cms, "PR", "DDR4", 21009918587, 7, 6, 79625600),
    (CollectorKind::Cms, "PR", "HMC", 18883160207, 7, 6, 79625600),
    (CollectorKind::Cms, "PS", "DDR4", 10072528238, 8, 1, 67682712),
    (CollectorKind::Cms, "PS", "HMC", 8751733288, 8, 1, 67682712),
    (CollectorKind::Ms, "BS", "DDR4", 4760417046, 7, 1, 46332904),
    (CollectorKind::Ms, "BS", "HMC", 3346904781, 7, 1, 46332904),
    (CollectorKind::G1, "KM", "DDR4", 2564749555, 5, 1, 29430312),
    (CollectorKind::G1, "KM", "HMC", 1611111154, 5, 1, 29430312),
    (CollectorKind::Ps, "BS", "DDR4", 5893683596, 6, 1, 46332904),
    (CollectorKind::Ps, "BS", "Charon", 1676237246, 6, 1, 46332904),
    (CollectorKind::Ps, "KM", "DDR4", 3117527392, 4, 1, 29430312),
    (CollectorKind::Ps, "KM", "Charon", 1312062700, 4, 1, 29430312),
    (CollectorKind::Ps, "LR", "DDR4", 11995985512, 6, 3, 63253544),
    (CollectorKind::Ps, "LR", "Charon", 3515347200, 6, 3, 63253544),
    (CollectorKind::Cms, "BS", "Charon", 1514935803, 7, 3, 46332904),
    (CollectorKind::Ms, "BS", "Charon", 1302471555, 7, 1, 46332904),
];

#[test]
fn collector_fingerprints_match_committed_baselines() {
    let mut mismatches = Vec::new();
    for &(collector, wl, platform, gc_ps, minors, majors, alloc) in &BASELINES {
        let spec = by_short(wl).unwrap();
        let r = run_workload(&spec, system_by_label(platform).unwrap(), &opts(collector)).unwrap();
        let got = r.fingerprint();
        let want = (wl, platform, gc_ps, minors, majors, alloc);
        if got != want {
            mismatches.push(format!("  {collector} {want:?}\n  got     {got:?}"));
        }
        assert!(r.major.1 == majors && majors > 0, "{collector} {wl}/{platform}: the old-gen collector must fire");
    }
    assert!(
        mismatches.is_empty(),
        "{} collector fingerprint(s) drifted from the committed baselines:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The cms regime the paper's Table 3 never reaches: with the sweep's
/// liveness taken from the mark bitmaps, *Bitmap Count* must be the
/// dominant offload-primitive bucket of the major breakdown — ahead of
/// Copy (cms never compacts), Search, and Scan&Push.
#[test]
fn cms_majors_are_bitmap_count_dominant() {
    let spec = by_short("BS").unwrap();
    let r = run_workload(&spec, System::ddr4(), &opts(CollectorKind::Cms)).unwrap();
    assert!(r.major.1 > 0, "no majors fired");
    let bd = &r.major_breakdown;
    let bc = bd.get(Bucket::BitmapCount).0;
    assert!(bc > 0, "cms sweep must issue Bitmap Count");
    for other in [Bucket::Copy, Bucket::Search, Bucket::ScanPush] {
        assert!(
            bc > bd.get(other).0,
            "Bitmap Count ({bc} ps) must dominate {other} ({} ps) in the cms major breakdown",
            bd.get(other).0
        );
    }
}

/// One collector must never contaminate another: a cms run and a ps run
/// of the same cell share every byte of mutator work (same allocation
/// stream), and the ps cell keeps its committed short-run fingerprint
/// regardless of what ran before it in the same process.
#[test]
fn collectors_share_the_allocation_stream_and_stay_isolated() {
    let spec = by_short("BS").unwrap();
    let cms = run_workload(&spec, System::ddr4(), &opts(CollectorKind::Cms)).unwrap();
    let ps = run_workload(&spec, System::ddr4(), &opts(CollectorKind::Ps)).unwrap();
    assert_eq!(cms.allocated_bytes, ps.allocated_bytes, "the mutator is collector-blind");
    assert_eq!(cms.mutator_time, ps.mutator_time, "mutator work is identical; only GC differs");
    // The short-run PS fingerprint (fingerprint_baseline.rs row 1) holds
    // after non-PS collectors ran in this very process.
    let short = RunOptions { supersteps: Some(2), ..Default::default() };
    let r = run_workload(&spec, System::ddr4(), &short).unwrap();
    assert_eq!(r.fingerprint(), ("BS", "DDR4", 685110530, 1, 0, 8301176));
}
