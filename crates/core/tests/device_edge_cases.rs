//! Device edge cases: degenerate offloads, cross-cube extremes, and the
//! structure-mode matrix.

use charon_core::device::{CharonDevice, OffloadCall, Placement, ScanAction, ScanRef, StructureMode};
use charon_core::PrimType;
use charon_heap::VAddr;
use charon_sim::config::SystemConfig;
use charon_sim::host::HostTiming;
use charon_sim::time::Ps;

fn setup(structure: StructureMode) -> (HostTiming, CharonDevice) {
    let mut cfg = SystemConfig::table2_hmc();
    cfg.charon.structure = structure;
    (HostTiming::new(&cfg), CharonDevice::new(&cfg, Placement::MemorySide))
}

/// One fault-free offload; returns when the host thread unblocks.
fn run(dev: &mut CharonDevice, host: &mut HostTiming, now: Ps, call: OffloadCall<'_>) -> Ps {
    dev.offload(host, now, call).expect("routed cube has units").done
}

fn copy(src: u64, dst: u64, bytes: u64) -> OffloadCall<'static> {
    OffloadCall::Copy { src: VAddr(src), dst: VAddr(dst), bytes }
}

fn search(start: u64, scanned_bytes: u64) -> OffloadCall<'static> {
    OffloadCall::Search { start: VAddr(start), scanned_bytes }
}

#[test]
fn minimum_size_offloads_complete() {
    let (mut host, mut dev) = setup(StructureMode::Table4);
    let t1 = run(&mut dev, &mut host, Ps::ZERO, copy(0x1000, 0x2000, 8));
    assert!(t1 > Ps::ZERO);
    let t2 = run(&mut dev, &mut host, t1, search(0x3000, 8));
    assert!(t2 > t1);
    let t3 = run(&mut dev, &mut host, t2, OffloadCall::BitmapCount { spans: &[(VAddr(0x4000), 8)] });
    assert!(t3 > t2);
    let t4 =
        run(&mut dev, &mut host, t3, OffloadCall::ScanPush { fields_start: VAddr(0x5000), field_bytes: 8, refs: &[] });
    assert!(t4 > t3, "an empty reference list still loads the fields");
    assert_eq!(dev.stats().total_offloads(), 4);
}

#[test]
fn copy_spanning_every_cube_still_completes() {
    let (mut host, mut dev) = setup(StructureMode::Table4);
    let page = 1u64 << SystemConfig::table2_hmc().hmc.cube_interleave_bits;
    // A copy whose source range crosses all four cubes.
    let bytes = 4 * page;
    let t = run(&mut dev, &mut host, Ps::ZERO, copy(0, 8 * page, bytes));
    let gbps = 2.0 * bytes as f64 / t.as_secs() / 1e9;
    assert!(gbps > 30.0, "cross-cube copy unreasonably slow: {gbps:.1} GB/s");
    assert!(host.fabric.stats().intercube.total_bytes() > 0, "remote chunks must cross spokes");
}

#[test]
fn every_structure_mode_serves_all_primitives() {
    for structure in [StructureMode::Table4, StructureMode::Unified, StructureMode::Distributed] {
        let (mut host, mut dev) = setup(structure);
        let refs = [ScanRef { referent: VAddr(0x5000), action: ScanAction::None }];
        let spans = [(VAddr(0x3000), 64), (VAddr(0x7000), 64)];
        run(&mut dev, &mut host, Ps::ZERO, copy(0x1000, 0x9000, 4096));
        run(&mut dev, &mut host, Ps::ZERO, search(0x2000, 2048));
        run(&mut dev, &mut host, Ps::ZERO, OffloadCall::BitmapCount { spans: &spans });
        run(
            &mut dev,
            &mut host,
            Ps::ZERO,
            OffloadCall::ScanPush { fields_start: VAddr(0x4000), field_bytes: 64, refs: &refs },
        );
        for p in PrimType::ALL {
            assert_eq!(dev.stats().prim(p).offloads, 1, "{structure:?} {p}");
        }
        assert!(dev.stats().units.iter().all(|u| u.busy > Ps::ZERO), "{structure:?}: every unit class ran");
    }
}

#[test]
fn distributed_tlb_has_no_remote_lookups_for_local_streams() {
    let (mut host, mut dev) = setup(StructureMode::Distributed);
    // A copy entirely within cube 0's first page.
    run(&mut dev, &mut host, Ps::ZERO, copy(0, 0x10000, 32 * 1024));
    let (lookups, remote) = dev.tlb_stats();
    assert!(lookups > 0);
    assert_eq!(remote, 0, "VA-routed distributed slices never cross links");
}

#[test]
fn unified_tlb_pays_for_offcenter_units() {
    let (mut host, mut dev) = setup(StructureMode::Unified);
    let page = 1u64 << SystemConfig::table2_hmc().hmc.cube_interleave_bits;
    // Unit scheduled on cube 1 (source there), translating via cube 0.
    run(&mut dev, &mut host, Ps::ZERO, copy(page, page + 0x10000, 32 * 1024));
    let (lookups, remote) = dev.tlb_stats();
    assert!(lookups > 0);
    assert!(remote > 0, "off-center units must reach the unified TLB over links");
}

#[test]
fn stats_bytes_account_for_payloads() {
    let (mut host, mut dev) = setup(StructureMode::Table4);
    run(&mut dev, &mut host, Ps::ZERO, copy(0x1000, 0x2_0000, 10_000));
    assert_eq!(dev.stats().prim(PrimType::Copy).bytes, 20_000, "copy counts read+write");
    run(&mut dev, &mut host, Ps::ZERO, search(0x8000, 4096));
    assert_eq!(dev.stats().prim(PrimType::Search).bytes, 4096);
}

#[test]
fn responses_unblock_in_submission_order_per_unit_saturation() {
    // Hammer one cube's copy units; completion times must be
    // non-decreasing with submission order under saturation.
    let (mut host, mut dev) = setup(StructureMode::Table4);
    let mut last = Ps::ZERO;
    for i in 0..16u64 {
        let t = run(&mut dev, &mut host, Ps::ZERO, copy(i * 8192, 0x40_0000 + i * 8192, 8192));
        assert!(t >= last, "offload {i} finished before its predecessor");
        last = t;
    }
}

#[test]
fn bitmap_count_never_probes_host_caches() {
    // §4.1/§4.5: "no clflush is necessary while executing Bitmap Count"
    // because the host never writes the bitmaps during the phase.
    let (mut host, mut dev) = setup(StructureMode::Table4);
    // Dirty a host line inside the bitmap span.
    host.mem_access(0, Ps::ZERO, 0x4000, 8, charon_sim::cache::AccessKind::Write);
    let flushed_before = host.cache_stats().0.flushed + host.cache_stats().1.flushed + host.cache_stats().2.flushed;
    run(&mut dev, &mut host, Ps::from_us(1.0), OffloadCall::BitmapCount { spans: &[(VAddr(0x4000), 64)] });
    let s = host.cache_stats();
    let flushed_after = s.0.flushed + s.1.flushed + s.2.flushed;
    assert_eq!(flushed_before, flushed_after, "Bitmap Count must not clflush");

    // Copy, in contrast, probes its ranges.
    run(&mut dev, &mut host, Ps::from_us(2.0), copy(0x4000, 0x9000, 64));
    let s = host.cache_stats();
    assert!(s.0.flushed + s.1.flushed + s.2.flushed > flushed_after, "Copy must clflush");
}

#[test]
fn bulk_flush_cost_matches_paper_estimate() {
    // §4.6: flushing a 24 MB LLC takes ~300 us at 80 GB/s. Our Table 2 LLC
    // is 8 MB, so a fully-dirty hierarchy drains in roughly a third of
    // that over the same link.
    let cfg = SystemConfig::table2_hmc();
    let mut host = HostTiming::new(&cfg);
    // Dirty a large footprint.
    let mut now = Ps::ZERO;
    for i in 0..200_000u64 {
        now = host.mem_access((i % 8) as usize, now, i * 64, 8, charon_sim::cache::AccessKind::Write);
    }
    let (_, dirty, done) = host.flush_all_caches(now);
    assert!(dirty > 100_000, "hierarchy should be mostly dirty: {dirty}");
    let flush_time = done - now;
    // dirty * 64 B at 80 GB/s.
    let expect = charon_sim::time::Bandwidth::gbps(80.0).transfer_time(dirty * 64);
    assert_eq!(flush_time, expect);
    assert!(flush_time < Ps::from_us(300.0), "well under the paper's 24 MB figure");
}

#[test]
fn general_component_energy_is_negligible() {
    // §5.3: queues + TLB + bitmap cache contribute at most a few percent
    // of Charon's energy (the paper measures a 3.18% maximum on ALS).
    let (mut host, mut dev) = setup(StructureMode::Table4);
    // A realistic mix: big copies, searches, bitmap scans, object scans.
    for i in 0..24u64 {
        run(&mut dev, &mut host, Ps::ZERO, copy(i * 65536, 0x100_0000 + i * 65536, 48 * 1024));
    }
    run(&mut dev, &mut host, Ps::ZERO, search(0x8000, 32 * 1024));
    for i in 0..64u64 {
        run(&mut dev, &mut host, Ps::ZERO, OffloadCall::BitmapCount { spans: &[(VAddr(0x20_0000 + i * 64), 64)] });
    }
    // Settled by every offload: the plain stats read is the account.
    let e = dev.stats().energy;
    assert!(e.total_pj() > 0.0);
    let general = e.general_fraction();
    assert!(general < 0.05, "general components should be negligible (paper max 3.18%), got {:.2}%", general * 100.0);
    assert!(general > 0.0, "but not zero — the structures do switch");
}
