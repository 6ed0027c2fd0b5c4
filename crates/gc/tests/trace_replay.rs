//! Trace-driven mode: a recorded collection replays to (nearly) the live
//! pause time on the same configuration, and re-times meaningfully on
//! others.

use charon_gc::collector::Collector;
use charon_gc::system::System;
use charon_gc::trace::replay;
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::klass::KlassKind;
use charon_heap::VAddr;

fn record_one(sys: System) -> (charon_gc::trace::GcTrace, charon_sim::time::Ps) {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(12 << 20));
    let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    let node = heap.klasses_mut().register("Node", KlassKind::Instance, 4, vec![0, 1]);
    let mut sys = sys;
    sys.record_traces = true;
    let mut gc = Collector::new(sys, &heap, 8);
    for i in 0..2500u32 {
        let a = gc.alloc(&mut heap, k, 120 + (i % 700)).unwrap();
        let n = gc.alloc(&mut heap, node, 0).unwrap();
        heap.store_ref_with_barrier(heap.ref_slots(n)[0], a);
        if i % 3 == 0 {
            heap.add_root(n);
        }
        if heap.root_count() > 300 {
            heap.set_root(heap.root_count() - 300, VAddr::NULL);
        }
    }
    gc.minor_gc(&mut heap);
    let live_wall = gc.events.last().unwrap().wall;
    let trace = gc.sys.traces.last().unwrap().clone();
    (trace, live_wall)
}

#[test]
fn replay_on_same_config_approximates_live_run() {
    let (trace, live) = record_one(System::ddr4());
    assert!(trace.primitive_count() > 100, "trace too thin: {}", trace.primitive_count());
    let (replayed, bd) = replay(&trace, &mut System::ddr4(), 8);
    // Replay starts from a cold machine and re-picks threads, so exact
    // equality is not expected — but it must land in the same ballpark.
    let ratio = replayed.0 as f64 / live.0 as f64;
    assert!((0.5..2.0).contains(&ratio), "replayed {replayed} vs live {live} (ratio {ratio:.2})");
    assert!(bd.get(charon_gc::Bucket::Copy).0 > 0);
}

#[test]
fn replay_recovers_the_platform_ordering() {
    // One trace, three machines: the cross-platform ordering of Fig. 12
    // re-emerges without re-running the collector.
    let (trace, _) = record_one(System::ddr4());
    let (t_ddr4, _) = replay(&trace, &mut System::ddr4(), 8);
    let (t_charon, _) = replay(&trace, &mut System::charon(), 8);
    let (t_ideal, _) = replay(&trace, &mut System::ideal(), 8);
    assert!(t_charon < t_ddr4, "Charon replay ({t_charon}) must beat DDR4 ({t_ddr4})");
    assert!(t_ideal < t_charon, "Ideal replay must lower-bound Charon");
}

#[test]
fn traces_record_one_entry_per_collection() {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
    let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    let mut sys = System::ddr4();
    sys.record_traces = true;
    let mut gc = Collector::new(sys, &heap, 4);
    for _ in 0..200 {
        let a = gc.alloc(&mut heap, k, 64).unwrap();
        heap.add_root(a);
    }
    gc.minor_gc(&mut heap);
    gc.major_gc(&mut heap);
    gc.minor_gc(&mut heap);
    assert_eq!(gc.sys.traces.len(), 3 + gc.events.len() - 3 /* alloc-triggered ones too */);
    assert_eq!(gc.sys.traces.len(), gc.events.len());
    assert!(gc.sys.traces.iter().all(|t| !t.is_empty()));
}

#[test]
fn recording_does_not_change_timing() {
    let run = |record: bool| {
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
        let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
        let mut sys = System::charon();
        sys.record_traces = record;
        let mut gc = Collector::new(sys, &heap, 8);
        for _ in 0..1500 {
            let a = gc.alloc(&mut heap, k, 150).unwrap();
            heap.add_root(a);
        }
        gc.minor_gc(&mut heap);
        gc.gc_total_time()
    };
    assert_eq!(run(false), run(true), "recording must be timing-transparent");
}

/// Builds the minor+major scenario at `gc_threads` threads on `sys`,
/// returning the collector (with traces recorded) after both collections.
fn record_minor_and_major(mut sys: System, gc_threads: usize) -> (Collector, JavaHeap) {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
    let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    sys.record_traces = true;
    let mut gc = Collector::new(sys, &heap, gc_threads);
    for _ in 0..1500u32 {
        let a = gc.alloc(&mut heap, k, 100).unwrap();
        heap.add_root(a);
    }
    gc.minor_gc(&mut heap);
    for i in 0..heap.root_count() / 2 {
        heap.set_root(i * 2, VAddr::NULL);
    }
    gc.major_gc(&mut heap);
    (gc, heap)
}

/// Replay fidelity (the differential contract): a recorded collection,
/// replayed at its live start time on a fresh system of the SAME
/// configuration, reproduces the live wall time exactly at
/// `gc_threads == 1`. The traces replay sequentially on ONE system so the
/// cache and epoch-meter state carries across collections exactly as it
/// did live; `Phase` ops re-perform the recorded flush kind, which is what
/// keeps the cache state in sync.
fn assert_live_equals_replay(make: fn() -> System) {
    let (gc, _heap) = record_minor_and_major(make(), 1);
    assert_eq!(gc.sys.traces.len(), gc.events.len());
    assert!(gc.events.len() >= 2, "scenario must trigger both collections");

    // A fresh same-config machine: built through a Collector on an
    // identical heap so the device's initialize() intrinsic runs with the
    // same global addresses.
    let replay_heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
    let mut replay_sys = Collector::new(make(), &replay_heap, 1).sys;
    for (trace, event) in gc.sys.traces.iter().zip(&gc.events) {
        let (wall, bd) = charon_gc::trace::replay_at(trace, &mut replay_sys, 1, event.start);
        assert_eq!(
            wall, event.wall,
            "replayed wall {wall} != live wall {} for the {} at {}",
            event.wall, event.kind, event.start
        );
        for b in charon_gc::Bucket::ALL {
            assert_eq!(
                bd.get(b),
                event.breakdown.get(b),
                "the {b} bucket of the {} must replay identically",
                event.kind
            );
        }
    }
}

#[test]
fn live_equals_replay_single_thread_ddr4() {
    assert_live_equals_replay(System::ddr4);
}

#[test]
fn live_equals_replay_single_thread_hmc() {
    assert_live_equals_replay(System::hmc);
}

#[test]
fn live_equals_replay_single_thread_charon() {
    assert_live_equals_replay(System::charon);
}

#[test]
fn live_equals_replay_single_thread_cpu_side() {
    assert_live_equals_replay(System::cpu_side);
}

#[test]
fn phase_ops_record_the_flush_kind() {
    use charon_gc::trace::{FlushKind, TraceOp};
    let (gc, _heap) = record_minor_and_major(System::charon(), 1);
    let minor = &gc.sys.traces[0];
    // The minor prologue under Charon is a bulk host-cache flush (the
    // very first GC flushes cold caches, so the line count may be zero —
    // the recorded *kind* is what replay needs).
    assert!(
        minor
            .ops
            .iter()
            .any(|o| matches!(o, TraceOp::Phase { flush: FlushKind::HostCaches { .. } })),
        "minor trace must record the prologue host-cache flush"
    );
    let major = gc.sys.traces.last().unwrap();
    assert!(
        major
            .ops
            .iter()
            .any(|o| matches!(o, TraceOp::Phase { flush: FlushKind::BitmapCache { .. } })),
        "major trace must record bitmap-cache flushes"
    );
    assert!(
        major.ops.iter().any(|o| matches!(o, TraceOp::StreamClear { .. })),
        "major trace must record the epilogue stream clears"
    );
}
