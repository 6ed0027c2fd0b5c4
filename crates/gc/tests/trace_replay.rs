//! Trace-driven mode: a recorded collection replays to the live pause —
//! wall and every bucket — on the same configuration at any thread count,
//! and re-times meaningfully on others.

use charon_gc::collector::{Collector, GcKind};
use charon_gc::system::System;
use charon_gc::trace::{replay, replay_at, Step, TraceOp};
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
    // Replay starts at time zero on a cold machine, not in the state the
    // earlier collections left, so exact equality is not expected — but
    // it must land in the same ballpark.
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
    for _ in 0..2000 {
        let a = gc.alloc(&mut heap, k, 1024).unwrap();
        heap.add_root(a);
        if heap.root_count() > 300 {
            heap.set_root(heap.root_count() - 300, VAddr::NULL);
        }
    }
    gc.minor_gc(&mut heap);
    gc.major_gc(&mut heap);
    gc.minor_gc(&mut heap);
    assert!(gc.events.len() > 3, "allocation must have triggered collections of its own");
    assert_eq!(gc.sys.traces.len(), gc.events.len());
    // In order and of the same kind: only a MajorGC clears the bitmaps and
    // the card table in its epilogue.
    for (trace, event) in gc.sys.traces.iter().zip(&gc.events) {
        let clears = trace.ops.iter().any(|o| matches!(o, TraceOp::Clear { .. }));
        assert_eq!(clears, event.kind == GcKind::Major, "the trace of the {} at {}", event.kind, event.start);
    }
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

/// Replay fidelity (the differential contract): the recorded collections,
/// replayed in order at their live start times on one fresh system of the
/// SAME configuration, reproduce every live pause exactly — wall and every
/// bucket — at `gc_threads`. One system carries the cache, epoch-meter and
/// device state across collections exactly as it did live.
fn assert_live_equals_replay(make: fn() -> System, gc_threads: usize) {
    let (gc, _heap) = record_minor_and_major(make(), gc_threads);
    assert_eq!(gc.sys.traces.len(), gc.events.len());
    assert!(gc.events.len() >= 2, "scenario must trigger both collections");

    // A fresh same-config machine: built through a Collector on an
    // identical heap so the device's initialize() intrinsic runs with the
    // same global addresses.
    let replay_heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
    let mut replay_sys = Collector::new(make(), &replay_heap, gc_threads).sys;
    let label = replay_sys.label();
    for (trace, event) in gc.sys.traces.iter().zip(&gc.events) {
        let (wall, bd) = replay_at(trace, &mut replay_sys, gc_threads, event.start);
        let at = format!("the {} at {} on {label} with {gc_threads} threads", event.kind, event.start);
        assert_eq!(wall, event.wall, "replayed wall of {at}");
        for b in charon_gc::Bucket::ALL {
            assert_eq!(bd.get(b), event.breakdown.get(b), "the {b} bucket of {at}");
        }
    }
}

#[test]
fn live_equals_replay_single_thread_ddr4() {
    assert_live_equals_replay(System::ddr4, 1);
}

#[test]
fn live_equals_replay_single_thread_hmc() {
    assert_live_equals_replay(System::hmc, 1);
}

#[test]
fn live_equals_replay_single_thread_charon() {
    assert_live_equals_replay(System::charon, 1);
}

#[test]
fn live_equals_replay_single_thread_cpu_side() {
    assert_live_equals_replay(System::cpu_side, 1);
}

#[test]
fn live_equals_replay_single_thread_ideal() {
    assert_live_equals_replay(System::ideal, 1);
}

/// Where a live run keeps dependent work on the thread that popped it, a
/// replay does too, so exactness does not stop at one thread.
#[test]
fn live_equals_replay_at_2_and_8_threads() {
    for make in [System::ddr4, System::hmc, System::charon, System::cpu_side, System::ideal] {
        for gc_threads in [2, 8] {
            assert_live_equals_replay(make, gc_threads);
        }
    }
}

#[test]
fn phase_ops_record_the_flush_kind() {
    // What is recorded is the flush the collector asked for, whatever the
    // machine made of it: DDR4 has no device and flushes nothing.
    for make in [System::charon, System::ddr4] {
        let (gc, _heap) = record_minor_and_major(make(), 2);
        let steps = |ops: &[TraceOp]| {
            ops.iter()
                .filter_map(|o| if let TraceOp::Step(s) = o { Some(*s) } else { None })
                .collect::<Vec<_>>()
        };
        assert_eq!(steps(&gc.sys.traces[0].ops), [Step::Prologue], "a minor trace asks for the prologue flush only");
        let major = gc.sys.traces.last().unwrap();
        assert_eq!(
            steps(&major.ops),
            [Step::Prologue, Step::FlushBitmapCache, Step::FlushBitmapCache],
            "a major trace asks for the prologue, the end-of-mark and the end-of-compact flushes"
        );
        assert!(
            major.ops.iter().any(|o| matches!(o, TraceOp::Clear { .. })),
            "major trace must record the epilogue stream clears"
        );
        assert!(major.maps.is_some(), "the adjust and compact queries record the bitmaps they read");
    }
}

/// A replay on a recording system records the trace it replays: the
/// recorder sits where the time is charged, for live runs and replays
/// alike.
#[test]
fn a_replay_records_the_trace_it_replays() {
    let (gc, _heap) = record_minor_and_major(System::charon(), 8);
    let replay_heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
    let mut replay_sys = Collector::new(System::charon(), &replay_heap, 8).sys;
    replay_sys.record_traces = true;
    for (trace, event) in gc.sys.traces.iter().zip(&gc.events) {
        replay_at(trace, &mut replay_sys, 8, event.start);
        let again = replay_sys.traces.last().unwrap();
        assert_eq!(again.ops[..trace.len()], trace.ops[..], "the {} re-records op for op", event.kind);
        assert_eq!(again.ops[trace.len()..], [TraceOp::Barrier], "plus the replay's closing barrier");
    }
}
