//! GC-log rendering over a real run: the `-verbose:gc` view a HotSpot
//! practitioner would read.

use charon_gc::collector::{Collector, CollectorKind};
use charon_gc::gclog::render_run;
use charon_gc::system::System;
use charon_gc::GcKind;
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::klass::{KlassId, KlassKind};
use charon_heap::VAddr;

/// `allocs` arrays of `len` bytes, every fourth one rooted and at most
/// 300 roots live.
fn churn(gc: &mut Collector, heap: &mut JavaHeap, k: KlassId, allocs: u32, len: u32) {
    for i in 0..allocs {
        let a = gc.alloc(heap, k, len).unwrap();
        if i % 4 == 0 {
            heap.add_root(a);
        }
        if heap.root_count() > 300 {
            heap.set_root(heap.root_count() - 300, VAddr::NULL);
        }
    }
}

fn byte_arrays(heap: &mut JavaHeap) -> KlassId {
    heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray)
}

#[test]
fn log_renders_a_real_collection_sequence() {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
    let k = byte_arrays(&mut heap);
    let mut gc = Collector::new(System::ddr4(), &heap, 4);
    churn(&mut gc, &mut heap, k, 3000, 120);
    assert!(!gc.events.is_empty(), "the loop must trigger collections");
    let log = render_run(&gc, &heap);
    // Every event renders one line in the HotSpot shape, then the run
    // closes with the pause-distribution summary.
    assert_eq!(log.lines().count(), gc.events.len() + 1);
    let (summary, event_lines) = log.lines().next_back().zip(Some(log.lines().count() - 1)).unwrap();
    for line in log.lines().take(event_lines) {
        assert!(line.contains("[GC (Allocation Failure)") || line.contains("[Full GC (Ergonomics)"), "{line}");
        assert!(line.contains("K->") && line.contains("secs]"), "{line}");
    }
    assert!(summary.contains("[pauses MinorGC n="), "{summary}");
    // Occupancy drops across each minor collection (garbage dominated).
    for e in &gc.events {
        if e.kind == GcKind::Minor {
            assert!(e.used_after <= e.used_before, "a scavenge must not grow the heap");
        }
    }
}

/// One allocation can run two collections (a scavenge, then the full
/// collection that makes room for a large object in Old). Each line
/// reports its own pause's occupancy: the second starts where the first
/// ended.
#[test]
fn two_collections_in_one_allocation_report_their_own_occupancy() {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
    let k = byte_arrays(&mut heap);
    let mut gc = Collector::new(System::ddr4(), &heap, 4);
    // Tenure garbage until Old cannot take the large array below.
    let large = ((heap.layout().eden.bytes() + (64 << 10)) / 8) as u32;
    let large_bytes = heap.klasses().get(k).size_words(large) * 8;
    while heap.old().free_bytes() >= large_bytes {
        churn(&mut gc, &mut heap, k, 200, 1024);
    }
    for r in 0..heap.root_count() {
        heap.set_root(r, VAddr::NULL);
    }
    let before = gc.events.len();
    gc.alloc(&mut heap, k, large).unwrap();
    let pair = &gc.events[before..];
    assert_eq!(pair.len(), 2, "the large allocation runs two collections");
    assert_eq!((pair[0].kind, pair[1].kind), (GcKind::Minor, GcKind::Major));
    assert_ne!(
        (pair[0].used_before, pair[0].used_after),
        (pair[1].used_before, pair[1].used_after),
        "each collection reports its own occupancy"
    );
    assert_eq!(pair[1].used_before, pair[0].used_after, "nothing was allocated between the two pauses");
    let log = render_run(&gc, &heap);
    let lines: Vec<&str> = log.lines().filter(|l| l.contains("secs]")).collect();
    let tail = &lines[lines.len() - 2..];
    assert_ne!(tail[0].split_once(") ").unwrap().1, tail[1].split_once(") ").unwrap().1, "{log}");
}

#[test]
fn charon_log_closes_with_the_unit_pool_summary() {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
    let k = byte_arrays(&mut heap);
    let mut gc = Collector::new(System::charon(), &heap, 4);
    churn(&mut gc, &mut heap, k, 3000, 120);
    assert!(!gc.events.is_empty(), "the loop must trigger collections");
    let log = render_run(&gc, &heap);
    // Event lines, then the pause summary, then the unit summary: the
    // queue-depth high-water mark a provisioning decision needs is on
    // the last line of the log, not buried in a JSON artifact.
    assert_eq!(log.lines().count(), gc.events.len() + 2);
    let last = log.lines().next_back().unwrap();
    assert!(last.starts_with("[units "), "{last}");
    assert!(last.contains("qhw="), "{last}");
    assert!(last.contains("util="), "{last}");
    // Offloading ran, so at least one class must be non-idle.
    assert_ne!(last, "[units idle]");
}

#[test]
fn cms_log_interleaves_a_real_concurrent_cycle() {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
    let k = byte_arrays(&mut heap);
    let mut gc = Collector::new(System::ddr4(), &heap, 4);
    gc.kind = CollectorKind::Cms;
    // Chunky survivors: old-gen occupancy must cross the cms trigger
    // (half of capacity) for the concurrent cycle to start.
    churn(&mut gc, &mut heap, k, 6000, 1024);
    // The alloc-driven cms_tick must have run a full concurrent cycle:
    // start, bounded steps, and the STW remark all leave events.
    let conc = &gc.concmark.events;
    assert!(conc.iter().any(|e| matches!(e, charon_gc::concmark::ConcEvent::Start { .. })), "no cycle started");
    assert!(conc
        .iter()
        .any(|e| matches!(e, charon_gc::concmark::ConcEvent::Step { scanned, .. } if *scanned > 0)));
    assert!(conc
        .iter()
        .any(|e| matches!(e, charon_gc::concmark::ConcEvent::Remark { marked, .. } if *marked > 0)));

    let log = render_run(&gc, &heap);
    // Pause lines and cycle lines share one simulated-time order; the
    // sweep left recycled chunks, so the log closes with occupancy.
    assert!(log.contains("[concmark start"), "{log}");
    assert!(log.contains("[concmark step"), "{log}");
    assert!(log.contains("[concmark remark"), "{log}");
    let last = log.lines().next_back().unwrap();
    assert!(last.starts_with("[freelist queues="), "{last}");
    // The cycle's lines land between the pauses, not appended at the
    // end: the first concmark line precedes the last GC pause line.
    let lines: Vec<&str> = log.lines().collect();
    let first_conc = lines.iter().position(|l| l.contains("[concmark")).unwrap();
    let last_pause = lines.iter().rposition(|l| l.contains("secs]")).unwrap();
    assert!(first_conc < last_pause, "cycle lines must interleave:\n{log}");
}
