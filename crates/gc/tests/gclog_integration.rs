//! GC-log rendering over a real run: the `-verbose:gc` view a HotSpot
//! practitioner would read.

use charon_gc::collector::{Collector, CollectorKind};
use charon_gc::gclog::{render_run, render_run_cms, render_run_with_units, HeapSnapshot};
use charon_gc::system::System;
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::klass::KlassKind;
use charon_heap::VAddr;

#[test]
fn log_renders_a_real_collection_sequence() {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
    let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    let mut gc = Collector::new(System::ddr4(), &heap, 4);

    let mut snaps = Vec::new();
    let mut events_seen = 0;
    for i in 0..3000u32 {
        let before = heap.used_bytes();
        let a = gc.alloc(&mut heap, k, 120).unwrap();
        if i % 4 == 0 {
            heap.add_root(a);
        }
        if heap.root_count() > 300 {
            heap.set_root(heap.root_count() - 300, VAddr::NULL);
        }
        // A collection happened during this alloc: snapshot it.
        while events_seen < gc.events.len() {
            snaps.push(HeapSnapshot::after(&heap, before));
            events_seen += 1;
        }
    }
    assert!(!gc.events.is_empty(), "the loop must trigger collections");
    let log = render_run(&gc.events, &snaps);
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
    for (e, s) in gc.events.iter().zip(&snaps) {
        if e.kind == charon_gc::GcKind::Minor {
            assert!(s.used_after <= s.used_before, "a scavenge must not grow the heap");
        }
    }
}

#[test]
fn charon_log_closes_with_the_unit_pool_summary() {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
    let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    let mut gc = Collector::new(System::charon(), &heap, 4);

    let mut snaps = Vec::new();
    let mut events_seen = 0;
    for i in 0..3000u32 {
        let before = heap.used_bytes();
        let a = gc.alloc(&mut heap, k, 120).unwrap();
        if i % 4 == 0 {
            heap.add_root(a);
        }
        if heap.root_count() > 300 {
            heap.set_root(heap.root_count() - 300, VAddr::NULL);
        }
        while events_seen < gc.events.len() {
            snaps.push(HeapSnapshot::after(&heap, before));
            events_seen += 1;
        }
    }
    assert!(!gc.events.is_empty(), "the loop must trigger collections");
    let units = gc.sys.unit_stats().expect("Charon systems expose pool stats");
    let log = render_run_with_units(&gc.events, &snaps, Some(&units), gc.gc_total_time());
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
    let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    let mut gc = Collector::new(System::ddr4(), &heap, 4);
    gc.kind = CollectorKind::Cms;

    let mut snaps = Vec::new();
    let mut events_seen = 0;
    // Chunky survivors: old-gen occupancy must cross the cms trigger
    // (half of capacity) for the concurrent cycle to start.
    for i in 0..6000u32 {
        let before = heap.used_bytes();
        let a = gc.alloc(&mut heap, k, 1024).unwrap();
        if i % 4 == 0 {
            heap.add_root(a);
        }
        if heap.root_count() > 300 {
            heap.set_root(heap.root_count() - 300, VAddr::NULL);
        }
        while events_seen < gc.events.len() {
            snaps.push(HeapSnapshot::after(&heap, before));
            events_seen += 1;
        }
    }
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

    let log = render_run_cms(&gc.events, &snaps, conc, None, gc.gc_total_time(), gc.free.occupancy());
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
