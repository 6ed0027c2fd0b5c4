//! The exported Chrome trace tells the same story as the GC log: one
//! collection span per `GcEvent`, in the same order and at the same
//! simulated times, with the phase spans nested inside their collection.

use charon_gc::collector::Collector;
use charon_gc::gclog::render_run;
use charon_gc::system::System;
use charon_gc::GcKind;
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::klass::KlassKind;
use charon_heap::VAddr;
use charon_sim::json::Json;
use charon_sim::telemetry::{chrome_trace, Event, Telemetry};

/// Triggers several minor collections and one explicit major on
/// `threads` GC threads, journaling everything; returns the collector and
/// its heap.
fn instrumented_run(telemetry: &Telemetry, threads: usize) -> (Collector, JavaHeap) {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
    let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    let mut sys = System::charon();
    sys.set_telemetry(telemetry.clone());
    let mut gc = Collector::new(sys, &heap, threads);
    for i in 0..3000u32 {
        let a = gc.alloc(&mut heap, k, 120).unwrap();
        if i % 4 == 0 {
            heap.add_root(a);
        }
        if heap.root_count() > 300 {
            heap.set_root(heap.root_count() - 300, VAddr::NULL);
        }
    }
    gc.major_gc(&mut heap);
    (gc, heap)
}

#[test]
fn journal_mirrors_the_collector_event_log() {
    let telemetry = Telemetry::enabled();
    let (gc, _heap) = instrumented_run(&telemetry, 4);
    assert!(gc.events.len() >= 2, "scenario must trigger collections");

    let journaled: Vec<Event> = telemetry
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::Collection { .. }))
        .collect();
    assert_eq!(journaled.len(), gc.events.len(), "one Collection span per GcEvent");
    for (i, (j, e)) in journaled.iter().zip(&gc.events).enumerate() {
        let Event::Collection { seq, kind, start, end } = j else { unreachable!() };
        assert_eq!(*seq, i as u64);
        assert_eq!(*kind, if e.kind == GcKind::Minor { "minor" } else { "major" });
        assert_eq!(*start, e.start, "collection {i} start");
        assert_eq!(*end, e.start + e.wall, "collection {i} end");
    }

    // Phase spans sit inside their collection, in non-decreasing order.
    for (i, e) in gc.events.iter().enumerate() {
        let phases: Vec<(&'static str, u64, u64)> = telemetry
            .events()
            .iter()
            .filter_map(|ev| match ev {
                Event::Phase { seq, name, start, end } if *seq == i as u64 => Some((*name, start.0, end.0)),
                _ => None,
            })
            .collect();
        assert!(!phases.is_empty(), "collection {i} has no phase spans");
        let names: Vec<&str> = phases.iter().map(|p| p.0).collect();
        let expected: &[&str] = if e.kind == GcKind::Minor {
            &["roots", "cards", "drain", "refs", "epilogue"]
        } else {
            &["mark", "refs", "summary", "adjust", "compact", "epilogue"]
        };
        assert_eq!(names, expected, "collection {i} ({}) phase order", e.kind);
        let lo = e.start.0;
        let hi = (e.start + e.wall).0;
        let mut cursor = lo;
        for (name, s, t) in &phases {
            assert!(*s >= cursor, "phase {name} starts before its predecessor ended");
            assert!(*s <= *t && *t <= hi, "phase {name} [{s}, {t}] escapes [{lo}, {hi}]");
            cursor = *s;
        }
    }
}

#[test]
fn chrome_trace_orders_collections_like_the_gclog() {
    let telemetry = Telemetry::enabled();
    let (gc, heap) = instrumented_run(&telemetry, 4);
    let log = render_run(&gc, &heap);
    let trace = chrome_trace(&telemetry.events());
    let arr = trace.as_arr().expect("trace is an array");

    // pid 0 / tid 0 "X" spans are the collections, in journal order.
    let spans: Vec<(&str, f64)> = arr
        .iter()
        .filter(|ev| {
            ev.get("pid").and_then(Json::as_u64) == Some(0)
                && ev.get("tid").and_then(Json::as_u64) == Some(0)
                && ev.get("ph").and_then(Json::as_str) == Some("X")
        })
        .map(|ev| (ev.get("name").and_then(Json::as_str).unwrap(), ev.get("ts").and_then(Json::as_f64).unwrap()))
        .collect();
    // Drop the trailing `[pauses …]` and `[units …]` summaries: only
    // event lines have spans.
    let log_lines: Vec<&str> = log.lines().filter(|l| l.contains("secs]")).collect();
    assert_eq!(spans.len(), log_lines.len(), "one trace span per gclog event line");
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ((name, ts), line)) in spans.iter().zip(&log_lines).enumerate() {
        let expected = if line.contains("[Full GC") { "major gc" } else { "minor gc" };
        assert_eq!(*name, expected, "span {i} disagrees with gclog line {line:?}");
        // Both views are ordered by the same simulated clock.
        assert!(*ts >= last_ts, "span {i} goes backwards in time");
        assert!((*ts - gc.events[i].start.0 as f64 / 1e6).abs() < 1e-9, "span {i} ts");
        last_ts = *ts;
    }
}

/// The `Prim` spans of a run with `threads` GC threads, per thread.
fn prim_rows(threads: usize) -> Vec<Vec<(u64, u64)>> {
    let telemetry = Telemetry::enabled();
    instrumented_run(&telemetry, threads);
    let mut rows = vec![Vec::new(); threads];
    for e in telemetry.events() {
        if let Event::Prim { thread, start, end, .. } = e {
            rows[thread].push((start.0, end.0));
        }
    }
    rows
}

/// Each primitive span is drawn on the row of the GC thread that ran it,
/// not of the core that thread is pinned to: with more threads than the
/// platform's 8 cores, threads 8 and up get rows of their own, and no
/// row holds two overlapping spans.
#[test]
fn prim_spans_land_on_their_gc_thread_rows() {
    let cores = System::charon().host.cores();
    for threads in [cores, 2 * cores] {
        let rows = prim_rows(threads);
        for (t, row) in rows.iter().enumerate() {
            assert!(!row.is_empty(), "{threads} threads: thread {t} journaled no primitive");
            for w in row.windows(2) {
                assert!(w[1].0 >= w[0].1, "{threads} threads: thread {t} spans {:?} and {:?} overlap", w[0], w[1]);
            }
        }
    }
}
