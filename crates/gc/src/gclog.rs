//! HotSpot-style `-verbose:gc` log rendering.
//!
//! The paper's profiling methodology starts from exactly these logs; this
//! module renders the collector's event stream in the familiar format so a
//! practitioner can eyeball a simulated run the way they would a real one:
//!
//! ```text
//! [GC (Allocation Failure) 2748K->312K(10240K), 0.000183 secs]
//! [Full GC (Ergonomics) 4096K->1024K(10240K), 0.000912 secs]
//! ```

use crate::collector::{Collector, CollectorKind, GcEvent, GcKind};
use crate::concmark::ConcEvent;
use crate::freelist::Occupancy;
use charon_core::device::{UnitClassStats, UNIT_CLASS_NAMES};
use charon_heap::heap::JavaHeap;
use charon_sim::hist::Histogram;
use charon_sim::time::Ps;

/// The heap capacity a log line reports, following HotSpot's convention:
/// old generation plus eden plus ONE survivor space. The second survivor
/// is always empty (it is the copy target), so `-verbose:gc` never
/// counts it.
fn capacity(heap: &JavaHeap) -> u64 {
    heap.old().capacity_bytes() + heap.layout().young_capacity_bytes()
}

/// Renders one event as a HotSpot-style log line. Under fault injection,
/// collections that absorbed recovery events (retries, host fallbacks,
/// watchdog degradations) get an `[offload ...]` suffix; fault-free lines
/// are byte-identical to the pre-fault-layer format. Occupancy is the
/// event's own, at pause start and end.
pub fn render(event: &GcEvent, capacity: u64) -> String {
    let (tag, cause) = match event.kind {
        GcKind::Minor => ("GC", "Allocation Failure"),
        GcKind::Major => ("Full GC", "Ergonomics"),
    };
    let mut line = format!(
        "[{tag} ({cause}) {}K->{}K({}K), {:.6} secs]",
        event.used_before / 1024,
        event.used_after / 1024,
        capacity / 1024,
        event.wall.as_secs()
    );
    let recovery = event.breakdown.recovery();
    if !recovery.is_empty() {
        line.push_str(&format!(" [offload {recovery}]"));
    }
    line
}

/// End-of-run pause distribution summary, one `[pauses …]` group per
/// collection kind that ran, in the `[offload …]` suffix style:
///
/// ```text
/// [pauses MinorGC n=3 p50=1.2us p99=1.9us max=1.9us] [pauses MajorGC n=1 p50=9us p99=9us max=9us]
/// ```
///
/// `[pauses none]` when no collections ran — percentiles of zero samples
/// do not exist ([`Histogram::try_quantile`] is `None`), so the summary
/// says so explicitly instead of printing the 0 sentinel as if a 0 ps
/// pause had been measured.
pub fn pause_summary(events: &[GcEvent]) -> String {
    let mut groups = Vec::new();
    for kind in [GcKind::Minor, GcKind::Major] {
        let mut h = Histogram::new();
        for e in events.iter().filter(|e| e.kind == kind) {
            h.record(e.wall.0);
        }
        if !h.is_empty() {
            groups.push(format!(
                "[pauses {kind} n={} p50={} p99={} max={}]",
                h.count(),
                Ps(h.p50()),
                Ps(h.p99()),
                Ps(h.max())
            ));
        }
    }
    if groups.is_empty() {
        return "[pauses none]".to_string();
    }
    groups.join(" ")
}

/// End-of-run unit-pool summary, one `[units …]` group per class that
/// executed anything, in the `[pauses …]` suffix style — this is where
/// the queue-depth high-water mark and pool utilization (over the GC
/// region of interest, `gc_time`) surface in the human-readable log:
///
/// ```text
/// [units copy_search util=12.3% qhw=7 busy=1.2us execs=42 x16]
/// ```
///
/// `[units idle]` when a device is present but no pool ran.
pub fn unit_summary(units: &[UnitClassStats; 3], gc_time: Ps) -> String {
    let groups: Vec<String> = UNIT_CLASS_NAMES
        .iter()
        .zip(units.iter())
        .filter(|(_, u)| u.executions > 0 || u.busy > Ps::ZERO)
        .map(|(&name, u)| {
            format!(
                "[units {name} util={:.1}% qhw={} busy={} execs={} x{}]",
                u.utilization(gc_time) * 100.0,
                u.queue_high_water,
                u.busy,
                u.executions,
                u.total_units
            )
        })
        .collect();
    if groups.is_empty() {
        return "[units idle]".to_string();
    }
    groups.join(" ")
}

/// Renders one concurrent-marking event in the `[offload …]` suffix
/// style (without the time prefix — [`render_run`] adds it):
///
/// ```text
/// [concmark start zones=4 seeded=12]
/// [concmark step zone=2 scanned=64]
/// [concmark remark marked=1034]
/// ```
pub fn concmark_line(event: &ConcEvent) -> String {
    match *event {
        ConcEvent::Start { seeded, zones, .. } => format!("[concmark start zones={zones} seeded={seeded}]"),
        ConcEvent::Step { zone, scanned, .. } => format!("[concmark step zone={zone} scanned={scanned}]"),
        ConcEvent::Remark { marked, .. } => format!("[concmark remark marked={marked}]"),
    }
}

/// The simulated time a concurrent-marking event happened at — the sort
/// key [`render_run`] merges on.
fn concmark_at(event: &ConcEvent) -> Ps {
    match *event {
        ConcEvent::Start { at, .. } | ConcEvent::Step { at, .. } | ConcEvent::Remark { at, .. } => at,
    }
}

/// End-of-run free-list occupancy, in the `[units …]` suffix style:
///
/// ```text
/// [freelist queues=3 chunks=17 free=42K largest=9K]
/// ```
///
/// `[freelist empty]` when the store holds nothing — the PS collector's
/// permanent state, and a cms run's state right after a clean sweep into
/// an exhausted heap.
pub fn freelist_summary(occ: Occupancy) -> String {
    if occ.chunks == 0 {
        return "[freelist empty]".to_string();
    }
    format!(
        "[freelist queues={} chunks={} free={}K largest={}K]",
        occ.queues,
        occ.chunks,
        occ.free_words * 8 / 1024,
        occ.largest_hole_words * 8 / 1024
    )
}

/// Renders a whole run from its collector: one line per event, then the
/// [`pause_summary`] line (which reports `[pauses none]` on a zero-GC
/// run) and, when the run had a device, the [`unit_summary`] line.
///
/// The `[concmark …]` lines of a [`CollectorKind::Cms`] run's concurrent
/// cycles are merged into the event lines in simulated time order (ties
/// put the concurrent line first — a step that lands on a pause boundary
/// happened before the world stopped), and under cms the free-list
/// occupancy line closes the log.
pub fn render_run(gc: &Collector, heap: &JavaHeap) -> String {
    let capacity = capacity(heap);
    let mut timed: Vec<(Ps, u8, String)> = gc
        .events
        .iter()
        .map(|e| (e.start, 1, render(e, capacity)))
        .chain(gc.concmark.events.iter().map(|c| (concmark_at(c), 0, concmark_line(c))))
        .collect();
    timed.sort_by_key(|&(at, tie, _)| (at, tie));
    let mut lines: Vec<String> = timed
        .into_iter()
        .map(|(at, _, body)| format!("{:>12}: {}", format!("{at}"), body))
        .collect();
    lines.push(pause_summary(&gc.events));
    if let Some(units) = gc.sys.unit_stats() {
        lines.push(unit_summary(&units, gc.gc_total_time()));
    }
    if gc.kind == CollectorKind::Cms {
        lines.push(freelist_summary(gc.free.occupancy()));
    }
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use charon_heap::heap::HeapConfig;
    use charon_heap::VAddr;

    fn event(kind: GcKind, wall_us: f64) -> GcEvent {
        let mut e = GcEvent::blank(kind, 0);
        e.start = Ps::from_us(10.0);
        e.wall = Ps::from_us(wall_us);
        e
    }

    fn occupied(kind: GcKind, wall_us: f64, used_before: u64, used_after: u64) -> GcEvent {
        GcEvent { used_before, used_after, ..event(kind, wall_us) }
    }

    /// A collector on `sys` holding `events` and nothing else.
    fn collector_with(sys: System, heap: &JavaHeap, events: Vec<GcEvent>) -> Collector {
        let mut gc = Collector::new(sys, heap, 1);
        gc.events = events;
        gc
    }

    fn heap() -> JavaHeap {
        JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20))
    }

    #[test]
    fn minor_line_matches_hotspot_shape() {
        let line = render(&occupied(GcKind::Minor, 183.0, 2748 * 1024, 312 * 1024), 10240 * 1024);
        assert_eq!(line, "[GC (Allocation Failure) 2748K->312K(10240K), 0.000183 secs]");
    }

    #[test]
    fn major_line_is_full_gc() {
        let line = render(&occupied(GcKind::Major, 912.0, 4096 * 1024, 1024 * 1024), 10240 * 1024);
        assert!(line.starts_with("[Full GC (Ergonomics) 4096K->1024K"));
    }

    #[test]
    fn recovery_events_append_an_offload_suffix() {
        use crate::breakdown::RecoverySummary;
        let mut e = occupied(GcKind::Minor, 5.0, 100 << 10, 10 << 10);
        let mut r = RecoverySummary::default();
        r.retries[0] = 3;
        r.fallbacks[0] = 1;
        e.breakdown.record_recovery(r);
        let line = render(&e, 1 << 20);
        assert!(line.contains("secs] [offload retries[Copy=3] fallbacks[Copy=1]"), "{line}");
    }

    #[test]
    fn run_rendering_joins_lines_and_appends_pause_summary() {
        let heap = heap();
        let events =
            vec![occupied(GcKind::Minor, 5.0, 100 << 10, 10 << 10), occupied(GcKind::Major, 9.0, 200 << 10, 20 << 10)];
        let s = render_run(&collector_with(System::ddr4(), &heap, events), &heap);
        assert_eq!(s.lines().count(), 3, "two event lines plus the pause summary");
        assert!(s.contains("[GC") && s.contains("[Full GC"));
        assert!(s.contains("100K->10K") && s.contains("200K->20K"), "{s}");
        let last = s.lines().last().unwrap();
        assert!(last.contains("[pauses MinorGC n=1"), "{last}");
        assert!(last.contains("[pauses MajorGC n=1"), "{last}");
    }

    #[test]
    fn pause_summary_groups_by_kind_with_exact_max() {
        let events = [event(GcKind::Minor, 5.0), event(GcKind::Minor, 8.0), event(GcKind::Minor, 11.0)];
        let s = pause_summary(&events);
        assert!(s.contains("n=3"), "{s}");
        assert!(s.contains(&format!("max={}", Ps::from_us(11.0))), "{s}");
        assert!(!s.contains("MajorGC"), "no majors ran: {s}");
    }

    #[test]
    fn zero_gc_run_says_so_explicitly() {
        // Percentiles of zero samples do not exist, so a run with no
        // collections must say "[pauses none]" rather than render nothing
        // (or worse, a 0 ps percentile).
        assert_eq!(pause_summary(&[]), "[pauses none]");
        let heap = heap();
        assert_eq!(render_run(&collector_with(System::ddr4(), &heap, Vec::new()), &heap), "[pauses none]");
    }

    #[test]
    fn unit_summary_surfaces_queue_high_water_and_utilization() {
        let mut units = [UnitClassStats::default(); 3];
        units[0] =
            UnitClassStats { busy: Ps::from_us(4.0), executions: 42, wedges: 0, queue_high_water: 7, total_units: 16 };
        let gc_time = Ps::from_us(10.0);
        let s = unit_summary(&units, gc_time);
        // 4us busy over 16 units × 10us = 2.5% utilization.
        assert_eq!(s, "[units copy_search util=2.5% qhw=7 busy=4.000 us execs=42 x16]");
        assert_eq!(unit_summary(&[UnitClassStats::default(); 3], gc_time), "[units idle]");
        // A run with a device closes with its unit line, after the pause
        // summary; a host-only run has none.
        let heap = heap();
        let r = render_run(&collector_with(System::charon(), &heap, vec![event(GcKind::Minor, 5.0)]), &heap);
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[1].contains("[pauses MinorGC"), "{r}");
        assert_eq!(lines[2], "[units idle]", "{r}");
        let host = render_run(&collector_with(System::ddr4(), &heap, vec![event(GcKind::Minor, 5.0)]), &heap);
        assert!(!host.contains("[units"), "no device, no line");
    }

    #[test]
    fn concmark_lines_render_each_event_shape() {
        assert_eq!(
            concmark_line(&ConcEvent::Start { at: Ps::from_us(1.0), seeded: 12, zones: 4 }),
            "[concmark start zones=4 seeded=12]"
        );
        assert_eq!(
            concmark_line(&ConcEvent::Step { at: Ps::from_us(2.0), zone: 2, scanned: 64 }),
            "[concmark step zone=2 scanned=64]"
        );
        assert_eq!(
            concmark_line(&ConcEvent::Remark { at: Ps::from_us(3.0), marked: 1034 }),
            "[concmark remark marked=1034]"
        );
    }

    #[test]
    fn freelist_summary_reports_kilobytes_or_empty() {
        let occ = Occupancy { queues: 3, chunks: 17, free_words: 42 * 128, largest_hole_words: 9 * 128 };
        assert_eq!(freelist_summary(occ), "[freelist queues=3 chunks=17 free=42K largest=9K]");
        assert_eq!(freelist_summary(Occupancy::default()), "[freelist empty]");
    }

    #[test]
    fn cms_run_merges_concmark_lines_in_time_order() {
        // Events at 10us (Minor) and a concmark step before, at, and
        // after it — the merged log must interleave by simulated time,
        // with the concurrent line winning ties.
        let heap = heap();
        let mut gc = collector_with(System::ddr4(), &heap, vec![event(GcKind::Minor, 5.0)]);
        gc.kind = CollectorKind::Cms;
        gc.concmark.events = vec![
            ConcEvent::Start { at: Ps::from_us(4.0), seeded: 2, zones: 1 },
            ConcEvent::Step { at: Ps::from_us(10.0), zone: 0, scanned: 7 },
            ConcEvent::Remark { at: Ps::from_us(20.0), marked: 9 },
        ];
        gc.free.recycle(VAddr(0x10_0000), 128);
        gc.free.recycle(VAddr(0x20_0000), 128);
        let s = render_run(&gc, &heap);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6, "4 timed lines + pauses + freelist: {s}");
        assert!(lines[0].contains("[concmark start"), "{s}");
        assert!(lines[1].contains("[concmark step"), "tie at 10us puts the step before the pause: {s}");
        assert!(lines[2].contains("[GC (Allocation Failure)"), "{s}");
        assert!(lines[3].contains("[concmark remark"), "{s}");
        assert!(lines[4].contains("[pauses MinorGC"), "{s}");
        assert_eq!(lines[5], "[freelist queues=1 chunks=2 free=2K largest=1K]");
        // Without concurrent events the shape degenerates to the event
        // lines plus the trailing freelist line.
        let mut plain = collector_with(System::ddr4(), &heap, vec![event(GcKind::Minor, 5.0)]);
        plain.kind = CollectorKind::Cms;
        assert_eq!(render_run(&plain, &heap).lines().last().unwrap(), "[freelist empty]");
    }

    #[test]
    fn capacity_counts_eden_plus_one_survivor() {
        // HotSpot's -verbose:gc capacity is old + eden + ONE survivor; the
        // copy-target survivor is never reported. Regression for the bug
        // where both survivors were counted.
        let heap = heap();
        let l = heap.layout();
        assert_eq!(capacity(&heap), heap.old().capacity_bytes() + l.eden.bytes() + l.from.bytes());
        assert!(capacity(&heap) < heap.old().capacity_bytes() + l.young_bytes(), "both survivors must not be counted");
    }
}
