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

use crate::collector::{GcEvent, GcKind};
use crate::concmark::ConcEvent;
use crate::freelist::Occupancy;
use charon_core::device::{UnitClassStats, UNIT_CLASS_NAMES};
use charon_heap::heap::JavaHeap;
use charon_sim::hist::Histogram;
use charon_sim::time::Ps;

/// Heap occupancy bookkeeping the logger needs around each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// Used bytes before the collection.
    pub used_before: u64,
    /// Used bytes after the collection.
    pub used_after: u64,
    /// Total heap capacity.
    pub capacity: u64,
}

impl HeapSnapshot {
    /// Captures the "after" side from a heap (the caller saved
    /// `used_before` before triggering the GC).
    ///
    /// Capacity follows HotSpot's reporting convention: old generation
    /// plus eden plus ONE survivor space. The second survivor is always
    /// empty (it is the copy target), so `-verbose:gc` never counts it.
    pub fn after(heap: &JavaHeap, used_before: u64) -> HeapSnapshot {
        HeapSnapshot {
            used_before,
            used_after: heap.used_bytes(),
            capacity: heap.old().capacity_bytes() + heap.layout().young_capacity_bytes(),
        }
    }
}

/// Renders one event as a HotSpot-style log line. Under fault injection,
/// collections that absorbed recovery events (retries, host fallbacks,
/// watchdog degradations) get an `[offload ...]` suffix; fault-free lines
/// are byte-identical to the pre-fault-layer format.
pub fn render(event: &GcEvent, snap: HeapSnapshot) -> String {
    let (tag, cause) = match event.kind {
        GcKind::Minor => ("GC", "Allocation Failure"),
        GcKind::Major => ("Full GC", "Ergonomics"),
    };
    let mut line = format!(
        "[{tag} ({cause}) {}K->{}K({}K), {:.6} secs]",
        snap.used_before / 1024,
        snap.used_after / 1024,
        snap.capacity / 1024,
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

/// Renders a whole run, one line per event, given the per-event
/// snapshots, followed by the [`pause_summary`] line (which reports
/// `[pauses none]` on a zero-GC run).
pub fn render_run(events: &[GcEvent], snaps: &[HeapSnapshot]) -> String {
    render_run_with_units(events, snaps, None, Ps::ZERO)
}

/// [`render_run`] plus, when the run had a device, the [`unit_summary`]
/// line after the pause summary (`units` is
/// [`crate::system::System::unit_stats`]; `gc_time` the utilization
/// denominator).
pub fn render_run_with_units(
    events: &[GcEvent],
    snaps: &[HeapSnapshot],
    units: Option<&[UnitClassStats; 3]>,
    gc_time: Ps,
) -> String {
    assert_eq!(events.len(), snaps.len(), "one snapshot per event");
    let mut lines: Vec<String> = events
        .iter()
        .zip(snaps)
        .map(|(e, &s)| format!("{:>12}: {}", format!("{}", e.start), render(e, s)))
        .collect();
    lines.push(pause_summary(events));
    if let Some(units) = units {
        lines.push(unit_summary(units, gc_time));
    }
    lines.join("\n")
}

/// Renders one concurrent-marking event in the `[offload …]` suffix
/// style (without the time prefix — [`render_run_cms`] adds it):
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
/// key [`render_run_cms`] merges on.
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

/// [`render_run_with_units`] for a concurrent-marking run: the
/// `[concmark …]` lines are merged into the GC event lines in simulated
/// time order (ties put the concurrent line first — a step that lands on
/// a pause boundary happened before the world stopped), and the
/// free-list occupancy line lands at the very end, after `[pauses …]`
/// and `[units …]`.
pub fn render_run_cms(
    events: &[GcEvent],
    snaps: &[HeapSnapshot],
    conc: &[ConcEvent],
    units: Option<&[UnitClassStats; 3]>,
    gc_time: Ps,
    occupancy: Occupancy,
) -> String {
    assert_eq!(events.len(), snaps.len(), "one snapshot per event");
    let mut timed: Vec<(Ps, u8, String)> = events
        .iter()
        .zip(snaps)
        .map(|(e, &s)| (e.start, 1, render(e, s)))
        .chain(conc.iter().map(|c| (concmark_at(c), 0, concmark_line(c))))
        .collect();
    timed.sort_by_key(|&(at, tie, _)| (at, tie));
    let mut lines: Vec<String> = timed
        .into_iter()
        .map(|(at, _, body)| format!("{:>12}: {}", format!("{at}"), body))
        .collect();
    lines.push(pause_summary(events));
    if let Some(units) = units {
        lines.push(unit_summary(units, gc_time));
    }
    lines.push(freelist_summary(occupancy));
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::Breakdown;
    use charon_sim::time::Ps;

    fn event(kind: GcKind, wall_us: f64) -> GcEvent {
        GcEvent {
            kind,
            start: Ps::from_us(10.0),
            wall: Ps::from_us(wall_us),
            breakdown: Breakdown::new(),
            minor: None,
            major: None,
            dram_bytes: 0,
            host_active: Ps::ZERO,
        }
    }

    #[test]
    fn minor_line_matches_hotspot_shape() {
        let snap = HeapSnapshot { used_before: 2748 * 1024, used_after: 312 * 1024, capacity: 10240 * 1024 };
        let line = render(&event(GcKind::Minor, 183.0), snap);
        assert_eq!(line, "[GC (Allocation Failure) 2748K->312K(10240K), 0.000183 secs]");
    }

    #[test]
    fn major_line_is_full_gc() {
        let snap = HeapSnapshot { used_before: 4096 * 1024, used_after: 1024 * 1024, capacity: 10240 * 1024 };
        let line = render(&event(GcKind::Major, 912.0), snap);
        assert!(line.starts_with("[Full GC (Ergonomics) 4096K->1024K"));
    }

    #[test]
    fn recovery_events_append_an_offload_suffix() {
        use crate::breakdown::RecoverySummary;
        let snap = HeapSnapshot { used_before: 100 << 10, used_after: 10 << 10, capacity: 1 << 20 };
        let mut e = event(GcKind::Minor, 5.0);
        let mut r = RecoverySummary::default();
        r.retries[0] = 3;
        r.fallbacks[0] = 1;
        e.breakdown.record_recovery(r);
        let line = render(&e, snap);
        assert!(line.contains("secs] [offload retries[Copy=3] fallbacks[Copy=1]"), "{line}");
    }

    #[test]
    fn run_rendering_joins_lines_and_appends_pause_summary() {
        let snaps = [
            HeapSnapshot { used_before: 100 << 10, used_after: 10 << 10, capacity: 1 << 20 },
            HeapSnapshot { used_before: 200 << 10, used_after: 20 << 10, capacity: 1 << 20 },
        ];
        let events = [event(GcKind::Minor, 5.0), event(GcKind::Major, 9.0)];
        let s = render_run(&events, &snaps);
        assert_eq!(s.lines().count(), 3, "two event lines plus the pause summary");
        assert!(s.contains("[GC") && s.contains("[Full GC"));
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
        assert_eq!(render_run(&[], &[]), "[pauses none]");
    }

    #[test]
    #[should_panic]
    fn mismatched_snapshots_panic() {
        render_run(&[event(GcKind::Minor, 1.0)], &[]);
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
        // Folded into the run rendering after the pause summary.
        let snaps = [HeapSnapshot { used_before: 100 << 10, used_after: 10 << 10, capacity: 1 << 20 }];
        let r = render_run_with_units(&[event(GcKind::Minor, 5.0)], &snaps, Some(&units), gc_time);
        let last = r.lines().last().unwrap();
        assert!(last.contains("qhw=7"), "{r}");
        assert!(r.contains("[pauses MinorGC"), "{r}");
        // The units-free path is unchanged.
        assert!(!render_run(&[event(GcKind::Minor, 5.0)], &snaps).contains("[units"), "no device, no line");
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
        let snaps = [HeapSnapshot { used_before: 100 << 10, used_after: 10 << 10, capacity: 1 << 20 }];
        let events = [event(GcKind::Minor, 5.0)];
        let conc = [
            ConcEvent::Start { at: Ps::from_us(4.0), seeded: 2, zones: 1 },
            ConcEvent::Step { at: Ps::from_us(10.0), zone: 0, scanned: 7 },
            ConcEvent::Remark { at: Ps::from_us(20.0), marked: 9 },
        ];
        let occ = Occupancy { queues: 1, chunks: 2, free_words: 256, largest_hole_words: 128 };
        let s = render_run_cms(&events, &snaps, &conc, None, Ps::ZERO, occ);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6, "4 timed lines + pauses + freelist: {s}");
        assert!(lines[0].contains("[concmark start"), "{s}");
        assert!(lines[1].contains("[concmark step"), "tie at 10us puts the step before the pause: {s}");
        assert!(lines[2].contains("[GC (Allocation Failure)"), "{s}");
        assert!(lines[3].contains("[concmark remark"), "{s}");
        assert!(lines[4].contains("[pauses MinorGC"), "{s}");
        assert_eq!(lines[5], "[freelist queues=1 chunks=2 free=2K largest=1K]");
        // Without concurrent events the shape degenerates to the
        // existing rendering plus the trailing freelist line.
        let plain = render_run_cms(&events, &snaps, &[], None, Ps::ZERO, Occupancy::default());
        assert_eq!(plain.lines().last().unwrap(), "[freelist empty]");
    }

    #[test]
    fn capacity_counts_eden_plus_one_survivor() {
        // HotSpot's -verbose:gc capacity is old + eden + ONE survivor; the
        // copy-target survivor is never reported. Regression for the bug
        // where both survivors were counted.
        use charon_heap::heap::{HeapConfig, JavaHeap};
        let heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
        let snap = HeapSnapshot::after(&heap, 0);
        let l = heap.layout();
        assert_eq!(snap.capacity, heap.old().capacity_bytes() + l.eden.bytes() + l.from.bytes());
        assert!(snap.capacity < heap.old().capacity_bytes() + l.young_bytes(), "both survivors must not be counted");
    }
}
