//! The top-level collector: HotSpot's triggering policy around the two
//! collections, plus the event log every figure is computed from.

use crate::breakdown::Breakdown;
use crate::census::CensusRecord;
use crate::concmark::ConcMark;
use crate::freelist::FreeStore;
use crate::g1lite::{g1_mixed_collect, G1Stats};
use crate::major::{major_gc, MajorStats};
use crate::marksweep::{mark_sweep_into, SweepStats};
use crate::minor::{minor_gc, MinorStats};
use crate::system::{OffloadMask, System};
use crate::threads::GcThreads;
use charon_core::device::UnitClassStats;
use charon_heap::addr::VAddr;
use charon_heap::heap::JavaHeap;
use charon_heap::klass::{KlassId, KlassKind};
use charon_sim::energy::EnergyAccount;
use charon_sim::time::Ps;
use std::fmt;

/// Which collection ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcKind {
    /// Young collection (scavenge).
    Minor,
    /// Full collection (mark–compact).
    Major,
}

impl fmt::Display for GcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GcKind::Minor => write!(f, "MinorGC"),
            GcKind::Major => write!(f, "MajorGC"),
        }
    }
}

/// Which old-generation collector the Major arm dispatches to. Every
/// kind keeps the same ParallelScavenge young collection; they differ in
/// how the old generation is reclaimed — and therefore in which Charon
/// primitives dominate (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollectorKind {
    /// ParallelScavenge mark–summarize–adjust–compact ([`crate::major`])
    /// — the default, and the only kind the committed PS fingerprints
    /// cover.
    #[default]
    Ps,
    /// Stop-the-world mark-sweep onto the free store
    /// ([`crate::marksweep`]). Bitmap Count is not applicable (Table 1).
    Ms,
    /// Free-list old generation + incremental concurrent marker
    /// ([`crate::concmark`]): bounded mark steps interleave with
    /// allocation; the remark's Bitmap Count region sweep dominates the
    /// offload mix.
    Cms,
    /// Garbage-First-style mixed collection ([`crate::g1lite`]), victim
    /// regions recycled through the free store.
    G1,
}

impl CollectorKind {
    /// Every kind, in flag order.
    pub const ALL: [CollectorKind; 4] = [CollectorKind::Ps, CollectorKind::Ms, CollectorKind::Cms, CollectorKind::G1];

    /// The CLI spelling (`--collector <flag_name>`).
    pub fn flag_name(self) -> &'static str {
        match self {
            CollectorKind::Ps => "ps",
            CollectorKind::Ms => "ms",
            CollectorKind::Cms => "cms",
            CollectorKind::G1 => "g1",
        }
    }

    /// Whether this collector ever issues the *Bitmap Count* primitive.
    /// Table 1 marks it N/A for the plain mark-sweep: with neither
    /// compaction nor region liveness there is nothing to count.
    pub fn bitmap_count_applicable(self) -> bool {
        !matches!(self, CollectorKind::Ms)
    }

    /// Validates an explicit offload mask against this collector: a mask
    /// asserting a primitive the collector never issues would silently
    /// miscount (the assertion buys nothing and misreports the offload
    /// mix), so it is rejected with a typed error instead.
    ///
    /// # Errors
    ///
    /// [`MaskCollectorConflict`] when the mask asserts Bitmap Count for
    /// a collector whose Table 1 row marks it N/A.
    pub fn validate_mask(self, mask: OffloadMask) -> Result<(), MaskCollectorConflict> {
        if mask.bitmap_count && !self.bitmap_count_applicable() {
            return Err(MaskCollectorConflict { collector: self, primitive: "bitmap-count" });
        }
        Ok(())
    }
}

impl fmt::Display for CollectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.flag_name())
    }
}

impl std::str::FromStr for CollectorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<CollectorKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "ps" => Ok(CollectorKind::Ps),
            "ms" | "marksweep" => Ok(CollectorKind::Ms),
            "cms" => Ok(CollectorKind::Cms),
            "g1" => Ok(CollectorKind::G1),
            other => Err(format!("unknown collector '{other}' (expected ps, ms, cms, or g1)")),
        }
    }
}

/// An explicit offload mask asserts a primitive the chosen collector
/// never issues (its Table 1 row marks the primitive N/A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskCollectorConflict {
    /// The chosen collector.
    pub collector: CollectorKind,
    /// The primitive the mask asserts.
    pub primitive: &'static str,
}

impl fmt::Display for MaskCollectorConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offload mask asserts {}, but the {} collector never issues it (Table 1 marks it N/A)",
            self.primitive, self.collector
        )
    }
}

impl std::error::Error for MaskCollectorConflict {}

/// One completed collection: everything measured about it, in one
/// record. Every per-collection report (the gclog, the census, the
/// postmortem, the adaptive controller's signals) is a fold over these.
#[derive(Debug, Clone)]
pub struct GcEvent {
    /// Collection ordinal (index into the event log).
    pub seq: u64,
    /// Minor or major.
    pub kind: GcKind,
    /// Wall-clock start.
    pub start: Ps,
    /// Pause duration (stop-the-world).
    pub wall: Ps,
    /// Per-bucket time summed over GC threads (Fig. 4).
    pub breakdown: Breakdown,
    /// Minor-specific counters.
    pub minor: Option<MinorStats>,
    /// Major-specific counters.
    pub major: Option<MajorStats>,
    /// DRAM bytes this collection moved.
    pub dram_bytes: u64,
    /// Summed host-active core time.
    pub host_active: Ps,
    /// Energy this collection drew (delta of the run account).
    pub energy: EnergyAccount,
    /// What each unit-class pool did during the pause
    /// ([`UnitClassStats::since`]; offloading backends only), in
    /// [`charon_core::device::UNIT_CLASS_NAMES`] order.
    pub units: Option<[UnitClassStats; 3]>,
    /// Heap bytes in use when the pause began.
    pub used_before: u64,
    /// Heap bytes in use when the pause ended.
    pub used_after: u64,
    /// Heap demographics, when [`Collector::census`] is on.
    pub census: Option<CensusRecord>,
}

/// Allocation failed even after a full collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// The size that could not be satisfied, in words: the failed
    /// allocation, or the live set when a compaction cannot fit it into
    /// the old generation.
    pub words: u64,
    /// Whether the failure came from the live set exceeding the old
    /// generation (a compaction-impossible full GC) rather than from an
    /// allocation request.
    pub live_overflow: bool,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.live_overflow {
            write!(f, "OutOfMemoryError: {} live words exceed the old generation; full GC cannot compact", self.words)
        } else {
            write!(f, "OutOfMemoryError: cannot allocate {} words after full GC", self.words)
        }
    }
}

impl std::error::Error for OutOfMemory {}

/// The collector: a [`System`] plus policy and the event log.
///
/// ```
/// use charon_gc::collector::Collector;
/// use charon_gc::system::System;
/// use charon_heap::heap::{HeapConfig, JavaHeap};
/// use charon_heap::klass::KlassKind;
///
/// # fn main() -> Result<(), charon_gc::collector::OutOfMemory> {
/// let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
/// let bytes = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
/// let mut gc = Collector::new(System::charon(), &heap, 8);
///
/// // Allocate until Eden overflows; the collector scavenges on demand.
/// for _ in 0..3000 {
///     let obj = gc.alloc(&mut heap, bytes, 64)?;
///     heap.add_root(obj);
///     if heap.root_count() > 100 {
///         heap.set_root(heap.root_count() - 100, charon_heap::VAddr::NULL);
///     }
/// }
/// assert!(!gc.events.is_empty());
/// println!("GC paused the mutator for {}", gc.gc_total_time());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Collector {
    /// The simulated machine.
    pub sys: System,
    /// GC threads per collection (the paper uses one per core; Fig. 15
    /// sweeps this).
    pub gc_threads: usize,
    /// The global wall clock (mutator + GC).
    pub now: Ps,
    /// Every collection that has run.
    pub events: Vec<GcEvent>,
    /// Take the heap-demographics census ([`crate::census`]) into each
    /// event. Off by default: the walk is costly. Purely functional —
    /// enabling it never changes simulated timing.
    pub census: bool,
    /// Adaptive offload controller ([`crate::adapt`]); `None` (the
    /// default) keeps the installed [`crate::system::OffloadMask`] fixed
    /// for the whole run. When present, it re-decides the mask at every
    /// GC prologue and observes the realized pause at the epilogue —
    /// without ever advancing the simulated clock itself.
    pub adapt: Option<crate::adapt::Controller>,
    /// Which old-generation collector the Major arm runs. Under the
    /// default [`CollectorKind::Ps`] the free store stays empty and the
    /// concurrent marker never starts — the committed PS fingerprints
    /// are byte-identical with these fields present.
    pub kind: CollectorKind,
    /// Free-list old-generation allocator: sweeps recycle dead ranges
    /// here, and promotion/large allocation consults it before the bump
    /// frontier. Empty (every consult a constant-time `None`) under PS.
    pub free: FreeStore,
    /// Incremental concurrent marker state ([`CollectorKind::Cms`]).
    pub concmark: ConcMark,
}

impl Collector {
    /// Creates the collector for a heap on `sys`. Nothing is read from the
    /// heap until the first collection (the device's launch-time
    /// `initialize()`, §4.1, costs no simulated time and is not modelled).
    pub fn new(sys: System, _heap: &JavaHeap, gc_threads: usize) -> Collector {
        assert!(gc_threads > 0, "need at least one GC thread");
        Collector {
            sys,
            gc_threads,
            now: Ps::ZERO,
            events: Vec::new(),
            census: false,
            adapt: None,
            kind: CollectorKind::Ps,
            free: FreeStore::new(),
            concmark: ConcMark::new(),
        }
    }

    /// The filler klass the non-moving collectors re-header dead ranges
    /// with — an existing primitive-array klass when the workload
    /// registered one, else a dedicated `gc-filler` type array.
    fn ensure_filler(&mut self, heap: &mut JavaHeap) -> KlassId {
        if let Some(f) = self.free.filler() {
            return f;
        }
        let existing = heap.klasses().iter().find(|k| k.kind() == KlassKind::TypeArray).map(|k| k.id());
        let id = existing.unwrap_or_else(|| heap.klasses_mut().register_array("gc-filler", KlassKind::TypeArray));
        self.free.set_filler(id);
        id
    }

    /// Runs one MinorGC now.
    pub fn minor_gc(&mut self, heap: &mut JavaHeap) -> &GcEvent {
        self.run(heap, GcKind::Minor)
    }

    /// Runs one MajorGC now.
    ///
    /// # Panics
    ///
    /// Panics if the live set cannot fit into the old generation (use
    /// [`Collector::try_major_gc`] for the fallible form).
    pub fn major_gc(&mut self, heap: &mut JavaHeap) -> &GcEvent {
        self.run(heap, GcKind::Major)
    }

    /// Runs one MajorGC, failing cleanly (before touching any state) when
    /// the reachable bytes exceed the old generation — the condition under
    /// which a full compaction cannot complete and a JVM raises
    /// `OutOfMemoryError`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] in the overflow case.
    pub fn try_major_gc(&mut self, heap: &mut JavaHeap) -> Result<&GcEvent, OutOfMemory> {
        let live = crate::verify::reachable_bytes(heap);
        if live > heap.old().capacity_bytes() {
            return Err(OutOfMemory { words: live / 8, live_overflow: true });
        }
        Ok(self.run(heap, GcKind::Major))
    }

    fn run(&mut self, heap: &mut JavaHeap, kind: GcKind) -> &GcEvent {
        self.sys.collection_seq = self.events.len() as u64;
        // Taken before the re-arm tick, so the re-arms it books belong to
        // this collection's recovery delta.
        let recovery_before = self.sys.recovery;
        // Re-arm prologue: watchdog-dead units that have sat out enough
        // collections come back in probe mode — before the adaptive
        // controller looks at unit health, so it sees the restored mask.
        self.sys.gc_rearm_tick(self.now);
        // Adaptive-offload prologue: the controller (taken out of `self`
        // so it can borrow the rest) re-decides the mask before any
        // collection work is timed.
        if let Some(mut ctl) = self.adapt.take() {
            ctl.decide(&mut self.sys, &self.events, kind, self.now);
            self.adapt = Some(ctl);
        }
        let pre_census = self.census.then(|| crate::census::pre(heap, kind));
        // The meters this collection's deltas are taken against. Read-only:
        // none of these snapshots advances a clock.
        let energy_before = self.sys.energy.account().clone();
        let units_before = self.sys.unit_stats();
        let used_before = heap.used_bytes();
        let start = self.now;
        let dram_before = self.sys.dram_bytes();
        let bw_before = self.sys.host.fabric.occupancy();
        let mut threads = GcThreads::new(self.gc_threads, start);
        self.sys.host.barrier(start);

        let (mut breakdown, minor, major) = match kind {
            GcKind::Minor => {
                let (bd, st) = minor_gc(&mut self.sys, heap, &mut threads, &mut self.free);
                (bd, Some(st), None)
            }
            GcKind::Major => match self.kind {
                CollectorKind::Ps => {
                    let (bd, st) = major_gc(&mut self.sys, heap, &mut threads);
                    (bd, None, Some(st))
                }
                CollectorKind::Ms => {
                    let filler = self.ensure_filler(heap);
                    let (bd, st) = mark_sweep_into(&mut self.sys, heap, &mut threads, filler, &mut self.free);
                    crate::concmark::rebuild_old_bot(heap);
                    (bd, None, Some(sweep_to_major(&st)))
                }
                CollectorKind::Cms => {
                    let filler = self.ensure_filler(heap);
                    let (bd, st) = crate::concmark::cms_old_gc(
                        &mut self.sys,
                        heap,
                        &mut threads,
                        &mut self.concmark,
                        &mut self.free,
                        filler,
                    );
                    (bd, None, Some(sweep_to_major(&st)))
                }
                CollectorKind::G1 => {
                    let filler = self.ensure_filler(heap);
                    let (bd, st, regions) = g1_mixed_collect(&mut self.sys, heap, &mut threads, filler, &mut self.free);
                    // Fresh victims join the store; chunks from earlier
                    // cycles stay (they were excluded from the cset, so
                    // the collection never re-reported them).
                    for r in regions {
                        self.free.recycle(r.start, r.words());
                    }
                    crate::concmark::rebuild_old_bot(heap);
                    (bd, None, Some(g1_to_major(&st)))
                }
            },
        };
        // A completed scavenge re-arms the concurrent marker: at most
        // one cycle starts per mutator window.
        if self.kind == CollectorKind::Cms && kind == GcKind::Minor {
            self.concmark.arm();
        }
        let end = threads.barrier();
        let wall = end - start;
        let host_active = threads.total_host_active();
        let dram_bytes = self.sys.dram_bytes() - dram_before;
        breakdown.record_bw(self.sys.host.fabric.occupancy() - bw_before);
        breakdown.record_recovery(self.sys.recovery.since(recovery_before));
        self.sys.charge_gc_energy(wall, self.gc_threads, host_active, dram_bytes);
        let seq = self.sys.collection_seq;
        // After the energy charge, so the delta covers exactly this
        // collection's draw.
        let energy = self.sys.energy.account().since(&energy_before);
        let units = self
            .sys
            .unit_stats()
            .zip(units_before)
            .map(|(after, before)| std::array::from_fn(|i| after[i].since(&before[i])));
        self.sys.telemetry.record(|| charon_sim::telemetry::Event::Collection {
            seq,
            kind: match kind {
                GcKind::Minor => "minor",
                GcKind::Major => "major",
            },
            start,
            end,
        });
        self.now = end;
        let census = pre_census.map(|pre| {
            let threshold = minor.map_or(0, |m| m.tenuring_threshold);
            crate::census::post(heap, kind, seq, &pre, threshold)
        });
        self.events.push(GcEvent {
            seq,
            kind,
            start,
            wall,
            breakdown,
            minor,
            major,
            dram_bytes,
            host_active,
            energy,
            units,
            used_before,
            used_after: heap.used_bytes(),
            census,
        });
        if let Some(ctl) = self.adapt.as_mut() {
            ctl.observe(kind, wall);
        }
        self.events.last().expect("just pushed")
    }

    /// The mutator's allocation entry point, with HotSpot's policy:
    /// Eden-first; on failure a MinorGC (preceded by a MajorGC when Old
    /// could not absorb a fully-promoted young generation); large objects
    /// fall back to Old; a final MajorGC before declaring OOM.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the allocation cannot be satisfied
    /// after a full collection.
    pub fn alloc(&mut self, heap: &mut JavaHeap, klass: KlassId, array_len: u32) -> Result<VAddr, OutOfMemory> {
        if self.kind == CollectorKind::Cms {
            self.cms_tick(heap)?;
        }
        if let Some(a) = heap.alloc_eden(klass, array_len) {
            return Ok(a);
        }
        if heap.old().free_bytes() + self.free.free_bytes() < heap.young_used_bytes() {
            self.try_major_gc(heap)?;
        } else {
            self.minor_gc(heap);
        }
        if let Some(a) = heap.alloc_eden(klass, array_len) {
            return Ok(a);
        }
        // Large allocation: place directly in Old.
        let words = heap.klasses().get(klass).size_words(array_len);
        if let Some(a) = self.alloc_in_old(heap, klass, array_len, words) {
            return Ok(a);
        }
        self.try_major_gc(heap)?;
        if let Some(a) = heap.alloc_eden(klass, array_len) {
            return Ok(a);
        }
        if let Some(a) = self.alloc_in_old(heap, klass, array_len, words) {
            return Ok(a);
        }
        Err(OutOfMemory { words, live_overflow: false })
    }

    fn alloc_in_old(&mut self, heap: &mut JavaHeap, klass: KlassId, array_len: u32, words: u64) -> Option<VAddr> {
        // Dead-range allocation first: the free store (empty under PS,
        // where this consult is a constant-time `None`), then the bump
        // frontier.
        match self.free.allocate_old(heap, words) {
            Some(a) => {
                heap.init_recycled_object(a, klass, array_len);
                Some(a)
            }
            None => heap.alloc_old_object(klass, array_len),
        }
    }

    /// The `cms` mutator hook, called on every allocation: fires the
    /// pending remark, runs one bounded concurrent mark step (charging
    /// its host time to the wall clock — interleaved with the mutator,
    /// not a pause), or starts a cycle at the occupancy trigger.
    ///
    /// # Errors
    ///
    /// Propagates [`OutOfMemory`] from a remark-triggered full GC.
    fn cms_tick(&mut self, heap: &mut JavaHeap) -> Result<(), OutOfMemory> {
        if self.concmark.remark_pending {
            self.try_major_gc(heap)?;
            return Ok(());
        }
        if self.concmark.active {
            let w = self.concmark.step(heap, crate::concmark::STEP_BUDGET, self.now);
            if w.scanned > 0 || w.refs > 0 {
                let instrs = w.scanned * (self.sys.costs.pop + self.sys.costs.walk_per_obj) + w.refs * 8;
                // Pure compute between pauses: not part of any
                // collection, so nothing to book or trace.
                let end = self.now + self.sys.compute(instrs);
                self.concmark.conc_time += end - self.now;
                self.now = end;
            }
            return Ok(());
        }
        if self.concmark.armed {
            let live_est = heap.old().used_bytes().saturating_sub(self.free.free_bytes());
            if live_est * 100 >= heap.old().capacity_bytes() * crate::concmark::CMS_TRIGGER_PCT {
                self.ensure_filler(heap);
                heap.set_concmark_barrier(true);
                self.free.set_log_births(true);
                self.concmark.start_cycle(heap, self.now);
            }
        }
        Ok(())
    }

    /// Total stop-the-world time so far.
    pub fn gc_total_time(&self) -> Ps {
        self.events.iter().map(|e| e.wall).sum()
    }

    /// Total time in MinorGC / MajorGC pauses.
    pub fn gc_time_by_kind(&self, kind: GcKind) -> Ps {
        self.events.iter().filter(|e| e.kind == kind).map(|e| e.wall).sum()
    }

    /// Number of collections of `kind`.
    pub fn count(&self, kind: GcKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Summed breakdown over all events of `kind`.
    pub fn breakdown_by_kind(&self, kind: GcKind) -> Breakdown {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.breakdown)
            .fold(Breakdown::new(), |a, b| a + b)
    }
}

/// Maps a sweep outcome into the event stream's [`MajorStats`] shape, so
/// every downstream consumer (profile, census, postmortem, fingerprints)
/// reads the non-moving collectors through the schema it already knows:
/// nothing moves, and the free-chunk count stands in for regions.
fn sweep_to_major(st: &SweepStats) -> MajorStats {
    MajorStats {
        live_bytes: st.old_live_bytes,
        moved_bytes: 0,
        marked_objects: st.marked_objects,
        regions: st.free_chunks,
        cleared_weak_refs: 0,
    }
}

/// Maps a G1-lite outcome into [`MajorStats`]: evacuation is movement,
/// and the heap-region count stands in for compaction regions.
fn g1_to_major(st: &G1Stats) -> MajorStats {
    MajorStats {
        live_bytes: 0,
        moved_bytes: st.evacuated_bytes,
        marked_objects: st.marked_objects,
        regions: st.regions as u64,
        cleared_weak_refs: 0,
    }
}

#[cfg(test)]
impl GcEvent {
    /// Collection `seq` of `kind` with every measurement zero.
    pub(crate) fn blank(kind: GcKind, seq: u64) -> GcEvent {
        GcEvent {
            seq,
            kind,
            start: Ps::ZERO,
            wall: Ps::ZERO,
            breakdown: Breakdown::new(),
            minor: None,
            major: None,
            dram_bytes: 0,
            host_active: Ps::ZERO,
            energy: EnergyAccount::default(),
            units: None,
            used_before: 0,
            used_after: 0,
            census: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_collector_conflicts_are_typed_errors() {
        // ms never issues Bitmap Count (Table 1 N/A) — asserting it is
        // a contradiction; every other collector accepts the full mask.
        let mask: OffloadMask = "all".parse().unwrap();
        let e = CollectorKind::Ms.validate_mask(mask).unwrap_err();
        assert_eq!(e.collector, CollectorKind::Ms);
        assert_eq!(e.primitive, "bitmap-count");
        assert!(e.to_string().contains("never issues it"), "{e}");
        for kind in [CollectorKind::Ps, CollectorKind::Cms, CollectorKind::G1] {
            kind.validate_mask(mask).unwrap();
        }
        let no_bc: OffloadMask = "copy,search,scan-push".parse().unwrap();
        CollectorKind::Ms.validate_mask(no_bc).unwrap();
    }
}
