//! Incremental concurrent marking for the free-list old generation — the
//! `cms` collector's marking half.
//!
//! The Scan&Push drain that [`crate::marksweep`] runs in one
//! stop-the-world pause is split here into bounded **mark steps**
//! interleaved with mutator allocation on the simulated clock. The old
//! generation is divided into fixed-size zones, each owning its own
//! pending-object stack (VGC-style), so steps are independent of each
//! other: a step drains a bounded number of objects from one zone and
//! routes newly-marked targets to their owners' stacks.
//!
//! Correctness is incremental-update style:
//!
//! * while a cycle is active the heap's write barrier dirties the card of
//!   **every** old-generation reference store
//!   ([`charon_heap::heap::JavaHeap::set_concmark_barrier`]), and MinorGC
//!   leaves dirty cards in place instead of cleaning them;
//! * objects allocated in Old mid-cycle are allocate-black: bump
//!   allocations sit above the cycle's watermark, free-list allocations
//!   are recorded in the [`crate::freelist::FreeStore`] birth log;
//! * a final stop-the-world **remark** ([`cms_old_gc`]) drains the zone
//!   backlog, rescans roots, marks the watermark/birth survivors, rescans
//!   dirty old cards, and completes the closure — then counts region
//!   liveness with *Bitmap Count* (the phase Table 3's PS runs never let
//!   dominate) and sweeps dead ranges into the free store.
//!
//! Weak references are treated as strong, matching [`crate::marksweep`].

use crate::breakdown::Bucket;
use crate::freelist::FreeStore;
use crate::major::{count_regions, REGION_WORDS};
use crate::marksweep::{assert_filler, clear_young_marks, drain, push_obj, seed_roots, sweep_old, SweepStats};
use crate::minor::search_dirty_cards;
use crate::pause::{Pause, PauseTotals, Step};
use crate::system::System;
use charon_heap::addr::VAddr;
use charon_heap::heap::JavaHeap;
use charon_heap::klass::KlassId;
use charon_heap::markbitmap::mark_object;
use charon_heap::object::{self, MarkState};
use charon_heap::objstack::ObjStack;
use charon_sim::cache::AccessKind;
use charon_sim::time::Ps;

/// Old-generation words per concurrent-mark zone (64 KB zones at the
/// scaled heap sizes — the granularity of step independence).
pub const CONC_ZONE_WORDS: u64 = 8192;

/// Objects drained per concurrent mark step.
pub const STEP_BUDGET: usize = 64;

/// Start a cycle when estimated old-generation live bytes reach this
/// percentage of capacity (CMS's `InitiatingOccupancyFraction`).
pub const CMS_TRIGGER_PCT: u64 = 50;

/// One entry in the concurrent-cycle log, rendered by
/// [`crate::gclog::concmark_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcEvent {
    /// A cycle started: the barrier armed and roots seeded.
    Start {
        /// Simulated time of the trigger.
        at: Ps,
        /// Old objects seeded from the roots.
        seeded: u64,
        /// Zones the old generation was divided into.
        zones: usize,
    },
    /// One bounded mark step ran between allocations.
    Step {
        /// Simulated time of the step.
        at: Ps,
        /// The zone drained.
        zone: usize,
        /// Objects scanned (≤ [`STEP_BUDGET`]).
        scanned: u64,
    },
    /// The stop-the-world remark closed the cycle.
    Remark {
        /// Simulated start of the remark pause.
        at: Ps,
        /// Total objects marked by the whole cycle.
        marked: u64,
    },
}

/// Work one [`ConcMark::step`] performed, for the caller's time charge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepWork {
    /// Objects popped and scanned.
    pub scanned: u64,
    /// Reference slots examined.
    pub refs: u64,
}

/// Where the incremental marker stands between allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkPhase {
    /// No cycle in flight, and none may start until the next MinorGC
    /// re-arms the marker.
    Idle,
    /// No cycle in flight; one starts at the next occupancy trigger.
    Armed,
    /// A cycle is in flight: the barrier is armed, zones hold work.
    Marking,
    /// A cycle is in flight and every zone stack drained; the next
    /// allocation triggers the stop-the-world remark.
    RemarkPending,
}

/// State of the incremental marker across a cycle.
#[derive(Debug, Clone)]
pub struct ConcMark {
    phase: MarkPhase,
    /// Per-zone pending-object stacks. Plain vectors (not simulated-heap
    /// [`ObjStack`]s) are sound because the old generation never moves
    /// under this collector.
    zones: Vec<Vec<VAddr>>,
    old_start: VAddr,
    /// Old-generation top at cycle start: bump allocations at or above
    /// it were born during the cycle and are marked live at remark.
    pub watermark: VAddr,
    cursor: usize,
    /// Cycles started so far.
    pub cycles_started: u64,
    /// Concurrent steps taken so far.
    pub steps: u64,
    /// Objects marked by concurrent steps of the current cycle.
    pub marked_concurrent: u64,
    /// Simulated time spent in concurrent steps (mutator-interleaved,
    /// not pause time).
    pub conc_time: Ps,
    /// The cycle log.
    pub events: Vec<ConcEvent>,
}

impl Default for ConcMark {
    fn default() -> ConcMark {
        ConcMark::new()
    }
}

/// Marks one object: header state, plus begin/end bitmap bits when it
/// lives in Old (the remark's Bitmap Count pass only reads the old
/// generation's span, and young headers are wiped wholesale afterwards).
fn mark_one(heap: &mut JavaHeap, obj: VAddr) {
    object::set_marked(&mut heap.mem, obj);
    if heap.in_old(obj) {
        let size = heap.obj_size_words(obj);
        let (beg, end) = (*heap.beg_map(), *heap.end_map());
        mark_object(&mut heap.mem, &beg, &end, obj, size);
    }
}

impl ConcMark {
    /// A marker with no cycle in flight.
    pub fn new() -> ConcMark {
        ConcMark {
            phase: MarkPhase::Armed,
            zones: Vec::new(),
            old_start: VAddr::NULL,
            watermark: VAddr::NULL,
            cursor: 0,
            cycles_started: 0,
            steps: 0,
            marked_concurrent: 0,
            conc_time: Ps::ZERO,
            events: Vec::new(),
        }
    }

    /// Where the marker stands.
    pub fn phase(&self) -> MarkPhase {
        self.phase
    }

    /// Whether a cycle is in flight (marking or awaiting its remark).
    fn in_cycle(&self) -> bool {
        matches!(self.phase, MarkPhase::Marking | MarkPhase::RemarkPending)
    }

    /// Permits the next occupancy check to start a cycle (called after
    /// each MinorGC, so at most one cycle starts per mutator window).
    pub fn arm(&mut self) {
        if self.phase == MarkPhase::Idle {
            self.phase = MarkPhase::Armed;
        }
    }

    /// The zone owning old address `a`.
    fn zone_of(&self, a: VAddr) -> usize {
        (((a - self.old_start) / 8 / CONC_ZONE_WORDS) as usize).min(self.zones.len() - 1)
    }

    /// Begins a cycle at simulated time `now`: divides Old into zones,
    /// records the allocation watermark, and seeds the zone stacks with
    /// unmarked old objects the roots reference. The caller arms the
    /// heap's write barrier and the free store's birth log first. An
    /// empty seed closes the cycle immediately ([`MarkPhase::RemarkPending`]).
    pub fn start_cycle(&mut self, heap: &mut JavaHeap, now: Ps) {
        debug_assert!(!self.in_cycle(), "cycle already in flight");
        let old_words = (heap.old().end() - heap.old().start()) / 8;
        let zone_count = (old_words.div_ceil(CONC_ZONE_WORDS)).max(1) as usize;
        self.zones = vec![Vec::new(); zone_count];
        self.old_start = heap.old().start();
        self.watermark = heap.old().top();
        self.cursor = 0;
        self.marked_concurrent = 0;
        self.phase = MarkPhase::Marking;
        self.cycles_started += 1;

        let mut seeded = 0u64;
        for idx in 0..heap.root_count() {
            let r = heap.read_root(idx);
            if !r.is_null() && heap.in_old(r) && object::mark_state(&heap.mem, r) != MarkState::Marked {
                mark_one(heap, r);
                let z = self.zone_of(r);
                self.zones[z].push(r);
                seeded += 1;
            }
        }
        self.marked_concurrent = seeded;
        if seeded == 0 {
            self.phase = MarkPhase::RemarkPending;
        }
        self.events.push(ConcEvent::Start { at: now, seeded, zones: zone_count });
    }

    /// One bounded mark step: drains up to `budget` objects from the
    /// next non-empty zone (round-robin), marking and routing unmarked
    /// old targets to their owners' zones. Young targets are skipped —
    /// the remark re-traverses the young generation. Moves to
    /// [`MarkPhase::RemarkPending`] when every zone is dry.
    pub fn step(&mut self, heap: &mut JavaHeap, budget: usize, now: Ps) -> StepWork {
        debug_assert!(self.in_cycle(), "no cycle in flight");
        let n = self.zones.len();
        let Some(z) = (0..n).map(|i| (self.cursor + i) % n).find(|&i| !self.zones[i].is_empty()) else {
            self.phase = MarkPhase::RemarkPending;
            return StepWork::default();
        };
        let mut work = StepWork::default();
        for _ in 0..budget {
            let Some(obj) = self.zones[z].pop() else { break };
            work.scanned += 1;
            for slot in heap.ref_slots(obj) {
                work.refs += 1;
                let v = heap.read_ref(slot);
                if !v.is_null() && heap.in_old(v) && object::mark_state(&heap.mem, v) != MarkState::Marked {
                    mark_one(heap, v);
                    self.marked_concurrent += 1;
                    let zv = self.zone_of(v);
                    self.zones[zv].push(v);
                }
            }
        }
        self.cursor = (z + 1) % n;
        self.steps += 1;
        if self.zones.iter().all(Vec::is_empty) {
            self.phase = MarkPhase::RemarkPending;
        }
        self.events.push(ConcEvent::Step { at: now, zone: z, scanned: work.scanned });
        work
    }

    /// Drains every zone stack for the remark (the objects are already
    /// marked; their fields still need scanning).
    fn take_backlog(&mut self) -> Vec<VAddr> {
        let mut out = Vec::new();
        for z in &mut self.zones {
            out.append(z);
        }
        out
    }

    /// Closes the cycle's book-keeping (the remark's last act). A full
    /// STW collection with no cycle in flight leaves the phase as it was,
    /// so an armed marker stays armed.
    fn finish(&mut self) {
        if self.in_cycle() {
            self.phase = MarkPhase::Idle;
        }
        self.zones.clear();
        self.cursor = 0;
        self.marked_concurrent = 0;
    }
}

/// Rebuilds the block-offset table from a linear walk of the old
/// generation — required after any sweep that installs filler headers,
/// or stale BOT entries would point card walks into dead interiors.
/// Returns the number of objects walked.
pub(crate) fn rebuild_old_bot(heap: &mut JavaHeap) -> u64 {
    let objs: Vec<(VAddr, u64)> = heap.walk_objects_sized(heap.old().start(), heap.old().top()).collect();
    heap.bot_clear();
    let n = objs.len() as u64;
    for (obj, words) in objs {
        heap.bot_update(obj, words);
    }
    n
}

/// The `cms` old-generation collection from `start` on `threads` GC
/// threads: stop-the-world remark at `start` (or, when no cycle is in
/// flight, a full STW mark), *Bitmap Count* region
/// liveness over Old, and a sweep that recycles dead ranges into the
/// free store. Disarms the write barrier and birth log on the way out.
///
/// # Panics
///
/// Panics if `filler_klass` is not a type-array klass.
pub fn cms_old_gc(
    sys: &mut System,
    heap: &mut JavaHeap,
    threads: usize,
    start: Ps,
    cm: &mut ConcMark,
    free: &mut FreeStore,
    filler_klass: KlassId,
) -> (PauseTotals, SweepStats) {
    assert_filler(heap, filler_klass);
    let mut pc = Pause::open(sys, threads, start);
    let mut st = SweepStats { marked_objects: cm.marked_concurrent, ..SweepStats::default() };
    let mut stack = ObjStack::new(heap.layout().major_stack);

    // Remark seed 1: the concurrent backlog — already marked, fields
    // still unscanned.
    for obj in cm.take_backlog() {
        push_obj(&mut pc, &mut stack, obj, None);
    }
    // Remark seed 2: roots (young and old — the remark traverses the
    // young generation in full, which is why young-slot stores need no
    // barrier).
    seed_roots(&mut pc, heap, &mut stack, &mut st, mark_one, false);
    if cm.in_cycle() {
        seed_cycle_survivors(&mut pc, heap, &mut stack, &mut st, cm.watermark, free.take_births());
    }

    // Drain: complete the transitive closure. Descent skips already-
    // marked objects — the concurrent phase traced their old successors,
    // and the card rescan covered mid-cycle mutations.
    drain(&mut pc, heap, &mut stack, &mut st, mark_one);
    pc.serial(Step::FlushBitmapCache);
    cm.events.push(ConcEvent::Remark { at: start, marked: st.marked_objects });

    // Region liveness via Bitmap Count over the old generation — with no
    // compaction there is no Copy and no per-reference adjust, so this
    // is the offload mix's dominant primitive (the regime Table 3's PS
    // runs never reach).
    let mut live_words = 0u64;
    count_regions(&mut pc, heap, heap.old().used_region(), REGION_WORDS, |_, live, _| live_words += live);
    pc.barrier();

    sweep_old(&mut pc, heap, filler_klass, &mut st, free);
    debug_assert_eq!(
        live_words * 8,
        st.old_live_bytes,
        "Bitmap Count region liveness disagrees with the sweep's header walk"
    );
    // The remark marked the young objects it traversed; the bitmaps never
    // held young bits.
    clear_young_marks(heap);

    // Drop the bitmaps (only old-generation bits were ever set) and
    // rebuild the BOT over the swept layout — filler headers moved the
    // object starts the card walks depend on.
    let (bm, em) = (*heap.beg_map(), *heap.end_map());
    bm.clear_all(&mut heap.mem);
    em.clear_all(&mut heap.mem);
    let walked = rebuild_old_bot(heap);
    pc.host(Bucket::Other, walked * 2, &[]);

    // The cycle is closed: disarm the barrier and the birth log.
    heap.set_concmark_barrier(false);
    free.set_log_births(false);
    cm.finish();
    pc.barrier();
    (pc.finish(), st)
}

/// Marks and pushes `obj` unless it is already marked, so its successors
/// get traced.
fn mark_and_push(pc: &mut Pause, heap: &mut JavaHeap, stack: &mut ObjStack, st: &mut SweepStats, obj: VAddr) {
    if object::mark_state(&heap.mem, obj) != MarkState::Marked {
        mark_one(heap, obj);
        st.marked_objects += 1;
        push_obj(pc, stack, obj, None);
    }
}

/// The remark seeds only a cycle in flight needs: the allocate-black
/// survivors — free-list `births` and everything bump-allocated above the
/// `watermark` since the cycle started — and the dirty-card rescan.
fn seed_cycle_survivors(
    pc: &mut Pause,
    heap: &mut JavaHeap,
    stack: &mut ObjStack,
    st: &mut SweepStats,
    watermark: VAddr,
    births: Vec<VAddr>,
) {
    for b in births {
        mark_and_push(pc, heap, stack, st, b);
    }
    let born: Vec<VAddr> = heap.walk_objects(watermark, heap.old().top()).collect();
    for obj in born {
        pc.host(Bucket::Other, pc.sys.costs.walk_per_obj, &[(obj, AccessKind::Read)]);
        mark_and_push(pc, heap, stack, st, obj);
    }

    // Dirty-card rescan — every old slot the mutator stored during the
    // cycle sits on a dirty card (the widened barrier); unmarked targets,
    // young or old, are marked and pushed. Cards are NOT cleaned: the
    // old-to-young ones among them still belong to the next scavenge.
    search_dirty_cards(pc, heap, |pc, heap, card| rescan_card(pc, heap, stack, st, card));
}

/// Rescans one dirty old card at remark: walks the objects overlapping
/// it and marks + pushes every unmarked target its in-card slots hold.
/// The card itself is left dirty.
fn rescan_card(pc: &mut Pause, heap: &mut JavaHeap, stack: &mut ObjStack, st: &mut SweepStats, card: VAddr) {
    let region = heap.cards().card_region(card);
    let Some(first) = heap.first_obj_for_card(card) else { return };
    let top = heap.old().top();
    let mut obj = first;
    while obj < region.end && obj < top {
        pc.host(Bucket::Search, pc.sys.costs.card_walk_per_obj, &[(obj, AccessKind::Read)]);

        let size = heap.obj_size_words(obj);
        for slot in heap.ref_slots(obj) {
            if slot < region.start || slot >= region.end {
                continue;
            }
            let v = heap.read_ref(slot);
            if !v.is_null() {
                mark_and_push(pc, heap, stack, st, v);
            }
        }
        obj = obj.add_words(size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charon_heap::heap::{HeapConfig, JavaHeap};
    use charon_heap::klass::KlassKind;

    fn heap_with_old_chain(n: usize) -> (JavaHeap, Vec<VAddr>) {
        let mut h = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
        let node = h.klasses_mut().register("Node", KlassKind::Instance, 4, vec![0]);
        let words = h.klasses().get(node).size_words(0);
        let mut objs = Vec::new();
        for _ in 0..n {
            let o = h.alloc_old(words).unwrap();
            object::init_header(&mut h.mem, o, node, 0);
            objs.push(o);
        }
        for w in objs.windows(2) {
            h.write_ref(w[0].add_words(2), w[1]);
        }
        h.add_root(objs[0]);
        (h, objs)
    }

    #[test]
    fn cycle_marks_transitively_in_bounded_steps() {
        let (mut h, objs) = heap_with_old_chain(10);
        let mut cm = ConcMark::new();
        cm.start_cycle(&mut h, Ps::ZERO);
        assert_eq!(cm.phase(), MarkPhase::Marking, "the chain head was seeded");
        let mut guard = 0;
        while cm.phase() != MarkPhase::RemarkPending {
            cm.step(&mut h, 2, Ps::ZERO);
            guard += 1;
            assert!(guard < 100, "cycle failed to converge");
        }
        for &o in &objs {
            assert_eq!(object::mark_state(&h.mem, o), MarkState::Marked, "{o} missed");
        }
        assert_eq!(cm.marked_concurrent, objs.len() as u64);
    }

    #[test]
    fn empty_seed_goes_straight_to_remark() {
        let mut h = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
        let mut cm = ConcMark::new();
        cm.start_cycle(&mut h, Ps::ZERO);
        assert_eq!(cm.phase(), MarkPhase::RemarkPending, "nothing to mark concurrently");
        assert!(matches!(cm.events[0], ConcEvent::Start { seeded: 0, .. }));
    }

    #[test]
    fn finish_closes_only_a_cycle_in_flight() {
        // A full STW collection with no cycle in flight leaves an armed
        // marker armed and an idle one idle.
        let mut cm = ConcMark::new();
        cm.finish();
        assert_eq!(cm.phase(), MarkPhase::Armed);
        let (mut h, _) = heap_with_old_chain(3);
        cm.start_cycle(&mut h, Ps::ZERO);
        cm.finish();
        assert_eq!(cm.phase(), MarkPhase::Idle);
        cm.finish();
        assert_eq!(cm.phase(), MarkPhase::Idle);
        cm.arm();
        assert_eq!(cm.phase(), MarkPhase::Armed);
    }

    #[test]
    fn arm_is_refused_mid_cycle() {
        let (mut h, _) = heap_with_old_chain(3);
        let mut cm = ConcMark::new();
        cm.start_cycle(&mut h, Ps::ZERO);
        cm.arm();
        assert_eq!(cm.phase(), MarkPhase::Marking, "a cycle in flight blocks re-arming");
    }
}
