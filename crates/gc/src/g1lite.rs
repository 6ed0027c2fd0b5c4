//! A Garbage-First-style mixed collection — Table 1's G1 row, measured.
//!
//! G1 divides the heap into equal regions, keeps per-region liveness from
//! a concurrent mark, and evacuates the old regions with the most garbage
//! first ("garbage first"), guided by remembered sets of incoming
//! references. This module implements that shape on the same substrate:
//!
//! 1. **Mark** — the same Scan&Push drain as MajorGC (begin/end bitmaps,
//!    `mark_obj` through the bitmap cache);
//! 2. **Region liveness** — one *Bitmap Count* per heap region; this is
//!    the "slight modification to the G1 code, where it scans the bitmap
//!    to identify the state of the entire heap" the paper's Table 1 notes;
//! 3. **Collection-set selection** — old regions below a liveness
//!    threshold;
//! 4. **Evacuation** — live objects of victim regions *Copy* to the old
//!    allocation frontier; remembered-set slots (collected during the
//!    mark) plus in-victim self references are updated;
//! 5. **Reclaim** — victim regions are overwritten with filler arrays and
//!    returned as a free-region list (a full G1 would recycle them through
//!    its region allocator).
//!
//! Together with the ordinary young scavenge (*Copy*, *Search*) this
//! exercises every Charon primitive, Bitmap Count included — exactly the
//! ✓✓/✓✓/✓ applicability row the paper claims for G1.

use crate::breakdown::Bucket;
use crate::freelist::FreeStore;
use crate::major::{clear_dead_referents, count_regions, mark_phase, MajorStats};
use crate::marksweep::{assert_filler, clear_marks_in, clear_young_marks};
use crate::pause::{Pause, PauseTotals, Step};
use crate::system::System;
use charon_core::device::OffloadCall;
use charon_heap::addr::{VAddr, VRange};
use charon_heap::heap::JavaHeap;
use charon_heap::klass::KlassId;
use charon_heap::object;
use charon_heap::objstack::ObjStack;
use charon_sim::cache::AccessKind;
use charon_sim::time::Ps;

/// Heap words per G1 region (64 KB regions at the scaled heap sizes; the
/// real G1 uses 1–32 MB on multi-GB heaps).
pub const G1_REGION_WORDS: u64 = 8192;

/// Evacuate regions whose live fraction is below this (G1's
/// `G1MixedGCLiveThresholdPercent` is 85%; garbage-first means mostly-dead
/// regions go first).
pub const LIVE_THRESHOLD: f64 = 0.85;

/// Outcome of one G1-lite mixed collection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct G1Stats {
    /// Objects marked live.
    pub marked_objects: u64,
    /// Old regions considered.
    pub regions: usize,
    /// Regions chosen for evacuation.
    pub collection_set: usize,
    /// Live bytes evacuated out of the collection set.
    pub evacuated_bytes: u64,
    /// Bytes reclaimed (the garbage in evacuated regions).
    pub reclaimed_bytes: u64,
    /// Remembered-set entries updated.
    pub remset_updates: u64,
}

/// Runs one G1-lite mixed collection over the old generation, from `start`
/// on `threads` GC threads.
/// `filler_klass` must be a primitive-array klass (used to keep reclaimed
/// regions parsable). Returns the free-region list.
///
/// `free` is the region-allocator stand-in: chunks it holds are the
/// regions previous cycles reclaimed (a real G1's free-region list), so
/// they are excluded from the collection set and preferred as evacuation
/// targets over the bump frontier. An empty store degenerates to the
/// frontier-only behavior.
///
/// # Panics
///
/// Panics if `filler_klass` is not a type-array klass, or if neither the
/// free store nor the old frontier can absorb the evacuated survivors (a
/// full G1 would trigger a fallback full collection).
pub fn g1_mixed_collect(
    sys: &mut System,
    heap: &mut JavaHeap,
    threads: usize,
    start: Ps,
    filler_klass: KlassId,
    free: &mut FreeStore,
) -> (PauseTotals, G1Stats, Vec<VRange>) {
    assert_filler(heap, filler_klass);
    let mut pc = Pause::open(sys, threads, start);
    let mut g1 = G1Stats::default();

    // Mark + reference processing (shared with MajorGC): weak referents
    // the mark never reached strongly are cleared before any region is
    // condemned.
    let mut stack = ObjStack::new(heap.layout().major_stack);
    let mut mstats = MajorStats::default();
    let discovered = mark_phase(&mut pc, heap, &mut mstats, &mut stack);
    g1.marked_objects = mstats.marked_objects;
    clear_dead_referents(&mut pc, heap, discovered);
    pc.serial(Step::FlushBitmapCache);

    // Region liveness via Bitmap Count (Table 1: "scans the bitmap to
    // identify the state of the entire heap").
    let mut regions: Vec<(VRange, u64)> = Vec::new();
    count_regions(&mut pc, heap, heap.old().used_region(), G1_REGION_WORDS, |r, live, _| regions.push((r, live)));
    g1.regions = regions.len();
    pc.barrier();

    // Collection set: mostly-garbage regions, excluding any an object
    // straddles into or out of (a full G1 never splits objects across its
    // own region moves; we skip straddled regions for the same reason).
    let boundaries: Vec<u64> = {
        let mut b: Vec<u64> = heap.walk_objects(heap.old().start(), heap.old().top()).map(|o| o.0).collect();
        b.push(heap.old().top().0);
        b
    };
    // A real G1 allocates region-locally, so objects never straddle its
    // regions. On this bump-allocated substrate we instead shrink each
    // victim to its interior object-aligned extent and skip slivers.
    let shrink = |r: VRange| -> Option<VRange> {
        let lo = boundaries.partition_point(|&b| b < r.start.0);
        let hi = boundaries.partition_point(|&b| b <= r.end.0);
        if lo >= hi {
            return None;
        }
        let start = VAddr(boundaries[lo]);
        let end = VAddr(boundaries[hi - 1]);
        (end > start && end - start >= r.bytes() / 2).then(|| VRange::new(start, end))
    };
    // Regions overlapping a free-store chunk are the free-region list of
    // previous cycles — a real G1 never puts free regions in the cset
    // (they are evacuation *targets*), and condemning one here would let
    // the reclaim pass overwrite survivors evacuated into it.
    let chunk_free = |r: VRange| {
        free.queues()
            .iter()
            .any(|q| q.chunks.iter().any(|&a| a < r.end && a.add_words(q.size_words) > r.start))
    };
    let mut cset: Vec<VRange> = Vec::new();
    for &(r, live) in &regions {
        let frac = live as f64 / r.words() as f64;
        if frac >= LIVE_THRESHOLD || chunk_free(r) {
            continue;
        }
        if let Some(v) = shrink(r) {
            cset.push(v);
        }
    }
    g1.collection_set = cset.len();

    // Evacuation: copy live objects of each victim region to the old
    // frontier; forwardings go in the stale originals' headers.
    let mut copies: Vec<VAddr> = Vec::new();
    for &r in &cset {
        let mut at = r.start;
        while let Some(obj) = heap.beg_map().find_next_set(&heap.mem, at, r.end) {
            let size = heap.obj_size_words(obj);
            let dest = free
                .allocate_old(heap, size)
                .or_else(|| heap.alloc_old(size))
                .expect("evacuation failure: old generation full (full G1 would fall back to a full GC)");
            heap.copy_object_words(obj, dest, size);
            object::clear_mark(&mut heap.mem, dest);
            object::forward_to(&mut heap.mem, obj, dest);
            copies.push(dest);
            g1.evacuated_bytes += size * 8;

            let t = pc.pick();
            pc.prim(t, OffloadCall::Copy { src: obj, dst: dest, bytes: size * 8 }, true);
            pc.host_on(t, Bucket::Copy, pc.sys.costs.copy_fixup, &[(obj, AccessKind::Write)]);

            at = obj.add_words(size);
        }
        g1.reclaimed_bytes += r.bytes();
    }
    g1.reclaimed_bytes = g1.reclaimed_bytes.saturating_sub(g1.evacuated_bytes);

    // Remembered-set update: rewrite every live reference into the
    // collection set. (A full G1 holds per-region remsets; the walk over
    // live objects stands in for iterating them, and only matching slots
    // pay the update.)
    g1.remset_updates = update_references(&mut pc, heap, &cset, &copies);
    pc.barrier();

    // Reclaim: fill victim regions and clear their bitmap spans.
    for &r in &cset {
        object::init_header(&mut heap.mem, r.start, filler_klass, (r.words() - 2) as u32);
        heap.bot_update(r.start, r.words());
        pc.host(Bucket::Other, 24, &[(r.start, AccessKind::Write)]);
    }

    // Drop all marks (G1 keeps its bitmaps between cycles; we reset like
    // the rest of this codebase for a clean epoch). Evacuated copies are
    // already clear; stale originals die with the filler.
    clear_marks_in(heap, heap.old().used_region());
    clear_young_marks(heap);
    let (bm, em) = (*heap.beg_map(), *heap.end_map());
    bm.clear_all(&mut heap.mem);
    em.clear_all(&mut heap.mem);
    pc.barrier();
    (pc.finish(), g1, cset)
}

/// Forwards every live slot that points into the collection set: roots,
/// the evacuated copies' fields, and the fields of every marked object
/// outside the cset. Returns the number of slots updated.
fn update_references(pc: &mut Pause, heap: &mut JavaHeap, cset: &[VRange], copies: &[VAddr]) -> u64 {
    let in_cset = |a: VAddr| cset.iter().any(|r| r.contains(a));
    let mut updates = 0;
    let mut forward = |pc: &mut Pause, heap: &mut JavaHeap, slot: VAddr| {
        let v = heap.read_ref(slot);
        if !v.is_null() && in_cset(v) {
            let fwd = object::forwarding(&heap.mem, v);
            heap.write_ref(slot, fwd);
            updates += 1;
            pc.host(Bucket::ScanPush, 6, &[(slot, AccessKind::Write)]);
        }
    };
    // Roots.
    for idx in 0..heap.root_count() {
        forward(pc, heap, heap.root_slot_addr(idx));
    }
    // The evacuated copies are not in the mark bitmap (they were born
    // after marking); their fields may point back into the collection set.
    // A copy is a new old-generation home, so a field of it that holds a
    // young referent dirties its card, or the next scavenge would miss
    // that old→young edge.
    for &obj in copies {
        for slot in heap.ref_slots(obj) {
            forward(pc, heap, slot);
            if heap.in_young(heap.read_ref(slot)) {
                let cards = *heap.cards();
                cards.dirty(&mut heap.mem, slot);
                pc.host(Bucket::Other, 4, &[(cards.card_addr(slot), AccessKind::Write)]);
            }
        }
    }
    // Live heap slots. Walk every marked object (bitmap iteration) across
    // old + young used ranges.
    let mut ranges = vec![heap.old().used_region(), heap.eden().used_region(), heap.from_space().used_region()];
    ranges.sort_by_key(|r| r.start);
    for range in ranges {
        let mut at = range.start;
        while let Some(obj) = heap.beg_map().find_next_set(&heap.mem, at, range.end) {
            at = obj.add_words(heap.obj_size_words(obj));
            if in_cset(obj) {
                continue; // the stale copy; its new home is visited too
            }
            for slot in heap.ref_slots(obj) {
                forward(pc, heap, slot);
            }
        }
    }
    updates
}
