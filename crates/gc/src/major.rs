//! MajorGC — mark, summarize, adjust, compact (Fig. 3b).
//!
//! * **Marking**: drain the object stack with *Scan&Push*; `mark_obj` sets
//!   begin/end bitmap bits (through the bitmap cache when offloaded).
//! * **Summary**: *Bitmap Count* every compaction region to compute
//!   per-region destinations (and, as HotSpot's `ParallelCompactData`
//!   does, per-128-word-block live prefixes so later queries scan at most
//!   one block).
//! * **Adjust**: rewrite every reference (and root) to its target's new
//!   location — `new_addr(X) = dest_prefix(region) + block_prefix +
//!   live_words_in_range(block_start, X)`, the hot *Bitmap Count* use.
//! * **Compact**: *Copy* every live object left-ward; the heap ends packed
//!   against its base with the entire young generation empty.
//!
//! The paper notes the summary phase itself is negligible (<0.03% — its
//! footnote 2); what it calls *Bitmap Count* time is the bitmap work
//! charged here across summary and adjust.

use crate::breakdown::{Breakdown, Bucket};
use crate::integrity;
use crate::pause::{Pause, Step, Tid};
use crate::system::System;
use crate::threads::GcThreads;
use charon_core::device::{OffloadCall, ScanAction, ScanRef};
use charon_heap::addr::{VAddr, VRange};
use charon_heap::heap::JavaHeap;
use charon_heap::klass::KlassKind;
use charon_heap::markbitmap::{live_words_fast, mark_object};
use charon_heap::object::{self, MarkState};
use charon_heap::objstack::ObjStack;
use charon_sim::cache::AccessKind;

/// Heap words per compaction region (HotSpot `ParallelCompactData`
/// regions; 512 words = 4 KB).
pub const REGION_WORDS: u64 = 512;

/// Outcome counters of one MajorGC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MajorStats {
    /// Live bytes after compaction.
    pub live_bytes: u64,
    /// Bytes physically moved by the compaction.
    pub moved_bytes: u64,
    /// Objects marked live.
    pub marked_objects: u64,
    /// Compaction regions summarized.
    pub regions: u64,
    /// Weak referents cleared by reference processing.
    pub cleared_weak_refs: u64,
}

/// One compaction region's summary data.
#[derive(Debug, Clone)]
struct Region {
    range: VRange,
    /// Live words in every region before this one (all spaces).
    dest_prefix_words: u64,
    /// Whether an object is open at the region's start.
    carry_in: bool,
}

/// The compaction plan: regions + block tables over every used range.
#[derive(Debug, Clone)]
pub struct CompactPlan {
    regions: Vec<Region>,
    dest_base: VAddr,
    total_live_words: u64,
}

impl CompactPlan {
    fn region_of(&self, a: VAddr) -> &Region {
        // Regions are address-sorted; partition_point finds the last
        // region starting at or before `a`.
        let i = self.regions.partition_point(|r| r.range.start <= a);
        let r = &self.regions[i - 1];
        debug_assert!(r.range.contains(a), "{a} not in any summarized region");
        r
    }

    /// Total live words across the heap.
    pub fn total_live_words(&self) -> u64 {
        self.total_live_words
    }

    /// Where compaction packs objects.
    pub fn dest_base(&self) -> VAddr {
        self.dest_base
    }

    /// The new location of the live object at `obj`, and the start of its
    /// region. As HotSpot's `calc_new_pointer` does, the query is
    /// `region.destination() + live_words_in_range(region_start, obj)` —
    /// this per-reference call is the hot *Bitmap Count* use the paper
    /// offloads (Fig. 8) — through a last-query cache: HotSpot's
    /// `ParMarkBitMap::live_words_in_range` keeps one per
    /// `ParCompactionManager`, and when the new query extends the previous
    /// one within the same region only the delta `[last_target, target)`
    /// is scanned. The answer does not depend on the cache, so one serves
    /// the whole walk; what a query reads in simulated time depends on the
    /// GC thread's own previous query, and `Pause::bitmap_query` charges
    /// that.
    pub fn new_addr_cached(&self, heap: &JavaHeap, cache: &mut LastQuery, obj: VAddr) -> (VAddr, VAddr) {
        let r = self.region_of(obj);
        let (span_start, carry_in, base_live) = if cache.region_start == Some(r.range.start) && obj >= cache.last_addr {
            (cache.last_addr, cache.carry, cache.live_words)
        } else {
            (r.range.start, r.carry_in, 0)
        };
        let (delta, carry_out, _) =
            live_words_fast(&heap.mem, heap.beg_map(), heap.end_map(), span_start, obj, carry_in);
        let live = base_live + delta;
        *cache = LastQuery { region_start: Some(r.range.start), last_addr: obj, live_words: live, carry: carry_out };
        (self.dest_base.add_words(r.dest_prefix_words + live), r.range.start)
    }
}

/// HotSpot's per-compaction-manager live-words query cache (see
/// [`CompactPlan::new_addr_cached`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct LastQuery {
    region_start: Option<VAddr>,
    last_addr: VAddr,
    live_words: u64,
    carry: bool,
}

/// Runs one MajorGC.
pub fn major_gc(sys: &mut System, heap: &mut JavaHeap, threads: &mut GcThreads) -> (Breakdown, MajorStats) {
    let mut pc = Pause::new(sys, threads);
    let mut st = MajorStats::default();
    let mut stack = ObjStack::new(heap.layout().major_stack);

    pc.serial(Step::Prologue);

    let discovered = mark_phase(&mut pc, heap, &mut st, &mut stack);
    pc.end_phase("mark");
    st.cleared_weak_refs = clear_dead_referents(&mut pc, heap, discovered);
    pc.barrier();
    pc.end_phase("refs");
    pc.serial(Step::FlushBitmapCache);
    // End-of-mark integrity sweep: the summary phase trusts bitmap
    // population counts, so any bitmap damage must be found (and the
    // extents rebuilt from the still-honest headers) before it runs.
    pc.check_serial(|sys, now| integrity::verify_marks(sys, heap, 0, now));

    let plan = summary_phase(&mut pc, heap, &mut st);
    pc.close_phase("summary");

    adjust_phase(&mut pc, heap, &plan);
    pc.close_phase("adjust");

    compact_phase(&mut pc, heap, &mut st, &plan);
    pc.close_phase("compact");
    // Thread 0 flushes while the others start on the epilogue: no barrier.
    pc.step(Step::FlushBitmapCache);

    epilogue(&mut pc, heap, &plan);
    pc.barrier();
    pc.end_phase("epilogue");
    (pc.finish(), st)
}

/// The used ranges of every space, in address order.
fn used_ranges(heap: &JavaHeap) -> Vec<VRange> {
    let mut v = Vec::new();
    for r in [heap.old().used_region(), heap.eden().used_region(), heap.from_space().used_region()] {
        if !r.is_empty() {
            v.push(r);
        }
    }
    v.sort_by_key(|r| r.start);
    v
}

/// Marks the whole graph from the roots (begin/end bitmaps + header
/// state), draining the object stack with *Scan&Push*. Returns the weak
/// referent slots discovered on the way.
pub(crate) fn mark_phase(pc: &mut Pause, heap: &mut JavaHeap, st: &mut MajorStats, stack: &mut ObjStack) -> Vec<VAddr> {
    let mut discovered: Vec<VAddr> = Vec::new();
    // Roots.
    for idx in 0..heap.root_count() {
        let slot = heap.root_slot_addr(idx);
        let r = heap.read_ref(slot);
        let t = pc.host(Bucket::Other, pc.sys.costs.root_per_slot, &[(slot, AccessKind::Read)]);
        if !r.is_null() && object::mark_state(&heap.mem, r) != MarkState::Marked {
            let size = mark_one(heap, r);
            st.marked_objects += 1;
            let s = stack.push(r);
            pc.host_on(t, Bucket::Push, pc.sys.costs.push, &[(r, AccessKind::Write), (s, AccessKind::Write)]);
            pc.check(t, Bucket::Other, |sys, core, now| integrity::after_mark(sys, heap, core, now, r, size));
        }
    }

    // Drain: follow_contents.
    while let Some((obj, slot_addr)) = stack.pop() {
        let t = pc.host(Bucket::Pop, pc.sys.costs.pop, &[(slot_addr, AccessKind::Read), (obj, AccessKind::Read)]);

        let kind = heap.obj_klass(obj).kind();
        let slots = heap.ref_slots(obj);
        if slots.is_empty() {
            continue;
        }
        // Weak referent of an InstanceRef holder: discovered, not marked.
        let weak_slot = (kind == KlassKind::InstanceRef).then(|| slots[0]);
        let mut refs = Vec::new();
        let mut marked: Vec<(VAddr, u64)> = Vec::new();
        for s in &slots {
            if weak_slot == Some(*s) {
                discovered.push(*s);
                continue;
            }
            let v = heap.read_ref(*s);
            if v.is_null() {
                continue;
            }
            if object::mark_state(&heap.mem, v) == MarkState::Marked {
                refs.push(ScanRef { referent: v, action: ScanAction::None });
            } else {
                let size = mark_one(heap, v);
                st.marked_objects += 1;
                let pushed = stack.push(v);
                marked.push((v, size));
                refs.push(ScanRef {
                    referent: v,
                    action: ScanAction::MarkAndPush {
                        beg_word: heap.beg_map().map_word_addr(v),
                        end_word: heap.end_map().map_word_addr(v.add_words(size - 1)),
                        stack_slot: pushed,
                    },
                });
            }
        }
        let hw = kind.charon_supported();
        let field_bytes = slots.len() as u64 * 8;
        pc.prim(t, OffloadCall::ScanPush { fields_start: slots[0], field_bytes, refs: &refs }, hw);
        if !marked.is_empty() {
            pc.check(t, Bucket::ScanPush, |sys, core, now| {
                marked
                    .iter()
                    .fold(now, |end, &(obj, size)| integrity::after_mark(sys, heap, core, end, obj, size))
            });
        }
    }
    discovered
}

/// Reference processing: clears the weak referents marking never reached
/// strongly — before any space is reclaimed, so nothing later follows a
/// dangling weak edge. Returns how many were cleared.
pub(crate) fn clear_dead_referents(pc: &mut Pause, heap: &mut JavaHeap, discovered: Vec<VAddr>) -> u64 {
    let mut cleared = 0;
    for slot in discovered {
        let v = heap.read_ref(slot);
        if !v.is_null() && object::mark_state(&heap.mem, v) != MarkState::Marked {
            heap.write_ref(slot, VAddr::NULL);
            cleared += 1;
        }
        pc.host(Bucket::Other, 10, &[(slot, AccessKind::Write)]);
    }
    cleared
}

/// Marks one object: header state + begin/end bitmap bits. Returns the
/// object's size in words (already decoded for the end-bit placement).
fn mark_one(heap: &mut JavaHeap, obj: VAddr) -> u64 {
    object::set_marked(&mut heap.mem, obj);
    let size = heap.obj_size_words(obj);
    let (beg, end) = (*heap.beg_map(), *heap.end_map());
    mark_object(&mut heap.mem, &beg, &end, obj, size);
    size
}

/// Region liveness: walks `range` in `region_words` steps, counting each
/// region's live words functionally and charging one *Bitmap Count* over
/// its begin/end map spans. `each` receives the region, its live words,
/// and whether an object was open at its start.
pub(crate) fn count_regions(
    pc: &mut Pause,
    heap: &JavaHeap,
    range: VRange,
    region_words: u64,
    mut each: impl FnMut(VRange, u64, bool),
) {
    let mut carry = false; // objects never span spaces
    let mut at = range.start;
    while at < range.end {
        let r_end = at.add_words(region_words).min(range.end);
        let (live, carry_out, map_words) = live_words_fast(&heap.mem, heap.beg_map(), heap.end_map(), at, r_end, carry);
        let span_bytes = (map_words / 2).max(1) * 8;
        let spans = [(heap.beg_map().map_word_addr(at), span_bytes), (heap.end_map().map_word_addr(at), span_bytes)];
        pc.prim(pc.pick(), OffloadCall::BitmapCount { spans: &spans }, true);
        each(VRange::new(at, r_end), live, carry);
        carry = carry_out;
        at = r_end;
    }
}

fn summary_phase(pc: &mut Pause, heap: &JavaHeap, st: &mut MajorStats) -> CompactPlan {
    let mut regions = Vec::new();
    let mut prefix = 0u64;
    for range in used_ranges(heap) {
        count_regions(pc, heap, range, REGION_WORDS, |range, live, carry_in| {
            regions.push(Region { range, dest_prefix_words: prefix, carry_in });
            prefix += live;
        });
    }
    st.regions = regions.len() as u64;
    st.live_bytes = prefix * 8;
    assert!(
        heap.old().start().add_words(prefix) <= heap.old().end(),
        "compaction overflow: {} live bytes exceed the old generation — OutOfMemoryError",
        prefix * 8
    );
    CompactPlan { regions, dest_base: heap.old().start(), total_live_words: prefix }
}

/// Iterates live-object start addresses via the begin bitmap.
///
/// Objects are disjoint, so every set begin bit in a used range is a live
/// object start: one word-at-a-time pass over the map
/// ([`charon_heap::markbitmap::MarkBitmap::iter_set`]) replaces the
/// restart-per-hit `find_next_set` + header-decode loop.
fn live_objects(heap: &JavaHeap) -> Vec<VAddr> {
    let mut out = Vec::new();
    for range in used_ranges(heap) {
        out.extend(heap.beg_map().iter_set(&heap.mem, range.start, range.end));
    }
    out
}

fn adjust_phase(pc: &mut Pause, heap: &mut JavaHeap, plan: &CompactPlan) {
    // Adjust every reference field of every live object. The walk itself
    // is an independent stream; only the per-slot Bitmap Count lookups are
    // dependent work.
    let mut cache = LastQuery::default();
    for obj in live_objects(heap) {
        let map_word = heap.beg_map().map_word_addr(obj);
        let t = pc.stream(
            Bucket::Other,
            pc.sys.costs.walk_per_obj,
            &[(map_word, AccessKind::Read), (obj, AccessKind::Read)],
        );
        for s in heap.ref_slots(obj) {
            let v = heap.read_ref(s);
            if !v.is_null() {
                adjust_slot(pc, heap, plan, &mut cache, s, v, t);
            }
        }
    }
    // Adjust roots.
    for idx in 0..heap.root_count() {
        let slot = heap.root_slot_addr(idx);
        let v = heap.read_ref(slot);
        if !v.is_null() {
            adjust_slot(pc, heap, plan, &mut cache, slot, v, pc.pick());
        }
    }
}

/// Rewrites `slot` (held by thread `t`) to `target`'s post-compaction
/// address.
fn adjust_slot(
    pc: &mut Pause,
    heap: &mut JavaHeap,
    plan: &CompactPlan,
    cache: &mut LastQuery,
    slot: VAddr,
    target: VAddr,
    t: Tid,
) {
    debug_assert_eq!(object::mark_state(&heap.mem, target), MarkState::Marked, "dangling ref at {slot}");
    let (new, region) = plan.new_addr_cached(heap, cache, target);
    heap.write_ref(slot, new);

    // Timing: the (possibly cached-incremental) Bitmap Count, then the
    // slot rewrite as a streamed store.
    pc.bitmap_query(t, (*heap.beg_map(), *heap.end_map()), region, target);
    pc.stream_on(t, Bucket::Other, 4, &[(slot, AccessKind::Write)]);
}

fn compact_phase(pc: &mut Pause, heap: &mut JavaHeap, st: &mut MajorStats, plan: &CompactPlan) {
    heap.bot_clear();
    let mut cache = LastQuery::default();

    // Adjacent live objects that move by the same delta form one
    // contiguous run and are issued as a single Copy — dense live runs are
    // the common case after churn, and copying them object-by-object would
    // waste the primitive on tiny transfers (§3.3's granularity argument;
    // HotSpot's collector likewise moves whole dense regions).
    let mut run: Option<(VAddr, VAddr, u64)> = None; // (src, dst, words)
    for obj in live_objects(heap) {
        let size = heap.obj_size_words(obj);
        let t = pc.stream(Bucket::Other, pc.sys.costs.walk_per_obj, &[(obj, AccessKind::Read)]);

        // Destination calculation: the Fig. 3(b) Bitmap Count before each
        // Copy (incremental here, since the walk is monotonic).
        let (new, region) = plan.new_addr_cached(heap, &mut cache, obj);
        debug_assert!(new <= obj, "compaction must move objects downward");
        pc.bitmap_query(t, (*heap.beg_map(), *heap.end_map()), region, obj);

        if new != obj {
            st.moved_bytes += size * 8;
        }
        match &mut run {
            Some((src, dst, words)) if src.add_words(*words) == obj && dst.add_words(*words) == new => {
                *words += size;
            }
            _ => {
                copy_run(pc, heap, run.replace((obj, new, size)));
            }
        }
    }
    copy_run(pc, heap, run);

    // Post-pass: headers and the block-offset table. (The run copy left
    // mark bits in the moved headers.)
    let mut at = heap.old().start();
    let packed_end = plan.dest_base().add_words(plan.total_live_words());
    while at < packed_end {
        let size = heap.obj_size_words(at);
        object::clear_mark(&mut heap.mem, at);
        heap.bot_update(at, size);
        at = at.add_words(size);
    }
}

/// Moves one contiguous run of live objects `(src, dst, words)` as a
/// single *Copy* (nothing to do for a run already in place).
fn copy_run(pc: &mut Pause, heap: &mut JavaHeap, run: Option<(VAddr, VAddr, u64)>) {
    let Some((src, dst, words)) = run.filter(|&(src, dst, _)| src != dst) else { return };
    heap.copy_object_words(src, dst, words);
    let t = pc.pick();
    pc.prim(t, OffloadCall::Copy { src, dst, bytes: words * 8 }, true);
    // Integrity check of the copied payload — only when the run did not
    // overlap its source (a memmove-down overlap destroys the source words
    // the check and any rung-1 re-copy would need).
    if dst.add_words(words) <= src {
        pc.check(t, Bucket::Copy, |sys, core, now| integrity::after_copy(sys, heap, core, now, src, dst, words));
    }
}

fn epilogue(pc: &mut Pause, heap: &mut JavaHeap, plan: &CompactPlan) {
    // New space bounds: everything packed into Old, young empty.
    let packed_end = plan.dest_base().add_words(plan.total_live_words());
    assert!(
        packed_end <= heap.old().end(),
        "compaction overflow: {} live bytes exceed the old generation — OutOfMemoryError",
        plan.total_live_words() * 8
    );
    heap.set_old_top(packed_end);
    heap.reset_young();

    // Clear both mark bitmaps and the card table (streamed host writes).
    let (bm, em, ct) = (*heap.beg_map(), *heap.end_map(), *heap.cards());
    bm.clear_all(&mut heap.mem);
    em.clear_all(&mut heap.mem);
    ct.clear_all(&mut heap.mem);
    // The clears are streaming memsets: writes issue back-to-back and
    // overlap in the core's miss window.
    for range in [bm.map_range(), em.map_range(), ct.table_range()] {
        pc.clear(pc.pick(), range);
    }
    // The bitmaps are empty again: reset the per-extent checksum folds.
    integrity::note_bitmap_clear(pc.sys);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_constant_matches_hotspot_shape() {
        // 512 words = 4 KB regions, jdk7 ParallelCompactData geometry.
        assert_eq!(REGION_WORDS * 8, 4096);
    }
}
