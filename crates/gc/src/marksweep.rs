//! A CMS-style old-generation mark-sweep (no compaction) — Table 1's third
//! collector.
//!
//! Concurrent-Mark-Sweep in HotSpot keeps the young scavenger (so *Copy*,
//! *Search* and *Scan&Push* still apply, which is exactly Table 1's row)
//! but reclaims the old generation by marking and sweeping onto free
//! lists, never compacting — hence *Bitmap Count* is **not applicable**.
//! This module implements the stop-the-world mark + sweep analog: the
//! marking drain uses the same Scan&Push primitive; the sweep walks the
//! old generation linearly and, as HotSpot does, overwrites dead ranges
//! with filler arrays so the space remains parsable.

use crate::breakdown::Bucket;
use crate::freelist::FreeStore;
use crate::pause::{Pause, PauseTotals, Tid};
use crate::system::System;
use charon_core::device::{OffloadCall, ScanAction, ScanRef};
use charon_heap::addr::{VAddr, VRange};
use charon_heap::heap::JavaHeap;
use charon_heap::klass::{KlassId, KlassKind};
use charon_heap::object::{self, MarkState};
use charon_heap::objstack::ObjStack;
use charon_sim::cache::AccessKind;
use charon_sim::time::Ps;

/// Outcome of one old-generation mark-sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Objects marked live (whole heap).
    pub marked_objects: u64,
    /// Live bytes retained in Old.
    pub old_live_bytes: u64,
    /// Bytes swept onto the free list.
    pub freed_bytes: u64,
    /// Coalesced free chunks produced.
    pub free_chunks: u64,
}

/// Runs a stop-the-world mark of the whole graph from `start` on
/// `threads` GC threads, followed by a sweep of the old generation into
/// `free` (which is rebuilt from scratch; `free.chunks_by_address()` is
/// the free list). Dead ranges are overwritten with `filler_klass` arrays
/// (which must be a [`charon_heap::klass::KlassKind::TypeArray`] klass).
///
/// # Panics
///
/// Panics if `filler_klass` is not a type-array klass.
pub fn mark_sweep(
    sys: &mut System,
    heap: &mut JavaHeap,
    threads: usize,
    start: Ps,
    filler_klass: KlassId,
    free: &mut FreeStore,
) -> (PauseTotals, SweepStats) {
    assert_filler(heap, filler_klass);
    let mut pc = Pause::open(sys, threads, start);
    let mut st = SweepStats::default();
    let mut stack = ObjStack::new(heap.layout().major_stack);

    // Header marks only — no compaction bitmaps in a plain mark-sweep.
    seed_roots(&mut pc, heap, &mut stack, &mut st, mark_header, true);
    drain(&mut pc, heap, &mut stack, &mut st, mark_header);
    pc.barrier();
    sweep_old(&mut pc, heap, filler_klass, &mut st, free);
    clear_young_marks(heap);
    pc.barrier();
    (pc.finish(), st)
}

/// The non-moving collectors keep swept space parsable with filler
/// arrays, so the filler must be a primitive-array klass.
pub(crate) fn assert_filler(heap: &JavaHeap, filler_klass: KlassId) {
    assert!(heap.klasses().get(filler_klass).kind() == KlassKind::TypeArray, "filler must be a primitive array klass");
}

/// The plain mark-sweep's mark function: header state only.
fn mark_header(heap: &mut JavaHeap, obj: VAddr) {
    object::set_marked(&mut heap.mem, obj);
}

/// Pushes an already-marked object onto the mark stack, charging the
/// push to thread `on` (the least-loaded one when `None`).
pub(crate) fn push_obj(pc: &mut Pause, stack: &mut ObjStack, obj: VAddr, on: Option<Tid>) {
    let t = on.unwrap_or_else(|| pc.pick());
    let s = stack.push(obj);
    pc.host_on(t, Bucket::Push, pc.sys.costs.push, &[(s, AccessKind::Write)]);
}

/// Mark step 1: reads every root slot and marks + pushes its unmarked
/// referent. `push_on_reader` keeps the push on the thread that read the
/// root (the stop-the-world mark-sweep, like PS marking) instead of
/// re-dispatching it (the cms remark, whose other seeds have no reader).
pub(crate) fn seed_roots(
    pc: &mut Pause,
    heap: &mut JavaHeap,
    stack: &mut ObjStack,
    st: &mut SweepStats,
    mark: fn(&mut JavaHeap, VAddr),
    push_on_reader: bool,
) {
    for idx in 0..heap.root_count() {
        let slot = heap.root_slot_addr(idx);
        let r = heap.read_ref(slot);
        let t = pc.host(Bucket::Other, pc.sys.costs.root_per_slot, &[(slot, AccessKind::Read)]);
        if !r.is_null() && object::mark_state(&heap.mem, r) != MarkState::Marked {
            mark(heap, r);
            st.marked_objects += 1;
            push_obj(pc, stack, r, push_on_reader.then_some(t));
        }
    }
}

/// Mark step 2: the pop → *Scan&Push* → mark/push drain that completes
/// the transitive closure. Already-marked referents are not descended
/// into. Weak references are treated as strong.
pub(crate) fn drain(
    pc: &mut Pause,
    heap: &mut JavaHeap,
    stack: &mut ObjStack,
    st: &mut SweepStats,
    mark: fn(&mut JavaHeap, VAddr),
) {
    while let Some((obj, slot_addr)) = stack.pop() {
        let t = pc.host(Bucket::Pop, pc.sys.costs.pop, &[(slot_addr, AccessKind::Read), (obj, AccessKind::Read)]);

        let kind = heap.obj_klass(obj).kind();
        let slots = heap.ref_slots(obj);
        if slots.is_empty() {
            continue;
        }
        let mut refs = Vec::new();
        for s in &slots {
            let v = heap.read_ref(*s);
            if v.is_null() {
                continue;
            }
            if object::mark_state(&heap.mem, v) == MarkState::Marked {
                refs.push(ScanRef { referent: v, action: ScanAction::None });
            } else {
                mark(heap, v);
                st.marked_objects += 1;
                let pushed = stack.push(v);
                refs.push(ScanRef { referent: v, action: ScanAction::Push { stack_slot: pushed } });
            }
        }
        let hw = kind.charon_supported();
        let field_bytes = slots.len() as u64 * 8;
        pc.prim(t, OffloadCall::ScanPush { fields_start: slots[0], field_bytes, refs: &refs }, hw);
    }
}

/// Sweep: a linear walk of the old generation that clears the survivors'
/// header marks and coalesces each dead run into one filler array,
/// recycled into `free` — which is rebuilt from scratch, since stale
/// entries from the previous sweep would double-book ranges the new
/// chunks cover.
pub(crate) fn sweep_old(
    pc: &mut Pause,
    heap: &mut JavaHeap,
    filler_klass: KlassId,
    st: &mut SweepStats,
    free: &mut FreeStore,
) {
    free.clear();
    let mut emit = |pc: &mut Pause, heap: &mut JavaHeap, start: VAddr, end: VAddr| {
        let words = end.words_since(start);
        debug_assert!(words >= 2, "free chunks are at least a header");
        // Overwrite with a filler array so the space stays parsable.
        object::init_header(&mut heap.mem, start, filler_klass, (words - 2) as u32);
        free.recycle(start, words);
        st.freed_bytes += words * 8;
        st.free_chunks += 1;
        pc.host(Bucket::Other, 20, &[(start, AccessKind::Write)]);
    };
    let top = heap.old().top();
    let mut at = heap.old().start();
    let mut run_start: Option<VAddr> = None;
    while at < top {
        let size = heap.obj_size_words(at);
        let marked = object::mark_state(&heap.mem, at) == MarkState::Marked;
        pc.host(Bucket::Other, pc.sys.costs.walk_per_obj, &[(at, AccessKind::Read)]);

        if marked {
            if let Some(rs) = run_start.take() {
                emit(pc, heap, rs, at);
            }
            object::clear_mark(&mut heap.mem, at);
            st.old_live_bytes += size * 8;
        } else if run_start.is_none() {
            run_start = Some(at);
        }
        at = at.add_words(size);
    }
    if let Some(rs) = run_start {
        emit(pc, heap, rs, top);
    }
}

/// Clears the header mark of every marked object in `range`.
pub(crate) fn clear_marks_in(heap: &mut JavaHeap, range: VRange) {
    let mut at = range.start;
    while at < range.end {
        let size = heap.obj_size_words(at);
        if object::mark_state(&heap.mem, at) == MarkState::Marked {
            object::clear_mark(&mut heap.mem, at);
        }
        at = at.add_words(size);
    }
}

/// Clears the header marks a whole-graph mark left on young objects.
pub(crate) fn clear_young_marks(heap: &mut JavaHeap) {
    for space in [heap.eden().used_region(), heap.from_space().used_region()] {
        clear_marks_in(heap, space);
    }
}
