//! MinorGC — the ParallelScavenge young collection (Fig. 3a).
//!
//! Flow, exactly as §3.2 describes: push the root set; *Search* the card
//! table for old-to-young references and push those too; then drain the
//! object stack — *Pop object*, *Copy* the referent to the to-space or
//! promote it to Old, and *Scan&Push* the copy's reference fields. The
//! stack holds *slot addresses* (as HotSpot's promotion manager does), so
//! forwarding updates the referring field when a referent has already been
//! copied.
//!
//! Every functional step is paired with a timing charge into the Fig. 4
//! buckets through the backend-dispatching [`System`] primitives.

use crate::breakdown::Bucket;
use crate::freelist::FreeStore;
use crate::integrity;
use crate::pause::{Pause, PauseTotals, Tid};
use crate::system::System;
use charon_core::device::{OffloadCall, ScanAction, ScanRef};
use charon_heap::addr::VAddr;
use charon_heap::heap::JavaHeap;
use charon_heap::klass::KlassKind;
use charon_heap::object::{self, MarkState};
use charon_heap::objstack::ObjStack;
use charon_sim::cache::AccessKind;
use charon_sim::time::Ps;

/// Outcome counters of one MinorGC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinorStats {
    /// The tenuring threshold this scavenge used (adaptive policy).
    pub tenuring_threshold: u8,
    /// Bytes copied into the to-space.
    pub survived_bytes: u64,
    /// Bytes promoted into Old.
    pub promoted_bytes: u64,
    /// Live young objects moved.
    pub objects_copied: u64,
    /// Dirty cards found by *Search*.
    pub dirty_cards: u64,
    /// `java.lang.ref` referents cleared because only weak paths reached
    /// them.
    pub cleared_weak_refs: u64,
}

/// The scavenge's working state, threaded through its helpers.
struct Scavenge<'a> {
    st: MinorStats,
    stack: ObjStack,
    /// `java.lang.ref` discovery: referent slots of InstanceRef holders are
    /// not scavenged through; they are resolved after the drain.
    discovered: Vec<VAddr>,
    /// The old generation's free store: promotion consults it for a dead
    /// range before touching the bump frontier.
    free: &'a mut FreeStore,
    tenuring: u8,
}

/// Dirties `slot`'s card (functionally) and returns the card's address.
fn dirty_card(heap: &mut JavaHeap, slot: VAddr) -> VAddr {
    let ct = *heap.cards();
    ct.dirty(&mut heap.mem, slot);
    ct.card_addr(slot)
}

/// Runs one MinorGC from `start` on `threads` GC threads; the returned
/// totals say when it ended. `free` is the old generation's free store: promotion consults it for
/// a dead range before touching the bump frontier. Under PS it is empty
/// and every consult is a constant-time `None` — timing unchanged.
pub fn minor_gc(
    sys: &mut System,
    heap: &mut JavaHeap,
    threads: usize,
    start: Ps,
    free: &mut FreeStore,
) -> (PauseTotals, MinorStats) {
    let tenuring = sys.tenuring.unwrap_or(heap.config().tenuring_threshold);
    let mut pc = Pause::open(sys, threads, start);
    let mut sc = Scavenge {
        st: MinorStats { tenuring_threshold: tenuring, ..MinorStats::default() },
        stack: ObjStack::new(heap.layout().minor_stack),
        discovered: Vec::new(),
        free,
        tenuring,
    };

    // Phase 1: root set → stack.
    for idx in 0..heap.root_count() {
        let slot = heap.root_slot_addr(idx);
        let r = heap.read_ref(slot);
        let t = pc.host(Bucket::Other, pc.sys.costs.root_per_slot, &[(slot, AccessKind::Read)]);
        if !r.is_null() && heap.in_young(r) {
            let s = sc.stack.push(slot);
            pc.host_on(t, Bucket::Push, pc.sys.costs.push, &[(s, AccessKind::Write)]);
        }
    }
    pc.end_phase("roots");

    // Phase 2: card-table Search for old-to-young references.
    search_dirty_cards(&mut pc, heap, |pc, heap, card| {
        sc.st.dirty_cards += 1;
        scan_dirty_card(pc, heap, &mut sc, card);
    });
    pc.end_phase("cards");

    // Phase 3: drain the object stack.
    while let Some((slot, slot_addr)) = sc.stack.pop() {
        let t = pc.host(Bucket::Pop, pc.sys.costs.pop, &[(slot_addr, AccessKind::Read), (slot, AccessKind::Read)]);
        process_slot(&mut pc, heap, &mut sc, slot, t);
    }
    pc.end_phase("drain");

    // Reference processing: a weak referent that no strong path copied is
    // dead — clear the Reference; one that was copied gets the new address.
    for slot in std::mem::take(&mut sc.discovered) {
        let v = heap.read_ref(slot);
        let mut dirtied = None;
        if !v.is_null() && heap.in_young(v) {
            if object::mark_state(&heap.mem, v) == MarkState::Forwarded {
                let fwd = object::forwarding(&heap.mem, v);
                heap.write_ref(slot, fwd);
                if heap.in_old(slot) && heap.in_young(fwd) {
                    dirtied = Some(dirty_card(heap, slot));
                }
            } else {
                heap.write_ref(slot, VAddr::NULL);
                sc.st.cleared_weak_refs += 1;
            }
        }
        let t = pc.host(Bucket::Other, 10, &[(slot, AccessKind::Write)]);
        if let Some(card) = dirtied {
            pc.check(t, Bucket::Other, |sys, core, now| integrity::after_card_dirty(sys, heap, core, now, card));
        }
    }
    pc.end_phase("refs");

    // Epilogue: swap survivor roles, reset Eden and the old from-space.
    heap.swap_survivors();
    pc.host(Bucket::Other, 200, &[]);

    // Adaptive tenuring (HotSpot's survivor-size policy): if the survivors
    // overflowed half a survivor space, age objects out sooner next time;
    // if they fit easily, keep them young longer.
    if heap.config().adaptive_tenuring {
        let half_survivor = heap.to_space().capacity_bytes() / 2;
        let max = heap.config().tenuring_threshold;
        let next = if sc.st.survived_bytes > half_survivor {
            tenuring.saturating_sub(1).max(1)
        } else {
            (tenuring + 1).min(max)
        };
        pc.sys.tenuring = Some(next);
    }
    pc.barrier();
    pc.end_phase("epilogue");
    (pc.finish(), sc.st)
}

/// *Search*es the card table up to the old generation's top, one
/// primitive per dirty block found (and one for the clean tail), handing
/// every dirty card to `each`.
pub(crate) fn search_dirty_cards(
    pc: &mut Pause,
    heap: &mut JavaHeap,
    mut each: impl FnMut(&mut Pause, &mut JavaHeap, VAddr),
) {
    let table = heap.cards().table_range();
    let old_top_card = if heap.old().used_bytes() == 0 {
        table.start
    } else {
        heap.cards().card_addr(VAddr(heap.old().top().0 - 1)).add_bytes(1)
    };
    let mut pos = table.start;
    while pos < old_top_card {
        let (hit, scanned) = heap.cards().search_dirty_block(&heap.mem, pos, old_top_card);
        pc.prim(pc.pick(), OffloadCall::Search { start: pos, scanned_bytes: scanned * 8 }, true);

        let Some(block) = hit else { break };
        for card in heap.cards().dirty_cards_in_block(&heap.mem, block) {
            each(pc, heap, card);
        }
        pos = block.add_bytes(8);
    }
}

/// Walks the objects overlapping one dirty card and pushes old slots that
/// reference young objects. The byte-scan was *Search*; this walk is the
/// host-side remainder of the card phase.
fn scan_dirty_card(pc: &mut Pause, heap: &mut JavaHeap, sc: &mut Scavenge, card: VAddr) {
    let region = heap.cards().card_region(card);
    let Some(first) = heap.first_obj_for_card(card) else {
        // No object recorded — the card covers unallocated space; clean it
        // (unless a concurrent mark cycle owns the dirty bits: the remark
        // must still see every card the widened barrier dirtied).
        if !heap.concmark_barrier() {
            heap.mem.write_u8(card, charon_heap::cardtable::CLEAN);
        }
        return;
    };
    let top = heap.old().top();
    let mut obj = first;
    while obj < region.end && obj < top {
        pc.host(Bucket::Search, pc.sys.costs.card_walk_per_obj, &[(obj, AccessKind::Read)]);

        let size = heap.obj_size_words(obj);
        let weak_slot = (heap.obj_klass(obj).kind() == KlassKind::InstanceRef).then(|| heap.ref_slots(obj)[0]);
        for slot in heap.ref_slots(obj) {
            if slot < region.start || slot >= region.end {
                continue; // only slots within this card
            }
            if weak_slot == Some(slot) {
                // Old Reference holder with a young referent: discovered,
                // not scavenged through.
                sc.discovered.push(slot);
                continue;
            }
            let r = heap.read_ref(slot);
            if !r.is_null() && heap.in_young(r) {
                let s = sc.stack.push(slot);
                pc.host(Bucket::Push, pc.sys.costs.push, &[(slot, AccessKind::Read), (s, AccessKind::Write)]);
            }
        }
        obj = obj.add_words(size);
    }
    // Clean the card; it is re-dirtied at slot-processing time if an
    // old-to-young edge survives. While a concurrent mark cycle is
    // active the card stays dirty — its mutation record belongs to the
    // remark, and re-scanning it next scavenge is merely redundant work.
    if !heap.concmark_barrier() {
        heap.mem.write_u8(card, charon_heap::cardtable::CLEAN);
    }
    pc.host(Bucket::Other, 4, &[(card, AccessKind::Write)]);
}

/// Processes one slot popped by thread `t`: resolve forwarding or copy the
/// referent and Scan&Push its fields.
fn process_slot(pc: &mut Pause, heap: &mut JavaHeap, sc: &mut Scavenge, slot: VAddr, t: Tid) {
    let r = heap.read_ref(slot);
    if r.is_null() || !heap.in_young(r) {
        return;
    }
    if object::mark_state(&heap.mem, r) == MarkState::Forwarded {
        let fwd = object::forwarding(&heap.mem, r);
        heap.write_ref(slot, fwd);
        let mut acc = vec![(slot, AccessKind::Write)];
        let dirtied = (heap.in_old(slot) && heap.in_young(fwd)).then(|| dirty_card(heap, slot));
        acc.extend(dirtied.map(|card| (card, AccessKind::Write)));
        pc.host_on(t, Bucket::Other, 6, &acc);
        if let Some(card) = dirtied {
            pc.check(t, Bucket::Other, |sys, core, now| integrity::after_card_dirty(sys, heap, core, now, card));
        }
        return;
    }

    // Copy or promote.
    let size = heap.obj_size_words(r);
    let bytes = size * 8;
    let age = object::age(&heap.mem, r);
    let to_free = heap.to_space().free_bytes();
    let dest = if age + 1 < sc.tenuring && to_free >= bytes { heap.alloc_to(size) } else { None };
    let (dest, promoted) = match dest {
        Some(d) => (d, false),
        // Promotion allocates from dead ranges first (the free store;
        // empty and a constant-time `None` under PS), then the frontier.
        None => match sc.free.allocate_old(heap, size).or_else(|| heap.alloc_old(size)) {
            Some(d) => (d, true),
            // Promotion failure: Old is full. Fall back to the to-space
            // even for aged objects (HotSpot similarly keeps the object in
            // the young generation when a scavenge cannot promote).
            None => match heap.alloc_to(size) {
                Some(d) => (d, false),
                None => panic!(
                    "promotion failure: neither Old nor the survivor space can take {size} words — \
                     the triggering policy should have run a full collection first"
                ),
            },
        },
    };
    heap.copy_object_words(r, dest, size);
    object::forward_to(&mut heap.mem, r, dest);
    heap.write_ref(slot, dest);
    object::set_age(&mut heap.mem, dest, age + 1);
    let redirtied = (heap.in_old(slot) && !promoted).then(|| dirty_card(heap, slot));
    if promoted {
        sc.st.promoted_bytes += bytes;
    } else {
        sc.st.survived_bytes += bytes;
    }
    sc.st.objects_copied += 1;

    // Timing: the Copy primitive plus per-object fixup.
    pc.prim(t, OffloadCall::Copy { src: r, dst: dest, bytes }, true);
    pc.host_on(t, Bucket::Copy, pc.sys.costs.copy_fixup, &[(r, AccessKind::Write), (slot, AccessKind::Write)]);
    // Integrity: the Copy unit's outputs — the evacuated payload, the
    // forwarding word, and the re-dirtied card — are checked (and, on
    // damage, repaired) right after the primitive completes, before
    // Scan&Push reads the new copy's klass word.
    pc.check(t, Bucket::Copy, |sys, core, now| {
        let mut end = integrity::after_copy(sys, heap, core, now, r, dest, size);
        end = integrity::after_forward(sys, heap, core, end, r, dest, age);
        if let Some(card) = redirtied {
            end = integrity::after_card_dirty(sys, heap, core, end, card);
        }
        end
    });

    // Scan&Push the new copy's fields.
    let klass_kind = heap.obj_klass(dest).kind();
    let slots = heap.ref_slots(dest);
    if slots.is_empty() {
        return;
    }
    // `java.lang.ref.Reference` holders: the referent (first declared
    // reference field) is weak — discover it instead of scavenging it.
    let weak_slot = (klass_kind == KlassKind::InstanceRef).then(|| slots[0]);
    let mut refs = Vec::new();
    let mut scan_cards = Vec::new();
    for s in &slots {
        if weak_slot == Some(*s) {
            sc.discovered.push(*s);
            continue;
        }
        let v = heap.read_ref(*s);
        if v.is_null() || !heap.in_young(v) {
            continue; // MinorGC only chases young referents
        }
        if object::mark_state(&heap.mem, v) == MarkState::Forwarded {
            let fwd = object::forwarding(&heap.mem, v);
            heap.write_ref(*s, fwd);
            if promoted && heap.in_young(fwd) {
                let card_addr = dirty_card(heap, *s);
                scan_cards.push(card_addr);
                refs.push(ScanRef {
                    referent: v,
                    action: ScanAction::UpdateFieldAndCard { field_slot: *s, card_addr },
                });
            } else {
                refs.push(ScanRef { referent: v, action: ScanAction::UpdateField { field_slot: *s } });
            }
        } else {
            let pushed = sc.stack.push(*s);
            refs.push(ScanRef { referent: v, action: ScanAction::Push { stack_slot: pushed } });
        }
    }
    let hw = klass_kind.charon_supported();
    let field_bytes = slots.len() as u64 * 8;
    pc.prim(t, OffloadCall::ScanPush { fields_start: slots[0], field_bytes, refs: &refs }, hw);
    // Integrity: cards the scan actions dirtied are checked post-primitive.
    if !scan_cards.is_empty() {
        pc.check(t, Bucket::ScanPush, |sys, core, now| {
            scan_cards
                .iter()
                .fold(now, |end, &card| integrity::after_card_dirty(sys, heap, core, end, card))
        });
    }
}
