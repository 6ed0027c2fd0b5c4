//! Heap-graph signatures: test oracles proving that a collection preserved
//! the reachable object graph.
//!
//! A signature is a deterministic hash over the graph reachable from the
//! roots, canonicalized by BFS visit order — so it is invariant under the
//! address shuffling that copying and compaction perform, but sensitive to
//! any lost object, dangling reference, corrupted payload word, or changed
//! shape.

use charon_heap::addr::VAddr;
use charon_heap::heap::JavaHeap;
use charon_heap::klass::KlassKind;
use charon_heap::object;
use std::collections::HashMap;
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Counters over the reachable graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachableStats {
    /// Reachable objects.
    pub objects: u64,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Total non-null references among them.
    pub edges: u64,
}

/// Why [`graph_signature`] rejected the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The reachable reference points outside both generations.
    OutsideHeap,
    /// The object's header names a klass that was never registered.
    InvalidKlass,
    /// The object's decoded size runs past the end of the heap.
    SizeOutOfBounds,
}

/// A reachable object is damaged: the walk found `addr` on the reachable
/// graph but cannot traverse it. Returned by [`graph_signature`] so fault
/// campaigns — and multi-tenant fleet runs, where one tenant's corruption
/// must not abort the other tenants' verdicts — can report the offending
/// address instead of unwinding mid-verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptGraph {
    /// The reachable address the walk choked on.
    pub addr: VAddr,
    /// What was wrong with it.
    pub kind: CorruptKind,
}

impl fmt::Display for CorruptGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CorruptKind::OutsideHeap => write!(f, "reachable reference {} points outside the heap", self.addr),
            CorruptKind::InvalidKlass => write!(f, "reachable object {} has an unregistered klass", self.addr),
            CorruptKind::SizeOutOfBounds => {
                write!(f, "reachable object {} decodes a size escaping the heap", self.addr)
            }
        }
    }
}

impl std::error::Error for CorruptGraph {}

/// Computes the canonical signature and reachability counters.
///
/// # Errors
///
/// [`CorruptGraph`] when a reachable object is damaged — a reference
/// escaping the heap, an unregistered klass id, a size running off the
/// end of the heap. The error names the offending address, so callers
/// holding many heaps (fault campaigns, fleet tenants) can report *which*
/// graph failed instead of unwinding the whole process.
pub fn graph_signature(heap: &JavaHeap) -> Result<(u64, ReachableStats), CorruptGraph> {
    let mut ids: HashMap<u64, u64> = HashMap::new();
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();

    // Seed from roots in slot order.
    for idx in 0..heap.root_count() {
        let r = heap.read_root(idx);
        if r.is_null() {
            continue;
        }
        if !ids.contains_key(&r.0) {
            ids.insert(r.0, ids.len() as u64);
            order.push(r);
            queue.push_back(r);
        }
    }

    // BFS.
    while let Some(obj) = queue.pop_front() {
        if !(heap.in_young(obj) || heap.in_old(obj)) {
            return Err(CorruptGraph { addr: obj, kind: CorruptKind::OutsideHeap });
        }
        if heap.klasses().try_get(object::klass_id(&heap.mem, obj)).is_none() {
            return Err(CorruptGraph { addr: obj, kind: CorruptKind::InvalidKlass });
        }
        let size = heap.obj_size_words(obj);
        let last_in_heap = size
            .checked_sub(1)
            .and_then(|w| w.checked_mul(8))
            .and_then(|b| obj.0.checked_add(b))
            .map(VAddr)
            .is_some_and(|last| heap.in_young(last) || heap.in_old(last));
        if !last_in_heap {
            return Err(CorruptGraph { addr: obj, kind: CorruptKind::SizeOutOfBounds });
        }
        for slot in heap.ref_slots(obj) {
            let v = heap.read_ref(slot);
            if v.is_null() || ids.contains_key(&v.0) {
                continue;
            }
            ids.insert(v.0, ids.len() as u64);
            order.push(v);
            queue.push_back(v);
        }
    }

    // Hash nodes in BFS id order.
    let mut h = FNV_OFFSET;
    let mut stats = ReachableStats { objects: 0, bytes: 0, edges: 0 };
    // Roots' target ids are part of the shape.
    for idx in 0..heap.root_count() {
        let r = heap.read_root(idx);
        h = mix(h, if r.is_null() { u64::MAX } else { ids[&r.0] });
    }
    for &obj in &order {
        let klass = heap.obj_klass(obj);
        let len = object::array_len(&heap.mem, obj);
        let size = heap.obj_size_words(obj);
        stats.objects += 1;
        stats.bytes += size * 8;
        h = mix(h, u64::from(klass.id().0));
        h = mix(h, u64::from(len));

        // Payload: hash non-reference words verbatim and references by id.
        match klass.kind() {
            KlassKind::ObjArray => {
                for slot in heap.ref_slots(obj) {
                    let v = heap.read_ref(slot);
                    if v.is_null() {
                        h = mix(h, u64::MAX);
                    } else {
                        stats.edges += 1;
                        h = mix(h, ids[&v.0]);
                    }
                }
            }
            KlassKind::TypeArray | KlassKind::Symbol => {
                for i in 0..(size - 2) {
                    h = mix(h, heap.mem.read_word(obj.add_words(2 + i)));
                }
            }
            _ => {
                let refs: Vec<u64> = klass.ref_offsets().iter().map(|&o| u64::from(o)).collect();
                for i in 0..(size - 2) {
                    let w = heap.mem.read_word(obj.add_words(2 + i));
                    if refs.contains(&i) {
                        if w == 0 {
                            h = mix(h, u64::MAX);
                        } else {
                            stats.edges += 1;
                            h = mix(h, ids[&w]);
                        }
                    } else {
                        h = mix(h, w);
                    }
                }
            }
        }
    }
    Ok((h, stats))
}

/// Total bytes reachable from the roots, counting each object once.
/// The collector uses this to detect that a full compaction could not
/// possibly fit the live set into the old generation (an
/// `OutOfMemoryError` in JVM terms) before destroying any state.
///
/// Visited objects are bits in a bitmap over the heap's words — the
/// structure Charon's Bitmap Count reads instead of per-object lookups
/// (§4.3) — so the walk hashes nothing, and the bitmap (heap/64 bytes,
/// zeroed) costs memory only where live objects are.
pub fn reachable_bytes(heap: &JavaHeap) -> u64 {
    let span = heap.layout().heap;
    let mut seen = vec![0u64; span.bytes().div_ceil(64 * 8) as usize];
    let mut queue: Vec<_> = (0..heap.root_count())
        .filter_map(|i| {
            let r = heap.read_root(i);
            (!r.is_null()).then_some(r)
        })
        .collect();
    let mut bytes = 0;
    while let Some(obj) = queue.pop() {
        let word = obj.bytes_since(span.start) / 8;
        let (at, bit) = ((word / 64) as usize, 1 << (word % 64));
        if seen[at] & bit != 0 {
            continue;
        }
        seen[at] |= bit;
        bytes += heap.obj_size_words(obj) * 8;
        for slot in heap.ref_slots(obj) {
            let v = heap.read_ref(slot);
            if !v.is_null() {
                queue.push(v);
            }
        }
    }
    bytes
}

/// One failed cross-check between an offload primitive's output
/// structures and the ground-truth object headers. The per-primitive
/// incremental checks live in [`crate::integrity`]; these whole-heap
/// oracles are the slow, independent second opinion the chaos tests and
/// proptests call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossCheckFailure {
    /// The begin-bitmap population of a space disagrees with the count of
    /// header-Marked objects in it.
    BitmapPopulation {
        /// Start of the checked range.
        range_start: VAddr,
        /// Set begin bits found in the range.
        bits: u64,
        /// Header-Marked objects found in the range.
        marked: u64,
    },
    /// An object header carries the impossible mark state `0b11`.
    BadMarkState {
        /// The object.
        obj: VAddr,
    },
    /// A forwarded header's target lies outside both generations.
    ForwardingOutOfBounds {
        /// The forwarded object.
        obj: VAddr,
        /// The decoded (bogus) target.
        target: VAddr,
    },
    /// An old→young reference sits on a clean card: the remembered set
    /// and the card table disagree.
    CardDisagreement {
        /// The old holder.
        holder: VAddr,
        /// The slot with the young reference.
        slot: VAddr,
    },
}

impl fmt::Display for CrossCheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossCheckFailure::BitmapPopulation { range_start, bits, marked } => {
                write!(f, "range at {range_start}: {bits} begin bits vs {marked} marked headers")
            }
            CrossCheckFailure::BadMarkState { obj } => write!(f, "object {obj} has impossible mark state 0b11"),
            CrossCheckFailure::ForwardingOutOfBounds { obj, target } => {
                write!(f, "object {obj} forwards outside the heap: {target}")
            }
            CrossCheckFailure::CardDisagreement { holder, slot } => {
                write!(f, "old→young reference at {slot} (holder {holder}) with a clean card")
            }
        }
    }
}

/// The used ranges of every space, in address order.
fn spaces(heap: &JavaHeap) -> [charon_heap::addr::VRange; 3] {
    [heap.old().used_region(), heap.eden().used_region(), heap.from_space().used_region()]
}

/// Decodes a possibly-corrupt mark word without tripping the
/// `mark_state` panic on state `0b11`.
fn raw_state(heap: &JavaHeap, obj: VAddr) -> u64 {
    heap.mem.read_word(obj) & object::STATE_MASK
}

/// Cross-checks the begin-bitmap population count of every used range
/// against the number of header-Marked objects in it — the
/// "did Scan&Push's bitmap writes survive" oracle, meaningful at the end
/// of a mark phase (on a quiescent heap both counts are zero).
pub fn cross_check_bitmap(heap: &JavaHeap) -> Vec<CrossCheckFailure> {
    let mut out = Vec::new();
    for range in spaces(heap) {
        if range.is_empty() {
            continue;
        }
        let bits = heap.beg_map().count_range(&heap.mem, range.start, range.end);
        let mut marked = 0u64;
        for (obj, _) in heap.walk_objects_sized(range.start, range.end) {
            match raw_state(heap, obj) {
                object::STATE_MARKED => marked += 1,
                0b11 => out.push(CrossCheckFailure::BadMarkState { obj }),
                _ => {}
            }
        }
        if bits != marked {
            out.push(CrossCheckFailure::BitmapPopulation { range_start: range.start, bits, marked });
        }
    }
    out
}

/// Cross-checks every forwarded header's target against the heap bounds —
/// the "did Copy's forwarding install survive" oracle, meaningful while a
/// scavenge is in flight (on a quiescent heap no header is forwarded).
pub fn cross_check_forwarding(heap: &JavaHeap) -> Vec<CrossCheckFailure> {
    let mut out = Vec::new();
    for range in spaces(heap) {
        for (obj, _) in heap.walk_objects_sized(range.start, range.end) {
            match raw_state(heap, obj) {
                object::STATE_FORWARDED => {
                    let target = VAddr((heap.mem.read_word(obj) >> object::FWD_SHIFT) * 8);
                    if !(heap.in_young(target) || heap.in_old(target)) {
                        out.push(CrossCheckFailure::ForwardingOutOfBounds { obj, target });
                    }
                }
                0b11 => out.push(CrossCheckFailure::BadMarkState { obj }),
                _ => {}
            }
        }
    }
    out
}

/// Cross-checks card/remembered-set agreement: every old→young reference
/// must sit on a dirty card, or the next scavenge silently loses the
/// referent — the "did Search's card maintenance survive" oracle.
pub fn cross_check_cards(heap: &JavaHeap) -> Vec<CrossCheckFailure> {
    let mut out = Vec::new();
    let range = heap.old().used_region();
    for (obj, _) in heap.walk_objects_sized(range.start, range.end) {
        for slot in heap.ref_slots(obj) {
            let v = heap.read_ref(slot);
            if !v.is_null() && heap.in_young(v) && !heap.cards().is_dirty(&heap.mem, slot) {
                out.push(CrossCheckFailure::CardDisagreement { holder: obj, slot });
            }
        }
    }
    out
}

/// Asserts that every reachable object's header is in the neutral state
/// (no leftover marks or forwarding after a completed GC).
pub fn assert_headers_clean(heap: &JavaHeap) {
    let mut seen = std::collections::HashSet::new();
    let mut queue: Vec<_> = (0..heap.root_count())
        .filter_map(|i| {
            let r = heap.read_root(i);
            (!r.is_null()).then_some(r)
        })
        .collect();
    while let Some(obj) = queue.pop() {
        if !seen.insert(obj.0) {
            continue;
        }
        assert_eq!(
            object::mark_state(&heap.mem, obj),
            object::MarkState::Neutral,
            "object {obj} left with a stale mark/forwarding after GC"
        );
        for slot in heap.ref_slots(obj) {
            let v = heap.read_ref(slot);
            if !v.is_null() {
                queue.push(v);
            }
        }
    }
}
