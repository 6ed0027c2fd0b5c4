//! [`JavaHeap`] — the assembled generational heap.
//!
//! Owns the simulated memory, the spaces, the klass table, the card table,
//! the mark bitmaps, the block-offset table (HotSpot's BOT, needed to find
//! object starts inside dirty cards), and the root-slot area. Provides the
//! allocation and field-access operations the mutator uses (including the
//! old-to-young card-marking write barrier) and the object-walking helpers
//! the collector uses. Purely functional — timing lives in `charon-gc`.

use crate::addr::{VAddr, WORD_BYTES};
use crate::cardtable::{CardTable, CARD_BYTES};
use crate::klass::{Klass, KlassId, KlassKind, KlassTable};
use crate::layout::{HeapLayout, LayoutParams, HEAP_BASE};
use crate::markbitmap::MarkBitmap;
use crate::mem::HeapMemory;
use crate::object::{self, HEADER_WORDS};
use crate::space::Space;

/// Heap construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapConfig {
    /// Address-map sizing (heap size, ratios, base address).
    pub layout: LayoutParams,
    /// Initial MinorGC survivals before promotion to Old (HotSpot
    /// `MaxTenuringThreshold`, scaled down for the small survivor spaces of
    /// the scaled heaps).
    pub tenuring_threshold: u8,
    /// Adapt the threshold each scavenge, as HotSpot's
    /// `UsePSAdaptiveSurvivorSizePolicy` does: lower it when survivors
    /// overflow half a survivor space, raise it (up to the configured
    /// maximum) when they fit comfortably.
    pub adaptive_tenuring: bool,
}

impl Default for HeapConfig {
    fn default() -> HeapConfig {
        HeapConfig { layout: LayoutParams::default(), tenuring_threshold: 3, adaptive_tenuring: true }
    }
}

impl HeapConfig {
    /// A config with the given heap size and defaults elsewhere.
    pub fn with_heap_bytes(heap_bytes: u64) -> HeapConfig {
        HeapConfig { layout: LayoutParams { heap_bytes, ..Default::default() }, ..Default::default() }
    }
}

/// Sentinel in the block-offset table for "no object known": the null
/// address, which no object has (the old generation starts at
/// [`HEAP_BASE`], never at 0), so a fresh table is zero memory.
const BOT_NONE: u64 = VAddr::NULL.0;
const _: () = assert!(HEAP_BASE.0 != BOT_NONE, "the old generation must not start at address 0");

/// Errors from heap operations whose failure an untrusted workload can
/// provoke (as opposed to collector-internal invariant violations, which
/// stay panics naming the invariant they protect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The root area has no free slot for another root.
    RootAreaFull {
        /// Total slots the root area holds.
        capacity: usize,
    },
    /// A root slot index at or beyond the slots in use.
    RootIndexOutOfRange {
        /// The offending index.
        idx: usize,
        /// Slots currently in use.
        count: usize,
    },
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::RootAreaFull { capacity } => {
                write!(f, "root area full ({capacity} slots)")
            }
            HeapError::RootIndexOutOfRange { idx, count } => {
                write!(f, "root index {idx} out of range ({count} slots in use)")
            }
        }
    }
}

impl std::error::Error for HeapError {}

/// The simulated HotSpot-style heap.
#[derive(Debug, Clone)]
pub struct JavaHeap {
    cfg: HeapConfig,
    layout: HeapLayout,
    /// The flat simulated memory. Public: the collector reads and writes
    /// words directly when modeling primitives.
    pub mem: HeapMemory,
    klasses: KlassTable,
    old: Space,
    survivor0: Space,
    survivor1: Space,
    eden: Space,
    from_is_zero: bool,
    cards: CardTable,
    beg_map: MarkBitmap,
    end_map: MarkBitmap,
    /// Per-card word address (as raw u64) of the object covering the
    /// card's first word; `BOT_NONE` when unknown.
    bot: Vec<u64>,
    root_count: usize,
    /// While a concurrent mark cycle is active, the write barrier dirties
    /// the card of *every* old-generation reference store (not just
    /// old-to-young), and MinorGC leaves dirty cards in place for the
    /// remark to consume. Off outside cycles — the PS barrier unchanged.
    concmark_barrier: bool,
}

impl JavaHeap {
    /// Builds a fresh heap: all spaces empty, cards clean, bitmaps clear.
    pub fn new(cfg: HeapConfig) -> JavaHeap {
        let layout = HeapLayout::compute(&cfg.layout);
        let mut mem = HeapMemory::new(layout.total.start, layout.total.bytes());
        let cards = CardTable::new(layout.cards, layout.old);
        cards.clear_all(&mut mem);
        let beg_map = MarkBitmap::new(layout.beg_map, layout.heap);
        let end_map = MarkBitmap::new(layout.end_map, layout.heap);
        let card_count = cards.cards() as usize;
        JavaHeap {
            old: Space::new("old", layout.old.start, layout.old.end),
            eden: Space::new("eden", layout.eden.start, layout.eden.end),
            survivor0: Space::new("survivor0", layout.from.start, layout.from.end),
            survivor1: Space::new("survivor1", layout.to.start, layout.to.end),
            from_is_zero: true,
            cards,
            beg_map,
            end_map,
            bot: vec![BOT_NONE; card_count],
            root_count: 0,
            concmark_barrier: false,
            cfg,
            layout,
            mem,
            klasses: KlassTable::new(),
        }
    }

    /// The construction parameters.
    pub fn config(&self) -> &HeapConfig {
        &self.cfg
    }

    /// The address map.
    pub fn layout(&self) -> &HeapLayout {
        &self.layout
    }

    /// The klass registry.
    pub fn klasses(&self) -> &KlassTable {
        &self.klasses
    }

    /// Mutable klass registry (register classes before allocating).
    pub fn klasses_mut(&mut self) -> &mut KlassTable {
        &mut self.klasses
    }

    /// Old generation.
    pub fn old(&self) -> &Space {
        &self.old
    }

    /// Eden.
    pub fn eden(&self) -> &Space {
        &self.eden
    }

    /// The survivor space currently holding live survivors.
    pub fn from_space(&self) -> &Space {
        if self.from_is_zero {
            &self.survivor0
        } else {
            &self.survivor1
        }
    }

    /// The empty survivor space MinorGC copies into.
    pub fn to_space(&self) -> &Space {
        if self.from_is_zero {
            &self.survivor1
        } else {
            &self.survivor0
        }
    }

    fn to_space_mut(&mut self) -> &mut Space {
        if self.from_is_zero {
            &mut self.survivor1
        } else {
            &mut self.survivor0
        }
    }

    /// The card table.
    pub fn cards(&self) -> &CardTable {
        &self.cards
    }

    /// The begin mark bitmap.
    pub fn beg_map(&self) -> &MarkBitmap {
        &self.beg_map
    }

    /// The end mark bitmap.
    pub fn end_map(&self) -> &MarkBitmap {
        &self.end_map
    }

    /// Whether `a` lies in the young generation (eden or a survivor).
    pub fn in_young(&self, a: VAddr) -> bool {
        self.eden.contains(a) || self.survivor0.contains(a) || self.survivor1.contains(a)
    }

    /// Whether `a` lies in the old generation.
    pub fn in_old(&self, a: VAddr) -> bool {
        self.old.contains(a)
    }

    /// Bytes currently allocated in the young generation.
    pub fn young_used_bytes(&self) -> u64 {
        self.eden.used_bytes() + self.from_space().used_bytes()
    }

    /// Bytes currently allocated heap-wide.
    pub fn used_bytes(&self) -> u64 {
        self.young_used_bytes() + self.old.used_bytes()
    }

    // ----- allocation ------------------------------------------------

    /// Allocates and header-initializes an object in Eden with a zero
    /// payload (Java's guarantee). Returns `None` when Eden is full — the
    /// MinorGC trigger.
    pub fn alloc_eden(&mut self, klass: KlassId, array_len: u32) -> Option<VAddr> {
        let words = self.klasses.get(klass).size_words(array_len);
        let fresh = self.eden.high_water();
        let obj = self.eden.alloc_words(words)?;
        self.init_object(obj, klass, array_len, words, fresh);
        Some(obj)
    }

    /// Allocates and header-initializes an object with a zero payload at
    /// Old's bump frontier (the large-object path), updating the
    /// block-offset table. `None` when Old is full.
    pub fn alloc_old_object(&mut self, klass: KlassId, array_len: u32) -> Option<VAddr> {
        let words = self.klasses.get(klass).size_words(array_len);
        let fresh = self.old.high_water();
        let obj = self.alloc_old(words)?;
        self.init_object(obj, klass, array_len, words, fresh);
        Some(obj)
    }

    /// Header-initializes an object in recycled memory (a free-store chunk
    /// the caller has already carved) and zeroes its whole payload.
    pub fn init_recycled_object(&mut self, obj: VAddr, klass: KlassId, array_len: u32) {
        let words = self.klasses.get(klass).size_words(array_len);
        self.init_object(obj, klass, array_len, words, obj.add_words(words));
    }

    /// Writes the header of the `words`-word object at `obj` and zeroes
    /// its payload below `fresh`. `fresh` is the high-water mark of the
    /// object's space before the allocation: nothing has written at or
    /// above it, so that part still reads zero from `HeapMemory::new`.
    fn init_object(&mut self, obj: VAddr, klass: KlassId, array_len: u32, words: u64, fresh: VAddr) {
        object::init_header(&mut self.mem, obj, klass, array_len);
        let payload = obj.add_words(HEADER_WORDS);
        let end = obj.add_words(words);
        let written = fresh.clamp(payload, end);
        self.mem.fill_words(payload, written.words_since(payload), 0);
        debug_assert!(
            self.mem.is_zero(written, end.words_since(written)),
            "a word above the high-water mark of the space at {obj} was written"
        );
    }

    /// Raw allocation in the to-space (MinorGC copy destination).
    pub fn alloc_to(&mut self, words: u64) -> Option<VAddr> {
        self.to_space_mut().alloc_words(words)
    }

    /// Raw allocation in Old (promotion / compaction destination). Updates
    /// the block-offset table.
    pub fn alloc_old(&mut self, words: u64) -> Option<VAddr> {
        let obj = self.old.alloc_words(words)?;
        self.bot_update(obj, words);
        Some(obj)
    }

    /// Empties the whole young generation (end of a MajorGC: every
    /// survivor was compacted into Old).
    pub fn reset_young(&mut self) {
        self.eden.reset();
        self.survivor0.reset();
        self.survivor1.reset();
    }

    /// Sets Old's allocation frontier directly (end of compaction).
    ///
    /// # Panics
    ///
    /// Panics if `top` is outside Old.
    pub fn set_old_top(&mut self, top: VAddr) {
        self.old.set_top(top);
    }

    /// Swaps the survivor roles after a MinorGC and empties Eden and the
    /// (old) from-space.
    pub fn swap_survivors(&mut self) {
        if self.from_is_zero {
            self.survivor0.reset();
        } else {
            self.survivor1.reset();
        }
        self.eden.reset();
        self.from_is_zero = !self.from_is_zero;
    }

    // ----- object access ----------------------------------------------

    /// The klass of the object at `obj`.
    pub fn obj_klass(&self, obj: VAddr) -> &Klass {
        self.klasses.get(object::klass_id(&self.mem, obj))
    }

    /// Total size of the object at `obj`, in words.
    pub fn obj_size_words(&self, obj: VAddr) -> u64 {
        self.obj_klass(obj).size_words(object::array_len(&self.mem, obj))
    }

    /// Addresses of every payload slot of `obj` that can hold a reference,
    /// per the klass kind's iteration strategy (§4.4).
    pub fn ref_slots(&self, obj: VAddr) -> Vec<VAddr> {
        let klass = self.obj_klass(obj);
        let payload = obj.add_words(HEADER_WORDS);
        match klass.kind() {
            KlassKind::ObjArray => {
                let len = object::array_len(&self.mem, obj) as u64;
                (0..len).map(|i| payload.add_words(i)).collect()
            }
            KlassKind::TypeArray | KlassKind::Symbol => Vec::new(),
            _ => klass.ref_offsets().iter().map(|&o| payload.add_words(u64::from(o))).collect(),
        }
    }

    /// Reads a reference slot.
    pub fn read_ref(&self, slot: VAddr) -> VAddr {
        VAddr(self.mem.read_word(slot))
    }

    /// Writes a reference slot with **no** barrier (collector-internal).
    pub fn write_ref(&mut self, slot: VAddr, value: VAddr) {
        self.mem.write_word(slot, value.0);
    }

    /// The mutator's reference store: writes the slot and runs HotSpot's
    /// card-marking write barrier — if the slot lives in Old and the value
    /// points into Young, the slot's card is dirtied. While a concurrent
    /// mark cycle is active ([`JavaHeap::set_concmark_barrier`]) every
    /// old-slot store dirties its card, so the remark can re-examine
    /// objects the mutator touched mid-cycle (incremental-update style).
    pub fn store_ref_with_barrier(&mut self, slot: VAddr, value: VAddr) {
        self.mem.write_word(slot, value.0);
        if self.in_old(slot) && !value.is_null() && (self.in_young(value) || self.concmark_barrier) {
            self.cards.dirty(&mut self.mem, slot);
        }
    }

    /// Arms or disarms the concurrent-marking write barrier. While armed,
    /// MinorGC's card walk must not clean cards (the remark owns them).
    pub fn set_concmark_barrier(&mut self, on: bool) {
        self.concmark_barrier = on;
    }

    /// Whether the concurrent-marking write barrier is armed.
    pub fn concmark_barrier(&self) -> bool {
        self.concmark_barrier
    }

    // ----- roots --------------------------------------------------------

    /// Number of root slots in use.
    pub fn root_count(&self) -> usize {
        self.root_count
    }

    /// Total root slots the root area can hold.
    pub fn root_capacity(&self) -> usize {
        (self.layout.roots.bytes() / WORD_BYTES) as usize
    }

    /// The simulated address of root slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics (invariant: root indices stay below `root_count`) on an
    /// out-of-range index — callers validate workload-supplied indices
    /// through [`JavaHeap::try_set_root`] / [`JavaHeap::try_read_root`].
    pub fn root_slot_addr(&self, idx: usize) -> VAddr {
        assert!(idx < self.root_count, "root-slot invariant: index {idx} >= {} slots in use", self.root_count);
        self.layout.roots.start.add_words(idx as u64)
    }

    /// Appends a root slot holding `value`; returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::RootAreaFull`] when every slot is in use.
    pub fn try_add_root(&mut self, value: VAddr) -> Result<usize, HeapError> {
        if self.root_count >= self.root_capacity() {
            return Err(HeapError::RootAreaFull { capacity: self.root_capacity() });
        }
        let idx = self.root_count;
        self.root_count += 1;
        let slot = self.root_slot_addr(idx);
        self.mem.write_word(slot, value.0);
        Ok(idx)
    }

    /// Appends a root slot holding `value`; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the root area is full (use [`JavaHeap::try_add_root`]
    /// for the fallible form).
    pub fn add_root(&mut self, value: VAddr) -> usize {
        self.try_add_root(value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Overwrites root slot `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::RootIndexOutOfRange`] for an unused index.
    pub fn try_set_root(&mut self, idx: usize, value: VAddr) -> Result<(), HeapError> {
        if idx >= self.root_count {
            return Err(HeapError::RootIndexOutOfRange { idx, count: self.root_count });
        }
        self.set_root(idx, value);
        Ok(())
    }

    /// Overwrites root slot `idx`.
    pub fn set_root(&mut self, idx: usize, value: VAddr) {
        let slot = self.root_slot_addr(idx);
        self.mem.write_word(slot, value.0);
    }

    /// Reads root slot `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::RootIndexOutOfRange`] for an unused index.
    pub fn try_read_root(&self, idx: usize) -> Result<VAddr, HeapError> {
        if idx >= self.root_count {
            return Err(HeapError::RootIndexOutOfRange { idx, count: self.root_count });
        }
        Ok(self.read_root(idx))
    }

    /// Reads root slot `idx`.
    pub fn read_root(&self, idx: usize) -> VAddr {
        VAddr(self.mem.read_word(self.root_slot_addr(idx)))
    }

    // ----- block-offset table (find object starts in dirty cards) -------

    /// Records that an object occupying `[obj, obj + words)` exists in Old,
    /// so card-walks can find it.
    pub fn bot_update(&mut self, obj: VAddr, words: u64) {
        debug_assert!(self.in_old(obj));
        let first_card = (obj - self.old.start()) / CARD_BYTES;
        let last_card = (obj.add_words(words - 1).add_bytes(WORD_BYTES - 1) - self.old.start()) / CARD_BYTES;
        // The card the object starts in keeps its existing covering object;
        // only record if this object begins exactly at the card boundary or
        // nothing is known yet.
        if self.bot[first_card as usize] == BOT_NONE {
            self.bot[first_card as usize] = obj.0;
        }
        for c in (first_card + 1)..=last_card {
            self.bot[c as usize] = obj.0;
        }
    }

    /// Clears the block-offset table (before a compaction rebuild).
    pub fn bot_clear(&mut self) {
        self.bot.fill(BOT_NONE);
    }

    /// The first object covering or preceding the card whose byte lives at
    /// `card_addr`, suitable as a walk start for scanning the card.
    ///
    /// # Panics
    ///
    /// Panics (invariant: cards cover exactly the old generation) when
    /// `card_addr` maps outside the old generation's card range.
    pub fn first_obj_for_card(&self, card_addr: VAddr) -> Option<VAddr> {
        let region = self.cards.card_region(card_addr);
        assert!(
            region.start >= self.old.start(),
            "card-table invariant: card at {card_addr} is below the old generation"
        );
        let idx = (region.start - self.old.start()) / CARD_BYTES;
        let raw = *self
            .bot
            .get(idx as usize)
            .unwrap_or_else(|| panic!("card-table invariant: card at {card_addr} is beyond the old generation"));
        match raw {
            BOT_NONE => None,
            raw => Some(VAddr(raw)),
        }
    }

    // ----- walking -------------------------------------------------------

    /// Iterates object start addresses in `[start, top)` by size-walking.
    /// Requires the region to be densely packed with valid objects (true
    /// for used regions of every space between GCs).
    pub fn walk_objects(&self, start: VAddr, top: VAddr) -> ObjectWalk<'_> {
        ObjectWalk { heap: self, cur: start, top }
    }

    /// Like [`JavaHeap::walk_objects`], but yields `(start, size_words)`
    /// pairs so consumers that also need the size (the census, compaction
    /// planning) decode each header once instead of twice — the walk must
    /// compute the size anyway to advance.
    pub fn walk_objects_sized(&self, start: VAddr, top: VAddr) -> SizedObjectWalk<'_> {
        SizedObjectWalk { heap: self, cur: start, top }
    }

    /// Copies an object's `words` words from `src` to `dst` (the functional
    /// half of the *Copy* primitive).
    pub fn copy_object_words(&mut self, src: VAddr, dst: VAddr, words: u64) {
        self.mem.copy_words(src, dst, words);
    }
}

/// Iterator over packed objects in a space region.
/// See [`JavaHeap::walk_objects`].
#[derive(Debug, Clone)]
pub struct ObjectWalk<'a> {
    heap: &'a JavaHeap,
    cur: VAddr,
    top: VAddr,
}

impl Iterator for ObjectWalk<'_> {
    type Item = VAddr;

    fn next(&mut self) -> Option<VAddr> {
        if self.cur >= self.top {
            return None;
        }
        let obj = self.cur;
        self.cur = obj.add_words(self.heap.obj_size_words(obj));
        Some(obj)
    }
}

/// Iterator over packed objects with their sizes.
/// See [`JavaHeap::walk_objects_sized`].
#[derive(Debug, Clone)]
pub struct SizedObjectWalk<'a> {
    heap: &'a JavaHeap,
    cur: VAddr,
    top: VAddr,
}

impl Iterator for SizedObjectWalk<'_> {
    type Item = (VAddr, u64);

    fn next(&mut self) -> Option<(VAddr, u64)> {
        if self.cur >= self.top {
            return None;
        }
        let obj = self.cur;
        let words = self.heap.obj_size_words(obj);
        self.cur = obj.add_words(words);
        Some((obj, words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap() -> (JavaHeap, KlassId, KlassId, KlassId) {
        let mut h = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
        let point = h.klasses_mut().register("Point", KlassKind::Instance, 4, vec![0, 1]);
        let arr = h.klasses_mut().register_array("Object[]", KlassKind::ObjArray);
        let bytes = h.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
        (h, point, arr, bytes)
    }

    #[test]
    fn layout_spaces_match() {
        let (h, ..) = small_heap();
        assert_eq!(h.old().start(), h.layout().old.start);
        assert_eq!(h.eden().start(), h.layout().eden.start);
        assert!(h.in_young(h.eden().start()));
        assert!(h.in_old(h.old().start()));
        assert!(!h.in_young(h.old().start()));
    }

    #[test]
    fn alloc_eden_initializes_and_zeroes() {
        let (mut h, point, ..) = small_heap();
        let a = h.alloc_eden(point, 0).unwrap();
        assert_eq!(h.obj_klass(a).name(), "Point");
        assert_eq!(h.obj_size_words(a), 6);
        // Payload zeroed.
        for i in 0..4 {
            assert_eq!(h.mem.read_word(a.add_words(2 + i)), 0);
        }
        // Sequential allocation.
        let b = h.alloc_eden(point, 0).unwrap();
        assert_eq!(b, a.add_words(6));
    }

    #[test]
    fn recycled_eden_is_zeroed_again() {
        let (mut h, _, _, bytes) = small_heap();
        let a = h.alloc_eden(bytes, 80).unwrap();
        let words = h.obj_size_words(a);
        h.mem.fill_words(a.add_words(2), words - 2, 0xdead_beef);
        h.swap_survivors();
        assert_eq!(h.alloc_eden(bytes, 80), Some(a));
        assert!(h.mem.is_zero(a.add_words(2), words - 2));
    }

    #[test]
    fn lowered_old_top_is_zeroed_again() {
        let (mut h, _, _, bytes) = small_heap();
        let a = h.alloc_old_object(bytes, 1000).unwrap();
        let words = h.obj_size_words(a);
        assert!(h.mem.is_zero(a.add_words(2), words - 2));
        h.mem.fill_words(a.add_words(2), words - 2, u64::MAX);
        h.set_old_top(a);
        assert_eq!(h.alloc_old_object(bytes, 1000), Some(a));
        assert_eq!(h.obj_size_words(a), words);
        assert!(h.mem.is_zero(a.add_words(2), words - 2));
    }

    #[test]
    fn recycled_object_is_zeroed_in_full() {
        let (mut h, point, ..) = small_heap();
        let a = h.alloc_old(6).unwrap();
        h.mem.fill_words(a, 6, 7);
        h.init_recycled_object(a, point, 0);
        assert_eq!(h.obj_klass(a).name(), "Point");
        assert!(h.mem.is_zero(a.add_words(2), 4));
    }

    #[test]
    fn fresh_and_cleared_bot_know_no_object() {
        let (mut h, ..) = small_heap();
        let first = h.cards().card_addr(h.old().start());
        let last = h.cards().card_addr(VAddr(h.old().end().0 - WORD_BYTES));
        assert_eq!(h.first_obj_for_card(first), None);
        assert_eq!(h.first_obj_for_card(last), None);
        let obj = h.alloc_old(4).unwrap();
        assert_eq!(h.first_obj_for_card(first), Some(obj));
        h.bot_clear();
        assert_eq!(h.first_obj_for_card(first), None);
    }

    #[test]
    fn eden_exhaustion_returns_none() {
        let (mut h, _, _, bytes) = small_heap();
        let eden_words = h.eden().capacity_bytes() / WORD_BYTES;
        // One huge type array nearly filling eden.
        let big = h.alloc_eden(bytes, (eden_words - 8) as u32).unwrap();
        assert!(!big.is_null());
        assert_eq!(h.alloc_eden(bytes, 64), None);
    }

    #[test]
    fn ref_slots_per_kind() {
        let (mut h, point, arr, bytes) = small_heap();
        let p = h.alloc_eden(point, 0).unwrap();
        assert_eq!(h.ref_slots(p), vec![p.add_words(2), p.add_words(3)]);
        let a = h.alloc_eden(arr, 3).unwrap();
        assert_eq!(h.ref_slots(a).len(), 3);
        let t = h.alloc_eden(bytes, 10).unwrap();
        assert!(h.ref_slots(t).is_empty());
    }

    #[test]
    fn write_barrier_dirties_old_to_young_only() {
        let (mut h, point, ..) = small_heap();
        let young = h.alloc_eden(point, 0).unwrap();
        let old_words = h.klasses().get(point).size_words(0);
        let old_obj = h.alloc_old(old_words).unwrap();
        // Forge a valid header for the old object.
        crate::object::init_header(&mut h.mem, old_obj, point, 0);
        let old_slot = old_obj.add_words(2);
        h.store_ref_with_barrier(old_slot, young);
        assert!(h.cards().is_dirty(&h.mem, old_slot));
        // Young-to-young stores do not dirty anything.
        let y2 = h.alloc_eden(point, 0).unwrap();
        let y_slot = y2.add_words(2);
        h.store_ref_with_barrier(y_slot, young);
        // Old-to-old does not dirty. Pad so old2 lands on a fresh card.
        h.alloc_old(512 / WORD_BYTES * 2).unwrap();
        let old2 = h.alloc_old(old_words).unwrap();
        crate::object::init_header(&mut h.mem, old2, point, 0);
        h.store_ref_with_barrier(old2.add_words(2), old_obj);
        assert!(!h.cards().is_dirty(&h.mem, old2.add_words(2)));
    }

    #[test]
    fn roots_roundtrip() {
        let (mut h, point, ..) = small_heap();
        let a = h.alloc_eden(point, 0).unwrap();
        let idx = h.add_root(a);
        assert_eq!(h.read_root(idx), a);
        h.set_root(idx, VAddr::NULL);
        assert_eq!(h.read_root(idx), VAddr::NULL);
        assert_eq!(h.root_count(), 1);
    }

    #[test]
    fn root_area_exhaustion_is_a_typed_error() {
        let (mut h, point, ..) = small_heap();
        let a = h.alloc_eden(point, 0).unwrap();
        let cap = h.root_capacity();
        for _ in 0..cap {
            h.try_add_root(a).unwrap();
        }
        let err = h.try_add_root(a).unwrap_err();
        assert_eq!(err, HeapError::RootAreaFull { capacity: cap });
        assert!(err.to_string().contains("root area full"), "{err}");
        assert_eq!(h.root_count(), cap);
    }

    #[test]
    fn out_of_range_root_access_is_a_typed_error() {
        let (mut h, point, ..) = small_heap();
        let a = h.alloc_eden(point, 0).unwrap();
        let idx = h.add_root(a);
        assert_eq!(h.try_read_root(idx), Ok(a));
        assert_eq!(h.try_read_root(idx + 1), Err(HeapError::RootIndexOutOfRange { idx: idx + 1, count: 1 }));
        assert_eq!(
            h.try_set_root(idx + 1, VAddr::NULL),
            Err(HeapError::RootIndexOutOfRange { idx: idx + 1, count: 1 })
        );
        h.try_set_root(idx, VAddr::NULL).unwrap();
        assert_eq!(h.read_root(idx), VAddr::NULL);
    }

    #[test]
    #[should_panic(expected = "root area full")]
    fn add_root_panic_names_the_invariant() {
        let (mut h, point, ..) = small_heap();
        let a = h.alloc_eden(point, 0).unwrap();
        for _ in 0..=h.root_capacity() {
            h.add_root(a);
        }
    }

    #[test]
    fn survivor_swap_flips_roles_and_resets() {
        let (mut h, ..) = small_heap();
        let from0 = h.from_space().start();
        let to0 = h.to_space().start();
        h.alloc_to(4).unwrap();
        assert_eq!(h.to_space().used_bytes(), 32);
        h.swap_survivors();
        assert_eq!(h.from_space().start(), to0);
        assert_eq!(h.to_space().start(), from0);
        // New from-space holds the copied data; new to-space is empty.
        assert_eq!(h.from_space().used_bytes(), 32);
        assert_eq!(h.to_space().used_bytes(), 0);
        assert_eq!(h.eden().used_bytes(), 0);
    }

    #[test]
    fn bot_finds_objects_for_cards() {
        let (mut h, _, _, bytes) = small_heap();
        // Allocate a large object spanning several cards.
        let words = 512 / 8 * 3; // 3 cards worth
        let obj = h.alloc_old(words).unwrap();
        crate::object::init_header(&mut h.mem, obj, bytes, (words - 2) as u32);
        let card2 = h.cards().card_addr(obj.add_bytes(1024));
        assert_eq!(h.first_obj_for_card(card2), Some(obj));
        // A following small object lands in the last card of the big one.
        let obj2 = h.alloc_old(4).unwrap();
        let c = h.cards().card_addr(obj2);
        let found = h.first_obj_for_card(c).unwrap();
        assert!(found <= obj2, "walk start must not skip the object");
    }

    #[test]
    fn walk_objects_visits_all_in_order() {
        let (mut h, point, arr, _) = small_heap();
        let a = h.alloc_eden(point, 0).unwrap();
        let b = h.alloc_eden(arr, 5).unwrap();
        let c = h.alloc_eden(point, 0).unwrap();
        let seen: Vec<_> = h.walk_objects(h.eden().start(), h.eden().top()).collect();
        assert_eq!(seen, vec![a, b, c]);
    }

    #[test]
    fn used_bytes_accounting() {
        let (mut h, point, ..) = small_heap();
        assert_eq!(h.used_bytes(), 0);
        h.alloc_eden(point, 0).unwrap();
        assert_eq!(h.young_used_bytes(), 48);
        h.alloc_old(6).unwrap();
        assert_eq!(h.used_bytes(), 48 + 48);
    }
}
