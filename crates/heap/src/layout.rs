//! The virtual-address map of the simulated JVM process.
//!
//! ```text
//!  base ─► ┌─────────────┐
//!          │ Old         │  2/3 of heap (HotSpot default Young:Old = 1:2)
//!          ├─────────────┤
//!          │ Eden        │  8/10 of Young (SurvivorRatio = 8)
//!          ├─────────────┤
//!          │ Survivor F  │  1/10 of Young
//!          ├─────────────┤
//!          │ Survivor T  │  1/10 of Young
//!          ├─────────────┤
//!          │ begin bitmap│  1 bit per heap word
//!          ├─────────────┤
//!          │ end bitmap  │  = begin + OFFSET (§4.3)
//!          ├─────────────┤
//!          │ card table  │  1 byte per 512 B of Old
//!          ├─────────────┤
//!          │ minor stack │  object-stack backing store
//!          ├─────────────┤
//!          │ major stack │
//!          ├─────────────┤
//!          │ root area   │  simulated stack/global root slots
//!          └─────────────┘
//! ```
//!
//! Old sits *below* the young spaces so that MajorGC compaction can treat
//! the heap as "a single large linear space" (§3.2) and left-pack every
//! live object toward `base`.

use crate::addr::{VAddr, VRange, WORD_BYTES};
use crate::cardtable::CARD_BYTES;

/// Alignment for every section boundary (one compaction region).
pub const SECTION_ALIGN: u64 = 4096;
/// Base virtual address of the whole mapping (where Old starts).
pub const HEAP_BASE: VAddr = VAddr(0x1000_0000);
/// Capacity of each object stack, in entries.
pub const STACK_ENTRIES: u64 = 1 << 20;
/// Bytes reserved for root slots.
pub const ROOT_BYTES: u64 = 1 << 20;

/// Sizing policy knobs for [`HeapLayout::compute`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutParams {
    /// Requested Java heap size in bytes (Old + Young).
    pub heap_bytes: u64,
    /// Old gets `old_parts / (old_parts + young_parts)` of the heap.
    /// HotSpot's default policy is Young:Old = 1:2 (§5.1).
    pub old_parts: u64,
    /// See `old_parts`.
    pub young_parts: u64,
    /// HotSpot `SurvivorRatio`: Eden is `survivor_ratio ×` one survivor.
    pub survivor_ratio: u64,
}

impl Default for LayoutParams {
    fn default() -> LayoutParams {
        LayoutParams { heap_bytes: 32 << 20, old_parts: 2, young_parts: 1, survivor_ratio: 8 }
    }
}

/// The computed address map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapLayout {
    /// The whole Java heap `[old.start, to.end)`.
    pub heap: VRange,
    /// Old generation.
    pub old: VRange,
    /// Eden.
    pub eden: VRange,
    /// Survivor "from".
    pub from: VRange,
    /// Survivor "to".
    pub to: VRange,
    /// Begin mark bitmap (1 bit per heap word).
    pub beg_map: VRange,
    /// End mark bitmap; `end_map.start = beg_map.start + OFFSET`.
    pub end_map: VRange,
    /// Card table covering Old.
    pub cards: VRange,
    /// Backing store of the MinorGC object stack.
    pub minor_stack: VRange,
    /// Backing store of the MajorGC object stack.
    pub major_stack: VRange,
    /// Root-slot area.
    pub roots: VRange,
    /// Everything, `[base, roots.end)`.
    pub total: VRange,
}

impl HeapLayout {
    /// Computes the map. All section boundaries are [`SECTION_ALIGN`]ed,
    /// so the realized heap may be slightly larger than requested.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate (zero heap, zero parts…).
    pub fn compute(p: &LayoutParams) -> HeapLayout {
        assert!(p.heap_bytes >= 64 * 1024, "heap too small to be meaningful");
        assert!(p.old_parts > 0 && p.young_parts > 0 && p.survivor_ratio > 0);

        let align = |b: u64| -> u64 { (b + SECTION_ALIGN - 1) & !(SECTION_ALIGN - 1) };

        let parts = p.old_parts + p.young_parts;
        let young_bytes = p.heap_bytes * p.young_parts / parts;
        let old_bytes = align(p.heap_bytes - young_bytes);
        let survivor_bytes = align(young_bytes / (p.survivor_ratio + 2));
        let eden_bytes = align(young_bytes - 2 * survivor_bytes);

        let mut cursor = HEAP_BASE;
        let mut take = |bytes: u64| -> VRange {
            let r = VRange::new(cursor, cursor.add_bytes(align(bytes)));
            cursor = r.end;
            r
        };

        let old = take(old_bytes);
        let eden = take(eden_bytes);
        let from = take(survivor_bytes);
        let to = take(survivor_bytes);
        let heap = VRange::new(old.start, to.end);

        let bitmap_bytes = heap.words().div_ceil(8);
        let beg_map = take(bitmap_bytes);
        let end_map = take(bitmap_bytes);
        let cards = take(old.bytes() / CARD_BYTES);
        let minor_stack = take(STACK_ENTRIES * WORD_BYTES);
        let major_stack = take(STACK_ENTRIES * WORD_BYTES);
        let roots = take(ROOT_BYTES);
        let total = VRange::new(HEAP_BASE, roots.end);

        HeapLayout { heap, old, eden, from, to, beg_map, end_map, cards, minor_stack, major_stack, roots, total }
    }

    /// Which space-free young capacity exists (eden + both survivors).
    pub fn young_bytes(&self) -> u64 {
        self.eden.bytes() + self.from.bytes() + self.to.bytes()
    }

    /// Young-generation capacity as a JVM reports it: eden plus ONE
    /// survivor space. At any instant only one survivor holds objects —
    /// the other is the copy target — so HotSpot's `-verbose:gc` capacity
    /// figure (and `Runtime.totalMemory()`) excludes it.
    pub fn young_capacity_bytes(&self) -> u64 {
        self.eden.bytes() + self.from.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> HeapLayout {
        HeapLayout::compute(&LayoutParams::default())
    }

    #[test]
    fn sections_are_contiguous_and_ordered() {
        let l = layout();
        assert_eq!(l.old.end, l.eden.start);
        assert_eq!(l.eden.end, l.from.start);
        assert_eq!(l.from.end, l.to.start);
        assert_eq!(l.to.end, l.beg_map.start);
        assert_eq!(l.beg_map.end, l.end_map.start);
        assert_eq!(l.end_map.end, l.cards.start);
        assert_eq!(l.cards.end, l.minor_stack.start);
        assert_eq!(l.minor_stack.end, l.major_stack.start);
        assert_eq!(l.major_stack.end, l.roots.start);
        assert_eq!(l.total.end, l.roots.end);
    }

    #[test]
    fn ratios_match_hotspot_defaults() {
        let l = layout();
        // Old ≈ 2× Young.
        let ratio = l.old.bytes() as f64 / l.young_bytes() as f64;
        assert!((ratio - 2.0).abs() < 0.1, "old:young = {ratio}");
        // Eden ≈ 8× one survivor.
        let sr = l.eden.bytes() as f64 / l.from.bytes() as f64;
        assert!((sr - 8.0).abs() < 0.5, "eden:survivor = {sr}");
        assert_eq!(l.from.bytes(), l.to.bytes());
    }

    #[test]
    fn bitmaps_cover_heap_at_one_bit_per_word() {
        let l = layout();
        assert!(l.beg_map.bytes() * 8 >= l.heap.words());
        assert_eq!(l.beg_map.bytes(), l.end_map.bytes());
    }

    #[test]
    fn cards_cover_old_at_one_byte_per_512() {
        let l = layout();
        assert!(l.cards.bytes() * 512 >= l.old.bytes());
    }

    #[test]
    fn alignment_of_all_sections() {
        let l = layout();
        for r in [l.old, l.eden, l.from, l.to, l.beg_map, l.end_map, l.cards, l.minor_stack, l.major_stack, l.roots] {
            assert_eq!(r.start.0 % SECTION_ALIGN, 0, "{r} start unaligned");
            assert_eq!(r.end.0 % SECTION_ALIGN, 0, "{r} end unaligned");
        }
    }

    #[test]
    fn scales_with_heap_size() {
        let small = HeapLayout::compute(&LayoutParams { heap_bytes: 8 << 20, ..Default::default() });
        let large = HeapLayout::compute(&LayoutParams { heap_bytes: 64 << 20, ..Default::default() });
        assert!(large.heap.bytes() > 7 * small.heap.bytes());
        assert!(large.beg_map.bytes() > 7 * small.beg_map.bytes());
    }

    #[test]
    #[should_panic]
    fn tiny_heap_panics() {
        let _ = HeapLayout::compute(&LayoutParams { heap_bytes: 1024, ..Default::default() });
    }
}
