//! The card table: HotSpot's old-to-young remembered set.
//!
//! One byte per 512 B "card" of the Old generation. Following HotSpot's
//! `CardTableModRefBS`, a **clean** card is `0xff` (signed −1) and a
//! **dirty** card is `0x00`. That convention is why the paper's *Search*
//! primitive (Fig. 7) scans 64-bit blocks of the card table comparing
//! against `-1`: a block of eight clean cards reads as `0xffff_ffff_ffff_ffff`.

use crate::addr::{VAddr, VRange};
use crate::mem::HeapMemory;

/// Value of a clean card (HotSpot `clean_card_val() == -1`).
pub const CLEAN: u8 = 0xff;
/// Value of a dirty card (HotSpot `dirty_card_val() == 0`).
pub const DIRTY: u8 = 0x00;
/// Bytes of heap covered by one card byte (HotSpot: 512).
pub const CARD_BYTES: u64 = 512;

/// The card-table view over a region of simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardTable {
    /// Where the card bytes live.
    table: VRange,
    /// The heap region the cards describe (Old generation).
    covered: VRange,
}

impl CardTable {
    /// Creates the view. The backing bytes must be initialized with
    /// [`CardTable::clear_all`] before first use (fresh simulated memory is
    /// zero, i.e. all-dirty, matching a cold start before HotSpot clears).
    ///
    /// # Panics
    ///
    /// Panics if the table region is too small for the covered region.
    pub fn new(table: VRange, covered: VRange) -> CardTable {
        assert!(
            table.bytes() * CARD_BYTES >= covered.bytes(),
            "card table too small: {} cards for {} bytes",
            table.bytes(),
            covered.bytes()
        );
        CardTable { table, covered }
    }

    /// The card bytes' own address range (what *Search* scans).
    pub fn table_range(&self) -> VRange {
        self.table
    }

    /// The covered heap region.
    pub fn covered(&self) -> VRange {
        self.covered
    }

    /// Number of cards actually covering the region.
    pub fn cards(&self) -> u64 {
        self.covered.bytes().div_ceil(CARD_BYTES)
    }

    /// Address of the card byte for heap address `a`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `a` is outside the covered region.
    pub fn card_addr(&self, a: VAddr) -> VAddr {
        debug_assert!(self.covered.contains(a), "{a} outside covered {}", self.covered);
        self.table.start.add_bytes((a - self.covered.start) / CARD_BYTES)
    }

    /// The heap range covered by the card whose byte sits at `card`.
    pub fn card_region(&self, card: VAddr) -> VRange {
        let idx = card - self.table.start;
        let start = self.covered.start.add_bytes(idx * CARD_BYTES);
        let end = VAddr((start.0 + CARD_BYTES).min(self.covered.end.0));
        VRange::new(start, end)
    }

    /// Marks the card containing `a` dirty (the mutator write barrier).
    pub fn dirty(&self, mem: &mut HeapMemory, a: VAddr) {
        mem.write_u8(self.card_addr(a), DIRTY);
    }

    /// Marks every card overlapping `[start, end)` dirty.
    pub fn dirty_range(&self, mem: &mut HeapMemory, start: VAddr, end: VAddr) {
        let mut c = self.card_addr(start);
        let last = self.card_addr(VAddr(end.0 - 1).max(start));
        while c <= last {
            mem.write_u8(c, DIRTY);
            c = c.add_bytes(1);
        }
    }

    /// Whether the card containing `a` is dirty.
    pub fn is_dirty(&self, mem: &HeapMemory, a: VAddr) -> bool {
        mem.read_u8(self.card_addr(a)) != CLEAN
    }

    /// Cleans every card (start of a fresh epoch).
    pub fn clear_all(&self, mem: &mut HeapMemory) {
        let words = self.table.bytes() / 8;
        mem.fill_words(self.table.start, words, u64::MAX);
    }

    /// The software *Search* of Fig. 7: scans card bytes in `[start, end)`
    /// (addresses within the table) at 64-bit block granularity and returns
    /// the address of the first block that is not all-clean, i.e. contains
    /// a dirty card. Also returns how many 8-byte blocks were examined,
    /// which is exactly the memory the primitive reads.
    pub fn search_dirty_block(&self, mem: &HeapMemory, start: VAddr, end: VAddr) -> (Option<VAddr>, u64) {
        debug_assert!(start >= self.table.start && end <= self.table.end);
        let mut a = start.align_down(8);
        let mut scanned = 0;
        while a < end {
            scanned += 1;
            if mem.read_word(a) != u64::MAX {
                return (Some(a), scanned);
            }
            a = a.add_bytes(8);
        }
        (None, scanned)
    }

    /// Iterates the dirty card byte addresses inside a block found by
    /// [`CardTable::search_dirty_block`].
    pub fn dirty_cards_in_block(&self, mem: &HeapMemory, block: VAddr) -> Vec<VAddr> {
        let mut out = Vec::new();
        for i in 0..8 {
            let c = block.add_bytes(i);
            if c < self.table.end && mem.read_u8(c) != CLEAN {
                out.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (HeapMemory, CardTable) {
        // Covered: 64 KB of "old" at 0x1000, table at 0x20000 (128 cards).
        let mut mem = HeapMemory::new(VAddr(0x1000), 0x40000);
        let covered = VRange::new(VAddr(0x1000), VAddr(0x11000));
        let table = VRange::new(VAddr(0x20000), VAddr(0x20080));
        let ct = CardTable::new(table, covered);
        ct.clear_all(&mut mem);
        (mem, ct)
    }

    #[test]
    fn fresh_table_is_clean() {
        let (mem, ct) = setup();
        assert!(!ct.is_dirty(&mem, VAddr(0x1000)));
        assert!(!ct.is_dirty(&mem, VAddr(0x10ff8)));
        let (hit, scanned) = ct.search_dirty_block(&mem, ct.table_range().start, ct.table_range().end);
        assert_eq!(hit, None);
        assert_eq!(scanned, 16); // 128 cards / 8 per block
    }

    #[test]
    fn dirty_and_search_find_the_block() {
        let (mut mem, ct) = setup();
        ct.dirty(&mut mem, VAddr(0x1a00)); // card 5 ([0x1a00,0x1c00)) → block 0
        assert!(ct.is_dirty(&mem, VAddr(0x1a00)));
        assert!(ct.is_dirty(&mem, VAddr(0x1bff)), "same card");
        assert!(!ct.is_dirty(&mem, VAddr(0x19ff)), "previous card");
        assert!(!ct.is_dirty(&mem, VAddr(0x1c00)), "next card");
        let (hit, scanned) = ct.search_dirty_block(&mem, ct.table_range().start, ct.table_range().end);
        assert_eq!(hit, Some(VAddr(0x20000)));
        assert_eq!(scanned, 1, "search stops at the first dirty block");
        let dirty = ct.dirty_cards_in_block(&mem, hit.unwrap());
        assert_eq!(dirty, vec![VAddr(0x20005)]);
    }

    #[test]
    fn card_region_roundtrip() {
        let (mut mem, ct) = setup();
        let a = VAddr(0x3123);
        ct.dirty(&mut mem, a);
        let card = ct.card_addr(a);
        let region = ct.card_region(card);
        assert!(region.contains(a));
        assert_eq!(region.bytes(), 512);
        assert_eq!(region.start.0 % 512, a.align_down(512).0 % 512);
    }

    #[test]
    fn dirty_range_spans_cards() {
        let (mut mem, ct) = setup();
        ct.dirty_range(&mut mem, VAddr(0x1100), VAddr(0x1500));
        // Cards covering 0x1100..0x1500: cards 0,1,2 (0x1000-, 0x1200-, 0x1400-).
        assert!(ct.is_dirty(&mem, VAddr(0x1100)));
        assert!(ct.is_dirty(&mem, VAddr(0x1300)));
        assert!(ct.is_dirty(&mem, VAddr(0x1400)));
        assert!(!ct.is_dirty(&mem, VAddr(0x1600)));
    }

    #[test]
    fn clear_all_resets_dirtiness() {
        let (mut mem, ct) = setup();
        ct.dirty(&mut mem, VAddr(0x5000));
        ct.clear_all(&mut mem);
        assert!(!ct.is_dirty(&mem, VAddr(0x5000)));
    }

    #[test]
    fn search_resumes_past_found_block() {
        let (mut mem, ct) = setup();
        ct.dirty(&mut mem, VAddr(0x1000)); // card 0, block 0
        ct.dirty(&mut mem, VAddr(0x9000)); // card 64, block 8
        let (hit1, _) = ct.search_dirty_block(&mem, ct.table_range().start, ct.table_range().end);
        let b1 = hit1.unwrap();
        let (hit2, _) = ct.search_dirty_block(&mem, b1.add_bytes(8), ct.table_range().end);
        assert_eq!(hit2, Some(VAddr(0x20040)));
    }

    #[test]
    #[should_panic]
    fn undersized_table_panics() {
        let covered = VRange::new(VAddr(0x1000), VAddr(0x101000));
        let table = VRange::new(VAddr(0x200000), VAddr(0x200008));
        let _ = CardTable::new(table, covered);
    }
}
