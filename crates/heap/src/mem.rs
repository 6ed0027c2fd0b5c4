//! The flat simulated memory backing the heap and its metadata.
//!
//! One contiguous `Vec<u64>` holds everything the GC touches — object
//! spaces, mark bitmaps, the card table, object stacks, and the root area —
//! so every primitive operates on real simulated virtual addresses that the
//! timing models in `charon-sim` can map to cubes, vaults, and cache sets.

use crate::addr::{VAddr, VRange, WORD_BYTES};

/// Word-grained simulated memory starting at a fixed virtual base.
///
/// ```
/// use charon_heap::mem::HeapMemory;
/// use charon_heap::addr::VAddr;
///
/// let mut m = HeapMemory::new(VAddr(0x1000), 4096);
/// m.write_word(VAddr(0x1008), 0xdead_beef);
/// assert_eq!(m.read_word(VAddr(0x1008)), 0xdead_beef);
/// ```
#[derive(Debug, Clone)]
pub struct HeapMemory {
    base: VAddr,
    words: Vec<u64>,
}

impl HeapMemory {
    /// Allocates `bytes` of zeroed simulated memory at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `bytes` is not word-aligned.
    pub fn new(base: VAddr, bytes: u64) -> HeapMemory {
        assert!(base.is_word_aligned(), "memory base must be word-aligned");
        assert_eq!(bytes % WORD_BYTES, 0, "memory size must be word-aligned");
        HeapMemory { base, words: vec![0; (bytes / WORD_BYTES) as usize] }
    }

    /// The lowest mapped address.
    pub fn base(&self) -> VAddr {
        self.base
    }

    /// One past the highest mapped address.
    pub fn end(&self) -> VAddr {
        self.base.add_words(self.words.len() as u64)
    }

    /// The mapped range.
    pub fn range(&self) -> VRange {
        VRange::new(self.base, self.end())
    }

    /// Size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.words.len() as u64 * WORD_BYTES
    }

    fn index(&self, addr: VAddr) -> usize {
        debug_assert!(addr.is_word_aligned(), "unaligned word access at {addr}");
        debug_assert!(addr >= self.base && addr < self.end(), "access at {addr} outside mapped {}", self.range());
        ((addr.0 - self.base.0) / WORD_BYTES) as usize
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` is unaligned or unmapped.
    pub fn read_word(&self, addr: VAddr) -> u64 {
        self.words[self.index(addr)]
    }

    /// Writes the word at `addr`.
    pub fn write_word(&mut self, addr: VAddr, value: u64) {
        let i = self.index(addr);
        self.words[i] = value;
    }

    /// Reads the byte at `addr` (little-endian within its word), for the
    /// byte-granular card table.
    pub fn read_u8(&self, addr: VAddr) -> u8 {
        let word = self.words[self.index(addr.align_down(WORD_BYTES))];
        ((word >> ((addr.0 % WORD_BYTES) * 8)) & 0xff) as u8
    }

    /// Writes the byte at `addr`.
    pub fn write_u8(&mut self, addr: VAddr, value: u8) {
        let i = self.index(addr.align_down(WORD_BYTES));
        let shift = (addr.0 % WORD_BYTES) * 8;
        self.words[i] = (self.words[i] & !(0xffu64 << shift)) | ((value as u64) << shift);
    }

    /// Copies `words` words from `src` to `dst` with memmove semantics
    /// (overlapping moves in either direction are safe; compaction's
    /// left-packing moves are the common case).
    pub fn copy_words(&mut self, src: VAddr, dst: VAddr, words: u64) {
        let s = self.index(src);
        let d = self.index(dst);
        let n = words as usize;
        debug_assert!(s + n <= self.words.len() && d + n <= self.words.len());
        self.words.copy_within(s..s + n, d);
    }

    /// Fills `words` words starting at `addr` with `value`.
    pub fn fill_words(&mut self, addr: VAddr, words: u64, value: u64) {
        let i = self.index(addr);
        self.words[i..i + words as usize].fill(value);
    }

    /// Whether all `words` words starting at `addr` read zero.
    pub fn is_zero(&self, addr: VAddr, words: u64) -> bool {
        if words == 0 {
            return true;
        }
        let i = self.index(addr);
        self.words[i..i + words as usize].iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> HeapMemory {
        HeapMemory::new(VAddr(0x1000), 1024)
    }

    #[test]
    fn zero_initialized() {
        let m = mem();
        assert_eq!(m.read_word(VAddr(0x1000)), 0);
        assert_eq!(m.read_word(VAddr(0x13f8)), 0); // last mapped word
        assert_eq!(m.len_bytes(), 1024);
        assert_eq!(m.end(), VAddr(0x1400));
    }

    #[test]
    fn word_roundtrip() {
        let mut m = mem();
        m.write_word(VAddr(0x1010), u64::MAX);
        assert_eq!(m.read_word(VAddr(0x1010)), u64::MAX);
        assert_eq!(m.read_word(VAddr(0x1008)), 0);
        assert_eq!(m.read_word(VAddr(0x1018)), 0);
    }

    #[test]
    fn byte_access_within_word() {
        let mut m = mem();
        m.write_u8(VAddr(0x1003), 0xab);
        assert_eq!(m.read_u8(VAddr(0x1003)), 0xab);
        assert_eq!(m.read_word(VAddr(0x1000)), 0xab00_0000);
        m.write_u8(VAddr(0x1003), 0x00);
        assert_eq!(m.read_word(VAddr(0x1000)), 0);
        // Neighbouring bytes unaffected.
        m.write_u8(VAddr(0x1000), 0x11);
        m.write_u8(VAddr(0x1001), 0x22);
        assert_eq!(m.read_u8(VAddr(0x1000)), 0x11);
        assert_eq!(m.read_u8(VAddr(0x1001)), 0x22);
    }

    #[test]
    fn copy_words_disjoint() {
        let mut m = mem();
        for i in 0..4 {
            m.write_word(VAddr(0x1000).add_words(i), 100 + i);
        }
        m.copy_words(VAddr(0x1000), VAddr(0x1100), 4);
        for i in 0..4 {
            assert_eq!(m.read_word(VAddr(0x1100).add_words(i)), 100 + i);
        }
    }

    #[test]
    fn copy_words_overlapping_downward() {
        // Left-packing move, as compaction performs.
        let mut m = mem();
        for i in 0..8 {
            m.write_word(VAddr(0x1020).add_words(i), i);
        }
        m.copy_words(VAddr(0x1020), VAddr(0x1010), 8);
        for i in 0..8 {
            assert_eq!(m.read_word(VAddr(0x1010).add_words(i)), i);
        }
    }

    #[test]
    fn copy_words_overlapping_upward() {
        let mut m = mem();
        for i in 0..8 {
            m.write_word(VAddr(0x1000).add_words(i), i);
        }
        m.copy_words(VAddr(0x1000), VAddr(0x1010), 8);
        for i in 0..8 {
            assert_eq!(m.read_word(VAddr(0x1010).add_words(i)), i);
        }
    }

    #[test]
    fn fill_words() {
        let mut m = mem();
        m.fill_words(VAddr(0x1000), 16, 0xff);
        assert_eq!(m.read_word(VAddr(0x1078)), 0xff);
        m.fill_words(VAddr(0x1000), 16, 0);
        assert_eq!(m.read_word(VAddr(0x1078)), 0);
    }

    #[test]
    fn is_zero_checks_the_span() {
        let mut m = mem();
        assert!(m.is_zero(VAddr(0x1000), 128));
        m.write_word(VAddr(0x1018), 1);
        assert!(!m.is_zero(VAddr(0x1000), 4));
        assert!(m.is_zero(VAddr(0x1000), 3));
        assert!(m.is_zero(VAddr(0x1020), 0));
        assert!(m.is_zero(m.end(), 0));
    }

    #[test]
    #[should_panic]
    fn unaligned_base_panics() {
        let _ = HeapMemory::new(VAddr(0x1001), 64);
    }
}
