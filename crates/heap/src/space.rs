//! Bump-allocated heap spaces (Eden, the two Survivors, Old).

use crate::addr::{VAddr, VRange, WORD_BYTES};
use std::fmt;

/// One contiguous, bump-allocated region of the heap.
///
/// The space also keeps a high-water mark: the highest `top` it has ever
/// had. Every write into a space lands below its `top`, so words at or
/// above the mark have never been written and still read zero.
///
/// ```
/// use charon_heap::space::Space;
/// use charon_heap::addr::VAddr;
///
/// let mut s = Space::new("eden", VAddr(0x1000), VAddr(0x2000));
/// let obj = s.alloc_words(4).unwrap();
/// assert_eq!(obj, VAddr(0x1000));
/// assert_eq!(s.used_bytes(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Space {
    name: &'static str,
    start: VAddr,
    end: VAddr,
    top: VAddr,
    high_water: VAddr,
}

impl Space {
    /// Creates an empty space spanning `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are unaligned or inverted.
    pub fn new(name: &'static str, start: VAddr, end: VAddr) -> Space {
        assert!(start.is_word_aligned() && end.is_word_aligned(), "unaligned space bounds");
        assert!(end >= start, "inverted space bounds");
        Space { name, start, end, top: start, high_water: start }
    }

    /// The space's name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Lowest address.
    pub fn start(&self) -> VAddr {
        self.start
    }

    /// One past the highest address.
    pub fn end(&self) -> VAddr {
        self.end
    }

    /// Current allocation frontier.
    pub fn top(&self) -> VAddr {
        self.top
    }

    /// The highest `top` the space has ever had. `reset` and `set_top`
    /// never lower it; everything in `[high_water, end)` reads zero.
    pub fn high_water(&self) -> VAddr {
        self.high_water
    }

    /// The whole region `[start, end)`.
    pub fn region(&self) -> VRange {
        VRange::new(self.start, self.end)
    }

    /// The allocated region `[start, top)`.
    pub fn used_region(&self) -> VRange {
        VRange::new(self.start, self.top)
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.end - self.start
    }

    /// Bytes allocated so far.
    pub fn used_bytes(&self) -> u64 {
        self.top - self.start
    }

    /// Bytes still free.
    pub fn free_bytes(&self) -> u64 {
        self.end - self.top
    }

    /// Fraction of the capacity in use (0 for an empty zero-size space).
    pub fn occupancy(&self) -> f64 {
        if self.capacity_bytes() == 0 {
            0.0
        } else {
            self.used_bytes() as f64 / self.capacity_bytes() as f64
        }
    }

    /// Whether `a` lies within the space's bounds.
    pub fn contains(&self, a: VAddr) -> bool {
        a >= self.start && a < self.end
    }

    /// Bump-allocates `words` words, or `None` when full.
    pub fn alloc_words(&mut self, words: u64) -> Option<VAddr> {
        let bytes = words * WORD_BYTES;
        if self.free_bytes() < bytes {
            return None;
        }
        let addr = self.top;
        self.top = self.top.add_bytes(bytes);
        self.high_water = self.high_water.max(self.top);
        Some(addr)
    }

    /// Empties the space (its contents become garbage).
    pub fn reset(&mut self) {
        self.top = self.start;
    }

    /// Sets the allocation frontier directly (used by compaction).
    ///
    /// # Panics
    ///
    /// Panics if `top` is outside `[start, end]` or unaligned.
    pub fn set_top(&mut self, top: VAddr) {
        assert!(top >= self.start && top <= self.end, "top outside space");
        assert!(top.is_word_aligned());
        self.top = top;
        self.high_water = self.high_water.max(top);
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}..{}) used {}/{} KB",
            self.name,
            self.start,
            self.end,
            self.used_bytes() / 1024,
            self.capacity_bytes() / 1024
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Space {
        Space::new("s", VAddr(0x1000), VAddr(0x1100))
    }

    #[test]
    fn alloc_bumps_sequentially() {
        let mut s = space();
        assert_eq!(s.alloc_words(2), Some(VAddr(0x1000)));
        assert_eq!(s.alloc_words(3), Some(VAddr(0x1010)));
        assert_eq!(s.used_bytes(), 40);
        assert_eq!(s.free_bytes(), 256 - 40);
    }

    #[test]
    fn alloc_fails_when_full() {
        let mut s = space();
        assert!(s.alloc_words(32).is_some()); // exactly fills 256 B
        assert_eq!(s.alloc_words(1), None);
        assert_eq!(s.free_bytes(), 0);
        assert!((s.occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_empties() {
        let mut s = space();
        s.alloc_words(4).unwrap();
        s.reset();
        assert_eq!(s.used_bytes(), 0);
        assert_eq!(s.alloc_words(1), Some(VAddr(0x1000)));
    }

    #[test]
    fn high_water_survives_reset_and_lowered_top() {
        let mut s = space();
        assert_eq!(s.high_water(), VAddr(0x1000));
        s.alloc_words(4).unwrap();
        assert_eq!(s.high_water(), VAddr(0x1020));
        s.reset();
        assert_eq!(s.high_water(), VAddr(0x1020));
        s.alloc_words(2).unwrap();
        assert_eq!(s.high_water(), VAddr(0x1020));
        s.set_top(VAddr(0x1008));
        assert_eq!(s.high_water(), VAddr(0x1020));
        s.set_top(VAddr(0x1080));
        assert_eq!(s.high_water(), VAddr(0x1080));
    }

    #[test]
    fn contains_respects_bounds() {
        let s = space();
        assert!(s.contains(VAddr(0x1000)));
        assert!(s.contains(VAddr(0x10ff)));
        assert!(!s.contains(VAddr(0x1100)));
        assert!(!s.contains(VAddr(0xfff)));
    }

    #[test]
    fn set_top_for_compaction() {
        let mut s = space();
        s.set_top(VAddr(0x1080));
        assert_eq!(s.used_bytes(), 128);
    }

    #[test]
    #[should_panic]
    fn set_top_outside_panics() {
        let mut s = space();
        s.set_top(VAddr(0x2000));
    }
}
