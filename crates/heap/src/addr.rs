//! Simulated virtual addresses and word arithmetic.
//!
//! The heap is word-addressed internally (HotSpot's `HeapWord` is 8 bytes on
//! 64-bit targets) but all public addresses are byte addresses, like the
//! `addr src, addr dst` operands of the Charon offload intrinsic (§4.1).

use std::fmt;
use std::ops::{Add, Sub};

/// Bytes per heap word (64-bit HotSpot).
pub const WORD_BYTES: u64 = 8;

/// A simulated virtual byte address.
///
/// `VAddr(0)` is the null reference; the heap base is always far above it.
///
/// ```
/// use charon_heap::addr::VAddr;
/// let a = VAddr(0x1000);
/// assert_eq!(a.add_words(2), VAddr(0x1010));
/// assert_eq!(a.add_words(2).words_since(a), 2);
/// assert!(a.is_word_aligned());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

impl VAddr {
    /// The null reference.
    pub const NULL: VAddr = VAddr(0);

    /// Whether this is the null reference.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// This address plus `n` bytes.
    pub fn add_bytes(self, n: u64) -> VAddr {
        VAddr(self.0 + n)
    }

    /// This address plus `n` words.
    pub fn add_words(self, n: u64) -> VAddr {
        VAddr(self.0 + n * WORD_BYTES)
    }

    /// Whole words from `base` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `self < base` or either is unaligned.
    pub fn words_since(self, base: VAddr) -> u64 {
        debug_assert!(self >= base, "address underflow: {self} < {base}");
        debug_assert!(self.is_word_aligned() && base.is_word_aligned());
        (self.0 - base.0) / WORD_BYTES
    }

    /// Bytes from `base` to `self`.
    pub fn bytes_since(self, base: VAddr) -> u64 {
        debug_assert!(self >= base, "address underflow: {self} < {base}");
        self.0 - base.0
    }

    /// Whether this address is 8-byte aligned.
    pub fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES)
    }

    /// Rounds down to a multiple of `align` (a power of two).
    pub fn align_down(self, align: u64) -> VAddr {
        debug_assert!(align.is_power_of_two());
        VAddr(self.0 & !(align - 1))
    }
}

impl Add<u64> for VAddr {
    type Output = VAddr;
    /// Adds a byte offset.
    fn add(self, rhs: u64) -> VAddr {
        self.add_bytes(rhs)
    }
}

impl Sub<VAddr> for VAddr {
    type Output = u64;
    /// Byte distance between two addresses.
    fn sub(self, rhs: VAddr) -> u64 {
        self.bytes_since(rhs)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A half-open byte range `[start, end)` of simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VRange {
    /// Inclusive start.
    pub start: VAddr,
    /// Exclusive end.
    pub end: VAddr,
}

impl VRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: VAddr, end: VAddr) -> VRange {
        assert!(end >= start, "inverted range {start}..{end}");
        VRange { start, end }
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.end.0 - self.start.0
    }

    /// Size in whole words.
    pub fn words(&self) -> u64 {
        self.bytes() / WORD_BYTES
    }

    /// Whether `a` lies inside the range.
    pub fn contains(&self, a: VAddr) -> bool {
        a >= self.start && a < self.end
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for VRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_null() {
        assert!(VAddr::NULL.is_null());
        assert!(!VAddr(8).is_null());
    }

    #[test]
    fn word_arithmetic() {
        let a = VAddr(0x100);
        assert_eq!(a.add_words(3), VAddr(0x118));
        assert_eq!(a.add_bytes(4), VAddr(0x104));
        assert_eq!(VAddr(0x118).words_since(a), 3);
        assert_eq!(VAddr(0x118) - a, 0x18);
    }

    #[test]
    fn alignment() {
        assert!(VAddr(0x10).is_word_aligned());
        assert!(!VAddr(0x11).is_word_aligned());
        assert_eq!(VAddr(0x13).align_down(16), VAddr(0x10));
    }

    #[test]
    fn ranges() {
        let r = VRange::new(VAddr(0x100), VAddr(0x140));
        assert_eq!(r.bytes(), 0x40);
        assert_eq!(r.words(), 8);
        assert!(r.contains(VAddr(0x100)));
        assert!(r.contains(VAddr(0x13f)));
        assert!(!r.contains(VAddr(0x140)));
        assert!(!r.is_empty());
        assert!(VRange::new(VAddr(1), VAddr(1)).is_empty());
    }

    #[test]
    #[should_panic]
    fn inverted_range_panics() {
        let _ = VRange::new(VAddr(2), VAddr(1));
    }
}
