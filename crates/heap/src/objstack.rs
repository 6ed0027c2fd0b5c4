//! The object (marking) stack used by both MinorGC and MajorGC (Fig. 3).
//!
//! Functionally a LIFO of object addresses; each entry is also assigned a
//! simulated slot address inside the stack's backing region so pushes and
//! pops generate real memory traffic for the timing model.

use crate::addr::{VAddr, VRange, WORD_BYTES};

/// A bounded object stack with simulated backing storage.
///
/// ```
/// use charon_heap::objstack::ObjStack;
/// use charon_heap::addr::{VAddr, VRange};
///
/// let mut s = ObjStack::new(VRange::new(VAddr(0x8000), VAddr(0x8100)));
/// let slot = s.push(VAddr(0x1234));
/// assert_eq!(slot, VAddr(0x8000));
/// assert_eq!(s.pop(), Some((VAddr(0x1234), VAddr(0x8000))));
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ObjStack {
    region: VRange,
    items: Vec<VAddr>,
}

impl ObjStack {
    /// Creates an empty stack backed by `region`.
    pub fn new(region: VRange) -> ObjStack {
        ObjStack { region, items: Vec::new() }
    }

    /// Whether the stack is drained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The simulated address of the slot at `depth`.
    pub fn slot_addr(&self, depth: usize) -> VAddr {
        self.region.start.add_words(depth as u64)
    }

    /// Pushes an object address; returns the slot address written.
    ///
    /// # Panics
    ///
    /// Panics if the backing region is exhausted (the simulated JVM would
    /// switch to a chained stack; our workloads are sized not to).
    pub fn push(&mut self, obj: VAddr) -> VAddr {
        let depth = self.items.len();
        assert!(((depth as u64) + 1) * WORD_BYTES <= self.region.bytes(), "object stack overflow at depth {depth}");
        self.items.push(obj);
        self.slot_addr(depth)
    }

    /// Pops the top entry; returns `(object, slot_address_read)`.
    pub fn pop(&mut self) -> Option<(VAddr, VAddr)> {
        let obj = self.items.pop()?;
        Some((obj, self.slot_addr(self.items.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> ObjStack {
        ObjStack::new(VRange::new(VAddr(0x8000), VAddr(0x8000 + 8 * 4)))
    }

    #[test]
    fn lifo_order() {
        let mut s = stack();
        s.push(VAddr(8));
        s.push(VAddr(2 * 8));
        s.push(VAddr(3 * 8));
        assert_eq!(s.pop().unwrap().0, VAddr(24));
        assert_eq!(s.pop().unwrap().0, VAddr(16));
        assert_eq!(s.pop().unwrap().0, VAddr(8));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn slot_addresses_ascend() {
        let mut s = stack();
        assert_eq!(s.push(VAddr(8)), VAddr(0x8000));
        assert_eq!(s.push(VAddr(16)), VAddr(0x8008));
        let (_, slot) = s.pop().unwrap();
        assert_eq!(slot, VAddr(0x8008));
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        let mut s = stack();
        for i in 0..5 {
            s.push(VAddr(8 * (i + 1)));
        }
    }
}
