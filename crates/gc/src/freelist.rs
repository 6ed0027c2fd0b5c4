//! Size-segregated free queues for a non-moving old generation.
//!
//! The sweep of a non-moving collector ([`crate::marksweep`], the
//! [`crate::concmark`] cycle, [`crate::g1lite`] region reclaim) recycles
//! dead ranges into this store instead of compacting; promotion and
//! large-object allocation then carve from the queues *before* touching
//! the bump frontier — allocation from dead ranges, jdk-rtgc's
//! `FreeMemStore` shape.
//!
//! One queue per distinct chunk word-size, kept sorted ascending so a
//! binary search ([`queue_index`]) lands on the right size class. An
//! exact-size hit pops a chunk whole; otherwise the first queue large
//! enough to leave a headerable remainder is split, the remainder
//! re-queued and re-headered as a filler so the old generation stays
//! parsable. On exhaustion the store coalesces address-adjacent chunks
//! ([`FreeStore::coalesce`]) and retries once.
//!
//! Under the default PS collector nothing ever recycles, the store stays
//! empty, and every consult is a constant-time `None` — which is how the
//! committed PS fingerprints stay byte-identical with the store wired
//! into the promotion path.

use charon_heap::addr::VAddr;
use charon_heap::heap::JavaHeap;
use charon_heap::klass::KlassId;
use charon_heap::object;

/// Smallest chunk the store tracks: a bare two-word header, the minimum
/// a filler array needs to keep the space parsable.
pub const MIN_CHUNK_WORDS: u64 = object::HEADER_WORDS;

/// One size class: every chunk in `chunks` is exactly `size_words` long.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FreeQueue {
    /// The class's chunk size, in words.
    pub size_words: u64,
    /// Free chunk start addresses, LIFO.
    pub chunks: Vec<VAddr>,
}

/// Binary search over the ascending queue-size index: `Ok(i)` when a
/// queue of exactly `words` exists at position `i`, `Err(i)` with the
/// insertion point otherwise — the same contract as
/// [`slice::binary_search`], written out because this lookup is the
/// store's hot path and the proptests pin it against a linear oracle.
pub fn queue_index(sizes: &[u64], words: u64) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0usize, sizes.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if sizes[mid] < words {
            lo = mid + 1;
        } else if sizes[mid] > words {
            hi = mid;
        } else {
            return Ok(mid);
        }
    }
    Err(lo)
}

/// Point-in-time occupancy of the store, for the gclog summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Occupancy {
    /// Non-empty size-class queues.
    pub queues: usize,
    /// Free chunks across all queues.
    pub chunks: u64,
    /// Total free words.
    pub free_words: u64,
    /// Largest single hole, in words.
    pub largest_hole_words: u64,
}

/// The free-list old-generation allocator.
#[derive(Debug, Clone, Default)]
pub struct FreeStore {
    /// Size classes, ascending by `size_words`; no queue is ever empty.
    queues: Vec<FreeQueue>,
    /// `queues[i].size_words`, maintained in lockstep — the slice
    /// [`queue_index`] searches.
    sizes: Vec<u64>,
    free_words: u64,
    /// Filler klass for re-headering split remainders (a `TypeArray`).
    filler: Option<KlassId>,
    /// Record store allocations (concurrent-mark allocate-black support).
    log_births: bool,
    births: Vec<VAddr>,
}

impl FreeStore {
    /// An empty store.
    pub fn new() -> FreeStore {
        FreeStore::default()
    }

    /// Whether the store holds no free space.
    pub fn is_empty(&self) -> bool {
        self.free_words == 0
    }

    /// Total free words across all queues.
    pub fn free_words(&self) -> u64 {
        self.free_words
    }

    /// Total free bytes across all queues.
    pub fn free_bytes(&self) -> u64 {
        self.free_words * 8
    }

    /// The ascending size-class index.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// The size-class queues, ascending.
    pub fn queues(&self) -> &[FreeQueue] {
        &self.queues
    }

    /// Installs the filler klass [`FreeStore::allocate_old`] re-headers
    /// split remainders with.
    pub fn set_filler(&mut self, k: KlassId) {
        self.filler = Some(k);
    }

    /// The installed filler klass, if any.
    pub fn filler(&self) -> Option<KlassId> {
        self.filler
    }

    /// Toggles birth logging (on while a concurrent mark cycle is
    /// active, so the remark can treat in-cycle old allocations as live).
    pub fn set_log_births(&mut self, on: bool) {
        self.log_births = on;
        if !on {
            self.births.clear();
        }
    }

    /// Drains the birth log.
    pub fn take_births(&mut self) -> Vec<VAddr> {
        std::mem::take(&mut self.births)
    }

    /// Forgets every chunk (a sweep rebuilds the store from the fresh
    /// dead-range truth). Filler and birth log survive.
    pub fn clear(&mut self) {
        self.queues.clear();
        self.sizes.clear();
        self.free_words = 0;
    }

    /// Adds a dead range to its size class (created on demand at the
    /// binary-search insertion point).
    ///
    /// # Panics
    ///
    /// Panics in debug builds on a chunk below [`MIN_CHUNK_WORDS`].
    pub fn recycle(&mut self, addr: VAddr, words: u64) {
        debug_assert!(words >= MIN_CHUNK_WORDS, "chunk of {words} words cannot hold a filler header");
        match queue_index(&self.sizes, words) {
            Ok(i) => self.queues[i].chunks.push(addr),
            Err(i) => {
                self.sizes.insert(i, words);
                self.queues.insert(i, FreeQueue { size_words: words, chunks: vec![addr] });
            }
        }
        self.free_words += words;
    }

    /// Pops one chunk from queue `i`, dropping the queue when emptied.
    fn pop_at(&mut self, i: usize) -> VAddr {
        let addr = self.queues[i].chunks.pop().expect("queues are never empty");
        if self.queues[i].chunks.is_empty() {
            self.queues.remove(i);
            self.sizes.remove(i);
        }
        addr
    }

    /// Carves `words` from the store: an exact-size chunk whole, else the
    /// first larger class that leaves a ≥ [`MIN_CHUNK_WORDS`] remainder
    /// (returned as `(start, words)` so the caller can re-header it; it
    /// is already re-queued). Free words always shrink by exactly
    /// `words`. `None` when nothing fits — callers coalesce and retry,
    /// then fall back to the bump frontier.
    pub fn allocate(&mut self, words: u64) -> Option<(VAddr, Option<(VAddr, u64)>)> {
        if words < MIN_CHUNK_WORDS || self.free_words < words {
            return None;
        }
        let from = match queue_index(&self.sizes, words) {
            Ok(i) => {
                let addr = self.pop_at(i);
                self.free_words -= words;
                return Some((addr, None));
            }
            Err(i) => i,
        };
        for i in from..self.sizes.len() {
            if self.sizes[i] >= words + MIN_CHUNK_WORDS {
                let chunk_words = self.sizes[i];
                let addr = self.pop_at(i);
                let rem = (addr.add_words(words), chunk_words - words);
                self.free_words -= chunk_words;
                self.recycle(rem.0, rem.1);
                return Some((addr, Some(rem)));
            }
        }
        None
    }

    /// Every free chunk as `(address, words)`, in address order.
    pub fn chunks_by_address(&self) -> Vec<(VAddr, u64)> {
        let mut all: Vec<(VAddr, u64)> = Vec::new();
        for q in &self.queues {
            all.extend(q.chunks.iter().map(|&a| (a, q.size_words)));
        }
        all.sort_by_key(|&(a, _)| a);
        all
    }

    /// Merges address-adjacent chunks across all queues and rebuilds the
    /// size classes. Returns the number of merges performed (0 means the
    /// store is already maximally coalesced and a retry is pointless).
    pub fn coalesce(&mut self) -> u64 {
        let all = self.chunks_by_address();
        self.clear();
        let mut merges = 0u64;
        let mut cur: Option<(VAddr, u64)> = None;
        for (a, w) in all {
            match cur {
                Some((ca, cw)) if ca.add_words(cw) == a => {
                    cur = Some((ca, cw + w));
                    merges += 1;
                }
                Some((ca, cw)) => {
                    self.recycle(ca, cw);
                    cur = Some((a, w));
                }
                None => cur = Some((a, w)),
            }
        }
        if let Some((ca, cw)) = cur {
            self.recycle(ca, cw);
        }
        merges
    }

    /// Current occupancy, for the gclog `[freelist …]` summary.
    pub fn occupancy(&self) -> Occupancy {
        Occupancy {
            queues: self.queues.len(),
            chunks: self.queues.iter().map(|q| q.chunks.len() as u64).sum(),
            free_words: self.free_words,
            largest_hole_words: self.sizes.last().copied().unwrap_or(0),
        }
    }

    /// The heap-aware allocation entry point: carves `words` from a dead
    /// range, writes a placeholder filler header over it (the caller
    /// installs the real object header next), re-headers any split
    /// remainder as a filler, and updates the block-offset table for
    /// both — so the old generation stays walkable at every step.
    /// Coalesces and retries once on exhaustion. `None` when the store
    /// cannot satisfy the request or no filler klass is installed (the
    /// caller falls back to the bump frontier).
    pub fn allocate_old(&mut self, heap: &mut JavaHeap, words: u64) -> Option<VAddr> {
        let filler = self.filler?;
        let (addr, rem) = match self.allocate(words) {
            Some(x) => x,
            None => {
                if self.is_empty() || self.coalesce() == 0 {
                    return None;
                }
                self.allocate(words)?
            }
        };
        object::init_header(&mut heap.mem, addr, filler, (words - MIN_CHUNK_WORDS) as u32);
        heap.bot_update(addr, words);
        if let Some((ra, rw)) = rem {
            object::init_header(&mut heap.mem, ra, filler, (rw - MIN_CHUNK_WORDS) as u32);
            heap.bot_update(ra, rw);
        }
        if self.log_births {
            self.births.push(addr);
        }
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(words: u64) -> VAddr {
        VAddr(0x10000 + words * 8)
    }

    #[test]
    fn empty_store_consults_are_none() {
        let mut s = FreeStore::new();
        assert!(s.is_empty());
        assert_eq!(s.allocate(4), None);
        assert_eq!(s.occupancy(), Occupancy::default());
    }

    #[test]
    fn exact_fit_pops_whole_chunk() {
        let mut s = FreeStore::new();
        s.recycle(a(0), 8);
        s.recycle(a(100), 4);
        assert_eq!(s.allocate(4), Some((a(100), None)));
        assert_eq!(s.free_words(), 8);
        assert_eq!(s.sizes(), &[8]);
    }

    #[test]
    fn split_reports_and_requeues_the_remainder() {
        let mut s = FreeStore::new();
        s.recycle(a(0), 16);
        let (addr, rem) = s.allocate(6).unwrap();
        assert_eq!(addr, a(0));
        assert_eq!(rem, Some((a(6), 10)));
        assert_eq!(s.free_words(), 10, "free words shrink by exactly the request");
        assert_eq!(s.sizes(), &[10]);
    }

    #[test]
    fn slackless_chunks_are_skipped() {
        // A 7-word chunk cannot serve a 6-word request: the 1-word
        // remainder cannot hold a filler header.
        let mut s = FreeStore::new();
        s.recycle(a(0), 7);
        assert_eq!(s.allocate(6), None);
        s.recycle(a(100), 8);
        assert_eq!(s.allocate(6), Some((a(100), Some((a(106), 2)))));
    }

    #[test]
    fn coalesce_merges_adjacent_only() {
        let mut s = FreeStore::new();
        s.recycle(a(0), 4);
        s.recycle(a(4), 4); // adjacent to the first
        s.recycle(a(100), 4); // isolated
        assert_eq!(s.coalesce(), 1);
        assert_eq!(s.free_words(), 12);
        assert_eq!(s.sizes(), &[4, 8]);
        assert_eq!(s.coalesce(), 0, "second pass finds nothing");
    }

    #[test]
    fn allocation_retries_through_coalesce() {
        let mut s = FreeStore::new();
        s.recycle(a(0), 4);
        s.recycle(a(4), 4);
        // 8 words exist only after merging the two 4-word neighbors.
        assert_eq!(s.allocate(8), None);
        assert_eq!(s.coalesce(), 1);
        assert_eq!(s.allocate(8), Some((a(0), None)));
        assert!(s.is_empty());
    }

    #[test]
    fn occupancy_reports_largest_hole() {
        let mut s = FreeStore::new();
        s.recycle(a(0), 4);
        s.recycle(a(10), 32);
        s.recycle(a(50), 4);
        let o = s.occupancy();
        assert_eq!(o.queues, 2);
        assert_eq!(o.chunks, 3);
        assert_eq!(o.free_words, 40);
        assert_eq!(o.largest_hole_words, 32);
    }

    #[test]
    fn birth_log_records_only_while_enabled() {
        use charon_heap::heap::{HeapConfig, JavaHeap};
        use charon_heap::klass::KlassKind;
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
        let filler = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
        let mut s = FreeStore::new();
        s.set_filler(filler);
        let base = heap.alloc_old(64).unwrap();
        s.recycle(base, 64);
        assert!(s.allocate_old(&mut heap, 8).is_some());
        assert!(s.take_births().is_empty(), "logging off by default");
        s.set_log_births(true);
        let b = s.allocate_old(&mut heap, 8).unwrap();
        assert_eq!(s.take_births(), vec![b]);
    }

    #[test]
    fn allocate_old_keeps_the_heap_walkable() {
        use charon_heap::heap::{HeapConfig, JavaHeap};
        use charon_heap::klass::KlassKind;
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
        let filler = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
        let mut s = FreeStore::new();
        s.set_filler(filler);
        let base = heap.alloc_old(64).unwrap();
        object::init_header(&mut heap.mem, base, filler, 62);
        s.recycle(base, 64);
        let obj = s.allocate_old(&mut heap, 10).unwrap();
        assert_eq!(obj, base);
        // The carved object and the filler remainder parse back to back.
        let walked: Vec<_> = heap.walk_objects_sized(base, base.add_words(64)).collect();
        assert_eq!(walked, vec![(base, 10), (base.add_words(10), 54)]);
        assert_eq!(s.free_words(), 54);
    }
}
