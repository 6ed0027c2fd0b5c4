//! The dedicated bitmap cache (§4.5).
//!
//! An 8 KB, 8-way, 32 B-block write-back cache serving only mark-bitmap
//! accesses, used by the Bitmap Count unit (reads) and the Scan&Push unit's
//! `mark_obj` read-modify-writes during MajorGC marking. Without it, every
//! 8 B bitmap word would over-fetch a 16 B HMC minimum-granularity access.
//! The cache is flushed after each MajorGC phase for coherence.
//!
//! The default (Table 4) design is **unified**: one cache at the central
//! cube. The **distributed** alternative of §4.6 gives every cube a slice
//! holding only its local bitmap data ("owner cache"); Fig. 15 compares
//! scalability of the two. CPU-side units (Fig. 16) get one unified cache
//! beside them at the host.

use charon_sim::bwres::EpochBw;
use charon_sim::cache::{AccessKind, Cache};
use charon_sim::config::CacheConfig;
use charon_sim::dram::DramOp;
use charon_sim::host::MemFabric;
use charon_sim::noc::Node;
use charon_sim::stats::CacheStats;
use charon_sim::time::{Freq, Ps};

/// Metering epoch for the lookup ports of the bitmap cache and the TLB.
pub(crate) const PORT_EPOCH: Ps = Ps(1_000_000); // 1 us

/// Unified vs distributed placement of a shared accelerator structure
/// (the bitmap cache and the TLB, §4.6 and Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceMode {
    /// One instance on the central cube.
    Unified,
    /// One slice per cube, holding only locally-homed data.
    Distributed,
}

/// The bitmap cache structure(s).
#[derive(Debug, Clone)]
pub struct BitmapCache {
    mode: SliceMode,
    slices: Vec<Cache>,
    ports: Vec<EpochBw>,
    /// Where each slice sits. A unit on the same node reaches its slice
    /// without crossing a link.
    nodes: Vec<Node>,
}

impl BitmapCache {
    /// Builds the cache(s) from the Table 2 geometry: under
    /// [`SliceMode::Unified`] one cache at `center` (the central cube, or
    /// the host memory controller when the units are CPU-side, Fig. 16),
    /// under [`SliceMode::Distributed`] one slice on each of `cubes` cubes.
    pub fn new(mode: SliceMode, center: Node, cubes: usize, geometry: CacheConfig, unit_freq: Freq) -> BitmapCache {
        let nodes: Vec<Node> = match mode {
            SliceMode::Unified => vec![center],
            SliceMode::Distributed => (0..cubes).map(Node::Cube).collect(),
        };
        BitmapCache {
            mode,
            slices: nodes.iter().map(|_| Cache::new("bitmap$", geometry)).collect(),
            ports: nodes
                .iter()
                .map(|_| EpochBw::from_period(unit_freq.period(), PORT_EPOCH))
                .collect(),
            nodes,
        }
    }

    /// The placement mode.
    pub fn mode(&self) -> SliceMode {
        self.mode
    }

    /// Aggregate hit/miss statistics (the paper reports ≈ 90 % hits).
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.slices {
            s += c.stats();
        }
        s
    }

    /// The slice responsible for bitmap address `addr`.
    fn slice_of(&self, fabric: &MemFabric, addr: u64) -> usize {
        match self.mode {
            SliceMode::Unified => 0,
            SliceMode::Distributed => fabric.cube_of(addr).unwrap_or(0),
        }
    }

    /// A range-granular lookup by a unit at `from`: one request/response
    /// exchange with the owning slice covers the whole span (free when
    /// the unit sits beside the slice); inside the slice each 32 B block
    /// pays the port and, on a miss, a fill from DRAM (fills overlap — the
    /// unit issued the exact read set up front, §4.3), and a dirty victim
    /// writes back off the critical path. Scan&Push's `mark_obj` RMW is a
    /// one-word span. Returns when the span's data is at the unit.
    pub fn access_range(
        &mut self,
        fabric: &mut MemFabric,
        from: Node,
        start_addr: u64,
        bytes: u64,
        kind: AccessKind,
        now: Ps,
    ) -> Ps {
        debug_assert!(bytes > 0);
        let slice = self.slice_of(fabric, start_addr);
        let home = self.nodes[slice];
        let at = fabric.control_packet(from, home, 16, now);

        let block_bytes = self.slices[slice].config().block_bytes as u64;
        let mut a = start_addr & !(block_bytes - 1);
        let end_addr = start_addr + bytes;
        let mut done = at;
        while a < end_addr {
            let mut d = self.ports[slice].reserve(at, 1);
            let res = self.slices[slice].access(a, kind);
            if !res.hit {
                d = fabric.access(home, a, block_bytes as u32, DramOp::Read, d);
            }
            if let Some(victim) = res.writeback {
                fabric.access(home, victim, block_bytes as u32, DramOp::Write, d);
            }
            done = done.max(d);
            a += block_bytes;
        }
        fabric.control_packet(home, from, 32, done)
    }

    /// Flushes every slice (end of a MajorGC phase, §4.5), writing dirty
    /// blocks back. Returns when the write-back traffic has drained.
    pub fn flush(&mut self, fabric: &mut MemFabric, now: Ps) -> Ps {
        let mut done = now;
        for (i, (cache, &node)) in self.slices.iter_mut().zip(&self.nodes).enumerate() {
            let (_, dirty) = cache.flush_all();
            let block = cache.config().block_bytes as u32;
            let mut t = now;
            for _ in 0..dirty {
                // Sequential write-back stream; addresses are within the
                // bitmap region homed at this cube (approximated by the
                // cube-local base).
                t = fabric.access(node, (i as u64) << 21, block, DramOp::Write, t);
            }
            done = done.max(t);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charon_sim::config::SystemConfig;

    fn setup(mode: SliceMode) -> (MemFabric, BitmapCache) {
        let cfg = SystemConfig::table2_hmc();
        (MemFabric::new(&cfg), BitmapCache::new(mode, Node::Cube(0), 4, cfg.charon.bitmap_cache, Freq::ghz(1.0)))
    }

    /// One 8 B bitmap word accessed by a unit on cube `from`.
    fn word(bc: &mut BitmapCache, f: &mut MemFabric, from: usize, addr: u64, kind: AccessKind, now: Ps) -> Ps {
        bc.access_range(f, Node::Cube(from), addr, 8, kind, now)
    }

    #[test]
    fn hit_after_miss_is_fast() {
        let (mut f, mut bc) = setup(SliceMode::Unified);
        let miss = word(&mut bc, &mut f, 0, 0x1000, AccessKind::Read, Ps::ZERO);
        let hit = word(&mut bc, &mut f, 0, 0x1008, AccessKind::Read, miss) - miss;
        assert!(miss > Ps::from_ns(10.0), "miss must reach DRAM: {miss}");
        assert_eq!(hit, Ps::from_ns(1.0), "same 32 B block hits in one cycle");
    }

    #[test]
    fn unified_remote_access_pays_links() {
        let (mut f, mut bc) = setup(SliceMode::Unified);
        // Warm the block from the center cube.
        let warm = word(&mut bc, &mut f, 0, 0x2000, AccessKind::Read, Ps::ZERO);
        // A unit on cube 2 hits the same block but pays two link crossings.
        let remote = word(&mut bc, &mut f, 2, 0x2000, AccessKind::Read, warm) - warm;
        assert!(remote > Ps::from_ns(6.0), "remote unified hit too fast: {remote}");
    }

    #[test]
    fn distributed_local_access_avoids_links() {
        let (mut f, mut bc) = setup(SliceMode::Distributed);
        // Address homed on cube 2 (first interleave page of cube 2).
        let addr = 2u64 << 20;
        let warm = word(&mut bc, &mut f, 2, addr, AccessKind::Read, Ps::ZERO);
        let hit = word(&mut bc, &mut f, 2, addr, AccessKind::Read, warm) - warm;
        assert_eq!(hit, Ps::from_ns(1.0));
    }

    #[test]
    fn host_side_cache_is_reached_without_links() {
        let cfg = SystemConfig::table2_hmc();
        let mut f = MemFabric::new(&cfg);
        let mut bc = BitmapCache::new(SliceMode::Unified, Node::Host, 4, cfg.charon.bitmap_cache, Freq::ghz(1.0));
        let warm = bc.access_range(&mut f, Node::Host, 0x3000, 8, AccessKind::Read, Ps::ZERO);
        let links = f.stats().offchip;
        let hit = bc.access_range(&mut f, Node::Host, 0x3000, 8, AccessKind::Read, warm) - warm;
        assert_eq!(hit, Ps::from_ns(1.0));
        assert_eq!(f.stats().offchip, links, "a hit beside the host crosses no link");
    }

    #[test]
    fn stats_track_hits() {
        let (mut f, mut bc) = setup(SliceMode::Unified);
        let t = word(&mut bc, &mut f, 0, 0x0, AccessKind::Read, Ps::ZERO);
        word(&mut bc, &mut f, 0, 0x8, AccessKind::Read, t);
        word(&mut bc, &mut f, 0, 0x10, AccessKind::Read, t);
        let s = bc.stats();
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn flush_writes_back_dirty_blocks() {
        let (mut f, mut bc) = setup(SliceMode::Unified);
        let t = word(&mut bc, &mut f, 0, 0x40, AccessKind::Write, Ps::ZERO);
        let before = f.stats().dram.write_bytes;
        let done = bc.flush(&mut f, t);
        assert!(done > t);
        assert!(f.stats().dram.write_bytes > before, "dirty block must reach DRAM");
        // Cache now cold again.
        let re = word(&mut bc, &mut f, 0, 0x40, AccessKind::Read, done);
        assert!(re - done > Ps::from_ns(10.0));
    }
}
