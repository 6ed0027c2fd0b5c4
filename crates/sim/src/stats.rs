//! Traffic and event counters shared by all timing components.

use crate::bwres::BwOccupancy;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Byte-traffic counters for one memory resource (a DRAM platform, a link,
/// or a cache level's miss traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes read from the resource.
    pub read_bytes: u64,
    /// Bytes written to the resource.
    pub write_bytes: u64,
    /// Number of read transactions.
    pub reads: u64,
    /// Number of write transactions.
    pub writes: u64,
}

impl Traffic {
    /// A zeroed counter set.
    pub fn new() -> Traffic {
        Traffic::default()
    }

    /// Records `ops` transactions totalling `bytes`, as reads when `read`
    /// and as writes otherwise.
    pub fn record(&mut self, read: bool, bytes: u64, ops: u64) {
        if read {
            self.read_bytes += bytes;
            self.reads += ops;
        } else {
            self.write_bytes += bytes;
            self.writes += ops;
        }
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Total transactions in either direction.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Machine-readable form for reports ([`crate::json`]).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("read_bytes", Json::U64(self.read_bytes)),
            ("write_bytes", Json::U64(self.write_bytes)),
            ("reads", Json::U64(self.reads)),
            ("writes", Json::U64(self.writes)),
        ])
    }
}

impl Add for Traffic {
    type Output = Traffic;
    fn add(self, rhs: Traffic) -> Traffic {
        Traffic {
            read_bytes: self.read_bytes + rhs.read_bytes,
            write_bytes: self.write_bytes + rhs.write_bytes,
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
        }
    }
}

impl AddAssign for Traffic {
    fn add_assign(&mut self, rhs: Traffic) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rd {:.2} MB ({} ops), wr {:.2} MB ({} ops)",
            self.read_bytes as f64 / 1e6,
            self.reads,
            self.write_bytes as f64 / 1e6,
            self.writes
        )
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back (on eviction or flush).
    pub writebacks: u64,
    /// Lines invalidated by explicit flushes.
    pub flushed: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when the cache was never accessed.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Machine-readable form for reports ([`crate::json`]). A cache that
    /// was never accessed has no meaningful hit rate — `hit_rate` is
    /// `null` there, distinguishing it from a real 0% hit rate.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let rate = if self.accesses() == 0 { Json::Null } else { Json::F64(self.hit_rate()) };
        Json::obj([
            ("hits", Json::U64(self.hits)),
            ("misses", Json::U64(self.misses)),
            ("writebacks", Json::U64(self.writebacks)),
            ("flushed", Json::U64(self.flushed)),
            ("hit_rate", rate),
        ])
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.writebacks += rhs.writebacks;
        self.flushed += rhs.flushed;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.accesses() == 0 {
            write!(f, "0 accesses, {} writebacks", self.writebacks)
        } else {
            write!(
                f,
                "{} accesses, {:.1}% hit, {} writebacks",
                self.accesses(),
                self.hit_rate() * 100.0,
                self.writebacks
            )
        }
    }
}

/// System-wide traffic summary used for Fig. 13 (bandwidth analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTrafficStats {
    /// Traffic served by DRAM arrays (DDR4 banks or HMC vaults).
    pub dram: Traffic,
    /// Traffic that crossed the host↔memory boundary (DDR4 channels or the
    /// host↔cube-0 serial link).
    pub offchip: Traffic,
    /// Traffic that crossed inter-cube serial links (HMC only).
    pub intercube: Traffic,
    /// DRAM accesses by near-memory units that stayed within the local cube.
    pub local_accesses: u64,
    /// DRAM accesses by near-memory units that crossed to a remote cube.
    pub remote_accesses: u64,
    /// Aggregate epoch-meter occupancy over every bandwidth resource in
    /// the fabric (DRAM buses, NoC lanes): total units metered, units
    /// spilled past the bounded-skew window, and clamped late
    /// reservations. See [`crate::bwres::EpochBw`].
    pub bw: BwOccupancy,
    /// Link packets lost to injected faults (zero outside fault
    /// campaigns). See [`crate::faults`].
    pub link_drops: u64,
}

impl MemTrafficStats {
    /// Fraction of near-memory accesses served by the unit's local cube
    /// (the line series in the paper's Fig. 13).
    pub fn local_ratio(&self) -> f64 {
        let total = self.local_accesses + self.remote_accesses;
        if total == 0 {
            1.0
        } else {
            self.local_accesses as f64 / total as f64
        }
    }

    /// Machine-readable form for reports ([`crate::json`]).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("dram", self.dram.to_json()),
            ("offchip", self.offchip.to_json()),
            ("intercube", self.intercube.to_json()),
            ("local_accesses", Json::U64(self.local_accesses)),
            ("remote_accesses", Json::U64(self.remote_accesses)),
            ("local_ratio", Json::F64(self.local_ratio())),
            ("bw", self.bw.to_json()),
            ("link_drops", Json::U64(self.link_drops)),
        ])
    }
}

impl AddAssign for MemTrafficStats {
    fn add_assign(&mut self, rhs: MemTrafficStats) {
        self.dram += rhs.dram;
        self.offchip += rhs.offchip;
        self.intercube += rhs.intercube;
        self.local_accesses += rhs.local_accesses;
        self.remote_accesses += rhs.remote_accesses;
        self.bw += rhs.bw;
        self.link_drops += rhs.link_drops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_records_and_sums() {
        let mut t = Traffic::new();
        t.record(true, 128, 2);
        t.record(false, 256, 1);
        assert_eq!(t.read_bytes, 128);
        assert_eq!(t.reads, 2);
        assert_eq!(t.write_bytes, 256);
        assert_eq!(t.total_bytes(), 384);
        assert_eq!(t.total_ops(), 3);

        let mut u = Traffic::new();
        u.record(false, 1, 1);
        u += t;
        assert_eq!(u.write_bytes, 257);
    }

    #[test]
    fn cache_stats_hit_rate() {
        let s = CacheStats { hits: 90, misses: 10, writebacks: 0, flushed: 0 };
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn untouched_cache_reports_null_hit_rate() {
        use crate::json::Json;
        let idle = CacheStats { writebacks: 2, ..Default::default() };
        assert_eq!(idle.to_json().get("hit_rate"), Some(&Json::Null));
        assert!(!idle.to_string().contains('%'), "Display skips hit% with no accesses");
        let used = CacheStats { hits: 1, ..Default::default() };
        assert_eq!(used.to_json().get("hit_rate"), Some(&Json::F64(1.0)));
        assert!(used.to_string().contains("100.0% hit"));
    }

    #[test]
    fn local_ratio_defaults_to_one() {
        assert_eq!(MemTrafficStats::default().local_ratio(), 1.0);
        let m = MemTrafficStats { local_accesses: 3, remote_accesses: 1, ..Default::default() };
        assert!((m.local_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn displays_are_nonempty() {
        assert!(!Traffic::new().to_string().is_empty());
        assert!(!CacheStats::default().to_string().is_empty());
    }
}
