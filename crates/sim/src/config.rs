//! Architectural parameters (the paper's Table 2), encoded as data.
//!
//! Every number here is taken verbatim from Table 2 of the paper; fields the
//! paper does not specify (marked in doc comments) carry documented defaults.
//! The scaled-heap substitution (DESIGN.md §1) does not change any of these
//! micro-architectural parameters — only workload footprints shrink.

use crate::time::{Bandwidth, Freq, Ps};
use std::fmt;

/// Which main-memory platform backs the host (the paper's four evaluation
/// platforms reduce to a memory platform × an offload backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemPlatform {
    /// Conventional DDR4 memory system (Table 2, middle block).
    Ddr4,
    /// Hybrid-Memory-Cube memory system (Table 2, bottom block).
    Hmc,
}

impl fmt::Display for MemPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemPlatform::Ddr4 => write!(f, "DDR4"),
            MemPlatform::Hmc => write!(f, "HMC"),
        }
    }
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Cache block size in bytes.
    pub block_bytes: usize,
    /// Access (hit) latency in core cycles.
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways × block` lines or a non-power-of-two set count).
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / self.block_bytes;
        assert_eq!(lines * self.block_bytes, self.size_bytes, "cache size not a multiple of block size");
        let sets = lines / self.ways;
        assert_eq!(sets * self.ways, lines, "cache lines not a multiple of ways");
        assert!(sets.is_power_of_two(), "cache set count must be a power of two");
        sets
    }
}

/// Host out-of-order processor (Table 2, top block).
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// Number of cores ("8 × 2.67 GHz Westmere OoO core").
    pub cores: usize,
    /// Core clock.
    pub freq: Freq,
    /// Instruction-window entries (36).
    pub instr_window: usize,
    /// Reorder-buffer entries (128).
    pub rob: usize,
    /// Issue width (4).
    pub issue_width: usize,
    /// Maximum outstanding off-core misses per core.
    ///
    /// Table 2 gives a 36-entry instruction window; with dependent work
    /// between loads this bounds memory-level parallelism well below the
    /// window size. The paper reports host GC IPC below 0.5; a 10-entry MSHR
    /// per core reproduces that ceiling. (Not in Table 2 — documented
    /// default.)
    pub mshr_per_core: usize,
    /// L1 instruction cache (32 KB, 4-way, 3-cycle).
    pub l1i: CacheConfig,
    /// L1 data cache (32 KB, 8-way, 4-cycle).
    pub l1d: CacheConfig,
    /// Private L2 (256 KB, 8-way, 12-cycle).
    pub l2: CacheConfig,
    /// Shared L3 (8 MB, 16-way, 28-cycle).
    pub l3: CacheConfig,
}

/// DDR4 main-memory system (Table 2, middle block).
#[derive(Debug, Clone, PartialEq)]
pub struct Ddr4Config {
    /// Total capacity in bytes (32 GB in the paper; capacity is not modeled
    /// for timing, only for address-mapping width).
    pub capacity_bytes: u64,
    /// Independent channels (2).
    pub channels: usize,
    /// Ranks per channel (4).
    pub ranks_per_channel: usize,
    /// Banks per rank (8).
    pub banks_per_rank: usize,
    /// DRAM clock period tCK = 0.937 ns.
    pub t_ck: Ps,
    /// Row-active time tRAS = 35 ns.
    pub t_ras: Ps,
    /// Row-to-column delay tRCD = 13.5 ns.
    pub t_rcd: Ps,
    /// Column-access latency tCAS = 13.5 ns.
    pub t_cas: Ps,
    /// Write-recovery time tWR = 15 ns.
    pub t_wr: Ps,
    /// Precharge time tRP = 13.5 ns.
    pub t_rp: Ps,
    /// Peak bandwidth per channel (17 GB/s; 34 GB/s total).
    pub channel_bw: Bandwidth,
    /// Average refresh interval tREFI (JEDEC: 7.8 µs at normal
    /// temperature; not in Table 2 — documented default).
    pub t_refi: Ps,
    /// Refresh cycle time tRFC (JEDEC 4 Gb: 260 ns — documented default).
    pub t_rfc: Ps,
    /// Access energy, 35 pJ/bit.
    pub pj_per_bit: f64,
    /// Row-buffer (DRAM page) size in bytes. (Not in Table 2; 2 KB is the
    /// common DDR4 x8 page size — documented default.)
    pub row_bytes: u64,
}

/// HMC main-memory system (Table 2, bottom block).
#[derive(Debug, Clone, PartialEq)]
pub struct HmcConfig {
    /// Total capacity in bytes (32 GB).
    pub capacity_bytes: u64,
    /// Number of cubes (4, star topology around cube 0).
    pub cubes: usize,
    /// Vaults per cube (32).
    pub vaults_per_cube: usize,
    /// Banks per vault. (Not in Table 2; HMC 2.1 has 2 banks per vault per
    /// layer × 8 layers = 16 — documented default.)
    pub banks_per_vault: usize,
    /// DRAM clock period tCK = 1.6 ns.
    pub t_ck: Ps,
    /// tRAS = 22.4 ns.
    pub t_ras: Ps,
    /// tRCD = 11.2 ns.
    pub t_rcd: Ps,
    /// tCAS = 11.2 ns.
    pub t_cas: Ps,
    /// tWR = 14.4 ns.
    pub t_wr: Ps,
    /// tRP = 11.2 ns.
    pub t_rp: Ps,
    /// Internal (TSV) bandwidth per cube: 320 GB/s.
    pub internal_bw_per_cube: Bandwidth,
    /// Access energy, 21 pJ/bit.
    pub pj_per_bit: f64,
    /// Serial-link bandwidth per link: 80 GB/s.
    pub link_bw: Bandwidth,
    /// Serial-link latency: 3 ns.
    pub link_latency: Ps,
    /// Maximum access granularity supported by HMC packets (256 B).
    pub max_access_bytes: u32,
    /// Extra round-trip latency a *host-initiated* access pays for HMC
    /// protocol processing (SerDes framing, packetization, controller
    /// re-ordering). Not in Table 2; measured HMC end-to-end latencies in
    /// contemporary literature run 25–45 ns above DDR4's, which is why the
    /// paper's host gains only 1.21× from the HMC's bandwidth (Fig. 12).
    pub host_protocol_latency: Ps,
    /// Row-buffer size per bank in bytes. (Not in Table 2; HMC uses small
    /// 256 B DRAM pages — documented default.)
    pub row_bytes: u64,
    /// log2 of the interleaving granularity at which consecutive huge pages
    /// are spread across cubes. The paper pins 1 GB huge pages and
    /// interleaves them over cubes (`[row:cube[31:30]:…]`) — 1 GB pages on
    /// 4–12 GB heaps, i.e. tens of pages per heap. The scaled simulation
    /// applies the same policy at 2^20 = 1 MB so that 16–48 MB heaps
    /// spread over a comparable page count (see DESIGN.md §1).
    pub cube_interleave_bits: u32,
}

/// Charon accelerator configuration (Table 2, bottom block + §4).
#[derive(Debug, Clone, PartialEq)]
pub struct CharonConfig {
    /// Copy/Search units in total (8: 2 per cube).
    pub copy_search_units: usize,
    /// Bitmap-Count units in total (8: 2 per cube).
    pub bitmap_count_units: usize,
    /// Scan&Push units in total (8, all on the central cube).
    pub scan_push_units: usize,
    /// Bitmap cache: 8 KB, 8-way, 32 B blocks.
    pub bitmap_cache: CacheConfig,
    /// Accelerator TLB entries per cube (32).
    pub tlb_entries_per_cube: usize,
    /// MAI request-buffer entries per cube. (Not in Table 2; bounds
    /// outstanding memory requests per cube — documented default 64.)
    pub mai_entries: usize,
    /// Logic-layer clock for the processing units. (Not in Table 2; the
    /// paper's units "issue a request every cycle" — 1 GHz documented
    /// default, conservative for a 40 nm logic layer.)
    pub unit_freq: Freq,
}

/// The complete simulated system: host + memory platform (+ Charon config,
/// used only when an offloading backend is selected).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Host processor and cache hierarchy.
    pub host: HostConfig,
    /// Which memory platform the host uses.
    pub platform: MemPlatform,
    /// DDR4 parameters (used when `platform == Ddr4`).
    pub ddr4: Ddr4Config,
    /// HMC parameters (used when `platform == Hmc`; Charon always uses HMC).
    pub hmc: HmcConfig,
    /// Charon accelerator parameters.
    pub charon: CharonConfig,
}

impl HostConfig {
    /// The paper's host processor (Table 2, top block).
    pub fn table2() -> HostConfig {
        HostConfig {
            cores: 8,
            freq: Freq::ghz(2.67),
            instr_window: 36,
            rob: 128,
            issue_width: 4,
            mshr_per_core: 10,
            l1i: CacheConfig { size_bytes: 32 * 1024, ways: 4, block_bytes: 64, latency_cycles: 3 },
            l1d: CacheConfig { size_bytes: 32 * 1024, ways: 8, block_bytes: 64, latency_cycles: 4 },
            l2: CacheConfig { size_bytes: 256 * 1024, ways: 8, block_bytes: 64, latency_cycles: 12 },
            l3: CacheConfig { size_bytes: 8 * 1024 * 1024, ways: 16, block_bytes: 64, latency_cycles: 28 },
        }
    }
}

impl Ddr4Config {
    /// The paper's DDR4 memory system (Table 2, middle block).
    pub fn table2() -> Ddr4Config {
        Ddr4Config {
            capacity_bytes: 32 << 30,
            channels: 2,
            ranks_per_channel: 4,
            banks_per_rank: 8,
            t_ck: Ps::from_ns(0.937),
            t_ras: Ps::from_ns(35.0),
            t_rcd: Ps::from_ns(13.50),
            t_cas: Ps::from_ns(13.50),
            t_wr: Ps::from_ns(15.0),
            t_rp: Ps::from_ns(13.50),
            channel_bw: Bandwidth::gbps(17.0),
            t_refi: Ps::from_us(7.8),
            t_rfc: Ps::from_ns(260.0),
            pj_per_bit: 35.0,
            row_bytes: 2048,
        }
    }

    /// Aggregate peak bandwidth over all channels (34 GB/s in the paper).
    pub fn total_bw(&self) -> Bandwidth {
        Bandwidth::gbps(self.channel_bw.as_gbps() * self.channels as f64)
    }
}

impl HmcConfig {
    /// The paper's HMC memory system (Table 2, bottom block).
    pub fn table2() -> HmcConfig {
        HmcConfig {
            capacity_bytes: 32 << 30,
            cubes: 4,
            vaults_per_cube: 32,
            banks_per_vault: 16,
            t_ck: Ps::from_ns(1.6),
            t_ras: Ps::from_ns(22.4),
            t_rcd: Ps::from_ns(11.2),
            t_cas: Ps::from_ns(11.2),
            t_wr: Ps::from_ns(14.4),
            t_rp: Ps::from_ns(11.2),
            internal_bw_per_cube: Bandwidth::gbps(320.0),
            pj_per_bit: 21.0,
            link_bw: Bandwidth::gbps(80.0),
            link_latency: Ps::from_ns(3.0),
            max_access_bytes: 256,
            host_protocol_latency: Ps::from_ns(25.0),
            row_bytes: 256,
            cube_interleave_bits: 20,
        }
    }

    /// Which cube a physical address falls in, under the huge-page
    /// round-robin interleaving of §4.6.
    pub fn cube_of(&self, paddr: u64) -> usize {
        ((paddr >> self.cube_interleave_bits) % self.cubes as u64) as usize
    }

    /// Which vault within its cube serves a physical address. Consecutive
    /// `max_access_bytes` blocks map to consecutive vaults, matching the
    /// low-order vault interleaving of the paper's HMC mapping.
    pub fn vault_of(&self, paddr: u64) -> usize {
        ((paddr / self.max_access_bytes as u64) % self.vaults_per_cube as u64) as usize
    }
}

impl CharonConfig {
    /// The paper's Charon configuration (Table 2, bottom block).
    pub fn table2() -> CharonConfig {
        CharonConfig {
            copy_search_units: 8,
            bitmap_count_units: 8,
            scan_push_units: 8,
            bitmap_cache: CacheConfig { size_bytes: 8 * 1024, ways: 8, block_bytes: 32, latency_cycles: 1 },
            tlb_entries_per_cube: 32,
            mai_entries: 64,
            unit_freq: Freq::ghz(1.0),
        }
    }
}

impl SystemConfig {
    /// The paper's baseline: host + DDR4.
    pub fn table2_ddr4() -> SystemConfig {
        SystemConfig {
            host: HostConfig::table2(),
            platform: MemPlatform::Ddr4,
            ddr4: Ddr4Config::table2(),
            hmc: HmcConfig::table2(),
            charon: CharonConfig::table2(),
        }
    }

    /// Host + HMC (the paper's second platform; also the platform under
    /// Charon and Ideal backends).
    pub fn table2_hmc() -> SystemConfig {
        SystemConfig { platform: MemPlatform::Hmc, ..SystemConfig::table2_ddr4() }
    }

    /// The selected platform's DRAM access energy, pJ/bit (Table 2).
    pub fn dram_pj_per_bit(&self) -> f64 {
        match self.platform {
            MemPlatform::Ddr4 => self.ddr4.pj_per_bit,
            MemPlatform::Hmc => self.hmc.pj_per_bit,
        }
    }
}

impl fmt::Display for SystemConfig {
    /// Renders the configuration in the shape of the paper's Table 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Host Processor")?;
        writeln!(
            f,
            "  {} x {} OoO cores, {}-entry IW / {}-entry ROB / {}-way issue, {} MSHRs/core",
            self.host.cores,
            self.host.freq,
            self.host.instr_window,
            self.host.rob,
            self.host.issue_width,
            self.host.mshr_per_core
        )?;
        let c = |cc: &CacheConfig| format!("{} KB, {}-way, {}-cycle", cc.size_bytes / 1024, cc.ways, cc.latency_cycles);
        writeln!(f, "  L1I {} / L1D {}", c(&self.host.l1i), c(&self.host.l1d))?;
        writeln!(f, "  L2  {}", c(&self.host.l2))?;
        writeln!(f, "  L3  {} (shared)", c(&self.host.l3))?;
        writeln!(f, "DDR4 Main Memory System")?;
        writeln!(
            f,
            "  {} GB, {} channels, {} ranks/ch, {} banks/rank",
            self.ddr4.capacity_bytes >> 30,
            self.ddr4.channels,
            self.ddr4.ranks_per_channel,
            self.ddr4.banks_per_rank
        )?;
        writeln!(
            f,
            "  tCK={} tRAS={} tRCD={} tCAS={} tWR={} tRP={}",
            self.ddr4.t_ck, self.ddr4.t_ras, self.ddr4.t_rcd, self.ddr4.t_cas, self.ddr4.t_wr, self.ddr4.t_rp
        )?;
        writeln!(
            f,
            "  {} total ({} per channel) / {} pJ/bit",
            self.ddr4.total_bw(),
            self.ddr4.channel_bw,
            self.ddr4.pj_per_bit
        )?;
        writeln!(f, "HMC Main Memory System")?;
        writeln!(
            f,
            "  {} GB, {} cubes, {} vaults per cube",
            self.hmc.capacity_bytes >> 30,
            self.hmc.cubes,
            self.hmc.vaults_per_cube
        )?;
        writeln!(
            f,
            "  tCK={} tRAS={} tRCD={} tCAS={} tWR={} tRP={}",
            self.hmc.t_ck, self.hmc.t_ras, self.hmc.t_rcd, self.hmc.t_cas, self.hmc.t_wr, self.hmc.t_rp
        )?;
        writeln!(f, "  {} per cube / {} pJ/bit", self.hmc.internal_bw_per_cube, self.hmc.pj_per_bit)?;
        writeln!(f, "  {} per link, {} latency", self.hmc.link_bw, self.hmc.link_latency)?;
        writeln!(f, "Charon Configuration")?;
        writeln!(
            f,
            "  Copy/Search {} units, Bitmap Count {} units, Scan&Push {} units (central cube)",
            self.charon.copy_search_units, self.charon.bitmap_count_units, self.charon.scan_push_units
        )?;
        writeln!(
            f,
            "  Bitmap cache {} KB, {}-way, {} B blocks",
            self.charon.bitmap_cache.size_bytes / 1024,
            self.charon.bitmap_cache.ways,
            self.charon.bitmap_cache.block_bytes
        )?;
        write!(
            f,
            "  TLB {} entries per cube / MAI {} entries",
            self.charon.tlb_entries_per_cube, self.charon.mai_entries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_host_matches_paper() {
        let h = HostConfig::table2();
        assert_eq!(h.cores, 8);
        assert_eq!(h.instr_window, 36);
        assert_eq!(h.rob, 128);
        assert_eq!(h.issue_width, 4);
        assert_eq!(h.l1d.size_bytes, 32 * 1024);
        assert_eq!(h.l3.size_bytes, 8 * 1024 * 1024);
        assert_eq!(h.l3.latency_cycles, 28);
    }

    #[test]
    fn cache_geometry_sets() {
        let h = HostConfig::table2();
        assert_eq!(h.l1d.sets(), 64); // 32K / 64B / 8
        assert_eq!(h.l2.sets(), 512);
        assert_eq!(h.l3.sets(), 8192);
        let bc = CharonConfig::table2().bitmap_cache;
        assert_eq!(bc.sets(), 32); // 8K / 32B / 8
    }

    #[test]
    fn ddr4_total_bandwidth_is_34() {
        let d = Ddr4Config::table2();
        assert!((d.total_bw().as_gbps() - 34.0).abs() < 1e-9);
    }

    #[test]
    fn hmc_cube_interleaving_round_robins_pages() {
        let h = HmcConfig::table2();
        let page = 1u64 << h.cube_interleave_bits;
        assert_eq!(h.cube_of(0), 0);
        assert_eq!(h.cube_of(page), 1);
        assert_eq!(h.cube_of(2 * page), 2);
        assert_eq!(h.cube_of(3 * page), 3);
        assert_eq!(h.cube_of(4 * page), 0);
        // Within a page, the cube never changes.
        assert_eq!(h.cube_of(page + page - 1), 1);
    }

    #[test]
    fn hmc_vault_interleaving_uses_256b_blocks() {
        let h = HmcConfig::table2();
        assert_eq!(h.vault_of(0), 0);
        assert_eq!(h.vault_of(256), 1);
        assert_eq!(h.vault_of(255), 0);
        assert_eq!(h.vault_of(256 * 32), 0);
    }

    #[test]
    fn table2_display_mentions_key_numbers() {
        let s = SystemConfig::table2_ddr4().to_string();
        assert!(s.contains("36-entry IW"));
        assert!(s.contains("320.0 GB/s per cube"));
        assert!(s.contains("80.0 GB/s per link"));
        assert!(s.contains("8 KB, 8-way, 32 B blocks"));
    }

    #[test]
    #[should_panic]
    fn bad_cache_geometry_panics() {
        let bad = CacheConfig { size_bytes: 3000, ways: 7, block_bytes: 64, latency_cycles: 1 };
        let _ = bad.sets();
    }
}
