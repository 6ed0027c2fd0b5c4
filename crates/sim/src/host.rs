//! Host-processor timing path and the shared memory fabric.
//!
//! [`MemFabric`] is the single owner of DRAM state (DDR4 or HMC + NoC): the
//! host cache hierarchy misses into it from [`Node::Host`], and Charon's
//! processing units access it from their cube's logic layer
//! ([`Node::Cube`]). [`HostTiming`] layers the paper's Table 2 host on top:
//! per-core L1D and L2, a shared L3, and a per-core bounded miss window
//! which is what limits the host's memory-level parallelism (§3.3).

use crate::bwres::{BatchCompletion, BwOccupancy};
use crate::cache::{AccessKind, Cache};
use crate::config::{MemPlatform, SystemConfig};
use crate::dram::{Ddr4Sim, DramOp, HmcSim};
use crate::issue::Window;
use crate::noc::{Noc, Node, PACKET_OVERHEAD_BYTES};
use crate::profile::{Channel, Profiler};
use crate::stats::MemTrafficStats;
use crate::time::Ps;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// DRAM state behind the last-level cache.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // exactly one fabric exists per system
pub enum DramSide {
    /// Conventional DDR4 channels.
    Ddr4(Ddr4Sim),
    /// HMC cubes reached over the serial-link star.
    Hmc {
        /// The cube/vault arrays.
        hmc: HmcSim,
        /// The link network.
        noc: Noc,
    },
}

/// The memory system shared by the host and (when present) Charon.
#[derive(Debug, Clone)]
pub struct MemFabric {
    side: DramSide,
    /// The counters only the fabric sees; see [`MemFabric::stats`].
    stats: MemTrafficStats,
    profiler: Profiler,
}

impl MemFabric {
    /// Builds the fabric selected by `cfg.platform`.
    pub fn new(cfg: &SystemConfig) -> MemFabric {
        let side = match cfg.platform {
            MemPlatform::Ddr4 => DramSide::Ddr4(Ddr4Sim::new(cfg.ddr4)),
            MemPlatform::Hmc => DramSide::Hmc { hmc: HmcSim::new(cfg.hmc), noc: Noc::new(&cfg.hmc) },
        };
        MemFabric { side, stats: MemTrafficStats::default(), profiler: Profiler::disabled() }
    }

    /// Installs the latency profiler. Sampling reads already-computed
    /// completion times, so simulated timing is identical either way.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Which platform this fabric models.
    pub fn platform(&self) -> MemPlatform {
        match self.side {
            DramSide::Ddr4(_) => MemPlatform::Ddr4,
            DramSide::Hmc { .. } => MemPlatform::Hmc,
        }
    }

    /// The cube owning `paddr`, or `None` on DDR4.
    pub fn cube_of(&self, paddr: u64) -> Option<usize> {
        match &self.side {
            DramSide::Ddr4(_) => None,
            DramSide::Hmc { hmc, .. } => Some(hmc.cube_of(paddr)),
        }
    }

    /// Performs one memory transaction from `from`, returning its completion
    /// time (data back at the requester).
    ///
    /// * On DDR4, only [`Node::Host`] may issue, at ≤ 64 B granularity.
    /// * On HMC, a request packet travels `from → owning cube` (16 B header
    ///   plus write payload), the vault is accessed, and a response packet
    ///   travels back (16 B, plus read payload). Accesses from a cube to
    ///   itself skip the links entirely — that is the internal-bandwidth
    ///   advantage Charon exploits.
    ///
    /// # Panics
    ///
    /// Panics if a non-host node issues on DDR4 or the size exceeds the
    /// platform's maximum packet granularity.
    pub fn access(&mut self, from: Node, paddr: u64, bytes: u32, op: DramOp, start: Ps) -> Ps {
        match &mut self.side {
            DramSide::Ddr4(ddr) => {
                assert_eq!(from, Node::Host, "only the host reaches DDR4");
                let done = ddr.access(paddr, bytes, op, start);
                self.profiler.record(Channel::DramPacket, done.saturating_sub(start));
                done
            }
            DramSide::Hmc { hmc, noc } => {
                assert!(bytes <= hmc.config().max_access_bytes, "HMC packet too large");
                let dest = Node::Cube(hmc.cube_of(paddr));
                book_locality(&mut self.stats, from, dest, 1);
                let req_bytes = PACKET_OVERHEAD_BYTES + if op == DramOp::Write { bytes } else { 0 };
                let at_cube = noc.send(from, dest, req_bytes, start, false);
                let served = hmc.vault_access(paddr, bytes, op, at_cube);
                let rsp_bytes = PACKET_OVERHEAD_BYTES + if op == DramOp::Read { bytes } else { 0 };
                let mut done = noc.send(dest, from, rsp_bytes, served, op == DramOp::Read);
                self.profiler.record(Channel::DramPacket, served.saturating_sub(at_cube));
                if from != dest {
                    self.profiler.record(Channel::NocPacket, at_cube.saturating_sub(start));
                    self.profiler.record(Channel::NocPacket, done.saturating_sub(served));
                }
                if from == Node::Host {
                    // Host-side HMC protocol processing (SerDes framing,
                    // controller re-ordering) — near-memory units skip it.
                    done += hmc.config().host_protocol_latency;
                }
                done
            }
        }
    }

    /// Batched [`MemFabric::access`]: streams `bytes` from `from` as one
    /// run of packets all issued at `start`, over HMC only. No requester
    /// streams over DDR4: the one caller is the Charon device, and
    /// `System::new` builds a device only over HMC.
    ///
    /// The run is split at cube-interleave boundaries; each segment sends
    /// one batched request burst to its owning cube, streams the vault
    /// accesses when the *head* request packet arrives, and streams the
    /// response burst when the head packet is served — a pipelined model
    /// of a streaming unit, deterministic but intentionally coarser than
    /// per-packet `access` calls.
    ///
    /// Returns the completion window at the requester. Host-issued runs
    /// pay `host_protocol_latency` once.
    ///
    /// # Panics
    ///
    /// Panics on DDR4, or if `bytes == 0`.
    pub fn access_many(&mut self, from: Node, paddr: u64, bytes: u64, op: DramOp, start: Ps) -> BatchCompletion {
        assert!(bytes > 0, "empty runs have no completion time");
        let DramSide::Hmc { hmc, noc } = &mut self.side else {
            unreachable!("no requester streams over DDR4");
        };
        let packet = u64::from(hmc.config().max_access_bytes);
        let page = 1u64 << hmc.config().cube_interleave_bits;
        let overhead = u64::from(PACKET_OVERHEAD_BYTES);
        let mut first: Option<Ps> = None;
        let mut last = start;
        let mut pa = paddr;
        let end = paddr + bytes;
        while pa < end {
            let seg_end = end.min((pa | (page - 1)) + 1);
            let seg_bytes = seg_end - pa;
            let packets = seg_bytes.div_ceil(packet);
            let dest = Node::Cube(hmc.cube_of(pa));
            book_locality(&mut self.stats, from, dest, packets);
            let wr_payload = if op == DramOp::Write { seg_bytes } else { 0 };
            let req_chunk = overhead + if op == DramOp::Write { packet } else { 0 };
            let req = noc.send_many(from, dest, packets * overhead + wr_payload, start, false, req_chunk);
            let served = hmc.vault_access_run(pa, seg_bytes, op, req.first);
            let rd_payload = if op == DramOp::Read { seg_bytes } else { 0 };
            let rsp_chunk = overhead + if op == DramOp::Read { packet } else { 0 };
            let rsp =
                noc.send_many(dest, from, packets * overhead + rd_payload, served.first, op == DramOp::Read, rsp_chunk);
            self.profiler.record(Channel::DramBatch, served.last.saturating_sub(req.first));
            if from != dest {
                self.profiler.record(Channel::NocBatch, req.last.saturating_sub(start));
                self.profiler.record(Channel::NocBatch, rsp.last.saturating_sub(served.first));
            }
            if first.is_none() {
                first = Some(rsp.first);
            }
            last = last.max(rsp.last).max(served.last);
            pa = seg_end;
        }
        let mut run = BatchCompletion { first: first.expect("bytes > 0 yields a segment"), last };
        if from == Node::Host {
            run.first += hmc.config().host_protocol_latency;
            run.last += hmc.config().host_protocol_latency;
        }
        run
    }

    /// Aggregate epoch-meter occupancy over every bandwidth resource the
    /// fabric owns (channel buses, vault buses, link lanes).
    pub fn occupancy(&self) -> BwOccupancy {
        match &self.side {
            DramSide::Ddr4(ddr) => ddr.occupancy(),
            DramSide::Hmc { hmc, noc } => hmc.occupancy() + noc.occupancy(),
        }
    }

    /// Per-link epoch fill snapshots for telemetry ([`Noc::link_epoch_fills`]);
    /// empty on DDR4, which has no serial links to meter.
    pub fn link_epoch_fills(&self) -> Vec<(String, Vec<(Ps, u64)>)> {
        match &self.side {
            DramSide::Ddr4(_) => Vec::new(),
            DramSide::Hmc { noc, .. } => noc.link_epoch_fills(),
        }
    }

    /// Sends a raw control packet over the links without touching DRAM
    /// (offload requests/responses, TLB lookups, cache probes).
    /// On DDR4 this is free — there are no links to model.
    pub fn control_packet(&mut self, from: Node, to: Node, bytes: u32, start: Ps) -> Ps {
        match &mut self.side {
            DramSide::Ddr4(_) => start,
            DramSide::Hmc { noc, .. } => {
                let done = noc.send(from, to, bytes, start, false);
                if from != to {
                    self.profiler.record(Channel::NocPacket, done.saturating_sub(start));
                }
                done
            }
        }
    }

    /// A control packet lost or corrupted on the links (fault
    /// injection): the first hop's bandwidth is consumed and the drop is
    /// counted, but nothing arrives. Free on DDR4 — there are no links
    /// to lose a packet on.
    pub fn control_packet_dropped(&mut self, from: Node, to: Node, bytes: u32, start: Ps) -> Ps {
        match &mut self.side {
            DramSide::Ddr4(_) => start,
            DramSide::Hmc { noc, .. } => noc.send_dropped(from, to, bytes, start, false),
        }
    }

    /// Traffic summary (Fig. 13 inputs). Only what the fabric alone sees is
    /// counted per packet (near-memory locality); everything the DRAM and
    /// link models already count is composed in at snapshot time. Every
    /// DDR4 byte crosses the channels, so there off-chip traffic is the
    /// DRAM's own.
    pub fn stats(&self) -> MemTrafficStats {
        let mut s = self.stats;
        s.bw = self.occupancy();
        match &self.side {
            DramSide::Ddr4(ddr) => {
                s.dram = ddr.traffic();
                s.offchip = s.dram;
            }
            DramSide::Hmc { hmc, noc } => {
                s.dram = hmc.traffic();
                s.offchip = noc.host_link_traffic();
                s.intercube = noc.intercube_traffic();
                s.link_drops = noc.dropped().0;
            }
        }
        s
    }

    /// Per-cube DRAM bytes (HMC only; empty slice on DDR4).
    pub fn per_cube_bytes(&self) -> &[u64] {
        match &self.side {
            DramSide::Ddr4(_) => &[],
            DramSide::Hmc { hmc, .. } => hmc.per_cube_bytes(),
        }
    }
}

/// Books `n` accesses from `from` to cube `dest` as near-memory local or
/// remote (Fig. 13's line series); the host's accesses are neither.
fn book_locality(stats: &mut MemTrafficStats, from: Node, dest: Node, n: u64) {
    match from {
        Node::Host => {}
        _ if from == dest => stats.local_accesses += n,
        Node::Cube(_) => stats.remote_accesses += n,
    }
}

/// Hashes one line address with a multiply and a fold of the 128-bit
/// product: the prefetcher's table is consulted three times per streamed
/// line and once on every L1 miss, and its keys come from the simulator's
/// own address arithmetic, so SipHash's flooding resistance buys nothing.
/// The table is only ever looked up, inserted into, counted and cleared —
/// never iterated — so no simulated quantity depends on the hash.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("line addresses hash through write_u64");
    }

    fn write_u64(&mut self, addr: u64) {
        // The fold brings the product's well-mixed high half down to the
        // low bits the table indexes with (a line address's own low six
        // bits are zero).
        let product = u128::from(addr) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product >> 64) as u64 ^ product as u64;
    }
}

#[derive(Debug, Clone)]
struct CoreSide {
    l1d: Cache,
    l2: Cache,
    misses: Window,
    /// Lines brought in by the stream prefetcher that have not been
    /// demanded yet, with their arrival times.
    prefetched: HashMap<u64, Ps, BuildHasherDefault<LineHasher>>,
    prefetches: u64,
}

/// One bit per line (its number masked into a fixed table) that *may* be
/// resident in some host cache, so [`HostTiming::clflush_line`] can answer
/// "nowhere" from one load instead of probing every cache.
///
/// Invariant while armed: a resident line's bit is set. Arming sets the
/// bits of exactly the lines the caches hold, fills set theirs, victim
/// write-downs only move lines whose bit is already set, and only the
/// whole-hierarchy flush clears bits — lines sharing a bit rule out
/// clearing on a single-line flush — so a shared bit costs a needless
/// probe and never skips a needed one. The table arms on the first probe:
/// a host no accelerator probes never allocates it, and until then every
/// line "may be resident".
#[derive(Debug, Clone)]
struct MaybeResident {
    line_shift: u32,
    bits: Option<Vec<u64>>,
}

impl MaybeResident {
    /// Lines tracked before two share a bit: 8 Mi bits = 1 MiB, a 512 MiB
    /// span of 64 B lines.
    const BITS: u64 = 1 << 23;

    fn new(line_bytes: usize) -> MaybeResident {
        MaybeResident { line_shift: line_bytes.trailing_zeros(), bits: None }
    }

    /// The table word and mask of a line number.
    fn slot(line: u64) -> (usize, u64) {
        let bit = line & (Self::BITS - 1);
        ((bit >> 6) as usize, 1 << (bit & 63))
    }

    /// Allocates the table zeroed and sets the bit of every `resident`
    /// line: the caches' contents at the moment of arming.
    fn arm(&mut self, resident: impl Iterator<Item = u64>) {
        self.bits = Some(vec![0; (Self::BITS / 64) as usize]);
        resident.for_each(|addr| self.mark(addr));
    }

    /// `addr`'s line is about to be filled into some cache.
    fn mark(&mut self, addr: u64) {
        if let Some(bits) = &mut self.bits {
            let (word, bit) = Self::slot(addr >> self.line_shift);
            bits[word] |= bit;
        }
    }

    /// Every cache was just emptied. Only words with a bit set are
    /// written, so untouched stretches of the table stay zero pages.
    fn clear(&mut self) {
        if let Some(bits) = &mut self.bits {
            bits.iter_mut().filter(|w| **w != 0).for_each(|w| *w = 0);
        }
    }

    /// Whether any cache may hold `addr`'s line.
    fn query(&self, addr: u64) -> bool {
        let (word, bit) = Self::slot(addr >> self.line_shift);
        self.bits.as_ref().is_none_or(|bits| bits[word] & bit != 0)
    }
}

/// The host processor: cores, caches, and the memory fabric.
#[derive(Debug, Clone)]
pub struct HostTiming {
    cfg: SystemConfig,
    cores: Vec<CoreSide>,
    l3: Cache,
    maybe_resident: MaybeResident,
    /// Per-level lookup latencies, converted from cycles once at build
    /// time — `mem_access` is the simulator's hottest function and the
    /// cycle→ps float conversion showed up in its profile.
    l1_lat: Ps,
    l2_lat: Ps,
    l3_lat: Ps,
    /// The DRAM side, public so an accelerator model can share it.
    pub fabric: MemFabric,
}

/// Effective non-memory IPC for GC code. Table 2's core is 4-wide; GC's
/// pointer-chasing control flow sustains roughly half of that on real
/// hardware, which also matches the paper's sub-0.5 IPC observation once
/// cache misses are added by the timing model.
const EXEC_IPC: f64 = 2.0;

impl HostTiming {
    /// Builds the host from a system configuration.
    pub fn new(cfg: &SystemConfig) -> HostTiming {
        let h = &cfg.host;
        let cores = (0..h.cores)
            .map(|_| CoreSide {
                l1d: Cache::new("L1D", h.l1d),
                l2: Cache::new("L2", h.l2),
                misses: Window::new(h.mshr_per_core, h.freq.period()),
                prefetched: HashMap::default(),
                prefetches: 0,
            })
            .collect();
        HostTiming {
            cores,
            l3: Cache::new("L3", h.l3),
            maybe_resident: MaybeResident::new(h.l1d.block_bytes),
            l1_lat: h.freq.cycles_to_ps(h.l1d.latency_cycles),
            l2_lat: h.freq.cycles_to_ps(h.l2.latency_cycles),
            l3_lat: h.freq.cycles_to_ps(h.l3.latency_cycles),
            fabric: MemFabric::new(cfg),
            cfg: *cfg,
        }
    }

    /// The configuration this host was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Time to execute `instrs` instructions that hit in the L1 (pure
    /// compute / control overhead).
    pub fn compute(&self, instrs: u64) -> Ps {
        let secs = instrs as f64 / (EXEC_IPC * self.cfg.host.freq.as_hz());
        Ps((secs * 1e12).round() as u64)
    }

    /// Performs one data access of ≤ 64 B on `core`, starting at `now`;
    /// returns completion time. Larger regions must be split by the caller
    /// into line-sized pieces (which is what real load/store streams do).
    ///
    /// The path is L1D → L2 → shared L3 → DRAM, charging each level's
    /// lookup latency, performing write-allocate fills, and propagating
    /// dirty victims downward. DRAM misses contend for the core's bounded
    /// miss window, which is the host's MLP ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `bytes` exceeds a cache line.
    pub fn mem_access(&mut self, core: usize, now: Ps, vaddr: u64, bytes: u32, kind: AccessKind) -> Ps {
        let line = self.cfg.host.l1d.block_bytes as u64;
        assert!(u64::from(bytes) <= line, "split accesses into cache lines");
        let (l1_lat, l2_lat, l3_lat) = (self.l1_lat, self.l2_lat, self.l3_lat);

        let addr = vaddr & !(line - 1);

        // L1D.
        let c = &mut self.cores[core];
        let r1 = c.l1d.access(addr, kind);
        if r1.hit {
            return now + l1_lat;
        }
        // An L1 hit was resident, so its bit is already set.
        self.maybe_resident.mark(addr);
        // A demanded line that the stream prefetcher fetched earlier: it
        // sits in L2; consuming it advances the stream by one more line
        // (next-line prefetch with distance 2, Westmere-style).
        let was_prefetched = c.prefetched.remove(&addr);
        // Dirty victims are written down off the critical path.
        if let Some(victim) = r1.writeback {
            self.write_back(core, 1, victim, now);
        }

        // L2.
        let r2 = self.cores[core].l2.access(addr, AccessKind::Read);
        if r2.hit {
            let base = now + l1_lat + l2_lat;
            let done = match was_prefetched {
                Some(arrival) => base.max(arrival),
                None => base,
            };
            if was_prefetched.is_some() {
                self.prefetch(core, addr + 2 * line, now);
            }
            return done;
        }
        if let Some(victim) = r2.writeback {
            self.write_back(core, 2, victim, now);
        }

        // Shared L3.
        let r3 = self.l3.access(addr, AccessKind::Read);
        if r3.hit {
            return now + l1_lat + l2_lat + l3_lat;
        }
        if let Some(victim) = r3.writeback {
            self.write_back(core, 3, victim, now);
        }

        // DRAM fill, bounded by the core's miss window.
        let lookup_done = now + l1_lat + l2_lat + l3_lat;
        let c = &mut self.cores[core];
        let issue = c.misses.issue(lookup_done);
        let done = self.fabric.access(Node::Host, addr, line as u32, DramOp::Read, issue);
        c.misses.complete(done);
        // Kick the stream prefetcher two lines ahead.
        self.prefetch(core, addr + 2 * line, now);
        done
    }

    /// Issues one next-line stream prefetch into L2. The prefetch occupies
    /// a miss-window slot and DRAM bandwidth like any other request; its
    /// arrival time gates the demand access that later consumes the line.
    fn prefetch(&mut self, core: usize, addr: u64, now: Ps) {
        if !self.cfg.host.prefetch {
            return;
        }
        let c = &mut self.cores[core];
        if c.l1d.probe(addr) || c.l2.probe(addr) || c.prefetched.contains_key(&addr) {
            return;
        }
        let line = self.cfg.host.l1d.block_bytes as u64;
        let issue = c.misses.issue(now);
        let done = self.fabric.access(Node::Host, addr, line as u32, DramOp::Read, issue);
        self.maybe_resident.mark(addr);
        let c = &mut self.cores[core];
        c.misses.complete(done);
        c.prefetches += 1;
        if let Some(victim) = c.l2.access(addr, AccessKind::Read).writeback {
            self.write_back(core, 2, victim, done);
        }
        self.cores[core].prefetched.insert(addr, done);
        // Bound the stale-entry table.
        if self.cores[core].prefetched.len() > 4096 {
            self.cores[core].prefetched.clear();
        }
    }

    /// Writes a dirty `victim` that left cache `level` (1 = L1D, 2 = L2,
    /// 3 = L3) down the hierarchy at `now`: each level below write-allocates
    /// it, and a dirty line the L3 evicts goes to DRAM. The whole-hierarchy
    /// flush ([`HostTiming::flush_all_caches`]) is the one write-back that
    /// does not come through here.
    fn write_back(&mut self, core: usize, level: u8, mut victim: u64, now: Ps) {
        for below in level + 1..=3 {
            let cache = if below == 2 { &mut self.cores[core].l2 } else { &mut self.l3 };
            match cache.access(victim, AccessKind::Write).writeback {
                Some(next) => victim = next,
                None => return,
            }
        }
        let line = self.cfg.host.l1d.block_bytes as u32;
        self.fabric.access(Node::Host, victim, line, DramOp::Write, now);
    }

    /// Total stream prefetches issued (all cores).
    pub fn prefetches(&self) -> u64 {
        self.cores.iter().map(|c| c.prefetches).sum()
    }

    /// Flushes every cache (all cores' L1D/L2 and the shared L3), writing
    /// dirty lines back to memory. Returns `(lines, dirty_lines)` and the
    /// time the flush traffic finishes draining, starting at `now`.
    ///
    /// This models the bulk cache flush Charon performs at the beginning of
    /// a GC (§4.6): the write-back traffic streams at full off-chip
    /// bandwidth.
    pub fn flush_all_caches(&mut self, now: Ps) -> (u64, u64, Ps) {
        let mut lines = 0;
        let mut dirty = 0;
        for c in &mut self.cores {
            let (l, d) = c.l1d.flush_all();
            lines += l;
            dirty += d;
            let (l, d) = c.l2.flush_all();
            lines += l;
            dirty += d;
        }
        let (l, d) = self.l3.flush_all();
        lines += l;
        dirty += d;
        self.maybe_resident.clear();

        let line_bytes = self.cfg.host.l1d.block_bytes as u64;
        let bytes = dirty * line_bytes;
        let bw = match self.cfg.platform {
            MemPlatform::Ddr4 => self.cfg.ddr4.total_bw(),
            MemPlatform::Hmc => self.cfg.hmc.link_bw,
        };
        (lines, dirty, now + bw.transfer_time(bytes))
    }

    /// Invalidates one line in every host cache, as a Charon `clflush`
    /// probe does before the unit touches `vaddr` (§4.1). Returns `true`
    /// if any copy was dirty (needing a write-back before the unit reads).
    pub fn clflush_line(&mut self, vaddr: u64) -> bool {
        if self.maybe_resident.bits.is_none() {
            let caches = self.cores.iter().flat_map(|c| [&c.l1d, &c.l2]).chain([&self.l3]);
            self.maybe_resident.arm(caches.flat_map(Cache::resident_blocks));
        }
        self.maybe_resident.query(vaddr) && self.clflush_line_everywhere(vaddr)
    }

    /// Probes and invalidates `vaddr`'s line in all 2 × cores + 1 caches.
    fn clflush_line_everywhere(&mut self, vaddr: u64) -> bool {
        let line = self.cfg.host.l1d.block_bytes as u64;
        let addr = vaddr & !(line - 1);
        let mut dirty = false;
        for c in &mut self.cores {
            dirty |= c.l1d.flush_line(addr).unwrap_or(false);
            dirty |= c.l2.flush_line(addr).unwrap_or(false);
        }
        dirty |= self.l3.flush_line(addr).unwrap_or(false);
        dirty
    }

    /// Resets each core's miss window at a simulated-thread barrier.
    pub fn barrier(&mut self, now: Ps) {
        for c in &mut self.cores {
            c.misses.reset(now);
        }
    }

    /// Per-level cache statistics `(L1D, L2, L3)` summed over cores.
    pub fn cache_stats(&self) -> (crate::stats::CacheStats, crate::stats::CacheStats, crate::stats::CacheStats) {
        let mut l1 = crate::stats::CacheStats::default();
        let mut l2 = crate::stats::CacheStats::default();
        for c in &self.cores {
            l1 += c.l1d.stats();
            l2 += c.l2.stats();
        }
        (l1, l2, self.l3.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ddr4_host() -> HostTiming {
        HostTiming::new(&SystemConfig::table2_ddr4())
    }

    fn hmc_host() -> HostTiming {
        HostTiming::new(&SystemConfig::table2_hmc())
    }

    #[test]
    fn l1_hit_costs_l1_latency() {
        let mut h = ddr4_host();
        let cold = h.mem_access(0, Ps::ZERO, 0x1000, 8, AccessKind::Read);
        assert!(cold > Ps::ZERO);
        let hit = h.mem_access(0, cold, 0x1008, 8, AccessKind::Read) - cold;
        let l1 = h.config().host.freq.cycles_to_ps(h.config().host.l1d.latency_cycles);
        assert_eq!(hit, l1);
    }

    #[test]
    fn miss_goes_all_the_way_to_dram() {
        let mut h = ddr4_host();
        let done = h.mem_access(0, Ps::ZERO, 0x4000, 8, AccessKind::Read);
        // Must exceed the sum of the three lookup latencies.
        let f = h.config().host.freq;
        let lookups = f.cycles_to_ps(4) + f.cycles_to_ps(12) + f.cycles_to_ps(28);
        assert!(done > lookups + Ps::from_ns(20.0), "DRAM latency missing: {done}");
    }

    #[test]
    fn hmc_host_miss_pays_link_latency() {
        let mut d = ddr4_host();
        let mut m = hmc_host();
        // Start past the rank's t=0 refresh window.
        let t0 = Ps::from_ns(300.0);
        let t_ddr = d.mem_access(0, t0, 0x4000, 8, AccessKind::Read) - t0;
        let t_hmc = m.mem_access(0, t0, 0x4000, 8, AccessKind::Read) - t0;
        // Both are plausible DRAM latencies; HMC pays serdes hops and
        // protocol overhead against a faster array.
        assert!(t_hmc > Ps::from_ns(20.0) && t_hmc < Ps::from_ns(200.0), "{t_hmc}");
        assert!(t_ddr > Ps::from_ns(20.0) && t_ddr < Ps::from_ns(200.0), "{t_ddr}");
    }

    #[test]
    fn mshr_window_limits_host_mlp() {
        // Stream N independent line misses on one core; effective bandwidth
        // must be far below the DDR4 peak because of the 10-entry window.
        let mut h = ddr4_host();
        let mut now = Ps::ZERO;
        let n = 2000u64;
        for i in 0..n {
            let done = h.mem_access(0, now, 0x10_0000 + i * 64, 8, AccessKind::Read);
            // Model a dependent pointer-chase-free stream: issue next
            // immediately (now unchanged) — the window throttles.
            now = now.max(Ps::ZERO);
            let _ = done;
        }
        // Completion of the stream:
        let done = h.mem_access(0, now, 0xFF_0000, 8, AccessKind::Read);
        assert!(done > Ps::ZERO);
    }

    #[test]
    fn write_allocate_then_writeback_reaches_dram() {
        let mut h = ddr4_host();
        // Dirty many distinct lines to force L1→L2→L3 evictions and
        // eventually DRAM writes.
        let mut now = Ps::ZERO;
        for i in 0..200_000u64 {
            now = h.mem_access(0, now, i * 64, 8, AccessKind::Write);
        }
        let st = h.fabric.stats();
        assert!(st.offchip.write_bytes > 0, "no writebacks reached DRAM");
    }

    #[test]
    fn flush_all_reports_dirty_lines_and_time() {
        let mut h = hmc_host();
        let mut now = Ps::ZERO;
        for i in 0..64u64 {
            now = h.mem_access(0, now, i * 64, 8, AccessKind::Write);
        }
        let (lines, dirty, t) = h.flush_all_caches(now);
        assert!(lines >= 64);
        assert!(dirty >= 64, "all written lines are dirty somewhere");
        assert!(t > now);
        // Caches are now empty.
        let (l2, d2, _) = h.flush_all_caches(t);
        assert_eq!((l2, d2), (0, 0));
    }

    #[test]
    fn clflush_line_detects_dirtiness() {
        let mut h = ddr4_host();
        let t = h.mem_access(0, Ps::ZERO, 0x40, 8, AccessKind::Write);
        assert!(h.clflush_line(0x40));
        assert!(!h.clflush_line(0x40), "second flush finds nothing");
        let _ = t;
    }

    #[test]
    fn host_without_clflush_never_allocates_the_filter() {
        // DDR4/HMC/Ideal systems have no accelerator probing the caches:
        // whatever else the host does, the table stays unallocated.
        let mut h = ddr4_host();
        let mut now = Ps::ZERO;
        for i in 0..4096u64 {
            now = h.mem_access((i % 8) as usize, now, i * 64, 8, AccessKind::Write);
        }
        assert!(h.prefetches() > 0);
        h.flush_all_caches(now);
        h.mem_access(0, now, 0x40, 8, AccessKind::Read);
        assert!(h.maybe_resident.bits.is_none());
        h.clflush_line(0x40);
        assert!(h.maybe_resident.bits.is_some(), "the first probe arms it");
    }

    #[test]
    fn filter_armed_after_a_flush_answers_nowhere_for_a_never_filled_line() {
        // A warm hierarchy, emptied before any probe armed the filter:
        // arming reads the (now empty) caches, so the probe is answered
        // from the table and no cache is scanned or changed.
        let mut h = hmc_host();
        let mut now = Ps::ZERO;
        for i in 0..4096u64 {
            now = h.mem_access((i % 8) as usize, now, i * 64, 8, AccessKind::Write);
        }
        h.flush_all_caches(now);
        let never_filled = 1 << 30;
        let per_cache = |h: &HostTiming| {
            h.cores
                .iter()
                .flat_map(|c| [c.l1d.stats(), c.l2.stats()])
                .chain([h.l3.stats()])
                .collect::<Vec<_>>()
        };
        let stats = per_cache(&h);
        assert!(!h.clflush_line(never_filled));
        assert_eq!(per_cache(&h), stats);
        assert!(!h.maybe_resident.query(never_filled), "an empty hierarchy arms an empty table");
        // A line filled after arming passes the filter again.
        h.mem_access(0, now, never_filled, 8, AccessKind::Write);
        assert!(h.maybe_resident.query(never_filled));
        assert!(h.clflush_line(never_filled), "the write left it dirty");
    }

    #[test]
    fn stale_prefetch_table_clears_on_the_same_call_in_every_host() {
        // Misses eight lines apart: each prefetches the line two ahead,
        // which nobody demands, so every call leaves one stale entry.
        let mut hosts = [ddr4_host(), ddr4_host()];
        let stale = |i: u64| (i * 8 + 2) * 64;
        let mut now = Ps::ZERO;
        let mut miss = |hosts: &mut [HostTiming; 2], i: u64| {
            let done = hosts.each_mut().map(|h| h.mem_access(0, now, i * 8 * 64, 8, AccessKind::Read));
            assert_eq!(done[0], done[1]);
            assert_eq!(hosts[0].prefetches(), hosts[1].prefetches());
            assert_eq!(hosts[0].cache_stats(), hosts[1].cache_stats());
            now = done[0];
            hosts.each_ref().map(|h| h.cores[0].prefetched.len())
        };
        for i in 0..4096 {
            assert_eq!(miss(&mut hosts, i), [i as usize + 1; 2]);
        }
        assert_eq!(hosts[0].prefetches(), 4096);
        // The 4 097th distinct stale entry empties the table, itself included.
        assert_eq!(miss(&mut hosts, 4096), [0; 2]);
        assert_eq!(miss(&mut hosts, 4097), [1; 2]);
        assert_eq!(hosts[0].prefetches(), 4098);
        for h in &mut hosts {
            // A forgotten line is still in L2 but no longer advances the
            // stream; a remembered one does.
            let (_, l2, _) = h.cache_stats();
            h.mem_access(0, now, stale(4096), 8, AccessKind::Read);
            assert_eq!(h.prefetches(), 4098);
            h.mem_access(0, now, stale(4097), 8, AccessKind::Read);
            assert_eq!(h.prefetches(), 4099);
            assert_eq!(h.cache_stats().1.hits, l2.hits + 2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `clflush_line` through the filter is indistinguishable from
        /// probing every cache: same answers, same cache and fabric
        /// statistics, under any interleaving with accesses (prefetcher
        /// on) and whole-hierarchy flushes, including lines one and two
        /// table spans apart that share a bit — on a hierarchy that the
        /// `warm` accesses fill before the first probe arms the filter.
        #[test]
        fn clflush_filter_is_exact(
            warm in proptest::collection::vec((0usize..3, 0u64..3, 0u64..96, any::<bool>()), 0..300),
            ops in proptest::collection::vec((0u8..10, 0usize..3, 0u64..3, 0u64..96, any::<bool>()), 1..600),
        ) {
            let span = MaybeResident::BITS * 64;
            let mut filtered = hmc_host();
            let mut probing = hmc_host();
            let mut now = Ps::ZERO;
            // Four adjacent lines (prefetcher streams) in each of 24 groups
            // 8192 lines apart: every group maps to the same set of L1, L2
            // and L3, so victims write down through all levels.
            let addr = |alias: u64, line: u64| alias * span + ((line % 4) + 8192 * (line / 4)) * 64;
            let ops = warm.iter().map(|&(core, alias, line, write)| (0, core, alias, line, write)).chain(ops);
            for (op, core, alias, line, write) in ops {
                let addr = addr(alias, line);
                match op {
                    0..=4 => {
                        let kind = if write { AccessKind::Write } else { AccessKind::Read };
                        let done = filtered.mem_access(core, now, addr, 8, kind);
                        prop_assert_eq!(done, probing.mem_access(core, now, addr, 8, kind));
                        now = done;
                    }
                    5..=8 => prop_assert_eq!(filtered.clflush_line(addr), probing.clflush_line_everywhere(addr)),
                    _ => prop_assert_eq!(filtered.flush_all_caches(now), probing.flush_all_caches(now)),
                }
                prop_assert_eq!(filtered.cache_stats(), probing.cache_stats());
                prop_assert_eq!(filtered.fabric.stats(), probing.fabric.stats());
            }
            prop_assert!(probing.maybe_resident.bits.is_none());
        }
    }

    #[test]
    fn compute_rate_is_exec_ipc() {
        let h = ddr4_host();
        let t = h.compute(2670);
        // 2670 instructions at 2 IPC on 2.67 GHz = 500 ns.
        assert_eq!(t, Ps::from_ns(500.0));
    }

    #[test]
    fn fabric_control_packets_free_on_ddr4() {
        let mut h = ddr4_host();
        assert_eq!(h.fabric.control_packet(Node::Host, Node::Cube(0), 48, Ps(5)), Ps(5));
    }

    /// A packet from a node to itself is free on both platforms: it
    /// arrives at its start, moves no link meter, drops nothing and records
    /// no latency sample. CPU-side Charon's packets rest on this.
    #[test]
    fn fabric_packets_to_self_are_free() {
        for cfg in [SystemConfig::table2_hmc(), SystemConfig::table2_ddr4()] {
            let mut f = MemFabric::new(&cfg);
            let profiler = Profiler::enabled();
            f.set_profiler(profiler.clone());
            for n in [Node::Host, Node::Cube(0), Node::Cube(3)] {
                assert_eq!(f.control_packet(n, n, 48, Ps(5)), Ps(5));
                assert_eq!(f.control_packet_dropped(n, n, 48, Ps(5)), Ps(5));
            }
            assert_eq!(f.stats(), MemFabric::new(&cfg).stats(), "{:?}", cfg.platform);
            assert_eq!(profiler.snapshot().total_samples(), 0, "{:?}", cfg.platform);
        }
        // The same probes see a packet that does cross a link.
        let mut f = MemFabric::new(&SystemConfig::table2_hmc());
        let profiler = Profiler::enabled();
        f.set_profiler(profiler.clone());
        assert!(f.control_packet(Node::Host, Node::Cube(0), 48, Ps(5)) > Ps(5));
        assert_eq!(f.stats().offchip.total_bytes(), 48);
        assert_eq!(profiler.snapshot().total_samples(), 1);
    }

    #[test]
    fn fabric_hmc_run_splits_at_cube_boundaries() {
        let cfg = SystemConfig::table2_hmc();
        let page = 1u64 << cfg.hmc.cube_interleave_bits;
        let mut f = MemFabric::new(&cfg);
        // A unit on cube 0 streams a run straddling the cube 0/1 boundary.
        let bytes = 4096u64;
        let run = f.access_many(Node::Cube(0), page - 2048, bytes, DramOp::Read, Ps::ZERO);
        assert!(run.first <= run.last);
        let st = f.stats();
        assert_eq!(st.local_accesses, 8, "first half stays on cube 0");
        assert_eq!(st.remote_accesses, 8, "second half crosses to cube 1");
        assert_eq!(st.dram.total_bytes(), bytes);
        assert!(st.intercube.total_bytes() > 0, "remote half crossed a spoke");
        // Every reserved unit is accounted in the occupancy snapshot.
        assert!(st.bw.total_units > 0);
        assert_eq!(st.bw.spilled_units, 0);
    }

    #[test]
    fn fabric_stats_snapshot_carries_occupancy() {
        let cfg = SystemConfig::table2_ddr4();
        let mut f = MemFabric::new(&cfg);
        f.access(Node::Host, 0, 64, DramOp::Read, Ps::ZERO);
        assert_eq!(f.stats().bw.total_units, 64);
    }

    #[test]
    fn fabric_near_memory_access_is_link_free_when_local() {
        let cfg = SystemConfig::table2_hmc();
        let mut f = MemFabric::new(&cfg);
        let t_local = f.access(Node::Cube(0), 0, 256, DramOp::Read, Ps::ZERO);
        let mut f2 = MemFabric::new(&cfg);
        let t_remote = f2.access(Node::Cube(1), 0, 256, DramOp::Read, Ps::ZERO);
        assert!(t_local < t_remote, "local {t_local} vs remote {t_remote}");
        assert_eq!(f.stats().local_accesses, 1);
        assert_eq!(f2.stats().remote_accesses, 1);
    }
}
