//! The simulated machine and the per-backend primitive timing paths.
//!
//! [`System`] bundles the host timing model, the optional Charon device,
//! and the energy meter, and exposes the four primitives plus a generic
//! `host_op` for everything the paper never offloads (stack pops, root
//! enumeration, allocation bookkeeping, …). The collector performs all
//! *functional* heap mutations itself and calls these methods purely to
//! advance simulated time and traffic.

use crate::breakdown::RecoverySummary;
use crate::costs::CostModel;
use charon_core::device::{CharonDevice, OffloadCall, Placement, ScanRef, StructureMode};
use charon_core::packet::PrimType;
use charon_heap::addr::VAddr;
use charon_sim::cache::AccessKind;
use charon_sim::config::{MemPlatform, SystemConfig};
use charon_sim::energy::{EnergyModel, EnergyParams};
use charon_sim::faults::{CorruptionSite, FaultSite, Injector, RecoveryConfig};
use charon_sim::host::HostTiming;
use charon_sim::profile::{Channel, Profiler};
use charon_sim::telemetry::{Event, Telemetry};
use charon_sim::time::Ps;
use std::fmt;

/// Which of the paper's platforms executes the primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Primitives run as software on the host cores (the DDR4 and HMC
    /// baselines of Fig. 12, depending on the memory platform).
    Host,
    /// Primitives offload to the near-memory Charon device.
    Charon,
    /// Primitives offload to CPU-side Charon units (Fig. 16).
    CpuSideCharon,
    /// Primitives complete in zero cycles (the Ideal bar of Fig. 12).
    Ideal,
}

/// Which primitives an offloading backend actually ships to the device;
/// disabled ones fall back to the host software path. All enabled by
/// default — the ablation benches turn them off one at a time to measure
/// each primitive's contribution (the selection argument of §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadMask {
    /// Offload *Copy*.
    pub copy: bool,
    /// Offload *Search*.
    pub search: bool,
    /// Offload *Scan&Push*.
    pub scan_push: bool,
    /// Offload *Bitmap Count*.
    pub bitmap_count: bool,
}

impl Default for OffloadMask {
    fn default() -> OffloadMask {
        OffloadMask { copy: true, search: true, scan_push: true, bitmap_count: true }
    }
}

impl OffloadMask {
    /// Everything offloaded (the paper's configuration).
    pub fn all() -> OffloadMask {
        OffloadMask::default()
    }

    /// Nothing offloaded (degenerates to the HMC host).
    pub fn none() -> OffloadMask {
        OffloadMask { copy: false, search: false, scan_push: false, bitmap_count: false }
    }

    /// Only the named primitive offloaded, or `None` for an unknown name.
    /// Accepts the paper's spellings as aliases, case-insensitively:
    /// `"copy"`, `"search"`, `"scan_push"`/`"scan-push"`/`"scan&push"`,
    /// `"bitmap_count"`/`"bitmap-count"`/`"bitmapcount"`.
    pub fn only(name: &str) -> Option<OffloadMask> {
        let mut m = OffloadMask::none();
        match name.to_ascii_lowercase().as_str() {
            "copy" => m.copy = true,
            "search" => m.search = true,
            "scan_push" | "scan-push" | "scan&push" | "scanpush" => m.scan_push = true,
            "bitmap_count" | "bitmap-count" | "bitmap count" | "bitmapcount" => m.bitmap_count = true,
            _ => return None,
        }
        Some(m)
    }

    /// Number of primitives currently offloaded.
    pub fn count(&self) -> usize {
        PrimType::ALL.iter().filter(|&&p| self.get(p)).count()
    }

    /// Enables or disables offloading of one primitive (the degradation
    /// path flips bits off here when the watchdog kills a unit).
    pub fn set(&mut self, prim: PrimType, on: bool) {
        match prim {
            PrimType::Copy => self.copy = on,
            PrimType::Search => self.search = on,
            PrimType::ScanPush => self.scan_push = on,
            PrimType::BitmapCount => self.bitmap_count = on,
        }
    }

    /// Whether `prim` currently offloads.
    pub fn get(&self, prim: PrimType) -> bool {
        match prim {
            PrimType::Copy => self.copy,
            PrimType::Search => self.search,
            PrimType::ScanPush => self.scan_push,
            PrimType::BitmapCount => self.bitmap_count,
        }
    }
}

impl std::str::FromStr for OffloadMask {
    type Err = String;

    /// Parses a mask from `"all"`, `"none"`, a single primitive name (the
    /// same aliases [`OffloadMask::only`] accepts), or a `+`/`,`-joined
    /// combination of primitive names: `"copy+search"`,
    /// `"copy,scan-push,bitmap-count"`. Case-insensitive.
    fn from_str(s: &str) -> Result<OffloadMask, String> {
        match s.to_ascii_lowercase().as_str() {
            "all" => return Ok(OffloadMask::all()),
            "none" => return Ok(OffloadMask::none()),
            _ => {}
        }
        let mut mask = OffloadMask::none();
        for part in s.split(['+', ',']) {
            let part = part.trim();
            let one = OffloadMask::only(part).ok_or_else(|| {
                format!("unknown primitive {part:?} (expected copy, search, scan-push, bitmap-count, all, or none)")
            })?;
            for p in PrimType::ALL {
                if one.get(p) {
                    mask.set(p, true);
                }
            }
        }
        Ok(mask)
    }
}

impl fmt::Display for OffloadMask {
    /// Enabled primitives joined by `+` (`"none"` when all are off):
    /// `Copy+Search+Scan&Push+Bitmap Count`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let on: Vec<String> = PrimType::ALL.iter().filter(|&&p| self.get(p)).map(|p| p.to_string()).collect();
        if on.is_empty() {
            f.write_str("none")
        } else {
            f.write_str(&on.join("+"))
        }
    }
}

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct System {
    /// Architectural parameters (Table 2).
    pub cfg: SystemConfig,
    /// Host cores, caches, and the memory fabric.
    pub host: HostTiming,
    /// The accelerator, when the backend offloads.
    pub device: Option<CharonDevice>,
    /// Which backend executes primitives.
    pub backend: Backend,
    /// The energy meter.
    pub energy: EnergyModel,
    /// Host instruction-cost calibration.
    pub costs: CostModel,
    /// Per-primitive offload enablement (ablations; also cleared
    /// dynamically by the degradation path when a unit's watchdog fires).
    pub offload: OffloadMask,
    /// Cumulative offload-recovery accounting (all zero outside fault
    /// campaigns). The collector records per-collection deltas into each
    /// event's [`crate::breakdown::Breakdown`].
    pub recovery: RecoverySummary,
    /// Current adaptive tenuring threshold (None = use the heap's
    /// configured initial value; updated by the scavenger when the heap
    /// enables adaptive tenuring).
    pub tenuring: Option<u8>,
    /// The structured event journal ([`charon_sim::telemetry`]); disabled
    /// by default and never consulted by any timing computation.
    pub telemetry: Telemetry,
    /// The latency profiler ([`charon_sim::profile`]); disabled by
    /// default. Samples already-computed completion times, so timing is
    /// bit-identical either way.
    pub profiler: Profiler,
    /// Ordinal of the collection currently in flight (set by the
    /// collector); used only to tag telemetry phase events.
    pub collection_seq: u64,
    /// The silent-corruption injection + detection + repair layer
    /// ([`crate::integrity`]); `None` (one branch per hook) outside chaos
    /// campaigns.
    pub integrity: Option<Box<crate::integrity::IntegrityState>>,
}

impl System {
    /// Host + DDR4 (the Fig. 12 baseline).
    pub fn ddr4() -> System {
        System::build(SystemConfig::table2_ddr4(), Backend::Host, None)
    }

    /// Host + HMC, no offloading (Fig. 12's second bar).
    pub fn hmc() -> System {
        System::build(SystemConfig::table2_hmc(), Backend::Host, None)
    }

    /// Host + HMC + memory-side Charon with the paper's Table 4 build:
    /// one bitmap cache at the center, per-cube TLB slices.
    pub fn charon() -> System {
        System::charon_structured(StructureMode::Table4)
    }

    /// Memory-side Charon with an explicit structure mode (Fig. 15).
    pub fn charon_structured(structure: StructureMode) -> System {
        let cfg = SystemConfig::table2_hmc();
        let dev = CharonDevice::new(&cfg, Placement::MemorySide, structure);
        System::build(cfg, Backend::Charon, Some(dev))
    }

    /// CPU-side Charon paired with the HMC memory system (Fig. 16).
    pub fn cpu_side() -> System {
        let cfg = SystemConfig::table2_hmc();
        let dev = CharonDevice::new(&cfg, Placement::CpuSide, StructureMode::Table4);
        System::build(cfg, Backend::CpuSideCharon, Some(dev))
    }

    /// Host + HMC + an ideal zero-cycle offload device (Fig. 12's last bar).
    pub fn ideal() -> System {
        System::build(SystemConfig::table2_hmc(), Backend::Ideal, None)
    }

    fn build(cfg: SystemConfig, backend: Backend, device: Option<CharonDevice>) -> System {
        System {
            host: HostTiming::new(&cfg),
            device,
            backend,
            energy: EnergyModel::new(EnergyParams::default()),
            costs: CostModel::default(),
            offload: OffloadMask::default(),
            recovery: RecoverySummary::default(),
            tenuring: None,
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
            collection_seq: 0,
            integrity: None,
            cfg,
        }
    }

    /// Attaches a telemetry journal to this system and its device. The
    /// journal records primitive, flush, fault, and recovery events;
    /// timing is unaffected whether or not one is attached.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let Some(dev) = &mut self.device {
            dev.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// Attaches a latency profiler to this system and the memory fabric.
    /// Per-primitive offload latencies and per-packet NoC/DRAM service
    /// times are sampled into it; timing is unaffected.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.host.fabric.set_profiler(profiler.clone());
        self.profiler = profiler;
    }

    /// A short label for reports ("DDR4", "HMC", "Charon", …).
    pub fn label(&self) -> &'static str {
        match (self.backend, self.cfg.platform) {
            (Backend::Host, MemPlatform::Ddr4) => "DDR4",
            (Backend::Host, MemPlatform::Hmc) => "HMC",
            (Backend::Charon, _) => "Charon",
            (Backend::CpuSideCharon, _) => "Charon-CPU-side",
            (Backend::Ideal, _) => "Ideal",
        }
    }

    /// Time for `instrs` host instructions with no memory stalls.
    pub fn compute(&self, instrs: u64) -> Ps {
        self.host.compute(instrs)
    }

    /// A host-side operation on `core`: `instrs` instructions plus the
    /// given word-sized memory accesses, all overlappable. Returns the
    /// completion time.
    pub fn host_op(&mut self, core: usize, now: Ps, instrs: u64, accesses: &[(VAddr, AccessKind)]) -> Ps {
        let mut end = now + self.compute(instrs);
        for &(a, kind) in accesses {
            end = end.max(self.host.mem_access(core, now, a.0, 8, kind));
        }
        end
    }

    /// Like [`System::host_op`], but for one iteration of an *independent*
    /// loop (pointer-free walks, streaming clears): the core retires the
    /// instructions and moves on while the misses drain in its window.
    /// Returns `(cpu_done, memory_done)` — the caller advances its thread
    /// clock by the former and folds the latter into a phase-level drain
    /// time (see `GcThreads::advance_all_to`).
    pub fn host_stream_op(&mut self, core: usize, now: Ps, instrs: u64, accesses: &[(VAddr, AccessKind)]) -> (Ps, Ps) {
        let cpu = now + self.compute(instrs);
        let mut mem = cpu;
        for &(a, kind) in accesses {
            mem = mem.max(self.host.mem_access(core, now, a.0, 8, kind));
        }
        (cpu, mem)
    }

    /// GC prologue: under a memory-side offloading backend, bulk-flush the
    /// host caches so the units read up-to-date data (§4.6). Returns the
    /// time the flush traffic has drained.
    pub fn gc_prologue(&mut self, now: Ps) -> Ps {
        if self.backend != Backend::Charon {
            return now;
        }
        let (lines, _, end) = self.host.flush_all_caches(now);
        self.telemetry
            .record(|| Event::Flush { kind: "host-caches", start: now, end, lines });
        end
    }

    /// Flushes the device's bitmap cache at a MajorGC phase boundary
    /// (§4.5). No-op without a device.
    pub fn flush_bitmap_cache(&mut self, now: Ps) -> Ps {
        let Some(dev) = &mut self.device else { return now };
        let before = dev.bitmap_cache_stats().flushed;
        let end = dev.flush_bitmap_cache(&mut self.host, now);
        let lines = dev.bitmap_cache_stats().flushed - before;
        self.telemetry
            .record(|| Event::Flush { kind: "bitmap-cache", start: now, end, lines });
        end
    }

    /// A streaming clear of `range` — the major epilogue's bitmap and
    /// card-table memsets. Writes issue back-to-back per 64 B line and
    /// overlap in the core's miss window; returns when both the compute
    /// stream and the last write are done.
    pub fn host_stream_clear(&mut self, core: usize, now: Ps, range: charon_heap::addr::VRange) -> Ps {
        let mut cursor = now;
        let mut end = now;
        let lines = range.bytes() / 64;
        for i in 0..lines {
            let done = self
                .host
                .mem_access(core, cursor, range.start.add_bytes(i * 64).0, 64, AccessKind::Write);
            end = end.max(done);
            cursor += self.compute(2);
        }
        end.max(cursor)
    }

    /// Arms the device's deterministic fault-injection layer at
    /// `injector`'s site (see [`charon_sim::faults`]). Offloads then run
    /// through timeout/retry recovery, and a watchdog-killed unit degrades
    /// its primitive to the host software path for the rest of the run.
    ///
    /// # Panics
    ///
    /// Panics if the backend has no device to inject faults into.
    pub fn inject_faults(&mut self, injector: Injector<FaultSite>, recovery: RecoveryConfig) {
        self.device
            .as_mut()
            .expect("fault injection requires an offloading backend")
            .enable_faults(injector, recovery);
    }

    /// Arms the silent-corruption layer: seeded bit flips at `injector`'s
    /// offload-output site, the checksum/read-back detectors, and the
    /// repair ladder (see [`crate::integrity`]). Works on any backend —
    /// the site only injects while its primitive actually offloads. A
    /// zero rate with the layer armed stays bit-identical to an unarmed
    /// run.
    pub fn enable_integrity(&mut self, injector: Injector<CorruptionSite>, config: crate::integrity::IntegrityConfig) {
        self.integrity = Some(Box::new(crate::integrity::IntegrityState::new(injector, config)));
    }

    /// Whether `prim` currently ships to a device unit (offloading backend,
    /// mask bit set). The corruption model only distrusts unit-written
    /// outputs, so injection sites gate on this.
    pub fn prim_offloads(&self, prim: PrimType) -> bool {
        matches!(self.backend, Backend::Charon | Backend::CpuSideCharon) && self.offload.get(prim)
    }

    /// Whether a thread that just issued `prim` sat blocked on an offload
    /// response (`true`) or executed the primitive itself — the one place
    /// the host-active accounting behind the energy model is decided. It
    /// follows where the primitive ran: a cleared mask bit (ablation,
    /// autotune, a watchdog-dead unit) or a klass kind the hardware
    /// cannot iterate keeps the work, and the core's power, on the host.
    pub fn prim_blocked(&self, prim: PrimType, hardware_iterable: bool) -> bool {
        self.backend == Backend::Ideal || (hardware_iterable && self.prim_offloads(prim))
    }

    /// Host-software re-execution of a corrupted *Copy* — the repair
    /// ladder's rung 1. Charges exactly the host fallback path's time.
    pub fn repair_copy(&mut self, core: usize, now: Ps, src: VAddr, dst: VAddr, bytes: u64) -> Ps {
        self.host_copy(core, now, src, dst, bytes)
    }

    /// Arms probe-after-N-GCs re-enable of watchdog-dead units. No-op on
    /// backends without a device.
    pub fn set_rearm(&mut self, after_gcs: u32) {
        if let Some(dev) = &mut self.device {
            dev.set_rearm(Some(after_gcs));
        }
    }

    /// GC-prologue tick for the re-arm path: units dead long enough come
    /// back as probes — their offload-mask bits are restored, the
    /// degradation flag clears, and the integrity layer's strike counters
    /// for the unit's sites reset so a still-bad unit earns a fresh
    /// quarantine (one more strike re-kills it at the watchdog).
    pub fn gc_rearm_tick(&mut self, now: Ps) {
        let Some(dev) = &mut self.device else { return };
        let rearmed = dev.gc_tick();
        if rearmed.is_empty() {
            return;
        }
        let gcs = dev.rearm_after().unwrap_or(0);
        for prim in rearmed {
            self.offload.set(prim, true);
            let pi = prim.encode() as usize;
            self.recovery.rearmed[pi] += 1;
            self.recovery.degraded[pi] = false;
            if let Some(st) = &mut self.integrity {
                st.rearm_prim(prim);
            }
            self.telemetry.record(|| Event::Rearm { prim: prim.name(), at: now, gcs });
        }
    }

    /// Ships one offload through the device's fault-aware entry point.
    /// A grant completes the primitive on the device; an abandoned offload
    /// falls back to the host software path from the abandonment time, and
    /// a watchdog verdict additionally clears the primitive's offload-mask
    /// bit so later calls degrade without re-paying the timeouts.
    fn offload_or_degrade(&mut self, core: usize, dispatch: Ps, call: OffloadCall<'_>) -> Ps {
        let prim = call.prim();
        let pi = prim.encode() as usize;
        let outcome = self
            .device
            .as_mut()
            .expect("device present")
            .offload(&mut self.host, dispatch, call);
        match outcome {
            Ok(grant) => {
                self.recovery.retries[pi] += u64::from(grant.retries);
                if grant.retries > 0 {
                    self.telemetry.record(|| Event::Recovery {
                        prim: prim.name(),
                        outcome: "retried",
                        at: grant.done,
                        retries: grant.retries,
                    });
                }
                grant.done
            }
            Err(abandoned) => {
                self.recovery.retries[pi] += u64::from(abandoned.retries);
                self.recovery.fallbacks[pi] += 1;
                let mut outcome_name = "fallback";
                if abandoned.unit_dead && self.offload.get(prim) {
                    self.offload.set(prim, false);
                    self.recovery.degraded[pi] = true;
                    outcome_name = "degraded";
                }
                self.telemetry.record(|| Event::Recovery {
                    prim: prim.name(),
                    outcome: outcome_name,
                    at: abandoned.at,
                    retries: abandoned.retries,
                });
                self.host_prim(core, abandoned.at, call)
            }
        }
    }

    // ----- the four primitives ------------------------------------------

    /// One primitive, from `now` on `core`, run where the backend and mask
    /// say (free on Ideal, on a device unit, or the host software path);
    /// returns the completion time. `hardware_iterable` is false only for
    /// a Scan&Push over a metadata klass kind (§4.4), which stays on the
    /// host under every backend. Pure timing: collectors reach it through
    /// `Pause::prim`, which knows the GC thread, journals the span and
    /// samples the latency.
    #[inline]
    pub fn prim(&mut self, core: usize, now: Ps, call: OffloadCall<'_>, hardware_iterable: bool) -> Ps {
        if self.backend == Backend::Ideal {
            now
        } else if hardware_iterable && self.prim_offloads(call.prim()) {
            let dispatch = now + self.compute(self.costs.prim_dispatch);
            self.offload_or_degrade(core, dispatch, call)
        } else {
            self.host_prim(core, now, call)
        }
    }

    /// `call` on the host software path, from `now`.
    fn host_prim(&mut self, core: usize, now: Ps, call: OffloadCall<'_>) -> Ps {
        match call {
            OffloadCall::Copy { src, dst, bytes } => self.host_copy(core, now, src, dst, bytes),
            OffloadCall::Search { start, scanned_bytes } => self.host_search(core, now, start, scanned_bytes),
            OffloadCall::BitmapCount { spans } => self.host_bitmap_count(core, now, spans),
            OffloadCall::ScanPush { fields_start, field_bytes, refs } => {
                self.host_scan_push(core, now, fields_start, field_bytes, refs)
            }
        }
    }

    // Fixed-argument forms of [`System::prim`] for the per-primitive
    // timing loops in `perfbench/`, which compiles against them.

    /// *Copy* `bytes` from `src` to `dst` (timing only).
    pub fn prim_copy(&mut self, core: usize, now: Ps, src: VAddr, dst: VAddr, bytes: u64) -> Ps {
        debug_assert!(bytes > 0);
        self.prim(core, now, OffloadCall::Copy { src, dst, bytes }, true)
    }

    /// *Search* `scanned_bytes` of the card table from `start` (timing
    /// only; the functional scan decided how far the search ran).
    pub fn prim_search(&mut self, core: usize, now: Ps, start: VAddr, scanned_bytes: u64) -> Ps {
        self.prim(core, now, OffloadCall::Search { start, scanned_bytes }, true)
    }

    /// *Bitmap Count* over byte `spans` of the begin and end maps.
    pub fn prim_bitmap_count(&mut self, core: usize, now: Ps, spans: &[(VAddr, u64)]) -> Ps {
        self.prim(core, now, OffloadCall::BitmapCount { spans }, true)
    }

    // ----- host software implementations ---------------------------------

    fn host_copy(&mut self, core: usize, now: Ps, src: VAddr, dst: VAddr, bytes: u64) -> Ps {
        let mut cursor = now;
        let mut end = now;
        let lines = bytes.div_ceil(64);
        for i in 0..lines {
            let off = i * 64;
            let len = 64.min(bytes - off) as u32;
            let r = self.host.mem_access(core, cursor, src.add_bytes(off).0, len, AccessKind::Read);
            let w = self.host.mem_access(core, r, dst.add_bytes(off).0, len, AccessKind::Write);
            end = end.max(w);
            cursor += self.compute(self.costs.copy_per_line);
        }
        let end = end.max(cursor);
        self.profiler.record(Channel::HostPrimCopy, end.saturating_sub(now));
        end
    }

    fn host_search(&mut self, core: usize, now: Ps, start: VAddr, scanned_bytes: u64) -> Ps {
        let mut cursor = now;
        let mut end = now;
        let lines = scanned_bytes.div_ceil(64).max(1);
        for i in 0..lines {
            let a = start.add_bytes(i * 64);
            end = end.max(self.host.mem_access(core, cursor, a.0, 64, AccessKind::Read));
            cursor += self.compute(self.costs.search_per_block * 8);
        }
        let end = end.max(cursor);
        self.profiler.record(Channel::HostPrimSearch, end.saturating_sub(now));
        end
    }

    fn host_bitmap_count(&mut self, core: usize, now: Ps, spans: &[(VAddr, u64)]) -> Ps {
        let mut cursor = now;
        let mut end = now;
        for &(start, bytes) in spans {
            let lines = bytes.div_ceil(64).max(1);
            for i in 0..lines {
                let a = start.add_bytes(i * 64);
                let words = (bytes - i * 64).min(64).div_ceil(8).max(1);
                end = end.max(self.host.mem_access(core, cursor, a.0, 64, AccessKind::Read));
                cursor += self.compute(self.costs.bitmap_per_map_word * words);
            }
        }
        let end = end.max(cursor);
        self.profiler.record(Channel::HostPrimBitmapCount, end.saturating_sub(now));
        end
    }

    fn host_scan_push(&mut self, core: usize, now: Ps, fields_start: VAddr, field_bytes: u64, refs: &[ScanRef]) -> Ps {
        use charon_core::device::ScanAction;
        let mut cursor = now;
        let mut end = now;
        // Field loads: sequential lines, good locality.
        let lines = field_bytes.div_ceil(64).max(1);
        let mut line_done = Vec::with_capacity(lines as usize);
        for i in 0..lines {
            let a = fields_start.add_bytes(i * 64);
            line_done.push(self.host.mem_access(core, cursor, a.0, 64, AccessKind::Read));
        }
        // Referent header loads: indirect, dependent on the field value —
        // the pointer-chasing pattern §3.3 calls out. The core's bounded
        // miss window is what limits MLP here.
        for (i, r) in refs.iter().enumerate() {
            let avail = line_done[(i / 8).min(line_done.len() - 1)];
            let h = self.host.mem_access(core, avail.max(cursor), r.referent.0, 8, AccessKind::Read);
            let a_done = match r.action {
                ScanAction::Push { stack_slot } => self.host.mem_access(core, h, stack_slot.0, 8, AccessKind::Write),
                ScanAction::UpdateField { field_slot } => {
                    self.host.mem_access(core, h, field_slot.0, 8, AccessKind::Write)
                }
                ScanAction::UpdateFieldAndCard { field_slot, card_addr } => {
                    let w = self.host.mem_access(core, h, field_slot.0, 8, AccessKind::Write);
                    self.host.mem_access(core, w, card_addr.0, 8, AccessKind::Write)
                }
                ScanAction::UpdateCard { card_addr } => {
                    self.host.mem_access(core, h, card_addr.0, 8, AccessKind::Write)
                }
                ScanAction::MarkAndPush { beg_word, end_word, stack_slot } => {
                    let m1 = self.host.mem_access(core, h, beg_word.0, 8, AccessKind::Write);
                    let m2 = self.host.mem_access(core, m1, end_word.0, 8, AccessKind::Write);
                    self.host.mem_access(core, m2, stack_slot.0, 8, AccessKind::Write)
                }
                ScanAction::None => h,
            };
            end = end.max(a_done);
            cursor += self.compute(self.costs.scan_per_ref);
        }
        let end = end.max(cursor).max(*line_done.last().expect("at least one line"));
        self.profiler.record(Channel::HostPrimScanPush, end.saturating_sub(now));
        end
    }

    // ----- energy ---------------------------------------------------------

    /// Charges energy for one completed GC spanning `wall`, with
    /// `host_active_total` summed active core-time and `dram_bytes` moved.
    pub fn charge_gc_energy(&mut self, wall: Ps, gc_threads: usize, host_active_total: Ps, dram_bytes: u64) {
        self.energy.add_dram_bytes(self.cfg.dram_pj_per_bit(), dram_bytes);
        self.energy.add_core_active(1, host_active_total);
        let idle = Ps(((gc_threads as u64) * wall.0).saturating_sub(host_active_total.0));
        self.energy.add_core_idle(1, idle);
        self.energy.add_uncore(wall);
        if self.device.is_some() {
            self.energy.add_charon_active(wall);
        }
    }

    /// Total DRAM bytes moved so far (for per-GC deltas).
    pub fn dram_bytes(&self) -> u64 {
        self.host.fabric.stats().dram.total_bytes()
    }

    /// Per-unit-class pool counters (`None` on host-only platforms) — a
    /// read-only snapshot hook for observability layers (the postmortem
    /// capture, the run profile) so they never reach into the device.
    pub fn unit_stats(&self) -> Option<[charon_core::device::UnitClassStats; 3]> {
        self.device.as_ref().map(|d| d.stats().units)
    }

    /// Watchdog verdict per unit class, indexed by [`PrimType::encode`].
    /// All-false on host-only platforms and on devices without a fault
    /// layer; a `true` entry means the recovery ladder killed that unit
    /// class and it must never be offloaded to again.
    pub fn unit_health(&self) -> [bool; 4] {
        match &self.device {
            None => [false; 4],
            Some(d) => d.dead_units(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(System::ddr4().label(), "DDR4");
        assert_eq!(System::hmc().label(), "HMC");
        assert_eq!(System::charon().label(), "Charon");
        assert_eq!(System::ideal().label(), "Ideal");
        assert_eq!(System::cpu_side().label(), "Charon-CPU-side");
    }

    #[test]
    fn ideal_primitives_are_free() {
        let mut s = System::ideal();
        let t = Ps::from_us(1.0);
        assert_eq!(s.prim_copy(0, t, VAddr(0x1000), VAddr(0x2000), 4096), t);
        assert_eq!(s.prim_search(0, t, VAddr(0x1000), 4096), t);
        assert_eq!(s.prim_bitmap_count(0, t, &[(VAddr(0x1000), 64)]), t);
        assert_eq!(
            s.prim(0, t, OffloadCall::ScanPush { fields_start: VAddr(0x1000), field_bytes: 64, refs: &[] }, true),
            t
        );
    }

    #[test]
    fn charon_copy_beats_host_copy() {
        let bytes = 64 * 1024;
        let mut host = System::ddr4();
        let t_host = host.prim_copy(0, Ps::ZERO, VAddr(0), VAddr(0x10_0000), bytes);
        let mut dev = System::charon();
        let t_dev = dev.prim_copy(0, Ps::ZERO, VAddr(0), VAddr(0x10_0000), bytes);
        assert!(t_dev.0 * 3 < t_host.0, "Charon copy ({t_dev}) should be several times faster than host ({t_host})");
    }

    #[test]
    fn host_copy_bounded_by_ddr4_bandwidth() {
        let bytes = 1 << 20;
        let mut s = System::ddr4();
        let t = s.prim_copy(0, Ps::ZERO, VAddr(0), VAddr(0x40_0000), bytes);
        let gbps = (2 * bytes) as f64 / t.as_secs() / 1e9;
        assert!(gbps < 34.5, "host copy cannot exceed DDR4 peak: {gbps}");
        assert!(gbps > 2.0, "host copy unreasonably slow: {gbps}");
    }

    #[test]
    fn host_op_charges_compute_and_memory() {
        let mut s = System::ddr4();
        let t = s.host_op(0, Ps::ZERO, 100, &[(VAddr(0x8000), AccessKind::Read)]);
        assert!(t >= s.compute(100));
    }

    #[test]
    fn gc_prologue_flushes_only_under_charon() {
        let mut s = System::charon();
        s.host.mem_access(0, Ps::ZERO, 0x40, 8, AccessKind::Write);
        let t = s.gc_prologue(Ps::from_us(1.0));
        assert!(t > Ps::from_us(1.0), "dirty line must delay the prologue");
        let mut h = System::hmc();
        h.host.mem_access(0, Ps::ZERO, 0x40, 8, AccessKind::Write);
        assert_eq!(h.gc_prologue(Ps::from_us(1.0)), Ps::from_us(1.0));
    }

    #[test]
    fn offload_mask_set_get_display() {
        let mut m = OffloadMask::all();
        assert!(m.get(PrimType::Copy));
        assert_eq!(m.to_string(), "Copy+Search+Scan&Push+Bitmap Count");
        m.set(PrimType::ScanPush, false);
        assert!(!m.get(PrimType::ScanPush));
        assert!(!m.scan_push);
        assert_eq!(m.to_string(), "Copy+Search+Bitmap Count");
        assert_eq!(OffloadMask::none().to_string(), "none");
        for p in PrimType::ALL {
            let o = OffloadMask::only(&p.to_string().to_ascii_lowercase()).expect("paper spelling accepted");
            assert!(o.get(p), "only({p}) must enable {p}");
        }
    }

    #[test]
    fn offload_mask_from_str_round_trips() {
        assert_eq!("all".parse::<OffloadMask>().unwrap(), OffloadMask::all());
        assert_eq!("NONE".parse::<OffloadMask>().unwrap(), OffloadMask::none());
        let m = "copy+scan-push".parse::<OffloadMask>().unwrap();
        assert!(m.get(PrimType::Copy) && m.get(PrimType::ScanPush));
        assert!(!m.get(PrimType::Search) && !m.get(PrimType::BitmapCount));
        assert_eq!(m.count(), 2);
        // Comma-joined and mixed-case aliases parse to the same mask.
        assert_eq!("Copy, Scan&Push".parse::<OffloadMask>().unwrap(), m);
        // Every primitive's Display spelling parses back to itself.
        for p in PrimType::ALL {
            let one = p.to_string().to_ascii_lowercase().parse::<OffloadMask>().unwrap();
            assert_eq!(one, OffloadMask::only(&p.to_string()).unwrap());
        }
        assert!("copy+warp".parse::<OffloadMask>().is_err(), "unknown primitive rejected");
        assert!("".parse::<OffloadMask>().is_err(), "empty spec rejected");
    }

    #[test]
    fn fault_free_offload_path_is_unchanged() {
        // With no armed layer, `prim_copy` costs the dispatch plus exactly
        // the device's own offload time, and books no recovery.
        let bytes = 64 * 1024;
        let mut plain = System::charon();
        let dispatch = Ps::from_us(1.0) + plain.compute(plain.costs.prim_dispatch);
        let call = OffloadCall::Copy { src: VAddr(0), dst: VAddr(0x10_0000), bytes };
        let t_raw = plain
            .device
            .as_mut()
            .expect("device")
            .offload(&mut plain.host, dispatch, call)
            .expect("routed cube has units")
            .done;
        let mut wired = System::charon();
        let t_new = wired.prim_copy(0, Ps::from_us(1.0), VAddr(0), VAddr(0x10_0000), bytes);
        assert_eq!(t_new, t_raw);
        assert!(wired.recovery.is_empty());
    }

    #[test]
    fn misrouted_offload_degrades_to_host_fallback() {
        use charon_core::sched::Scheduler;
        // A placement bug: every Scan&Push unit stranded one cube off the
        // central cube the scheduler routes that primitive to. The run
        // must degrade to the host software path, not crash.
        let mut s = System::charon();
        let cubes = s.cfg.hmc.cubes;
        let mut per = vec![0usize; cubes];
        per[(Scheduler::CENTER + 1) % cubes] = 8;
        s.device.as_mut().expect("device").set_unit_layout(PrimType::ScanPush, &per);
        let pi = PrimType::ScanPush.encode() as usize;
        let t = s.prim(
            0,
            Ps::from_us(1.0),
            OffloadCall::ScanPush { fields_start: VAddr(0x1000), field_bytes: 64, refs: &[] },
            true,
        );
        assert!(t > Ps::from_us(1.0), "host fallback still charges time");
        assert_eq!(s.recovery.fallbacks[pi], 1, "the misroute fell back to the host");
        assert!(!s.recovery.degraded[pi], "a misroute is not a watchdog verdict");
        assert!(s.offload.get(PrimType::ScanPush), "the offload bit stays set");
        // Every further call degrades the same way instead of panicking.
        let t2 = s.prim(0, t, OffloadCall::ScanPush { fields_start: VAddr(0x2000), field_bytes: 64, refs: &[] }, true);
        assert!(t2 > t);
        assert_eq!(s.recovery.fallbacks[pi], 2);
    }

    #[test]
    fn watchdog_degrades_primitive_to_host_path() {
        let mut s = System::charon();
        let recovery = RecoveryConfig { retry_budget: 1, watchdog_threshold: 2, ..RecoveryConfig::default() };
        s.inject_faults(FaultSite::Unit.arm(7, 1.0), recovery);
        let mut t = Ps::ZERO;
        for _ in 0..3 {
            t = s.prim_copy(0, t, VAddr(0), VAddr(0x10_0000), 4096);
        }
        assert!(!s.offload.get(PrimType::Copy), "watchdog must clear the Copy offload bit");
        assert!(s.offload.get(PrimType::Search), "other primitives stay offloaded");
        let pi = PrimType::Copy.encode() as usize;
        assert!(s.recovery.degraded[pi]);
        assert_eq!(s.recovery.fallbacks[pi], 2, "both abandoned offloads fell back to the host");
        assert!(s.recovery.retries[pi] >= 2, "each abandonment burned the retry budget");
        // Degraded primitive now takes the host path without consulting
        // the (dead) device: the injector sees no further attempts.
        let attempts_before = s.device.as_ref().and_then(|d| d.fault_injector()).expect("armed").rolls();
        let done = s.prim_copy(0, Ps::from_ms(1.0), VAddr(0), VAddr(0x20_0000), 4096);
        assert!(done > Ps::from_ms(1.0));
        let attempts_after = s.device.as_ref().and_then(|d| d.fault_injector()).expect("armed").rolls();
        assert_eq!(attempts_after, attempts_before, "degraded primitive must bypass the device");
    }

    #[test]
    fn energy_charges_accumulate() {
        let mut s = System::charon();
        s.charge_gc_energy(Ps::from_ms(1.0), 8, Ps::from_ms(4.0), 1 << 20);
        let a = s.energy.account();
        assert!(a.dram_j > 0.0);
        assert!(a.core_active_j > 0.0);
        assert!(a.core_idle_j > 0.0);
        assert!(a.charon_j > 0.0);
        assert!(a.uncore_j > 0.0);
    }
}
