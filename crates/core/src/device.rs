//! [`CharonDevice`] — the assembled accelerator and its `offload()` path.
//!
//! The device models *timing only*: the collector in `charon-gc` performs
//! each primitive's functional work on the simulated heap first, then hands
//! the resulting access descriptors here. An offload proceeds exactly as
//! §4.1 describes:
//!
//! 1. the host builds a 48 B request packet, routed over the serial links
//!    to the scheduled cube (the host thread then blocks),
//! 2. the packet waits in the per-primitive command queue until a unit
//!    instance is free,
//! 3. the unit streams memory requests — one per logic-layer cycle, bounded
//!    by the cube's MAI request buffer, each translated by the accelerator
//!    TLB — into the local vaults or across cube links,
//! 4. `clflush` probes invalidate any host-cached copies of lines the unit
//!    touches (dirty hits are written back before the unit proceeds;
//!    Bitmap Count skips probing since the host never writes the bitmap),
//! 5. a 16/32 B response packet unblocks the host thread.
//!
//! The protocol is written once. [`CharonDevice::offload`] is the only way
//! in: it takes the primitive as [`OffloadCall`] data and runs it through
//! one envelope that does steps 1, 2 and 5, and the stats, for every
//! primitive. Only steps 3–4 are per primitive: clflush probes, stream
//! runs, bitmap-cache spans, and Scan&Push's granules, headers and actions.
//!
//! Where a unit or the bitmap cache sits is a [`Node`], fixed when the
//! device is built. Memory-side units sit at
//! `Node::Cube(c)`. [`Placement::CpuSide`] moves the same units, all in
//! cube 0's pool, and one unified bitmap cache to `Node::Host`, next to the
//! host memory controller (Fig. 16). A packet from a node to itself is
//! free, so their request, response and bitmap-cache packets cost nothing;
//! they translate through the host MMU instead of the accelerator TLB, and
//! every memory request pays the off-chip serial-link path instead of
//! cube-internal TSV bandwidth.

use crate::bitmap_cache::{BitmapCache, SliceMode};
use crate::mai::Mai;
use crate::packet::{PrimType, REQUEST_BYTES, RESPONSE_NACK_BYTES};
use crate::sched::Scheduler;
use crate::tlb::AccelTlb;
use crate::units::{NoUnits, UnitPool};
use charon_heap::addr::{VAddr, WORD_BYTES};
use charon_sim::bwres::{BatchCompletion, BwOccupancy};
use charon_sim::cache::AccessKind;
use charon_sim::config::SystemConfig;
use charon_sim::dram::DramOp;
use charon_sim::faults::{backoff, FaultSite, Injector, RecoveryConfig, OFFLOAD_TIMEOUT};
use charon_sim::host::{HostTiming, MemFabric};
use charon_sim::issue::Window;
use charon_sim::json::Json;
use charon_sim::noc::Node;
use charon_sim::telemetry::{Event, Telemetry};
use charon_sim::time::Ps;
use std::fmt;

/// Where the Charon units sit (Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// In the logic layer of each HMC cube (the paper's main design).
    MemorySide,
    /// Beside the host memory controller.
    CpuSide,
}

impl Placement {
    /// Where the units of cube `cube`'s pool sit: in that cube's logic
    /// layer, or beside the host memory controller.
    fn node_of(self, cube: usize) -> Node {
        match self {
            Placement::MemorySide => Node::Cube(cube),
            Placement::CpuSide => Node::Host,
        }
    }
}

pub use charon_sim::config::StructureMode;

/// One referent processed by a Scan&Push invocation, with the dependent
/// action the unit performs once the referent's header returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanRef {
    /// The referent object's address (its header is loaded). `NULL` refs
    /// are filtered out before this point.
    pub referent: VAddr,
    /// What happens after the header arrives.
    pub action: ScanAction,
}

/// The dependent action after a referent's header load (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanAction {
    /// MinorGC: unmarked referent → push onto the object stack.
    Push {
        /// Simulated address of the stack slot written.
        stack_slot: VAddr,
    },
    /// MinorGC: already-forwarded referent → update the referring field.
    UpdateField {
        /// The field slot rewritten with the forwarding pointer.
        field_slot: VAddr,
    },
    /// MinorGC: forwarded referent staying young, holder in Old → update
    /// the field *and* dirty the holder's card.
    UpdateFieldAndCard {
        /// The field slot rewritten.
        field_slot: VAddr,
        /// The card byte dirtied.
        card_addr: VAddr,
    },
    /// MinorGC: promoted holder keeps a young ref → dirty its card.
    UpdateCard {
        /// The card byte's address.
        card_addr: VAddr,
    },
    /// MajorGC: unmarked referent → `mark_obj` (begin + end bitmap RMWs
    /// through the bitmap cache) then push.
    MarkAndPush {
        /// The 8 B begin-map word the RMW touches.
        beg_word: VAddr,
        /// The 8 B end-map word the RMW touches.
        end_word: VAddr,
        /// The stack slot written.
        stack_slot: VAddr,
    },
    /// Nothing further (already marked in MajorGC).
    None,
}

/// One dependent write of a [`ScanAction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanWrite {
    /// An 8 B mark-bitmap word: `mark_obj`'s atomic RMW, which a unit
    /// serves from its bitmap cache (§4.5).
    MapWord(VAddr),
    /// A stack slot, field slot or card byte.
    Slot(VAddr),
}

impl ScanWrite {
    /// The written address.
    pub fn addr(self) -> VAddr {
        match self {
            ScanWrite::MapWord(a) | ScanWrite::Slot(a) => a,
        }
    }
}

impl ScanAction {
    /// The action's dependent writes in issue order, map words first and
    /// then slots; each one starts when the one before it completes, the
    /// first when the referent's header returns. The host path and a
    /// device unit both charge this chain.
    pub fn writes(self) -> impl Iterator<Item = ScanWrite> {
        use ScanWrite::{MapWord, Slot};
        let chain = match self {
            ScanAction::Push { stack_slot: slot }
            | ScanAction::UpdateField { field_slot: slot }
            | ScanAction::UpdateCard { card_addr: slot } => [Some(Slot(slot)), None, None],
            ScanAction::UpdateFieldAndCard { field_slot, card_addr } => {
                [Some(Slot(field_slot)), Some(Slot(card_addr)), None]
            }
            ScanAction::MarkAndPush { beg_word, end_word, stack_slot } => {
                [Some(MapWord(beg_word)), Some(MapWord(end_word)), Some(Slot(stack_slot))]
            }
            ScanAction::None => [None; 3],
        };
        chain.into_iter().flatten()
    }
}

/// Per-primitive offload counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrimStats {
    /// Offloads served.
    pub offloads: u64,
    /// Total unit-busy time.
    pub busy: Ps,
    /// Payload bytes the primitive moved or scanned.
    pub bytes: u64,
    /// Total request-transport time (host → unit arrival).
    pub transport: Ps,
    /// Total command-queue wait (arrival → unit start).
    pub queue: Ps,
}

/// Per-unit-class utilization counters, read out of the [`UnitPool`]s by
/// [`CharonDevice::stats`] so [`CharonStats`] readers (reports, the
/// profiler) see pool occupancy without reaching into the device internals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitClassStats {
    /// Total unit-busy time accumulated by the pool.
    pub busy: Ps,
    /// Executions the pool served.
    pub executions: u64,
    /// Injected stall/wedge events.
    pub wedges: u64,
    /// Queue-depth high-water mark ([`UnitPool::queue_high_water`]).
    pub queue_high_water: u64,
    /// Unit instances in the pool (all cubes).
    pub total_units: u64,
}

impl UnitClassStats {
    /// Mirrors one pool's counters.
    fn of(pool: &UnitPool) -> UnitClassStats {
        UnitClassStats {
            busy: pool.busy_time(),
            executions: pool.executions(),
            wedges: pool.wedges(),
            queue_high_water: pool.queue_high_water(),
            total_units: pool.total_units(),
        }
    }

    /// Pool utilization over `elapsed` wall time: busy unit-time divided
    /// by the pool's total unit-time capacity. Zero when nothing ran.
    pub fn utilization(&self, elapsed: Ps) -> f64 {
        let capacity = self.total_units * elapsed.0;
        if capacity == 0 {
            0.0
        } else {
            self.busy.0 as f64 / capacity as f64
        }
    }

    /// What the pool did since the earlier snapshot `before`: busy time,
    /// executions and wedges as deltas; the queue high-water mark (a
    /// monotone maximum over the run) and the pool size as of now.
    pub fn since(&self, before: &UnitClassStats) -> UnitClassStats {
        UnitClassStats {
            busy: self.busy - before.busy,
            executions: self.executions - before.executions,
            wedges: self.wedges - before.wedges,
            ..*self
        }
    }
}

/// JSON/report keys for the three unit classes, in the order of
/// [`CharonStats::units`] (Copy/Search pool, Bitmap Count pool, Scan&Push
/// pool).
pub const UNIT_CLASS_NAMES: [&str; 3] = ["copy_search", "bitmap_count", "scan_push"];

/// One pool's counters as a JSON object.
fn unit_class_json(u: &UnitClassStats) -> Json {
    Json::obj([
        ("busy_ps", Json::U64(u.busy.0)),
        ("executions", Json::U64(u.executions)),
        ("wedges", Json::U64(u.wedges)),
        ("queue_high_water", Json::U64(u.queue_high_water)),
        ("total_units", Json::U64(u.total_units)),
    ])
}

/// The three pools as one JSON object keyed by [`UNIT_CLASS_NAMES`], with
/// each pool's utilization over `elapsed`.
pub fn units_json(units: &[UnitClassStats; 3], elapsed: Ps) -> Json {
    Json::obj(UNIT_CLASS_NAMES.iter().zip(units).map(|(&name, u)| {
        let mut fields = unit_class_json(u);
        fields.push("utilization", Json::F64(u.utilization(elapsed)));
        (name, fields)
    }))
}

/// Component-level dynamic energy of the accelerator, picojoules.
///
/// §5.3: "energy consumption of general components (i.e., queues, metadata
/// arrays, TLB, and bitmap cache) is negligible compared to the total
/// energy consumption of Charon (maximum 3.18% for ALS)". The per-event
/// constants below are derived from the Table 4 component areas at 40 nm
/// (documented defaults; the paper publishes only the aggregate claim).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComponentEnergy {
    /// Processing-unit datapath energy (the dominant share).
    pub units_pj: f64,
    /// Command/request queue energy (per offload + per memory request).
    pub queues_pj: f64,
    /// Accelerator TLB lookups.
    pub tlb_pj: f64,
    /// Bitmap-cache accesses.
    pub bitmap_cache_pj: f64,
}

impl ComponentEnergy {
    /// Total accelerator dynamic energy, picojoules.
    pub fn total_pj(&self) -> f64 {
        self.units_pj + self.queues_pj + self.tlb_pj + self.bitmap_cache_pj
    }

    /// Fraction contributed by the general components (everything but the
    /// processing units) — the paper's ≤ 3.18% claim.
    pub fn general_fraction(&self) -> f64 {
        let t = self.total_pj();
        if t == 0.0 {
            0.0
        } else {
            (self.queues_pj + self.tlb_pj + self.bitmap_cache_pj) / t
        }
    }
}

/// Device-wide statistics.
#[derive(Debug, Clone, Default)]
pub struct CharonStats {
    /// Indexed by [`PrimType`] discriminant.
    pub prims: [PrimStats; 4],
    /// Per-unit-class pool counters, in [`UNIT_CLASS_NAMES`] order.
    pub units: [UnitClassStats; 3],
    /// Offloads bounced by the route check — sent to a cube with no
    /// units of the class — indexed by [`PrimType`] discriminant.
    pub misroutes: [u64; 4],
    /// Component-level dynamic energy.
    pub energy: ComponentEnergy,
}

impl CharonStats {
    /// Stats for one primitive.
    pub fn prim(&self, p: PrimType) -> PrimStats {
        self.prims[p.encode() as usize]
    }

    /// Total offloads.
    pub fn total_offloads(&self) -> u64 {
        self.prims.iter().map(|p| p.offloads).sum()
    }

    /// Total unit-busy time across primitives.
    pub fn total_busy(&self) -> Ps {
        self.prims.iter().map(|p| p.busy).sum()
    }

    /// Machine-readable view: per-primitive counters keyed by name, plus
    /// the component-energy split.
    pub fn to_json(&self) -> Json {
        let prims = Json::obj(
            PrimType::ALL
                .iter()
                .map(|&p| {
                    let s = self.prim(p);
                    (
                        p.name().to_string(),
                        Json::obj(vec![
                            ("offloads", Json::U64(s.offloads)),
                            ("busy_ps", Json::U64(s.busy.0)),
                            ("bytes", Json::U64(s.bytes)),
                            ("transport_ps", Json::U64(s.transport.0)),
                            ("queue_ps", Json::U64(s.queue.0)),
                            ("misroutes", Json::U64(self.misroutes[p.encode() as usize])),
                        ]),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let units = Json::obj(
            UNIT_CLASS_NAMES
                .iter()
                .zip(&self.units)
                .map(|(&name, u)| (name, unit_class_json(u))),
        );
        Json::obj(vec![
            ("prims", prims),
            ("units", units),
            (
                "energy_pj",
                Json::obj(vec![
                    ("units", Json::F64(self.energy.units_pj)),
                    ("queues", Json::F64(self.energy.queues_pj)),
                    ("tlb", Json::F64(self.energy.tlb_pj)),
                    ("bitmap_cache", Json::F64(self.energy.bitmap_cache_pj)),
                    ("total", Json::F64(self.energy.total_pj())),
                ]),
            ),
        ])
    }
}

impl fmt::Display for CharonStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in PrimType::ALL {
            let s = self.prim(p);
            writeln!(
                f,
                "{p}: {} offloads, busy {}, {:.2} MB, transport {}, queue {}",
                s.offloads,
                s.busy,
                s.bytes as f64 / 1e6,
                s.transport,
                s.queue
            )?;
        }
        Ok(())
    }
}

/// One offload described as data — the only form [`CharonDevice::offload`]
/// accepts. A retry loop needs to re-issue the same primitive, and the
/// shared envelope needs its routing operand, so the call is reified
/// instead of threaded through four separate methods.
#[derive(Debug, Clone, Copy)]
pub enum OffloadCall<'a> {
    /// *Copy* of `bytes` from `src` to `dst` (§4.2).
    Copy {
        /// Copy source.
        src: VAddr,
        /// Copy destination.
        dst: VAddr,
        /// Bytes moved.
        bytes: u64,
    },
    /// *Search* of the card table (§4.2); the caller computed the
    /// functional result, which fixes how much was scanned.
    Search {
        /// Scan start (card-table address).
        start: VAddr,
        /// Bytes scanned before the hit (or the full range).
        scanned_bytes: u64,
    },
    /// *Bitmap Count* over begin- and end-map spans (§4.3). The host never
    /// writes the bitmaps, so no clflush probing is needed.
    BitmapCount {
        /// `(start, bytes)` bitmap spans read.
        spans: &'a [(VAddr, u64)],
    },
    /// *Scan&Push* over one object's reference fields, with each non-null
    /// referent's dependent action (§4.4).
    ScanPush {
        /// First reference-field address.
        fields_start: VAddr,
        /// Bytes of reference fields.
        field_bytes: u64,
        /// Referents and their dependent actions.
        refs: &'a [ScanRef],
    },
}

impl OffloadCall<'_> {
    /// Which primitive this call invokes.
    pub fn prim(&self) -> PrimType {
        match self {
            OffloadCall::Copy { .. } => PrimType::Copy,
            OffloadCall::Search { .. } => PrimType::Search,
            OffloadCall::BitmapCount { .. } => PrimType::BitmapCount,
            OffloadCall::ScanPush { .. } => PrimType::ScanPush,
        }
    }

    /// The first address operand — what the scheduler routes on.
    pub fn lead_addr(&self) -> VAddr {
        match *self {
            OffloadCall::Copy { src, .. } => src,
            OffloadCall::Search { start, .. } => start,
            OffloadCall::BitmapCount { spans } => spans.first().map(|&(a, _)| a).unwrap_or(VAddr::NULL),
            OffloadCall::ScanPush { fields_start, .. } => fields_start,
        }
    }
}

/// A successful (possibly retried) offload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadGrant {
    /// When the host thread unblocks.
    pub done: Ps,
    /// Attempts that failed before the one that succeeded.
    pub retries: u32,
}

/// An offload the recovery layer gave up on: the caller must complete the
/// primitive on the host software path, resuming at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadAbandoned {
    /// When the final failure was observed (all timeouts and backoffs
    /// charged) — the host fallback starts here.
    pub at: Ps,
    /// Re-issues charged beyond the first attempt (`retry_budget`, or 0
    /// when the unit was already dead).
    pub retries: u32,
    /// The site that killed the final attempt.
    pub site: FaultSite,
    /// `true` when this abandonment made the watchdog declare the
    /// primitive's unit class dead. The device refuses the class from now
    /// on ([`CharonDevice::unit_dead`]), so callers that ask it first keep
    /// the primitive on the host without re-paying the timeouts.
    pub unit_dead: bool,
}

/// The assembled accelerator.
#[derive(Debug, Clone)]
pub struct CharonDevice {
    /// One logic-layer cycle (`CharonConfig::unit_freq`).
    unit_period: Ps,
    /// Granularity of the units' streamed requests: the largest HMC
    /// packet payload (`HmcConfig::max_access_bytes`, §4.2).
    stream_granule: u64,
    placement: Placement,
    sched: Scheduler,
    /// The unit pools, in [`UNIT_CLASS_NAMES`] order.
    pools: [UnitPool; 3],
    mai: Vec<Mai>,
    tlb: AccelTlb,
    bitmap_cache: BitmapCache,
    /// Per-primitive counters, misroutes and the accumulated unit energy;
    /// [`CharonDevice::stats`] adds what the structures themselves count.
    stats: CharonStats,
    /// The armed fault site, if any. Unarmed (or armed at rate zero), no
    /// attempt fails and every offload runs straight through the envelope.
    /// Retry and fallback counts are not kept here: each [`OffloadGrant`]
    /// and [`OffloadAbandoned`] carries them to the caller's ledger.
    injector: Option<Injector<FaultSite>>,
    recovery: RecoveryConfig,
    // Unit health, the one verdict on whether a primitive's unit class
    // may serve (all indexed by `PrimType::encode`).
    /// Consecutive abandoned offloads (the watchdog's input).
    consecutive: [u32; 4],
    /// Classes the watchdog (or a quarantine) has declared dead.
    dead: [bool; 4],
    /// Probe-after-N-GCs re-enable of dead classes; `None` keeps them
    /// dead for the rest of the run (the default).
    rearm_after: Option<u32>,
    /// GC prologues seen since each class died (the re-arm input).
    gcs_since_death: [u32; 4],
    /// Re-armed classes on probation: one more watchdog strike re-kills
    /// them instead of a full `watchdog_threshold` run.
    probing: [bool; 4],
    telemetry: Telemetry,
}

/// Minimum HMC access granularity (§4.5's over-fetch remark).
const MIN_ACCESS: u32 = 16;

// Per-event dynamic energies (pJ), scaled from the Table 4 areas at 40 nm.
// Datapath work dominates; SRAM-structure events are an order of magnitude
// cheaper — which is what makes §5.3's "general components are negligible"
// come out.
/// Unit datapath energy per byte processed.
const UNIT_PJ_PER_BYTE: f64 = 0.18;
/// Queue write+read energy per offload packet.
const QUEUE_PJ_PER_OFFLOAD: f64 = 3.0;
/// Request-queue energy per memory request.
const QUEUE_PJ_PER_REQUEST: f64 = 0.6;
/// TLB CAM lookup energy.
const TLB_PJ_PER_LOOKUP: f64 = 0.9;
/// Bitmap-cache SRAM access energy.
const BITMAP_PJ_PER_ACCESS: f64 = 1.1;

/// The unit class serving `prim` — its index in [`UNIT_CLASS_NAMES`]
/// (Search shares the Copy unit, §4.2).
fn unit_class(prim: PrimType) -> usize {
    match prim {
        PrimType::Copy | PrimType::Search => 0,
        PrimType::BitmapCount => 1,
        PrimType::ScanPush => 2,
    }
}

impl CharonDevice {
    /// Builds the device for the given system configuration and placement.
    /// The paper's build is memory-side with [`StructureMode::Table4`] — one
    /// bitmap cache at the center, a TLB slice per cube — and Scan&Push
    /// concentrated on the central cube; `cfg.charon.structure` places the
    /// memory-side structures. CPU-side, every unit is in cube 0's pool
    /// behind one MAI, with one bitmap cache beside them and one
    /// translation point (the host MMU), both at the host: that build is
    /// [`StructureMode::Unified`] whatever the config says.
    pub fn new(cfg: &SystemConfig, placement: Placement) -> CharonDevice {
        let cubes = cfg.hmc.cubes;
        let ch = &cfg.charon;
        let (pools, mai_count, structure) = match placement {
            Placement::MemorySide => (
                [
                    UnitPool::spread(ch.copy_search_units, cubes),
                    UnitPool::spread(ch.bitmap_count_units, cubes),
                    UnitPool::concentrated(ch.scan_push_units, cubes, Scheduler::CENTER),
                ],
                cubes,
                ch.structure,
            ),
            Placement::CpuSide => (
                [ch.copy_search_units, ch.bitmap_count_units, ch.scan_push_units]
                    .map(|units| UnitPool::concentrated(units, cubes, 0)),
                1,
                StructureMode::Unified,
            ),
        };
        let (tlb_mode, cache_mode) = match structure {
            StructureMode::Table4 => (SliceMode::Distributed, SliceMode::Unified),
            StructureMode::Unified => (SliceMode::Unified, SliceMode::Unified),
            StructureMode::Distributed => (SliceMode::Distributed, SliceMode::Distributed),
        };
        let center = placement.node_of(Scheduler::CENTER);
        CharonDevice {
            unit_period: ch.unit_freq.period(),
            stream_granule: u64::from(cfg.hmc.max_access_bytes),
            placement,
            sched: Scheduler::new(cfg.hmc),
            pools,
            mai: (0..mai_count).map(|_| Mai::new(ch.mai_entries, ch.unit_freq)).collect(),
            tlb: AccelTlb::new(tlb_mode, cubes, ch.unit_freq),
            bitmap_cache: BitmapCache::new(cache_mode, center, cubes, ch.bitmap_cache, ch.unit_freq),
            stats: CharonStats::default(),
            injector: None,
            recovery: RecoveryConfig::default(),
            consecutive: [0; 4],
            dead: [false; 4],
            rearm_after: None,
            gcs_since_death: [0; 4],
            probing: [false; 4],
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry journal; the device records per-unit busy
    /// spans and fault observations into it. Timing is unaffected.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Arms fault injection at `injector`'s site with `recovery`'s retry
    /// budget and watchdog, and clears every unit-health verdict (the
    /// re-arm interval stays). An unarmed device, or one armed at rate
    /// zero, runs every call straight through the envelope.
    pub fn enable_faults(&mut self, injector: Injector<FaultSite>, recovery: RecoveryConfig) {
        self.injector = Some(injector);
        self.recovery = recovery;
        self.consecutive = [0; 4];
        self.dead = [false; 4];
        self.gcs_since_death = [0; 4];
        self.probing = [false; 4];
    }

    /// Arms (or disarms, with `None`) probe-after-N-GCs re-enable of
    /// dead unit classes; an interval of 0 disarms.
    pub fn set_rearm(&mut self, after_gcs: Option<u32>) {
        self.rearm_after = after_gcs.filter(|&n| n > 0);
    }

    /// The armed probe interval, if any.
    pub fn rearm_after(&self) -> Option<u32> {
        self.rearm_after
    }

    /// Declares `prim`'s unit class dead, exactly as if its watchdog had
    /// fired — the integrity layer's rung-3 quarantine path.
    pub fn kill_unit(&mut self, prim: PrimType) {
        let pi = prim.encode() as usize;
        self.consecutive[pi] = self.consecutive[pi].max(self.recovery.watchdog_threshold);
        self.dead[pi] = true;
        self.probing[pi] = false;
        self.gcs_since_death[pi] = 0;
    }

    /// GC-prologue tick for the re-arm path: every dead unit ages one GC;
    /// those reaching the probe interval come back alive on probation
    /// (`consecutive` parked one strike below the watchdog threshold, so a
    /// still-broken unit re-dies after a single abandoned offload).
    /// Returns the re-armed unit classes.
    pub fn gc_tick(&mut self) -> Vec<PrimType> {
        let Some(n) = self.rearm_after else { return Vec::new() };
        let mut rearmed = Vec::new();
        for prim in PrimType::ALL {
            let pi = prim.encode() as usize;
            if self.dead[pi] {
                self.gcs_since_death[pi] += 1;
                if self.gcs_since_death[pi] >= n {
                    self.dead[pi] = false;
                    self.probing[pi] = true;
                    self.consecutive[pi] = self.recovery.watchdog_threshold.saturating_sub(1);
                    self.gcs_since_death[pi] = 0;
                    rearmed.push(prim);
                }
            }
        }
        rearmed
    }

    /// Units currently on re-arm probation, indexed by
    /// [`PrimType::encode`].
    pub fn probing_units(&self) -> [bool; 4] {
        self.probing
    }

    /// The armed injector, for campaign reporting.
    pub fn fault_injector(&self) -> Option<&Injector<FaultSite>> {
        self.injector.as_ref()
    }

    /// Whether `prim`'s unit class is dead (the watchdog fired or a
    /// quarantine killed it, and no probe has re-armed it since).
    pub fn unit_dead(&self, prim: PrimType) -> bool {
        self.dead[prim.encode() as usize]
    }

    /// [`CharonDevice::unit_dead`] for all four primitives at once,
    /// indexed by [`PrimType::encode`].
    pub fn dead_units(&self) -> [bool; 4] {
        self.dead
    }

    /// Accumulated statistics. The unit-class counters come from the pools
    /// and the queue, TLB and bitmap-cache energy from those structures'
    /// running totals, both read now; the unit energy is accumulated per
    /// offload.
    pub fn stats(&self) -> CharonStats {
        let offloads = self.stats.total_offloads() as f64;
        let requests = self.mai.iter().map(Mai::requests).sum::<u64>() as f64;
        CharonStats {
            units: self.pools.each_ref().map(UnitClassStats::of),
            energy: ComponentEnergy {
                units_pj: self.stats.energy.units_pj,
                queues_pj: offloads * QUEUE_PJ_PER_OFFLOAD + requests * QUEUE_PJ_PER_REQUEST,
                tlb_pj: self.tlb.stats().0 as f64 * TLB_PJ_PER_LOOKUP,
                bitmap_cache_pj: self.bitmap_cache.stats().accesses() as f64 * BITMAP_PJ_PER_ACCESS,
            },
            ..self.stats.clone()
        }
    }

    /// Bitmap-cache statistics (the paper reports ≈ 90 % hits).
    pub fn bitmap_cache_stats(&self) -> charon_sim::stats::CacheStats {
        self.bitmap_cache.stats()
    }

    /// TLB statistics `(lookups, remote_lookups)`.
    pub fn tlb_stats(&self) -> (u64, u64) {
        self.tlb.stats()
    }

    /// MAI request-buffer entries per cube, as the MAIs were built.
    pub fn mai_entries(&self) -> usize {
        self.mai[0].entries()
    }

    /// The structure mode the TLB and bitmap cache were built in.
    pub fn structure(&self) -> StructureMode {
        match (self.tlb.mode(), self.bitmap_cache.mode()) {
            (SliceMode::Unified, _) => StructureMode::Unified,
            (SliceMode::Distributed, SliceMode::Unified) => StructureMode::Table4,
            (SliceMode::Distributed, SliceMode::Distributed) => StructureMode::Distributed,
        }
    }

    /// The cube whose pool serves attempt `attempt` of `prim` on `addr`:
    /// memory-side, the scheduled cube ([`Scheduler::cube_for_attempt`]);
    /// CPU-side, cube 0, whose pool holds every unit.
    fn cube_for(&self, prim: PrimType, addr: VAddr, attempt: u32) -> usize {
        match self.placement {
            Placement::MemorySide => self.sched.cube_for_attempt(prim, addr, attempt),
            Placement::CpuSide => 0,
        }
    }

    /// When a unit on `cube` has the physical address of `addr`, asked at
    /// `t`: memory-side units look it up in the accelerator TLB slice that
    /// maps `addr`'s cube; CPU-side units use the host MMU (one cycle, no
    /// hops).
    fn translate(&mut self, fabric: &mut MemFabric, cube: usize, addr: VAddr, t: Ps) -> Ps {
        match self.placement {
            Placement::MemorySide => {
                let dest = fabric.cube_of(addr.0).unwrap_or(0);
                self.tlb.translate(fabric, cube, dest, t)
            }
            Placement::CpuSide => t + self.unit_period,
        }
    }

    /// One unit memory request: MAI slot + issue cycle, translation,
    /// fabric access. `stream` is the issuing offload's in-flight window.
    #[allow(clippy::too_many_arguments)]
    fn unit_mem(
        &mut self,
        host: &mut HostTiming,
        stream: &mut Window,
        cube: usize,
        addr: VAddr,
        bytes: u32,
        op: DramOp,
        now: Ps,
    ) -> Ps {
        let t = self.mai[cube].issue(stream, now);
        let t = self.translate(&mut host.fabric, cube, addr, t);
        let done = host.fabric.access(self.placement.node_of(cube), addr.0, bytes, op, t);
        stream.complete(done);
        done
    }

    /// A batched streaming run: `bytes` of contiguous memory issued as one
    /// run of `stream_granule`-sized unit requests. The run occupies one
    /// MAI window slot for its head, takes one cube issue cycle per chunk
    /// (metered as a batch), translates once at the head (the unit's
    /// sequential walk reuses the translation), and streams the fabric
    /// accesses through [`charon_sim::host::MemFabric::access_many`].
    ///
    /// Returns the completion of the head chunk (for dependent consumers
    /// that pipeline on the first datum) and of the whole run.
    #[allow(clippy::too_many_arguments)]
    fn unit_stream_run(
        &mut self,
        host: &mut HostTiming,
        stream: &mut Window,
        cube: usize,
        addr: VAddr,
        bytes: u64,
        op: DramOp,
        now: Ps,
    ) -> BatchCompletion {
        debug_assert!(bytes > 0);
        let chunks = bytes.div_ceil(self.stream_granule).max(1);
        let issued = self.mai[cube].issue_many(stream, now, chunks);
        let t = self.translate(&mut host.fabric, cube, addr, issued.first);
        let run = host.fabric.access_many(self.placement.node_of(cube), addr.0, bytes, op, t);
        let last = run.last.max(issued.last);
        stream.complete(last);
        BatchCompletion { first: run.first, last }
    }

    /// Aggregate MAI issue-meter occupancy across all cubes.
    pub fn mai_occupancy(&self) -> BwOccupancy {
        self.mai.iter().map(Mai::occupancy).fold(BwOccupancy::default(), |a, b| a + b)
    }

    /// Invalidates the host-cached lines of `[start, start+bytes)` before a
    /// unit touches them (§4.1). Dirty hits are written back to memory
    /// before `now`; returns the time the region is safe to read.
    fn clflush_range(&mut self, host: &mut HostTiming, start: VAddr, bytes: u64, now: Ps) -> Ps {
        // Both placements sit below the cache hierarchy (§4.6 likens the
        // CPU-side variant to a unit "near the memory controller"), so both
        // must invalidate host-cached copies before touching memory.
        let line = 64u64;
        let mut t = now;
        let mut a = start.align_down(line);
        let end = start.add_bytes(bytes);
        while a < end {
            if host.clflush_line(a.0) {
                t = host.fabric.access(Node::Host, a.0, line as u32, DramOp::Write, t);
            }
            a = a.add_bytes(line);
        }
        t
    }

    /// The request packet from the host to `cube`'s units; returns its
    /// arrival (free when the units sit at the host).
    fn send_request(&mut self, host: &mut HostTiming, cube: usize, now: Ps) -> Ps {
        host.fabric
            .control_packet(Node::Host, self.placement.node_of(cube), REQUEST_BYTES, now)
    }

    /// Verifies the routed cube can serve `prim` *before* any request
    /// traffic is charged: a misroute must leave the device and fabric
    /// untouched so the caller can rerun the work on the host software
    /// path from the same instant.
    fn route_check(&mut self, prim: PrimType, cube: usize) -> Result<(), NoUnits> {
        let pool = &self.pools[unit_class(prim)];
        if pool.units_on(cube) == 0 {
            let err = NoUnits { cube, cubes: pool.cube_count() };
            self.stats.misroutes[prim.encode() as usize] += 1;
            return Err(err);
        }
        Ok(())
    }

    /// Replaces `prim`'s unit layout with `per_cube[c]` instances on cube
    /// `c` — an experiment/test hook for exotic placements (e.g. moving
    /// every Scan&Push unit off the central cube to force misroutes).
    /// Resets the pool's accounting.
    ///
    /// # Panics
    ///
    /// Panics if every cube has zero instances (via [`UnitPool::new`]).
    pub fn set_unit_layout(&mut self, prim: PrimType, per_cube: &[usize]) {
        let c = unit_class(prim);
        self.pools[c] = UnitPool::new(per_cube);
    }

    /// Charges one failed attempt: the request transport that still
    /// happened, the site-specific failure bookkeeping, and the wait
    /// until the host *observes* the failure. Returns the observation
    /// time (strictly after `t` — silent failures cost the full timeout,
    /// an explicit queue NACK costs its round trip).
    fn observe_failure(
        &mut self,
        host: &mut HostTiming,
        prim: PrimType,
        addr: VAddr,
        t: Ps,
        site: FaultSite,
        attempt: u32,
    ) -> Ps {
        let cube = self.cube_for(prim, addr, attempt);
        let units = self.placement.node_of(cube);
        match site {
            FaultSite::Link => {
                // The packet left the host and died en route: first-hop
                // bandwidth is consumed, nothing arrives, and the host
                // only learns at its timeout. A request to units at the
                // host crosses no link, so none is dropped.
                host.fabric.control_packet_dropped(Node::Host, units, REQUEST_BYTES, t);
                t + OFFLOAD_TIMEOUT
            }
            FaultSite::Queue => {
                // The packet arrived but the command queue was full; the
                // cube NACKs explicitly, so the host learns at the NACK's
                // arrival rather than its timeout.
                let arrive = self.send_request(host, cube, t);
                let nack = host.fabric.control_packet(units, Node::Host, RESPONSE_NACK_BYTES, arrive);
                // On-chip NACKs (CpuSide) are instantaneous; keep time
                // strictly advancing with one unit cycle.
                nack.max(t + self.unit_period)
            }
            FaultSite::Tlb => {
                let arrive = self.send_request(host, cube, t);
                self.tlb.record_unserviceable();
                arrive.max(t + OFFLOAD_TIMEOUT)
            }
            FaultSite::Mai => {
                let arrive = self.send_request(host, cube, t);
                self.mai[cube].record_parity_error();
                arrive.max(t + OFFLOAD_TIMEOUT)
            }
            FaultSite::Unit => {
                let arrive = self.send_request(host, cube, t);
                self.pools[unit_class(prim)].record_wedge();
                arrive.max(t + OFFLOAD_TIMEOUT)
            }
        }
    }

    /// The device's one offload entry point (§4.1's blocking protocol
    /// plus the RAS story the paper leaves to "the system"): rolls each
    /// attempt through the armed [`Injector`], charges timeout +
    /// bounded exponential backoff for every failure, retries within the
    /// budget, and feeds the per-primitive watchdog. An attempt that
    /// rolls no fault runs through the offload envelope.
    ///
    /// With no injector armed — or one armed at rate zero — the first
    /// attempt succeeds unconditionally and nothing but the envelope's own
    /// traffic is charged.
    ///
    /// # Errors
    ///
    /// [`OffloadAbandoned`] when the retry budget is exhausted (or the
    /// unit class is already dead): the caller completes the primitive on
    /// the host software path starting at `OffloadAbandoned::at`. Once
    /// `unit_dead` is set the device's own verdict
    /// ([`CharonDevice::unit_dead`]) keeps the class's later work on the
    /// host; no caller-side mask changes. A misrouted call — scheduled onto a cube with no units of the class
    /// ([`NoUnits`]) — is deterministic, so it abandons immediately at the
    /// issue time without burning retries and without feeding the
    /// watchdog; the unit class stays alive for correctly-routed work.
    pub fn offload(
        &mut self,
        host: &mut HostTiming,
        now: Ps,
        call: OffloadCall<'_>,
    ) -> Result<OffloadGrant, OffloadAbandoned> {
        let prim = call.prim();
        let pi = prim.encode() as usize;
        if self.unit_dead(prim) {
            // Watchdog already fired; don't waste simulated time probing.
            return Err(OffloadAbandoned { at: now, retries: 0, site: FaultSite::Unit, unit_dead: true });
        }
        let recovery = self.recovery;
        let mut t = now;
        let mut attempt = 0u32;
        loop {
            let Some(site) = self.injector.as_mut().and_then(Injector::roll) else {
                let Ok(done) = self.execute(host, t, &call) else {
                    // A misroute never reached a unit and would misroute
                    // identically on a reissue: no time passes and no
                    // watchdog state moves.
                    self.telemetry
                        .record(|| Event::Fault { site: "route", prim: prim.name(), at: t, attempt });
                    return Err(OffloadAbandoned { at: t, retries: attempt, site: FaultSite::Unit, unit_dead: false });
                };
                self.consecutive[pi] = 0;
                self.probing[pi] = false; // the probe survived: fully re-armed
                return Ok(OffloadGrant { done, retries: attempt });
            };
            let observed = self.observe_failure(host, prim, call.lead_addr(), t, site, attempt);
            self.telemetry
                .record(|| Event::Fault { site: site.name(), prim: prim.name(), at: observed, attempt });
            if attempt >= recovery.retry_budget {
                self.consecutive[pi] += 1;
                let unit_dead = self.consecutive[pi] >= recovery.watchdog_threshold;
                if unit_dead {
                    self.kill_unit(prim);
                }
                return Err(OffloadAbandoned { at: observed, retries: attempt, site, unit_dead });
            }
            t = observed + backoff(attempt);
            attempt += 1;
        }
    }

    /// The offload envelope (§4.1), the same for every primitive. The
    /// prologue routes to the scheduled cube, bounces a misroute before
    /// any traffic is charged, sends the request packet and opens the MAI
    /// stream. Then the primitive's own memory traffic runs. The epilogue
    /// charges the unit pool (the queue wait), books the stats and the
    /// units' §5.3 energy, and sends the response packet. Returns when
    /// the host thread unblocks.
    ///
    /// # Errors
    ///
    /// [`NoUnits`] when the scheduled cube has no units of the primitive's
    /// class; only the misroute counter moves.
    fn execute(&mut self, host: &mut HostTiming, now: Ps, call: &OffloadCall<'_>) -> Result<Ps, NoUnits> {
        let prim = call.prim();
        // Copy/Search/Bitmap Count run on the cube their first operand
        // falls in, Scan&Push on the central one (§4.2–4.4).
        let cube = self.cube_for(prim, call.lead_addr(), 0);
        self.route_check(prim, cube)?;
        let arrive = self.send_request(host, cube, now);
        let mut stream = self.mai[cube].stream();

        let (end, bytes) = match *call {
            OffloadCall::Copy { src, dst, bytes } => {
                debug_assert!(bytes > 0);
                // Host copies of the source and destination must be
                // invalidated. Reads stream out one per cycle as long as
                // the MAI accepts (§4.2); the store stream starts when the
                // head load returns and overlaps the remaining loads.
                let flushed = self.clflush_range(host, src, bytes, arrive);
                let flushed = self.clflush_range(host, dst, bytes, flushed);
                let reads = self.unit_stream_run(host, &mut stream, cube, src, bytes, DramOp::Read, flushed);
                let writes = self.unit_stream_run(host, &mut stream, cube, dst, bytes, DramOp::Write, reads.first);
                (reads.last.max(writes.last), 2 * bytes)
            }
            OffloadCall::Search { start, scanned_bytes } => {
                let flushed = self.clflush_range(host, start, scanned_bytes, arrive);
                let read_bytes = scanned_bytes.max(u64::from(MIN_ACCESS));
                let run = self.unit_stream_run(host, &mut stream, cube, start, read_bytes, DramOp::Read, flushed);
                (flushed.max(run.last), scanned_bytes)
            }
            OffloadCall::BitmapCount { spans } => {
                // The unit knows the exact read set up front and issues
                // everything at once (§4.3). Short spans — the repeated
                // region-tail queries of the adjust phase — go through the
                // bitmap cache (≈ 90 % hits in the paper); long ones
                // (whole-region summary scans) stream through the MAI like
                // Copy does, since caching them would only thrash the 8 KB
                // cache. Under the unified design an off-center unit
                // exchanges one range-granular request/response per span.
                const CACHED_SPAN_LIMIT: u64 = 128;
                let mut end = arrive;
                let unit = self.placement.node_of(cube);
                for &(span, bytes) in spans {
                    let done = if bytes <= CACHED_SPAN_LIMIT {
                        self.bitmap_cache
                            .access_range(&mut host.fabric, unit, span.0, bytes, AccessKind::Read, arrive)
                    } else {
                        self.unit_stream_run(host, &mut stream, cube, span, bytes, DramOp::Read, arrive)
                            .last
                    };
                    end = end.max(done);
                }
                (end, spans.iter().map(|&(_, bytes)| bytes).sum())
            }
            OffloadCall::ScanPush { fields_start, field_bytes, refs } => {
                let end = self.scan_push_traffic(host, &mut stream, cube, arrive, fields_start, field_bytes, refs);
                (end, field_bytes + refs.len() as u64 * 16)
            }
        };

        let c = unit_class(prim);
        let served = self.pools[c].charge(cube, arrive, end - arrive);
        let queue = served.saturating_sub(end);
        let end = end.max(served);
        let s = &mut self.stats.prims[prim.encode() as usize];
        s.offloads += 1;
        s.busy += end - arrive;
        s.bytes += bytes;
        s.transport += arrive - now;
        s.queue += queue;
        self.telemetry
            .record(|| Event::UnitSpan { prim: prim.name(), cube, start: arrive, end, bytes });
        self.stats.energy.units_pj += bytes as f64 * UNIT_PJ_PER_BYTE;
        Ok(host
            .fabric
            .control_packet(self.placement.node_of(cube), Node::Host, prim.response_bytes(), end))
    }

    /// Scan&Push's memory traffic (§4.4) from `arrive`: the field loads,
    /// the batch of referent-header loads, then each referent's dependent
    /// action. Returns when the last of them completes.
    ///
    /// Unlike the other three primitives, this one stays on the
    /// per-request path: its referent-header loads are irregular and its
    /// actions depend on each header's return time, so batching the runs
    /// would erase exactly the dependent-load behaviour §4.4 models.
    #[allow(clippy::too_many_arguments)]
    fn scan_push_traffic(
        &mut self,
        host: &mut HostTiming,
        stream: &mut Window,
        cube: usize,
        arrive: Ps,
        fields_start: VAddr,
        field_bytes: u64,
        refs: &[ScanRef],
    ) -> Ps {
        let flushed = self.clflush_range(host, fields_start, field_bytes, arrive);

        // Stream the field loads; remember when each granule's pointers
        // become available.
        let granule = self.stream_granule;
        let granules = field_bytes.div_ceil(granule).max(1);
        let mut granule_done = Vec::with_capacity(granules as usize);
        for i in 0..granules {
            let off = i * granule;
            let len = granule.min(field_bytes.saturating_sub(off)).max(MIN_ACCESS as u64) as u32;
            let d = self.unit_mem(host, stream, cube, fields_start.add_bytes(off), len, DramOp::Read, flushed);
            granule_done.push(d);
        }

        // Phase 1: the batch of referent-header loads (a 16 B
        // minimum-granularity load each), issued as fast as the MAI
        // accepts — this is the MLP the unit exploits (§4.4).
        let refs_per_granule = (granule / WORD_BYTES) as usize;
        let mut header_done = Vec::with_capacity(refs.len());
        for (i, r) in refs.iter().enumerate() {
            let avail = granule_done[(i / refs_per_granule).min(granule_done.len() - 1)];
            header_done.push(self.unit_mem(host, stream, cube, r.referent, MIN_ACCESS, DramOp::Read, avail));
        }
        // Phase 2: each referent's dependent action fires when its header
        // returns.
        let unit = self.placement.node_of(cube);
        let mut end = *granule_done.iter().max().expect("at least one granule");
        for (r, &h_done) in refs.iter().zip(&header_done) {
            let a_done = r.action.writes().fold(h_done, |t, w| match w {
                ScanWrite::MapWord(word) => {
                    self.bitmap_cache
                        .access_range(&mut host.fabric, unit, word.0, WORD_BYTES, AccessKind::Write, t)
                }
                ScanWrite::Slot(slot) => self.unit_mem(host, stream, cube, slot, MIN_ACCESS, DramOp::Write, t),
            });
            end = end.max(a_done);
        }
        end
    }

    /// Flushes the bitmap cache (after each MajorGC phase, §4.5).
    pub fn flush_bitmap_cache(&mut self, host: &mut HostTiming, now: Ps) -> Ps {
        self.bitmap_cache.flush(&mut host.fabric, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(placement: Placement) -> (HostTiming, CharonDevice) {
        let mut cfg = SystemConfig::table2_hmc();
        cfg.charon.structure = StructureMode::Unified;
        let host = HostTiming::new(&cfg);
        let dev = CharonDevice::new(&cfg, placement);
        (host, dev)
    }

    /// One fault-free offload; returns when the host thread unblocks.
    fn run(dev: &mut CharonDevice, host: &mut HostTiming, now: Ps, call: OffloadCall<'_>) -> Ps {
        dev.offload(host, now, call).expect("routed cube has units").done
    }

    fn copy(src: u64, dst: u64, bytes: u64) -> OffloadCall<'static> {
        OffloadCall::Copy { src: VAddr(src), dst: VAddr(dst), bytes }
    }

    #[test]
    fn copy_moves_bytes_and_returns_later() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        let t = run(&mut dev, &mut host, Ps::ZERO, copy(0x10000, 0x50000, 4096));
        assert!(t > Ps::from_ns(10.0));
        let s = dev.stats().prim(PrimType::Copy);
        assert_eq!(s.offloads, 1);
        assert_eq!(s.bytes, 8192); // read + write
                                   // DRAM saw the traffic.
        assert!(host.fabric.stats().dram.total_bytes() >= 8192);
    }

    #[test]
    fn unit_class_stats_mirror_the_pools() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        let s = dev.stats();
        assert_eq!(s.units[0].total_units, 8, "Table 2: 8 Copy/Search units");
        assert_eq!(s.units[2].total_units, 8, "Table 2: 8 Scan&Push units");
        assert_eq!(s.units[0].executions, 0);
        run(&mut dev, &mut host, Ps::ZERO, copy(0x10000, 0x50000, 4096));
        let s = dev.stats();
        assert!(s.units[0].executions > 0, "copy offload runs on the Copy/Search pool");
        assert!(s.units[0].busy > Ps::ZERO);
        assert_eq!(s.units[0].busy, dev.pools[0].busy_time());
        let j = s.to_json();
        let u = j.get("units").unwrap().get("copy_search").unwrap();
        assert_eq!(u.get("total_units").and_then(|v| v.as_u64()), Some(8));
    }

    /// A per-collection delta subtracts the counters and keeps the
    /// run-global high-water mark and the pool size; the JSON of the three
    /// pools names each class and divides busy time by unit-time capacity.
    #[test]
    fn unit_deltas_subtract_counters_and_keep_the_high_water() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        run(&mut dev, &mut host, Ps::ZERO, copy(0x10000, 0x50000, 4096));
        let before = dev.stats().units;
        let t = run(&mut dev, &mut host, Ps::from_us(10.0), copy(0x10000, 0x50000, 4096));
        let after = dev.stats().units;
        let delta: [UnitClassStats; 3] = std::array::from_fn(|i| after[i].since(&before[i]));
        assert_eq!(delta[0].busy, after[0].busy - before[0].busy);
        assert_eq!(delta[0].executions, after[0].executions - before[0].executions);
        assert!(delta[0].executions > 0 && delta[0].busy > Ps::ZERO);
        assert_eq!(delta[0].queue_high_water, after[0].queue_high_water, "the high-water is not a delta");
        assert_eq!(delta[0].total_units, 8);
        assert_eq!(delta[1], UnitClassStats { total_units: after[1].total_units, ..Default::default() });
        let wall = t - Ps::from_us(10.0);
        let j = units_json(&delta, wall);
        let copy_search = j.get("copy_search").expect("classes keyed by name");
        assert_eq!(copy_search.get("busy_ps").and_then(|v| v.as_u64()), Some(delta[0].busy.0));
        assert_eq!(copy_search.get("utilization").and_then(|v| v.as_f64()), Some(delta[0].utilization(wall)));
        assert!(j.get("scan_push").is_some());
    }

    #[test]
    fn copy_throughput_exceeds_offchip_bandwidth() {
        // A large local copy must run faster than the 80 GB/s host link
        // could ever stream it — the internal-bandwidth advantage.
        let (mut host, mut dev) = setup(Placement::MemorySide);
        let bytes = 512 * 1024u64;
        let t = run(&mut dev, &mut host, Ps::ZERO, copy(0, 0x4_0000, bytes));
        let gbps = (2 * bytes) as f64 / t.as_secs() / 1e9;
        assert!(gbps > 80.0, "near-memory copy only reached {gbps:.1} GB/s");
    }

    #[test]
    fn cpu_side_copy_is_slower_than_memory_side() {
        let bytes = 256 * 1024u64;
        let (mut h1, mut d1) = setup(Placement::MemorySide);
        let t_mem = run(&mut d1, &mut h1, Ps::ZERO, copy(0, 0x4_0000, bytes));
        let (mut h2, mut d2) = setup(Placement::CpuSide);
        let t_cpu = run(&mut d2, &mut h2, Ps::ZERO, copy(0, 0x4_0000, bytes));
        assert!(t_cpu.0 as f64 > 1.2 * t_mem.0 as f64, "CPU-side ({t_cpu}) should trail memory-side ({t_mem})");
    }

    #[test]
    fn search_scans_and_responds_with_value_packet() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        let t = run(&mut dev, &mut host, Ps::ZERO, OffloadCall::Search { start: VAddr(0x8000), scanned_bytes: 2048 });
        assert!(t > Ps::ZERO);
        assert_eq!(dev.stats().prim(PrimType::Search).offloads, 1);
    }

    #[test]
    fn bitmap_count_reuses_cache_across_calls() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        // Small spans — the repeated region-tail queries — go through the
        // bitmap cache and hit on reuse.
        let spans = [(VAddr(0x1000), 64u64), (VAddr(0x9000), 64u64)];
        let t1 = run(&mut dev, &mut host, Ps::ZERO, OffloadCall::BitmapCount { spans: &spans });
        let t2 = run(&mut dev, &mut host, t1, OffloadCall::BitmapCount { spans: &spans }) - t1;
        assert!(t2 < t1, "warm call ({t2}) should beat cold call ({t1})");
        assert!(dev.bitmap_cache_stats().hit_rate() > 0.4);
        // Large spans — whole-region summary scans — stream via the MAI
        // and leave the cache untouched.
        let before = dev.bitmap_cache_stats().accesses();
        run(&mut dev, &mut host, t1, OffloadCall::BitmapCount { spans: &[(VAddr(0x2000), 4096u64)] });
        assert_eq!(dev.bitmap_cache_stats().accesses(), before);
    }

    #[test]
    fn scan_push_handles_all_action_kinds() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        let refs = [
            ScanRef { referent: VAddr(0x2000), action: ScanAction::Push { stack_slot: VAddr(0x9_0000) } },
            ScanRef { referent: VAddr(0x3000), action: ScanAction::UpdateField { field_slot: VAddr(0x1008) } },
            ScanRef { referent: VAddr(0x4000), action: ScanAction::UpdateCard { card_addr: VAddr(0x8_0000) } },
            ScanRef {
                referent: VAddr(0x5000),
                action: ScanAction::MarkAndPush {
                    beg_word: VAddr(0x7_0000),
                    end_word: VAddr(0x7_8000),
                    stack_slot: VAddr(0x9_0008),
                },
            },
            ScanRef {
                referent: VAddr(0x5800),
                action: ScanAction::UpdateFieldAndCard { field_slot: VAddr(0x1010), card_addr: VAddr(0x8_0001) },
            },
            ScanRef { referent: VAddr(0x6000), action: ScanAction::None },
        ];
        let call = OffloadCall::ScanPush { fields_start: VAddr(0x1000), field_bytes: 5 * 8, refs: &refs };
        let t = run(&mut dev, &mut host, Ps::ZERO, call);
        assert!(t > Ps::ZERO);
        assert_eq!(dev.stats().prim(PrimType::ScanPush).offloads, 1);
    }

    #[test]
    fn units_queue_when_busy() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        // Issue more copies on the same cube than it has units; later ones
        // queue behind earlier ones.
        let ends: Vec<Ps> = (0..4u64)
            .map(|i| run(&mut dev, &mut host, Ps::ZERO, copy(i * 4096, 0x8_0000 + i * 4096, 4096)))
            .collect();
        assert!(ends[3] > ends[0], "queueing must delay the last offload");
    }

    #[test]
    fn armed_at_zero_rates_equals_unarmed() {
        let (mut h1, mut d1) = setup(Placement::MemorySide);
        let (mut h2, mut d2) = setup(Placement::MemorySide);
        d2.enable_faults(FaultSite::Link.arm(42, 0.0), RecoveryConfig::default());
        let spans = [(VAddr(0x3000), 64u64)];
        let calls = [
            copy(0x10000, 0x50000, 4096),
            OffloadCall::Search { start: VAddr(0x8000), scanned_bytes: 2048 },
            OffloadCall::BitmapCount { spans: &spans },
        ];
        for call in calls {
            let unarmed = d1.offload(&mut h1, Ps::ZERO, call).expect("no layer, cannot fail");
            let armed = d2.offload(&mut h2, Ps::ZERO, call).expect("a zero rate never fails");
            assert_eq!(armed, unarmed);
            assert_eq!(armed.retries, 0);
            assert_eq!(h1.fabric.stats(), h2.fabric.stats());
        }
        assert_eq!(d2.fault_injector().unwrap().injected(), 0);
    }

    #[test]
    fn retries_cost_time_but_succeed_within_budget() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        // 17 consecutive failures at 40% per attempt is negligible and,
        // more importantly, deterministic for this seed.
        dev.enable_faults(
            FaultSite::Link.arm(1, 0.4),
            RecoveryConfig { retry_budget: 16, ..RecoveryConfig::default() },
        );
        let mut t = Ps::ZERO;
        let mut total_retries = 0;
        for i in 0..20u64 {
            let g = dev
                .offload(&mut host, t, copy(i * 4096, 0x80_0000 + i * 4096, 1024))
                .expect("budget 16 at 40%/attempt cannot exhaust here");
            assert!(g.done > t, "time must advance");
            total_retries += g.retries;
            t = g.done;
        }
        assert!(total_retries > 0, "40%/attempt over 20 offloads must retry at least once");
        let injector = dev.fault_injector().unwrap();
        assert_eq!(u64::from(total_retries), injector.injected(), "every injected fault cost one retry");
        assert_eq!(injector.rolls(), 20 + u64::from(total_retries));
    }

    #[test]
    fn budget_exhaustion_feeds_watchdog_until_unit_dies() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        // Unit permanently wedged: every attempt fails, every offload
        // abandons, and the third abandonment kills the unit class.
        dev.enable_faults(FaultSite::Unit.arm(7, 1.0), RecoveryConfig { retry_budget: 2, watchdog_threshold: 3 });
        let mut t = Ps::ZERO;
        let mut dead_seen = false;
        for _ in 0..3 {
            let e = dev
                .offload(&mut host, t, copy(0, 0x8000, 256))
                .expect_err("p=1.0 must exhaust the budget");
            assert_eq!(e.site, FaultSite::Unit);
            assert_eq!(e.retries, 2);
            assert!(e.at > t, "timeouts and backoff must advance time");
            t = e.at;
            dead_seen = e.unit_dead;
        }
        assert!(dead_seen, "third consecutive abandonment must trip the watchdog");
        assert!(dev.unit_dead(PrimType::Copy));
        assert!(!dev.unit_dead(PrimType::ScanPush), "watchdog is per primitive");
        // Once dead, offloads bounce immediately without burning time.
        let e = dev
            .offload(&mut host, t, copy(0, 0x8000, 256))
            .expect_err("dead unit cannot serve");
        assert_eq!((e.at, e.retries, e.unit_dead), (t, 0, true));
        assert_eq!(dev.fault_injector().unwrap().rolls(), 9, "a dead unit rolls no attempt");
        assert_eq!(dev.dead_units(), [true, false, false, false]);
    }

    #[test]
    fn rearm_probe_revives_dead_unit_after_n_gcs() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        dev.kill_unit(PrimType::Copy);
        assert!(dev.unit_dead(PrimType::Copy));
        dev.set_rearm(Some(2));
        assert_eq!(dev.rearm_after(), Some(2));
        assert!(dev.gc_tick().is_empty(), "one GC is below the probe interval");
        assert!(dev.unit_dead(PrimType::Copy));
        assert_eq!(dev.gc_tick(), vec![PrimType::Copy], "second GC reaches the interval");
        assert!(!dev.unit_dead(PrimType::Copy));
        assert!(dev.probing_units()[PrimType::Copy.encode() as usize]);
        // A surviving probe offload takes the unit off probation.
        dev.offload(&mut host, Ps::ZERO, copy(0, 0x8000, 256))
            .expect("no faults armed, the probe must survive");
        assert!(!dev.probing_units()[PrimType::Copy.encode() as usize]);
        assert!(dev.gc_tick().is_empty(), "nothing left to re-arm");
    }

    #[test]
    fn rearmed_probe_redies_on_a_single_strike() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        // Unit permanently wedged: the probe after re-arm must fail too.
        dev.enable_faults(FaultSite::Unit.arm(7, 1.0), RecoveryConfig { retry_budget: 0, watchdog_threshold: 3 });
        dev.kill_unit(PrimType::Copy);
        dev.set_rearm(Some(1));
        assert_eq!(dev.gc_tick(), vec![PrimType::Copy]);
        // One more abandonment — not watchdog_threshold of them — re-kills.
        let e = dev
            .offload(&mut host, Ps::ZERO, copy(0, 0x8000, 256))
            .expect_err("wedged unit fails its probe");
        assert!(e.unit_dead, "a probing unit dies on its first strike");
        assert!(dev.unit_dead(PrimType::Copy));
        assert!(!dev.probing_units()[PrimType::Copy.encode() as usize]);
        // The probe cycle restarts: it comes back again next GC.
        assert_eq!(dev.gc_tick(), vec![PrimType::Copy]);
    }

    #[test]
    fn rearm_zero_disarms_and_unarmed_ticks_are_noops() {
        let (_, mut dev) = setup(Placement::MemorySide);
        assert!(dev.gc_tick().is_empty(), "no fault layer: tick is a no-op");
        dev.kill_unit(PrimType::Search);
        assert!(dev.gc_tick().is_empty(), "dead unit without --rearm stays dead");
        dev.set_rearm(Some(0));
        assert_eq!(dev.rearm_after(), None, "interval 0 means disarmed");
        dev.set_rearm(Some(1));
        dev.set_rearm(None);
        assert_eq!(dev.rearm_after(), None);
        assert!(dev.gc_tick().is_empty());
        assert!(dev.unit_dead(PrimType::Search));
    }

    #[test]
    fn each_fault_site_charges_its_own_bookkeeping() {
        for site in FaultSite::ALL {
            let (mut host, mut dev) = setup(Placement::MemorySide);
            dev.enable_faults(site.arm(13, 1.0), RecoveryConfig { retry_budget: 1, ..RecoveryConfig::default() });
            let e = dev
                .offload(&mut host, Ps::ZERO, OffloadCall::Search { start: VAddr(0x9000), scanned_bytes: 512 })
                .expect_err("p=1.0 must fail");
            assert_eq!(e.site, site);
            assert!(e.at > Ps::ZERO);
            assert_eq!(dev.fault_injector().unwrap().injected(), 2, "one per attempt");
            match site {
                FaultSite::Link => assert!(host.fabric.stats().link_drops > 0),
                FaultSite::Tlb => assert!(dev.tlb.unserviceable_misses() > 0),
                FaultSite::Mai => assert!(dev.mai.iter().map(Mai::parity_errors).sum::<u64>() > 0),
                FaultSite::Unit => assert_eq!(dev.stats().units[0].wedges, 2, "the stats see the wedges"),
                FaultSite::Queue => {}
            }
        }
    }

    /// A CPU-side request never leaves the host, so a Link fault costs the
    /// host its timeout but drops no packet and moves no link.
    #[test]
    fn cpu_side_link_fault_drops_no_packet() {
        let (mut host, mut dev) = setup(Placement::CpuSide);
        let recovery = RecoveryConfig { retry_budget: 1, ..RecoveryConfig::default() };
        dev.enable_faults(FaultSite::Link.arm(13, 1.0), recovery);
        let e = dev
            .offload(&mut host, Ps::ZERO, OffloadCall::Search { start: VAddr(0x9000), scanned_bytes: 512 })
            .expect_err("p=1.0 must fail");
        assert_eq!((e.site, e.retries), (FaultSite::Link, 1));
        assert!(e.at >= OFFLOAD_TIMEOUT * 2, "each attempt waits out its timeout");
        let s = host.fabric.stats();
        assert_eq!(s.link_drops, 0);
        assert_eq!(s.offchip.total_bytes(), 0);
    }

    #[test]
    fn queue_nack_is_observed_before_the_timeout() {
        let recovery = RecoveryConfig { retry_budget: 0, ..RecoveryConfig::default() };
        let (mut h1, mut d1) = setup(Placement::MemorySide);
        d1.enable_faults(FaultSite::Queue.arm(5, 1.0), recovery);
        let nack = d1.offload(&mut h1, Ps::ZERO, copy(0, 0x8000, 256)).expect_err("queue full");
        let (mut h2, mut d2) = setup(Placement::MemorySide);
        d2.enable_faults(FaultSite::Unit.arm(5, 1.0), recovery);
        let wedge = d2.offload(&mut h2, Ps::ZERO, copy(0, 0x8000, 256)).expect_err("unit wedged");
        assert!(nack.at < wedge.at, "an explicit NACK ({}) must beat a silent timeout ({})", nack.at, wedge.at);
        assert!(wedge.at >= OFFLOAD_TIMEOUT);
    }

    /// A Scan&Push layout with every unit one cube off the central cube
    /// the scheduler routes that primitive to.
    fn off_center_scan_push(dev: &mut CharonDevice) -> usize {
        let cubes = dev.pools[2].cube_count();
        let mut per = vec![0usize; cubes];
        per[(Scheduler::CENTER + 1) % cubes] = 8;
        dev.set_unit_layout(PrimType::ScanPush, &per);
        cubes
    }

    #[test]
    fn misrouted_raw_offload_reports_typed_error() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        let cubes = off_center_scan_push(&mut dev);
        let call = OffloadCall::ScanPush { fields_start: VAddr(0x1000), field_bytes: 8, refs: &[] };
        let e = dev
            .execute(&mut host, Ps::ZERO, &call)
            .expect_err("no Scan&Push units on the central cube");
        assert_eq!(e, NoUnits { cube: Scheduler::CENTER, cubes });
        let s = dev.stats();
        assert_eq!(s.prim(PrimType::ScanPush).offloads, 0, "a bounced route charges no traffic");
        assert_eq!(s.misroutes[PrimType::ScanPush.encode() as usize], 1);
        assert_eq!(host.fabric.stats().dram.total_bytes(), 0, "nothing reached the fabric");
    }

    #[test]
    fn misrouted_offload_abandons_instead_of_panicking() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        off_center_scan_push(&mut dev);
        let call = OffloadCall::ScanPush { fields_start: VAddr(0x1000), field_bytes: 8, refs: &[] };
        // Without a fault layer armed: immediate abandonment at issue time.
        let e = dev
            .offload(&mut host, Ps::from_us(3.0), call)
            .expect_err("misroute must abandon");
        assert_eq!(e, OffloadAbandoned { at: Ps::from_us(3.0), retries: 0, site: FaultSite::Unit, unit_dead: false });
        // With one armed: still immediate, and the watchdog stays quiet —
        // a deterministic misroute is not a transient unit fault.
        dev.enable_faults(FaultSite::Unit.arm(9, 0.0), RecoveryConfig::default());
        let e = dev
            .offload(&mut host, Ps::from_us(5.0), call)
            .expect_err("misroute must abandon");
        assert_eq!((e.at, e.retries, e.unit_dead), (Ps::from_us(5.0), 0, false));
        assert!(!dev.unit_dead(PrimType::ScanPush));
        assert_eq!(dev.consecutive, [0; 4], "the watchdog saw no strike");
        assert_eq!(dev.stats().misroutes[PrimType::ScanPush.encode() as usize], 2);
        // Correctly-routed primitives are unaffected.
        run(&mut dev, &mut host, Ps::ZERO, copy(0, 0x8000, 256));
    }

    #[test]
    fn clflush_writes_back_dirty_host_lines() {
        let (mut host, mut dev) = setup(Placement::MemorySide);
        // Host dirties a line inside the copy source.
        host.mem_access(0, Ps::ZERO, 0x10040, 8, charon_sim::cache::AccessKind::Write);
        let before = host.fabric.stats().dram.write_bytes;
        run(&mut dev, &mut host, Ps::from_us(1.0), copy(0x10000, 0x5_0000, 256));
        let after = host.fabric.stats().dram.write_bytes;
        assert!(after > before, "dirty host line must be written back before the unit reads");
    }
}
