//! # charon-gc — ParallelScavenge with offloadable primitives
//!
//! A functional + timed reproduction of HotSpot's throughput-oriented
//! generational collector (`ParallelScavenge`, §2 of the Charon paper),
//! structured around the paper's central idea: the collector's logic stays
//! on the host, while its four dominant *primitives* — **Copy**, **Search**,
//! **Scan&Push**, **Bitmap Count** — are routed through a pluggable backend:
//!
//! | Backend | Meaning | Paper platform |
//! |---------|---------|----------------|
//! | [`system::Backend::Host`] | primitives execute on host cores | DDR4 / HMC bars of Fig. 12 |
//! | [`system::Backend::Charon`] | offloaded to the near-memory device | Charon bar |
//! | [`system::Backend::CpuSideCharon`] | offloaded to CPU-side units | Fig. 16 |
//! | [`system::Backend::Ideal`] | primitives take zero time | Ideal bar |
//!
//! Modules:
//!
//! * [`system`] — the simulated machine (host + fabric + optional device)
//!   and the per-backend primitive timing paths,
//! * [`costs`] — the calibrated instruction-cost model for host-side GC code,
//! * [`breakdown`] — the Fig. 4 time buckets,
//! * `pause` (crate-private) — the per-collection charging context every
//!   collector books its host ops, primitives, steps and barriers through:
//!   it owns the simulated GC threads' clocks, opens every collection with
//!   the miss-window reset and the §4.6 prologue, and closes it into a
//!   [`PauseTotals`]; its `prim` is where a primitive's issue→complete is
//!   journaled and profiled,
//! * [`minor`] — the MinorGC scavenge (Fig. 3a),
//! * [`major`] — the MajorGC mark–summarize–adjust–compact (Fig. 3b),
//! * [`marksweep`] — a CMS-like old-generation mark-sweep (no compaction),
//!   demonstrating primitive applicability beyond ParallelScavenge (Table 1),
//! * [`freelist`] — size-segregated free queues backing a non-moving old
//!   generation: recycle on sweep, coalesce on exhaustion, allocation from
//!   dead ranges instead of the bump frontier,
//! * [`concmark`] — an incremental concurrent marker: bounded per-zone mark
//!   steps interleaved with mutator allocation, card-table write-barrier
//!   dirtying, and a stop-the-world remark + Bitmap-Count sweep (`cms`),
//! * [`g1lite`] — a Garbage-First-style mixed collection (region liveness
//!   from Bitmap Count, garbage-first evacuation) — Table 1's G1 row,
//! * [`collector`] — the top-level [`collector::Collector`] driving both
//!   GCs with HotSpot's sizing/triggering policy; [`collector::CollectorKind`]
//!   selects which old-generation collector the Major arm dispatches to,
//!   and every collection files one [`collector::GcEvent`] carrying all
//!   it measured (pause, breakdown, energy and unit-pool deltas, heap
//!   occupancy, the census record),
//! * [`census`] — per-GC heap demographics (per-klass live/dead, survivor
//!   ages, dead-bytes fraction — the paper's Figs. 2/5 input), taken onto
//!   the events when the collector's census switch is on, and folded
//!   into a run report,
//! * [`postmortem`] — tail-pause attribution folded over the events:
//!   top-K worst pauses per kind with full breakdown/unit/energy context,
//!   plus per-bucket energy attribution,
//! * [`gclog`] — `-verbose:gc`-style log rendering of a collector's events,
//! * [`verify`] — heap-graph signatures used by tests to prove collections
//!   preserve the reachable object graph.

pub mod adapt;
pub mod breakdown;
pub mod census;
pub mod collector;
pub mod concmark;
pub mod costs;
pub mod freelist;
pub mod g1lite;
pub mod gclog;
pub mod integrity;
pub mod major;
pub mod marksweep;
pub mod minor;
mod pause;
pub mod postmortem;
pub mod system;
pub mod verify;

pub use breakdown::{Breakdown, Bucket};
pub use collector::{Collector, CollectorKind, GcEvent, GcKind};
pub use pause::PauseTotals;
pub use system::{Backend, System};
