//! Trace-driven re-timing: record the operation stream of a collection
//! once, then replay it against any number of machine configurations
//! without re-executing the collector.
//!
//! This is the classic trace-driven counterpart to the repository's
//! execution-driven mode (zsim offers the same pairing). Because timing
//! never feeds back into functional behaviour here (DESIGN.md decision 6),
//! a replayed trace produces exactly the operation stream the original
//! run would have issued — what changes is only where each operation's
//! time is charged.
//!
//! `Phase` markers record *what the live run did* at each boundary
//! ([`FlushKind`]): the prologue's bulk host-cache flush, a bitmap-cache
//! flush, or a bare barrier. Replay performs the recorded flush kind on
//! its own system, reproducing both the timing charge and the cache-state
//! reset — so a same-config replay started at the live collection's start
//! time ([`replay_at`]) reproduces the live wall time exactly when
//! `gc_threads == 1`. With more threads, replay re-picks the least-loaded
//! thread per operation where the live collector sometimes keeps an
//! operation on the thread that popped it, so multi-thread replay remains
//! a close (documented) approximation.
//!
//! ```
//! use charon_gc::collector::Collector;
//! use charon_gc::system::System;
//! use charon_gc::trace::replay;
//! use charon_heap::heap::{HeapConfig, JavaHeap};
//! use charon_heap::klass::KlassKind;
//!
//! # fn main() -> Result<(), charon_gc::collector::OutOfMemory> {
//! let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
//! let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
//! let mut sys = System::ddr4();
//! sys.record_traces = true;
//! let mut gc = Collector::new(sys, &heap, 8);
//! for _ in 0..1500 {
//!     let a = gc.alloc(&mut heap, k, 100)?;
//!     heap.add_root(a);
//! }
//! gc.minor_gc(&mut heap);
//!
//! // Re-time the recorded collection on Charon without a heap in sight.
//! let trace = gc.sys.traces.last().expect("recorded");
//! let replayed = replay(trace, &mut System::charon(), 8);
//! assert!(replayed.0 > charon_sim::time::Ps::ZERO);
//! # Ok(())
//! # }
//! ```

use crate::breakdown::{Breakdown, Bucket};
use crate::pause::Pause;
use crate::system::System;
use crate::threads::GcThreads;
use charon_core::device::ScanRef;
use charon_core::packet::PrimType;
use charon_heap::addr::{VAddr, VRange};
use charon_sim::cache::AccessKind;
use charon_sim::time::Ps;

/// One recorded, timed operation.
#[derive(Debug, Clone)]
pub enum TraceOp {
    /// A host-side operation (pop, push, walk, fixup…).
    HostOp {
        /// Instructions retired.
        instrs: u64,
        /// Word-sized memory accesses.
        accesses: Vec<(VAddr, AccessKind)>,
        /// Whether it was issued stream-style (independent iteration).
        stream: bool,
        /// The breakdown bucket it was charged to.
        bucket: Bucket,
    },
    /// A *Copy* primitive.
    Copy {
        /// Source address.
        src: VAddr,
        /// Destination address.
        dst: VAddr,
        /// Payload bytes.
        bytes: u64,
    },
    /// A *Search* primitive.
    Search {
        /// Scan start.
        start: VAddr,
        /// Bytes scanned until the result was known.
        bytes: u64,
    },
    /// A *Bitmap Count* primitive.
    BitmapCount {
        /// Map spans read.
        spans: Vec<(VAddr, u64)>,
    },
    /// A *Scan&Push* primitive.
    ScanPush {
        /// First field slot.
        fields_start: VAddr,
        /// Field bytes.
        field_bytes: u64,
        /// Referents and their dependent actions.
        refs: Vec<ScanRef>,
        /// Whether the klass kind is hardware-iterable.
        hw: bool,
    },
    /// A streaming clear of `range` (the major epilogue's bitmap and
    /// card-table memsets).
    StreamClear {
        /// The cleared byte range.
        range: VRange,
    },
    /// A phase boundary, carrying the cache work the live run performed
    /// there.
    Phase {
        /// What happened at the boundary (see [`FlushKind`]).
        flush: FlushKind,
    },
}

/// The cache work a recorded [`TraceOp::Phase`] performed in the live run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushKind {
    /// A bare synchronization barrier; no cache state was touched.
    Barrier,
    /// The GC prologue's bulk host-cache flush (§4.6): `lines` cache
    /// lines invalidated, `dirty` of them written back.
    HostCaches {
        /// Lines invalidated across L1D/L2/L3.
        lines: u64,
        /// Dirty lines written back to memory.
        dirty: u64,
    },
    /// A bitmap-cache flush at a MajorGC phase boundary (§4.5).
    BitmapCache {
        /// Lines invalidated in the bitmap cache.
        lines: u64,
    },
}

impl FlushKind {
    /// Stable short name for telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            FlushKind::Barrier => "barrier",
            FlushKind::HostCaches { .. } => "host-caches",
            FlushKind::BitmapCache { .. } => "bitmap-cache",
        }
    }

    /// Lines the flush invalidated (zero for a bare barrier).
    pub fn lines(self) -> u64 {
        match self {
            FlushKind::Barrier => 0,
            FlushKind::HostCaches { lines, .. } => lines,
            FlushKind::BitmapCache { lines } => lines,
        }
    }
}

/// One collection's recorded operation stream.
#[derive(Debug, Clone, Default)]
pub struct GcTrace {
    /// Operations in issue order.
    pub ops: Vec<TraceOp>,
}

impl GcTrace {
    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of recorded primitive invocations (non-host ops).
    pub fn primitive_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    TraceOp::Copy { .. }
                        | TraceOp::Search { .. }
                        | TraceOp::BitmapCount { .. }
                        | TraceOp::ScanPush { .. }
                )
            })
            .count()
    }
}

/// Replays a trace on `sys` with `gc_threads` simulated threads; returns
/// the pause wall time and the rebuilt breakdown.
///
/// The replay dispatches work items to the least-loaded thread exactly as
/// the live collector does, so thread-level overlap and resource
/// contention re-emerge on the target configuration.
pub fn replay(trace: &GcTrace, sys: &mut System, gc_threads: usize) -> (Ps, Breakdown) {
    replay_at(trace, sys, gc_threads, Ps::ZERO)
}

/// [`replay`], but starting the replayed collection at `start` instead of
/// time zero.
///
/// Epoch-metered resources ([`charon_sim::bwres`]) index *absolute* time,
/// and the live collector opens every collection with a host barrier at
/// its start time — so replaying a recorded collection at the time it was
/// recorded, on a system in the same pre-collection state, reproduces the
/// live charges exactly. The `trace_replay` integration tests assert this
/// live == replay equality at `gc_threads == 1`.
pub fn replay_at(trace: &GcTrace, sys: &mut System, gc_threads: usize, start: Ps) -> (Ps, Breakdown) {
    sys.host.barrier(start);
    let mut threads = GcThreads::new(gc_threads, start);
    let mut pc = Pause::new(sys, &mut threads);
    for op in &trace.ops {
        match op {
            TraceOp::HostOp { instrs, accesses, stream: true, bucket } => {
                pc.stream(*bucket, *instrs, accesses);
            }
            TraceOp::HostOp { instrs, accesses, stream: false, bucket } => {
                pc.host(*bucket, *instrs, accesses);
            }
            TraceOp::Copy { src, dst, bytes } => {
                pc.prim(pc.pick(), PrimType::Copy, true, |sys, core, now| sys.prim_copy(core, now, *src, *dst, *bytes));
            }
            TraceOp::Search { start, bytes } => {
                pc.prim(pc.pick(), PrimType::Search, true, |sys, core, now| sys.prim_search(core, now, *start, *bytes));
            }
            TraceOp::BitmapCount { spans } => {
                pc.prim(pc.pick(), PrimType::BitmapCount, true, |sys, core, now| {
                    sys.prim_bitmap_count(core, now, spans)
                });
            }
            TraceOp::ScanPush { fields_start, field_bytes, refs, hw } => {
                pc.prim(pc.pick(), PrimType::ScanPush, *hw, |sys, core, now| {
                    sys.prim_scan_push(core, now, *fields_start, *field_bytes, refs, *hw)
                });
            }
            TraceOp::StreamClear { range } => {
                pc.charge(pc.pick(), Bucket::Other, true, |sys, core, now| sys.host_stream_clear(core, now, *range));
            }
            TraceOp::Phase { flush } => pc.serial(|sys, now| sys.replay_flush(now, *flush)),
        }
    }
    let end = pc.barrier();
    (end - start, pc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_replays_to_zero() {
        let t = GcTrace::default();
        assert!(t.is_empty());
        let (wall, bd) = replay(&t, &mut System::ddr4(), 4);
        assert_eq!(wall, Ps::ZERO);
        assert_eq!(bd.total(), Ps::ZERO);
    }

    #[test]
    fn synthetic_trace_orders_and_charges() {
        let t = GcTrace {
            ops: vec![
                TraceOp::Phase { flush: FlushKind::Barrier },
                TraceOp::Copy { src: VAddr(0x1000_0000), dst: VAddr(0x1200_0000), bytes: 65536 },
                TraceOp::Search { start: VAddr(0x1300_0000), bytes: 4096 },
                TraceOp::BitmapCount { spans: vec![(VAddr(0x1400_0000), 64)] },
                TraceOp::HostOp {
                    instrs: 50,
                    accesses: vec![(VAddr(0x1500_0000), AccessKind::Read)],
                    stream: false,
                    bucket: Bucket::Pop,
                },
            ],
        };
        assert_eq!(t.primitive_count(), 3);
        let (wall_host, bd_host) = replay(&t, &mut System::ddr4(), 2);
        let (wall_dev, bd_dev) = replay(&t, &mut System::charon(), 2);
        assert!(wall_host > Ps::ZERO && wall_dev > Ps::ZERO);
        assert!(bd_host.get(Bucket::Copy) > bd_dev.get(Bucket::Copy), "the copy dominates and Charon wins it");
        assert!(bd_host.get(Bucket::Pop).0 > 0 && bd_dev.get(Bucket::Pop).0 > 0);
    }
}
