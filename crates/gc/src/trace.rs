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
//! The recorder is the charging context itself (`pause::Pause`): every
//! op a collection charges through it — host op, streamed op, primitive,
//! stream clear, bitmap query, serial step, barrier — is appended to the
//! collection's [`GcTrace`] when [`System::record_traces`] is set. An op
//! records what the collector asked for, not what the machine made of it:
//! the primitive's operands rather than its latency, "flush the bitmap
//! cache" rather than how many lines that flushed. A threaded op also
//! records the thread it ran on and whether the collector picked that
//! thread for it or reused the thread an earlier op was picked for
//! ([`On`]). A replay ([`replay_at`]) is a loop over the same `Pause`
//! methods: it picks again where the live run picked and reuses where the
//! live run reused, so the replayed pause equals the live one exactly —
//! wall and every Fig. 4 bucket — on the recording configuration at any
//! `gc_threads`, and, since a `ps` run's op stream does not depend on the
//! platform, on every other platform too (`tests/trace_replay.rs`).
//!
//! Not recorded, and so where that exactness stops: integrity follow-ups
//! (`Pause::check`, charged only when the corruption layer is armed) and
//! the `cms` collector's concurrent mark steps, which run between pauses
//! on the collector's wall clock rather than inside a collection.
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
use crate::pause::{Pause, Tid};
use crate::system::System;
use crate::threads::GcThreads;
use charon_core::device::{OffloadCall, ScanRef};
use charon_heap::addr::{VAddr, VRange};
use charon_heap::markbitmap::MarkBitmap;
use charon_sim::cache::AccessKind;
use charon_sim::time::Ps;

/// Which thread a recorded op ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct On {
    /// The thread, in the recording run.
    pub thread: u32,
    /// `None` when the collector picked the least-loaded thread for this
    /// op; `Some(i)` when it reused the thread op `i` of the same trace
    /// was picked for (a pop's dependent copy, fixup and Scan&Push).
    pub reuse: Option<u32>,
}

/// A recorded primitive: an [`OffloadCall`] that owns its operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrimCall {
    /// *Copy* `bytes` from `src` to `dst`.
    Copy {
        /// Source address.
        src: VAddr,
        /// Destination address.
        dst: VAddr,
        /// Payload bytes.
        bytes: u64,
    },
    /// *Search* the card table from `start`.
    Search {
        /// Scan start.
        start: VAddr,
        /// Bytes scanned until the result was known.
        scanned_bytes: u64,
    },
    /// *Bitmap Count* over map spans.
    BitmapCount {
        /// `(start, bytes)` spans read.
        spans: Vec<(VAddr, u64)>,
    },
    /// *Scan&Push* over an object's reference fields.
    ScanPush {
        /// First field slot.
        fields_start: VAddr,
        /// Field bytes.
        field_bytes: u64,
        /// Referents and their dependent actions.
        refs: Vec<ScanRef>,
    },
}

impl PrimCall {
    /// The call, to issue again.
    pub fn call(&self) -> OffloadCall<'_> {
        match *self {
            PrimCall::Copy { src, dst, bytes } => OffloadCall::Copy { src, dst, bytes },
            PrimCall::Search { start, scanned_bytes } => OffloadCall::Search { start, scanned_bytes },
            PrimCall::BitmapCount { ref spans } => OffloadCall::BitmapCount { spans },
            PrimCall::ScanPush { fields_start, field_bytes, ref refs } => {
                OffloadCall::ScanPush { fields_start, field_bytes, refs }
            }
        }
    }
}

impl From<OffloadCall<'_>> for PrimCall {
    fn from(call: OffloadCall<'_>) -> PrimCall {
        match call {
            OffloadCall::Copy { src, dst, bytes } => PrimCall::Copy { src, dst, bytes },
            OffloadCall::Search { start, scanned_bytes } => PrimCall::Search { start, scanned_bytes },
            OffloadCall::BitmapCount { spans } => PrimCall::BitmapCount { spans: spans.to_vec() },
            OffloadCall::ScanPush { fields_start, field_bytes, refs } => {
                PrimCall::ScanPush { fields_start, field_bytes, refs: refs.to_vec() }
            }
        }
    }
}

/// A step the collector asks thread 0 to run while the rest of the team
/// idles or goes on; what it costs is the machine's business (a flush on
/// one platform is free on another).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The GC prologue: a bulk host-cache flush under a memory-side
    /// offloading backend (§4.6), nothing elsewhere.
    Prologue,
    /// A bitmap-cache flush at a MajorGC phase boundary (§4.5); nothing
    /// without a device.
    FlushBitmapCache,
}

/// One recorded op, in the order the collector charged it.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// A host operation (pop, push, walk, fixup…), booked to `bucket`;
    /// `stream` when it was one iteration of an independent loop.
    Host {
        /// Where it ran.
        on: On,
        /// The Fig. 4 bucket it was booked to.
        bucket: Bucket,
        /// Instructions retired.
        instrs: u64,
        /// Word-sized memory accesses.
        accesses: Vec<(VAddr, AccessKind)>,
        /// Whether it was issued stream-style.
        stream: bool,
    },
    /// A primitive, in its own bucket. `hw` is false for a Scan&Push over
    /// a klass kind the hardware cannot iterate (§4.4).
    Prim {
        /// Where it ran.
        on: On,
        /// The call.
        call: PrimCall,
        /// Whether the klass kind is hardware-iterable.
        hw: bool,
    },
    /// A streaming clear of `range` (the major epilogue's bitmap and
    /// card-table memsets), in the Other bucket.
    Clear {
        /// Where it ran.
        on: On,
        /// The cleared byte range.
        range: VRange,
    },
    /// A `live_words_in_range` query of the MajorGC adjust/compact walks
    /// for the object at `obj` in the compaction region starting at
    /// `region`, in the Bitmap Count bucket. How much bitmap it reads
    /// depends on the thread's previous query, so a replay decides that
    /// again from the thread it runs the query on.
    Query {
        /// Where it ran.
        on: On,
        /// Start of the object's compaction region.
        region: VAddr,
        /// The queried object.
        obj: VAddr,
    },
    /// A step thread 0 ran, in the Other bucket.
    Step(Step),
    /// A barrier: the stream drain absorbed, the clocks levelled.
    Barrier,
}

impl TraceOp {
    /// The thread a threaded op ran on (`None` for steps and barriers).
    pub fn on(&self) -> Option<On> {
        match *self {
            TraceOp::Host { on, .. }
            | TraceOp::Prim { on, .. }
            | TraceOp::Clear { on, .. }
            | TraceOp::Query { on, .. } => Some(on),
            TraceOp::Step(_) | TraceOp::Barrier => None,
        }
    }
}

/// One collection's recorded operation stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GcTrace {
    /// Operations in issue order.
    pub ops: Vec<TraceOp>,
    /// The begin and end mark bitmaps the [`TraceOp::Query`] ops read
    /// (`None` when the collection made no query).
    pub maps: Option<(MarkBitmap, MarkBitmap)>,
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

    /// Number of recorded primitive invocations.
    pub fn primitive_count(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, TraceOp::Prim { .. })).count()
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
/// live charges exactly, at any `gc_threads`. Replaying a run's traces in
/// order on one system of another platform, each at the end of the one
/// before, reproduces that platform's live pauses.
///
/// # Panics
///
/// Panics if an op reuses the thread of an op that comes after it, or the
/// trace has a [`TraceOp::Query`] but no [`GcTrace::maps`].
pub fn replay_at(trace: &GcTrace, sys: &mut System, gc_threads: usize, start: Ps) -> (Ps, Breakdown) {
    sys.host.barrier(start);
    let mut threads = GcThreads::new(gc_threads, start);
    let mut pc = Pause::new(sys, &mut threads);
    // The thread every op ran on in this replay (unused for steps and
    // barriers), so a reuse follows its pick wherever that pick went.
    let mut ran_on: Vec<Tid> = Vec::with_capacity(trace.ops.len());
    for op in &trace.ops {
        let t = match op.on() {
            Some(On { reuse: Some(i), .. }) => ran_on[i as usize],
            _ => pc.pick(),
        };
        ran_on.push(t);
        match op {
            TraceOp::Host { bucket, instrs, accesses, stream: false, .. } => pc.host_on(t, *bucket, *instrs, accesses),
            TraceOp::Host { bucket, instrs, accesses, stream: true, .. } => pc.stream_on(t, *bucket, *instrs, accesses),
            TraceOp::Prim { call, hw, .. } => pc.prim(t, call.call(), *hw),
            TraceOp::Clear { range, .. } => pc.clear(t, *range),
            TraceOp::Query { region, obj, .. } => {
                pc.bitmap_query(t, trace.maps.expect("a trace with queries records its bitmaps"), *region, *obj)
            }
            TraceOp::Step(step) => pc.step(*step),
            TraceOp::Barrier => {
                pc.barrier();
            }
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
        let at = |thread, reuse| On { thread, reuse };
        let t = GcTrace {
            ops: vec![
                TraceOp::Barrier,
                TraceOp::Prim {
                    on: at(0, None),
                    call: PrimCall::Copy { src: VAddr(0x1000_0000), dst: VAddr(0x1200_0000), bytes: 65536 },
                    hw: true,
                },
                TraceOp::Prim {
                    on: at(1, None),
                    call: PrimCall::Search { start: VAddr(0x1300_0000), scanned_bytes: 4096 },
                    hw: true,
                },
                TraceOp::Prim {
                    on: at(1, Some(2)),
                    call: PrimCall::BitmapCount { spans: vec![(VAddr(0x1400_0000), 64)] },
                    hw: true,
                },
                TraceOp::Host {
                    on: at(0, Some(1)),
                    bucket: Bucket::Pop,
                    instrs: 50,
                    accesses: vec![(VAddr(0x1500_0000), AccessKind::Read)],
                    stream: false,
                },
            ],
            maps: None,
        };
        assert_eq!(t.primitive_count(), 3);
        let (wall_host, bd_host) = replay(&t, &mut System::ddr4(), 2);
        let (wall_dev, bd_dev) = replay(&t, &mut System::charon(), 2);
        assert!(wall_host > Ps::ZERO && wall_dev > Ps::ZERO);
        assert!(bd_host.get(Bucket::Copy) > bd_dev.get(Bucket::Copy), "the copy dominates and Charon wins it");
        assert!(bd_host.get(Bucket::Pop).0 > 0 && bd_dev.get(Bucket::Pop).0 > 0);
    }
}
