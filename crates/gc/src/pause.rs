//! The per-collection charging context — the one seam between what a
//! collector *does* and where the simulated time of it is booked.
//!
//! A pause is a flow of host operations and the four primitives; each one
//! occupies a span on exactly one simulated GC thread and lands in exactly
//! one Fig. 4 bucket. [`Pause`] owns both ledgers (the thread clocks and
//! the [`Breakdown`]) for the duration of a collection and is the only
//! code that writes to either, so `Σ breakdown == Σ thread spans` holds by
//! construction and the blocked-vs-executing decision that feeds the
//! energy model is taken in one place ([`System::prim_blocked`]).
//!
//! It is also the trace recorder ([`crate::trace`]): every method that
//! charges an op appends it — with its thread and whether that thread was
//! picked or reused — to the collection's trace when
//! [`System::record_traces`] is set, and a replay calls the same methods.
//! DESIGN.md §3 "Charge protocol" states the contract.

use crate::breakdown::{Breakdown, Bucket};
use crate::system::System;
use crate::threads::GcThreads;
use crate::trace::{GcTrace, On, Step, TraceOp};
use charon_core::device::OffloadCall;
use charon_heap::addr::{VAddr, VRange};
use charon_heap::markbitmap::MarkBitmap;
use charon_sim::cache::AccessKind;
use charon_sim::telemetry::Event;
use charon_sim::time::Ps;

/// A GC thread as [`Pause::pick`] chose it. The next op charged takes the
/// pick; every later op on the same handle is a reuse of that op's thread,
/// which is what lets a replay that picks differently keep dependent work
/// together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tid {
    /// The thread's index in the team.
    pub index: usize,
    /// The index of the op the pick was taken for.
    pick: u32,
}

/// The charging context of one collection.
pub(crate) struct Pause<'a> {
    /// The machine being charged. Collectors read costs and call the
    /// integrity hooks through it; time only moves through the methods
    /// below.
    pub sys: &'a mut System,
    threads: &'a mut GcThreads,
    bd: Breakdown,
    cores: usize,
    /// High-water completion time of the streamed memory operations
    /// issued since the last barrier.
    drain: Ps,
    /// Where the telemetry phase now open began.
    phase_start: Ps,
    /// The index the next op gets, counted whether or not a trace is kept.
    seq: u32,
    /// The trace being recorded, when [`System::record_traces`] is set.
    trace: Option<GcTrace>,
    /// Each thread's last bitmap query since the last barrier, as
    /// `(region, object)` — HotSpot's per-compaction-manager last-query
    /// cache, which decides how much bitmap the next query reads.
    last_query: Vec<Option<(VAddr, VAddr)>>,
}

impl<'a> Pause<'a> {
    /// Opens the context at the threads' current time.
    pub fn new(sys: &'a mut System, threads: &'a mut GcThreads) -> Pause<'a> {
        let cores = sys.host.cores();
        let phase_start = threads.max_clock();
        let trace = sys.record_traces.then(GcTrace::default);
        let last_query = vec![None; threads.len()];
        Pause { sys, threads, bd: Breakdown::new(), cores, drain: Ps::ZERO, phase_start, seq: 0, trace, last_query }
    }

    /// The least-loaded thread (work-stealing approximation), for the
    /// next op charged.
    #[inline]
    pub fn pick(&self) -> Tid {
        Tid { index: self.threads.least_loaded(), pick: self.seq }
    }

    /// How the op about to be charged names thread `t`: picked for it, or
    /// reusing an earlier op's pick.
    #[inline]
    fn on(&self, t: Tid) -> On {
        On { thread: t.index as u32, reuse: (t.pick != self.seq).then_some(t.pick) }
    }

    /// Counts the op about to be charged and, when a trace is kept,
    /// appends it.
    #[inline]
    fn record(&mut self, op: impl FnOnce() -> TraceOp) {
        if let Some(trace) = &mut self.trace {
            trace.ops.push(op());
        }
        self.seq += 1;
    }

    /// Books the span `f` takes on thread `t`, starting at the thread's
    /// clock, into `bucket`. `f` gets the system, the thread's core, and
    /// the start time, and returns the completion time.
    #[inline]
    fn charge(&mut self, t: usize, bucket: Bucket, active: bool, f: impl FnOnce(&mut System, usize, Ps) -> Ps) {
        let now = self.threads.clock(t);
        let end = f(self.sys, t % self.cores, now);
        self.bd.record(bucket, end - now);
        self.threads.advance(t, end, active);
    }

    /// A host operation on thread `t`.
    #[inline]
    pub fn host_on(&mut self, t: Tid, bucket: Bucket, instrs: u64, accesses: &[(VAddr, AccessKind)]) {
        let on = self.on(t);
        self.record(|| TraceOp::Host { on, bucket, instrs, accesses: accesses.to_vec(), stream: false });
        self.run_host(t.index, bucket, instrs, accesses);
    }

    #[inline]
    fn run_host(&mut self, t: usize, bucket: Bucket, instrs: u64, accesses: &[(VAddr, AccessKind)]) {
        self.charge(t, bucket, true, |sys, core, now| sys.host_op(core, now, instrs, accesses));
    }

    /// A host operation on the least-loaded thread, which is returned so
    /// dependent work can stay on it.
    #[inline]
    pub fn host(&mut self, bucket: Bucket, instrs: u64, accesses: &[(VAddr, AccessKind)]) -> Tid {
        let t = self.pick();
        self.host_on(t, bucket, instrs, accesses);
        t
    }

    /// One iteration of an independent loop on thread `t`: the thread
    /// advances by the compute time only, and the memory completion folds
    /// into the drain the next barrier absorbs.
    #[inline]
    pub fn stream_on(&mut self, t: Tid, bucket: Bucket, instrs: u64, accesses: &[(VAddr, AccessKind)]) {
        let on = self.on(t);
        self.record(|| TraceOp::Host { on, bucket, instrs, accesses: accesses.to_vec(), stream: true });
        let mut mem = Ps::ZERO;
        self.charge(t.index, bucket, true, |sys, core, now| {
            let (cpu, done) = sys.host_stream_op(core, now, instrs, accesses);
            mem = done;
            cpu
        });
        self.drain = self.drain.max(mem);
    }

    /// [`Pause::stream_on`] the least-loaded thread, which is returned.
    #[inline]
    pub fn stream(&mut self, bucket: Bucket, instrs: u64, accesses: &[(VAddr, AccessKind)]) -> Tid {
        let t = self.pick();
        self.stream_on(t, bucket, instrs, accesses);
        t
    }

    /// One primitive on thread `t`; `hw` is false for a Scan&Push over a
    /// klass kind the hardware cannot iterate (§4.4).
    #[inline]
    pub fn prim(&mut self, t: Tid, call: OffloadCall<'_>, hw: bool) {
        let on = self.on(t);
        self.record(|| TraceOp::Prim { on, call: call.into(), hw });
        self.run_prim(t.index, call, hw);
    }

    /// Runs `call` on thread `t`, in the primitive's bucket, and journals
    /// the span on that thread's row. Whether the thread executed the span
    /// or sat blocked on an offload response is asked after the call,
    /// because a watchdog verdict inside it moves the primitive to the
    /// host for good.
    #[inline]
    fn run_prim(&mut self, t: usize, call: OffloadCall<'_>, hw: bool) {
        let now = self.threads.clock(t);
        let end = self.sys.prim(t % self.cores, now, call, hw);
        self.sys.telemetry.record(|| Event::Prim {
            prim: call.prim().name(),
            thread: t,
            start: now,
            end,
            bytes: match call {
                OffloadCall::Copy { bytes, .. } => bytes,
                OffloadCall::Search { scanned_bytes, .. } => scanned_bytes,
                OffloadCall::BitmapCount { spans } => spans.iter().map(|&(_, b)| b).sum(),
                OffloadCall::ScanPush { field_bytes, .. } => field_bytes,
            },
        });
        self.bd.record(Bucket::of(call.prim()), end - now);
        self.threads.advance(t, end, !self.sys.prim_blocked(call.prim(), hw));
    }

    /// A streaming clear of `range` on thread `t` (the major epilogue's
    /// bitmap and card-table memsets).
    pub fn clear(&mut self, t: Tid, range: VRange) {
        let on = self.on(t);
        self.record(|| TraceOp::Clear { on, range });
        self.charge(t.index, Bucket::Other, true, |sys, core, now| sys.host_stream_clear(core, now, range));
    }

    /// One `live_words_in_range` query on thread `t` for `obj`, in the
    /// compaction region starting at `region`, over the begin and end
    /// `maps`. It reads the bitmap from the region start — or, when `t`'s
    /// previous query since the last barrier was in the same region and
    /// not past `obj`, only the delta from that query. Tiny spans (the
    /// common cached case, under four map words) stay on the host on every
    /// backend — §3.3: "operations … are essentially single atomic
    /// instructions whose potential benefits from offloading are outweighed
    /// by the overheads due to their small offloading granularities".
    /// Larger spans go through the Bitmap Count primitive.
    pub fn bitmap_query(&mut self, t: Tid, maps: (MarkBitmap, MarkBitmap), region: VAddr, obj: VAddr) {
        // Four 64-bit map words of coverage: 4 x 64 heap words x 8 B.
        const OFFLOAD_SPAN_BYTES: u64 = 4 * 64 * 8;
        let on = self.on(t);
        self.record(|| TraceOp::Query { on, region, obj });
        if let Some(trace) = &mut self.trace {
            trace.maps = Some(maps);
        }
        let from = match self.last_query[t.index].replace((region, obj)) {
            Some((r, at)) if r == region && obj >= at => at,
            _ => region,
        };
        let span = VRange::new(from, obj);
        if span.is_empty() {
            return self.run_host(t.index, Bucket::BitmapCount, 6, &[]);
        }
        let (beg, end) = maps;
        let first = beg.map_word_addr(span.start);
        let last = beg.map_word_addr(VAddr(span.end.0 - 8).max(span.start));
        let bytes = (last - first) + 8;
        let end_first = end.map_word_addr(span.start);
        if span.bytes() < OFFLOAD_SPAN_BYTES {
            // Host fast path: a few map words through the cache hierarchy.
            let (instrs, acc) = (self.sys.costs.bitmap_per_map_word * (bytes / 8), AccessKind::Read);
            self.run_host(t.index, Bucket::BitmapCount, instrs, &[(first, acc), (end_first, acc)]);
        } else {
            self.run_prim(t.index, OffloadCall::BitmapCount { spans: &[(first, bytes), (end_first, bytes)] }, true);
        }
    }

    /// An integrity follow-up on thread `t` (`f` chains `integrity::after_*`
    /// hooks): host-executed, free when the layer is off. Not recorded.
    #[inline]
    pub fn check(&mut self, t: Tid, bucket: Bucket, f: impl FnOnce(&mut System, usize, Ps) -> Ps) {
        if self.sys.integrity.is_some() {
            self.charge(t.index, bucket, true, f);
        }
    }

    /// A serial integrity step (the end-of-mark verify): when the layer is
    /// armed, everyone waits, thread 0 runs `f` with the rest idle,
    /// everyone waits again. Only the barriers are recorded.
    pub fn check_serial(&mut self, f: impl FnOnce(&mut System, Ps) -> Ps) {
        if self.sys.integrity.is_some() {
            self.barrier();
            self.charge(0, Bucket::Other, false, |sys, _, now| f(sys, now));
            self.phase_start = self.barrier();
        }
    }

    /// Thread 0 runs `step` while the others go on.
    pub fn step(&mut self, step: Step) {
        self.record(|| TraceOp::Step(step));
        self.charge(0, Bucket::Other, false, |sys, _, now| match step {
            Step::Prologue => sys.gc_prologue(now),
            Step::FlushBitmapCache => sys.flush_bitmap_cache(now),
        });
    }

    /// A serial step: everyone waits, thread 0 runs `step` with the rest
    /// idle, everyone waits again. Serial steps sit between telemetry
    /// phases.
    pub fn serial(&mut self, step: Step) {
        self.barrier();
        self.step(step);
        self.phase_start = self.barrier();
    }

    /// A barrier: absorbs the outstanding stream drain and synchronizes
    /// all threads to the latest clock, which is returned. A phase ends
    /// here, and so does every thread's last bitmap query.
    pub fn barrier(&mut self) -> Ps {
        self.record(|| TraceOp::Barrier);
        self.last_query.fill(None);
        self.threads.advance_all_to(std::mem::take(&mut self.drain));
        self.threads.barrier()
    }

    /// Ends the open telemetry phase at the latest thread clock, without
    /// synchronizing anything (MinorGC's phases overlap).
    pub fn end_phase(&mut self, name: &'static str) {
        let (seq, start, end) = (self.sys.collection_seq, self.phase_start, self.threads.max_clock());
        self.sys.telemetry.record(|| Event::Phase { seq, name, start, end });
        self.phase_start = end;
    }

    /// Closes a barrier-delimited phase: barrier, then the telemetry mark.
    pub fn close_phase(&mut self, name: &'static str) {
        self.barrier();
        self.end_phase(name);
    }

    /// Closes the context (after the collection's final barrier) and files
    /// its trace, if one was recorded.
    pub fn finish(self) -> Breakdown {
        debug_assert_eq!(self.drain, Ps::ZERO, "a stream drain is still outstanding: barrier first");
        if let Some(trace) = self.trace {
            self.sys.traces.push(trace);
        }
        self.bd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::OffloadMask;

    const START: Ps = Ps(1_000_000);

    /// A mixed sequence on `pc`: host ops, all four primitives, a
    /// follow-up check, and a streamed op last (so nothing absorbs its
    /// drain before the caller looks).
    fn mixed(pc: &mut Pause) {
        let t = pc.host(Bucket::Pop, 40, &[(VAddr(0x1000), AccessKind::Read)]);
        pc.host_on(t, Bucket::Push, 12, &[(VAddr(0x2000), AccessKind::Write)]);
        pc.prim(t, OffloadCall::Copy { src: VAddr(0x10_0000), dst: VAddr(0x20_0000), bytes: 4096 }, true);
        pc.prim(pc.pick(), OffloadCall::Search { start: VAddr(0x30_0000), scanned_bytes: 512 }, true);
        pc.prim(pc.pick(), OffloadCall::BitmapCount { spans: &[(VAddr(0x40_0000), 256)] }, true);
        let call = OffloadCall::ScanPush { fields_start: VAddr(0x50_0000), field_bytes: 64, refs: &[] };
        pc.prim(pc.pick(), call, false);
        pc.check(t, Bucket::Copy, |_, _, now| now + Ps(7));
        pc.stream(Bucket::Other, 9, &[(VAddr(0x60_0000), AccessKind::Read)]);
    }

    #[test]
    fn work_goes_to_the_least_loaded_thread_in_order() {
        let mut sys = System::ddr4();
        let mut threads = GcThreads::new(3, START);
        let mut pc = Pause::new(&mut sys, &mut threads);
        // Equal clocks: lowest index first; a longer op keeps its thread
        // out of rotation until the others catch up.
        let picked: Vec<usize> = [1000, 10, 10, 10, 10]
            .into_iter()
            .map(|instrs| pc.host(Bucket::Other, instrs, &[]).index)
            .collect();
        assert_eq!(picked, [0, 1, 2, 1, 2]);
        pc.barrier();
        assert_eq!(pc.pick().index, 0, "a barrier levels the team");
    }

    #[test]
    fn every_span_is_in_one_bucket_and_one_thread_clock() {
        for make in [System::ddr4, System::charon, System::ideal] {
            let mut sys = make();
            sys.enable_integrity(charon_sim::faults::CorruptionSite::BitmapWord.arm(1, 0.0), Default::default());
            let mut threads = GcThreads::new(3, START);
            let mut pc = Pause::new(&mut sys, &mut threads);
            mixed(&mut pc);
            let bd = pc.bd;
            let spans: Ps = (0..3).map(|t| threads.clock(t) - START).sum();
            assert_eq!(bd.total(), spans, "Σ breakdown == Σ thread spans on {}", sys.label());
            assert_eq!(bd.get(Bucket::Copy) > Ps(7), sys.label() != "Ideal", "the check lands beside its primitive");
        }
        // One thread, serial steps included: the pause is its bookings.
        let mut sys = System::charon();
        let mut threads = GcThreads::new(1, START);
        let mut pc = Pause::new(&mut sys, &mut threads);
        pc.serial(Step::Prologue);
        mixed(&mut pc);
        let bd = pc.bd;
        assert_eq!(bd.total(), threads.clock(0) - START);
    }

    #[test]
    fn the_stream_drain_is_absorbed_at_phase_close() {
        let acc = [(VAddr(0x60_0000), AccessKind::Read)];
        let (cpu, mem) = System::ddr4().host_stream_op(0, START, 9, &acc);
        assert!(mem > cpu, "a cold miss outlives its instructions");
        let mut sys = System::ddr4();
        let mut threads = GcThreads::new(2, START);
        let mut pc = Pause::new(&mut sys, &mut threads);
        pc.stream(Bucket::Other, 9, &acc);
        assert_eq!(pc.threads.max_clock(), cpu, "the thread moves on after the compute");
        pc.close_phase("walk");
        assert_eq!(pc.barrier(), mem, "the phase ends when the memory does, once");
        assert_eq!(pc.finish().total(), cpu - START, "waiting for the drain is nobody's bucket");
    }

    #[test]
    fn host_active_follows_where_the_primitive_ran() {
        let run = |mut sys: System| {
            let mut threads = GcThreads::new(2, START);
            let mut pc = Pause::new(&mut sys, &mut threads);
            mixed(&mut pc);
            pc.barrier();
            let bd = pc.finish();
            (threads.total_host_active(), bd)
        };
        // Mask off: the device is never asked, so the machine is the HMC
        // host and every span is host-active, primitive or not.
        let mut masked = System::charon();
        masked.offload = OffloadMask::none();
        let (active, bd) = run(masked);
        assert_eq!((active, bd), run(System::hmc()));
        assert_eq!(active, bd.total());
        // Default mask: the three hardware-iterable primitives block, the
        // metadata-kind Scan&Push and the host ops execute.
        let (active, bd) = run(System::charon());
        let blocked = bd.get(Bucket::Copy) + bd.get(Bucket::Search) + bd.get(Bucket::BitmapCount);
        assert_eq!(active, bd.total() - blocked, "exactly the offloaded spans are blocked");
    }
}
