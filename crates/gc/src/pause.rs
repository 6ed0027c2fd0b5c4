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
//! The GC threads are ParallelScavenge's team, one per core: each work
//! item goes to the least-loaded thread, whose clock advances to the
//! item's completion, and a barrier jumps every clock to the latest.
//! There are no OS threads, so every schedule replays bit for bit
//! (DESIGN.md decision 6). Every collection opens the same way, in
//! [`Pause::open`]: the clocks at the start time, each core's miss window
//! reset there, and the §4.6 prologue.
//!
//! It is also where a primitive is observed: [`Pause::prim`] journals the
//! span on its GC thread's row and samples its issue→complete latency,
//! so [`System::prim`] is pure timing. DESIGN.md §3 "Charge protocol"
//! states the contract.

use crate::breakdown::{Breakdown, Bucket};
use crate::system::System;
use charon_core::device::OffloadCall;
use charon_heap::addr::{VAddr, VRange};
use charon_heap::markbitmap::MarkBitmap;
use charon_sim::cache::AccessKind;
use charon_sim::profile::Channel;
use charon_sim::telemetry::Event;
use charon_sim::time::Ps;

/// A GC thread, as [`Pause::pick`] chose it: a plain handle that lets
/// dependent work (a pop's copy, fixup and Scan&Push) stay on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tid(usize);

/// A step the collector asks thread 0 to run while the rest of the team
/// idles or goes on; what it costs is the machine's business (a flush on
/// one platform is free on another).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The GC prologue: a bulk host-cache flush under a memory-side
    /// offloading backend that offloads something (§4.6), nothing
    /// elsewhere. [`Pause::open`] runs it; no collector asks for it.
    Prologue,
    /// A bitmap-cache flush at a MajorGC phase boundary (§4.5); nothing
    /// without a device.
    FlushBitmapCache,
}

/// The charging context of one collection.
pub(crate) struct Pause<'a> {
    /// The machine being charged. Collectors read costs and call the
    /// integrity hooks through it; time only moves through the methods
    /// below.
    pub sys: &'a mut System,
    /// Each GC thread's clock.
    clocks: Vec<Ps>,
    /// Each GC thread's time executing on its host core, as opposed to
    /// blocked on an offload response.
    host_active: Vec<Ps>,
    bd: Breakdown,
    cores: usize,
    /// High-water completion time of the streamed memory operations
    /// issued since the last barrier.
    drain: Ps,
    /// Where the telemetry phase now open began.
    phase_start: Ps,
    /// Each thread's last bitmap query since the last barrier, as
    /// `(region, object)` — HotSpot's per-compaction-manager last-query
    /// cache, which decides how much bitmap the next query reads.
    last_query: Vec<Option<(VAddr, VAddr)>>,
}

/// What a closed pause adds up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseTotals {
    /// Every span the pause booked, by Fig. 4 bucket.
    pub breakdown: Breakdown,
    /// When the last GC thread finished (the final barrier).
    pub end: Ps,
    /// Host-active time summed over the GC threads; feeds the energy
    /// model.
    pub host_active: Ps,
}

impl<'a> Pause<'a> {
    /// Opens a collection at `start` on `threads` GC threads: every clock
    /// at `start`, each core's miss window reset there, then the GC
    /// prologue as a serial step.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn open(sys: &'a mut System, threads: usize, start: Ps) -> Pause<'a> {
        assert!(threads > 0, "need at least one GC thread");
        sys.host.barrier(start);
        let cores = sys.host.cores();
        let mut pc = Pause {
            sys,
            clocks: vec![start; threads],
            host_active: vec![Ps::ZERO; threads],
            bd: Breakdown::new(),
            cores,
            drain: Ps::ZERO,
            phase_start: start,
            last_query: vec![None; threads],
        };
        pc.serial(Step::Prologue);
        pc
    }

    /// The least-loaded thread (work-stealing approximation), for the
    /// next op charged; ties go to the lowest index, which is what makes
    /// dispatch order deterministic.
    #[inline]
    pub fn pick(&self) -> Tid {
        let earliest = self.clocks.iter().enumerate().min_by_key(|&(_, &c)| c);
        Tid(earliest.expect("at least one GC thread").0)
    }

    /// Moves thread `t`'s clock to `to`, booking the span as host-active
    /// when the thread executed it rather than waited on an offload.
    #[inline]
    fn advance(&mut self, t: usize, to: Ps, active: bool) {
        let from = self.clocks[t];
        debug_assert!(to >= from, "GC thread {t} moving backwards: {from} -> {to}");
        self.clocks[t] = to;
        if active {
            self.host_active[t] += to.saturating_sub(from);
        }
    }

    /// The latest thread clock, without synchronizing anything.
    fn max_clock(&self) -> Ps {
        self.clocks.iter().copied().max().expect("at least one GC thread")
    }

    /// Books the span `f` takes on thread `t`, starting at the thread's
    /// clock, into `bucket`. `f` gets the system, the thread's core, and
    /// the start time, and returns the completion time.
    #[inline]
    fn charge(&mut self, Tid(t): Tid, bucket: Bucket, active: bool, f: impl FnOnce(&mut System, usize, Ps) -> Ps) {
        let now = self.clocks[t];
        let end = f(self.sys, t % self.cores, now);
        self.bd.record(bucket, end - now);
        self.advance(t, end, active);
    }

    /// A host operation on thread `t`.
    #[inline]
    pub fn host_on(&mut self, t: Tid, bucket: Bucket, instrs: u64, accesses: &[(VAddr, AccessKind)]) {
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
        let mut mem = Ps::ZERO;
        self.charge(t, bucket, true, |sys, core, now| {
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

    /// One primitive on thread `t`, in the primitive's bucket; `hw` is
    /// false for a Scan&Push over a klass kind the hardware cannot iterate
    /// (§4.4). The one place a primitive's issue→complete is observed: the
    /// span is journaled on the thread's row and its latency sampled into
    /// the profiler. Whether the thread executed the span or sat blocked
    /// on an offload response is asked after the call, because a watchdog
    /// verdict inside it moves the primitive to the host for good.
    #[inline]
    pub fn prim(&mut self, Tid(t): Tid, call: OffloadCall<'_>, hw: bool) {
        let now = self.clocks[t];
        let end = self.sys.prim(t % self.cores, now, call, hw);
        let prim = call.prim();
        self.sys.telemetry.record(|| Event::Prim {
            prim: prim.name(),
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
        self.sys
            .profiler
            .record(Channel::prim(prim.encode(), false), end.saturating_sub(now));
        self.bd.record(Bucket::of(prim), end - now);
        self.advance(t, end, !self.sys.prim_blocked(prim, hw));
    }

    /// A streaming clear of `range` on thread `t` (the major epilogue's
    /// bitmap and card-table memsets).
    pub fn clear(&mut self, t: Tid, range: VRange) {
        self.charge(t, Bucket::Other, true, |sys, core, now| sys.host_stream_clear(core, now, range));
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
        let from = match self.last_query[t.0].replace((region, obj)) {
            Some((r, at)) if r == region && obj >= at => at,
            _ => region,
        };
        let span = VRange::new(from, obj);
        if span.is_empty() {
            return self.host_on(t, Bucket::BitmapCount, 6, &[]);
        }
        let (beg, end) = maps;
        let first = beg.map_word_addr(span.start);
        let last = beg.map_word_addr(VAddr(span.end.0 - 8).max(span.start));
        let bytes = (last - first) + 8;
        let end_first = end.map_word_addr(span.start);
        if span.bytes() < OFFLOAD_SPAN_BYTES {
            // Host fast path: a few map words through the cache hierarchy.
            let (instrs, acc) = (self.sys.costs.bitmap_per_map_word * (bytes / 8), AccessKind::Read);
            self.host_on(t, Bucket::BitmapCount, instrs, &[(first, acc), (end_first, acc)]);
        } else {
            self.prim(t, OffloadCall::BitmapCount { spans: &[(first, bytes), (end_first, bytes)] }, true);
        }
    }

    /// An integrity follow-up on thread `t` (`f` chains `integrity::after_*`
    /// hooks): host-executed, free when the layer is off.
    #[inline]
    pub fn check(&mut self, t: Tid, bucket: Bucket, f: impl FnOnce(&mut System, usize, Ps) -> Ps) {
        if self.sys.integrity.is_some() {
            self.charge(t, bucket, true, f);
        }
    }

    /// A serial integrity step (the end-of-mark verify): when the layer is
    /// armed, everyone waits, thread 0 runs `f` with the rest idle,
    /// everyone waits again.
    pub fn check_serial(&mut self, f: impl FnOnce(&mut System, Ps) -> Ps) {
        if self.sys.integrity.is_some() {
            self.barrier();
            self.charge(Tid(0), Bucket::Other, false, |sys, _, now| f(sys, now));
            self.phase_start = self.barrier();
        }
    }

    /// Thread 0 runs `step` while the others go on.
    pub fn step(&mut self, step: Step) {
        self.charge(Tid(0), Bucket::Other, false, |sys, _, now| match step {
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
    /// all threads to the latest clock, which is returned. Waiting for the
    /// drain or for another thread is not host-active. A phase ends here,
    /// and so does every thread's last bitmap query.
    pub fn barrier(&mut self) -> Ps {
        self.last_query.fill(None);
        let end = self.max_clock().max(std::mem::take(&mut self.drain));
        self.clocks.fill(end);
        end
    }

    /// Ends the open telemetry phase at the latest thread clock, without
    /// synchronizing anything (MinorGC's phases overlap).
    pub fn end_phase(&mut self, name: &'static str) {
        let (seq, start, end) = (self.sys.collection_seq, self.phase_start, self.max_clock());
        self.sys.telemetry.record(|| Event::Phase { seq, name, start, end });
        self.phase_start = end;
    }

    /// Closes a barrier-delimited phase: barrier, then the telemetry mark.
    pub fn close_phase(&mut self, name: &'static str) {
        self.barrier();
        self.end_phase(name);
    }

    /// Closes the context (after the collection's final barrier).
    pub fn finish(self) -> PauseTotals {
        debug_assert_eq!(self.drain, Ps::ZERO, "a stream drain is still outstanding: barrier first");
        PauseTotals { breakdown: self.bd, end: self.max_clock(), host_active: self.host_active.iter().copied().sum() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::OffloadMask;

    const START: Ps = Ps(1_000_000);

    /// `START` plus `ps`.
    fn at(ps: u64) -> Ps {
        START + Ps(ps)
    }

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
        let mut pc = Pause::open(&mut sys, 3, START);
        // Equal clocks: lowest index first; a longer op keeps its thread
        // out of rotation until the others catch up.
        let picked: Vec<usize> = [1000, 10, 10, 10, 10]
            .into_iter()
            .map(|instrs| pc.host(Bucket::Other, instrs, &[]).0)
            .collect();
        assert_eq!(picked, [0, 1, 2, 1, 2]);
        pc.barrier();
        assert_eq!(pc.pick(), Tid(0), "a barrier levels the team");
    }

    #[test]
    fn earliest_breaks_ties_to_lowest_index() {
        let mut sys = System::ddr4();
        let mut pc = Pause::open(&mut sys, 3, START);
        assert_eq!(pc.pick(), Tid(0), "all equal: lowest index wins");
        pc.advance(0, at(100), true);
        assert_eq!(pc.pick(), Tid(1));
        pc.advance(1, at(100), true);
        pc.advance(2, at(100), true);
        assert_eq!(pc.pick(), Tid(0), "equal again: back to the lowest index");
    }

    #[test]
    fn least_loaded_balances() {
        let mut sys = System::ddr4();
        let mut pc = Pause::open(&mut sys, 2, START);
        let a = pc.pick();
        pc.advance(a.0, at(100), true);
        let b = pc.pick();
        assert_ne!(a, b);
        pc.advance(b.0, at(50), true);
        assert_eq!(pc.pick(), b, "b is still earlier");
    }

    #[test]
    fn advance_returns_the_covered_span() {
        let mut sys = System::ddr4();
        let mut pc = Pause::open(&mut sys, 1, START);
        pc.advance(0, at(100), true);
        pc.advance(0, at(100), true);
        assert_eq!(pc.clocks[0], at(100));
        assert_eq!(pc.host_active[0], Ps(100), "a no-op advance covers nothing");
    }

    #[test]
    fn active_vs_blocked_accounting() {
        let mut sys = System::ddr4();
        let mut pc = Pause::open(&mut sys, 1, START);
        pc.advance(0, at(100), true);
        pc.advance(0, at(300), false); // blocked 200
        pc.advance(0, at(350), true); // active 50
        let totals = pc.finish();
        assert_eq!((totals.host_active, totals.end), (Ps(150), at(350)));
    }

    #[test]
    fn barrier_syncs_all() {
        let mut sys = System::ddr4();
        let mut pc = Pause::open(&mut sys, 3, START);
        pc.advance(0, at(500), true);
        pc.advance(1, at(200), false);
        assert_eq!(pc.barrier(), at(500));
        assert_eq!(pc.clocks, [at(500); 3]);
        assert_eq!(pc.finish().host_active, Ps(500), "waiting at a barrier is not host-active");
    }

    #[test]
    fn barrier_and_raise_interact_correctly() {
        let mut sys = System::ddr4();
        let mut pc = Pause::open(&mut sys, 3, START);
        // A drain short of the latest clock: that clock keeps its lead.
        pc.advance(1, at(500), true);
        pc.drain = at(200);
        assert_eq!(pc.barrier(), at(500));
        assert_eq!(pc.clocks, [at(500); 3]);
        // A drain past every clock: the team waits for it, once.
        pc.drain = at(800);
        assert_eq!(pc.barrier(), at(800));
        assert_eq!(pc.barrier(), at(800));
        assert_eq!(pc.finish().host_active, Ps(500));
    }

    #[test]
    #[should_panic(expected = "need at least one GC thread")]
    fn zero_clocks_panics() {
        let _ = Pause::open(&mut System::ddr4(), 0, START);
    }

    #[test]
    #[should_panic(expected = "need at least one GC thread")]
    fn zero_threads_panics() {
        // A public collector reaches the same check.
        let mut heap = charon_heap::heap::JavaHeap::new(charon_heap::heap::HeapConfig::with_heap_bytes(1 << 20));
        let _ =
            crate::minor::minor_gc(&mut System::ddr4(), &mut heap, 0, START, &mut crate::freelist::FreeStore::new());
    }

    #[test]
    fn every_span_is_in_one_bucket_and_one_thread_clock() {
        for make in [System::ddr4, System::charon, System::ideal] {
            let mut sys = make();
            sys.enable_integrity(charon_sim::faults::CorruptionSite::BitmapWord.arm(1, 0.0), Default::default());
            let mut pc = Pause::open(&mut sys, 3, START);
            let (opened, prologue) = (pc.phase_start, pc.bd.total());
            mixed(&mut pc);
            let spans: Ps = pc.clocks.iter().map(|&c| c - opened).sum();
            assert_eq!(pc.bd.total() - prologue, spans, "Σ breakdown == Σ thread spans on {}", pc.sys.label());
            let copy = pc.bd.get(Bucket::Copy);
            assert_eq!(copy > Ps(7), pc.sys.label() != "Ideal", "the check lands beside its primitive");
        }
        // One thread, the prologue included: the pause is its bookings.
        let mut sys = System::charon();
        sys.host.mem_access(0, Ps::ZERO, 0x40, 8, AccessKind::Write);
        let mut pc = Pause::open(&mut sys, 1, START);
        assert!(pc.phase_start > START, "a dirty line makes the prologue flush");
        mixed(&mut pc);
        assert_eq!(pc.bd.total(), pc.clocks[0] - START);
    }

    #[test]
    fn the_stream_drain_is_absorbed_at_phase_close() {
        let acc = [(VAddr(0x60_0000), AccessKind::Read)];
        let mut fresh = System::ddr4();
        fresh.host.barrier(START);
        let (cpu, mem) = fresh.host_stream_op(0, START, 9, &acc);
        assert!(mem > cpu, "a cold miss outlives its instructions");
        let mut sys = System::ddr4();
        let mut pc = Pause::open(&mut sys, 2, START);
        pc.stream(Bucket::Other, 9, &acc);
        assert_eq!(pc.max_clock(), cpu, "the thread moves on after the compute");
        pc.close_phase("walk");
        assert_eq!(pc.barrier(), mem, "the phase ends when the memory does, once");
        let totals = pc.finish();
        assert_eq!(totals.end, mem);
        assert_eq!(totals.breakdown.total(), cpu - START, "waiting for the drain is nobody's bucket");
    }

    #[test]
    fn host_active_follows_where_the_primitive_ran() {
        let run = |mut sys: System| {
            let mut pc = Pause::open(&mut sys, 2, START);
            let prologue = pc.bd.total();
            mixed(&mut pc);
            pc.barrier();
            (pc.finish(), prologue)
        };
        // Mask off: the device is never asked and the prologue flushes
        // nothing, so the machine is the HMC host and every span is
        // host-active, primitive or not.
        let mut masked = System::charon();
        masked.offload = OffloadMask::none();
        let (totals, prologue) = run(masked);
        assert_eq!((totals, prologue), run(System::hmc()));
        assert_eq!(totals.host_active, totals.breakdown.total());
        // Default mask: the three hardware-iterable primitives and the
        // prologue flush block, the metadata-kind Scan&Push and the host
        // ops execute.
        let (totals, prologue) = run(System::charon());
        let bd = totals.breakdown;
        let blocked = bd.get(Bucket::Copy) + bd.get(Bucket::Search) + bd.get(Bucket::BitmapCount) + prologue;
        assert_eq!(totals.host_active, bd.total() - blocked, "exactly the offloaded spans are blocked");
    }
}
