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
//! DESIGN.md §3 "Charge protocol" states the contract.

use crate::breakdown::{Breakdown, Bucket};
use crate::system::System;
use crate::threads::GcThreads;
use charon_core::packet::PrimType;
use charon_heap::addr::VAddr;
use charon_sim::cache::AccessKind;
use charon_sim::telemetry::Event;
use charon_sim::time::Ps;

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
}

impl<'a> Pause<'a> {
    /// Opens the context at the threads' current time.
    pub fn new(sys: &'a mut System, threads: &'a mut GcThreads) -> Pause<'a> {
        let cores = sys.host.cores();
        let phase_start = threads.max_clock();
        Pause { sys, threads, bd: Breakdown::new(), cores, drain: Ps::ZERO, phase_start }
    }

    /// The least-loaded thread (work-stealing approximation).
    #[inline]
    pub fn pick(&self) -> usize {
        self.threads.least_loaded()
    }

    /// Size of the thread team.
    pub fn team(&self) -> usize {
        self.threads.len()
    }

    /// Books the span `f` takes on thread `t`, starting at the thread's
    /// clock, into `bucket`. `f` gets the system, the thread's core, and
    /// the start time, and returns the completion time. Host operations
    /// `f` records into a trace carry `bucket`.
    #[inline]
    pub fn charge(&mut self, t: usize, bucket: Bucket, active: bool, f: impl FnOnce(&mut System, usize, Ps) -> Ps) {
        let now = self.threads.clock(t);
        self.sys.charging = bucket;
        let end = f(self.sys, t % self.cores, now);
        self.bd.record(bucket, end - now);
        self.threads.advance(t, end, active);
    }

    /// A host operation on thread `t`.
    #[inline]
    pub fn host_on(&mut self, t: usize, bucket: Bucket, instrs: u64, accesses: &[(VAddr, AccessKind)]) {
        self.charge(t, bucket, true, |sys, core, now| sys.host_op(core, now, instrs, accesses));
    }

    /// A host operation on the least-loaded thread, which is returned so
    /// dependent work can stay on it.
    #[inline]
    pub fn host(&mut self, bucket: Bucket, instrs: u64, accesses: &[(VAddr, AccessKind)]) -> usize {
        let t = self.pick();
        self.host_on(t, bucket, instrs, accesses);
        t
    }

    /// One iteration of an independent loop on thread `t`: the thread
    /// advances by the compute time only, and the memory completion folds
    /// into the drain the next barrier absorbs.
    #[inline]
    pub fn stream_on(&mut self, t: usize, bucket: Bucket, instrs: u64, accesses: &[(VAddr, AccessKind)]) {
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
    pub fn stream(&mut self, bucket: Bucket, instrs: u64, accesses: &[(VAddr, AccessKind)]) -> usize {
        let t = self.pick();
        self.stream_on(t, bucket, instrs, accesses);
        t
    }

    /// One primitive on thread `t`: `f` is the `sys.prim_*` call. Whether
    /// the thread executed the span or sat blocked on an offload response
    /// is asked after the call, because a watchdog verdict inside it
    /// moves the primitive to the host for good.
    #[inline]
    pub fn prim(&mut self, t: usize, prim: PrimType, hw: bool, f: impl FnOnce(&mut System, usize, Ps) -> Ps) {
        let now = self.threads.clock(t);
        let end = f(self.sys, t % self.cores, now);
        self.bd.record(Bucket::of(prim), end - now);
        self.threads.advance(t, end, !self.sys.prim_blocked(prim, hw));
    }

    /// An integrity follow-up on thread `t` (`f` chains `integrity::after_*`
    /// hooks): host-executed, free when the layer is off.
    #[inline]
    pub fn check(&mut self, t: usize, bucket: Bucket, f: impl FnOnce(&mut System, usize, Ps) -> Ps) {
        if self.sys.integrity.is_some() {
            self.charge(t, bucket, true, f);
        }
    }

    /// A serial step (prologue, bitmap-cache flush, end-of-mark verify):
    /// everyone waits, thread 0 runs `f` with the rest idle, everyone
    /// waits again. Serial steps sit between telemetry phases.
    pub fn serial(&mut self, f: impl FnOnce(&mut System, Ps) -> Ps) {
        self.barrier();
        self.charge(0, Bucket::Other, false, |sys, _, now| f(sys, now));
        self.phase_start = self.barrier();
    }

    /// A barrier: absorbs the outstanding stream drain and synchronizes
    /// all threads to the latest clock, which is returned.
    pub fn barrier(&mut self) -> Ps {
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

    /// Closes a barrier-delimited phase: barrier, a `Phase` marker so a
    /// trace replay resynchronizes here too, then the telemetry mark.
    pub fn close_phase(&mut self, name: &'static str) {
        self.barrier();
        self.sys.note_phase_barrier();
        self.end_phase(name);
    }

    /// Closes the context (after the collection's final barrier).
    pub fn finish(self) -> Breakdown {
        debug_assert_eq!(self.drain, Ps::ZERO, "a stream drain is still outstanding: barrier first");
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
        pc.prim(t, PrimType::Copy, true, |s, c, now| s.prim_copy(c, now, VAddr(0x10_0000), VAddr(0x20_0000), 4096));
        pc.prim(pc.pick(), PrimType::Search, true, |s, c, now| s.prim_search(c, now, VAddr(0x30_0000), 512));
        pc.prim(pc.pick(), PrimType::BitmapCount, true, |s, c, now| {
            s.prim_bitmap_count(c, now, &[(VAddr(0x40_0000), 256)])
        });
        pc.prim(pc.pick(), PrimType::ScanPush, false, |s, c, now| {
            s.prim_scan_push(c, now, VAddr(0x50_0000), 64, &[], false)
        });
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
        assert_eq!(pc.host(Bucket::Other, 1000, &[]), 0);
        assert_eq!(pc.host(Bucket::Other, 10, &[]), 1);
        assert_eq!(pc.host(Bucket::Other, 10, &[]), 2);
        assert_eq!(pc.host(Bucket::Other, 10, &[]), 1);
        assert_eq!(pc.host(Bucket::Other, 10, &[]), 2);
        pc.barrier();
        assert_eq!(pc.pick(), 0, "a barrier levels the team");
    }

    #[test]
    fn every_span_is_in_one_bucket_and_one_thread_clock() {
        for make in [System::ddr4, System::charon, System::ideal] {
            let mut sys = make();
            sys.enable_integrity(1, charon_sim::faults::CorruptionRates::zero(), Default::default());
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
        pc.serial(|sys, now| sys.gc_prologue(now));
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
