//! Micro-benchmarks of the functional kernels and hot simulator paths —
//! real wall-clock performance of this library (as opposed to
//! `charon-cli paper`, which reports *simulated* time). The L1-geometry
//! cache access and the single-meter `EpochBw` reservation are timed by
//! `perfbench` (`sim.cache_access_ns`, `sim.bwres_reserve_ns`), not here.
//!
//! Uses a plain `std::time::Instant` harness instead of criterion so the
//! workspace builds with no registry access (see README "Building
//! offline").

use charon_heap::addr::{VAddr, VRange};
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::klass::KlassKind;
use charon_heap::markbitmap::{live_words_fast, live_words_naive, mark_object, MarkBitmap};
use charon_heap::mem::HeapMemory;
use charon_sim::bwres::EpochBw;
use charon_sim::cache::{AccessKind, Cache};
use charon_sim::config::{HostConfig, SystemConfig};
use charon_sim::host::HostTiming;
use charon_sim::time::{Bandwidth, Ps};
use std::hint::black_box;
use std::time::Instant;

/// Times `iters` calls of `f` after a short warmup and prints ns/iter.
fn bench(name: &str, iters: u64, mut f: impl FnMut()) {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = t0.elapsed();
    println!(
        "{name:<48} {:>10.1} ns/iter   ({iters} iters, {:.1} ms total)",
        elapsed.as_nanos() as f64 / iters as f64,
        elapsed.as_secs_f64() * 1e3,
    );
}

fn bitmaps() -> (HeapMemory, MarkBitmap, MarkBitmap, VAddr) {
    let mut mem = HeapMemory::new(VAddr(0x10000), 0x80000);
    let covered = VRange::new(VAddr(0x10000), VAddr(0x10000 + 32 * 1024 * 8));
    let beg = MarkBitmap::new(VRange::new(VAddr(0x60000), VAddr(0x68000)), covered);
    let end = MarkBitmap::new(VRange::new(VAddr(0x70000), VAddr(0x78000)), covered);
    // Alternate live/dead runs.
    let mut w = 0;
    while w + 24 < 32 * 1024 {
        mark_object(&mut mem, &beg, &end, covered.start.add_words(w), 16);
        w += 24;
    }
    (mem, beg, end, covered.start)
}

fn bench_bitmap_count() {
    let (mem, beg, end, base) = bitmaps();
    bench("live_words/4KB naive (Fig. 8 bit loop)", 20_000, || {
        black_box(live_words_naive(&mem, &beg, &end, black_box(base), base.add_words(512), false));
    });
    bench("live_words/4KB fast (subtract+popcount, §4.3)", 200_000, || {
        black_box(live_words_fast(&mem, &beg, &end, black_box(base), base.add_words(512), false));
    });
}

/// The in-situ shape of a cache access: the Table 2 L3, whose metadata
/// outgrows the host's L2, under scattered line addresses that mostly miss
/// and evict.
fn bench_cache() {
    let l3 = HostConfig::table2().l3;
    let lines = 4 * (l3.size_bytes / l3.block_bytes) as u64;
    let mut cache = Cache::new("l3", l3);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    bench("cache/L3 geometry, working set 4x capacity", 2_000_000, || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let kind = if x >> 63 == 0 { AccessKind::Read } else { AccessKind::Write };
        black_box(cache.access((x % lines) * l3.block_bytes as u64, kind));
    });
}

/// The coherence probe Charon pays per touched line (§4.1): cold lines
/// right after the GC-start bulk flush, which is what almost every probe of
/// a collection sees, and lines some cache holds.
fn bench_clflush() {
    let mut host = HostTiming::new(&SystemConfig::table2_hmc());
    host.clflush_line(0); // first probe arms the may-be-resident filter
    host.flush_all_caches(Ps::ZERO);
    let mut i = 0u64;
    bench("host/clflush_line cold (after flush_all_caches)", 1_000_000, || {
        i = i.wrapping_add(64);
        black_box(host.clflush_line(i % (1 << 26)));
    });
    // Each iteration refills the line it then flushes, so the probe always
    // finds a resident copy; the pair is timed.
    let mut now = Ps::ZERO;
    bench("host/mem_access + clflush_line warm", 200_000, || {
        i = i.wrapping_add(64);
        let addr = i % (1 << 20);
        now = host.mem_access(0, now, addr, 8, AccessKind::Write);
        black_box(host.clflush_line(addr));
    });
}

/// What a Charon cell does to its vault and link meters: ~160 of them
/// touched in turn, simulated time moving on by one epoch for every ten
/// calls a meter sees, the request size changing on three calls in ten.
fn bench_epoch_bw() {
    let mut lanes = vec![EpochBw::from_bandwidth(Bandwidth::gbps(10.0), Ps::from_us(1.0)); 160];
    let mut call = 0u64;
    bench("bwres/160 lanes, advancing start, 16/64/80-unit mix", 4_000_000, || {
        let lane = &mut lanes[(call % 160) as usize];
        let units = [64, 64, 64, 64, 64, 64, 64, 16, 80, 80][(call / 160 % 10) as usize];
        black_box(lane.reserve(Ps(call * 625), units));
        call += 1;
    });
}

fn bench_alloc() {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(16 << 20));
    let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    bench("heap/alloc_eden + header init", 1_000_000, || {
        if heap.eden().free_bytes() < 4096 {
            heap.reset_young();
        }
        black_box(heap.alloc_eden(k, 62));
    });
}

fn bench_minor_gc() {
    use charon_gc::collector::Collector;
    use charon_gc::system::System;
    bench("gc/minor collection (2MB live, DDR4 timing)", 40, || {
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(16 << 20));
        let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
        let mut gc = Collector::new(System::ddr4(), &heap, 8);
        for i in 0..2000 {
            let a = gc.alloc(&mut heap, k, 126).expect("fits");
            if i % 4 == 0 {
                heap.add_root(a);
            }
        }
        gc.minor_gc(&mut heap);
        black_box(gc.gc_total_time());
    });
}

fn main() {
    bench_bitmap_count();
    bench_cache();
    bench_clflush();
    bench_epoch_bw();
    bench_alloc();
    bench_minor_gc();
}
