//! Collector policy: HotSpot's triggering and allocation behaviour, the
//! OOM path, and sanity laws of the primitive timing paths.

use charon_gc::collector::Collector;
use charon_gc::system::System;
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::klass::KlassKind;
use charon_heap::VAddr;
use charon_sim::time::Ps;

fn heap_with_arrays(bytes: u64) -> (JavaHeap, charon_heap::klass::KlassId) {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(bytes));
    let k = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    (heap, k)
}

#[test]
fn eden_exhaustion_triggers_minor_gc() {
    let (mut heap, k) = heap_with_arrays(8 << 20);
    let mut gc = Collector::new(System::ddr4(), &heap, 4);
    let eden = heap.eden().capacity_bytes();
    let obj_bytes = 8 * (2 + 1024u64);
    let n = eden / obj_bytes + 8; // deliberately overflow eden once
    for _ in 0..n {
        gc.alloc(&mut heap, k, 1024).unwrap();
    }
    assert_eq!(gc.count(charon_gc::GcKind::Minor), 1, "exactly one scavenge for one overflow");
    assert_eq!(gc.count(charon_gc::GcKind::Major), 0);
}

#[test]
fn large_objects_fall_back_to_old() {
    let (mut heap, k) = heap_with_arrays(8 << 20);
    let mut gc = Collector::new(System::ddr4(), &heap, 4);
    // Bigger than Eden: can never be young-allocated.
    let eden_words = heap.eden().capacity_bytes() / 8;
    let a = gc.alloc(&mut heap, k, (eden_words + 100) as u32).unwrap();
    assert!(heap.in_old(a), "oversized allocation must land in Old");
    // It is a fully valid object there.
    assert_eq!(heap.obj_klass(a).name(), "byte[]");
}

#[test]
fn true_exhaustion_reports_oom() {
    let (mut heap, k) = heap_with_arrays(2 << 20);
    let mut gc = Collector::new(System::ddr4(), &heap, 2);
    // Root everything so nothing can ever be reclaimed.
    let mut err = None;
    for _ in 0..4000 {
        match gc.alloc(&mut heap, k, 256) {
            Ok(a) => {
                heap.add_root(a);
            }
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    let e = err.expect("a fully live heap must eventually OOM");
    assert!(e.words > 0);
    assert!(e.to_string().contains("OutOfMemoryError"));
    // The failure is clean: the heap is still fully walkable, and the
    // fallible full collection reports the same condition without
    // touching state.
    let (sig, stats) = charon_gc::verify::graph_signature(&heap).expect("heap graph verifies");
    assert!(stats.bytes > heap.old().capacity_bytes(), "OOM really means live > old");
    assert!(gc.try_major_gc(&mut heap).is_err());
    let (sig2, _) = charon_gc::verify::graph_signature(&heap).expect("heap graph verifies");
    assert_eq!(sig, sig2, "an OOM must not corrupt the heap");
}

#[test]
fn event_log_is_complete_and_ordered() {
    let (mut heap, k) = heap_with_arrays(8 << 20);
    let mut gc = Collector::new(System::ddr4(), &heap, 4);
    for _ in 0..2000 {
        let a = gc.alloc(&mut heap, k, 128).unwrap();
        heap.add_root(a);
        if heap.root_count() > 400 {
            heap.set_root(heap.root_count() - 400, VAddr::NULL);
        }
    }
    gc.major_gc(&mut heap);
    assert!(!gc.events.is_empty());
    let mut prev_end = Ps::ZERO;
    for e in &gc.events {
        assert!(e.start >= prev_end, "GC events must not overlap");
        assert!(e.wall > Ps::ZERO);
        assert!(e.breakdown.total() > Ps::ZERO);
        assert!(e.host_active > Ps::ZERO);
        match e.kind {
            charon_gc::GcKind::Minor => assert!(e.minor.is_some() && e.major.is_none()),
            charon_gc::GcKind::Major => assert!(e.major.is_some() && e.minor.is_none()),
        }
        prev_end = e.start + e.wall;
    }
    assert_eq!(gc.gc_total_time(), gc.events.iter().map(|e| e.wall).sum());
    assert!(gc.now >= prev_end);
}

#[test]
fn copy_time_grows_with_size_on_every_backend() {
    for mk in [System::ddr4 as fn() -> System, System::hmc, System::charon, System::cpu_side] {
        let mut sys = mk();
        let label = sys.label();
        let small = sys.prim_copy(0, Ps::ZERO, VAddr(0x1000_0000), VAddr(0x1200_0000), 1 << 10);
        let mut sys = mk();
        let big = sys.prim_copy(0, Ps::ZERO, VAddr(0x1000_0000), VAddr(0x1200_0000), 1 << 20);
        assert!(big.0 > 4 * small.0, "{label}: 1 MB copy ({big}) must dwarf 1 KB copy ({small})");
    }
}

#[test]
fn search_time_scales_with_scanned_bytes() {
    let mut sys = System::ddr4();
    let short = sys.prim_search(0, Ps::ZERO, VAddr(0x1000_0000), 512);
    let mut sys = System::ddr4();
    let long = sys.prim_search(0, Ps::ZERO, VAddr(0x1000_0000), 64 << 10);
    assert!(long.0 > 8 * short.0);
}

#[test]
fn scan_push_time_grows_with_reference_count() {
    use charon_core::device::{ScanAction, ScanRef};
    let refs_of = |n: u64| -> Vec<ScanRef> {
        (0..n)
            .map(|i| ScanRef {
                referent: VAddr(0x1100_0000 + i * 4096),
                action: ScanAction::Push { stack_slot: VAddr(0x1400_0000 + i * 8) },
            })
            .collect()
    };
    // Start past the rank's t=0 refresh window so the small case is not
    // dominated by a tRFC stall.
    let t0 = Ps::from_ns(300.0);
    let mut sys = System::ddr4();
    let few = sys.prim_scan_push(0, t0, VAddr(0x1000_0000), 4 * 8, &refs_of(4), true) - t0;
    let mut sys = System::ddr4();
    let many = sys.prim_scan_push(0, t0, VAddr(0x1000_0000), 512 * 8, &refs_of(512), true) - t0;
    assert!(many.0 > 10 * few.0, "few={few}, many={many}");
}

#[test]
fn offload_mask_none_equals_host_backend_timing() {
    // With every primitive masked off, the Charon backend must behave like
    // the plain HMC host for the primitives themselves.
    let mut masked = System::charon();
    masked.offload = charon_gc::system::OffloadMask::none();
    let mut host = System::hmc();
    let a = masked.prim_copy(0, Ps::ZERO, VAddr(0x1000_0000), VAddr(0x1200_0000), 64 << 10);
    let b = host.prim_copy(0, Ps::ZERO, VAddr(0x1000_0000), VAddr(0x1200_0000), 64 << 10);
    assert_eq!(a, b, "masked offload must take the identical host path");
}

#[test]
fn gc_threads_one_is_valid_and_slowest() {
    let mk = |threads| {
        let (mut heap, k) = heap_with_arrays(8 << 20);
        let mut gc = Collector::new(System::ddr4(), &heap, threads);
        for _ in 0..1500 {
            let a = gc.alloc(&mut heap, k, 200).unwrap();
            heap.add_root(a);
        }
        gc.minor_gc(&mut heap);
        gc.gc_total_time()
    };
    let t1 = mk(1);
    let t4 = mk(4);
    assert!(t4 < t1, "4 GC threads ({t4}) must beat 1 ({t1})");
}

/// Host-active time follows where a primitive ran, not which backend is
/// installed: with every offload-mask bit off, an offloading backend runs
/// all four primitives on the host, so the single GC thread is executing
/// for the whole pause (the CPU-side prologue flushes nothing, and
/// neither collection streams). With the default mask the thread spends
/// the primitives blocked on the device.
#[test]
fn mask_off_primitives_are_booked_host_active() {
    use charon_gc::system::OffloadMask;
    let run = |mask: OffloadMask| {
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
        let node = heap.klasses_mut().register("Node", KlassKind::Instance, 4, vec![0]);
        let mut sys = System::cpu_side();
        sys.offload = mask;
        let mut gc = Collector::new(sys, &heap, 1);
        for _ in 0..2000 {
            let a = gc.alloc(&mut heap, node, 0).unwrap();
            heap.add_root(a);
        }
        let e = gc.minor_gc(&mut heap).clone();
        (e.host_active, e.wall, e.breakdown.total())
    };
    let (active, wall, booked) = run(OffloadMask::none());
    assert_eq!(booked, wall, "one thread, no stream drain: every picosecond of the pause is booked");
    assert_eq!(active, wall, "primitives that ran on the host are host-active");
    let (active, wall, _) = run(OffloadMask::all());
    assert!(active < wall, "offloaded primitives block the thread: {active} of {wall}");
}
