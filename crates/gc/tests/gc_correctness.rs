//! End-to-end correctness of both collections: the reachable object graph
//! must survive MinorGC and MajorGC bit-for-bit (modulo addresses), under
//! every backend, and the heap must end in a consistent state.

use charon_gc::collector::{Collector, GcKind};
use charon_gc::system::System;
use charon_gc::verify::{assert_headers_clean, graph_signature};
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::klass::{KlassId, KlassKind};
use charon_heap::VAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Fixture {
    heap: JavaHeap,
    point: KlassId,
    node: KlassId,
    arr: KlassId,
    bytes: KlassId,
}

fn fixture(heap_bytes: u64) -> Fixture {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(heap_bytes));
    let point = heap.klasses_mut().register("Point", KlassKind::Instance, 4, vec![0, 1]);
    let node = heap.klasses_mut().register("Node", KlassKind::Instance, 6, vec![0, 1, 2]);
    let arr = heap.klasses_mut().register_array("Object[]", KlassKind::ObjArray);
    let bytes = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    Fixture { heap, point, node, arr, bytes }
}

/// Builds a random object graph with long- and short-lived objects,
/// cross-generation references, and cycles. Returns live handles.
fn populate(fx: &mut Fixture, gc: &mut Collector, seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut roots = Vec::new();
    let mut live: Vec<usize> = Vec::new();

    for i in 0..n {
        let k = match rng.gen_range(0..4) {
            0 => fx.point,
            1 => fx.node,
            2 => fx.arr,
            _ => fx.bytes,
        };
        let len = match fx.heap.klasses().get(k).kind() {
            KlassKind::ObjArray => rng.gen_range(1..12),
            KlassKind::TypeArray => rng.gen_range(1..64),
            _ => 0,
        };
        let a = gc.alloc(&mut fx.heap, k, len).expect("no OOM in fixture");
        // Fill type arrays with recognizable payload.
        if fx.heap.klasses().get(k).kind() == KlassKind::TypeArray {
            for w in 0..len as u64 {
                fx.heap.mem.write_word(a.add_words(2 + w), 0xA5A5_0000 + i as u64 + w);
            }
        }
        // Wire some references to previously allocated live objects,
        // re-reading their current addresses through the roots (a GC may
        // have moved them), through the write barrier as the mutator would.
        let slots = fx.heap.ref_slots(a);
        for s in slots {
            if !live.is_empty() && rng.gen_bool(0.7) {
                let target = fx.heap.read_root(live[rng.gen_range(0..live.len())]);
                if !target.is_null() {
                    fx.heap.store_ref_with_barrier(s, target);
                }
            }
        }
        // A third of objects stay reachable.
        if rng.gen_bool(0.33) {
            let idx = fx.heap.add_root(a);
            roots.push(idx);
            live.push(idx);
        }
        // Occasionally drop a root (objects die).
        if !roots.is_empty() && rng.gen_bool(0.05) {
            let idx = roots[rng.gen_range(0..roots.len())];
            fx.heap.set_root(idx, VAddr::NULL);
        }
    }
    roots
}

fn run_backend(sys: System, seed: u64) -> (u64, u64, usize, usize) {
    let mut fx = fixture(8 << 20);
    let mut gc = Collector::new(sys, &fx.heap, 8);
    populate(&mut fx, &mut gc, seed, 4000);
    let (sig_before, stats_before) = graph_signature(&fx.heap).expect("heap graph verifies");

    gc.minor_gc(&mut fx.heap);
    let (sig_after_minor, _) = graph_signature(&fx.heap).expect("heap graph verifies");
    assert_eq!(sig_before, sig_after_minor, "MinorGC changed the reachable graph");
    assert_eq!(fx.heap.eden().used_bytes(), 0, "eden must be empty after MinorGC");

    gc.major_gc(&mut fx.heap);
    let (sig_after_major, stats_after) = graph_signature(&fx.heap).expect("heap graph verifies");
    assert_eq!(sig_before, sig_after_major, "MajorGC changed the reachable graph");
    assert_eq!(stats_before.objects, stats_after.objects);
    assert_eq!(stats_before.bytes, stats_after.bytes);
    assert_eq!(fx.heap.young_used_bytes(), 0, "young must be empty after MajorGC");
    assert_eq!(fx.heap.old().used_bytes(), stats_after.bytes, "old must hold exactly the live bytes after compaction");
    assert_headers_clean(&fx.heap);
    let violations = charon_heap::check::verify_heap(&fx.heap);
    assert!(violations.is_empty(), "heap invariants violated after GC: {violations:?}");

    (sig_after_major, stats_after.bytes, gc.count(GcKind::Minor), gc.count(GcKind::Major))
}

#[test]
fn graph_survives_gc_on_ddr4() {
    run_backend(System::ddr4(), 1);
}

#[test]
fn graph_survives_gc_on_hmc() {
    run_backend(System::hmc(), 1);
}

#[test]
fn graph_survives_gc_on_charon() {
    run_backend(System::charon(), 1);
}

#[test]
fn graph_survives_gc_on_ideal() {
    run_backend(System::ideal(), 1);
}

#[test]
fn graph_survives_gc_on_cpu_side() {
    run_backend(System::cpu_side(), 1);
}

#[test]
fn all_backends_agree_functionally() {
    // Same seed → identical final graph signature and GC counts on every
    // backend: timing must never affect semantics.
    let results: Vec<_> = [System::ddr4(), System::hmc(), System::charon(), System::ideal(), System::cpu_side()]
        .into_iter()
        .map(|s| run_backend(s, 42))
        .collect();
    for r in &results[1..] {
        assert_eq!(r, &results[0], "backend changed functional behaviour");
    }
}

#[test]
fn repeated_collections_are_stable() {
    let mut fx = fixture(8 << 20);
    let mut gc = Collector::new(System::ddr4(), &fx.heap, 4);
    populate(&mut fx, &mut gc, 7, 3000);
    let (sig, _) = graph_signature(&fx.heap).expect("heap graph verifies");
    for i in 0..4 {
        if i % 2 == 0 {
            gc.minor_gc(&mut fx.heap);
        } else {
            gc.major_gc(&mut fx.heap);
        }
        let (s, _) = graph_signature(&fx.heap).expect("heap graph verifies");
        assert_eq!(s, sig, "iteration {i} corrupted the graph");
    }
}

#[test]
fn survivors_age_and_promote() {
    let mut fx = fixture(8 << 20);
    let mut gc = Collector::new(System::ddr4(), &fx.heap, 2);
    // One long-lived object.
    let a = gc.alloc(&mut fx.heap, fx.point, 0).unwrap();
    fx.heap.add_root(a);
    let threshold = fx.heap.config().tenuring_threshold;
    let mut promoted_at = None;
    for i in 0..(threshold as usize + 2) {
        gc.minor_gc(&mut fx.heap);
        let cur = fx.heap.read_root(0);
        if fx.heap.in_old(cur) {
            promoted_at = Some(i);
            break;
        }
        assert!(fx.heap.in_young(cur), "object lost");
    }
    let at = promoted_at.expect("object never promoted despite surviving past the threshold");
    assert!(at + 1 >= threshold as usize, "promoted too early: survived only {at} collections");
    // After promotion, further minor GCs leave it in place.
    let fixed = fx.heap.read_root(0);
    gc.minor_gc(&mut fx.heap);
    assert_eq!(fx.heap.read_root(0), fixed);
}

#[test]
fn old_to_young_references_survive_via_card_table() {
    let mut fx = fixture(8 << 20);
    let mut gc = Collector::new(System::ddr4(), &fx.heap, 2);
    // An old holder pointing at a young object that is otherwise
    // unreachable: only the card table can save it.
    let holder = gc.alloc(&mut fx.heap, fx.node, 0).unwrap();
    fx.heap.add_root(holder);
    for _ in 0..fx.heap.config().tenuring_threshold + 1 {
        gc.minor_gc(&mut fx.heap);
    }
    let holder = fx.heap.read_root(0);
    assert!(fx.heap.in_old(holder), "holder must be promoted by now");

    let young = gc.alloc(&mut fx.heap, fx.bytes, 8).unwrap();
    for w in 0..8 {
        fx.heap.mem.write_word(young.add_words(2 + w), 0xBEEF + w);
    }
    let slot = fx.heap.ref_slots(holder)[0];
    fx.heap.store_ref_with_barrier(slot, young);
    let (sig, _) = graph_signature(&fx.heap).expect("heap graph verifies");

    let ev = gc.minor_gc(&mut fx.heap);
    assert!(ev.minor.unwrap().dirty_cards > 0, "the write barrier must have dirtied a card");
    let (sig2, _) = graph_signature(&fx.heap).expect("heap graph verifies");
    assert_eq!(sig, sig2, "old-to-young referent lost or corrupted");
    let kept = fx.heap.read_ref(fx.heap.ref_slots(fx.heap.read_root(0))[0]);
    assert!(!kept.is_null());
    assert_eq!(fx.heap.mem.read_word(kept.add_words(2)), 0xBEEF);
}

#[test]
fn dead_objects_are_reclaimed() {
    let mut fx = fixture(8 << 20);
    let mut gc = Collector::new(System::ddr4(), &fx.heap, 2);
    // Allocate garbage: nothing rooted.
    for _ in 0..2000 {
        gc.alloc(&mut fx.heap, fx.bytes, 32).unwrap();
    }
    let one = gc.alloc(&mut fx.heap, fx.point, 0).unwrap();
    fx.heap.add_root(one);
    gc.major_gc(&mut fx.heap);
    // Only the rooted object survives.
    assert_eq!(fx.heap.old().used_bytes(), 6 * 8);
    assert_eq!(fx.heap.young_used_bytes(), 0);
}

#[test]
fn charon_is_faster_than_ddr4_on_gc() {
    // Paper regime: heap well beyond the 8 MB LLC, big-data-like objects
    // (KB-scale arrays). Tiny cache-resident heaps are exactly where §3.3
    // says offloading does NOT pay.
    let mk = |sys| {
        let mut fx = fixture(48 << 20);
        let mut gc = Collector::new(sys, &fx.heap, 8);
        let mut rng = StdRng::seed_from_u64(99);
        let mut roots = Vec::new();
        for _ in 0..1500 {
            let len = rng.gen_range(256..2048);
            let a = gc.alloc(&mut fx.heap, fx.bytes, len).unwrap();
            if rng.gen_bool(0.4) {
                roots.push(fx.heap.add_root(a));
            }
        }
        gc.minor_gc(&mut fx.heap);
        gc.major_gc(&mut fx.heap);
        gc.gc_total_time()
    };
    let t_ddr4 = mk(System::ddr4());
    let t_charon = mk(System::charon());
    let t_ideal = mk(System::ideal());
    assert!(t_charon.0 as f64 <= 0.8 * t_ddr4.0 as f64, "Charon ({t_charon}) should clearly beat DDR4 ({t_ddr4})");
    assert!(t_ideal < t_charon, "Ideal must lower-bound Charon");
}

#[test]
fn breakdowns_cover_all_phases() {
    use charon_gc::breakdown::Bucket;
    let mut fx = fixture(8 << 20);
    let mut gc = Collector::new(System::ddr4(), &fx.heap, 8);
    populate(&mut fx, &mut gc, 5, 5000);
    gc.minor_gc(&mut fx.heap);
    gc.major_gc(&mut fx.heap);
    // Force a populated old generation with old-to-young references so the
    // card-table Search phase has work.
    gc.major_gc(&mut fx.heap);
    let old_holder = (0..fx.heap.root_count())
        .map(|i| fx.heap.read_root(i))
        .find(|&r| !r.is_null() && fx.heap.in_old(r) && !fx.heap.ref_slots(r).is_empty())
        .expect("an old object with reference slots");
    let young = gc.alloc(&mut fx.heap, fx.point, 0).unwrap();
    fx.heap.store_ref_with_barrier(fx.heap.ref_slots(old_holder)[0], young);
    gc.minor_gc(&mut fx.heap);

    let minor = gc.breakdown_by_kind(GcKind::Minor);
    let major = gc.breakdown_by_kind(GcKind::Major);
    for b in [Bucket::Copy, Bucket::ScanPush, Bucket::Pop, Bucket::Push, Bucket::Other] {
        assert!(minor.get(b).0 > 0, "minor bucket {b} empty");
    }
    assert!(minor.get(Bucket::Search).0 > 0, "card search must appear");
    for b in [Bucket::Copy, Bucket::ScanPush, Bucket::BitmapCount, Bucket::Pop, Bucket::Other] {
        assert!(major.get(b).0 > 0, "major bucket {b} empty");
    }
    assert!(minor.offloadable_fraction() > 0.3, "offloadable share unexpectedly low");
}

#[test]
fn mark_sweep_preserves_graph_and_frees_old_garbage() {
    use charon_gc::freelist::FreeStore;
    use charon_gc::marksweep::mark_sweep;
    let mut fx = fixture(8 << 20);
    let mut gc = Collector::new(System::ddr4(), &fx.heap, 4);
    populate(&mut fx, &mut gc, 11, 4000);
    // Promote a working set into old, then drop some roots.
    gc.major_gc(&mut fx.heap);
    for i in 0..fx.heap.root_count() {
        if i % 3 == 0 {
            fx.heap.set_root(i, VAddr::NULL);
        }
    }
    let (sig, _) = graph_signature(&fx.heap).expect("heap graph verifies");
    let mut free = FreeStore::new();
    let (_, st) = mark_sweep(&mut gc.sys, &mut fx.heap, 4, gc.now, fx.bytes, &mut free);
    let free = free.chunks_by_address();
    let (sig2, _) = graph_signature(&fx.heap).expect("heap graph verifies");
    assert_eq!(sig, sig2, "mark-sweep corrupted the graph");
    assert!(st.freed_bytes > 0, "dropping roots must free old garbage");
    assert_eq!(free.iter().map(|&(_, w)| w * 8).sum::<u64>(), st.freed_bytes);
    // The old space stays parsable after filler insertion.
    let walked: u64 = fx.heap.walk_objects(fx.heap.old().start(), fx.heap.old().top()).count() as u64;
    assert!(walked >= st.free_chunks);
}

/// The stop-the-world mark-sweep and the cms collection with no cycle in
/// flight are compositions of the same seed/drain/sweep steps: on one
/// heap they must agree on what is live, what is freed, and which ranges
/// are recycled — and both must leave the reachable graph alone.
#[test]
fn mark_sweep_and_idle_cms_agree_on_liveness_and_free_ranges() {
    use charon_gc::concmark::{cms_old_gc, ConcMark};
    use charon_gc::freelist::FreeStore;
    use charon_gc::marksweep::mark_sweep;
    let build = || {
        let mut fx = fixture(8 << 20);
        let mut gc = Collector::new(System::charon(), &fx.heap, 4);
        populate(&mut fx, &mut gc, 11, 4000);
        gc.major_gc(&mut fx.heap);
        for i in 0..fx.heap.root_count() {
            if i % 3 == 0 {
                fx.heap.set_root(i, VAddr::NULL);
            }
        }
        // A few young survivors, so both collectors also mark (and then
        // wipe) young headers.
        for _ in 0..50 {
            let a = gc.alloc(&mut fx.heap, fx.node, 0).expect("no OOM in fixture");
            fx.heap.add_root(a);
        }
        (fx, gc)
    };

    let (mut fx, mut gc) = build();
    let (sig, _) = graph_signature(&fx.heap).expect("heap graph verifies");
    let mut ms_free = FreeStore::new();
    let (_, ms) = mark_sweep(&mut gc.sys, &mut fx.heap, 4, gc.now, fx.bytes, &mut ms_free);
    assert_eq!(graph_signature(&fx.heap).expect("heap graph verifies").0, sig, "mark-sweep changed the graph");
    assert_headers_clean(&fx.heap);

    let (mut fx, mut gc) = build();
    let (mut cm, mut free) = (ConcMark::new(), FreeStore::new());
    let (_, cms) = cms_old_gc(&mut gc.sys, &mut fx.heap, 4, gc.now, &mut cm, &mut free, fx.bytes);
    assert_eq!(graph_signature(&fx.heap).expect("heap graph verifies").0, sig, "cms changed the graph");
    assert_headers_clean(&fx.heap);

    assert!(ms.freed_bytes > 0 && ms.free_chunks > 1, "the fixture must leave old garbage to sweep");
    assert_eq!(ms, cms, "marked objects, old live bytes, freed bytes and free chunks must agree");
    assert_eq!(
        ms_free.chunks_by_address(),
        free.chunks_by_address(),
        "both sweeps must recycle the same (addr, words) ranges"
    );
}
