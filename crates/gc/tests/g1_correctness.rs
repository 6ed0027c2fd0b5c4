//! G1-lite mixed collections preserve the reachable graph, reclaim
//! mostly-dead regions, and exercise every Charon primitive (Table 1's
//! G1 row).

use charon_core::PrimType;
use charon_gc::collector::Collector;
use charon_gc::g1lite::{g1_mixed_collect, G1_REGION_WORDS};
use charon_gc::system::System;
use charon_gc::verify::graph_signature;
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::klass::{KlassId, KlassKind};
use charon_heap::VAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(sys: System) -> (JavaHeap, Collector, KlassId) {
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(24 << 20));
    let node = heap.klasses_mut().register("Node", KlassKind::Instance, 4, vec![0, 1]);
    let bytes = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
    let mut gc = Collector::new(sys, &heap, 8);
    // Fill old with a mix of soon-dead and kept objects, then drop most
    // roots so many regions go mostly-garbage.
    let mut rng = StdRng::seed_from_u64(7);
    let mut roots = Vec::new();
    for _ in 0..6000 {
        let a = gc.alloc(&mut heap, bytes, rng.gen_range(16..256)).unwrap();
        let n = gc.alloc(&mut heap, node, 0).unwrap();
        heap.store_ref_with_barrier(heap.ref_slots(n)[0], a);
        roots.push(heap.add_root(n));
    }
    gc.major_gc(&mut heap); // promote everything into old
    for (i, &r) in roots.iter().enumerate() {
        if i % 5 != 0 {
            heap.set_root(r, VAddr::NULL);
        }
    }
    (heap, gc, bytes)
}

#[test]
fn g1_preserves_graph_and_reclaims_garbage() {
    let (mut heap, mut gc, filler) = build(System::ddr4());
    let (sig, before) = graph_signature(&heap).expect("heap graph verifies");
    let used_before = heap.old().used_bytes();

    let (totals, stats, free) =
        g1_mixed_collect(&mut gc.sys, &mut heap, 8, gc.now, filler, &mut charon_gc::freelist::FreeStore::new());
    let bd = totals.breakdown;

    let (sig2, after) = graph_signature(&heap).expect("heap graph verifies");
    assert_eq!(sig, sig2, "G1 evacuation corrupted the graph");
    assert_eq!(before.objects, after.objects);
    assert!(stats.collection_set > 0, "mostly-dead regions must be selected");
    assert!(stats.reclaimed_bytes > 0);
    assert!(stats.remset_updates > 0, "references into the cset must be rewritten");
    // Victim extents are object-aligned interiors of mostly-dead regions;
    // all of them together account for the evacuated + reclaimed bytes.
    assert!(free.iter().all(|r| r.words() >= 2));
    let freed: u64 = free.iter().map(|r| r.bytes()).sum();
    assert_eq!(freed, stats.reclaimed_bytes + stats.evacuated_bytes);
    assert!(free.iter().any(|r| r.words() >= G1_REGION_WORDS / 2), "some large extents reclaimed");
    assert!(bd.get(charon_gc::Bucket::Copy).0 > 0);
    assert!(bd.get(charon_gc::Bucket::BitmapCount).0 > 0);
    // Evacuation appends to old, so occupancy grows transiently; the free
    // list is what a region allocator would hand back.
    let _ = used_before;
}

#[test]
fn g1_exercises_all_primitives_under_charon() {
    let (mut heap, mut gc, filler) = build(System::charon());
    let before = gc.sys.device.as_ref().unwrap().stats().clone();
    let (_, stats, _) =
        g1_mixed_collect(&mut gc.sys, &mut heap, 8, gc.now, filler, &mut charon_gc::freelist::FreeStore::new());
    let after = gc.sys.device.as_ref().unwrap().stats().clone();
    assert!(stats.collection_set > 0);
    for p in [PrimType::Copy, PrimType::ScanPush, PrimType::BitmapCount] {
        assert!(after.prim(p).offloads > before.prim(p).offloads, "G1 must exercise {p} (Table 1 row)");
    }
}

#[test]
fn g1_after_collection_heap_still_collectable() {
    let (mut heap, mut gc, filler) = build(System::ddr4());
    let _ = g1_mixed_collect(&mut gc.sys, &mut heap, 4, gc.now, filler, &mut charon_gc::freelist::FreeStore::new());
    let (sig, _) = graph_signature(&heap).expect("heap graph verifies");
    // A following full compaction must cope with filler regions.
    gc.major_gc(&mut heap);
    let (sig2, _) = graph_signature(&heap).expect("heap graph verifies");
    assert_eq!(sig, sig2, "MajorGC after G1 corrupted the graph");
    let violations = charon_heap::check::verify_heap(&heap);
    assert!(violations.is_empty(), "heap invariants violated after G1+Major: {violations:?}");
}
