//! The `verify` cross-check oracles on stepped runs: after every superstep
//! the mark bitmaps agree with the header states, no header is left
//! forwarded outside the heap, every old→young reference sits on a dirty
//! card, and no space holds a written word above its high-water mark. And
//! `verify::reachable_bytes`'s bitmap walk against a hashed one.

use charon_gc::collector::CollectorKind;
use charon_gc::system::System;
use charon_gc::verify::{cross_check_bitmap, cross_check_cards, cross_check_forwarding, reachable_bytes};
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::klass::KlassKind;
use charon_heap::VAddr;
use charon_workloads::run::Run;
use charon_workloads::spec::by_short;
use charon_workloads::RunOptions;
use proptest::prelude::*;
use std::collections::HashSet;

#[test]
fn cross_checks_hold_after_every_superstep() {
    for wl in ["BS", "KM", "PR"] {
        for collector in [CollectorKind::Ps, CollectorKind::Ms, CollectorKind::Cms, CollectorKind::G1] {
            // g1 runs BS out of memory within these supersteps: BS
            // allocates objects larger than one region chunk, which
            // g1lite cannot evacuate (DESIGN.md §13, the humongous limit).
            if collector == CollectorKind::G1 && wl == "BS" {
                continue;
            }
            let opts = RunOptions { supersteps: Some(12), collector, ..Default::default() };
            let mut run = Run::new(&by_short(wl).unwrap(), System::ddr4(), &opts);
            run.build_resident().unwrap();
            for step in 0..run.steps() {
                run.superstep().unwrap();
                let heap = &run.heap;
                let fails = [cross_check_bitmap(heap), cross_check_forwarding(heap), cross_check_cards(heap)].concat();
                assert!(
                    fails.is_empty(),
                    "{wl}/{collector} superstep {step}: {} failures, first {:?}",
                    fails.len(),
                    fails[0]
                );
            }
        }
    }
}

/// Allocation zeroes only the part of a new object below its space's
/// high-water mark (`Space::high_water`), trusting that nothing has ever
/// written at or above it. This pins that trust for every collector: at
/// every superstep, each space reads zero from its high-water mark to its
/// end.
#[test]
fn nothing_is_written_above_a_space_high_water_mark() {
    for wl in ["BS", "PR"] {
        for collector in [CollectorKind::Ps, CollectorKind::Ms, CollectorKind::Cms, CollectorKind::G1] {
            let opts = RunOptions { supersteps: Some(3), collector, ..Default::default() };
            let mut run = Run::new(&by_short(wl).unwrap(), System::ddr4(), &opts);
            run.build_resident().unwrap();
            for step in 0..run.steps() {
                run.superstep().unwrap();
                let heap = &run.heap;
                for space in [heap.eden(), heap.from_space(), heap.to_space(), heap.old()] {
                    let hw = space.high_water();
                    assert!(
                        heap.mem.is_zero(hw, space.end().words_since(hw)),
                        "{wl}/{collector} superstep {step}: {space} has a written word above its high-water mark {hw}"
                    );
                }
            }
            assert!(!run.gc.events.is_empty(), "{wl}/{collector}: no collection ran");
        }
    }
}

/// The walk `reachable_bytes` replaced: the same traversal, visited
/// objects kept in a `HashSet` of addresses.
fn hashed_reachable_bytes(heap: &JavaHeap) -> u64 {
    let mut seen = HashSet::new();
    let mut queue: Vec<VAddr> = (0..heap.root_count())
        .map(|i| heap.read_root(i))
        .filter(|r| !r.is_null())
        .collect();
    let mut bytes = 0;
    while let Some(obj) = queue.pop() {
        if seen.insert(obj) {
            bytes += heap.obj_size_words(obj) * 8;
            queue.extend(
                heap.ref_slots(obj)
                    .into_iter()
                    .map(|s| heap.read_ref(s))
                    .filter(|v| !v.is_null()),
            );
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random graphs over both generations — cycles, self-references,
    /// referents shared by many holders, null slots, and roots that repeat
    /// or are null — count the same reachable bytes either way.
    #[test]
    fn bitmap_walk_equals_hashed_walk_on_random_graphs(
        objs in proptest::collection::vec((any::<bool>(), 0u32..40), 1..80),
        edges in proptest::collection::vec((any::<u16>(), 0usize..4, any::<u16>()), 0..200),
        roots in proptest::collection::vec(any::<u16>(), 0..24),
    ) {
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(8 << 20));
        let node = heap.klasses_mut().register("Node", KlassKind::Instance, 3, vec![0, 1, 2]);
        let arr = heap.klasses_mut().register_array("Object[]", KlassKind::ObjArray);
        let addrs: Vec<VAddr> = objs
            .iter()
            .map(|&(old, len)| {
                let (klass, len) = if len == 0 { (node, 0) } else { (arr, len) };
                if old { heap.alloc_old_object(klass, len) } else { heap.alloc_eden(klass, len) }.unwrap()
            })
            .collect();
        for &(from, slot, to) in &edges {
            let holder = addrs[from as usize % addrs.len()];
            let slots = heap.ref_slots(holder);
            // Edge targets past the object list stay null.
            if let (Some(&slot), Some(&target)) = (slots.get(slot % slots.len()), addrs.get(to as usize % (addrs.len() + 4))) {
                heap.write_ref(slot, target);
            }
        }
        for &r in &roots {
            heap.add_root(addrs.get(r as usize % (addrs.len() + 2)).copied().unwrap_or(VAddr::NULL));
        }
        prop_assert_eq!(reachable_bytes(&heap), hashed_reachable_bytes(&heap));
    }
}

/// The pre-major walk on the heaps it runs on: BS (few large objects) and
/// PR (many small reference-rich ones) after each of 3 supersteps, under a
/// moving and a non-moving collector.
#[test]
fn bitmap_walk_equals_hashed_walk_on_workload_heaps() {
    for wl in ["BS", "PR"] {
        for collector in [CollectorKind::Ps, CollectorKind::Cms] {
            let opts = RunOptions { supersteps: Some(3), collector, ..Default::default() };
            let mut run = Run::new(&by_short(wl).unwrap(), System::ddr4(), &opts);
            run.build_resident().unwrap();
            for step in 0..run.steps() {
                run.superstep().unwrap();
                let bytes = reachable_bytes(&run.heap);
                assert!(bytes > 0, "{wl}/{collector} superstep {step}: nothing reachable");
                assert_eq!(bytes, hashed_reachable_bytes(&run.heap), "{wl}/{collector} superstep {step}");
            }
        }
    }
}
