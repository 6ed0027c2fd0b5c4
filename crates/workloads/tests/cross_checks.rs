//! The `verify` cross-check oracles on stepped runs: after every superstep
//! the mark bitmaps agree with the header states, no header is left
//! forwarded outside the heap, every old→young reference sits on a dirty
//! card, and no space holds a written word above its high-water mark.

use charon_gc::collector::CollectorKind;
use charon_gc::system::System;
use charon_gc::verify::{cross_check_bitmap, cross_check_cards, cross_check_forwarding};
use charon_workloads::run::Run;
use charon_workloads::spec::by_short;
use charon_workloads::RunOptions;

/// `g1` is left out on purpose: it fails the card check on every one of
/// these workloads, the next bug to fix (ROADMAP, correctness item (b)).
#[test]
fn cross_checks_hold_after_every_superstep() {
    for wl in ["BS", "KM", "PR"] {
        for collector in [CollectorKind::Ps, CollectorKind::Ms, CollectorKind::Cms] {
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
