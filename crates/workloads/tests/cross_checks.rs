//! The `verify` cross-check oracles on stepped runs: after every superstep
//! the mark bitmaps agree with the header states, no header is left
//! forwarded outside the heap, and every old→young reference sits on a
//! dirty card.

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
