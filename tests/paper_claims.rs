//! Shape-regression tests: the paper's evaluation claims, held as
//! assertions with tolerant bands so recalibration noise does not flake
//! them, but structural regressions do fail them. `charon-cli paper`
//! reports the exact values (EXPERIMENTS.md), from the same cells and
//! folds (`charon::workloads::paper`) these tests read.
//!
//! This binary holds the single-platform claims (breakdown shapes, the
//! heap-pressure curve, the area table); the DDR4-vs-offload comparisons
//! live in `paper_claims_offload.rs` so the two binaries' full-length
//! runs overlap on the wall clock instead of queueing.

use charon::gc::breakdown::Bucket;
use charon::workloads::paper::Cell;

#[test]
fn fig04_shape_offloadable_fraction_dominates() {
    // Paper: the three/four offloaded primitives cover 69-93% of GC time.
    for w in ["BS", "CC"] {
        let r = Cell::new(w, "DDR4").run().expect("no OOM");
        let f = r.minor_breakdown.offloadable_fraction();
        assert!(f > 0.6, "{w}: minor offloadable fraction {f:.2} too low (paper ~0.71-0.78)");
        if r.major.1 > 0 {
            let f = r.major_breakdown.offloadable_fraction();
            assert!(f > 0.6, "{w}: major offloadable fraction {f:.2} too low");
        }
    }
}

#[test]
fn fig04_shape_demographics_differ_by_framework() {
    // Paper: Spark leans on Copy+Search; GraphChi leans on Scan&Push.
    let spark = Cell::new("LR", "DDR4").run().expect("no OOM");
    let graph = Cell::new("PR", "DDR4").run().expect("no OOM");
    assert!(
        spark.minor_breakdown.fraction(Bucket::Copy) > graph.minor_breakdown.fraction(Bucket::Copy),
        "Spark must be more copy-dominated than GraphChi"
    );
    assert!(
        graph.minor_breakdown.fraction(Bucket::ScanPush) > spark.minor_breakdown.fraction(Bucket::ScanPush),
        "GraphChi must be more scan-dominated than Spark"
    );
}

#[test]
fn fig02_shape_overhead_explodes_toward_min_heap() {
    // Paper: GC overhead rises steeply as the heap approaches the minimum.
    let overhead = |f| {
        Cell::new("CC", "DDR4")
            .with(|o| o.heap_factor = Some(f))
            .run()
            .unwrap()
            .gc_overhead()
    };
    let (tight, roomy) = (overhead(1.0), overhead(2.0));
    assert!(
        tight > 1.5 * roomy,
        "overhead must explode toward the minimum heap: 1.0x -> {tight:.2}, 2.0x -> {roomy:.2}"
    );
}

#[test]
fn table4_shape_area_is_tiny() {
    let r = charon::accel::area::report();
    assert!(r.total_mm2 < 2.0, "Charon must stay under 2 mm^2 (paper: 1.947)");
    assert!(r.logic_layer_fraction < 0.01, "under 1% of the logic layer (paper: 0.49%)");
    assert!(r.max_power_density_mw_mm2 < 100.0, "far below passive-heatsink limits");
}
