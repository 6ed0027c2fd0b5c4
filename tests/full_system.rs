//! Whole-stack integration: workloads → collector → device → simulator,
//! across every platform, checking the cross-crate invariants no unit
//! test can see.

use charon::gc::collector::{Collector, GcKind};
use charon::gc::system::System;
use charon::gc::verify::graph_signature;
use charon::heap::heap::{HeapConfig, JavaHeap};
use charon::heap::layout::LayoutParams;
use charon::sim::time::Ps;
use charon::workloads::mutator::Mutator;
use charon::workloads::spec::by_short;
use charon::workloads::{run_workload, RunOptions};

fn quick_opts() -> RunOptions {
    RunOptions { supersteps: Some(5), ..Default::default() }
}

// Ideal lower-bounds Charon; Charon beats the plain HMC host; energy
// follows time downward. These are Fig. 12/17's structural claims. One
// `#[test]` per workload so the harness runs the 3-platform sweeps on
// separate threads instead of serially inside one test.
fn assert_platform_ordering(short: &str) {
    let spec = by_short(short).unwrap();
    let hmc = run_workload(&spec, System::hmc(), &quick_opts()).unwrap();
    let charon = run_workload(&spec, System::charon(), &quick_opts()).unwrap();
    let ideal = run_workload(&spec, System::ideal(), &quick_opts()).unwrap();
    assert!(
        charon.gc_time < hmc.gc_time,
        "{short}: Charon ({}) must beat the HMC host ({})",
        charon.gc_time,
        hmc.gc_time
    );
    assert!(
        ideal.gc_time < charon.gc_time,
        "{short}: Ideal ({}) must lower-bound Charon ({})",
        ideal.gc_time,
        charon.gc_time
    );
    assert!(charon.energy.total_j() < hmc.energy.total_j(), "{short}: offloading must also save energy");
}

#[test]
fn platform_ordering_holds_for_bs() {
    assert_platform_ordering("BS");
}

#[test]
fn platform_ordering_holds_for_km() {
    assert_platform_ordering("KM");
}

#[test]
fn platform_ordering_holds_for_lr() {
    assert_platform_ordering("LR");
}

#[test]
fn platform_ordering_holds_for_als() {
    assert_platform_ordering("ALS");
}

#[test]
fn functional_results_identical_on_all_platforms() {
    // Timing backends may differ wildly; allocation, the collections run
    // and what each of them found, and the final object graph may not
    // (DESIGN.md decision 6). BS at 10 supersteps is the run with a
    // MajorGC.
    for (short, supersteps) in [("CC", 5), ("BS", 10)] {
        let spec = by_short(short).unwrap();
        let mut fingerprints = Vec::new();
        for sys in [System::ddr4(), System::hmc(), System::charon(), System::cpu_side(), System::ideal()] {
            let label = sys.label();
            let mut heap = JavaHeap::new(HeapConfig {
                layout: LayoutParams { heap_bytes: spec.default_heap_bytes(), ..Default::default() },
                ..Default::default()
            });
            let mut m = Mutator::new(spec.clone(), &mut heap);
            let mut gc = Collector::new(sys, &heap, 8);
            m.build_resident(&mut heap, &mut gc).unwrap();
            for _ in 0..supersteps {
                m.superstep(&mut heap, &mut gc).unwrap();
            }
            let (sig, stats) = graph_signature(&heap).expect("heap graph verifies");
            let collections: Vec<_> = gc.events.iter().map(|e| (e.kind, e.minor, e.major)).collect();
            fingerprints.push((label, (sig, stats.objects, stats.bytes, m.allocated_bytes), collections));
        }
        let (base, base_fp, base_gcs) = &fingerprints[0];
        if short == "BS" {
            assert!(base_gcs.iter().any(|c| c.0 == GcKind::Major), "BS at {supersteps} supersteps runs a MajorGC");
        }
        for (label, fp, gcs) in &fingerprints[1..] {
            assert_eq!(fp, base_fp, "{short}: the {label} timing backend changed the heap (DESIGN.md decision 6)");
            assert_eq!(gcs.len(), base_gcs.len(), "{short}: {label} ran a different number of collections than {base}");
            for (i, (c, b)) in gcs.iter().zip(base_gcs).enumerate() {
                assert_eq!(
                    c, b,
                    "{short}: collection {i} on {label} differs from {base} in (kind, minor, major) \
                     — a DESIGN.md decision-6 violation"
                );
            }
        }
    }
}

#[test]
fn gc_reclaims_everything_the_mutator_drops() {
    let spec = by_short("KM").unwrap();
    let mut heap = JavaHeap::new(HeapConfig {
        layout: LayoutParams { heap_bytes: spec.default_heap_bytes(), ..Default::default() },
        ..Default::default()
    });
    let mut m = Mutator::new(spec.clone(), &mut heap);
    let mut gc = Collector::new(System::ddr4(), &heap, 8);
    m.build_resident(&mut heap, &mut gc).unwrap();
    for _ in 0..6 {
        m.superstep(&mut heap, &mut gc).unwrap();
    }
    // After a full collection the heap holds exactly the reachable bytes.
    gc.major_gc(&mut heap);
    let (_, stats) = graph_signature(&heap).expect("heap graph verifies");
    assert_eq!(heap.used_bytes(), stats.bytes, "compaction must leave only live bytes");
}

#[test]
fn gc_threads_sweep_is_monotonic_enough() {
    // More GC threads must not make Charon slower by more than noise
    // (Fig. 15's premise); 8 threads must clearly beat 1.
    let spec = by_short("LR").unwrap();
    let t1 =
        run_workload(&spec, System::charon(), &RunOptions { gc_threads: 1, supersteps: Some(5), ..Default::default() })
            .unwrap()
            .gc_time;
    let t8 =
        run_workload(&spec, System::charon(), &RunOptions { gc_threads: 8, supersteps: Some(5), ..Default::default() })
            .unwrap()
            .gc_time;
    assert!(t8.0 as f64 <= 0.7 * t1.0 as f64, "8 threads ({t8}) should beat 1 thread ({t1})");
}

#[test]
fn device_stats_reconcile_with_gc_activity() {
    let spec = by_short("BS").unwrap();
    let r = run_workload(&spec, System::charon(), &quick_opts()).unwrap();
    let d = r.device.expect("charon backend has a device");
    assert!(d.total_offloads() > 0);
    // Copy moved at least the surviving+promoted bytes (each byte read and
    // written once per move).
    assert!(d.prim(charon::accel::PrimType::Copy).bytes > 0);
    assert!(r.gc_dram_bytes > 0);
    assert!(r.traffic.dram.total_bytes() >= r.gc_dram_bytes);
    // The run advanced simulated time.
    assert!(r.gc_time > Ps::ZERO && r.mutator_time > Ps::ZERO);
}
