//! Quickstart: build a simulated JVM heap, allocate an object graph, run a
//! MinorGC and a MajorGC on the DDR4 host and on Charon, and print what
//! happened.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use charon::gc::breakdown::Bucket;
use charon::gc::collector::Collector;
use charon::gc::system::System;
use charon::gc::verify::graph_signature;
use charon::heap::heap::{HeapConfig, JavaHeap};
use charon::heap::klass::KlassKind;

fn main() {
    for sys in [System::ddr4(), System::charon()] {
        let label = sys.label();

        // A 32 MB heap with HotSpot's default Young:Old = 1:2 sizing.
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(32 << 20));

        // Register application classes: a node with two reference fields
        // and a primitive array.
        let node = heap.klasses_mut().register("Node", KlassKind::Instance, 4, vec![0, 1]);
        let data = heap.klasses_mut().register_array("double[]", KlassKind::TypeArray);

        // The collector wraps the timing system (host, and the Charon
        // device when offloading).
        let mut gc = Collector::new(sys, &heap, 8);

        // Allocate a linked structure: each node keeps a payload array and
        // a reference to the previous node. Every tenth node is rooted;
        // everything else becomes garbage.
        let mut prev = charon::heap::VAddr::NULL;
        for i in 0..2_500 {
            let d = gc.alloc(&mut heap, data, 512).expect("heap sized generously");
            let n = gc.alloc(&mut heap, node, 0).expect("heap sized generously");
            let slots = heap.ref_slots(n);
            heap.store_ref_with_barrier(slots[0], d);
            if !prev.is_null() {
                heap.store_ref_with_barrier(slots[1], prev);
            }
            if i % 10 == 0 {
                heap.add_root(n);
                prev = charon::heap::VAddr::NULL;
            } else {
                prev = n;
            }
        }

        let (sig_before, stats) = graph_signature(&heap).expect("heap graph verifies");
        println!("[{label}] reachable: {} objects, {} KB", stats.objects, stats.bytes / 1024);

        let minor = gc.minor_gc(&mut heap);
        println!("[{label}] MinorGC pause: {} ({})", minor.wall, minor.breakdown);
        let major = gc.major_gc(&mut heap);
        println!("[{label}] MajorGC pause: {} ({})", major.wall, major.breakdown);

        // The moving collections preserved the graph bit-for-bit.
        let (sig_after, _) = graph_signature(&heap).expect("heap graph verifies");
        assert_eq!(sig_before, sig_after, "GC must preserve the reachable graph");

        let copy_share = gc
            .breakdown_by_kind(charon::gc::collector::GcKind::Minor)
            .fraction(Bucket::Copy);
        println!("[{label}] minor-GC Copy share: {:.0}%  | total GC: {}", copy_share * 100.0, gc.gc_total_time());
        println!("[{label}] energy: {}\n", gc.sys.energy.account());
    }
    println!("Charon finishes the same collections faster by offloading Copy/Search/Scan&Push/Bitmap Count");
    println!("to the HMC logic layer (see DESIGN.md and `charon-cli paper` for the full evaluation).");
}
