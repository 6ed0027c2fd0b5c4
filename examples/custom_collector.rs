//! Using the primitives beyond ParallelScavenge: a CMS-style old-generation
//! mark-sweep built on the same offloadable Scan&Push — the Table 1
//! applicability story as runnable code.
//!
//! The collector logic lives in this repository's `charon_gc::marksweep`;
//! this example drives it directly, shows which primitives fire (and that
//! Bitmap Count does not — CMS never compacts), and inspects the free list
//! the sweep produces. `mark_sweep` is the shortest collector in the
//! crate — open the pause (which runs the prologue) → seed roots → drain →
//! sweep → clear, each step a shared function over the per-collection
//! charging context — and DESIGN.md §3 "Charge protocol" says how to write
//! the next one that way.
//!
//! ```bash
//! cargo run --release --example custom_collector
//! ```

use charon::accel::PrimType;
use charon::gc::collector::Collector;
use charon::gc::freelist::FreeStore;
use charon::gc::marksweep::mark_sweep;
use charon::gc::system::System;
use charon::gc::verify::graph_signature;
use charon::heap::heap::{HeapConfig, JavaHeap};
use charon::heap::VAddr;
use charon::workloads::mutator::Mutator;
use charon::workloads::spec::by_short;

fn main() {
    let spec = by_short("CC").expect("CC is in Table 3");
    let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(spec.default_heap_bytes()));
    let mut m = Mutator::new(spec.clone(), &mut heap);
    let mut gc = Collector::new(System::charon(), &heap, 8);

    // Build a graph, promote it, then kill a third of the roots so the old
    // generation holds garbage for the sweep.
    m.build_resident(&mut heap, &mut gc).expect("sized not to OOM");
    for _ in 0..4 {
        m.superstep(&mut heap, &mut gc).expect("sized not to OOM");
    }
    gc.major_gc(&mut heap);
    for i in 0..heap.root_count() {
        if i % 3 == 0 {
            heap.set_root(i, VAddr::NULL);
        }
    }

    let (sig, before) = graph_signature(&heap).expect("heap graph verifies");
    let offloads_before = gc.sys.device.as_ref().expect("Charon backend").stats().clone();

    // The custom collection: stop-the-world mark (offloaded Scan&Push) +
    // sweep with filler objects and a free list.
    let mut free = FreeStore::new();
    let (totals, stats) = mark_sweep(&mut gc.sys, &mut heap, 8, gc.now, m.klasses().data_array, &mut free);
    let (wall, bd) = (totals.end - gc.now, totals.breakdown);

    let (sig2, after) = graph_signature(&heap).expect("heap graph verifies");
    assert_eq!(sig, sig2, "mark-sweep must preserve the reachable graph");
    assert_eq!(before.objects, after.objects);

    println!("CMS-style old-gen mark-sweep over {}:", spec.name);
    println!("  pause {wall}, breakdown: {bd}");
    println!(
        "  marked {} objects; retained {} KB live in old, swept {} KB into {} free chunks",
        stats.marked_objects,
        stats.old_live_bytes / 1024,
        stats.freed_bytes / 1024,
        stats.free_chunks
    );
    let biggest = free.chunks_by_address().iter().map(|&(_, w)| w * 8).max().unwrap_or(0);
    println!("  largest free chunk: {} KB (free-list allocation would serve from here)", biggest / 1024);

    let d = gc.sys.device.as_ref().expect("Charon backend").stats().clone();
    println!("\nprimitives exercised by the custom collector (Table 1's CMS row):");
    for p in PrimType::ALL {
        let n = d.prim(p).offloads - offloads_before.prim(p).offloads;
        let note = match (p, n) {
            (PrimType::BitmapCount, 0) => "(not applicable: CMS never compacts)",
            (PrimType::Copy | PrimType::Search, 0) => "(the young scavenge's job; unused by the old-gen sweep)",
            _ => "",
        };
        println!("  {p:<14} {n} offloads {note}");
    }
}
