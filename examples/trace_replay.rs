//! Trace-driven design-space exploration: record one workload's
//! collections, then sweep machine configurations by replaying the traces
//! — no heap, no mutator, just re-timing.
//!
//! This is how a practitioner would size the accelerator: one
//! execution-driven run produces the traces, and each configuration of
//! "how many units / how deep an MAI do I actually need?" is one replay.
//! A replay is exact, not cheap: it skips the mutator and the heap walk but
//! still runs the full cache, DRAM and device model, so it costs most of
//! what a live run on that configuration does (EXPERIMENTS.md "Trace once,
//! time many"). What it guarantees is that every row re-times the very
//! same operation stream — replaying the recording on DDR4 reproduces the
//! live DDR4 GC time to the picosecond, which this example checks.
//!
//! ```bash
//! cargo run --release --example trace_replay
//! ```

use charon::accel::{CharonDevice, Placement, StructureMode};
use charon::gc::collector::Collector;
use charon::gc::system::System;
use charon::gc::trace::replay_at;
use charon::heap::heap::{HeapConfig, JavaHeap};
use charon::heap::layout::LayoutParams;
use charon::sim::time::Ps;
use charon::workloads::mutator::Mutator;
use charon::workloads::spec::by_short;

fn main() {
    // 1. One execution-driven run of LR with trace recording on.
    let spec = by_short("LR").expect("LR is in Table 3");
    let mut heap = JavaHeap::new(HeapConfig {
        layout: LayoutParams { heap_bytes: spec.default_heap_bytes(), ..Default::default() },
        ..Default::default()
    });
    let mut m = Mutator::new(spec.clone(), &mut heap);
    let mut sys = System::ddr4();
    sys.record_traces = true;
    let mut gc = Collector::new(sys, &heap, 8);
    m.build_resident(&mut heap, &mut gc).expect("sized not to OOM");
    for _ in 0..spec.supersteps {
        m.superstep(&mut heap, &mut gc).expect("sized not to OOM");
    }
    let traces = gc.sys.traces.clone();
    let ops: usize = traces.iter().map(|t| t.len()).sum();
    println!(
        "recorded {} collections ({} operations, {} primitive invocations) from one LR run\n",
        traces.len(),
        ops,
        traces.iter().map(|t| t.primitive_count()).sum::<usize>()
    );

    // 2. Replay the whole trace set on a grid of configurations: each
    //    collection starts where the one before it ended, on a machine
    //    whose device is initialised for the same heap layout.
    let total = |sys: System| -> Ps {
        let mut sys = Collector::new(sys, &heap, 8).sys;
        traces.iter().fold(Ps::ZERO, |end, t| end + replay_at(t, &mut sys, 8, end).0)
    };

    let base = total(System::ddr4());
    assert_eq!(base, gc.gc_total_time(), "replaying on the recording configuration is exact");
    println!("{:<34}{:>14}{:>10}", "configuration", "GC time", "speedup");
    println!("{:<34}{:>14}{:>10}", "DDR4 host", base.to_string(), "1.00x");
    for (label, units, mai) in [
        ("Charon, 4 copy units, MAI 16", 4usize, 16usize),
        ("Charon, 8 copy units, MAI 64", 8, 64),
        ("Charon, 16 copy units, MAI 64", 16, 64),
        ("Charon, 8 copy units, MAI 256", 8, 256),
    ] {
        let mut sys = System::charon();
        sys.cfg.charon.copy_search_units = units;
        sys.cfg.charon.mai_entries = mai;
        sys.device = Some(CharonDevice::new(&sys.cfg, Placement::MemorySide, StructureMode::Table4));
        let t = total(sys);
        println!("{label:<34}{:>14}{:>9.2}x", t.to_string(), base.0 as f64 / t.0.max(1) as f64);
    }
    println!("\nThe DDR4 row equals the live run's GC time; each Charon row re-timed the identical");
    println!("operation stream — the execution-driven run happened once. (See charon_gc::trace.)");
}
