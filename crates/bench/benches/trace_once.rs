//! Trace once, time many — what it costs. Per Table 3 workload (full
//! length, default options), the best of five host walls of the two live
//! runs the Fig. 12 matrix makes for it, DDR4 and Charon, against one DDR4
//! run that records its collections plus a replay of each on Charon. The
//! replayed Charon GC time must equal the live one to the picosecond.
//! Traces are replayed in order and dropped after every superstep, so at
//! most one superstep's collections are held at a time; "trace MB" is the
//! largest such batch. The recording overhead is a recording DDR4 run
//! (traces dropped, not replayed) against the plain one. "RSS" columns are
//! the process's peak resident set during the last repetition of the
//! larger live run and of record + replay (Linux: `VmHWM`, reset through
//! `/proc/self/clear_refs` before each; 0 where that is unavailable).
//!
//! `cargo bench -p charon-bench --bench trace_once`

use charon_bench::{banner, print_row};
use charon_core::device::ScanRef;
use charon_gc::system::System;
use charon_gc::trace::{replay_at, GcTrace, PrimCall, TraceOp};
use charon_heap::addr::VAddr;
use charon_sim::cache::AccessKind;
use charon_sim::time::Ps;
use charon_workloads::run::Run;
use charon_workloads::{table3, RunOptions, WorkloadSpec};
use std::mem::size_of;
use std::time::Instant;

const REPS: usize = 5;

/// Heap bytes a trace holds: its ops plus their operand vectors.
fn trace_bytes(t: &GcTrace) -> usize {
    let operands: usize = t
        .ops
        .iter()
        .map(|op| match op {
            TraceOp::Host { accesses, .. } => accesses.capacity() * size_of::<(VAddr, AccessKind)>(),
            TraceOp::Prim { call: PrimCall::BitmapCount { spans }, .. } => spans.capacity() * size_of::<(VAddr, u64)>(),
            TraceOp::Prim { call: PrimCall::ScanPush { refs, .. }, .. } => refs.capacity() * size_of::<ScanRef>(),
            _ => 0,
        })
        .sum();
    t.ops.capacity() * size_of::<TraceOp>() + operands
}

/// The GC time of a live run of `spec` on `sys`.
fn live(spec: &WorkloadSpec, sys: System, opts: &RunOptions) -> Ps {
    let mut run = Run::new(spec, sys, opts);
    run.drive().expect("benches are sized never to OOM");
    run.gc.gc_total_time()
}

/// A DDR4 run recording its collections, handing each to `each` in order
/// after the stage that ran it; returns the peak bytes of one stage's
/// traces.
fn recorded_ddr4(spec: &WorkloadSpec, opts: &RunOptions, mut each: impl FnMut(&GcTrace)) -> usize {
    let mut sys = System::ddr4();
    sys.record_traces = true;
    let mut run = Run::new(spec, sys, opts);
    let mut peak = 0;
    let mut drain = |run: &mut Run| {
        let traces = std::mem::take(&mut run.gc.sys.traces);
        peak = peak.max(traces.iter().map(trace_bytes).sum());
        traces.iter().for_each(&mut each);
    };
    run.build_resident().expect("benches are sized never to OOM");
    drain(&mut run);
    for _ in 0..run.steps() {
        run.superstep().expect("benches are sized never to OOM");
        drain(&mut run);
    }
    peak
}

/// Seconds `f` takes and the process's peak resident MB while it ran.
fn measure(f: impl FnOnce()) -> (f64, f64) {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let t = Instant::now();
    f();
    let secs = t.elapsed().as_secs_f64();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"));
    (secs, kb.and_then(|v| v.trim().parse::<f64>().ok()).unwrap_or(0.0) / 1024.0)
}

fn main() {
    banner("Trace once, time many", "best-of-5 host seconds; replayed Charon GC time asserted equal to live");
    let head = [
        "DDR4",
        "Charon",
        "live pair",
        "rec+replay",
        "speedup",
        "rec ovh",
        "replay/live",
        "trace MB",
        "live RSS",
        "rec RSS",
    ];
    print_row("workload", &head.map(String::from));
    let opts = RunOptions::default();
    for spec in table3() {
        // Best of REPS for: live DDR4, live Charon, recording DDR4 alone,
        // recording DDR4 + replay on Charon.
        let mut best = [f64::MAX; 4];
        let (mut peak, mut rss) = (0, [0.0; 4]);
        for _ in 0..REPS {
            let mut charon_gc = Ps::ZERO;
            let runs = [
                measure(|| {
                    live(&spec, System::ddr4(), &opts);
                }),
                measure(|| charon_gc = live(&spec, System::charon(), &opts)),
                measure(|| {
                    recorded_ddr4(&spec, &opts, |_| {});
                }),
                measure(|| {
                    let mut sys = Run::new(&spec, System::charon(), &opts).gc.sys;
                    let mut end = Ps::ZERO;
                    peak =
                        recorded_ddr4(&spec, &opts, |trace| end += replay_at(trace, &mut sys, opts.gc_threads, end).0);
                    assert_eq!(end, charon_gc, "{}: replayed Charon GC time != live", spec.short);
                }),
            ];
            for (i, (wall, mb)) in runs.into_iter().enumerate() {
                best[i] = best[i].min(wall);
                rss[i] = mb;
            }
        }
        let [ddr4, charon, recording, rec_replay] = best;
        let pair = ddr4 + charon;
        print_row(
            spec.short,
            &[
                format!("{ddr4:.2}"),
                format!("{charon:.2}"),
                format!("{pair:.2}"),
                format!("{rec_replay:.2}"),
                format!("{:.2}x", pair / rec_replay),
                format!("{:+.0}%", (recording / ddr4 - 1.0) * 100.0),
                format!("{:.0}%", (rec_replay - recording) / charon * 100.0),
                format!("{:.1}", peak as f64 / (1 << 20) as f64),
                format!("{:.0}", rss[0].max(rss[1])),
                format!("{:.0}", rss[3]),
            ],
        );
    }
}
