//! The differential oracle across platforms: a `ps` run's operation stream
//! does not depend on the platform (DESIGN.md decision 6), so the traces of
//! a run recorded on DDR4, replayed in order on one fresh system of another
//! platform, reproduce that platform's live pauses — wall and every Fig. 4
//! bucket — at the default eight GC threads.

use charon_gc::collector::GcKind;
use charon_gc::system::System;
use charon_gc::trace::replay_at;
use charon_gc::Bucket;
use charon_sim::time::Ps;
use charon_workloads::run::Run;
use charon_workloads::spec::by_short;
use charon_workloads::RunOptions;

fn assert_ddr4_trace_replays_live(short: &str, supersteps: usize, majors: bool) {
    let spec = by_short(short).unwrap();
    let opts = RunOptions { supersteps: Some(supersteps), ..Default::default() };
    let mut sys = System::ddr4();
    sys.record_traces = true;
    let mut recorded = Run::new(&spec, sys, &opts);
    recorded.drive().unwrap();
    let traces = &recorded.gc.sys.traces;
    assert_eq!(traces.len(), recorded.gc.events.len());
    assert_eq!(recorded.gc.count(GcKind::Major) > 0, majors, "{short} at {supersteps} supersteps runs a MajorGC");

    for make in [System::hmc, System::charon, System::cpu_side, System::ideal] {
        let mut live = Run::new(&spec, make(), &opts);
        live.drive().unwrap();
        assert_eq!(live.gc.events.len(), traces.len(), "the same collections on {}", live.gc.sys.label());
        // A fresh machine of the platform, its device initialised for the
        // same heap layout.
        let mut sys = Run::new(&spec, make(), &opts).gc.sys;
        let mut start = Ps::ZERO;
        for (trace, event) in traces.iter().zip(&live.gc.events) {
            let at = format!("{short}'s {} at {} on {}", event.kind, event.start, sys.label());
            assert_eq!(start, event.start, "{at} starts where the replay before it ended");
            let (wall, bd) = replay_at(trace, &mut sys, opts.gc_threads, start);
            assert_eq!(wall, event.wall, "replayed wall of {at}");
            for b in Bucket::ALL {
                assert_eq!(bd.get(b), event.breakdown.get(b), "the {b} bucket of {at}");
            }
            start += wall;
        }
    }
}

#[test]
fn a_ddr4_trace_of_bs_with_a_major_gc_replays_every_platforms_live_pauses() {
    assert_ddr4_trace_replays_live("BS", 10, true);
}

#[test]
fn a_ddr4_trace_of_pr_replays_every_platforms_live_pauses() {
    assert_ddr4_trace_replays_live("PR", 2, false);
}
