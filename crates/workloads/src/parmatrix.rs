//! Deterministic parallel run matrix — fan workload × platform cells
//! across real OS threads.
//!
//! The simulator is single-threaded *inside* one run (a discrete-event
//! loop over one heap), but a bench sweep is an embarrassingly parallel
//! matrix of independent runs: every cell builds its own [`System`], its
//! own heap, and its own mutator from a fixed seed, so running cells on
//! separate threads is bit-for-bit identical to running them back to
//! back. The merge step is trivial — results are collected into the same
//! deterministic (workload-major, platform-minor) order the serial loop
//! produces, so `BENCH_compare.json` is byte-identical at any `--jobs`
//! value. `tests/parmatrix_identity.rs` pins exactly that, and the
//! committed fingerprint baselines re-check every cell's simulated
//! outcome regardless of which thread computed it.
//!
//! Workers never share mutable state: [`parallel_map_result`] hands each
//! worker disjoint item indices through one atomic counter and each result
//! travels back tagged with its index. [`RunOptions`] is plain data, so
//! every worker reads the caller's one value; the `Rc`-based sinks
//! ([`charon_sim::telemetry::Telemetry`], [`charon_sim::profile::Profiler`])
//! belong to a [`System`], and each cell builds its own inside its thread.
//!
//! Each cell's wall-clock cost comes back beside its result
//! ([`MatrixOutcome::wall_ns`]); `perfbench/` is what turns it into a
//! simulator-speed metric (DESIGN.md §9).

use crate::paper::{Cell, Machine};
use crate::run::{RunOptions, RunResult};
use crate::spec::WorkloadSpec;
use charon_gc::system::{Backend, System};
use charon_sim::config::MemPlatform;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The paper's platforms in canonical matrix order: label, backend and
/// the memory platform of its Table 2 config. DDR4 first — it is the
/// speedup baseline everywhere (Fig. 12), so reports index from it.
pub(crate) const PLATFORMS: [(&str, Backend, MemPlatform); 5] = [
    ("DDR4", Backend::Host, MemPlatform::Ddr4),
    ("HMC", Backend::Host, MemPlatform::Hmc),
    ("Charon", Backend::Charon, MemPlatform::Hmc),
    ("Charon-CPU-side", Backend::CpuSideCharon, MemPlatform::Hmc),
    ("Ideal", Backend::Ideal, MemPlatform::Hmc),
];

/// Platform labels in canonical matrix order, DDR4 first, read from the
/// one platform table.
pub const PLATFORM_LABELS: [&str; 5] = [PLATFORMS[0].0, PLATFORMS[1].0, PLATFORMS[2].0, PLATFORMS[3].0, PLATFORMS[4].0];

/// Builds the [`System`] for a platform label, `None` for an unknown one.
pub fn system_by_label(label: &str) -> Option<System> {
    Machine::platform(label).map(|m| m.system())
}

/// The options of a matrix run are the options of a run.
pub type MatrixOptions = RunOptions;

impl RunOptions {
    /// The identity. `perfbench` calls `MatrixOptions::from_run_options`
    /// and this PR may not edit it; the next benchmark PR drops the call
    /// and this function with it.
    pub fn from_run_options(o: &RunOptions) -> RunOptions {
        *o
    }
}

/// One cell of the run matrix.
#[derive(Debug, Clone)]
pub struct MatrixJob {
    /// The workload to run.
    pub spec: WorkloadSpec,
    /// Platform label (a [`PLATFORM_LABELS`] entry).
    pub platform: &'static str,
}

/// What one cell produced: the run result (or the failing platform's
/// error, in the serial loop's `"platform: error"` format) plus the
/// wall-clock cost of computing it. `wall_ns` is for the benchmark
/// (`perfbench/`) only — it never enters `BENCH_compare.json`, which is how
/// the compare report stays byte-identical across `--jobs` values and hosts.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// Two-letter workload code of the cell.
    pub workload: &'static str,
    /// Platform label of the cell.
    pub platform: &'static str,
    /// The run, or the error string the serial path would print.
    pub result: Result<RunResult, String>,
    /// Wall-clock nanoseconds this cell took on its worker thread.
    pub wall_ns: u64,
}

/// The full bench matrix for a set of workloads: every spec × every
/// platform, workload-major — the exact order the serial bench loop
/// visits cells, which makes merged output order-identical.
pub fn full_matrix(specs: &[WorkloadSpec]) -> Vec<MatrixJob> {
    specs
        .iter()
        .flat_map(|spec| {
            PLATFORM_LABELS
                .iter()
                .map(move |&platform| MatrixJob { spec: spec.clone(), platform })
        })
        .collect()
}

/// Renders a caught panic payload as the `String` a `panic!` produced.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `items` on up to `jobs` OS threads, returning per-item
/// results in item order regardless of which worker computed what or
/// when. A panic in `f` is caught *per cell* and surfaced as that cell's
/// `Err` (the panic message) — it never poisons the matrix join, and
/// every other cell still runs to completion.
///
/// Scheduling is dynamic (one shared atomic cursor — long cells do not
/// convoy short ones behind a static partition) but the output is not:
/// each result is tagged with its item index and the merged vector is
/// sorted by it, so callers observe exactly the serial `map`. `jobs <= 1`
/// short-circuits to a plain serial loop with zero thread overhead.
pub fn parallel_map_result<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let call = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_message);
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().map(call).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, Result<R, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, call(item)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("cell panics are caught; the worker loop itself cannot panic"))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// The infallible wrapper over [`parallel_map_result`] for closures that
/// do not panic: a cell that does is reported under the caller-supplied
/// label (e.g. `"BS/Charon"` for a bench cell, `"t3:PR"` for a fleet
/// tenant), so it is identifiable from CI logs without counting items.
///
/// # Panics
///
/// Re-raises the first (lowest-index) cell panic after all workers
/// finish, as `matrix cell <label> panicked: <message>`.
pub fn parallel_map_labeled<T, R, F, L>(items: &[T], jobs: usize, label: L, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    L: Fn(usize, &T) -> String,
{
    parallel_map_result(items, jobs, f)
        .into_iter()
        .zip(items)
        .enumerate()
        .map(|(i, (r, item))| r.unwrap_or_else(|msg| panic!("matrix cell {} panicked: {msg}", label(i, item))))
        .collect()
}

/// Runs every matrix job on up to `jobs` threads as a [`Cell`] of its
/// spec, its platform and `opts`, timing each [`Cell::run`]; the outcomes
/// come back in job order. A cell that panics (a simulator invariant
/// tripping under an extreme configuration) is reported as that job's
/// error outcome; the rest of the matrix completes normally.
pub fn run_matrix(cells: &[MatrixJob], opts: &RunOptions, jobs: usize) -> Vec<MatrixOutcome> {
    let timed = |job: &MatrixJob| {
        let started = Instant::now();
        let result = match Machine::platform(job.platform) {
            Some(machine) => Cell { spec: job.spec.clone(), machine, opts: *opts }.run(),
            None => Err("unknown platform".into()),
        };
        (result, started.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    };
    parallel_map_result(cells, jobs, timed)
        .into_iter()
        .zip(cells)
        .map(|(r, job)| {
            let (result, wall_ns) = r.unwrap_or_else(|msg| (Err(format!("panic: {msg}")), 0));
            let result = result.map_err(|e| format!("{}: {e}", job.platform));
            MatrixOutcome { workload: job.spec.short, platform: job.platform, result, wall_ns }
        })
        .collect()
}

/// Simulated picoseconds a run advanced (mutator + stop-the-world GC).
pub fn simulated_span_ps(r: &RunResult) -> u64 {
    r.mutator_time.0.saturating_add(r.gc_time.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_short;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..37).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let out = parallel_map_labeled(&items, jobs, |i, _| i.to_string(), |&x| x * 3);
            assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>(), "jobs={jobs}");
        }
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map_labeled(&empty, 4, |i, _| i.to_string(), |&x: &u64| x).is_empty());
    }

    #[test]
    fn panicking_cell_surfaces_as_its_own_error() {
        let items: Vec<u64> = (0..16).collect();
        for jobs in [1, 4] {
            let out = parallel_map_result(&items, jobs, |&x| {
                assert!(x != 5, "cell five exploded");
                x * 2
            });
            assert_eq!(out.len(), items.len(), "jobs={jobs}");
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("cell five exploded"), "jobs={jobs}: {msg}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i as u64 * 2), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn labeled_panic_names_the_cell() {
        let items = ["BS/Charon", "KM/HMC"];
        let caught = std::panic::catch_unwind(|| {
            parallel_map_labeled(
                &items,
                1,
                |_, &cell| cell.to_string(),
                |&cell| {
                    assert!(cell != "KM/HMC", "simulator invariant tripped");
                    cell.len()
                },
            )
        })
        .expect_err("the KM/HMC cell must panic");
        let msg = panic_message(caught);
        assert!(msg.contains("matrix cell KM/HMC panicked"), "label missing from: {msg}");
        assert!(msg.contains("simulator invariant tripped"), "original message missing from: {msg}");
    }

    #[test]
    fn matrix_order_is_workload_major() {
        let specs = [by_short("BS").unwrap(), by_short("KM").unwrap()];
        let cells = full_matrix(&specs);
        assert_eq!(cells.len(), 2 * PLATFORM_LABELS.len());
        assert_eq!((cells[0].spec.short, cells[0].platform), ("BS", "DDR4"));
        assert_eq!(cells[PLATFORM_LABELS.len()].spec.short, "KM");
        assert_eq!(cells.last().unwrap().platform, "Ideal");
    }

    #[test]
    fn every_platform_label_builds_a_matching_system() {
        for label in PLATFORM_LABELS {
            let sys = system_by_label(label).expect("known label");
            assert_eq!(sys.label(), label);
        }
        assert!(system_by_label("TPU").is_none());
    }

    #[test]
    fn parallel_cells_match_serial_bit_for_bit() {
        let specs = [by_short("BS").unwrap()];
        let cells = full_matrix(&specs);
        let opts = RunOptions { supersteps: Some(1), ..Default::default() };
        let serial = run_matrix(&cells, &opts, 1);
        let par = run_matrix(&cells, &opts, 4);
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(&par) {
            let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert_eq!(sr.fingerprint(), pr.fingerprint());
            assert_eq!(sr.to_json().to_string(), pr.to_json().to_string(), "{}/{}", s.workload, s.platform);
        }
    }
}
