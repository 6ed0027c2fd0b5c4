//! Running cells: the black-box entry points users call, the staged
//! mirror of `run_workload` that the traced pass times stage by stage,
//! and the output checks.

use crate::catalog::{CellDef, Requires, WorkloadDef};
use crate::spans::Tracer;
use charon_gc::collector::{Collector, CollectorKind, GcKind, OutOfMemory};
use charon_gc::system::System;
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::layout::LayoutParams;
use charon_sim::profile::Profiler;
use charon_sim::telemetry::Telemetry;
use charon_workloads::mutator::Mutator;
use charon_workloads::parmatrix::{run_matrix, system_by_label, MatrixJob, MatrixOptions};
use charon_workloads::spec::{by_short, WorkloadSpec};
use charon_workloads::{run_workload, RunOptions, RunResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// GC threads of every cell (the paper's one per core).
const GC_THREADS: usize = 8;

/// One runnable cell: a [`CellDef`] with its spec resolved and seeded.
#[derive(Debug, Clone)]
pub struct Cell {
    pub spec: WorkloadSpec,
    pub platform: &'static str,
    pub collector: CollectorKind,
    /// `None` runs the spec's full length; the harness test and the
    /// set-up probes shorten it.
    pub supersteps: Option<usize>,
}

impl Cell {
    /// Resolves a definition. `seed` is XOR-ed into the spec's own seed
    /// (0 leaves Table 3 unchanged); the library only ever sees the
    /// resulting spec.
    pub fn new(def: &CellDef, seed: u64) -> Cell {
        let mut spec = by_short(def.short).unwrap_or_else(|| panic!("{} is not a Table 3 workload", def.short));
        spec.seed ^= seed;
        Cell { spec, platform: def.platform, collector: def.collector, supersteps: None }
    }

    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.spec.short, self.platform, self.collector.flag_name())
    }

    /// The same spec on the Ideal platform: primitives cost zero
    /// simulated time, so its host time is the functional floor.
    pub fn ideal_twin(&self) -> Cell {
        Cell { platform: "Ideal", ..self.clone() }
    }

    pub fn with_supersteps(&self, steps: usize) -> Cell {
        Cell { supersteps: Some(steps), ..self.clone() }
    }

    fn system(&self) -> System {
        system_by_label(self.platform).unwrap_or_else(|| panic!("unknown platform {}", self.platform))
    }

    /// Telemetry, profiler, census and postmortem all off.
    fn options(&self) -> RunOptions {
        RunOptions {
            gc_threads: GC_THREADS,
            supersteps: self.supersteps,
            collector: self.collector,
            ..Default::default()
        }
    }
}

pub fn cells_of(def: &WorkloadDef, seed: u64) -> Vec<Cell> {
    def.cells.iter().map(|c| Cell::new(c, seed)).collect()
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `f`, turning a panic into the cell's error.
fn guarded<R>(f: impl FnOnce() -> Result<R, OutOfMemory>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(|e| e.to_string()),
        Err(payload) => Err(format!("panic: {}", panic_text(payload))),
    }
}

/// One cell through the black-box entry point, with its wall seconds.
pub fn run_blackbox(cell: &Cell) -> (Result<RunResult, String>, f64) {
    let started = Instant::now();
    let result = guarded(|| run_workload(&cell.spec, cell.system(), &cell.options()));
    (result, started.elapsed().as_secs_f64())
}

/// What one pass through `run_matrix` produced.
pub struct MatrixPass {
    pub results: Vec<Result<RunResult, String>>,
    /// Wall seconds of each cell on its worker thread.
    pub cell_wall_s: Vec<f64>,
    /// Wall seconds of the whole fan-out.
    pub wall_s: f64,
}

/// Every cell through the `parmatrix` fan-out. The cells of a matrix
/// workload share one collector and one superstep override.
pub fn run_matrix_pass(cells: &[Cell], jobs: usize) -> MatrixPass {
    let first = cells.first().expect("a matrix workload has cells");
    assert!(cells
        .iter()
        .all(|c| c.collector == first.collector && c.supersteps == first.supersteps));
    let jobs_list: Vec<MatrixJob> = cells
        .iter()
        .map(|c| MatrixJob { spec: c.spec.clone(), platform: c.platform })
        .collect();
    let opts = MatrixOptions::from_run_options(&first.options());
    let started = Instant::now();
    let outcomes = run_matrix(&jobs_list, &opts, jobs);
    let wall_s = started.elapsed().as_secs_f64();
    MatrixPass {
        cell_wall_s: outcomes.iter().map(|o| o.wall_ns as f64 / 1e9).collect(),
        results: outcomes.into_iter().map(|o| o.result).collect(),
        wall_s,
    }
}

/// The end state of a staged run: what `run_workload` returns plus the
/// heap and collector it normally drops.
pub struct Staged {
    pub result: RunResult,
    pub heap: JavaHeap,
    pub gc: Collector,
}

/// Span names of the staged driver, one per stage boundary.
pub mod stage {
    pub const CELL: &str = "cell";
    pub const HEAP_NEW: &str = "heap.new";
    pub const MUTATOR_NEW: &str = "mutator.new";
    pub const COLLECTOR_NEW: &str = "gc.collector_new";
    pub const BUILD_RESIDENT: &str = "mutator.build_resident";
    pub const SUPERSTEP: &str = "mutator.superstep";
    pub const COLLECT: &str = "result.collect";
    pub const DROP: &str = "result.drop";
}

/// A line-for-line mirror of `charon_workloads::run::run_workload_full`
/// over public API, with one span per stage. It adds only stage-boundary
/// timers; `checks` and the harness test hold it to the same fingerprint
/// as the black-box path.
pub fn run_staged(cell: &Cell, run_id: usize, tr: &mut Tracer) -> Result<Staged, String> {
    let depth = tr.depth();
    let staged = guarded(|| {
        let outer = tr.begin(stage::CELL, run_id);
        let spec = &cell.spec;
        let opts = cell.options();
        let heap_bytes = spec.heap_bytes(opts.heap_factor.unwrap_or(spec.default_heap_factor));
        let mut heap = tr.time(stage::HEAP_NEW, run_id, || {
            JavaHeap::new(HeapConfig {
                layout: LayoutParams { heap_bytes, ..Default::default() },
                ..Default::default()
            })
        });
        let mut mutator = tr.time(stage::MUTATOR_NEW, run_id, || Mutator::new(spec.clone(), &mut heap));
        let (mut gc, platform) = tr.time(stage::COLLECTOR_NEW, run_id, || {
            let mut sys = cell.system();
            sys.set_telemetry(Telemetry::disabled());
            sys.set_profiler(Profiler::disabled());
            let platform = sys.label();
            let mut gc = Collector::new(sys, &heap, opts.gc_threads);
            gc.kind = opts.collector;
            (gc, platform)
        });

        tr.time(stage::BUILD_RESIDENT, run_id, || mutator.build_resident(&mut heap, &mut gc))?;
        let steps = opts.supersteps.unwrap_or(spec.supersteps);
        for _ in 0..steps {
            tr.time(stage::SUPERSTEP, run_id, || mutator.superstep(&mut heap, &mut gc))?;
        }

        let result = tr.time(stage::COLLECT, run_id, || RunResult {
            workload: spec.short,
            platform,
            mutator_time: mutator.mutator_time,
            gc_time: gc.gc_total_time(),
            minor: (gc.gc_time_by_kind(GcKind::Minor), gc.count(GcKind::Minor)),
            major: (gc.gc_time_by_kind(GcKind::Major), gc.count(GcKind::Major)),
            minor_breakdown: gc.breakdown_by_kind(GcKind::Minor),
            major_breakdown: gc.breakdown_by_kind(GcKind::Major),
            gc_dram_bytes: gc.events.iter().map(|e| e.dram_bytes).sum(),
            energy: gc.sys.energy.account().clone(),
            traffic: gc.sys.host.fabric.stats(),
            per_cube_bytes: gc.sys.host.fabric.per_cube_bytes().to_vec(),
            device: gc.sys.device.as_ref().map(|d| d.stats().clone()),
            bitmap_cache: gc.sys.device.as_ref().map(|d| d.bitmap_cache_stats()),
            allocated_bytes: mutator.allocated_bytes,
            profile: None,
            decisions: None,
        });
        tr.end(outer);
        Ok(Staged { result, heap, gc })
    });
    // A stage that failed left its spans open.
    tr.close_to(depth);
    staged
}

/// A staged run reduced to what the timed passes keep: the result and
/// how long each stage took, in stage order (the end state is dropped
/// inside a span of its own, as `run_workload` drops it before it
/// returns).
pub struct Segmented {
    pub result: RunResult,
    pub concmark_cycles: u64,
    pub segments_ns: Vec<u64>,
}

pub fn run_segmented(cell: &Cell, run_id: usize, tr: &mut Tracer) -> Result<Segmented, String> {
    let first_span = tr.spans().len();
    let Staged { result, heap, gc } = run_staged(cell, run_id, tr)?;
    let concmark_cycles = gc.concmark.cycles_started;
    tr.time(stage::DROP, run_id, || drop((heap, gc)));
    let segments_ns = tr.spans()[first_span..]
        .iter()
        .filter(|s| s.name != stage::CELL)
        .map(|s| s.duration_ns())
        .collect();
    Ok(Segmented { result, concmark_cycles, segments_ns })
}

/// Checks 1, 4 and 5 over the passes of one workload run: what the
/// first pass of each cell produced, against which later passes compare.
#[derive(Debug)]
pub struct Checker {
    requires: Requires,
    collectors: Vec<CollectorKind>,
    reference: Vec<Option<RunResult>>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Checker {
    pub fn new(def: &WorkloadDef, cells: &[Cell]) -> Checker {
        Checker {
            requires: def.requires,
            collectors: cells.iter().map(|c| c.collector).collect(),
            reference: vec![None; cells.len()],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// The first successful result of cell `idx`.
    pub fn reference(&self, idx: usize) -> Option<&RunResult> {
        self.reference[idx].as_ref()
    }

    fn fail(&mut self, label: &str, why: String) {
        self.failed += 1;
        self.failures.push(format!("{label}: {why}"));
    }

    /// Records one operation (one cell run) that may have failed on its
    /// own, without comparing it to anything.
    pub fn operation(&mut self, label: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(label, why);
        }
    }

    /// Records one cell run of a pass. `concmark_cycles` is known only on
    /// the staged path (the black-box result does not carry it).
    pub fn cell_run(
        &mut self,
        idx: usize,
        label: &str,
        result: &Result<RunResult, String>,
        concmark_cycles: Option<u64>,
    ) {
        self.attempted += 1;
        let r = match result {
            Ok(r) => r,
            Err(e) => return self.fail(label, e.clone()),
        };
        // Check 5: the cell exercised the feature it was chosen for.
        let wants_majors = self.requires != Requires::Nothing;
        if wants_majors && r.major.1 == 0 {
            return self.fail(label, "no MajorGC fired".to_string());
        }
        if self.requires == Requires::MajorsAndConcurrentCycles && concmark_cycles == Some(0) {
            return self.fail(label, "no concurrent-mark cycle started".to_string());
        }
        // Check 1: every pass of a cell yields the identical fingerprint.
        match &self.reference[idx] {
            None => self.reference[idx] = Some(r.clone()),
            Some(first) if first.fingerprint() != r.fingerprint() => {
                let why = format!(
                    "fingerprint {:?} differs from the first pass's {:?}",
                    r.fingerprint(),
                    first.fingerprint()
                );
                self.fail(label, why);
            }
            Some(_) => {}
        }
    }

    /// Check 4, once the first pass is in: under ps, minor/major counts
    /// and allocated bytes match across the platforms of one spec.
    pub fn cross_platform(&mut self) {
        let mut bad = Vec::new();
        for (i, a) in self.reference.iter().enumerate() {
            for (j, b) in self.reference.iter().enumerate().skip(i + 1) {
                let (Some(a), Some(b)) = (a, b) else { continue };
                let both_ps = self.collectors[i] == CollectorKind::Ps && self.collectors[j] == CollectorKind::Ps;
                if both_ps && a.workload == b.workload && functional_counts(a) != functional_counts(b) {
                    bad.push(format!(
                        "{}: {} {:?} and {} {:?} disagree on minor/major/allocated",
                        a.workload,
                        a.platform,
                        functional_counts(a),
                        b.platform,
                        functional_counts(b)
                    ));
                }
            }
        }
        for why in bad {
            self.failed += 1;
            self.failures.push(why);
        }
    }
}

/// The platform-independent part of a result (check 4).
pub fn functional_counts(r: &RunResult) -> (usize, usize, u64) {
    (r.minor.1, r.major.1, r.allocated_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{workload, WORKLOADS};
    use charon_gc::verify::graph_signature;

    fn bs(platform: &'static str) -> Cell {
        Cell::new(&CellDef { short: "BS", platform, collector: CollectorKind::Ps }, 0).with_supersteps(4)
    }

    /// The fast harness test: a library refactor that silently diverges
    /// the staged mirror from `run_workload` fails here, not only in a
    /// full benchmark run.
    #[test]
    fn staged_mirror_matches_blackbox_and_ideal_twin() {
        for platform in ["DDR4", "Charon"] {
            let cell = bs(platform);
            let mut tr = Tracer::new();
            let staged = run_staged(&cell, 0, &mut tr).expect("BS fits its default heap");
            let (blackbox, _) = run_blackbox(&cell);
            let blackbox = blackbox.expect("BS fits its default heap");
            // Check 2: same fingerprint, and the same machine-readable result.
            assert_eq!(staged.result.fingerprint(), blackbox.fingerprint(), "{platform}");
            assert_eq!(staged.result.to_json().to_string(), blackbox.to_json().to_string(), "{platform}");
            // Check 3: the end-of-run heap verifies and equals the Ideal twin's.
            let twin = run_staged(&cell.ideal_twin(), 1, &mut tr).expect("twin fits");
            let (sig, stats) = graph_signature(&staged.heap).expect("heap graph verifies");
            let (twin_sig, twin_stats) = graph_signature(&twin.heap).expect("twin heap graph verifies");
            assert_eq!(
                (sig, stats.objects, stats.edges),
                (twin_sig, twin_stats.objects, twin_stats.edges),
                "{platform}"
            );
            assert_eq!(functional_counts(&staged.result), functional_counts(&twin.result), "{platform}");
            // One span per stage, four supersteps, all under the cell span.
            assert_eq!(tr.count(stage::SUPERSTEP), 8);
            assert_eq!(tr.count(stage::CELL), 2);
            assert!(tr.spans().iter().all(|s| s.name == stage::CELL || s.parent.is_some()));
        }
    }

    #[test]
    fn seed_zero_leaves_table3_unchanged_and_other_seeds_change_inputs() {
        let def = CellDef { short: "KM", platform: "DDR4", collector: CollectorKind::Ps };
        assert_eq!(Cell::new(&def, 0).spec, by_short("KM").unwrap());
        assert_ne!(Cell::new(&def, 1).spec.seed, by_short("KM").unwrap().seed);
        let a = run_blackbox(&Cell::new(&def, 7).with_supersteps(2)).0.unwrap();
        let b = run_blackbox(&Cell::new(&def, 7).with_supersteps(2)).0.unwrap();
        let c = run_blackbox(&Cell::new(&def, 8).with_supersteps(2)).0.unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "the same seed gives the same inputs");
        assert_ne!(a.allocated_bytes, c.allocated_bytes, "another seed gives other inputs");
    }

    #[test]
    fn checker_counts_failures_per_operation() {
        let def = workload("graph-device").unwrap();
        let cells = cells_of(def, 0);
        let mut ck = Checker::new(def, &cells);
        let short = cells[0].with_supersteps(1);
        let (r, _) = run_blackbox(&short);
        // One superstep of PR fires no MajorGC: check 5 makes that a failure.
        assert_eq!(r.as_ref().unwrap().major.1, 0);
        ck.cell_run(0, "PR/Charon/ps", &r, None);
        ck.cell_run(0, "PR/Charon/ps", &Err("boom".to_string()), None);
        assert_eq!((ck.attempted, ck.failed), (2, 2));
        assert!(ck.failures[0].contains("no MajorGC") && ck.failures[1].contains("boom"));
    }

    #[test]
    fn checker_flags_a_fingerprint_that_moves_between_passes() {
        let def = workload("spark-stream").unwrap();
        let cells = cells_of(def, 0);
        let mut ck = Checker::new(def, &cells);
        let a = run_blackbox(&cells[0].with_supersteps(1)).0;
        let b = run_blackbox(&cells[0].with_supersteps(2)).0;
        ck.cell_run(0, "BS/DDR4/ps", &a, None);
        ck.cell_run(0, "BS/DDR4/ps", &a, None);
        assert_eq!(ck.failed, 0);
        ck.cell_run(0, "BS/DDR4/ps", &b, None);
        assert_eq!(ck.failed, 1);
        // Check 4: BS on Charon at another length disagrees with BS on DDR4.
        let c = run_blackbox(&cells[1].with_supersteps(3)).0;
        ck.cell_run(1, "BS/Charon/ps", &c, None);
        ck.cross_platform();
        assert_eq!(ck.failed, 2);
    }

    #[test]
    fn matrix_pass_matches_serial_cells() {
        let def = WORKLOADS.iter().find(|w| w.matrix).unwrap();
        let cells: Vec<Cell> = cells_of(def, 0).into_iter().take(4).map(|c| c.with_supersteps(1)).collect();
        let pass = run_matrix_pass(&cells, crate::catalog::MATRIX_JOBS);
        assert_eq!(pass.results.len(), 4);
        for (cell, r) in cells.iter().zip(&pass.results) {
            let serial = run_blackbox(cell).0.unwrap();
            assert_eq!(r.as_ref().unwrap().fingerprint(), serial.fingerprint(), "{}", cell.label());
        }
        assert!(pass.wall_s > 0.0 && pass.cell_wall_s.iter().all(|&w| w > 0.0));
    }
}
