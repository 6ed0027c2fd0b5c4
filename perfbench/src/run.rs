//! One run of one workload: the shape the benchmark contract prescribes
//! (`--workload W --seed N --seconds S --trace 0|1`).
//!
//! Closed loop, one client: cells run back to back in this thread
//! (`paper-matrix` alone fans out, over [`MATRIX_JOBS`] workers). Every
//! cell is full length, builds a fresh `System` (modelled caches start
//! empty) and is timed from `JavaHeap::new` to the collected result.
//!
//! Every host-time figure is the **fastest** of its repeats, not their
//! median: on the 2-core sandbox this was sized on, a register-only
//! compute loop already runs a quarter slower at its median than at its
//! minimum and the slow phases last seconds, so medians of a 15-second
//! window follow the neighbours' load while minima repeat (README,
//! "Steadiness"). Medians and quartiles are printed beside each minimum.

use crate::catalog::{Better, WorkloadDef, END_TO_END, MATRIX_JOBS, PER_LAYER};
use crate::driver::{
    cells_of, run_blackbox, run_matrix_pass, run_segmented, run_staged, stage, Cell, Checker, MatrixPass,
};
use crate::layers::{
    attribute_cell, json_metrics, json_round_trip, micro_loops, probe, run_twin, span_metrics, Layers,
};
use crate::spans::Tracer;
use crate::stats::{median, min, peak_rss_mb, quartiles};
use charon_sim::json::Json;
use charon_workloads::RunResult;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Timed passes never drop below this, however short `--seconds` is.
const MIN_TIMED_PASSES: usize = 3;
/// Black-box + staged rounds of a traced run never drop below this.
const MIN_TRACED_ROUNDS: usize = 2;
/// Set-up passes taken before each timed pass (at least 15 a run); the
/// fastest is reported, as for every other host time.
const SETUP_PASSES_PER_TIMED_PASS: usize = 5;

pub struct RunArgs {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its span dump.
    pub spans_out: Option<PathBuf>,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
}

/// What a run reports: the contract's result line plus the lines a human
/// reads above it.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Declared metrics in declaration order.
    pub metrics: Vec<Metric>,
    /// Context lines (pass times, quartiles, failed operations).
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name, Json::obj(vec![("value", Json::F64(m.value)), ("unit", Json::str(m.unit))])));
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }
}

pub fn run(args: &RunArgs) -> Report {
    let cells = cells_of(args.workload, args.seed);
    let mut checker = Checker::new(args.workload, &cells);
    let mut notes = Vec::new();
    let values = match (args.workload.matrix, args.trace) {
        (false, false) => timed_cells(&cells, args.seconds, &mut checker, &mut notes),
        (true, false) => timed_matrix(&cells, args.seconds, &mut checker, &mut notes),
        (false, true) => traced_cells(&cells, args, &mut checker, &mut notes),
        (true, true) => traced_matrix(&cells, args.seconds, &mut checker, &mut notes),
    };
    notes.extend(checker.failures.iter().map(|f| format!("FAILED {f}")));
    let value = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let metric = |name, unit, better| Metric { name, value: value(name), unit, better };
    let metrics = if args.trace {
        PER_LAYER.iter().map(|m| metric(m.name, m.unit, m.better)).collect()
    } else {
        END_TO_END.iter().map(|m| metric(m.name, m.unit, m.better)).collect()
    };
    Report { attempted: checker.attempted, failed: checker.failed, metrics, notes }
}

fn describe(what: &str, samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples);
    format!(
        "{what}: min {:.4} s, median {:.4} s, quartiles {:.4}..{:.4} s over {} samples",
        min(samples),
        median(samples),
        q1,
        q3,
        samples.len()
    )
}

/// Simulated GC seconds of the workload's cells (first pass; later
/// passes must repeat it bit for bit). Host seconds are reported per
/// simulated GC second because the seed moves how many collections a
/// cell runs (CC: 4 minor / 2 major or 5 / 1) and with it the raw wall
/// time by 40 %, while host time per simulated GC second holds.
fn simulated_gc_seconds(checker: &Checker, cells: usize) -> f64 {
    (0..cells)
        .filter_map(|i| checker.reference(i))
        .map(|r| r.gc_time.as_secs())
        .sum()
}

fn end_to_end(host_s: f64, sim_gc_s: f64, setup: &[f64]) -> BTreeMap<&'static str, f64> {
    let mut values = BTreeMap::new();
    values.insert("host_s_per_sim_gc_s", if sim_gc_s > 0.0 { host_s / sim_gc_s } else { 0.0 });
    // VmHWM right after the last timed pass; nothing runs after it.
    values.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    values.insert("setup_s", min(setup));
    values
}

/// Set-up as users pay it on every cell: `run_workload` at zero
/// supersteps builds the heap, the mutator, the simulated machine and the
/// resident structure, collects the (empty) result, and drops it all. A
/// set-up pass does that for every cell of the workload, through the same
/// entry point the timed passes use. A few are taken before each timed
/// pass, so the samples spread over the whole run and not over its first
/// tenth of a second, which a slow phase of the machine can cover.
struct SetUp {
    probes: Vec<Cell>,
    matrix: bool,
    samples: Vec<f64>,
}

impl SetUp {
    fn new(cells: &[Cell], matrix: bool) -> SetUp {
        SetUp { probes: cells.iter().map(|c| c.with_supersteps(0)).collect(), matrix, samples: Vec::new() }
    }

    fn sample(&mut self, checker: &mut Checker) {
        for _ in 0..SETUP_PASSES_PER_TIMED_PASS {
            let started = Instant::now();
            let results: Vec<Result<RunResult, String>> = if self.matrix {
                run_matrix_pass(&self.probes, MATRIX_JOBS).results
            } else {
                self.probes.iter().map(|p| run_blackbox(p).0).collect()
            };
            self.samples.push(started.elapsed().as_secs_f64());
            for (probe, result) in self.probes.iter().zip(results) {
                checker.operation(&format!("{} set-up", probe.label()), result.map(|_| ()));
            }
        }
    }
}

/// `--trace 0`, cells back to back. The passes go through the staged
/// mirror of `run_workload` (held to the black-box path's fingerprint by
/// every traced run and by the harness test) because only it can be timed
/// stage by stage: a cell's host time is the sum over its stages of each
/// stage's fastest repeat, which needs far fewer passes to find an
/// undisturbed sample of everything than the fastest whole cell does.
fn timed_cells(
    cells: &[Cell],
    seconds: f64,
    checker: &mut Checker,
    notes: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut setup = SetUp::new(cells, false);
    let mut tr = Tracer::new();
    let mut best: Vec<Vec<u64>> = vec![Vec::new(); cells.len()];
    let mut passes = Vec::new();
    let mut run_id = 0;
    let started = Instant::now();
    while passes.len() < MIN_TIMED_PASSES || started.elapsed().as_secs_f64() < seconds {
        setup.sample(checker);
        let pass_started = Instant::now();
        for (i, cell) in cells.iter().enumerate() {
            let run = run_segmented(cell, run_id, &mut tr);
            run_id += 1;
            let cycles = run.as_ref().ok().map(|r| r.concmark_cycles);
            checker.cell_run(i, &cell.label(), &run.as_ref().map(|r| r.result.clone()).map_err(Clone::clone), cycles);
            let Ok(run) = run else { continue };
            if best[i].len() == run.segments_ns.len() {
                best[i].iter_mut().zip(&run.segments_ns).for_each(|(b, &ns)| *b = (*b).min(ns));
            } else if best[i].is_empty() {
                best[i] = run.segments_ns;
            }
        }
        passes.push(pass_started.elapsed().as_secs_f64());
    }
    checker.cross_platform();
    notes.push(describe("timed pass", &passes));
    let host_s = best.iter().flatten().sum::<u64>() as f64 / 1e9;
    notes.push(format!("fastest repeat of each stage of each cell, summed: {host_s:.4} s"));
    notes.push(describe("set-up pass", &setup.samples));
    end_to_end(host_s, simulated_gc_seconds(checker, cells.len()), &setup.samples)
}

fn record_matrix_pass(cells: &[Cell], pass: &MatrixPass, checker: &mut Checker) {
    for (i, (cell, result)) in cells.iter().zip(&pass.results).enumerate() {
        checker.cell_run(i, &cell.label(), result, None);
    }
}

/// `--trace 0`, `paper-matrix`: the fan-out users hit via `bench --jobs 2`.
fn timed_matrix(
    cells: &[Cell],
    seconds: f64,
    checker: &mut Checker,
    notes: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut setup = SetUp::new(cells, true);
    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.len() < MIN_TIMED_PASSES || started.elapsed().as_secs_f64() < seconds {
        setup.sample(checker);
        let pass = run_matrix_pass(cells, MATRIX_JOBS);
        record_matrix_pass(cells, &pass, checker);
        passes.push(pass.wall_s);
    }
    checker.cross_platform();
    notes.push(describe("timed pass", &passes));
    notes.push(describe("set-up pass", &setup.samples));
    end_to_end(min(&passes), simulated_gc_seconds(checker, cells.len()), &setup.samples)
}

/// `--trace 1`, cells back to back: rounds of one black-box pass and one
/// staged pass in which every cell is followed by its Ideal twin, with
/// the rest of the attribution work (check 3, probes, primitive loops)
/// done in the first round while both end states are alive.
fn traced_cells(
    cells: &[Cell],
    args: &RunArgs,
    checker: &mut Checker,
    notes: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut tr = Tracer::new();
    let mut layers = Layers::default();
    let n = cells.len();
    let mut best_blackbox = vec![f64::INFINITY; n];
    let mut best_staged: Vec<Option<(usize, u64)>> = vec![None; n];
    let mut best_twin: Vec<Option<(usize, u64)>> = vec![None; n];
    let mut probe_ids = vec![usize::MAX; n];
    let mut blackbox_passes = Vec::new();
    let mut next_id = 0;
    let mut fresh_id = || {
        next_id += 1;
        next_id - 1
    };
    let mut rounds = 0;
    let started = Instant::now();
    while rounds < MIN_TRACED_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        let mut pass_s = 0.0;
        for (i, cell) in cells.iter().enumerate() {
            let (result, wall_s) = run_blackbox(cell);
            checker.cell_run(i, &cell.label(), &result, None);
            if result.is_ok() {
                best_blackbox[i] = best_blackbox[i].min(wall_s);
            }
            pass_s += wall_s;
        }
        blackbox_passes.push(pass_s);

        for (i, cell) in cells.iter().enumerate() {
            let run_id = fresh_id();
            let label = format!("{} staged", cell.label());
            let staged = run_staged(cell, run_id, &mut tr);
            let cycles = staged.as_ref().ok().map(|s| s.gc.concmark.cycles_started);
            // Check 2 rides on check 1: the staged result must equal the
            // black-box reference recorded just above.
            checker.cell_run(i, &label, &staged.as_ref().map(|s| s.result.clone()).map_err(Clone::clone), cycles);
            let Ok(mut staged) = staged else { continue };
            let twin_id = fresh_id();
            let twin = run_twin(cell, twin_id, &mut tr);
            checker.operation(&format!("{} Ideal twin", cell.label()), twin.as_ref().map(|_| ()).map_err(Clone::clone));
            if let Ok(mut twin) = twin {
                let ns = tr
                    .spans()
                    .iter()
                    .rev()
                    .find(|s| s.name == probe::TWIN)
                    .map_or(0, |s| s.duration_ns());
                if best_twin[i].is_none_or(|(_, best)| ns < best) {
                    best_twin[i] = Some((twin_id, ns));
                }
                if rounds == 0 {
                    probe_ids[i] = twin_id;
                    let outcome = attribute_cell(cell, &mut staged, &mut twin, twin_id, &mut layers, &mut tr);
                    checker.operation(&format!("{} attribution", cell.label()), outcome);
                }
            }
            // `run_workload` drops the end state before it returns, so a
            // staged run's wall is its cell span plus the drop.
            tr.time(stage::DROP, run_id, || drop(staged));
            let ns: u64 = tr
                .spans()
                .iter()
                .filter(|s| s.cell == run_id && matches!(s.name, stage::CELL | stage::DROP))
                .map(|s| s.duration_ns())
                .sum();
            if best_staged[i].is_none_or(|(_, best)| ns < best) {
                best_staged[i] = Some((run_id, ns));
            }
        }
        rounds += 1;
    }
    checker.cross_platform();
    for i in 0..n {
        if let Some(r) = checker.reference(i) {
            layers.add_result(r);
        }
    }
    let (cache_ns, bwres_ns) = micro_loops(&mut tr);

    let blackbox_s: f64 = best_blackbox.iter().filter(|w| w.is_finite()).sum();
    let staged_s: f64 = best_staged.iter().flatten().map(|&(_, ns)| ns as f64 / 1e9).sum();
    notes.push(describe("black-box pass", &blackbox_passes));
    notes.push(format!("fastest run of each cell, summed: black-box {blackbox_s:.4} s, staged {staged_s:.4} s"));

    let staged_ids: Vec<usize> = best_staged.iter().flatten().map(|&(id, _)| id).collect();
    let twin_ids: Vec<usize> = best_twin.iter().flatten().map(|&(id, _)| id).collect();
    let platforms: Vec<&str> = cells.iter().map(|c| c.platform).collect();
    let mut values: BTreeMap<&'static str, f64> = layers.counters().into_iter().collect();
    let complete = staged_ids.len() == n && twin_ids.len() == n && probe_ids.iter().all(|&t| t != usize::MAX);
    if complete {
        values.extend(span_metrics(&tr, &staged_ids, &twin_ids, &probe_ids, &platforms));
    }
    values.extend(json_metrics(&tr));
    let device_ms = values.get("model.device_ms").copied().unwrap_or(0.0);
    let offloads = layers.offloads();
    values.insert("core.ns_per_offload", if offloads > 0 { device_ms * 1e6 / offloads as f64 } else { 0.0 });
    values.insert("pass.wall_ms", blackbox_s * 1e3);
    values.insert("pass.wall_median_ms", median(&blackbox_passes) * 1e3);
    values.insert("sim.cache_access_ns", cache_ns);
    values.insert("sim.bwres_reserve_ns", bwres_ns);
    values.insert("sim.gps_per_wall_s", if blackbox_s > 0.0 { layers.gps_per_wall_s(blackbox_s) } else { 0.0 });
    values.insert(
        "trace.overhead_pct",
        if blackbox_s > 0.0 { (staged_s - blackbox_s) * 100.0 / blackbox_s } else { 0.0 },
    );
    values.insert("trace.spans", tr.spans().len() as f64);
    values.insert("trace.staged_passes", rounds as f64);
    write_spans(&tr, args, notes);
    values
}

/// `--trace 1`, `paper-matrix`: one serial pass through
/// `run_matrix(.., jobs = 1)` is the reference every 2-job pass must
/// equal (check 1); the per-cell walls of the fastest 2-job pass give
/// the fan-out's efficiency and its critical cell.
fn traced_matrix(
    cells: &[Cell],
    seconds: f64,
    checker: &mut Checker,
    notes: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let started = Instant::now();
    let serial = run_matrix_pass(cells, 1);
    record_matrix_pass(cells, &serial, checker);
    notes.push(format!("serial reference pass: {:.4} s", serial.wall_s));
    let mut passes: Vec<MatrixPass> = Vec::new();
    while passes.len() < MIN_TRACED_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let pass = run_matrix_pass(cells, MATRIX_JOBS);
        record_matrix_pass(cells, &pass, checker);
        passes.push(pass);
    }
    checker.cross_platform();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    notes.push(describe("2-job pass", &walls));
    let fastest = passes
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least two passes ran");

    let mut tr = Tracer::new();
    let mut layers = Layers::default();
    let results: Vec<RunResult> = (0..cells.len()).filter_map(|i| checker.reference(i).cloned()).collect();
    for (i, r) in results.iter().enumerate() {
        layers.add_result(r);
        let outcome = json_round_trip(r, i, &mut layers, &mut tr);
        checker.operation(&format!("{}/{} JSON round trip", r.workload, r.platform), outcome);
    }
    layers.add_paper_pairs(&results);

    let cell_sum_s: f64 = fastest.cell_wall_s.iter().sum();
    let mut values: BTreeMap<&'static str, f64> = layers.counters().into_iter().collect();
    values.extend(json_metrics(&tr));
    values.insert("pass.wall_ms", fastest.wall_s * 1e3);
    values.insert("pass.wall_median_ms", median(&walls) * 1e3);
    values.insert("parmatrix.cells", cells.len() as f64);
    values.insert("parmatrix.cell_sum_s", cell_sum_s);
    values.insert("parmatrix.efficiency_pct", cell_sum_s * 100.0 / (MATRIX_JOBS as f64 * fastest.wall_s));
    values.insert("parmatrix.critical_cell_s", fastest.cell_wall_s.iter().copied().fold(0.0, f64::max));
    values.insert("sim.gps_per_wall_s", layers.gps_per_wall_s(fastest.wall_s));
    values.insert("trace.spans", tr.spans().len() as f64);
    values
}

fn write_spans(tr: &Tracer, args: &RunArgs, notes: &mut Vec<String>) {
    let Some(path) = &args.spans_out else { return };
    match std::fs::write(path, tr.to_json().to_string()) {
        Ok(()) => notes.push(format!("{} spans written to {}", tr.spans().len(), path.display())),
        Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// Whether `new` is worse than `old` by more than `bound` of `old`.
pub fn worse_by_more_than(better: Better, old: f64, new: f64, bound: f64) -> bool {
    match better {
        Better::Lower => new > old * (1.0 + bound),
        Better::Higher => new < old * (1.0 - bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::workload;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric { name: "setup_s", value: 0.8127, unit: "s", better: Better::Lower },
                Metric { name: "peak_rss_mb", value: 100.5, unit: "MB", better: Better::Lower },
            ],
            notes: Vec::new(),
        };
        let line = report.result_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_run_with_a_failed_operation_or_none_at_all_is_not_correct() {
        let report = |attempted, failed| Report { attempted, failed, metrics: Vec::new(), notes: Vec::new() };
        assert!(report(5, 0).correct());
        assert!(!report(5, 1).correct());
        assert!(!report(0, 0).correct());
    }

    #[test]
    fn worse_respects_direction_and_bound() {
        assert!(worse_by_more_than(Better::Lower, 1.0, 1.11, 0.10));
        assert!(!worse_by_more_than(Better::Lower, 1.0, 1.09, 0.10));
        assert!(!worse_by_more_than(Better::Lower, 1.0, 0.5, 0.10));
        assert!(worse_by_more_than(Better::Higher, 100.0, 89.0, 0.10));
        assert!(!worse_by_more_than(Better::Higher, 100.0, 150.0, 0.10));
    }

    /// Both modes emit exactly the declared names, in declaration order
    /// (the `BENCHMARK.json` ↔ emitted-name agreement; the catalog test
    /// ties the declarations to the file).
    #[test]
    fn emitted_metric_names_are_exactly_the_declared_ones() {
        // spark-stream's ALS cells finish in well under a second.
        let def = workload("spark-stream").unwrap();
        for trace in [false, true] {
            let args = RunArgs { workload: def, seed: 0, seconds: 0.0, trace, spans_out: None };
            let report = run(&args);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            let declared: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(names, declared);
            assert!(report.correct(), "{:?}", report.notes);
            if !trace {
                assert!(report.metrics.iter().all(|m| m.value > 0.0), "end-to-end metrics are never 0");
            }
        }
    }
}
