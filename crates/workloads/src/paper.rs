//! The paper's evaluation (§5) as one report: every figure and table,
//! each claim row with our number, the paper's number and a verdict.
//!
//! A section (one figure or table) is a function of a cell lookup, where
//! a [`Cell`] is one workload run on one [`Machine`] (a backend and the
//! config it is built from) with one set of run options (heap factor,
//! GC threads, collector). Building the sections over an empty
//! lookup lists the cells they read — each distinct cell once, so Fig. 4
//! reads Fig. 2's 1.25× runs and Figs. 12–17 share the 6 × 5 matrix —
//! the cells run through [`parallel_map_result`], and building the
//! sections again over the results gives the [`PaperReport`]. A section
//! therefore looks up every cell it needs before it combines any: a
//! lookup behind a missing one would never be planned.
//!
//! The report renders as JSON ([`PaperReport::to_json`]) and as markdown
//! blocks between `<!-- paper:ID -->` and `<!-- /paper:ID -->` markers
//! ([`PaperReport::to_markdown`]); `scripts/paper_tables.sh` splices the
//! blocks into EXPERIMENTS.md. Cell order, and with it every byte of
//! both renderings, is the same at any job count.

use crate::parmatrix::{parallel_map_result, PLATFORMS};
use crate::run::{run_workload, RunOptions, RunResult};
use crate::spec::{by_short, table3, Framework, WorkloadSpec};
use charon_core::{area, PrimType, StructureMode};
use charon_gc::breakdown::{Breakdown, Bucket};
use charon_gc::collector::CollectorKind;
use charon_gc::system::{Backend, OffloadMask, System};
use charon_sim::config::SystemConfig;
use charon_sim::json::Json;
use std::cell::RefCell;
use std::fmt::Write as _;

/// The machine a cell runs on: a backend, the config it is built from,
/// and the primitives it offloads. A variant the paper measures (Fig. 15's
/// structure placements, the ablation's masks, MAI depths, unit counts and
/// prefetcher) is a platform with one edit, so two machines are the same
/// exactly when they are equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Which backend executes the primitives.
    pub backend: Backend,
    /// What the host, the DRAM side and the device are built from.
    pub cfg: SystemConfig,
    /// Which primitives the backend offloads.
    pub mask: OffloadMask,
}

impl Machine {
    /// A [`crate::parmatrix::PLATFORM_LABELS`] platform as built: its
    /// Table 2 config, every primitive offloaded; `None` for an unknown
    /// label.
    pub fn platform(label: &str) -> Option<Machine> {
        let &(_, backend, platform) = PLATFORMS.iter().find(|(l, ..)| *l == label)?;
        let cfg = SystemConfig { platform, ..SystemConfig::table2_ddr4() };
        Some(Machine { backend, cfg, mask: OffloadMask::all() })
    }

    /// The machine with `edit` applied to its config.
    pub fn with(mut self, edit: impl FnOnce(&mut SystemConfig)) -> Machine {
        edit(&mut self.cfg);
        self
    }

    /// Builds the machine.
    pub fn system(&self) -> System {
        let mut sys = System::new(self.cfg, self.backend);
        sys.offload = self.mask;
        sys
    }
}

/// One run: a workload on a machine with these run options.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The workload.
    pub spec: WorkloadSpec,
    /// The machine.
    pub machine: Machine,
    /// Heap factor, GC threads, collector and the rest of the run's options.
    pub opts: RunOptions,
}

impl Cell {
    /// `workload` on a [`crate::parmatrix::PLATFORM_LABELS`] platform with
    /// the default options.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload or platform.
    pub fn new(workload: &str, platform: &str) -> Cell {
        let spec = by_short(workload).unwrap_or_else(|| panic!("unknown workload {workload}"));
        let machine = Machine::platform(platform).unwrap_or_else(|| panic!("unknown platform {platform}"));
        Cell { spec, machine, opts: RunOptions::default() }
    }

    /// The cell with `edit` applied to its run options.
    pub fn with(mut self, edit: impl FnOnce(&mut RunOptions)) -> Cell {
        edit(&mut self.opts);
        self
    }

    /// Runs the cell; running out of memory is the error.
    pub fn run(&self) -> Result<RunResult, String> {
        run_workload(&self.spec, self.machine.system(), &self.opts).map_err(|e| e.to_string())
    }
}

/// Runs `cells` on up to `jobs` threads, results in cell order; a cell
/// that panics reads as `"panic: <message>"`.
pub fn run_cells(cells: &[Cell], jobs: usize) -> Vec<Result<RunResult, String>> {
    let runs = parallel_map_result(cells, jobs, Cell::run);
    runs.into_iter()
        .map(|r| r.unwrap_or_else(|msg| Err(format!("panic: {msg}"))))
        .collect()
}

/// GC-time speedup of `r` over `base`.
pub fn speedup(base: &RunResult, r: &RunResult) -> f64 {
    base.gc_time.0 as f64 / r.gc_time.0.max(1) as f64
}

/// The share of `base`'s GC energy that `r` saves.
pub fn energy_saving(base: &RunResult, r: &RunResult) -> f64 {
    1.0 - r.energy.total_j() / base.energy.total_j()
}

/// Fig. 14's per-primitive speedup: bucket `b`'s MinorGC + MajorGC time
/// on `host` over that on `dev`; `None` when either spent none there.
pub fn bucket_speedup(host: &RunResult, dev: &RunResult, b: Bucket) -> Option<f64> {
    let time = |r: &RunResult| r.minor_breakdown.get(b).0 + r.major_breakdown.get(b).0;
    let (h, d) = (time(host), time(dev));
    (h > 0 && d > 0).then(|| h as f64 / d as f64)
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// How a number prints.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Unit {
    /// `2.46×`.
    Ratio,
    /// A fraction as a percentage, `74.1%`.
    Pct,
    /// A plain number with this many decimals.
    Fixed(usize),
}

impl Unit {
    fn show(self, v: Option<f64>) -> String {
        match (self, v) {
            (_, None) => "-".into(),
            (Unit::Ratio, Some(x)) => format!("{x:.2}×"),
            (Unit::Pct, Some(x)) => format!("{:.1}%", x * 100.0),
            (Unit::Fixed(p), Some(x)) => format!("{x:.p$}"),
        }
    }
}

/// The factor a within-claim may miss the paper's number by, either way.
const WITHIN: f64 = 1.5;

/// One claim of the paper held against our number. An ordering claim
/// (`unit` `None`) counts in `ours` the cases where the ordering holds,
/// of `paper` cases, and is reproduced when it holds in more than half;
/// any other claim is reproduced when `ours` is within [`WITHIN`] of
/// `paper`.
#[derive(Debug, Clone)]
struct Claim {
    what: String,
    /// `None` when a cell the number needs is missing.
    ours: Option<f64>,
    paper: f64,
    unit: Option<Unit>,
}

/// A claim that an ordering holds in each case; a case whose cell is
/// missing does not hold.
fn ordering(what: &str, cases: impl IntoIterator<Item = Option<bool>>) -> Claim {
    let cases: Vec<Option<bool>> = cases.into_iter().collect();
    let holds = cases.iter().filter(|&&c| c == Some(true)).count() as f64;
    Claim { what: what.into(), ours: Some(holds), paper: cases.len() as f64, unit: None }
}

fn within(what: &str, unit: Unit, ours: Option<f64>, paper: f64) -> Claim {
    Claim { what: what.into(), ours, paper, unit: Some(unit) }
}

impl Claim {
    /// "ordering holds k/n", "within 1.5×" or "not reproduced"; a missing
    /// number is never reproduced.
    fn verdict(&self) -> String {
        match (self.unit, self.ours) {
            (None, Some(k)) if 2.0 * k > self.paper => format!("ordering holds {k}/{}", self.paper),
            (Some(_), Some(x)) if x * WITHIN >= self.paper && x <= self.paper * WITHIN => format!("within {WITHIN}×"),
            _ => "not reproduced".into(),
        }
    }

    /// The claim's row: claim, ours, paper, rule, verdict.
    fn cells(&self) -> [String; 5] {
        let n = self.paper;
        let (ours, paper, rule) = match self.unit {
            None => (format!("{}/{n}", self.ours.unwrap_or(0.0)), format!("{n}/{n}"), "holds in more than half".into()),
            Some(unit) => (unit.show(self.ours), unit.show(Some(self.paper)), format!("within {WITHIN}×")),
        };
        [self.what.clone(), ours, paper, rule, self.verdict()]
    }

    fn to_json(&self) -> Json {
        let [claim, _, _, rule, verdict] = self.cells().map(Json::Str);
        let (ours, paper) = (self.ours.map_or(Json::Null, Json::F64), Json::F64(self.paper));
        Json::obj([("claim", claim), ("ours", ours), ("paper", paper), ("rule", rule), ("verdict", verdict)])
    }
}

/// One labelled row of numbers; `None` prints as `-`.
type Row = (String, Vec<Option<f64>>);

/// One figure or table.
#[derive(Debug, Clone)]
struct Section {
    /// The marker id in EXPERIMENTS.md.
    id: &'static str,
    caption: String,
    /// The label column's header, then the value columns'.
    head: Vec<String>,
    units: Vec<Unit>,
    rows: Vec<Row>,
    /// Verbatim text, for the tables other subcommands print.
    text: Option<String>,
    claims: Vec<Claim>,
}

/// A section with a "workload" label column, then `columns` that print in `unit`.
fn table(id: &'static str, caption: &str, columns: impl IntoIterator<Item = impl ToString>, unit: Unit) -> Section {
    let mut head = vec!["workload".to_string()];
    head.extend(columns.into_iter().map(|c| c.to_string()));
    let units = vec![unit; head.len() - 1];
    Section { id, caption: caption.into(), head, units, rows: Vec::new(), text: None, claims: Vec::new() }
}

fn text(id: &'static str, caption: &str, text: Option<String>) -> Section {
    Section { text, ..table(id, caption, Vec::<String>::new(), Unit::Ratio) }
}

/// One row per Table 3 workload.
fn by_workload(mut f: impl FnMut(&WorkloadSpec) -> Vec<Option<f64>>) -> Vec<Row> {
    table3().iter().map(|w| (w.short.to_string(), f(w))).collect()
}

impl Section {
    /// `f` over every data row.
    fn each(&self, f: impl Fn(&[Option<f64>]) -> Option<bool>) -> Vec<Option<bool>> {
        self.rows.iter().map(|(_, v)| f(v)).collect()
    }

    /// A row folding each column's present values with `f`.
    fn fold_row(&self, label: &str, f: fn(&[f64]) -> f64) -> Row {
        let column = |i: usize| self.rows.iter().map(|(_, v)| v[i]).collect::<Vec<_>>();
        (label.into(), (0..self.units.len()).map(|i| fold(&column(i), f)).collect())
    }

    fn to_json(&self) -> Json {
        let num = |v: &Option<f64>| v.map_or(Json::Null, Json::F64);
        let row =
            |(l, v): &Row| Json::obj([("label", Json::str(l)), ("values", Json::Arr(v.iter().map(num).collect()))]);
        Json::obj([
            ("id", Json::str(self.id)),
            ("caption", Json::str(&self.caption)),
            ("columns", Json::Arr(self.head[1..].iter().map(Json::str).collect())),
            ("rows", Json::Arr(self.rows.iter().map(row).collect())),
            ("text", self.text.as_deref().map_or(Json::Null, Json::str)),
            ("claims", Json::Arr(self.claims.iter().map(Claim::to_json).collect())),
        ])
    }

    fn to_markdown(&self) -> String {
        let mut out = format!("<!-- paper:{} -->\n*{}*\n\n", self.id, self.caption);
        if let Some(text) = &self.text {
            let _ = writeln!(out, "```\n{text}\n```\n");
        }
        let show = |(label, vals): &Row| {
            let cells = vals.iter().zip(&self.units).map(|(&v, unit)| unit.show(v));
            [label.clone()].into_iter().chain(cells).collect()
        };
        markdown_table(&mut out, &self.head, self.rows.iter().map(show).collect());
        let claims = self.claims.iter().map(|c| c.cells().to_vec()).collect();
        markdown_table(&mut out, &["claim", "ours", "paper", "rule", "verdict"].map(String::from), claims);
        let _ = writeln!(out, "<!-- /paper:{} -->\n", self.id);
        out
    }
}

/// A markdown table, or nothing when it has no rows.
fn markdown_table(out: &mut String, head: &[String], rows: Vec<Vec<String>>) {
    if rows.is_empty() {
        return;
    }
    let rule = vec!["---".to_string(); head.len()];
    for cells in [head.to_vec(), rule].into_iter().chain(rows) {
        let _ = writeln!(out, "| {} |", cells.join(" | "));
    }
    out.push('\n');
}

/// `f` over the present values; `None` when there are none.
fn fold(xs: &[Option<f64>], f: fn(&[f64]) -> f64) -> Option<f64> {
    let present: Vec<f64> = xs.iter().flatten().copied().collect();
    (!present.is_empty()).then(|| f(&present))
}

/// Whether the values strictly rise; `None` when one is missing.
fn rising(xs: &[Option<f64>]) -> Option<bool> {
    let xs: Vec<f64> = xs.iter().copied().collect::<Option<_>>()?;
    Some(xs.windows(2).all(|w| w[0] < w[1]))
}

/// Both runs, or `None`. Both arguments are lookups, so both are planned.
fn both<'a>(a: Option<&'a RunResult>, b: Option<&'a RunResult>) -> Option<(&'a RunResult, &'a RunResult)> {
    Some((a?, b?))
}

/// The speedup of the looked-up `r` over the looked-up `base`.
fn gain(base: Option<&RunResult>, r: Option<&RunResult>) -> Option<f64> {
    both(base, r).map(|(b, r)| speedup(b, r))
}

/// The cells the sections read, and their runs once run. A cell not run
/// (while planning) or failed reads as missing.
#[derive(Default)]
struct Cells {
    cells: RefCell<Vec<Cell>>,
    runs: Vec<Option<RunResult>>,
}

impl Cells {
    fn get(&self, cell: Cell) -> Option<&RunResult> {
        let mut cells = self.cells.borrow_mut();
        let i = cells.iter().position(|c| *c == cell).unwrap_or_else(|| {
            cells.push(cell);
            cells.len() - 1
        });
        self.runs.get(i)?.as_ref()
    }

    fn on(&self, workload: &str, platform: &str) -> Option<&RunResult> {
        self.get(Cell::new(workload, platform))
    }
}

/// Every cell the report reads, each once, in the order it runs them.
fn plan() -> Vec<Cell> {
    let planning = Cells::default();
    sections(&planning);
    planning.cells.into_inner()
}

/// The whole report: every planned cell run on up to `jobs` threads.
pub fn report(jobs: usize) -> PaperReport {
    let cells = plan();
    let mut failed = Vec::new();
    let mut runs = Vec::new();
    for (r, cell) in run_cells(&cells, jobs).into_iter().zip(&cells) {
        runs.push(r.map_err(|e| failed.push(format!("failed: {cell:?}: {e}"))).ok());
    }
    let count = cells.len();
    let mut sections = sections(&Cells { cells: RefCell::new(cells), runs });
    let claims: Vec<&Claim> = sections.iter().flat_map(|s| &s.claims).collect();
    let reproduced = claims.iter().filter(|c| c.verdict() != "not reproduced").count();
    let (n_failed, n_claims) = (failed.len(), claims.len());
    let summary = format!(
        "{count} distinct cells, each run once; {n_failed} failed. {reproduced} of {n_claims} claims reproduced."
    );
    sections.insert(0, text("summary", &summary, (!failed.is_empty()).then(|| failed.join("\n"))));
    PaperReport { cells: count, sections }
}

/// The §5 report: a summary, then one section per figure and table.
#[derive(Debug, Clone)]
pub struct PaperReport {
    /// Distinct cells run.
    cells: usize,
    sections: Vec<Section>,
}

impl PaperReport {
    /// The report as JSON (schema `charon-paper-v1`).
    pub fn to_json(&self) -> Json {
        let sections = Json::Arr(self.sections.iter().map(Section::to_json).collect());
        Json::obj([
            ("schema", Json::str("charon-paper-v1")),
            ("cells", Json::U64(self.cells as u64)),
            ("sections", sections),
        ])
    }

    /// The report as markdown, one marked block per section.
    pub fn to_markdown(&self) -> String {
        self.sections.iter().map(Section::to_markdown).collect()
    }
}

/// A platform the report names.
fn platform(label: &str) -> Machine {
    Machine::platform(label).expect("a PLATFORM_LABELS label")
}

fn sections(c: &Cells) -> Vec<Section> {
    let workloads = table3().iter().map(|w| w.to_string()).collect::<Vec<_>>().join("\n");
    vec![
        fig02(c),
        fig04(c, "fig04a", "MinorGC", |r| &r.minor_breakdown, [0.7142, 0.7823]),
        fig04(c, "fig04b", "MajorGC", |r| &r.major_breakdown, [0.7413, 0.7906]),
        fig12(c),
        fig13(c),
        fig14(c),
        fig15(c),
        fig16(c),
        fig17(c),
        table1(c),
        text("table2", "As `charon-cli config` prints it.", Some(SystemConfig::table2_ddr4().to_string())),
        text(
            "table3",
            "As `charon-cli list` prints it: scaled heaps, the paper's heaps and datasets.",
            Some(workloads),
        ),
        text("table4", "As `charon-cli area` prints it, with §5.3's power figures.", Some(area::report().to_string())),
        ablation(c),
    ]
}

fn fig02(c: &Cells) -> Section {
    const FACTORS: [f64; 4] = [1.0, 1.25, 1.5, 2.0];
    let caption = "GC time over mutator time on the DDR4 host, by heap size over the workload's minimum.";
    let mut s = table("fig02", caption, FACTORS.map(|f| format!("{f:.2}× min")), Unit::Pct);
    s.rows = by_workload(|w| {
        // The spec's own factor is the default heap: the matrix's DDR4 cell.
        let cell = |f| Cell::new(w.short, "DDR4").with(|o| o.heap_factor = (f != w.default_heap_factor).then_some(f));
        FACTORS.map(|f| c.get(cell(f)).map(RunResult::gc_overhead)).to_vec()
    });
    let all: Vec<Option<f64>> = s.rows.iter().flat_map(|(_, v)| v.clone()).collect();
    let worst = fold(&all, |v| v.iter().copied().fold(0.0, f64::max));
    s.claims = vec![
        ordering("overhead higher at 1.00× than at 2.00× min heap", s.each(|v| rising(&[v[3], v[0]]))),
        ordering("overhead falls at every step from 1.00× to 2.00×", s.each(|v| rising(&[v[3], v[2], v[1], v[0]]))),
        ordering("overhead at 2.00× min heap above 15%", s.each(|v| Some(v[3]? > 0.15))),
        within("worst overhead", Unit::Pct, worst, 3.65),
    ];
    s
}

fn fig04(c: &Cells, id: &'static str, kind: &str, pick: fn(&RunResult) -> &Breakdown, paper: [f64; 2]) -> Section {
    let caption =
        format!("{kind} time by bucket on the DDR4 host at 1.25× min heap, where every workload has a MajorGC.");
    let columns = Bucket::ALL.map(|b| b.to_string()).into_iter().chain(["offloadable".into()]);
    let mut s = table(id, &caption, columns, Unit::Pct);
    let mut offloadable = [Vec::new(), Vec::new()];
    s.rows = by_workload(|w| {
        let bd = c.get(Cell::new(w.short, "DDR4").with(|o| o.heap_factor = Some(1.25))).map(pick);
        offloadable[usize::from(w.framework == Framework::GraphChi)].push(bd.map(Breakdown::offloadable_fraction));
        let fractions = Bucket::ALL.iter().map(|&b| bd.map(|bd| bd.fraction(b)));
        fractions.chain([bd.map(Breakdown::offloadable_fraction)]).collect()
    });
    for ((fw, ours), p) in [Framework::Spark, Framework::GraphChi].iter().zip(&offloadable).zip(paper) {
        let what = format!("{fw} {kind} offloadable fraction (mean)");
        s.claims.push(within(&what, Unit::Pct, fold(ours, mean), p));
    }
    s
}

fn fig12(c: &Cells) -> Section {
    const PLATFORMS: [&str; 3] = ["HMC", "Charon", "Ideal"];
    let caption = "GC speedup over the DDR4 host; full length, default heap, 8 GC threads.";
    let mut s = table("fig12", caption, PLATFORMS, Unit::Ratio);
    s.rows = by_workload(|w| PLATFORMS.map(|p| gain(c.on(w.short, "DDR4"), c.on(w.short, p))).to_vec());
    let geo = s.fold_row("geomean", geomean);
    s.claims = vec![
        within("HMC geomean speedup", Unit::Ratio, geo.1[0], 1.21),
        within("Charon geomean speedup", Unit::Ratio, geo.1[1], 3.29),
        ordering("DDR4 < HMC < Charon < Ideal", s.each(|v| rising(&[Some(1.0), v[0], v[1], v[2]]))),
    ];
    s.rows.push(geo);
    s
}

fn fig13(c: &Cells) -> Section {
    let caption =
        "DRAM bandwidth during GC pauses, and the share of Charon's requests served by the issuing unit's cube.";
    let columns = ["DDR4 GB/s", "HMC GB/s", "Charon GB/s", "Charon local"];
    let mut s = table("fig13", caption, columns, Unit::Fixed(1));
    s.units[3] = Unit::Pct;
    s.rows = by_workload(|w| {
        let runs = ["DDR4", "HMC", "Charon"].map(|p| c.on(w.short, p));
        let bandwidth = runs.iter().map(|r| r.map(RunResult::gc_bandwidth_gbps));
        bandwidth.chain([runs[2].map(RunResult::local_ratio)]).collect()
    });
    s.claims = vec![
        ordering("Charon bandwidth above both hosts'", s.each(|v| Some(v[2]? > v[0]?.max(v[1]?)))),
        ordering("Charon bandwidth above the 80 GB/s off-chip link", s.each(|v| Some(v[2]? > 80.0))),
        ordering("Charon local share at least 50%", s.each(|v| Some(v[3]? >= 0.5))),
    ];
    s
}

fn fig14(c: &Cells) -> Section {
    const BUCKETS: [Bucket; 4] = [Bucket::Search, Bucket::ScanPush, Bucket::Copy, Bucket::BitmapCount];
    const PAPER: [f64; 4] = [2.90, 1.20, 10.17, 5.63];
    let caption = "Per-primitive speedup: a primitive's bucket time on DDR4 over the same bucket on Charon.";
    let mut s = table("fig14", caption, BUCKETS, Unit::Ratio);
    s.rows = by_workload(|w| {
        let runs = both(c.on(w.short, "DDR4"), c.on(w.short, "Charon"));
        BUCKETS.map(|b| runs.and_then(|(d, ch)| bucket_speedup(d, ch, b))).to_vec()
    });
    let avg = s.fold_row("mean", mean);
    for ((b, paper), &ours) in BUCKETS.iter().zip(PAPER).zip(&avg.1) {
        s.claims.push(within(&format!("{b} speedup (mean)"), Unit::Ratio, ours, paper));
    }
    let copy_first = ordering("Copy gains more than Scan&Push", s.each(|v| Some(v[2]? > v[1]?)));
    s.claims.push(copy_first);
    s.rows.push(avg);
    s
}

fn fig15(c: &Cells) -> Section {
    const THREADS: [usize; 4] = [1, 2, 4, 8];
    let caption = "GC throughput by GC thread count (columns), over the same workload's 1-thread DDR4 run.";
    let mut s = table("fig15", caption, THREADS, Unit::Ratio);
    s.head[0] = "workload, machine".into();
    let charon = |mode| platform("Charon").with(|c| c.charon.structure = mode);
    for w in ["LR", "CC", "PR"] {
        let on = |machine, threads| c.get(Cell { machine, ..Cell::new(w, "DDR4") }.with(|o| o.gc_threads = threads));
        for (label, machine) in [
            ("DDR4", platform("DDR4")),
            ("Charon-unified", charon(StructureMode::Unified)),
            ("Charon-distributed", charon(StructureMode::Distributed)),
        ] {
            let vals = THREADS.map(|threads| gain(on(platform("DDR4"), 1), on(machine, threads)));
            s.rows.push((format!("{w} {label}"), vals.to_vec()));
        }
    }
    // Per workload, the 8-thread speedups of DDR4, unified and distributed.
    let at8: Vec<[Option<f64>; 3]> = s.rows.chunks(3).map(|m| [0, 1, 2].map(|i| m[i].1[3])).collect();
    let each = |f: fn([f64; 3]) -> bool| at8.iter().map(move |&[d, u, x]| Some(f([d?, u?, x?])));
    s.claims = vec![
        ordering("DDR4 gains under 2× from 1 to 8 threads", each(|[d, _, _]| d < 2.0)),
        ordering("Charon-distributed above DDR4 at 8 threads", each(|[d, _, x]| x > d)),
        ordering("distributed at least unified at 8 threads", each(|[_, u, x]| x >= u)),
    ];
    s
}

fn fig16(c: &Cells) -> Section {
    let caption = "CPU-side and memory-side Charon: speedups over DDR4, and memory-side over CPU-side.";
    let mut s = table("fig16", caption, ["CPU-side", "memory-side", "mem/CPU"], Unit::Ratio);
    s.rows = by_workload(|w| {
        let (d, cpu, mem) = (c.on(w.short, "DDR4"), c.on(w.short, "Charon-CPU-side"), c.on(w.short, "Charon"));
        vec![gain(d, cpu), gain(d, mem), gain(cpu, mem)]
    });
    let geo = s.fold_row("geomean", geomean);
    // The paper's CPU-side design is about 37% slower than memory-side.
    s.claims = vec![
        within("memory-side over CPU-side (geomean)", Unit::Ratio, geo.1[2], 1.0 / (1.0 - 0.37)),
        ordering("memory-side faster than CPU-side", s.each(|v| Some(v[2]? > 1.0))),
    ];
    s.rows.push(geo);
    s
}

fn fig17(c: &Cells) -> Section {
    let caption = "The share of GC energy Charon saves over each host.";
    let mut s = table("fig17", caption, ["vs DDR4", "vs HMC"], Unit::Pct);
    let saving = |w, host| both(c.on(w, host), c.on(w, "Charon")).map(|(h, ch)| energy_saving(h, ch));
    s.rows = by_workload(|w| vec![saving(w.short, "DDR4"), saving(w.short, "HMC")]);
    let avg = s.fold_row("mean", mean);
    s.claims = vec![
        within("Charon energy saving vs DDR4 (mean)", Unit::Pct, avg.1[0], 0.607),
        within("Charon energy saving vs HMC (mean)", Unit::Pct, avg.1[1], 0.516),
    ];
    s.rows.push(avg);
    s
}

fn table1(c: &Cells) -> Section {
    const PRIMS: [PrimType; 4] = [PrimType::Copy, PrimType::Search, PrimType::ScanPush, PrimType::BitmapCount];
    let caption = "Offloads per primitive over a full KM run on Charon, per collector.";
    let mut s = table("table1", caption, PRIMS, Unit::Fixed(0));
    s.head[0] = "collector".into();
    for collector in [CollectorKind::Ps, CollectorKind::G1, CollectorKind::Cms, CollectorKind::Ms] {
        let run = c.get(Cell::new("KM", "Charon").with(|o| o.collector = collector));
        let offloads = |p| run.and_then(|r| r.device.as_ref()).map(|d| d.prim(p).offloads as f64);
        s.rows.push((collector.to_string(), PRIMS.map(offloads).to_vec()));
    }
    // The paper marks Bitmap Count ✓ for ParallelScavenge and G1 and ✗ for
    // CMS, which is held against both cms and the stop-the-world ms.
    let fires = s.each(|v| Some(v[3]? > 0.0));
    s.claims = vec![
        ordering("Copy, Search and Scan&Push fire under each", s.each(|v| Some(v[..3].iter().all(|&n| n > Some(0.0))))),
        ordering("Bitmap Count fires under ps and g1 (paper: ✓)", fires[..2].iter().copied()),
        ordering("Bitmap Count never fires under cms (paper's CMS: ✗)", [fires[2].map(|f| !f)]),
        ordering("Bitmap Count never fires under ms (paper's CMS: ✗)", [fires[3].map(|f| !f)]),
    ];
    s
}

fn ablation(c: &Cells) -> Section {
    let (ddr4, charon) = (platform("DDR4"), platform("Charon"));
    let table2 = charon.cfg.charon;
    let mask = |copy, search, scan_push, bitmap_count| Machine {
        mask: OffloadMask { copy, search, scan_push, bitmap_count },
        ..charon
    };
    let no_prefetch = |m: Machine| m.with(|c| c.host.prefetch = false);
    // (change, baseline, machine): each row changes one ingredient of the
    // Table 2 build and reads its speedup over the baseline.
    let mut changes = vec![
        ("none: the Table 2 build".to_string(), ddr4, charon),
        ("offload nothing".into(), ddr4, Machine { mask: OffloadMask::none(), ..charon }),
        ("offload Copy only".into(), ddr4, mask(true, false, false, false)),
        ("offload Search only".into(), ddr4, mask(false, true, false, false)),
        ("offload Scan&Push only".into(), ddr4, mask(false, false, true, false)),
        ("offload Bitmap Count only".into(), ddr4, mask(false, false, false, true)),
        ("host prefetcher off, on both hosts".into(), no_prefetch(ddr4), no_prefetch(charon)),
        ("DDR4 itself with its prefetcher off".into(), ddr4, no_prefetch(ddr4)),
    ];
    for n in [4, 16, 256] {
        let mai = charon.with(|c| c.charon.mai_entries = n);
        changes.push((format!("MAI {n} entries (Table 2: {})", table2.mai_entries), ddr4, mai));
    }
    for n in [4, 16] {
        let units = format!("{n} Copy/Search units (Table 2: {})", table2.copy_search_units);
        changes.push((units, ddr4, charon.with(|c| c.charon.copy_search_units = n)));
    }
    let caption = "LR: one ingredient of the Table 2 Charon build changed per row; GC speedup over the DDR4 host.";
    let mut s = table("ablation", caption, ["speedup"], Unit::Ratio);
    s.head[0] = "change".into();
    let lr = |machine| c.get(Cell { machine, ..Cell::new("LR", "DDR4") });
    for (change, base, machine) in changes {
        s.rows.push((change, vec![gain(lr(base), lr(machine))]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parmatrix::PLATFORM_LABELS;

    #[test]
    fn within_includes_both_boundaries_and_a_missing_number_fails() {
        let within = |ours, paper| within("x", Unit::Ratio, ours, paper).verdict();
        assert_eq!(within(Some(3.0), 2.0), "within 1.5×");
        assert_eq!(within(Some(3.0001), 2.0), "not reproduced");
        assert_eq!(within(Some(2.0), 3.0), "within 1.5×");
        assert_eq!(within(Some(1.9999), 3.0), "not reproduced");
        assert_eq!(within(Some(-2.0), 2.0), "not reproduced");
        assert_eq!(within(None, 2.0), "not reproduced");
    }

    #[test]
    fn ordering_needs_more_than_half_and_a_missing_case_does_not_hold() {
        let holds = |cases: &[Option<bool>]| ordering("x", cases.iter().copied()).verdict();
        let (t, f) = (Some(true), Some(false));
        assert_eq!(holds(&[t; 6]), "ordering holds 6/6");
        assert_eq!(holds(&[t, t, t, t, f, f]), "ordering holds 4/6");
        assert_eq!(holds(&[t, t, t, f, f, f]), "not reproduced");
        assert_eq!(holds(&[t, t, None]), "ordering holds 2/3");
        assert_eq!(holds(&[t, None]), "not reproduced");
        assert_eq!(holds(&[f]), "not reproduced");
    }

    #[test]
    fn a_missing_cell_prints_a_dash_and_folds_skip_it() {
        let mut s = table("t", "caption", ["a", "b"], Unit::Ratio);
        s.units[1] = Unit::Pct;
        s.rows = vec![("BS".into(), vec![Some(2.0), None]), ("KM".into(), vec![Some(8.0), Some(0.5)])];
        assert_eq!(s.fold_row("geomean", geomean).1, vec![Some(4.0), Some(0.5)]);
        assert_eq!(fold(&[None, None], mean), None);
        s.claims = vec![within("a", Unit::Ratio, Some(4.0), 4.0), ordering("b", s.each(|v| Some(v[1]? > 0.1)))];
        let md = s.to_markdown();
        assert!(md.starts_with("<!-- paper:t -->\n*caption*\n"), "{md}");
        assert!(md.contains("| BS | 2.00× | - |\n| KM | 8.00× | 50.0% |"), "{md}");
        assert!(md.contains("| a | 4.00× | 4.00× | within 1.5× | within 1.5× |"), "{md}");
        assert!(md.contains("| b | 1/2 | 2/2 | holds in more than half | not reproduced |"), "{md}");
        assert!(md.ends_with("<!-- /paper:t -->\n\n"), "{md}");
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(Unit::Ratio.show(Some(3.287)), "3.29×");
        assert_eq!(Unit::Pct.show(Some(0.607)), "60.7%");
        assert_eq!(Unit::Fixed(1).show(Some(45.14)), "45.1");
    }

    #[test]
    fn the_plan_runs_each_distinct_cell_once() {
        let cells = plan();
        assert!(cells.iter().enumerate().all(|(i, c)| !cells[..i].contains(c)));
        // The 6 × 5 matrix (Figs. 12–17), Fig. 2's three non-default heaps
        // (1.25× is also Fig. 4's), Fig. 15's 33 thread × structure cells
        // beyond the matrix, Table 1's g1/cms/ms, and 12 ablation machines.
        assert_eq!(cells.len(), 30 + 18 + 33 + 3 + 12);
        let matrix: Vec<Cell> = table3()
            .iter()
            .flat_map(|w| PLATFORM_LABELS.map(|p| Cell::new(w.short, p)))
            .collect();
        assert!(matrix.iter().all(|c| cells.contains(c)));
    }

    #[test]
    fn every_planned_machine_is_built_as_its_config_says() {
        use charon_sim::cache::AccessKind;
        use charon_sim::time::Ps;
        let mut machines: Vec<Machine> = Vec::new();
        for cell in plan() {
            if !machines.contains(&cell.machine) {
                machines.push(cell.machine);
            }
        }
        // Five platforms, Fig. 15's two placements, and the ablation's five
        // masks, two prefetcher-off hosts, three MAI depths and two pools.
        assert_eq!(machines.len(), 5 + 2 + 5 + 2 + 3 + 2);
        for m in machines {
            let mut sys = m.system();
            assert_eq!((sys.backend, sys.offload), (m.backend, m.mask));
            // A cold miss kicks the stream prefetcher, unless it is off.
            sys.host.mem_access(0, Ps::ZERO, 1 << 20, 8, AccessKind::Read);
            assert_eq!(sys.host.prefetches() > 0, m.cfg.host.prefetch, "{m:?}");
            let offloads = matches!(m.backend, Backend::Charon | Backend::CpuSideCharon);
            assert_eq!(sys.device.is_some(), offloads, "{m:?}");
            if let Some(dev) = &sys.device {
                let ch = m.cfg.charon;
                assert_eq!(dev.mai_entries(), ch.mai_entries);
                assert_eq!(dev.stats().units[0].total_units, ch.copy_search_units as u64);
                // A CPU-side build has one of each structure, at the host.
                let cpu_side = m.backend == Backend::CpuSideCharon;
                assert_eq!(dev.structure(), if cpu_side { StructureMode::Unified } else { ch.structure }, "{m:?}");
            }
        }
    }
}
