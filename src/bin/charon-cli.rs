//! `charon-cli` — run the simulated evaluation from the command line.
//!
//! ```text
//! charon-cli list                         # workloads and platforms
//! charon-cli run KM --platform Charon     # one workload, one platform
//! charon-cli run KM --json --trace-out km.trace.json
//! charon-cli compare LR --threads 4       # all platforms side by side
//! charon-cli compare BS --json            # same, machine-readable
//! charon-cli bench BS KM --steps 2        # writes BENCH_compare.json
//! charon-cli check-json report.json       # validate a JSON artifact
//! charon-cli config                       # Table 2
//! charon-cli area                         # Table 4
//! charon-cli paper --jobs 2               # every §5 figure and table, with verdicts
//! charon-cli fault-campaign BS --seed 42  # seeded offload fault matrix
//! charon-cli chaos BS KM --rates 0.02,0.1 # silent-corruption campaign
//! charon-cli fleet --tenants 4 --mix BS:2,PR:2 --sched fair   # multi-tenant interference
//! charon-cli profile KM --platform Charon # pause/latency histograms + census
//! charon-cli explain KM --top 5            # worst pauses: breakdown, units, energy
//! charon-cli regress OLD.json NEW.json --tolerance 10   # cross-run gate (exit 2 = regression)
//! charon-cli trend record HISTORY.json BENCH_compare.json --label abc123
//! charon-cli trend report HISTORY.json --metric gc_time # sparkline series
//! charon-cli trend bisect HISTORY.json     # first regressing run per metric
//! charon-cli autotune PS --policy census  # adaptive vs static offload mask
//! ```

use charon::gc::adapt::PolicyKind;
use charon::gc::breakdown::Bucket;
use charon::gc::collector::CollectorKind;
use charon::gc::system::OffloadMask;
use charon::sim::faults::CorruptionSite;
use charon::sim::json::Json;
use charon::sim::profile::Profiler;
use charon::sim::report::{extract_metrics, regressions};
use charon::sim::telemetry::{chrome_trace, Telemetry};
use charon::workloads::paper::{run_cells, Cell, Machine};
use charon::workloads::parmatrix::PLATFORM_LABELS as PLATFORMS;
use charon::workloads::spec::{by_short, table3, WorkloadSpec};
use charon::workloads::{
    autotune, plan_tenants, run_chaos_campaign, run_fault_campaign, run_fleet, run_workload, ChaosOptions,
    FleetOptions, Ledger, RunOptions, RunResult, SchedKind, MAX_TENANTS,
};
use std::process::ExitCode;

/// One row per subcommand: its words, then its usage line. The line's first
/// line is the subcommand's grammar and the only place its arguments are
/// listed: words before the first `[--` are positionals (`[<W>...]` takes
/// every leading word that does not start with `--`, any other word takes
/// exactly one), `[--flag <V>]` takes a value and `[--switch]` none. Later
/// lines are notes, printed verbatim.
const COMMANDS: [(&str, &str); 18] = [
    ("list", ""),
    ("config", ""),
    ("area", ""),
    (
        "run",
        "<BS|KM|LR|CC|PR|ALS> [--platform <P>] [--collector <ps|ms|cms|g1>] [--heap-factor <F>] [--threads <N>] \
         [--steps <N>] [--mask <M>] [--rearm <N>] [--json] [--trace-out <FILE>]",
    ),
    ("compare", "<BS|KM|LR|CC|PR|ALS> [--heap-factor <F>] [--threads <N>] [--steps <N>] [--json]"),
    (
        "bench",
        "[<W>...] [--collector <ps|ms|cms|g1>] [--heap-factor <F>] [--threads <N>] [--steps <N>] [--out <FILE>] \
         [--jobs <N>]",
    ),
    ("paper", "[--json] [--jobs <N>]"),
    ("check-json", "<FILE>"),
    (
        "fault-campaign",
        "<BS|KM|LR|CC|PR|ALS> [--seed <S>] [--heap-factor <F>] [--threads <N>] [--steps <N>] [--json] [--jobs <N>]",
    ),
    (
        "chaos",
        "[<W>...] [--rates <R,R,...>] [--sites <bitmap,forward,card,payload>] [--oracle] [--rearm <N>] [--seed <S>] \
         [--heap-factor <F>] [--threads <N>] [--steps <N>] [--json] [--out <FILE>] [--jobs <N>]",
    ),
    (
        "profile",
        "<BS|KM|LR|CC|PR|ALS> [--platform <P>] [--collector <ps|ms|cms|g1>] [--heap-factor <F>] [--threads <N>] \
         [--steps <N>] [--top <K>] [--json] [--profile-out <FILE>]",
    ),
    (
        "explain",
        "<BS|KM|LR|CC|PR|ALS> [--platform <P>] [--top <K>] [--heap-factor <F>] [--threads <N>] [--steps <N>] [--json]
    (tail-pause attribution: top-K worst pauses with breakdown, unit, and energy context)",
    ),
    (
        "fleet",
        "[--tenants <N>] [--mix <W:N,W:N,...>] [--sched <fifo|fair|deadline>] [--platform <P>] [--seed <S>] \
         [--heap-factor <F>] [--threads <N>] [--steps <N>] [--json] [--out <FILE>] [--jobs <N>]",
    ),
    (
        "regress",
        "<OLD.json> <NEW.json> [--tolerance <PCT>] [--metric <SUBSTR>]
    (exit 2 = regression beyond tolerance or a metric of OLD missing from NEW, 1 = usage/IO error;
     a metric only NEW has prints a NEW line and changes no exit code)",
    ),
    ("trend record", "<LEDGER.json> <REPORT.json> [--label <L>]"),
    ("trend report", "<LEDGER.json> [--metric <SUBSTR>] [--tolerance <PCT>] [--json] [--out <FILE>]"),
    (
        "trend bisect",
        "<LEDGER.json> [--metric <SUBSTR>] [--tolerance <PCT>] [--json]
    (exit 2 = regression found; prints the first regressing run per metric)",
    ),
    (
        "autotune",
        "<BS|KM|LR|CC|PR|ALS|PS> [--platform <P>] [--policy <static|census|bandit>] [--seed <S>] [--heap-factor <F>] \
         [--threads <N>] [--steps <N>] [--json] [--out <FILE>] [--jobs <N>]",
    ),
];

fn usage() -> ExitCode {
    eprintln!("usage:");
    for (words, line) in COMMANDS {
        eprintln!("  charon-cli {}", format!("{words} {line}").trim_end());
    }
    eprintln!("platforms: {}", PLATFORMS.join(", "));
    ExitCode::FAILURE
}

/// The words of a row's grammar, the first line of its usage line.
fn grammar(line: &str) -> std::str::SplitWhitespace<'_> {
    line.lines().next().unwrap_or_default().split_whitespace()
}

/// Whether a row's grammar names `flag`, and if so whether it takes a
/// value.
fn arity(line: &str, flag: &str) -> Option<bool> {
    let flag = flag.strip_prefix("--")?;
    grammar(line).find_map(|token| {
        let token = token.strip_prefix("[--")?;
        match token.strip_suffix(']') {
            Some(switch) => (switch == flag).then_some(false),
            None => (token == flag).then_some(true),
        }
    })
}

/// Parsed flag values, superset over all subcommands.
#[derive(Debug, Clone, Default)]
struct Flags {
    jobs: Option<usize>,
    platform: Option<String>,
    collector: Option<CollectorKind>,
    heap_factor: Option<f64>,
    threads: Option<usize>,
    steps: Option<usize>,
    seed: Option<u64>,
    json: bool,
    trace_out: Option<String>,
    out: Option<String>,
    profile_out: Option<String>,
    tolerance: Option<f64>,
    mask: Option<OffloadMask>,
    policy: Option<PolicyKind>,
    rearm: Option<u32>,
    rates: Option<Vec<f64>>,
    sites: Option<Vec<CorruptionSite>>,
    oracle: bool,
    tenants: Option<usize>,
    mix: Option<String>,
    sched: Option<SchedKind>,
    top: Option<usize>,
    metric: Option<String>,
    label: Option<String>,
}

/// Parses the flags after a subcommand's positionals against its row's
/// `line`. Rejects flags the line does not name, duplicate flags, missing
/// values, and malformed values — uniformly for every subcommand.
fn parse_flags(rest: &[String], line: &str) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let name = rest[i].as_str();
        let Some(takes_value) = arity(line, name) else {
            if COMMANDS.iter().any(|(_, other)| arity(other, name).is_some()) {
                return Err(format!("{name} is not valid for this subcommand"));
            }
            return Err(format!("unknown flag {name}"));
        };
        if seen.contains(&name) {
            return Err(format!("duplicate flag {name}"));
        }
        seen.push(name);
        let val = if takes_value {
            let v = rest.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
            i += 2;
            v.as_str()
        } else {
            i += 1;
            ""
        };
        match name {
            "--jobs" => {
                let n: usize = val.parse().map_err(|_| format!("bad job count {val}"))?;
                if n == 0 || n > 64 {
                    return Err(format!("--jobs {n} out of range (1..=64)"));
                }
                flags.jobs = Some(n);
            }
            "--platform" => flags.platform = Some(val.to_string()),
            "--collector" => flags.collector = Some(val.parse::<CollectorKind>()?),
            "--heap-factor" => {
                let f: f64 = val.parse().map_err(|_| format!("bad factor {val}"))?;
                // `contains` is false for NaN, so non-finite factors land here too.
                if !(1.0..=16.0).contains(&f) {
                    return Err(format!(
                        "--heap-factor {f} out of range (1.0..=16.0) — factors are relative to the minimum OOM-free heap"
                    ));
                }
                flags.heap_factor = Some(f);
            }
            "--threads" => {
                let n: usize = val.parse().map_err(|_| format!("bad thread count {val}"))?;
                if n == 0 || n > 64 {
                    return Err(format!("--threads {n} out of range (1..=64)"));
                }
                flags.threads = Some(n);
            }
            "--steps" => flags.steps = Some(val.parse().map_err(|_| format!("bad step count {val}"))?),
            "--seed" => flags.seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--json" => flags.json = true,
            "--trace-out" => flags.trace_out = Some(val.to_string()),
            "--out" => flags.out = Some(val.to_string()),
            "--profile-out" => flags.profile_out = Some(val.to_string()),
            "--mask" => flags.mask = Some(val.parse::<OffloadMask>()?),
            "--policy" => flags.policy = Some(val.parse::<PolicyKind>()?),
            "--tolerance" => {
                let t: f64 = val.parse().map_err(|_| format!("bad tolerance {val}"))?;
                if !(0.0..=1000.0).contains(&t) {
                    return Err(format!("--tolerance {t} out of range (0..=1000, percent)"));
                }
                flags.tolerance = Some(t);
            }
            "--rearm" => {
                let n: u32 = val.parse().map_err(|_| format!("bad re-arm count {val}"))?;
                if n == 0 {
                    return Err("--rearm 0 would re-enable a dead unit immediately; use 1 or more".into());
                }
                flags.rearm = Some(n);
            }
            "--rates" => {
                let mut rates = Vec::new();
                for part in val.split(',') {
                    let r: f64 = part.parse().map_err(|_| format!("bad corruption rate {part}"))?;
                    if !(r > 0.0 && r <= 1.0) {
                        return Err(format!(
                            "--rates entry {r} out of range (0 < rate <= 1, per invocation; \
                             every campaign already runs the zero-rate control)"
                        ));
                    }
                    rates.push(r);
                }
                if rates.is_empty() {
                    return Err("--rates needs at least one rate".into());
                }
                flags.rates = Some(rates);
            }
            "--sites" => {
                let mut sites = Vec::new();
                for part in val.split(',') {
                    let Some(site) = CorruptionSite::by_name(part) else {
                        return Err(format!(
                            "unknown corruption site {part} (one of: {})",
                            CorruptionSite::ALL.map(|s| s.name()).join(", ")
                        ));
                    };
                    if sites.contains(&site) {
                        return Err(format!("duplicate corruption site {part}"));
                    }
                    sites.push(site);
                }
                flags.sites = Some(sites);
            }
            "--oracle" => flags.oracle = true,
            "--tenants" => {
                let n: usize = val.parse().map_err(|_| format!("bad tenant count {val}"))?;
                if n == 0 || n > MAX_TENANTS {
                    return Err(format!("--tenants {n} out of range (1..={MAX_TENANTS})"));
                }
                flags.tenants = Some(n);
            }
            "--mix" => flags.mix = Some(val.to_string()),
            "--sched" => flags.sched = Some(val.parse::<SchedKind>()?),
            "--top" => {
                let n: usize = val.parse().map_err(|_| format!("bad top count {val}"))?;
                if n == 0 || n > 64 {
                    return Err(format!("--top {n} out of range (1..=64)"));
                }
                flags.top = Some(n);
            }
            "--metric" => flags.metric = Some(val.to_string()),
            "--label" => flags.label = Some(val.to_string()),
            _ => unreachable!("{name} is on a row but has no parser"),
        }
    }
    Ok(flags)
}

impl Flags {
    /// Worker threads for matrix subcommands (`--jobs`, default serial).
    fn jobs(&self) -> usize {
        self.jobs.unwrap_or(1)
    }

    /// The `--platform` label (default Charon).
    fn platform(&self) -> String {
        self.platform.clone().unwrap_or_else(|| "Charon".into())
    }

    /// The run options every subcommand shares. Machine-side flags
    /// (`--mask`, `--rearm`, `--trace-out`) go on the `System` instead.
    fn run_options(&self) -> RunOptions {
        RunOptions {
            heap_factor: self.heap_factor,
            gc_threads: self.threads.unwrap_or(8),
            supersteps: self.steps,
            collector: self.collector.unwrap_or_default(),
            ..Default::default()
        }
    }

    fn chaos_options(&self) -> ChaosOptions {
        let defaults = ChaosOptions::default();
        ChaosOptions {
            seed: self.seed.unwrap_or(defaults.seed),
            rates: self.rates.clone().unwrap_or(defaults.rates),
            sites: self.sites.clone().unwrap_or(defaults.sites),
            oracle: self.oracle,
            rearm: self.rearm,
            run: self.run_options(),
        }
    }

    fn fleet_options(&self) -> FleetOptions {
        let defaults = FleetOptions::default();
        FleetOptions {
            platform: self.platform(),
            tenants: self.tenants.unwrap_or(0),
            mix: self.mix.clone(),
            sched: self.sched.unwrap_or(SchedKind::Fifo),
            seed: self.seed.unwrap_or(defaults.seed),
            jobs: self.jobs(),
            run: self.run_options(),
        }
    }
}

/// The `run` report (also what a one-tenant `fleet` prints, byte for
/// byte): the full JSON, or the text summary plus the traffic line.
fn print_run(r: &RunResult, json: bool) {
    if json {
        println!("{}", r.to_json());
        return;
    }
    println!("{r}");
    println!("  minor: {} pauses, {}   major: {} pauses, {}", r.minor.1, r.minor.0, r.major.1, r.major.0);
    for (name, bd) in [("minor", &r.minor_breakdown), ("major", &r.major_breakdown)] {
        if bd.total().0 == 0 {
            continue;
        }
        print!("  {name} breakdown:");
        for b in Bucket::ALL {
            if bd.get(b).0 > 0 {
                print!(" {b} {:.0}%", bd.fraction(b) * 100.0);
            }
        }
        println!();
    }
    println!(
        "  GC bandwidth {:.1} GB/s | energy {:.4} J | allocated {:.1} MB",
        r.gc_bandwidth_gbps(),
        r.energy.total_j(),
        r.allocated_bytes as f64 / 1e6
    );
    if let Some(d) = &r.device {
        println!("  offloads: {}", d.total_offloads());
    }
    println!(
        "  traffic: dram {}, off-chip {}, locality {:.0}%",
        r.traffic.dram,
        r.traffic.offchip,
        r.local_ratio() * 100.0
    );
}

// Every helper below reports its own failure on stderr and hands back the
// exit code, so a subcommand is a straight line of `?`.

/// A runtime failure: the message, exit 1.
fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("{e}");
    ExitCode::FAILURE
}

/// A command-line mistake: the message, then the usage text, exit 1.
fn misuse(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("{e}");
    usage()
}

/// The `<W>` argument of a single-workload subcommand.
fn workload(short: &str) -> Result<WorkloadSpec, ExitCode> {
    by_short(short).ok_or_else(|| misuse(format_args!("unknown workload {short}")))
}

/// The specs `shorts` name, or all of Table 3 when none are given.
fn specs_for(shorts: &[&str]) -> Result<Vec<WorkloadSpec>, ExitCode> {
    if shorts.is_empty() {
        return Ok(table3());
    }
    shorts.iter().map(|s| workload(s)).collect()
}

/// The machine `label` names.
fn platform(label: &str) -> Result<Machine, ExitCode> {
    Machine::platform(label).ok_or_else(|| misuse(format_args!("unknown platform {label}")))
}

fn write_file(path: &str, content: &str) -> Result<(), ExitCode> {
    std::fs::write(path, content).map_err(|e| fail(format_args!("cannot write {path}: {e}")))
}

fn read_file(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| fail(format_args!("cannot read {path}: {e}")))
}

fn read_json(path: &str) -> Result<Json, ExitCode> {
    Json::parse(&read_file(path)?).map_err(|e| fail(format_args!("{path}: {e}")))
}

fn read_ledger(path: &str) -> Result<Ledger, ExitCode> {
    Ledger::parse(&read_file(path)?).map_err(|e| fail(format_args!("{path}: {e}")))
}

/// The common report ending: write the JSON to `out` when asked (and say
/// so), then print the JSON under `--json` or the text otherwise.
fn emit(flags: &Flags, out: Option<&String>, json: impl Fn() -> Json, text: impl FnOnce()) -> Result<(), ExitCode> {
    if let Some(path) = out {
        write_file(path, &json().to_string())?;
        println!("wrote {path}");
    }
    if flags.json {
        println!("{}", json());
    } else {
        text();
    }
    Ok(())
}

/// Each spec on every platform, workload-major, on up to `jobs` threads;
/// a failed cell reads as `"<platform>: <error>"`.
fn platform_runs(specs: &[WorkloadSpec], opts: RunOptions, jobs: usize) -> Vec<Result<RunResult, String>> {
    let machines = PLATFORMS.map(|p| Machine::platform(p).expect("a PLATFORMS label"));
    let on = |spec: &WorkloadSpec| machines.map(|machine| Cell { spec: spec.clone(), machine, opts });
    let cells: Vec<Cell> = specs.iter().flat_map(on).collect();
    let runs = run_cells(&cells, jobs).into_iter().zip(PLATFORMS.iter().cycle());
    runs.map(|(r, p)| r.map_err(|e| format!("{p}: {e}"))).collect()
}

/// The `compare` JSON shape: the workload, every platform's full report,
/// and the DDR4-relative speedups.
fn compare_json(short: &str, runs: &[RunResult]) -> Json {
    let base = runs.first().map(|r| r.gc_time.0).unwrap_or(0);
    let speedups = runs
        .iter()
        .map(|r| (r.platform.to_string(), Json::F64(base as f64 / r.gc_time.0.max(1) as f64)))
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("workload", Json::str(short)),
        ("runs", Json::Arr(runs.iter().map(|r| r.to_json()).collect())),
        ("speedup_vs_ddr4", Json::obj(speedups)),
    ])
}

fn main() -> ExitCode {
    // The Rust runtime ignores SIGPIPE, so a closed stdout (`charon-cli …
    // | head -1`) would make the next `println!` panic. Restoring the
    // default disposition ends the process quietly, as for any Unix filter.
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: called before any other thread exists; SIG_DFL installs
        // no handler code.
        unsafe { signal(SIGPIPE, SIG_DFL) };
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli(&args).unwrap_or_else(|code| code)
}

/// Reads `args` by the grammar of the row whose words lead it: the
/// positionals, then the flags. `Err(None)` is a bare usage error (no row
/// matches, or too few positionals); `Err(Some(e))` is a flag error.
fn parse(args: &[String]) -> Result<(&'static str, Vec<&str>, Flags), Option<String>> {
    let (words, line) = COMMANDS
        .into_iter()
        .find(|(words, _)| words.split(' ').enumerate().all(|(i, w)| args.get(i).is_some_and(|a| a == w)))
        .ok_or(None)?;
    let mut rest = &args[words.split(' ').count()..];
    let mut pos = Vec::new();
    for token in grammar(line).take_while(|t| !t.starts_with("[--")) {
        let n = if token == "[<W>...]" { rest.iter().take_while(|a| !a.starts_with("--")).count() } else { 1 };
        if rest.len() < n {
            return Err(None);
        }
        pos.extend(rest[..n].iter().map(String::as_str));
        rest = &rest[n..];
    }
    Ok((words, pos, parse_flags(rest, line).map_err(Some)?))
}

/// One subcommand; `Err` is an exit code whose message is already out.
fn cli(args: &[String]) -> Result<ExitCode, ExitCode> {
    let (name, pos, flags) = parse(args).map_err(|e| e.map_or_else(usage, misuse))?;
    match name {
        "list" => {
            println!("workloads (Table 3, scaled):");
            for w in table3() {
                println!("  {w}");
            }
            println!("platforms: {}", PLATFORMS.join(", "));
        }
        "config" => println!("{}", charon::sim::config::SystemConfig::table2_ddr4()),
        "area" => println!("{}", charon::accel::area::report()),
        "run" => {
            let spec = workload(pos[0])?;
            let mut sys = platform(&flags.platform())?.system();
            // A mask asserting a primitive the chosen collector never
            // issues (Table 1 marks it N/A) is a contradiction, not a
            // no-op — reject it before the run starts.
            if let Some(mask) = flags.mask {
                flags.collector.unwrap_or_default().validate_mask(mask).map_err(misuse)?;
                sys.offload = mask;
            }
            if let Some(n) = flags.rearm {
                sys.set_rearm(n);
            }
            let telemetry = if flags.trace_out.is_some() { Telemetry::enabled() } else { Telemetry::disabled() };
            sys.set_telemetry(telemetry.clone());
            let r = run_workload(&spec, sys, &flags.run_options()).map_err(fail)?;
            if let Some(path) = &flags.trace_out {
                write_file(path, &chrome_trace(&telemetry.events()).to_string())?;
            }
            print_run(&r, flags.json);
        }
        "compare" => {
            let (short, spec) = (pos[0], workload(pos[0])?);
            let runs: Result<Vec<_>, _> = platform_runs(&[spec], flags.run_options(), 1).into_iter().collect();
            let runs = runs.map_err(fail)?;
            emit(
                &flags,
                None,
                || compare_json(short, &runs),
                || {
                    let base = runs[0].gc_time;
                    for r in &runs {
                        println!(
                            "{:<16} GC {:>12}  speedup {:>6.2}x  energy {:>8.4} J",
                            r.platform,
                            r.gc_time.to_string(),
                            base.0 as f64 / r.gc_time.0.max(1) as f64,
                            r.energy.total_j()
                        );
                    }
                },
            )?;
        }
        "bench" => {
            let specs = specs_for(&pos)?;
            // The whole workload × platform matrix runs through the
            // parallel runner; at --jobs 1 (the default) it is a plain
            // serial loop. Cell order — and with it BENCH_compare.json —
            // is identical at every job count.
            let mut runs = platform_runs(&specs, flags.run_options(), flags.jobs()).into_iter();
            let mut benches = Vec::new();
            for spec in &specs {
                let runs: Result<Vec<_>, _> = runs.by_ref().take(PLATFORMS.len()).collect();
                let runs = runs.map_err(fail)?;
                println!("{}: {} platforms benched", spec.short, runs.len());
                benches.push(compare_json(spec.short, &runs));
            }
            let report = Json::obj(vec![("benches", Json::Arr(benches))]);
            let path = flags.out.as_deref().unwrap_or("BENCH_compare.json");
            write_file(path, &report.to_string())?;
            println!("wrote {path}");
        }
        "paper" => {
            let report = charon::workloads::paper::report(flags.jobs());
            emit(&flags, None, || report.to_json(), || print!("{}", report.to_markdown()))?;
        }
        "check-json" => {
            let path = pos[0];
            read_json(path)?;
            println!("{path}: valid JSON");
        }
        "fault-campaign" => {
            let (short, spec) = (pos[0], workload(pos[0])?);
            let seed = flags.seed.unwrap_or(42);
            let report = run_fault_campaign(&spec, seed, &flags.run_options(), flags.jobs())
                .map_err(|e| fail(format_args!("{short}: zero-rate control failed: {e}")))?;
            emit(&flags, None, || report.to_json(), || println!("{report}"))?;
            if !report.pass() {
                return Err(fail(format_args!("fault campaign FAILED for {short} (seed {seed})")));
            }
        }
        "chaos" => {
            let specs = specs_for(&pos)?;
            let report = run_chaos_campaign(&specs, &flags.chaos_options(), flags.jobs())
                .map_err(|e| fail(format_args!("chaos: zero-rate control failed: {e}")))?;
            emit(&flags, flags.out.as_ref(), || report.to_json(), || print!("{report}"))?;
            if !report.pass() {
                let cells = report.cells.len();
                return Err(fail(format_args!("chaos campaign FAILED ({} escaped, {cells} cells)", report.escaped())));
            }
        }
        "fleet" => {
            let opts = flags.fleet_options();
            // A one-tenant fleet has nothing to schedule: it IS a plain
            // run, and prints byte-identically to `charon-cli run` so
            // CI can diff the two with `cmp`.
            if opts.tenants == 1 {
                let spec = plan_tenants(1, opts.mix.as_deref()).map_err(misuse)?.remove(0);
                let sys = platform(&opts.platform)?.system();
                let r = run_workload(&spec, sys, &flags.run_options()).map_err(fail)?;
                if let Some(path) = &flags.out {
                    write_file(path, &r.to_json().to_string())?;
                }
                print_run(&r, flags.json);
            } else {
                let rep = run_fleet(&opts).map_err(fail)?;
                emit(&flags, flags.out.as_ref(), || rep.to_json(), || print!("{rep}"))?;
            }
        }
        "profile" => {
            let spec = workload(pos[0])?;
            let mut sys = platform(&flags.platform())?.system();
            sys.set_profiler(Profiler::enabled());
            let opts = RunOptions { census: true, postmortem: Some(flags.top.unwrap_or(3)), ..flags.run_options() };
            let r = run_workload(&spec, sys, &opts).map_err(fail)?;
            let profile = r.profile.as_ref().expect("profiler was enabled");
            emit(&flags, flags.profile_out.as_ref(), || profile.to_json(), || print!("{profile}"))?;
        }
        "explain" => {
            let (short, spec) = (pos[0], workload(pos[0])?);
            let label = flags.platform();
            let sys = platform(&label)?.system();
            let opts = RunOptions { postmortem: Some(flags.top.unwrap_or(3)), ..flags.run_options() };
            let r = run_workload(&spec, sys, &opts).map_err(fail)?;
            let profile = r.profile.as_ref().expect("postmortem forces profile collection");
            emit(
                &flags,
                None,
                || profile.to_json(),
                || {
                    println!("explain: {short} on {label} — GC {}", r.gc_time);
                    print!("{}", profile.postmortem.as_ref().expect("postmortem was enabled"));
                },
            )?;
        }
        "autotune" => {
            let spec = workload(pos[0])?;
            let machine = platform(&flags.platform())?;
            let policy = flags.policy.unwrap_or(PolicyKind::Census);
            let mut opts = flags.run_options();
            if let Some(seed) = flags.seed {
                opts.policy_seed = seed;
            }
            let rep = autotune(&spec, || machine.system(), policy, &opts, flags.jobs()).map_err(fail)?;
            emit(&flags, flags.out.as_ref(), || rep.to_json(), || print!("{rep}"))?;
        }
        "regress" => {
            let (old_path, new_path) = (pos[0], pos[1]);
            let tolerance = flags.tolerance.unwrap_or(10.0);
            let (old, new) = (read_json(old_path)?, read_json(new_path)?);
            // --metric narrows the comparison count and both verdicts, so
            // a filter that matches nothing in OLD still errors.
            let keep = |m: &str| flags.metric.as_deref().is_none_or(|f| m.contains(f));
            let (_, regs, missing, added) = regressions(&old, &new, tolerance);
            let regs: Vec<_> = regs.into_iter().filter(|r| keep(&r.metric)).collect();
            let missing: Vec<_> = missing.into_iter().filter(|m| keep(m)).collect();
            let compared = extract_metrics(&old).iter().filter(|(m, _)| keep(m)).count() - missing.len();
            if compared == 0 && missing.is_empty() {
                return Err(fail(format_args!("no comparable metrics between {old_path} and {new_path}")));
            }
            for m in &missing {
                println!("MISSING {m}");
            }
            // Nothing to compare them with: shown so that a new number is
            // seen to be ungated, never a reason to fail.
            for m in added.iter().filter(|m| keep(m)) {
                println!("NEW {m}");
            }
            for r in &regs {
                println!("REGRESSION {}: {} -> {} ({:.2}x, tolerance {tolerance}%)", r.metric, r.old, r.new, r.ratio());
            }
            // Exit 2 distinguishes "the gate tripped" from exit 1's
            // usage/IO/parse errors, so CI can tell them apart.
            if !missing.is_empty() {
                eprintln!("{} metrics of {old_path} are absent from {new_path}", missing.len());
            }
            if !regs.is_empty() {
                eprintln!("{} of {compared} metrics regressed beyond {tolerance}%", regs.len());
            }
            if !(missing.is_empty() && regs.is_empty()) {
                return Ok(ExitCode::from(2));
            }
            println!("{compared} metrics within {tolerance}% of {old_path}");
        }
        "trend record" => {
            let (ledger_path, report_path) = (pos[0], pos[1]);
            // A missing ledger starts fresh; an unreadable or
            // malformed one is an error, never silently replaced.
            let mut ledger =
                if std::path::Path::new(ledger_path).exists() { read_ledger(ledger_path)? } else { Ledger::new() };
            let report = read_json(report_path)?;
            let label = flags.label.clone().unwrap_or_else(|| format!("run-{}", ledger.runs.len()));
            let n = ledger.record(label.clone(), &report);
            if n == 0 {
                return Err(fail(format_args!("{report_path}: no comparable metrics in this report shape")));
            }
            write_file(ledger_path, &ledger.to_json().to_string())?;
            println!("recorded {label}: {n} metrics as run {} in {ledger_path}", ledger.runs.len() - 1);
        }
        "trend report" => {
            let ledger_path = pos[0];
            let ledger = read_ledger(ledger_path)?;
            let tolerance = flags.tolerance.unwrap_or(10.0);
            let filter = flags.metric.as_deref();
            emit(
                &flags,
                flags.out.as_ref(),
                || ledger.trend_json(filter, tolerance),
                || {
                    print!("{}", ledger.trend_report(filter, tolerance));
                },
            )?;
        }
        "trend bisect" => {
            let ledger_path = pos[0];
            let ledger = read_ledger(ledger_path)?;
            let tolerance = flags.tolerance.unwrap_or(10.0);
            let hits = ledger.bisect_all(flags.metric.as_deref(), tolerance);
            let hits_json = || {
                let hit = |h: &charon::workloads::history::BisectHit| {
                    Json::obj(vec![
                        ("metric", Json::str(&h.metric)),
                        ("first_bad", Json::U64(h.first_bad as u64)),
                        ("label", Json::str(&h.label)),
                        ("old", Json::U64(h.old)),
                        ("new", Json::U64(h.new)),
                    ])
                };
                Json::obj(vec![
                    ("schema", Json::str("charon-bisect-v1")),
                    ("tolerance_pct", Json::F64(tolerance)),
                    ("hits", Json::Arr(hits.iter().map(hit).collect())),
                ])
            };
            emit(&flags, None, hits_json, || {
                for h in &hits {
                    println!(
                        "FIRST-BAD {}: run {} ({}) {} -> {} (tolerance {tolerance}%)",
                        h.metric, h.first_bad, h.label, h.old, h.new
                    );
                }
                if hits.is_empty() {
                    println!("no metric regressed across {} runs in {ledger_path}", ledger.runs.len());
                }
            })?;
            if !hits.is_empty() {
                eprintln!("{} metrics regressed since run 0 of {ledger_path}", hits.len());
                return Ok(ExitCode::from(2));
            }
        }
        _ => unreachable!("{name} has a row but no body"),
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    /// The usage line of the row named `words`.
    fn row(words: &str) -> &'static str {
        COMMANDS.into_iter().find(|(w, _)| *w == words).expect("a row").1
    }

    /// Every flag any row names, in row order, each once.
    fn all_flags() -> Vec<String> {
        let mut flags: Vec<String> = Vec::new();
        for (_, line) in COMMANDS {
            for token in grammar(line).filter(|t| t.starts_with("[--")) {
                let flag = token.trim_matches(['[', ']']).to_string();
                if !flags.contains(&flag) {
                    flags.push(flag);
                }
            }
        }
        flags
    }

    /// A value `flag` accepts (`4` serves every count, factor and path).
    fn sample(flag: &str) -> &'static str {
        match flag {
            "--collector" => "cms",
            "--mask" => "all",
            "--policy" => "bandit",
            "--rates" => "0.02,0.1",
            "--sites" => "bitmap,card",
            "--mix" => "BS:2,KM:2",
            "--sched" => "fair",
            _ => "4",
        }
    }

    /// The flags `f` has set, named after its fields (`heap_factor` is
    /// `--heap-factor`), so a field added to `Flags` is covered unasked.
    fn set_flags(f: &Flags) -> Vec<String> {
        format!("{f:#?}")
            .lines()
            .filter_map(|l| {
                let (field, value) = l.strip_prefix("    ")?.split_once(": ")?;
                let set = !field.starts_with(' ') && value != "None," && value != "false,";
                set.then(|| format!("--{}", field.replace('_', "-")))
            })
            .collect()
    }

    #[test]
    fn every_flag_on_every_row_parses_and_every_row_has_a_body() {
        let source = include_str!("charon-cli.rs");
        let bodies = &source[source.find("fn cli(").unwrap()..source.find("#[cfg(test)]").unwrap()];
        let flags = all_flags();
        for (words, line) in COMMANDS {
            let mut args = Vec::new();
            let mut named = Vec::new();
            for flag in &flags {
                let Some(takes_value) = arity(line, flag) else { continue };
                // One flag reads the same on every row that names it.
                for (_, other) in COMMANDS {
                    assert!(arity(other, flag).is_none_or(|t| t == takes_value), "{flag} on {words}");
                }
                args.push(flag.clone());
                if takes_value {
                    args.push(sample(flag).to_string());
                }
                named.push(flag.clone());
            }
            let f = parse_flags(&args, line).unwrap_or_else(|e| panic!("{words}: {e}"));
            named.sort();
            let mut set = set_flags(&f);
            set.sort();
            assert_eq!(set, named, "{words}");
            assert!(bodies.contains(&format!("\"{words}\" =>")), "row {words} reaches no subcommand body");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16384))]

        /// Random argv, run against every row: each word pair is any row's
        /// flag followed by nothing, a sample value, a junk word or a
        /// hostile number.
        #[test]
        fn flag_parser_never_panics_and_keeps_to_its_row(
            picks in proptest::collection::vec((0usize..1024, 0usize..1024, 0u8..5), 0..4),
        ) {
            let hostile = ["nan", "inf", "-1", "0", "65", "257", "1e9", "1", "64", "256", "1000"];
            let junk = ["extra", "BS", "", "--", "--bogus", "cms,ms", "0.1,,0.2"];
            let flags = all_flags();
            let mut args = Vec::new();
            for (flag, value, kind) in picks {
                let flag = &flags[flag % flags.len()];
                args.push(flag.clone());
                match kind {
                    0 => {}
                    1 => args.push(sample(flag).to_string()),
                    2 => args.push(junk[value % junk.len()].to_string()),
                    _ => args.push(hostile[value % hostile.len()].to_string()),
                }
            }
            for (words, line) in COMMANDS {
                let Ok(f) = parse_flags(&args, line) else { continue };
                for flag in set_flags(&f) {
                    prop_assert!(arity(line, &flag).is_some(), "{flag} set for {words} from {args:?}");
                }
                prop_assert!(f.heap_factor.is_none_or(|h| (1.0..=16.0).contains(&h)), "{args:?}");
                for n in [f.threads, f.jobs, f.top] {
                    prop_assert!(n.is_none_or(|n| (1..=64).contains(&n)), "{args:?}");
                }
                prop_assert!(f.tenants.is_none_or(|n| (1..=256).contains(&n)), "{args:?}");
                prop_assert!(f.tolerance.is_none_or(|t| (0.0..=1000.0).contains(&t)), "{args:?}");
                prop_assert!(f.rates.iter().flatten().all(|&r| r > 0.0 && r <= 1.0), "{args:?}");
            }
        }
    }

    #[test]
    fn positionals_follow_the_grammar() {
        let read = |args: &[&str]| {
            let args = argv(args);
            let (name, pos, f) = parse(&args).unwrap();
            (name, pos.join(" "), f)
        };
        let (name, pos, f) = read(&["bench", "BS", "KM", "--steps", "2"]);
        assert_eq!((name, pos.as_str(), f.steps), ("bench", "BS KM", Some(2)));
        let (name, pos, f) = read(&["chaos", "--json"]);
        assert_eq!((name, pos.as_str(), f.json), ("chaos", "", true));
        let (name, pos, f) = read(&["trend", "record", "L.json", "R.json", "--label", "x"]);
        assert_eq!((name, pos.as_str(), f.label.as_deref()), ("trend record", "L.json R.json", Some("x")));
        // A single positional takes the next word whatever it is.
        let (name, pos, _) = read(&["run", "--json"]);
        assert_eq!((name, pos.as_str()), ("run", "--json"));
    }

    #[test]
    fn trailing_words_are_usage_errors() {
        for (args, error) in [
            (&["list", "extra"][..], "unknown flag extra"),
            (&["config", "--json"], "--json is not valid for this subcommand"),
            (&["check-json", "BENCH_baseline.json", "extra"], "unknown flag extra"),
        ] {
            assert_eq!(parse(&argv(args)).unwrap_err(), Some(error.to_string()), "{args:?}");
        }
        // No row, or too few positionals: the bare usage text.
        for args in [&[][..], &["trend"], &["trend", "bogus"], &["check-json"], &["regress", "a.json"]] {
            assert_eq!(parse(&argv(args)).unwrap_err(), None, "{args:?}");
        }
    }

    #[test]
    fn parses_every_run_flag() {
        let f = parse_flags(
            &argv(&[
                "--platform",
                "Charon",
                "--collector",
                "cms",
                "--heap-factor",
                "1.5",
                "--threads",
                "4",
                "--steps",
                "3",
                "--json",
                "--trace-out",
                "t.json",
            ]),
            row("run"),
        )
        .unwrap();
        assert_eq!(f.platform.as_deref(), Some("Charon"));
        assert_eq!(f.collector, Some(CollectorKind::Cms));
        assert_eq!(f.heap_factor, Some(1.5));
        assert_eq!(f.threads, Some(4));
        assert_eq!(f.steps, Some(3));
        assert!(f.json);
        assert_eq!(f.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn collector_flag_accepts_every_kind_and_rejects_unknowns() {
        for (name, kind) in [
            ("ps", CollectorKind::Ps),
            ("ms", CollectorKind::Ms),
            ("cms", CollectorKind::Cms),
            ("g1", CollectorKind::G1),
        ] {
            let f = parse_flags(&argv(&["--collector", name]), row("run")).unwrap();
            assert_eq!(f.collector, Some(kind), "{name}");
        }
        let e = parse_flags(&argv(&["--collector", "zgc"]), row("run")).unwrap_err();
        assert!(e.contains("unknown collector 'zgc'"), "{e}");
        assert!(e.contains("ps, ms, cms, or g1"), "{e}");
    }

    #[test]
    fn collector_defaults_to_ps_in_run_options() {
        let f = parse_flags(&argv(&[]), row("run")).unwrap();
        assert_eq!(f.run_options().collector, CollectorKind::Ps);
        let f = parse_flags(&argv(&["--collector", "g1"]), row("run")).unwrap();
        assert_eq!(f.run_options().collector, CollectorKind::G1);
    }

    #[test]
    fn heap_factor_outside_its_range_is_a_usage_error() {
        for bad in ["nan", "inf", "-inf", "1e9", "0.5", "16.5"] {
            let e = parse_flags(&argv(&["--heap-factor", bad]), row("run")).unwrap_err();
            assert!(e.contains("out of range (1.0..=16.0)"), "{bad}: {e}");
        }
        for ok in ["1", "1.25", "16"] {
            let f = parse_flags(&argv(&["--heap-factor", ok]), row("run")).unwrap();
            assert_eq!(f.heap_factor, Some(ok.parse().unwrap()), "{ok}");
        }
    }

    #[test]
    fn rejects_duplicate_flags() {
        let e = parse_flags(&argv(&["--threads", "4", "--threads", "8"]), row("run")).unwrap_err();
        assert!(e.contains("duplicate flag --threads"), "{e}");
        let e = parse_flags(&argv(&["--json", "--json"]), row("run")).unwrap_err();
        assert!(e.contains("duplicate flag --json"), "{e}");
    }

    #[test]
    fn rejects_flags_outside_the_subcommand_allowlist() {
        // `compare` takes no --platform; `fault-campaign` owns --seed.
        let e = parse_flags(&argv(&["--platform", "Charon"]), row("compare")).unwrap_err();
        assert!(e.contains("not valid for this subcommand"), "{e}");
        let e = parse_flags(&argv(&["--seed", "7"]), row("run")).unwrap_err();
        assert!(e.contains("not valid for this subcommand"), "{e}");
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        let e = parse_flags(&argv(&["--bogus"]), row("run")).unwrap_err();
        assert!(e.contains("unknown flag --bogus"), "{e}");
        let e = parse_flags(&argv(&["--threads"]), row("run")).unwrap_err();
        assert!(e.contains("--threads needs a value"), "{e}");
    }

    #[test]
    fn validates_flag_values() {
        assert!(parse_flags(&argv(&["--heap-factor", "0.5"]), row("run")).is_err());
        assert!(parse_flags(&argv(&["--threads", "0"]), row("run")).is_err());
        assert!(parse_flags(&argv(&["--threads", "65"]), row("run")).is_err());
        assert!(parse_flags(&argv(&["--steps", "abc"]), row("run")).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        // `--json 5` parses --json alone; "5" is then an unknown token.
        let e = parse_flags(&argv(&["--json", "5"]), row("run")).unwrap_err();
        assert!(e.contains("unknown flag 5"), "{e}");
    }

    #[test]
    fn tolerance_is_validated() {
        let f = parse_flags(&argv(&["--tolerance", "12.5"]), row("regress")).unwrap();
        assert_eq!(f.tolerance, Some(12.5));
        assert!(parse_flags(&argv(&["--tolerance", "-1"]), row("regress")).is_err());
        assert!(parse_flags(&argv(&["--tolerance", "abc"]), row("regress")).is_err());
    }

    #[test]
    fn parses_trend_and_explain_flags() {
        let f = parse_flags(&argv(&["--top", "5"]), row("explain")).unwrap();
        assert_eq!(f.top, Some(5));
        let f = parse_flags(&argv(&["--metric", "gc_time"]), row("trend report")).unwrap();
        assert_eq!(f.metric.as_deref(), Some("gc_time"));
        let f = parse_flags(&argv(&["--label", "abc123"]), row("trend record")).unwrap();
        assert_eq!(f.label.as_deref(), Some("abc123"));
        assert!(parse_flags(&argv(&["--top", "0"]), row("explain")).is_err());
        assert!(parse_flags(&argv(&["--top", "65"]), row("explain")).is_err());
        assert!(parse_flags(&argv(&["--top", "x"]), row("explain")).is_err());
    }

    #[test]
    fn jobs_flag_is_validated() {
        let f = parse_flags(&argv(&["--jobs", "4"]), row("paper")).unwrap();
        assert_eq!(f.jobs, Some(4));
        assert_eq!(f.jobs(), 4);
        assert_eq!(Flags::default().jobs(), 1, "default is serial");
        assert!(parse_flags(&argv(&["--jobs", "0"]), row("paper")).is_err());
        assert!(parse_flags(&argv(&["--jobs", "65"]), row("paper")).is_err());
        assert!(parse_flags(&argv(&["--jobs", "x"]), row("paper")).is_err());
    }

    #[test]
    fn parses_chaos_flags() {
        let f = parse_flags(
            &argv(&["--rates", "0.02,0.1", "--sites", "bitmap,card", "--oracle", "--rearm", "3"]),
            row("chaos"),
        )
        .unwrap();
        assert_eq!(f.rates, Some(vec![0.02, 0.1]));
        assert_eq!(f.sites, Some(vec![CorruptionSite::BitmapWord, CorruptionSite::CardByte]));
        assert!(f.oracle);
        assert_eq!(f.rearm, Some(3));
    }

    #[test]
    fn rejects_bad_chaos_flag_values() {
        let chaos = row("chaos");
        let e = parse_flags(&argv(&["--rates", "1.5"]), chaos).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        for zero in ["0", "0,0.1"] {
            let e = parse_flags(&argv(&["--rates", zero]), chaos).unwrap_err();
            assert!(e.contains("out of range") && e.contains("zero-rate control"), "{e}");
        }
        let e = parse_flags(&argv(&["--sites", "bitmap,nonsense"]), chaos).unwrap_err();
        assert!(e.contains("unknown corruption site nonsense"), "{e}");
        let e = parse_flags(&argv(&["--sites", "card,card"]), chaos).unwrap_err();
        assert!(e.contains("duplicate corruption site"), "{e}");
        let e = parse_flags(&argv(&["--rearm", "0"]), chaos).unwrap_err();
        assert!(e.contains("--rearm 0"), "{e}");
    }

    #[test]
    fn parses_fleet_flags() {
        let fleet = row("fleet");
        let f = parse_flags(&argv(&["--tenants", "4", "--mix", "BS:2,PR:2", "--sched", "fair"]), fleet).unwrap();
        assert_eq!(f.tenants, Some(4));
        assert_eq!(f.mix.as_deref(), Some("BS:2,PR:2"));
        assert_eq!(f.sched, Some(SchedKind::FairShare));
        assert!(parse_flags(&argv(&["--tenants", "0"]), fleet).is_err());
        assert!(parse_flags(&argv(&["--tenants", "257"]), fleet).is_err());
        let e = parse_flags(&argv(&["--sched", "rr"]), fleet).unwrap_err();
        assert!(e.contains("unknown scheduler"), "{e}");
    }
}
