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
use charon::gc::system::{OffloadMask, System};
use charon::sim::faults::CorruptionSite;
use charon::sim::json::Json;
use charon::sim::profile::Profiler;
use charon::sim::report::{extract_metrics, regressions};
use charon::sim::telemetry::{chrome_trace, Telemetry};
use charon::workloads::parmatrix::{system_by_label, PLATFORM_LABELS as PLATFORMS};
use charon::workloads::spec::{by_short, table3, WorkloadSpec};
use charon::workloads::{
    autotune, full_matrix, plan_tenants, run_chaos_campaign, run_fault_campaign, run_fleet, run_matrix, run_workload,
    ChaosOptions, FleetOptions, Ledger, MatrixOutcome, RunOptions, RunResult, SchedKind, MAX_TENANTS,
};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  charon-cli list\n  charon-cli config\n  charon-cli area\n  \
         charon-cli run <BS|KM|LR|CC|PR|ALS> [--platform <P>] [--collector <ps|ms|cms|g1>] [--heap-factor <F>] \
         [--threads <N>] [--steps <N>] [--mask <M>] [--rearm <N>] [--json] [--trace-out <FILE>]\n  \
         charon-cli compare <BS|KM|LR|CC|PR|ALS> [--heap-factor <F>] [--threads <N>] [--steps <N>] [--json]\n  \
         charon-cli bench [<W>...] [--collector <ps|ms|cms|g1>] [--heap-factor <F>] [--threads <N>] [--steps <N>] \
         [--out <FILE>] [--jobs <N>]\n  \
         charon-cli check-json <FILE>\n  \
         charon-cli fault-campaign <BS|KM|LR|CC|PR|ALS> [--seed <S>] [--heap-factor <F>] [--threads <N>] \
         [--steps <N>] [--json] [--jobs <N>]\n  \
         charon-cli chaos [<W>...] [--rates <R,R,...>] [--sites <bitmap,forward,card,payload>] [--oracle] \
         [--rearm <N>] [--seed <S>] [--heap-factor <F>] [--threads <N>] [--steps <N>] [--json] [--out <FILE>] \
         [--jobs <N>]\n  \
         charon-cli profile <BS|KM|LR|CC|PR|ALS> [--platform <P>] [--collector <ps|ms|cms|g1>] [--heap-factor <F>] \
         [--threads <N>] [--steps <N>] [--top <K>] [--json] [--profile-out <FILE>]\n  \
         charon-cli explain <BS|KM|LR|CC|PR|ALS> [--platform <P>] [--top <K>] [--heap-factor <F>] [--threads <N>] \
         [--steps <N>] [--json]\n    \
         (tail-pause attribution: top-K worst pauses with breakdown, unit, and energy context)\n  \
         charon-cli fleet [--tenants <N>] [--mix <W:N,W:N,...>] [--sched <fifo|fair|deadline>] [--platform <P>] \
         [--seed <S>] [--heap-factor <F>] [--threads <N>] [--steps <N>] [--json] [--out <FILE>] [--jobs <N>]\n  \
         charon-cli regress <OLD.json> <NEW.json> [--tolerance <PCT>] [--metric <SUBSTR>]\n    \
         (exit 2 = regression beyond tolerance or a metric of OLD missing from NEW, 1 = usage/IO error;\n     \
         a metric only NEW has prints a NEW line and changes no exit code)\n  \
         charon-cli trend record <LEDGER.json> <REPORT.json> [--label <L>]\n  \
         charon-cli trend report <LEDGER.json> [--metric <SUBSTR>] [--tolerance <PCT>] [--json] [--out <FILE>]\n  \
         charon-cli trend bisect <LEDGER.json> [--metric <SUBSTR>] [--tolerance <PCT>] [--json]\n    \
         (exit 2 = regression found; prints the first regressing run per metric)\n  \
         charon-cli autotune <BS|KM|LR|CC|PR|ALS|PS> [--platform <P>] [--policy <static|census|bandit>] [--seed <S>] \
         [--heap-factor <F>] [--threads <N>] [--steps <N>] [--json] [--out <FILE>] [--jobs <N>]\n\
         platforms: {}",
        PLATFORMS.join(", ")
    );
    ExitCode::FAILURE
}

/// Every flag any subcommand accepts: `(name, takes_value)`. One table,
/// one parser — each subcommand passes the subset it allows.
const FLAG_TABLE: [(&str, bool); 24] = [
    ("--jobs", true),
    ("--platform", true),
    ("--collector", true),
    ("--heap-factor", true),
    ("--threads", true),
    ("--steps", true),
    ("--seed", true),
    ("--json", false),
    ("--trace-out", true),
    ("--out", true),
    ("--profile-out", true),
    ("--tolerance", true),
    ("--mask", true),
    ("--policy", true),
    ("--rearm", true),
    ("--rates", true),
    ("--sites", true),
    ("--oracle", false),
    ("--tenants", true),
    ("--mix", true),
    ("--sched", true),
    ("--top", true),
    ("--metric", true),
    ("--label", true),
];

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

/// Table-driven flag parser. Rejects flags outside `allowed`, duplicate
/// flags, missing values, and malformed values — uniformly for every
/// subcommand.
fn parse_flags(rest: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let Some(&(name, takes_value)) = FLAG_TABLE.iter().find(|(n, _)| *n == flag) else {
            return Err(format!("unknown flag {flag}"));
        };
        if !allowed.contains(&name) {
            return Err(format!("{name} is not valid for this subcommand"));
        }
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
            _ => unreachable!("flag in table"),
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

fn flags_for(rest: &[String], allowed: &[&str]) -> Result<Flags, ExitCode> {
    parse_flags(rest, allowed).map_err(misuse)
}

/// The `<W>` argument of a single-workload subcommand.
fn workload(args: &[String]) -> Result<(&str, WorkloadSpec), ExitCode> {
    let short = args.get(1).ok_or_else(usage)?;
    let spec = by_short(short).ok_or_else(|| misuse(format_args!("unknown workload {short}")))?;
    Ok((short, spec))
}

/// The leading `[<W>...]` arguments of a sweep subcommand.
fn leading_workloads(args: &[String]) -> &[String] {
    let n = args[1..].iter().take_while(|a| !a.starts_with("--")).count();
    &args[1..1 + n]
}

/// The specs `shorts` name, or all of Table 3 when none are given.
fn specs_for(shorts: &[String]) -> Result<Vec<WorkloadSpec>, ExitCode> {
    if shorts.is_empty() {
        return Ok(table3());
    }
    shorts
        .iter()
        .map(|s| by_short(s).ok_or_else(|| misuse(format_args!("unknown workload {s}"))))
        .collect()
}

/// The machine `label` names.
fn platform(label: &str) -> Result<System, ExitCode> {
    system_by_label(label).ok_or_else(|| misuse(format_args!("unknown platform {label}")))
}

fn write_file(path: &str, content: &str) -> Result<(), ExitCode> {
    std::fs::write(path, content).map_err(|e| fail(format_args!("cannot write {path}: {e}")))
}

fn read_file(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| fail(format_args!("cannot read {path}: {e}")))
}

fn read_json(path: &str) -> Result<Json, ExitCode> {
    Json::parse(&read_file(path)?).map_err(|e| fail(format_args!("{path}: invalid JSON: {e}")))
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

/// The runs of one workload's matrix cells, in `PLATFORMS` order; the
/// first failed cell's error is reported instead.
fn platform_runs(outcomes: impl Iterator<Item = MatrixOutcome>) -> Result<Vec<RunResult>, ExitCode> {
    outcomes.map(|o| o.result.map_err(fail)).collect()
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli(&args).unwrap_or_else(|code| code)
}

/// One subcommand; `Err` is an exit code whose message is already out.
fn cli(args: &[String]) -> Result<ExitCode, ExitCode> {
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("workloads (Table 3, scaled):");
            for w in table3() {
                println!("  {w}");
            }
            println!("platforms: {}", PLATFORMS.join(", "));
        }
        Some("config") => println!("{}", charon::sim::config::SystemConfig::table2_ddr4()),
        Some("area") => println!("{}", charon::accel::area::report()),
        Some("run") => {
            let (_, spec) = workload(args)?;
            let flags = flags_for(
                &args[2..],
                &[
                    "--platform",
                    "--collector",
                    "--heap-factor",
                    "--threads",
                    "--steps",
                    "--mask",
                    "--rearm",
                    "--json",
                    "--trace-out",
                ],
            )?;
            let mut sys = platform(&flags.platform())?;
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
        Some("compare") => {
            let (short, spec) = workload(args)?;
            let flags = flags_for(&args[2..], &["--heap-factor", "--threads", "--steps", "--json"])?;
            let runs = platform_runs(run_matrix(&full_matrix(&[spec]), &flags.run_options(), 1).into_iter())?;
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
        Some("bench") => {
            let shorts = leading_workloads(args);
            let flags = flags_for(
                &args[1 + shorts.len()..],
                &["--collector", "--heap-factor", "--threads", "--steps", "--out", "--jobs"],
            )?;
            let specs = specs_for(shorts)?;
            // The whole workload × platform matrix runs through the
            // parallel runner; at --jobs 1 (the default) it is a plain
            // serial loop. Cell order — and with it BENCH_compare.json —
            // is identical at every job count.
            let cells = full_matrix(&specs);
            let mut outcomes = run_matrix(&cells, &flags.run_options(), flags.jobs()).into_iter();
            let mut benches = Vec::new();
            for spec in &specs {
                let runs = platform_runs(outcomes.by_ref().take(PLATFORMS.len()))?;
                println!("{}: {} platforms benched", spec.short, runs.len());
                benches.push(compare_json(spec.short, &runs));
            }
            let report = Json::obj(vec![("benches", Json::Arr(benches))]);
            let path = flags.out.as_deref().unwrap_or("BENCH_compare.json");
            write_file(path, &report.to_string())?;
            println!("wrote {path}");
        }
        Some("paper") => {
            let flags = flags_for(&args[1..], &["--json", "--jobs"])?;
            let report = charon::workloads::paper::report(flags.jobs());
            emit(&flags, None, || report.to_json(), || print!("{}", report.to_markdown()))?;
        }
        Some("check-json") => {
            let path = args.get(1).ok_or_else(usage)?;
            read_json(path)?;
            println!("{path}: valid JSON");
        }
        Some("fault-campaign") => {
            let (short, spec) = workload(args)?;
            let flags =
                flags_for(&args[2..], &["--seed", "--heap-factor", "--threads", "--steps", "--json", "--jobs"])?;
            let seed = flags.seed.unwrap_or(42);
            let report = run_fault_campaign(&spec, seed, &flags.run_options(), flags.jobs())
                .map_err(|e| fail(format_args!("{short}: zero-rate control failed: {e}")))?;
            emit(&flags, None, || report.to_json(), || println!("{report}"))?;
            if !report.pass() {
                return Err(fail(format_args!("fault campaign FAILED for {short} (seed {seed})")));
            }
        }
        Some("chaos") => {
            let shorts = leading_workloads(args);
            let flags = flags_for(
                &args[1 + shorts.len()..],
                &[
                    "--rates",
                    "--sites",
                    "--oracle",
                    "--rearm",
                    "--seed",
                    "--heap-factor",
                    "--threads",
                    "--steps",
                    "--json",
                    "--out",
                    "--jobs",
                ],
            )?;
            let specs = specs_for(shorts)?;
            let report = run_chaos_campaign(&specs, &flags.chaos_options(), flags.jobs())
                .map_err(|e| fail(format_args!("chaos: zero-rate control failed: {e}")))?;
            emit(&flags, flags.out.as_ref(), || report.to_json(), || print!("{report}"))?;
            if !report.pass() {
                let cells = report.cells.len();
                return Err(fail(format_args!("chaos campaign FAILED ({} escaped, {cells} cells)", report.escaped())));
            }
        }
        Some("fleet") => {
            let flags = flags_for(
                &args[1..],
                &[
                    "--tenants",
                    "--mix",
                    "--sched",
                    "--platform",
                    "--seed",
                    "--heap-factor",
                    "--threads",
                    "--steps",
                    "--json",
                    "--out",
                    "--jobs",
                ],
            )?;
            let opts = flags.fleet_options();
            // A one-tenant fleet has nothing to schedule: it IS a plain
            // run, and prints byte-identically to `charon-cli run` so
            // CI can diff the two with `cmp`.
            if opts.tenants == 1 {
                let spec = plan_tenants(1, opts.mix.as_deref()).map_err(misuse)?.remove(0);
                let sys = platform(&opts.platform)?;
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
        Some("profile") => {
            let (_, spec) = workload(args)?;
            let flags = flags_for(
                &args[2..],
                &[
                    "--platform",
                    "--collector",
                    "--heap-factor",
                    "--threads",
                    "--steps",
                    "--top",
                    "--json",
                    "--profile-out",
                ],
            )?;
            let mut sys = platform(&flags.platform())?;
            sys.set_profiler(Profiler::enabled());
            let opts = RunOptions { census: true, postmortem: Some(flags.top.unwrap_or(3)), ..flags.run_options() };
            let r = run_workload(&spec, sys, &opts).map_err(fail)?;
            let profile = r.profile.as_ref().expect("profiler was enabled");
            emit(&flags, flags.profile_out.as_ref(), || profile.to_json(), || print!("{profile}"))?;
        }
        Some("explain") => {
            let (short, spec) = workload(args)?;
            let flags =
                flags_for(&args[2..], &["--platform", "--top", "--heap-factor", "--threads", "--steps", "--json"])?;
            let label = flags.platform();
            let sys = platform(&label)?;
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
        Some("autotune") => {
            let (_, spec) = workload(args)?;
            let flags = flags_for(
                &args[2..],
                &[
                    "--platform",
                    "--policy",
                    "--seed",
                    "--heap-factor",
                    "--threads",
                    "--steps",
                    "--json",
                    "--out",
                    "--jobs",
                ],
            )?;
            let label = flags.platform();
            platform(&label)?;
            let policy = flags.policy.unwrap_or(PolicyKind::Census);
            let mut opts = flags.run_options();
            if let Some(seed) = flags.seed {
                opts.policy_seed = seed;
            }
            let make = || system_by_label(&label).expect("validated above");
            let rep = autotune(&spec, make, policy, &opts, flags.jobs()).map_err(fail)?;
            emit(&flags, flags.out.as_ref(), || rep.to_json(), || print!("{rep}"))?;
        }
        Some("regress") => {
            let (Some(old_path), Some(new_path)) = (args.get(1), args.get(2)) else { return Err(usage()) };
            let flags = flags_for(&args[3..], &["--tolerance", "--metric"])?;
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
        Some("trend") => match args.get(1).map(String::as_str) {
            Some("record") => {
                let (Some(ledger_path), Some(report_path)) = (args.get(2), args.get(3)) else { return Err(usage()) };
                let flags = flags_for(&args[4..], &["--label"])?;
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
            Some("report") => {
                let ledger_path = args.get(2).ok_or_else(usage)?;
                let flags = flags_for(&args[3..], &["--metric", "--tolerance", "--json", "--out"])?;
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
            Some("bisect") => {
                let ledger_path = args.get(2).ok_or_else(usage)?;
                let flags = flags_for(&args[3..], &["--metric", "--tolerance", "--json"])?;
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
            _ => return Err(usage()),
        },
        _ => return Err(usage()),
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charon::sim::report::higher_is_better;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    const RUN_FLAGS: [&str; 7] =
        ["--platform", "--collector", "--heap-factor", "--threads", "--steps", "--json", "--trace-out"];

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
            &RUN_FLAGS,
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
            let f = parse_flags(&argv(&["--collector", name]), &RUN_FLAGS).unwrap();
            assert_eq!(f.collector, Some(kind), "{name}");
        }
        let e = parse_flags(&argv(&["--collector", "zgc"]), &RUN_FLAGS).unwrap_err();
        assert!(e.contains("unknown collector 'zgc'"), "{e}");
        assert!(e.contains("ps, ms, cms, or g1"), "{e}");
    }

    #[test]
    fn collector_defaults_to_ps_in_run_options() {
        let f = parse_flags(&argv(&[]), &RUN_FLAGS).unwrap();
        assert_eq!(f.run_options().collector, CollectorKind::Ps);
        let f = parse_flags(&argv(&["--collector", "g1"]), &RUN_FLAGS).unwrap();
        assert_eq!(f.run_options().collector, CollectorKind::G1);
    }

    #[test]
    fn mask_collector_conflicts_are_typed_errors() {
        // ms never issues Bitmap Count (Table 1 N/A) — asserting it is
        // a contradiction; every other collector accepts the full mask.
        let mask: OffloadMask = "all".parse().unwrap();
        let e = CollectorKind::Ms.validate_mask(mask).unwrap_err();
        assert_eq!(e.collector, CollectorKind::Ms);
        assert_eq!(e.primitive, "bitmap-count");
        assert!(e.to_string().contains("never issues it"), "{e}");
        for kind in [CollectorKind::Ps, CollectorKind::Cms, CollectorKind::G1] {
            kind.validate_mask(mask).unwrap();
        }
        let no_bc: OffloadMask = "copy,search,scan-push".parse().unwrap();
        CollectorKind::Ms.validate_mask(no_bc).unwrap();
    }

    #[test]
    fn heap_factor_outside_its_range_is_a_usage_error() {
        for bad in ["nan", "inf", "-inf", "1e9", "0.5", "16.5"] {
            let e = parse_flags(&argv(&["--heap-factor", bad]), &RUN_FLAGS).unwrap_err();
            assert!(e.contains("out of range (1.0..=16.0)"), "{bad}: {e}");
        }
        for ok in ["1", "1.25", "16"] {
            let f = parse_flags(&argv(&["--heap-factor", ok]), &RUN_FLAGS).unwrap();
            assert_eq!(f.heap_factor, Some(ok.parse().unwrap()), "{ok}");
        }
    }

    #[test]
    fn rejects_duplicate_flags() {
        let e = parse_flags(&argv(&["--threads", "4", "--threads", "8"]), &RUN_FLAGS).unwrap_err();
        assert!(e.contains("duplicate flag --threads"), "{e}");
        let e = parse_flags(&argv(&["--json", "--json"]), &RUN_FLAGS).unwrap_err();
        assert!(e.contains("duplicate flag --json"), "{e}");
    }

    #[test]
    fn rejects_flags_outside_the_subcommand_allowlist() {
        // `compare` takes no --platform; `fault-campaign` owns --seed.
        let e = parse_flags(&argv(&["--platform", "Charon"]), &["--heap-factor", "--json"]).unwrap_err();
        assert!(e.contains("not valid for this subcommand"), "{e}");
        let e = parse_flags(&argv(&["--seed", "7"]), &RUN_FLAGS).unwrap_err();
        assert!(e.contains("not valid for this subcommand"), "{e}");
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        let e = parse_flags(&argv(&["--bogus"]), &RUN_FLAGS).unwrap_err();
        assert!(e.contains("unknown flag --bogus"), "{e}");
        let e = parse_flags(&argv(&["--threads"]), &RUN_FLAGS).unwrap_err();
        assert!(e.contains("--threads needs a value"), "{e}");
    }

    #[test]
    fn validates_flag_values() {
        assert!(parse_flags(&argv(&["--heap-factor", "0.5"]), &RUN_FLAGS).is_err());
        assert!(parse_flags(&argv(&["--threads", "0"]), &RUN_FLAGS).is_err());
        assert!(parse_flags(&argv(&["--threads", "65"]), &RUN_FLAGS).is_err());
        assert!(parse_flags(&argv(&["--steps", "abc"]), &RUN_FLAGS).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        // `--json 5` parses --json alone; "5" is then an unknown token.
        let e = parse_flags(&argv(&["--json", "5"]), &RUN_FLAGS).unwrap_err();
        assert!(e.contains("unknown flag 5"), "{e}");
    }

    #[test]
    fn tolerance_is_validated() {
        let f = parse_flags(&argv(&["--tolerance", "12.5"]), &["--tolerance"]).unwrap();
        assert_eq!(f.tolerance, Some(12.5));
        assert!(parse_flags(&argv(&["--tolerance", "-1"]), &["--tolerance"]).is_err());
        assert!(parse_flags(&argv(&["--tolerance", "abc"]), &["--tolerance"]).is_err());
    }

    /// A minimal bench-shaped report with one run per (workload, gc_time).
    fn bench_report(runs: &[(&str, u64, u64)]) -> Json {
        Json::obj(vec![(
            "benches",
            Json::Arr(vec![Json::obj(vec![(
                "runs",
                Json::Arr(
                    runs.iter()
                        .map(|&(w, gc, p99)| {
                            Json::obj(vec![
                                ("workload", Json::str(w)),
                                ("platform", Json::str("Charon")),
                                ("gc_time_ps", Json::U64(gc)),
                                (
                                    "profile",
                                    Json::obj(vec![(
                                        "pauses",
                                        Json::obj(vec![("minor", Json::obj(vec![("p99", Json::U64(p99))]))]),
                                    )]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            )])]),
        )])
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = bench_report(&[("BS", 1_000, 100), ("KM", 2_000, 200)]);
        let (compared, regs, ..) = regressions(&r, &r, 10.0);
        assert_eq!(compared, 4, "gc_time + p99 per run");
        assert!(regs.is_empty(), "{regs:?}");
    }

    #[test]
    fn doubled_gc_time_is_flagged() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 2_000, 100)]);
        let (compared, regs, ..) = regressions(&old, &new, 10.0);
        assert_eq!(compared, 2);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "BS/Charon/gc_time_ps");
        assert!((regs[0].ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn p99_regression_is_flagged_independently() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 1_000, 250)]);
        let (_, regs, ..) = regressions(&old, &new, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "BS/Charon/pause_minor_p99_ps");
    }

    #[test]
    fn growth_within_tolerance_passes() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 1_050, 104)]);
        let (_, regs, ..) = regressions(&old, &new, 10.0);
        assert!(regs.is_empty(), "{regs:?}");
        let (_, regs, ..) = regressions(&old, &new, 1.0);
        assert_eq!(regs.len(), 2, "tighter tolerance flags both");
    }

    #[test]
    fn zero_baseline_regresses_on_any_growth() {
        let old = bench_report(&[("BS", 0, 0)]);
        let new = bench_report(&[("BS", 1, 0)]);
        let (_, regs, ..) = regressions(&old, &new, 10.0);
        assert_eq!(regs.len(), 1);
    }

    #[test]
    fn disjoint_reports_compare_nothing() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("KM", 1_000, 100)]);
        let (compared, regs, missing, _) = regressions(&old, &new, 10.0);
        assert_eq!((compared, regs.len()), (0, 0));
        assert_eq!(missing.len(), extract_metrics(&old).len(), "nothing of OLD is in NEW");
    }

    #[test]
    fn metric_dropped_from_new_is_reported_missing() {
        let old = bench_report(&[("BS", 1_000, 100), ("KM", 2_000, 200)]);
        let new = bench_report(&[("BS", 1_000, 100)]);
        let (compared, regs, missing, _) = regressions(&old, &new, 10.0);
        assert!(compared > 0 && regs.is_empty());
        assert!(!missing.is_empty() && missing.iter().all(|m| m.starts_with("KM/")), "{missing:?}");
        // A metric only NEW has is not a finding.
        assert_eq!(regressions(&new, &old, 10.0).2, Vec::<String>::new());
    }

    #[test]
    fn metric_only_new_has_is_returned_as_added() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 1_000, 100), ("KM", 2_000, 200)]);
        let (compared, regs, missing, added) = regressions(&old, &new, 10.0);
        assert_eq!((compared, regs.len(), missing.len()), (extract_metrics(&old).len(), 0, 0));
        assert_eq!(added.len(), extract_metrics(&new).len() - compared);
        assert!(added.iter().all(|m| m.starts_with("KM/")), "{added:?}");
        assert_eq!(regressions(&old, &old, 10.0).3, Vec::<String>::new());
    }

    #[test]
    fn parses_trend_and_explain_flags() {
        let all = ["--top", "--metric", "--label"];
        let f = parse_flags(&argv(&["--top", "5", "--metric", "gc_time", "--label", "abc123"]), &all).unwrap();
        assert_eq!(f.top, Some(5));
        assert_eq!(f.metric.as_deref(), Some("gc_time"));
        assert_eq!(f.label.as_deref(), Some("abc123"));
        assert!(parse_flags(&argv(&["--top", "0"]), &all).is_err());
        assert!(parse_flags(&argv(&["--top", "65"]), &all).is_err());
        assert!(parse_flags(&argv(&["--top", "x"]), &all).is_err());
    }

    #[test]
    fn jobs_flag_is_validated() {
        let f = parse_flags(&argv(&["--jobs", "4"]), &["--jobs"]).unwrap();
        assert_eq!(f.jobs, Some(4));
        assert_eq!(f.jobs(), 4);
        assert_eq!(Flags::default().jobs(), 1, "default is serial");
        assert!(parse_flags(&argv(&["--jobs", "0"]), &["--jobs"]).is_err());
        assert!(parse_flags(&argv(&["--jobs", "65"]), &["--jobs"]).is_err());
        assert!(parse_flags(&argv(&["--jobs", "x"]), &["--jobs"]).is_err());
    }

    #[test]
    fn bare_profile_reports_are_comparable() {
        // The `profile --profile-out` shape: pauses at top level.
        let p = Json::obj(vec![
            ("workload", Json::str("KM")),
            ("platform", Json::str("DDR4")),
            ("gc_time_ps", Json::U64(5_000)),
            ("pauses", Json::obj(vec![("major", Json::obj(vec![("p99", Json::U64(900))]))])),
        ]);
        let m = extract_metrics(&p);
        assert_eq!(m, vec![("KM/DDR4/gc_time_ps".to_string(), 5_000), ("KM/DDR4/pause_major_p99_ps".to_string(), 900)]);
    }

    #[test]
    fn parses_chaos_flags() {
        let f = parse_flags(
            &argv(&["--rates", "0.02,0.1", "--sites", "bitmap,card", "--oracle", "--rearm", "3"]),
            &["--rates", "--sites", "--oracle", "--rearm"],
        )
        .unwrap();
        assert_eq!(f.rates, Some(vec![0.02, 0.1]));
        assert_eq!(f.sites, Some(vec![CorruptionSite::BitmapWord, CorruptionSite::CardByte]));
        assert!(f.oracle);
        assert_eq!(f.rearm, Some(3));
    }

    #[test]
    fn rejects_bad_chaos_flag_values() {
        let all = ["--rates", "--sites", "--rearm"];
        let e = parse_flags(&argv(&["--rates", "1.5"]), &all).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        for zero in ["0", "0,0.1"] {
            let e = parse_flags(&argv(&["--rates", zero]), &all).unwrap_err();
            assert!(e.contains("out of range") && e.contains("zero-rate control"), "{e}");
        }
        let e = parse_flags(&argv(&["--sites", "bitmap,nonsense"]), &all).unwrap_err();
        assert!(e.contains("unknown corruption site nonsense"), "{e}");
        let e = parse_flags(&argv(&["--sites", "card,card"]), &all).unwrap_err();
        assert!(e.contains("duplicate corruption site"), "{e}");
        let e = parse_flags(&argv(&["--rearm", "0"]), &all).unwrap_err();
        assert!(e.contains("--rearm 0"), "{e}");
    }

    #[test]
    fn parses_fleet_flags() {
        let all = ["--tenants", "--mix", "--sched"];
        let f = parse_flags(&argv(&["--tenants", "4", "--mix", "BS:2,PR:2", "--sched", "fair"]), &all).unwrap();
        assert_eq!(f.tenants, Some(4));
        assert_eq!(f.mix.as_deref(), Some("BS:2,PR:2"));
        assert_eq!(f.sched, Some(SchedKind::FairShare));
        assert!(parse_flags(&argv(&["--tenants", "0"]), &all).is_err());
        assert!(parse_flags(&argv(&["--tenants", "257"]), &all).is_err());
        let e = parse_flags(&argv(&["--sched", "rr"]), &all).unwrap_err();
        assert!(e.contains("unknown scheduler"), "{e}");
    }

    /// A minimal fleet-shaped report with one tenant.
    fn fleet_report(p99: u64, makespan: u64, inflation: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::str("charon-fleet-v1")),
            ("sched", Json::str("fifo")),
            (
                "fleet",
                Json::obj(vec![
                    ("p99_ps", Json::U64(p99)),
                    ("max_inflation_bp", Json::U64(inflation)),
                    ("makespan_ps", Json::U64(makespan)),
                ]),
            ),
            (
                "tenant_detail",
                Json::Arr(vec![Json::obj(vec![("label", Json::str("t0:BS")), ("inflation_bp", Json::U64(inflation))])]),
            ),
        ])
    }

    #[test]
    fn fleet_reports_extract_lower_is_better_metrics() {
        let m = extract_metrics(&fleet_report(500, 9_000, 12_000));
        assert_eq!(
            m,
            vec![
                ("fleet/fifo/p99_ps".to_string(), 500),
                ("fleet/fifo/max_inflation_bp".to_string(), 12_000),
                ("fleet/fifo/makespan_ps".to_string(), 9_000),
                ("fleet/fifo/t0:BS/inflation_bp".to_string(), 12_000),
            ]
        );
        for (name, _) in &m {
            assert!(!higher_is_better(name), "{name} must regress upward");
        }
        // Worse interference trips the gate; identical reports pass.
        let old = fleet_report(500, 9_000, 12_000);
        let (compared, regs, ..) = regressions(&old, &fleet_report(500, 9_000, 15_000), 10.0);
        assert_eq!(compared, 4);
        assert_eq!(regs.len(), 2, "fleet-wide and per-tenant inflation both flagged");
        let (_, regs, ..) = regressions(&old, &old, 10.0);
        assert!(regs.is_empty(), "{regs:?}");
    }

    /// A minimal chaos-campaign report with the given counts and one cell.
    fn chaos_report(injected: u64, detected: u64, repaired: u64, escaped: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::str("charon-chaos-v1")),
            ("injected", Json::U64(injected)),
            ("detected", Json::U64(detected)),
            ("repaired", Json::U64(repaired)),
            ("benign", Json::U64(0)),
            ("escaped", Json::U64(escaped)),
            (
                "cells",
                Json::Arr(vec![Json::obj(vec![
                    ("workload", Json::str("BS")),
                    ("site", Json::str("bitmap")),
                    ("rate", Json::F64(0.05)),
                    ("escaped", Json::U64(escaped)),
                ])]),
            ),
        ])
    }

    #[test]
    fn chaos_reports_extract_direction_aware_metrics() {
        let m = extract_metrics(&chaos_report(200, 190, 190, 10));
        assert_eq!(
            m,
            vec![
                ("chaos/detection_rate_bp".to_string(), 9_500),
                ("chaos/repair_rate_bp".to_string(), 10_000),
                ("chaos/escaped".to_string(), 10),
                ("chaos/BS/bitmap/0.05/escaped".to_string(), 10),
            ]
        );
        assert!(higher_is_better("chaos/detection_rate_bp"));
        assert!(higher_is_better("chaos/repair_rate_bp"));
        assert!(!higher_is_better("chaos/escaped"));
    }

    #[test]
    fn chaos_detection_regresses_downward_and_escapes_upward() {
        let old = chaos_report(200, 200, 200, 0);
        // Detection dropped 100% -> 80%: trips the higher-is-better gate.
        let worse_detection = chaos_report(200, 160, 160, 40);
        let (compared, regs, ..) = regressions(&old, &worse_detection, 10.0);
        assert_eq!(compared, 4);
        let names: Vec<&str> = regs.iter().map(|r| r.metric.as_str()).collect();
        assert!(names.contains(&"chaos/detection_rate_bp"), "{names:?}");
        // Escapes over a zero baseline regress on any nonzero count.
        assert!(names.contains(&"chaos/escaped"), "{names:?}");
        // Identical reports pass clean.
        let (_, regs, ..) = regressions(&old, &chaos_report(200, 200, 200, 0), 10.0);
        assert!(regs.is_empty(), "{regs:?}");
    }
}
