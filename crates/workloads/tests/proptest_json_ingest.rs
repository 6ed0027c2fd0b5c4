//! Hostile-input fuzz for everything that ingests a JSON file the user
//! names: `check-json` (`Json::parse`), `regress`
//! (`report::{extract_metrics, regressions}`) and `trend record|report|
//! bisect` (`Ledger::{parse, record, bisect_all, trend_report}`).
//!
//! Each case builds one of the report shapes the repo writes (bench,
//! compare, bare run, chaos, fleet, history ledger), then spoils it field
//! by field: `u64::MAX` and zero counts, negative and huge floats, a
//! string or an array where a number belongs, keys left out, values
//! nested to the parser's depth limit and past it, and the whole document
//! wrapped in extra brackets. None of the ingest paths may panic; the
//! ledger a report is recorded into must still round-trip.

use charon_sim::json::{Json, MAX_DEPTH};
use charon_sim::report::{extract_metrics, regressions};
use charon_workloads::history::Ledger;
use proptest::prelude::*;

/// SplitMix64 step: every document is replayable from one `u64`.
fn mix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `depth` arrays around `inner`.
fn nested(depth: usize, inner: Json) -> Json {
    (0..depth).fold(inner, |v, _| Json::Arr(vec![v]))
}

/// A value that does not belong where it is put.
fn hostile(s: &mut u64) -> Json {
    match mix(s) % 12 {
        0 => Json::U64(u64::MAX),
        1 => Json::U64(0),
        2 => Json::U64(mix(s)),
        3 => Json::I64(-1),
        4 => Json::F64(1e300),
        5 => Json::F64(-0.5),
        6 => Json::str("12"),
        7 => Json::Null,
        8 => Json::Bool(true),
        9 => Json::Arr(vec![Json::U64(1)]),
        10 => Json::obj([("p99", Json::U64(u64::MAX))]),
        _ => nested(MAX_DEPTH - 4 + (mix(s) % 8) as usize, Json::U64(7)),
    }
}

/// An object of `fields`, each kept with a sane value, spoiled, or left
/// out.
fn spoil(fields: Vec<(&str, Json)>, s: &mut u64) -> Json {
    Json::obj(fields.into_iter().filter_map(|(k, v)| match mix(s) % 8 {
        0 => None,
        1 | 2 => Some((k, hostile(s))),
        _ => Some((k, v)),
    }))
}

fn count(s: &mut u64) -> Json {
    Json::U64([0, 1, 10_000, 1 << 53, u64::MAX][(mix(s) % 5) as usize])
}

fn run(s: &mut u64) -> Json {
    let pauses =
        spoil(vec![("minor", spoil(vec![("p99", count(s))], s)), ("major", spoil(vec![("p99", count(s))], s))], s);
    spoil(
        vec![
            ("workload", Json::str(["BS", "KM", "?"][(mix(s) % 3) as usize])),
            ("platform", Json::str(["DDR4", "Charon"][(mix(s) % 2) as usize])),
            ("gc_time_ps", count(s)),
            ("profile", spoil(vec![("pauses", pauses)], s)),
        ],
        s,
    )
}

fn runs(s: &mut u64) -> Json {
    Json::Arr((0..mix(s) % 3).map(|_| run(s)).collect())
}

/// One report in one of the shapes the repo writes, spoiled.
fn report(s: &mut u64) -> Json {
    match mix(s) % 6 {
        0 => spoil(vec![("benches", Json::Arr(vec![spoil(vec![("runs", runs(s))], s)]))], s),
        1 => spoil(vec![("runs", runs(s))], s),
        2 => run(s),
        3 => {
            let cell = spoil(
                vec![
                    ("workload", Json::str("BS")),
                    ("site", Json::str("bitmap")),
                    ("rate", Json::F64(0.1)),
                    ("escaped", count(s)),
                ],
                s,
            );
            spoil(
                vec![
                    ("schema", Json::str("charon-chaos-v1")),
                    ("injected", count(s)),
                    ("detected", count(s)),
                    ("repaired", count(s)),
                    ("benign", count(s)),
                    ("escaped", count(s)),
                    ("cells", Json::Arr(vec![cell])),
                ],
                s,
            )
        }
        4 => {
            let fleet = spoil(vec![("p99_ps", count(s)), ("max_inflation_bp", count(s)), ("makespan_ps", count(s))], s);
            let tenant = spoil(vec![("label", Json::str("BS#0")), ("inflation_bp", count(s))], s);
            spoil(
                vec![
                    ("schema", Json::str("charon-fleet-v1")),
                    ("sched", Json::str("fair")),
                    ("fleet", fleet),
                    ("tenant_detail", Json::Arr(vec![tenant])),
                ],
                s,
            )
        }
        _ => {
            let metrics = spoil(vec![("BS/DDR4/gc_time_ps", count(s)), ("chaos/repair_rate_bp", count(s))], s);
            let run = spoil(vec![("label", Json::str("r0")), ("metrics", metrics)], s);
            spoil(vec![("schema", Json::str("charon-history-v1")), ("runs", Json::Arr(vec![run]))], s)
        }
    }
}

/// The report's text, sometimes wrapped in brackets past the depth limit
/// or cut short.
fn text(s: &mut u64, doc: &Json) -> String {
    let text = doc.to_string();
    match mix(s) % 6 {
        0 => {
            let depth = (mix(s) % (2 * MAX_DEPTH as u64)) as usize;
            "[".repeat(depth) + &text + &"]".repeat(depth)
        }
        1 => text[..text.len() / 2].to_string(),
        _ => text,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Two hostile reports go through every ingest path a CLI subcommand
    /// reaches; nothing panics, and a ledger that recorded them
    /// round-trips through its own serialization.
    #[test]
    fn hostile_json_never_panics_an_ingest_path(seed in any::<u64>(), tolerance in 0u64..1000) {
        let mut s = seed;
        let tolerance = tolerance as f64;
        let (a, b) = (report(&mut s), report(&mut s));
        let (text_a, text_b) = (text(&mut s, &a), text(&mut s, &b));
        let parsed: Vec<Json> = [&text_a, &text_b].into_iter().filter_map(|t| Json::parse(t).ok()).collect();
        let mut ledger = Ledger::new();
        for (i, doc) in parsed.iter().enumerate() {
            extract_metrics(doc);
            ledger.record(format!("run {i}"), doc);
        }
        if let [old, new] = parsed.as_slice() {
            regressions(old, new, tolerance);
            regressions(new, old, tolerance);
        }
        for t in [&text_a, &text_b] {
            if let Ok(l) = Ledger::parse(t) {
                l.bisect_all(None, tolerance);
                l.trend_report(Some("gc"), tolerance);
            }
        }
        ledger.bisect_all(None, tolerance);
        ledger.trend_report(None, tolerance);
        let back = Ledger::parse(&ledger.to_json().to_string());
        prop_assert_eq!(back.as_ref(), Ok(&ledger));
    }
}

/// The chaos rates multiply a count by 10 000 basis points; a count near
/// `u64::MAX` saturates instead of overflowing.
#[test]
fn chaos_rate_products_saturate() {
    let doc = Json::obj([
        ("schema", Json::str("charon-chaos-v1")),
        ("injected", Json::U64(u64::MAX)),
        ("detected", Json::U64(u64::MAX)),
        ("repaired", Json::U64(u64::MAX / 2)),
    ]);
    let metrics = extract_metrics(&doc);
    let get = |name: &str| metrics.iter().find(|(m, _)| m == name).map(|&(_, v)| v);
    assert_eq!(get("chaos/detection_rate_bp"), Some(1));
    assert_eq!(get("chaos/repair_rate_bp"), Some(1));
}
