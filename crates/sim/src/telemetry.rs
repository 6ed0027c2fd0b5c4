//! Structured telemetry: an allocation-light event journal plus exporters.
//!
//! The simulator's timing core runs the same whether anyone is watching or
//! not; observability is a *recording* concern layered on top (DESIGN.md
//! "Observability"). A [`Telemetry`] handle is either disabled — the
//! default, a `None` that every hook checks with one branch and no
//! allocation — or an `Rc<RefCell<Journal>>` shared by every layer that
//! instruments itself: the collector (collection + phase spans), the
//! `System` primitive dispatchers (per-primitive issue/complete pairs and
//! cache-flush spans), the Charon device (per-unit busy spans, injected
//! faults, recovery outcomes), and the bandwidth meters (per-epoch
//! occupancy samples).
//!
//! Hooks pass a **closure** to [`Telemetry::record`], so the event — and
//! any `String` it carries — is only ever constructed when the journal is
//! live. With telemetry off the hot paths stay bit-identical to an
//! uninstrumented build, which the `proptest_telemetry` suite asserts by
//! fingerprint equality.
//!
//! Exporters are pure functions over the recorded event slice:
//! [`chrome_trace`] renders a Chrome trace-event (`chrome://tracing` /
//! Perfetto) timeline with one process row per layer, and the
//! `to_json` methods on report types elsewhere reuse the same
//! [`crate::json::Json`] writer.

use crate::json::Json;
use crate::time::Ps;
use std::cell::RefCell;
use std::rc::Rc;

/// One recorded occurrence. Spans carry `[start, end]` in simulated
/// picoseconds; instants carry a single `at`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One full collection (minor or major), as the collector saw it.
    Collection {
        /// Ordinal of this collection within the run (0-based).
        seq: u64,
        /// `"minor"` or `"major"`.
        kind: &'static str,
        start: Ps,
        end: Ps,
    },
    /// One collector phase (roots, cards, drain, mark, compact, ...)
    /// inside collection `seq`.
    Phase { seq: u64, name: &'static str, start: Ps, end: Ps },
    /// One primitive execution as dispatched by `System` — offloaded or
    /// host-fallback alike — attributed to the issuing GC thread.
    Prim { prim: &'static str, thread: usize, start: Ps, end: Ps, bytes: u64 },
    /// Busy span of a near-memory unit serving one offload, attributed to
    /// the cube the unit lives on.
    UnitSpan { prim: &'static str, cube: usize, start: Ps, end: Ps, bytes: u64 },
    /// A cache-flush span charged at a phase boundary (`"host-caches"` or
    /// `"bitmap-cache"`), with the line count flushed.
    Flush { kind: &'static str, start: Ps, end: Ps, lines: u64 },
    /// An injected offload fault observed at `at` on retry `attempt`.
    Fault { site: &'static str, prim: &'static str, at: Ps, attempt: u32 },
    /// A recovery-ladder outcome: `"retried"` (grant after retries),
    /// `"fallback"` (abandoned to the host path), or `"degraded"` (the
    /// watchdog disabled the primitive's offloading).
    Recovery { prim: &'static str, outcome: &'static str, at: Ps, retries: u32 },
    /// Fill level of one metered resource's epoch (`link` names the
    /// meter, e.g. `"dram"` or `"noc.spoke2"`).
    BwSample { link: String, epoch_start: Ps, used: u64 },
    /// One adaptive-offload controller decision at the prologue of
    /// collection `seq`: which policy spoke and what mask it chose
    /// (rendered as the `+`-joined alias list, e.g. `"copy+search"`).
    Decision { seq: u64, policy: &'static str, mask: String, at: Ps },
    /// An injected data corruption observed by the integrity layer:
    /// `site` names the corruption class (`"bitmap"`, `"forward"`,
    /// `"card"`, `"payload"`), `addr` the damaged heap/metadata address,
    /// and `detected` whether the detection layer caught it at the check
    /// point (`false` means it escaped to the end-of-run audit).
    Corruption { site: &'static str, addr: u64, at: Ps, detected: bool },
    /// A repair-ladder outcome for a detected corruption: `rung` is 1
    /// (host re-execute + patch), 2 (bounded re-mark of the damaged
    /// extent), or 3 (unit + extent quarantine).
    Repair { site: &'static str, rung: u8, addr: u64, at: Ps },
    /// A watchdog-dead unit re-armed for a probe after `gcs` collections
    /// (`--rearm N`).
    Rearm { prim: &'static str, at: Ps, gcs: u32 },
}

/// The event log. One journal is shared (via [`Telemetry`] clones) by
/// every instrumented layer of a run.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    events: Vec<Event>,
}

/// A cheap, cloneable handle to an optional shared sink `T`: the one
/// handle type behind both [`Telemetry`] and
/// [`crate::profile::Profiler`]. The simulation is single-threaded, so
/// `Rc<RefCell<…>>` suffices.
///
/// `Sink::default()` is disabled: every record call is a single `is_some`
/// branch and leaves simulated timing bit-identical.
#[derive(Debug, Clone, Default)]
pub struct Sink<T>(Option<Rc<RefCell<T>>>);

impl<T: Default> Sink<T> {
    /// The do-nothing handle (same as `Sink::default()`).
    pub fn disabled() -> Sink<T> {
        Sink(None)
    }

    /// A live handle backed by a fresh, empty sink.
    pub fn enabled() -> Sink<T> {
        Sink(Some(Rc::new(RefCell::new(T::default()))))
    }

    /// Whether anything is being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Applies `f` to the live sink; a no-op when disabled.
    #[inline]
    pub(crate) fn with(&self, f: impl FnOnce(&mut T)) {
        if let Some(sink) = &self.0 {
            f(&mut sink.borrow_mut());
        }
    }

    /// `f` of the live sink, or of an empty one when disabled.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        match &self.0 {
            Some(sink) => f(&sink.borrow()),
            None => f(&T::default()),
        }
    }
}

/// A handle to an optional [`Journal`].
pub type Telemetry = Sink<Journal>;

impl Telemetry {
    /// Records the event produced by `f` — which is only invoked when the
    /// journal is live, so hooks may build `String`s inside it freely.
    #[inline]
    pub fn record(&self, f: impl FnOnce() -> Event) {
        self.with(|j| j.events.push(f()));
    }

    /// Events recorded so far (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.read(|j| j.events.clone())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.read(|j| j.events.len())
    }

    /// Whether the journal holds no events (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Simulated picoseconds → trace microseconds (the Chrome trace unit).
fn us(t: Ps) -> f64 {
    t.0 as f64 / 1e6
}

/// Process/thread rows of the exported timeline.
const PID_GC: u64 = 0; // collections, phases, flushes
const PID_THREADS: u64 = 1; // per-GC-thread primitive spans
const PID_UNITS: u64 = 2; // per-cube unit busy spans, faults, recovery

fn complete(name: &str, pid: u64, tid: u64, start: Ps, end: Ps, args: Json) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("X")),
        ("ts", Json::F64(us(start))),
        ("dur", Json::F64(us(end.max(start)) - us(start))),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("args", args),
    ])
}

fn instant(name: &str, pid: u64, tid: u64, at: Ps, args: Json) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("i")),
        ("ts", Json::F64(us(at))),
        ("s", Json::str("t")),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("args", args),
    ])
}

fn process_name(pid: u64, name: &str) -> Json {
    Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("ts", Json::F64(0.0)),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(0)),
        ("args", Json::obj([("name", Json::str(name))])),
    ])
}

/// Renders a journal as a Chrome trace-event array (the JSON Array
/// Format), loadable in `chrome://tracing` or Perfetto.
///
/// Row mapping: pid 0 holds collection spans (tid 0), phase spans (tid 1)
/// and flush spans (tid 2); pid 1 holds primitive spans, one tid per GC
/// thread; pid 2 holds unit busy spans, one tid per cube, plus fault and
/// recovery instants. [`Event::BwSample`]s become `"C"` counter events.
/// Every event carries `name`/`ph`/`ts`/`pid`/`tid`.
pub fn chrome_trace(events: &[Event]) -> Json {
    let mut out = vec![
        process_name(PID_GC, "gc"),
        process_name(PID_THREADS, "gc-threads"),
        process_name(PID_UNITS, "charon-units"),
    ];
    for ev in events {
        out.push(match ev {
            Event::Collection { seq, kind, start, end } => {
                complete(&format!("{kind} gc"), PID_GC, 0, *start, *end, Json::obj([("seq", Json::U64(*seq))]))
            }
            Event::Phase { seq, name, start, end } => {
                complete(name, PID_GC, 1, *start, *end, Json::obj([("seq", Json::U64(*seq))]))
            }
            Event::Flush { kind, start, end, lines } => {
                complete(kind, PID_GC, 2, *start, *end, Json::obj([("lines", Json::U64(*lines))]))
            }
            Event::Prim { prim, thread, start, end, bytes } => {
                complete(prim, PID_THREADS, *thread as u64, *start, *end, Json::obj([("bytes", Json::U64(*bytes))]))
            }
            Event::UnitSpan { prim, cube, start, end, bytes } => {
                complete(prim, PID_UNITS, *cube as u64, *start, *end, Json::obj([("bytes", Json::U64(*bytes))]))
            }
            Event::Fault { site, prim, at, attempt } => instant(
                &format!("fault:{site}"),
                PID_UNITS,
                0,
                *at,
                Json::obj([("prim", Json::str(*prim)), ("attempt", Json::U64(u64::from(*attempt)))]),
            ),
            Event::Recovery { prim, outcome, at, retries } => instant(
                &format!("recovery:{outcome}"),
                PID_UNITS,
                0,
                *at,
                Json::obj([("prim", Json::str(*prim)), ("retries", Json::U64(u64::from(*retries)))]),
            ),
            Event::Decision { seq, policy, mask, at } => instant(
                &format!("decision:{policy}"),
                PID_GC,
                0,
                *at,
                Json::obj([("seq", Json::U64(*seq)), ("mask", Json::str(mask))]),
            ),
            Event::Corruption { site, addr, at, detected } => instant(
                &format!("corruption:{site}"),
                PID_UNITS,
                0,
                *at,
                Json::obj([("addr", Json::U64(*addr)), ("detected", Json::Bool(*detected))]),
            ),
            Event::Repair { site, rung, addr, at } => instant(
                &format!("repair:rung{rung}"),
                PID_UNITS,
                0,
                *at,
                Json::obj([("site", Json::str(*site)), ("addr", Json::U64(*addr))]),
            ),
            Event::Rearm { prim, at, gcs } => {
                instant(&format!("rearm:{prim}"), PID_UNITS, 0, *at, Json::obj([("gcs", Json::U64(u64::from(*gcs)))]))
            }
            Event::BwSample { link, epoch_start, used } => Json::obj([
                ("name", Json::str(link)),
                ("ph", Json::str("C")),
                ("ts", Json::F64(us(*epoch_start))),
                ("pid", Json::U64(PID_GC)),
                ("tid", Json::U64(0)),
                ("args", Json::obj([("used", Json::U64(*used))])),
            ]),
        });
    }
    Json::Arr(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_runs_the_closure() {
        let t = Telemetry::disabled();
        let mut ran = false;
        t.record(|| {
            ran = true;
            Event::Phase { seq: 0, name: "roots", start: Ps::ZERO, end: Ps(1) }
        });
        assert!(!ran);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert_eq!(t.events(), vec![]);
    }

    #[test]
    fn clones_share_one_journal() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.record(|| Event::Collection { seq: 0, kind: "minor", start: Ps::ZERO, end: Ps(5) });
        u.record(|| Event::Phase { seq: 0, name: "roots", start: Ps(1), end: Ps(2) });
        assert_eq!(t.len(), 2);
        assert_eq!(u.len(), 2);
        assert!(matches!(t.events()[1], Event::Phase { name: "roots", .. }));
    }

    #[test]
    fn chrome_trace_events_all_carry_required_keys() {
        let events = vec![
            Event::Collection { seq: 0, kind: "minor", start: Ps::ZERO, end: Ps(2_000_000) },
            Event::Phase { seq: 0, name: "roots", start: Ps::ZERO, end: Ps(1_000_000) },
            Event::Prim { prim: "Copy", thread: 3, start: Ps(10), end: Ps(20), bytes: 64 },
            Event::UnitSpan { prim: "Copy", cube: 5, start: Ps(12), end: Ps(18), bytes: 64 },
            Event::Flush { kind: "host-caches", start: Ps(0), end: Ps(9), lines: 4 },
            Event::Fault { site: "link", prim: "Search", at: Ps(7), attempt: 1 },
            Event::Recovery { prim: "Search", outcome: "fallback", at: Ps(9), retries: 3 },
            Event::Corruption { site: "bitmap", addr: 0x4000, at: Ps(11), detected: true },
            Event::Repair { site: "bitmap", rung: 2, addr: 0x4000, at: Ps(12) },
            Event::Rearm { prim: "Copy", at: Ps(13), gcs: 4 },
            Event::BwSample { link: "dram".into(), epoch_start: Ps(0), used: 4096 },
        ];
        let trace = chrome_trace(&events);
        let arr = trace.as_arr().expect("trace is an array");
        // 3 process_name metadata rows + one event each.
        assert_eq!(arr.len(), 3 + events.len());
        for ev in arr {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "missing {key} in {ev}");
            }
        }
        // Round-trips through the validating parser.
        let text = trace.to_string();
        let back = Json::parse(&text).expect("chrome trace parses");
        assert_eq!(back.as_arr().unwrap().len(), arr.len());
    }

    #[test]
    fn spans_convert_ps_to_microseconds() {
        let trace = chrome_trace(&[Event::Phase { seq: 1, name: "mark", start: Ps(3_000_000), end: Ps(5_500_000) }]);
        let ev = &trace.as_arr().unwrap()[3];
        assert_eq!(ev.get("ts").unwrap().as_f64(), Some(3.0));
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(2.5));
    }
}
