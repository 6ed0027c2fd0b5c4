//! The traced pass's span list.
//!
//! Spans are recorded only from the benchmark's own files, around the
//! calls into each library layer; they live in memory and are written out
//! (`--spans FILE`) when the run ends. One span = name, start, end, the
//! span that caused it, and the cell it belongs to.

use charon_sim::json::Json;
use std::time::Instant;

/// Cell id of spans that belong to no cell (the micro loops).
pub const NO_CELL: usize = usize::MAX;

/// One recorded interval. Times are nanoseconds since the tracer was
/// created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name (`heap.new`, `mutator.superstep`, …).
    pub name: &'static str,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Which cell of the workload the span belongs to ([`NO_CELL`] for
    /// none); the spans of one cell share it.
    pub cell: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Spans nest by call order: the parent of a new
/// span is whichever span is still open.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str, cell: usize) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans
            .push(Span { name, parent: self.open.last().copied(), cell, start_ns: now, end_ns: now });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain (after a stage failed
    /// between its `begin` and `end`).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("non-empty");
            self.end(id);
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, cell: usize, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, cell);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[cfg(test)]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The span dump: one object per span, with its self time.
    pub fn to_json(&self) -> Json {
        let spans = (0..self.spans.len())
            .map(|i| {
                let s = &self.spans[i];
                Json::obj(vec![
                    ("id", Json::U64(i as u64)),
                    ("name", Json::str(s.name)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::U64(p as u64))),
                    ("cell", if s.cell == NO_CELL { Json::Null } else { Json::U64(s.cell as u64) }),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    ("self_ns", Json::U64(self_time_ns(&self.spans, i))),
                ])
            })
            .collect();
        Json::obj(vec![("schema", Json::str("charon-perfbench-spans-v1")), ("spans", Json::Arr(spans))])
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, cell: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span("cell", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            span("b.inner", Some(2), 45, 50), // a grandchild is b's business, not cell's
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 30);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 30 - 5);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("p", None, 100, 200),
            span("x", Some(0), 110, 150),
            span("y", Some(0), 140, 160), // overlaps x by 10
            span("z", Some(0), 190, 250), // overhangs the parent by 50
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - (40 + 10 + 10));
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new();
        let outer = t.begin("cell", 3);
        let v = t.time("heap.new", 3, || 7);
        t.time("mutator.superstep", 3, || ());
        t.time("mutator.superstep", 3, || ());
        t.end(outer);
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert!(s[1..].iter().all(|c| c.parent == Some(outer) && c.cell == 3));
        assert_eq!(t.count("mutator.superstep"), 2);
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        let dump = Json::parse(&t.to_json().to_string()).expect("span dump is valid JSON");
        assert_eq!(dump.get("spans").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
    }
}
