//! Per-GC heap demographics: the paper's dead-object-ratio observation
//! as a first-class report.
//!
//! Charon's motivating measurement (Figs. 2/5) is that most of the heap
//! is *dead* at each collection — which is why clearing it near memory
//! pays. With [`crate::collector::Collector::census`] on, the collector
//! walks the collected spaces around every collection ([`pre`], [`post`])
//! and files a [`CensusRecord`] on the event: per klass and per space,
//! how many objects (and bytes) survived versus died, plus the survivor
//! age distribution and promotion traffic that the tenuring policy acts
//! on. [`Census`] folds a run's events into the report.
//!
//! The pass is purely functional — it reads the simulated heap without
//! charging any simulated time — and off by default because it walks
//! the collected spaces around every collection; a run with it on is
//! timing-identical to one without.
//!
//! How liveness is recovered without a shadow mark set:
//!
//! * **MinorGC** copies live objects out of eden/from-space and never
//!   writes into those source extents, so after the scavenge a source
//!   header still reads intact: `Forwarded` means live (the forwarding
//!   pointer tells us whether it was promoted and what age it carries),
//!   anything else died. Old space is not collected by a scavenge and is
//!   reported uncollected.
//! * **MajorGC** compacts every live object (old and young) downward
//!   into `[old.start, packed_end)` and clears marks only there. Young
//!   source extents are never overwritten, so `Marked` headers identify
//!   the young survivors; per-klass live totals come from walking the
//!   packed region, and per-klass dead is the difference against the
//!   pre-GC allocation walk.

use crate::collector::{GcEvent, GcKind};
use charon_heap::addr::VAddr;
use charon_heap::heap::JavaHeap;
use charon_heap::object::{self, MarkState, MAX_AGE};
use charon_sim::json::Json;
use std::fmt;

/// Live/dead tallies for one klass in one collection's collected spaces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KlassCensus {
    /// Klass name (from the heap's klass table).
    pub name: String,
    /// Objects that survived the collection.
    pub live_count: u64,
    /// Bytes of surviving objects.
    pub live_bytes: u64,
    /// Objects that died.
    pub dead_count: u64,
    /// Bytes of dead objects.
    pub dead_bytes: u64,
}

/// Live/dead tallies for one heap space at one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceCensus {
    /// Space name ("eden", "survivor", "old").
    pub name: &'static str,
    /// Whether this collection actually collected the space. Uncollected
    /// spaces report everything live by definition.
    pub collected: bool,
    /// Bytes allocated in the space when the collection began.
    pub allocated_bytes: u64,
    /// Bytes of objects that survived.
    pub live_bytes: u64,
    /// Bytes of objects that died.
    pub dead_bytes: u64,
}

impl SpaceCensus {
    /// Fraction of the space's allocated bytes that died (0.0 when
    /// empty).
    pub fn dead_fraction(&self) -> f64 {
        if self.allocated_bytes == 0 {
            0.0
        } else {
            self.dead_bytes as f64 / self.allocated_bytes as f64
        }
    }
}

/// The demographics of one collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusRecord {
    /// Collection ordinal (matches the collector's event index).
    pub seq: u64,
    /// Minor or major.
    pub kind: GcKind,
    /// Per-space tallies: eden, survivor (from-space), old.
    pub spaces: [SpaceCensus; 3],
    /// Per-klass tallies over the collected spaces, in klass-table order;
    /// klasses with no objects are omitted.
    pub per_klass: Vec<KlassCensus>,
    /// Post-copy age distribution of young survivors (MinorGC only):
    /// `age_hist[a]` objects now carry age `a`.
    pub age_hist: [u64; (MAX_AGE as usize) + 1],
    /// Objects promoted into Old by this scavenge.
    pub promoted_objects: u64,
    /// Bytes promoted into Old.
    pub promoted_bytes: u64,
    /// Objects that survived within the young generation.
    pub survived_objects: u64,
    /// Bytes that survived within the young generation.
    pub survived_bytes: u64,
    /// The tenuring threshold the scavenge used (0 for MajorGC).
    pub tenuring_threshold: u8,
}

impl CensusRecord {
    /// Bytes allocated across the *collected* spaces.
    pub fn collected_bytes(&self) -> u64 {
        self.spaces.iter().filter(|s| s.collected).map(|s| s.allocated_bytes).sum()
    }

    /// Bytes dead across the collected spaces.
    pub fn dead_bytes(&self) -> u64 {
        self.spaces.iter().filter(|s| s.collected).map(|s| s.dead_bytes).sum()
    }

    /// The paper's dead-object ratio: dead bytes over allocated bytes in
    /// the spaces this collection cleared.
    pub fn dead_fraction(&self) -> f64 {
        let total = self.collected_bytes();
        if total == 0 {
            0.0
        } else {
            self.dead_bytes() as f64 / total as f64
        }
    }

    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        let spaces = self
            .spaces
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("collected", Json::Bool(s.collected)),
                    ("allocated_bytes", Json::U64(s.allocated_bytes)),
                    ("live_bytes", Json::U64(s.live_bytes)),
                    ("dead_bytes", Json::U64(s.dead_bytes)),
                    ("dead_fraction", Json::F64(s.dead_fraction())),
                ])
            })
            .collect();
        let klasses = self
            .per_klass
            .iter()
            .map(|k| {
                Json::obj(vec![
                    ("name", Json::str(&k.name)),
                    ("live_count", Json::U64(k.live_count)),
                    ("live_bytes", Json::U64(k.live_bytes)),
                    ("dead_count", Json::U64(k.dead_count)),
                    ("dead_bytes", Json::U64(k.dead_bytes)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("seq", Json::U64(self.seq)),
            ("kind", Json::str(self.kind.to_string())),
            ("dead_fraction", Json::F64(self.dead_fraction())),
            ("spaces", Json::Arr(spaces)),
            ("per_klass", Json::Arr(klasses)),
            ("age_hist", Json::Arr(self.age_hist.iter().map(|&n| Json::U64(n)).collect())),
            ("promoted_objects", Json::U64(self.promoted_objects)),
            ("promoted_bytes", Json::U64(self.promoted_bytes)),
            ("survived_objects", Json::U64(self.survived_objects)),
            ("survived_bytes", Json::U64(self.survived_bytes)),
            ("tenuring_threshold", Json::U64(u64::from(self.tenuring_threshold))),
        ])
    }
}

impl fmt::Display for CensusRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {}: {:.1}% dead ({} of {} bytes), {} promoted, {} survived",
            self.seq,
            self.kind,
            self.dead_fraction() * 100.0,
            self.dead_bytes(),
            self.collected_bytes(),
            self.promoted_bytes,
            self.survived_bytes
        )
    }
}

/// The census of one run: every event's [`CensusRecord`], in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Census {
    /// One record per collection, in order.
    pub records: Vec<CensusRecord>,
}

impl Census {
    /// Collects the records the events carry (events taken with the
    /// census off carry none).
    pub fn fold(events: &[GcEvent]) -> Census {
        Census { records: events.iter().filter_map(|e| e.census.clone()).collect() }
    }

    /// Mean dead fraction over collections of `kind` (0.0 when none ran).
    pub fn mean_dead_fraction(&self, kind: GcKind) -> f64 {
        let fractions: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.kind == kind)
            .map(CensusRecord::dead_fraction)
            .collect();
        if fractions.is_empty() {
            0.0
        } else {
            fractions.iter().sum::<f64>() / fractions.len() as f64
        }
    }

    /// Machine-readable form: the per-collection records plus run-level
    /// summary ratios.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("collections", Json::U64(self.records.len() as u64)),
            ("mean_dead_fraction_minor", Json::F64(self.mean_dead_fraction(GcKind::Minor))),
            ("mean_dead_fraction_major", Json::F64(self.mean_dead_fraction(GcKind::Major))),
            ("records", Json::Arr(self.records.iter().map(CensusRecord::to_json).collect())),
        ])
    }
}

/// The pre-collection snapshot a census needs: space extents (tops move
/// or reset during the GC) and, for MajorGC, the per-klass allocation
/// walk that dead counts are differenced against.
#[derive(Debug, Clone)]
pub struct PreGc {
    eden: (VAddr, VAddr),
    from: (VAddr, VAddr),
    old: (VAddr, VAddr),
    /// `(count, bytes)` allocated per klass id across all spaces
    /// (captured only for MajorGC).
    allocated_per_klass: Vec<(u64, u64)>,
}

/// Captures the pre-collection state. Call immediately before the GC.
pub fn pre(heap: &JavaHeap, kind: GcKind) -> PreGc {
    let extent = |s: &charon_heap::space::Space| (s.start(), s.top());
    let eden = extent(heap.eden());
    let from = extent(heap.from_space());
    let old = extent(heap.old());
    let mut allocated_per_klass = vec![(0u64, 0u64); heap.klasses().len()];
    if kind == GcKind::Major {
        for &(start, top) in &[eden, from, old] {
            for (obj, words) in heap.walk_objects_sized(start, top) {
                let slot = &mut allocated_per_klass[object::klass_id(&heap.mem, obj).0 as usize];
                slot.0 += 1;
                slot.1 += words * 8;
            }
        }
    }
    PreGc { eden, from, old, allocated_per_klass }
}

/// Builds the census record after the collection completed. `seq` is the
/// collection ordinal and `tenuring_threshold` the scavenge's threshold
/// (0 for MajorGC).
pub fn post(heap: &JavaHeap, kind: GcKind, seq: u64, pre: &PreGc, tenuring_threshold: u8) -> CensusRecord {
    let mut per_klass: Vec<KlassCensus> = heap
        .klasses()
        .iter()
        .map(|k| KlassCensus { name: k.name().to_string(), ..Default::default() })
        .collect();
    let mut age_hist = [0u64; (MAX_AGE as usize) + 1];
    let mut rec = CensusRecord {
        seq,
        kind,
        spaces: [
            SpaceCensus { name: "eden", collected: true, allocated_bytes: 0, live_bytes: 0, dead_bytes: 0 },
            SpaceCensus { name: "survivor", collected: true, allocated_bytes: 0, live_bytes: 0, dead_bytes: 0 },
            SpaceCensus {
                name: "old",
                collected: kind == GcKind::Major,
                allocated_bytes: 0,
                live_bytes: 0,
                dead_bytes: 0,
            },
        ],
        per_klass: Vec::new(),
        age_hist,
        promoted_objects: 0,
        promoted_bytes: 0,
        survived_objects: 0,
        survived_bytes: 0,
        tenuring_threshold,
    };

    let young = [(0usize, pre.eden), (1usize, pre.from)];
    match kind {
        GcKind::Minor => {
            // Source extents are intact: Forwarded ⇒ live, else dead.
            for &(si, (start, top)) in &young {
                rec.spaces[si].allocated_bytes = top - start;
                for (obj, words) in heap.walk_objects_sized(start, top) {
                    let bytes = words * 8;
                    let k = &mut per_klass[object::klass_id(&heap.mem, obj).0 as usize];
                    if object::mark_state(&heap.mem, obj) == MarkState::Forwarded {
                        rec.spaces[si].live_bytes += bytes;
                        k.live_count += 1;
                        k.live_bytes += bytes;
                        let dest = object::forwarding(&heap.mem, obj);
                        if heap.in_old(dest) {
                            rec.promoted_objects += 1;
                            rec.promoted_bytes += bytes;
                        } else {
                            rec.survived_objects += 1;
                            rec.survived_bytes += bytes;
                            age_hist[object::age(&heap.mem, dest) as usize] += 1;
                        }
                    } else {
                        rec.spaces[si].dead_bytes += bytes;
                        k.dead_count += 1;
                        k.dead_bytes += bytes;
                    }
                }
            }
            // A scavenge does not collect Old: everything there stays.
            rec.spaces[2].allocated_bytes = pre.old.1 - pre.old.0;
            rec.spaces[2].live_bytes = rec.spaces[2].allocated_bytes;
        }
        GcKind::Major => {
            // Every live object (old and young survivors) now sits packed
            // in [old.start, old.top): walk it for per-klass live totals.
            for (obj, words) in heap.walk_objects_sized(heap.old().start(), heap.old().top()) {
                let k = &mut per_klass[object::klass_id(&heap.mem, obj).0 as usize];
                k.live_count += 1;
                k.live_bytes += words * 8;
            }
            for (k, &(count, bytes)) in per_klass.iter_mut().zip(pre.allocated_per_klass.iter()) {
                k.dead_count = count.saturating_sub(k.live_count);
                k.dead_bytes = bytes.saturating_sub(k.live_bytes);
            }
            // Young source extents keep their mark words: Marked ⇒ live.
            let mut young_live = 0u64;
            for &(si, (start, top)) in &young {
                rec.spaces[si].allocated_bytes = top - start;
                for (obj, words) in heap.walk_objects_sized(start, top) {
                    let bytes = words * 8;
                    if object::mark_state(&heap.mem, obj) == MarkState::Marked {
                        rec.spaces[si].live_bytes += bytes;
                        young_live += bytes;
                    } else {
                        rec.spaces[si].dead_bytes += bytes;
                    }
                }
            }
            let old_alloc = pre.old.1 - pre.old.0;
            let total_live: u64 = per_klass.iter().map(|k| k.live_bytes).sum();
            rec.spaces[2].allocated_bytes = old_alloc;
            rec.spaces[2].live_bytes = total_live.saturating_sub(young_live).min(old_alloc);
            rec.spaces[2].dead_bytes = old_alloc - rec.spaces[2].live_bytes;
        }
    }

    rec.age_hist = age_hist;
    rec.per_klass = per_klass.into_iter().filter(|k| k.live_count + k.dead_count > 0).collect();
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::system::System;
    use charon_heap::heap::{HeapConfig, JavaHeap};
    use charon_heap::klass::KlassKind;

    /// Empty spaces, empty records, and an empty census must all report
    /// a dead fraction of exactly zero rather than dividing by zero —
    /// the adaptive controller consumes these signals raw.
    #[test]
    fn dead_fraction_is_zero_on_empty_inputs() {
        let empty_space =
            SpaceCensus { name: "eden", collected: true, allocated_bytes: 0, live_bytes: 0, dead_bytes: 0 };
        assert_eq!(empty_space.dead_fraction(), 0.0);
        let record = CensusRecord {
            seq: 0,
            kind: GcKind::Minor,
            spaces: [
                empty_space,
                SpaceCensus { name: "survivor", collected: true, allocated_bytes: 0, live_bytes: 0, dead_bytes: 0 },
                // The uncollected old space never feeds the ratio, even
                // when it is the only space holding bytes.
                SpaceCensus { name: "old", collected: false, allocated_bytes: 4096, live_bytes: 4096, dead_bytes: 0 },
            ],
            per_klass: Vec::new(),
            age_hist: [0; (charon_heap::object::MAX_AGE as usize) + 1],
            promoted_objects: 0,
            promoted_bytes: 0,
            survived_objects: 0,
            survived_bytes: 0,
            tenuring_threshold: 0,
        };
        assert_eq!(record.collected_bytes(), 0);
        assert_eq!(record.dead_fraction(), 0.0);
        let census = Census::fold(&[]);
        assert_eq!(census.mean_dead_fraction(GcKind::Minor), 0.0);
        assert_eq!(census.mean_dead_fraction(GcKind::Major), 0.0);
    }

    /// Drives enough garbage through a small heap to trigger scavenges
    /// with a census enabled, then checks the conservation invariant.
    #[test]
    fn census_conserves_bytes_per_space() {
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
        let bytes = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
        let mut gc = Collector::new(System::ddr4(), &heap, 4);
        gc.census = true;
        for _ in 0..4000 {
            let obj = gc.alloc(&mut heap, bytes, 64).unwrap();
            heap.add_root(obj);
            if heap.root_count() > 64 {
                heap.set_root(heap.root_count() - 64, charon_heap::VAddr::NULL);
            }
        }
        let census = Census::fold(&gc.events);
        assert!(!census.records.is_empty(), "no collections ran");
        assert_eq!(census.records.len(), gc.events.len(), "one record per collection");
        for r in &census.records {
            for s in &r.spaces {
                assert_eq!(
                    s.live_bytes + s.dead_bytes,
                    s.allocated_bytes,
                    "space {} of census #{} leaks bytes",
                    s.name,
                    r.seq
                );
            }
            // Per-klass totals cover the same bytes as the collected spaces.
            let klass_total: u64 = r.per_klass.iter().map(|k| k.live_bytes + k.dead_bytes).sum();
            let expect: u64 = match r.kind {
                GcKind::Minor => r.spaces[0].allocated_bytes + r.spaces[1].allocated_bytes,
                GcKind::Major => r.spaces.iter().map(|s| s.allocated_bytes).sum(),
            };
            assert_eq!(klass_total, expect, "census #{} per-klass bytes", r.seq);
            // With most roots dropped, garbage dominates each scavenge.
            if r.kind == GcKind::Minor {
                assert!(r.dead_fraction() > 0.2, "census #{}: dead fraction {}", r.seq, r.dead_fraction());
            }
        }
    }

    #[test]
    fn minor_census_tracks_promotion_and_ages() {
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
        let bytes = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
        let mut gc = Collector::new(System::ddr4(), &heap, 4);
        gc.census = true;
        // Long-lived roots survive repeated scavenges and eventually tenure.
        for _ in 0..8000 {
            let obj = gc.alloc(&mut heap, bytes, 64).unwrap();
            if heap.root_count() < 400 {
                heap.add_root(obj);
            }
        }
        let census = Census::fold(&gc.events);
        let minors: Vec<_> = census.records.iter().filter(|r| r.kind == GcKind::Minor).collect();
        assert!(!minors.is_empty());
        let survived: u64 = minors.iter().map(|r| r.survived_objects).sum();
        let ages: u64 = minors.iter().map(|r| r.age_hist.iter().sum::<u64>()).sum();
        assert_eq!(survived, ages, "every young survivor lands in one age bucket");
        // The census's survived/promoted tallies agree with the scavenger's.
        for (r, e) in census.records.iter().zip(gc.events.iter()) {
            if let Some(m) = e.minor {
                assert_eq!(r.survived_bytes, m.survived_bytes, "census #{}", r.seq);
                assert_eq!(r.promoted_bytes, m.promoted_bytes, "census #{}", r.seq);
                assert_eq!(r.tenuring_threshold, m.tenuring_threshold);
            }
        }
        assert!(census.to_json().get("records").is_some());
    }

    /// The census is the collector's one switch: off, events carry no
    /// record and the fold is empty; on, every event carries its own,
    /// numbered like the event, and the timing is the same.
    #[test]
    fn records_ride_on_events_only_when_switched_on() {
        let run = |census: bool| {
            let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
            let bytes = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
            let mut gc = Collector::new(System::ddr4(), &heap, 4);
            gc.census = census;
            for _ in 0..3000 {
                gc.alloc(&mut heap, bytes, 64).unwrap();
            }
            gc.events
        };
        let (off, on) = (run(false), run(true));
        assert!(!on.is_empty());
        assert!(off.iter().all(|e| e.census.is_none()));
        assert!(Census::fold(&off).records.is_empty());
        for (e, o) in on.iter().zip(&off) {
            assert_eq!(e.census.as_ref().map(|r| r.seq), Some(e.seq));
            assert_eq!((e.start, e.wall), (o.start, o.wall), "the census walk charges no time");
        }
        assert_eq!(Census::fold(&on).records.len(), on.len());
    }

    #[test]
    fn json_round_trips() {
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
        let bytes = heap.klasses_mut().register_array("byte[]", KlassKind::TypeArray);
        let mut gc = Collector::new(System::ddr4(), &heap, 4);
        gc.census = true;
        for _ in 0..3000 {
            gc.alloc(&mut heap, bytes, 64).unwrap();
        }
        let census = Census::fold(&gc.events);
        let text = census.to_json().to_string();
        let back = Json::parse(&text).expect("census json parses");
        assert_eq!(back.get("collections").and_then(|v| v.as_u64()), Some(census.records.len() as u64));
    }
}
