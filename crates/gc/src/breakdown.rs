//! The Fig. 4 time buckets.
//!
//! Every operation a GC performs lands in exactly one bucket; the paper's
//! runtime breakdowns (Fig. 4a/4b) and per-primitive speedups (Fig. 14)
//! are ratios over these.

use charon_core::packet::PrimType;
use charon_sim::bwres::BwOccupancy;
use charon_sim::faults::CorruptionSite;
use charon_sim::json::Json;
use charon_sim::time::Ps;
use std::fmt;
use std::ops::{Add, AddAssign};

/// One breakdown bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bucket {
    /// Card-table scan for dirty blocks (MinorGC, offloadable).
    Search,
    /// Object/region copies (both GCs, offloadable).
    Copy,
    /// Object-graph scanning and pushing (both GCs, offloadable).
    ScanPush,
    /// `live_words_in_range` (MajorGC, offloadable).
    BitmapCount,
    /// Popping work off the object stack (host-only; §3.3 explains why
    /// offloading it would not pay).
    Pop,
    /// Pushing roots / bookkeeping pushes (host-only).
    Push,
    /// Everything else: root enumeration, card cleaning, space resets,
    /// bitmap clears, cache flushes, allocation bookkeeping.
    Other,
}

impl Bucket {
    /// All buckets in display order.
    pub const ALL: [Bucket; 7] =
        [Bucket::Search, Bucket::ScanPush, Bucket::Copy, Bucket::BitmapCount, Bucket::Pop, Bucket::Push, Bucket::Other];

    /// The bucket primitive `prim`'s time lands in.
    pub fn of(prim: PrimType) -> Bucket {
        match prim {
            PrimType::Copy => Bucket::Copy,
            PrimType::Search => Bucket::Search,
            PrimType::ScanPush => Bucket::ScanPush,
            PrimType::BitmapCount => Bucket::BitmapCount,
        }
    }

    /// Whether Charon offloads this bucket's work (§3.3).
    pub fn offloadable(self) -> bool {
        matches!(self, Bucket::Search | Bucket::Copy | Bucket::ScanPush | Bucket::BitmapCount)
    }
}

impl fmt::Display for Bucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Bucket::Search => "Search",
            Bucket::Copy => "Copy",
            Bucket::ScanPush => "Scan&Push",
            Bucket::BitmapCount => "Bitmap Count",
            Bucket::Pop => "Pop object",
            Bucket::Push => "Push",
            Bucket::Other => "Others",
        };
        f.write_str(s)
    }
}

/// Offload-recovery accounting under fault injection, indexed by the
/// primitive's wire encoding (Copy=0, Search=1, Scan&Push=2, Bitmap
/// Count=3). All zero outside fault campaigns — the zero value is what
/// keeps fault-free logs byte-identical to the pre-fault-layer output.
///
/// The corruption tier (PR 7) adds per-site integrity counters indexed by
/// [`charon_sim::faults::CorruptionSite::index`]; they stay zero — and
/// keep the JSON/Display shapes unchanged — unless corruption is injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Offload re-issues beyond each request's first attempt.
    pub retries: [u64; 4],
    /// Offloads abandoned to the host software path after the retry
    /// budget ran out.
    pub fallbacks: [u64; 4],
    /// Primitives whose unit class the device declared dead (watchdog or
    /// quarantine) while they offloaded; the device's verdict keeps them
    /// on the host software path until a re-arm (graceful degradation).
    pub degraded: [bool; 4],
    /// Corruptions injected into primitive outputs, per site.
    pub corrupt_injected: [u64; 4],
    /// Injected corruptions the integrity layer caught, per site.
    pub corrupt_detected: [u64; 4],
    /// Detected corruptions the repair ladder fixed, per site.
    pub corrupt_repaired: [u64; 4],
    /// Injected corruptions the detection checks passed over because the
    /// damaged bits are provably dead (e.g. age bits of a forwarded
    /// header), per site.
    pub corrupt_benign: [u64; 4],
    /// Repairs by ladder rung: [re-execute+patch, bounded re-mark,
    /// quarantine].
    pub repair_rungs: [u64; 3],
    /// Heap extents quarantined by rung 3.
    pub quarantined_extents: u64,
    /// Watchdog-dead unit classes re-armed by the probe path, per
    /// primitive.
    pub rearmed: [u64; 4],
}

impl RecoverySummary {
    /// True when nothing was retried, abandoned, degraded, corrupted, or
    /// re-armed.
    pub fn is_empty(&self) -> bool {
        self.retries.iter().all(|&r| r == 0)
            && self.fallbacks.iter().all(|&f| f == 0)
            && !self.degraded.iter().any(|&d| d)
            && !self.has_corruption()
            && self.rearmed.iter().all(|&r| r == 0)
    }

    /// True when any corruption-tier counter is nonzero.
    pub fn has_corruption(&self) -> bool {
        self.corrupt_injected.iter().any(|&v| v > 0)
            || self.corrupt_detected.iter().any(|&v| v > 0)
            || self.corrupt_repaired.iter().any(|&v| v > 0)
            || self.corrupt_benign.iter().any(|&v| v > 0)
            || self.repair_rungs.iter().any(|&v| v > 0)
            || self.quarantined_extents > 0
    }

    /// Total corruptions injected across sites.
    pub fn total_injected(&self) -> u64 {
        self.corrupt_injected.iter().sum()
    }

    /// Total corruptions detected across sites.
    pub fn total_detected(&self) -> u64 {
        self.corrupt_detected.iter().sum()
    }

    /// Total corruptions repaired across sites.
    pub fn total_repaired(&self) -> u64 {
        self.corrupt_repaired.iter().sum()
    }

    /// Injected corruptions neither detected nor provably benign — the
    /// silent-corruption count the chaos campaign reports (must be zero
    /// with the shadow oracle on).
    pub fn escaped(&self) -> u64 {
        self.total_injected()
            .saturating_sub(self.total_detected() + self.corrupt_benign.iter().sum::<u64>())
    }

    /// Total re-issues across primitives.
    pub fn total_retries(&self) -> u64 {
        self.retries.iter().sum()
    }

    /// Total host-path fallbacks across primitives.
    pub fn total_fallbacks(&self) -> u64 {
        self.fallbacks.iter().sum()
    }

    /// Machine-readable view: per-primitive retry/fallback/degraded
    /// counters keyed by display name, plus the totals.
    pub fn to_json(&self) -> Json {
        let per_prim =
            |vals: &[u64; 4]| Json::obj(PrimType::ALL.iter().zip(vals).map(|(p, &v)| (p.name(), Json::U64(v))));
        let mut fields = vec![
            ("retries", per_prim(&self.retries)),
            ("fallbacks", per_prim(&self.fallbacks)),
            (
                "degraded",
                Json::obj(
                    PrimType::ALL
                        .iter()
                        .zip(&self.degraded)
                        .map(|(p, &d)| (p.name(), Json::Bool(d))),
                ),
            ),
            ("total_retries", Json::U64(self.total_retries())),
            ("total_fallbacks", Json::U64(self.total_fallbacks())),
        ];
        // The corruption-tier and re-arm keys appear only when nonzero so
        // fault-free JSON stays byte-identical to the committed baselines.
        if self.has_corruption() {
            let per_site = |vals: &[u64; 4]| {
                Json::obj(CorruptionSite::ALL.iter().zip(vals).map(|(c, &v)| (c.name(), Json::U64(v))))
            };
            fields.push((
                "corruption",
                Json::obj(vec![
                    ("injected", per_site(&self.corrupt_injected)),
                    ("detected", per_site(&self.corrupt_detected)),
                    ("repaired", per_site(&self.corrupt_repaired)),
                    ("benign", per_site(&self.corrupt_benign)),
                    ("repair_rungs", Json::Arr(self.repair_rungs.iter().map(|&r| Json::U64(r)).collect())),
                    ("quarantined_extents", Json::U64(self.quarantined_extents)),
                    ("escaped", Json::U64(self.escaped())),
                ]),
            ));
        }
        if self.rearmed.iter().any(|&r| r > 0) {
            fields.push(("rearmed", per_prim(&self.rearmed)));
        }
        Json::obj(fields)
    }

    /// The change from `before` to `self`. Counters subtract; a delta
    /// flags as degraded only primitives that died in the interval — dead
    /// at its end, and either alive at its start or re-armed inside it.
    pub fn since(&self, before: RecoverySummary) -> RecoverySummary {
        let mut out = RecoverySummary::default();
        for i in 0..4 {
            out.retries[i] = self.retries[i] - before.retries[i];
            out.fallbacks[i] = self.fallbacks[i] - before.fallbacks[i];
            out.rearmed[i] = self.rearmed[i] - before.rearmed[i];
            out.degraded[i] = self.degraded[i] && (!before.degraded[i] || out.rearmed[i] > 0);
            out.corrupt_injected[i] = self.corrupt_injected[i] - before.corrupt_injected[i];
            out.corrupt_detected[i] = self.corrupt_detected[i] - before.corrupt_detected[i];
            out.corrupt_repaired[i] = self.corrupt_repaired[i] - before.corrupt_repaired[i];
            out.corrupt_benign[i] = self.corrupt_benign[i] - before.corrupt_benign[i];
        }
        for i in 0..3 {
            out.repair_rungs[i] = self.repair_rungs[i] - before.repair_rungs[i];
        }
        out.quarantined_extents = self.quarantined_extents - before.quarantined_extents;
        out
    }
}

impl Add for RecoverySummary {
    type Output = RecoverySummary;
    fn add(self, rhs: RecoverySummary) -> RecoverySummary {
        let mut out = self;
        for i in 0..4 {
            out.retries[i] += rhs.retries[i];
            out.fallbacks[i] += rhs.fallbacks[i];
            out.degraded[i] |= rhs.degraded[i];
            out.corrupt_injected[i] += rhs.corrupt_injected[i];
            out.corrupt_detected[i] += rhs.corrupt_detected[i];
            out.corrupt_repaired[i] += rhs.corrupt_repaired[i];
            out.corrupt_benign[i] += rhs.corrupt_benign[i];
            out.rearmed[i] += rhs.rearmed[i];
        }
        for i in 0..3 {
            out.repair_rungs[i] += rhs.repair_rungs[i];
        }
        out.quarantined_extents += rhs.quarantined_extents;
        out
    }
}

impl AddAssign for RecoverySummary {
    fn add_assign(&mut self, rhs: RecoverySummary) {
        *self = *self + rhs;
    }
}

impl fmt::Display for RecoverySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        let join = |vals: &[u64; 4]| {
            vals.iter()
                .enumerate()
                .filter(|(_, &v)| v > 0)
                .map(|(i, v)| format!("{}={v}", PrimType::ALL[i].name()))
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut parts = Vec::new();
        if self.total_retries() > 0 {
            parts.push(format!("retries[{}]", join(&self.retries)));
        }
        if self.total_fallbacks() > 0 {
            parts.push(format!("fallbacks[{}]", join(&self.fallbacks)));
        }
        if self.degraded.iter().any(|&d| d) {
            let dead = self
                .degraded
                .iter()
                .enumerate()
                .filter(|(_, &d)| d)
                .map(|(i, _)| PrimType::ALL[i].name())
                .collect::<Vec<_>>()
                .join(",");
            parts.push(format!("degraded[{dead}]"));
        }
        if self.total_injected() > 0 {
            let join = |vals: &[u64; 4]| {
                vals.iter()
                    .enumerate()
                    .filter(|(_, &v)| v > 0)
                    .map(|(i, v)| format!("{}={v}", CorruptionSite::ALL[i].name()))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            parts.push(format!(
                "corruption[injected {}; detected {}/{}; repaired {}; escaped {}]",
                join(&self.corrupt_injected),
                self.total_detected(),
                self.total_injected(),
                self.total_repaired(),
                self.escaped()
            ));
        }
        if self.quarantined_extents > 0 {
            parts.push(format!("quarantined[{}]", self.quarantined_extents));
        }
        if self.rearmed.iter().any(|&r| r > 0) {
            let armed = self
                .rearmed
                .iter()
                .enumerate()
                .filter(|(_, &v)| v > 0)
                .map(|(i, _)| PrimType::ALL[i].name())
                .collect::<Vec<_>>()
                .join(",");
            parts.push(format!("rearmed[{armed}]"));
        }
        f.write_str(&parts.join(" "))
    }
}

/// Accumulated per-bucket times (summed over GC threads, as profilers
/// report them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    buckets: [Ps; 7],
    /// Bandwidth-meter occupancy the collection generated across the
    /// memory fabric (total/spilled units, clamped late reservations).
    bw: BwOccupancy,
    /// Offload-recovery events the collection absorbed (fault campaigns).
    recovery: RecoverySummary,
}

impl Breakdown {
    /// An empty breakdown.
    pub fn new() -> Breakdown {
        Breakdown::default()
    }

    fn idx(b: Bucket) -> usize {
        Bucket::ALL.iter().position(|&x| x == b).expect("bucket in ALL")
    }

    /// Adds `dur` to bucket `b`.
    pub fn record(&mut self, b: Bucket, dur: Ps) {
        self.buckets[Self::idx(b)] += dur;
    }

    /// The accumulated time in bucket `b`.
    pub fn get(&self, b: Bucket) -> Ps {
        self.buckets[Self::idx(b)]
    }

    /// Total over all buckets.
    pub fn total(&self) -> Ps {
        self.buckets.iter().copied().sum()
    }

    /// Fraction of the total in bucket `b` (0 if the total is zero).
    pub fn fraction(&self, b: Bucket) -> f64 {
        let t = self.total();
        if t == Ps::ZERO {
            0.0
        } else {
            self.get(b).0 as f64 / t.0 as f64
        }
    }

    /// Fraction of the total in offloadable buckets — the coverage number
    /// the paper reports (71–79 %, §3.2).
    pub fn offloadable_fraction(&self) -> f64 {
        Bucket::ALL.iter().filter(|b| b.offloadable()).map(|&b| self.fraction(b)).sum()
    }

    /// The bucket holding the largest share, with its fraction — the
    /// one-line "where did this pause's time go" answer the postmortem
    /// renders. `None` on an all-zero breakdown; ties break to display
    /// order ([`Bucket::ALL`]).
    pub fn dominant(&self) -> Option<(Bucket, f64)> {
        if self.total() == Ps::ZERO {
            return None;
        }
        let best = Bucket::ALL
            .into_iter()
            .fold(Bucket::ALL[0], |best, b| if self.get(b) > self.get(best) { b } else { best });
        Some((best, self.fraction(best)))
    }

    /// Folds a fabric bandwidth-occupancy delta into this breakdown
    /// (recorded once per collection by the collector).
    pub fn record_bw(&mut self, bw: BwOccupancy) {
        self.bw += bw;
    }

    /// The bandwidth-meter occupancy this breakdown accumulated. A nonzero
    /// `spilled_units` or `late_reservations` flags that agent clocks
    /// skewed past the metering window during the collection, i.e. the
    /// timing is conservative rather than exact.
    pub fn bw(&self) -> BwOccupancy {
        self.bw
    }

    /// Folds an offload-recovery delta into this breakdown (recorded once
    /// per collection by the collector, like [`Breakdown::record_bw`]).
    pub fn record_recovery(&mut self, r: RecoverySummary) {
        self.recovery += r;
    }

    /// The offload-recovery events this breakdown accumulated.
    pub fn recovery(&self) -> RecoverySummary {
        self.recovery
    }

    /// Machine-readable view: per-bucket picoseconds and fractions, the
    /// total, the offloadable fraction, bandwidth occupancy, and recovery.
    pub fn to_json(&self) -> Json {
        let buckets = Json::obj(
            Bucket::ALL
                .iter()
                .map(|&b| {
                    (
                        b.to_string(),
                        Json::obj(vec![("ps", Json::U64(self.get(b).0)), ("fraction", Json::F64(self.fraction(b)))]),
                    )
                })
                .collect::<Vec<_>>(),
        );
        Json::obj(vec![
            ("buckets", buckets),
            ("total_ps", Json::U64(self.total().0)),
            ("offloadable_fraction", Json::F64(self.offloadable_fraction())),
            ("bw", self.bw.to_json()),
            ("recovery", self.recovery.to_json()),
        ])
    }
}

impl Add for Breakdown {
    type Output = Breakdown;
    fn add(self, rhs: Breakdown) -> Breakdown {
        let mut out = self;
        for (i, v) in rhs.buckets.iter().enumerate() {
            out.buckets[i] += *v;
        }
        out.bw += rhs.bw;
        out.recovery += rhs.recovery;
        out
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Breakdown) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in Bucket::ALL {
            if self.get(b) > Ps::ZERO {
                write!(f, "{b}: {} ({:.1}%)  ", self.get(b), self.fraction(b) * 100.0)?;
            }
        }
        if self.bw.total_units > 0 {
            write!(
                f,
                "[bw: {:.2} MB metered, {} spilled, {} late]",
                self.bw.total_units as f64 / 1e6,
                self.bw.spilled_units,
                self.bw.late_reservations
            )?;
        }
        if !self.recovery.is_empty() {
            write!(f, "[recovery: {}]", self.recovery)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_fractions() {
        let mut b = Breakdown::new();
        b.record(Bucket::Copy, Ps(600));
        b.record(Bucket::Search, Ps(200));
        b.record(Bucket::Other, Ps(200));
        assert_eq!(b.total(), Ps(1000));
        assert!((b.fraction(Bucket::Copy) - 0.6).abs() < 1e-12);
        assert!((b.offloadable_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn offloadable_set_matches_paper() {
        assert!(Bucket::Search.offloadable());
        assert!(Bucket::Copy.offloadable());
        assert!(Bucket::ScanPush.offloadable());
        assert!(Bucket::BitmapCount.offloadable());
        assert!(!Bucket::Pop.offloadable());
        assert!(!Bucket::Push.offloadable());
        assert!(!Bucket::Other.offloadable());
    }

    #[test]
    fn sum_of_breakdowns() {
        let mut a = Breakdown::new();
        a.record(Bucket::Pop, Ps(5));
        let mut b = Breakdown::new();
        b.record(Bucket::Pop, Ps(7));
        b.record(Bucket::Push, Ps(1));
        let c = a + b;
        assert_eq!(c.get(Bucket::Pop), Ps(12));
        assert_eq!(c.get(Bucket::Push), Ps(1));
        a += b;
        assert_eq!(a.get(Bucket::Pop), Ps(12));
    }

    #[test]
    fn bw_occupancy_folds_and_displays() {
        let mut a = Breakdown::new();
        a.record(Bucket::Copy, Ps(100));
        a.record_bw(BwOccupancy { total_units: 1 << 20, spilled_units: 3, late_reservations: 1 });
        let mut b = Breakdown::new();
        b.record_bw(BwOccupancy { total_units: 1 << 20, spilled_units: 0, late_reservations: 0 });
        let c = a + b;
        assert_eq!(c.bw().total_units, 2 << 20);
        assert_eq!(c.bw().spilled_units, 3);
        assert_eq!(c.bw().late_reservations, 1);
        let s = c.to_string();
        assert!(s.contains("spilled"), "occupancy missing from display: {s}");
    }

    #[test]
    fn recovery_summary_deltas_and_display() {
        let mut after = RecoverySummary::default();
        after.retries[0] = 5;
        after.fallbacks[0] = 2;
        after.degraded[0] = true;
        after.retries[1] = 1;
        let mut before = RecoverySummary::default();
        before.retries[0] = 3;
        let d = after.since(before);
        assert_eq!(d.retries[0], 2);
        assert_eq!(d.fallbacks[0], 2);
        assert!(d.degraded[0]);
        assert_eq!(d.retries[1], 1);
        let s = d.to_string();
        assert!(s.contains("retries[Copy=2,Search=1]"), "{s}");
        assert!(s.contains("fallbacks[Copy=2]"), "{s}");
        assert!(s.contains("degraded[Copy]"), "{s}");
        assert_eq!(RecoverySummary::default().to_string(), "none");
        // Degradation already present before the interval is not re-flagged.
        let again = after.since(after);
        assert!(again.is_empty());
    }

    #[test]
    fn recovery_folds_into_breakdown_and_display() {
        let mut a = Breakdown::new();
        a.record(Bucket::Copy, Ps(100));
        assert!(!a.to_string().contains("recovery"), "fault-free display must not change");
        let mut r = RecoverySummary::default();
        r.retries[2] = 4;
        a.record_recovery(r);
        let mut b = Breakdown::new();
        let mut r2 = RecoverySummary::default();
        r2.retries[2] = 1;
        r2.degraded[3] = true;
        b.record_recovery(r2);
        let c = a + b;
        assert_eq!(c.recovery().retries[2], 5);
        assert!(c.recovery().degraded[3]);
        let s = c.to_string();
        assert!(s.contains("recovery:"), "{s}");
        assert!(s.contains("Scan&Push=5"), "{s}");
    }

    #[test]
    fn corruption_counters_fold_delta_and_display() {
        let mut after = RecoverySummary::default();
        after.corrupt_injected[0] = 4; // bitmap
        after.corrupt_detected[0] = 4;
        after.corrupt_repaired[0] = 4;
        after.corrupt_injected[1] = 3; // forward
        after.corrupt_detected[1] = 2;
        after.corrupt_benign[1] = 1;
        after.corrupt_repaired[1] = 2;
        after.repair_rungs[0] = 2;
        after.repair_rungs[1] = 4;
        after.quarantined_extents = 1;
        after.rearmed[2] = 1;
        let mut before = RecoverySummary::default();
        before.corrupt_injected[0] = 1;
        before.corrupt_detected[0] = 1;
        before.corrupt_repaired[0] = 1;
        let d = after.since(before);
        assert_eq!(d.corrupt_injected[0], 3);
        assert_eq!(d.corrupt_detected[0], 3);
        assert_eq!(d.corrupt_repaired[1], 2);
        assert_eq!(d.escaped(), 0, "detected + benign covers every injection");
        assert_eq!(d.quarantined_extents, 1);
        assert_eq!(d.rearmed[2], 1);
        let sum = d + before;
        assert_eq!(sum.corrupt_injected[0], 4);
        assert_eq!(sum.repair_rungs, after.repair_rungs);
        let s = after.to_string();
        assert!(s.contains("corruption[injected bitmap=4,forward=3"), "{s}");
        assert!(s.contains("detected 6/7"), "{s}");
        assert!(s.contains("escaped 0"), "{s}");
        assert!(s.contains("quarantined[1]"), "{s}");
        assert!(s.contains("rearmed[Scan&Push]"), "{s}");
        assert!(!after.is_empty());
    }

    #[test]
    fn a_unit_rearmed_and_dead_again_in_one_interval_is_degraded_in_it() {
        let mut before = RecoverySummary::default();
        before.degraded[1] = true;
        let mut after = before;
        assert!(!after.since(before).degraded[1], "dead since an earlier interval");
        after.rearmed[1] = 1;
        assert!(after.since(before).degraded[1], "re-armed, then dead again");
        after.degraded[1] = false;
        assert!(!after.since(before).degraded[1], "re-armed and alive");
    }

    #[test]
    fn corruption_json_keys_appear_only_when_nonzero() {
        let clean = RecoverySummary::default();
        let j = clean.to_json();
        assert!(j.get("corruption").is_none(), "zero-state JSON must not grow new keys");
        assert!(j.get("rearmed").is_none());
        let mut hot = RecoverySummary::default();
        hot.corrupt_injected[3] = 2;
        hot.corrupt_detected[3] = 1;
        hot.rearmed[0] = 1;
        let j = hot.to_json();
        let c = j.get("corruption").expect("corruption key present when nonzero");
        assert_eq!(c.get("injected").and_then(|v| v.get("payload")).and_then(|v| v.as_u64()), Some(2));
        assert_eq!(c.get("escaped").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(j.get("rearmed").and_then(|v| v.get("Copy")).and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn empty_breakdown_fractions_are_zero() {
        let b = Breakdown::new();
        assert_eq!(b.fraction(Bucket::Copy), 0.0);
        assert_eq!(b.offloadable_fraction(), 0.0);
    }

    #[test]
    fn dominant_names_the_largest_bucket() {
        assert!(Breakdown::new().dominant().is_none());
        let mut b = Breakdown::new();
        b.record(Bucket::Copy, Ps(600));
        b.record(Bucket::ScanPush, Ps(300));
        b.record(Bucket::Other, Ps(100));
        let (bucket, frac) = b.dominant().unwrap();
        assert_eq!(bucket, Bucket::Copy);
        assert!((frac - 0.6).abs() < 1e-12);
        // Ties break to display order: Search precedes Copy in ALL.
        let mut tie = Breakdown::new();
        tie.record(Bucket::Search, Ps(500));
        tie.record(Bucket::Copy, Ps(500));
        assert_eq!(tie.dominant().unwrap().0, Bucket::Search);
    }
}
