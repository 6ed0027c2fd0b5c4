//! Tail-pause attribution: who made the worst pauses slow, and what the
//! tail costs in energy.
//!
//! The paper's headline claim is about the *tail* — Charon shortens the
//! pauses that dominate p99, not the average — but a pause histogram only
//! says *that* p99 moved. [`Postmortem`] keeps, for the top-K worst
//! pauses per GC kind, everything needed to say *why*: the full
//! [`crate::breakdown::Breakdown`], the per-unit-class busy/queue deltas
//! across that pause, and the fault/recovery counters the pause absorbed.
//! It also attributes the per-collection [`EnergyAccount`] delta to
//! pause-histogram buckets (the exact [`charon_sim::hist`] partition, via
//! [`charon_sim::hist::bucket_index`]), so a report can answer "what does
//! a p99 pause cost in nJ and where did its time go".
//!
//! It is a fold over the run's [`GcEvent`]s ([`Postmortem::fold`]): the
//! collector files every delta on the event at each collection's
//! epilogue — read-only snapshots before, deltas after, no clock
//! advanced — so there is nothing to switch on and nothing to capture
//! here.

use crate::collector::{GcEvent, GcKind};
use charon_core::device::{units_json, UNIT_CLASS_NAMES};
use charon_sim::energy::EnergyAccount;
use charon_sim::hist::{bucket_bounds, bucket_index, BUCKETS};
use charon_sim::json::Json;
use charon_sim::time::Ps;
use std::fmt;

fn worst_json(e: &GcEvent) -> Json {
    let mut fields = vec![
        ("seq", Json::U64(e.seq)),
        ("start_ps", Json::U64(e.start.0)),
        ("wall_ps", Json::U64(e.wall.0)),
        ("breakdown", e.breakdown.to_json()),
        ("energy", e.energy.to_json()),
    ];
    if let Some(units) = &e.units {
        fields.push(("units", units_json(units, e.wall)));
    }
    Json::obj(fields)
}

/// Per-kind accumulation: the top-K list plus the bucketed energy table.
#[derive(Debug, Clone)]
struct KindLane {
    /// Worst pauses, longest first, at most `top_k`.
    worst: Vec<GcEvent>,
    /// Pause count per histogram bucket (this IS the pause histogram).
    bucket_count: [u64; BUCKETS],
    /// Summed pause time per bucket, picoseconds.
    bucket_ps: [u64; BUCKETS],
    /// Summed energy draw per bucket.
    bucket_energy: Vec<EnergyAccount>,
}

impl KindLane {
    fn new() -> KindLane {
        KindLane {
            worst: Vec::new(),
            bucket_count: [0; BUCKETS],
            bucket_ps: [0; BUCKETS],
            bucket_energy: vec![EnergyAccount::default(); BUCKETS],
        }
    }

    fn pauses(&self) -> u64 {
        self.bucket_count.iter().sum()
    }

    fn energy_total(&self) -> EnergyAccount {
        let mut total = EnergyAccount::default();
        for e in &self.bucket_energy {
            total.accumulate(e);
        }
        total
    }

    /// Bucket index holding the p99 pause — same rank rule as
    /// [`charon_sim::hist::Histogram::try_quantile`]. `None` when no
    /// pause of this kind ran.
    fn p99_bucket(&self) -> Option<usize> {
        let count = self.pauses();
        if count == 0 {
            return None;
        }
        let rank = ((0.99 * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.bucket_count.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(i);
            }
        }
        None
    }
}

/// Top-K worst-pause capture plus per-bucket energy attribution, per GC
/// kind. See the module docs for the design contract.
#[derive(Debug, Clone)]
pub struct Postmortem {
    top_k: usize,
    /// Indexed by kind: 0 = minor, 1 = major.
    lanes: [KindLane; 2],
}

fn lane_idx(kind: GcKind) -> usize {
    match kind {
        GcKind::Minor => 0,
        GcKind::Major => 1,
    }
}

impl Postmortem {
    /// Folds a run's events, keeping the `top_k` worst pauses per kind
    /// (clamped to at least 1).
    pub fn fold(events: &[GcEvent], top_k: usize) -> Postmortem {
        let mut pm = Postmortem { top_k: top_k.max(1), lanes: [KindLane::new(), KindLane::new()] };
        for e in events {
            pm.observe(e);
        }
        pm
    }

    /// The configured per-kind retention.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    fn observe(&mut self, e: &GcEvent) {
        let lane = &mut self.lanes[lane_idx(e.kind)];
        let b = bucket_index(e.wall.0);
        lane.bucket_count[b] += 1;
        lane.bucket_ps[b] += e.wall.0;
        lane.bucket_energy[b].accumulate(&e.energy);
        // Keep `worst` sorted longest-first; ties keep the earlier pause
        // (first occurrence wins, like a stable sort by descending wall).
        let pos = lane.worst.iter().position(|w| w.wall < e.wall).unwrap_or(lane.worst.len());
        if pos < self.top_k {
            lane.worst.insert(pos, e.clone());
            lane.worst.truncate(self.top_k);
        }
    }

    /// Pauses observed for `kind`.
    pub fn pauses(&self, kind: GcKind) -> u64 {
        self.lanes[lane_idx(kind)].pauses()
    }

    /// The retained worst pauses for `kind`, longest first.
    pub fn worst(&self, kind: GcKind) -> &[GcEvent] {
        &self.lanes[lane_idx(kind)].worst
    }

    /// Summed energy attributed to `kind`'s pauses.
    pub fn energy_by_kind(&self, kind: GcKind) -> EnergyAccount {
        self.lanes[lane_idx(kind)].energy_total()
    }

    /// Summed energy over both kinds and all buckets. Because energy is
    /// charged exactly once per collection
    /// ([`crate::system::System::charge_gc_energy`]), this telescopes to
    /// the run's final [`EnergyAccount`] up to f64 rounding — the
    /// conservation property the postmortem proptest pins.
    pub fn energy_total(&self) -> EnergyAccount {
        let mut total = self.energy_by_kind(GcKind::Minor);
        total.accumulate(&self.energy_by_kind(GcKind::Major));
        total
    }

    /// `(bucket index, count, summed ps, summed energy)` rows for the
    /// non-empty buckets of `kind`, ascending.
    pub fn energy_buckets(&self, kind: GcKind) -> Vec<(usize, u64, u64, &EnergyAccount)> {
        let lane = &self.lanes[lane_idx(kind)];
        (0..BUCKETS)
            .filter(|&i| lane.bucket_count[i] > 0)
            .map(|i| (i, lane.bucket_count[i], lane.bucket_ps[i], &lane.bucket_energy[i]))
            .collect()
    }

    /// The bucket holding `kind`'s p99 pause with its count and summed
    /// energy: the "what does a p99 pause cost" answer. `None` when no
    /// pause of this kind ran.
    pub fn p99_cost(&self, kind: GcKind) -> Option<(usize, u64, EnergyAccount)> {
        let lane = &self.lanes[lane_idx(kind)];
        let b = lane.p99_bucket()?;
        Some((b, lane.bucket_count[b], lane.bucket_energy[b].clone()))
    }

    /// Machine-readable view; round-trips through [`Json::parse`].
    pub fn to_json(&self) -> Json {
        let lane_json = |kind: GcKind| {
            let lane = &self.lanes[lane_idx(kind)];
            let buckets = self
                .energy_buckets(kind)
                .into_iter()
                .map(|(i, count, ps, energy)| {
                    let (lo, hi) = bucket_bounds(i);
                    Json::obj(vec![
                        ("lo", Json::U64(lo)),
                        ("hi", Json::U64(hi)),
                        ("count", Json::U64(count)),
                        ("pause_ps", Json::U64(ps)),
                        ("energy", energy.to_json()),
                    ])
                })
                .collect();
            let p99 = match self.p99_cost(kind) {
                None => Json::Null,
                Some((b, count, energy)) => {
                    let (lo, hi) = bucket_bounds(b);
                    Json::obj(vec![
                        ("lo", Json::U64(lo)),
                        ("hi", Json::U64(hi)),
                        ("count", Json::U64(count)),
                        ("energy", energy.to_json()),
                    ])
                }
            };
            Json::obj(vec![
                ("pauses", Json::U64(lane.pauses())),
                ("energy", lane.energy_total().to_json()),
                ("p99_bucket", p99),
                ("buckets", Json::Arr(buckets)),
                ("worst", Json::Arr(lane.worst.iter().map(worst_json).collect())),
            ])
        };
        Json::obj(vec![
            ("top_k", Json::U64(self.top_k as u64)),
            ("minor", lane_json(GcKind::Minor)),
            ("major", lane_json(GcKind::Major)),
        ])
    }
}

impl fmt::Display for Postmortem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "postmortem (top {} per kind):", self.top_k)?;
        for kind in [GcKind::Minor, GcKind::Major] {
            let lane = &self.lanes[lane_idx(kind)];
            if lane.pauses() == 0 {
                writeln!(f, "{kind}: no pauses")?;
                continue;
            }
            let total = lane.energy_total();
            writeln!(f, "{kind}: {} pauses, energy {:.4e} J", lane.pauses(), total.total_j())?;
            if let Some((b, count, energy)) = self.p99_cost(kind) {
                let (lo, hi) = bucket_bounds(b);
                let share = if total.total_j() > 0.0 { energy.total_j() / total.total_j() * 100.0 } else { 0.0 };
                writeln!(
                    f,
                    "  p99 bucket [{}, {}]: {count} pauses, {:.1} nJ each on average ({share:.1}% of {kind} energy)",
                    Ps(lo),
                    Ps(hi),
                    energy.total_j() / count as f64 * 1e9
                )?;
            }
            for (rank, rec) in lane.worst.iter().enumerate() {
                write!(f, "  worst #{}: seq={} start={} wall={}", rank + 1, rec.seq, rec.start, rec.wall)?;
                if let Some((b, frac)) = rec.breakdown.dominant() {
                    write!(f, " dominant={b} ({:.1}%)", frac * 100.0)?;
                }
                writeln!(f)?;
                writeln!(f, "    breakdown: {}", rec.breakdown)?;
                writeln!(f, "    energy: {:.1} nJ ({})", rec.energy.total_j() * 1e9, rec.energy)?;
                if let Some(units) = &rec.units {
                    for (&name, u) in UNIT_CLASS_NAMES.iter().zip(units.iter()) {
                        if u.executions == 0 && u.busy == Ps::ZERO {
                            continue;
                        }
                        writeln!(
                            f,
                            "    unit {name}: util={:.1}% busy={} execs={} wedges={} qhw={} x{}",
                            u.utilization(rec.wall) * 100.0,
                            u.busy,
                            u.executions,
                            u.wedges,
                            u.queue_high_water,
                            u.total_units
                        )?;
                    }
                }
                let recovery = rec.breakdown.recovery();
                if !recovery.is_empty() {
                    writeln!(f, "    recovery: {recovery}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::Bucket;
    use charon_core::device::UnitClassStats;

    fn rec(kind: GcKind, seq: u64, wall: u64, joules: f64) -> GcEvent {
        let mut e = GcEvent::blank(kind, seq);
        e.start = Ps(seq * 1000);
        e.wall = Ps(wall);
        e.breakdown.record(Bucket::Copy, Ps(wall * 3 / 4));
        e.breakdown.record(Bucket::Other, Ps(wall / 4));
        e.energy = EnergyAccount { dram_j: joules, ..EnergyAccount::default() };
        e
    }

    #[test]
    fn keeps_top_k_longest_first() {
        let events = [(0, 100), (1, 900), (2, 500), (3, 950)].map(|(seq, wall)| rec(GcKind::Minor, seq, wall, 0.0));
        let pm = Postmortem::fold(&events, 2);
        let worst = pm.worst(GcKind::Minor);
        assert_eq!(worst.len(), 2);
        assert_eq!((worst[0].seq, worst[0].wall.0), (3, 950));
        assert_eq!((worst[1].seq, worst[1].wall.0), (1, 900));
        assert!(pm.worst(GcKind::Major).is_empty());
        assert_eq!(pm.pauses(GcKind::Minor), 4, "bucket table still counts every pause");
    }

    #[test]
    fn ties_keep_the_earlier_pause() {
        let pm = Postmortem::fold(&[rec(GcKind::Major, 5, 700, 0.0), rec(GcKind::Major, 9, 700, 0.0)], 1);
        assert_eq!(pm.worst(GcKind::Major)[0].seq, 5);
    }

    #[test]
    fn bucket_energy_conserves_and_follows_hist_partition() {
        // 100 and 120 share bucket [64, 127]; 5000 lands in [4096, 8191].
        let events = [
            rec(GcKind::Minor, 0, 100, 1.0),
            rec(GcKind::Minor, 1, 120, 2.0),
            rec(GcKind::Minor, 2, 5000, 4.0),
            rec(GcKind::Major, 3, 5000, 8.0),
        ];
        let pm = Postmortem::fold(&events, 3);
        assert!((pm.energy_total().total_j() - 15.0).abs() < 1e-12);
        assert!((pm.energy_by_kind(GcKind::Major).total_j() - 8.0).abs() < 1e-12);
        let rows = pm.energy_buckets(GcKind::Minor);
        assert_eq!(rows.len(), 2);
        let (i, count, ps, energy) = rows[0];
        assert_eq!((bucket_bounds(i), count, ps), ((64, 127), 2, 220));
        assert!((energy.total_j() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn p99_cost_names_the_tail_bucket() {
        let mut events: Vec<GcEvent> = (0..99).map(|seq| rec(GcKind::Minor, seq, 100, 0.001)).collect();
        // Two slow pauses: with 101 samples the Histogram rank rule
        // (ceil(0.99·n), shared via bucket_index/bucket_bounds) puts
        // rank 100 in the slow bucket. A single outlier among 100 is
        // NOT the p99 under that rule — rank 99 is still fast.
        events.push(rec(GcKind::Minor, 99, 100_000, 5.0));
        events.push(rec(GcKind::Minor, 100, 100_000, 5.0));
        let pm = Postmortem::fold(&events, 1);
        let (b, count, energy) = pm.p99_cost(GcKind::Minor).expect("pauses ran");
        assert_eq!(b, bucket_index(100_000), "p99 of 99×fast + 2×slow is the slow bucket");
        assert_eq!(count, 2);
        assert!((energy.total_j() - 10.0).abs() < 1e-12);
        assert!(pm.p99_cost(GcKind::Major).is_none());
    }

    #[test]
    fn json_round_trips_and_display_renders() {
        let mut r = rec(GcKind::Minor, 0, 2048, 0.5);
        r.units = Some([
            UnitClassStats { busy: Ps(512), executions: 4, wedges: 0, queue_high_water: 7, total_units: 2 },
            UnitClassStats::default(),
            UnitClassStats::default(),
        ]);
        let pm = Postmortem::fold(&[r], 2);
        let j = pm.to_json();
        let back = Json::parse(&j.to_string()).expect("postmortem json parses");
        assert_eq!(back.get("top_k").and_then(Json::as_u64), Some(2));
        let minor = back.get("minor").unwrap();
        assert_eq!(minor.get("pauses").and_then(Json::as_u64), Some(1));
        let worst = minor.get("worst").and_then(Json::as_arr).unwrap();
        assert_eq!(worst.len(), 1);
        let units = worst[0].get("units").expect("unit deltas serialized");
        assert_eq!(
            units
                .get("copy_search")
                .and_then(|u| u.get("queue_high_water"))
                .and_then(Json::as_u64),
            Some(7)
        );
        assert!(matches!(back.get("major").and_then(|m| m.get("p99_bucket")), Some(Json::Null)));
        let s = pm.to_string();
        assert!(s.contains("worst #1"), "{s}");
        assert!(s.contains("dominant=Copy"), "{s}");
        assert!(s.contains("unit copy_search"), "{s}");
        assert!(s.contains("MajorGC: no pauses"), "{s}");
    }
}
