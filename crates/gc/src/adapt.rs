//! Adaptive offload controller: census-driven [`OffloadMask`] auto-tuning.
//!
//! The paper fixes the set of offloaded primitives per platform, but §3.3's
//! own selection argument implies the right set depends on what the heap is
//! doing: bulk workloads with large, dying-young objects amortize the
//! per-object dispatch cost of *Copy*/*Scan&Push*, while pointer-chasing
//! workloads with tiny survivors pay more in dispatch than the units give
//! back. The [`crate::census`] layer (PR 4) measures exactly the signals
//! that predict this — per-collection survivor volume and dead fractions —
//! and this module closes the loop: at each GC prologue a [`Policy`] reads
//! a [`Signals`] snapshot and chooses the next [`OffloadMask`].
//!
//! Three policies ship as the variants of one [`Policy`] enum:
//!
//! * [`Policy::Static`] — returns a fixed mask; with the platform default
//!   this is bit-identical to running without a controller (the
//!   fingerprint baselines pin it).
//! * [`CensusThreshold`] — a two-regime rule on mean survivor size and
//!   dead fraction with hysteresis, so the mask cannot flap between
//!   adjacent minor GCs while a signal sits on a threshold.
//! * [`Bandit`] — seeded epsilon-greedy over a fixed candidate-mask table,
//!   using the measured pause as (negative) reward. Randomness comes only
//!   from the workspace's deterministic [`StdRng`], so identical seeds
//!   replay bit-for-bit.
//!
//! Whatever a policy asks for, the [`Controller`] clamps it against the
//! watchdog verdicts from the PR 2 recovery ladder
//! ([`crate::system::System::unit_health`]): a unit class the watchdog
//! declared dead is never offloaded to again, no matter how attractive the
//! census makes it look. Every decision — inputs, cost-model predictions,
//! requested and clamped masks, and later the realized pause — is appended
//! to a [`DecisionJournal`] and mirrored into telemetry as
//! [`charon_sim::telemetry::Event::Decision`], so an adaptive run is as
//! auditable as a static one.

use crate::census::CensusRecord;
use crate::collector::{GcEvent, GcKind};
use crate::costs::CostModel;
use crate::system::{OffloadMask, System};
use charon_core::packet::PrimType;
use charon_sim::json::Json;
use charon_sim::time::Ps;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// How many recent census records the signal averages smooth over. Small
/// on purpose: phase shifts should be seen within a collection or two.
pub const SIGNAL_WINDOW: usize = 2;

/// Everything a [`Policy`] may look at when deciding the next mask.
/// Borrowed from the collector at the GC prologue; policies must treat it
/// as read-only truth about the past, not mutate anything through it.
#[derive(Debug)]
pub struct Signals<'a> {
    /// Ordinal of the collection about to run (0-based).
    pub seq: u64,
    /// Kind of the collection about to run.
    pub kind: GcKind,
    /// The mask currently installed on the system.
    pub mask: OffloadMask,
    /// Watchdog verdict per unit class, indexed by [`PrimType::encode`];
    /// `true` means the recovery ladder killed the class.
    pub unit_dead: [bool; 4],
    /// Every finished collection, oldest first. Their census records
    /// are absent when the census is off.
    pub events: &'a [GcEvent],
    /// The host software-path cost model, for predictions.
    pub costs: &'a CostModel,
}

impl Signals<'_> {
    /// The census records of the finished collections, oldest first.
    fn records(&self) -> impl DoubleEndedIterator<Item = &CensusRecord> {
        self.events.iter().filter_map(|e| e.census.as_ref())
    }

    /// Mean size in bytes of a surviving (copied or promoted) object over
    /// the last [`SIGNAL_WINDOW`] records — the signal that separates
    /// bulk workloads (hundreds of bytes and up) from pointer-chasing
    /// ones (tens of bytes). `None` before the first record or when no
    /// object survived.
    pub fn mean_survivor_bytes(&self) -> Option<f64> {
        let tail = self.records().rev().take(SIGNAL_WINDOW);
        let (mut objs, mut bytes) = (0u64, 0u64);
        for r in tail {
            objs += r.survived_objects + r.promoted_objects;
            bytes += r.survived_bytes + r.promoted_bytes;
        }
        (objs > 0).then(|| bytes as f64 / objs as f64)
    }

    /// Mean dead fraction over the last [`SIGNAL_WINDOW`] records; `None`
    /// before the first record.
    pub fn mean_dead_fraction(&self) -> Option<f64> {
        let tail: Vec<f64> = self
            .records()
            .rev()
            .take(SIGNAL_WINDOW)
            .map(CensusRecord::dead_fraction)
            .collect();
        if tail.is_empty() {
            None
        } else {
            Some(tail.iter().sum::<f64>() / tail.len() as f64)
        }
    }

    /// Cost-model prediction from the most recent census record, if any.
    pub fn prediction(&self) -> Option<Prediction> {
        self.records().next_back().map(|r| predict(self.costs, r))
    }
}

/// A [`CostModel`] forecast of the next collection's offloadable work,
/// extrapolated from the last census record. Expressed in host
/// instructions (the model's native unit) so it is platform-independent:
/// the host cost is what offloading saves, the dispatch cost is what it
/// adds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted host software-path instructions for copying the survivor
    /// volume (per-line loop plus per-object fixup).
    pub host_copy_instr: u64,
    /// Predicted instructions spent issuing offload intrinsics for the
    /// same objects — the overhead adaptation is trading against.
    pub dispatch_instr: u64,
}

/// Predicts the next collection's copy-path cost from one census record.
pub fn predict(costs: &CostModel, r: &CensusRecord) -> Prediction {
    let bytes = r.survived_bytes + r.promoted_bytes;
    let objs = r.survived_objects + r.promoted_objects;
    Prediction {
        host_copy_instr: bytes.div_ceil(64) * costs.copy_per_line + objs * costs.copy_fixup,
        dispatch_instr: objs * costs.prim_dispatch,
    }
}

/// An offload-selection policy. Every variant is a deterministic function
/// of its own state and the [`Signals`] it is shown — no wall-clock, no OS
/// randomness — so any run can be replayed exactly.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Today's behavior: one fixed mask for the whole run. With the
    /// platform default mask this is indistinguishable — bit-identical
    /// fingerprints — from running with no controller at all.
    Static(OffloadMask),
    /// The two-regime census rule.
    Census(CensusThreshold),
    /// The seeded epsilon-greedy bandit.
    Bandit(Bandit),
}

impl Policy {
    /// Stable lowercase name (journal/telemetry/CLI key).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Static(_) => "static",
            Policy::Census(_) => "census",
            Policy::Bandit(_) => "bandit",
        }
    }

    /// Chooses the mask for the collection `sig` describes. The caller
    /// clamps the result against unit health before installing it.
    pub fn decide(&mut self, sig: &Signals<'_>) -> OffloadMask {
        match self {
            Policy::Static(mask) => *mask,
            Policy::Census(rule) => rule.decide(sig),
            Policy::Bandit(bandit) => bandit.decide(sig),
        }
    }

    /// Feeds back the realized pause of the collection the last
    /// [`Policy::decide`] covered.
    pub fn observe(&mut self, kind: GcKind, realized: Ps) {
        if let Policy::Bandit(bandit) = self {
            bandit.observe(kind, realized);
        }
    }
}

/// Two-regime threshold rule with hysteresis.
///
/// Two census signals discriminate the regimes (measured in this repo's
/// calibration runs). Mean survivor size: bulk workloads copy ~1 KB
/// objects and win from offloading every primitive, pointer-chasing
/// workloads copy ~50–100 B objects and lose the per-object dispatch
/// overhead. Dead fraction: a mostly-dead nursery is exactly what the
/// near-memory units clear without host traffic (the paper's headline
/// case), while a mostly-live nursery turns the scavenge into per-object
/// copy fix-ups the host does cheaper. Either signal alone can demand the
/// bulk regime (`survivor >= survivor_on` **or** `dead >= dead_on`); the
/// pointer regime needs both to read low. The `..._on` > `..._off` gap
/// per signal forms a hysteresis band: inside the band the previous
/// regime sticks, so a signal hovering on one threshold cannot flap the
/// mask between adjacent minor GCs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CensusThreshold {
    /// Mask installed in the bulk regime (default: everything).
    pub bulk_mask: OffloadMask,
    /// Mask installed in the pointer regime (default: nothing — the
    /// dispatch overhead outweighs every unit for tiny survivors).
    pub pointer_mask: OffloadMask,
    /// Enter the bulk regime at/above this mean survivor size (bytes).
    pub survivor_on: f64,
    /// The pointer regime needs the mean survivor size below this (bytes).
    pub survivor_off: f64,
    /// Enter the bulk regime at/above this mean dead fraction.
    pub dead_on: f64,
    /// The pointer regime needs the mean dead fraction below this.
    pub dead_off: f64,
    /// Current regime (`true` = bulk). Starts `true`: before any census
    /// record exists the controller behaves like the platform default.
    bulk: bool,
}

impl Default for CensusThreshold {
    fn default() -> CensusThreshold {
        CensusThreshold {
            bulk_mask: OffloadMask::all(),
            pointer_mask: OffloadMask::none(),
            survivor_on: 512.0,
            survivor_off: 256.0,
            dead_on: 0.75,
            dead_off: 0.55,
            bulk: true,
        }
    }
}

impl CensusThreshold {
    /// The calibrated default rule.
    pub fn new() -> CensusThreshold {
        CensusThreshold::default()
    }

    /// The regime the last decision was in (`true` = bulk).
    pub fn in_bulk_regime(&self) -> bool {
        self.bulk
    }

    /// The mask for the collection `sig` describes.
    pub fn decide(&mut self, sig: &Signals<'_>) -> OffloadMask {
        // Major collections evacuate the whole live old generation — a
        // bulk copy by construction — so they always run with the bulk
        // mask and never consult (or disturb) the regime latch.
        if sig.kind == GcKind::Major {
            return self.bulk_mask;
        }
        if let (Some(survivor), Some(dead)) = (sig.mean_survivor_bytes(), sig.mean_dead_fraction()) {
            if survivor >= self.survivor_on || dead >= self.dead_on {
                self.bulk = true;
            } else if survivor < self.survivor_off && dead < self.dead_off {
                self.bulk = false;
            }
            // In the band between the thresholds the previous regime holds.
        }
        if self.bulk {
            self.bulk_mask
        } else {
            self.pointer_mask
        }
    }
}

/// The candidate masks the [`Bandit`] explores over: the two extremes,
/// each single primitive, and the two pairs the calibration runs showed
/// move together (*Copy*+*Scan&Push* carry the bulk win; *Search*+*Bitmap
/// Count* are cheap either way).
pub fn bandit_arms() -> Vec<OffloadMask> {
    let m = |s: &str| s.parse::<OffloadMask>().expect("static arm spec");
    vec![
        OffloadMask::all(),
        OffloadMask::none(),
        m("copy"),
        m("search"),
        m("scan-push"),
        m("bitmap-count"),
        m("copy+scan-push"),
        m("search+bitmap-count"),
    ]
}

/// Seeded epsilon-greedy bandit over [`bandit_arms`].
///
/// Reward is the negated measured pause, tracked separately per
/// [`GcKind`] (minor and major pauses differ by orders of magnitude, so a
/// shared table would let majors poison the minor ranking). Warmup plays
/// each arm once in table order before the epsilon coin ever flips;
/// afterwards it explores with probability `epsilon` and otherwise plays
/// the arm with the lowest mean pause. All randomness comes from the
/// workspace [`StdRng`], so a seed fully determines the decision
/// sequence.
#[derive(Debug, Clone)]
pub struct Bandit {
    /// Exploration probability.
    pub epsilon: f64,
    arms: Vec<OffloadMask>,
    /// Pull counts, `[kind][arm]` with minor = row 0, major = row 1.
    pulls: [Vec<u64>; 2],
    /// Summed realized pauses, same indexing.
    total_pause: [Vec<u128>; 2],
    last_arm: Option<(usize, usize)>,
    rng: StdRng,
}

fn kind_row(kind: GcKind) -> usize {
    match kind {
        GcKind::Minor => 0,
        GcKind::Major => 1,
    }
}

impl Bandit {
    /// A bandit over [`bandit_arms`] with the default ε = 0.1.
    pub fn new(seed: u64) -> Bandit {
        Bandit::with_arms(seed, 0.1, bandit_arms())
    }

    /// Full-control constructor.
    ///
    /// # Panics
    ///
    /// Panics when `arms` is empty.
    pub fn with_arms(seed: u64, epsilon: f64, arms: Vec<OffloadMask>) -> Bandit {
        assert!(!arms.is_empty(), "bandit needs at least one arm");
        let n = arms.len();
        Bandit {
            epsilon,
            arms,
            pulls: [vec![0; n], vec![0; n]],
            total_pause: [vec![0; n], vec![0; n]],
            last_arm: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The candidate table (for reports).
    pub fn arms(&self) -> &[OffloadMask] {
        &self.arms
    }

    fn mean_pause(&self, row: usize, arm: usize) -> f64 {
        if self.pulls[row][arm] == 0 {
            f64::INFINITY
        } else {
            self.total_pause[row][arm] as f64 / self.pulls[row][arm] as f64
        }
    }

    /// Plays an arm for the collection `sig` describes.
    pub fn decide(&mut self, sig: &Signals<'_>) -> OffloadMask {
        let row = kind_row(sig.kind);
        let arm = if let Some(cold) = (0..self.arms.len()).find(|&i| self.pulls[row][i] == 0) {
            cold
        } else if self.rng.gen_bool(self.epsilon) {
            self.rng.gen_range(0..self.arms.len())
        } else {
            (0..self.arms.len())
                .min_by(|&a, &b| self.mean_pause(row, a).total_cmp(&self.mean_pause(row, b)))
                .expect("arms is non-empty")
        };
        self.last_arm = Some((row, arm));
        self.arms[arm]
    }

    /// Books the realized pause against the arm the last
    /// [`Bandit::decide`] played.
    pub fn observe(&mut self, kind: GcKind, realized: Ps) {
        let row = kind_row(kind);
        if let Some((decided_row, arm)) = self.last_arm.take() {
            if decided_row == row {
                self.pulls[row][arm] += 1;
                self.total_pause[row][arm] += u128::from(realized.0);
            }
        }
    }
}

/// Parseable policy selector, for run drivers and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`Policy::Static`] — hold the platform mask.
    Static,
    /// [`CensusThreshold`].
    Census,
    /// [`Bandit`] (epsilon-greedy, seeded).
    Bandit,
}

impl PolicyKind {
    /// Every selector, in report order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Static, PolicyKind::Census, PolicyKind::Bandit];

    /// Stable lowercase name (CLI/JSON key).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::Census => "census",
            PolicyKind::Bandit => "bandit",
        }
    }

    /// Instantiates the policy: `static_mask` seeds [`Policy::Static`],
    /// `seed` drives the [`Bandit`].
    pub fn build(self, static_mask: OffloadMask, seed: u64) -> Policy {
        match self {
            PolicyKind::Static => Policy::Static(static_mask),
            PolicyKind::Census => Policy::Census(CensusThreshold::new()),
            PolicyKind::Bandit => Policy::Bandit(Bandit::new(seed)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<PolicyKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "static" => Ok(PolicyKind::Static),
            "census" | "census-threshold" => Ok(PolicyKind::Census),
            "bandit" => Ok(PolicyKind::Bandit),
            other => Err(format!("unknown policy {other:?} (expected static, census, or bandit)")),
        }
    }
}

/// One journaled controller decision: the inputs the policy saw, what it
/// asked for, what survived the unit-health clamp, and (once the
/// collection finished) the pause it bought.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Collection ordinal the decision covered.
    pub seq: u64,
    /// Collection kind.
    pub kind: GcKind,
    /// Name of the deciding policy.
    pub policy: &'static str,
    /// The mask the policy returned.
    pub requested: OffloadMask,
    /// The mask actually installed after clamping dead units off.
    pub chosen: OffloadMask,
    /// Watchdog verdicts at decision time ([`PrimType::encode`] order).
    pub unit_dead: [bool; 4],
    /// Mean survivor size signal, when census records existed.
    pub survivor_bytes: Option<f64>,
    /// Mean dead fraction signal, when census records existed.
    pub dead_fraction: Option<f64>,
    /// Cost-model forecast at decision time.
    pub predicted: Option<Prediction>,
    /// The collection's measured pause; `None` until the epilogue hook
    /// fills it in.
    pub realized_pause: Option<Ps>,
}

impl Decision {
    /// Machine-readable view; round-trips through [`Json::parse`].
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq", Json::U64(self.seq)),
            (
                "kind",
                Json::str(match self.kind {
                    GcKind::Minor => "minor",
                    GcKind::Major => "major",
                }),
            ),
            ("policy", Json::str(self.policy)),
            ("requested", Json::Str(self.requested.to_string())),
            ("chosen", Json::Str(self.chosen.to_string())),
            ("unit_dead", Json::Arr(self.unit_dead.iter().map(|&d| Json::Bool(d)).collect())),
        ];
        if let Some(s) = self.survivor_bytes {
            fields.push(("survivor_bytes", Json::F64(s)));
        }
        if let Some(d) = self.dead_fraction {
            fields.push(("dead_fraction", Json::F64(d)));
        }
        if let Some(p) = self.predicted {
            fields.push(("predicted_host_copy_instr", Json::U64(p.host_copy_instr)));
            fields.push(("predicted_dispatch_instr", Json::U64(p.dispatch_instr)));
        }
        if let Some(p) = self.realized_pause {
            fields.push(("realized_pause_ps", Json::U64(p.0)));
        }
        Json::obj(fields)
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} {}: {}", self.seq, self.kind, self.policy, self.chosen)?;
        if self.requested != self.chosen {
            write!(f, " (requested {}, clamped by dead units)", self.requested)?;
        }
        if let Some(p) = self.realized_pause {
            write!(f, " pause {p}")?;
        }
        Ok(())
    }
}

/// The append-only decision log of one run.
#[derive(Debug, Clone, Default)]
pub struct DecisionJournal {
    /// Decisions in collection order.
    pub decisions: Vec<Decision>,
}

impl DecisionJournal {
    /// How many decisions changed the installed mask relative to the
    /// previous collection's (a flap/stability metric).
    pub fn mask_switches(&self) -> usize {
        self.decisions.windows(2).filter(|w| w[0].chosen != w[1].chosen).count()
    }

    /// Machine-readable view: `{"policy": ..., "decisions": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("policy", Json::str(self.decisions.first().map_or("none", |d| d.policy))),
            ("mask_switches", Json::U64(self.mask_switches() as u64)),
            ("decisions", Json::Arr(self.decisions.iter().map(Decision::to_json).collect())),
        ])
    }
}

/// The controller the collector carries: a policy plus its journal.
///
/// [`Controller::decide`] runs at the GC prologue (before any collection
/// work is timed) and [`Controller::observe`] at the epilogue. Both are
/// timing-invisible: they read signals and install a mask, but never
/// advance the simulated clock themselves.
#[derive(Debug, Clone)]
pub struct Controller {
    /// The deciding policy.
    pub policy: Policy,
    /// Every decision made so far.
    pub journal: DecisionJournal,
}

impl Controller {
    /// Wraps a policy with an empty journal.
    pub fn new(policy: Policy) -> Controller {
        Controller { policy, journal: DecisionJournal::default() }
    }

    /// GC-prologue hook: build the [`Signals`] snapshot, let the policy
    /// choose, clamp the choice against unit health, install it on the
    /// system, and journal + telemetry the decision.
    pub fn decide(&mut self, sys: &mut System, events: &[GcEvent], kind: GcKind, now: Ps) {
        let seq = sys.collection_seq;
        let sig = Signals { seq, kind, mask: sys.offload, unit_dead: sys.unit_health(), events, costs: &sys.costs };
        let requested = self.policy.decide(&sig);
        let mut chosen = requested;
        for p in PrimType::ALL {
            if sig.unit_dead[p.encode() as usize] {
                chosen.set(p, false);
            }
        }
        let decision = Decision {
            seq,
            kind,
            policy: self.policy.name(),
            requested,
            chosen,
            unit_dead: sig.unit_dead,
            survivor_bytes: sig.mean_survivor_bytes(),
            dead_fraction: sig.mean_dead_fraction(),
            predicted: sig.prediction(),
            realized_pause: None,
        };
        sys.offload = chosen;
        let policy_name = self.policy.name();
        sys.telemetry.record(|| charon_sim::telemetry::Event::Decision {
            seq,
            policy: policy_name,
            mask: chosen.to_string(),
            at: now,
        });
        self.journal.decisions.push(decision);
    }

    /// GC-epilogue hook: record the realized pause on the last decision
    /// and feed it back to the policy.
    pub fn observe(&mut self, kind: GcKind, realized: Ps) {
        if let Some(d) = self.journal.decisions.last_mut() {
            d.realized_pause = Some(realized);
        }
        self.policy.observe(kind, realized);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::SpaceCensus;
    use charon_heap::object::MAX_AGE;

    /// A finished minor collection whose census saw these survivors.
    fn record(survived_objects: u64, survived_bytes: u64, dead_bytes: u64, live_bytes: u64) -> GcEvent {
        let mut e = GcEvent::blank(GcKind::Minor, 0);
        e.census = Some(CensusRecord {
            seq: 0,
            kind: GcKind::Minor,
            spaces: [
                SpaceCensus {
                    name: "eden",
                    collected: true,
                    allocated_bytes: live_bytes + dead_bytes,
                    live_bytes,
                    dead_bytes,
                },
                SpaceCensus { name: "survivor", collected: true, allocated_bytes: 0, live_bytes: 0, dead_bytes: 0 },
                SpaceCensus { name: "old", collected: false, allocated_bytes: 0, live_bytes: 0, dead_bytes: 0 },
            ],
            per_klass: Vec::new(),
            age_hist: [0; (MAX_AGE as usize) + 1],
            promoted_objects: 0,
            promoted_bytes: 0,
            survived_objects,
            survived_bytes,
            tenuring_threshold: 0,
        });
        e
    }

    fn signals<'a>(events: &'a [GcEvent], costs: &'a CostModel) -> Signals<'a> {
        Signals {
            seq: events.len() as u64,
            kind: GcKind::Minor,
            mask: OffloadMask::all(),
            unit_dead: [false; 4],
            events,
            costs,
        }
    }

    #[test]
    fn static_policy_always_returns_its_mask() {
        let costs = CostModel::default();
        let mut p = Policy::Static(OffloadMask::all());
        let recs = [record(10, 10_000, 90_000, 10_000)];
        assert_eq!(p.decide(&signals(&recs, &costs)), OffloadMask::all());
        assert_eq!(p.decide(&signals(&[], &costs)), OffloadMask::all());
    }

    #[test]
    fn census_threshold_switches_regimes_with_hysteresis() {
        let costs = CostModel::default();
        let mut p = CensusThreshold::new();
        // No records yet: stays in the bulk (platform-default) regime.
        assert_eq!(p.decide(&signals(&[], &costs)), OffloadMask::all());
        // Tiny survivors, nothing dead: drops to the pointer regime.
        let pointer = [record(1000, 90_000, 0, 90_000)];
        assert_eq!(p.decide(&signals(&pointer, &costs)), OffloadMask::none());
        assert!(!p.in_bulk_regime());
        // In the hysteresis band (between off and on): regime sticks.
        let band = [record(100, 40_000, 40_000, 40_000)];
        assert_eq!(p.decide(&signals(&band, &costs)), OffloadMask::none());
        // Large dying survivors: back to bulk.
        let bulk = [record(100, 100_000, 400_000, 100_000)];
        assert_eq!(p.decide(&signals(&bulk, &costs)), OffloadMask::all());
        assert!(p.in_bulk_regime());
        // And the band again now sticks to bulk — same signal, other regime.
        assert_eq!(p.decide(&signals(&band, &costs)), OffloadMask::all());
    }

    #[test]
    fn census_threshold_majors_always_offload() {
        let costs = CostModel::default();
        let mut p = CensusThreshold::new();
        // Drop to the pointer regime first.
        let pointer = [record(1000, 90_000, 0, 90_000)];
        assert_eq!(p.decide(&signals(&pointer, &costs)), OffloadMask::none());
        // A major in the same regime still offloads everything...
        let mut major = signals(&pointer, &costs);
        major.kind = GcKind::Major;
        assert_eq!(p.decide(&major), OffloadMask::all());
        // ...and does not disturb the latch for the next minor.
        assert_eq!(p.decide(&signals(&pointer, &costs)), OffloadMask::none());
    }

    #[test]
    fn census_threshold_high_dead_fraction_alone_demands_bulk() {
        let costs = CostModel::default();
        let mut p = CensusThreshold::new();
        let pointer = [record(1000, 90_000, 0, 90_000)];
        assert_eq!(p.decide(&signals(&pointer, &costs)), OffloadMask::none());
        // A mostly-dead nursery is the near-memory clearing case even
        // when the survivors themselves are tiny.
        let dying = [record(1000, 90_000, 900_000, 90_000)];
        assert_eq!(p.decide(&signals(&dying, &costs)), OffloadMask::all());
        assert!(p.in_bulk_regime());
    }

    #[test]
    fn bandit_replays_bit_for_bit_from_one_seed() {
        let costs = CostModel::default();
        let recs = [record(64, 65_536, 65_536, 65_536)];
        let run = |seed: u64| -> Vec<OffloadMask> {
            let mut b = Bandit::new(seed);
            let mut out = Vec::new();
            for i in 0..64u64 {
                let m = b.decide(&signals(&recs, &costs));
                out.push(m);
                // Deterministic synthetic pause keyed to the mask.
                b.observe(GcKind::Minor, Ps(1_000 + 17 * m.count() as u64 + i % 3));
            }
            out
        };
        assert_eq!(run(7), run(7), "same seed replays identically");
        assert_ne!(run(7), run(8), "different seeds explore differently");
    }

    #[test]
    fn bandit_warmup_plays_every_arm_then_exploits_the_best() {
        let costs = CostModel::default();
        let recs = [record(64, 65_536, 65_536, 65_536)];
        let mut b = Bandit::with_arms(3, 0.0, bandit_arms());
        let n = b.arms().len();
        let mut seen = Vec::new();
        for arm_i in 0..n {
            let m = b.decide(&signals(&recs, &costs));
            seen.push(m);
            // Make arm 1 (none) the cheapest.
            b.observe(GcKind::Minor, Ps(if arm_i == 1 { 10 } else { 1_000 }));
        }
        assert_eq!(seen, bandit_arms(), "warmup walks the table in order");
        // epsilon = 0: pure exploitation must pick the cheapest arm.
        for _ in 0..8 {
            assert_eq!(b.decide(&signals(&recs, &costs)), OffloadMask::none());
            b.observe(GcKind::Minor, Ps(10));
        }
    }

    #[test]
    fn controller_never_enables_a_dead_unit() {
        let mut sys = System::charon();
        let mut ctl = Controller::new(Policy::Static(OffloadMask::all()));
        // Simulate a watchdog-killed Copy unit: clamp must hold even
        // though the policy asks for everything.
        let sig = Signals {
            seq: 0,
            kind: GcKind::Minor,
            mask: sys.offload,
            unit_dead: [true, false, false, false],
            events: &[],
            costs: &sys.costs,
        };
        let requested = ctl.policy.decide(&sig);
        assert!(requested.copy);
        let mut chosen = requested;
        for p in PrimType::ALL {
            if sig.unit_dead[p.encode() as usize] {
                chosen.set(p, false);
            }
        }
        assert!(!chosen.copy, "dead Copy unit stays off");
        assert!(chosen.search && chosen.scan_push && chosen.bitmap_count);
        // The full decide() path (healthy device here) installs the mask
        // and journals the decision.
        ctl.decide(&mut sys, &[], GcKind::Minor, Ps::ZERO);
        assert_eq!(sys.offload, OffloadMask::all());
        assert_eq!(ctl.journal.decisions.len(), 1);
        ctl.observe(GcKind::Minor, Ps(123));
        assert_eq!(ctl.journal.decisions[0].realized_pause, Some(Ps(123)));
    }

    #[test]
    fn rearmed_probing_unit_passes_the_clamp() {
        let mut sys = System::charon();
        let dev = sys.device.as_mut().expect("Charon has a device");
        dev.kill_unit(PrimType::Copy);
        sys.offload.set(PrimType::Copy, false);
        // While dead, the clamp strips Copy from whatever the policy asks.
        let mut ctl = Controller::new(Policy::Static(OffloadMask::all()));
        ctl.decide(&mut sys, &[], GcKind::Minor, Ps::ZERO);
        assert!(!sys.offload.copy, "dead Copy unit must stay clamped off");
        assert_eq!(ctl.journal.decisions[0].unit_dead, [true, false, false, false]);
        // Re-arm: after the probe interval the unit reports healthy again,
        // so the very next decide() lets the requested mask through whole.
        sys.set_rearm(1);
        sys.gc_rearm_tick(Ps::ZERO);
        assert_eq!(sys.unit_health(), [false; 4], "a probing unit is not dead");
        assert!(sys.device.as_ref().unwrap().probing_units()[0]);
        ctl.decide(&mut sys, &[], GcKind::Minor, Ps::ZERO);
        assert_eq!(sys.offload, OffloadMask::all(), "probe passes the clamp");
        assert_eq!(ctl.journal.decisions[1].unit_dead, [false; 4]);
        assert_eq!(sys.recovery.rearmed, [1, 0, 0, 0]);
    }

    #[test]
    fn journal_json_round_trips_and_counts_switches() {
        let mut j = DecisionJournal::default();
        for (i, mask) in [OffloadMask::all(), OffloadMask::all(), OffloadMask::none()]
            .into_iter()
            .enumerate()
        {
            j.decisions.push(Decision {
                seq: i as u64,
                kind: GcKind::Minor,
                policy: "census",
                requested: mask,
                chosen: mask,
                unit_dead: [false; 4],
                survivor_bytes: Some(100.0),
                dead_fraction: Some(0.5),
                predicted: Some(Prediction { host_copy_instr: 10, dispatch_instr: 3 }),
                realized_pause: Some(Ps(42)),
            });
        }
        assert_eq!(j.mask_switches(), 1);
        let json = j.to_json();
        let back = Json::parse(&json.to_string()).expect("journal JSON parses");
        assert_eq!(back.get("policy").and_then(Json::as_str), Some("census"));
        assert_eq!(back.get("decisions").and_then(Json::as_arr).map(|a| a.len()), Some(3));
    }
}
