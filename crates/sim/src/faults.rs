//! Deterministic fault injection for the offload pipeline.
//!
//! The offload protocol (§4.1) blocks the host thread on a 48 B request
//! packet until the device responds, so any lost packet, wedged unit, or
//! unserviceable translation would hang a GC pause forever. This module
//! supplies the *schedule* side of the RAS story: a seeded, replayable
//! source of injected failures, plus the recovery parameters (timeout,
//! bounded exponential backoff, retry budget, watchdog threshold) that
//! `charon-core`'s device consumes.
//!
//! The module carries two fault tiers:
//!
//! * **Timing faults** ([`FaultSite`]): drops, NACKs, wedges. The simulated
//!   collector always performs its functional heap work, so a timing fault
//!   can delay a collection or push a primitive onto the host software
//!   path, but never corrupts the object graph. The end-to-end campaign in
//!   `charon-workloads::campaign` checks exactly that — `graph_signature`
//!   under any fault schedule must equal the zero-rate control's.
//! * **Data corruption** ([`CorruptionSite`]): single-bit flips in the
//!   *outputs* an offloaded primitive writes back into the heap —
//!   mark-bitmap words, forwarding pointers, card-table bytes, copied
//!   object payloads. This models the silent-corruption hazard of
//!   in-memory logic bypassing host-side ECC; `charon-gc::integrity` owns
//!   detection and repair, and the same campaign driver runs the sweep.
//!
//! One armed site per run: both tiers draw from one [`Injector`], armed at
//! one site and one rate ([`FaultSite::arm`], [`CorruptionSite::arm`]).
//! Every campaign cell fires exactly one site, and its control is the same
//! site at rate zero.
//!
//! Determinism: each site draws from its own stream of the run seed
//! (streams 1–5 for the timing sites, 6–9 for the corruption sites), so one
//! seed gives every site a different schedule. A zero rate never touches
//! the stream at all, which is what keeps zero-rate runs bit-identical to
//! runs with injection compiled out.

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

    /// Arms this site at `rate` per offload attempt, drawing from stream
    /// 1–5 of `seed` (pipeline order).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn arm(self, seed: u64, rate: f64) -> Injector<FaultSite> {
        Injector::new(seed, 1 + self as u64, self, rate)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How long the blocked host core waits for an offload response before it
/// declares the attempt lost: ~2 bulk-offload service times, long enough
/// that a healthy response always beats it, short against a GC pause.
/// Silent failures (drop, wedge, parity, unserviceable miss) are only
/// observed at this horizon; a queue NACK comes back as an explicit control
/// packet sooner.
pub const OFFLOAD_TIMEOUT: Ps = Ps(5_000_000);
/// Backoff before retry k is `min(BACKOFF_BASE << k, BACKOFF_CAP)`.
pub const BACKOFF_BASE: Ps = Ps(1_000_000);
/// Upper bound on a single backoff interval.
pub const BACKOFF_CAP: Ps = Ps(16_000_000);

/// Backoff charged before re-issuing attempt `attempt` (0-based over
/// *retries*, i.e. the wait after the (attempt+1)-th failure).
pub fn backoff(attempt: u32) -> Ps {
    let shifted = if attempt >= BACKOFF_BASE.0.leading_zeros() { u64::MAX } else { BACKOFF_BASE.0 << attempt };
    Ps(shifted.min(BACKOFF_CAP.0))
}

/// Recovery-layer parameters consumed by `CharonDevice::offload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Retries allowed after the first attempt; `budget` exhausted means
    /// the offload is abandoned to the host software path.
    pub retry_budget: u32,
    /// Consecutive abandoned offloads of one primitive before the
    /// watchdog declares that unit class dead; the device's verdict then
    /// keeps the primitive on the host software path until a probe
    /// re-arms it (for the rest of the run without one).
    pub watchdog_threshold: u32,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig { retry_budget: 4, watchdog_threshold: 3 }
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

    /// Arms this site at `rate` per primitive output write, drawing from
    /// stream 6–9 of `seed` (check order) — disjoint from the five
    /// timing-fault streams of the same seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn arm(self, seed: u64, rate: f64) -> Injector<CorruptionSite> {
        Injector::new(seed, 6 + self.index() as u64, self, rate)
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

/// The one armed site of a run, for either tier: `site` fails with
/// probability `rate` at each roll. Replays bit-for-bit for a given
/// `(seed, site, rate)`; a zero rate never draws from the stream.
#[derive(Debug, Clone)]
pub struct Injector<S> {
    site: S,
    rate: f64,
    stream: StdRng,
    rolls: u64,
    injected: u64,
}

impl<S: Copy> Injector<S> {
    fn new(seed: u64, stream: u64, site: S, rate: f64) -> Injector<S> {
        assert!((0.0..=1.0).contains(&rate), "injection rate out of range: {rate}");
        let stream = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(stream));
        Injector { site, rate, stream, rolls: 0, injected: 0 }
    }

    /// The armed site.
    pub fn site(&self) -> S {
        self.site
    }

    /// Rolls one event at the armed site — an offload attempt for a timing
    /// fault, a primitive output write for a corruption. `Some(site)` when
    /// it fails.
    pub fn roll(&mut self) -> Option<S> {
        self.rolls += 1;
        if self.rate > 0.0 && self.stream.gen_bool(self.rate) {
            self.injected += 1;
            Some(self.site)
        } else {
            None
        }
    }

    /// A uniform 64-bit sample from the same stream, taken after a hit to
    /// pick the damaged word and bit — so where the damage lands replays
    /// too.
    pub fn draw(&mut self) -> u64 {
        self.stream.next_u64()
    }

    /// Failures injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Events rolled so far.
    pub fn rolls(&self) -> u64 {
        self.rolls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rolls among the first `n` that hit; a corruption hit also takes
    /// its location draw, as the integrity layer does.
    fn hits<S: Copy>(inj: &mut Injector<S>, n: u32, draw: bool) -> Vec<(u32, u64)> {
        (0..n)
            .filter_map(|i| inj.roll().map(|_| (i, if draw { inj.draw() % 64 } else { 0 })))
            .collect()
    }

    #[test]
    fn zero_rates_never_inject() {
        for site in FaultSite::ALL {
            let mut inj = site.arm(99, 0.0);
            assert!(hits(&mut inj, 10_000, false).is_empty());
            assert_eq!((inj.injected(), inj.rolls()), (0, 10_000));
        }
    }

    #[test]
    fn replays_bit_for_bit() {
        let (mut a, mut b) = (FaultSite::Mai.arm(7, 0.1), FaultSite::Mai.arm(7, 0.1));
        assert_eq!(hits(&mut a, 5_000, false), hits(&mut b, 5_000, false));
        assert!(a.injected() > 0);
    }

    #[test]
    fn only_hits_the_selected_site() {
        for site in FaultSite::ALL {
            let mut inj = site.arm(3, 0.5);
            let fired: Vec<FaultSite> = (0..1_000).filter_map(|_| inj.roll()).collect();
            assert!(!fired.is_empty(), "site {site} never fired at p=0.5");
            assert!(fired.iter().all(|&s| s == site));
            assert_eq!(inj.injected(), fired.len() as u64);
        }
    }

    #[test]
    fn sites_draw_independent_streams() {
        // One seed, five sites, five different schedules.
        let schedules: Vec<_> = FaultSite::ALL.map(|s| hits(&mut s.arm(11, 0.2), 2_000, false)).to_vec();
        for (i, a) in schedules.iter().enumerate() {
            assert!(schedules[i + 1..].iter().all(|b| a != b), "{} shares a stream", FaultSite::ALL[i]);
        }
    }

    /// The stream each site draws under seed 42 at rate 0.2: the hits among
    /// the first 40 rolls and, for a corruption site, the bit each hit's
    /// location draw picks. Campaign seeds and committed chaos baselines
    /// depend on these schedules.
    #[test]
    fn site_streams_are_pinned() {
        let fault: [&[u32]; 5] = [
            &[5, 9, 13, 15, 19, 24, 25, 27, 28, 37],
            &[0, 6, 17, 22, 25, 29],
            &[5, 7, 14, 19, 29, 33],
            &[0, 2, 16, 17, 21, 23, 24, 29, 32, 33],
            &[6, 9, 21, 31, 33, 34, 39],
        ];
        for (site, want) in FaultSite::ALL.into_iter().zip(fault) {
            let got: Vec<u32> = hits(&mut site.arm(42, 0.2), 40, false).into_iter().map(|h| h.0).collect();
            assert_eq!(got, want, "{site}");
        }
        let corruption: [&[(u32, u64)]; 4] = [
            &[(2, 54), (4, 37), (7, 52), (11, 19), (14, 61), (18, 38), (25, 30), (31, 52), (35, 52)],
            &[(1, 2), (9, 38), (27, 44), (39, 47)],
            &[(0, 26), (5, 14), (11, 3), (15, 46), (18, 60), (35, 17), (38, 4)],
            &[(1, 9), (4, 8), (5, 22), (15, 29), (17, 58), (19, 58), (34, 51), (35, 61), (39, 31)],
        ];
        for (site, want) in CorruptionSite::ALL.into_iter().zip(corruption) {
            assert_eq!(hits(&mut site.arm(42, 0.2), 40, true), want, "{site}");
        }
    }

    #[test]
    fn backoff_is_bounded_and_exponential() {
        assert_eq!(backoff(0), BACKOFF_BASE);
        assert_eq!(backoff(1), Ps(BACKOFF_BASE.0 * 2));
        assert_eq!(backoff(2), Ps(BACKOFF_BASE.0 * 4));
        assert_eq!(backoff(63), BACKOFF_CAP);
        assert_eq!(backoff(64), BACKOFF_CAP);
        for k in 0..70 {
            assert!(backoff(k) <= BACKOFF_CAP);
            assert!(backoff(k) >= Ps(1));
        }
    }

    #[test]
    fn sites_parse_and_display() {
        assert_eq!(FaultSite::by_name("mai"), Some(FaultSite::Mai));
        assert_eq!(FaultSite::by_name("bogus"), None);
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::by_name(&site.to_string()), Some(site));
        }
    }

    #[test]
    #[should_panic(expected = "injection rate out of range")]
    fn rates_outside_unit_interval_are_refused() {
        FaultSite::Link.arm(1, 1.5);
    }

    #[test]
    fn zero_corruption_rates_never_inject() {
        for site in CorruptionSite::ALL {
            let mut inj = site.arm(99, 0.0);
            assert!(hits(&mut inj, 10_000, true).is_empty());
            assert_eq!((inj.injected(), inj.rolls()), (0, 10_000));
        }
    }

    #[test]
    fn corruption_replays_bit_for_bit() {
        let site = CorruptionSite::CardByte;
        let (mut a, mut b) = (site.arm(7, 0.1), site.arm(7, 0.1));
        assert_eq!(hits(&mut a, 5_000, true), hits(&mut b, 5_000, true));
        assert!(a.injected() > 0);
    }

    #[test]
    fn corruption_only_hits_the_selected_site() {
        for site in CorruptionSite::ALL {
            let mut inj = site.arm(3, 0.5);
            let fired: Vec<CorruptionSite> = (0..1_000).filter_map(|_| inj.roll()).collect();
            assert!(!fired.is_empty(), "site {site} never fired at p=0.5");
            assert!(fired.iter().all(|&s| s == site));
        }
    }

    #[test]
    fn corruption_sites_draw_independent_streams() {
        let schedules: Vec<_> = CorruptionSite::ALL.map(|s| hits(&mut s.arm(11, 0.2), 2_000, true)).to_vec();
        for (i, a) in schedules.iter().enumerate() {
            assert!(schedules[i + 1..].iter().all(|b| a != b), "{} shares a stream", CorruptionSite::ALL[i]);
        }
    }

    #[test]
    fn corruption_streams_disjoint_from_fault_streams() {
        // Same seed: no corruption site shares a timing site's samples.
        for f in FaultSite::ALL {
            let fault = hits(&mut f.arm(5, 0.3), 500, false);
            for c in CorruptionSite::ALL {
                assert_ne!(fault, hits(&mut c.arm(5, 0.3), 500, false), "{f} and {c} share a stream");
            }
        }
    }

    #[test]
    fn corruption_sites_parse_and_display() {
        assert_eq!(CorruptionSite::by_name("card"), Some(CorruptionSite::CardByte));
        assert_eq!(CorruptionSite::by_name("bogus"), None);
        for (i, site) in CorruptionSite::ALL.into_iter().enumerate() {
            assert_eq!(site.index(), i);
            assert_eq!(CorruptionSite::by_name(&site.to_string()), Some(site));
        }
    }
}
