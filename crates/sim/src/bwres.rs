//! Epoch-based shared-resource bandwidth accounting.
//!
//! The simulator advances many agents (GC threads, near-memory units) with
//! *per-agent clocks* that are only loosely ordered (DESIGN.md decision 6).
//! A shared resource modeled as a scalar `busy_until` would serialize
//! requests in *processing* order rather than *simulated-time* order,
//! turning clock skew into phantom queueing. [`EpochBw`] instead divides
//! time into fixed epochs and meters units (bytes, lookups, issue slots)
//! per epoch: a request reserves capacity in the first epoch at or after
//! its start time with room left, and its completion reflects how full
//! that epoch already is. Out-of-order arrivals see no false conflicts,
//! while sustained overload still pushes completions out at exactly the
//! resource's rate.
//!
//! # Ring-buffer metering
//!
//! Epoch fill levels live in a fixed-capacity power-of-two ring indexed by
//! `epoch_index & mask`, giving O(1) access with no hashing and no
//! eviction sweeps. The ring remembers the last [`WINDOW_EPOCHS`] epochs
//! behind the highest epoch ever touched (the *bounded-skew window*,
//! DESIGN.md "Bounded-skew ring-buffer metering"). A slot whose stored
//! epoch falls out of the window is reclaimed lazily on next touch and
//! its units fold into a `spilled_units` counter, so the conservation
//! invariant — live slot fills plus spilled units equals
//! [`EpochBw::total_units`] — always holds. A reservation that starts
//! *below* the window floor is clamped to the floor and counted in
//! `late_reservations` rather than being granted capacity the resource
//! already handed out; the predecessor `HashMap` implementation (kept
//! below as [`HashMapOracle`]) instead dropped old epochs wholesale once
//! the map grew past 65k entries, letting an out-of-order early agent
//! reserve against an epoch that had in fact been full — un-serializing
//! traffic.
//!
//! A slot is one word, `(lap + 1) << used_bits | used`: an epoch's slot
//! position is its index's low bits, so the *lap* (`index / WINDOW_EPOCHS`)
//! names the epoch, and `used_bits` is the width of the epoch's capacity,
//! fixed when the meter is built. A zero word is a never-used slot, so a
//! ring is a 32 KiB zeroed allocation whose untouched pages cost nothing.
//! The lap must fit the bits above `used_bits`; that bound is checked where
//! the highest epoch advances.
//!
//! # Division-free placement
//!
//! A Charon cell makes ~25 M reservations of a few dozen units each, nearly
//! all served by the first slot they look at, so a call costs what its
//! arithmetic costs. `place` therefore divides only when it must: the
//! start's epoch index is kept from the previous call while the start stays
//! inside that epoch, the fill-level division goes through a precomputed
//! reciprocal with an exact fix-up, and the `f64` serialization time is
//! re-evaluated — exactly as the oracle writes it — only when the request
//! size differs from the previous one. [`HashMapOracle`] keeps the plain
//! `/` forms and the tests hold the two equal call by call.

use crate::time::{Bandwidth, Ps};
use std::collections::HashMap;
use std::ops::{Add, AddAssign, Sub};

/// Epochs the ring remembers behind the newest one touched. Power of two.
///
/// At the typical 1 µs metering epoch this tolerates ~4 ms of backwards
/// agent-clock skew, far beyond what the phase-synchronized collector
/// threads and device units exhibit; reservations older than that clamp to
/// the window floor (see `BwOccupancy::late_reservations`).
pub const WINDOW_EPOCHS: usize = 4096;

/// `log2(WINDOW_EPOCHS)`: an epoch index shifted right by this is its lap.
const WINDOW_BITS: u32 = WINDOW_EPOCHS.trailing_zeros();

/// Monotonic occupancy counters of one metered resource, cheap to snapshot
/// and to aggregate across resources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BwOccupancy {
    /// Units ever reserved.
    pub total_units: u64,
    /// Units whose epochs aged out of the skew window (still served; only
    /// their per-epoch bookkeeping was folded away).
    pub spilled_units: u64,
    /// Reservations that started below the window floor and were clamped
    /// to it. Nonzero means agent clocks skewed further apart than
    /// [`WINDOW_EPOCHS`] epochs — completions are then conservative
    /// (serialized at the floor) rather than optimistic.
    pub late_reservations: u64,
}

impl BwOccupancy {
    /// Machine-readable form for reports ([`crate::json`]).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("total_units", Json::U64(self.total_units)),
            ("spilled_units", Json::U64(self.spilled_units)),
            ("late_reservations", Json::U64(self.late_reservations)),
        ])
    }
}

impl AddAssign for BwOccupancy {
    fn add_assign(&mut self, rhs: BwOccupancy) {
        self.total_units += rhs.total_units;
        self.spilled_units += rhs.spilled_units;
        self.late_reservations += rhs.late_reservations;
    }
}

impl Add for BwOccupancy {
    type Output = BwOccupancy;
    fn add(mut self, rhs: BwOccupancy) -> BwOccupancy {
        self += rhs;
        self
    }
}

impl Sub for BwOccupancy {
    type Output = BwOccupancy;
    /// Delta between two snapshots of the same (monotone) meter set.
    fn sub(self, rhs: BwOccupancy) -> BwOccupancy {
        BwOccupancy {
            total_units: self.total_units - rhs.total_units,
            spilled_units: self.spilled_units - rhs.spilled_units,
            late_reservations: self.late_reservations - rhs.late_reservations,
        }
    }
}

/// Completion times of a batched reservation (see [`EpochBw::reserve_many`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCompletion {
    /// When the first chunk has been served — the earliest a pipelined
    /// consumer can start on the head of the transfer.
    pub first: Ps,
    /// When the last unit has been served.
    pub last: Ps,
}

/// One metered, shared resource.
#[derive(Debug, Clone)]
pub struct EpochBw {
    epoch: Ps,
    units_per_epoch: u64,
    /// `⌊(2⁶⁴ − 1) / units_per_epoch⌋`; see [`EpochBw::div_cap`].
    cap_recip: u64,
    /// Bits of a slot below its lap: enough to hold `units_per_epoch`.
    used_bits: u32,
    /// Ring of packed epoch slots (module docs), allocated lazily on first
    /// reservation.
    slots: Vec<u64>,
    mask: u64,
    /// Highest epoch index ever touched; the window floor derives from it.
    max_idx: u64,
    total_units: u64,
    spilled_units: u64,
    late_reservations: u64,
    /// `(start, epoch index)` of where the last placement finished: a
    /// subsequent reservation with the *same* start time can begin its
    /// epoch scan there, because every epoch between its start and the
    /// memo was full at memo time and epochs only ever fill up. Turns the
    /// hammer-one-start pattern (bandwidth-ceiling tests, batched
    /// transfers) from O(backlog) per call into O(1).
    memo: Option<(Ps, u64)>,
    /// `(index, base in ps)` of the epoch the last reservation started in.
    /// Nine in ten reservations start in the same epoch as the one before
    /// on that meter, and then need no `start / epoch`.
    start_epoch: (u64, u64),
    /// `(take, own)` of the last serialization time computed. `own` depends
    /// on nothing but `take`, and seven in ten reservations repeat the size
    /// of the one before on that meter.
    own_memo: (u64, u64),
}

impl EpochBw {
    /// A resource serving `units_per_sec` units per second, metered in
    /// `epoch`-sized windows.
    ///
    /// # Panics
    ///
    /// Panics unless the rate and epoch are positive and the epoch holds at
    /// least one unit and fewer than 2⁶³ (a slot keeps the lap above them).
    pub fn new(units_per_sec: f64, epoch: Ps) -> EpochBw {
        assert!(units_per_sec > 0.0 && units_per_sec.is_finite());
        assert!(epoch > Ps::ZERO);
        let units_per_epoch = (units_per_sec * epoch.as_secs()).floor() as u64;
        assert!(units_per_epoch >= 1, "epoch too short for the rate");
        let used_bits = u64::BITS - units_per_epoch.leading_zeros();
        assert!(used_bits < u64::BITS, "epoch too long for the rate");
        EpochBw {
            epoch,
            units_per_epoch,
            cap_recip: u64::MAX / units_per_epoch,
            used_bits,
            slots: Vec::new(),
            mask: WINDOW_EPOCHS as u64 - 1,
            max_idx: 0,
            total_units: 0,
            spilled_units: 0,
            late_reservations: 0,
            memo: None,
            start_epoch: (0, 0),
            own_memo: (0, 0),
        }
    }

    /// `n / units_per_epoch` by a multiply with the precomputed reciprocal.
    /// With `r = ⌊(2⁶⁴ − 1) / cap⌋`, `2⁶⁴/cap − 1 ≤ r < 2⁶⁴/cap`, so
    /// `n·r / 2⁶⁴` lies in `(n/cap − 1, n/cap]` for every `n < 2⁶⁴`: its
    /// floor is the quotient or one below it, which the remainder decides.
    fn div_cap(&self, n: u64) -> u64 {
        let q = ((u128::from(n) * u128::from(self.cap_recip)) >> 64) as u64;
        q + u64::from(n - q * self.units_per_epoch >= self.units_per_epoch)
    }

    /// Byte-metered resource from a [`Bandwidth`].
    pub fn from_bandwidth(bw: Bandwidth, epoch: Ps) -> EpochBw {
        EpochBw::new(bw.as_bytes_per_sec(), epoch)
    }

    /// Operation-metered resource from a per-operation period (e.g. one
    /// lookup per cycle).
    pub fn from_period(period: Ps, epoch: Ps) -> EpochBw {
        EpochBw::new(1e12 / period.0 as f64, epoch)
    }

    /// Total units ever reserved.
    pub fn total_units(&self) -> u64 {
        self.total_units
    }

    /// The metering epoch.
    pub fn epoch(&self) -> Ps {
        self.epoch
    }

    /// Snapshot of this resource's occupancy counters.
    pub fn occupancy(&self) -> BwOccupancy {
        BwOccupancy {
            total_units: self.total_units,
            spilled_units: self.spilled_units,
            late_reservations: self.late_reservations,
        }
    }

    /// Fill levels of the live (non-spilled) epochs still inside the skew
    /// window, as `(epoch start, units used)` pairs in ascending time
    /// order. A read-only snapshot for telemetry sampling
    /// ([`crate::telemetry`]); epochs whose bookkeeping already folded
    /// into `spilled_units` are not reconstructed.
    pub fn epoch_fills(&self) -> Vec<(Ps, u64)> {
        let floor = self.max_idx.saturating_sub(self.mask);
        let mut out: Vec<(Ps, u64)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(pos, &slot)| {
                let lap = (slot >> self.used_bits).checked_sub(1)?;
                let idx = lap << WINDOW_BITS | pos as u64;
                let used = slot & self.used_mask();
                (idx >= floor && used > 0).then_some((Ps(idx * self.epoch.0), used))
            })
            .collect();
        out.sort_unstable_by_key(|&(t, _)| t);
        out
    }

    /// The `used` field of a slot.
    fn used_mask(&self) -> u64 {
        (1 << self.used_bits) - 1
    }

    /// Reserves `units` starting no earlier than `start`; returns the time
    /// the last unit has been served. An un-contended reservation completes
    /// at `max(start, epoch position) + units/rate ≈ start + units/rate`.
    pub fn reserve(&mut self, start: Ps, units: u64) -> Ps {
        self.place(start, units)
    }

    /// Reserves `units` as a sequence of `chunk`-sized reservations all
    /// starting at `start` (the final chunk carries the remainder), as one
    /// call. Bit-for-bit equivalent to the same sequence of [`reserve`]
    /// calls — multi-line transfers get one O(chunks) batched reservation
    /// with the cursor memo hot instead of one epoch scan per line — while
    /// also reporting when the *first* chunk lands, so pipelined consumers
    /// (e.g. copy engines overlapping reads with writes) need no second
    /// bookkeeping pass.
    ///
    /// [`reserve`]: EpochBw::reserve
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn reserve_many(&mut self, start: Ps, units: u64, chunk: u64) -> BatchCompletion {
        assert!(chunk >= 1, "chunk must hold at least one unit");
        if units == 0 {
            let t = self.place(start, 0);
            return BatchCompletion { first: t, last: t };
        }
        let mut remaining = units;
        let mut first = Ps::ZERO;
        let mut last = start;
        let mut is_first = true;
        while remaining > 0 {
            let take = remaining.min(chunk);
            last = self.place(start, take);
            if is_first {
                first = last;
                is_first = false;
            }
            remaining -= take;
        }
        BatchCompletion { first, last }
    }

    /// The placement core: fills epochs from the first one at or after
    /// `start` (clamped to the skew window) and returns the completion
    /// time of the last unit.
    fn place(&mut self, start: Ps, units: u64) -> Ps {
        self.total_units += units;
        if self.slots.is_empty() {
            self.slots = vec![0; WINDOW_EPOCHS];
        }
        let floor = self.max_idx.saturating_sub(self.mask);
        if start.0.wrapping_sub(self.start_epoch.1) >= self.epoch.0 {
            let idx = start.0 / self.epoch.0;
            self.start_epoch = (idx, idx * self.epoch.0);
        }
        let mut idx = self.start_epoch.0;
        let mut t = start;
        if idx < floor {
            self.late_reservations += 1;
            idx = floor;
            t = Ps(idx * self.epoch.0);
        }
        if let Some((memo_start, memo_idx)) = self.memo {
            // Everything between this start and the memo was full when the
            // memo was taken, and epochs only fill — skip the scan.
            if memo_start == start && memo_idx.max(floor) > idx {
                idx = memo_idx.max(floor);
                t = Ps(idx * self.epoch.0);
            }
        }
        let cap = self.units_per_epoch;
        let (used_bits, used_mask) = (self.used_bits, self.used_mask());
        let mut remaining = units;
        loop {
            if idx > self.max_idx {
                assert!(idx >> WINDOW_BITS < u64::MAX >> used_bits, "epoch {idx} is past the ring's lap range");
                self.max_idx = idx;
            }
            let tag = ((idx >> WINDOW_BITS) + 1) << used_bits;
            let slot = &mut self.slots[(idx & self.mask) as usize];
            // The fill, if the slot holds this epoch; a never-used slot or
            // another lap's reads above `cap` (`cap < 1 << used_bits`).
            let mut used = slot.wrapping_sub(tag);
            if used > cap {
                // Lazily reclaim whatever epoch lived here; its units are
                // out of the window and fold into the spill counter.
                self.spilled_units += *slot & used_mask;
                *slot = tag;
                used = 0;
            }
            if used >= cap {
                idx += 1;
                t = t.max(Ps(idx * self.epoch.0));
                continue;
            }
            let take = remaining.min(cap - used);
            *slot += take;
            let fill = used + take;
            let epoch_base = Ps(idx * self.epoch.0);
            let occupancy_end = epoch_base + Ps(self.div_cap(self.epoch.0.saturating_mul(fill)));
            // Served no earlier than the request itself plus its own
            // serialization, and no earlier than the epoch's fill level.
            if take != self.own_memo.0 {
                // Evaluated as written, never reassociated: the rounding
                // of these two f64 operations is part of the model.
                self.own_memo = (take, (take as f64 / cap as f64 * self.epoch.0 as f64) as u64);
            }
            t = (t + Ps(self.own_memo.1)).max(occupancy_end.min(Ps((idx + 1) * self.epoch.0)));
            remaining -= take;
            if remaining == 0 {
                self.memo = Some((start, if fill >= cap { idx + 1 } else { idx }));
                return t;
            }
            idx += 1;
            // Carry the serialization floor across the boundary: units in
            // the next epoch cannot be served before the epoch begins *or*
            // before this request's earlier units are done — dropping the
            // floor here made completions non-monotone in `units` when a
            // late-in-epoch request spilled into an emptier epoch.
            t = t.max(Ps(idx * self.epoch.0));
        }
    }
}

/// The pre-ring `HashMap` implementation, kept as a differential oracle
/// for the proptest equivalence property. The epoch arithmetic is the old
/// code with one shared correction — the serialization floor is carried
/// across epoch boundaries, matching [`EpochBw`], so completions are
/// monotone in units.
/// Not used by the simulator itself — it still carries the latent eviction
/// bug described in the module docs.
#[derive(Debug, Clone)]
pub struct HashMapOracle {
    epoch: Ps,
    units_per_epoch: u64,
    used: HashMap<u64, u64>,
    total_units: u64,
}

impl HashMapOracle {
    /// See [`EpochBw::new`].
    pub fn new(units_per_sec: f64, epoch: Ps) -> HashMapOracle {
        assert!(units_per_sec > 0.0 && units_per_sec.is_finite());
        assert!(epoch > Ps::ZERO);
        let units_per_epoch = (units_per_sec * epoch.as_secs()).floor() as u64;
        assert!(units_per_epoch >= 1, "epoch too short for the rate");
        HashMapOracle { epoch, units_per_epoch, used: HashMap::new(), total_units: 0 }
    }

    /// See [`EpochBw::from_bandwidth`].
    pub fn from_bandwidth(bw: Bandwidth, epoch: Ps) -> HashMapOracle {
        HashMapOracle::new(bw.as_bytes_per_sec(), epoch)
    }

    /// See [`EpochBw::total_units`].
    pub fn total_units(&self) -> u64 {
        self.total_units
    }

    /// See [`EpochBw::reserve`].
    pub fn reserve(&mut self, start: Ps, units: u64) -> Ps {
        self.total_units += units;
        // Bound the bookkeeping: epochs far behind the current request can
        // no longer be reserved against (agent clock skew is bounded), so
        // drop them once the map grows large.
        if self.used.len() > 65_536 {
            let horizon = (start.0 / self.epoch.0).saturating_sub(16_384);
            self.used.retain(|&idx, _| idx >= horizon);
        }
        let mut remaining = units;
        let mut idx = start.0 / self.epoch.0;
        let mut t = start;
        loop {
            let cap = self.units_per_epoch;
            let used = self.used.entry(idx).or_insert(0);
            if *used >= cap {
                idx += 1;
                t = t.max(Ps(idx * self.epoch.0));
                continue;
            }
            let take = remaining.min(cap - *used);
            *used += take;
            let fill = *used;
            let epoch_base = Ps(idx * self.epoch.0);
            let occupancy_end = epoch_base + Ps(self.epoch.0.saturating_mul(fill) / cap);
            let own = Ps((take as f64 / cap as f64 * self.epoch.0 as f64) as u64);
            t = (t + own).max(occupancy_end.min(Ps((idx + 1) * self.epoch.0)));
            remaining -= take;
            if remaining == 0 {
                return t;
            }
            idx += 1;
            t = t.max(Ps(idx * self.epoch.0));
        }
    }
}

/// The predecessor ring — one 16-byte `{tag, used}` slot per epoch, armed
/// all-`EMPTY` — kept as the oracle the packed slots are held to past the
/// skew window, where spills and clamped reservations happen.
#[cfg(test)]
mod reference {
    use crate::time::Ps;

    const EMPTY: u64 = u64::MAX;

    #[derive(Debug, Clone, Copy)]
    struct Slot {
        tag: u64,
        used: u64,
    }

    pub struct SlotRing {
        epoch: Ps,
        units_per_epoch: u64,
        slots: Vec<Slot>,
        mask: u64,
        max_idx: u64,
        total_units: u64,
        spilled_units: u64,
        late_reservations: u64,
        memo: Option<(Ps, u64)>,
    }

    impl SlotRing {
        pub fn new(units_per_sec: f64, epoch: Ps) -> SlotRing {
            let units_per_epoch = (units_per_sec * epoch.as_secs()).floor() as u64;
            SlotRing {
                epoch,
                units_per_epoch,
                slots: Vec::new(),
                mask: super::WINDOW_EPOCHS as u64 - 1,
                max_idx: 0,
                total_units: 0,
                spilled_units: 0,
                late_reservations: 0,
                memo: None,
            }
        }

        pub fn occupancy(&self) -> super::BwOccupancy {
            super::BwOccupancy {
                total_units: self.total_units,
                spilled_units: self.spilled_units,
                late_reservations: self.late_reservations,
            }
        }

        pub fn epoch_fills(&self) -> Vec<(Ps, u64)> {
            let floor = self.max_idx.saturating_sub(self.mask);
            let mut out: Vec<(Ps, u64)> = self
                .slots
                .iter()
                .filter(|s| s.tag != EMPTY && s.tag >= floor && s.used > 0)
                .map(|s| (Ps(s.tag * self.epoch.0), s.used))
                .collect();
            out.sort_unstable_by_key(|&(t, _)| t);
            out
        }

        pub fn reserve(&mut self, start: Ps, units: u64) -> Ps {
            self.total_units += units;
            if self.slots.is_empty() {
                self.slots = vec![Slot { tag: EMPTY, used: 0 }; super::WINDOW_EPOCHS];
            }
            let floor = self.max_idx.saturating_sub(self.mask);
            let mut idx = start.0 / self.epoch.0;
            let mut t = start;
            if idx < floor {
                self.late_reservations += 1;
                idx = floor;
                t = Ps(idx * self.epoch.0);
            }
            if let Some((memo_start, memo_idx)) = self.memo {
                if memo_start == start && memo_idx.max(floor) > idx {
                    idx = memo_idx.max(floor);
                    t = Ps(idx * self.epoch.0);
                }
            }
            let cap = self.units_per_epoch;
            let mut remaining = units;
            loop {
                if idx > self.max_idx {
                    self.max_idx = idx;
                }
                let slot = &mut self.slots[(idx & self.mask) as usize];
                if slot.tag != idx {
                    self.spilled_units += slot.used;
                    slot.tag = idx;
                    slot.used = 0;
                }
                if slot.used >= cap {
                    idx += 1;
                    t = t.max(Ps(idx * self.epoch.0));
                    continue;
                }
                let take = remaining.min(cap - slot.used);
                slot.used += take;
                let fill = slot.used;
                let epoch_base = Ps(idx * self.epoch.0);
                let occupancy_end = epoch_base + Ps(self.epoch.0.saturating_mul(fill) / cap);
                let own = Ps((take as f64 / cap as f64 * self.epoch.0 as f64) as u64);
                t = (t + own).max(occupancy_end.min(Ps((idx + 1) * self.epoch.0)));
                remaining -= take;
                if remaining == 0 {
                    self.memo = Some((start, if fill >= cap { idx + 1 } else { idx }));
                    return t;
                }
                idx += 1;
                t = t.max(Ps(idx * self.epoch.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::SlotRing;
    use super::*;
    use proptest::prelude::*;

    /// A meter and its oracle holding exactly `cap` units per `epoch`.
    fn with_cap(cap: u64, epoch: Ps) -> (EpochBw, HashMapOracle) {
        let rate = (cap as f64 + 0.5) / epoch.as_secs();
        let ring = EpochBw::new(rate, epoch);
        assert_eq!(ring.units_per_epoch, cap);
        (ring, HashMapOracle::new(rate, epoch))
    }

    const CAPS: [u64; 5] = [1, 3, 80_000, 1 << 32, (1 << 33) + 5];

    #[test]
    fn reciprocal_divide_equals_division() {
        for cap in CAPS {
            let (ring, _) = with_cap(cap, Ps::from_us(1.0));
            for n in [0, 1, cap - 1, cap, cap + 1, 7 * cap - 1, 7 * cap, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
                assert_eq!(ring.div_cap(n), n / cap, "{n} / {cap}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The division-free placement agrees with the oracle call by call
        /// — over capacities of one unit, a non-power-of-two and beyond
        /// 2³², epochs other than 1 µs, request sizes that change from
        /// call to call, and start times that stay inside an epoch,
        /// straddle into the next, leap ahead and jump back — while the
        /// whole run stays inside the skew window.
        #[test]
        fn division_free_place_matches_oracle(
            cap in 0..CAPS.len(),
            epoch in 0usize..4,
            sizes in proptest::collection::vec((0u64..=6, 0u64..3), 1..4),
            ops in proptest::collection::vec((0u8..6, 0u64..1000), 1..300),
        ) {
            let (cap, epoch) = (CAPS[cap], [1_000_000u64, 250_000, 3_000_000, 7_000][epoch]);
            let (mut ring, mut oracle) = with_cap(cap, Ps(epoch));
            let mut at = 0u64;
            for (call, &(kind, frac)) in ops.iter().enumerate() {
                at = match kind {
                    0..=2 => at / epoch * epoch + epoch * frac / 1000,
                    3 => at + epoch / 2 + epoch * frac / 1000,
                    4 => at.saturating_sub(epoch * (1 + frac % 3)),
                    _ => at + epoch * (frac % 7),
                };
                // Up to an epoch and a half a call, so epochs fill and
                // requests spill over; a one-entry list repeats its size.
                let (quarters, extra) = sizes[call % sizes.len()];
                let units = cap * quarters / 4 + extra;
                prop_assert_eq!(ring.reserve(Ps(at), units), oracle.reserve(Ps(at), units), "call {}", call);
                let total_units = oracle.total_units();
                prop_assert_eq!(ring.occupancy(), BwOccupancy { total_units, spilled_units: 0, late_reservations: 0 });
            }
        }

        /// The packed one-word slots agree with the 16-byte ring call by
        /// call once the run leaves the skew window: every completion,
        /// `occupancy()` (spilled units and clamped reservations included)
        /// and `epoch_fills()`, over the same capacities as above — so a
        /// capacity that needs 34 bits of a slot too — with leaps of whole
        /// windows and laps, returns below the floor, and stays inside.
        #[test]
        fn packed_slots_match_reference_ring_past_the_window(
            cap in 0..CAPS.len(),
            sizes in proptest::collection::vec((0u64..=6, 0u64..3), 1..4),
            ops in proptest::collection::vec((0u8..8, 0u64..1000), 1..200),
        ) {
            let (cap, epoch) = (CAPS[cap], 1_000_000u64);
            let (mut ring, _) = with_cap(cap, Ps(epoch));
            let mut reference = SlotRing::new((cap as f64 + 0.5) / Ps(epoch).as_secs(), Ps(epoch));
            let window = WINDOW_EPOCHS as u64 * epoch;
            let mut at = 0u64;
            for (call, &(kind, frac)) in ops.iter().enumerate() {
                at = match kind {
                    0..=2 => at / epoch * epoch + epoch * frac / 1000,
                    3 => at + epoch * (frac % 7),
                    // Up to three windows ahead, landing anywhere in a lap.
                    4 => at + window * (frac % 3) + epoch * frac,
                    // Back past the window floor, or just inside it.
                    5 => at.saturating_sub(window + epoch * (frac % 5)),
                    6 => at.saturating_sub(window - epoch * (1 + frac % 5)),
                    _ => at.saturating_sub(epoch * (1 + frac % 3)),
                };
                let (quarters, extra) = sizes[call % sizes.len()];
                let units = cap * quarters / 4 + extra;
                prop_assert_eq!(ring.reserve(Ps(at), units), reference.reserve(Ps(at), units), "call {}", call);
                prop_assert_eq!(ring.occupancy(), reference.occupancy(), "call {}", call);
                prop_assert_eq!(ring.epoch_fills(), reference.epoch_fills(), "call {}", call);
            }
        }
    }

    #[test]
    fn lap_bound_is_checked_where_the_highest_epoch_advances() {
        // 2⁶⁰ units an epoch take 61 slot bits, leaving three for lap + 1:
        // laps 0 to 6 fit, and the first epoch of lap 7 is refused.
        let mut r = EpochBw::new(((1u64 << 60) as f64 + 0.5) * 1e6, Ps(1_000_000));
        assert_eq!(r.used_bits, 61);
        let lap = |n: u64| Ps(n * WINDOW_EPOCHS as u64 * 1_000_000);
        r.reserve(lap(7) - Ps(1), 1);
        assert_eq!(r.epoch_fills(), vec![(lap(7) - Ps(1_000_000), 1)]);
        let past = std::panic::catch_unwind(move || r.reserve(lap(7), 1));
        assert!(past.is_err(), "lap 7 does not fit in three bits");
    }

    fn link() -> EpochBw {
        // 80 GB/s link, 1 us epochs → 80 KB per epoch.
        EpochBw::from_bandwidth(Bandwidth::gbps(80.0), Ps::from_us(1.0))
    }

    #[test]
    fn uncontended_reservation_is_serialization_time() {
        let mut r = link();
        let done = r.reserve(Ps::ZERO, 256);
        // 256 B at 80 GB/s = 3.2 ns.
        assert!(done >= Ps::from_ns(3.2) && done < Ps::from_ns(10.0), "{done}");
    }

    #[test]
    fn out_of_order_arrivals_do_not_phantom_wait() {
        let mut r = link();
        // A "future" agent reserves first…
        let _ = r.reserve(Ps::from_us(0.9), 48);
        // …an earlier agent must not wait behind it.
        let early = r.reserve(Ps::from_ns(10.0), 48);
        assert!(early < Ps::from_ns(100.0), "phantom wait: {early}");
    }

    #[test]
    fn saturation_pushes_completions_out() {
        let mut r = link();
        // Demand 3 epochs' worth of bytes instantly.
        let done = r.reserve(Ps::ZERO, 240_000);
        assert!(done >= Ps::from_us(2.9), "overload must spill into later epochs: {done}");
        // The next small reservation lands after the backlog's epochs.
        let next = r.reserve(Ps::ZERO, 48);
        assert!(next >= Ps::from_us(3.0), "{next}");
    }

    #[test]
    fn rate_metered_ports() {
        // 1 GHz port, 1 us epochs → 1000 lookups per epoch.
        let mut p = EpochBw::from_period(Ps::from_ns(1.0), Ps::from_us(1.0));
        for _ in 0..1000 {
            p.reserve(Ps::ZERO, 1);
        }
        let overflow = p.reserve(Ps::ZERO, 1);
        assert!(overflow >= Ps::from_us(1.0), "port rate not enforced: {overflow}");
    }

    #[test]
    fn total_units_accumulate() {
        let mut r = link();
        r.reserve(Ps::ZERO, 100);
        r.reserve(Ps::from_us(5.0), 50);
        assert_eq!(r.total_units(), 150);
    }

    #[test]
    #[should_panic]
    fn epoch_too_short_panics() {
        let _ = EpochBw::new(1.0, Ps::from_ns(1.0));
    }

    #[test]
    fn matches_oracle_on_mixed_skew_sequences() {
        let mut ring = link();
        let mut oracle = HashMapOracle::from_bandwidth(Bandwidth::gbps(80.0), Ps::from_us(1.0));
        // Deterministic mixed-skew pattern well inside the skew window.
        let mut t = 0u64;
        for i in 0..20_000u64 {
            t = (t
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407))
                % 3_000_000_000;
            let units = 1 + (i * 37) % 4096;
            assert_eq!(
                ring.reserve(Ps(t), units),
                oracle.reserve(Ps(t), units),
                "diverged at call {i} (start {t} ps, {units} units)"
            );
        }
        assert_eq!(ring.total_units(), oracle.total_units());
    }

    #[test]
    fn golden_trace_reserve_many_equals_single_unit_sequence() {
        // Batched completion times must be identical to the unbatched
        // single-unit sequence — the determinism contract that lets call
        // sites switch to reserve_many without perturbing any timing.
        let starts = [0u64, 500, 999_000, 10, 2_500_000, 2_500_000, 0, 77_777, 1_000_000, 950_000];
        let mut singles = link();
        let mut batched = link();
        for (i, &s) in starts.iter().enumerate() {
            let n = 1 + (i as u64 * 13) % 300;
            let mut last_single = Ps::ZERO;
            let mut first_single = Ps::ZERO;
            for k in 0..n {
                last_single = singles.reserve(Ps(s), 1);
                if k == 0 {
                    first_single = last_single;
                }
            }
            let batch = batched.reserve_many(Ps(s), n, 1);
            assert_eq!(batch.first, first_single, "first diverged at seq {i}");
            assert_eq!(batch.last, last_single, "last diverged at seq {i}");
        }
        assert_eq!(singles.total_units(), batched.total_units());
        assert_eq!(singles.occupancy(), batched.occupancy());
    }

    #[test]
    fn reserve_many_chunks_match_manual_chunk_loop() {
        let mut manual = link();
        let mut batched = link();
        let start = Ps::from_us(3.0);
        let mut last = Ps::ZERO;
        let mut first = Ps::ZERO;
        // 10 full chunks of 4096 plus a 104-unit remainder.
        for k in 0..11u64 {
            let take = if k == 10 { 104 } else { 4096 };
            last = manual.reserve(start, take);
            if k == 0 {
                first = last;
            }
        }
        let batch = batched.reserve_many(start, 10 * 4096 + 104, 4096);
        assert_eq!(batch.first, first);
        assert_eq!(batch.last, last);
    }

    #[test]
    fn window_spill_folds_units_and_conserves_totals() {
        let mut r = link();
        r.reserve(Ps::ZERO, 1000);
        // Epoch W lands on epoch 0's ring slot; the old fill must fold
        // into the spill counter when the slot is retagged, not vanish.
        let far = Ps(WINDOW_EPOCHS as u64 * 1_000_000);
        r.reserve(far, 2000);
        // With max epoch W the floor sits at epoch 1, so a start back at
        // epoch 0 is below the window: clamp to the floor and count it.
        let done = r.reserve(Ps::ZERO, 10);
        let occ = r.occupancy();
        assert_eq!(occ.total_units, 3010);
        assert_eq!(occ.spilled_units, 1000, "old epoch fill must spill, not vanish");
        assert_eq!(occ.late_reservations, 1, "below-floor start must clamp and count");
        assert!(done >= Ps(1_000_000), "must serialize at the window floor: {done}");
    }

    #[test]
    fn late_reservation_cannot_reclaim_a_full_past_epoch() {
        // The bug the ring fixes: after the old eviction sweep, an early
        // agent could re-reserve a freed-but-actually-full epoch and
        // complete unrealistically early. Fill "now", jump far ahead, then
        // arrive before the window: completion must land at/after the
        // floor, not back at the stale epoch's serialization time.
        let mut r = link();
        let done_full = r.reserve(Ps::ZERO, 80_000); // epoch 0 exactly full
        assert!(done_full <= Ps::from_us(1.0));
        let far = Ps((WINDOW_EPOCHS as u64 * 4) * 1_000_000);
        r.reserve(far, 48);
        let late = r.reserve(Ps::ZERO, 48);
        let floor_base = (WINDOW_EPOCHS as u64 * 3 + 1) * 1_000_000;
        assert!(late >= Ps(floor_base), "late reservation must serialize at the window floor: {late}");
        assert_eq!(r.occupancy().late_reservations, 1);
    }

    #[test]
    fn memoized_cursor_matches_cold_scans() {
        // Hammering one start time (the bandwidth-ceiling pattern) must
        // produce exactly the completions a cold scan would, while the
        // memo keeps it O(1) per call.
        let mut hot = link();
        let mut oracle = HashMapOracle::from_bandwidth(Bandwidth::gbps(80.0), Ps::from_us(1.0));
        for i in 0..50_000u64 {
            let (a, b) = (hot.reserve(Ps::ZERO, 64), oracle.reserve(Ps::ZERO, 64));
            assert_eq!(a, b, "diverged at call {i}");
        }
        // Interleave a different start and return — memo must not leak
        // stale cursors across start times.
        let (a, b) = (hot.reserve(Ps::from_us(2.0), 64), oracle.reserve(Ps::from_us(2.0), 64));
        assert_eq!(a, b);
        let (a, b) = (hot.reserve(Ps::ZERO, 64), oracle.reserve(Ps::ZERO, 64));
        assert_eq!(a, b);
    }

    #[test]
    fn occupancy_is_zero_before_any_reservation() {
        assert_eq!(link().occupancy(), BwOccupancy::default());
    }
}
