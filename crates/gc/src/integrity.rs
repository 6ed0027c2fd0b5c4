//! Heap-integrity layer: silent-corruption injection at the offload-output
//! sites, incremental detection, and the three-rung repair ladder.
//!
//! PR 2's fault tier models units that *stall* (drops, wedges, timeouts);
//! this module models units that *lie*: a mis-executing unit writes damaged
//! mark-bitmap words, forwarding pointers, card bytes, or copied payloads
//! straight into the memory stack, bypassing the host's verification paths
//! (the PIM-adoption hazard of Ghose et al.). Four pieces:
//!
//! 1. **Injection** — a seeded [`Injector`] armed at one site rolls each
//!    primitive output write there and, on a hit, flips one bit of the
//!    freshly written data. The site only injects while its primitive
//!    actually offloads (host-software writes are trusted), so quarantining
//!    the unit stops the bleeding.
//! 2. **Detection** — honest, redundancy-based checks that never peek at
//!    ground truth: per-extent XOR checksums over the mark-bitmap words
//!    (maintained incrementally as objects are marked; verified extent by
//!    extent at the end of the mark phase), a read-back of each installed
//!    forwarding word against the known copy target, a scan of the dirtied
//!    card block for bytes that are neither `CLEAN` nor `DIRTY`, and a
//!    fold comparison of source vs. destination payload words after each
//!    copy. The optional *shadow oracle* re-checks each primitive output
//!    immediately and exactly (for bitmaps: refolds the touched extents at
//!    every mark), so nothing survives to the next read — escaped count is
//!    zero by construction.
//! 3. **Repair** — the ladder: rung 1 re-executes the damaged primitive on
//!    the host and patches the extent (payload re-copy, forwarding-word
//!    rewrite, card re-dirty); rung 2 is a bounded re-mark — damaged
//!    bitmap extents are zeroed and rebuilt from the object headers, whose
//!    mark state the host wrote and is trusted; rung 3 quarantines the
//!    unit (the device's watchdog kill, whose verdict keeps the primitive
//!    on the host) and counts the extent once the site's strike count
//!    crosses the threshold.
//! 4. **Accounting** — every outcome lands in
//!    [`RecoverySummary`](crate::breakdown::RecoverySummary) and the
//!    telemetry journal (`Corruption`/`Repair` events).
//!
//! Detection charges **zero simulated time** — only repairs advance the
//! calling thread's clock, through `System::host_prim` (the host software
//! path) and `System::host_op`. With the layer disabled every hook is one
//! `Option` branch; with the layer enabled at a zero rate the stream is
//! never drawn from and no repair runs, so timing stays bit-identical to a
//! run without the layer.

use crate::system::System;
use charon_core::device::OffloadCall;
use charon_core::packet::PrimType;
use charon_heap::addr::{VAddr, WORD_BYTES};
use charon_heap::cardtable::{CLEAN, DIRTY};
use charon_heap::heap::JavaHeap;
use charon_heap::markbitmap::MarkBitmap;
use charon_heap::object::{self, MarkState, AGE_SHIFT, FWD_SHIFT, STATE_FORWARDED, STATE_MASK};
use charon_sim::cache::AccessKind;
use charon_sim::faults::{CorruptionSite, Injector};
use charon_sim::telemetry::Event;
use charon_sim::time::Ps;

/// Map words per checksum extent: 64 × 8-byte map words = 4096 covered
/// heap words = 32 KiB of heap per extent — the blast radius rung 2
/// rebuilds when bitmap damage is unlocalized.
pub const EXTENT_MAP_WORDS: u64 = 64;

/// How the integrity layer checks and repairs. The checksum and
/// read-back detectors always run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityConfig {
    /// Re-check every primitive output immediately and exactly: bitmap
    /// extents refold at each mark instead of at end of phase, and the
    /// forwarding read-back compares the whole word (age bits included).
    pub shadow_oracle: bool,
    /// Detected corruptions at the armed site before rung 3 quarantines
    /// its unit.
    pub quarantine_threshold: u32,
}

impl Default for IntegrityConfig {
    fn default() -> IntegrityConfig {
        IntegrityConfig { shadow_oracle: false, quarantine_threshold: 3 }
    }
}

/// The unit class whose mis-execution each corruption site models.
fn site_prim(site: CorruptionSite) -> PrimType {
    match site {
        CorruptionSite::BitmapWord => PrimType::ScanPush,
        CorruptionSite::ForwardPointer | CorruptionSite::CopyPayload => PrimType::Copy,
        CorruptionSite::CardByte => PrimType::Search,
    }
}

/// What the layer concluded about corruptions at one site.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// `n` corruptions caught.
    Detected(u64),
    /// `n` injections proven harmless.
    Benign(u64),
    /// `fixed` corruptions repaired by ladder `rung`, which ran `runs`
    /// times. Rung 3 quarantines the unit: it fixes none itself and counts
    /// one quarantined extent.
    Repaired { rung: u8, fixed: u64, runs: u64 },
}

/// Books `outcome` at `site`: its counters in [`System::recovery`] and one
/// `Corruption`/`Repair` event in the telemetry journal.
fn book(sys: &mut System, site: CorruptionSite, outcome: Outcome, addr: u64, at: Ps) {
    let (i, r) = (site.index(), &mut sys.recovery);
    match outcome {
        Outcome::Detected(n) => r.corrupt_detected[i] += n,
        Outcome::Benign(n) => r.corrupt_benign[i] += n,
        Outcome::Repaired { rung, fixed, runs } => {
            r.corrupt_repaired[i] += fixed;
            r.repair_rungs[usize::from(rung - 1)] += runs;
            r.quarantined_extents += u64::from(rung == 3);
        }
    }
    let site = site.name();
    sys.telemetry.record(|| match outcome {
        Outcome::Detected(_) => Event::Corruption { site, addr, at, detected: true },
        Outcome::Benign(_) => Event::Corruption { site, addr, at, detected: false },
        Outcome::Repaired { rung, .. } => Event::Repair { site, rung, addr, at },
    });
}

/// Bitmap geometry snapshot, captured lazily from the heap on first use.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    beg: MarkBitmap,
    end: MarkBitmap,
    extents: usize,
}

impl Geometry {
    fn of(heap: &JavaHeap) -> Geometry {
        let beg = *heap.beg_map();
        let end = *heap.end_map();
        let words = beg.map_range().bytes() / WORD_BYTES;
        Geometry { beg, end, extents: words.div_ceil(EXTENT_MAP_WORDS) as usize }
    }

    /// The extent holding map word `waddr` of `map`.
    fn extent_of(map: &MarkBitmap, waddr: VAddr) -> usize {
        (waddr.words_since(map.map_range().start) / EXTENT_MAP_WORDS) as usize
    }

    /// XOR-fold of extent `ext`'s map words.
    fn fold(&self, mem: &charon_heap::mem::HeapMemory, map: &MarkBitmap, ext: usize) -> u64 {
        let words = map.map_range().bytes() / WORD_BYTES;
        let lo = ext as u64 * EXTENT_MAP_WORDS;
        let hi = (lo + EXTENT_MAP_WORDS).min(words);
        let mut f = 0u64;
        for w in lo..hi {
            f ^= mem.read_word(map.map_range().start.add_words(w));
        }
        f
    }
}

/// Mutable integrity state hung off [`System`].
#[derive(Debug, Clone)]
pub struct IntegrityState {
    config: IntegrityConfig,
    injector: Injector<CorruptionSite>,
    /// Built at the first mark when the bitmap site is armed; while `None`
    /// the bitmap detectors have nothing to check.
    geom: Option<Geometry>,
    /// Running XOR-fold per extent of the begin map, maintained at every
    /// mark; ditto `end_sums` for the end map.
    beg_sums: Vec<u64>,
    end_sums: Vec<u64>,
    /// Bitmap injections already classified (detected or benign) by a
    /// verify pass; the delta to the injector's count is what the next
    /// pass accounts for.
    bitmap_accounted: u64,
    /// Detected corruptions at the armed site since it was last armed.
    strikes: u32,
    /// Whether rung 3 has quarantined the armed site's unit.
    quarantined: bool,
}

impl IntegrityState {
    /// Builds the layer around the one armed site.
    pub(crate) fn new(injector: Injector<CorruptionSite>, config: IntegrityConfig) -> IntegrityState {
        IntegrityState {
            config,
            injector,
            geom: None,
            beg_sums: Vec::new(),
            end_sums: Vec::new(),
            bitmap_accounted: 0,
            strikes: 0,
            quarantined: false,
        }
    }

    fn ensure_geometry(&mut self, heap: &JavaHeap) {
        if self.geom.is_none() {
            let g = Geometry::of(heap);
            self.beg_sums = vec![0; g.extents];
            self.end_sums = vec![0; g.extents];
            self.geom = Some(g);
        }
    }

    /// Rolls one output write at `site`. When it is the armed site and the
    /// write is corrupted, books the injection and returns the draw that
    /// places the flip.
    fn inject(&mut self, sys: &mut System, site: CorruptionSite) -> Option<u64> {
        if self.injector.site() != site {
            return None;
        }
        self.injector.roll()?;
        sys.recovery.corrupt_injected[site.index()] += 1;
        Some(self.injector.draw())
    }

    /// `hits` detected corruptions at the armed site; fires rung 3 at the
    /// threshold.
    fn strike(&mut self, sys: &mut System, now: Ps, hits: u32) {
        self.strikes += hits;
        if self.strikes >= self.config.quarantine_threshold && !self.quarantined {
            self.quarantined = true;
            let site = self.injector.site();
            let prim = site_prim(site);
            if sys.prim_offloads(prim) {
                sys.recovery.degraded[prim.encode() as usize] = true;
            }
            if let Some(dev) = &mut sys.device {
                dev.kill_unit(prim);
            }
            book(sys, site, Outcome::Repaired { rung: 3, fixed: 0, runs: 1 }, 0, now);
        }
    }

    /// Re-arms the site after a probe re-enabled `prim`'s unit: strikes
    /// reset so the site can earn a fresh quarantine.
    pub(crate) fn rearm_prim(&mut self, prim: PrimType) {
        if site_prim(self.injector.site()) == prim {
            self.strikes = 0;
            self.quarantined = false;
        }
    }

    // ----- copy payload ---------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_copy(
        &mut self,
        sys: &mut System,
        heap: &mut JavaHeap,
        core: usize,
        now: Ps,
        src: VAddr,
        dst: VAddr,
        words: u64,
    ) -> Ps {
        if words < 2 || !sys.prim_offloads(PrimType::Copy) {
            return now;
        }
        let Some(draw) = self.inject(sys, CorruptionSite::CopyPayload) else {
            return now;
        };
        // Damage one payload word (word 0 is the mark word, rewritten by
        // the forwarding install on the source and the age reset on the
        // destination — it is excluded from both injection and the fold).
        let wi = 1 + (draw >> 6) % (words - 1);
        let victim = dst.add_words(wi);
        heap.mem.write_word(victim, heap.mem.read_word(victim) ^ (1u64 << (draw % 64)));
        let mut fold = 0u64;
        for w in 1..words {
            fold ^= heap.mem.read_word(src.add_words(w)) ^ heap.mem.read_word(dst.add_words(w));
        }
        debug_assert_ne!(fold, 0, "single-bit payload flip must unbalance the fold");
        book(sys, CorruptionSite::CopyPayload, Outcome::Detected(1), victim.0, now);
        // Rung 1: re-execute the copy on the host and patch the extent.
        heap.mem.copy_words(src.add_words(1), dst.add_words(1), words - 1);
        let payload =
            OffloadCall::Copy { src: src.add_words(1), dst: dst.add_words(1), bytes: (words - 1) * WORD_BYTES };
        let end = sys.host_prim(core, now, payload);
        book(sys, CorruptionSite::CopyPayload, Outcome::Repaired { rung: 1, fixed: 1, runs: 1 }, victim.0, end);
        self.strike(sys, end, 1);
        end
    }

    // ----- forwarding word ------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_forward(
        &mut self,
        sys: &mut System,
        heap: &mut JavaHeap,
        core: usize,
        now: Ps,
        src: VAddr,
        dst: VAddr,
        age: u8,
    ) -> Ps {
        if !sys.prim_offloads(PrimType::Copy) {
            return now;
        }
        let Some(draw) = self.inject(sys, CorruptionSite::ForwardPointer) else {
            return now;
        };
        heap.mem.write_word(src, heap.mem.read_word(src) ^ (1u64 << (draw % 64)));
        // Read-back: the word must decode as "forwarded to dst". The copy
        // target is in hand at the install site, so this is a legitimate
        // write-verify, not ground-truth peeking.
        let w = heap.mem.read_word(src);
        let bad = if self.config.shadow_oracle {
            w != (u64::from(age) << AGE_SHIFT) | ((dst.0 / WORD_BYTES) << FWD_SHIFT) | STATE_FORWARDED
        } else {
            (w & STATE_MASK) != STATE_FORWARDED || (w >> FWD_SHIFT) != dst.0 / WORD_BYTES
        };
        if !bad {
            // The flip landed in the age bits, which a forwarded (evacuated)
            // header never exposes again — provably dead, counted benign.
            book(sys, CorruptionSite::ForwardPointer, Outcome::Benign(1), src.0, now);
            return now;
        }
        book(sys, CorruptionSite::ForwardPointer, Outcome::Detected(1), src.0, now);
        // Rung 1: reinstall the forwarding word (and, under the oracle, the
        // exact pre-copy age).
        object::forward_to(&mut heap.mem, src, dst);
        if self.config.shadow_oracle {
            object::set_age(&mut heap.mem, src, age);
        }
        let end = sys.host_op(core, now, 2, &[(src, AccessKind::Write)]);
        book(sys, CorruptionSite::ForwardPointer, Outcome::Repaired { rung: 1, fixed: 1, runs: 1 }, src.0, end);
        self.strike(sys, end, 1);
        end
    }

    // ----- card byte ------------------------------------------------------

    fn on_card(&mut self, sys: &mut System, heap: &mut JavaHeap, core: usize, now: Ps, card: VAddr) -> Ps {
        if !sys.prim_offloads(PrimType::Search) {
            return now;
        }
        let Some(draw) = self.inject(sys, CorruptionSite::CardByte) else {
            return now;
        };
        // Damage one bit somewhere in the 8-byte-aligned block holding the
        // card — the granule the Search unit writes back.
        let table = heap.cards().table_range();
        let block = VAddr(card.0 & !(WORD_BYTES - 1));
        let mut victim = block.add_bytes((draw >> 3) % 8);
        if !table.contains(victim) {
            victim = card;
        }
        heap.mem.write_u8(victim, heap.mem.read_u8(victim) ^ (1u8 << (draw % 8)));
        // Every valid card byte is CLEAN or DIRTY; a single-bit flip of
        // either can never produce the other, so a block scan catches every
        // flip.
        let mut bad = Vec::new();
        for i in 0..8u64 {
            let a = block.add_bytes(i);
            if table.contains(a) {
                let b = heap.mem.read_u8(a);
                if b != CLEAN && b != DIRTY {
                    bad.push(a);
                }
            }
        }
        debug_assert!(!bad.is_empty(), "card flip must leave an invalid byte");
        book(sys, CorruptionSite::CardByte, Outcome::Detected(1), victim.0, now);
        // Rung 1: conservatively re-dirty the damaged bytes (a spurious
        // DIRTY only costs a wasted scan; a lost DIRTY would lose refs).
        for &a in &bad {
            heap.mem.write_u8(a, DIRTY);
        }
        let end = sys.host_op(core, now, 4, &[(block, AccessKind::Read), (victim, AccessKind::Write)]);
        book(sys, CorruptionSite::CardByte, Outcome::Repaired { rung: 1, fixed: 1, runs: 1 }, victim.0, end);
        self.strike(sys, end, 1);
        end
    }

    // ----- mark-bitmap words ----------------------------------------------

    fn on_mark(
        &mut self,
        sys: &mut System,
        heap: &mut JavaHeap,
        core: usize,
        now: Ps,
        obj: VAddr,
        size_words: u64,
    ) -> Ps {
        if self.injector.site() != CorruptionSite::BitmapWord {
            return now; // no flip to fold for: the extent sums stay unbuilt
        }
        self.ensure_geometry(heap);
        let g = self.geom.expect("geometry ensured");
        let last = obj.add_words(size_words - 1);
        let beg_word = g.beg.map_word_addr(obj);
        let end_word = g.end.map_word_addr(last);
        // Incremental fold update: `mark_object` set exactly one previously
        // clear bit in each map (distinct objects own distinct begin/end
        // bits), so the extent fold moves by the single-bit mask.
        let beg_bit = obj.words_since(g.beg.covered().start) % 64;
        let end_bit = last.words_since(g.end.covered().start) % 64;
        self.beg_sums[Geometry::extent_of(&g.beg, beg_word)] ^= 1u64 << beg_bit;
        self.end_sums[Geometry::extent_of(&g.end, end_word)] ^= 1u64 << end_bit;
        if !sys.prim_offloads(PrimType::ScanPush) {
            return now;
        }
        let Some(draw) = self.inject(sys, CorruptionSite::BitmapWord) else {
            return now;
        };
        // Flip one bit of one of the two map words this mark touched,
        // without updating the running fold — the corruption signal the
        // verify pass hunts.
        let victim = if draw & (1 << 12) == 0 { beg_word } else { end_word };
        heap.mem.write_word(victim, heap.mem.read_word(victim) ^ (1u64 << (draw % 64)));
        if self.config.shadow_oracle {
            let exts = [Geometry::extent_of(&g.beg, beg_word), Geometry::extent_of(&g.end, end_word)];
            return self.verify_extents(sys, heap, core, now, Some(&exts));
        }
        now
    }

    /// Verifies extent folds (all of them, or just `only`), rebuilds any
    /// damaged extents from the object headers (rung 2), and classifies the
    /// pending bitmap injections. Returns the repair completion time.
    fn verify_extents(
        &mut self,
        sys: &mut System,
        heap: &mut JavaHeap,
        core: usize,
        now: Ps,
        only: Option<&[usize]>,
    ) -> Ps {
        let Some(g) = self.geom else { return now };
        let mut beg_damaged = vec![false; g.extents];
        let mut end_damaged = vec![false; g.extents];
        let mut any = false;
        let mut first_bad = 0u64;
        let check =
            |ext: usize, sums: &[u64], map: &MarkBitmap, damaged: &mut [bool], any: &mut bool, first: &mut u64| {
                if g.fold(&heap.mem, map, ext) != sums[ext] && !damaged[ext] {
                    damaged[ext] = true;
                    if !*any {
                        *first = map.map_range().start.add_words(ext as u64 * EXTENT_MAP_WORDS).0;
                    }
                    *any = true;
                }
            };
        match only {
            Some(exts) => {
                for &e in exts {
                    check(e, &self.beg_sums, &g.beg, &mut beg_damaged, &mut any, &mut first_bad);
                    check(e, &self.end_sums, &g.end, &mut end_damaged, &mut any, &mut first_bad);
                }
            }
            None => {
                for e in 0..g.extents {
                    check(e, &self.beg_sums, &g.beg, &mut beg_damaged, &mut any, &mut first_bad);
                    check(e, &self.end_sums, &g.end, &mut end_damaged, &mut any, &mut first_bad);
                }
            }
        }
        let pending = self.injector.injected() - self.bitmap_accounted;
        if !any {
            if pending > 0 && only.is_none() {
                // Flips that cancelled (same bit twice) restored the words
                // bit-for-bit: provably benign. Only a full sweep can
                // conclude this.
                self.bitmap_accounted += pending;
                for _ in 0..pending {
                    book(sys, CorruptionSite::BitmapWord, Outcome::Benign(1), 0, now);
                }
            }
            return now;
        }
        self.bitmap_accounted += pending;
        book(sys, CorruptionSite::BitmapWord, Outcome::Detected(pending), first_bad, now);
        // Rung 2: bounded re-mark. Zero the damaged extents, then walk the
        // used regions re-setting bits for every header the host marked —
        // the header mark state is host-written and trusted.
        let mut accesses = Vec::new();
        let mut zero = |map: &MarkBitmap, damaged: &[bool], accesses: &mut Vec<(VAddr, AccessKind)>| {
            let words = map.map_range().bytes() / WORD_BYTES;
            for (e, _) in damaged.iter().enumerate().filter(|(_, d)| **d) {
                let lo = e as u64 * EXTENT_MAP_WORDS;
                let hi = (lo + EXTENT_MAP_WORDS).min(words);
                heap.mem.fill_words(map.map_range().start.add_words(lo), hi - lo, 0);
                for w in lo..hi {
                    accesses.push((map.map_range().start.add_words(w), AccessKind::Write));
                }
            }
        };
        zero(&g.beg, &beg_damaged, &mut accesses);
        zero(&g.end, &end_damaged, &mut accesses);
        let mut walked = 0u64;
        let mut ranges: Vec<_> = [heap.old().used_region(), heap.eden().used_region(), heap.from_space().used_region()]
            .into_iter()
            .filter(|r| !r.is_empty())
            .collect();
        ranges.sort_by_key(|r| r.start);
        for r in ranges {
            let objs: Vec<(VAddr, u64)> = heap.walk_objects_sized(r.start, r.end).collect();
            for (o, size) in objs {
                walked += 1;
                if object::mark_state(&heap.mem, o) != MarkState::Marked {
                    continue;
                }
                let o_last = o.add_words(size - 1);
                if beg_damaged[Geometry::extent_of(&g.beg, g.beg.map_word_addr(o))] {
                    g.beg.set(&mut heap.mem, o);
                }
                if end_damaged[Geometry::extent_of(&g.end, g.end.map_word_addr(o_last))] {
                    g.end.set(&mut heap.mem, o_last);
                }
            }
        }
        let mut rebuilt = 0u64;
        for e in 0..g.extents {
            if beg_damaged[e] {
                self.beg_sums[e] = g.fold(&heap.mem, &g.beg, e);
                rebuilt += 1;
            }
            if end_damaged[e] {
                self.end_sums[e] = g.fold(&heap.mem, &g.end, e);
                rebuilt += 1;
            }
        }
        let end = sys.host_op(core, now, walked * 2 + rebuilt * EXTENT_MAP_WORDS, &accesses);
        let rung2 = Outcome::Repaired { rung: 2, fixed: pending, runs: rebuilt };
        book(sys, CorruptionSite::BitmapWord, rung2, first_bad, end);
        self.strike(sys, end, rebuilt as u32);
        end
    }

    /// The bitmaps were bulk-cleared (major epilogue): reset the folds.
    /// All pending injections were classified by the end-of-mark verify,
    /// so nothing is lost with the bits.
    fn on_clear(&mut self) {
        debug_assert!(
            self.geom.is_none() || self.injector.injected() == self.bitmap_accounted,
            "bitmap injections must be classified before the maps are cleared"
        );
        self.beg_sums.iter_mut().for_each(|s| *s = 0);
        self.end_sums.iter_mut().for_each(|s| *s = 0);
    }
}

// ----- hook entry points (one Option branch when the layer is off) --------

/// Runs `hook` on the armed layer, lent out of `sys` for the call; `now`
/// when no layer is armed.
fn with_layer(sys: &mut System, now: Ps, hook: impl FnOnce(&mut IntegrityState, &mut System) -> Ps) -> Ps {
    let Some(mut st) = sys.integrity.take() else { return now };
    let end = hook(&mut st, sys);
    sys.integrity = Some(st);
    end
}

/// After the functional copy of `words` words `src` → `dst` (minor-GC
/// evacuation or major-GC compaction). `src`'s mark word may already hold
/// the forwarding install; word 0 is excluded from the check. Returns the
/// thread time including any rung-1 repair.
pub fn after_copy(
    sys: &mut System,
    heap: &mut JavaHeap,
    core: usize,
    now: Ps,
    src: VAddr,
    dst: VAddr,
    words: u64,
) -> Ps {
    with_layer(sys, now, |st, sys| st.on_copy(sys, heap, core, now, src, dst, words))
}

/// After `forward_to(src, dst)` installed the forwarding word; `age` is the
/// object's pre-copy tenuring age (for the oracle's exact compare). Must
/// run before any other thread can read `src`'s mark word — a flipped
/// state field would otherwise trip the decoder.
pub fn after_forward(
    sys: &mut System,
    heap: &mut JavaHeap,
    core: usize,
    now: Ps,
    src: VAddr,
    dst: VAddr,
    age: u8,
) -> Ps {
    with_layer(sys, now, |st, sys| st.on_forward(sys, heap, core, now, src, dst, age))
}

/// After a card byte at `card` was dirtied on an offload-written path.
pub fn after_card_dirty(sys: &mut System, heap: &mut JavaHeap, core: usize, now: Ps, card: VAddr) -> Ps {
    with_layer(sys, now, |st, sys| st.on_card(sys, heap, core, now, card))
}

/// After `mark_object` set `obj`'s begin/end bits. With the bitmap site
/// armed: maintains the extent folds, rolls the site, and (under the
/// oracle) verifies the touched extents immediately.
pub fn after_mark(sys: &mut System, heap: &mut JavaHeap, core: usize, now: Ps, obj: VAddr, size_words: u64) -> Ps {
    with_layer(sys, now, |st, sys| st.on_mark(sys, heap, core, now, obj, size_words))
}

/// End-of-mark sweep: verifies every extent fold and repairs damage before
/// the summary phase reads the bitmaps. Call after reference processing,
/// before `summary_phase`.
pub fn verify_marks(sys: &mut System, heap: &mut JavaHeap, core: usize, now: Ps) -> Ps {
    with_layer(sys, now, |st, sys| st.verify_extents(sys, heap, core, now, None))
}

/// The major epilogue cleared both mark bitmaps: reset the running folds.
pub fn note_bitmap_clear(sys: &mut System) {
    if let Some(st) = &mut sys.integrity {
        st.on_clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charon_heap::heap::HeapConfig;
    use charon_heap::klass::KlassKind;
    use charon_heap::markbitmap;

    /// A Charon system with `site` armed at rate 1, and one object in eden
    /// with its size in words.
    fn setup(site: CorruptionSite) -> (System, JavaHeap, VAddr, u64) {
        let mut sys = System::charon();
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
        let point = heap.klasses_mut().register("Point", KlassKind::Instance, 4, vec![0, 1]);
        let obj = heap.alloc_eden(point, 0).expect("fits");
        let size = heap.obj_size_words(obj);
        sys.enable_integrity(site.arm(11, 1.0), IntegrityConfig::default());
        (sys, heap, obj, size)
    }

    #[test]
    fn disabled_hooks_charge_nothing() {
        let mut sys = System::charon();
        let mut heap = JavaHeap::new(HeapConfig::with_heap_bytes(4 << 20));
        let t = Ps::from_us(3.0);
        assert_eq!(after_copy(&mut sys, &mut heap, 0, t, VAddr(0), VAddr(0), 8), t);
        assert_eq!(verify_marks(&mut sys, &mut heap, 0, t), t);
        assert!(sys.recovery.is_empty());
    }

    #[test]
    fn zero_rates_inject_nothing_and_charge_nothing() {
        let (mut sys, mut heap, obj, size) = setup(CorruptionSite::BitmapWord);
        sys.enable_integrity(CorruptionSite::BitmapWord.arm(11, 0.0), IntegrityConfig::default());
        let t = Ps::from_us(3.0);
        let (beg, end_map) = (*heap.beg_map(), *heap.end_map());
        markbitmap::mark_object(&mut heap.mem, &beg, &end_map, obj, size);
        object::set_marked(&mut heap.mem, obj);
        assert_eq!(after_mark(&mut sys, &mut heap, 0, t, obj, size), t);
        assert_eq!(verify_marks(&mut sys, &mut heap, 0, t), t);
        assert!(!sys.recovery.has_corruption());
    }

    #[test]
    fn payload_corruption_detected_and_repaired() {
        let (mut sys, mut heap, obj, size) = setup(CorruptionSite::CopyPayload);
        let dst = heap.alloc_to(size).expect("fits");
        for w in 0..size {
            heap.mem.write_word(dst.add_words(w), heap.mem.read_word(obj.add_words(w)));
        }
        let t = Ps::from_us(1.0);
        let end = after_copy(&mut sys, &mut heap, 0, t, obj, dst, size);
        assert!(end > t, "rung-1 repair must charge host time");
        let pi = CorruptionSite::CopyPayload.index();
        assert_eq!(sys.recovery.corrupt_injected[pi], 1);
        assert_eq!(sys.recovery.corrupt_detected[pi], 1);
        assert_eq!(sys.recovery.corrupt_repaired[pi], 1);
        assert_eq!(sys.recovery.repair_rungs[0], 1);
        for w in 1..size {
            assert_eq!(
                heap.mem.read_word(dst.add_words(w)),
                heap.mem.read_word(obj.add_words(w)),
                "payload word {w} repaired"
            );
        }
        assert_eq!(sys.recovery.escaped(), 0);
    }

    #[test]
    fn forward_corruption_detected_or_provably_benign() {
        for seed in 0..32u64 {
            let (mut sys, mut heap, obj, _) = setup(CorruptionSite::ForwardPointer);
            sys.enable_integrity(CorruptionSite::ForwardPointer.arm(seed, 1.0), IntegrityConfig::default());
            let dst = VAddr(heap.to_space().start().0);
            object::set_age(&mut heap.mem, obj, 3);
            object::forward_to(&mut heap.mem, obj, dst);
            after_forward(&mut sys, &mut heap, 0, Ps::ZERO, obj, dst, 3);
            // Whatever the flip hit, the decode path must survive and point
            // at dst again.
            assert_eq!(object::mark_state(&heap.mem, obj), MarkState::Forwarded, "seed {seed}");
            assert_eq!(object::forwarding(&heap.mem, obj), dst, "seed {seed}");
            assert_eq!(sys.recovery.escaped(), 0, "seed {seed}");
        }
    }

    #[test]
    fn card_corruption_repairs_to_valid_bytes() {
        let (mut sys, mut heap, _, _) = setup(CorruptionSite::CardByte);
        let slot = heap.old().start();
        let cards = *heap.cards();
        cards.dirty(&mut heap.mem, slot);
        let card = cards.card_addr(slot);
        let end = after_card_dirty(&mut sys, &mut heap, 0, Ps::ZERO, card);
        assert!(end > Ps::ZERO);
        let block = VAddr(card.0 & !7);
        for i in 0..8 {
            let a = block.add_bytes(i);
            if cards.table_range().contains(a) {
                let b = heap.mem.read_u8(a);
                assert!(b == CLEAN || b == DIRTY, "byte {i} left invalid: {b:#x}");
            }
        }
        assert!(cards.is_dirty(&heap.mem, slot), "the dirtied card must stay dirty");
        assert_eq!(sys.recovery.escaped(), 0);
    }

    #[test]
    fn bitmap_corruption_found_at_verify_and_rebuilt() {
        let (mut sys, mut heap, obj, size) = setup(CorruptionSite::BitmapWord);
        let (beg, end_map) = (*heap.beg_map(), *heap.end_map());
        markbitmap::mark_object(&mut heap.mem, &beg, &end_map, obj, size);
        object::set_marked(&mut heap.mem, obj);
        after_mark(&mut sys, &mut heap, 0, Ps::ZERO, obj, size);
        let bi = CorruptionSite::BitmapWord.index();
        assert_eq!(sys.recovery.corrupt_injected[bi], 1);
        assert_eq!(sys.recovery.corrupt_detected[bi], 0, "deferred until verify");
        let t = verify_marks(&mut sys, &mut heap, 0, Ps::ZERO);
        assert!(t > Ps::ZERO, "rung-2 rebuild charges time");
        assert_eq!(sys.recovery.corrupt_detected[bi], 1);
        assert_eq!(sys.recovery.corrupt_repaired[bi], 1);
        assert!(sys.recovery.repair_rungs[1] >= 1);
        assert!(beg.get(&heap.mem, obj), "begin bit restored");
        assert!(end_map.get(&heap.mem, obj.add_words(size - 1)), "end bit restored");
        // The rest of both maps is clean again: counting over eden sees
        // exactly this object.
        assert_eq!(beg.count_range(&heap.mem, heap.eden().start(), heap.eden().top()), 1);
        assert_eq!(sys.recovery.escaped(), 0);
        // A second verify finds nothing new and charges nothing.
        assert_eq!(verify_marks(&mut sys, &mut heap, 0, Ps::ZERO), Ps::ZERO);
    }

    #[test]
    fn oracle_verifies_marks_immediately() {
        let (mut sys, mut heap, obj, size) = setup(CorruptionSite::BitmapWord);
        let cfg = IntegrityConfig { shadow_oracle: true, ..IntegrityConfig::default() };
        sys.enable_integrity(CorruptionSite::BitmapWord.arm(11, 1.0), cfg);
        let (beg, end_map) = (*heap.beg_map(), *heap.end_map());
        markbitmap::mark_object(&mut heap.mem, &beg, &end_map, obj, size);
        object::set_marked(&mut heap.mem, obj);
        let t = after_mark(&mut sys, &mut heap, 0, Ps::ZERO, obj, size);
        assert!(t > Ps::ZERO, "oracle repairs at the mark itself");
        let bi = CorruptionSite::BitmapWord.index();
        assert_eq!(sys.recovery.corrupt_detected[bi], 1);
        assert_eq!(sys.recovery.escaped(), 0);
    }

    #[test]
    fn repeated_detections_quarantine_the_unit() {
        let (mut sys, mut heap, obj, size) = setup(CorruptionSite::CopyPayload);
        let dst = heap.alloc_to(size * 4).expect("fits");
        for round in 0..3 {
            let d = dst.add_words(round * size);
            for w in 0..size {
                heap.mem.write_word(d.add_words(w), heap.mem.read_word(obj.add_words(w)));
            }
            after_copy(&mut sys, &mut heap, 0, Ps::ZERO, obj, d, size);
        }
        assert!(!sys.prim_offloads(PrimType::Copy), "rung 3 keeps Copy on the host");
        assert!(sys.prim_offloads(PrimType::Search), "other units untouched");
        assert_eq!(sys.recovery.repair_rungs[2], 1);
        assert_eq!(sys.recovery.quarantined_extents, 1);
        assert!(sys.unit_health()[PrimType::Copy.encode() as usize], "watchdog records the kill");
        // The quarantined site stops injecting: further copies are host
        // writes, which the corruption model trusts.
        let before = sys.recovery.corrupt_injected[CorruptionSite::CopyPayload.index()];
        after_copy(&mut sys, &mut heap, 0, Ps::ZERO, obj, dst, size);
        assert_eq!(sys.recovery.corrupt_injected[CorruptionSite::CopyPayload.index()], before);
    }

    /// Rung 3 kills the unit on the device and leaves the machine's mask
    /// alone: Copy stops reaching the device until a probe re-arms it.
    #[test]
    fn quarantine_is_the_device_verdict_not_a_mask_edit() {
        let (mut sys, mut heap, obj, size) = setup(CorruptionSite::CopyPayload);
        let built = sys.offload;
        let dst = heap.alloc_to(size * 3).expect("fits");
        for round in 0..3 {
            let d = dst.add_words(round * size);
            for w in 0..size {
                heap.mem.write_word(d.add_words(w), heap.mem.read_word(obj.add_words(w)));
            }
            after_copy(&mut sys, &mut heap, 0, Ps::ZERO, obj, d, size);
        }
        let pi = PrimType::Copy.encode() as usize;
        assert_eq!((sys.recovery.quarantined_extents, sys.recovery.degraded[pi]), (1, true));
        assert_eq!(sys.offload, built, "the quarantine leaves the mask alone");
        assert!(!sys.prim_offloads(PrimType::Copy));
        let offloads = |sys: &System| sys.device.as_ref().expect("device").stats().prim(PrimType::Copy).offloads;
        let before = offloads(&sys);
        let t = sys.prim_copy(0, Ps::ZERO, obj, dst, size * WORD_BYTES);
        assert_eq!(offloads(&sys), before, "a quarantined class is not offloaded to");
        sys.set_rearm(1);
        sys.gc_rearm_tick(t);
        assert_eq!((sys.offload, sys.recovery.degraded[pi]), (built, false));
        assert!(sys.prim_offloads(PrimType::Copy), "the probe lets Copy offload again");
        sys.prim_copy(0, t, obj, dst, size * WORD_BYTES);
        assert_eq!(offloads(&sys), before + 1, "the probe ran on the unit");
    }
}
