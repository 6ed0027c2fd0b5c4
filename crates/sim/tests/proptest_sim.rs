//! Property tests over the timing substrate's invariants: resources never
//! serve faster than their configured rates, never travel back in time,
//! and caches never exceed their geometry.

use charon_sim::bwres::EpochBw;
use charon_sim::cache::{AccessKind, Cache};
use charon_sim::config::{CacheConfig, HmcConfig, SystemConfig};
use charon_sim::dram::{Ddr4Sim, DramOp, HmcSim};
use charon_sim::faults::{backoff, FaultSite, OFFLOAD_TIMEOUT};
use charon_sim::issue::Window;
use charon_sim::noc::{Noc, Node};
use charon_sim::time::{Bandwidth, Ps};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn epoch_bw_never_exceeds_rate(reqs in proptest::collection::vec((0u64..2_000_000, 1u64..4096), 1..200)) {
        let mut lane = EpochBw::from_bandwidth(Bandwidth::gbps(10.0), Ps::from_us(1.0));
        let mut total = 0u64;
        let mut last_done = Ps::ZERO;
        for &(start, bytes) in &reqs {
            let done = lane.reserve(Ps(start), bytes);
            // Completion is never before the request begins.
            prop_assert!(done >= Ps(start));
            total += bytes;
            last_done = last_done.max(done);
        }
        // Aggregate throughput cannot beat the configured rate by more
        // than one epoch's slack.
        let min_time = total as f64 / 10e9; // seconds at 10 GB/s
        prop_assert!(last_done.as_secs() + 1e-6 >= min_time,
            "served {} B by {} — faster than 10 GB/s", total, last_done);
    }

    #[test]
    fn epoch_bw_conserves_units(reqs in proptest::collection::vec((0u64..50_000_000, 1u64..100_000), 1..200)) {
        // total_units counts every unit ever reserved, and spilled units
        // (per-epoch bookkeeping folded out of the skew window) can never
        // exceed them.
        let mut lane = EpochBw::from_bandwidth(Bandwidth::gbps(80.0), Ps::from_us(1.0));
        let mut sum = 0u64;
        for &(start, units) in &reqs {
            lane.reserve(Ps(start), units);
            sum += units;
            let occ = lane.occupancy();
            prop_assert_eq!(occ.total_units, sum);
            prop_assert!(occ.spilled_units <= occ.total_units);
        }
    }

    #[test]
    fn epoch_bw_completion_monotone_in_units(
        history in proptest::collection::vec((0u64..2_000_000, 1u64..4096), 0..50),
        start in 0u64..2_000_000, units in 1u64..100_000, extra in 0u64..100_000
    ) {
        // With identical prior traffic, asking for more units never
        // completes earlier.
        let mut a = EpochBw::from_bandwidth(Bandwidth::gbps(80.0), Ps::from_us(1.0));
        let mut b = a.clone();
        for &(s, u) in &history {
            a.reserve(Ps(s), u);
            b.reserve(Ps(s), u);
        }
        let ta = a.reserve(Ps(start), units);
        let tb = b.reserve(Ps(start), units + extra);
        prop_assert!(tb >= ta, "{units}+{extra} units finished at {tb}, before {units} at {ta}");
    }

    #[test]
    fn epoch_bw_disjoint_arrivals_commute(
        raw in proptest::collection::vec((0u64..500, 0u64..1_000_000, 1u64..=80_000), 1..40)
    ) {
        // Requests landing in distinct epochs (each within one epoch's
        // capacity — 80 KB at 80 GB/s over 1 µs) never contend, so arrival
        // order must not change any completion time: out-of-order agent
        // clocks see no phantom queueing.
        let mut seen = std::collections::HashSet::new();
        let reqs: Vec<(Ps, u64)> = raw
            .into_iter()
            .filter(|&(e, _, _)| seen.insert(e))
            .map(|(e, off, u)| (Ps(e * 1_000_000 + off.min(999_999)), u))
            .collect();
        let mut fwd = EpochBw::from_bandwidth(Bandwidth::gbps(80.0), Ps::from_us(1.0));
        let mut rev = fwd.clone();
        let t_fwd: Vec<Ps> = reqs.iter().map(|&(s, u)| fwd.reserve(s, u)).collect();
        let mut t_rev = vec![Ps::ZERO; reqs.len()];
        for i in (0..reqs.len()).rev() {
            t_rev[i] = rev.reserve(reqs[i].0, reqs[i].1);
        }
        prop_assert_eq!(t_fwd, t_rev);
        prop_assert_eq!(fwd.occupancy(), rev.occupancy());
    }

    #[test]
    fn reserve_many_equals_repeated_reserve(
        prefill in 0u64..200_000, start in 0u64..2_000_000,
        units in 1u64..500_000, chunk in 1u64..5_000
    ) {
        // The batched API is a pure call-count optimization: same chunk
        // sequence, same completions, same occupancy.
        let mut a = EpochBw::from_bandwidth(Bandwidth::gbps(80.0), Ps::from_us(1.0));
        a.reserve(Ps::ZERO, prefill);
        let mut b = a.clone();
        let run = a.reserve_many(Ps(start), units, chunk);
        let mut first = None;
        let mut last = Ps(start);
        let mut rem = units;
        while rem > 0 {
            let take = rem.min(chunk);
            last = b.reserve(Ps(start), take);
            first.get_or_insert(last);
            rem -= take;
        }
        prop_assert_eq!(run.first, first.expect("units >= 1"));
        prop_assert_eq!(run.last, last);
        prop_assert_eq!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn window_preserves_issue_order_and_capacity(lat in proptest::collection::vec(1u64..200, 1..100), cap in 1usize..32) {
        let mut w = Window::new(cap, Ps(1000));
        let mut issues = Vec::new();
        let mut now = Ps::ZERO;
        for &l in &lat {
            let t = w.issue(now);
            prop_assert!(t >= now, "issue went backwards");
            w.complete(t + Ps(l * 1000));
            prop_assert!(w.in_flight() <= cap);
            issues.push(t);
            now = t;
        }
        // Issue times are non-decreasing and at least 1 ns apart.
        for pair in issues.windows(2) {
            prop_assert!(pair[1].0 >= pair[0].0 + 1000);
        }
    }

    #[test]
    fn cache_residency_never_exceeds_capacity(addrs in proptest::collection::vec(0u64..(1 << 22), 1..600)) {
        let cfg = CacheConfig { size_bytes: 4096, ways: 4, block_bytes: 64, latency_cycles: 1 };
        let mut c = Cache::new("prop", cfg);
        for (i, &a) in addrs.iter().enumerate() {
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            c.access(a, kind);
            prop_assert!(c.resident_lines() <= 64); // 4096/64
        }
        // A flush empties it and reports no more dirty lines than resident.
        let resident = c.resident_lines() as u64;
        let (flushed, dirty) = c.flush_all();
        prop_assert_eq!(flushed, resident);
        prop_assert!(dirty <= flushed);
        prop_assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn dram_completion_is_monotone_wrt_request_time(paddr in 0u64..(1 << 24), delta in 0u64..1_000_000) {
        // Later-arriving identical requests never finish earlier.
        let mut a = Ddr4Sim::new(SystemConfig::table2_ddr4().ddr4);
        let t1 = a.access(paddr, 64, DramOp::Read, Ps::ZERO);
        let mut b = Ddr4Sim::new(SystemConfig::table2_ddr4().ddr4);
        let t2 = b.access(paddr, 64, DramOp::Read, Ps(delta));
        prop_assert!(t2 >= t1);
        prop_assert!(t2.0 - delta <= t1.0, "latency must not grow with idle start time");
    }

    #[test]
    fn hmc_accesses_route_to_the_owning_cube(paddr in 0u64..(1 << 26)) {
        let cfg = SystemConfig::table2_hmc().hmc;
        let mut h = HmcSim::new(cfg);
        let before = h.per_cube_bytes().to_vec();
        h.vault_access(paddr, 128, DramOp::Write, Ps::ZERO);
        let after = h.per_cube_bytes().to_vec();
        let cube = cfg.cube_of(paddr);
        for c in 0..cfg.cubes {
            let grew = after[c] - before[c];
            prop_assert_eq!(grew, if c == cube { 128 } else { 0 });
        }
    }

    #[test]
    fn batched_vault_reads_equal_the_per_packet_loop(
        busy in proptest::collection::vec((0u64..(1 << 22), 1u32..=256, any::<bool>(), 0u64..2_000_000), 0..48),
        base in 0u64..(1 << 22), bytes in 1u64..(1 << 16), start in 0u64..2_000_000,
    ) {
        // `vault_access_run` folds a read run's same-start packets into
        // one bus reservation per vault; on twin models whose banks the
        // same earlier traffic left open and busy, that equals one
        // `vault_access` per packet at every bank count and interleave.
        for banks_per_vault in [4, 8, 12, 16, 32] {
            for cube_interleave_bits in [12, 16, 20] {
                let cfg = HmcConfig { banks_per_vault, cube_interleave_bits, ..HmcConfig::table2() };
                let mut batched = HmcSim::new(cfg);
                for &(paddr, len, write, at) in &busy {
                    let op = if write { DramOp::Write } else { DramOp::Read };
                    batched.vault_access(paddr, len, op, Ps(at));
                }
                let mut looped = batched.clone();
                let run = batched.vault_access_run(base, bytes, DramOp::Read, Ps(start));
                let packet = u64::from(cfg.max_access_bytes);
                let mut first = None;
                let mut last = Ps::ZERO;
                for off in (0..bytes).step_by(packet as usize) {
                    let len = (bytes - off).min(packet) as u32;
                    let t = looped.vault_access(base + off, len, DramOp::Read, Ps(start));
                    first.get_or_insert(t);
                    last = last.max(t);
                }
                prop_assert_eq!(run.first, first.expect("bytes >= 1"));
                prop_assert_eq!(run.last, last);
                prop_assert_eq!(batched.traffic(), looped.traffic());
                prop_assert_eq!(batched.per_cube_bytes(), looped.per_cube_bytes());
                prop_assert_eq!(batched.occupancy(), looped.occupancy());
            }
        }
    }

    #[test]
    fn retry_bursts_never_beat_the_metered_rate(
        offloads in proptest::collection::vec((0u64..2_000_000, 1u64..4096, 0u32..5), 1..100)
    ) {
        // Each failed offload re-reserves link bandwidth at
        // timeout-plus-backoff spacing. However dense the retry bursts
        // get, the epoch meter still cannot serve past its configured
        // rate, never travels backwards, and loses no reservation.
        let mut lane = EpochBw::from_bandwidth(Bandwidth::gbps(10.0), Ps::from_us(1.0));
        let mut total = 0u64;
        let mut last_done = Ps::ZERO;
        for &(start, bytes, attempts) in &offloads {
            let mut t = Ps(start);
            for attempt in 0..=attempts {
                let done = lane.reserve(t, bytes);
                prop_assert!(done >= t, "retry completion went backwards: {done} < {t}");
                total += bytes;
                last_done = last_done.max(done);
                t = done.max(t + OFFLOAD_TIMEOUT) + backoff(attempt);
            }
        }
        let min_time = total as f64 / 10e9; // seconds at 10 GB/s
        prop_assert!(last_done.as_secs() + 1e-6 >= min_time,
            "retries pushed {} B through by {} — past the 10 GB/s meter", total, last_done);
        prop_assert_eq!(lane.occupancy().total_units, total);
    }

    #[test]
    fn fault_injector_replays_and_respects_zero_rates(
        seed in any::<u64>(), site in 0usize..5, p_milli in 0u32..=1000, rolls in 1usize..300
    ) {
        // Same seed, site and rate → the same fault schedule, roll for
        // roll; and a zero-rate injector never fires no matter the seed.
        let site = FaultSite::ALL[site];
        let p = f64::from(p_milli) / 1000.0;
        let (mut a, mut b) = (site.arm(seed, p), site.arm(seed, p));
        for _ in 0..rolls {
            prop_assert_eq!(a.roll(), b.roll());
        }
        prop_assert_eq!(a.injected(), b.injected());
        let mut z = site.arm(seed, 0.0);
        for _ in 0..rolls {
            prop_assert_eq!(z.roll(), None);
        }
    }

    #[test]
    fn noc_send_is_never_free_between_distinct_nodes(
        from in 0usize..4, to in 0usize..4, bytes in 1u32..4096, start in 0u64..1_000_000
    ) {
        let mut n = Noc::new(&SystemConfig::table2_hmc().hmc);
        let (f, t) = (Node::Cube(from), Node::Cube(to));
        let done = n.send(f, t, bytes, Ps(start), false);
        if from == to {
            prop_assert_eq!(done, Ps(start));
        } else {
            // At least one 3 ns hop plus serialization.
            prop_assert!(done >= Ps(start) + Ps::from_ns(3.0));
        }
    }
}
