//! Per-layer attribution: counters read off the libraries' public stats,
//! and the probes and micro loops of the traced pass.

use crate::driver::{functional_counts, run_staged, stage, Cell, Staged};
use crate::spans::{Tracer, NO_CELL};
use crate::stats::geomean;
use charon_core::packet::PrimType;
use charon_gc::breakdown::Bucket;
use charon_gc::collector::Collector;
use charon_gc::verify::graph_signature;
use charon_heap::heap::JavaHeap;
use charon_sim::bwres::EpochBw;
use charon_sim::cache::{AccessKind, Cache};
use charon_sim::config::HostConfig;
use charon_sim::json::Json;
use charon_sim::time::{Bandwidth, Ps};
use charon_workloads::parmatrix::simulated_span_ps;
use charon_workloads::RunResult;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Span names of the attribution work around a staged cell.
pub mod probe {
    pub const TWIN: &str = "twin";
    pub const VERIFY: &str = "gc.verify";
    pub const MINOR: &str = "gc.minor_probe";
    pub const MAJOR: &str = "gc.major_probe";
    pub const PRIM_COPY: &str = "gc.prim_copy";
    pub const PRIM_SEARCH: &str = "gc.prim_search";
    pub const PRIM_BITMAP_COUNT: &str = "gc.prim_bitmap_count";
    pub const JSON_RENDER: &str = "json.render";
    pub const JSON_PARSE: &str = "json.parse";
    pub const CACHE_LOOP: &str = "sim.cache_access";
    pub const BWRES_LOOP: &str = "sim.bwres_reserve";
}

/// Calls of each fixed-argument primitive loop.
const PRIM_CALLS: u64 = 2_000;
/// Operations of each micro loop (as in the `primitives_micro` bench).
const MICRO_OPS: u64 = 1_000_000;

/// The paper's headline references (§5): Charon-over-DDR4 GC speed-up
/// geomean and average GC energy saving. Per-workload paper bars are not
/// in the repository, so no per-workload error is given.
const PAPER_SPEEDUP: f64 = 3.29;
const PAPER_ENERGY_SAVING_PCT: f64 = 60.7;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Sums over the cells of one workload run.
#[derive(Debug, Default)]
pub struct Layers {
    cells: u64,
    gc_time_ps: u64,
    mutator_time_ps: u64,
    sim_span_ps: u64,
    minor_count: u64,
    major_count: u64,
    pause_max_ps: u64,
    allocated_bytes: u64,
    gc_dram_bytes: u64,
    energy_j: f64,
    /// The fingerprint of every cell, in workload order (`sim.digest`
    /// folds these bytes).
    fingerprints: Vec<u8>,
    bucket_ps: BTreeMap<Bucket, u64>,
    breakdown_ps: u64,
    dram_ops: u64,
    dram_bytes: u64,
    bw_total: u64,
    bw_spilled: u64,
    bw_late: u64,
    offloads: [u64; 4],
    unit_busy_ps: u64,
    queue_high_water: u64,
    bitmap_cache_hits: u64,
    bitmap_cache_accesses: u64,
    // From the staged end state only (the black-box result does not carry them).
    l1_hits: u64,
    l1_accesses: u64,
    l3_hits: u64,
    l3_accesses: u64,
    tlb_lookups: u64,
    tlb_remote: u64,
    mai_units: u64,
    concmark_cycles: u64,
    concmark_steps: u64,
    concmark_time_ps: u64,
    free_bytes: u64,
    free_chunks: u64,
    // Host time of the attribution work.
    prim_copy_ns: Vec<f64>,
    prim_search_ns: Vec<f64>,
    prim_bitmap_count_ns: Vec<f64>,
    json_bytes: u64,
    /// Cells whose end-of-run heap verified (check 3, first half).
    pub signatures_ok: u64,
    /// Cells whose heap signature and functional counts equal their Ideal
    /// twin's (check 3, second half; ps only).
    pub twin_matches: u64,
    /// DDR4→Charon pairs for the paper references.
    speedups: Vec<f64>,
    energy_savings: Vec<f64>,
}

impl Layers {
    /// Everything a black-box [`RunResult`] carries. Cells are added in
    /// workload order, which the digest depends on.
    pub fn add_result(&mut self, r: &RunResult) {
        self.cells += 1;
        self.gc_time_ps += r.gc_time.0;
        self.mutator_time_ps += r.mutator_time.0;
        self.sim_span_ps += simulated_span_ps(r);
        self.minor_count += r.minor.1 as u64;
        self.major_count += r.major.1 as u64;
        self.allocated_bytes += r.allocated_bytes;
        self.gc_dram_bytes += r.gc_dram_bytes;
        self.energy_j += r.energy.total_j();
        let (workload, platform, gc_ps, minors, majors, allocated) = r.fingerprint();
        self.fingerprints.extend(workload.bytes().chain(platform.bytes()));
        for part in [gc_ps, minors as u64, majors as u64, allocated] {
            self.fingerprints.extend(part.to_le_bytes());
        }
        for breakdown in [&r.minor_breakdown, &r.major_breakdown] {
            self.breakdown_ps += breakdown.total().0;
            for bucket in Bucket::ALL {
                *self.bucket_ps.entry(bucket).or_default() += breakdown.get(bucket).0;
            }
        }
        self.dram_ops += r.traffic.dram.total_ops();
        self.dram_bytes += r.traffic.dram.total_bytes();
        self.bw_total += r.traffic.bw.total_units;
        self.bw_spilled += r.traffic.bw.spilled_units;
        self.bw_late += r.traffic.bw.late_reservations;
        if let Some(dev) = &r.device {
            for (slot, prim) in self.offloads.iter_mut().zip(PrimType::ALL) {
                *slot += dev.prim(prim).offloads;
            }
            self.unit_busy_ps += dev.total_busy().0;
            self.queue_high_water = dev
                .units
                .iter()
                .map(|u| u.queue_high_water)
                .fold(self.queue_high_water, u64::max);
        }
        if let Some(bc) = &r.bitmap_cache {
            self.bitmap_cache_hits += bc.hits;
            self.bitmap_cache_accesses += bc.accesses();
        }
    }

    /// What only the staged end state shows.
    pub fn add_state(&mut self, gc: &Collector) {
        let (l1, _, l3) = gc.sys.host.cache_stats();
        self.l1_hits += l1.hits;
        self.l1_accesses += l1.accesses();
        self.l3_hits += l3.hits;
        self.l3_accesses += l3.accesses();
        if let Some(dev) = &gc.sys.device {
            let (lookups, remote) = dev.tlb_stats();
            self.tlb_lookups += lookups;
            self.tlb_remote += remote;
            self.mai_units += dev.mai_occupancy().total_units;
        }
        self.pause_max_ps = gc.events.iter().map(|e| e.wall.0).fold(self.pause_max_ps, u64::max);
        self.concmark_cycles += gc.concmark.cycles_started;
        self.concmark_steps += gc.concmark.steps;
        self.concmark_time_ps += gc.concmark.conc_time.0;
        let free = gc.free.occupancy();
        self.free_bytes += free.free_words * 8;
        self.free_chunks += free.chunks;
    }

    /// Pairs DDR4 and Charon results of one spec for the paper's
    /// references (`paper-matrix`; other workloads pair nothing).
    pub fn add_paper_pairs(&mut self, results: &[RunResult]) {
        for ddr4 in results.iter().filter(|r| r.platform == "DDR4") {
            let Some(charon) = results.iter().find(|r| r.platform == "Charon" && r.workload == ddr4.workload) else {
                continue;
            };
            self.speedups.push(ddr4.gc_time.0 as f64 / charon.gc_time.0.max(1) as f64);
            self.energy_savings.push(1.0 - charon.energy.total_j() / ddr4.energy.total_j());
        }
    }

    /// Simulated and counted metrics by name.
    pub fn counters(&self) -> Vec<(&'static str, f64)> {
        let pct = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 * 100.0 / whole as f64 };
        let bucket = |b: Bucket| pct(self.bucket_ps.get(&b).copied().unwrap_or(0), self.breakdown_ps);
        let mb = |bytes: u64| bytes as f64 / (1 << 20) as f64;
        let us = |ps: u64| ps as f64 / 1e6;
        let offloads: u64 = self.offloads.iter().sum();
        let digest = fnv64(&self.fingerprints);
        let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
        let (speedup, speedup_err, saving, saving_err) = if self.speedups.is_empty() {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            let speedup = geomean(&self.speedups);
            let saving = mean(&self.energy_savings) * 100.0;
            (
                speedup,
                (speedup - PAPER_SPEEDUP).abs() * 100.0 / PAPER_SPEEDUP,
                saving,
                (saving - PAPER_ENERGY_SAVING_PCT).abs() * 100.0 / PAPER_ENERGY_SAVING_PCT,
            )
        };
        vec![
            ("pass.cells", self.cells as f64),
            ("gc.bd_copy_pct", bucket(Bucket::Copy)),
            ("gc.bd_search_pct", bucket(Bucket::Search)),
            ("gc.bd_scan_push_pct", bucket(Bucket::ScanPush)),
            ("gc.bd_bitmap_count_pct", bucket(Bucket::BitmapCount)),
            ("concmark.cycles", self.concmark_cycles as f64),
            ("concmark.steps", self.concmark_steps as f64),
            ("concmark.conc_time_us", us(self.concmark_time_ps)),
            ("freelist.free_mb", mb(self.free_bytes)),
            ("freelist.chunks", self.free_chunks as f64),
            ("gc.prim_copy_ns", mean(&self.prim_copy_ns)),
            ("gc.prim_search_ns", mean(&self.prim_search_ns)),
            ("gc.prim_bitmap_count_ns", mean(&self.prim_bitmap_count_ns)),
            ("cache.l1_accesses", self.l1_accesses as f64),
            ("cache.l1_hit_pct", pct(self.l1_hits, self.l1_accesses)),
            ("cache.l3_hit_pct", pct(self.l3_hits, self.l3_accesses)),
            ("dram.ops", self.dram_ops as f64),
            ("dram.mb", mb(self.dram_bytes)),
            ("bwres.total_units", self.bw_total as f64),
            ("bwres.spilled_units", self.bw_spilled as f64),
            ("bwres.late_reservations", self.bw_late as f64),
            ("core.offloads", offloads as f64),
            ("core.offloads_copy", self.offloads[PrimType::Copy as usize] as f64),
            ("core.offloads_search", self.offloads[PrimType::Search as usize] as f64),
            ("core.offloads_bitmap", self.offloads[PrimType::BitmapCount as usize] as f64),
            ("core.offloads_scan", self.offloads[PrimType::ScanPush as usize] as f64),
            ("core.unit_busy_us", us(self.unit_busy_ps)),
            ("core.queue_high_water", self.queue_high_water as f64),
            ("core.bitmap_cache_hit_pct", pct(self.bitmap_cache_hits, self.bitmap_cache_accesses)),
            ("core.tlb_lookups", self.tlb_lookups as f64),
            ("core.tlb_remote_lookups", self.tlb_remote as f64),
            ("core.mai_units", self.mai_units as f64),
            ("json.bytes", self.json_bytes as f64),
            ("sim.gc_time_us", us(self.gc_time_ps)),
            ("sim.mutator_time_us", us(self.mutator_time_ps)),
            ("sim.minor_count", self.minor_count as f64),
            ("sim.major_count", self.major_count as f64),
            ("sim.pause_max_us", us(self.pause_max_ps)),
            ("sim.allocated_mb", mb(self.allocated_bytes)),
            ("sim.gc_dram_mb", mb(self.gc_dram_bytes)),
            ("sim.energy_uj", self.energy_j * 1e6),
            ("sim.digest", ((digest >> 32) ^ (digest & 0xffff_ffff)) as f64),
            ("paper.charon_speedup_geomean", speedup),
            ("paper.charon_speedup_err_pct", speedup_err),
            ("paper.energy_saving_pct", saving),
            ("paper.energy_err_pct", saving_err),
            ("check.signatures_ok", self.signatures_ok as f64),
            ("check.twin_matches", self.twin_matches as f64),
        ]
    }

    /// Simulated giga-picoseconds advanced per host second (the old
    /// self-speed currency), over `wall_s` host seconds.
    pub fn gps_per_wall_s(&self, wall_s: f64) -> f64 {
        self.sim_span_ps as f64 / 1e9 / wall_s
    }

    pub fn offloads(&self) -> u64 {
        self.offloads.iter().sum()
    }
}

/// Renders a result to JSON text and parses it back, one span each.
pub fn json_round_trip(result: &RunResult, run_id: usize, layers: &mut Layers, tr: &mut Tracer) -> Result<(), String> {
    let text = tr.time(probe::JSON_RENDER, run_id, || result.to_json().to_string());
    layers.json_bytes += text.len() as u64;
    tr.time(probe::JSON_PARSE, run_id, || Json::parse(&text).map(|_| ()).map_err(|e| e.to_string()))
}

/// Average host nanoseconds of one call in a loop of `calls`.
fn per_call_ns(tr: &mut Tracer, name: &'static str, run_id: usize, calls: u64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    tr.time(name, run_id, || {
        for _ in 0..calls {
            f();
        }
    });
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// Fixed-argument loops through `System::prim_*` on the cell's own
/// system (whatever path its platform takes: host model, device, or
/// Ideal's nothing): a 4 KiB copy, a 4 KiB card search, one 64 KiB
/// begin/end bitmap span. Each call starts when the previous one ended.
fn prim_loops(heap: &JavaHeap, gc: &mut Collector, run_id: usize, layers: &mut Layers, tr: &mut Tracer) {
    let layout = heap.layout().clone();
    let sys = &mut gc.sys;
    let mut now = gc.now;
    let (src, dst) = (layout.old.start, layout.eden.start);
    layers
        .prim_copy_ns
        .push(per_call_ns(tr, probe::PRIM_COPY, run_id, PRIM_CALLS, || {
            now = black_box(sys.prim_copy(0, now, src, dst, 4096));
        }));
    let cards = layout.cards.start;
    layers
        .prim_search_ns
        .push(per_call_ns(tr, probe::PRIM_SEARCH, run_id, PRIM_CALLS, || {
            now = black_box(sys.prim_search(0, now, cards, 4096));
        }));
    let spans = [(layout.beg_map.start, 64 << 10), (layout.end_map.start, 64 << 10)];
    layers
        .prim_bitmap_count_ns
        .push(per_call_ns(tr, probe::PRIM_BITMAP_COUNT, run_id, PRIM_CALLS, || {
            now = black_box(sys.prim_bitmap_count(0, now, &spans));
        }));
}

/// The spec's Ideal twin, staged, inside one `twin` span: its wall is
/// the cell's functional floor.
pub fn run_twin(cell: &Cell, twin_id: usize, tr: &mut Tracer) -> Result<Staged, String> {
    let outer = tr.begin(probe::TWIN, twin_id);
    let twin = run_staged(&cell.ideal_twin(), twin_id, tr);
    tr.end(outer);
    twin.map_err(|e| format!("Ideal twin: {e}"))
}

/// The attribution work of one cell, done while its staged end state and
/// its twin's are alive: check 3, explicit minor/major probes on the
/// twin's end-of-run heap, the primitive loops on the cell's own system,
/// and the JSON round trip. Every span of it carries `twin_id`.
pub fn attribute_cell(
    cell: &Cell,
    staged: &mut Staged,
    twin: &mut Staged,
    twin_id: usize,
    layers: &mut Layers,
    tr: &mut Tracer,
) -> Result<(), String> {
    layers.add_state(&staged.gc);
    json_round_trip(&staged.result, twin_id, layers, tr)?;
    prim_loops(&staged.heap, &mut staged.gc, twin_id, layers, tr);

    let (own, other) = tr.time(probe::VERIFY, twin_id, || (graph_signature(&staged.heap), graph_signature(&twin.heap)));
    let (own, _) = own.map_err(|e| format!("end-of-run heap: {e}"))?;
    let (other, _) = other.map_err(|e| format!("Ideal twin's end-of-run heap: {e}"))?;
    layers.signatures_ok += 1;
    // The functional result is platform-independent under ps. The cms
    // marker is paced by simulated time, so a cms cell and its twin may
    // collect at different points; their heaps are only required to verify.
    if cell.collector == charon_gc::collector::CollectorKind::Ps {
        if own != other {
            return Err(format!("heap signature {own:#x} differs from the Ideal twin's {other:#x}"));
        }
        if functional_counts(&staged.result) != functional_counts(&twin.result) {
            return Err("minor/major/allocated counts differ from the Ideal twin's".to_string());
        }
        layers.twin_matches += 1;
    }

    tr.time(probe::MINOR, twin_id, || {
        twin.gc.minor_gc(&mut twin.heap);
    });
    tr.time(probe::MAJOR, twin_id, || {
        twin.gc.major_gc(&mut twin.heap);
    });
    Ok(())
}

/// The two 1 M-operation micro loops of the `primitives_micro` bench:
/// `Cache::access` and `EpochBw::reserve`. Returns ns per operation.
pub fn micro_loops(tr: &mut Tracer) -> (f64, f64) {
    let mut cache = Cache::new("l1", HostConfig::table2().l1d);
    let mut addr = 0u64;
    let cache_ns = per_call_ns(tr, probe::CACHE_LOOP, NO_CELL, MICRO_OPS, || {
        addr = addr.wrapping_add(64);
        black_box(cache.access(addr % (1 << 20), AccessKind::Read));
    });
    let mut lane = EpochBw::from_bandwidth(Bandwidth::gbps(80.0), Ps::from_us(1.0));
    let mut t = 0u64;
    let bwres_ns = per_call_ns(tr, probe::BWRES_LOOP, NO_CELL, MICRO_OPS, || {
        t = t.wrapping_add(100_000);
        black_box(lane.reserve(Ps(t % 1_000_000_000), 256));
    });
    (cache_ns, bwres_ns)
}

/// Host milliseconds of the JSON round trips recorded so far.
pub fn json_metrics(tr: &Tracer) -> [(&'static str, f64); 2] {
    let total = |name: &str| -> f64 {
        tr.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    };
    [("json.render_ms", total(probe::JSON_RENDER)), ("json.parse_ms", total(probe::JSON_PARSE))]
}

/// Host-time metrics read off the spans of the chosen runs: `staged_ids`
/// are the fastest staged run of each cell, `twin_ids` its fastest twin,
/// `probe_ids` the ids its attribution work carries (all in cell order),
/// and `platforms[i]` says which timing model cell `i` exercises.
pub fn span_metrics(
    tr: &Tracer,
    staged_ids: &[usize],
    twin_ids: &[usize],
    probe_ids: &[usize],
    platforms: &[&str],
) -> Vec<(&'static str, f64)> {
    let total = |name: &str, ids: &[usize]| -> f64 {
        tr.spans()
            .iter()
            .filter(|s| s.name == name && ids.contains(&s.cell))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    };
    let of = |name: &str, id: usize| total(name, &[id]);
    let step_max = tr
        .spans()
        .iter()
        .filter(|s| s.name == stage::SUPERSTEP && staged_ids.contains(&s.cell))
        .map(|s| s.duration_ns() as f64 / 1e6)
        .fold(0.0, f64::max);
    let steps = tr
        .spans()
        .iter()
        .filter(|s| s.name == stage::SUPERSTEP && staged_ids.contains(&s.cell))
        .count();
    let staged_ms = total(stage::CELL, staged_ids);
    let floor_ms = total(probe::TWIN, twin_ids);
    let mut host_ms = 0.0;
    let mut device_ms = 0.0;
    for ((&id, &twin), &platform) in staged_ids.iter().zip(twin_ids).zip(platforms) {
        let above_floor = of(stage::CELL, id) - of(probe::TWIN, twin);
        match platform {
            "DDR4" | "HMC" => host_ms += above_floor,
            "Charon" | "Charon-CPU-side" => device_ms += above_floor,
            _ => {}
        }
    }
    vec![
        ("heap.new_ms", total(stage::HEAP_NEW, staged_ids)),
        ("mutator.new_ms", total(stage::MUTATOR_NEW, staged_ids)),
        ("mutator.build_resident_ms", total(stage::BUILD_RESIDENT, staged_ids)),
        ("mutator.supersteps_ms", total(stage::SUPERSTEP, staged_ids)),
        ("mutator.superstep_max_ms", step_max),
        ("mutator.supersteps", steps as f64),
        ("gc.collector_new_ms", total(stage::COLLECTOR_NEW, staged_ids)),
        ("gc.functional_floor_ms", floor_ms),
        ("gc.functional_floor_pct", if staged_ms > 0.0 { floor_ms * 100.0 / staged_ms } else { 0.0 }),
        ("gc.minor_probe_ms", total(probe::MINOR, probe_ids)),
        ("gc.major_probe_ms", total(probe::MAJOR, probe_ids)),
        ("gc.verify_ms", total(probe::VERIFY, probe_ids)),
        ("model.host_ms", host_ms),
        ("model.device_ms", device_ms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{CellDef, PER_LAYER};
    use crate::driver::run_blackbox;
    use charon_gc::collector::CollectorKind;

    fn quick(short: &'static str, platform: &'static str, collector: CollectorKind) -> Cell {
        Cell::new(&CellDef { short, platform, collector }, 0).with_supersteps(3)
    }

    #[test]
    fn counters_and_span_metrics_are_all_declared() {
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        let layers = Layers::default();
        let tr = Tracer::new();
        for (name, _) in layers
            .counters()
            .into_iter()
            .chain(span_metrics(&tr, &[], &[], &[], &[]))
            .chain(json_metrics(&tr))
        {
            assert!(declared.contains(&name), "{name} is emitted but not declared");
        }
    }

    #[test]
    fn digest_depends_on_every_cell_and_repeats() {
        let a = run_blackbox(&quick("KM", "DDR4", CollectorKind::Ps)).0.unwrap();
        let b = run_blackbox(&quick("KM", "Charon", CollectorKind::Ps)).0.unwrap();
        let digest = |rs: &[&RunResult]| {
            let mut l = Layers::default();
            rs.iter().for_each(|r| l.add_result(r));
            l.counters().into_iter().find(|(n, _)| *n == "sim.digest").unwrap().1
        };
        assert_eq!(digest(&[&a, &b]), digest(&[&a, &b]));
        assert_ne!(digest(&[&a, &b]), digest(&[&a]));
        assert_ne!(digest(&[&a, &b]), digest(&[&b, &a]));
        assert!(digest(&[&a]) <= f64::from(u32::MAX));
    }

    #[test]
    fn device_counters_are_zero_off_device_and_positive_on_it() {
        let host = run_blackbox(&quick("KM", "DDR4", CollectorKind::Ps)).0.unwrap();
        let dev = run_blackbox(&quick("KM", "Charon", CollectorKind::Ps)).0.unwrap();
        let mut on_host = Layers::default();
        on_host.add_result(&host);
        assert_eq!(on_host.offloads(), 0);
        let mut on_dev = Layers::default();
        on_dev.add_result(&dev);
        assert!(on_dev.offloads() > 0);
        on_dev.add_paper_pairs(&[host.clone(), dev.clone()]);
        let get = |l: &Layers, name: &str| l.counters().into_iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get(&on_dev, "paper.charon_speedup_geomean") > 1.0);
        assert_eq!(get(&on_host, "paper.charon_speedup_geomean"), 0.0);
        assert!(get(&on_host, "dram.ops") > 0.0 && get(&on_host, "bwres.total_units") > 0.0);
    }

    #[test]
    fn attribution_runs_the_twin_and_the_probes() {
        for (cell, twins_match) in
            [(quick("BS", "Charon", CollectorKind::Ps), 1), (quick("BS", "DDR4", CollectorKind::Cms), 0)]
        {
            let mut tr = Tracer::new();
            let mut layers = Layers::default();
            let mut staged = run_staged(&cell, 0, &mut tr).unwrap();
            layers.add_result(&staged.result);
            let mut twin = run_twin(&cell, 1, &mut tr).unwrap();
            attribute_cell(&cell, &mut staged, &mut twin, 1, &mut layers, &mut tr).unwrap();
            assert_eq!((layers.signatures_ok, layers.twin_matches), (1, twins_match), "{}", cell.label());
            for name in [probe::TWIN, probe::VERIFY, probe::MINOR, probe::MAJOR, probe::PRIM_COPY, probe::JSON_PARSE] {
                assert_eq!(tr.count(name), 1, "{name}");
            }
            let m: BTreeMap<_, _> = span_metrics(&tr, &[0], &[1], &[1], &[cell.platform]).into_iter().collect();
            assert_eq!(m["mutator.supersteps"], 3.0);
            assert!(m["gc.functional_floor_ms"] > 0.0 && m["gc.major_probe_ms"] > 0.0);
            assert!(layers.json_bytes > 0 && layers.l1_accesses > 0);
        }
    }

    #[test]
    fn micro_loops_report_positive_ns() {
        let mut tr = Tracer::new();
        let (cache_ns, bwres_ns) = micro_loops(&mut tr);
        assert!(cache_ns > 0.0 && bwres_ns > 0.0);
        assert_eq!(tr.count(probe::CACHE_LOOP) + tr.count(probe::BWRES_LOOP), 2);
    }
}
