//! What the benchmark runs and what it reports: the six workloads and
//! every declared metric. `BENCHMARK.json` repeats these declarations for
//! the driver; a unit test keeps the two in step.

use charon_gc::collector::CollectorKind;

/// One workload × platform × collector run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellDef {
    /// Table 3 two-letter code.
    pub short: &'static str,
    /// A `charon_workloads::parmatrix::PLATFORM_LABELS` entry.
    pub platform: &'static str,
    pub collector: CollectorKind,
}

const fn ps(short: &'static str, platform: &'static str) -> CellDef {
    CellDef { short, platform, collector: CollectorKind::Ps }
}

const fn cms(short: &'static str, platform: &'static str) -> CellDef {
    CellDef { short, platform, collector: CollectorKind::Cms }
}

/// Which feature a cell must have exercised for its run to count
/// (check 5): a workload that stops exercising its feature is a failure,
/// not a fast run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requires {
    Nothing,
    /// At least one MajorGC.
    Majors,
    /// At least one MajorGC and one started concurrent-mark cycle.
    MajorsAndConcurrentCycles,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// Why the workload exists, in one line (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub cells: &'static [CellDef],
    pub requires: Requires,
    /// Cells go through `run_matrix(.., jobs = 2)` instead of one
    /// `run_workload` after another.
    pub matrix: bool,
}

/// Worker threads of the `paper-matrix` fan-out (= `nproc` of the box the
/// benchmark was sized on; never more).
pub const MATRIX_JOBS: usize = 2;

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "graph-functional",
        why: "PR on Ideal: primitives cost zero simulated time, so host time is mutator + functional heap walk; a device or EpochBw change must show nothing here",
        cells: &[ps("PR", "Ideal")],
        requires: Requires::Majors,
        matrix: false,
    },
    WorkloadDef {
        name: "graph-host",
        why: "PR on DDR4: the same spec as graph-functional, so the difference is the host cache/DRAM/EpochBw model under a random, miss-heavy pattern; no device",
        cells: &[ps("PR", "DDR4")],
        requires: Requires::Majors,
        matrix: false,
    },
    WorkloadDef {
        name: "graph-device",
        why: "PR on Charon: the same spec again with ~776k offloads through dispatch, units, MAI, TLB and bitmap cache; charon-core does most of the work here and none in the two above",
        cells: &[ps("PR", "Charon")],
        requires: Requires::Majors,
        matrix: false,
    },
    WorkloadDef {
        name: "spark-stream",
        why: "BS,KM,LR,ALS on DDR4 and Charon: few large reference-poor objects, so time goes to per-cache-line streaming and EpochBw batches, the host model used sequentially",
        cells: &[
            ps("BS", "DDR4"),
            ps("BS", "Charon"),
            ps("KM", "DDR4"),
            ps("KM", "Charon"),
            ps("LR", "DDR4"),
            ps("LR", "Charon"),
            ps("ALS", "DDR4"),
            ps("ALS", "Charon"),
        ],
        requires: Requires::Nothing,
        matrix: false,
    },
    WorkloadDef {
        name: "cms-sweep",
        why: "PR on Charon, BS and LR on DDR4 under the cms collector: non-moving mark/remark/sweep and free-list allocation, so a gain for moving collectors that costs concmark/freelist shows",
        cells: &[cms("PR", "Charon"), cms("BS", "DDR4"), cms("LR", "DDR4")],
        requires: Requires::MajorsAndConcurrentCycles,
        matrix: false,
    },
    WorkloadDef {
        name: "paper-matrix",
        why: "All six Table 3 workloads on DDR4 and Charon through run_matrix at 2 jobs: time-to-matrix, parallel efficiency, and the only place the paper's 3.29x / 60.7% references apply",
        cells: &[
            ps("BS", "DDR4"),
            ps("BS", "Charon"),
            ps("KM", "DDR4"),
            ps("KM", "Charon"),
            ps("LR", "DDR4"),
            ps("LR", "Charon"),
            ps("CC", "DDR4"),
            ps("CC", "Charon"),
            ps("PR", "DDR4"),
            ps("PR", "Charon"),
            ps("ALS", "DDR4"),
            ps("ALS", "Charon"),
        ],
        requires: Requires::Nothing,
        matrix: true,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics (host time and memory; `--trace 0`).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "host_s_per_sim_gc_s", unit: "s/s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A simulated count that must repeat bit-for-bit for one seed; a
    /// simulator-only change must leave it unchanged (`--compare` diffs
    /// these).
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

use Better::{Higher, Lower};

/// The per-layer metrics (`--trace 1`), grouped by the layer they watch.
/// README.md says which end-to-end metric each should move, and where.
pub const PER_LAYER: [PerLayer; 77] = [
    // The black-box passes of the traced run, for reference.
    host("pass.wall_ms", "ms"),
    host("pass.wall_median_ms", "ms"),
    exact("pass.cells", "count", Higher),
    // charon-heap
    host("heap.new_ms", "ms"),
    // charon-workloads::mutator
    host("mutator.new_ms", "ms"),
    host("mutator.build_resident_ms", "ms"),
    host("mutator.supersteps_ms", "ms"),
    host("mutator.superstep_max_ms", "ms"),
    exact("mutator.supersteps", "count", Higher),
    // charon-gc, functional
    host("gc.collector_new_ms", "ms"),
    host("gc.functional_floor_ms", "ms"),
    host("gc.functional_floor_pct", "%"),
    host("gc.minor_probe_ms", "ms"),
    host("gc.major_probe_ms", "ms"),
    host("gc.verify_ms", "ms"),
    exact("gc.bd_copy_pct", "%", Lower),
    exact("gc.bd_search_pct", "%", Lower),
    exact("gc.bd_scan_push_pct", "%", Lower),
    exact("gc.bd_bitmap_count_pct", "%", Lower),
    // charon-gc, cms
    exact("concmark.cycles", "count", Higher),
    exact("concmark.steps", "count", Higher),
    exact("concmark.conc_time_us", "us", Lower),
    exact("freelist.free_mb", "MB", Higher),
    exact("freelist.chunks", "count", Lower),
    // charon-sim host model
    host("model.host_ms", "ms"),
    host("gc.prim_copy_ns", "ns"),
    host("gc.prim_search_ns", "ns"),
    host("gc.prim_bitmap_count_ns", "ns"),
    host("sim.cache_access_ns", "ns"),
    exact("cache.l1_accesses", "count", Lower),
    exact("cache.l1_hit_pct", "%", Higher),
    exact("cache.l3_hit_pct", "%", Higher),
    exact("dram.ops", "count", Lower),
    exact("dram.mb", "MB", Lower),
    // charon-sim::bwres
    host("sim.bwres_reserve_ns", "ns"),
    exact("bwres.total_units", "count", Lower),
    exact("bwres.spilled_units", "count", Lower),
    exact("bwres.late_reservations", "count", Lower),
    // charon-core
    host("model.device_ms", "ms"),
    host("core.ns_per_offload", "ns"),
    exact("core.offloads", "count", Higher),
    exact("core.offloads_copy", "count", Higher),
    exact("core.offloads_search", "count", Higher),
    exact("core.offloads_bitmap", "count", Higher),
    exact("core.offloads_scan", "count", Higher),
    exact("core.unit_busy_us", "us", Lower),
    exact("core.queue_high_water", "count", Lower),
    exact("core.bitmap_cache_hit_pct", "%", Higher),
    exact("core.tlb_lookups", "count", Lower),
    exact("core.tlb_remote_lookups", "count", Lower),
    exact("core.mai_units", "count", Lower),
    // charon-workloads::parmatrix
    exact("parmatrix.cells", "count", Higher),
    host("parmatrix.cell_sum_s", "s"),
    PerLayer { name: "parmatrix.efficiency_pct", unit: "%", better: Higher, exact: false },
    host("parmatrix.critical_cell_s", "s"),
    // charon-sim::json / report
    host("json.render_ms", "ms"),
    host("json.parse_ms", "ms"),
    exact("json.bytes", "count", Lower),
    // The simulated machine: exact, an identity check for simulator-only changes.
    exact("sim.gc_time_us", "us", Lower),
    exact("sim.mutator_time_us", "us", Lower),
    exact("sim.minor_count", "count", Lower),
    exact("sim.major_count", "count", Lower),
    exact("sim.pause_max_us", "us", Lower),
    exact("sim.allocated_mb", "MB", Higher),
    exact("sim.gc_dram_mb", "MB", Lower),
    exact("sim.energy_uj", "uJ", Lower),
    PerLayer { name: "sim.gps_per_wall_s", unit: "Gps/s", better: Higher, exact: false },
    exact("sim.digest", "count", Higher),
    // The paper's references (paper-matrix only).
    exact("paper.charon_speedup_geomean", "x", Higher),
    exact("paper.charon_speedup_err_pct", "%", Lower),
    exact("paper.energy_saving_pct", "%", Higher),
    exact("paper.energy_err_pct", "%", Lower),
    // The harness itself.
    host("trace.overhead_pct", "%"),
    // How many rounds fit into `--seconds` moves these two.
    host("trace.spans", "count"),
    PerLayer { name: "trace.staged_passes", unit: "count", better: Higher, exact: false },
    exact("check.signatures_ok", "count", Higher),
    exact("check.twin_matches", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};
    use charon_sim::json::Json;
    use charon_workloads::parmatrix::PLATFORM_LABELS;
    use charon_workloads::spec::by_short;
    use std::collections::BTreeSet;

    #[test]
    fn every_declared_name_and_unit_is_legal_and_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in names {
            assert!(valid_name(name), "illegal name {name}");
            assert!(valid_unit(unit), "illegal unit {unit} of {name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(
            WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')),
            "a why is one line of ≤ 200 chars"
        );
    }

    #[test]
    fn every_cell_names_a_table3_workload_and_a_known_platform() {
        for w in WORKLOADS {
            assert!(!w.cells.is_empty());
            for c in w.cells {
                assert!(by_short(c.short).is_some(), "{}: unknown workload {}", w.name, c.short);
                assert!(PLATFORM_LABELS.contains(&c.platform), "{}: unknown platform {}", w.name, c.platform);
            }
        }
    }

    /// `BENCHMARK.json` ↔ catalog agreement: the driver reads the file,
    /// the binary emits from the catalog.
    #[test]
    fn benchmark_json_declares_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap_or("").to_string();
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} missing"))
                .to_vec()
        };

        let declared: Vec<_> = list("workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
        let catalog: Vec<_> = WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(declared, catalog);

        let declared: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better"), m.get("bound").and_then(Json::as_f64)))
            .collect();
        let catalog: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string(), Some(m.bound)))
            .collect();
        assert_eq!(declared, catalog);

        let declared: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let catalog: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string()))
            .collect();
        assert_eq!(declared, catalog);

        let paths = list("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("perfbench"));
    }
}
