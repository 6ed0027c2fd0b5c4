//! Shape-regression tests for the paper's *offload benefit* claims —
//! Figs. 12/13/14/17, the ones that compare full-length DDR4 runs against
//! HMC and Charon runs of the same workloads. Each asserted number is
//! computed with the fold `charon-cli paper` reports it with
//! (`charon::workloads::paper`).
//!
//! Split out of `paper_claims.rs` into its own binary so the two halves
//! of the claim suite run concurrently under `cargo test` (test binaries
//! run one after another; tests inside a binary run on threads).

use charon::gc::breakdown::Bucket;
use charon::workloads::paper::{bucket_speedup, energy_saving, geomean, run_cells, speedup, Cell};
use charon::workloads::RunResult;
use std::sync::OnceLock;

/// `workload` on `platform`. The nine cells the claims below read run
/// once, on two threads, and every test shares them.
fn cell(workload: &'static str, platform: &'static str) -> &'static RunResult {
    static RUNS: OnceLock<Vec<(Cell, RunResult)>> = OnceLock::new();
    let runs = RUNS.get_or_init(|| {
        let cells: Vec<Cell> = ["BS", "LR", "ALS"]
            .iter()
            .flat_map(|w| ["DDR4", "HMC", "Charon"].map(|p| Cell::new(w, p)))
            .collect();
        cells
            .iter()
            .cloned()
            .zip(run_cells(&cells, 2))
            .map(|(c, r)| (c, r.expect("no OOM")))
            .collect()
    });
    let found = runs.iter().find(|(c, _)| *c == Cell::new(workload, platform));
    &found.expect("one of the nine cells").1
}

#[test]
fn fig12_shape_charon_beats_hmc_beats_ddr4() {
    // Paper: geomeans 1.21x (HMC) and 3.29x (Charon) over DDR4.
    let picks = ["BS", "LR", "ALS"];
    let geo = |p| geomean(&picks.map(|w| speedup(cell(w, "DDR4"), cell(w, p))));
    let (hmc_g, charon_g) = (geo("HMC"), geo("Charon"));
    assert!((1.0..2.2).contains(&hmc_g), "HMC geomean {hmc_g:.2} out of band (paper 1.21x)");
    assert!((2.0..6.0).contains(&charon_g), "Charon geomean {charon_g:.2} out of band (paper 3.29x)");
    assert!(charon_g > hmc_g, "offloading must beat bandwidth alone");
}

#[test]
fn fig14_shape_copy_gains_most() {
    // Paper: Copy is the biggest per-primitive winner (10.17x average).
    let speedup = |b| bucket_speedup(cell("LR", "DDR4"), cell("LR", "Charon"), b).expect("LR spends time in it");
    let copy = speedup(Bucket::Copy);
    assert!(copy > 2.5, "Copy speedup {copy:.2} too low (paper 10.17x avg)");
    assert!(copy > speedup(Bucket::ScanPush), "Copy must out-gain Scan&Push (paper: 10.17x vs 1.20x)");
}

#[test]
fn fig17_shape_charon_saves_energy() {
    // Paper: 60.7% average savings vs DDR4, 51.6% vs HMC.
    for w in ["BS", "LR"] {
        let saved = energy_saving(cell(w, "DDR4"), cell(w, "Charon"));
        assert!(saved > 0.4, "{w}: only {saved:.2} energy saved (paper ~0.61)");
    }
}

#[test]
fn fig13_shape_charon_exceeds_host_bandwidth() {
    // Paper: Charon's usable bandwidth exceeds what either host can pull.
    let (d, c) = (cell("ALS", "DDR4"), cell("ALS", "Charon"));
    assert!(
        c.gc_bandwidth_gbps() > 1.5 * d.gc_bandwidth_gbps(),
        "Charon ({:.1} GB/s) must clearly out-stream the DDR4 host ({:.1} GB/s)",
        c.gc_bandwidth_gbps(),
        d.gc_bandwidth_gbps()
    );
    assert!(c.local_ratio() > 0.3, "a sizable share of near-memory accesses stays local");
}
