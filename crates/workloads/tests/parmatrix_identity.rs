//! Fingerprint identity under parallelism: the run matrix fanned across
//! OS threads must be *byte-identical* to the serial sweep, cell by cell.
//!
//! This is the determinism contract behind `charon-cli bench --jobs N`:
//! every cell owns its system, heap, and seed, so thread scheduling can
//! reorder *when* cells run but never *what* they compute. The check
//! covers the same 15 workload × platform pairs the committed fingerprint
//! baselines pin (`fingerprint_baseline.rs`, supersteps=2) and compares
//! the full `RunResult` JSON — not just the fingerprint — so any field a
//! parallel run could plausibly perturb (traffic counters, energy,
//! per-cube bytes) is covered. Wall-clock never appears in that JSON by
//! design; it travels beside it in `MatrixOutcome::wall_ns`.

use charon_workloads::parmatrix::PLATFORM_LABELS;
use charon_workloads::spec::by_short;
use charon_workloads::{full_matrix, run_matrix, RunOptions};

#[test]
fn parallel_matrix_is_byte_identical_to_serial_on_all_baseline_pairs() {
    let specs: Vec<_> = ["BS", "KM", "CC"].iter().map(|s| by_short(s).unwrap()).collect();
    let cells = full_matrix(&specs);
    assert_eq!(cells.len(), 15, "the committed baseline set is 3 workloads x 5 platforms");

    let opts = RunOptions { supersteps: Some(2), ..Default::default() };
    let serial = run_matrix(&cells, &opts, 1);
    let parallel = run_matrix(&cells, &opts, 4);
    assert_eq!(serial.len(), parallel.len());

    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        let cell = &cells[i];
        assert_eq!((s.workload, s.platform), (cell.spec.short, cell.platform), "serial outcome order");
        assert_eq!((p.workload, p.platform), (cell.spec.short, cell.platform), "parallel outcome order");
        let sr = s.result.as_ref().expect("serial cell ran");
        let pr = p.result.as_ref().expect("parallel cell ran");
        assert_eq!(sr.fingerprint(), pr.fingerprint(), "{}/{}", s.workload, s.platform);
        assert_eq!(
            sr.to_json().to_string(),
            pr.to_json().to_string(),
            "{}/{}: full report must be byte-identical",
            s.workload,
            s.platform
        );
    }
}

#[test]
fn platform_labels_cover_the_baseline_platform_set() {
    // The identity test above silently weakens if the canonical label
    // list drifts from the committed baseline platforms.
    assert_eq!(PLATFORM_LABELS, ["DDR4", "HMC", "Charon", "Charon-CPU-side", "Ideal"]);
}
