//! # charon-workloads — synthetic Spark/GraphChi mutators
//!
//! The paper evaluates six applications (Table 3): three Spark ML
//! workloads — Bayesian classification (BS), k-means (KM), logistic
//! regression (LR) — and three GraphChi workloads — connected components
//! (CC), PageRank (PR), alternating least squares (ALS). We cannot run the
//! real frameworks on a simulated JVM, so this crate reproduces the
//! *object demographics* the paper identifies as the drivers of GC
//! behaviour (§3.2, §5.2):
//!
//! * Spark ML allocates **few, large, reference-poor, short-lived** objects
//!   (RDD partition chunks) plus a moderate resident model → MinorGC time
//!   dominated by *Copy* and *Search*, low Scan&Push parallelism;
//! * GraphChi CC/PR allocate **many small, long-lived, reference-rich**
//!   vertices → *Scan&Push* heavy, long marking phases;
//! * ALS allocates **single huge matrix objects** → enormous *Copy*.
//!
//! Heaps are scaled ≈ 1/256 of the paper's (DESIGN.md §1): the paper's
//! 4–12 GB becomes 16–48 MB, preserving heap:LLC ≫ 1 so GC working sets
//! still sweep the host cache hierarchy.
//!
//! * [`spec`] — [`spec::WorkloadSpec`] + the scaled Table 3,
//! * [`klasses`] — the application class registry,
//! * [`mutator`] — the resident-structure builder and per-superstep
//!   allocation/mutation behaviour, including the useful-work time model,
//! * [`run`] — the one staged run every driver goes through
//!   ([`run::Run`]) and its one-call form ([`run_workload`]) producing a
//!   [`run::RunResult`],
//! * [`profile`] — opt-in per-run profile: pause/latency histograms, heap
//!   demographics, and accelerator utilization ([`profile::RunProfile`]),
//! * [`parmatrix`] — deterministic parallel run matrix: workload ×
//!   platform cells fanned across OS threads with bit-identical merged
//!   output,
//! * [`campaign`] — seeded campaigns for both fault tiers through one
//!   driver: timing faults proving the offload path degrades gracefully
//!   without changing GC correctness ([`CampaignReport`]), and silent
//!   corruption over the integrity subsystem — sites × rates × workloads,
//!   detection/repair/escape accounting ([`ChaosReport`]),
//! * [`autotune`] — static-vs-adaptive offload comparison driver for the
//!   [`charon_gc::adapt`] controller ([`autotune::AutotuneReport`]),
//! * [`history`] — append-only `charon-history-v1` multi-run metric
//!   ledger with trend sparklines and first-regressing-run bisection
//!   ([`history::Ledger`]).

pub mod autotune;
pub mod campaign;
pub mod fleet;
pub mod history;
pub mod klasses;
pub mod mutator;
pub mod paper;
pub mod parmatrix;
pub mod profile;
pub mod run;
pub mod spec;

pub use autotune::{autotune, AutotuneReport};
pub use campaign::{
    chaos_matrix, fault_matrix, run_chaos_campaign, run_fault_campaign, CampaignReport, ChaosOptions, ChaosReport,
};
pub use fleet::{plan_tenants, run_fleet, FleetOptions, FleetReport, SchedKind, MAX_TENANTS};
pub use history::{HistoryRun, Ledger};
pub use parmatrix::{full_matrix, run_matrix, MatrixJob, MatrixOutcome};
pub use profile::RunProfile;
pub use run::{run_workload, Run, RunOptions, RunResult};
pub use spec::{table3, Framework, WorkloadSpec};
