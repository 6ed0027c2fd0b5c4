//! # charon-sim — execution-driven timing substrate
//!
//! This crate is the "zsim + DRAM models" substitute for the Charon
//! reproduction (Jang et al., MICRO-52 2019). The garbage collector in
//! `charon-gc` executes *functionally* on a simulated heap; every memory
//! access it performs is charged for time, traffic, and energy through the
//! models in this crate:
//!
//! * [`cache`] — set-associative write-back caches (host L1/L2/L3 and the
//!   accelerator-side bitmap cache share this implementation),
//! * [`dram`] — DDR4 channel/rank/bank and HMC cube/vault timing models with
//!   row-buffer state and the paper's Table 2 parameters,
//! * [`noc`] — the star topology of serial links between the host and the
//!   four HMC cubes,
//! * [`faults`] — seeded, replayable fault injection for the offload
//!   pipeline (link drop, queue overflow, TLB miss, MAI parity, unit
//!   wedge) plus the retry/backoff/watchdog recovery parameters,
//! * [`bwres`] — epoch-metered shared-resource bandwidth accounting (no
//!   phantom serialization between loosely-ordered agents),
//! * [`clocks`] — deterministic per-agent simulated clock sets, the
//!   pattern shared by GC thread teams and fleet tenant clocks,
//! * [`issue`] — the bounded-window memory-level-parallelism model shared by
//!   host cores (small instruction window) and Charon units (large MAI
//!   request buffer),
//! * [`host`] — the host-processor timing path (per-core caches, shared LLC,
//!   DRAM dispatch, compute throughput),
//! * [`energy`] — DRAM/link/core/accelerator energy accounting,
//! * [`report`] — the metric flattener and regression verdicts behind
//!   `charon-cli regress`, the history ledger and the CI gates,
//! * [`config`] — Table 2 encoded as data,
//! * [`stats`] — traffic and event counters,
//! * [`telemetry`] — the optional structured event journal and Chrome
//!   trace-event exporter (zero-cost when disabled),
//! * [`hist`] — fixed-size log2-bucket histograms (`Copy`-cheap,
//!   mergeable, p50/p90/p99/max) used for every latency distribution,
//! * [`profile`] — the optional per-channel latency profiler built on
//!   [`hist`], same zero-cost-when-disabled contract as [`telemetry`],
//! * [`json`] — the dependency-free JSON writer/validator backing every
//!   machine-readable report.
//!
//! The design intent (DESIGN.md §3) is that the two mechanisms Charon's
//! speedups come from — the host's MLP ceiling and the off-chip bandwidth
//! ceiling versus the stacked DRAM's internal bandwidth — are modeled
//! faithfully, without per-instruction x86 simulation.
//!
//! ```
//! use charon_sim::config::SystemConfig;
//! use charon_sim::host::HostTiming;
//! use charon_sim::cache::AccessKind;
//! use charon_sim::time::Ps;
//!
//! let cfg = SystemConfig::table2_ddr4();
//! let mut host = HostTiming::new(&cfg);
//! // Charge a 64-byte read on core 0 at t = 0.
//! let done = host.mem_access(0, Ps::ZERO, 0x1000, 64, AccessKind::Read);
//! assert!(done > Ps::ZERO);
//! ```

pub mod bwres;
pub mod cache;
pub mod clocks;
pub mod config;
pub mod dram;
pub mod energy;
pub mod faults;
pub mod hist;
pub mod host;
pub mod issue;
pub mod json;
pub mod noc;
pub mod profile;
pub mod report;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use config::SystemConfig;
pub use time::{Bandwidth, Freq, Ps};
