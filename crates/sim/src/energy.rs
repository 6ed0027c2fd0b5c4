//! Energy accounting (the substitute for McPAT + CACTI, DESIGN.md §1).
//!
//! Three contributors are tracked, mirroring the paper's §5.3 breakdown:
//!
//! * **DRAM + interconnect** — per-bit access energy from Table 2
//!   (35 pJ/bit DDR4, 21 pJ/bit HMC, the latter including SerDes per the
//!   paper's HMC energy source), read from the platform's config
//!   (`Ddr4Config::pj_per_bit`, `HmcConfig::pj_per_bit`),
//! * **host cores** — a McPAT-like two-state model: an active core burns
//!   `core_active_w`; a core whose GC thread is blocked on an offloaded
//!   primitive clock-gates down to `core_idle_w`; shared uncore is a
//!   constant,
//! * **Charon units** — the paper's measured 2.98 W average while active
//!   (§5.3), plus negligible idle leakage.

use crate::time::Ps;
use std::fmt;

/// Power/energy constants. Values not given by the paper carry documented
/// defaults calibrated against the paper's Fig. 17 outcome (60.7% GC energy
/// reduction vs. DDR4, 51.6% vs. HMC).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyParams {
    /// Watts for one active host core (Westmere-class, ~2.67 GHz).
    pub core_active_w: f64,
    /// Watts for one clock-gated core blocked on an offload response.
    pub core_idle_w: f64,
    /// Watts for the shared uncore (LLC, ring, memory controllers).
    pub uncore_w: f64,
    /// Average watts for all Charon logic while any unit is active (§5.3:
    /// 2.98 W average, 4.51 W max).
    pub charon_active_w: f64,
}

impl Default for EnergyParams {
    fn default() -> EnergyParams {
        EnergyParams { core_active_w: 7.5, core_idle_w: 1.0, uncore_w: 8.0, charon_active_w: 2.98 }
    }
}

/// Accumulated energy for one simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyAccount {
    /// Joules spent in DRAM (and HMC links).
    pub dram_j: f64,
    /// Joules spent by active host cores.
    pub core_active_j: f64,
    /// Joules spent by idle/blocked host cores.
    pub core_idle_j: f64,
    /// Joules spent by the uncore.
    pub uncore_j: f64,
    /// Joules spent by Charon logic.
    pub charon_j: f64,
}

impl EnergyAccount {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.dram_j + self.core_active_j + self.core_idle_j + self.uncore_j + self.charon_j
    }

    /// Component-wise delta since an earlier snapshot of the same meter.
    /// The account is monotone (every `add_*` is non-negative), so on the
    /// intended use — `after.since(&before)` around one collection — all
    /// components are non-negative and the deltas telescope: summing the
    /// per-collection deltas recovers the final account up to f64
    /// rounding, which is what the postmortem conservation proptest pins.
    pub fn since(&self, before: &EnergyAccount) -> EnergyAccount {
        EnergyAccount {
            dram_j: self.dram_j - before.dram_j,
            core_active_j: self.core_active_j - before.core_active_j,
            core_idle_j: self.core_idle_j - before.core_idle_j,
            uncore_j: self.uncore_j - before.uncore_j,
            charon_j: self.charon_j - before.charon_j,
        }
    }

    /// Component-wise accumulation (for bucketed side tables).
    pub fn accumulate(&mut self, other: &EnergyAccount) {
        self.dram_j += other.dram_j;
        self.core_active_j += other.core_active_j;
        self.core_idle_j += other.core_idle_j;
        self.uncore_j += other.uncore_j;
        self.charon_j += other.charon_j;
    }

    /// Machine-readable form for reports ([`crate::json`]).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("dram_j", Json::F64(self.dram_j)),
            ("core_active_j", Json::F64(self.core_active_j)),
            ("core_idle_j", Json::F64(self.core_idle_j)),
            ("uncore_j", Json::F64(self.uncore_j)),
            ("charon_j", Json::F64(self.charon_j)),
            ("total_j", Json::F64(self.total_j())),
        ])
    }
}

impl fmt::Display for EnergyAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {:.4} J (dram {:.4}, cores {:.4} active + {:.4} idle, uncore {:.4}, charon {:.4})",
            self.total_j(),
            self.dram_j,
            self.core_active_j,
            self.core_idle_j,
            self.uncore_j,
            self.charon_j
        )
    }
}

/// The energy meter: feed it time and traffic, read off joules.
#[derive(Debug, Clone, Default)]
pub struct EnergyModel {
    params: EnergyParams,
    account: EnergyAccount,
}

impl EnergyModel {
    /// Creates a meter with the given constants.
    pub fn new(params: EnergyParams) -> EnergyModel {
        EnergyModel { params, account: EnergyAccount::default() }
    }

    /// Charges DRAM access energy for `bytes` moved at `pj_per_bit`
    /// ([`crate::config::SystemConfig::dram_pj_per_bit`]).
    pub fn add_dram_bytes(&mut self, pj_per_bit: f64, bytes: u64) {
        self.account.dram_j += bytes as f64 * 8.0 * pj_per_bit * 1e-12;
    }

    /// Charges `cores` host cores running actively for `dur`.
    pub fn add_core_active(&mut self, cores: usize, dur: Ps) {
        self.account.core_active_j += self.params.core_active_w * cores as f64 * dur.as_secs();
    }

    /// Charges `cores` host cores sitting blocked for `dur`.
    pub fn add_core_idle(&mut self, cores: usize, dur: Ps) {
        self.account.core_idle_j += self.params.core_idle_w * cores as f64 * dur.as_secs();
    }

    /// Charges the uncore for `dur` of wall-clock.
    pub fn add_uncore(&mut self, dur: Ps) {
        self.account.uncore_j += self.params.uncore_w * dur.as_secs();
    }

    /// Charges Charon logic being active for `dur`.
    pub fn add_charon_active(&mut self, dur: Ps) {
        self.account.charon_j += self.params.charon_active_w * dur.as_secs();
    }

    /// The joules accumulated so far.
    pub fn account(&self) -> &EnergyAccount {
        &self.account
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    #[test]
    fn dram_energy_matches_pj_per_bit() {
        let mut m = EnergyModel::new(EnergyParams::default());
        // 1 MB at 35 pJ/bit: 1e6 B * 8 b/B * 35 pJ = 2.8e8 pJ = 2.8e-4 J.
        m.add_dram_bytes(SystemConfig::table2_ddr4().dram_pj_per_bit(), 1_000_000);
        assert!((m.account().dram_j - 2.8e-4).abs() < 1e-9);
        let mut h = EnergyModel::new(EnergyParams::default());
        h.add_dram_bytes(SystemConfig::table2_hmc().dram_pj_per_bit(), 1_000_000);
        assert!(h.account().dram_j < m.account().dram_j, "HMC bit energy is lower");
    }

    #[test]
    fn core_energy_scales_with_time_and_count() {
        let mut m = EnergyModel::new(EnergyParams::default());
        m.add_core_active(8, Ps::from_ms(1.0));
        // 8 cores * 7.5 W * 1 ms = 60 mJ.
        assert!((m.account().core_active_j - 0.060).abs() < 1e-9);
        m.add_core_idle(8, Ps::from_ms(1.0));
        assert!((m.account().core_idle_j - 0.008).abs() < 1e-9);
    }

    #[test]
    fn charon_power_is_paper_average() {
        let mut m = EnergyModel::new(EnergyParams::default());
        m.add_charon_active(Ps::from_ms(10.0));
        assert!((m.account().charon_j - 0.0298).abs() < 1e-9);
    }

    #[test]
    fn since_and_accumulate_telescope() {
        let mut m = EnergyModel::new(EnergyParams::default());
        let start = m.account().clone();
        m.add_dram_bytes(35.0, 1_000_000);
        m.add_core_active(4, Ps::from_ms(1.0));
        let mid = m.account().clone();
        m.add_uncore(Ps::from_ms(2.0));
        m.add_charon_active(Ps::from_ms(1.0));
        let end = m.account().clone();

        let mut rebuilt = EnergyAccount::default();
        rebuilt.accumulate(&mid.since(&start));
        rebuilt.accumulate(&end.since(&mid));
        assert!((rebuilt.total_j() - end.total_j()).abs() < 1e-15);
        assert!((rebuilt.dram_j - end.dram_j).abs() < 1e-15);
        assert!((rebuilt.charon_j - end.charon_j).abs() < 1e-15);
        assert!(mid.since(&start).core_active_j > 0.0);
        assert_eq!(end.since(&end), EnergyAccount::default());
    }

    #[test]
    fn total_sums_components() {
        let mut m = EnergyModel::new(EnergyParams::default());
        m.add_uncore(Ps::from_ms(2.0));
        m.add_core_active(1, Ps::from_ms(2.0));
        let a = m.account();
        assert!((a.total_j() - (a.uncore_j + a.core_active_j)).abs() < 1e-12);
        assert!(!a.to_string().is_empty());
    }
}
