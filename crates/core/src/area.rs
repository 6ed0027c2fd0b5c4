//! Area and power model — the paper's Table 4 (Chisel + Synopsys DC at
//! TSMC 40 nm, plus CACTI at 45 nm for the SRAM structures).
//!
//! We cannot re-synthesize RTL here, so the published per-unit areas are
//! encoded as data and the derived claims (total ≈ 1.947 mm², ≈ 0.49 mm²
//! per cube, ≈ 0.49 % of a 100 mm² logic layer, power density far below a
//! passive-heat-sink limit) are recomputed from them.

use std::fmt;

/// One row of Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaComponent {
    /// Component name.
    pub name: &'static str,
    /// Area per unit, mm².
    pub per_unit_mm2: f64,
    /// Number of units across all cubes.
    pub units: usize,
    /// Whether this row is a "general component" (queues, metadata, TLB,
    /// bitmap cache) as opposed to a processing unit.
    pub general: bool,
}

impl AreaComponent {
    /// Total area of this component, mm².
    pub fn total_mm2(&self) -> f64 {
        self.per_unit_mm2 * self.units as f64
    }
}

/// Table 4, verbatim.
pub const TABLE4: [AreaComponent; 9] = [
    AreaComponent { name: "Command Queue", per_unit_mm2: 0.0049, units: 4, general: true },
    AreaComponent { name: "Request Queue(R)", per_unit_mm2: 0.0015, units: 4, general: true },
    AreaComponent { name: "Request Queue(W)", per_unit_mm2: 0.0162, units: 4, general: true },
    AreaComponent { name: "Metadata Array", per_unit_mm2: 0.0805, units: 4, general: true },
    AreaComponent { name: "Bitmap Cache", per_unit_mm2: 0.1562, units: 1, general: true },
    AreaComponent { name: "TLB", per_unit_mm2: 0.0706, units: 4, general: true },
    AreaComponent { name: "Copy/Search", per_unit_mm2: 0.0223, units: 8, general: false },
    AreaComponent { name: "Bitmap Count", per_unit_mm2: 0.0427, units: 8, general: false },
    AreaComponent { name: "Scan&Push", per_unit_mm2: 0.0720, units: 8, general: false },
];

/// The derived area/power figures of §5.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Sum over Table 4, mm².
    pub total_mm2: f64,
    /// Average per cube (4 cubes), mm².
    pub per_cube_mm2: f64,
    /// Fraction of a 100 mm² HMC logic layer.
    pub logic_layer_fraction: f64,
    /// Average power, W (2.98 in the paper).
    pub avg_power_w: f64,
    /// Maximum power, W (4.51, for ALS).
    pub max_power_w: f64,
    /// Maximum power density, mW/mm² of logic-layer area per cube.
    pub max_power_density_mw_mm2: f64,
}

/// Logic-layer area assumed per cube, mm² (the paper cites 100 mm²).
pub const LOGIC_LAYER_MM2: f64 = 100.0;
/// Number of cubes.
pub const CUBES: usize = 4;
/// Average Charon power, W (§5.3): the power the energy meter charges
/// while a unit is active.
pub use charon_sim::energy::CHARON_ACTIVE_W as AVG_POWER_W;
/// Maximum Charon power, W (§5.3, ALS).
pub const MAX_POWER_W: f64 = 4.51;
/// Maximum allowable power density for a low-end passive heat sink,
/// mW/mm² (the paper cites a heat-sink study far above Charon's density).
pub const PASSIVE_HEATSINK_LIMIT_MW_MM2: f64 = 100.0;

/// Computes the derived report from Table 4.
pub fn report() -> AreaReport {
    let total: f64 = TABLE4.iter().map(AreaComponent::total_mm2).sum();
    let per_cube = total / CUBES as f64;
    AreaReport {
        total_mm2: total,
        per_cube_mm2: per_cube,
        logic_layer_fraction: per_cube / LOGIC_LAYER_MM2,
        avg_power_w: AVG_POWER_W,
        max_power_w: MAX_POWER_W,
        // Worst case: all of the max power dissipated in one cube's logic
        // layer (the paper reports 45.1 mW/mm²).
        max_power_density_mw_mm2: MAX_POWER_W * 1000.0 / LOGIC_LAYER_MM2,
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<18} {:>10} {:>6} {:>12}", "Component", "mm^2/unit", "units", "total mm^2")?;
        for c in TABLE4 {
            writeln!(f, "{:<18} {:>10.4} {:>6} {:>12.4}", c.name, c.per_unit_mm2, c.units, c.total_mm2())?;
        }
        writeln!(f, "Total area: {:.4} mm^2 / average per cube: {:.4} mm^2", self.total_mm2, self.per_cube_mm2)?;
        writeln!(f, "Logic-layer fraction: {:.2}%", self.logic_layer_fraction * 100.0)?;
        write!(
            f,
            "Power: avg {:.2} W, max {:.2} W, max density {:.1} mW/mm^2",
            self.avg_power_w, self.max_power_w, self.max_power_density_mw_mm2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_paper() {
        let r = report();
        assert!((r.total_mm2 - 1.947).abs() < 0.001, "total = {}", r.total_mm2);
        assert!((r.per_cube_mm2 - 0.4868).abs() < 0.001);
        assert!((r.logic_layer_fraction - 0.0049).abs() < 0.0002, "≈0.49%");
    }

    #[test]
    fn component_rows_match_table4() {
        let bc = TABLE4.iter().find(|c| c.name == "Bitmap Cache").unwrap();
        assert!((bc.total_mm2() - 0.1562).abs() < 1e-9);
        let sp = TABLE4.iter().find(|c| c.name == "Scan&Push").unwrap();
        assert!((sp.total_mm2() - 0.5760).abs() < 1e-9);
        let general: f64 = TABLE4.iter().filter(|c| c.general).map(AreaComponent::total_mm2).sum();
        assert!((general - (0.0196 + 0.0060 + 0.0648 + 0.3220 + 0.1562 + 0.2824)).abs() < 1e-6);
    }

    #[test]
    fn power_density_below_passive_limit() {
        let r = report();
        assert!((r.max_power_density_mw_mm2 - 45.1).abs() < 0.1);
        assert!(r.max_power_density_mw_mm2 < PASSIVE_HEATSINK_LIMIT_MW_MM2);
    }

    #[test]
    fn display_renders_table() {
        let s = report().to_string();
        assert!(s.contains("Bitmap Cache"));
        assert!(s.contains("1.9470") || s.contains("1.947"));
    }
}
