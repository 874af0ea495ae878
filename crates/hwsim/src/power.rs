//! Static + dynamic power estimation — the power section of a synthesis
//! report.
//!
//! `P_total = P_static(device) + f · activity · Σ (resource · coefficient)`
//!
//! The per-resource coefficients are calibrated against the single power
//! pair the paper reports (bi-flow 1647.53 mW vs uni-flow 800.35 mW at 16
//! join cores, window 2^13) and then held fixed for every other
//! configuration; see `DESIGN.md` §6 and the calibration test in `joinhw`.

use std::fmt;

use crate::{Device, Frequency, Resources};

/// Coefficients of the dynamic-power model, in µW per MHz per unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Dynamic power per LUT (µW/MHz).
    pub lut_uw_per_mhz: f64,
    /// Dynamic power per flip-flop (µW/MHz).
    pub ff_uw_per_mhz: f64,
    /// Dynamic power per BRAM18 (µW/MHz).
    pub bram_uw_per_mhz: f64,
}

impl PowerModel {
    /// The calibrated model used throughout the reproduction.
    pub fn calibrated() -> Self {
        Self {
            lut_uw_per_mhz: 0.4814,
            ff_uw_per_mhz: 0.25,
            bram_uw_per_mhz: 15.49,
        }
    }

    /// Estimates power for a design using `resources` on `device`, clocked
    /// at `clock` with the given switching `activity` (fraction of cycles in
    /// which the average net toggles, in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `[0, 1]`.
    pub fn report(
        &self,
        device: &Device,
        resources: Resources,
        clock: Frequency,
        activity: f64,
    ) -> PowerReport {
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity must be within [0, 1], got {activity}"
        );
        let per_mhz = resources.luts as f64 * self.lut_uw_per_mhz
            + resources.ffs as f64 * self.ff_uw_per_mhz
            + resources.bram18 as f64 * self.bram_uw_per_mhz;
        let dynamic_mw = clock.mhz() * activity * per_mhz / 1_000.0;
        PowerReport {
            static_mw: device.static_power_mw,
            dynamic_mw,
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// Estimated power split into static and dynamic components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerReport {
    /// Device leakage power in milliwatts.
    pub static_mw: f64,
    /// Switching power in milliwatts.
    pub dynamic_mw: f64,
}

impl PowerReport {
    /// Total power in milliwatts.
    pub fn total_mw(&self) -> f64 {
        self.static_mw + self.dynamic_mw
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} mW (static {:.2} + dynamic {:.2})",
            self.total_mw(),
            self.static_mw,
            self.dynamic_mw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::XC5VLX50T;

    fn freq(mhz: f64) -> Frequency {
        Frequency::from_mhz(mhz)
    }

    #[test]
    fn zero_resources_cost_only_static_power() {
        let m = PowerModel::calibrated();
        let r = m.report(&XC5VLX50T, Resources::ZERO, freq(100.0), 1.0);
        assert_eq!(r.dynamic_mw, 0.0);
        assert_eq!(r.total_mw(), XC5VLX50T.static_power_mw);
    }

    #[test]
    fn dynamic_power_scales_linearly_with_frequency() {
        let m = PowerModel::calibrated();
        let res = Resources {
            luts: 1_000,
            ffs: 1_000,
            bram18: 10,
        };
        let p100 = m.report(&XC5VLX50T, res, freq(100.0), 1.0);
        let p200 = m.report(&XC5VLX50T, res, freq(200.0), 1.0);
        assert!((p200.dynamic_mw / p100.dynamic_mw - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_power_scales_linearly_with_activity() {
        let m = PowerModel::calibrated();
        let res = Resources {
            luts: 1_000,
            ffs: 0,
            bram18: 0,
        };
        let full = m.report(&XC5VLX50T, res, freq(100.0), 1.0);
        let half = m.report(&XC5VLX50T, res, freq(100.0), 0.5);
        assert!((full.dynamic_mw / half.dynamic_mw - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "activity must be within")]
    fn activity_out_of_range_panics() {
        PowerModel::calibrated().report(&XC5VLX50T, Resources::ZERO, freq(1.0), 1.5);
    }

    #[test]
    fn display_formats_components() {
        let r = PowerReport {
            static_mw: 1.0,
            dynamic_mw: 2.5,
        };
        assert_eq!(r.to_string(), "3.50 mW (static 1.00 + dynamic 2.50)");
    }

    #[test]
    fn bigger_designs_burn_more_power() {
        let m = PowerModel::calibrated();
        let small = Resources {
            luts: 5_000,
            ffs: 5_000,
            bram18: 64,
        };
        let large = Resources {
            luts: 15_000,
            ffs: 12_000,
            bram18: 128,
        };
        let ps = m.report(&XC5VLX50T, small, freq(100.0), 1.0);
        let pl = m.report(&XC5VLX50T, large, freq(100.0), 1.0);
        assert!(pl.total_mw() > ps.total_mw());
    }
}
