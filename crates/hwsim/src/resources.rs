//! FPGA resource accounting: LUTs, flip-flops, and block RAM.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

use crate::{CapacityError, Device};

/// Usable bits in one BRAM18 unit.
pub const BRAM18_BITS: u64 = 18 * 1024;

/// Memories at or below this many bits map to distributed LUT-RAM; larger
/// memories map to block RAM. (One SLICEM LUT stores 32 bits of
/// quad-port distributed RAM in this model.)
pub const LUTRAM_THRESHOLD_BITS: u64 = 4_096;

/// Bits of distributed RAM provided by one LUT.
pub const LUTRAM_BITS_PER_LUT: u64 = 32;

/// A vector of FPGA resources.
///
/// Supports addition and scalar multiplication so per-component costs
/// compose naturally:
///
/// ```
/// use hwsim::Resources;
///
/// let core = Resources { luts: 300, ffs: 280, bram18: 2 };
/// let sixteen_cores = core * 16;
/// assert_eq!(sixteen_cores.luts, 4_800);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Resources {
    /// 6-input lookup tables (includes LUTs used as distributed RAM).
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// 18 Kb block-RAM units.
    pub bram18: u64,
}

impl Resources {
    /// The zero resource vector.
    pub const ZERO: Resources = Resources {
        luts: 0,
        ffs: 0,
        bram18: 0,
    };

    /// Resource cost of a memory of `bits` bits using `device`'s
    /// family-specific LUT-RAM threshold (see `DESIGN.md` §6).
    pub fn for_memory_on(bits: u64, device: &Device) -> Resources {
        Self::for_memory_with(bits, device.lutram_threshold_bits)
    }

    /// Resource cost with an explicit LUT-RAM/BRAM threshold:
    ///
    /// * at or below the threshold: distributed RAM, costing `bits / 32`
    ///   LUTs (rounded up);
    /// * larger: `⌈bits / 18,432⌉` BRAM18 units.
    pub fn for_memory_with(bits: u64, threshold_bits: u64) -> Resources {
        if bits == 0 {
            return Resources::ZERO;
        }
        if bits <= threshold_bits {
            Resources {
                luts: bits.div_ceil(LUTRAM_BITS_PER_LUT),
                ffs: 0,
                bram18: 0,
            }
        } else {
            Resources {
                luts: 0,
                ffs: 0,
                bram18: bits.div_ceil(BRAM18_BITS),
            }
        }
    }

    /// How a memory maps on `device`.
    pub fn memory_mapping_on(bits: u64, device: &Device) -> MemoryMapping {
        Self::memory_mapping_with(bits, device.lutram_threshold_bits)
    }

    /// Mapping decision with an explicit threshold.
    pub fn memory_mapping_with(bits: u64, threshold_bits: u64) -> MemoryMapping {
        if bits == 0 || bits <= threshold_bits {
            MemoryMapping::LutRam
        } else {
            MemoryMapping::BlockRam
        }
    }

    /// Checks whether this requirement fits within `device`.
    ///
    /// # Errors
    ///
    /// Returns a [`CapacityError`] naming the first overflowing resource
    /// (LUTs, then FFs, then BRAM18).
    pub fn check_fits(&self, device: &Device) -> Result<(), CapacityError> {
        let cap = device.capacity();
        if self.luts > cap.luts {
            return Err(CapacityError {
                resource: "LUTs",
                required: self.luts,
                available: cap.luts,
            });
        }
        if self.ffs > cap.ffs {
            return Err(CapacityError {
                resource: "FFs",
                required: self.ffs,
                available: cap.ffs,
            });
        }
        if self.bram18 > cap.bram18 {
            return Err(CapacityError {
                resource: "BRAM18",
                required: self.bram18,
                available: cap.bram18,
            });
        }
        Ok(())
    }

    /// `true` if the requirement fits within `device`.
    pub fn fits(&self, device: &Device) -> bool {
        self.check_fits(device).is_ok()
    }
}

/// Where a memory is physically mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryMapping {
    /// Distributed RAM built from SLICEM LUTs.
    LutRam,
    /// Dedicated block RAM.
    BlockRam,
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            luts: self.luts + rhs.luts,
            ffs: self.ffs + rhs.ffs,
            bram18: self.bram18 + rhs.bram18,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for Resources {
    type Output = Resources;
    fn mul(self, rhs: u64) -> Resources {
        Resources {
            luts: self.luts * rhs,
            ffs: self.ffs * rhs,
            bram18: self.bram18 * rhs,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, Add::add)
    }
}

/// Resource usage of a design relative to a device's capacity — the
/// utilization section of a synthesis report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// Resources the design requires.
    pub used: Resources,
    /// Capacity of the target device.
    pub available: Resources,
}

impl Utilization {
    /// Builds a utilization report for `used` on `device`.
    pub fn new(used: Resources, device: &Device) -> Self {
        Self {
            used,
            available: device.capacity(),
        }
    }

    /// LUT utilization in percent.
    pub fn lut_percent(&self) -> f64 {
        percent(self.used.luts, self.available.luts)
    }

    /// Flip-flop utilization in percent.
    pub fn ff_percent(&self) -> f64 {
        percent(self.used.ffs, self.available.ffs)
    }

    /// BRAM utilization in percent.
    pub fn bram_percent(&self) -> f64 {
        percent(self.used.bram18, self.available.bram18)
    }

    /// `true` if every resource fits.
    pub fn fits(&self) -> bool {
        self.used.luts <= self.available.luts
            && self.used.ffs <= self.available.ffs
            && self.used.bram18 <= self.available.bram18
    }
}

fn percent(used: u64, avail: u64) -> f64 {
    if avail == 0 {
        if used == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * used as f64 / avail as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::XC5VLX50T;

    #[test]
    fn memory_mapping_threshold() {
        assert_eq!(
            Resources::memory_mapping_with(LUTRAM_THRESHOLD_BITS, LUTRAM_THRESHOLD_BITS),
            MemoryMapping::LutRam
        );
        assert_eq!(
            Resources::memory_mapping_with(LUTRAM_THRESHOLD_BITS + 1, LUTRAM_THRESHOLD_BITS),
            MemoryMapping::BlockRam
        );
    }

    #[test]
    fn small_memory_costs_luts() {
        let r = Resources::for_memory_with(2_048, LUTRAM_THRESHOLD_BITS);
        assert_eq!(
            r,
            Resources {
                luts: 64,
                ffs: 0,
                bram18: 0
            }
        );
    }

    #[test]
    fn large_memory_costs_bram_rounded_up() {
        // 32 Kb -> 2 BRAM18 (18 Kb each).
        let r = Resources::for_memory_with(32 * 1024, LUTRAM_THRESHOLD_BITS);
        assert_eq!(r.bram18, 2);
        assert_eq!(r.luts, 0);
        // Exactly one BRAM18 worth of bits -> 1 unit.
        assert_eq!(
            Resources::for_memory_with(BRAM18_BITS, LUTRAM_THRESHOLD_BITS).bram18,
            1
        );
        // One bit more -> 2 units.
        assert_eq!(
            Resources::for_memory_with(BRAM18_BITS + 1, LUTRAM_THRESHOLD_BITS).bram18,
            2
        );
    }

    #[test]
    fn zero_memory_is_free() {
        assert_eq!(
            Resources::for_memory_with(0, LUTRAM_THRESHOLD_BITS),
            Resources::ZERO
        );
    }

    #[test]
    fn arithmetic_composes() {
        let a = Resources {
            luts: 1,
            ffs: 2,
            bram18: 3,
        };
        let b = Resources {
            luts: 10,
            ffs: 20,
            bram18: 30,
        };
        assert_eq!(
            a + b,
            Resources {
                luts: 11,
                ffs: 22,
                bram18: 33
            }
        );
        assert_eq!(
            a * 4,
            Resources {
                luts: 4,
                ffs: 8,
                bram18: 12
            }
        );
        let total: Resources = [a, b, a].into_iter().sum();
        assert_eq!(
            total,
            Resources {
                luts: 12,
                ffs: 24,
                bram18: 36
            }
        );
    }

    #[test]
    fn check_fits_reports_first_overflow() {
        let too_many_brams = Resources {
            luts: 0,
            ffs: 0,
            bram18: 121,
        };
        let err = too_many_brams.check_fits(&XC5VLX50T).unwrap_err();
        assert_eq!(err.resource, "BRAM18");
        assert_eq!(err.required, 121);
        assert_eq!(err.available, 120);
        assert!(!too_many_brams.fits(&XC5VLX50T));
    }

    #[test]
    fn utilization_percentages() {
        let u = Utilization::new(
            Resources {
                luts: 14_400,
                ffs: 0,
                bram18: 60,
            },
            &XC5VLX50T,
        );
        assert!((u.lut_percent() - 50.0).abs() < 1e-9);
        assert!((u.bram_percent() - 50.0).abs() < 1e-9);
        assert!(u.fits());
    }

    #[test]
    fn exact_capacity_fits() {
        let u = Utilization::new(XC5VLX50T.capacity(), &XC5VLX50T);
        assert!(u.fits());
        assert!(XC5VLX50T.capacity().fits(&XC5VLX50T));
    }
}
