//! FPGA device catalog.

use std::fmt;

use crate::Resources;

/// FPGA device family. Families differ in process node, achievable clock
/// frequency, and how small memories are preferentially mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Xilinx Virtex-5 (65 nm). The paper's ML505 board.
    Virtex5,
    /// Xilinx Virtex-7 (28 nm). The paper's VC707 board.
    Virtex7,
    /// Xilinx UltraScale+ (16 nm). The cloud FPGA of the paper's
    /// conclusion (AWS EC2 F1).
    UltraScalePlus,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Family::Virtex5 => write!(f, "Virtex-5"),
            Family::Virtex7 => write!(f, "Virtex-7"),
            Family::UltraScalePlus => write!(f, "UltraScale+"),
        }
    }
}

/// An FPGA device: capacity and timing/power characteristics.
///
/// The two catalog entries ([`devices::XC5VLX50T`], [`devices::XC7VX485T`])
/// correspond to the boards used in the paper's evaluation (ML505 and
/// VC707).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Part name, e.g. `"XC5VLX50T"`.
    pub name: &'static str,
    /// Device family.
    pub family: Family,
    /// Number of 6-input LUTs.
    pub luts: u64,
    /// Number of flip-flops.
    pub ffs: u64,
    /// Number of 18 Kb block-RAM units (a 36 Kb BRAM counts as two).
    pub bram18: u64,
    /// Base (unloaded) maximum clock frequency in MHz for the kind of
    /// control-heavy streaming logic modeled here. Real designs derate from
    /// this with fan-out and routing congestion; see [`crate::estimate_fmax`].
    pub base_fmax_mhz: f64,
    /// Device static (leakage) power in milliwatts.
    pub static_power_mw: f64,
    /// Memories at or below this many bits map to distributed LUT-RAM;
    /// larger ones go to block RAM. Family-dependent: BRAM-rich 7-series
    /// parts push even small memories into block RAM, while the BRAM-poor
    /// Virtex-5 keeps more in LUT-RAM.
    pub lutram_threshold_bits: u64,
}

impl Device {
    /// Total device capacity as a [`Resources`] vector.
    pub fn capacity(&self) -> Resources {
        Resources {
            luts: self.luts,
            ffs: self.ffs,
            bram18: self.bram18,
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.family)
    }
}

/// The device catalog: the two parts used in the paper's evaluation.
pub mod devices {
    use super::{Device, Family};

    /// Virtex-5 XC5VLX50T — the FPGA on the ML505 evaluation platform.
    ///
    /// 28,800 6-LUTs / 28,800 FFs / 60×36 Kb BRAM (120 BRAM18).
    pub const XC5VLX50T: Device = Device {
        name: "XC5VLX50T",
        family: Family::Virtex5,
        luts: 28_800,
        ffs: 28_800,
        bram18: 120,
        // The paper clocks V5 designs at 100 MHz and notes up to ~190 MHz is
        // reachable with tighter constraints; 205 MHz models the unloaded
        // fabric limit before fan-out derating.
        base_fmax_mhz: 205.0,
        static_power_mw: 350.0,
        lutram_threshold_bits: 4_096,
    };

    /// Virtex-7 XC7VX485T — the FPGA on the VC707 evaluation board.
    ///
    /// 303,600 6-LUTs / 607,200 FFs / 1,030×36 Kb BRAM (2,060 BRAM18).
    pub const XC7VX485T: Device = Device {
        name: "XC7VX485T",
        family: Family::Virtex7,
        luts: 303_600,
        ffs: 607_200,
        bram18: 2_060,
        base_fmax_mhz: 355.0,
        static_power_mw: 240.0,
        lutram_threshold_bits: 1_024,
    };

    /// UltraScale+ XCVU9P — the FPGA behind AWS EC2 F1 instances, which
    /// the paper's conclusion singles out ("fabricated using a 16 nm
    /// process and with approximately 2.5 million logic elements").
    ///
    /// 1,182,240 6-LUTs / 2,364,480 FFs / 4,320 BRAM18, plus 960 UltraRAM
    /// blocks of 288 Kb modeled here as 15,360 additional BRAM18
    /// equivalents (window storage is bit-volume-bound either way).
    pub const XCVU9P: Device = Device {
        name: "XCVU9P",
        family: Family::UltraScalePlus,
        luts: 1_182_240,
        ffs: 2_364_480,
        bram18: 4_320 + 960 * 16,
        base_fmax_mhz: 520.0,
        static_power_mw: 3_000.0,
        lutram_threshold_bits: 1_024,
    };

    /// All catalog devices.
    pub const ALL: [Device; 3] = [XC5VLX50T, XC7VX485T, XCVU9P];
}

#[cfg(test)]
mod tests {
    use super::devices::{ALL, XC5VLX50T, XC7VX485T};
    use super::*;

    #[test]
    fn catalog_capacities_match_datasheets() {
        assert_eq!(XC5VLX50T.luts, 28_800);
        assert_eq!(XC5VLX50T.bram18, 120);
        assert_eq!(XC7VX485T.luts, 303_600);
        assert_eq!(XC7VX485T.bram18, 2_060);
    }

    #[test]
    fn v7_is_strictly_larger_and_faster_than_v5() {
        let (v5, v7) = (&XC5VLX50T, &XC7VX485T);
        assert!(v7.luts > v5.luts);
        assert!(v7.bram18 > v5.bram18);
        assert!(v7.base_fmax_mhz > v5.base_fmax_mhz);
    }

    #[test]
    fn display_forms() {
        assert_eq!(XC5VLX50T.to_string(), "XC5VLX50T (Virtex-5)");
        assert_eq!(Family::Virtex7.to_string(), "Virtex-7");
    }

    #[test]
    fn all_lists_every_device() {
        assert_eq!(ALL.len(), 3);
        assert!(ALL.iter().any(|d| d.family == Family::Virtex5));
        assert!(ALL.iter().any(|d| d.family == Family::Virtex7));
        assert!(ALL.iter().any(|d| d.family == Family::UltraScalePlus));
    }

    #[test]
    fn cloud_fpga_dwarfs_the_papers_boards() {
        use super::devices::XCVU9P;
        let (v7, vu9p) = (&XC7VX485T, &XCVU9P);
        assert!(vu9p.luts > 3 * v7.luts);
        assert!(vu9p.bram18 > 4 * v7.bram18);
        assert_eq!(vu9p.to_string(), "XCVU9P (UltraScale+)");
    }

    #[test]
    fn capacity_vector_matches_fields() {
        let c = XC7VX485T.capacity();
        assert_eq!(c.luts, XC7VX485T.luts);
        assert_eq!(c.ffs, XC7VX485T.ffs);
        assert_eq!(c.bram18, XC7VX485T.bram18);
    }
}
