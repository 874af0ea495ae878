//! Maximum-clock-frequency estimation — the timing section of a synthesis
//! report.
//!
//! Real synthesis tools derive fmax from the critical path: levels of logic
//! plus net delay, where net delay grows with fan-out (a broadcast net
//! loading N inputs is slow) and routing congestion. The model here keeps
//! exactly those two knobs:
//!
//! ```text
//! fmax = base_fmax / (1 + k_logic·(levels − 1) + k_fanout·ln(max_fanout / 2))
//! ```
//!
//! with `k_fanout` family-dependent: Virtex-7 runs closer to its fabric
//! limit and is therefore *more* sensitive to large fan-outs than Virtex-5,
//! exactly the effect the paper reports in its scalability evaluation
//! (Fig. 17). A small deterministic "heuristic noise" term models the
//! synthesis tool's placement heuristics; the single +9 MHz anchor for a
//! 16-way fan-out on Virtex-5 reproduces the bump the paper attributes to
//! "heuristic mapping algorithms adopted by the synthesis tool".

use std::fmt;

use crate::{Device, Family};

/// Logic-level sensitivity: fractional period added per extra level.
const K_LOGIC: f64 = 0.036_67;

/// Fan-out sensitivity per family (fractional period per ln of fan-out).
const K_FANOUT_V5: f64 = 0.03;
const K_FANOUT_V7: f64 = 0.12;

/// Amplitude of the deterministic heuristic-noise term, in MHz.
const NOISE_AMPLITUDE_MHZ: f64 = 4.0;

/// The paper reports a clock-frequency *increase* at 16 join cores on
/// Virtex-5 caused by the tool's heuristic mapping; this anchor reproduces
/// it.
const V5_FANOUT16_BONUS_MHZ: f64 = 9.0;

/// A clock frequency.
///
/// ```
/// use hwsim::Frequency;
///
/// let f = Frequency::from_mhz(100.0);
/// assert_eq!(f.mhz(), 100.0);
/// assert_eq!(f.period_ns(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not finite and positive.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz > 0.0, "frequency must be positive");
        Self(mhz)
    }

    /// The frequency in megahertz.
    pub fn mhz(&self) -> f64 {
        self.0
    }

    /// The clock period in nanoseconds.
    pub fn period_ns(&self) -> f64 {
        1_000.0 / self.0
    }

    /// Converts a cycle count at this frequency to microseconds.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / self.0
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MHz", self.0)
    }
}

/// Critical-path characteristics of a design, as consumed by
/// [`estimate_fmax`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingProfile {
    /// Largest combinational broadcast fan-out on any net (e.g. the number
    /// of join cores fed directly by a lightweight distribution network).
    pub max_fanout: u64,
    /// Levels of logic on the critical path. Pipelined (scalable) networks
    /// trade fan-out for extra levels.
    pub logic_levels: u32,
}

impl TimingProfile {
    /// A profile for simple registered logic: fan-out 2, four levels.
    pub fn baseline() -> Self {
        Self {
            max_fanout: 2,
            logic_levels: 4,
        }
    }
}

/// Estimates the post-route maximum clock frequency of a design with the
/// given timing profile on `device`.
///
/// # Example
///
/// ```
/// use hwsim::{devices, estimate_fmax, TimingProfile};
///
/// // A 512-way broadcast slows a Virtex-7 design far below its base fmax.
/// let wide = estimate_fmax(&devices::XC7VX485T, &TimingProfile { max_fanout: 512, logic_levels: 4 });
/// let narrow = estimate_fmax(&devices::XC7VX485T, &TimingProfile::baseline());
/// assert!(wide < narrow);
/// ```
pub fn estimate_fmax(device: &Device, profile: &TimingProfile) -> Frequency {
    let fanout = profile.max_fanout.max(2) as f64;
    let k_fanout = match device.family {
        Family::Virtex5 => K_FANOUT_V5,
        // Newer high-frequency fabrics run close to their limit and are
        // correspondingly fan-out-sensitive (the Fig. 17 effect).
        Family::Virtex7 | Family::UltraScalePlus => K_FANOUT_V7,
    };
    let levels = profile.logic_levels.max(1) as f64;
    let derate = 1.0 + K_LOGIC * (levels - 1.0) + k_fanout * (fanout / 2.0).ln();
    let mut mhz = device.base_fmax_mhz / derate;
    mhz += heuristic_noise(device, profile);
    if device.family == Family::Virtex5 && profile.max_fanout == 16 {
        mhz += V5_FANOUT16_BONUS_MHZ;
    }
    Frequency::from_mhz(mhz)
}

/// Deterministic pseudo-noise in `[-NOISE_AMPLITUDE, +NOISE_AMPLITUDE)` MHz,
/// keyed on the device and profile so repeated "synthesis runs" agree.
fn heuristic_noise(device: &Device, profile: &TimingProfile) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in device.name.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h = (h ^ profile.max_fanout).wrapping_mul(0x1000_0000_01b3);
    h = (h ^ profile.logic_levels as u64).wrapping_mul(0x1000_0000_01b3);
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    (unit * 2.0 - 1.0) * NOISE_AMPLITUDE_MHZ
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{XC5VLX50T, XC7VX485T};

    fn lightweight(n: u64) -> TimingProfile {
        TimingProfile {
            max_fanout: n,
            logic_levels: 4,
        }
    }

    fn scalable() -> TimingProfile {
        TimingProfile {
            max_fanout: 2,
            logic_levels: 6,
        }
    }

    #[test]
    fn frequency_conversions() {
        let f = Frequency::from_mhz(250.0);
        assert_eq!(f.period_ns(), 4.0);
        assert_eq!(f.cycles_to_us(500), 2.0);
        assert_eq!(f.to_string(), "250.0 MHz");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_mhz(0.0);
    }

    #[test]
    fn estimation_is_deterministic() {
        let a = estimate_fmax(&XC7VX485T, &lightweight(64));
        let b = estimate_fmax(&XC7VX485T, &lightweight(64));
        assert_eq!(a, b);
    }

    #[test]
    fn v7_lightweight_drops_with_fanout() {
        // Fig. 17: V7 lightweight frequency falls as join cores increase.
        let mut prev = f64::INFINITY;
        for n in [2u64, 8, 32, 128, 512] {
            let f = estimate_fmax(&XC7VX485T, &lightweight(n)).mhz();
            assert!(
                f < prev + 2.0 * 4.0, // allow noise-sized wiggle
                "fmax should trend down: {f} after {prev}"
            );
            prev = f;
        }
        let wide = estimate_fmax(&XC7VX485T, &lightweight(512)).mhz();
        assert!(
            (180.0..230.0).contains(&wide),
            "512-core lightweight V7 should land near 200 MHz, got {wide}"
        );
    }

    #[test]
    fn v7_scalable_stays_near_300() {
        // Fig. 17: the scalable network holds ~300 MHz regardless of size.
        let f = estimate_fmax(&XC7VX485T, &scalable()).mhz();
        assert!(
            (290.0..315.0).contains(&f),
            "scalable V7 should hold ~300 MHz, got {f}"
        );
    }

    #[test]
    fn v5_is_insensitive_to_fanout() {
        // Fig. 17: no significant drop on V5 between 2 and 16 cores.
        let f2 = estimate_fmax(&XC5VLX50T, &lightweight(2)).mhz();
        let f16 = estimate_fmax(&XC5VLX50T, &lightweight(16)).mhz();
        let drop = (f2 - f16) / f2;
        assert!(
            drop < 0.10,
            "V5 drop should be small, got {:.1}%",
            drop * 100.0
        );
        // All V5 estimates must clear the paper's 100 MHz operating clock.
        for n in [2u64, 4, 8, 16] {
            assert!(estimate_fmax(&XC5VLX50T, &lightweight(n)).mhz() > 100.0);
        }
    }

    #[test]
    fn v5_heuristic_bump_at_16_cores() {
        // The paper observes a frequency increase at 16 join cores on V5.
        let f8 = estimate_fmax(&XC5VLX50T, &lightweight(8)).mhz();
        let f16 = estimate_fmax(&XC5VLX50T, &lightweight(16)).mhz();
        assert!(
            f16 > f8,
            "expected heuristic bump at 16 cores: {f16} vs {f8}"
        );
    }

    #[test]
    fn more_logic_levels_slow_the_clock() {
        let shallow = estimate_fmax(
            &XC7VX485T,
            &TimingProfile {
                max_fanout: 2,
                logic_levels: 4,
            },
        );
        let deep = estimate_fmax(
            &XC7VX485T,
            &TimingProfile {
                max_fanout: 2,
                logic_levels: 12,
            },
        );
        assert!(deep < shallow);
    }
}
