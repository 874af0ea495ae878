//! Throughput measurement used by every experiment harness.

use std::fmt;
use std::time::Duration;

/// Accumulates event counts over wall-clock or simulated time and reports
/// rates.
///
/// # Example
///
/// ```
/// use streamcore::metrics::Throughput;
/// use std::time::Duration;
///
/// let t = Throughput::over_duration(1_500_000, Duration::from_millis(500));
/// assert_eq!(t.per_second(), 3_000_000.0);
/// assert_eq!(t.million_per_second(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    events: u64,
    seconds: f64,
}

impl Throughput {
    /// Throughput of `events` over `elapsed` wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    pub fn over_duration(events: u64, elapsed: Duration) -> Self {
        let seconds = elapsed.as_secs_f64();
        assert!(seconds > 0.0, "elapsed time must be positive");
        Self { events, seconds }
    }

    /// Throughput of `events` over `cycles` clock cycles at `mhz` — used by
    /// the hardware experiments, which measure in cycles and convert via
    /// the synthesis clock.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero or `mhz` is not positive.
    pub fn over_cycles(events: u64, cycles: u64, mhz: f64) -> Self {
        assert!(cycles > 0, "cycle count must be positive");
        assert!(mhz > 0.0, "clock frequency must be positive");
        Self {
            events,
            seconds: cycles as f64 / (mhz * 1e6),
        }
    }

    /// Total events counted.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events per second.
    pub fn per_second(&self) -> f64 {
        self.events as f64 / self.seconds
    }

    /// Events per second, in millions — the unit of the paper's throughput
    /// figures.
    pub fn million_per_second(&self) -> f64 {
        self.per_second() / 1e6
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} M tuples/s", self.million_per_second())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_over_duration() {
        let t = Throughput::over_duration(2_000_000, Duration::from_secs(2));
        assert_eq!(t.per_second(), 1e6);
        assert_eq!(t.million_per_second(), 1.0);
        assert_eq!(t.events(), 2_000_000);
    }

    #[test]
    fn throughput_over_cycles_matches_hand_math() {
        // 1000 tuples over 100_000 cycles at 100 MHz = 1 ms -> 1 M/s.
        let t = Throughput::over_cycles(1_000, 100_000, 100.0);
        assert!((t.per_second() - 1e6).abs() < 1e-3);
    }

    #[test]
    fn throughput_display() {
        let t = Throughput::over_duration(500, Duration::from_secs(1));
        assert_eq!(t.to_string(), "0.0005 M tuples/s");
    }

    #[test]
    #[should_panic(expected = "elapsed time must be positive")]
    fn zero_duration_panics() {
        let _ = Throughput::over_duration(1, Duration::ZERO);
    }
}
