//! A block-RAM model with port accounting and activity counters.

/// On-chip block RAM holding `capacity` words of type `T`.
///
/// Models a true-dual-port BRAM: at most two accesses (reads or writes in
/// any combination) per clock cycle, enforced with `debug_assert!` so that
/// release-mode sweeps pay no cost. The access counters ([`Bram::stats`])
/// are diagnostics: nothing in the workspace reads them, and the power
/// model takes its activity factors from `DesignParams::activity()`
/// constants instead.
///
/// Reads return data immediately; designs that depend on the one-cycle
/// synchronous-read latency of a real BRAM account for it in their FSM cycle
/// counts (the join-core processing FSM overlaps read and compare as a
/// two-stage pipeline, so sustained throughput is one word per cycle either
/// way).
///
/// # Example
///
/// ```
/// use hwsim::Bram;
///
/// let mut w: Bram<u64> = Bram::new(16);
/// w.begin_cycle();
/// w.write(3, 42);
/// assert_eq!(w.read(3), Some(&42)); // second port, same cycle
/// w.begin_cycle();
/// assert_eq!(w.read(4), None); // never written
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bram<T> {
    words: Vec<Option<T>>,
    ports_used: u8,
    stats: BramStats,
}

/// Cumulative access counters for a [`Bram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BramStats {
    /// Total read accesses since construction (or the last stats reset).
    pub reads: u64,
    /// Total write accesses since construction (or the last stats reset).
    pub writes: u64,
    /// Total `begin_cycle` calls. A design that opens a BRAM only in the
    /// cycles it may access it counts those cycles alone: a bi-flow chain
    /// core counts the cycles the tuple wave spent there.
    pub cycles: u64,
}

impl BramStats {
    /// Fraction of cycles in which at least one port was active.
    ///
    /// Upper-bounded at 1.0; with dual-port access patterns the raw
    /// accesses-per-cycle may exceed one.
    pub fn activity(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let accesses = (self.reads + self.writes) as f64;
        (accesses / self.cycles as f64).min(1.0)
    }
}

// The methods a design calls every simulated cycle are `#[inline]`, so
// each codegen unit of the calling crate can inline them: a design's
// simulation speed then does not depend on which unit holds its code.
impl<T> Bram<T> {
    /// Creates a BRAM with `capacity` addressable words, all unwritten.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[inline]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bram capacity must be at least 1");
        let mut words = Vec::with_capacity(capacity);
        words.resize_with(capacity, || None);
        Self {
            words,
            ports_used: 0,
            stats: BramStats::default(),
        }
    }

    /// Number of addressable words.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Opens a new clock cycle: resets port accounting.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.ports_used = 0;
        self.stats.cycles += 1;
    }

    /// Reads the word at `addr`, or `None` if that address was never
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range. In debug builds, panics if more
    /// than two ports are used in one cycle.
    #[inline]
    pub fn read(&mut self, addr: usize) -> Option<&T> {
        self.use_port();
        self.stats.reads += 1;
        self.words[addr].as_ref()
    }

    /// Writes `value` at `addr`, returning the previous word if present.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range. In debug builds, panics if more
    /// than two ports are used in one cycle.
    #[inline]
    pub fn write(&mut self, addr: usize, value: T) -> Option<T> {
        self.use_port();
        self.stats.writes += 1;
        self.words[addr].replace(value)
    }

    /// Writes without port accounting; for pre-filling state before a
    /// measurement starts.
    #[inline]
    pub fn load(&mut self, addr: usize, value: T) {
        self.words[addr] = Some(value);
    }

    /// Reads without port or activity accounting — a diagnostic view for
    /// tests and verification, not part of the modeled design.
    #[inline]
    pub fn peek(&self, addr: usize) -> Option<&T> {
        self.words[addr].as_ref()
    }

    /// Cumulative access statistics.
    pub fn stats(&self) -> BramStats {
        self.stats
    }

    /// Resets access statistics (e.g. after warm-up, before measurement).
    pub fn reset_stats(&mut self) {
        self.stats = BramStats::default();
    }

    fn use_port(&mut self) {
        self.ports_used += 1;
        debug_assert!(
            self.ports_used <= 2,
            "more than two BRAM ports used in one cycle"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_what_was_written() {
        let mut b: Bram<u64> = Bram::new(8);
        b.begin_cycle();
        b.write(0, 10);
        b.write(7, 20);
        b.begin_cycle();
        assert_eq!(b.read(0), Some(&10));
        assert_eq!(b.read(7), Some(&20));
    }

    #[test]
    fn unwritten_address_reads_none() {
        let mut b: Bram<u64> = Bram::new(4);
        b.begin_cycle();
        assert_eq!(b.read(2), None);
    }

    #[test]
    fn write_returns_previous_value() {
        let mut b: Bram<u32> = Bram::new(2);
        b.begin_cycle();
        assert_eq!(b.write(0, 1), None);
        b.begin_cycle();
        assert_eq!(b.write(0, 2), Some(1));
    }

    #[test]
    #[should_panic(expected = "more than two BRAM ports")]
    #[cfg(debug_assertions)]
    fn third_port_access_panics_in_debug() {
        let mut b: Bram<u8> = Bram::new(4);
        b.begin_cycle();
        b.write(0, 1);
        b.read(0);
        b.read(1);
    }

    #[test]
    fn stats_track_accesses_and_cycles() {
        let mut b: Bram<u8> = Bram::new(4);
        for i in 0..10usize {
            b.begin_cycle();
            if i % 2 == 0 {
                b.write(i % 4, i as u8);
            }
        }
        let s = b.stats();
        assert_eq!(s.cycles, 10);
        assert_eq!(s.writes, 5);
        assert_eq!(s.reads, 0);
        assert!((s.activity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn activity_saturates_at_one() {
        let mut b: Bram<u8> = Bram::new(4);
        for _ in 0..5 {
            b.begin_cycle();
            b.read(0);
            b.write(1, 1);
        }
        assert!((b.stats().activity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn load_bypasses_port_accounting() {
        let mut b: Bram<u8> = Bram::new(4);
        b.load(0, 9);
        b.begin_cycle();
        assert_eq!(b.read(0), Some(&9));
        assert_eq!(b.stats().writes, 0);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut b: Bram<u8> = Bram::new(4);
        b.begin_cycle();
        b.write(0, 1);
        b.reset_stats();
        assert_eq!(b.stats(), BramStats::default());
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = Bram::<u8>::new(0);
    }
}
