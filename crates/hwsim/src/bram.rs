//! A block-RAM model: words are plain values, checked for dual-port use in
//! debug builds.

/// On-chip block RAM holding `capacity` words of type `T`.
///
/// Models a true-dual-port BRAM: at most two accesses (reads or writes in
/// any combination) per clock cycle. The port count exists only under
/// `debug_assertions`, so release-mode sweeps pay nothing for the check.
/// A word never written reads `T::default()`, as a RAM initialised to
/// zero at configuration does. There are no access counters: the power
/// model takes its activity factors from `DesignParams::activity()`.
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
/// assert_eq!(w.read(3), 42); // second port, same cycle
/// w.begin_cycle();
/// assert_eq!(w.read(4), 0); // never written
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bram<T> {
    words: Vec<T>,
    #[cfg(debug_assertions)]
    ports_used: u8,
}

// The methods a design calls every simulated cycle are `#[inline]`, so
// each codegen unit of the calling crate can inline them: a design's
// simulation speed then does not depend on which unit holds its code.
impl<T: Copy + Default> Bram<T> {
    /// Creates a BRAM with `capacity` addressable words, all
    /// `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[inline]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bram capacity must be at least 1");
        Self {
            words: vec![T::default(); capacity],
            #[cfg(debug_assertions)]
            ports_used: 0,
        }
    }

    /// Number of addressable words.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Opens a new clock cycle: both ports are free again.
    #[inline]
    pub fn begin_cycle(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.ports_used = 0;
        }
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range. In debug builds, panics if more
    /// than two ports are used in one cycle.
    #[inline]
    pub fn read(&mut self, addr: usize) -> T {
        self.use_port();
        self.words[addr]
    }

    /// Writes `value` at `addr`, returning the word it replaces.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range. In debug builds, panics if more
    /// than two ports are used in one cycle.
    #[inline]
    pub fn write(&mut self, addr: usize, value: T) -> T {
        self.use_port();
        std::mem::replace(&mut self.words[addr], value)
    }

    /// Writes `values` from `addr` on without port accounting; for
    /// pre-filling state before a measurement starts.
    ///
    /// # Panics
    ///
    /// Panics if the words run past the end of the RAM.
    #[inline]
    pub fn load(&mut self, addr: usize, values: &[T]) {
        self.words[addr..addr + values.len()].copy_from_slice(values);
    }

    /// Reads without port accounting — a diagnostic view for tests and
    /// verification, not part of the modeled design.
    #[inline]
    pub fn peek(&self, addr: usize) -> T {
        self.words[addr]
    }

    #[inline]
    fn use_port(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.ports_used += 1;
            assert!(
                self.ports_used <= 2,
                "more than two BRAM ports used in one cycle"
            );
        }
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
        assert_eq!(b.read(0), 10);
        assert_eq!(b.read(7), 20);
    }

    #[test]
    fn unwritten_address_reads_the_default() {
        let mut b: Bram<u64> = Bram::new(4);
        b.begin_cycle();
        assert_eq!(b.read(2), 0);
    }

    #[test]
    fn write_returns_previous_value() {
        let mut b: Bram<u32> = Bram::new(2);
        b.begin_cycle();
        assert_eq!(b.write(0, 1), 0);
        b.begin_cycle();
        assert_eq!(b.write(0, 2), 1);
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
    fn load_bypasses_port_accounting() {
        let mut b: Bram<u8> = Bram::new(4);
        b.load(1, &[9, 8, 7]);
        b.begin_cycle();
        assert_eq!(b.read(0), 0);
        assert_eq!(b.read(3), 7);
        assert_eq!(b.peek(1), 9);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = Bram::<u8>::new(0);
    }
}
