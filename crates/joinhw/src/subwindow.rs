//! A BRAM-backed circular sub-window shared by both join-core designs.

use hwsim::Bram;
use streamcore::Tuple;

/// One join core's share of a stream's sliding window: a circular buffer
/// in block RAM. Storing into a full sub-window overwrites (expires) the
/// oldest tuple.
#[derive(Debug, Clone)]
pub struct SubWindow {
    bram: Bram<Tuple>,
    /// The address the next stored tuple goes to.
    head: usize,
    occupancy: usize,
}

impl SubWindow {
    /// Creates an empty sub-window of `capacity` tuples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self {
            bram: Bram::new(capacity),
            head: 0,
            occupancy: 0,
        }
    }

    /// Maximum number of tuples retained.
    pub fn capacity(&self) -> usize {
        self.bram.capacity()
    }

    /// Number of tuples currently stored.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Opens a new clock cycle on the underlying BRAM (port accounting).
    pub fn begin_cycle(&mut self) {
        self.bram.begin_cycle();
    }

    /// Stores `tuple`, expiring and returning the oldest stored tuple if
    /// the sub-window was full. Costs one BRAM write port.
    pub fn store(&mut self, tuple: Tuple) -> Option<Tuple> {
        let expired =
            Some(self.bram.write(self.head, tuple)).filter(|_| self.occupancy == self.capacity());
        self.head += 1;
        if self.head == self.capacity() {
            self.head = 0;
        }
        if self.occupancy < self.capacity() {
            self.occupancy += 1;
        }
        expired
    }

    /// Reads the `idx`-th oldest stored tuple (`0` = oldest). Costs one
    /// BRAM read port.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= occupancy()`.
    pub fn read(&mut self, idx: usize) -> Tuple {
        assert!(idx < self.occupancy, "read index {idx} out of occupancy");
        let cap = self.capacity();
        let oldest = (self.head + cap - self.occupancy) % cap;
        self.bram.read((oldest + idx) % cap)
    }

    /// Stores `tuples` in order, bypassing clocked port accounting — for
    /// pre-filling windows before a measurement. The window then holds
    /// what [`store`](Self::store) would leave, one tuple at a time: the
    /// same tuples in the same order, the same occupancy, and the same
    /// tuple expired next. When `tuples` outnumber the capacity, only the
    /// newest are written.
    pub fn fill(&mut self, tuples: &[Tuple]) {
        let cap = self.capacity();
        let kept = &tuples[tuples.len().saturating_sub(cap)..];
        let (to_end, wrapped) = kept.split_at(kept.len().min(cap - self.head));
        self.bram.load(self.head, to_end);
        self.bram.load(0, wrapped);
        self.head += kept.len();
        if self.head >= cap {
            self.head -= cap;
        }
        self.occupancy = (self.occupancy + tuples.len()).min(cap);
    }

    /// Iterates over stored tuples from oldest to newest, without port
    /// accounting (test/verification use).
    pub fn snapshot(&self) -> Vec<Tuple> {
        let occ = self.occupancy;
        let cap = self.capacity();
        let oldest = (self.head + cap - occ) % cap;
        (0..occ)
            .map(|i| self.bram.peek((oldest + i) % cap))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn t(k: u32) -> Tuple {
        Tuple::new(k, 0)
    }

    #[test]
    fn stores_and_reads_in_age_order() {
        let mut w = SubWindow::new(4);
        for k in 0..3 {
            w.begin_cycle();
            assert_eq!(w.store(t(k)), None);
        }
        w.begin_cycle();
        assert_eq!(w.read(0), t(0));
        w.begin_cycle();
        assert_eq!(w.read(2), t(2));
        assert_eq!(w.occupancy(), 3);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut w = SubWindow::new(2);
        w.begin_cycle();
        w.store(t(1));
        w.begin_cycle();
        w.store(t(2));
        w.begin_cycle();
        assert_eq!(w.store(t(3)), Some(t(1)));
        w.begin_cycle();
        assert_eq!(w.read(0), t(2));
        w.begin_cycle();
        assert_eq!(w.read(1), t(3));
    }

    #[test]
    fn wraparound_keeps_order_across_many_generations() {
        let mut w = SubWindow::new(3);
        for k in 0..10 {
            w.begin_cycle();
            w.store(t(k));
        }
        assert_eq!(w.snapshot(), vec![t(7), t(8), t(9)]);
    }

    #[test]
    fn fill_bypasses_ports_and_matches_store_semantics() {
        let mut a = SubWindow::new(3);
        let mut b = SubWindow::new(3);
        let ts: Vec<Tuple> = (0..5).map(t).collect();
        a.fill(&ts);
        for &x in &ts {
            b.begin_cycle();
            b.store(x);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bulk fills, after any earlier ones, leave what storing the same
        /// tuples one at a time leaves: the same tuples in the same order,
        /// the same occupancy, and the same tuple expired next.
        #[test]
        fn fill_equals_storing_one_at_a_time(
            cap in 1usize..9,
            earlier in prop::collection::vec(0usize..20, 0..4),
            len in 0usize..30,
        ) {
            let mut bulk = SubWindow::new(cap);
            let mut single = SubWindow::new(cap);
            let mut next = 0u32;
            let mut batch = |n: usize| {
                let ts: Vec<Tuple> = (next..next + n as u32).map(t).collect();
                next += n as u32;
                ts
            };
            for xs in earlier.into_iter().chain([len]).map(&mut batch) {
                bulk.fill(&xs);
                for &x in &xs {
                    single.begin_cycle();
                    single.store(x);
                }
            }
            prop_assert_eq!(bulk.snapshot(), single.snapshot());
            prop_assert_eq!(bulk.occupancy(), single.occupancy());
            bulk.begin_cycle();
            single.begin_cycle();
            prop_assert_eq!(bulk.store(t(u32::MAX)), single.store(t(u32::MAX)));
        }
    }

    #[test]
    #[should_panic(expected = "out of occupancy")]
    fn reading_past_occupancy_panics() {
        let mut w = SubWindow::new(2);
        w.begin_cycle();
        w.store(t(1));
        w.read(1);
    }
}
