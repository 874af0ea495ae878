//! A registered hardware FIFO with two-phase (stage/commit) semantics.

use std::collections::VecDeque;

use crate::FifoFullError;

/// A fixed-capacity, registered FIFO.
///
/// Semantics match a synchronous hardware FIFO with registered flags:
///
/// * elements pushed in cycle *t* become poppable in cycle *t + 1*;
/// * the `full` indication ([`can_push`](Fifo::can_push)) is computed from
///   the occupancy at the start of the cycle — a pop in the same cycle does
///   *not* free space for a same-cycle push;
/// * [`can_pop`](Fifo::can_pop)/[`pop`](Fifo::pop) only see elements present
///   at the start of the cycle.
///
/// The [`begin_cycle`](Fifo::begin_cycle)/[`commit`](Fifo::commit) calls are
/// normally driven by the enclosing [`Component`](crate::Component).
///
/// # Example
///
/// ```
/// use hwsim::Fifo;
///
/// let mut f = Fifo::new(2);
/// f.begin_cycle();
/// f.push(1u8)?;
/// assert!(!f.can_pop()); // not visible until the clock edge
/// f.commit();
///
/// f.begin_cycle();
/// assert_eq!(f.pop(), Some(1));
/// f.commit();
/// # Ok::<(), hwsim::FifoFullError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    staged: Vec<T>,
    capacity: usize,
    start_len: usize,
}

// The methods a design calls every simulated cycle are `#[inline]`, so
// each codegen unit of the calling crate can inline them: a design's
// simulation speed then does not depend on which unit holds its code.
impl<T> Fifo<T> {
    /// Creates an empty FIFO holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be at least 1");
        Self {
            items: VecDeque::with_capacity(capacity),
            staged: Vec::new(),
            capacity,
            start_len: 0,
        }
    }

    /// Maximum number of stored elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of elements currently poppable (cycle-start view minus pops
    /// already performed this cycle).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if no element is poppable this cycle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total occupancy including staged pushes (the occupancy the FIFO will
    /// report after the clock edge if nothing pops).
    #[inline]
    pub fn committed_len(&self) -> usize {
        self.items.len() + self.staged.len()
    }

    /// Snapshots cycle-start occupancy. Call once per cycle before any
    /// `push`/`pop`. Elements pushed *between* cycles (e.g. by a testbench
    /// offering input) remain staged and latch at this cycle's commit.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.start_len = self.items.len();
    }

    /// Returns `true` if a push is accepted this cycle: the registered
    /// `full` flag, based on cycle-start occupancy plus pushes already
    /// staged this cycle.
    #[inline]
    pub fn can_push(&self) -> bool {
        self.start_len + self.staged.len() < self.capacity
    }

    /// Stages `value` for insertion at the next clock edge.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] if the FIFO's registered `full` flag is
    /// asserted; the element is returned to the caller via the error path
    /// untouched (the staged queue is unchanged).
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), FifoFullError> {
        if !self.can_push() {
            return Err(FifoFullError {
                capacity: self.capacity,
            });
        }
        self.staged.push(value);
        Ok(())
    }

    /// Returns `true` if an element is poppable this cycle.
    #[inline]
    pub fn can_pop(&self) -> bool {
        !self.items.is_empty()
    }

    /// Pops the oldest element present at the start of the cycle, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest poppable element without removing it.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Latches staged pushes, completing the clock cycle.
    #[inline]
    pub fn commit(&mut self) {
        self.items.extend(self.staged.drain(..));
        // After the edge, occupancy snapshot becomes stale; refresh so that
        // sequences of commit() without an interleaved begin_cycle() (e.g.
        // during test setup) remain consistent.
        self.start_len = self.items.len();
    }

    /// Directly inserts an element, bypassing clocked semantics.
    ///
    /// Intended for test setup and for pre-filling windows before a
    /// measurement starts.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO holds `capacity` elements counting staged
    /// pushes: the next `commit` would leave it above capacity.
    #[inline]
    pub fn load(&mut self, value: T) {
        assert!(
            self.committed_len() < self.capacity,
            "load into full fifo (capacity {})",
            self.capacity
        );
        self.items.push_back(value);
        self.start_len = self.items.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle<T>(f: &mut Fifo<T>, body: impl FnOnce(&mut Fifo<T>)) {
        f.begin_cycle();
        body(f);
        f.commit();
    }

    #[test]
    fn push_not_visible_same_cycle() {
        let mut f = Fifo::new(4);
        f.begin_cycle();
        f.push(1u32).unwrap();
        assert!(!f.can_pop());
        assert_eq!(f.pop(), None);
        f.commit();
        f.begin_cycle();
        assert_eq!(f.pop(), Some(1));
    }

    #[test]
    fn full_flag_is_registered() {
        let mut f = Fifo::new(1);
        cycle(&mut f, |f| f.push(1u32).unwrap());
        // FIFO now holds one element; same-cycle pop does not free space.
        f.begin_cycle();
        assert_eq!(f.pop(), Some(1));
        assert!(!f.can_push(), "pop must not free space within the cycle");
        assert!(f.push(2).is_err());
        f.commit();
        // Next cycle the space is visible again.
        f.begin_cycle();
        assert!(f.can_push());
        f.push(2).unwrap();
        f.commit();
        f.begin_cycle();
        assert_eq!(f.pop(), Some(2));
    }

    #[test]
    fn capacity_respected_across_staged_pushes() {
        let mut f = Fifo::new(2);
        f.begin_cycle();
        f.push(1u8).unwrap();
        f.push(2u8).unwrap();
        assert!(f.push(3u8).is_err());
        f.commit();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn fifo_preserves_order() {
        let mut f = Fifo::new(8);
        cycle(&mut f, |f| {
            for i in 0..5u32 {
                f.push(i).unwrap();
            }
        });
        f.begin_cycle();
        let drained: Vec<_> = std::iter::from_fn(|| f.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn load_bypasses_clocking() {
        let mut f = Fifo::new(3);
        for v in [1u8, 2, 3] {
            f.load(v);
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.front(), Some(&1));
    }

    #[test]
    #[should_panic(expected = "load into full fifo")]
    fn load_into_full_fifo_panics() {
        let mut f = Fifo::new(1);
        f.load(1u8);
        f.load(2u8);
    }

    #[test]
    #[should_panic(expected = "load into full fifo")]
    fn load_counts_staged_pushes() {
        // Two staged pushes fill a capacity-2 FIFO at the next edge, so a
        // load now would leave it holding three.
        let mut f = Fifo::new(2);
        f.begin_cycle();
        f.push(1u8).unwrap();
        f.push(2u8).unwrap();
        f.load(3u8);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = Fifo::<u8>::new(0);
    }

    #[test]
    fn steady_state_throughput_one_per_cycle() {
        // A FIFO of depth >= 2 sustains one element per cycle.
        let mut f = Fifo::new(2);
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for _ in 0..100 {
            f.begin_cycle();
            if f.can_pop() {
                f.pop();
                popped += 1;
            }
            if f.can_push() {
                f.push(0u8).unwrap();
                pushed += 1;
            }
            f.commit();
        }
        assert!(popped >= 98, "popped only {popped} in 100 cycles");
        assert!(pushed >= 99);
    }
}
