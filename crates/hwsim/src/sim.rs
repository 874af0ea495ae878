//! The two-phase synchronous simulation kernel.

/// A clocked hardware component.
///
/// Components follow the two-phase synchronous-circuit discipline. Each
/// simulated clock cycle proceeds as:
///
/// 1. [`begin_cycle`](Component::begin_cycle) — snapshot cycle-start state
///    (FIFO occupancies, register outputs);
/// 2. [`eval`](Component::eval) — compute combinational logic against the
///    snapshot and *stage* register/FIFO updates;
/// 3. [`commit`](Component::commit) — latch staged updates.
///
/// Because `eval` only observes cycle-start state and only stages updates,
/// the order in which sibling components evaluate never changes behaviour —
/// the same property a real netlist has.
///
/// Composite components forward all three calls to their children.
pub trait Component {
    /// Snapshot cycle-start state. Called exactly once per cycle, before
    /// [`eval`](Component::eval).
    fn begin_cycle(&mut self);

    /// Compute combinational outputs and stage sequential updates.
    fn eval(&mut self);

    /// Latch staged updates, completing the clock cycle.
    fn commit(&mut self);
}

/// Drives a [`Component`] through clock cycles and tracks simulated time.
///
/// # Example
///
/// ```
/// use hwsim::{Component, Simulator};
///
/// // A counter register: `eval` stages the next value, `commit` latches it.
/// struct Counter {
///     value: u64,
///     next: u64,
/// }
/// impl Component for Counter {
///     fn begin_cycle(&mut self) {}
///     fn eval(&mut self) {
///         self.next = self.value + 1;
///     }
///     fn commit(&mut self) {
///         self.value = self.next;
///     }
/// }
///
/// let mut c = Counter { value: 0, next: 0 };
/// let mut sim = Simulator::new();
/// sim.run(&mut c, 10);
/// assert_eq!(c.value, 10);
/// assert_eq!(sim.cycle(), 10);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Simulator {
    cycle: u64,
}

impl Simulator {
    /// Creates a simulator at cycle zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of clock cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the design by one clock cycle.
    #[inline]
    pub fn step<C: Component + ?Sized>(&mut self, root: &mut C) {
        root.begin_cycle();
        root.eval();
        root.commit();
        self.cycle += 1;
    }

    /// Advances the design by `cycles` clock cycles.
    pub fn run<C: Component + ?Sized>(&mut self, root: &mut C, cycles: u64) {
        for _ in 0..cycles {
            self.step(root);
        }
    }

    /// Steps the design until `done` returns `true`, or until `max_cycles`
    /// additional cycles have elapsed. The predicate is evaluated after each
    /// cycle. Returns `true` if the predicate fired.
    pub fn run_until<C, F>(&mut self, root: &mut C, max_cycles: u64, mut done: F) -> bool
    where
        C: Component + ?Sized,
        F: FnMut(&C) -> bool,
    {
        for _ in 0..max_cycles {
            self.step(root);
            if done(root) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter register: `eval` stages the next value, `commit` latches
    /// it. `observed` records the value each `eval` saw.
    #[derive(Default)]
    struct Counter {
        value: u64,
        next: u64,
        observed: Vec<u64>,
    }

    impl Component for Counter {
        fn begin_cycle(&mut self) {}
        fn eval(&mut self) {
            self.next = self.value + 1;
            self.observed.push(self.value);
        }
        fn commit(&mut self) {
            self.value = self.next;
        }
    }

    #[test]
    fn step_advances_one_cycle() {
        let mut c = Counter::default();
        let mut sim = Simulator::new();
        sim.step(&mut c);
        assert_eq!(sim.cycle(), 1);
        assert_eq!(c.value, 1);
    }

    #[test]
    fn run_advances_many_cycles() {
        let mut c = Counter::default();
        let mut sim = Simulator::new();
        sim.run(&mut c, 1000);
        assert_eq!(sim.cycle(), 1000);
        assert_eq!(c.value, 1000);
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut c = Counter::default();
        let mut sim = Simulator::new();
        let fired = sim.run_until(&mut c, 100, |c| c.value == 7);
        assert!(fired);
        assert_eq!(sim.cycle(), 7);
    }

    #[test]
    fn run_until_gives_up_after_max_cycles() {
        let mut c = Counter::default();
        let mut sim = Simulator::new();
        let fired = sim.run_until(&mut c, 5, |c| c.value == 7);
        assert!(!fired);
        assert_eq!(sim.cycle(), 5);
    }

    #[test]
    fn register_update_is_not_visible_within_cycle() {
        // A value staged during eval must not be seen until commit.
        let mut c = Counter::default();
        let mut sim = Simulator::new();
        sim.run(&mut c, 3);
        // eval observes the value at the start of each cycle.
        assert_eq!(c.observed, vec![0, 1, 2]);
    }
}
