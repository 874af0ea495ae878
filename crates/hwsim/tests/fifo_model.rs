//! `hwsim::Fifo` against a plain reference model of its registered
//! semantics, over arbitrary sequences of its calls.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use hwsim::Fifo;
use proptest::prelude::*;

/// What a registered FIFO holds: the elements latched at the last clock
/// edge (poppable), the pushes staged since (latched at the next
/// `commit`), and the occupancy its `full` flag was registered from.
struct Model {
    capacity: usize,
    latched: VecDeque<u32>,
    staged: Vec<u32>,
    full_flag_occupancy: usize,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            latched: VecDeque::new(),
            staged: Vec::new(),
            full_flag_occupancy: 0,
        }
    }

    fn begin_cycle(&mut self) {
        self.full_flag_occupancy = self.latched.len();
    }

    /// A pop within the cycle frees no space for a push in that cycle.
    fn can_push(&self) -> bool {
        self.full_flag_occupancy + self.staged.len() < self.capacity
    }

    fn push(&mut self, value: u32) -> bool {
        let accepted = self.can_push();
        if accepted {
            self.staged.push(value);
        }
        accepted
    }

    fn commit(&mut self) {
        self.latched.extend(self.staged.drain(..));
        self.full_flag_occupancy = self.latched.len();
    }

    /// A load is refused once what is latched and what is staged fill
    /// the FIFO: the next `commit` would leave it above capacity.
    fn can_load(&self) -> bool {
        self.latched.len() + self.staged.len() < self.capacity
    }

    /// An unclocked insert behind what is latched, ahead of what is staged.
    fn load(&mut self, value: u32) {
        self.latched.push_back(value);
        self.full_flag_occupancy = self.latched.len();
    }
}

/// One call on the FIFO.
#[derive(Debug, Clone, Copy)]
enum Op {
    BeginCycle,
    Push(u32),
    Pop,
    Commit,
    Load(u32),
}

fn op() -> impl Strategy<Value = Op> {
    // Weights: pushes, pops and clock calls dominate; loads are rarer.
    (0u8..19, any::<u32>()).prop_map(|(kind, value)| match kind {
        0..=3 => Op::BeginCycle,
        4..=8 => Op::Push(value),
        9..=12 => Op::Pop,
        13..=16 => Op::Commit,
        _ => Op::Load(value),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every call returns what the model returns, and after every call
    /// every flag, count and `front` agrees with the model: pushes staged
    /// between cycles and loads while pushes are staged included, and the
    /// FIFO never holds more than its capacity.
    #[test]
    fn fifo_matches_its_reference_model(
        capacity in 1usize..6,
        ops in prop::collection::vec(op(), 1..300),
    ) {
        let mut fifo = Fifo::new(capacity);
        let mut model = Model::new(capacity);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::BeginCycle => {
                    fifo.begin_cycle();
                    model.begin_cycle();
                }
                Op::Push(v) => {
                    prop_assert_eq!(fifo.push(v).is_ok(), model.push(v), "step {} {:?}", step, op);
                }
                Op::Pop => {
                    prop_assert_eq!(fifo.pop(), model.latched.pop_front(), "step {} {:?}", step, op);
                }
                Op::Commit => {
                    fifo.commit();
                    model.commit();
                }
                Op::Load(v) if model.can_load() => {
                    fifo.load(v);
                    model.load(v);
                }
                // A refused load panics, and leaves the FIFO as it was.
                Op::Load(v) => {
                    let refused = catch_unwind(AssertUnwindSafe(|| fifo.load(v)));
                    prop_assert!(refused.is_err(), "step {} {:?}: load accepted", step, op);
                }
            }
            prop_assert!(fifo.committed_len() <= capacity, "step {} {:?}", step, op);
            prop_assert_eq!(fifo.can_push(), model.can_push(), "step {} {:?}", step, op);
            prop_assert_eq!(fifo.can_pop(), !model.latched.is_empty(), "step {} {:?}", step, op);
            prop_assert_eq!(fifo.len(), model.latched.len(), "step {} {:?}", step, op);
            prop_assert_eq!(
                fifo.committed_len(),
                model.latched.len() + model.staged.len(),
                "step {} {:?}", step, op
            );
            prop_assert_eq!(fifo.is_empty(), model.latched.is_empty(), "step {} {:?}", step, op);
            prop_assert_eq!(fifo.front(), model.latched.front(), "step {} {:?}", step, op);
        }
    }
}
