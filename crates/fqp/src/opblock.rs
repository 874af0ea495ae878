//! Online-Programmable Blocks (OP-Blocks): the runtime-reprogrammable
//! operator units of the FQP fabric.
//!
//! An OP-Block "implements selection, projection, and join operations,
//! where the conditions of each operator can seamlessly be adjusted at
//! runtime" — no re-synthesis, no halt. Each block has two input ports
//! (joins use both) and one output, and runs one bound [`PlanOp`]; its
//! program is that operator or one of the block-only states, idle and
//! passthrough.

use std::collections::VecDeque;
use std::fmt;

use streamcore::{Record, SlidingWindow};

use crate::plan::{Plan, PlanOp};
use crate::query::{AggFunc, WindowKind};

/// Identifier of a block within a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OP-Block#{}", self.0)
    }
}

/// Input port of a block. Single-input operators use [`Port::Left`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Primary input.
    Left,
    /// Secondary input (the probe side of a join's other stream).
    Right,
}

/// The operator a block is currently programmed to execute: one bound
/// [`PlanOp`], or one of the two states only a block has.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockProgram {
    /// Unprogrammed: drop all input (a freshly allocated block).
    Idle,
    /// Forward records unchanged.
    Passthrough,
    /// Run one bound operator. A join takes its two inputs on the two
    /// ports and emits the left record followed by the right one.
    Op(PlanOp),
}

impl BlockProgram {
    /// Short operator mnemonic (display / debugging).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BlockProgram::Idle => "idle",
            BlockProgram::Passthrough => "pass",
            BlockProgram::Op(PlanOp::Select { .. }) => "select",
            BlockProgram::Op(PlanOp::SelectTable { .. }) => "select-table",
            BlockProgram::Op(PlanOp::Project { .. }) => "project",
            BlockProgram::Op(PlanOp::Join { .. }) => "join",
            BlockProgram::Op(PlanOp::Aggregate { .. }) => "aggregate",
        }
    }

    /// The programs of `plan`'s blocks, one per operator in pipeline
    /// order; a plan without operators occupies one passthrough block.
    pub(crate) fn pipeline(plan: &Plan) -> Vec<BlockProgram> {
        if plan.ops.is_empty() {
            vec![BlockProgram::Passthrough]
        } else {
            plan.ops.iter().cloned().map(BlockProgram::Op).collect()
        }
    }
}

/// The running state of one windowed aggregate: the one implementation
/// behind an aggregate OP-Block and the `query` runtime's inline
/// aggregates. A sliding window emits the running value on every input;
/// a tumbling window emits once per full window, then starts over.
/// COUNT, SUM and AVG read a running `u128` sum (SUM keeps its low 64
/// bits); MIN and MAX scan the window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAggregate {
    func: AggFunc,
    field: Option<usize>,
    window: usize,
    kind: WindowKind,
    values: VecDeque<u64>,
    sum: u128,
}

impl WindowAggregate {
    /// The empty window of `op`, when `op` is a [`PlanOp::Aggregate`].
    pub fn of(op: &PlanOp) -> Option<Self> {
        let PlanOp::Aggregate {
            func,
            field,
            window,
            kind,
        } = *op
        else {
            return None;
        };
        Some(Self {
            func,
            field,
            window,
            kind,
            values: VecDeque::new(),
            sum: 0,
        })
    }

    /// Folds one record's field values in — the aggregated field, a
    /// missing one as 0, or 1 for `COUNT` — and returns the aggregate
    /// when the window emits.
    pub fn push(&mut self, record: &[u64]) -> Option<u64> {
        let value = self
            .field
            .map_or(1, |i| record.get(i).copied().unwrap_or(0));
        self.values.push_back(value);
        self.sum += u128::from(value);
        if self.values.len() > self.window {
            if let Some(expired) = self.values.pop_front() {
                self.sum -= u128::from(expired);
            }
        }
        if self.kind == WindowKind::Tumbling && self.values.len() < self.window {
            return None;
        }
        let len = self.values.len() as u64;
        let out = match self.func {
            AggFunc::Count => len,
            AggFunc::Sum => self.sum as u64,
            AggFunc::Avg => (self.sum / u128::from(len.max(1))) as u64,
            AggFunc::Min => self.values.iter().copied().min().unwrap_or(0),
            AggFunc::Max => self.values.iter().copied().max().unwrap_or(0),
        };
        if self.kind == WindowKind::Tumbling {
            self.values.clear();
            self.sum = 0;
        }
        Some(out)
    }
}

/// One OP-Block instance.
#[derive(Debug, Clone)]
pub struct OpBlock {
    id: BlockId,
    program: BlockProgram,
    window_left: Option<SlidingWindow<Record>>,
    window_right: Option<SlidingWindow<Record>>,
    aggregate: Option<WindowAggregate>,
}

impl OpBlock {
    /// Creates an idle block.
    pub fn new(id: BlockId) -> Self {
        Self {
            id,
            program: BlockProgram::Idle,
            window_left: None,
            window_right: None,
            aggregate: None,
        }
    }

    /// The block's identifier.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The current program.
    pub fn program(&self) -> &BlockProgram {
        &self.program
    }

    /// `true` if the block is free for assignment.
    pub fn is_idle(&self) -> bool {
        matches!(self.program, BlockProgram::Idle)
    }

    /// (Re)programs the block at runtime — the FQP micro-change path:
    /// takes effect immediately, clearing any join or aggregate window.
    pub fn reprogram(&mut self, program: BlockProgram) {
        if let BlockProgram::Op(PlanOp::Join { window, .. }) = &program {
            self.window_left = Some(SlidingWindow::new((*window).max(1)));
            self.window_right = Some(SlidingWindow::new((*window).max(1)));
        } else {
            self.window_left = None;
            self.window_right = None;
        }
        self.aggregate = match &program {
            BlockProgram::Op(op) => WindowAggregate::of(op),
            _ => None,
        };
        self.program = program;
    }

    /// Processes one record arriving on `port`, returning the emitted
    /// records.
    pub fn process(&mut self, port: Port, record: Record) -> Vec<Record> {
        match &self.program {
            BlockProgram::Idle => Vec::new(),
            BlockProgram::Passthrough => vec![record],
            BlockProgram::Op(op @ (PlanOp::Select { .. } | PlanOp::SelectTable { .. })) => {
                if op.passes(record.values()) {
                    vec![record]
                } else {
                    Vec::new()
                }
            }
            BlockProgram::Op(PlanOp::Project { fields }) => {
                let values = fields
                    .iter()
                    .filter_map(|&i| record.get(i))
                    .collect::<Vec<u64>>();
                vec![Record::new(values)]
            }
            BlockProgram::Op(PlanOp::Join {
                key_left,
                key_right,
                ..
            }) => {
                let (key_probe, key_stored) = match port {
                    Port::Left => (*key_left, *key_right),
                    Port::Right => (*key_right, *key_left),
                };
                let probe_key = record.get(key_probe);
                let (own, other) = match port {
                    Port::Left => (&mut self.window_left, &mut self.window_right),
                    Port::Right => (&mut self.window_right, &mut self.window_left),
                };
                let mut out = Vec::new();
                if let (Some(probe_key), Some(other)) = (probe_key, other.as_mut()) {
                    for stored in other.iter() {
                        if stored.get(key_stored) == Some(probe_key) {
                            // Output order is always left ++ right.
                            let pair = match port {
                                Port::Left => (&record, stored),
                                Port::Right => (stored, &record),
                            };
                            let mut values = pair.0.values().to_vec();
                            values.extend_from_slice(pair.1.values());
                            out.push(Record::new(values));
                        }
                    }
                }
                if let Some(own) = own.as_mut() {
                    own.insert(record);
                }
                out
            }
            BlockProgram::Op(PlanOp::Aggregate { .. }) => self
                .aggregate
                .as_mut()
                .and_then(|agg| agg.push(record.values()))
                .map(|value| vec![Record::new(vec![value])])
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::BoundCondition;
    use crate::query::CmpOp;
    use proptest::prelude::*;

    fn rec(values: &[u64]) -> Record {
        Record::new(values.to_vec())
    }

    #[test]
    fn idle_blocks_drop_everything() {
        let mut b = OpBlock::new(BlockId(0));
        assert!(b.is_idle());
        assert!(b.process(Port::Left, rec(&[1, 2])).is_empty());
    }

    #[test]
    fn select_filters_on_all_conditions() {
        let mut b = OpBlock::new(BlockId(1));
        b.reprogram(BlockProgram::Op(PlanOp::Select {
            conditions: vec![
                BoundCondition {
                    field: 1,
                    op: CmpOp::Gt,
                    value: 25,
                },
                BoundCondition {
                    field: 2,
                    op: CmpOp::Eq,
                    value: 1,
                },
            ],
        }));
        assert_eq!(b.process(Port::Left, rec(&[9, 30, 1])).len(), 1);
        assert!(b.process(Port::Left, rec(&[9, 30, 0])).is_empty());
        assert!(b.process(Port::Left, rec(&[9, 20, 1])).is_empty());
    }

    #[test]
    fn project_keeps_fields_in_order() {
        let mut b = OpBlock::new(BlockId(2));
        b.reprogram(BlockProgram::Op(PlanOp::Project { fields: vec![2, 0] }));
        let out = b.process(Port::Left, rec(&[10, 11, 12]));
        assert_eq!(out, vec![rec(&[12, 10])]);
    }

    #[test]
    fn join_emits_left_concat_right_regardless_of_probe_side() {
        let mut b = OpBlock::new(BlockId(3));
        b.reprogram(BlockProgram::Op(PlanOp::Join {
            key_left: 0,
            key_right: 0,
            window: 4,
        }));
        assert!(b.process(Port::Right, rec(&[7, 100])).is_empty());
        let out = b.process(Port::Left, rec(&[7, 55, 1]));
        assert_eq!(out, vec![rec(&[7, 55, 1, 7, 100])]);
        // Probe from the right against the stored left record.
        let out = b.process(Port::Right, rec(&[7, 200]));
        assert_eq!(out, vec![rec(&[7, 55, 1, 7, 200])]);
    }

    #[test]
    fn join_window_expires_oldest() {
        let mut b = OpBlock::new(BlockId(4));
        b.reprogram(BlockProgram::Op(PlanOp::Join {
            key_left: 0,
            key_right: 0,
            window: 2,
        }));
        for k in [1u64, 2, 3] {
            b.process(Port::Right, rec(&[k]));
        }
        // Key 1 has expired from the right window (capacity 2).
        assert!(b.process(Port::Left, rec(&[1])).is_empty());
        assert_eq!(b.process(Port::Left, rec(&[3])).len(), 1);
    }

    #[test]
    fn reprogramming_switches_operator_and_clears_windows() {
        let mut b = OpBlock::new(BlockId(5));
        b.reprogram(BlockProgram::Op(PlanOp::Join {
            key_left: 0,
            key_right: 0,
            window: 4,
        }));
        b.process(Port::Right, rec(&[1]));
        b.reprogram(BlockProgram::Passthrough);
        assert_eq!(b.process(Port::Left, rec(&[1])), vec![rec(&[1])]);
        // Back to a join: the old window contents are gone.
        b.reprogram(BlockProgram::Op(PlanOp::Join {
            key_left: 0,
            key_right: 0,
            window: 4,
        }));
        assert!(b.process(Port::Left, rec(&[1])).is_empty());
    }

    #[test]
    fn aggregates_emit_running_values_over_the_window() {
        let mut b = OpBlock::new(BlockId(6));
        b.reprogram(BlockProgram::Op(PlanOp::Aggregate {
            func: AggFunc::Sum,
            field: Some(0),
            window: 3,
            kind: WindowKind::Sliding,
        }));
        let mut sums = Vec::new();
        for v in [10u64, 20, 30, 40] {
            sums.push(b.process(Port::Left, rec(&[v]))[0].values()[0]);
        }
        // Window 3: 10, 30, 60, then 20+30+40.
        assert_eq!(sums, vec![10, 30, 60, 90]);
    }

    #[test]
    fn count_min_max_avg_behave() {
        let cases: [(AggFunc, Vec<u64>); 4] = [
            (AggFunc::Count, vec![1, 2, 2, 2]),
            (AggFunc::Min, vec![5, 3, 3, 1]),
            (AggFunc::Max, vec![5, 5, 8, 8]),
            (AggFunc::Avg, vec![5, 4, 5, 4]),
        ];
        for (func, expected) in cases {
            let mut b = OpBlock::new(BlockId(7));
            b.reprogram(BlockProgram::Op(PlanOp::Aggregate {
                func,
                field: Some(0),
                window: 2,
                kind: WindowKind::Sliding,
            }));
            let mut got = Vec::new();
            for v in [5u64, 3, 8, 1] {
                got.push(b.process(Port::Left, rec(&[v]))[0].values()[0]);
            }
            assert_eq!(got, expected, "{func:?}");
        }
    }

    #[test]
    fn tumbling_windows_emit_once_per_full_window() {
        let mut b = OpBlock::new(BlockId(12));
        b.reprogram(BlockProgram::Op(PlanOp::Aggregate {
            func: AggFunc::Sum,
            field: Some(0),
            window: 3,
            kind: WindowKind::Tumbling,
        }));
        let mut emitted = Vec::new();
        for v in 1..=7u64 {
            for r in b.process(Port::Left, rec(&[v])) {
                emitted.push(r.values()[0]);
            }
        }
        // Windows [1,2,3] and [4,5,6]; the 7th input is still buffering.
        assert_eq!(emitted, vec![6, 15]);
    }

    #[test]
    fn reprogramming_clears_aggregate_state() {
        let mut b = OpBlock::new(BlockId(8));
        let count = BlockProgram::Op(PlanOp::Aggregate {
            func: AggFunc::Count,
            field: None,
            window: 8,
            kind: WindowKind::Sliding,
        });
        b.reprogram(count.clone());
        b.process(Port::Left, rec(&[1]));
        b.process(Port::Left, rec(&[2]));
        b.reprogram(count);
        let out = b.process(Port::Left, rec(&[3]));
        assert_eq!(out[0].values()[0], 1, "state must reset on reprogram");
    }

    #[test]
    fn mnemonics_cover_all_programs() {
        assert_eq!(BlockProgram::Idle.mnemonic(), "idle");
        assert_eq!(BlockProgram::Passthrough.mnemonic(), "pass");
        assert_eq!(
            BlockProgram::Op(PlanOp::Select { conditions: vec![] }).mnemonic(),
            "select"
        );
        assert_eq!(
            BlockProgram::Op(PlanOp::Project { fields: vec![] }).mnemonic(),
            "project"
        );
        assert_eq!(
            BlockProgram::Op(PlanOp::Join {
                key_left: 0,
                key_right: 0,
                window: 1
            })
            .mnemonic(),
            "join"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The running window, on its own and inside an aggregate block,
        /// agrees with re-folding the window on every arrival — values
        /// near `u64::MAX` included, so a 64-bit sum would overflow.
        #[test]
        fn aggregates_equal_a_naive_recompute(
            window in 1usize..9,
            values in prop::collection::vec(
                prop_oneof![0u64..1_000, u64::MAX - 1_000..u64::MAX],
                0..64,
            ),
        ) {
            let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
            for func in funcs {
                let naive = |held: &[u64]| {
                    let sum: u128 = held.iter().map(|&v| u128::from(v)).sum();
                    match func {
                        AggFunc::Count => held.len() as u64,
                        AggFunc::Sum => sum as u64,
                        AggFunc::Min => held.iter().copied().min().unwrap_or(0),
                        AggFunc::Max => held.iter().copied().max().unwrap_or(0),
                        AggFunc::Avg => (sum / held.len() as u128) as u64,
                    }
                };
                for kind in [WindowKind::Sliding, WindowKind::Tumbling] {
                    let op = PlanOp::Aggregate { func, field: Some(1), window, kind };
                    let mut agg = WindowAggregate::of(&op).unwrap();
                    let mut block = OpBlock::new(BlockId(0));
                    block.reprogram(BlockProgram::Op(op));
                    for (i, &v) in values.iter().enumerate() {
                        let want = match kind {
                            WindowKind::Sliding => {
                                Some(naive(&values[(i + 1).saturating_sub(window)..=i]))
                            }
                            WindowKind::Tumbling => ((i + 1) % window == 0)
                                .then(|| naive(&values[i + 1 - window..=i])),
                        };
                        prop_assert_eq!(agg.push(&[0, v]), want, "{:?} {:?} at {}", func, kind, i);
                        let emitted: Vec<Record> = want.map(|w| rec(&[w])).into_iter().collect();
                        prop_assert_eq!(block.process(Port::Left, rec(&[0, v])), emitted);
                    }
                }
            }
        }
    }
}
