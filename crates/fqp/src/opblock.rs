//! Online-Programmable Blocks (OP-Blocks): the runtime-reprogrammable
//! operator units of the FQP fabric.
//!
//! An OP-Block "implements selection, projection, and join operations,
//! where the conditions of each operator can seamlessly be adjusted at
//! runtime" — no re-synthesis, no halt. Each block has two input ports
//! (joins use both) and one output.

use std::collections::VecDeque;
use std::fmt;

use hwsim::Resources;
use streamcore::{Record, SlidingWindow};

use crate::plan::{BoundCondition, Plan, PlanOp};
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

/// The operator a block is currently programmed to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockProgram {
    /// Unprogrammed: drop all input (a freshly allocated block).
    Idle,
    /// Forward records unchanged.
    Passthrough,
    /// Emit only records satisfying every condition.
    Select {
        /// Conjunction of bound conditions.
        conditions: Vec<BoundCondition>,
    },
    /// Emit only records whose atom-outcome bitmask hits a `true` entry
    /// of the precomputed truth table (Ibex-style Boolean selection: all
    /// atoms evaluate in parallel, one table lookup decides).
    TruthTableSelect {
        /// Atomic comparisons, bit `i` of the mask from `atoms[i]`.
        atoms: Vec<BoundCondition>,
        /// `2^atoms.len()` precomputed outcomes.
        table: Vec<bool>,
    },
    /// Emit records containing only the listed fields, in order.
    Project {
        /// Field indices to keep.
        fields: Vec<usize>,
    },
    /// Sliding-window equi-join of the two input ports; emits the
    /// concatenation of the matching left and right records.
    Join {
        /// Key index in left-port records.
        key_left: usize,
        /// Key index in right-port records.
        key_right: usize,
        /// Per-port window capacity.
        window: usize,
    },
    /// Windowed aggregate: sliding windows emit one single-field record
    /// with the running aggregate per input record; tumbling windows emit
    /// one record per full window, then reset.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Aggregated field index (`None` for `COUNT`).
        field: Option<usize>,
        /// Window size.
        window: usize,
        /// Sliding or tumbling advancement.
        kind: WindowKind,
    },
}

impl BlockProgram {
    /// Short operator mnemonic (display / debugging).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BlockProgram::Idle => "idle",
            BlockProgram::Passthrough => "pass",
            BlockProgram::Select { .. } => "select",
            BlockProgram::TruthTableSelect { .. } => "select-table",
            BlockProgram::Project { .. } => "project",
            BlockProgram::Join { .. } => "join",
            BlockProgram::Aggregate { .. } => "aggregate",
        }
    }

    /// The programs of `plan`'s blocks, one per operator in pipeline
    /// order; a plan without operators occupies one passthrough block.
    pub(crate) fn pipeline(plan: &Plan) -> Vec<BlockProgram> {
        if plan.ops.is_empty() {
            vec![BlockProgram::Passthrough]
        } else {
            plan.ops.iter().map(BlockProgram::from).collect()
        }
    }
}

/// The one lowering from a bound operator to the block program that
/// runs it.
impl From<&PlanOp> for BlockProgram {
    fn from(op: &PlanOp) -> Self {
        match op.clone() {
            PlanOp::Select { conditions } => BlockProgram::Select { conditions },
            PlanOp::SelectTable { atoms, table } => BlockProgram::TruthTableSelect { atoms, table },
            PlanOp::Join {
                key_left,
                key_right,
                window,
            } => BlockProgram::Join {
                key_left,
                key_right,
                window,
            },
            PlanOp::Project { fields } => BlockProgram::Project { fields },
            PlanOp::Aggregate {
                func,
                field,
                window,
                kind,
            } => BlockProgram::Aggregate {
                func,
                field,
                window,
                kind,
            },
        }
    }
}

/// Cumulative per-block counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Records consumed (both ports).
    pub records_in: u64,
    /// Records emitted.
    pub records_out: u64,
    /// Times the block has been reprogrammed.
    pub reprograms: u64,
}

/// One OP-Block instance.
#[derive(Debug, Clone)]
pub struct OpBlock {
    id: BlockId,
    program: BlockProgram,
    window_left: Option<SlidingWindow<Record>>,
    window_right: Option<SlidingWindow<Record>>,
    /// Aggregate state: retained values plus an incremental sum.
    agg_values: VecDeque<u64>,
    agg_sum: u128,
    /// Per-condition statistics for Select programs: (evaluated, passed),
    /// parallel to the condition list. The paper's open problem #2 asks
    /// "how to collect and store statistics during query execution while
    /// minimizing the impact" — these counters are what the re-optimizer
    /// consumes.
    cond_stats: Vec<(u64, u64)>,
    stats: BlockStats,
}

impl OpBlock {
    /// Creates an idle block.
    pub fn new(id: BlockId) -> Self {
        Self {
            id,
            program: BlockProgram::Idle,
            window_left: None,
            window_right: None,
            agg_values: VecDeque::new(),
            agg_sum: 0,
            cond_stats: Vec::new(),
            stats: BlockStats::default(),
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

    /// Cumulative counters.
    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    /// (Re)programs the block at runtime — the FQP micro-change path:
    /// takes effect immediately, clearing any join windows.
    pub fn reprogram(&mut self, program: BlockProgram) {
        if let BlockProgram::Join { window, .. } = &program {
            self.window_left = Some(SlidingWindow::new((*window).max(1)));
            self.window_right = Some(SlidingWindow::new((*window).max(1)));
        } else {
            self.window_left = None;
            self.window_right = None;
        }
        self.agg_values.clear();
        self.agg_sum = 0;
        self.cond_stats = match &program {
            BlockProgram::Select { conditions } => vec![(0, 0); conditions.len()],
            _ => Vec::new(),
        };
        self.program = program;
        self.stats.reprograms += 1;
    }

    /// Per-condition (evaluated, passed) counters of a Select program,
    /// parallel to its condition list.
    pub fn condition_stats(&self) -> &[(u64, u64)] {
        &self.cond_stats
    }

    /// Reorders a Select program's conditions by observed pass rate,
    /// cheapest filter first, so short-circuit evaluation does the least
    /// work — the statistics-driven micro re-optimization of the paper's
    /// open problem #2. Returns `true` if the order changed. Counters are
    /// reset so the next measurement window is clean. A conjunction is
    /// order-insensitive, so results are unchanged.
    pub fn reoptimize_select(&mut self) -> bool {
        let BlockProgram::Select { conditions } = &mut self.program else {
            return false;
        };
        let mut order: Vec<usize> = (0..conditions.len()).collect();
        order.sort_by(|&a, &b| {
            let rate = |i: usize| {
                let (eval, pass) = self.cond_stats[i];
                if eval == 0 {
                    1.0
                } else {
                    pass as f64 / eval as f64
                }
            };
            rate(a).partial_cmp(&rate(b)).expect("finite rates")
        });
        let changed = order.iter().enumerate().any(|(i, &o)| i != o);
        if changed {
            let reordered: Vec<_> = order.iter().map(|&i| conditions[i]).collect();
            *conditions = reordered;
        }
        for s in &mut self.cond_stats {
            *s = (0, 0);
        }
        changed
    }

    /// Processes one record arriving on `port`, returning the emitted
    /// records.
    pub fn process(&mut self, port: Port, record: Record) -> Vec<Record> {
        self.stats.records_in += 1;
        let out = match &self.program {
            BlockProgram::Idle => Vec::new(),
            BlockProgram::Passthrough => vec![record],
            BlockProgram::Select { conditions } => {
                // Short-circuit conjunction with per-condition statistics.
                let mut all = true;
                for (c, stat) in conditions.iter().zip(&mut self.cond_stats) {
                    stat.0 += 1;
                    if c.eval(record.values()) {
                        stat.1 += 1;
                    } else {
                        all = false;
                        break;
                    }
                }
                if all {
                    vec![record]
                } else {
                    Vec::new()
                }
            }
            BlockProgram::TruthTableSelect { atoms, table } => {
                // All atoms evaluate in parallel (no short-circuit): a
                // single lookup decides.
                let mut mask = 0usize;
                for (i, c) in atoms.iter().enumerate() {
                    if c.eval(record.values()) {
                        mask |= 1 << i;
                    }
                }
                if table[mask] {
                    vec![record]
                } else {
                    Vec::new()
                }
            }
            BlockProgram::Project { fields } => {
                let values = fields
                    .iter()
                    .filter_map(|&i| record.get(i))
                    .collect::<Vec<u64>>();
                vec![Record::new(values)]
            }
            BlockProgram::Join {
                key_left,
                key_right,
                ..
            } => {
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
            BlockProgram::Aggregate {
                func,
                field,
                window,
                kind,
            } => {
                let value = match field {
                    Some(i) => record.get(*i).unwrap_or(0),
                    None => 1, // COUNT counts tuples
                };
                self.agg_values.push_back(value);
                self.agg_sum += value as u128;
                if self.agg_values.len() > *window {
                    let expired = self.agg_values.pop_front().expect("non-empty");
                    self.agg_sum -= expired as u128;
                }
                let emit = match kind {
                    WindowKind::Sliding => true,
                    WindowKind::Tumbling => self.agg_values.len() == *window,
                };
                if !emit {
                    Vec::new()
                } else {
                    let len = self.agg_values.len() as u64;
                    let result = match func {
                        AggFunc::Count => len,
                        AggFunc::Sum => self.agg_sum as u64,
                        AggFunc::Avg => (self.agg_sum / len.max(1) as u128) as u64,
                        AggFunc::Min => self.agg_values.iter().copied().min().unwrap_or(0),
                        AggFunc::Max => self.agg_values.iter().copied().max().unwrap_or(0),
                    };
                    if *kind == WindowKind::Tumbling {
                        self.agg_values.clear();
                        self.agg_sum = 0;
                    }
                    vec![Record::new(vec![result])]
                }
            }
        };
        self.stats.records_out += out.len() as u64;
        out
    }

    /// Synthesis-model resource cost of one OP-Block with `window`-sized
    /// join buffers (used by fabric sizing): the block logic plus two
    /// record windows of `record_bits` each.
    pub fn resource_cost(window: usize, record_bits: u64) -> Resources {
        // Control FSMs, comparators, and the programmable bridge ports.
        let logic = Resources {
            luts: 420,
            ffs: 360,
            bram18: 0,
        };
        logic + Resources::for_memory(window as u64 * record_bits) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::CmpOp;

    fn rec(values: &[u64]) -> Record {
        Record::new(values.to_vec())
    }

    #[test]
    fn idle_blocks_drop_everything() {
        let mut b = OpBlock::new(BlockId(0));
        assert!(b.is_idle());
        assert!(b.process(Port::Left, rec(&[1, 2])).is_empty());
        assert_eq!(b.stats().records_in, 1);
        assert_eq!(b.stats().records_out, 0);
    }

    #[test]
    fn select_filters_on_all_conditions() {
        let mut b = OpBlock::new(BlockId(1));
        b.reprogram(BlockProgram::Select {
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
        });
        assert_eq!(b.process(Port::Left, rec(&[9, 30, 1])).len(), 1);
        assert!(b.process(Port::Left, rec(&[9, 30, 0])).is_empty());
        assert!(b.process(Port::Left, rec(&[9, 20, 1])).is_empty());
    }

    #[test]
    fn project_keeps_fields_in_order() {
        let mut b = OpBlock::new(BlockId(2));
        b.reprogram(BlockProgram::Project { fields: vec![2, 0] });
        let out = b.process(Port::Left, rec(&[10, 11, 12]));
        assert_eq!(out, vec![rec(&[12, 10])]);
    }

    #[test]
    fn join_emits_left_concat_right_regardless_of_probe_side() {
        let mut b = OpBlock::new(BlockId(3));
        b.reprogram(BlockProgram::Join {
            key_left: 0,
            key_right: 0,
            window: 4,
        });
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
        b.reprogram(BlockProgram::Join {
            key_left: 0,
            key_right: 0,
            window: 2,
        });
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
        b.reprogram(BlockProgram::Join {
            key_left: 0,
            key_right: 0,
            window: 4,
        });
        b.process(Port::Right, rec(&[1]));
        b.reprogram(BlockProgram::Passthrough);
        assert_eq!(b.process(Port::Left, rec(&[1])), vec![rec(&[1])]);
        // Back to a join: the old window contents are gone.
        b.reprogram(BlockProgram::Join {
            key_left: 0,
            key_right: 0,
            window: 4,
        });
        assert!(b.process(Port::Left, rec(&[1])).is_empty());
        assert_eq!(b.stats().reprograms, 3);
    }

    #[test]
    fn resource_cost_scales_with_window() {
        let small = OpBlock::resource_cost(16, 64);
        let large = OpBlock::resource_cost(4_096, 64);
        assert!(large.bram18 > small.bram18);
        assert!(small.luts >= 420);
    }

    #[test]
    fn aggregates_emit_running_values_over_the_window() {
        let mut b = OpBlock::new(BlockId(6));
        b.reprogram(BlockProgram::Aggregate {
            func: AggFunc::Sum,
            field: Some(0),
            window: 3,
            kind: WindowKind::Sliding,
        });
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
            b.reprogram(BlockProgram::Aggregate {
                func,
                field: Some(0),
                window: 2,
                kind: WindowKind::Sliding,
            });
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
        b.reprogram(BlockProgram::Aggregate {
            func: AggFunc::Sum,
            field: Some(0),
            window: 3,
            kind: WindowKind::Tumbling,
        });
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
        let count = BlockProgram::Aggregate {
            func: AggFunc::Count,
            field: None,
            window: 8,
            kind: WindowKind::Sliding,
        };
        b.reprogram(count.clone());
        b.process(Port::Left, rec(&[1]));
        b.process(Port::Left, rec(&[2]));
        b.reprogram(count);
        let out = b.process(Port::Left, rec(&[3]));
        assert_eq!(out[0].values()[0], 1, "state must reset on reprogram");
    }

    #[test]
    fn condition_stats_track_short_circuit_evaluation() {
        let mut b = OpBlock::new(BlockId(9));
        b.reprogram(BlockProgram::Select {
            conditions: vec![
                BoundCondition {
                    field: 0,
                    op: CmpOp::Gt,
                    value: 50,
                }, // rarely true
                BoundCondition {
                    field: 1,
                    op: CmpOp::Gt,
                    value: 0,
                }, // always true
            ],
        });
        for v in 0..100u64 {
            b.process(Port::Left, rec(&[v, 1]));
        }
        let stats = b.condition_stats();
        assert_eq!(stats[0], (100, 49)); // 51..=99 pass
                                         // Second condition only evaluated when the first passed.
        assert_eq!(stats[1], (49, 49));
    }

    #[test]
    fn reoptimize_orders_cheapest_filter_first() {
        let mut b = OpBlock::new(BlockId(10));
        // Condition order is pessimal: the always-true one first.
        b.reprogram(BlockProgram::Select {
            conditions: vec![
                BoundCondition {
                    field: 1,
                    op: CmpOp::Gt,
                    value: 0,
                }, // pass rate ~1
                BoundCondition {
                    field: 0,
                    op: CmpOp::Gt,
                    value: 90,
                }, // pass rate ~0.09
            ],
        });
        for v in 0..100u64 {
            b.process(Port::Left, rec(&[v, 1]));
        }
        let before: u64 = b.condition_stats().iter().map(|s| s.0).sum();
        assert_eq!(before, 200, "pessimal order evaluates both every time");
        assert!(b.reoptimize_select());
        // Same semantics, fewer evaluations.
        let mut passed = 0;
        for v in 0..100u64 {
            passed += b.process(Port::Left, rec(&[v, 1])).len();
        }
        assert_eq!(passed, 9);
        let after: u64 = b.condition_stats().iter().map(|s| s.0).sum();
        assert!(after < 120, "selective filter first: {after} evaluations");
        // Already-optimal order reports no change.
        assert!(!b.reoptimize_select());
    }

    #[test]
    fn reoptimize_is_a_noop_for_non_select_programs() {
        let mut b = OpBlock::new(BlockId(11));
        b.reprogram(BlockProgram::Passthrough);
        assert!(!b.reoptimize_select());
    }

    #[test]
    fn mnemonics_cover_all_programs() {
        assert_eq!(BlockProgram::Idle.mnemonic(), "idle");
        assert_eq!(BlockProgram::Passthrough.mnemonic(), "pass");
        assert_eq!(
            BlockProgram::Select { conditions: vec![] }.mnemonic(),
            "select"
        );
        assert_eq!(
            BlockProgram::Project { fields: vec![] }.mnemonic(),
            "project"
        );
        assert_eq!(
            BlockProgram::Join {
                key_left: 0,
                key_right: 0,
                window: 1
            }
            .mnemonic(),
            "join"
        );
    }
}
