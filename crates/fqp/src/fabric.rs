//! The FQP fabric: a pool of OP-Blocks with runtime-reconfigurable
//! interconnect — the paper's *parametrized topology*.
//!
//! The set of blocks is fixed at "synthesis" (construction); everything
//! else — which operator each block runs, how blocks are wired, where
//! streams enter and results leave — changes at runtime in microseconds,
//! which is precisely what distinguishes FQP from synthesize-per-query
//! designs (Fig. 6).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use streamcore::Record;

use crate::opblock::{BlockId, BlockProgram, OpBlock, Port};

/// Identifier of an output sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SinkId(pub usize);

/// Destination of a block output or stream entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// An input port of another block.
    Block(BlockId, Port),
    /// An output sink.
    Sink(SinkId),
}

/// Errors raised by fabric reconfiguration or data push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A referenced block does not exist.
    UnknownBlock {
        /// The offending id.
        id: BlockId,
    },
    /// A referenced sink does not exist.
    UnknownSink {
        /// The offending id.
        id: SinkId,
    },
    /// The requested edge would create a cycle.
    CycleDetected {
        /// Source of the rejected edge.
        from: BlockId,
    },
    /// A record was pushed for a stream with no entry binding.
    UnknownStream {
        /// The stream name.
        stream: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownBlock { id } => write!(f, "unknown block {id}"),
            FabricError::UnknownSink { id } => write!(f, "unknown sink #{}", id.0),
            FabricError::CycleDetected { from } => {
                write!(f, "edge from {from} would create a cycle")
            }
            FabricError::UnknownStream { stream } => {
                write!(f, "no entry binding for stream {stream:?}")
            }
        }
    }
}

impl Error for FabricError {}

/// The reconfigurable fabric.
///
/// # Example
///
/// ```
/// use fqp::fabric::{Fabric, Target};
/// use fqp::opblock::{BlockProgram, Port};
/// use streamcore::Record;
///
/// let mut fabric = Fabric::new(2);
/// let sink = fabric.add_sink();
/// let b = fabric.block_ids()[0];
/// fabric.reprogram(b, BlockProgram::Passthrough)?;
/// fabric.bind_stream("sensor", b, Port::Left)?;
/// fabric.connect(b, Target::Sink(sink))?;
/// fabric.push("sensor", Record::new(vec![42]))?;
/// assert_eq!(fabric.take_sink(sink)?, vec![Record::new(vec![42])]);
/// # Ok::<(), fqp::fabric::FabricError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fabric {
    blocks: Vec<OpBlock>,
    outputs: Vec<Vec<Target>>,
    entries: BTreeMap<String, Vec<(BlockId, Port)>>,
    sinks: Vec<Vec<Record>>,
}

impl Fabric {
    /// Creates a fabric of `num_blocks` idle OP-Blocks.
    pub fn new(num_blocks: usize) -> Self {
        Self {
            blocks: (0..num_blocks).map(|i| OpBlock::new(BlockId(i))).collect(),
            outputs: vec![Vec::new(); num_blocks],
            entries: BTreeMap::new(),
            sinks: Vec::new(),
        }
    }

    /// All block ids, in index order.
    pub fn block_ids(&self) -> Vec<BlockId> {
        (0..self.blocks.len()).map(BlockId).collect()
    }

    /// Number of blocks not currently programmed.
    pub fn idle_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_idle()).count()
    }

    /// Finds an unprogrammed block, if any.
    pub fn find_idle(&self) -> Option<BlockId> {
        self.blocks.iter().find(|b| b.is_idle()).map(OpBlock::id)
    }

    /// Immutable access to a block.
    pub fn block(&self, id: BlockId) -> Result<&OpBlock, FabricError> {
        self.blocks
            .get(id.0)
            .ok_or(FabricError::UnknownBlock { id })
    }

    /// Registers a new output sink.
    pub fn add_sink(&mut self) -> SinkId {
        self.sinks.push(Vec::new());
        SinkId(self.sinks.len() - 1)
    }

    /// (Re)programs a block — the micro-change path, effective
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownBlock`] for an invalid id.
    pub fn reprogram(&mut self, id: BlockId, program: BlockProgram) -> Result<(), FabricError> {
        let block = self
            .blocks
            .get_mut(id.0)
            .ok_or(FabricError::UnknownBlock { id })?;
        block.reprogram(program);
        Ok(())
    }

    /// Adds an edge from a block's output — the macro-change path.
    /// Fan-out is allowed (one output may feed several consumers).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::CycleDetected`] if the edge would close a
    /// cycle, or [`FabricError::UnknownBlock`]/[`FabricError::UnknownSink`]
    /// for dangling endpoints.
    pub fn connect(&mut self, from: BlockId, to: Target) -> Result<(), FabricError> {
        if from.0 >= self.blocks.len() {
            return Err(FabricError::UnknownBlock { id: from });
        }
        match to {
            Target::Block(id, _) if id.0 >= self.blocks.len() => {
                return Err(FabricError::UnknownBlock { id });
            }
            Target::Sink(id) if id.0 >= self.sinks.len() => {
                return Err(FabricError::UnknownSink { id });
            }
            _ => {}
        }
        if let Target::Block(dest, _) = to {
            if dest == from || self.reaches(dest, from) {
                return Err(FabricError::CycleDetected { from });
            }
        }
        self.outputs[from.0].push(to);
        Ok(())
    }

    /// Removes one specific edge (idempotent if absent).
    pub fn disconnect(&mut self, from: BlockId, to: Target) -> Result<(), FabricError> {
        if from.0 >= self.blocks.len() {
            return Err(FabricError::UnknownBlock { id: from });
        }
        self.outputs[from.0].retain(|t| *t != to);
        Ok(())
    }

    /// Returns a block to the idle pool: program cleared, and every edge
    /// and stream binding into or out of it removed — dynamic query
    /// removal. A block reused later receives nothing its last user was
    /// wired to.
    pub fn release(&mut self, id: BlockId) -> Result<(), FabricError> {
        self.reprogram(id, BlockProgram::Idle)?;
        self.outputs[id.0].clear();
        for targets in &mut self.outputs {
            targets.retain(|t| !matches!(t, Target::Block(b, _) if *b == id));
        }
        for targets in self.entries.values_mut() {
            targets.retain(|(b, _)| *b != id);
        }
        Ok(())
    }

    /// Routes records arriving on `stream` into `(block, port)`. Multiple
    /// bindings fan the stream out (Fig. 7's shared product stream).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownBlock`] for an invalid id; the
    /// stream is left unbound.
    pub fn bind_stream(
        &mut self,
        stream: impl Into<String>,
        block: BlockId,
        port: Port,
    ) -> Result<(), FabricError> {
        if block.0 >= self.blocks.len() {
            return Err(FabricError::UnknownBlock { id: block });
        }
        self.entries
            .entry(stream.into().to_ascii_lowercase())
            .or_default()
            .push((block, port));
        Ok(())
    }

    /// `true` if `from` can reach `goal` through existing edges.
    fn reaches(&self, from: BlockId, goal: BlockId) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![false; self.blocks.len()];
        while let Some(b) = stack.pop() {
            if b == goal {
                return true;
            }
            if std::mem::replace(&mut seen[b.0], true) {
                continue;
            }
            for t in &self.outputs[b.0] {
                if let Target::Block(next, _) = t {
                    stack.push(*next);
                }
            }
        }
        false
    }

    /// Pushes one record into the fabric and runs it to quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownStream`] if no entry binding exists.
    pub fn push(&mut self, stream: &str, record: Record) -> Result<(), FabricError> {
        let entries = self
            .entries
            .get(&stream.to_ascii_lowercase())
            .filter(|e| !e.is_empty())
            .ok_or_else(|| FabricError::UnknownStream {
                stream: stream.to_string(),
            })?
            .clone();
        let mut work: Vec<(Target, Record)> = entries
            .into_iter()
            .map(|(b, p)| (Target::Block(b, p), record.clone()))
            .collect();
        while let Some((target, rec)) = work.pop() {
            match target {
                Target::Sink(id) => self.sinks[id.0].push(rec),
                Target::Block(id, port) => {
                    let outputs = self.blocks[id.0].process(port, rec);
                    for out in outputs {
                        for t in &self.outputs[id.0] {
                            work.push((*t, out.clone()));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Removes and returns everything collected at `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownSink`] for an invalid id.
    pub fn take_sink(&mut self, sink: SinkId) -> Result<Vec<Record>, FabricError> {
        self.sinks
            .get_mut(sink.0)
            .map(std::mem::take)
            .ok_or(FabricError::UnknownSink { id: sink })
    }

    /// Renders the current topology as a Graphviz DOT document: stream
    /// entries, programmed blocks (labelled with their operator mnemonic),
    /// idle blocks, sinks, and every edge — the "Lego-like" composition
    /// made visible.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph fqp {\n  rankdir=LR;\n");
        for (stream, targets) in &self.entries {
            let _ = writeln!(
                out,
                "  \"stream_{stream}\" [shape=cds, label=\"{stream}\"];"
            );
            for (block, port) in targets {
                let _ = writeln!(
                    out,
                    "  \"stream_{stream}\" -> b{} [label=\"{:?}\"];",
                    block.0, port
                );
            }
        }
        for b in &self.blocks {
            let style = if b.is_idle() { ", style=dashed" } else { "" };
            let _ = writeln!(
                out,
                "  b{} [shape=box, label=\"#{} {}\"{}];",
                b.id().0,
                b.id().0,
                b.program().mnemonic(),
                style
            );
        }
        for i in 0..self.sinks.len() {
            let _ = writeln!(out, "  sink{i} [shape=doublecircle, label=\"sink {i}\"];");
        }
        for (from, targets) in self.outputs.iter().enumerate() {
            for t in targets {
                match t {
                    Target::Block(id, port) => {
                        let _ = writeln!(out, "  b{from} -> b{} [label=\"{:?}\"];", id.0, port);
                    }
                    Target::Sink(id) => {
                        let _ = writeln!(out, "  b{from} -> sink{};", id.0);
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BoundCondition, PlanOp};
    use crate::query::CmpOp;

    fn rec(values: &[u64]) -> Record {
        Record::new(values.to_vec())
    }

    fn select_gt(field: usize, value: u64) -> BlockProgram {
        BlockProgram::Op(PlanOp::Select {
            conditions: vec![BoundCondition {
                field,
                op: CmpOp::Gt,
                value,
            }],
        })
    }

    #[test]
    fn two_stage_pipeline_filters_then_projects() {
        let mut f = Fabric::new(2);
        let sink = f.add_sink();
        let (b0, b1) = (BlockId(0), BlockId(1));
        f.reprogram(b0, select_gt(0, 10)).unwrap();
        f.reprogram(b1, BlockProgram::Op(PlanOp::Project { fields: vec![1] }))
            .unwrap();
        f.bind_stream("in", b0, Port::Left).unwrap();
        f.connect(b0, Target::Block(b1, Port::Left)).unwrap();
        f.connect(b1, Target::Sink(sink)).unwrap();

        f.push("in", rec(&[5, 100])).unwrap(); // filtered out
        f.push("in", rec(&[20, 200])).unwrap(); // passes, projected
        assert_eq!(f.take_sink(sink).unwrap(), vec![rec(&[200])]);
    }

    #[test]
    fn fan_out_duplicates_records_to_all_consumers() {
        let mut f = Fabric::new(3);
        let s1 = f.add_sink();
        let s2 = f.add_sink();
        let b = BlockId(0);
        f.reprogram(b, BlockProgram::Passthrough).unwrap();
        f.bind_stream("x", b, Port::Left).unwrap();
        f.connect(b, Target::Sink(s1)).unwrap();
        f.connect(b, Target::Sink(s2)).unwrap();
        f.push("x", rec(&[1])).unwrap();
        assert_eq!(f.take_sink(s1).unwrap().len(), 1);
        assert_eq!(f.take_sink(s2).unwrap().len(), 1);
    }

    #[test]
    fn join_block_with_two_bound_streams() {
        let mut f = Fabric::new(1);
        let sink = f.add_sink();
        let b = BlockId(0);
        f.reprogram(
            b,
            BlockProgram::Op(PlanOp::Join {
                key_left: 0,
                key_right: 0,
                window: 8,
            }),
        )
        .unwrap();
        f.bind_stream("customers", b, Port::Left).unwrap();
        f.bind_stream("products", b, Port::Right).unwrap();
        f.connect(b, Target::Sink(sink)).unwrap();

        f.push("products", rec(&[7, 999])).unwrap();
        f.push("customers", rec(&[7, 31])).unwrap();
        let out = f.take_sink(sink).unwrap();
        assert_eq!(out, vec![rec(&[7, 31, 7, 999])]);
    }

    #[test]
    fn cycles_are_rejected() {
        let mut f = Fabric::new(3);
        let (a, b, c) = (BlockId(0), BlockId(1), BlockId(2));
        f.connect(a, Target::Block(b, Port::Left)).unwrap();
        f.connect(b, Target::Block(c, Port::Left)).unwrap();
        let err = f.connect(c, Target::Block(a, Port::Left)).unwrap_err();
        assert!(matches!(err, FabricError::CycleDetected { .. }));
        let err = f.connect(a, Target::Block(a, Port::Left)).unwrap_err();
        assert!(matches!(err, FabricError::CycleDetected { .. }));
    }

    #[test]
    fn release_returns_block_to_pool_and_unbinds() {
        let mut f = Fabric::new(1);
        let b = BlockId(0);
        f.reprogram(b, BlockProgram::Passthrough).unwrap();
        f.bind_stream("x", b, Port::Left).unwrap();
        assert_eq!(f.idle_blocks(), 0);
        f.release(b).unwrap();
        assert_eq!(f.idle_blocks(), 1);
        assert!(matches!(
            f.push("x", rec(&[1])),
            Err(FabricError::UnknownStream { .. })
        ));
    }

    #[test]
    fn a_released_block_loses_the_edges_into_it() {
        // x on stream "a" feeds y; y is released and reused for a query
        // on stream "b" with a sink of its own.
        let mut f = Fabric::new(2);
        let (x, y) = (BlockId(0), BlockId(1));
        let old = f.add_sink();
        f.reprogram(x, BlockProgram::Passthrough).unwrap();
        f.reprogram(y, BlockProgram::Passthrough).unwrap();
        f.bind_stream("a", x, Port::Left).unwrap();
        f.connect(x, Target::Block(y, Port::Left)).unwrap();
        f.connect(y, Target::Sink(old)).unwrap();
        f.release(y).unwrap();

        let new = f.add_sink();
        f.reprogram(y, BlockProgram::Passthrough).unwrap();
        f.bind_stream("b", y, Port::Left).unwrap();
        f.connect(y, Target::Sink(new)).unwrap();
        f.push("a", rec(&[1])).unwrap();
        assert!(f.take_sink(new).unwrap().is_empty(), "{}", f.to_dot());
        assert!(f.take_sink(old).unwrap().is_empty());
        f.push("b", rec(&[2])).unwrap();
        assert_eq!(f.take_sink(new).unwrap(), vec![rec(&[2])]);
    }

    #[test]
    fn unknown_endpoints_are_reported() {
        let mut f = Fabric::new(1);
        assert!(matches!(
            f.connect(BlockId(5), Target::Sink(SinkId(0))),
            Err(FabricError::UnknownBlock { .. })
        ));
        assert!(matches!(
            f.connect(BlockId(0), Target::Sink(SinkId(3))),
            Err(FabricError::UnknownSink { .. })
        ));
        assert!(matches!(
            f.take_sink(SinkId(9)),
            Err(FabricError::UnknownSink { .. })
        ));
        assert!(matches!(
            f.push("ghost", rec(&[1])),
            Err(FabricError::UnknownStream { .. })
        ));
    }

    #[test]
    fn binding_a_stream_to_an_unknown_block_is_an_error() {
        let mut f = Fabric::new(2);
        assert_eq!(
            f.bind_stream("s", BlockId(9), Port::Left),
            Err(FabricError::UnknownBlock { id: BlockId(9) })
        );
        // Nothing was bound, so a push reports the stream, not a panic.
        assert!(matches!(
            f.push("s", rec(&[1])),
            Err(FabricError::UnknownStream { .. })
        ));
    }

    #[test]
    fn dot_export_covers_the_topology() {
        let mut f = Fabric::new(2);
        let sink = f.add_sink();
        f.reprogram(BlockId(0), select_gt(0, 5)).unwrap();
        f.bind_stream("readings", BlockId(0), Port::Left).unwrap();
        f.connect(BlockId(0), Target::Block(BlockId(1), Port::Left))
            .unwrap();
        f.connect(BlockId(1), Target::Sink(sink)).unwrap();
        let dot = f.to_dot();
        assert!(dot.starts_with("digraph fqp {"), "{dot}");
        assert!(dot.contains("\"stream_readings\" -> b0"), "{dot}");
        assert!(dot.contains("#0 select"), "{dot}");
        assert!(dot.contains("style=dashed"), "idle block 1 dashed: {dot}");
        assert!(dot.contains("b0 -> b1"), "{dot}");
        assert!(dot.contains("b1 -> sink0;"), "{dot}");
    }

    #[test]
    fn find_idle_tracks_programming() {
        let mut f = Fabric::new(2);
        assert_eq!(f.find_idle(), Some(BlockId(0)));
        f.reprogram(BlockId(0), BlockProgram::Passthrough).unwrap();
        assert_eq!(f.find_idle(), Some(BlockId(1)));
        f.reprogram(BlockId(1), BlockProgram::Passthrough).unwrap();
        assert_eq!(f.find_idle(), None);
    }
}
