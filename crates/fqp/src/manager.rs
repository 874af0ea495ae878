//! The FQP fabric and its one deployer, with inter-query operator
//! sharing — the paper's open problems #1/#2 (map a plan onto idle
//! OP-Blocks at runtime) and #4: "generalize the query mapping from
//! single-query optimization to multi-query optimization to amortize the
//! execution cost across the shared processing of several queries", in
//! the spirit of the Rete-like global query plans it cites.
//!
//! [`QueryManager`] is the *parametrized topology*: a pool of OP-Blocks
//! fixed at construction (the paper's synthesis) whose programs, wiring,
//! stream entries and query outputs change at runtime, in microseconds
//! and without a halt (Fig. 6). It owns all of it, each deployed query's
//! untaken results included. [`QueryManager::deploy`] looks for an
//! already-deployed query whose operator pipeline starts with the same
//! operators over the same streams and reuses those blocks (fan-out on
//! the last shared block); only the differing suffix consumes fresh
//! OP-Blocks, one per operator. Two queries with no common prefix occupy
//! blocks side by side, which is the paper's Fig. 7 layout. Shared blocks
//! are reference-counted so [`QueryManager::undeploy`] releases exactly
//! the blocks no surviving query needs, and hands back the query's
//! untaken results: nothing of a removed query stays behind.

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

use streamcore::{Record, Schema, SchemaError};

use crate::opblock::{BlockId, BlockProgram, OpBlock, Port};
use crate::plan::{Plan, PlanOp};

/// Identifier of a deployed query within a [`QueryManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query#{}", self.0)
    }
}

/// Errors raised while deploying, changing or removing a query, or
/// pushing a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignError {
    /// Not enough idle blocks for the plan.
    InsufficientBlocks {
        /// Blocks the plan needs.
        required: usize,
        /// Idle blocks available.
        available: usize,
    },
    /// No deployed query has this id.
    UnknownQuery {
        /// The offending id.
        id: QueryId,
    },
    /// The query's pipeline has no operator at this position.
    UnknownOp {
        /// The query.
        id: QueryId,
        /// The offending position.
        op: usize,
    },
    /// Another deployed query shares the block, so reprogramming it
    /// would change that query too.
    SharedBlock {
        /// The shared block.
        block: BlockId,
        /// Deployed queries that run on it.
        queries: usize,
    },
    /// The plan joins but names no secondary stream to join with.
    MissingSecondary,
    /// The plan reads a stream that deployed queries read under another
    /// schema.
    SchemaConflict {
        /// The stream.
        stream: String,
    },
    /// A record was pushed for a stream no deployed query reads.
    UnknownStream {
        /// The stream.
        stream: String,
    },
    /// A pushed record does not fit its stream's schema.
    BadRecord {
        /// The stream.
        stream: String,
        /// Why [`Schema::check`] rejected the record.
        error: SchemaError,
    },
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::InsufficientBlocks {
                required,
                available,
            } => write!(
                f,
                "plan needs {required} OP-Blocks but only {available} are idle"
            ),
            AssignError::UnknownQuery { id } => write!(f, "{id} is not deployed"),
            AssignError::UnknownOp { id, op } => write!(f, "{id} has no operator {op}"),
            AssignError::SharedBlock { block, queries } => {
                write!(f, "{block} is shared by {queries} deployed queries")
            }
            AssignError::MissingSecondary => write!(f, "plan joins no secondary stream"),
            AssignError::SchemaConflict { stream } => {
                write!(f, "stream {stream:?} is deployed under another schema")
            }
            AssignError::UnknownStream { stream } => {
                write!(f, "no deployed query reads stream {stream:?}")
            }
            AssignError::BadRecord { stream, error } => {
                write!(f, "record for stream {stream:?}: {error}")
            }
        }
    }
}

impl Error for AssignError {}

/// Where a block's output goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// An input port of a block.
    Block(BlockId, Port),
    /// A deployed query's results.
    Query(QueryId),
}

/// A stream some deployed query reads.
#[derive(Debug)]
struct Stream {
    schema: Schema,
    /// The block ports its records enter; several fan it out (Fig. 7's
    /// shared product stream).
    entries: Vec<(BlockId, Port)>,
}

#[derive(Debug)]
struct Deployed {
    primary: String,
    secondary: Option<String>,
    /// The full pipeline, programs included (shared prefix + own suffix).
    chain: Vec<(BlockId, BlockProgram)>,
    /// Results not taken yet.
    results: Vec<Record>,
}

/// Statistics about sharing across currently deployed queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingReport {
    /// Queries currently deployed.
    pub queries: usize,
    /// Distinct blocks in use.
    pub blocks_in_use: usize,
    /// Blocks a sharing-oblivious deployment would have used.
    pub blocks_without_sharing: usize,
}

impl SharingReport {
    /// Blocks saved by sharing.
    pub fn blocks_saved(&self) -> usize {
        self.blocks_without_sharing - self.blocks_in_use
    }
}

/// A fabric of OP-Blocks and the queries deployed on it, with operator
/// sharing and reference counting.
///
/// # Example
///
/// ```
/// use fqp::manager::QueryManager;
/// use fqp::plan::{bind, Catalog};
/// use fqp::query::Query;
/// use streamcore::{Field, Record, Schema};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut catalog = Catalog::new();
/// catalog.register(
///     "readings",
///     Schema::new(vec![Field::new("sensor", 32)?, Field::new("value", 32)?])?,
/// );
/// let hot = bind(&Query::parse("SELECT * FROM readings WHERE value > 90")?, &catalog)?;
///
/// let mut mgr = QueryManager::new(4);
/// let a = mgr.deploy(&hot)?;
/// let b = mgr.deploy(&hot)?; // identical: shares every block
/// assert_eq!(mgr.sharing_report().blocks_in_use, 1);
///
/// mgr.push("readings", Record::new(vec![1, 95]))?;
/// assert_eq!(mgr.take_results(a)?.len(), 1);
/// assert_eq!(mgr.undeploy(b)?, vec![Record::new(vec![1, 95])]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct QueryManager {
    blocks: Vec<OpBlock>,
    /// Each block's output edges, by block index.
    outputs: Vec<Vec<Target>>,
    /// The streams deployed queries read, by lowercase name (stream
    /// names match case-insensitively).
    streams: BTreeMap<String, Stream>,
    next_id: u64,
    deployed: BTreeMap<QueryId, Deployed>,
    refcounts: HashMap<BlockId, usize>,
}

impl QueryManager {
    /// Creates a manager over a fabric of `num_blocks` idle OP-Blocks.
    pub fn new(num_blocks: usize) -> Self {
        Self {
            blocks: (0..num_blocks).map(|i| OpBlock::new(BlockId(i))).collect(),
            outputs: vec![Vec::new(); num_blocks],
            ..Self::default()
        }
    }

    /// Number of blocks no query runs on.
    pub fn idle_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_idle()).count()
    }

    /// Deploys `plan`, sharing the longest matching operator prefix of an
    /// already-deployed query over the same streams; every operator past
    /// it gets an idle block of its own, programmed and wired behind the
    /// prefix.
    ///
    /// Shared blocks are live: a plan deployed mid-stream runs on the
    /// matching prefix's blocks as they are, so a shared join or
    /// aggregate window already holds the records that arrived before
    /// the deployment, and the new query's first results can pair a new
    /// arrival with an earlier one. Its result stream starts at the
    /// deployment (the rule `QueryRuntime::admit` documents for a query
    /// joining a running group). A freshly allocated block starts empty.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::InsufficientBlocks`] when the *unshared*
    /// suffix does not fit the idle pool (sharing reduces the
    /// requirement), [`AssignError::MissingSecondary`] for a join with no
    /// secondary stream, or [`AssignError::SchemaConflict`] when the plan
    /// reads a deployed stream under another schema; the fabric is left
    /// unchanged in each case.
    pub fn deploy(&mut self, plan: &Plan) -> Result<QueryId, AssignError> {
        for (stream, schema) in &plan.inputs {
            if self
                .streams
                .get(&stream.to_ascii_lowercase())
                .is_some_and(|s| s.schema != *schema)
            {
                return Err(AssignError::SchemaConflict {
                    stream: stream.clone(),
                });
            }
        }
        let programs = BlockProgram::pipeline(plan);

        // Longest shareable prefix across deployed queries.
        let shared: Vec<(BlockId, BlockProgram)> = self
            .deployed
            .values()
            .filter(|d| d.primary == plan.primary)
            .map(|d| {
                let mut n = 0;
                while n < d.chain.len() && n < programs.len() {
                    if d.chain[n].1 != programs[n] {
                        break;
                    }
                    // Sharing a join block additionally requires the same
                    // secondary stream feeding its right port.
                    if matches!(programs[n], BlockProgram::Op(PlanOp::Join { .. }))
                        && d.secondary != plan.secondary
                    {
                        break;
                    }
                    n += 1;
                }
                d.chain[..n].to_vec()
            })
            .max_by_key(Vec::len)
            .unwrap_or_default();

        let suffix = &programs[shared.len()..];
        let free: Vec<BlockId> = self
            .blocks
            .iter()
            .filter(|b| b.is_idle())
            .map(OpBlock::id)
            .take(suffix.len())
            .collect();
        if free.len() < suffix.len() {
            return Err(AssignError::InsufficientBlocks {
                required: suffix.len(),
                available: free.len(),
            });
        }
        let is_join = |prog: &BlockProgram| matches!(prog, BlockProgram::Op(PlanOp::Join { .. }));
        if plan.secondary.is_none() && suffix.iter().any(is_join) {
            return Err(AssignError::MissingSecondary);
        }

        // Allocate and program the suffix.
        let mut chain = shared.clone();
        for (id, prog) in free.into_iter().zip(suffix) {
            self.blocks[id.0].reprogram(prog.clone());
            chain.push((id, prog.clone()));
        }
        for (stream, schema) in &plan.inputs {
            self.streams
                .entry(stream.to_ascii_lowercase())
                .or_insert_with(|| Stream {
                    schema: schema.clone(),
                    entries: Vec::new(),
                });
        }

        // Wiring: each new block gets its streams (the primary one only
        // at the head of the chain; a shared block is already bound) and
        // every block from the last shared one on feeds its successor,
        // the last one the query's results. Every new edge leads into a
        // block allocated above or into this query's results, and
        // `release` strips every edge of a freed block, so the wiring
        // stays acyclic and `push` always ends.
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let next = chain
            .iter()
            .skip(1)
            .map(|&(block, _)| Target::Block(block, Port::Left))
            .chain([Target::Query(id)]);
        for (i, (&(block, ref prog), to)) in chain.iter().zip(next).enumerate() {
            if i >= shared.len() {
                if i == 0 {
                    self.bind(&plan.primary, block, Port::Left);
                }
                if let Some(stream) = plan.secondary.as_ref().filter(|_| is_join(prog)) {
                    self.bind(stream, block, Port::Right);
                }
            }
            if i + 1 >= shared.len() {
                self.outputs[block.0].push(to);
            }
        }

        // Reference counting over the whole chain.
        for (block, _) in &chain {
            *self.refcounts.entry(*block).or_insert(0) += 1;
        }
        self.deployed.insert(
            id,
            Deployed {
                primary: plan.primary.clone(),
                secondary: plan.secondary.clone(),
                chain,
                results: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Routes `stream`'s records into `port` of `block`; `deploy` has
    /// registered the stream.
    fn bind(&mut self, stream: &str, block: BlockId, port: Port) {
        if let Some(s) = self.streams.get_mut(&stream.to_ascii_lowercase()) {
            s.entries.push((block, port));
        }
    }

    /// Returns a block to the idle pool: program cleared, and every edge
    /// and stream entry into or out of it removed, so a block reused
    /// later receives nothing its last user was wired to.
    fn release(&mut self, id: BlockId) {
        self.blocks[id.0].reprogram(BlockProgram::Idle);
        self.outputs[id.0].clear();
        for targets in &mut self.outputs {
            targets.retain(|t| !matches!(t, Target::Block(b, _) if *b == id));
        }
        for stream in self.streams.values_mut() {
            stream.entries.retain(|(b, _)| *b != id);
        }
    }

    /// Removes a query and returns the results it had not taken. Its
    /// output edge goes, every block no surviving query shares is
    /// released, and a stream no surviving query reads is forgotten.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::UnknownQuery`] for an id not deployed.
    pub fn undeploy(&mut self, id: QueryId) -> Result<Vec<Record>, AssignError> {
        let d = self
            .deployed
            .remove(&id)
            .ok_or(AssignError::UnknownQuery { id })?;
        if let Some(&(last, _)) = d.chain.last() {
            self.outputs[last.0].retain(|t| *t != Target::Query(id));
        }
        for (block, _) in &d.chain {
            // Every deployed block is counted; an uncounted one would be
            // this query's alone.
            let count = self.refcounts.entry(*block).or_insert(1);
            *count -= 1;
            if *count == 0 {
                self.refcounts.remove(block);
                self.release(*block);
            }
        }
        // A stream with no entry left has no reader: each query's head
        // block is bound to its primary stream, its join block to its
        // secondary.
        self.streams.retain(|_, s| !s.entries.is_empty());
        Ok(d.results)
    }

    /// The blocks a deployed query runs on, in pipeline order.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::UnknownQuery`] for an id not deployed.
    pub fn blocks(&self, id: QueryId) -> Result<Vec<BlockId>, AssignError> {
        let d = self
            .deployed
            .get(&id)
            .ok_or(AssignError::UnknownQuery { id })?;
        Ok(d.chain.iter().map(|(block, _)| *block).collect())
    }

    /// Reprograms the block running operator `op` (its position in
    /// pipeline order) of a deployed query — the paper's Fig. 6 micro
    /// change, effective for the next record, with no redeployment. The
    /// block's windows start empty. Later deployments compare their
    /// prefixes against the new program.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::UnknownQuery`], [`AssignError::UnknownOp`]
    /// past the pipeline's end, or [`AssignError::SharedBlock`] when
    /// another deployed query runs on the block.
    pub fn reprogram(
        &mut self,
        id: QueryId,
        op: usize,
        program: BlockProgram,
    ) -> Result<(), AssignError> {
        let d = self
            .deployed
            .get_mut(&id)
            .ok_or(AssignError::UnknownQuery { id })?;
        let (block, current) = d
            .chain
            .get_mut(op)
            .ok_or(AssignError::UnknownOp { id, op })?;
        let queries = self.refcounts[block];
        if queries > 1 {
            return Err(AssignError::SharedBlock {
                block: *block,
                queries,
            });
        }
        self.blocks[block.0].reprogram(program.clone());
        *current = program;
        Ok(())
    }

    /// Pushes one record into the fabric and runs it to quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::UnknownStream`] if no deployed query reads
    /// `stream`, and [`AssignError::BadRecord`] if the record does not
    /// fit the stream's schema.
    pub fn push(&mut self, stream: &str, record: Record) -> Result<(), AssignError> {
        let Some(entry) = self.streams.get(&stream.to_ascii_lowercase()) else {
            return Err(AssignError::UnknownStream {
                stream: stream.to_string(),
            });
        };
        entry
            .schema
            .check(&record)
            .map_err(|error| AssignError::BadRecord {
                stream: stream.to_string(),
                error,
            })?;
        let mut work: Vec<(Target, Record)> = entry
            .entries
            .iter()
            .map(|&(block, port)| (Target::Block(block, port), record.clone()))
            .collect();
        while let Some((target, rec)) = work.pop() {
            match target {
                Target::Query(id) => {
                    if let Some(d) = self.deployed.get_mut(&id) {
                        d.results.push(rec);
                    }
                }
                Target::Block(block, port) => {
                    for out in self.blocks[block.0].process(port, rec) {
                        for &to in &self.outputs[block.0] {
                            work.push((to, out.clone()));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Removes and returns the results of one query.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::UnknownQuery`] for an id not deployed.
    pub fn take_results(&mut self, id: QueryId) -> Result<Vec<Record>, AssignError> {
        self.deployed
            .get_mut(&id)
            .map(|d| std::mem::take(&mut d.results))
            .ok_or(AssignError::UnknownQuery { id })
    }

    /// Renders the topology as a Graphviz DOT document: stream entries,
    /// programmed blocks (labelled with their operator mnemonic), idle
    /// blocks (dashed), one output node per deployed query, and every
    /// edge — shared prefix blocks show their fan-out to every dependent
    /// query's suffix.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph fqp {\n  rankdir=LR;\n");
        for (name, stream) in &self.streams {
            let _ = writeln!(out, "  \"stream_{name}\" [shape=cds, label=\"{name}\"];");
            for (block, port) in &stream.entries {
                let _ = writeln!(
                    out,
                    "  \"stream_{name}\" -> b{} [label=\"{port:?}\"];",
                    block.0
                );
            }
        }
        for b in &self.blocks {
            let style = if b.is_idle() { ", style=dashed" } else { "" };
            let _ = writeln!(
                out,
                "  b{0} [shape=box, label=\"#{0} {1}\"{style}];",
                b.id().0,
                b.program().mnemonic(),
            );
        }
        for id in self.deployed.keys() {
            let _ = writeln!(out, "  query{} [shape=doublecircle, label=\"{id}\"];", id.0);
        }
        for (from, targets) in self.outputs.iter().enumerate() {
            for t in targets {
                let _ = match t {
                    Target::Block(id, port) => {
                        writeln!(out, "  b{from} -> b{} [label=\"{port:?}\"];", id.0)
                    }
                    Target::Query(id) => writeln!(out, "  b{from} -> query{};", id.0),
                };
            }
        }
        out.push_str("}\n");
        out
    }

    /// Sharing statistics across the deployed queries.
    pub fn sharing_report(&self) -> SharingReport {
        SharingReport {
            queries: self.deployed.len(),
            blocks_in_use: self.refcounts.len(),
            blocks_without_sharing: self.deployed.values().map(|d| d.chain.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{bind, BoundCondition, Catalog};
    use crate::query::{CmpOp, Query};
    use streamcore::{Field, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "customers",
            Schema::new(vec![
                Field::new("product_id", 32).unwrap(),
                Field::new("age", 8).unwrap(),
                Field::new("gender", 1).unwrap(),
            ])
            .unwrap(),
        );
        c.register(
            "products",
            Schema::new(vec![
                Field::new("product_id", 32).unwrap(),
                Field::new("price", 32).unwrap(),
            ])
            .unwrap(),
        );
        c.register(
            "returns",
            Schema::new(vec![Field::new("product_id", 32).unwrap()]).unwrap(),
        );
        c
    }

    fn plan_of(text: &str) -> Plan {
        bind(&Query::parse(text).unwrap(), &catalog()).unwrap()
    }

    fn age_over(value: u64) -> BlockProgram {
        BlockProgram::Op(PlanOp::Select {
            conditions: vec![BoundCondition {
                field: 1,
                op: CmpOp::Gt,
                value,
            }],
        })
    }

    #[test]
    fn fig7_two_queries_occupy_four_blocks() {
        // The paper's Fig. 7: two select→join queries over the shared
        // product stream, mapped onto four OP-Blocks.
        let q1 = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 1536",
        );
        let q2 = plan_of(
            "SELECT * FROM customers WHERE age > 25 AND gender = 1 \
             JOIN products ON product_id WINDOW 2048",
        );
        let mut mgr = QueryManager::new(4);
        let a = mgr.deploy(&q1).unwrap();
        let b = mgr.deploy(&q2).unwrap();
        assert_eq!(mgr.blocks(a).unwrap().len(), 2);
        assert_eq!(mgr.blocks(b).unwrap().len(), 2);
        assert_eq!(mgr.idle_blocks(), 0);

        // Drive the shared streams: a 30-year-old female customer buying
        // product 7, which exists in the product stream.
        mgr.push("products", Record::new(vec![7, 100])).unwrap();
        mgr.push("customers", Record::new(vec![7, 30, 1])).unwrap();
        let out1 = mgr.take_results(a).unwrap();
        assert_eq!(out1, vec![Record::new(vec![7, 30, 1, 7, 100])]);
        assert_eq!(mgr.take_results(b).unwrap(), out1);

        // A 20-year-old male matches neither query.
        mgr.push("customers", Record::new(vec![7, 20, 0])).unwrap();
        assert!(mgr.take_results(a).unwrap().is_empty());
        assert!(mgr.take_results(b).unwrap().is_empty());
    }

    #[test]
    fn insufficient_blocks_is_rejected_without_side_effects() {
        let q = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 16",
        );
        let mut mgr = QueryManager::new(1);
        let err = mgr.deploy(&q).unwrap_err();
        assert_eq!(
            err,
            AssignError::InsufficientBlocks {
                required: 2,
                available: 1
            }
        );
        assert_eq!(mgr.idle_blocks(), 1);
        assert_eq!(mgr.sharing_report(), SharingReport::default());
    }

    #[test]
    fn passthrough_query_uses_one_block() {
        let q = plan_of("SELECT * FROM customers");
        let mut mgr = QueryManager::new(1);
        let a = mgr.deploy(&q).unwrap();
        assert_eq!(mgr.blocks(a).unwrap().len(), 1);
        mgr.push("customers", Record::new(vec![1, 2, 1])).unwrap();
        assert_eq!(mgr.take_results(a).unwrap().len(), 1);
        // The slot is reusable once the query is gone, and its stream is
        // forgotten until a query reads it again.
        mgr.undeploy(a).unwrap();
        assert_eq!(mgr.idle_blocks(), 1);
        let unread = AssignError::UnknownStream {
            stream: "Customers".into(),
        };
        assert_eq!(
            mgr.push("Customers", Record::new(vec![1, 2, 1])),
            Err(unread)
        );
        assert!(mgr.deploy(&q).is_ok());
    }

    #[test]
    fn common_select_prefix_is_shared() {
        // Same selection, different join windows: the select block is
        // shared, each query owns its join block -> 3 blocks, not 4.
        let q1 = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 1536",
        );
        let q2 = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 2048",
        );
        let mut mgr = QueryManager::new(3);
        let a = mgr.deploy(&q1).unwrap();
        let b = mgr.deploy(&q2).unwrap();
        let report = mgr.sharing_report();
        assert_eq!(report.blocks_in_use, 3);
        assert_eq!(report.blocks_without_sharing, 4);
        assert_eq!(report.blocks_saved(), 1);
        assert_eq!(mgr.blocks(a).unwrap()[0], mgr.blocks(b).unwrap()[0]);

        // Both queries see matching traffic.
        mgr.push("products", Record::new(vec![7, 10])).unwrap();
        mgr.push("customers", Record::new(vec![7, 40, 1])).unwrap();
        assert_eq!(mgr.take_results(a).unwrap().len(), 1);
        assert_eq!(mgr.take_results(b).unwrap().len(), 1);

        // The shared select still filters for both.
        mgr.push("customers", Record::new(vec![7, 20, 1])).unwrap();
        assert!(mgr.take_results(a).unwrap().is_empty());
        assert!(mgr.take_results(b).unwrap().is_empty());
    }

    #[test]
    fn identical_queries_share_everything() {
        let q = plan_of("SELECT * FROM customers WHERE age > 25");
        let mut mgr = QueryManager::new(1);
        let a = mgr.deploy(&q).unwrap();
        let b = mgr.deploy(&q).unwrap();
        assert_eq!(mgr.sharing_report().blocks_in_use, 1);
        mgr.push("customers", Record::new(vec![1, 30, 0])).unwrap();
        assert_eq!(mgr.take_results(a).unwrap().len(), 1);
        assert_eq!(mgr.take_results(b).unwrap().len(), 1);
    }

    #[test]
    fn undeploy_releases_only_unshared_blocks() {
        let q1 = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 64",
        );
        let q2 = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 128",
        );
        let mut mgr = QueryManager::new(3);
        let a = mgr.deploy(&q1).unwrap();
        let b = mgr.deploy(&q2).unwrap();
        mgr.undeploy(b).unwrap();
        // q2's join block is released; the shared select and q1's join
        // survive.
        assert_eq!(mgr.sharing_report().blocks_in_use, 2);
        assert_eq!(mgr.idle_blocks(), 1);
        assert!(!mgr.to_dot().contains("b0 -> b2"), "{}", mgr.to_dot());
        mgr.push("products", Record::new(vec![3, 5])).unwrap();
        mgr.push("customers", Record::new(vec![3, 30, 0])).unwrap();
        assert_eq!(mgr.take_results(a).unwrap().len(), 1);

        mgr.undeploy(a).unwrap();
        assert_eq!(mgr.idle_blocks(), 3);
    }

    #[test]
    fn undeploy_returns_the_untaken_results_and_leaves_no_output_in_either_order() {
        // Two identical queries share their one block, so each owns
        // nothing but its output. Query ids are numbered in deployment
        // order: `a` is query#0, `b` query#1.
        let q = plan_of("SELECT * FROM customers WHERE age > 25");
        let early = Record::new(vec![1, 40, 0]);
        for first_out in [0, 1] {
            let mut mgr = QueryManager::new(2);
            let ids = [mgr.deploy(&q).unwrap(), mgr.deploy(&q).unwrap()];
            let (gone, kept) = (ids[first_out], ids[1 - first_out]);
            mgr.push("customers", early.clone()).unwrap();
            assert_eq!(mgr.undeploy(gone).unwrap(), vec![early.clone()]);
            let dot = mgr.to_dot();
            assert!(!dot.contains(&format!("query{first_out}")), "{dot}");
            assert_eq!(dot.matches("shape=doublecircle").count(), 1, "{dot}");

            mgr.push("customers", Record::new(vec![1, 30, 0])).unwrap();
            assert_eq!(mgr.take_results(kept).unwrap().len(), 2);
            assert_eq!(
                mgr.take_results(gone).unwrap_err(),
                AssignError::UnknownQuery { id: gone }
            );
            assert!(mgr.undeploy(kept).unwrap().is_empty());
            assert_eq!(mgr.idle_blocks(), 2);
        }
    }

    #[test]
    fn a_mid_stream_deploy_sees_the_shared_join_windows_earlier_records() {
        // Same join, different projections: the second query shares the
        // live join block, whose windows already hold product 7.
        let q1 = plan_of("SELECT * FROM customers JOIN products ON product_id WINDOW 8");
        let q2 = plan_of("SELECT price FROM customers JOIN products ON product_id WINDOW 8");
        let mut mgr = QueryManager::new(3);
        let a = mgr.deploy(&q1).unwrap();
        mgr.push("products", Record::new(vec![7, 100])).unwrap();
        let b = mgr.deploy(&q2).unwrap();
        assert_eq!(mgr.blocks(a).unwrap()[0], mgr.blocks(b).unwrap()[0]);

        mgr.push("customers", Record::new(vec![7, 30, 1])).unwrap();
        assert_eq!(
            mgr.take_results(b).unwrap(),
            vec![Record::new(vec![100])],
            "the shared window's earlier product is joined"
        );
        assert_eq!(mgr.take_results(a).unwrap().len(), 1);

        // A join deployed on a fresh block starts empty.
        let fresh = plan_of("SELECT * FROM customers JOIN products ON product_id WINDOW 16");
        let c = mgr.deploy(&fresh).unwrap();
        mgr.push("customers", Record::new(vec![7, 31, 0])).unwrap();
        assert!(mgr.take_results(c).unwrap().is_empty());
        assert_eq!(mgr.take_results(a).unwrap().len(), 1);
    }

    #[test]
    fn reprogram_changes_an_owned_block_and_refuses_a_shared_one() {
        let q = plan_of("SELECT * FROM customers WHERE age > 25");
        let mut mgr = QueryManager::new(2);
        let a = mgr.deploy(&q).unwrap();
        mgr.reprogram(a, 0, age_over(60)).unwrap();
        mgr.push("customers", Record::new(vec![1, 30, 0])).unwrap();
        mgr.push("customers", Record::new(vec![1, 70, 0])).unwrap();
        let out = mgr.take_results(a).unwrap();
        assert_eq!(out, vec![Record::new(vec![1, 70, 0])]);

        // A later deploy of the original text no longer matches the
        // reprogrammed block: it gets a block of its own.
        let b = mgr.deploy(&q).unwrap();
        assert_eq!(mgr.sharing_report().blocks_in_use, 2);
        // Deploying the reprogrammed plan shares `a`'s block, which then
        // refuses the change.
        mgr.undeploy(b).unwrap();
        let over_60 = plan_of("SELECT * FROM customers WHERE age > 60");
        let c = mgr.deploy(&over_60).unwrap();
        assert_eq!(mgr.sharing_report().blocks_in_use, 1);
        let block = mgr.blocks(a).unwrap()[0];
        assert_eq!(
            mgr.reprogram(c, 0, age_over(10)).unwrap_err(),
            AssignError::SharedBlock { block, queries: 2 }
        );
        assert_eq!(
            mgr.reprogram(a, 1, age_over(10)).unwrap_err(),
            AssignError::UnknownOp { id: a, op: 1 }
        );
    }

    #[test]
    fn sharing_reduces_the_block_requirement() {
        let q1 = plan_of("SELECT * FROM customers WHERE age > 25");
        let q2 = plan_of("SELECT age FROM customers WHERE age > 25");
        // One block total is NOT enough for q2's projection…
        let mut mgr = QueryManager::new(1);
        mgr.deploy(&q1).unwrap();
        assert!(matches!(
            mgr.deploy(&q2),
            Err(AssignError::InsufficientBlocks {
                required: 1,
                available: 0
            })
        ));
        // …but two are, because the select is shared.
        let mut mgr = QueryManager::new(2);
        let a = mgr.deploy(&q1).unwrap();
        let b = mgr.deploy(&q2).unwrap();
        assert_eq!(mgr.sharing_report().blocks_in_use, 2);
        mgr.push("customers", Record::new(vec![9, 50, 1])).unwrap();
        assert_eq!(mgr.take_results(a).unwrap()[0].values().len(), 3);
        assert_eq!(mgr.take_results(b).unwrap()[0].values(), &[50]);
    }

    #[test]
    fn blocks_in_use_count_each_shared_prefix_once() {
        const Q1: &str = "SELECT * FROM customers WHERE age > 25 \
                          JOIN products ON product_id WINDOW 1536";
        const Q2: &str = "SELECT * FROM customers WHERE age > 25 \
                          JOIN products ON product_id WINDOW 2048";
        const HOT: &str = "SELECT * FROM customers WHERE age > 25";
        const ALL: &str = "SELECT * FROM customers";
        let table: [(&[&str], usize); 11] = [
            (&[Q1], 2),
            (&[Q1, Q2], 3),
            (&[Q1, Q1], 2),
            (&[HOT, HOT], 1),
            (&[HOT, "SELECT age FROM customers WHERE age > 25"], 2),
            // The same operator over different streams.
            (
                &[
                    "SELECT * FROM customers WHERE product_id > 0",
                    "SELECT * FROM products WHERE product_id > 0",
                ],
                2,
            ),
            // A plan without operators takes one passthrough block per
            // stream.
            (&[ALL, "SELECT * FROM products"], 2),
            (&[ALL, ALL], 1),
            // The same join shape with a different secondary stream.
            (
                &[
                    "SELECT * FROM customers JOIN products ON product_id WINDOW 64",
                    "SELECT * FROM customers JOIN returns ON product_id WINDOW 64",
                ],
                2,
            ),
            // The same ops after joins with different secondaries: the
            // blocks behind them see different records, so neither shares.
            (
                &[
                    "SELECT age FROM customers JOIN products ON product_id WINDOW 64",
                    "SELECT age FROM customers JOIN returns ON product_id WINDOW 64",
                ],
                4,
            ),
            (
                &[
                    "SELECT * FROM customers JOIN products ON product_id WINDOW 64 \
                     WHERE product_id > 5",
                    "SELECT * FROM customers JOIN returns ON product_id WINDOW 64 \
                     WHERE product_id > 5",
                ],
                4,
            ),
        ];
        for (texts, blocks) in table {
            let mut mgr = QueryManager::new(16);
            for text in texts {
                mgr.deploy(&plan_of(text)).unwrap();
            }
            assert_eq!(mgr.sharing_report().blocks_in_use, blocks, "{texts:?}");
        }
    }

    #[test]
    fn dot_export_shows_shared_fanout() {
        let q1 = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 64",
        );
        let q2 = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 128",
        );
        let mut mgr = QueryManager::new(4);
        mgr.deploy(&q1).unwrap();
        mgr.deploy(&q2).unwrap();
        let dot = mgr.to_dot();
        assert!(dot.starts_with("digraph fqp {"), "{dot}");
        assert!(dot.contains("\"stream_customers\" -> b0"), "{dot}");
        assert!(
            dot.contains("\"stream_products\" -> b2 [label=\"Right\"]"),
            "{dot}"
        );
        assert!(dot.contains("#0 select"), "{dot}");
        assert!(dot.contains("#3 idle\", style=dashed"), "{dot}");
        // The shared select (block 0) feeds both join blocks, each of
        // which feeds its own query's output.
        assert!(dot.contains("b0 -> b1"), "{dot}");
        assert!(dot.contains("b0 -> b2"), "{dot}");
        assert!(dot.contains("b1 -> query0;"), "{dot}");
        assert!(dot.contains("b2 -> query1;"), "{dot}");
    }

    #[test]
    fn undeploy_unknown_id_errors() {
        let mut mgr = QueryManager::new(1);
        let unknown = AssignError::UnknownQuery { id: QueryId(42) };
        assert_eq!(mgr.undeploy(QueryId(42)).unwrap_err(), unknown);
        assert_eq!(mgr.take_results(QueryId(42)).unwrap_err(), unknown);
        assert_eq!(mgr.blocks(QueryId(42)).unwrap_err(), unknown);
        assert_eq!(
            mgr.reprogram(QueryId(42), 0, BlockProgram::Passthrough)
                .unwrap_err(),
            unknown
        );
        assert_eq!(unknown.to_string(), "query#42 is not deployed");
    }

    #[test]
    fn push_rejects_a_record_that_does_not_fit_its_streams_schema() {
        let mut catalog = Catalog::new();
        catalog.register_spec("s=a:8,b:32").unwrap();
        catalog.register_spec("t=a:8,c:32").unwrap();
        let plan = |text| bind(&Query::parse(text).unwrap(), &catalog).unwrap();
        let mut mgr = QueryManager::new(4);
        let project = mgr.deploy(&plan("SELECT b FROM s")).unwrap();
        let join = mgr
            .deploy(&plan("SELECT * FROM s JOIN t ON a WINDOW 4"))
            .unwrap();
        mgr.push("t", Record::new(vec![44, 7])).unwrap();
        for (stream, values, error) in [
            (
                "s",
                vec![1],
                SchemaError::ArityMismatch {
                    expected: 2,
                    actual: 1,
                },
            ),
            (
                "S",
                vec![300, 5, 9],
                SchemaError::ArityMismatch {
                    expected: 2,
                    actual: 3,
                },
            ),
            (
                "s",
                vec![300, 5],
                SchemaError::ValueOutOfRange {
                    field: "a".into(),
                    value: 300,
                    max: 255,
                },
            ),
        ] {
            let bad = AssignError::BadRecord {
                stream: stream.into(),
                error,
            };
            assert_eq!(mgr.push(stream, Record::new(values)), Err(bad));
        }
        // Nothing reached either query; a fitting record still does.
        assert!(mgr.take_results(project).unwrap().is_empty());
        assert!(mgr.take_results(join).unwrap().is_empty());
        mgr.push("s", Record::new(vec![44, 5])).unwrap();
        assert_eq!(mgr.take_results(project).unwrap(), [Record::new(vec![5])]);
        assert_eq!(
            mgr.take_results(join).unwrap(),
            [Record::new(vec![44, 5, 44, 7])]
        );

        // Another catalog's `s` cannot join the deployed one; once no
        // query reads `s`, it can.
        let mut other = Catalog::new();
        other.register_spec("s=a:16").unwrap();
        let wide = bind(&Query::parse("SELECT * FROM s").unwrap(), &other).unwrap();
        let conflict = AssignError::SchemaConflict { stream: "s".into() };
        assert_eq!(mgr.deploy(&wide), Err(conflict));
        mgr.undeploy(project).unwrap();
        mgr.undeploy(join).unwrap();
        mgr.deploy(&wide).unwrap();
        mgr.push("s", Record::new(vec![300])).unwrap();
    }
}
