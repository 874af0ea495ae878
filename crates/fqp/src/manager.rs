//! Query deployment onto the fabric, with inter-query operator sharing —
//! the paper's open problems #1/#2 (map a plan onto idle OP-Blocks at
//! runtime) and #4: "generalize the query mapping from single-query
//! optimization to multi-query optimization to amortize the execution
//! cost across the shared processing of several queries", in the spirit
//! of the Rete-like global query plans it cites.
//!
//! [`QueryManager`] is the one way a bound plan is put on a [`Fabric`],
//! changed on it, and taken off it. [`QueryManager::deploy`] looks for an
//! already-deployed query whose operator pipeline starts with the same
//! operators over the same streams and reuses those blocks (fan-out on
//! the last shared block); only the differing suffix consumes fresh
//! OP-Blocks, one per operator. Two queries with no common prefix occupy
//! blocks side by side, which is the paper's Fig. 7 layout. Shared blocks
//! are reference-counted so [`QueryManager::undeploy`] releases exactly
//! the blocks no surviving query needs.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use streamcore::Record;

use crate::fabric::{Fabric, FabricError, SinkId, Target};
use crate::opblock::{BlockId, BlockProgram, Port};
use crate::plan::{Plan, PlanOp};

/// Identifier of a deployed query within a [`QueryManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query#{}", self.0)
    }
}

/// Errors raised while deploying, changing or removing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignError {
    /// Not enough idle blocks for the plan.
    InsufficientBlocks {
        /// Blocks the plan needs.
        required: usize,
        /// Idle blocks available.
        available: usize,
    },
    /// The fabric rejected a reconfiguration step.
    Fabric(FabricError),
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
            AssignError::Fabric(e) => write!(f, "fabric error: {e}"),
            AssignError::UnknownQuery { id } => write!(f, "{id} is not deployed"),
            AssignError::UnknownOp { id, op } => write!(f, "{id} has no operator {op}"),
            AssignError::SharedBlock { block, queries } => {
                write!(f, "{block} is shared by {queries} deployed queries")
            }
            AssignError::MissingSecondary => write!(f, "plan joins no secondary stream"),
        }
    }
}

impl Error for AssignError {}

impl From<FabricError> for AssignError {
    fn from(e: FabricError) -> Self {
        AssignError::Fabric(e)
    }
}

#[derive(Debug, Clone)]
struct Deployed {
    id: QueryId,
    primary: String,
    secondary: Option<String>,
    /// The full pipeline, programs included (shared prefix + own suffix).
    chain: Vec<(BlockId, BlockProgram)>,
    sink: SinkId,
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

/// Deploys queries onto a fabric with operator sharing and reference
/// counting.
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
/// assert_eq!(mgr.take_results(b)?.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct QueryManager {
    fabric: Fabric,
    next_id: u64,
    deployed: Vec<Deployed>,
    refcounts: HashMap<BlockId, usize>,
}

impl QueryManager {
    /// Creates a manager over a fresh fabric of `num_blocks` OP-Blocks.
    pub fn new(num_blocks: usize) -> Self {
        Self {
            fabric: Fabric::new(num_blocks),
            next_id: 0,
            deployed: Vec::new(),
            refcounts: HashMap::new(),
        }
    }

    /// Read access to the underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Where query `id` sits in `deployed`.
    fn position(&self, id: QueryId) -> Result<usize, AssignError> {
        self.deployed
            .iter()
            .position(|d| d.id == id)
            .ok_or(AssignError::UnknownQuery { id })
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
    /// requirement); the fabric is left unchanged in that case.
    pub fn deploy(&mut self, plan: &Plan) -> Result<QueryId, AssignError> {
        let programs = BlockProgram::pipeline(plan);

        // Longest shareable prefix across deployed queries.
        let shared: Vec<(BlockId, BlockProgram)> = self
            .deployed
            .iter()
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
        let free: Vec<BlockId> = self.fabric.idle().take(suffix.len()).collect();
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
            self.fabric.reprogram(id, prog.clone())?;
            chain.push((id, prog.clone()));
        }

        // Wiring: each new block gets its streams (the primary one only
        // at the head of the chain; a shared block is already bound) and
        // every block from the last shared one on feeds its successor,
        // the last one the query's sink.
        let sink = self.fabric.add_sink();
        let next = chain
            .iter()
            .skip(1)
            .map(|&(id, _)| Target::Block(id, Port::Left))
            .chain([Target::Sink(sink)]);
        for (i, (&(id, ref prog), to)) in chain.iter().zip(next).enumerate() {
            if i >= shared.len() {
                if i == 0 {
                    self.fabric.bind_stream(&plan.primary, id, Port::Left)?;
                }
                if let Some(stream) = plan.secondary.as_ref().filter(|_| is_join(prog)) {
                    self.fabric.bind_stream(stream, id, Port::Right)?;
                }
            }
            if i + 1 >= shared.len() {
                self.fabric.connect(id, to)?;
            }
        }

        // Reference counting over the whole chain.
        for (id, _) in &chain {
            *self.refcounts.entry(*id).or_insert(0) += 1;
        }

        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.deployed.push(Deployed {
            id,
            primary: plan.primary.clone(),
            secondary: plan.secondary.clone(),
            chain,
            sink,
        });
        Ok(id)
    }

    /// Removes a query: its own sink edge is disconnected, and every
    /// block no surviving query shares is released (which also drops the
    /// edges and stream bindings into it).
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::UnknownQuery`] for an id not deployed.
    pub fn undeploy(&mut self, id: QueryId) -> Result<(), AssignError> {
        let d = self.deployed.remove(self.position(id)?);
        if let Some(&(last, _)) = d.chain.last() {
            self.fabric.disconnect(last, Target::Sink(d.sink))?;
        }
        for (block, _) in &d.chain {
            // Every deployed block is counted; an uncounted one would be
            // this query's alone.
            let count = self.refcounts.entry(*block).or_insert(1);
            *count -= 1;
            if *count == 0 {
                self.refcounts.remove(block);
                self.fabric.release(*block)?;
            }
        }
        Ok(())
    }

    /// The blocks a deployed query runs on, in pipeline order.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::UnknownQuery`] for an id not deployed.
    pub fn blocks(&self, id: QueryId) -> Result<Vec<BlockId>, AssignError> {
        let d = &self.deployed[self.position(id)?];
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
        let pos = self.position(id)?;
        let (block, _) = self.deployed[pos]
            .chain
            .get(op)
            .ok_or(AssignError::UnknownOp { id, op })?;
        let block = *block;
        let queries = self.refcounts[&block];
        if queries > 1 {
            return Err(AssignError::SharedBlock { block, queries });
        }
        self.fabric.reprogram(block, program.clone())?;
        self.deployed[pos].chain[op].1 = program;
        Ok(())
    }

    /// Pushes one record into the fabric.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownStream`] if no deployed query reads
    /// `stream`.
    pub fn push(&mut self, stream: &str, record: Record) -> Result<(), FabricError> {
        self.fabric.push(stream, record)
    }

    /// Removes and returns the results of one query.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::UnknownQuery`] for an id not deployed.
    pub fn take_results(&mut self, id: QueryId) -> Result<Vec<Record>, AssignError> {
        let sink = self.deployed[self.position(id)?].sink;
        Ok(self.fabric.take_sink(sink)?)
    }

    /// Graphviz DOT rendering of the shared topology (see
    /// [`Fabric::to_dot`]) — shared prefix blocks show their fan-out to
    /// every dependent query's suffix.
    pub fn to_dot(&self) -> String {
        self.fabric.to_dot()
    }

    /// Sharing statistics across the deployed queries.
    pub fn sharing_report(&self) -> SharingReport {
        SharingReport {
            queries: self.deployed.len(),
            blocks_in_use: self.refcounts.len(),
            blocks_without_sharing: self.deployed.iter().map(|d| d.chain.len()).sum(),
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
        assert_eq!(mgr.fabric().idle_blocks(), 0);

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
        assert_eq!(mgr.fabric().idle_blocks(), 1);
        assert_eq!(mgr.sharing_report(), SharingReport::default());
    }

    #[test]
    fn passthrough_query_uses_one_block() {
        let q = plan_of("SELECT * FROM customers");
        let mut mgr = QueryManager::new(1);
        let a = mgr.deploy(&q).unwrap();
        assert_eq!(mgr.blocks(a).unwrap().len(), 1);
        mgr.push("customers", Record::new(vec![1, 2, 3])).unwrap();
        assert_eq!(mgr.take_results(a).unwrap().len(), 1);
        // The slot is reusable once the query is gone.
        mgr.undeploy(a).unwrap();
        assert_eq!(mgr.fabric().idle_blocks(), 1);
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
        assert_eq!(mgr.fabric().idle_blocks(), 1);
        assert!(!mgr.to_dot().contains("b0 -> b2"), "{}", mgr.to_dot());
        mgr.push("products", Record::new(vec![3, 5])).unwrap();
        mgr.push("customers", Record::new(vec![3, 30, 0])).unwrap();
        assert_eq!(mgr.take_results(a).unwrap().len(), 1);

        mgr.undeploy(a).unwrap();
        assert_eq!(mgr.fabric().idle_blocks(), 3);
    }

    #[test]
    fn an_undeployed_querys_sink_receives_nothing_in_either_order() {
        // Two identical queries share their one block, so each owns
        // nothing but its sink edge. Sinks are numbered in deployment
        // order: `a` collects at sink 0, `b` at sink 1.
        let q = plan_of("SELECT * FROM customers WHERE age > 25");
        for first_out in [0, 1] {
            let mut mgr = QueryManager::new(2);
            let ids = [mgr.deploy(&q).unwrap(), mgr.deploy(&q).unwrap()];
            let (gone, kept) = (ids[first_out], ids[1 - first_out]);
            mgr.undeploy(gone).unwrap();
            let dot = mgr.to_dot();
            assert!(!dot.contains(&format!("-> sink{first_out};")), "{dot}");

            mgr.push("customers", Record::new(vec![1, 30, 0])).unwrap();
            assert_eq!(mgr.take_results(kept).unwrap().len(), 1);
            let removed_sink = mgr.fabric.take_sink(SinkId(first_out)).unwrap();
            assert!(
                removed_sink.is_empty(),
                "order {first_out}: {removed_sink:?}"
            );
            assert_eq!(
                mgr.take_results(gone).unwrap_err(),
                AssignError::UnknownQuery { id: gone }
            );
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
        let mut mgr = QueryManager::new(3);
        mgr.deploy(&q1).unwrap();
        mgr.deploy(&q2).unwrap();
        let dot = mgr.to_dot();
        // The shared select (block 0) feeds both join blocks.
        assert!(dot.contains("b0 -> b1"), "{dot}");
        assert!(dot.contains("b0 -> b2"), "{dot}");
        assert!(dot.matches("sink").count() >= 2, "{dot}");
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
}
