//! Query assignment: mapping bound plans onto the fabric at runtime.
//!
//! This is the paper's open problem #1/#2 in miniature: given a plan and
//! the pool of free OP-Blocks, pick blocks, program them, and wire them —
//! with a cost model (blocks used, pipeline hops) that an optimizer could
//! minimize. The greedy assigner here allocates one block per operator in
//! pipeline order, which reproduces the paper's Fig. 7 layout: two queries
//! sharing the product stream occupy four OP-Blocks.

use std::error::Error;
use std::fmt;

use crate::fabric::{Fabric, FabricError, SinkId, Target};
use crate::manager::QueryId;
use crate::opblock::{BlockId, BlockProgram, Port};
use crate::plan::{Plan, PlanOp};

/// A deployed query: which blocks it occupies and where its results
/// arrive. Returned by [`assign`]; pass to [`remove`] for dynamic query
/// removal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHandle {
    /// Blocks programmed for this query, in pipeline order.
    pub blocks: Vec<BlockId>,
    /// Sink collecting the query's results.
    pub sink: SinkId,
    /// Estimated deployment cost.
    pub cost: AssignmentCost,
}

/// The assigner's cost model (open problem #2): resources consumed and
/// latency added by a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentCost {
    /// OP-Blocks occupied.
    pub blocks_used: usize,
    /// Pipeline hops from stream entry to sink (lower = lower latency).
    pub pipeline_hops: usize,
}

/// Errors raised during assignment.
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
        }
    }
}

impl Error for AssignError {}

impl From<FabricError> for AssignError {
    fn from(e: FabricError) -> Self {
        AssignError::Fabric(e)
    }
}

/// Deploys `plan` onto `fabric`: allocates idle blocks, programs them,
/// binds the input streams, and wires the pipeline to a fresh sink.
///
/// # Errors
///
/// Returns [`AssignError::InsufficientBlocks`] when the idle pool is too
/// small; the fabric is left unchanged in that case.
pub fn assign(plan: &Plan, fabric: &mut Fabric) -> Result<QueryHandle, AssignError> {
    let required = plan.block_count();
    let available = fabric.idle_blocks();
    if available < required {
        return Err(AssignError::InsufficientBlocks {
            required,
            available,
        });
    }

    // Allocate blocks, one per operator (or a single passthrough).
    let mut blocks = Vec::with_capacity(required);
    for _ in 0..required {
        let id = fabric.find_idle().expect("counted above");
        // Reserve immediately so find_idle moves on.
        fabric.reprogram(id, BlockProgram::Passthrough)?;
        blocks.push(id);
    }

    // Program each block for its operator.
    for (id, prog) in blocks.iter().zip(BlockProgram::pipeline(plan)) {
        fabric.reprogram(*id, prog)?;
    }

    // Wire: primary stream -> first block; chain left-port to left-port;
    // the join block's right port receives the secondary stream directly.
    fabric.bind_stream(&plan.primary, blocks[0], Port::Left);
    for (id, op) in blocks.iter().zip(&plan.ops) {
        if let PlanOp::Join { .. } = op {
            let stream = plan
                .secondary
                .as_deref()
                .expect("join implies a secondary stream");
            fabric.bind_stream(stream, *id, Port::Right);
        }
    }
    let sink = fabric.add_sink();
    for w in blocks.windows(2) {
        fabric.connect(w[0], Target::Block(w[1], Port::Left))?;
    }
    fabric.connect(*blocks.last().expect("non-empty"), Target::Sink(sink))?;

    Ok(QueryHandle {
        cost: AssignmentCost {
            blocks_used: blocks.len(),
            pipeline_hops: blocks.len() + 1,
        },
        blocks,
        sink,
    })
}

/// Removes a deployed query, returning its blocks to the idle pool.
///
/// # Errors
///
/// Propagates fabric errors for stale handles.
pub fn remove(handle: &QueryHandle, fabric: &mut Fabric) -> Result<(), AssignError> {
    for &id in &handle.blocks {
        fabric.release(id)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{bind, Catalog};
    use crate::query::Query;
    use streamcore::{Field, Record, Schema};

    fn demo_catalog() -> Catalog {
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
        c
    }

    fn plan_of(text: &str) -> Plan {
        bind(&Query::parse(text).unwrap(), &demo_catalog()).unwrap()
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
        let mut fabric = Fabric::new(4);
        let h1 = assign(&q1, &mut fabric).unwrap();
        let h2 = assign(&q2, &mut fabric).unwrap();
        assert_eq!(h1.cost.blocks_used, 2);
        assert_eq!(h2.cost.blocks_used, 2);
        assert_eq!(fabric.idle_blocks(), 0);

        // Drive the shared streams: a 30-year-old female customer buying
        // product 7, which exists in the product stream.
        fabric.push("products", Record::new(vec![7, 100])).unwrap();
        fabric
            .push("customers", Record::new(vec![7, 30, 1]))
            .unwrap();
        let out1 = fabric.take_sink(h1.sink).unwrap();
        let out2 = fabric.take_sink(h2.sink).unwrap();
        assert_eq!(out1, vec![Record::new(vec![7, 30, 1, 7, 100])]);
        assert_eq!(out2, out1);

        // A 20-year-old male matches neither query.
        fabric
            .push("customers", Record::new(vec![7, 20, 0]))
            .unwrap();
        assert!(fabric.take_sink(h1.sink).unwrap().is_empty());
        assert!(fabric.take_sink(h2.sink).unwrap().is_empty());
    }

    #[test]
    fn insufficient_blocks_is_rejected_without_side_effects() {
        let q = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 16",
        );
        let mut fabric = Fabric::new(1);
        let err = assign(&q, &mut fabric).unwrap_err();
        assert_eq!(
            err,
            AssignError::InsufficientBlocks {
                required: 2,
                available: 1
            }
        );
        assert_eq!(fabric.idle_blocks(), 1);
    }

    #[test]
    fn remove_frees_blocks_for_new_queries() {
        let q = plan_of("SELECT * FROM customers WHERE age > 25");
        let mut fabric = Fabric::new(1);
        let h = assign(&q, &mut fabric).unwrap();
        assert_eq!(fabric.idle_blocks(), 0);
        remove(&h, &mut fabric).unwrap();
        assert_eq!(fabric.idle_blocks(), 1);
        // The slot is immediately reusable.
        assert!(assign(&q, &mut fabric).is_ok());
    }

    #[test]
    fn select_project_pipeline_executes_end_to_end() {
        let q = plan_of("SELECT age FROM customers WHERE age > 25");
        let mut fabric = Fabric::new(2);
        let h = assign(&q, &mut fabric).unwrap();
        assert_eq!(h.cost.blocks_used, 2);
        assert_eq!(h.cost.pipeline_hops, 3);
        fabric
            .push("customers", Record::new(vec![3, 40, 0]))
            .unwrap();
        fabric
            .push("customers", Record::new(vec![3, 20, 0]))
            .unwrap();
        assert_eq!(
            fabric.take_sink(h.sink).unwrap(),
            vec![Record::new(vec![40])]
        );
    }

    #[test]
    fn passthrough_query_uses_one_block() {
        let q = plan_of("SELECT * FROM customers");
        let mut fabric = Fabric::new(1);
        let h = assign(&q, &mut fabric).unwrap();
        assert_eq!(h.cost.blocks_used, 1);
        fabric
            .push("customers", Record::new(vec![1, 2, 3]))
            .unwrap();
        assert_eq!(fabric.take_sink(h.sink).unwrap().len(), 1);
    }
}
