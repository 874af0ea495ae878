//! The Flexible Query Processor (FQP): a runtime-reprogrammable stream
//! query fabric, plus the acceleration-landscape taxonomy of the paper's
//! Section II.
//!
//! FQP is the paper's answer to the central limitation of query-to-circuit
//! compilers: instead of synthesizing each query into a fixed design
//! (minutes to days, with the system halted), a *topology of
//! online-programmable blocks* is synthesized once; queries are then
//! mapped onto it at runtime in microseconds — the "Lego-like" connectable
//! stream processor of the paper's conclusion.
//!
//! The pipeline from text to running query:
//!
//! 1. [`query::Query::parse`] — parse the SQL-like dialect;
//! 2. [`plan::bind`] — bind against stream schemas ([`plan::Catalog`])
//!    into a pipeline of operators;
//! 3. [`manager::QueryManager::deploy`] — allocate idle
//!    [`opblock::OpBlock`]s on its [`fabric::Fabric`], program them, and
//!    wire the pipeline, sharing a matching prefix with queries already
//!    deployed;
//! 4. [`manager::QueryManager::push`] — stream records through;
//! 5. [`manager::QueryManager::reprogram`] /
//!    [`manager::QueryManager::undeploy`] — change or remove queries live
//!    ([`reconfig`] quantifies why this matters).
//!
//! [`manager::QueryManager`] is the one deployer: nothing else puts a
//! bound plan on a fabric or takes it off.
//!
//! # Where operators run
//!
//! [`plan::PlanOp`] is the one operator type and [`opblock::OpBlock`]
//! the one runtime for it: a block programmed with
//! [`opblock::BlockProgram::Op`] runs one bound operator, whether it sits
//! on a [`fabric::Fabric`] (wired by [`manager`]) or beside the hardware
//! join of [`hwbridge`], which runs every non-join operator of its plan
//! in OP-Blocks. [`opblock::WindowAggregate`] is the one windowed aggregate,
//! behind aggregate blocks and the `query` crate's inline aggregates.
//!
//! # Where FQP sits in the landscape
//!
//! [`landscape`] encodes the paper's four-layer design-space
//! formalization (Section II, Fig. 4) — system, programming,
//! representational, and algorithmic models — and classifies FQP itself
//! alongside the other surveyed systems: a standalone/co-placed design
//! with a *parametrized topology* representation, the only class that
//! admits runtime query changes without resynthesis. `ARCHITECTURE.md`
//! at the workspace root maps every crate of this reproduction onto those
//! four layers.
//!
//! # Example
//!
//! ```
//! use fqp::manager::QueryManager;
//! use fqp::plan::{bind, Catalog};
//! use fqp::query::Query;
//! use streamcore::{Field, Record, Schema};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut catalog = Catalog::new();
//! catalog.register(
//!     "readings",
//!     Schema::new(vec![Field::new("sensor", 32)?, Field::new("value", 32)?])?,
//! );
//! let query = Query::parse("SELECT value FROM readings WHERE value > 90")?;
//! let plan = bind(&query, &catalog)?;
//!
//! let mut manager = QueryManager::new(8);
//! let id = manager.deploy(&plan)?;
//! manager.push("readings", Record::new(vec![1, 95]))?;
//! manager.push("readings", Record::new(vec![2, 50]))?;
//! assert_eq!(manager.take_results(id)?, vec![Record::new(vec![95])]);
//! manager.undeploy(id)?;
//! assert_eq!(manager.fabric().idle_blocks(), 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fabric;
pub mod hwbridge;
pub mod landscape;
pub mod manager;
pub mod opblock;
pub mod plan;
pub mod query;
pub mod reconfig;
