//! Continuous-query front end for the acceleration landscape: standing
//! queries compiled onto the join fabric, behind one public API.
//!
//! This crate is the top of the reproduction's query stack. Where
//! [`fqp`] answers *"how would a flexible hardware query processor run
//! this query?"* (operator blocks, fabrics, reconfiguration), this
//! crate answers the operational question the paper's real-time
//! analytics setting poses: *many standing queries, one shared fabric,
//! admitted and re-planned at runtime*.
//!
//! The pipeline:
//!
//! ```text
//!   LogicalPlan (builder) ─┐
//!                          ├─▶ fqp::query::Query ──compile──▶ fqp::plan::bind
//!   Query::parse (text) ───┘   (the one AST)                 (the one lowering:
//!                                                              typed PlanErrors)
//!                                                                   │
//!        ┌──── Shape + PostPipeline read off the bound ops, ◀───────┘
//!        │     engine by rule from the Objective and the pool width
//!        ▼
//!   CompiledQuery ──admit──▶ QueryRuntime ──▶ shared StreamJoin engines
//!   (plan + engine           (multi-tenant:      (SplitJoin / handshake
//!    + post pipeline)         groups, telemetry,  / baseline, one per
//!                             live re-plan)       stream-pair group)
//! ```
//!
//! * [`logical`] — the [`LogicalPlan`] builder: sources, filters,
//!   projections, window joins, and windowed aggregates over named
//!   streams, each call writing a clause of an [`fqp::query::Query`].
//! * [`mod@compile`] — one [`fqp::plan::bind`] against an
//!   [`fqp::plan::Catalog`] (unknown streams/fields are the same typed
//!   [`fqp::plan::PlanError`]s), engine-representability checks, the
//!   post pipeline read off the bound operators, and the engine picked by
//!   rule from the [`Objective`](compile::Objective) and the pool width.
//! * [`runtime`] — the multi-tenant
//!   [`QueryRuntime`]: admission/cancellation,
//!   engine sharing per stream-pair group, per-query `query.<id>.*`
//!   live telemetry and [`RunManifest`](obs::RunManifest)s, and
//!   lossless drain-and-handoff re-planning.
//!
//! # Example
//!
//! ```
//! use query::prelude::*;
//! use streamcore::Tuple;
//!
//! let mut catalog = Catalog::new();
//! catalog.register_spec("trades=sym:32,qty:32").unwrap();
//! catalog.register_spec("quotes=sym:32,px:32").unwrap();
//!
//! let mut runtime = QueryRuntime::new(catalog, RuntimeConfig::new(2));
//! let plan = LogicalPlan::source("trades")
//!     .join(LogicalPlan::source("quotes"), "sym", 8)
//!     .filter("qty", CmpOp::Gt, 10);
//! runtime.admit("big-trades", &plan).unwrap();
//!
//! runtime.push("trades", Tuple::new(7, 25)).unwrap();
//! runtime.push("quotes", Tuple::new(7, 101)).unwrap();
//! let reports = runtime.finish().unwrap();
//! assert_eq!(reports[0].rows, vec![vec![7, 25, 7, 101]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod compile;
pub mod logical;
pub mod runtime;

pub use compile::{compile, CompileError, CompiledQuery, EngineKind, GroupKey, PostPipeline};
pub use logical::LogicalPlan;
pub use runtime::{HandoffReport, QueryReport, QueryRuntime, RuntimeConfig, RuntimeError};

/// The single import for writing and running standing queries: the
/// logical-plan builder, the compiler surface, the runtime, and the
/// `fqp` vocabulary they share (catalog, comparison/aggregate
/// operators).
pub mod prelude {
    pub use crate::compile::{
        compile, CompileError, CompiledQuery, EngineKind, GroupKey, Objective, PostPipeline,
    };
    pub use crate::logical::LogicalPlan;
    pub use crate::runtime::{
        HandoffReport, QueryReport, QueryRuntime, RuntimeConfig, RuntimeError,
    };
    pub use fqp::plan::{Catalog, PlanError};
    pub use fqp::query::{AggFunc, CmpOp, WindowKind};
}
