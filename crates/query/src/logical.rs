//! The standing-query builder.
//!
//! A [`LogicalPlan`] builds an [`fqp::query::Query`] — the one front-end
//! type, the same AST [`Query::parse`] produces from SQL text — one
//! clause per call: sources, filters, projections, window joins and
//! windowed aggregates over *named* streams. [`compile`](crate::compile::compile)
//! then binds that query once against a [`Catalog`](fqp::plan::Catalog)
//! and lowers it onto a join engine.
//!
//! A call that would make a shape no `Query` can hold (two projections,
//! a projection and an aggregate, a filter after a projection or an
//! aggregate, nested aggregates, a join side that is not a bare source)
//! records that as a typed [`CompileError`] instead; later calls keep
//! the first error, and `compile` returns it. The shapes a `Query` holds
//! but the engines cannot run (a filter below the join, a self-join, an
//! aggregate over a join) are `compile`'s to reject.
//!
//! # Semantics: windows over raw arrivals
//!
//! Filters added after a join become the join clause's own `WHERE`
//! (`… JOIN quotes ON sym WINDOW 64 WHERE qty > 10`): they apply to the
//! *joined* record, CQL-style. The join windows always hold the last
//! `window` raw arrivals of each stream, and predicates prune match
//! output, not window contents. This is what lets the runtime share one
//! physical join engine between every standing query over the same
//! stream pair — see [`QueryRuntime`](crate::runtime::QueryRuntime).
//!
//! ```
//! use query::logical::LogicalPlan;
//! use fqp::query::CmpOp;
//!
//! let plan = LogicalPlan::source("trades")
//!     .join(LogicalPlan::source("quotes"), "sym", 1024)
//!     .filter("qty", CmpOp::Gt, 10)
//!     .project(["qty", "px"]);
//! assert_eq!(plan.to_string(),
//!     "SELECT qty, px FROM trades JOIN quotes ON sym WINDOW 1024 WHERE qty > 10");
//! ```

use std::fmt;

use fqp::query::{
    AggFunc, AggregateClause, BoolExpr, CmpOp, Condition, JoinClause, Projection, Query, WindowKind,
};

use crate::compile::{filter_below_join, unsupported, CompileError};

/// A standing query under construction: the [`Query`] its builder calls
/// wrote, or the first shape error one of them recorded.
///
/// Build one with the fluent constructors ([`LogicalPlan::source`],
/// [`LogicalPlan::filter`], [`LogicalPlan::project`],
/// [`LogicalPlan::join`], [`LogicalPlan::aggregate`]), or from a parsed
/// query with `From<Query>`, then compile it with
/// [`compile`](crate::compile::compile) or admit it directly into a
/// [`QueryRuntime`](crate::runtime::QueryRuntime).
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan(Result<Query, CompileError>);

impl LogicalPlan {
    /// Starts a plan from a named stream (`SELECT * FROM stream`).
    pub fn source(stream: impl Into<String>) -> Self {
        LogicalPlan(Ok(Query {
            select: Projection::All,
            from: stream.into().to_ascii_lowercase(),
            filter: None,
            join: None,
            aggregate: None,
        }))
    }

    /// ANDs one comparison onto the plan's `WHERE`: the join's once the
    /// plan has a join, the source's before.
    pub fn filter(self, field: impl Into<String>, op: CmpOp, value: u64) -> Self {
        let cond = BoolExpr::Atom(Condition {
            field: field.into().to_ascii_lowercase(),
            op,
            value,
        });
        self.and_then(|mut q| {
            if q.select != Projection::All {
                return Err(unsupported(
                    "projection below a filter (filter first, then project)",
                ));
            }
            if q.aggregate.is_some() {
                return Err(topmost_aggregate());
            }
            let filter = match &mut q.join {
                Some(join) => &mut join.filter,
                None => &mut q.filter,
            };
            *filter = Some(BoolExpr::and(filter.take(), cond));
            Ok(q)
        })
    }

    /// Projects the plan onto the named fields.
    pub fn project<I, S>(self, fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let fields = fields
            .into_iter()
            .map(|f| f.into().to_ascii_lowercase())
            .collect();
        self.and_then(|mut q| {
            if q.select != Projection::All {
                return Err(unsupported("more than one projection"));
            }
            if q.aggregate.is_some() {
                return Err(topmost_aggregate());
            }
            q.select = Projection::Fields(fields);
            Ok(q)
        })
    }

    /// Window-joins this plan (as the left/`R` side) with `right` on the
    /// shared key field `on`, with per-stream windows of `window`
    /// tuples.
    pub fn join(self, right: LogicalPlan, on: impl Into<String>, window: usize) -> Self {
        let on = on.into().to_ascii_lowercase();
        self.and_then(|left| {
            let left = join_side(left, "left")?;
            let right = join_side(right.0?, "right")?;
            Ok(Query {
                join: Some(JoinClause {
                    stream: right.from,
                    on,
                    window,
                    filter: None,
                }),
                ..left
            })
        })
    }

    /// Applies a windowed aggregate (`None` field means `COUNT(*)`).
    pub fn aggregate(
        self,
        func: AggFunc,
        field: Option<&str>,
        window: usize,
        kind: WindowKind,
    ) -> Self {
        let clause = AggregateClause {
            func,
            field: field.map(str::to_ascii_lowercase),
            window,
            kind,
        };
        self.and_then(|mut q| {
            if q.aggregate.is_some() {
                return Err(unsupported("nested aggregates"));
            }
            if q.select != Projection::All {
                return Err(unsupported("projection below an aggregate"));
            }
            q.aggregate = Some(clause);
            Ok(q)
        })
    }

    /// The query the builder calls wrote.
    ///
    /// # Errors
    ///
    /// The first [`CompileError::UnsupportedShape`] a call recorded.
    pub fn query(&self) -> Result<&Query, CompileError> {
        self.0.as_ref().map_err(Clone::clone)
    }

    fn and_then(self, clause: impl FnOnce(Query) -> Result<Query, CompileError>) -> Self {
        LogicalPlan(self.0.and_then(clause))
    }
}

/// A parsed query as a plan: how `replan` recompiles an admitted one.
impl From<Query> for LogicalPlan {
    fn from(query: Query) -> Self {
        LogicalPlan(Ok(query))
    }
}

/// The query text [`Query::parse`] reads back; a plan holding a shape
/// error renders as `<error>`.
impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Ok(query) => query.fmt(f),
            Err(e) => write!(f, "<{e}>"),
        }
    }
}

fn topmost_aggregate() -> CompileError {
    unsupported("aggregate must be the topmost operator of its pipeline")
}

/// A join side must be a bare source: windows hold raw arrivals. A
/// filtered left source is a `Query` (`FROM s WHERE … JOIN …`), which
/// `compile` rejects; every other side is rejected here, by its
/// outermost clause.
fn join_side(side: Query, which: &str) -> Result<Query, CompileError> {
    if side.select == Projection::All && side.aggregate.is_none() {
        let filtered = match &side.join {
            Some(join) => join.filter.is_some(),
            None => side.filter.is_some(),
        };
        if filtered && (which == "right" || side.join.is_some()) {
            return Err(filter_below_join(which));
        }
        if side.join.is_none() {
            return Ok(side);
        }
    }
    Err(unsupported(format!(
        "the {which} side of a join must be a source stream, not {side}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_write_clauses() {
        let plan = LogicalPlan::source("Trades")
            .filter("qty", CmpOp::Gt, 5)
            .filter("sym", CmpOp::Lt, 100);
        let q = plan.query().unwrap();
        assert!(
            matches!(&q.filter, Some(BoolExpr::And(es)) if es.len() == 2),
            "filters merge into one conjunction"
        );
        assert_eq!(q.from, "trades");

        let joined = LogicalPlan::source("a")
            .join(LogicalPlan::source("b"), "k", 8)
            .filter("k", CmpOp::Ge, 1);
        let q = joined.query().unwrap();
        assert!(q.filter.is_none(), "a filter after the join is the join's");
        assert!(matches!(
            &q.join.as_ref().unwrap().filter,
            Some(BoolExpr::Atom(_))
        ));
    }

    #[test]
    fn display_matches_the_fqp_grammar() {
        let plan = LogicalPlan::source("trades")
            .join(LogicalPlan::source("quotes"), "sym", 64)
            .filter("qty", CmpOp::Gt, 10);
        let text = plan.to_string();
        assert_eq!(
            text,
            "SELECT * FROM trades JOIN quotes ON sym WINDOW 64 WHERE qty > 10"
        );
        assert_eq!(&Query::parse(&text).unwrap(), plan.query().unwrap());

        let agg = LogicalPlan::source("trades").aggregate(
            AggFunc::Sum,
            Some("qty"),
            32,
            WindowKind::Tumbling,
        );
        assert_eq!(
            agg.to_string(),
            "SELECT SUM(qty) FROM trades WINDOW 32 TUMBLING"
        );
    }

    #[test]
    fn a_filter_on_a_parsed_boolean_clause_keeps_both() {
        use fqp::manager::QueryManager;
        use fqp::plan::{bind, Catalog, PlanOp};
        use streamcore::{Record, Tuple};

        use crate::runtime::{QueryRuntime, RuntimeConfig};

        let mut catalog = Catalog::new();
        catalog.register_spec("s=a:32,b:32").unwrap();
        let parsed = Query::parse("SELECT * FROM s WHERE a > 10 OR b > 10").unwrap();
        let plan = LogicalPlan::from(parsed).filter("a", CmpOp::Lt, 5);
        let text = plan.to_string();
        assert_eq!(text, "SELECT * FROM s WHERE ( a > 10 OR b > 10 ) AND a < 5");
        let q = plan.query().unwrap();
        assert_eq!(&Query::parse(&text).unwrap(), q);

        let bound = bind(q, &catalog).unwrap();
        assert!(
            matches!(&bound.ops[..], [PlanOp::SelectTable { atoms, .. }] if atoms.len() == 3),
            "{:?}",
            bound.ops
        );
        let mut runtime = QueryRuntime::new(catalog, RuntimeConfig::new(1));
        runtime.admit("q", &plan).unwrap();
        let mut manager = QueryManager::new(1);
        let id = manager.deploy(&bound).unwrap();
        for (a, b) in [(1, 1), (20, 0), (3, 20)] {
            manager.push("s", Record::new(vec![a, b])).unwrap();
            runtime.push("s", Tuple::new(a as u32, b as u32)).unwrap();
        }
        let rows: Vec<Vec<u64>> = manager
            .take_results(id)
            .unwrap()
            .iter()
            .map(|r| r.values().to_vec())
            .collect();
        assert_eq!(rows, vec![vec![3, 20]]);
        assert_eq!(runtime.finish().unwrap()[0].rows, rows);
    }

    #[test]
    fn the_first_shape_error_sticks() {
        let plan = LogicalPlan::source("trades")
            .project(["qty"])
            .project(["sym"])
            .aggregate(AggFunc::Count, None, 8, WindowKind::Sliding);
        let e = plan.query().unwrap_err();
        assert_eq!(e, unsupported("more than one projection"));
        assert_eq!(plan.to_string(), format!("<{e}>"));
    }
}
