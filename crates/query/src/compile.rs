//! Compiling standing queries onto the join fabric.
//!
//! [`compile`] takes the [`Query`](fqp::query::Query) a [`LogicalPlan`]
//! holds, rejects the shapes the engines cannot run, and binds it once
//! against a [`Catalog`] with [`fqp::plan::bind`] — the only lowering, so
//! unknown streams and fields surface as the same typed [`PlanError`]s
//! the flexible query processor reports. It checks that the plan is
//! *representable* on the software engines (64-bit tuples: at most two
//! ≤32-bit fields per stream, join key first), and then picks a joined
//! query's engine by rule from the [`Objective`] and the pool width:
//!
//! * [`Objective::MinLatency`] → the handshake chain;
//! * [`Objective::MaxThroughput`] on more than one core → SplitJoin;
//! * otherwise → the single-threaded baseline.
//!
//! The rule reads neither the filter nor the projection: both run in
//! the runtime after the engine, so they cannot change which engine is
//! faster.
//!
//! The output is a [`CompiledQuery`]: the bound `fqp` plan, the chosen
//! [`EngineKind`], and the [`PostPipeline`] — the bound plan's `WHERE`
//! (a conjunction or a truth table, evaluated by
//! [`PlanOp::passes`](fqp::plan::PlanOp::passes) as on the fabric) and
//! `Project`, read off its operators — the runtime applies to each match
//! the shared engine emits.

use std::fmt;

use fqp::opblock::WindowAggregate;
use fqp::plan::{bind, Catalog, Plan, PlanError, PlanOp};

use crate::logical::LogicalPlan;

/// What [`compile`] picks a joined query's engine for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize per-tuple latency: the handshake chain.
    MinLatency,
    /// Maximize throughput: SplitJoin over the worker pool.
    MaxThroughput,
}

/// Which physical engine a compiled query runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Single-stream pipeline executed inline by the runtime (no join).
    Inline,
    /// Single-threaded nested-loop baseline.
    Baseline,
    /// Multithreaded SplitJoin router (uni-flow).
    Split,
    /// Handshake join chain (bi-flow).
    Handshake,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineKind::Inline => "inline",
            EngineKind::Baseline => "baseline",
            EngineKind::Split => "splitjoin",
            EngineKind::Handshake => "handshake",
        };
        write!(f, "{s}")
    }
}

/// The sharing key of a windowed join: every standing query over the
/// same stream pair and window shares one physical engine, because
/// windows hold raw arrivals (filters prune match output, not window
/// contents).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupKey {
    /// Left (`R`) stream name.
    pub left: String,
    /// Right (`S`) stream name.
    pub right: String,
    /// Per-stream window size in tuples.
    pub window: usize,
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}⋈{}/w{}", self.left, self.right, self.window)
    }
}

/// Errors produced while compiling a [`LogicalPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Binding against the catalog failed (unknown stream/field, …) —
    /// the same typed error `fqp::plan::bind` reports.
    Plan(PlanError),
    /// The plan has a shape the fabric cannot run.
    UnsupportedShape {
        /// What was wrong, human-readable.
        what: String,
    },
    /// The plan bound cleanly but cannot be represented on the 64-bit
    /// tuple engines.
    Unrepresentable {
        /// The offending stream.
        stream: String,
        /// Why it does not fit.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Plan(e) => write!(f, "{e}"),
            CompileError::UnsupportedShape { what } => {
                write!(f, "unsupported plan shape: {what}")
            }
            CompileError::Unrepresentable { stream, reason } => {
                write!(
                    f,
                    "stream {stream:?} does not fit the join engines: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<PlanError> for CompileError {
    fn from(e: PlanError) -> Self {
        CompileError::Plan(e)
    }
}

/// The bound post-join (or post-source) pipeline the runtime applies to
/// each record: the bound `WHERE` over the *unprojected* record, then an
/// optional projection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PostPipeline {
    /// The bound [`PlanOp::Select`] or [`PlanOp::SelectTable`] over the
    /// full (joined) record (`None` = keep every record).
    pub filter: Option<PlanOp>,
    /// Output field indices into the full record (`None` = keep all).
    pub projection: Option<Vec<usize>>,
}

impl PostPipeline {
    /// Runs the pipeline on one record's field values: `None` when a
    /// condition rejects it, otherwise the projected output row. The
    /// runtime builds every row but an aggregate's with this function.
    #[inline]
    pub fn apply(&self, values: &[u64]) -> Option<Vec<u64>> {
        if !self.accepts(values) {
            return None;
        }
        Some(match &self.projection {
            Some(idx) => idx.iter().map(|&i| values[i]).collect(),
            None => values.to_vec(),
        })
    }

    /// The filter half of [`PostPipeline::apply`]: the record passes
    /// the bound `WHERE`.
    #[inline]
    pub(crate) fn accepts(&self, values: &[u64]) -> bool {
        self.filter.as_ref().is_none_or(|op| op.passes(values))
    }
}

/// The physical shape of a compiled query.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// Single-stream filter/project/aggregate pipeline, executed inline
    /// by the runtime on each arrival.
    Single {
        /// The input stream.
        stream: String,
        /// Arity of the stream's schema (1 or 2 engine-tuple fields).
        arity: usize,
        /// Filter + projection over the arrival record.
        post: PostPipeline,
        /// Windowed aggregate, if any (applied after the filter): the
        /// bound operator's running window, empty when compiled.
        aggregate: Option<WindowAggregate>,
    },
    /// Windowed equi-join executed on a shared physical engine; the
    /// runtime builds each match's row through the post pipeline.
    Joined {
        /// The engine-sharing key.
        key: GroupKey,
        /// Arity of the left stream's schema.
        left_arity: usize,
        /// Arity of the right stream's schema.
        right_arity: usize,
        /// Filter + projection over the joined record.
        post: PostPipeline,
    },
}

/// A standing query compiled onto the fabric.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The bound `fqp` plan; `plan.query` is the query compiled. Drives
    /// `EXPLAIN`.
    pub plan: Plan,
    /// The chosen engine.
    pub engine: EngineKind,
    /// The physical shape the runtime executes.
    pub shape: Shape,
}

impl CompiledQuery {
    /// The engine-sharing key, for joined queries.
    pub fn group(&self) -> Option<&GroupKey> {
        match &self.shape {
            Shape::Joined { key, .. } => Some(key),
            Shape::Single { .. } => None,
        }
    }

    /// An `EXPLAIN`-style rendering: the bound pipeline plus the engine
    /// decision.
    pub fn explain(&self) -> String {
        format!("{}  Engine: {}\n", self.plan.explain(), self.engine)
    }
}

pub(crate) fn unsupported(what: impl Into<String>) -> CompileError {
    CompileError::UnsupportedShape { what: what.into() }
}

/// Filters below a join would make window contents query-specific and
/// defeat engine sharing.
pub(crate) fn filter_below_join(side: &str) -> CompileError {
    unsupported(format!(
        "filter below the {side} side of a join — windows run over raw \
         arrivals (CQL semantics); apply filters above the join instead",
    ))
}

/// The engine a joined query runs on under `objective` with a pool of
/// `cores` threads.
pub(crate) fn engine_for(objective: Objective, cores: usize) -> EngineKind {
    match objective {
        Objective::MinLatency => EngineKind::Handshake,
        Objective::MaxThroughput if cores > 1 => EngineKind::Split,
        Objective::MaxThroughput => EngineKind::Baseline,
    }
}

/// Compiles `logical` against `catalog` for a worker pool of `cores`
/// threads: binds its query once with [`bind`], reads the [`Shape`] and
/// its [`PostPipeline`] off the bound operators, and picks a joined
/// query's engine for `objective` by the rule in the module docs.
///
/// # Errors
///
/// [`CompileError::Plan`] when binding fails (unknown stream or field),
/// [`CompileError::UnsupportedShape`] for the builder's recorded shape
/// error or a query the engines cannot run, and
/// [`CompileError::Unrepresentable`] when a stream's schema does not fit
/// the 64-bit engine tuple.
pub fn compile(
    logical: &LogicalPlan,
    catalog: &Catalog,
    cores: usize,
    objective: Objective,
) -> Result<CompiledQuery, CompileError> {
    let query = logical.query()?;
    if let Some(join) = &query.join {
        if query.aggregate.is_some() {
            return Err(unsupported("aggregate over a join"));
        }
        if query.filter.is_some() {
            return Err(filter_below_join("left"));
        }
        if join.stream == query.from {
            return Err(unsupported(format!("self-join of stream {:?}", query.from)));
        }
    }
    let plan = bind(query, catalog)?;
    let left = engine_schema(catalog, &plan.primary)?;

    // A Select filters the arrival of a single-stream query and the
    // joined record of a joined one (a filter below the join was
    // rejected above): either way it is the post pipeline's.
    let mut post = PostPipeline::default();
    let mut aggregate = None;
    let mut join = None;
    for op in &plan.ops {
        match *op {
            PlanOp::Select { .. } | PlanOp::SelectTable { .. } => post.filter = Some(op.clone()),
            PlanOp::Join {
                key_left,
                key_right,
                window,
            } => join = Some((key_left, key_right, window)),
            PlanOp::Project { ref fields } => post.projection = Some(fields.clone()),
            PlanOp::Aggregate { .. } => aggregate = WindowAggregate::of(op),
        }
    }

    // `bind` writes a Join op exactly when the query has a join clause.
    let (Some((key_left, key_right, window)), Some(clause)) = (join, &query.join) else {
        return Ok(CompiledQuery {
            engine: EngineKind::Inline,
            shape: Shape::Single {
                stream: query.from.clone(),
                arity: left.arity(),
                post,
                aggregate,
            },
            plan,
        });
    };
    let right = engine_schema(catalog, &clause.stream)?;
    // The engines join on the tuple's 32-bit key, which is field 0.
    for (stream, key) in [(&query.from, key_left), (&clause.stream, key_right)] {
        if key != 0 {
            return Err(CompileError::Unrepresentable {
                stream: stream.clone(),
                reason: format!(
                    "join key {:?} is field {key}, but the engine tuple \
                     joins on its first field",
                    clause.on
                ),
            });
        }
    }
    Ok(CompiledQuery {
        engine: engine_for(objective, cores),
        shape: Shape::Joined {
            key: GroupKey {
                left: query.from.clone(),
                right: clause.stream.clone(),
                window,
            },
            left_arity: left.arity(),
            right_arity: right.arity(),
            post,
        },
        plan,
    })
}

/// The schema of a stream `bind` resolved, checked to fit the engine
/// tuple.
fn engine_schema<'c>(
    catalog: &'c Catalog,
    stream: &str,
) -> Result<&'c streamcore::Schema, CompileError> {
    let schema = catalog
        .schema(stream)
        .ok_or_else(|| PlanError::UnknownStream {
            stream: stream.to_string(),
        })?;
    check_engine_tuple(stream, schema)?;
    Ok(schema)
}

/// A stream fits the engines when its schema is one or two fields of at
/// most 32 bits each: field 0 maps to the tuple's join key, field 1 to
/// its payload.
fn check_engine_tuple(stream: &str, schema: &streamcore::Schema) -> Result<(), CompileError> {
    if schema.arity() > 2 {
        return Err(CompileError::Unrepresentable {
            stream: stream.to_string(),
            reason: format!(
                "{} fields, but the 64-bit engine tuple carries at most 2",
                schema.arity()
            ),
        });
    }
    for f in schema.fields() {
        if f.width_bits() > 32 {
            return Err(CompileError::Unrepresentable {
                stream: stream.to_string(),
                reason: format!(
                    "field {:?} is {} bits wide, but engine tuple halves are 32",
                    f.name(),
                    f.width_bits()
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqp::query::{AggFunc, CmpOp, WindowKind};
    use streamcore::{Field, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_spec("trades=sym:32,qty:32").unwrap();
        c.register_spec("quotes=sym:32,px:32").unwrap();
        c.register_spec("heartbeats=node:32").unwrap();
        c.register(
            "wide",
            Schema::new(vec![
                Field::new("sym", 32).unwrap(),
                Field::new("b", 32).unwrap(),
                Field::new("c", 32).unwrap(),
            ])
            .unwrap(),
        );
        c
    }

    fn joined() -> LogicalPlan {
        LogicalPlan::source("trades").join(LogicalPlan::source("quotes"), "sym", 64)
    }

    #[test]
    fn joined_query_compiles_to_a_shared_group() {
        let q = compile(
            &joined()
                .filter("qty", CmpOp::Gt, 10)
                .filter("px", CmpOp::Lt, 50),
            &catalog(),
            4,
            Objective::MaxThroughput,
        )
        .unwrap();
        let Shape::Joined {
            key,
            left_arity,
            right_arity,
            post,
        } = &q.shape
        else {
            panic!("expected joined shape, got {:?}", q.shape);
        };
        assert_eq!(key.to_string(), "trades⋈quotes/w64");
        assert_eq!((*left_arity, *right_arity), (2, 2));
        // qty is field 1 of trades; px is field 3 of the joined record.
        let Some(PlanOp::Select { conditions }) = &post.filter else {
            panic!("expected a conjunction, got {:?}", post.filter);
        };
        assert_eq!(conditions[0].field, 1);
        assert_eq!(conditions[1].field, 3);
        assert_eq!(q.engine, EngineKind::Split, "{}", q.explain());
    }

    #[test]
    fn projection_binds_against_the_joined_record() {
        let q = compile(
            &joined().project(["qty", "px"]),
            &catalog(),
            2,
            Objective::MaxThroughput,
        )
        .unwrap();
        let Shape::Joined { post, .. } = &q.shape else {
            panic!("expected joined shape");
        };
        assert_eq!(post.projection, Some(vec![1, 3]));
        assert_eq!(post.apply(&[7, 100, 7, 42]), Some(vec![100, 42]));
    }

    #[test]
    fn objectives_pick_different_engines() {
        // The engine is the objective's and the pool's alone: a filter or
        // a projection over the joined record never moves it.
        let cat = catalog();
        for cores in 1..=8 {
            for objective in [Objective::MinLatency, Objective::MaxThroughput] {
                let want = match (objective, cores) {
                    (Objective::MinLatency, _) => EngineKind::Handshake,
                    (Objective::MaxThroughput, 1) => EngineKind::Baseline,
                    (Objective::MaxThroughput, _) => EngineKind::Split,
                };
                for window in 1..=128 {
                    let join = || {
                        LogicalPlan::source("trades").join(
                            LogicalPlan::source("quotes"),
                            "sym",
                            window,
                        )
                    };
                    for plan in [
                        join(),
                        join().filter("qty", CmpOp::Gt, 10),
                        join().project(["qty", "px"]),
                        join().filter("px", CmpOp::Lt, 50).project(["sym"]),
                    ] {
                        let q = compile(&plan, &cat, cores, objective).unwrap();
                        assert_eq!(
                            q.engine,
                            want,
                            "{cores} cores, {objective:?}:\n{}",
                            q.explain()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_streams_and_fields_reuse_fqp_plan_errors() {
        let cat = catalog();
        let e = compile(
            &LogicalPlan::source("nope").filter("x", CmpOp::Eq, 1),
            &cat,
            2,
            Objective::MaxThroughput,
        )
        .unwrap_err();
        assert!(
            matches!(e, CompileError::Plan(PlanError::UnknownStream { .. })),
            "{e}"
        );

        let e = compile(
            &joined().filter("volume", CmpOp::Gt, 1),
            &cat,
            2,
            Objective::MaxThroughput,
        )
        .unwrap_err();
        assert!(
            matches!(e, CompileError::Plan(PlanError::UnknownField { .. })),
            "{e}"
        );
        assert!(e.to_string().contains("volume"));
    }

    #[test]
    fn unsupported_shapes_are_rejected_with_reasons() {
        let cat = catalog();
        let below = LogicalPlan::source("trades")
            .filter("qty", CmpOp::Gt, 1)
            .join(LogicalPlan::source("quotes"), "sym", 8);
        let e = compile(&below, &cat, 2, Objective::MaxThroughput).unwrap_err();
        assert!(e.to_string().contains("raw arrivals"), "{e}");

        let selfjoin = LogicalPlan::source("trades").join(LogicalPlan::source("trades"), "sym", 8);
        let e = compile(&selfjoin, &cat, 2, Objective::MaxThroughput).unwrap_err();
        assert!(e.to_string().contains("self-join"), "{e}");

        let agg_over_join = joined().aggregate(AggFunc::Count, None, 8, WindowKind::Sliding);
        let e = compile(&agg_over_join, &cat, 2, Objective::MaxThroughput).unwrap_err();
        assert!(e.to_string().contains("aggregate over a join"), "{e}");
    }

    #[test]
    fn a_boolean_where_runs_in_the_post_pipeline() {
        // Parsed text can carry a truth-table WHERE, on one stream or
        // over the joined record.
        let cat = catalog();
        for (text, accepted, rejected) in [
            (
                "SELECT * FROM trades WHERE qty > 5 OR sym = 2",
                [vec![2, 0], vec![1, 6]],
                vec![1, 5],
            ),
            (
                "SELECT * FROM trades JOIN quotes ON sym WINDOW 8 WHERE qty > 5 OR NOT px > 2",
                [vec![1, 6, 1, 9], vec![1, 0, 1, 2]],
                vec![1, 5, 1, 3],
            ),
        ] {
            let query = fqp::query::Query::parse(text).unwrap();
            let q = compile(&query.into(), &cat, 2, Objective::MaxThroughput).unwrap();
            let (Shape::Single { post, .. } | Shape::Joined { post, .. }) = &q.shape;
            assert!(
                matches!(post.filter, Some(PlanOp::SelectTable { .. })),
                "{text}: {:?}",
                post.filter
            );
            for row in accepted {
                assert_eq!(post.apply(&row), Some(row.clone()), "{text}: {row:?}");
            }
            assert_eq!(post.apply(&rejected), None, "{text}: {rejected:?}");
        }
    }

    #[test]
    fn unrepresentable_schemas_are_rejected() {
        let cat = catalog();
        let wide = LogicalPlan::source("wide").join(LogicalPlan::source("quotes"), "sym", 8);
        let e = compile(&wide, &cat, 2, Objective::MaxThroughput).unwrap_err();
        assert!(
            matches!(e, CompileError::Unrepresentable { ref stream, .. } if stream == "wide"),
            "{e}"
        );

        // Join key must be field 0 on both sides: px is field 1 of quotes.
        let mut cat2 = Catalog::new();
        cat2.register_spec("a=px:32,sym:32").unwrap();
        cat2.register_spec("b=sym:32,px:32").unwrap();
        let q = LogicalPlan::source("a").join(LogicalPlan::source("b"), "px", 8);
        let e = compile(&q, &cat2, 2, Objective::MaxThroughput).unwrap_err();
        assert!(e.to_string().contains("first field"), "{e}");
    }

    #[test]
    fn single_stream_pipeline_compiles_inline() {
        let q = compile(
            &LogicalPlan::source("trades")
                .filter("qty", CmpOp::Ge, 5)
                .project(["qty"]),
            &catalog(),
            2,
            Objective::MaxThroughput,
        )
        .unwrap();
        assert_eq!(q.engine, EngineKind::Inline);
        let Shape::Single {
            post, aggregate, ..
        } = &q.shape
        else {
            panic!("expected single shape");
        };
        assert!(aggregate.is_none());
        assert_eq!(post.apply(&[1, 7]), Some(vec![7]));
        assert_eq!(post.apply(&[1, 3]), None);
    }

    #[test]
    fn single_stream_aggregate_compiles() {
        let q = compile(
            &LogicalPlan::source("heartbeats").aggregate(
                AggFunc::Count,
                None,
                16,
                WindowKind::Tumbling,
            ),
            &catalog(),
            2,
            Objective::MaxThroughput,
        )
        .unwrap();
        let Shape::Single { aggregate, .. } = &q.shape else {
            panic!("expected single shape");
        };
        let op = PlanOp::Aggregate {
            func: AggFunc::Count,
            field: None,
            window: 16,
            kind: WindowKind::Tumbling,
        };
        assert_eq!(aggregate, &WindowAggregate::of(&op));
    }
}
