//! Logical query plans: queries bound against stream schemas.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use streamcore::{Field, Schema, SchemaError};

use crate::query::{AggFunc, BoolExpr, CmpOp, Condition, Projection, Query, WindowKind};

/// Registry of stream schemas known to the planner.
///
/// # Example
///
/// ```
/// use fqp::plan::Catalog;
/// use streamcore::{Field, Schema};
///
/// let mut catalog = Catalog::new();
/// catalog.register(
///     "trades",
///     Schema::new(vec![Field::new("symbol", 32)?, Field::new("price", 32)?])?,
/// );
/// assert!(catalog.schema("trades").is_some());
/// # Ok::<(), streamcore::SchemaError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    streams: BTreeMap<String, Schema>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a stream schema.
    pub fn register(&mut self, stream: impl Into<String>, schema: Schema) {
        self.streams
            .insert(stream.into().to_ascii_lowercase(), schema);
    }

    /// Registers a stream from a compact spec string:
    /// `name=field:width[,field:width...]` — the format the `accel` CLI
    /// accepts.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed piece.
    ///
    /// ```
    /// use fqp::plan::Catalog;
    ///
    /// let mut catalog = Catalog::new();
    /// catalog.register_spec("trades=symbol:32,price:32")?;
    /// assert_eq!(catalog.schema("trades").unwrap().arity(), 2);
    /// # Ok::<(), String>(())
    /// ```
    pub fn register_spec(&mut self, spec: &str) -> Result<(), String> {
        let (stream, fields) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad schema spec {spec:?} (want name=field:width,...)"))?;
        if stream.is_empty() {
            return Err(format!("bad schema spec {spec:?}: empty stream name"));
        }
        let mut parsed = Vec::new();
        for f in fields.split(',') {
            let (name, width) = f
                .split_once(':')
                .ok_or_else(|| format!("bad field spec {f:?} (want name:width)"))?;
            let width: u8 = width
                .parse()
                .map_err(|_| format!("bad field width in {f:?}"))?;
            parsed.push(Field::new(name, width).map_err(|e| e.to_string())?);
        }
        let schema = Schema::new(parsed).map_err(|e| e.to_string())?;
        self.register(stream, schema);
        Ok(())
    }

    /// Looks up a stream schema.
    pub fn schema(&self, stream: &str) -> Option<&Schema> {
        self.streams.get(&stream.to_ascii_lowercase())
    }

    /// Registered stream names, sorted.
    pub fn streams(&self) -> Vec<&str> {
        self.streams.keys().map(String::as_str).collect()
    }
}

/// A selection condition bound to a field index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundCondition {
    /// Index into the record.
    pub field: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal operand.
    pub value: u64,
}

impl BoundCondition {
    /// Evaluates the condition on a record's field values.
    pub fn eval(&self, values: &[u64]) -> bool {
        values
            .get(self.field)
            .is_some_and(|&v| self.op.eval(v, self.value))
    }
}

/// One operator of a bound plan, in pipeline order.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Filter on a conjunction of bound conditions: over the primary
    /// stream before a [`PlanOp::Join`], over the joined record after it.
    Select {
        /// The conjunction.
        conditions: Vec<BoundCondition>,
    },
    /// Filter on any other Boolean expression, in the same positions as
    /// [`PlanOp::Select`], compiled Ibex-style at planning time: the atoms
    /// are evaluated in parallel and the precomputed truth table decides —
    /// "precomputation of a truth table for Boolean expressions in
    /// software first" (paper, Section II).
    SelectTable {
        /// Atomic comparisons, in truth-table bit order.
        atoms: Vec<BoundCondition>,
        /// `2^atoms.len()` outcomes, indexed by the atom-result bitmask
        /// (atom `i` contributes bit `i`).
        table: Vec<bool>,
    },
    /// Windowed equi-join with the secondary stream.
    Join {
        /// Key index in the primary stream's records.
        key_left: usize,
        /// Key index in the secondary stream's records.
        key_right: usize,
        /// Per-stream window size.
        window: usize,
    },
    /// Keep only the listed output-record fields.
    Project {
        /// Indices into the (possibly joined) output record.
        fields: Vec<usize>,
    },
    /// Windowed aggregate over the primary stream: sliding windows emit
    /// one running value per input record, tumbling windows one value per
    /// full window.
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

impl PlanOp {
    /// Whether a record with field values `values` passes this operator:
    /// a [`PlanOp::Select`]'s conjunction holds, or the entry of a
    /// [`PlanOp::SelectTable`]'s truth table that its atoms' outcomes
    /// index is true (every atom is evaluated, as the parallel hardware
    /// does). Every other operator passes every record.
    #[inline]
    pub fn passes(&self, values: &[u64]) -> bool {
        match self {
            PlanOp::Select { conditions } => conditions.iter().all(|c| c.eval(values)),
            PlanOp::SelectTable { atoms, table } => {
                let mask = atoms
                    .iter()
                    .enumerate()
                    .fold(0, |mask, (i, c)| mask | usize::from(c.eval(values)) << i);
                table[mask]
            }
            _ => true,
        }
    }
}

/// A query bound against the catalog: the operator pipeline plus schemas.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The source query.
    pub query: Query,
    /// Primary stream name.
    pub primary: String,
    /// Secondary stream name (joins only).
    pub secondary: Option<String>,
    /// Each input stream with the schema it was bound against: the
    /// primary first, then a join's secondary.
    pub inputs: Vec<(String, Schema)>,
    /// Operators in pipeline order:
    /// Select? → (Join → Select?)? → (Project | Aggregate)?.
    pub ops: Vec<PlanOp>,
    /// Schema of the records this plan emits.
    pub output_schema: Schema,
}

impl Plan {
    /// Number of operator blocks this plan occupies on a fabric.
    pub fn block_count(&self) -> usize {
        self.ops.len().max(1)
    }

    /// An `EXPLAIN`-style rendering of the bound pipeline.
    ///
    /// ```
    /// # use fqp::plan::{bind, Catalog};
    /// # use fqp::query::Query;
    /// # use streamcore::{Field, Schema};
    /// # let mut catalog = Catalog::new();
    /// # catalog.register("s", Schema::new(vec![Field::new("v", 32).unwrap()]).unwrap());
    /// let plan = bind(&Query::parse("SELECT * FROM s WHERE v > 9").unwrap(), &catalog).unwrap();
    /// let text = plan.explain();
    /// assert!(text.contains("Source: s"));
    /// assert!(text.contains("Select"));
    /// ```
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "Plan: {}", self.query);
        let _ = writeln!(out, "  Source: {}", self.primary);
        // A select renders the primary stream's WHERE before the join and
        // the join's own WHERE after it.
        let text = |f: &Option<BoolExpr>| f.as_ref().map(ToString::to_string).unwrap_or_default();
        let mut filter = text(&self.query.filter);
        for op in &self.ops {
            match op {
                PlanOp::Select { conditions } => {
                    let _ = writeln!(
                        out,
                        "  -> Select [{filter}] ({} bound condition(s))",
                        conditions.len()
                    );
                }
                PlanOp::SelectTable { atoms, table } => {
                    let _ = writeln!(
                        out,
                        "  -> Select [{filter}] (truth table: {} atoms, {} entries)",
                        atoms.len(),
                        table.len()
                    );
                }
                PlanOp::Join { window, .. } => {
                    // A plan built as a value may lack the clause.
                    let j = self.query.join.as_ref();
                    let (stream, on) = j.map_or(("?", "?"), |j| (j.stream.as_str(), j.on.as_str()));
                    let _ = writeln!(out, "  -> Join {stream} ON {on} WINDOW {window}");
                    filter = j.map(|j| text(&j.filter)).unwrap_or_default();
                }
                PlanOp::Project { .. } => {
                    // The projection defines the output schema, in order.
                    let names: Vec<&str> = self
                        .output_schema
                        .fields()
                        .iter()
                        .map(streamcore::Field::name)
                        .collect();
                    let _ = writeln!(out, "  -> Project [{}]", names.join(", "));
                }
                PlanOp::Aggregate { func, window, .. } => {
                    let field = self
                        .query
                        .aggregate
                        .as_ref()
                        .and_then(|a| a.field.as_deref());
                    let _ = writeln!(
                        out,
                        "  -> Aggregate {func:?}({}) WINDOW {window}",
                        field.unwrap_or("*")
                    );
                }
            }
        }
        let fields: Vec<String> = self
            .output_schema
            .fields()
            .iter()
            .map(|f| format!("{}:{}", f.name(), f.width_bits()))
            .collect();
        let _ = writeln!(out, "  Output: ({})", fields.join(", "));
        out
    }
}

/// Errors produced while binding a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// `FROM`/`JOIN` names a stream the catalog does not know.
    UnknownStream {
        /// The missing stream.
        stream: String,
    },
    /// A condition, join key, or projection names an unknown field.
    UnknownField {
        /// The missing field.
        field: String,
        /// The stream or record it was resolved against.
        context: String,
    },
    /// A record the plan builds would carry two fields of one name: a
    /// projection names a field twice, or a secondary field's
    /// `{stream}_{field}` rename collides with a primary field.
    DuplicateField {
        /// The repeated name.
        field: String,
        /// The record it repeats in.
        context: String,
    },
    /// A join or aggregate window of zero tuples, which could never
    /// hold one. [`Query::parse`](crate::query::Query::parse) rejects
    /// `WINDOW 0` in text; this catches a query built as a value.
    ZeroWindow {
        /// The stream the window is over: the joined stream, or the
        /// aggregated one.
        stream: String,
    },
    /// A Boolean `WHERE` clause has too many atomic comparisons for a
    /// precomputed truth table (the hardware stores `2^atoms` bits).
    TooManyAtoms {
        /// Atoms in the expression.
        atoms: usize,
        /// The supported maximum.
        max: usize,
    },
    /// A record the plan builds is no valid schema: it has no field, or
    /// a field of a width outside 1–64 bits.
    Schema(SchemaError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownStream { stream } => write!(f, "unknown stream {stream:?}"),
            PlanError::UnknownField { field, context } => {
                write!(f, "unknown field {field:?} in {context}")
            }
            PlanError::DuplicateField { field, context } => {
                write!(f, "field {field:?} appears twice in {context}")
            }
            PlanError::ZeroWindow { stream } => {
                write!(f, "the window over {stream:?} must hold at least one tuple")
            }
            PlanError::TooManyAtoms { atoms, max } => {
                write!(
                    f,
                    "boolean WHERE clause has {atoms} comparisons; truth tables \
                     support at most {max}"
                )
            }
            PlanError::Schema(e) => write!(f, "invalid record schema: {e}"),
        }
    }
}

/// Largest atom count a precomputed truth table supports (64 Ki entries).
pub const MAX_TRUTH_TABLE_ATOMS: usize = 16;

impl Error for PlanError {}

/// Binds `query` against `catalog`, producing an executable plan.
///
/// # Errors
///
/// Returns [`PlanError`] when a stream or field cannot be resolved,
/// when an output record would name a field twice, or when a join or
/// aggregate window is zero.
pub fn bind(query: &Query, catalog: &Catalog) -> Result<Plan, PlanError> {
    let primary_schema = catalog
        .schema(&query.from)
        .ok_or_else(|| PlanError::UnknownStream {
            stream: query.from.clone(),
        })?;

    let mut ops = Vec::new();
    let mut inputs = vec![(query.from.clone(), primary_schema.clone())];

    // Selection binds against the primary stream.
    if let Some(expr) = &query.filter {
        ops.push(bind_filter(expr, primary_schema, &query.from)?);
    }

    // Join: output record = primary fields ++ secondary fields, secondary
    // names suffixed on collision.
    let mut output_fields: Vec<Field> = primary_schema.fields().to_vec();
    let mut secondary = None;
    if let Some(j) = &query.join {
        let secondary_schema =
            catalog
                .schema(&j.stream)
                .ok_or_else(|| PlanError::UnknownStream {
                    stream: j.stream.clone(),
                })?;
        if j.window == 0 {
            return Err(PlanError::ZeroWindow {
                stream: j.stream.clone(),
            });
        }
        let key_left = primary_schema
            .index_of(&j.on)
            .ok_or_else(|| PlanError::UnknownField {
                field: j.on.clone(),
                context: query.from.clone(),
            })?;
        let key_right =
            secondary_schema
                .index_of(&j.on)
                .ok_or_else(|| PlanError::UnknownField {
                    field: j.on.clone(),
                    context: j.stream.clone(),
                })?;
        ops.push(PlanOp::Join {
            key_left,
            key_right,
            window: j.window,
        });
        for f in secondary_schema.fields() {
            let name = if output_fields.iter().any(|g| g.name() == f.name()) {
                format!("{}_{}", j.stream, f.name())
            } else {
                f.name().to_string()
            };
            output_fields.push(Field::new(name, f.width_bits()).map_err(PlanError::Schema)?);
        }
        secondary = Some(j.stream.clone());
        inputs.push((j.stream.clone(), secondary_schema.clone()));
    }
    let joined_schema = record_schema(output_fields, "joined record")?;

    // The join's own WHERE binds against the joined record, right after
    // the join.
    if let Some(expr) = query.join.as_ref().and_then(|j| j.filter.as_ref()) {
        ops.push(bind_filter(expr, &joined_schema, "joined record")?);
    }

    // Aggregates replace the projection entirely (parser guarantees no
    // join alongside).
    if let Some(a) = &query.aggregate {
        if a.window == 0 {
            return Err(PlanError::ZeroWindow {
                stream: query.from.clone(),
            });
        }
        let field = match &a.field {
            Some(name) => {
                Some(
                    primary_schema
                        .index_of(name)
                        .ok_or_else(|| PlanError::UnknownField {
                            field: name.clone(),
                            context: query.from.clone(),
                        })?,
                )
            }
            None => None,
        };
        ops.push(PlanOp::Aggregate {
            func: a.func,
            field,
            window: a.window,
            kind: a.kind,
        });
        let out_name = match &a.field {
            Some(f) => format!("{}_{}", a.func.to_string().to_ascii_lowercase(), f),
            None => "count".to_string(),
        };
        let field = Field::new(out_name, 64).map_err(PlanError::Schema)?;
        let output_schema = record_schema(vec![field], "aggregate output")?;
        return Ok(Plan {
            query: query.clone(),
            primary: query.from.clone(),
            secondary: None,
            inputs,
            ops,
            output_schema,
        });
    }

    // Projection binds against the joined record.
    let output_schema = match &query.select {
        Projection::All => joined_schema,
        Projection::Fields(names) => {
            let mut idx = Vec::with_capacity(names.len());
            let mut fields = Vec::with_capacity(names.len());
            for n in names {
                let i = joined_schema
                    .index_of(n)
                    .ok_or_else(|| PlanError::UnknownField {
                        field: n.clone(),
                        context: "query output".to_string(),
                    })?;
                idx.push(i);
                fields.push(joined_schema.fields()[i].clone());
            }
            ops.push(PlanOp::Project { fields: idx });
            record_schema(fields, "query output")?
        }
    };

    Ok(Plan {
        query: query.clone(),
        primary: query.from.clone(),
        secondary,
        inputs,
        ops,
        output_schema,
    })
}

/// The schema of a record `bind` assembles.
fn record_schema(fields: Vec<Field>, context: &str) -> Result<Schema, PlanError> {
    Schema::new(fields).map_err(|e| match e {
        SchemaError::DuplicateField { name } => PlanError::DuplicateField {
            field: name,
            context: context.to_string(),
        },
        // `bind` builds records from valid schemas and parsed
        // projections, so only a query built as a value (an empty
        // projection, say) lands here.
        other => PlanError::Schema(other),
    })
}

/// Binds one `WHERE` clause: a flat conjunction of atoms becomes the
/// short-circuit [`PlanOp::Select`]; any other expression is compiled to
/// a precomputed truth table over its bound atoms.
fn bind_filter(expr: &BoolExpr, schema: &Schema, context: &str) -> Result<PlanOp, PlanError> {
    let conjunction = match expr {
        BoolExpr::Atom(_) => true,
        BoolExpr::And(es) => es.iter().all(|e| matches!(e, BoolExpr::Atom(_))),
        BoolExpr::Or(_) | BoolExpr::Not(_) => false,
    };
    let atoms = expr.atoms();
    if !conjunction && atoms.len() > MAX_TRUTH_TABLE_ATOMS {
        return Err(PlanError::TooManyAtoms {
            atoms: atoms.len(),
            max: MAX_TRUTH_TABLE_ATOMS,
        });
    }
    let atoms = atoms
        .into_iter()
        .map(|c| bind_condition(c, schema, context))
        .collect::<Result<Vec<_>, _>>()?;
    if conjunction {
        return Ok(PlanOp::Select { conditions: atoms });
    }
    // Software-side precomputation: enumerate every atom-outcome
    // combination once, at planning time.
    let n = atoms.len();
    let table = (0u32..(1 << n))
        .map(|mask| {
            let outcomes: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            expr.eval_with(&outcomes)
        })
        .collect();
    Ok(PlanOp::SelectTable { atoms, table })
}

fn bind_condition(
    c: &Condition,
    schema: &Schema,
    context: &str,
) -> Result<BoundCondition, PlanError> {
    let field = schema
        .index_of(&c.field)
        .ok_or_else(|| PlanError::UnknownField {
            field: c.field.clone(),
            context: context.to_string(),
        })?;
    Ok(BoundCondition {
        field,
        op: c.op,
        value: c.value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn parse(text: &str) -> Query {
        Query::parse(text).unwrap()
    }

    #[test]
    fn binds_fig7_query_into_select_join_pipeline() {
        let q = parse(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 1536",
        );
        let plan = bind(&q, &demo_catalog()).unwrap();
        assert_eq!(plan.ops.len(), 2);
        assert!(matches!(plan.ops[0], PlanOp::Select { .. }));
        assert!(matches!(
            plan.ops[1],
            PlanOp::Join {
                key_left: 0,
                key_right: 0,
                window: 1536
            }
        ));
        // Output: customers fields + products fields, collision renamed.
        let names: Vec<&str> = plan
            .output_schema
            .fields()
            .iter()
            .map(|f| f.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "product_id",
                "age",
                "gender",
                "products_product_id",
                "price"
            ]
        );
        assert_eq!(plan.secondary.as_deref(), Some("products"));
    }

    #[test]
    fn the_joins_where_binds_against_the_joined_record() {
        let q = parse(
            "SELECT age FROM customers \
             JOIN products ON product_id WINDOW 8 WHERE price > 5 AND age < 9",
        );
        let plan = bind(&q, &demo_catalog()).unwrap();
        // price is field 4 of the joined record, not of customers.
        let select = PlanOp::Select {
            conditions: vec![
                BoundCondition {
                    field: 4,
                    op: CmpOp::Gt,
                    value: 5,
                },
                BoundCondition {
                    field: 1,
                    op: CmpOp::Lt,
                    value: 9,
                },
            ],
        };
        assert_eq!(
            &plan.ops[1..],
            &[select, PlanOp::Project { fields: vec![1] }]
        );
        assert!(matches!(plan.ops[0], PlanOp::Join { .. }));
        let text = plan.explain();
        assert!(text.contains("Select [price > 5 AND age < 9]"), "{text}");

        let q = parse("SELECT * FROM customers JOIN products ON product_id WINDOW 8 WHERE x > 1");
        assert_eq!(
            bind(&q, &demo_catalog()).unwrap_err(),
            PlanError::UnknownField {
                field: "x".into(),
                context: "joined record".into()
            }
        );
    }

    #[test]
    fn projection_binds_against_joined_record() {
        let q = parse(
            "SELECT age, price FROM customers \
             JOIN products ON product_id WINDOW 8",
        );
        let plan = bind(&q, &demo_catalog()).unwrap();
        // No WHERE: ops are Join then Project.
        assert_eq!(plan.ops.len(), 2);
        match &plan.ops[1] {
            PlanOp::Project { fields } => assert_eq!(fields, &vec![1, 4]),
            other => panic!("expected projection, got {other:?}"),
        }
        assert_eq!(plan.output_schema.arity(), 2);
    }

    #[test]
    fn select_only_query_has_single_op() {
        let q = parse("SELECT * FROM customers WHERE age >= 30");
        let plan = bind(&q, &demo_catalog()).unwrap();
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(plan.block_count(), 1);
        assert!(plan.secondary.is_none());
    }

    #[test]
    fn unknown_stream_and_field_are_reported() {
        let cat = demo_catalog();
        let e = bind(&parse("SELECT * FROM nope"), &cat).unwrap_err();
        assert!(matches!(e, PlanError::UnknownStream { .. }));
        let e = bind(&parse("SELECT * FROM customers WHERE height > 1"), &cat).unwrap_err();
        assert!(matches!(e, PlanError::UnknownField { .. }));
        let e = bind(
            &parse("SELECT nope FROM customers JOIN products ON product_id WINDOW 4"),
            &cat,
        )
        .unwrap_err();
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn a_projection_that_names_a_field_twice_is_a_typed_error() {
        let mut cat = Catalog::new();
        cat.register_spec("s=k:32").unwrap();
        assert_eq!(
            bind(&parse("SELECT k, k FROM s"), &cat).unwrap_err(),
            PlanError::DuplicateField {
                field: "k".into(),
                context: "query output".into()
            }
        );
    }

    #[test]
    fn a_renamed_secondary_field_that_collides_is_a_typed_error() {
        let mut cat = Catalog::new();
        cat.register_spec("l=k:32,r_k:32").unwrap();
        cat.register_spec("r=k:32").unwrap();
        let e = bind(&parse("SELECT * FROM l JOIN r ON k WINDOW 4"), &cat).unwrap_err();
        assert_eq!(
            e,
            PlanError::DuplicateField {
                field: "r_k".into(),
                context: "joined record".into()
            }
        );
        assert_eq!(
            e.to_string(),
            "field \"r_k\" appears twice in joined record"
        );
    }

    #[test]
    fn bound_condition_evaluates_on_values() {
        let c = BoundCondition {
            field: 1,
            op: CmpOp::Gt,
            value: 25,
        };
        assert!(c.eval(&[0, 30]));
        assert!(!c.eval(&[0, 20]));
        assert!(!c.eval(&[0])); // missing field never matches
    }

    #[test]
    fn aggregate_plan_binds_field_and_names_output() {
        let q = parse("SELECT AVG(age) FROM customers WHERE gender = 1 WINDOW 32");
        let plan = bind(&q, &demo_catalog()).unwrap();
        assert_eq!(plan.ops.len(), 2);
        assert!(matches!(
            plan.ops[1],
            PlanOp::Aggregate {
                field: Some(1),
                window: 32,
                ..
            }
        ));
        assert_eq!(plan.output_schema.fields()[0].name(), "avg_age");
        assert!(plan.secondary.is_none());

        let q = parse("SELECT COUNT(*) FROM customers WINDOW 8");
        let plan = bind(&q, &demo_catalog()).unwrap();
        assert!(matches!(
            plan.ops[0],
            PlanOp::Aggregate {
                field: None,
                window: 8,
                ..
            }
        ));
        assert_eq!(plan.output_schema.fields()[0].name(), "count");
    }

    #[test]
    fn aggregate_over_unknown_field_is_reported() {
        let q = parse("SELECT SUM(height) FROM customers WINDOW 8");
        let e = bind(&q, &demo_catalog()).unwrap_err();
        assert!(matches!(e, PlanError::UnknownField { .. }));
    }

    #[test]
    fn explain_renders_the_whole_pipeline() {
        let q = parse(
            "SELECT age, price FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 1536",
        );
        let plan = bind(&q, &demo_catalog()).unwrap();
        let text = plan.explain();
        assert!(text.contains("Source: customers"), "{text}");
        assert!(text.contains("Select [age > 25]"), "{text}");
        assert!(
            text.contains("Join products ON product_id WINDOW 1536"),
            "{text}"
        );
        assert!(text.contains("Project [age, price]"), "{text}");
        assert!(text.contains("Output: (age:8, price:32)"), "{text}");
    }

    #[test]
    fn explain_renders_aggregates() {
        let q = parse("SELECT SUM(age) FROM customers WINDOW 64");
        let plan = bind(&q, &demo_catalog()).unwrap();
        let text = plan.explain();
        assert!(text.contains("Aggregate Sum(age) WINDOW 64"), "{text}");
        assert!(text.contains("Output: (sum_age:64)"), "{text}");
    }

    #[test]
    fn boolean_where_compiles_to_a_truth_table() {
        let q = parse("SELECT * FROM customers WHERE age > 60 OR gender = 1");
        let plan = bind(&q, &demo_catalog()).unwrap();
        assert_eq!(plan.ops.len(), 1);
        let PlanOp::SelectTable { atoms, table } = &plan.ops[0] else {
            panic!("expected a truth-table select, got {:?}", plan.ops[0]);
        };
        assert_eq!(atoms.len(), 2);
        assert_eq!(table.len(), 4);
        // OR truth table: only the all-false mask rejects.
        assert_eq!(table, &vec![false, true, true, true]);
        assert!(plan.explain().contains("truth table: 2 atoms, 4 entries"));
    }

    #[test]
    fn truth_table_respects_negation_and_grouping() {
        let q = parse("SELECT * FROM customers WHERE NOT (age > 60 OR gender = 1)");
        let plan = bind(&q, &demo_catalog()).unwrap();
        let PlanOp::SelectTable { table, .. } = &plan.ops[0] else {
            panic!("expected a truth-table select");
        };
        assert_eq!(table, &vec![true, false, false, false]);
    }

    #[test]
    fn too_many_atoms_are_rejected() {
        let clause = (0..17)
            .map(|i| format!("age > {i}"))
            .collect::<Vec<_>>()
            .join(" OR ");
        let q = parse(&format!("SELECT * FROM customers WHERE {clause}"));
        let err = bind(&q, &demo_catalog()).unwrap_err();
        assert!(matches!(
            err,
            PlanError::TooManyAtoms { atoms: 17, max: 16 }
        ));
        assert!(err.to_string().contains("17"));
    }

    #[test]
    fn register_spec_parses_and_rejects() {
        let mut c = Catalog::new();
        c.register_spec("trades=symbol:32,price:32,qty:16").unwrap();
        let s = c.schema("trades").unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("qty"), Some(2));
        assert_eq!(c.streams(), vec!["trades"]);

        for bad in [
            "nofields",
            "=a:8",
            "s=a",
            "s=a:zero",
            "s=a:99",
            "s=a:8,a:8", // duplicate field
        ] {
            assert!(Catalog::new().register_spec(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn pass_through_plan_occupies_one_block() {
        let q = parse("SELECT * FROM customers");
        let plan = bind(&q, &demo_catalog()).unwrap();
        assert!(plan.ops.is_empty());
        assert_eq!(plan.block_count(), 1);
    }

    #[test]
    fn explain_pins_a_conjunction_before_and_after_the_join() {
        let cat = demo_catalog();
        let before = bind(
            &parse(
                "SELECT age, price FROM customers WHERE age > 25 AND gender = 1 \
                 JOIN products ON product_id WINDOW 1536",
            ),
            &cat,
        )
        .unwrap();
        assert_eq!(
            before.explain(),
            "Plan: SELECT age, price FROM customers WHERE age > 25 AND gender = 1 \
             JOIN products ON product_id WINDOW 1536\n\
             \x20 Source: customers\n\
             \x20 -> Select [age > 25 AND gender = 1] (2 bound condition(s))\n\
             \x20 -> Join products ON product_id WINDOW 1536\n\
             \x20 -> Project [age, price]\n\
             \x20 Output: (age:8, price:32)\n"
        );
        let after = bind(
            &parse(
                "SELECT * FROM customers JOIN products ON product_id WINDOW 8 \
                 WHERE price > 5 AND age < 9",
            ),
            &cat,
        )
        .unwrap();
        assert_eq!(
            after.explain(),
            "Plan: SELECT * FROM customers JOIN products ON product_id WINDOW 8 \
             WHERE price > 5 AND age < 9\n\
             \x20 Source: customers\n\
             \x20 -> Join products ON product_id WINDOW 8\n\
             \x20 -> Select [price > 5 AND age < 9] (2 bound condition(s))\n\
             \x20 Output: (product_id:32, age:8, gender:1, products_product_id:32, price:32)\n"
        );
    }
}
