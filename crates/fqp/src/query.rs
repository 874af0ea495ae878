//! Continuous queries: AST and a small SQL-like parser.
//!
//! FQP consumes declarative queries and maps them onto the fabric at
//! runtime. The dialect covers what the paper's examples need (selection,
//! projection, windowed equi-join — Fig. 7 — and windowed aggregates):
//!
//! ```text
//! SELECT <field, ...|*|AGG(<field>|*)> FROM <stream>
//!   [WHERE <boolean expression over comparisons>]
//!   [JOIN <stream> ON <field> WINDOW <n>
//!     [WHERE <boolean expression over comparisons>]]
//!   [WINDOW <n> [TUMBLING]]
//! ```
//!
//! The `WHERE` before `JOIN` filters the primary stream's arrivals; the
//! one after the join window filters the *joined* record (CQL semantics:
//! the windows hold raw arrivals, the condition prunes matches). The
//! trailing `WINDOW` belongs to an aggregate head and excludes `JOIN`.
//!
//! # Example
//!
//! ```
//! use fqp::query::Query;
//!
//! let q = Query::parse(
//!     "SELECT * FROM customers WHERE age > 25 JOIN products ON product_id WINDOW 1536",
//! )?;
//! assert_eq!(q.from, "customers");
//! assert_eq!(q.join.as_ref().unwrap().window, 1536);
//! # Ok::<(), fqp::query::ParseError>(())
//! ```

use std::error::Error;
use std::fmt;

/// Comparison operators usable in `WHERE` conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates `lhs op rhs`.
    pub fn eval(&self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// One atomic comparison: `field op literal`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Condition {
    /// Field name (resolved against the stream schema at planning time).
    pub field: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal operand.
    pub value: u64,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.field, self.op, self.value)
    }
}

/// A Boolean `WHERE` expression over atomic comparisons.
///
/// Every `WHERE` clause is one of these; binding decides how it runs. A
/// flat conjunction of atoms (one [`BoolExpr::Atom`], or one
/// [`BoolExpr::And`] of atoms) binds to the short-circuit
/// [`PlanOp::Select`](crate::plan::PlanOp::Select) fast path; anything
/// with `OR`/`NOT` binds to an Ibex-style precomputed truth table
/// ("precomputation of a truth table for Boolean expressions in software
/// first", the paper's *Boolean formula precomputation* algorithmic
/// pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BoolExpr {
    /// An atomic comparison.
    Atom(Condition),
    /// Conjunction of sub-expressions.
    And(Vec<BoolExpr>),
    /// Disjunction of sub-expressions.
    Or(Vec<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
}

impl BoolExpr {
    /// `lhs AND rhs`, flattened: a conjunction on either side contributes
    /// its terms, so `(a AND b) AND c` is one `And` of three atoms. With
    /// no `lhs` it is `rhs` alone.
    pub fn and(lhs: Option<BoolExpr>, rhs: BoolExpr) -> BoolExpr {
        let Some(lhs) = lhs else {
            return rhs;
        };
        let mut terms = match lhs {
            BoolExpr::And(es) => es,
            e => vec![e],
        };
        match rhs {
            BoolExpr::And(es) => terms.extend(es),
            e => terms.push(e),
        }
        BoolExpr::And(terms)
    }

    /// The atomic conditions, in depth-first order (the order truth-table
    /// bits are assigned).
    pub fn atoms(&self) -> Vec<&Condition> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a Condition>) {
        match self {
            BoolExpr::Atom(c) => out.push(c),
            BoolExpr::And(es) | BoolExpr::Or(es) => {
                for e in es {
                    e.collect_atoms(out);
                }
            }
            BoolExpr::Not(e) => e.collect_atoms(out),
        }
    }

    /// Evaluates the expression given per-atom outcomes in depth-first
    /// order. Used to precompute truth tables.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is shorter than the atom count.
    pub fn eval_with(&self, outcomes: &[bool]) -> bool {
        let mut idx = 0;
        self.eval_inner(outcomes, &mut idx)
    }

    fn eval_inner(&self, outcomes: &[bool], idx: &mut usize) -> bool {
        match self {
            BoolExpr::Atom(_) => {
                let v = outcomes[*idx];
                *idx += 1;
                v
            }
            BoolExpr::And(es) => {
                // No short-circuit: every atom consumes its slot, exactly
                // as the parallel hardware evaluation would.
                let mut all = true;
                for e in es {
                    all &= e.eval_inner(outcomes, idx);
                }
                all
            }
            BoolExpr::Or(es) => {
                let mut any = false;
                for e in es {
                    any |= e.eval_inner(outcomes, idx);
                }
                any
            }
            BoolExpr::Not(e) => !e.eval_inner(outcomes, idx),
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Atom(c) => write!(f, "{c}"),
            BoolExpr::And(es) => {
                let parts: Vec<String> = es
                    .iter()
                    .map(|e| match e {
                        BoolExpr::Or(_) => format!("( {e} )"),
                        _ => e.to_string(),
                    })
                    .collect();
                write!(f, "{}", parts.join(" AND "))
            }
            BoolExpr::Or(es) => {
                let parts: Vec<String> = es.iter().map(|e| e.to_string()).collect();
                write!(f, "{}", parts.join(" OR "))
            }
            BoolExpr::Not(e) => match **e {
                BoolExpr::Atom(_) => write!(f, "NOT {e}"),
                _ => write!(f, "NOT ( {e} )"),
            },
        }
    }
}

/// The projection list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Projection {
    /// `SELECT *`
    All,
    /// `SELECT a, b, c`
    Fields(Vec<String>),
}

/// Windowed aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — tuples currently in the window.
    Count,
    /// `SUM(field)`.
    Sum,
    /// `MIN(field)`.
    Min,
    /// `MAX(field)`.
    Max,
    /// `AVG(field)` — integer average.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// How an aggregate's window advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// Slide by one: emit the running aggregate on every input.
    Sliding,
    /// Tumble: emit once per full window, then reset.
    Tumbling,
}

/// A windowed aggregate clause:
/// `SELECT SUM(field) FROM s … WINDOW n [TUMBLING]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggregateClause {
    /// The aggregate function.
    pub func: AggFunc,
    /// Aggregated field (`None` for `COUNT(*)`).
    pub field: Option<String>,
    /// Count-based window size.
    pub window: usize,
    /// Sliding (default) or tumbling advancement.
    pub kind: WindowKind,
}

/// A windowed equi-join clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinClause {
    /// The other stream.
    pub stream: String,
    /// Join key field (same name on both streams, as in the paper's
    /// "join over Product ID").
    pub on: String,
    /// Count-based sliding-window size (per stream).
    pub window: usize,
    /// `WHERE` after the window, over the joined record. The parser
    /// accepts a conjunction of comparisons here; binding decides its
    /// operator as for [`Query::filter`].
    pub filter: Option<BoolExpr>,
}

/// A parsed continuous query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Projection list (ignored when `aggregate` is present).
    pub select: Projection,
    /// Primary input stream.
    pub from: String,
    /// `WHERE` over the primary stream's arrivals. Binding decides its
    /// operator: a flat conjunction takes the short-circuit fast path,
    /// any other expression a precomputed truth table.
    pub filter: Option<BoolExpr>,
    /// Optional windowed join (mutually exclusive with `aggregate`).
    pub join: Option<JoinClause>,
    /// Optional windowed aggregate.
    pub aggregate: Option<AggregateClause>,
}

impl Query {
    /// Parses the FQP query dialect.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first offending token.
    pub fn parse(text: &str) -> Result<Query, ParseError> {
        Parser::new(text).query()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if let Some(a) = &self.aggregate {
            write!(f, "{}({})", a.func, a.field.as_deref().unwrap_or("*"))?;
        } else {
            match &self.select {
                Projection::All => write!(f, "*")?,
                Projection::Fields(fs) => write!(f, "{}", fs.join(", "))?,
            }
        }
        write!(f, " FROM {}", self.from)?;
        if let Some(expr) = &self.filter {
            write!(f, " WHERE {expr}")?;
        }
        if let Some(j) = &self.join {
            write!(f, " JOIN {} ON {} WINDOW {}", j.stream, j.on, j.window)?;
            if let Some(expr) = &j.filter {
                write!(f, " WHERE {expr}")?;
            }
        }
        if let Some(a) = &self.aggregate {
            write!(f, " WINDOW {}", a.window)?;
            if a.kind == WindowKind::Tumbling {
                write!(f, " TUMBLING")?;
            }
        }
        Ok(())
    }
}

/// Error produced by [`Query::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser expected.
    pub expected: String,
    /// What it found instead (`<end>` at end of input).
    pub found: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} but found {:?}", self.expected, self.found)
    }
}

impl Error for ParseError {}

struct Parser<'a> {
    tokens: Vec<&'a str>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        // Tokenize on whitespace; commas and parentheses become their own
        // tokens, except that aggregate heads like `COUNT(*)` stay whole.
        // Comparison operators are whitespace-separated or glued to their
        // operands.
        let mut tokens = Vec::new();
        for raw in text.split_whitespace() {
            if parse_agg_head(raw).is_some() {
                tokens.push(raw);
                continue;
            }
            let mut start = 0;
            for (i, c) in raw.char_indices() {
                if matches!(c, ',' | '(' | ')') {
                    if start < i {
                        tokens.push(&raw[start..i]);
                    }
                    tokens.push(&raw[i..i + 1]);
                    start = i + 1;
                }
            }
            if start < raw.len() {
                tokens.push(&raw[start..]);
            }
        }
        Self { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<&'a str> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<&'a str> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, expected: &str) -> ParseError {
        ParseError {
            expected: expected.to_string(),
            found: self.peek().unwrap_or("<end>").to_string(),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(&format!("keyword {kw}"))),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.eq_ignore_ascii_case(kw))
    }

    fn identifier(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(t)
                if t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && t.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) =>
            {
                self.pos += 1;
                Ok(t.to_ascii_lowercase())
            }
            _ => Err(self.err(what)),
        }
    }

    fn number(&mut self, what: &str) -> Result<u64, ParseError> {
        match self.peek().and_then(|t| t.parse::<u64>().ok()) {
            Some(n) => {
                self.pos += 1;
                Ok(n)
            }
            None => Err(self.err(what)),
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_kw("SELECT")?;
        let agg_head = self.peek().and_then(parse_agg_head);
        let select = if agg_head.is_some() {
            self.pos += 1;
            Projection::All
        } else {
            self.projection()?
        };
        self.expect_kw("FROM")?;
        let from = self.identifier("stream name")?;
        let filter = if self.peek_kw("WHERE") {
            self.pos += 1;
            Some(self.bool_expr()?)
        } else {
            None
        };
        let join = if self.peek_kw("JOIN") {
            if agg_head.is_some() {
                return Err(ParseError {
                    expected: "WINDOW clause (aggregates cannot be combined with JOIN)".to_string(),
                    found: "JOIN".to_string(),
                });
            }
            self.pos += 1;
            let stream = self.identifier("join stream name")?;
            self.expect_kw("ON")?;
            let on = self.identifier("join key field")?;
            self.expect_kw("WINDOW")?;
            let window = self.positive_window()?;
            let filter = if self.peek_kw("WHERE") {
                self.pos += 1;
                Some(self.bool_expr()?)
            } else {
                None
            };
            Some(JoinClause {
                stream,
                on,
                window,
                filter,
            })
        } else {
            None
        };
        let aggregate = match agg_head {
            Some((func, field)) => {
                self.expect_kw("WINDOW")?;
                let window = self.positive_window()?;
                let kind = if self.peek_kw("TUMBLING") {
                    self.pos += 1;
                    WindowKind::Tumbling
                } else {
                    WindowKind::Sliding
                };
                Some(AggregateClause {
                    func,
                    field,
                    window,
                    kind,
                })
            }
            None => None,
        };
        if let Some(t) = self.peek() {
            return Err(ParseError {
                expected: "end of query".to_string(),
                found: t.to_string(),
            });
        }
        Ok(Query {
            select,
            from,
            filter,
            join,
            aggregate,
        })
    }

    /// `expr := term (OR term)*`
    fn bool_expr(&mut self) -> Result<BoolExpr, ParseError> {
        let first = self.bool_term()?;
        if !self.peek_kw("OR") {
            return Ok(first);
        }
        let mut terms = vec![first];
        while self.peek_kw("OR") {
            self.pos += 1;
            terms.push(self.bool_term()?);
        }
        Ok(BoolExpr::Or(terms))
    }

    /// `term := factor (AND factor)*`
    fn bool_term(&mut self) -> Result<BoolExpr, ParseError> {
        let mut term = self.bool_factor()?;
        while self.peek_kw("AND") {
            self.pos += 1;
            term = BoolExpr::and(Some(term), self.bool_factor()?);
        }
        Ok(term)
    }

    /// `factor := NOT factor | '(' expr ')' | condition`
    fn bool_factor(&mut self) -> Result<BoolExpr, ParseError> {
        if self.peek_kw("NOT") {
            self.pos += 1;
            return Ok(BoolExpr::Not(Box::new(self.bool_factor()?)));
        }
        if self.peek() == Some("(") {
            self.pos += 1;
            let inner = self.bool_expr()?;
            if self.peek() != Some(")") {
                return Err(self.err("closing parenthesis"));
            }
            self.pos += 1;
            return Ok(inner);
        }
        Ok(BoolExpr::Atom(self.condition()?))
    }

    fn positive_window(&mut self) -> Result<usize, ParseError> {
        let window = self.number("window size")? as usize;
        if window == 0 {
            return Err(ParseError {
                expected: "positive window size".to_string(),
                found: "0".to_string(),
            });
        }
        Ok(window)
    }

    fn projection(&mut self) -> Result<Projection, ParseError> {
        if self.peek() == Some("*") {
            self.pos += 1;
            return Ok(Projection::All);
        }
        let mut fields = vec![self.identifier("projection field")?];
        while self.peek() == Some(",") {
            self.pos += 1;
            fields.push(self.identifier("projection field")?);
        }
        Ok(Projection::Fields(fields))
    }

    fn condition(&mut self) -> Result<Condition, ParseError> {
        // Accept both "age > 25" and "age>25".
        let tok = self.next().ok_or_else(|| self.err("condition"))?;
        if let Some((field, op, value)) = split_glued_condition(tok) {
            return Ok(Condition { field, op, value });
        }
        let field = validate_ident(tok).ok_or_else(|| self.err("condition field"))?;
        let op = self.cmp_op()?;
        let value = self.number("condition literal")?;
        Ok(Condition { field, op, value })
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek() {
            Some("=") | Some("==") => CmpOp::Eq,
            Some("!=") | Some("<>") => CmpOp::Ne,
            Some("<") => CmpOp::Lt,
            Some("<=") => CmpOp::Le,
            Some(">") => CmpOp::Gt,
            Some(">=") => CmpOp::Ge,
            _ => return Err(self.err("comparison operator")),
        };
        self.pos += 1;
        Ok(op)
    }
}

/// Recognizes an aggregate head token like `COUNT(*)` or `sum(price)`.
fn parse_agg_head(tok: &str) -> Option<(AggFunc, Option<String>)> {
    let open = tok.find('(')?;
    if !tok.ends_with(')') {
        return None;
    }
    let func = match tok[..open].to_ascii_uppercase().as_str() {
        "COUNT" => AggFunc::Count,
        "SUM" => AggFunc::Sum,
        "MIN" => AggFunc::Min,
        "MAX" => AggFunc::Max,
        "AVG" => AggFunc::Avg,
        _ => return None,
    };
    let arg = &tok[open + 1..tok.len() - 1];
    let field = if arg == "*" {
        if func != AggFunc::Count {
            return None; // only COUNT takes `*`
        }
        None
    } else {
        Some(validate_ident(arg)?)
    };
    Some((func, field))
}

fn validate_ident(tok: &str) -> Option<String> {
    let ok = tok.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && tok.chars().next().is_some_and(|c| c.is_ascii_alphabetic());
    ok.then(|| tok.to_ascii_lowercase())
}

fn split_glued_condition(tok: &str) -> Option<(String, CmpOp, u64)> {
    for (sym, op) in [
        (">=", CmpOp::Ge),
        ("<=", CmpOp::Le),
        ("!=", CmpOp::Ne),
        ("<>", CmpOp::Ne),
        ("==", CmpOp::Eq),
        ("=", CmpOp::Eq),
        (">", CmpOp::Gt),
        ("<", CmpOp::Lt),
    ] {
        if let Some((lhs, rhs)) = tok.split_once(sym) {
            if lhs.is_empty() || rhs.is_empty() {
                continue;
            }
            let field = validate_ident(lhs)?;
            let value = rhs.parse().ok()?;
            return Some((field, op, value));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{bind, Catalog, PlanOp};

    /// A clause's atoms; none when it has no `WHERE`.
    fn atoms(filter: &Option<BoolExpr>) -> Vec<&Condition> {
        filter.as_ref().map(BoolExpr::atoms).unwrap_or_default()
    }

    #[test]
    fn parses_the_papers_fig7_queries() {
        // Query 1: Selection(Age>25) -> Join over ProductID, window 1536.
        let q1 = Query::parse(
            "SELECT * FROM customers WHERE age > 25 JOIN products ON product_id WINDOW 1536",
        )
        .unwrap();
        assert_eq!(q1.from, "customers");
        assert_eq!(atoms(&q1.filter).len(), 1);
        assert_eq!(atoms(&q1.filter)[0].op, CmpOp::Gt);
        let j = q1.join.unwrap();
        assert_eq!(j.stream, "products");
        assert_eq!(j.on, "product_id");
        assert_eq!(j.window, 1536);

        // Query 2: Selection(Age>25 & Gender=female) -> window 2048.
        let q2 = Query::parse(
            "SELECT * FROM customers WHERE age > 25 AND gender = 1 \
             JOIN products ON product_id WINDOW 2048",
        )
        .unwrap();
        assert_eq!(atoms(&q2.filter).len(), 2);
        assert_eq!(q2.join.unwrap().window, 2048);
    }

    #[test]
    fn parses_projection_lists() {
        let q = Query::parse("SELECT a, b, c FROM s").unwrap();
        assert_eq!(
            q.select,
            Projection::Fields(vec!["a".into(), "b".into(), "c".into()])
        );
        assert!(q.filter.is_none());
        assert!(q.join.is_none());
    }

    #[test]
    fn parses_glued_conditions() {
        let q = Query::parse("SELECT * FROM s WHERE age>25 AND size<=9").unwrap();
        let conds = atoms(&q.filter);
        assert_eq!(conds[0].op, CmpOp::Gt);
        assert_eq!(conds[1].op, CmpOp::Le);
        assert_eq!(conds[1].value, 9);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(Query::parse("select * from s where x = 1").is_ok());
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "FROM s",
            "SELECT FROM s",
            "SELECT * FROM",
            "SELECT * FROM s WHERE",
            "SELECT * FROM s WHERE x !! 3",
            "SELECT * FROM s JOIN t ON k WINDOW 0",
            "SELECT * FROM s trailing garbage",
            "SELECT * FROM s WHERE 3 > x",
        ] {
            assert!(Query::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_error_is_informative() {
        let err = Query::parse("SELECT * WHERE").unwrap_err();
        assert!(err.to_string().contains("FROM"));
    }

    #[test]
    fn display_round_trips_through_parse() {
        let text = "SELECT a, b FROM customers WHERE age > 25 \
                    JOIN products ON product_id WINDOW 64";
        let q = Query::parse(text).unwrap();
        let q2 = Query::parse(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn where_after_the_join_window_filters_the_joined_record() {
        let text = "SELECT * FROM trades JOIN quotes ON sym WINDOW 64 WHERE qty > 10 AND px<5";
        let q = Query::parse(text).unwrap();
        assert!(q.filter.is_none(), "nothing filters the primary stream");
        let j = q.join.as_ref().unwrap();
        let conds = atoms(&j.filter);
        assert_eq!(conds.len(), 2);
        assert_eq!((conds[1].field.as_str(), conds[1].value), ("px", 5));
        assert_eq!(
            q.to_string(),
            "SELECT * FROM trades JOIN quotes ON sym WINDOW 64 WHERE qty > 10 AND px < 5"
        );
        assert_eq!(Query::parse(&q.to_string()).unwrap(), q);
        // The join's WHERE takes the same Boolean grammar as the first.
        let text = "SELECT * FROM s JOIN t ON k WINDOW 8 WHERE a > 1 OR NOT b > 2";
        let q = Query::parse(text).unwrap();
        assert!(matches!(
            q.join.as_ref().and_then(|j| j.filter.as_ref()),
            Some(BoolExpr::Or(_))
        ));
        assert_eq!(q.to_string(), text);
        for bad in [
            "SELECT * FROM s JOIN t ON k WINDOW 8 WHERE",
            "SELECT * FROM s JOIN t ON k WINDOW 8 WHERE a > 1 OR",
            "SELECT * FROM s JOIN t ON k WINDOW 8 WHERE a > 1 WHERE b > 2",
        ] {
            assert!(Query::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_aggregate_queries() {
        let q = Query::parse("SELECT COUNT(*) FROM readings WINDOW 100").unwrap();
        let a = q.aggregate.as_ref().unwrap();
        assert_eq!(a.func, AggFunc::Count);
        assert_eq!(a.field, None);
        assert_eq!(a.window, 100);

        let q = Query::parse("SELECT avg(value) FROM readings WHERE sensor = 3 WINDOW 64").unwrap();
        let a = q.aggregate.as_ref().unwrap();
        assert_eq!(a.func, AggFunc::Avg);
        assert_eq!(a.field.as_deref(), Some("value"));
        assert_eq!(atoms(&q.filter).len(), 1);

        for (text, func) in [
            ("SELECT SUM(v) FROM s WINDOW 4", AggFunc::Sum),
            ("SELECT MIN(v) FROM s WINDOW 4", AggFunc::Min),
            ("SELECT MAX(v) FROM s WINDOW 4", AggFunc::Max),
        ] {
            assert_eq!(Query::parse(text).unwrap().aggregate.unwrap().func, func);
        }
    }

    #[test]
    fn rejects_malformed_aggregates() {
        for bad in [
            "SELECT COUNT(*) FROM s",                      // missing WINDOW
            "SELECT SUM(*) FROM s WINDOW 4",               // * only for COUNT
            "SELECT COUNT(*) FROM s JOIN t ON k WINDOW 4", // agg + join
            "SELECT COUNT(*) FROM s WINDOW 0",             // zero window
        ] {
            assert!(Query::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn aggregate_display_round_trips() {
        for text in [
            "SELECT COUNT(*) FROM readings WINDOW 100",
            "SELECT SUM(value) FROM readings WHERE sensor > 1 WINDOW 8",
            "SELECT MAX(value) FROM readings WINDOW 16 TUMBLING",
        ] {
            let q = Query::parse(text).unwrap();
            assert_eq!(Query::parse(&q.to_string()).unwrap(), q);
        }
    }

    #[test]
    fn tumbling_keyword_selects_window_kind() {
        let q = Query::parse("SELECT COUNT(*) FROM s WINDOW 10 TUMBLING").unwrap();
        assert_eq!(q.aggregate.unwrap().kind, WindowKind::Tumbling);
        let q = Query::parse("SELECT COUNT(*) FROM s WINDOW 10").unwrap();
        assert_eq!(q.aggregate.unwrap().kind, WindowKind::Sliding);
    }

    #[test]
    fn parses_boolean_where_clauses() {
        let q = Query::parse("SELECT * FROM s WHERE a > 5 OR b < 3").unwrap();
        let expr = q.filter.as_ref().unwrap();
        assert!(matches!(expr, BoolExpr::Or(es) if es.len() == 2));
        assert_eq!(expr.atoms().len(), 2);

        // AND binds tighter than OR.
        let q = Query::parse("SELECT * FROM s WHERE a > 5 OR b < 3 AND c = 1").unwrap();
        match q.filter.as_ref().unwrap() {
            BoolExpr::Or(es) => {
                assert!(matches!(es[0], BoolExpr::Atom(_)));
                assert!(matches!(&es[1], BoolExpr::And(fs) if fs.len() == 2));
            }
            other => panic!("expected OR at the top, got {other:?}"),
        }

        // Parentheses override precedence; glued parens tokenize.
        let q = Query::parse("SELECT * FROM s WHERE (a > 5 OR b < 3) AND c = 1").unwrap();
        assert!(matches!(q.filter.as_ref().unwrap(), BoolExpr::And(_)));
        let q2 = Query::parse("SELECT * FROM s WHERE ( a > 5 OR b < 3 ) AND c = 1").unwrap();
        assert_eq!(q.filter, q2.filter);

        // NOT.
        let q = Query::parse("SELECT * FROM s WHERE NOT a = 1").unwrap();
        assert!(matches!(q.filter.as_ref().unwrap(), BoolExpr::Not(_)));
    }

    #[test]
    fn pure_conjunctions_stay_on_the_fast_path() {
        let mut catalog = Catalog::new();
        catalog.register_spec("s=a:8,b:8").unwrap();
        for (text, n) in [
            ("SELECT * FROM s WHERE a > 5 AND b < 3", 2),
            // Even when parenthesized as a whole.
            ("SELECT * FROM s WHERE (a > 5)", 1),
            // A parenthesized conjunction inside one flattens into it.
            ("SELECT * FROM s WHERE (a > 1 AND b > 2) AND a < 9", 3),
        ] {
            let q = Query::parse(text).unwrap();
            let flat = match q.filter.as_ref().unwrap() {
                BoolExpr::Atom(_) => n == 1,
                BoolExpr::And(es) => es.len() == n && atoms(&q.filter).len() == n,
                _ => false,
            };
            assert!(flat, "{text} -> {:?}", q.filter);
            let plan = bind(&q, &catalog).unwrap();
            assert!(
                matches!(&plan.ops[..], [PlanOp::Select { conditions }] if conditions.len() == n),
                "{text} -> {:?}",
                plan.ops
            );
        }
    }

    #[test]
    fn boolean_where_display_round_trips() {
        for text in [
            "SELECT * FROM s WHERE a > 5 OR b < 3",
            "SELECT * FROM s WHERE (a > 5 OR b < 3) AND c = 1",
            "SELECT * FROM s WHERE NOT (a = 1 OR b = 2)",
            "SELECT * FROM s WHERE NOT a = 1 AND b = 2",
            "SELECT * FROM s WHERE (a > 1 AND b > 2) AND a < 9",
        ] {
            let q = Query::parse(text).unwrap();
            let q2 = Query::parse(&q.to_string()).unwrap();
            assert_eq!(q, q2, "{text} -> {q}");
        }
    }

    #[test]
    fn bool_expr_eval_with_follows_structure() {
        let q = Query::parse("SELECT * FROM s WHERE (a > 1 OR b > 1) AND NOT c > 1").unwrap();
        let e = q.filter.unwrap();
        assert_eq!(e.atoms().len(), 3);
        // (t OR f) AND NOT f = true
        assert!(e.eval_with(&[true, false, false]));
        // (f OR f) AND NOT f = false
        assert!(!e.eval_with(&[false, false, false]));
        // (t OR t) AND NOT t = false
        assert!(!e.eval_with(&[true, true, true]));
    }

    #[test]
    fn rejects_malformed_boolean_clauses() {
        for bad in [
            "SELECT * FROM s WHERE (a > 1",
            "SELECT * FROM s WHERE a > 1 OR",
            "SELECT * FROM s WHERE NOT",
            "SELECT * FROM s WHERE ()",
        ] {
            assert!(Query::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn cmp_op_eval_table() {
        assert!(CmpOp::Eq.eval(3, 3) && !CmpOp::Eq.eval(3, 4));
        assert!(CmpOp::Ne.eval(3, 4) && !CmpOp::Ne.eval(3, 3));
        assert!(CmpOp::Lt.eval(3, 4) && !CmpOp::Lt.eval(4, 4));
        assert!(CmpOp::Le.eval(4, 4) && !CmpOp::Le.eval(5, 4));
        assert!(CmpOp::Gt.eval(5, 4) && !CmpOp::Gt.eval(4, 4));
        assert!(CmpOp::Ge.eval(4, 4) && !CmpOp::Ge.eval(3, 4));
    }
}
