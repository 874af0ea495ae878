//! Property-based tests of the query layer: parsing, binding, truth-table
//! compilation, and fabric deployment.

use fqp::manager::QueryManager;
use fqp::plan::{bind, Catalog};
use fqp::query::Query;
use proptest::prelude::*;
use streamcore::{Field, Record, Schema};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "s",
        Schema::new(vec![
            Field::new("a", 16).unwrap(),
            Field::new("b", 16).unwrap(),
        ])
        .unwrap(),
    );
    c.register(
        "t",
        Schema::new(vec![
            Field::new("a", 16).unwrap(),
            Field::new("c", 16).unwrap(),
        ])
        .unwrap(),
    );
    c
}

/// A strategy over syntactically valid WHERE clauses with known structure.
fn arb_clause() -> impl Strategy<Value = String> {
    let atom =
        (prop::sample::select(vec!["a", "b"]), 0u32..100).prop_map(|(f, v)| format!("{f} > {v}"));
    atom.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("{x} AND {y}")),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("{x} OR {y}")),
            // An OR nested in parentheses inside an OR.
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, y, z)| format!("( {x} OR {y} ) OR {z}")),
            inner.prop_map(|x| format!("NOT ( {x} )")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated WHERE clause parses, binds (unless too wide), and
    /// re-parses identically from its Display rendering.
    #[test]
    fn where_clauses_round_trip(clause in arb_clause()) {
        let text = format!("SELECT * FROM s WHERE {clause}");
        let q = Query::parse(&text).unwrap();
        let rendered = q.to_string();
        prop_assert_eq!(&Query::parse(&rendered).unwrap(), &q, "{}", rendered);
        match bind(&q, &catalog()) {
            Ok(plan) => prop_assert_eq!(plan.ops.len(), 1),
            Err(fqp::plan::PlanError::TooManyAtoms { atoms, .. }) => {
                prop_assert!(atoms > 16);
            }
            Err(other) => prop_assert!(false, "unexpected bind error {other}"),
        }
    }

    /// A bound selection — conjunction or truth table — agrees with naive
    /// evaluation of the original clause on random records.
    #[test]
    fn bound_selection_matches_naive_eval(clause in arb_clause(), records in prop::collection::vec((0u64..100, 0u64..100), 1..30)) {
        let text = format!("SELECT * FROM s WHERE {clause}");
        let q = Query::parse(&text).unwrap();
        let Ok(plan) = bind(&q, &catalog()) else {
            return Ok(()); // too many atoms: covered above
        };
        let mut mgr = QueryManager::new(1);
        let id = mgr.deploy(&plan).unwrap();
        for (a, b) in records {
            mgr.push("s", Record::new(vec![a, b])).unwrap();
            let passed = !mgr.take_results(id).unwrap().is_empty();
            // Naive evaluation straight off the AST.
            let naive = q.filter.as_ref().is_none_or(|expr| {
                let outcomes: Vec<bool> = expr
                    .atoms()
                    .iter()
                    .map(|c| {
                        let v = if c.field == "a" { a } else { b };
                        c.op.eval(v, c.value)
                    })
                    .collect();
                expr.eval_with(&outcomes)
            });
            prop_assert_eq!(passed, naive, "record ({}, {}) under {}", a, b, text);
        }
    }

    /// Join queries deploy onto any fabric with enough blocks, and the
    /// manager always reports the plan's own block count.
    #[test]
    fn deployment_block_accounting(extra in 0usize..4, window in 1usize..64) {
        let text = format!("SELECT * FROM s JOIN t ON a WINDOW {window}");
        let plan = bind(&Query::parse(&text).unwrap(), &catalog()).unwrap();
        let mut mgr = QueryManager::new(plan.block_count() + extra);
        let id = mgr.deploy(&plan).unwrap();
        prop_assert_eq!(mgr.blocks(id).unwrap().len(), plan.block_count());
        prop_assert_eq!(mgr.idle_blocks(), extra);
        mgr.undeploy(id).unwrap();
        prop_assert_eq!(mgr.idle_blocks(), plan.block_count() + extra);
    }
}

/// Well-formed queries over every comparison operator, projection list,
/// aggregate head and `WHERE` placement.
fn arb_query() -> impl Strategy<Value = String> {
    let atom = (
        prop::sample::select(vec!["a", "b"]),
        prop::sample::select(vec!["=", "!=", "<", "<=", ">", ">=", "==", "<>"]),
        0u32..100,
    )
        .prop_map(|(f, op, v)| format!("{f} {op} {v}"));
    let clause = atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("{x} AND {y}")),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("( {x} OR {y} )")),
            inner.prop_map(|x| format!("NOT ( {x} )")),
        ]
    });
    let shape = prop::sample::select(vec![
        "SELECT * FROM s WHERE {}",
        "SELECT a, b FROM s WHERE {}",
        "SELECT COUNT(*) FROM s WHERE {} WINDOW 4",
        "SELECT SUM(a) FROM s WHERE {} WINDOW 8 TUMBLING",
        "SELECT b, c FROM s JOIN t ON a WINDOW 8 WHERE {}",
    ]);
    (shape, clause).prop_map(|(shape, clause)| shape.replace("{}", &clause))
}

/// `text` with the spacing changed wherever the lexer ignores it: next
/// to a comma, a parenthesis or `*`, and between an operator and its
/// operands. Each such gap gets 0, 1 or 2 spaces, cycling through
/// `picks`; every other gap keeps its spacing.
fn respace(text: &str, picks: &[usize]) -> String {
    let op = |c: char| "<>=!".contains(c);
    let free = |x: char, y: char| ",()*".contains(x) || ",()*".contains(y) || op(x) != op(y);
    let mut out = String::new();
    let mut prev: Option<char> = None;
    let mut gap = 0;
    let mut picks = picks.iter().cycle();
    for c in text.chars() {
        if c == ' ' {
            gap += 1;
            continue;
        }
        if let Some(p) = prev {
            let spaces = if free(p, c) {
                *picks.next().unwrap()
            } else {
                gap
            };
            out.extend(std::iter::repeat_n(' ', spaces));
        }
        out.push(c);
        prev = Some(c);
        gap = 0;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Spaces around operators, commas and parentheses are optional: a
    /// rendered query with any of them added or removed parses to the
    /// same query.
    #[test]
    fn spacing_never_changes_the_parse(
        text in arb_query(),
        picks in prop::collection::vec(0usize..3, 1..16),
    ) {
        let rendered = Query::parse(&text).unwrap().to_string();
        let q = Query::parse(&rendered).unwrap();
        let respaced = respace(&rendered, &picks);
        prop_assert_eq!(&Query::parse(&respaced).unwrap(), &q, "{}", respaced);
    }
}

/// Pieces of the query dialect and of broken queries, and any character
/// at all: joined at random they reach every branch of the parser.
fn query_fragment() -> impl Strategy<Value = String> {
    let pieces = "SELECT|FROM|WHERE|JOIN|ON|WINDOW|TUMBLING|AND|OR|NOT|COUNT(*)|SUM(a)|AVG(|MIN|\
                  MAX(b)|*|,|(|)|>|<|=|>=|<=|!=|s|t|a|b|c|s_a|0|7|18446744073709551616| |\n|é";
    prop_oneof![
        prop::sample::select(pieces.split('|').collect::<Vec<_>>()).prop_map(str::to_string),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?').to_string()),
    ]
}

/// One clause of a query: one of the `|`-separated `options`, or random
/// fragments one time in eight.
fn slot(options: &'static str) -> impl Strategy<Value = String> {
    (
        0u32..8,
        prop::sample::select(options.split('|').collect::<Vec<_>>()),
        prop::collection::vec(query_fragment(), 1..3),
    )
        .prop_map(|(n, clause, junk)| {
            if n == 0 {
                junk.join(" ")
            } else {
                clause.to_string()
            }
        })
}

/// Query text: mostly well-formed queries over the catalogs' vocabulary
/// (so that binding runs), some clauses broken, and fragment soup.
fn query_text() -> impl Strategy<Value = String> {
    let well_formed = (
        slot("SELECT *|SELECT a|SELECT a, b|SELECT s_a, c|SELECT x|SELECT COUNT(*)|SELECT MAX(b)"),
        slot("FROM s|FROM t|FROM u|FROM v"),
        slot("|WHERE a > 3|WHERE a > 3 AND b < 9|WHERE NOT ( a = 1 OR c >= 2 )|WHERE x != 0"),
        slot(
            "|JOIN t ON a WINDOW 8|JOIN s ON a WINDOW 1 WHERE b > 1|JOIN u ON a WINDOW 2 \
             WHERE s_a = 2 OR c < 3|JOIN v ON b WINDOW 3|WINDOW 4 TUMBLING|WINDOW 8|WINDOW 0",
        ),
    )
        .prop_map(|(a, b, c, d)| [a, b, c, d].join(" "));
    let soup = prop::collection::vec(query_fragment(), 0..24).prop_map(|p| p.join(" "));
    prop_oneof![well_formed, soup]
}

/// Catalogs of streams `s`, `t` and `u`, each keyed by `a` and holding up
/// to three more fields, every field of any valid width.
fn arb_catalog() -> impl Strategy<Value = Catalog> {
    let stream = || {
        (
            1u8..65,
            prop::collection::vec(
                (prop::sample::select(vec!["b", "c", "s_a", "x"]), 1u8..65),
                0..4,
            ),
        )
    };
    (stream(), stream(), stream()).prop_map(|(s, t, u)| {
        let mut catalog = Catalog::new();
        for (name, (key_width, extra)) in [("s", s), ("t", t), ("u", u)] {
            let mut fields = vec![Field::new("a", key_width).unwrap()];
            for (field, width) in extra {
                if fields.iter().all(|f| f.name() != field) {
                    fields.push(Field::new(field, width).unwrap());
                }
            }
            catalog.register(name, Schema::new(fields).unwrap());
        }
        catalog
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_048))]

    /// Query text reaches the planner on the admission path: any text
    /// against any catalog gets a plan or an error, never a panic.
    #[test]
    fn parse_and_bind_never_panic_on_arbitrary_text(
        text in query_text(),
        catalog in arb_catalog(),
    ) {
        if let Ok(query) = Query::parse(&text) {
            if let Ok(plan) = bind(&query, &catalog) {
                prop_assert!(plan.explain().contains("Source:"));
            }
        }
    }
}
