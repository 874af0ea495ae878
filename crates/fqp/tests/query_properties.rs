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
        prop_assert_eq!(mgr.fabric().idle_blocks(), extra);
        mgr.undeploy(id).unwrap();
        prop_assert_eq!(mgr.fabric().idle_blocks(), plan.block_count() + extra);
    }
}
