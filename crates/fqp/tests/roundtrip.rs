//! Plan → reconfigure round-trips: binding is canonical over equivalent
//! queries; re-planning a deployed query (undeploy + redeploy, the FQP
//! runtime-remap path) reproduces the original results exactly; and
//! malformed queries are rejected with typed [`PlanError`]s, never
//! panics.

use fqp::manager::QueryManager;
use fqp::plan::{bind, Catalog, Plan, PlanError, MAX_TRUTH_TABLE_ATOMS};
use fqp::query::Query;
use streamcore::Record;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register_spec("customers=product_id:32,age:8").unwrap();
    c.register_spec("products=product_id:32,price:32").unwrap();
    c
}

fn plan_of(text: &str) -> Plan {
    bind(&Query::parse(text).unwrap(), &catalog()).unwrap()
}

const JOIN_QUERY: &str =
    "SELECT * FROM customers WHERE age > 25 JOIN products ON product_id WINDOW 1024";

#[test]
fn equal_plans_bind_identically_regardless_of_origin() {
    // The same logical query arrives once via the text parser and once
    // re-parsed from its canonical rendering; binding must converge to
    // the same plan.
    let parsed = Query::parse(JOIN_QUERY).unwrap();
    let reparsed = Query::parse(&parsed.to_string()).unwrap();
    let a = bind(&parsed, &catalog()).unwrap();
    let b = bind(&reparsed, &catalog()).unwrap();
    assert_eq!(
        a.ops, b.ops,
        "bind must be canonical over equivalent queries"
    );
}

#[test]
fn redeploying_a_query_reproduces_its_results_exactly() {
    // The FQP re-plan path: undeploy + redeploy onto the same fabric
    // (runtime block reprogramming, no halt). A fresh deployment of the
    // same plan over the same inputs must produce identical results.
    let plan = plan_of(JOIN_QUERY);
    let feed = |mgr: &mut QueryManager, id| {
        for k in 0..16u64 {
            mgr.push("products", Record::new(vec![k, 100 + k])).unwrap();
            mgr.push("customers", Record::new(vec![k, 30 + (k % 8)]))
                .unwrap();
        }
        mgr.take_results(id).unwrap()
    };

    let mut mgr = QueryManager::new(4);
    let first_id = mgr.deploy(&plan).unwrap();
    let first = feed(&mut mgr, first_id);
    assert!(!first.is_empty(), "the probe workload must match");

    mgr.undeploy(first_id).unwrap();
    let second_id = mgr.deploy(&plan).unwrap();
    let second = feed(&mut mgr, second_id);
    assert_eq!(
        first, second,
        "redeployed query diverged from its first run"
    );
}

#[test]
fn replanning_between_windows_keeps_the_narrow_results_a_subset() {
    // Re-plan to a wider window: every match the narrow deployment made
    // must survive (the wider window only admits more pairs).
    let narrow = plan_of("SELECT * FROM customers JOIN products ON product_id WINDOW 4");
    let wide = plan_of("SELECT * FROM customers JOIN products ON product_id WINDOW 1024");
    let feed = |mgr: &mut QueryManager, id| {
        for k in 0..32u64 {
            mgr.push("products", Record::new(vec![k % 8, k])).unwrap();
            mgr.push("customers", Record::new(vec![k % 8, k])).unwrap();
        }
        mgr.take_results(id).unwrap()
    };
    let mut mgr = QueryManager::new(4);
    let id = mgr.deploy(&narrow).unwrap();
    let narrow_rows = feed(&mut mgr, id);
    mgr.undeploy(id).unwrap();
    let id = mgr.deploy(&wide).unwrap();
    let wide_rows = feed(&mut mgr, id);
    assert!(narrow_rows.len() < wide_rows.len());
    for row in &narrow_rows {
        assert!(wide_rows.contains(row), "wider window lost {row:?}");
    }
}

#[test]
fn binding_rejects_malformed_queries_with_typed_errors() {
    let c = catalog();

    let unknown_stream = Query::parse("SELECT * FROM orders").unwrap();
    assert_eq!(
        bind(&unknown_stream, &c).unwrap_err(),
        PlanError::UnknownStream {
            stream: "orders".into()
        }
    );

    let unknown_join_stream =
        Query::parse("SELECT * FROM customers JOIN orders ON product_id WINDOW 8").unwrap();
    assert_eq!(
        bind(&unknown_join_stream, &c).unwrap_err(),
        PlanError::UnknownStream {
            stream: "orders".into()
        }
    );

    let unknown_field = Query::parse("SELECT * FROM customers WHERE height > 10").unwrap();
    assert!(matches!(
        bind(&unknown_field, &c).unwrap_err(),
        PlanError::UnknownField { ref field, .. } if field == "height"
    ));

    let unknown_projection = Query::parse("SELECT height FROM customers").unwrap();
    assert!(matches!(
        bind(&unknown_projection, &c).unwrap_err(),
        PlanError::UnknownField { ref field, .. } if field == "height"
    ));

    // One atom past the truth-table capacity, expressed with OR so the
    // clause cannot collapse into a plain conjunction.
    let clause = (0..=MAX_TRUTH_TABLE_ATOMS)
        .map(|i| format!("age > {i}"))
        .collect::<Vec<_>>()
        .join(" OR ");
    let too_wide = Query::parse(&format!("SELECT * FROM customers WHERE {clause}")).unwrap();
    assert_eq!(
        bind(&too_wide, &c).unwrap_err(),
        PlanError::TooManyAtoms {
            atoms: MAX_TRUTH_TABLE_ATOMS + 1,
            max: MAX_TRUTH_TABLE_ATOMS
        }
    );
}
