//! End-to-end FQP pipeline: parse → bind → deploy → stream → reprogram
//! → undeploy, including the paper's Fig. 7 multi-query scenario.

use accel_landscape::fqp::landscape::{self, RepresentationalModel};
use accel_landscape::fqp::manager::{AssignError, QueryManager};
use accel_landscape::fqp::opblock::BlockProgram;
use accel_landscape::fqp::plan::{bind, BoundCondition, Catalog, PlanOp};
use accel_landscape::fqp::query::{CmpOp, Query};
use accel_landscape::streamcore::{Field, Record, Schema};

fn fig7_catalog() -> Catalog {
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

#[test]
fn fig7_multi_query_lifecycle() {
    let catalog = fig7_catalog();
    let q1 = bind(
        &Query::parse(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 1536",
        )
        .unwrap(),
        &catalog,
    )
    .unwrap();
    let q2 = bind(
        &Query::parse(
            "SELECT * FROM customers WHERE age > 25 AND gender = 1 \
             JOIN products ON product_id WINDOW 2048",
        )
        .unwrap(),
        &catalog,
    )
    .unwrap();

    // Four OP-Blocks suffice for both queries — the Fig. 7 layout.
    let mut mgr = QueryManager::new(4);
    let h1 = mgr.deploy(&q1).unwrap();
    let h2 = mgr.deploy(&q2).unwrap();
    assert_eq!(mgr.idle_blocks(), 0);

    // A fifth query cannot fit…
    let q3 = bind(&Query::parse("SELECT * FROM customers").unwrap(), &catalog).unwrap();
    assert!(matches!(
        mgr.deploy(&q3),
        Err(AssignError::InsufficientBlocks { .. })
    ));

    // …until query 1 is removed at runtime.
    mgr.undeploy(h1).unwrap();
    let h3 = mgr.deploy(&q3).unwrap();

    // The surviving queries keep processing.
    mgr.push("products", Record::new(vec![5, 100])).unwrap();
    mgr.push("customers", Record::new(vec![5, 40, 1])).unwrap();
    assert_eq!(mgr.take_results(h2).unwrap().len(), 1);
    assert_eq!(mgr.take_results(h3).unwrap().len(), 1);
}

#[test]
fn micro_change_rebinds_conditions_without_redeployment() {
    let catalog = fig7_catalog();
    let plan = bind(
        &Query::parse("SELECT * FROM customers WHERE age > 25").unwrap(),
        &catalog,
    )
    .unwrap();
    let mut mgr = QueryManager::new(2);
    let id = mgr.deploy(&plan).unwrap();

    mgr.push("customers", Record::new(vec![1, 30, 0])).unwrap();
    assert_eq!(mgr.take_results(id).unwrap().len(), 1);

    // Tighten the selection on the live block (micro change).
    mgr.reprogram(
        id,
        0,
        BlockProgram::Op(PlanOp::Select {
            conditions: vec![BoundCondition {
                field: 1,
                op: CmpOp::Gt,
                value: 60,
            }],
        }),
    )
    .unwrap();
    mgr.push("customers", Record::new(vec![1, 30, 0])).unwrap();
    mgr.push("customers", Record::new(vec![1, 70, 0])).unwrap();
    let out = mgr.take_results(id).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].values()[1], 70);
}

#[test]
fn aggregate_query_runs_end_to_end() {
    let catalog = fig7_catalog();
    let plan = bind(
        &Query::parse("SELECT AVG(age) FROM customers WHERE gender = 1 WINDOW 4").unwrap(),
        &catalog,
    )
    .unwrap();
    let mut mgr = QueryManager::new(2);
    let id = mgr.deploy(&plan).unwrap();
    // Mixed genders: only gender=1 records reach the aggregate.
    for (age, gender) in [(20u64, 1u64), (40, 0), (30, 1), (40, 1), (90, 0)] {
        mgr.push("customers", Record::new(vec![0, age, gender]))
            .unwrap();
    }
    let out = mgr.take_results(id).unwrap();
    let avgs: Vec<u64> = out.iter().map(|r| r.values()[0]).collect();
    // Running averages over gender=1 ages: [20], [20,30], [20,30,40].
    assert_eq!(avgs, vec![20, 25, 30]);
}

#[test]
fn landscape_places_fqp_at_maximum_dynamism() {
    let fqp = landscape::find("FQP").expect("FQP in catalog");
    assert_eq!(
        fqp.representation,
        RepresentationalModel::ParametrizedTopology
    );
    // Everything this integration test just exercised — runtime operator
    // changes (micro) and topology changes (macro) — is exactly what that
    // classification asserts.
}

#[test]
fn join_windows_slide_inside_the_fabric() {
    let catalog = fig7_catalog();
    let plan = bind(
        &Query::parse("SELECT * FROM customers JOIN products ON product_id WINDOW 2").unwrap(),
        &catalog,
    )
    .unwrap();
    let mut mgr = QueryManager::new(1);
    let id = mgr.deploy(&plan).unwrap();
    for pid in [1u64, 2, 3] {
        mgr.push("products", Record::new(vec![pid, pid * 10]))
            .unwrap();
    }
    // Product 1 has expired from the window (capacity 2).
    mgr.push("customers", Record::new(vec![1, 30, 0])).unwrap();
    assert!(mgr.take_results(id).unwrap().is_empty());
    mgr.push("customers", Record::new(vec![3, 30, 0])).unwrap();
    assert_eq!(mgr.take_results(id).unwrap().len(), 1);
}
