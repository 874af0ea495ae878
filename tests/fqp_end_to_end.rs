//! End-to-end FQP pipeline: parse → bind → assign → stream → reconfigure
//! → remove, including the paper's Fig. 7 multi-query scenario.

use accel_landscape::fqp::assign::{assign, remove, AssignError};
use accel_landscape::fqp::fabric::Fabric;
use accel_landscape::fqp::landscape::{self, RepresentationalModel};
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
    let mut fabric = Fabric::new(4);
    let h1 = assign(&q1, &mut fabric).unwrap();
    let h2 = assign(&q2, &mut fabric).unwrap();
    assert_eq!(fabric.idle_blocks(), 0);

    // A fifth query cannot fit…
    let q3 = bind(&Query::parse("SELECT * FROM customers").unwrap(), &catalog).unwrap();
    assert!(matches!(
        assign(&q3, &mut fabric),
        Err(AssignError::InsufficientBlocks { .. })
    ));

    // …until query 1 is removed at runtime.
    remove(&h1, &mut fabric).unwrap();
    let h3 = assign(&q3, &mut fabric).unwrap();

    // The surviving queries keep processing.
    fabric.push("products", Record::new(vec![5, 100])).unwrap();
    fabric
        .push("customers", Record::new(vec![5, 40, 1]))
        .unwrap();
    assert_eq!(fabric.take_sink(h2.sink).unwrap().len(), 1);
    assert_eq!(fabric.take_sink(h3.sink).unwrap().len(), 1);
}

#[test]
fn micro_change_rebinds_conditions_without_redeployment() {
    let catalog = fig7_catalog();
    let plan = bind(
        &Query::parse("SELECT * FROM customers WHERE age > 25").unwrap(),
        &catalog,
    )
    .unwrap();
    let mut fabric = Fabric::new(2);
    let handle = assign(&plan, &mut fabric).unwrap();

    fabric
        .push("customers", Record::new(vec![1, 30, 0]))
        .unwrap();
    assert_eq!(fabric.take_sink(handle.sink).unwrap().len(), 1);

    // Tighten the selection on the live block (micro change).
    fabric
        .reprogram(
            handle.blocks[0],
            BlockProgram::Op(PlanOp::Select {
                conditions: vec![BoundCondition {
                    field: 1,
                    op: CmpOp::Gt,
                    value: 60,
                }],
            }),
        )
        .unwrap();
    fabric
        .push("customers", Record::new(vec![1, 30, 0]))
        .unwrap();
    fabric
        .push("customers", Record::new(vec![1, 70, 0]))
        .unwrap();
    let out = fabric.take_sink(handle.sink).unwrap();
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
    let mut fabric = Fabric::new(2);
    let handle = assign(&plan, &mut fabric).unwrap();
    // Mixed genders: only gender=1 records reach the aggregate.
    for (age, gender) in [(20u64, 1u64), (40, 0), (30, 1), (40, 1), (90, 0)] {
        fabric
            .push("customers", Record::new(vec![0, age, gender]))
            .unwrap();
    }
    let out = fabric.take_sink(handle.sink).unwrap();
    let avgs: Vec<u64> = out.iter().map(|r| r.values()[0]).collect();
    // Running averages over gender=1 ages: [20], [20,30], [20,30,40].
    assert_eq!(avgs, vec![20, 25, 30]);
}

#[test]
fn boolean_where_runs_on_the_fabric_and_the_hardware_bridge() {
    let catalog = fig7_catalog();
    // Ibex-style: "seniors or women who bought product 7".
    let plan = bind(
        &Query::parse(
            "SELECT * FROM customers WHERE age > 60 OR gender = 1 \
             JOIN products ON product_id WINDOW 16",
        )
        .unwrap(),
        &catalog,
    )
    .unwrap();

    let mut fabric = Fabric::new(2);
    let handle = assign(&plan, &mut fabric).unwrap();
    let mut hw = accel_landscape::fqp::hwbridge::deploy_to_hardware(
        &plan,
        2,
        &accel_landscape::hwsim::devices::XC7VX485T,
    )
    .unwrap();

    let product = Record::new(vec![7, 100]);
    fabric.push("products", product.clone()).unwrap();
    hw.push("products", product).unwrap();
    // (age, gender): senior male ✓, young female ✓, young male ✗.
    for (age, gender) in [(70u64, 0u64), (20, 1), (20, 0)] {
        let c = Record::new(vec![7, age, gender]);
        fabric.push("customers", c.clone()).unwrap();
        hw.push("customers", c).unwrap();
    }
    let sw = fabric.take_sink(handle.sink).unwrap();
    let hw_out = hw.finish();
    assert_eq!(sw.len(), 2);
    assert_eq!(hw_out.len(), 2);
    assert_eq!(hw.filtered(), 1);
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
    let mut fabric = Fabric::new(1);
    let handle = assign(&plan, &mut fabric).unwrap();
    for pid in [1u64, 2, 3] {
        fabric
            .push("products", Record::new(vec![pid, pid * 10]))
            .unwrap();
    }
    // Product 1 has expired from the window (capacity 2).
    fabric
        .push("customers", Record::new(vec![1, 30, 0]))
        .unwrap();
    assert!(fabric.take_sink(handle.sink).unwrap().is_empty());
    fabric
        .push("customers", Record::new(vec![3, 30, 0]))
        .unwrap();
    assert_eq!(fabric.take_sink(handle.sink).unwrap().len(), 1);
}
