//! Navigating the acceleration landscape: the paper's open problems as
//! working code. Given a query workload, this example
//!
//! 1. sizes an FQP fabric for it and checks the estimate against both of
//!    the paper's FPGAs (open problem #3 — initial topology),
//! 2. deploys the queries with inter-query sharing (open problem #4 —
//!    multi-query optimization),
//! 3. re-optimizes a live selection from collected statistics (open
//!    problem #2), and
//! 4. places a heavy query across heterogeneous sites (open problem #5),
//!    classifying the result in the Section II taxonomy.
//!
//! ```sh
//! cargo run --example landscape_navigator
//! ```

use accel_landscape::fqp::landscape;
use accel_landscape::fqp::manager::QueryManager;
use accel_landscape::fqp::placement::{default_sites, place, Objective};
use accel_landscape::fqp::plan::{bind, Catalog, Plan};
use accel_landscape::fqp::provision::provision;
use accel_landscape::fqp::query::Query;
use accel_landscape::hwsim::devices;
use accel_landscape::streamcore::{Field, Record, Schema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut catalog = Catalog::new();
    catalog.register(
        "customers",
        Schema::new(vec![
            Field::new("product_id", 32)?,
            Field::new("age", 8)?,
            Field::new("gender", 1)?,
        ])?,
    );
    catalog.register(
        "products",
        Schema::new(vec![
            Field::new("product_id", 32)?,
            Field::new("price", 32)?,
        ])?,
    );

    let texts = [
        "SELECT * FROM customers WHERE age > 25 JOIN products ON product_id WINDOW 1536",
        "SELECT * FROM customers WHERE age > 25 JOIN products ON product_id WINDOW 2048",
        "SELECT COUNT(*) FROM customers WHERE age > 25 WINDOW 4096",
    ];
    let plans: Vec<Plan> = texts
        .iter()
        .map(|t| bind(&Query::parse(t).expect("valid query"), &catalog).expect("binds"))
        .collect();

    // 1. Provision.
    println!("-- provisioning ({} queries) --", plans.len());
    for device in [&devices::XC5VLX50T, &devices::XC7VX485T] {
        match provision(&plans, 64, device) {
            Ok(spec) => println!(
                "{}: {} blocks shared ({} unshared, {} saved), LUT {:.1}% BRAM {:.1}%",
                device,
                spec.blocks_shared,
                spec.blocks_unshared,
                spec.blocks_saved(),
                spec.utilization.lut_percent(),
                spec.utilization.bram_percent()
            ),
            Err(e) => println!("{device}: does not fit ({e})"),
        }
    }

    // 2. Deploy with sharing.
    let mut mgr = QueryManager::new(8);
    let ids: Vec<_> = plans
        .iter()
        .map(|p| mgr.deploy(p).expect("fits the pool"))
        .collect();
    let report = mgr.sharing_report();
    println!(
        "\n-- deployed: {} queries on {} blocks ({} saved by sharing) --",
        report.queries,
        report.blocks_in_use,
        report.blocks_saved()
    );
    mgr.push("products", Record::new(vec![7, 100]))?;
    for age in [20u64, 30, 40, 52] {
        mgr.push("customers", Record::new(vec![7, age, age % 2]))?;
    }
    for (id, text) in ids.iter().zip(texts) {
        println!(
            "  {} -> {} results   [{text}]",
            id,
            mgr.take_results(*id)?.len()
        );
    }

    // 3. Statistics-driven re-optimization on a fresh fabric.
    println!("\n-- statistics-driven select re-optimization --");
    use accel_landscape::fqp::fabric::{Fabric, Target};
    use accel_landscape::fqp::opblock::{BlockId, BlockProgram, Port};
    use accel_landscape::fqp::plan::{BoundCondition, PlanOp};
    use accel_landscape::fqp::query::CmpOp;
    let mut fabric = Fabric::new(1);
    let sink = fabric.add_sink();
    fabric.reprogram(
        BlockId(0),
        BlockProgram::Op(PlanOp::Select {
            conditions: vec![
                BoundCondition {
                    field: 1,
                    op: CmpOp::Ge,
                    value: 0,
                }, // always true
                BoundCondition {
                    field: 1,
                    op: CmpOp::Gt,
                    value: 95,
                }, // selective
            ],
        }),
    )?;
    fabric.bind_stream("s", BlockId(0), Port::Left);
    fabric.connect(BlockId(0), Target::Sink(sink))?;
    for v in 0..1_000u64 {
        fabric.push("s", Record::new(vec![0, v % 100]))?;
    }
    let evals: u64 = fabric
        .block(BlockId(0))?
        .condition_stats()
        .iter()
        .map(|s| s.0)
        .sum();
    println!("  before: {evals} condition evaluations / 1000 records");
    fabric.reoptimize_select(BlockId(0))?;
    for v in 0..1_000u64 {
        fabric.push("s", Record::new(vec![0, v % 100]))?;
    }
    let evals: u64 = fabric
        .block(BlockId(0))?
        .condition_stats()
        .iter()
        .map(|s| s.0)
        .sum();
    println!("  after : {evals} condition evaluations / 1000 records");

    // 4. Heterogeneous placement.
    println!("\n-- heterogeneous placement of the window-1536 join --");
    let sites = default_sites();
    for objective in [Objective::MaxThroughput, Objective::MinLatency] {
        let p = place(&plans[0], &sites, objective);
        let names: Vec<&str> = p.sites.iter().map(|&s| sites[s].name.as_str()).collect();
        println!(
            "  {objective:?}: {names:?} -> {:.2} Mt/s, {:.1} us  ({:?} model)",
            p.throughput_tps / 1e6,
            p.latency_us,
            p.system_model(&sites)
        );
    }

    // The taxonomy itself.
    println!("\n-- Section II landscape catalog --");
    for s in landscape::catalog() {
        println!("  {s}");
    }
    Ok(())
}
