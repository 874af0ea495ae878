//! Navigating the acceleration landscape. Given a query workload, this
//! example
//!
//! 1. deploys the queries with inter-query sharing (the paper's open
//!    problem #4 — multi-query optimization), and
//! 2. prints the Section II landscape catalog.
//!
//! ```sh
//! cargo run --example landscape_navigator
//! ```

use accel_landscape::fqp::landscape;
use accel_landscape::fqp::manager::QueryManager;
use accel_landscape::fqp::plan::{bind, Catalog, Plan};
use accel_landscape::fqp::query::Query;
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

    // 1. Deploy with sharing.
    let mut mgr = QueryManager::new(8);
    let ids: Vec<_> = plans
        .iter()
        .map(|p| mgr.deploy(p).expect("fits the pool"))
        .collect();
    let report = mgr.sharing_report();
    println!(
        "-- deployed: {} queries on {} blocks ({} saved by sharing) --",
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

    // 2. The taxonomy itself.
    println!("\n-- Section II landscape catalog --");
    for s in landscape::catalog() {
        println!("  {s}");
    }
    Ok(())
}
