//! Quickstart: from a declarative query to a running stream join, twice —
//! on the FQP software fabric and as a synthesized hardware design.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use accel_landscape::fqp::manager::QueryManager;
use accel_landscape::fqp::plan::{bind, Catalog};
use accel_landscape::fqp::query::Query;
use accel_landscape::hwsim::devices;
use accel_landscape::joinhw::{DesignParams, FlowModel};
use accel_landscape::streamcore::{Field, Record, Schema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the streams.
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

    // 2. Parse and bind a continuous query (the paper's Fig. 7 example).
    let query = Query::parse(
        "SELECT age, price FROM customers WHERE age > 25 \
         JOIN products ON product_id WINDOW 1536",
    )?;
    let plan = bind(&query, &catalog)?;
    println!("query : {query}");
    println!("plan  : {} operator block(s)\n", plan.block_count());

    // 3. Deploy onto an FQP fabric and stream a few records.
    let mut fabric = QueryManager::new(8);
    let id = fabric.deploy(&plan)?;
    fabric.push("products", Record::new(vec![7, 249]))?;
    fabric.push("products", Record::new(vec![9, 999]))?;
    fabric.push("customers", Record::new(vec![7, 34, 1]))?; // matches
    fabric.push("customers", Record::new(vec![7, 19, 0]))?; // too young
    fabric.push("customers", Record::new(vec![9, 40, 0]))?; // matches
    for rec in fabric.take_results(id)? {
        println!("result: age={} price={}", rec.values()[0], rec.values()[1]);
    }

    // 4. The same join as hardware: synthesize a 16-core uni-flow design
    //    for the Virtex-5 and read the report.
    let params = DesignParams::new(FlowModel::UniFlow, 16, 1536);
    let report = params.synthesize(&devices::XC5VLX50T)?;
    println!("\n{report}");
    Ok(())
}
