//! Dynamic re-query: the property that motivates FQP (paper Fig. 6).
//! Queries are added, modified, and removed on a *live* fabric — no
//! synthesis, no halt, no dropped records.
//!
//! ```sh
//! cargo run --example dynamic_requery
//! ```

use std::time::Instant;

use accel_landscape::fqp::manager::QueryManager;
use accel_landscape::fqp::opblock::BlockProgram;
use accel_landscape::fqp::plan::{bind, BoundCondition, Catalog, PlanOp};
use accel_landscape::fqp::query::{CmpOp, Query};
use accel_landscape::fqp::reconfig::DeploymentPath;
use accel_landscape::streamcore::{Field, Record, Schema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut catalog = Catalog::new();
    catalog.register(
        "readings",
        Schema::new(vec![Field::new("sensor", 32)?, Field::new("value", 32)?])?,
    );
    let mut fabric = QueryManager::new(8);

    // Deploy an alerting query.
    let plan = bind(
        &Query::parse("SELECT sensor FROM readings WHERE value > 90")?,
        &catalog,
    )?;
    let t0 = Instant::now();
    let id = fabric.deploy(&plan)?;
    println!("deployed alert query in {:?}", t0.elapsed());

    let push_batch = |fabric: &mut QueryManager, base: u64| {
        for i in 0..500u64 {
            fabric
                .push("readings", Record::new(vec![i % 16, (base + i) % 120]))
                .expect("stream bound");
        }
    };
    push_batch(&mut fabric, 0);
    println!("alerts at threshold 90: {}", fabric.take_results(id)?.len());

    // Micro change: tighten the threshold on the LIVE block (the query's
    // first operator).
    let t0 = Instant::now();
    fabric.reprogram(
        id,
        0,
        BlockProgram::Op(PlanOp::Select {
            conditions: vec![BoundCondition {
                field: 1,
                op: CmpOp::Gt,
                value: 110,
            }],
        }),
    )?;
    let d = t0.elapsed();
    println!("\nreprogrammed threshold 90 -> 110 in {d:?} (no halt)");
    push_batch(&mut fabric, 0);
    let alerts_at_110 = fabric.take_results(id)?.len();
    println!("alerts at threshold 110: {alerts_at_110}");

    // Remove the query entirely, with one more batch it has not taken:
    // undeploy hands those alerts back and every block returns to the pool.
    push_batch(&mut fabric, 0);
    let untaken = fabric.undeploy(id)?;
    assert_eq!(
        untaken.len(),
        alerts_at_110,
        "undeploy returns the untaken alerts"
    );
    assert_eq!(fabric.idle_blocks(), 8, "every block is idle again");
    println!(
        "\nquery removed with {} untaken alerts; idle blocks: {}",
        untaken.len(),
        fabric.idle_blocks()
    );

    // Contrast with the synthesis-based deployment paths of Fig. 6.
    println!("\ndeployment-path comparison (modeled, Fig. 6):");
    for (name, path) in [
        ("hardware redesign", DeploymentPath::HardwareRedesign),
        ("re-synthesis     ", DeploymentPath::ReSynthesis),
        ("FQP remap        ", DeploymentPath::FqpRemap),
    ] {
        println!(
            "  {name}: {:?} .. {:?}  halt: {}",
            path.min_total(),
            path.max_total(),
            path.requires_halt()
        );
    }
    Ok(())
}
