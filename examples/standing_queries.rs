//! Standing queries: five continuous queries on one 2-core runtime. The
//! four `trades ⋈ quotes` joins share one engine group, a tumbling
//! `SUM(qty)` runs inline, and halfway through a zipf-skewed stream the
//! group is re-planned live onto the handshake chain without losing a
//! tuple. `crates/query/tests/concurrent.rs` checks the same fleet
//! against solo runs.
//!
//! ```sh
//! cargo run --release --example standing_queries
//! ```

use accel_landscape::prelude::*;
use accel_landscape::streamcore::workload::{KeyDist, WorkloadSpec};
use accel_landscape::streamcore::StreamTag;

const TUPLES: usize = 20_000;
const WINDOW: usize = 256;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut catalog = Catalog::new();
    catalog.register_spec("trades=sym:32,qty:32")?;
    catalog.register_spec("quotes=sym:32,px:32")?;
    let mut runtime = QueryRuntime::new(catalog, RuntimeConfig::new(2));

    // Payloads are sequence numbers, so a threshold keeps a share of the
    // stream.
    let join = || LogicalPlan::source("trades").join(LogicalPlan::source("quotes"), "sym", WINDOW);
    let (third, half) = (TUPLES as u64 / 3, TUPLES as u64 / 2);
    let fleet = [
        ("all-pairs", join()),
        ("big-qty", join().filter("qty", CmpOp::Gt, third)),
        (
            "px-view",
            join().filter("px", CmpOp::Gt, half).project(["qty", "px"]),
        ),
        ("sym-only", join().project(["sym", "px"])),
        (
            "qty-sum",
            LogicalPlan::source("trades").aggregate(
                AggFunc::Sum,
                Some("qty"),
                WINDOW,
                WindowKind::Tumbling,
            ),
        ),
    ];
    for (id, plan) in &fleet {
        println!("{id:>9} -> {}: {plan}", runtime.admit(id, plan)?);
    }

    let stream = WorkloadSpec::new(TUPLES, KeyDist::Zipf { domain: 64, s: 1.0 }).with_seed(42);
    let mut handoff = None;
    for (seq, (tag, tuple)) in stream.generate().enumerate() {
        if seq == TUPLES / 2 {
            handoff = Some(runtime.replan("all-pairs", Objective::MinLatency)?);
        }
        let name = match tag {
            StreamTag::R => "trades",
            StreamTag::S => "quotes",
        };
        runtime.push(name, tuple)?;
    }

    println!(
        "{:>9} {:>10} {:>10} {:>8} {:>8}",
        "query", "engine", "matches in", "rows", "re-plans"
    );
    for r in runtime.finish()? {
        let engine = r.engine.to_string();
        println!(
            "{:>9} {engine:>10} {:>10} {:>8} {:>8}",
            r.id, r.matches_in, r.rows_emitted, r.replans
        );
    }
    if let Some(handoff) = handoff {
        println!("re-plan: {handoff}");
    }
    Ok(())
}
