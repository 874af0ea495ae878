//! The active data path (paper Section II): pushing computation toward
//! the data source. The same alert filter is placed at each stage of a
//! producer→switch→storage→memory→consumer path in turn, and the measured
//! per-link traffic shows why co-placement on the data path pays.
//!
//! ```sh
//! cargo run --example active_datapath
//! ```

use accel_landscape::fqp::datapath::canonical_path;
use accel_landscape::fqp::plan::{BoundCondition, PlanOp};
use accel_landscape::fqp::query::CmpOp;
use accel_landscape::streamcore::Record;

fn main() {
    let filter = PlanOp::Select {
        conditions: vec![BoundCondition {
            field: 0,
            op: CmpOp::Gt,
            value: 90,
        }],
    };
    let events = 10_000u64;

    println!("alert filter (value > 90) placed at each path stage in turn;");
    println!("{events} sensor events pushed through a 5-stage path\n");
    println!(
        "{:<22} {:>14} {:>12} {:>10}",
        "filter placement", "link traffic", "total hops", "delivered"
    );

    for stage in 0..5usize {
        let mut path = canonical_path();
        let (name, kind, _) = path.stages()[stage].clone();
        path.activate(stage, filter.clone()).expect("stage exists");
        for i in 0..events {
            path.push(Record::new(vec![i % 100]));
        }
        println!(
            "{:<22} {:>14} {:>12} {:>10}",
            format!("{name} ({kind})"),
            format!("{:?}", path.link_traffic()),
            path.total_traffic(),
            path.delivered().len()
        );
    }

    println!(
        "\nevery placement delivers the same results; at this selectivity the \
         source-side filter moves ~11x less data than the consumer-side one"
    );
    println!("(the co-placement system model of the paper's Section II)");
}
