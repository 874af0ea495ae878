//! IoT real-time analytics — the paper's motivating scenario: skewed
//! sensor feeds joined against a second stream in real time, on the
//! multithreaded software SplitJoin.
//!
//! Two streams: R carries temperature readings (keyed by sensor id,
//! Zipf-skewed: a few sensors dominate), S carries threshold updates from
//! the control plane. The equi-join pairs every reading with the current
//! window of threshold updates for the same sensor.
//!
//! ```sh
//! cargo run --release --example iot_analytics
//! ```

use std::time::Instant;

use accel_landscape::joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use accel_landscape::joinsw::StreamJoin;
use accel_landscape::streamcore::workload::{KeyDist, WorkloadSpec};
use accel_landscape::streamcore::StreamTag;

fn main() {
    let sensors = 4_096;
    let window = 1 << 12;
    let cores = 4;
    let events = 40_000;

    println!("IoT scenario: {sensors} sensors, window {window}, {cores} join cores");

    let workload = WorkloadSpec::new(
        events,
        KeyDist::Zipf {
            domain: sensors,
            s: 1.1,
        },
    )
    .with_seed(7);

    let join = SplitJoin::spawn(SplitJoinConfig::new(cores, window));
    let start = Instant::now();
    let batch: Vec<_> = workload.generate().collect();
    for chunk in batch.chunks(512) {
        join.process_batch(chunk).expect("join died");
    }
    join.flush().expect("join died");
    let elapsed = start.elapsed();
    let outcome = join.shutdown().expect("join died");

    let readings = batch.iter().filter(|(tag, _)| *tag == StreamTag::R).count();
    println!(
        "processed {events} events ({readings} readings) in {elapsed:?} \
         -> {:.3} M events/s",
        events as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!("matched reading/threshold pairs: {}", outcome.result_count);

    // Skew: the hottest sensor should dominate the match count.
    let mut per_sensor = std::collections::HashMap::new();
    for m in &outcome.results {
        *per_sensor.entry(m.r.key()).or_insert(0u64) += 1;
    }
    let mut hot: Vec<_> = per_sensor.into_iter().collect();
    hot.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("hottest sensors by matched pairs:");
    for (sensor, n) in hot.into_iter().take(5) {
        println!("  sensor {sensor:>5}: {n} pairs");
    }
}
