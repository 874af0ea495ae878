//! Before/after baseline for the batched SplitJoin data path. Run with
//! --release.
//!
//! Measures the same 4-core workload twice — once with the unbatched
//! message-per-tuple distribution (`batch_size = 1`, the data path this
//! repo shipped before batching) and once with the batched default — and
//! records both points plus their ratio into `BENCH_swjoin.json`. The
//! committed copy of that file at the repo root is the recorded
//! before/after evidence; regenerate it with
//! `cargo run --release -p bench --bin swjoin_baseline` (optionally
//! `--cores`, `--windows`, `--batch` to vary the sweep).

use joinsw::harness::{host_parallelism, measure_throughput_with};
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};

use bench::swjoin::{SwJoinEntry, SwRunOpts};

fn main() {
    let opts = SwRunOpts::from_args();
    let cores = opts.cores.clone().unwrap_or_else(|| vec![4]);
    let windows = opts.windows.clone().unwrap_or(8..=12);
    let batched = opts.batch_size;
    let tuples = 20_000u64;
    let mut t = bench::Table::new(
        "Batched vs unbatched SplitJoin data path (measured wall-clock)",
        &["cores", "window", "batch=1 Mt/s", &format!("batch={batched} Mt/s"), "speedup"],
    );
    let mut entries = Vec::new();
    for &n in &cores {
        for exp in windows.clone() {
            let window = 1usize << exp;
            let mut point = |batch: usize| {
                let (rate, outcome) = measure_throughput_with::<SplitJoin>(
                    SplitJoinConfig::new(n, window).with_batch_size(batch),
                    tuples,
                    1 << 20,
                )
                .expect("swjoin_baseline run failed");
                let mtps = rate.million_per_second();
                entries.push(SwJoinEntry {
                    figure: "fig14d".into(),
                    variant: "splitjoin".into(),
                    cores: n,
                    window,
                    batch_size: batch,
                    tuples,
                    metric: "throughput_mtps".into(),
                    value: mtps,
                    mode: "measured".into(),
                });
                (mtps, outcome.batch_sizes.total())
            };
            let (slow, slow_msgs) = point(1);
            let (fast, fast_msgs) = point(batched);
            t.row(vec![
                n.to_string(),
                format!("2^{exp}"),
                format!("{slow:.5}"),
                format!("{fast:.5}"),
                format!("{:.2}x", fast / slow),
            ]);
            eprintln!(
                "cores={n} window=2^{exp}: {slow_msgs} batch messages unbatched, \
                 {fast_msgs} batched"
            );
        }
    }
    t.note(format!(
        "host parallelism: {}; both variants run the same threads on the same \
         workload, so the ratio isolates the data-path cost",
        host_parallelism()
    ));
    println!("{t}");
    bench::swjoin::record(&entries);
}
