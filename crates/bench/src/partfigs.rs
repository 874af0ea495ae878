//! Partitioned-dispatch (PanJoin mode) figures: broadcast vs hash
//! speedup and skew-rebalance occupancy.
//!
//! Two sweeps, both recorded in the `partition` run manifest:
//!
//! 1. **Speedup** — wall-clock throughput of the same SplitJoin at the
//!    same core count, broadcast vs [`Partitioning::Hash`], across
//!    windows 2^16–2^20. Broadcast ships every probe to every worker and
//!    each worker scans its whole sub-window; hash dispatch routes each
//!    probe to the single partition owner, which walks only the matching
//!    key chain. The per-probe work drops from `O(window)` to
//!    `O(matches)`, so the ratio grows with the window; each arm's
//!    comparisons land beside its rate (`w2e{exp}.<arm>_comparisons`).
//! 2. **Occupancy** — a zipf(s=1.0, domain 8) feed with *no* warm-up
//!    prefill, measuring [`PartitionStats::balance`] (max/mean live
//!    occupancy over live workers, `zipf.<variant>.occupancy_ratio` in
//!    the manifest)
//!    with the hot-key splitter enabled versus disabled (`nosplit`, the
//!    splitter's threshold pushed out of reach). A rebalanced run keeps
//!    the ratio low; the nosplit run shows the skew the sketch removes.
//!
//! Both honor the shared CLI options ([`FigOpts`]): `--batch`,
//! `--cores` (first value is the sweep's core count), and `--windows`
//! reshape the speedup sweep. The walkthrough in
//! `docs/PARTITIONING.md` reproduces these numbers step by step.

use joinsw::config::Partitioning;
use joinsw::harness::{host_parallelism, measure_throughput};
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use joinsw::{JoinParams, StreamJoin};
use obs::RunManifest;
use streamcore::workload::{KeyDist, WorkloadSpec};

use crate::opts::FigOpts;
use crate::swfigs::comparisons;
use crate::table::Table;

const KEY_DOMAIN: u32 = 1 << 20;

/// Skew exponent of the occupancy sweep: classic Zipf, the paper's
/// "few sensors dominate" regime.
const ZIPF_S: f64 = 1.0;
/// Distinct keys in the occupancy sweep — few enough that one owner
/// would hold a third of both windows without hot splitting.
const ZIPF_DOMAIN: u32 = 8;
/// Window of the occupancy sweep.
const ZIPF_WINDOW: usize = 1 << 12;
/// Sketch warm-up for the occupancy sweep: promote after this many
/// routed tuples instead of the production default, so a 3-window feed
/// rebalances early enough to show up in final occupancy.
const ZIPF_HOT_SAMPLE: u64 = 256;

/// Comparison budget per broadcast point (matches the fig14d budget
/// shape); the partitioned arm replays the same tuple count so the two
/// rates divide cleanly.
const COMPARISON_BUDGET: u64 = 100_000_000;

fn tuples_for(window: usize) -> u64 {
    (COMPARISON_BUDGET / window as u64).clamp(8, 4_096)
}

/// The partition figure: the speedup and occupancy tables.
pub fn partition(opts: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = crate::obsout::manifest("partition");
    m.config("host_parallelism", host_parallelism());
    m.config("batch_size", opts.batch_size);
    let speedup = speedup_sweep(opts, &mut m);
    let occupancy = occupancy_sweep(opts, &mut m);
    (vec![speedup, occupancy], m)
}

fn sweep_cores(opts: &FigOpts) -> usize {
    opts.cores
        .as_ref()
        .and_then(|c| c.first().copied())
        .unwrap_or(4)
}

/// Broadcast vs hash-partitioned wall-clock throughput, windows
/// 2^16–2^20 (or `--windows`), at one core count.
fn speedup_sweep(opts: &FigOpts, m: &mut RunManifest) -> Table {
    let exponents = opts.windows.clone().unwrap_or(16..=20);
    let cores = sweep_cores(opts);
    let batch = opts.batch_size;
    let mut t = Table::new(
        format!("Partition figure — broadcast vs hash dispatch, {cores} cores (M tuples/s)"),
        &["window", "broadcast", "partitioned", "speedup"],
    );
    m.config("speedup.cores", cores);
    for exp in exponents {
        let window = 1usize << exp;
        let tuples = tuples_for(window);
        // Both arms name their dispatch mode: the A/B reads as one.
        let [broadcast, partitioned] = [
            ("broadcast", Partitioning::Broadcast),
            ("partitioned", Partitioning::Hash),
        ]
        .map(|(arm, mode)| {
            let (rate, outcome) = measure_throughput::<SplitJoin>(
                SplitJoinConfig::new(cores, window)
                    .with_batch_size(batch)
                    .with_partitioning(mode)
                    .counting_only(),
                tuples,
                KEY_DOMAIN,
            )
            .expect("partition speedup run failed");
            let mtps = rate.million_per_second();
            m.config(format!("w2e{exp}.{arm}_mtps"), format!("{mtps:.5}"));
            m.counter(format!("w2e{exp}.{arm}_comparisons"), comparisons(&outcome));
            mtps
        });
        let speedup = partitioned / broadcast;
        m.config(format!("w2e{exp}.speedup"), format!("{speedup:.1}"));
        t.row(vec![
            format!("2^{exp}"),
            format!("{broadcast:.5}"),
            format!("{partitioned:.5}"),
            format!("{speedup:.1}x"),
        ]);
    }
    t.note(
        "both columns wall-clock on this host; broadcast probes scan the \
         whole sub-window, hash probes walk one key chain",
    );
    t.note(format!("distribution batch size: {batch}"));
    t
}

/// Runs one occupancy-sweep arm and returns the final
/// max/mean-occupancy ratio and the number of hot splits.
fn occupancy_arm(
    config: SplitJoinConfig,
    inputs: &[(streamcore::StreamTag, streamcore::Tuple)],
) -> (f64, u64) {
    let batch = config.batch_size;
    let join = SplitJoin::spawn(config);
    for chunk in inputs.chunks(batch.max(1)) {
        join.process_batch(chunk).expect("occupancy feed failed");
    }
    join.flush().expect("occupancy flush failed");
    let outcome = join.shutdown().expect("occupancy shutdown failed");
    assert!(!outcome.fault.degraded(), "occupancy run degraded");
    let stats = outcome
        .partition_stats
        .expect("hash dispatch reports partition stats");
    (stats.balance(), stats.hot_splits)
}

/// Skew sweep: zipf(1.0) over 8 keys, no warm-up prefill, splitter on
/// vs off, measuring the final max/mean live-occupancy ratio.
fn occupancy_sweep(opts: &FigOpts, m: &mut RunManifest) -> Table {
    let cores = sweep_cores(opts);
    let batch = opts.batch_size;
    let tuples = 3 * ZIPF_WINDOW;
    let inputs: Vec<_> = WorkloadSpec::new(
        tuples,
        KeyDist::Zipf {
            domain: ZIPF_DOMAIN,
            s: ZIPF_S,
        },
    )
    .with_seed(7)
    .generate()
    .collect();
    let base = SplitJoinConfig::new(cores, ZIPF_WINDOW)
        .with_batch_size(batch)
        .with_partitioning(Partitioning::Hash)
        .counting_only();
    let (split_ratio, hot_splits) =
        occupancy_arm(base.clone().with_hot_sample(ZIPF_HOT_SAMPLE), &inputs);
    // Threshold out of reach: the sketch never promotes, owners keep
    // every tuple of their keys.
    let (nosplit_ratio, nosplit_hot) = occupancy_arm(base.with_hot_key_factor(1e9), &inputs);
    assert_eq!(nosplit_hot, 0, "nosplit arm must not split");
    assert!(hot_splits > 0, "split arm should promote at least one key");
    let mut t = Table::new(
        format!(
            "Partition figure — zipf(s={ZIPF_S}) occupancy ratio (max/mean), \
             {cores} cores, window 2^12"
        ),
        &["variant", "occupancy max/mean", "hot splits"],
    );
    for (variant, ratio, splits) in [
        ("partitioned", split_ratio, hot_splits),
        ("nosplit", nosplit_ratio, nosplit_hot),
    ] {
        m.config(
            format!("zipf.{variant}.occupancy_ratio"),
            format!("{ratio:.3}"),
        );
        m.counter(format!("zipf.{variant}.hot_splits"), splits);
        t.row(vec![
            variant.into(),
            format!("{ratio:.3}"),
            splits.to_string(),
        ]);
    }
    t.note(format!(
        "zipf feed: {tuples} tuples over {ZIPF_DOMAIN} keys, no warm-up \
         prefill, sketch warm-up {ZIPF_HOT_SAMPLE} tuples; lower is flatter"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The float recorded under config key `key`.
    fn config_f64(m: &RunManifest, key: &str) -> f64 {
        let entry = m.config_entries().iter().find(|(k, _)| k == key);
        entry
            .unwrap_or_else(|| panic!("{key} missing"))
            .1
            .parse()
            .unwrap()
    }

    #[test]
    fn small_speedup_sweep_shows_partitioned_ahead() {
        let opts = FigOpts {
            cores: Some(vec![2]),
            windows: Some(10..=11),
            ..FigOpts::default()
        };
        let mut m = crate::obsout::manifest("partition-test");
        let t = speedup_sweep(&opts, &mut m);
        assert_eq!(t.len(), 2);
        // Work, not wall clock: a broadcast probe scans a whole
        // sub-window, a hash probe walks one key chain.
        for exp in [10, 11] {
            let work = |arm: &str| m.counters().get(&format!("w2e{exp}.{arm}_comparisons"));
            let (broadcast, partitioned) =
                (work("broadcast").unwrap(), work("partitioned").unwrap());
            assert!(
                partitioned < broadcast,
                "hash dispatch should compare fewer pairs at 2^{exp}: \
                 {partitioned} vs {broadcast}"
            );
        }
    }

    #[test]
    fn occupancy_sweep_rebalances_the_zipf_feed() {
        let opts = FigOpts {
            cores: Some(vec![4]),
            ..FigOpts::default()
        };
        let mut m = crate::obsout::manifest("partition-test");
        let t = occupancy_sweep(&opts, &mut m);
        assert_eq!(t.len(), 2);
        let split = config_f64(&m, "zipf.partitioned.occupancy_ratio");
        let nosplit = config_f64(&m, "zipf.nosplit.occupancy_ratio");
        assert!(
            split < nosplit,
            "hot splitting should flatten occupancy: {split} vs {nosplit}"
        );
        assert!(split < 2.0, "rebalanced ratio {split} >= 2");
    }
}
