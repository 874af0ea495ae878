//! Software-side figures: 14d (throughput), 16 (latency), and the two
//! handshake-chain ablations (uni-flow vs bi-flow, ordering precision).
//!
//! The paper measured these on a 32-core Dell R820. The harness measures
//! what the host *can* measure honestly — single-core rates and real
//! multi-thread coordination overhead — and, on a host narrower than the
//! sweep's core counts, models the multi-core scaling with the calibrated
//! efficiency factor from [`joinsw::harness::PARALLEL_EFFICIENCY`]. A
//! modeled value never shares a name with a measured one: its table
//! column says `(modeled)` and its manifest key carries `_modeled`. On a
//! many-core host the same figures measure the multi-thread numbers
//! directly.
//!
//! The three sweeps honor the shared CLI options ([`FigOpts`]): `--batch`
//! selects the distribution batch size, `--cores`/`--windows`/`--samples`
//! reshape the sweep. Every point lands in the figure's run manifest.

use std::time::Duration;

use joinsw::baseline::reference_join;
use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
use joinsw::harness::{
    host_parallelism, measure_latency_with, measure_throughput, modeled_throughput,
    PARALLEL_EFFICIENCY,
};
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use joinsw::JoinOutcome;
use joinsw::{JoinParams, StreamJoin};
use obs::{Histogram, RunManifest};
use streamcore::workload::{KeyDist, WorkloadSpec};
use streamcore::JoinPredicate;

use crate::opts::FigOpts;
use crate::table::Table;

const KEY_DOMAIN: u32 = 1 << 20;

/// Total comparison budget per measured point; tuples per run are derived
/// from it so every window size costs roughly the same wall-clock time.
const COMPARISON_BUDGET: u64 = 100_000_000;

fn tuples_for(window: usize) -> u64 {
    (COMPARISON_BUDGET / window as u64).clamp(8, 4_096)
}

/// The pairs a run's workers compared: its work, independent of the
/// host's speed.
fn comparisons(outcome: &JoinOutcome) -> u64 {
    outcome.worker_stats.iter().map(|w| w.comparisons).sum()
}

/// A software figure's manifest, stamped with what decides its
/// measured-vs-modeled columns.
pub(crate) fn sw_manifest(figure: &str, opts: &FigOpts) -> RunManifest {
    let mut m = crate::obsout::manifest(figure);
    m.config("host_parallelism", host_parallelism());
    m.config("parallel_efficiency", PARALLEL_EFFICIENCY);
    m.config("batch_size", opts.batch_size);
    m
}

/// Fig. 14d — software uni-flow (SplitJoin) throughput for 16 and 28 join
/// cores across windows 2^16–2^23 (or `--cores` / `--windows`).
/// Single-core rates are wall-clock measurements (floats), so they land
/// in the manifest's config map as `w2e{exp}.single_mtps`, beside the
/// run's work counter `w2e{exp}.single_comparisons`; a multi-core point
/// is `w2e{exp}.c{n}_mtps` when measured and
/// `w2e{exp}.c{n}_modeled_mtps` when modeled.
pub fn fig14d(opts: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = sw_manifest("fig14d", opts);
    let exponents = opts.windows.clone().unwrap_or(16..=23);
    let cores = opts.cores.clone().unwrap_or_else(|| vec![16, 28]);
    let batch = opts.batch_size;
    let max_cores = cores.iter().copied().max().unwrap_or(1);
    let direct = host_parallelism() >= max_cores;
    let (column_tag, key_tag) = if direct {
        ("", "")
    } else {
        (" (modeled)", "_modeled")
    };
    let mut headers: Vec<String> = vec!["window".into(), "1 core (measured)".into()];
    headers.extend(cores.iter().map(|n| format!("{n} cores{column_tag}")));
    let mut t = Table::new(
        "Fig. 14d — software SplitJoin throughput (M tuples/s)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    // Harvest worker span rings from one representative point (the
    // widest sweep config at the first window) to keep exports bounded.
    let mut traced = !obs::trace::enabled();
    for exp in exponents {
        let window = 1usize << exp;
        let tuples = tuples_for(window);
        if !traced {
            // One extra multi-worker run, purely for its timeline.
            traced = true;
            let (_, outcome) = measure_throughput::<SplitJoin>(
                SplitJoinConfig::new(max_cores, window)
                    .with_batch_size(batch)
                    .counting_only(),
                tuples,
                KEY_DOMAIN,
            )
            .expect("fig14d trace run failed");
            crate::obsout::harvest(outcome.trace);
        }
        let (single, outcome) = measure_throughput::<SplitJoin>(
            SplitJoinConfig::new(1, window)
                .with_batch_size(batch)
                .counting_only(),
            tuples,
            KEY_DOMAIN,
        )
        .expect("fig14d single-core run failed");
        m.config(
            format!("w2e{exp}.single_mtps"),
            format!("{:.5}", single.million_per_second()),
        );
        m.counter(format!("w2e{exp}.tuples"), tuples);
        m.counter(
            format!("w2e{exp}.single_comparisons"),
            comparisons(&outcome),
        );
        let mut row = vec![
            format!("2^{exp}"),
            format!("{:.5}", single.million_per_second()),
        ];
        for &n in &cores {
            let mtps = if direct {
                measure_throughput::<SplitJoin>(
                    SplitJoinConfig::new(n, window)
                        .with_batch_size(batch)
                        .counting_only(),
                    tuples * 8,
                    KEY_DOMAIN,
                )
                .expect("fig14d multi-core run failed")
                .0
                .per_second()
                    / 1e6
            } else {
                modeled_throughput(single, n) / 1e6
            };
            m.config(format!("w2e{exp}.c{n}{key_tag}_mtps"), format!("{mtps:.5}"));
            row.push(format!("{mtps:.5}"));
        }
        t.row(row);
    }
    if direct {
        t.note("multi-core columns measured directly on this host");
    } else {
        t.note(format!(
            "host has {} hardware thread(s): multi-core columns modeled as \
             N x {PARALLEL_EFFICIENCY} x single-core rate (see DESIGN.md)",
            host_parallelism()
        ));
    }
    t.note(format!("distribution batch size: {batch}"));
    t.note("paper: peak at 28 of 32 cores; ~0.1 Mt/s at window 2^18 on the R820");
    (vec![t], m)
}

/// Fig. 16 — software uni-flow latency versus join cores (12–32, or
/// `--cores`) for windows 2^17–2^19 (or `--windows`), `--samples`
/// flush-barrier samples per point (default 9). The manifest holds the
/// merged distribution of every sample as a `latency_ns` histogram and
/// each point's p50 in the config map: `w2e{exp}.c{n}.p50` when
/// measured, `w2e{exp}.c{n}.p50_modeled_ns` (nanoseconds) when modeled.
pub fn fig16(opts: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = sw_manifest("fig16", opts);
    let cores = opts
        .cores
        .clone()
        .unwrap_or_else(|| vec![12, 16, 20, 24, 28, 32]);
    let window_exps = opts.windows.clone().unwrap_or(17..=19);
    let samples = opts.samples.unwrap_or(9);
    let batch = opts.batch_size;
    let direct = host_parallelism() >= cores.iter().copied().max().unwrap_or(1);
    let mut t = Table::new(
        "Fig. 16 — software SplitJoin latency",
        &[
            "window",
            "cores",
            if direct {
                "latency"
            } else {
                "latency (modeled)"
            },
        ],
    );
    let mut all_samples = Histogram::new();
    // Under `--trace`, harvest worker span rings from the first measured
    // point only (bounded export size); later points run untouched.
    let mut traced = !obs::trace::enabled();
    let mut measure = |config: SplitJoinConfig| {
        let (latencies, outcome) = measure_latency_with::<SplitJoin>(config, samples, KEY_DOMAIN)
            .expect("fig16 run failed");
        if !traced {
            traced = true;
            crate::obsout::harvest(outcome.trace);
        }
        let (p50, hist) = p50_and_histogram(latencies);
        all_samples.merge(&hist);
        p50.expect("--samples is positive")
    };
    for exp in window_exps {
        let window = 1usize << exp;
        // Hybrid model on a narrow host: real single-core scan time for
        // this window plus real N-thread flush-barrier overhead, scan
        // divided by N.
        let lat1 =
            (!direct).then(|| measure(SplitJoinConfig::new(1, window).with_batch_size(batch)));
        for &n in &cores {
            let p50 = match lat1 {
                None => {
                    let p50 = measure(SplitJoinConfig::new(n, window).with_batch_size(batch));
                    m.config(format!("w2e{exp}.c{n}.p50"), format!("{p50:?}"));
                    p50
                }
                Some(lat1) => {
                    let overhead = measure(SplitJoinConfig::new(n, n).with_batch_size(batch));
                    let scan = lat1.saturating_sub(overhead);
                    let modeled = overhead
                        + Duration::from_nanos(
                            (scan.as_nanos() as f64 / (n as f64 * PARALLEL_EFFICIENCY)) as u64,
                        );
                    m.config(format!("w2e{exp}.c{n}.p50_modeled_ns"), modeled.as_nanos());
                    modeled
                }
            };
            t.row(vec![format!("2^{exp}"), n.to_string(), format!("{p50:?}")]);
        }
    }
    m.histogram("latency_ns", all_samples);
    if !direct {
        t.note(format!(
            "host has {} hardware thread(s): latency = measured N-thread barrier \
             overhead + measured single-core scan / (N x {PARALLEL_EFFICIENCY})",
            host_parallelism()
        ));
    }
    t.note("paper: 50-100+ ms on the R820; latency falls with cores, grows with window");
    (vec![t], m)
}

/// One Fig. 16 point's samples, reduced: the exact nearest-rank median
/// (rank `ceil(n / 2)`; `None` without samples) and the samples' log2
/// histogram in nanoseconds, which the figure merges into `latency_ns`.
fn p50_and_histogram(mut samples: Vec<Duration>) -> (Option<Duration>, Histogram) {
    let mut hist = Histogram::new();
    for &sample in &samples {
        hist.record(sample);
    }
    samples.sort_unstable();
    let rank = samples.len().div_ceil(2).max(1);
    (samples.get(rank - 1).copied(), hist)
}

/// Ablation — software uni-flow (SplitJoin) vs software bi-flow
/// (handshake join) throughput on this host at 4 threads: the Fig. 14b
/// comparison, in software, over every second window exponent of
/// 2^10–2^14 (or `--windows`). Both flows run their data paths at
/// `--batch`; both rates land in the manifest's config map as
/// `w2e{exp}.splitjoin_mtps` / `w2e{exp}.handshake_mtps`.
pub fn swflow(opts: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = sw_manifest("swflow", opts);
    let batch = opts.batch_size;
    let windows = opts.windows.clone().unwrap_or(10..=14);
    let mut t = Table::new(
        "Ablation — software uni-flow vs bi-flow throughput (4 threads)",
        &["window", "uni-flow Mt/s", "bi-flow Mt/s", "uni/bi"],
    );
    // Under `--trace`, the first window's runs also donate their span
    // rings to the exported timeline; later windows run untouched.
    let mut traced = !obs::trace::enabled();
    for exp in windows.step_by(2) {
        let window = 1usize << exp;
        let tuples = (40_000_000 / window as u64).clamp(500, 8_192);
        let (uni, uni_outcome) = measure_throughput::<SplitJoin>(
            SplitJoinConfig::new(4, window)
                .with_batch_size(batch)
                .counting_only(),
            tuples,
            KEY_DOMAIN,
        )
        .expect("swflow run failed");
        let (bi, bi_outcome) = measure_throughput::<HandshakeJoin>(
            HandshakeConfig::new(4, window)
                .with_batch_size(batch)
                .counting_only(),
            tuples,
            KEY_DOMAIN,
        )
        .expect("swflow run failed");
        if !traced {
            traced = true;
            crate::obsout::harvest(uni_outcome.trace);
            crate::obsout::harvest(bi_outcome.trace);
        }
        let uni = uni.million_per_second();
        let bi = bi.million_per_second();
        m.config(format!("w2e{exp}.splitjoin_mtps"), format!("{uni:.5}"));
        m.config(format!("w2e{exp}.handshake_mtps"), format!("{bi:.5}"));
        m.counter(format!("w2e{exp}.tuples"), tuples);
        t.row(vec![
            format!("2^{exp}"),
            format!("{uni:.5}"),
            format!("{bi:.5}"),
            format!("{:.1}x", uni / bi),
        ]);
    }
    t.note(format!("data-path batch size: {batch}"));
    t.note(
        "both flows do the same total comparisons per tuple; in software they land \
         near parity at large windows — the paper's 'in theory, both models are \
         similar in their parallelization concept'. The hardware gap of Fig. 14b \
         comes from bi-flow's coordination discipline, not the flow model itself.",
    );
    (vec![t], m)
}

/// Ablation: the software handshake chain's ordering-precision knob
/// (in-flight wave depth) versus result drift from strict semantics.
pub(crate) fn precision_ablation() -> Table {
    let mut t = Table::new(
        "Ablation — handshake ordering precision (in-flight depth) vs result drift",
        &["channel capacity", "results", "reference", "drift"],
    );
    let inputs: Vec<_> = WorkloadSpec::new(6_000, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    let window = 256;
    let want = reference_join(&inputs, window, JoinPredicate::Equi).len() as f64;
    for capacity in [2usize, 8, 32, 128] {
        let join =
            HandshakeJoin::spawn(HandshakeConfig::new(4, window).with_channel_capacity(capacity));
        for &(tag, tuple) in &inputs {
            join.process(tag, tuple).expect("handshake chain died");
        }
        join.flush().expect("handshake chain died");
        let got = join.shutdown().expect("handshake chain died").result_count as f64;
        t.row(vec![
            capacity.to_string(),
            format!("{got}"),
            format!("{want}"),
            format!("{:.2}%", 100.0 * (got - want).abs() / want),
        ]);
    }
    t.note("SplitJoin's 'adjustable ordering precision': shallower buffers = stricter semantics");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_budget_inverts_window() {
        assert!(tuples_for(1 << 16) > tuples_for(1 << 20));
        assert_eq!(tuples_for(1 << 30), 8);
    }

    #[test]
    fn small_fig14d_sweep_shows_window_scaling() {
        let opts = FigOpts {
            windows: Some(10..=12),
            ..FigOpts::default()
        };
        let (tables, m) = fig14d(&opts);
        assert_eq!(tables[0].len(), 3);
        // Work, not wall clock: every probe scans the whole opposite
        // window, so the same tuple count compares twice the pairs at
        // twice the window.
        let work = |exp: u32| {
            let key = format!("w2e{exp}.single_comparisons");
            m.counters()
                .get(&key)
                .unwrap_or_else(|| panic!("{key} missing"))
        };
        let tuples = m.counters().get("w2e10.tuples").unwrap();
        assert_eq!(work(10), tuples << 10);
        assert_eq!((work(11), work(12)), (2 * work(10), 4 * work(10)));
    }

    #[test]
    fn fig14d_never_names_a_modeled_point_like_a_measured_one() {
        let run = |cores: usize| {
            let opts = FigOpts {
                batch_size: 64,
                cores: Some(vec![cores]),
                windows: Some(10..=10),
                ..FigOpts::default()
            };
            let (tables, m) = fig14d(&opts);
            let keys: Vec<String> = m.config_entries().iter().map(|(k, _)| k.clone()).collect();
            assert!(keys.iter().any(|k| k == "w2e10.single_mtps"), "{keys:?}");
            (tables[0].to_string(), keys)
        };
        // One core fits every host: measured.
        let (table, keys) = run(1);
        assert!(keys.iter().any(|k| k == "w2e10.c1_mtps"), "{keys:?}");
        assert!(!keys.iter().any(|k| k.contains("modeled")), "{keys:?}");
        assert!(!table.contains("(modeled)"), "{table}");
        // 4096 cores fit no host: modeled, and said so in key and column.
        let (table, keys) = run(4096);
        assert!(
            keys.iter().any(|k| k == "w2e10.c4096_modeled_mtps"),
            "{keys:?}"
        );
        assert!(!keys.iter().any(|k| k == "w2e10.c4096_mtps"), "{keys:?}");
        assert!(table.contains("4096 cores (modeled)"), "{table}");
    }

    #[test]
    fn precision_ablation_produces_four_points() {
        assert_eq!(precision_ablation().len(), 4);
    }

    #[test]
    fn fig16_p50_is_the_nearest_rank_median() {
        let us = Duration::from_micros;
        let (p50, hist) = p50_and_histogram((1..=100).rev().map(us).collect());
        assert_eq!(p50, Some(us(50)));
        assert_eq!(hist.total(), 100);
        assert_eq!((hist.min(), hist.max()), (Some(1_000), Some(100_000)));
        // Two samples: rank ceil(2 / 2) = 1, the lower one.
        assert_eq!(p50_and_histogram(vec![us(3), us(1)]).0, Some(us(1)));
        let (p50, hist) = p50_and_histogram(Vec::new());
        assert_eq!(p50, None);
        assert!(hist.is_empty());
    }

    #[test]
    fn small_fig16_point_produces_rows() {
        let opts = FigOpts {
            cores: Some(vec![2, 4]),
            windows: Some(12..=12),
            samples: Some(3),
            ..FigOpts::default()
        };
        let (tables, m) = fig16(&opts);
        assert_eq!(tables[0].len(), 2);
        // Every sample of every run lands in `latency_ns`: one run per
        // core count when measured; one single-core run plus one barrier
        // run per core count when modeled.
        let runs = if host_parallelism() >= 4 { 2 } else { 3 };
        let (name, hist) = &m.histograms()[0];
        assert_eq!((name.as_str(), hist.total()), ("latency_ns", runs * 3));
    }
}
