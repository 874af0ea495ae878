//! Software-side figures: 14d (throughput) and 16 (latency).
//!
//! The paper measured these on a 32-core Dell R820. This reproduction's
//! default environment is a single-CPU container, so the harness measures
//! what the host *can* measure honestly — single-core rates and real
//! multi-thread coordination overhead — and models the multi-core scaling
//! with the calibrated efficiency factor from
//! [`joinsw::harness::PARALLEL_EFFICIENCY`]. On a many-core host the same
//! binaries measure the multi-thread numbers directly.
//!
//! Both figures honor the shared CLI options
//! ([`SwRunOpts`](crate::swjoin::SwRunOpts)): `--batch` selects the
//! distribution batch size, `--cores`/`--windows`/`--samples` reshape the
//! sweep. Besides the human-readable table and the run manifest, every
//! measured point is returned as a
//! [`SwJoinEntry`](crate::swjoin::SwJoinEntry) for `BENCH_swjoin.json`.

use std::time::Duration;

use joinsw::harness::{
    host_parallelism, measure_latency_with, measure_throughput_with, modeled_throughput,
    PARALLEL_EFFICIENCY,
};
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use obs::{Histogram, RunManifest};

use crate::swjoin::{SwJoinEntry, SwRunOpts};
use crate::table::Table;

const KEY_DOMAIN: u32 = 1 << 20;

/// Total comparison budget per measured point; tuples per run are derived
/// from it so every window size costs roughly the same wall-clock time.
const COMPARISON_BUDGET: u64 = 100_000_000;

fn tuples_for(window: usize) -> u64 {
    (COMPARISON_BUDGET / window as u64).clamp(8, 4_096)
}

fn throughput_entry(
    cores: usize,
    window: usize,
    batch_size: usize,
    tuples: u64,
    mtps: f64,
    measured: bool,
) -> SwJoinEntry {
    SwJoinEntry {
        figure: "fig14d".into(),
        variant: "splitjoin".into(),
        cores,
        window,
        batch_size,
        tuples,
        metric: "throughput_mtps".into(),
        value: mtps,
        mode: if measured { "measured" } else { "modeled" }.into(),
    }
}

/// Fig. 14d — software uni-flow (SplitJoin) throughput for 16 and 28 join
/// cores across windows 2^16–2^23.
pub fn fig14d() -> Table {
    fig14d_windows(16..=23)
}

/// [`fig14d`] plus its run manifest: single-core rates are wall-clock
/// measurements (floats), so they land in the config map along with the
/// host parallelism that decides measured-vs-modeled multi-core columns.
pub fn fig14d_run() -> (Table, RunManifest) {
    let (t, m, _) = fig14d_run_opts(&SwRunOpts::default());
    (t, m)
}

/// [`fig14d_run`] with CLI options applied — custom core counts, window
/// exponent range, and batch size — also returning the measured points
/// for `BENCH_swjoin.json`.
pub fn fig14d_run_opts(opts: &SwRunOpts) -> (Table, RunManifest, Vec<SwJoinEntry>) {
    let mut m = crate::obsout::manifest("fig14d");
    m.config("host_parallelism", host_parallelism());
    m.config("parallel_efficiency", PARALLEL_EFFICIENCY);
    m.config("batch_size", opts.batch_size);
    let mut entries = Vec::new();
    let t = fig14d_into(opts, Some(&mut m), Some(&mut entries));
    (t, m, entries)
}

/// Fig. 14d over a custom window-exponent range (tests use a small one).
pub fn fig14d_windows(exponents: std::ops::RangeInclusive<u32>) -> Table {
    let opts = SwRunOpts {
        windows: Some(exponents),
        ..SwRunOpts::default()
    };
    fig14d_into(&opts, None, None)
}

fn fig14d_into(
    opts: &SwRunOpts,
    mut manifest: Option<&mut RunManifest>,
    mut entries: Option<&mut Vec<SwJoinEntry>>,
) -> Table {
    let exponents = opts.windows.clone().unwrap_or(16..=23);
    let cores = opts.cores.clone().unwrap_or_else(|| vec![16, 28]);
    let batch = opts.batch_size;
    let mut headers: Vec<String> =
        vec!["window".into(), "1 core (measured)".into()];
    headers.extend(cores.iter().map(|n| format!("{n} cores")));
    let mut t = Table::new(
        "Fig. 14d — software SplitJoin throughput (M tuples/s)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let max_cores = cores.iter().copied().max().unwrap_or(1);
    let direct = host_parallelism() >= max_cores;
    // Harvest worker span rings from one representative point (the
    // widest sweep config at the first window) to keep exports bounded.
    let mut traced = !obs::trace::enabled();
    for exp in exponents {
        let window = 1usize << exp;
        let tuples = tuples_for(window);
        if !traced {
            // One extra multi-worker run, purely for its timeline.
            traced = true;
            let (_, outcome) = measure_throughput_with::<SplitJoin>(
                SplitJoinConfig::new(max_cores, window).with_batch_size(batch),
                tuples,
                KEY_DOMAIN,
            )
            .expect("fig14d trace run failed");
            crate::obsout::harvest(outcome.trace);
        }
        let single = measure_throughput_with::<SplitJoin>(
            SplitJoinConfig::new(1, window).with_batch_size(batch),
            tuples,
            KEY_DOMAIN,
        )
        .expect("fig14d single-core run failed")
        .0;
        if let Some(e) = entries.as_deref_mut() {
            e.push(throughput_entry(
                1,
                window,
                batch,
                tuples,
                single.million_per_second(),
                true,
            ));
        }
        if let Some(m) = manifest.as_deref_mut() {
            m.config(
                format!("w2e{exp}.single_mtps"),
                format!("{:.5}", single.million_per_second()),
            );
            m.counter(format!("w2e{exp}.tuples"), tuples);
        }
        let mut row = vec![
            format!("2^{exp}"),
            format!("{:.5}", single.million_per_second()),
        ];
        for &n in &cores {
            let mtps = if direct {
                measure_throughput_with::<SplitJoin>(
                    SplitJoinConfig::new(n, window).with_batch_size(batch),
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
            if let Some(m) = manifest.as_deref_mut() {
                m.config(format!("w2e{exp}.c{n}_mtps"), format!("{mtps:.5}"));
            }
            if let Some(e) = entries.as_deref_mut() {
                e.push(throughput_entry(n, window, batch, tuples, mtps, direct));
            }
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
    t
}

/// Fig. 16 — software uni-flow latency versus join cores for windows
/// 2^17–2^19.
pub fn fig16() -> Table {
    fig16_config(&[12, 16, 20, 24, 28, 32], &[17, 18, 19], 9)
}

/// [`fig16`] plus its run manifest: per-point p50 latencies in the
/// config map and the merged distribution of every measured flush-barrier
/// sample as a `latency_ns` histogram.
pub fn fig16_run() -> (Table, RunManifest) {
    let (t, m, _) = fig16_run_opts(&SwRunOpts::default());
    (t, m)
}

/// [`fig16_run`] with CLI options applied, also returning the measured
/// points for `BENCH_swjoin.json`.
pub fn fig16_run_opts(opts: &SwRunOpts) -> (Table, RunManifest, Vec<SwJoinEntry>) {
    let mut m = crate::obsout::manifest("fig16");
    m.config("host_parallelism", host_parallelism());
    m.config("parallel_efficiency", PARALLEL_EFFICIENCY);
    m.config("batch_size", opts.batch_size);
    let cores = opts.cores.clone().unwrap_or_else(|| vec![12, 16, 20, 24, 28, 32]);
    let window_exps: Vec<u32> = opts
        .windows
        .clone()
        .map_or_else(|| vec![17, 18, 19], |r| r.collect());
    let samples = opts.samples.unwrap_or(9);
    let mut entries = Vec::new();
    let t = fig16_config_into(
        &cores,
        &window_exps,
        samples,
        opts.batch_size,
        Some(&mut m),
        Some(&mut entries),
    );
    (t, m, entries)
}

/// Fig. 16 with custom core counts, window exponents, and sample count.
pub fn fig16_config(cores: &[usize], window_exps: &[u32], samples: usize) -> Table {
    fig16_config_into(
        cores,
        window_exps,
        samples,
        joinsw::default_batch_size(),
        None,
        None,
    )
}

fn fig16_config_into(
    cores: &[usize],
    window_exps: &[u32],
    samples: usize,
    batch: usize,
    mut manifest: Option<&mut RunManifest>,
    mut entries: Option<&mut Vec<SwJoinEntry>>,
) -> Table {
    let mut t = Table::new(
        "Fig. 16 — software SplitJoin latency",
        &["window", "cores", "latency"],
    );
    let mut all_samples = Histogram::new();
    let direct = host_parallelism() >= cores.iter().copied().max().unwrap_or(1);
    // Under `--trace`, harvest worker span rings from the first measured
    // point only (bounded export size); later points run untouched.
    let mut traced = !obs::trace::enabled();
    let mut measure = |config: SplitJoinConfig, samples: usize| {
        let (s, hist, outcome) = measure_latency_with::<SplitJoin>(config, samples, KEY_DOMAIN)
            .expect("fig16 run failed");
        if !traced {
            traced = true;
            crate::obsout::harvest(outcome.trace);
        }
        (s, hist)
    };
    let latency_entry = |n: usize, window: usize, p50: Duration, measured: bool| {
        SwJoinEntry {
            figure: "fig16".into(),
            variant: "splitjoin".into(),
            cores: n,
            window,
            batch_size: batch,
            tuples: samples as u64,
            metric: "latency_p50_ns".into(),
            value: p50.as_nanos() as f64,
            mode: if measured { "measured" } else { "modeled" }.into(),
        }
    };
    for &exp in window_exps {
        let window = 1usize << exp;
        if direct {
            for &n in cores {
                let (s, hist) = measure(
                    SplitJoinConfig::new(n, window).with_batch_size(batch),
                    samples,
                );
                all_samples.merge(&hist);
                if let Some(m) = manifest.as_deref_mut() {
                    m.config(format!("w2e{exp}.c{n}.p50"), format!("{:?}", s.p50));
                }
                if let Some(e) = entries.as_deref_mut() {
                    e.push(latency_entry(n, window, s.p50, true));
                }
                t.row(vec![
                    format!("2^{exp}"),
                    n.to_string(),
                    format!("{:?}", s.p50),
                ]);
            }
        } else {
            // Hybrid model: real single-core scan time for this window plus
            // real N-thread flush-barrier overhead, scan divided by N.
            let (lat1, hist) = measure(
                SplitJoinConfig::new(1, window).with_batch_size(batch),
                samples,
            );
            all_samples.merge(&hist);
            for &n in cores {
                let (overhead, hist) = measure(
                    SplitJoinConfig::new(n, n).with_batch_size(batch),
                    samples,
                );
                all_samples.merge(&hist);
                let scan = lat1.p50.saturating_sub(overhead.p50);
                let modeled = overhead.p50
                    + Duration::from_nanos(
                        (scan.as_nanos() as f64 / (n as f64 * PARALLEL_EFFICIENCY)) as u64,
                    );
                if let Some(m) = manifest.as_deref_mut() {
                    m.config(format!("w2e{exp}.c{n}.p50_modeled"), format!("{modeled:?}"));
                }
                if let Some(e) = entries.as_deref_mut() {
                    e.push(latency_entry(n, window, modeled, false));
                }
                t.row(vec![
                    format!("2^{exp}"),
                    n.to_string(),
                    format!("{modeled:?}"),
                ]);
            }
        }
    }
    if let Some(m) = manifest {
        m.histogram("latency_ns", all_samples);
    }
    if !direct {
        t.note(format!(
            "host has {} hardware thread(s): latency = measured N-thread barrier \
             overhead + measured single-core scan / (N x {PARALLEL_EFFICIENCY})",
            host_parallelism()
        ));
    }
    t.note("paper: 50-100+ ms on the R820; latency falls with cores, grows with window");
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
        let t = fig14d_windows(10..=12);
        assert_eq!(t.len(), 3);
        let first: f64 = t.cell(0, 1).unwrap().parse().unwrap();
        let last: f64 = t.cell(2, 1).unwrap().parse().unwrap();
        assert!(
            first > 1.5 * last,
            "4x window should clearly reduce throughput: {first} vs {last}"
        );
    }

    #[test]
    fn fig14d_opts_emit_entries_per_core_column() {
        let opts = SwRunOpts {
            batch_size: 64,
            cores: Some(vec![2]),
            windows: Some(10..=11),
            samples: None,
            trace: None,
            live: None,
            live_port: None,
        };
        let mut entries = Vec::new();
        let t = fig14d_into(&opts, None, Some(&mut entries));
        assert_eq!(t.len(), 2);
        // Per window: the measured single-core point plus one per column.
        assert_eq!(entries.len(), 4);
        assert!(entries.iter().all(|e| e.batch_size == 64));
        assert!(entries.iter().all(|e| e.metric == "throughput_mtps"));
        assert!(entries.iter().any(|e| e.cores == 2));
    }

    #[test]
    fn small_fig16_point_produces_rows() {
        let t = fig16_config(&[2, 4], &[12], 3);
        assert_eq!(t.len(), 2);
    }
}
