//! Kernel figure: the blocked probe kernel on the software SplitJoin.
//!
//! Not a paper figure — this sweep records the repo's own software
//! optimization, the blocked batch×window compare tiles
//! ([`streamcore::kernel`]), single-core over the window range where the
//! nested-loop probe falls off its cache cliff (2^8..2^14), in both
//! counting-only and materializing modes. `swjoin_check` holds these
//! entries to the committed baseline like every other figure.
//!
//! Honors the shared CLI options ([`SwRunOpts`](crate::swjoin::SwRunOpts)):
//! `--batch` (blocked tiles need at least 8 probes per batch to engage),
//! `--windows` for the exponent range, and `--samples` for the
//! best-of-N run count per point (default 3).

use joinsw::harness::{host_parallelism, measure_throughput_collecting, PARALLEL_EFFICIENCY};
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use obs::RunManifest;

use crate::swjoin::{SwJoinEntry, SwRunOpts};
use crate::table::Table;

const KEY_DOMAIN: u32 = 1 << 20;

/// Comparison budget per point, matching `swfigs`: tuples per run are
/// derived from it so every window costs similar wall-clock time. The
/// clamp ceiling is much higher than the fig14d sweep's because this
/// figure feeds a hard CI gate (`swjoin_check`'s regression check) —
/// millisecond-scale runs on a loaded host swing 3x in either
/// direction, so each timed segment here runs tens of milliseconds.
const COMPARISON_BUDGET: u64 = 100_000_000;

/// Best-of-N runs per point. Worker threads share cores with the OS, so
/// scheduler interference only ever *depresses* a throughput sample;
/// taking the max of a few short runs recovers the undisturbed rate.
const DEFAULT_SAMPLES: usize = 3;

fn tuples_for(window: usize) -> u64 {
    (COMPARISON_BUDGET / window as u64).clamp(1_024, 65_536)
}

/// Kernel figure over the default window range 2^8..2^14.
pub fn kernel_figure() -> Table {
    kernel_figure_windows(8..=14)
}

/// [`kernel_figure`] plus its run manifest and the measured points for
/// `BENCH_swjoin.json`.
pub fn kernel_run_opts(opts: &SwRunOpts) -> (Table, RunManifest, Vec<SwJoinEntry>) {
    let mut m = crate::obsout::manifest("kernel");
    m.config("host_parallelism", host_parallelism());
    m.config("parallel_efficiency", PARALLEL_EFFICIENCY);
    m.config("batch_size", opts.batch_size);
    let mut entries = Vec::new();
    let t = kernel_into(opts, Some(&mut m), Some(&mut entries));
    (t, m, entries)
}

/// Kernel figure over a custom window-exponent range (tests use a small
/// one).
pub fn kernel_figure_windows(exponents: std::ops::RangeInclusive<u32>) -> Table {
    let opts = SwRunOpts { windows: Some(exponents), ..SwRunOpts::default() };
    kernel_into(&opts, None, None)
}

fn kernel_into(
    opts: &SwRunOpts,
    mut manifest: Option<&mut RunManifest>,
    mut entries: Option<&mut Vec<SwJoinEntry>>,
) -> Table {
    let exponents = opts.windows.clone().unwrap_or(8..=14);
    let batch = opts.batch_size;
    let samples = opts.samples.unwrap_or(DEFAULT_SAMPLES).max(1);
    let mut t = Table::new(
        "Kernel — blocked probe kernel, single-core SplitJoin throughput (M tuples/s)",
        &["window", "blocked count", "blocked mat"],
    );
    // Materializing keeps `collect_results` on, so the timed segment runs
    // bitmask-then-emit with a live collector; counting times
    // popcount-only tiles.
    let variants: [(&str, bool); 2] = [("blocked_count", true), ("blocked_mat", false)];
    for exp in exponents {
        let window = 1usize << exp;
        let tuples = tuples_for(window);
        let mut row = vec![format!("2^{exp}")];
        for (name, counting) in variants {
            let mut config = SplitJoinConfig::new(1, window).with_batch_size(batch);
            if counting {
                config = config.counting_only();
            }
            let rate = (0..samples)
                .map(|_| {
                    measure_throughput_collecting::<SplitJoin>(
                        config.clone(),
                        tuples,
                        KEY_DOMAIN,
                    )
                    .expect("kernel figure run failed")
                    .0
                    .million_per_second()
                })
                .fold(0f64, f64::max);
            row.push(format!("{rate:.5}"));
            if let Some(m) = manifest.as_deref_mut() {
                m.config(format!("w2e{exp}.{name}_mtps"), format!("{rate:.5}"));
            }
            if let Some(e) = entries.as_deref_mut() {
                e.push(SwJoinEntry {
                    figure: "kernel".into(),
                    variant: name.into(),
                    cores: 1,
                    window,
                    batch_size: batch,
                    tuples,
                    metric: "throughput_mtps".into(),
                    value: rate,
                    mode: "measured".into(),
                });
            }
        }
        if let Some(m) = manifest.as_deref_mut() {
            m.counter(format!("w2e{exp}.tuples"), tuples);
        }
        t.row(row);
    }
    t.note(format!("distribution batch size: {batch} (blocked tiles engage at >= 8 probes/batch)"));
    t.note("counting mode: popcount-only tiles; materializing mode: bitmask-then-emit pairs");
    t.note(format!(
        "each point is the best of {samples} run(s): scheduler noise only depresses a rate"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_figure_emits_both_variants_per_window() {
        let opts = SwRunOpts {
            batch_size: 64,
            cores: None,
            windows: Some(8..=9),
            samples: Some(1),
            trace: None,
            live: None,
            live_port: None,
        };
        let mut entries = Vec::new();
        let t = kernel_into(&opts, None, Some(&mut entries));
        assert_eq!(t.len(), 2);
        assert_eq!(entries.len(), 4);
        assert!(entries.iter().all(|e| e.figure == "kernel"));
        assert!(entries.iter().all(|e| e.metric == "throughput_mtps"));
        assert!(entries.iter().all(|e| e.cores == 1));
        for v in ["blocked_count", "blocked_mat"] {
            assert_eq!(entries.iter().filter(|e| e.variant == v).count(), 2, "{v}");
        }
    }
}
