//! Kernel figure: the blocked probe kernel on the software SplitJoin.
//!
//! Not a paper figure — this sweep records the repo's own software
//! optimization, the blocked batch×window compare tiles
//! ([`streamcore::kernel`]), single-core over the window range where the
//! nested-loop probe falls off its cache cliff (2^8..2^14), in both
//! counting-only and materializing modes.
//!
//! Honors the shared CLI options ([`FigOpts`]): `--batch` (blocked tiles
//! need at least 8 probes per batch to engage), `--windows` for the
//! exponent range, and `--samples` for the best-of-N run count per point
//! (default 3).

use joinsw::harness::measure_throughput;
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use joinsw::JoinParams;
use obs::RunManifest;

use crate::opts::FigOpts;
use crate::table::Table;

const KEY_DOMAIN: u32 = 1 << 20;

/// Comparison budget per point, matching `swfigs`: tuples per run are
/// derived from it so every window costs similar wall-clock time. The
/// clamp ceiling is much higher than the fig14d sweep's: millisecond-scale
/// runs on a loaded host swing 3x in either direction, so each timed
/// segment here runs tens of milliseconds.
const COMPARISON_BUDGET: u64 = 100_000_000;

/// Best-of-N runs per point. Worker threads share cores with the OS, so
/// scheduler interference only ever *depresses* a throughput sample;
/// taking the max of a few short runs recovers the undisturbed rate.
const DEFAULT_SAMPLES: usize = 3;

fn tuples_for(window: usize) -> u64 {
    (COMPARISON_BUDGET / window as u64).clamp(1_024, 65_536)
}

/// Kernel figure over windows 2^8..2^14 (or `--windows`). Each rate
/// lands in the manifest's config map as `w2e{exp}.blocked_count_mtps` /
/// `w2e{exp}.blocked_mat_mtps`.
pub fn kernel(opts: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = crate::swfigs::sw_manifest("kernel", opts);
    let exponents = opts.windows.clone().unwrap_or(8..=14);
    let batch = opts.batch_size;
    let samples = opts.samples.unwrap_or(DEFAULT_SAMPLES).max(1);
    let mut t = Table::new(
        "Kernel — blocked probe kernel, single-core SplitJoin throughput (M tuples/s)",
        &["window", "blocked count", "blocked mat"],
    );
    // Materializing keeps `collect_results` on, so the timed segment runs
    // bitmask-then-emit into the worker's outbox; counting times
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
                    measure_throughput::<SplitJoin>(config.clone(), tuples, KEY_DOMAIN)
                        .expect("kernel figure run failed")
                        .0
                        .million_per_second()
                })
                .fold(0f64, f64::max);
            row.push(format!("{rate:.5}"));
            m.config(format!("w2e{exp}.{name}_mtps"), format!("{rate:.5}"));
        }
        m.counter(format!("w2e{exp}.tuples"), tuples);
        t.row(row);
    }
    t.note(format!(
        "distribution batch size: {batch} (blocked tiles engage at >= 8 probes/batch)"
    ));
    t.note("counting mode: popcount-only tiles; materializing mode: bitmask-then-emit pairs");
    t.note(format!(
        "each point is the best of {samples} run(s): scheduler noise only depresses a rate"
    ));
    (vec![t], m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_figure_emits_both_variants_per_window() {
        let opts = FigOpts {
            batch_size: 64,
            windows: Some(8..=9),
            samples: Some(1),
            ..FigOpts::default()
        };
        let (tables, m) = kernel(&opts);
        assert_eq!(tables[0].len(), 2);
        for exp in [8, 9] {
            for variant in ["blocked_count", "blocked_mat"] {
                let key = format!("w2e{exp}.{variant}_mtps");
                let rate = m.config_entries().iter().find(|(k, _)| *k == key);
                let rate: f64 = rate
                    .unwrap_or_else(|| panic!("{key} missing"))
                    .1
                    .parse()
                    .unwrap();
                assert!(rate > 0.0, "{key} = {rate}");
            }
        }
    }
}
