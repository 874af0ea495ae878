//! Measurement harness for the software joins (Figs. 14d and 16).
//!
//! The measurement loops are generic: [`measure_throughput`] and
//! [`measure_latency_with`] drive any engine implementing
//! [`StreamJoin`] — the SplitJoin router (`::<SplitJoin>`, Figs. 14d
//! and 16), the handshake chain (`::<HandshakeJoin>`, the software side
//! of Fig. 14b; it has no probe-free pre-fill, so its warm-up processes
//! `2 × window` tuples through the chain), or the single-threaded
//! baseline — through the same warm-up/feed/flush protocol. All of them
//! are fallible: a run that loses its last worker (or trips the
//! saturation supervisor) reports a [`JoinError`] instead of panicking
//! mid-measurement, and scripted fault scenarios surface their damage in
//! the returned outcome's fault report.

use std::time::{Duration, Instant};

use crate::error::JoinError;
use streamcore::metrics::Throughput;
use streamcore::{StreamTag, Tuple};

use crate::config::JoinParams;
use crate::outcome::JoinOutcome;
use crate::streamjoin::StreamJoin;

/// Parallel efficiency of the software SplitJoin when one thread per join
/// core actually gets its own hardware core. Calibrated to the paper's
/// observation that throughput peaked at 28 of 32 cores because "the
/// distribution and result gathering network also consume a portion of
/// the processors' capacity".
pub const PARALLEL_EFFICIENCY: f64 = 0.875;

/// Number of hardware threads available on this host.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Models N-core SplitJoin throughput from a measured single-core rate.
///
/// On hosts with fewer hardware threads than join cores (this
/// reproduction's default environment is a 1-CPU container, unlike the
/// paper's 32-core Dell R820), wall-clock multi-thread runs measure the
/// scheduler, not the algorithm. The bench harness therefore measures the
/// single-core comparison rate for the exact window size and predicts the
/// N-core rate as `N × efficiency × single_core_rate` — the linear-scaling
/// shape the paper reports, with the efficiency anchor above.
pub fn modeled_throughput(single_core: Throughput, num_cores: usize) -> f64 {
    single_core.per_second() * num_cores as f64 * PARALLEL_EFFICIENCY
}

/// Pre-fills both windows of any running [`StreamJoin`] to capacity with
/// non-matching keys and flushes, leaving it in steady state.
///
/// # Errors
///
/// See [`StreamJoin::process`].
pub fn prefill_steady_state<J: StreamJoin>(join: &J, window_size: usize) -> Result<(), JoinError> {
    join.warm(window_size)?;
    join.flush()
}

/// Measures steady-state input throughput of any [`StreamJoin`] engine,
/// run exactly as `config` says: the windows are pre-filled, then
/// `tuples` inputs (alternating R/S, keys hashed over `key_domain`) are
/// pushed as fast as the engine absorbs them. Pass
/// `config.counting_only()` to time the counting path, as the
/// throughput figures do; with `collect_results` on, the timed segment
/// also builds every match and publishes it to the workers' outboxes.
/// Returns the rate together with the shutdown outcome, so bench
/// manifests can archive batch-size histograms, per-worker counters,
/// and the fault report alongside the number.
///
/// # Errors
///
/// See [`StreamJoin::process`].
pub fn measure_throughput<J: StreamJoin>(
    config: J::Config,
    tuples: u64,
    key_domain: u32,
) -> Result<(Throughput, JoinOutcome), JoinError> {
    let window = config.common().window_size;
    let join = J::spawn(config);
    prefill_steady_state(&join, window)?;
    let start = Instant::now();
    for seq in 0..tuples {
        let tag = if seq % 2 == 0 {
            StreamTag::R
        } else {
            StreamTag::S
        };
        let key = ((seq as u32).wrapping_mul(2_654_435_761) >> 16) % key_domain;
        join.process(tag, Tuple::new(key, seq as u32))?;
    }
    join.flush()?;
    let elapsed = start.elapsed();
    let outcome = join.shutdown()?;
    Ok((Throughput::over_duration(tuples, elapsed), outcome))
}

/// Measures per-tuple latency of any [`StreamJoin`] engine: with
/// pre-filled windows, each sample submits one tuple and waits until the
/// engine has processed it and emitted its results (flush barrier) — the
/// paper's definition of latency ("time to process and emit all results
/// for a newly inserted tuple"). Returns the samples in submission
/// order and the shutdown outcome.
///
/// # Errors
///
/// See [`StreamJoin::process`].
pub fn measure_latency_with<J: StreamJoin>(
    config: J::Config,
    samples: usize,
    key_domain: u32,
) -> Result<(Vec<Duration>, JoinOutcome), JoinError> {
    let window = config.common().window_size;
    let join = J::spawn(config.counting_only());
    prefill_steady_state(&join, window)?;
    let mut latencies = Vec::with_capacity(samples);
    for i in 0..samples {
        let tag = if i % 2 == 0 {
            StreamTag::R
        } else {
            StreamTag::S
        };
        let key = ((i as u32).wrapping_mul(2_654_435_761) >> 16) % key_domain;
        let start = Instant::now();
        join.process(tag, Tuple::new(key, i as u32))?;
        join.flush()?;
        latencies.push(start.elapsed());
    }
    Ok((latencies, join.shutdown()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineJoin;
    use crate::config::JoinConfig;
    use crate::handshake::{HandshakeConfig, HandshakeJoin};
    use crate::splitjoin::{SplitJoin, SplitJoinConfig};

    fn split_throughput(cores: usize, window: usize, tuples: u64) -> Throughput {
        let config = SplitJoinConfig::new(cores, window).counting_only();
        measure_throughput::<SplitJoin>(config, tuples, 1 << 20)
            .unwrap()
            .0
    }

    fn split_latency(window: usize, samples: usize) -> Vec<Duration> {
        measure_latency_with::<SplitJoin>(SplitJoinConfig::new(2, window), samples, 1 << 20)
            .unwrap()
            .0
    }

    /// Nearest-rank median.
    fn median(mut samples: Vec<Duration>) -> Duration {
        samples.sort_unstable();
        samples[samples.len().div_ceil(2) - 1]
    }

    #[test]
    fn throughput_decreases_with_window_size() {
        // Fig. 14d shape: 1/W scaling of the nested-loop probe.
        let small = split_throughput(2, 1 << 8, 2_000);
        let large = split_throughput(2, 1 << 12, 2_000);
        assert!(
            small.per_second() > 2.0 * large.per_second(),
            "16x window should cost well over 2x throughput: {small} vs {large}"
        );
    }

    #[test]
    fn throughput_improves_with_cores() {
        // Fig. 14d: more cores help. On a host with real parallelism this
        // shows up in wall-clock throughput; on a narrow host wall-clock
        // cannot improve, so we verify the property that *produces* the
        // speedup — each core does only 1/N of the probe work — plus the
        // calibrated model.
        if host_parallelism() >= 4 {
            let one = split_throughput(1, 1 << 12, 4_000);
            let four = split_throughput(4, 1 << 12, 4_000);
            assert!(
                four.per_second() > 1.5 * one.per_second(),
                "4 cores should beat 1 core clearly: {four} vs {one}"
            );
        } else {
            let join = SplitJoin::spawn(SplitJoinConfig::new(4, 1 << 8));
            prefill_steady_state(&join, 1 << 8).unwrap();
            for i in 0..100u32 {
                join.process(StreamTag::R, Tuple::new(1 << 30, i)).unwrap();
            }
            join.flush().unwrap();
            let outcome = join.shutdown().unwrap();
            for ws in &outcome.worker_stats {
                // Each probe scans only the 64-tuple sub-window, not 256.
                assert_eq!(ws.comparisons, 100 * 64);
            }
            let one = Throughput::over_duration(1_000, std::time::Duration::from_secs(1));
            assert_eq!(modeled_throughput(one, 4), 3_500.0);
        }
    }

    #[test]
    fn harness_workload_is_batch_size_invariant() {
        // The bench harness drives the same deterministic tuple stream
        // through the per-tuple probe (batch 4) and the blocked tiles
        // (batch 64); every logical counter must be bit-identical, or a
        // `--batch` sweep of the figures would compare different joins.
        let run = |batch| {
            let config = SplitJoinConfig::new(3, 1 << 8)
                .with_batch_size(batch)
                .counting_only();
            measure_throughput::<SplitJoin>(config, 3_000, 1 << 10)
                .unwrap()
                .1
        };
        let (per_tuple, blocked) = (run(4), run(64));
        assert_eq!(per_tuple.result_count, blocked.result_count);
        assert_eq!(per_tuple.worker_stats, blocked.worker_stats);
        assert_eq!(per_tuple.kernel_stats.unwrap().tiles, 0);
        assert!(blocked.kernel_stats.unwrap().tiles > 0);
    }

    #[test]
    fn every_engine_measures_through_the_unified_surface() {
        let (t, _) = measure_throughput::<BaselineJoin>(
            JoinConfig::new(1, 1 << 6).counting_only(),
            500,
            1 << 20,
        )
        .unwrap();
        assert!(t.per_second() > 0.0);
        let (t, outcome) = measure_throughput::<SplitJoin>(
            SplitJoinConfig::new(2, 1 << 6).counting_only(),
            500,
            1 << 20,
        )
        .unwrap();
        assert!(t.per_second() > 0.0);
        assert!(!outcome.fault.degraded());
        let (t, _) = measure_throughput::<HandshakeJoin>(
            HandshakeConfig::new(2, 1 << 8).counting_only(),
            2_000,
            1 << 20,
        )
        .unwrap();
        assert!(t.per_second() > 0.0);
        assert_eq!(t.events(), 2_000);
    }

    #[test]
    fn latency_samples_are_populated() {
        let s = split_latency(1 << 10, 50);
        assert_eq!(s.len(), 50);
        assert!(s.iter().sum::<Duration>() > Duration::ZERO);
    }

    #[test]
    fn latency_grows_with_window() {
        // Fig. 16 shape: larger windows -> longer scans -> higher latency.
        let small = median(split_latency(1 << 10, 40));
        let large = median(split_latency(1 << 15, 40));
        assert!(
            large > small,
            "latency should grow with window: {small:?} vs {large:?}"
        );
    }
}
