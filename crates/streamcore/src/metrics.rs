//! Throughput and latency measurement used by every experiment harness.

use std::fmt;
use std::time::Duration;

/// Accumulates event counts over wall-clock or simulated time and reports
/// rates.
///
/// # Example
///
/// ```
/// use streamcore::metrics::Throughput;
/// use std::time::Duration;
///
/// let t = Throughput::over_duration(1_500_000, Duration::from_millis(500));
/// assert_eq!(t.per_second(), 3_000_000.0);
/// assert_eq!(t.million_per_second(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    events: u64,
    seconds: f64,
}

impl Throughput {
    /// Throughput of `events` over `elapsed` wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    pub fn over_duration(events: u64, elapsed: Duration) -> Self {
        let seconds = elapsed.as_secs_f64();
        assert!(seconds > 0.0, "elapsed time must be positive");
        Self { events, seconds }
    }

    /// Throughput of `events` over `cycles` clock cycles at `mhz` — used by
    /// the hardware experiments, which measure in cycles and convert via
    /// the synthesis clock.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero or `mhz` is not positive.
    pub fn over_cycles(events: u64, cycles: u64, mhz: f64) -> Self {
        assert!(cycles > 0, "cycle count must be positive");
        assert!(mhz > 0.0, "clock frequency must be positive");
        Self {
            events,
            seconds: cycles as f64 / (mhz * 1e6),
        }
    }

    /// Total events counted.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events per second.
    pub fn per_second(&self) -> f64 {
        self.events as f64 / self.seconds
    }

    /// Events per second, in millions — the unit of the paper's throughput
    /// figures.
    pub fn million_per_second(&self) -> f64 {
        self.per_second() / 1e6
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} M tuples/s", self.million_per_second())
    }
}

/// Collects latency samples and reports order statistics.
///
/// Samples are stored as nanoseconds. The recorder makes no distributional
/// assumptions; percentiles are exact (nearest-rank on the sorted sample).
///
/// # Example
///
/// ```
/// use streamcore::metrics::LatencyRecorder;
/// use std::time::Duration;
///
/// let mut rec = LatencyRecorder::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     rec.record(Duration::from_millis(ms));
/// }
/// assert_eq!(rec.len(), 5);
/// assert_eq!(rec.max().unwrap().as_millis(), 100);
/// assert_eq!(rec.percentile(50.0).unwrap().as_millis(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyRecorder {
    samples_ns: Vec<u64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: Duration) {
        self.samples_ns.push(sample.as_nanos() as u64);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<Duration> {
        if self.samples_ns.is_empty() {
            return None;
        }
        let sum: u128 = self.samples_ns.iter().map(|&n| n as u128).sum();
        Some(Duration::from_nanos(
            (sum / self.samples_ns.len() as u128) as u64,
        ))
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<Duration> {
        self.samples_ns
            .iter()
            .max()
            .map(|&n| Duration::from_nanos(n))
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<Duration> {
        self.samples_ns
            .iter()
            .min()
            .map(|&n| Duration::from_nanos(n))
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`), or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<Duration> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.samples_ns.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
        let n = self.samples_ns.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(Duration::from_nanos(self.samples_ns[rank - 1]))
    }

    /// Summarizes into (mean, p50, p95, p99, max). Empty recorder yields
    /// `None`.
    pub fn summary(&mut self) -> Option<LatencySummary> {
        Some(LatencySummary {
            mean: self.mean()?,
            p50: self.percentile(50.0)?,
            p95: self.percentile(95.0)?,
            p99: self.percentile(99.0)?,
            max: self.max()?,
            samples: self.len(),
        })
    }

    /// A log2-bucketed histogram of the recorded samples.
    pub fn histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for &ns in &self.samples_ns {
            h.record_ns(ns);
        }
        h
    }
}

/// The log2-bucketed histogram, re-exported from the [`obs`] crate.
///
/// This was once a bucket-counts-only type local to this module; it now
/// lives in `obs` and additionally tracks exact count/sum/min/max and
/// reports p50/p95/p99 estimates, so the experiment harnesses can emit
/// full distributions into their JSON run manifests
/// ([`obs::RunManifest`]). The original API (`record_ns`, `record`,
/// `total`, `mode_bucket_ns`, `rows`, `Display`) is unchanged.
///
/// ```
/// use streamcore::metrics::Histogram;
///
/// let mut h = Histogram::new();
/// h.record_ns(100);   // bucket 6 (64..128 ns)
/// h.record_ns(100);
/// h.record_ns(5_000); // bucket 12 (4096..8192 ns)
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.mode_bucket_ns(), Some((64, 128)));
/// assert_eq!(h.p99(), Some(5_000));
/// ```
pub use obs::Histogram;

/// Condensed latency statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Maximum observed.
    pub max: Duration,
    /// Number of samples.
    pub samples: usize,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:?}, p50 {:?}, p95 {:?}, p99 {:?}, max {:?} over {} samples",
            self.mean, self.p50, self.p95, self.p99, self.max, self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_over_duration() {
        let t = Throughput::over_duration(2_000_000, Duration::from_secs(2));
        assert_eq!(t.per_second(), 1e6);
        assert_eq!(t.million_per_second(), 1.0);
        assert_eq!(t.events(), 2_000_000);
    }

    #[test]
    fn throughput_over_cycles_matches_hand_math() {
        // 1000 tuples over 100_000 cycles at 100 MHz = 1 ms -> 1 M/s.
        let t = Throughput::over_cycles(1_000, 100_000, 100.0);
        assert!((t.per_second() - 1e6).abs() < 1e-3);
    }

    #[test]
    fn throughput_display() {
        let t = Throughput::over_duration(500, Duration::from_secs(1));
        assert_eq!(t.to_string(), "0.0005 M tuples/s");
    }

    #[test]
    #[should_panic(expected = "elapsed time must be positive")]
    fn zero_duration_panics() {
        let _ = Throughput::over_duration(1, Duration::ZERO);
    }

    #[test]
    fn latency_statistics() {
        let mut rec = LatencyRecorder::new();
        for us in 1..=100u64 {
            rec.record(Duration::from_micros(us));
        }
        assert_eq!(rec.len(), 100);
        assert_eq!(rec.mean().unwrap(), Duration::from_nanos(50_500));
        assert_eq!(rec.min().unwrap(), Duration::from_micros(1));
        assert_eq!(rec.max().unwrap(), Duration::from_micros(100));
        assert_eq!(rec.percentile(50.0).unwrap(), Duration::from_micros(50));
        assert_eq!(rec.percentile(99.0).unwrap(), Duration::from_micros(99));
        assert_eq!(rec.percentile(100.0).unwrap(), Duration::from_micros(100));
    }

    #[test]
    fn empty_recorder_yields_none() {
        let mut rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.mean(), None);
        assert_eq!(rec.max(), None);
        assert_eq!(rec.percentile(50.0), None);
        assert_eq!(rec.summary(), None);
    }

    #[test]
    fn summary_reports_all_fields() {
        let mut rec = LatencyRecorder::new();
        rec.record(Duration::from_millis(1));
        rec.record(Duration::from_millis(3));
        let s = rec.summary().unwrap();
        assert_eq!(s.samples, 2);
        assert_eq!(s.mean, Duration::from_millis(2));
        assert_eq!(s.max, Duration::from_millis(3));
        assert_eq!(s.p50, Duration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_panics() {
        let mut rec = LatencyRecorder::new();
        rec.record(Duration::from_millis(1));
        let _ = rec.percentile(101.0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::new();
        h.record_ns(1); // bucket 0: [1, 2)
        h.record_ns(2); // bucket 1: [2, 4)
        h.record_ns(3);
        h.record_ns(1023); // bucket 9: [512, 1024)
        h.record_ns(1024); // bucket 10
        assert_eq!(h.total(), 5);
        assert_eq!(
            h.rows(),
            vec![(1, 2, 1), (2, 4, 2), (512, 1024, 1), (1024, 2048, 1)]
        );
        assert_eq!(h.mode_bucket_ns(), Some((2, 4)));
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.mode_bucket_ns(), None);
        h.record_ns(0); // clamped into bucket 0
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn recorder_histogram_matches_samples() {
        let mut rec = LatencyRecorder::new();
        for us in [1u64, 1, 2, 100] {
            rec.record(Duration::from_micros(us));
        }
        let h = rec.histogram();
        assert_eq!(h.total(), 4);
        // 1 µs = 1000 ns -> bucket [512, 1024).
        assert_eq!(h.mode_bucket_ns(), Some((512, 1024)));
        let rendered = h.to_string();
        assert!(rendered.contains('#'));
    }
}
