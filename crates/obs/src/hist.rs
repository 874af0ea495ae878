//! Fixed-bucket log2 histogram with quantile estimates.

use std::fmt;
use std::time::Duration;

/// A log2-bucketed histogram: bucket `i` counts samples in
/// `[2^i, 2^(i+1))`, with values clamped up to 1 (so 0 lands in bucket 0
/// and bucket 63 absorbs everything from `2^63`).
///
/// The 64 fixed buckets make recording allocation-free and O(1)
/// (`leading_zeros` + one array add), which is what lets the measurement
/// harnesses record *every* sample instead of a single running average.
/// Alongside the buckets the histogram tracks exact count/sum/min/max, so
/// the mean and the extremes are not bucket-quantized; quantiles are
/// bucket-resolution estimates (see [`Histogram::quantile`]).
///
/// Values are plain `u64`s — the unit is whatever the caller records
/// (wall-clock nanoseconds in the software harnesses, clock cycles in the
/// simulated-hardware harnesses); [`Histogram::record`] takes a
/// [`Duration`] as nanoseconds.
///
/// # Example
///
/// ```
/// use obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100u64, 100, 5_000] {
///     h.record_value(v);
/// }
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.max(), Some(5_000));
/// assert_eq!(h.rows()[0], (64, 128, 2));   // two samples in [64, 128)
/// assert_eq!(h.quantile(0.50), Some(127)); // bucket-upper-bound estimate
/// assert_eq!(h.p99(), Some(5_000));        // clamped to the observed max
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (unit-agnostic). Values below 1 are clamped to 1.
    pub fn record_value(&mut self, value: u64) {
        let v = value.max(1);
        let bucket = (63 - v.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records one sample as a [`Duration`] (in nanoseconds).
    pub fn record(&mut self, sample: Duration) {
        self.record_value(sample.as_nanos() as u64);
    }

    /// Total recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded samples (saturating), or `None` if empty.
    #[must_use]
    pub fn sum(&self) -> Option<u64> {
        (self.count > 0).then_some(self.sum)
    }

    /// Exact minimum recorded sample (after the clamp to ≥ 1), or `None`
    /// if empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded sample, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of the recorded samples, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 1]`, or `None` if
    /// empty.
    ///
    /// The estimate is the *inclusive upper bound* of the bucket holding
    /// the nearest-rank sample, clamped into the exactly-tracked
    /// `[min, max]` range — so single-bucket distributions and the tails
    /// stay honest, and the error is otherwise bounded by the 2× bucket
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_high(i).clamp(self.min, self.max));
            }
        }
        unreachable!("count > 0 implies some bucket holds the rank")
    }

    /// Median estimate (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(low, high, count)` rows, `high` exclusive.
    #[must_use]
    pub fn rows(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (1u64 << i, Self::bucket_high(i).saturating_add(1), n))
            .collect()
    }

    /// Folds another histogram into this one (bucket-wise add; min/max/sum
    /// combine exactly).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Rebuilds a histogram from previously serialized parts — the inverse
    /// of what a [`RunManifest`](crate::RunManifest) emits. `rows` are
    /// `(low, count)` pairs where `low` must be a power of two.
    ///
    /// # Errors
    ///
    /// Returns a message when a row's `low` is not a power of two, a
    /// bucket or the row total overflows `u64`, or the row counts disagree
    /// with `count`.
    pub fn from_parts(
        rows: &[(u64, u64)],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Result<Self, String> {
        let mut h = Histogram::new();
        let mut total = 0u64;
        for &(low, n) in rows {
            if !low.is_power_of_two() {
                return Err(format!("bucket low {low} is not a power of two"));
            }
            let bucket = &mut h.buckets[low.trailing_zeros() as usize];
            *bucket = bucket
                .checked_add(n)
                .ok_or_else(|| format!("bucket {low} overflows u64"))?;
            total = total.checked_add(n).ok_or("bucket counts overflow u64")?;
        }
        if total != count {
            return Err(format!("bucket counts sum to {total}, expected {count}"));
        }
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        Ok(h)
    }

    /// Inclusive upper bound of bucket `i` (`2^(i+1) - 1`, saturating for
    /// the top bucket).
    fn bucket_high(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (low, high, n) in self.rows() {
            let bar = "#".repeat((n * 40 / peak).max(1) as usize);
            writeln!(f, "{:>12} {bar} {n}", format!("{low}..{high}ns"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        let mut h = Histogram::new();
        h.record_value(1); // bucket 0: [1, 2)
        h.record_value(2); // bucket 1: [2, 4)
        h.record_value(3);
        h.record_value(1023); // bucket 9: [512, 1024)
        h.record_value(1024); // bucket 10: [1024, 2048)
        assert_eq!(h.total(), 5);
        assert_eq!(
            h.rows(),
            vec![(1, 2, 1), (2, 4, 2), (512, 1024, 1), (1024, 2048, 1)]
        );
    }

    #[test]
    fn zero_clamps_into_bucket_zero_and_top_bucket_saturates() {
        let mut h = Histogram::new();
        h.record_value(0);
        assert_eq!(h.rows(), vec![(1, 2, 1)]);
        assert_eq!(h.min(), Some(1));
        h.record_value(u64::MAX);
        assert_eq!(h.rows()[1], (1u64 << 63, u64::MAX, 1));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn quantiles_use_nearest_rank_over_buckets() {
        let mut h = Histogram::new();
        // 90 samples in [64, 128), 10 samples in [4096, 8192).
        for _ in 0..90 {
            h.record_value(100);
        }
        for _ in 0..10 {
            h.record_value(5_000);
        }
        assert_eq!(h.quantile(0.0), Some(127)); // rank clamps to 1
        assert_eq!(h.p50(), Some(127)); // bucket [64,128) upper bound
        assert_eq!(h.quantile(0.90), Some(127));
        assert_eq!(h.quantile(0.91), Some(5_000)); // clamped to observed max
        assert_eq!(h.p99(), Some(5_000));
        assert_eq!(h.quantile(1.0), Some(5_000));
    }

    #[test]
    fn single_valued_distribution_is_exact_at_every_quantile() {
        let mut h = Histogram::new();
        for _ in 0..7 {
            h.record_value(42);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(42), "q={q}");
        }
        assert_eq!(h.mean(), Some(42.0));
    }

    #[test]
    fn empty_histogram_yields_none_everywhere() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.sum(), None);
        assert!(h.rows().is_empty());
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn out_of_range_quantile_panics() {
        let mut h = Histogram::new();
        h.record_value(1);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        a.record_value(10);
        a.record_value(20);
        let mut b = Histogram::new();
        b.record_value(1_000);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1_000));
        assert_eq!(a.sum(), Some(1_030));
        a.merge(&Histogram::new()); // merging empty is a no-op
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 70, 900, 900, 900] {
            h.record_value(v);
        }
        let rows: Vec<(u64, u64)> = h.rows().iter().map(|&(lo, _, n)| (lo, n)).collect();
        let back = Histogram::from_parts(
            &rows,
            h.total(),
            h.sum().unwrap(),
            h.min().unwrap(),
            h.max().unwrap(),
        )
        .unwrap();
        assert_eq!(back, h);
        assert!(Histogram::from_parts(&[(3, 1)], 1, 3, 3, 3).is_err());
        assert!(Histogram::from_parts(&[(2, 1)], 2, 3, 3, 3).is_err());
    }

    #[test]
    fn from_parts_rejects_counts_that_overflow() {
        // The row total overflows across two buckets ...
        let err = Histogram::from_parts(&[(1, u64::MAX), (2, 1)], 0, 0, 0, 0).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        // ... and one bucket overflows when a row repeats it.
        let err = Histogram::from_parts(&[(1, u64::MAX), (1, 1)], 0, 0, 0, 0).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn duration_api_matches_value_api() {
        let mut a = Histogram::new();
        a.record(Duration::from_nanos(777));
        let mut b = Histogram::new();
        b.record_value(777);
        assert_eq!(a, b);
    }
}
