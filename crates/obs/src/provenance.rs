//! Per-tuple latency provenance: 1-in-N sampled stage-by-stage
//! timestamps.
//!
//! End-to-end latency histograms say how long tuples took; provenance
//! says *where the time went*. A [`ProvenanceTracker`] tags every N-th
//! ingested tuple (one in flight at a time) and records a timestamp at
//! each pipeline stage — ingest → distribute → probe → gather → emit —
//! accumulating the four stage deltas and the end-to-end total into
//! histograms that [`record_into`](ProvenanceTracker::record_into)
//! merges into a [`RunManifest`].
//!
//! Stamps are clamped monotonic (a stage timestamp is at least the
//! previous stage's), so for every completed sample the four stage
//! deltas sum *exactly* to the end-to-end total — the exported
//! `prov.*_sum` counters make that invariant checkable from the
//! manifest alone.
//!
//! The tracker is time-domain agnostic: the hardware pipelines stamp
//! simulation cycles, a software pipeline could stamp nanoseconds.
//!
//! # Example
//!
//! ```
//! use obs::provenance::{ProvenanceTracker, Stage};
//!
//! let mut p = ProvenanceTracker::new(1); // sample every tuple
//! assert!(p.offer(7, 100));              // ingest at cycle 100
//! p.stamp(Stage::Distribute, 103);
//! p.stamp(Stage::Probe, 120);
//! p.stamp(Stage::Gather, 125);
//! p.stamp(Stage::Emit, 126);
//! assert_eq!(p.completed(), 1);
//! assert_eq!(p.total_sum(), 26);
//! assert_eq!(p.stage_sums().iter().sum::<u64>(), 26);
//! ```

use crate::{Histogram, RunManifest};

/// A pipeline stage boundary, stamped in order after ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The distribution network delivered the tuple to every core.
    Distribute,
    /// The last core finished probing its sub-window.
    Probe,
    /// The last result reached the gathering-tree sink (equals the probe
    /// stamp when the tuple matched nothing).
    Gather,
    /// The harness drained the results (sample complete).
    Emit,
}

/// Number of stamped stages ([`Stage`] variants).
pub const STAGES: usize = 4;

impl Stage {
    /// Stage index in stamping order.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Stage::Distribute => 0,
            Stage::Probe => 1,
            Stage::Gather => 2,
            Stage::Emit => 3,
        }
    }

    /// Stable lower-case name (used in manifest keys).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Distribute => "distribute",
            Stage::Probe => "probe",
            Stage::Gather => "gather",
            Stage::Emit => "emit",
        }
    }
}

/// The one sampled tuple currently in flight.
#[derive(Debug, Clone, Copy)]
struct Flight {
    id: u64,
    ingest: u64,
    /// Timestamp of the last stamped stage (starts at `ingest`).
    last: u64,
    /// Index of the next stage expected ([`Stage::index`] order).
    next: usize,
}

/// Samples one in every `every` ingested tuples and accumulates its
/// per-stage latency breakdown (see the module docs).
///
/// At most one sample is in flight at a time, so the tracker is O(1)
/// space and the pipeline only ever watches for a single tagged tuple.
#[derive(Debug, Clone)]
pub struct ProvenanceTracker {
    every: u64,
    seen: u64,
    flight: Option<Flight>,
    sampled: u64,
    completed: u64,
    stage_hist: [Histogram; STAGES],
    total_hist: Histogram,
    stage_sum: [u64; STAGES],
    total_sum: u64,
}

impl ProvenanceTracker {
    /// Creates a tracker sampling 1-in-`every` tuples (clamped to ≥ 1).
    #[must_use]
    pub fn new(every: u64) -> Self {
        Self {
            every: every.max(1),
            seen: 0,
            flight: None,
            sampled: 0,
            completed: 0,
            stage_hist: [
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ],
            total_hist: Histogram::new(),
            stage_sum: [0; STAGES],
            total_sum: 0,
        }
    }

    /// Observes one ingested tuple at timestamp `now`. Returns `true`
    /// when this tuple becomes the in-flight sample (the caller should
    /// then watch it through the pipeline and [`stamp`] each stage).
    ///
    /// A new sample starts only when none is in flight and the tuple's
    /// ordinal hits the sampling period, so a stuck sample never blocks
    /// later ones from the same ordinal class.
    ///
    /// [`stamp`]: ProvenanceTracker::stamp
    pub fn offer(&mut self, id: u64, now: u64) -> bool {
        let pick = self.flight.is_none() && self.seen.is_multiple_of(self.every);
        self.seen = self.seen.wrapping_add(1);
        if pick {
            self.flight = Some(Flight {
                id,
                ingest: now,
                last: now,
                next: 0,
            });
            self.sampled += 1;
        }
        pick
    }

    /// The id of the in-flight sample, if any.
    #[must_use]
    pub fn in_flight(&self) -> Option<u64> {
        self.flight.map(|f| f.id)
    }

    /// Stamps the in-flight sample at `stage`. Returns the
    /// `(previous, clamped)` timestamps of the stage interval when the
    /// stamp was accepted (stages must arrive in order; out-of-order or
    /// duplicate stamps and stamps with no sample in flight return
    /// `None`).
    ///
    /// The clamped timestamp is `max(now, previous)`, which keeps stage
    /// deltas non-negative and their sum exactly equal to the end-to-end
    /// total. [`Stage::Emit`] completes the sample.
    pub fn stamp(&mut self, stage: Stage, now: u64) -> Option<(u64, u64)> {
        let flight = self.flight.as_mut()?;
        if stage.index() != flight.next {
            return None;
        }
        let prev = flight.last;
        let clamped = now.max(prev);
        let i = stage.index();
        self.stage_hist[i].record_value(clamped - prev);
        self.stage_sum[i] += clamped - prev;
        flight.last = clamped;
        flight.next += 1;
        if stage == Stage::Emit {
            let total = clamped - flight.ingest;
            self.total_hist.record_value(total);
            self.total_sum += total;
            self.completed += 1;
            self.flight = None;
        }
        Some((prev, clamped))
    }

    /// Abandons the in-flight sample (end of run with the pipeline not
    /// fully drained). Its partial stamps stay in the stage histograms.
    pub fn abandon(&mut self) {
        self.flight = None;
    }

    /// The sampling period.
    #[must_use]
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Samples started.
    #[must_use]
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Samples stamped all the way through [`Stage::Emit`].
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Exact per-stage delta sums, indexed by [`Stage::index`].
    #[must_use]
    pub fn stage_sums(&self) -> [u64; STAGES] {
        self.stage_sum
    }

    /// Exact sum of end-to-end totals over completed samples. Equals the
    /// sum of [`stage_sums`](ProvenanceTracker::stage_sums) when every
    /// sample completed.
    #[must_use]
    pub fn total_sum(&self) -> u64 {
        self.total_sum
    }

    /// Merges the breakdown into a manifest: histograms
    /// `prov.<stage>_<unit>` and `prov.total_<unit>`, plus counters
    /// `prov.sampled`, `prov.completed`, `prov.sample_every`,
    /// `prov.<stage>_sum`, and `prov.total_sum`.
    pub fn record_into(&self, m: &mut RunManifest, unit: &str) {
        for stage in [Stage::Distribute, Stage::Probe, Stage::Gather, Stage::Emit] {
            m.histogram(
                format!("prov.{}_{unit}", stage.name()),
                self.stage_hist[stage.index()].clone(),
            );
            m.counter(
                format!("prov.{}_sum", stage.name()),
                self.stage_sum[stage.index()],
            );
        }
        m.histogram(format!("prov.total_{unit}"), self.total_hist.clone());
        m.counter("prov.total_sum", self.total_sum);
        m.counter("prov.sampled", self.sampled);
        m.counter("prov.completed", self.completed);
        m.counter("prov.sample_every", self.every);
    }

    /// Folds another tracker's accumulated breakdown into this one:
    /// histograms, sums, and sample counts add. The sampling period and
    /// any in-flight sample of `other` are ignored — merge finished
    /// trackers (e.g. one per measured point) into a figure-wide one.
    pub fn merge(&mut self, other: &ProvenanceTracker) {
        for i in 0..STAGES {
            self.stage_hist[i].merge(&other.stage_hist[i]);
            self.stage_sum[i] += other.stage_sum[i];
        }
        self.total_hist.merge(&other.total_hist);
        self.total_sum += other.total_sum;
        self.sampled += other.sampled;
        self.completed += other.completed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_one_in_every_n_with_one_in_flight() {
        let mut p = ProvenanceTracker::new(4);
        assert!(p.offer(0, 10)); // ordinal 0 sampled
        assert!(!p.offer(1, 11));
        assert!(!p.offer(2, 12));
        assert!(!p.offer(3, 13));
        assert!(!p.offer(4, 14)); // ordinal 4 hits the period but one is in flight
        assert_eq!(p.sampled(), 1);
        assert_eq!(p.in_flight(), Some(0));
        for (stage, at) in [
            (Stage::Distribute, 15),
            (Stage::Probe, 20),
            (Stage::Gather, 22),
            (Stage::Emit, 23),
        ] {
            assert!(p.stamp(stage, at).is_some());
        }
        assert_eq!(p.in_flight(), None);
        assert!(!p.offer(5, 24)); // ordinal 5: off-period
        assert!(!p.offer(6, 25));
        assert!(!p.offer(7, 26));
        assert!(p.offer(8, 27)); // next on-period ordinal samples again
        assert_eq!(p.sampled(), 2);
    }

    #[test]
    fn stage_deltas_sum_exactly_to_total() {
        let mut p = ProvenanceTracker::new(1);
        // Second stamp goes *backwards* (out-of-domain clock skew):
        // clamping keeps the invariant.
        assert!(p.offer(1, 100));
        p.stamp(Stage::Distribute, 110);
        p.stamp(Stage::Probe, 105); // clamped to 110
        p.stamp(Stage::Gather, 140);
        p.stamp(Stage::Emit, 141);
        assert!(p.offer(2, 200));
        p.stamp(Stage::Distribute, 203);
        p.stamp(Stage::Probe, 220);
        p.stamp(Stage::Gather, 220); // zero-match: same cycle
        p.stamp(Stage::Emit, 230);
        assert_eq!(p.completed(), 2);
        assert_eq!(p.total_sum(), 41 + 30);
        assert_eq!(p.stage_sums().iter().sum::<u64>(), p.total_sum());
        assert_eq!(p.total_hist.total(), 2);
        assert_eq!(p.stage_hist[Stage::Probe.index()].total(), 2);
    }

    #[test]
    fn out_of_order_and_duplicate_stamps_are_rejected() {
        let mut p = ProvenanceTracker::new(1);
        assert_eq!(p.stamp(Stage::Distribute, 5), None); // nothing in flight
        assert!(p.offer(1, 0));
        assert_eq!(p.stamp(Stage::Probe, 5), None); // Distribute first
        assert_eq!(p.stamp(Stage::Distribute, 5), Some((0, 5)));
        assert_eq!(p.stamp(Stage::Distribute, 6), None); // duplicate
        assert_eq!(p.stamp(Stage::Emit, 7), None); // skipping stages
        assert_eq!(p.stamp(Stage::Probe, 7), Some((5, 7)));
    }

    #[test]
    fn abandon_clears_the_flight_without_completing() {
        let mut p = ProvenanceTracker::new(1);
        assert!(p.offer(1, 0));
        p.stamp(Stage::Distribute, 3);
        p.abandon();
        assert_eq!(p.in_flight(), None);
        assert_eq!(p.completed(), 0);
        assert_eq!(p.sampled(), 1);
        // The partial stamp stays in the stage histogram.
        assert_eq!(p.stage_hist[Stage::Distribute.index()].total(), 1);
        assert!(p.offer(2, 10)); // a new sample can start
    }

    #[test]
    fn record_into_exposes_breakdown_and_sums() {
        let mut p = ProvenanceTracker::new(2);
        assert!(p.offer(1, 0));
        p.stamp(Stage::Distribute, 2);
        p.stamp(Stage::Probe, 10);
        p.stamp(Stage::Gather, 11);
        p.stamp(Stage::Emit, 12);
        let mut m = RunManifest::new("prov-test");
        p.record_into(&mut m, "cycles");
        assert_eq!(m.counters().get("prov.sampled"), Some(1));
        assert_eq!(m.counters().get("prov.completed"), Some(1));
        assert_eq!(m.counters().get("prov.sample_every"), Some(2));
        assert_eq!(m.counters().get("prov.total_sum"), Some(12));
        let stage_total: u64 = ["distribute", "probe", "gather", "emit"]
            .iter()
            .map(|s| m.counters().get(&format!("prov.{s}_sum")).unwrap())
            .sum();
        assert_eq!(stage_total, 12);
        let names: Vec<&str> = m.histograms().iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"prov.probe_cycles"));
        assert!(names.contains(&"prov.total_cycles"));
    }

    #[test]
    fn zero_period_clamps_to_one() {
        let mut p = ProvenanceTracker::new(0);
        assert_eq!(p.every(), 1);
        assert!(p.offer(1, 0));
    }

    #[test]
    fn merge_adds_breakdowns_and_preserves_stage_sum_invariant() {
        let run = |base: u64| {
            let mut p = ProvenanceTracker::new(1);
            assert!(p.offer(base, base));
            p.stamp(Stage::Distribute, base + 1);
            p.stamp(Stage::Probe, base + 4);
            p.stamp(Stage::Gather, base + 5);
            p.stamp(Stage::Emit, base + 7);
            p
        };
        let mut a = run(10);
        let b = run(100);
        a.merge(&b);
        assert_eq!(a.sampled(), 2);
        assert_eq!(a.completed(), 2);
        assert_eq!(a.total_sum(), 14);
        assert_eq!(a.stage_sums().iter().sum::<u64>(), a.total_sum());
        assert_eq!(a.total_hist.total(), 2);
        // The in-flight sample of `other` does not leak across.
        assert_eq!(a.in_flight(), None);
    }
}
