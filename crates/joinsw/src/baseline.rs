//! Single-threaded nested-loop stream join: the strict-semantics
//! reference implementation and the "1 core" baseline of the software
//! experiments.
//!
//! [`NestedLoopJoin`] is the raw incremental join; [`BaselineJoin`]
//! wraps it behind the unified [`StreamJoin`] surface so harnesses and
//! figure binaries can drive the baseline, the SplitJoin router, and
//! the handshake chain through the same verbs.

use std::cell::RefCell;

use crate::error::JoinError;
use streamcore::{FlatWindow, JoinPredicate, MatchPair, StreamTag, Tuple};

use crate::config::JoinConfig;
use crate::outcome::{key, JoinOutcome};
use crate::streamjoin::StreamJoin;

/// An incremental single-threaded sliding-window join.
///
/// Implements strict arrival-order semantics (Kang's three-step
/// procedure): each arriving tuple is probed against the *entire* current
/// window of the other stream, then inserted into its own window, expiring
/// the oldest tuple if full. Every parallel realization in this workspace
/// is validated against this implementation.
///
/// # Example
///
/// ```
/// use joinsw::baseline::NestedLoopJoin;
/// use streamcore::{JoinPredicate, StreamTag, Tuple};
///
/// let mut join = NestedLoopJoin::new(16, JoinPredicate::Equi);
/// assert!(join.process(StreamTag::S, Tuple::new(1, 0)).is_empty());
/// let matches = join.process(StreamTag::R, Tuple::new(1, 1));
/// assert_eq!(matches.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NestedLoopJoin {
    window_r: FlatWindow,
    window_s: FlatWindow,
    predicate: JoinPredicate,
    comparisons: u64,
}

impl NestedLoopJoin {
    /// Creates a join with per-stream windows of `window_size` tuples.
    pub fn new(window_size: usize, predicate: JoinPredicate) -> Self {
        Self {
            window_r: FlatWindow::new(window_size),
            window_s: FlatWindow::new(window_size),
            predicate,
            comparisons: 0,
        }
    }

    /// Processes one arriving tuple, returning its matches.
    pub fn process(&mut self, tag: StreamTag, tuple: Tuple) -> Vec<MatchPair> {
        let mut out = Vec::new();
        match tag {
            StreamTag::R => {
                for s in self.window_s.iter() {
                    self.comparisons += 1;
                    if self.predicate.matches(tuple, s) {
                        out.push(MatchPair { r: tuple, s });
                    }
                }
                self.window_r.insert(tuple);
            }
            StreamTag::S => {
                for r in self.window_r.iter() {
                    self.comparisons += 1;
                    if self.predicate.matches(r, tuple) {
                        out.push(MatchPair { r, s: tuple });
                    }
                }
                self.window_s.insert(tuple);
            }
        }
        out
    }

    /// Loads a tuple into its window without probing (pre-fill).
    pub fn prefill(&mut self, tag: StreamTag, tuple: Tuple) {
        match tag {
            StreamTag::R => self.window_r.insert(tuple),
            StreamTag::S => self.window_s.insert(tuple),
        };
    }

    /// Total comparisons performed.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Current window occupancy `(R, S)`.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.window_r.len(), self.window_s.len())
    }
}

/// Runs a whole input sequence through [`NestedLoopJoin`] and collects
/// every match — the reference result used by correctness tests.
pub fn reference_join(
    inputs: &[(StreamTag, Tuple)],
    window_size: usize,
    predicate: JoinPredicate,
) -> Vec<MatchPair> {
    let mut join = NestedLoopJoin::new(window_size, predicate);
    let mut out = Vec::new();
    for &(tag, t) in inputs {
        out.extend(join.process(tag, t));
    }
    out
}

/// The single-threaded baseline behind the unified [`StreamJoin`]
/// surface: a [`NestedLoopJoin`] plus the bookkeeping the trait's
/// outcome contract asks for. Single-threaded means nothing can die, so
/// every verb succeeds and the outcome's fault report is always clean —
/// which makes it the control arm of the fault-injection sweeps.
///
/// `window_size` is used as-is (one core, no sub-windows); the
/// `num_cores`, `channel_capacity`, and `fault_plan` fields of its
/// [`JoinConfig`] are ignored.
#[derive(Debug)]
pub struct BaselineJoin {
    inner: RefCell<BaselineState>,
}

#[derive(Debug)]
struct BaselineState {
    join: NestedLoopJoin,
    results: Vec<MatchPair>,
    collect: bool,
    matches: u64,
    tuples_seen: u64,
    stored: u64,
    batch_sizes: obs::Histogram,
}

impl StreamJoin for BaselineJoin {
    type Config = JoinConfig;

    fn spawn(config: JoinConfig) -> Self {
        Self {
            inner: RefCell::new(BaselineState {
                join: NestedLoopJoin::new(config.window_size, config.predicate),
                results: Vec::new(),
                collect: config.collect_results,
                matches: 0,
                tuples_seen: 0,
                stored: 0,
                batch_sizes: obs::Histogram::new(),
            }),
        }
    }

    fn process(&self, tag: StreamTag, tuple: Tuple) -> Result<(), JoinError> {
        let mut s = self.inner.borrow_mut();
        s.tuples_seen += 1;
        s.stored += 1;
        let found = s.join.process(tag, tuple);
        s.matches += found.len() as u64;
        if s.collect {
            s.results.extend(found);
        }
        Ok(())
    }

    fn process_batch(&self, batch: &[(StreamTag, Tuple)]) -> Result<(), JoinError> {
        self.inner
            .borrow_mut()
            .batch_sizes
            .record_value(batch.len() as u64);
        for &(tag, tuple) in batch {
            self.process(tag, tuple)?;
        }
        Ok(())
    }

    fn prefill(&self, tag: StreamTag, tuples: &[Tuple]) -> Result<(), JoinError> {
        let mut s = self.inner.borrow_mut();
        for &t in tuples {
            s.join.prefill(tag, t);
            s.stored += 1;
        }
        Ok(())
    }

    fn flush(&self) -> Result<(), JoinError> {
        Ok(()) // synchronous: nothing is ever in flight
    }

    fn drain_results(&self) -> Result<Vec<MatchPair>, JoinError> {
        // Synchronous engine: every produced match is already in the
        // buffer, so a drain is a plain take. `matches` keeps counting
        // across drains, preserving the total-ever `result_count`.
        Ok(std::mem::take(&mut self.inner.borrow_mut().results))
    }

    fn shutdown(self) -> Result<JoinOutcome, JoinError> {
        let s = self.inner.into_inner();
        Ok(JoinOutcome {
            engine: key::BASELINE,
            results: s.results,
            result_count: s.matches,
            worker_stats: vec![crate::error::WorkerStats {
                tuples_seen: s.tuples_seen,
                stored: s.stored,
                comparisons: s.join.comparisons(),
                matches: s.matches,
            }],
            batch_sizes: s.batch_sizes,
            ..JoinOutcome::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_join_implements_the_unified_surface() {
        let join = BaselineJoin::spawn(JoinConfig::new(1, 16));
        join.process(StreamTag::S, Tuple::new(1, 0)).unwrap();
        join.process(StreamTag::R, Tuple::new(1, 1)).unwrap();
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.result_count, 1);
        assert_eq!(outcome.results.len(), 1);
        assert_eq!(outcome.worker_stats.len(), 1);
        assert_eq!(outcome.worker_stats[0].tuples_seen, 2);
        assert!(!outcome.fault.degraded());
    }

    #[test]
    fn baseline_join_agrees_with_reference_join() {
        use streamcore::workload::{KeyDist, WorkloadSpec};
        let inputs: Vec<_> = WorkloadSpec::new(300, KeyDist::Uniform { domain: 8 })
            .generate()
            .collect();
        let join = BaselineJoin::spawn(JoinConfig::new(1, 32));
        join.process_batch(&inputs).unwrap();
        let outcome = join.shutdown().unwrap();
        let want = reference_join(&inputs, 32, JoinPredicate::Equi);
        assert_eq!(outcome.result_count, want.len() as u64);
        assert_eq!(outcome.results.len(), want.len());
    }

    #[test]
    fn probe_happens_before_insert() {
        let mut join = NestedLoopJoin::new(4, JoinPredicate::Equi);
        // A tuple must not match itself.
        assert!(join.process(StreamTag::R, Tuple::new(1, 0)).is_empty());
        assert!(join.process(StreamTag::R, Tuple::new(1, 1)).is_empty());
        // But an S tuple matches both stored R tuples.
        let m = join.process(StreamTag::S, Tuple::new(1, 2));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn expiry_removes_oldest() {
        let mut join = NestedLoopJoin::new(2, JoinPredicate::Equi);
        join.process(StreamTag::R, Tuple::new(1, 0));
        join.process(StreamTag::R, Tuple::new(2, 1));
        join.process(StreamTag::R, Tuple::new(3, 2)); // expires key 1
        assert!(join.process(StreamTag::S, Tuple::new(1, 3)).is_empty());
        assert_eq!(join.process(StreamTag::S, Tuple::new(2, 4)).len(), 1);
    }

    #[test]
    fn reference_join_counts_cross_matches() {
        let inputs: Vec<_> = (0..10u32)
            .map(|i| {
                let tag = if i % 2 == 0 {
                    StreamTag::R
                } else {
                    StreamTag::S
                };
                (tag, Tuple::new(0, i)) // all same key
            })
            .collect();
        let out = reference_join(&inputs, 100, JoinPredicate::Equi);
        // i-th tuple matches all prior tuples of the other stream:
        // 0+1+1+2+2+3+3+4+4+5 = 25? With alternation: tuple i matches
        // floor(i/2) + (i odd ? 1 : 0) earlier opposite tuples:
        // 0,1,1,2,2,3,3,4,4,5 -> 25 total.
        assert_eq!(out.len(), 25);
    }

    #[test]
    fn prefill_skips_probing() {
        let mut join = NestedLoopJoin::new(4, JoinPredicate::Equi);
        join.prefill(StreamTag::S, Tuple::new(9, 0));
        assert_eq!(join.comparisons(), 0);
        assert_eq!(join.occupancy(), (0, 1));
        assert_eq!(join.process(StreamTag::R, Tuple::new(9, 1)).len(), 1);
        assert_eq!(join.comparisons(), 1);
    }

    #[test]
    fn band_predicate_respected() {
        let mut join = NestedLoopJoin::new(4, JoinPredicate::Band { delta: 1 });
        join.prefill(StreamTag::S, Tuple::new(10, 0));
        assert_eq!(join.process(StreamTag::R, Tuple::new(11, 1)).len(), 1);
        assert_eq!(join.process(StreamTag::R, Tuple::new(12, 2)).len(), 0);
    }
}
