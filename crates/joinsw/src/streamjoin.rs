//! The unified software-join surface: one trait over every engine.
//!
//! [`StreamJoin`] is the API redesign that lets the measurement harness,
//! the figure binaries, and the fault-injection sweeps drive the
//! [`SplitJoin`](crate::splitjoin::SplitJoin) router, the
//! [`HandshakeJoin`](crate::handshake::HandshakeJoin) chain, and the
//! single-threaded [`BaselineJoin`](crate::baseline::BaselineJoin)
//! through the same five verbs — spawn, process, prefill, flush,
//! shutdown — all fallible ([`JoinError`]) instead of panicking on a
//! dead peer. [`JoinSummary`] is the matching outcome surface: result
//! counts, batch-size and trace instrumentation, and the
//! [`FaultReport`] describing any degradation.
//!
//! Engine-internal disciplines stay out of this trait on purpose: the
//! SplitJoin dispatch mode
//! ([`Partitioning`](crate::config::Partitioning)) is a config knob, not
//! API surface, which is what lets one generic harness A/B broadcast
//! against partitioned dispatch without a line of engine-specific code —
//! the cross-impl equivalence suite drives all engines and both dispatch
//! modes through exactly this trait.
//!
//! ```
//! use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
//! use joinsw::streamjoin::{JoinSummary, StreamJoin};
//! use streamcore::{StreamTag, Tuple};
//!
//! fn count_one<J: StreamJoin>(config: J::Config) -> u64 {
//!     let join = J::spawn(config);
//!     join.process(StreamTag::S, Tuple::new(7, 0)).unwrap();
//!     join.process(StreamTag::R, Tuple::new(7, 1)).unwrap();
//!     join.flush().unwrap();
//!     join.shutdown().unwrap().result_count()
//! }
//!
//! assert_eq!(count_one::<SplitJoin>(SplitJoinConfig::new(2, 8)), 1);
//! ```

use accel_error::JoinError;
use streamcore::{MatchPair, StreamTag, Tuple};

use crate::config::JoinParams;
use crate::fault::FaultReport;

/// What every engine's shutdown outcome can report.
pub trait JoinSummary {
    /// Total matches observed.
    fn result_count(&self) -> u64;
    /// The collected results (empty when counting-only).
    fn results(&self) -> &[MatchPair];
    /// Sizes of the batch messages injected into the engine.
    fn batch_sizes(&self) -> &obs::Histogram;
    /// Wall-clock span rings (empty unless tracing was enabled).
    fn trace(&self) -> &[obs::trace::TraceRing];
    /// What went wrong, if anything.
    fn fault(&self) -> &FaultReport;
}

/// A running software stream join, generically.
///
/// Engine-specific configuration stays in each engine's `Config` type;
/// generic code reaches the shared fields through
/// [`JoinParams`]. All data-path verbs return
/// [`JoinError`] instead of panicking — losing *some* capacity degrades
/// the outcome's [`FaultReport`], and only unrecoverable conditions
/// (every worker gone, a panic, saturation past the supervision
/// deadline) surface as `Err`.
pub trait StreamJoin: Sized {
    /// Engine configuration (must expose the shared [`JoinParams`]).
    type Config: JoinParams + Clone;
    /// Engine shutdown outcome.
    type Outcome: JoinSummary;

    /// Spawns the engine's threads.
    fn spawn(config: Self::Config) -> Self;

    /// Submits one tuple.
    ///
    /// # Errors
    ///
    /// Engine-specific unrecoverable failures — see [`JoinError`].
    fn process(&self, tag: StreamTag, tuple: Tuple) -> Result<(), JoinError>;

    /// Submits a pre-assembled batch (default: tuple at a time).
    ///
    /// # Errors
    ///
    /// See [`StreamJoin::process`].
    fn process_batch(&self, batch: &[(StreamTag, Tuple)]) -> Result<(), JoinError> {
        for &(tag, tuple) in batch {
            self.process(tag, tuple)?;
        }
        Ok(())
    }

    /// Loads tuples into the sliding windows as measurement setup.
    /// Engines without a probe-free fast path may implement this as
    /// ordinary processing.
    ///
    /// # Errors
    ///
    /// See [`StreamJoin::process`].
    fn prefill(&self, tag: StreamTag, tuples: &[Tuple]) -> Result<(), JoinError>;

    /// Blocks until everything submitted before this call has been
    /// fully processed.
    ///
    /// # Errors
    ///
    /// See [`StreamJoin::process`].
    fn flush(&self) -> Result<(), JoinError>;

    /// Flushes, then removes and returns every match produced so far
    /// and not yet drained — the mid-run harvest the continuous-query
    /// runtime fans out to standing queries while the engine keeps
    /// streaming. Counting-only engines return an empty vector; the
    /// outcome's [`JoinSummary::result_count`] still reports the total
    /// ever produced (drained + returned at shutdown), while
    /// [`JoinSummary::results`] holds only the undrained remainder.
    ///
    /// Mirrors the `drain_results` verb the `joinhw` hardware
    /// simulations have always exposed.
    ///
    /// # Errors
    ///
    /// See [`StreamJoin::process`]: a drain is a flush plus taking what
    /// the cores have published, and adds no failure of its own.
    fn drain_results(&self) -> Result<Vec<MatchPair>, JoinError>;

    /// Stops the engine and returns the accumulated outcome.
    ///
    /// # Errors
    ///
    /// See [`StreamJoin::process`].
    fn shutdown(self) -> Result<Self::Outcome, JoinError>;

    /// Fills both windows to steady state with non-matching keys (R
    /// keys `0..window_size`, S keys `window_size..2×window_size`) —
    /// the shared warm-up of every throughput measurement.
    ///
    /// # Errors
    ///
    /// See [`StreamJoin::process`].
    fn warm(&self, window_size: usize) -> Result<(), JoinError> {
        let r: Vec<Tuple> = (0..window_size)
            .map(|i| Tuple::new(i as u32, i as u32))
            .collect();
        let s: Vec<Tuple> = (0..window_size)
            .map(|i| Tuple::new((window_size + i) as u32, i as u32))
            .collect();
        self.prefill(StreamTag::R, &r)?;
        self.prefill(StreamTag::S, &s)
    }
}
