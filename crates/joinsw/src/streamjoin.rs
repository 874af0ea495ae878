//! The unified software-join surface: one trait over every engine.
//!
//! [`StreamJoin`] is the API redesign that lets the measurement harness,
//! the figure binaries, and the fault-injection sweeps drive the
//! [`SplitJoin`](crate::splitjoin::SplitJoin) router, the
//! [`HandshakeJoin`](crate::handshake::HandshakeJoin) chain, and the
//! single-threaded [`BaselineJoin`](crate::baseline::BaselineJoin)
//! through the same verbs — spawn, process, process_batch, prefill,
//! flush, drain_results, shutdown — all fallible ([`JoinError`]) instead
//! of panicking on a dead peer, and all ending in the same
//! [`JoinOutcome`]: result counts, per-core statistics, batch-size and
//! trace instrumentation, and the
//! [`FaultReport`](crate::fault::FaultReport) describing any
//! degradation. The verbs are written once per engine, in its
//! `impl StreamJoin`; an engine type has no inherent copies, so a caller
//! brings this trait into scope (the [prelude](crate::prelude) does).
//!
//! Engine-internal disciplines stay out of this trait on purpose: what
//! differs between engines lives in each engine's `Config`, which is what
//! lets one generic harness drive every engine without a line of
//! engine-specific code — the cross-impl equivalence suite drives all
//! engines through exactly this trait.
//!
//! ```
//! use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
//! use joinsw::streamjoin::StreamJoin;
//! use streamcore::{StreamTag, Tuple};
//!
//! fn count_one<J: StreamJoin>(config: J::Config) -> u64 {
//!     let join = J::spawn(config);
//!     join.process(StreamTag::S, Tuple::new(7, 0)).unwrap();
//!     join.process(StreamTag::R, Tuple::new(7, 1)).unwrap();
//!     join.flush().unwrap();
//!     join.shutdown().unwrap().result_count
//! }
//!
//! assert_eq!(count_one::<SplitJoin>(SplitJoinConfig::new(2, 8)), 1);
//! ```

use crate::error::JoinError;
use streamcore::{MatchPair, StreamTag, Tuple};

use crate::config::JoinParams;
use crate::outcome::JoinOutcome;

/// A running software stream join, generically.
///
/// Engine-specific configuration stays in each engine's `Config` type;
/// generic code reaches the shared fields through
/// [`JoinParams`]. All data-path verbs return
/// [`JoinError`] instead of panicking — losing *some* capacity degrades
/// the outcome's [`FaultReport`](crate::fault::FaultReport), and only
/// unrecoverable conditions (every worker gone, a panic, saturation past
/// the supervision deadline) surface as `Err`.
pub trait StreamJoin: Sized {
    /// Engine configuration (must expose the shared [`JoinParams`]).
    type Config: JoinParams + Clone;
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
    /// outcome's [`JoinOutcome::result_count`] still reports the total
    /// ever produced (drained + returned at shutdown), while
    /// [`JoinOutcome::results`] holds only the undrained remainder.
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
    fn shutdown(self) -> Result<JoinOutcome, JoinError>;

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
