//! Software realizations of flow-based parallel stream joins.
//!
//! This crate is the "software" column of the paper's evaluation: the
//! multithreaded SplitJoin (uni-flow) whose measurements appear in
//! Figs. 14d and 16, a software handshake join (bi-flow) chain, and a
//! single-threaded nested-loop baseline that doubles as the strict-
//! semantics reference implementation used by tests across the workspace.
//!
//! * [`splitjoin`] — uni-flow: a distributor broadcasts every tuple to N
//!   independent join-core threads; each thread stores round-robin into
//!   its sub-window and probes its share of the opposite window; each
//!   publishes its matches to an outbox of its own, which the caller
//!   takes behind the flush barrier. The thread structure mirrors the
//!   SplitJoin paper's software implementation, including the observation
//!   that the distribution and result-gathering work "consume a portion
//!   of the processors' capacity" — which is why both directions of the
//!   data path are batched (see the module docs) and the sub-windows are
//!   flat struct-of-arrays rings (`streamcore::FlatWindow`).
//! * [`handshake`] — bi-flow: a chain of threads through which R flows
//!   left-to-right and S right-to-left with low-latency fast-forwarding,
//!   with the same optional wave batching.
//! * [`baseline`] — the strict-semantics reference join, plus
//!   [`baseline::BaselineJoin`] wrapping it behind the unified trait.
//! * [`streamjoin`] — the unified [`StreamJoin`] surface: every engine
//!   behind the same fallible verbs (spawn, process, prefill, flush,
//!   drain_results, shutdown), ending in the one [`JoinOutcome`].
//! * [`outcome`] — [`JoinOutcome`], what every engine leaves behind at
//!   shutdown, published under the namespace of the engine that built it.
//! * [`config`] — the shared [`JoinConfig`] (cores, window, predicate,
//!   batching, channel capacity, fault plan) that every engine-specific
//!   config embeds, and [`JoinParams`], which carries its builders. A
//!   configuration is a value; the crate reads no environment variable.
//! * [`fault`] — deterministic fault injection: a seedless, scripted
//!   [`FaultPlan`] (kill/stall/drop/panic worker k at batch n) and the
//!   [`FaultReport`] each outcome carries describing exactly what
//!   capacity and match-completeness was lost.
//! * [`harness`] — the measurement loops behind those figures, now
//!   generic over [`StreamJoin`]: [`harness::measure_throughput`]
//!   and [`harness::measure_latency_with`], plus the calibrated
//!   multi-core scaling model used when the host has fewer hardware
//!   threads than join cores.
//!
//! # Fault model
//!
//! The data path never panics on a dead peer. Sends are supervised
//! (yield, then sleep, with a saturation deadline on a frozen heartbeat),
//! worker liveness is tracked through heartbeat counters, and losing a
//! join core *degrades* the run instead of aborting it: the SplitJoin
//! router re-partitions new tuples over the survivors (see
//! `streamcore::PartitionMap`) and the handshake chain severs at the
//! dead core. Each outcome's [`FaultReport`] accounts the exact
//! match-completeness loss (orphaned sub-window tuples) and recovery
//! latency. Only unrecoverable conditions — every worker gone, a worker
//! panic, saturation past the deadline — surface as [`JoinError`].
//!
//! Latency here is wall-clock (nanoseconds), unlike `joinhw`'s simulated
//! cycle counts: these joins run on real OS threads, so their harness
//! measures with `Instant` and archives distributions rather than single
//! averages.
//!
//! # Example
//!
//! ```
//! use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
//! use joinsw::StreamJoin;
//! use streamcore::{StreamTag, Tuple};
//!
//! let config = SplitJoinConfig::new(4, 1024);
//! let join = SplitJoin::spawn(config);
//! join.process(StreamTag::S, Tuple::new(7, 0)).unwrap();
//! join.process(StreamTag::R, Tuple::new(7, 1)).unwrap();
//! join.flush().unwrap();
//! let outcome = join.shutdown().unwrap();
//! assert_eq!(outcome.results.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod baseline;
pub mod config;
mod error;
pub mod fault;
pub mod handshake;
pub mod harness;
pub mod outcome;
pub mod splitjoin;
pub mod streamjoin;
mod supervise;

pub use config::{JoinConfig, JoinParams, DEFAULT_BATCH_SIZE};
pub use error::{JoinError, WorkerStats};
pub use fault::{FaultEvent, FaultPlan, FaultReport};
pub use outcome::{JoinOutcome, RingStats};
pub use streamjoin::StreamJoin;

/// The convenient single import for driving the software joins: the
/// unified trait surface, the shared configuration and its builders,
/// the error vocabulary, and every engine type.
///
/// ```
/// use joinsw::prelude::*;
/// use streamcore::{StreamTag, Tuple};
///
/// let join = BaselineJoin::spawn(JoinConfig::new(1, 16));
/// join.process(StreamTag::S, Tuple::new(1, 0)).unwrap();
/// join.process(StreamTag::R, Tuple::new(1, 1)).unwrap();
/// assert_eq!(join.drain_results().unwrap().len(), 1);
/// join.shutdown().unwrap();
/// ```
pub mod prelude {
    pub use crate::baseline::{BaselineJoin, NestedLoopJoin};
    pub use crate::config::{JoinConfig, JoinParams};
    pub use crate::error::{JoinError, WorkerStats};
    pub use crate::fault::{FaultEvent, FaultPlan, FaultReport};
    pub use crate::handshake::{HandshakeConfig, HandshakeJoin};
    pub use crate::outcome::JoinOutcome;
    pub use crate::splitjoin::{SplitJoin, SplitJoinConfig};
    pub use crate::streamjoin::StreamJoin;
}
