//! Stream-processing substrate shared by the hardware and software paths of
//! the acceleration-landscape reproduction.
//!
//! The paper's case study joins two unbounded streams, *R* and *S*, of
//! 64-bit tuples under count-based sliding windows. This crate provides the
//! domain vocabulary both realizations share:
//!
//! * [`Tuple`], [`StreamTag`], [`Frame`], [`MatchPair`] — the 64-bit tuple
//!   model with the 2-bit bus header of the hardware design;
//! * [`Record`], [`Schema`] — wider, schema-described records for the
//!   Flexible Query Processor;
//! * [`SlidingWindow`] — count-based sliding window semantics (the
//!   generic `VecDeque` reference backend), plus the flat
//!   struct-of-arrays backends [`FlatWindow`] (the SplitJoin
//!   sub-window) and [`HashIndexWindow`] (its equi-indexed variant),
//!   and the key-sharded
//!   [`PartitionedWindow`] behind hash-partitioned dispatch;
//! * [`PartitionMap`] — round-robin ownership of storage turns over live
//!   worker positions, used by the software SplitJoin coordinator to
//!   re-partition around a lost core, plus rendezvous-hashed key
//!   ownership ([`PartitionMap::key_owner`]) for content partitioning;
//! * [`FreqSketch`] — bounded Misra–Gries heavy-hitter summary driving
//!   online hot-key splitting;
//! * [`kernel`] — blocked batch×window probe kernels (tiled,
//!   autovectorizer-friendly compare sweeps), the software analog of
//!   the paper's comparator array;
//! * [`workload`] — reproducible stream generators with controllable key
//!   domains, skew, arrival interleaving, and bounded disorder;
//! * [`metrics`] — throughput and latency recorders used by every
//!   experiment harness.
//!
//! # Example
//!
//! ```
//! use streamcore::{SlidingWindow, Tuple};
//!
//! let mut window: SlidingWindow<Tuple> = SlidingWindow::new(3);
//! for k in 0..5u32 {
//!     window.insert(Tuple::new(k, 0));
//! }
//! // Capacity 3: only the last three tuples remain.
//! let keys: Vec<u32> = window.iter().map(|t| t.key()).collect();
//! assert_eq!(keys, vec![2, 3, 4]);
//! ```

// `deny` instead of `forbid`: the lock-free ring/arena transport
// (`ring.rs`) is the one module allowed to opt back in, with per-block
// safety arguments, and the one CI runs under miri. A CI step fails on
// `unsafe` anywhere else in this crate.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod metrics;
mod partition;
pub mod ring;
mod predicate;
mod record;
mod sketch;
mod tuple;
mod window;
pub mod workload;

pub use partition::PartitionMap;
pub use predicate::JoinPredicate;
pub use record::{Field, Record, Schema, SchemaError};
pub use sketch::FreqSketch;
pub use tuple::{Frame, MatchPair, StreamTag, Tuple};
pub use window::{FlatWindow, HashIndexWindow, PartitionedWindow, ProbeHits, SlidingWindow};
