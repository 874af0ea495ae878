//! Shared configuration for every software join engine.
//!
//! [`JoinConfig`] holds the fields all engines agree on — cores, window,
//! predicate, channel capacity, batch size, result collection, and the
//! [`FaultPlan`] — with one set of builder methods and one set of
//! validation rules. The per-engine configs
//! ([`SplitJoinConfig`](crate::splitjoin::SplitJoinConfig),
//! [`HandshakeConfig`](crate::handshake::HandshakeConfig)) wrap it in a
//! `common` field and deref to it, adding only their engine-specific
//! extensions (SplitJoin's hot-key thresholds). The [`JoinParams`]
//! trait is how generic code ([`StreamJoin`](crate::streamjoin::StreamJoin)
//! implementations, the measurement harness) reaches the shared fields of
//! any engine's config, and where the shared `with_*` builders are
//! written, once, for all three config types. A configuration is a
//! value: nothing here reads the process environment.

use streamcore::JoinPredicate;

use crate::fault::FaultPlan;

/// How the SplitJoin router dispatches tuples to the join cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partitioning {
    /// Every batch goes to every worker; storage is round-robin by
    /// sequence number ([`streamcore::PartitionMap::owner`]). Works for
    /// any predicate — the paper's baseline discipline, and the
    /// default.
    Broadcast,
    /// Content partitioning (PanJoin-style): the window is sharded by
    /// join key ([`streamcore::PartitionMap::key_owner`]) and each
    /// tuple travels only to its key's owner, so a probe touches one
    /// worker's partition instead of all of them. Keys a frequency
    /// sketch flags as hot are split online across all live workers.
    /// Equi-joins only. SplitJoin only: the handshake chain's systolic
    /// discipline is inherently broadcast-like and ignores this knob.
    Hash,
}

/// Default distribution batch size (tuples per batch message). Batched
/// and unbatched feeding agree at every size; the data-path suites run
/// at `1` as well, which sends a SplitJoin through the per-tuple probe
/// path instead of the blocked one.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// The configuration fields shared by every software join engine.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinConfig {
    /// Number of join-core threads.
    pub num_cores: usize,
    /// Sliding-window size per stream (tuples), divided across cores.
    pub window_size: usize,
    /// Join condition.
    pub predicate: JoinPredicate,
    /// Per-worker (or per-link) channel capacity, counted in **messages**
    /// — i.e. batches, not tuples. Must be non-zero.
    pub channel_capacity: usize,
    /// Tuples accumulated per batch message. `1` reproduces the unbatched
    /// message-per-tuple data path exactly. Must be non-zero.
    pub batch_size: usize,
    /// Retain results (`true`) or only count them. When `false` no
    /// match is materialized.
    pub collect_results: bool,
    /// Scripted faults for this run. The default is the empty plan, whose
    /// behavior is bit-for-bit the healthy data path.
    pub fault_plan: FaultPlan,
    /// How tuples reach the join cores (see [`Partitioning`]); defaults
    /// to [`Partitioning::Broadcast`]. [`Partitioning::Hash`] requires an
    /// equi-join predicate (checked at spawn) and is SplitJoin-only.
    pub partitioning: Partitioning,
}

impl JoinConfig {
    /// An equi-join configuration with the SplitJoin channel defaults
    /// (capacity 1024, batch size [`DEFAULT_BATCH_SIZE`]) and no faults.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` or `window_size` is zero.
    pub fn new(num_cores: usize, window_size: usize) -> Self {
        assert!(num_cores > 0, "need at least one join core");
        assert!(window_size > 0, "window size must be positive");
        Self {
            num_cores,
            window_size,
            predicate: JoinPredicate::Equi,
            channel_capacity: 1_024,
            batch_size: DEFAULT_BATCH_SIZE,
            collect_results: true,
            fault_plan: FaultPlan::none(),
            partitioning: Partitioning::Broadcast,
        }
    }

    /// Per-core sub-window capacity.
    pub fn sub_window(&self) -> usize {
        self.window_size.div_ceil(self.num_cores)
    }

    /// The window size actually realized: `num_cores × sub_window()`.
    /// Equals `window_size` whenever it divides evenly by the core count.
    pub fn effective_window(&self) -> usize {
        self.sub_window() * self.num_cores
    }

    /// Re-asserts the invariants on the public fields (engines call this
    /// at spawn, since direct field writes bypass the builders).
    ///
    /// # Panics
    ///
    /// Panics on a zero `channel_capacity` or `batch_size`, or a fault
    /// plan targeting a worker `>= num_cores`.
    pub fn validate(&self) {
        assert!(self.channel_capacity > 0, "channel capacity must be positive");
        assert!(self.batch_size > 0, "batch size must be positive");
        self.fault_plan.validate(self.num_cores);
    }
}

/// Access to the shared [`JoinConfig`] inside any engine's configuration
/// type — what lets the harness set `collect_results`, read
/// `window_size`, or install a [`FaultPlan`] generically — and the
/// builders for those shared fields, provided once for every config
/// type. The handshake chain ignores `partitioning`, set by builder or
/// by field write.
pub trait JoinParams: Sized {
    /// The shared configuration fields.
    fn common(&self) -> &JoinConfig;
    /// Mutable access to the shared configuration fields.
    fn common_mut(&mut self) -> &mut JoinConfig;

    /// Selects the dispatch discipline (see [`Partitioning`]).
    /// [`Partitioning::Hash`] requires an equi-join predicate, checked
    /// at spawn.
    #[must_use]
    fn with_partitioning(mut self, partitioning: Partitioning) -> Self {
        self.common_mut().partitioning = partitioning;
        self
    }

    /// Replaces the join predicate.
    #[must_use]
    fn with_predicate(mut self, predicate: JoinPredicate) -> Self {
        self.common_mut().predicate = predicate;
        self
    }

    /// Sets the batch size (see [`JoinConfig::batch_size`]): tuples per
    /// distribution batch in SplitJoin, per wave group on the chain.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    #[must_use]
    fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.common_mut().batch_size = batch_size;
        self
    }

    /// Sets the channel capacity (see [`JoinConfig::channel_capacity`]).
    /// On the handshake chain this is the *ordering precision* knob: it
    /// bounds how many wave groups can be in flight, and therefore how
    /// far result semantics can drift from strict arrival-order
    /// semantics under pipelining.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity link would
    /// deadlock the distributor against its own workers.
    #[must_use]
    fn with_channel_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be positive");
        self.common_mut().channel_capacity = capacity;
        self
    }

    /// Disables result retention and collection (counting only).
    #[must_use]
    fn counting_only(mut self) -> Self {
        self.common_mut().collect_results = false;
        self
    }

    /// Installs a fault plan, validating its targets against the core
    /// count the same way `batch_size` / `channel_capacity` are
    /// validated. Batch numbers count the messages each core processes
    /// (on the chain: wave groups, both lanes combined).
    ///
    /// # Panics
    ///
    /// Panics if the plan targets a worker `>= num_cores`.
    #[must_use]
    fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        plan.validate(self.common().num_cores);
        self.common_mut().fault_plan = plan;
        self
    }
}

impl JoinParams for JoinConfig {
    fn common(&self) -> &JoinConfig {
        self
    }
    fn common_mut(&mut self) -> &mut JoinConfig {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;

    #[test]
    fn builders_round_trip() {
        let config = JoinConfig::new(3, 48)
            .with_predicate(JoinPredicate::Band { delta: 2 })
            .with_batch_size(7)
            .with_channel_capacity(9)
            .counting_only();
        assert_eq!(config.num_cores, 3);
        assert_eq!(config.window_size, 48);
        assert_eq!(config.batch_size, 7);
        assert_eq!(config.channel_capacity, 9);
        assert!(!config.collect_results);
        assert_eq!(config.sub_window(), 16);
        assert_eq!(config.effective_window(), 48);
    }

    #[test]
    fn partitioning_builder_and_default() {
        let config = JoinConfig::new(2, 8).with_partitioning(Partitioning::Hash);
        assert_eq!(config.partitioning, Partitioning::Hash);
        assert_eq!(JoinConfig::new(2, 8).partitioning, Partitioning::Broadcast);
    }

    #[test]
    #[should_panic(expected = "targets worker 5")]
    fn fault_plan_is_validated_like_the_sizing_knobs() {
        let _ = JoinConfig::new(4, 32).with_fault_plan(
            FaultPlan::none().with(FaultEvent::Kill { worker: 5, after_batch: 1 }),
        );
    }

    #[test]
    #[should_panic(expected = "channel capacity must be positive")]
    fn validate_catches_direct_field_writes() {
        let mut config = JoinConfig::new(2, 8);
        config.channel_capacity = 0;
        config.validate();
    }
}
