//! What travels from the router to the join cores: the distribution
//! message. Its ring carries no stop message: the router drops its
//! producer, and the core loop (`supervise::run_core`) ends the worker
//! once the ring has closed and drained.

use std::sync::Arc;

use streamcore::{PartitionMap, StreamTag, Tuple};

/// Every message is counted when sent and when finished, and those two
/// counts are the flush barrier
/// ([`Router::flush`](super::router::Router::flush)).
pub(super) enum Msg {
    /// One distribution batch, shared across all workers: each probes
    /// it in place and drops its handle, so the buffer lives only while
    /// some worker still has it queued or in hand.
    Batch(Arc<[(StreamTag, Tuple)]>),
    /// Window pre-fill (no probing), shared across all workers.
    Prefill(StreamTag, Arc<[Tuple]>),
    /// A worker died: switch to this partition map for future storage
    /// turns. All survivors see it at the same position in their FIFO
    /// queues, so they switch at an identical tuple boundary.
    Reconfigure(Arc<PartitionMap>),
}
