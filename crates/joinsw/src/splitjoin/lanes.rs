//! What travels from the router to the join cores: the distribution
//! message and the receiving end of its ring.

use std::sync::Arc;

use streamcore::ring::{PopError, RingConsumer};
use streamcore::{PartitionMap, StreamTag, Tuple};

use crate::supervise::Idle;

pub(super) enum Msg {
    /// One distribution batch resident in the shared
    /// [`batch arena`](streamcore::ring::batch_arena): the worker probes
    /// arena slot `seq % slots` in place — zero-copy — and releases it
    /// afterwards so the slot can be reused.
    ArenaBatch {
        /// Arena sequence number identifying the batch.
        seq: u64,
    },
    /// One keyed-dispatch sub-batch (partitioned mode): only the
    /// entries this worker owns or must probe, each stamped with the
    /// global stream coordinates that keep its shard window-equivalent
    /// to the broadcast realization.
    Part(Arc<[PartEntry]>),
    /// Window pre-fill (no probing), shared across all workers.
    Prefill(StreamTag, Arc<[Tuple]>),
    /// A worker died: switch to this partition map for future storage
    /// turns. All survivors see it at the same position in their FIFO
    /// queues, so they switch at an identical tuple boundary.
    Reconfigure(Arc<PartitionMap>),
    /// Shutdown: the one message neither side counts. Every other is
    /// counted when sent and when finished, and those two counts are the
    /// flush barrier ([`Router::flush`](super::router::Router::flush)).
    Stop,
}

/// One keyed-dispatch entry: a tuple plus the global stream coordinates
/// the receiving worker needs to evict its shard by exactly the
/// watermarks the broadcast window realizes.
#[derive(Debug, Clone, Copy)]
pub(super) struct PartEntry {
    pub(super) tag: StreamTag,
    pub(super) tuple: Tuple,
    /// Global per-stream sequence number of this tuple (0-based).
    pub(super) seq: u64,
    /// Opposite-stream tuple count at this tuple's arrival — the probe
    /// watermark: the shard evicts below `opp - window` before probing.
    pub(super) opp: u64,
    /// Store into the own-stream shard (the key's owner, or the hot
    /// round-robin turn).
    pub(super) store: bool,
    /// Probe the opposite-stream shard (`false` for prefill).
    pub(super) probe: bool,
}

/// Blocking receive on a worker's distribution ring. `None` means the
/// router is gone and the ring is fully drained.
pub(super) fn recv_msg(msgs: &mut RingConsumer<Msg>) -> Option<Msg> {
    let mut idle = Idle::recv();
    loop {
        match msgs.try_pop() {
            Ok(msg) => return Some(msg),
            Err(PopError::Disconnected) => return None,
            Err(PopError::Empty) => idle.wait(),
        }
    }
}
