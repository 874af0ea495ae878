//! What travels from the router to the join cores: the distribution
//! message and the receiving end of its ring.

use std::sync::Arc;

use streamcore::ring::{PopError, RingConsumer};
use streamcore::{PartitionMap, StreamTag, Tuple};

use crate::supervise::{Idle, WorkerCell};

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
    /// Shutdown: the one message neither side counts. Every other is
    /// counted when sent and when finished, and those two counts are the
    /// flush barrier ([`Router::flush`](super::router::Router::flush)).
    Stop,
}

/// Blocking receive on a worker's distribution ring. `None` means the
/// router sent `Stop`, or is gone and the ring is fully drained. Every
/// empty poll stamps the worker's beat ([`WorkerCell::stamp_beat`]), the
/// one reading the live plane's silence check takes: a worker waiting
/// here is idle, not stalled.
pub(super) fn recv_msg(msgs: &mut RingConsumer<Msg>, cell: &WorkerCell) -> Option<Msg> {
    let mut idle = Idle::recv();
    loop {
        match msgs.try_pop() {
            Ok(Msg::Stop) | Err(PopError::Disconnected) => return None,
            Ok(msg) => return Some(msg),
            Err(PopError::Empty) => {
                cell.stamp_beat();
                idle.wait();
            }
        }
    }
}
