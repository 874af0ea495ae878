//! The error vocabulary of the software join runtimes.
//!
//! The software joins run real OS threads connected by bounded channels,
//! so every data-path operation can observe a failed or saturated peer.
//! [`JoinError`] is the one enum all of those surfaces return:
//! `SplitJoin::process`, `HandshakeJoin::flush`, `shutdown`, and the
//! generic `StreamJoin` trait all speak it, which is what lets the
//! measurement harness and the fault-injection suite be generic over the
//! engine.
//!
//! [`WorkerStats`] lives beside it because [`JoinError::WorkerPanicked`]
//! carries the panicked worker's statistics snapshot — the stats a
//! `shutdown` would otherwise lose by re-panicking on `JoinHandle::join`.

/// Statistics reported by each join worker (at shutdown, or as a
/// best-effort snapshot when the worker is lost mid-run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tuples this worker received.
    pub tuples_seen: u64,
    /// Tuples this worker stored into a sub-window.
    pub stored: u64,
    /// Window comparisons (probe candidates visited).
    pub comparisons: u64,
    /// Matches emitted.
    pub matches: u64,
}

/// Failures a software join runtime can report instead of panicking.
///
/// The pre-fault-model data path called `.expect("worker alive")` on every
/// channel operation; these variants replace those panics. Losing a worker
/// mid-stream is *not* automatically an error — the SplitJoin coordinator
/// re-partitions over the survivors and reports the damage in its
/// `FaultReport` — so `WorkerLost` only surfaces when degradation is
/// impossible (e.g. a severed handshake chain, or no survivors remain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// A worker thread exited (or its channel disconnected) and the
    /// operation could not be completed by rerouting around it.
    WorkerLost {
        /// Core position of the lost worker.
        worker: usize,
    },
    /// A worker thread panicked. Carries the statistics it had published
    /// before dying, so shutdown no longer loses them by re-panicking.
    WorkerPanicked {
        /// Core position of the panicked worker.
        worker: usize,
        /// The worker's last published statistics snapshot.
        stats_so_far: WorkerStats,
    },
    /// A worker's input channel stayed full with no heartbeat progress
    /// for the whole supervision deadline: the worker is alive but wedged
    /// (or the stall outlasted the bounded backoff).
    Saturated {
        /// Core position of the saturated worker.
        worker: usize,
        /// How long the supervised send waited before giving up.
        waited_ms: u64,
    },
    /// Every worker is gone; the join cannot make progress at all.
    AllWorkersLost,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::WorkerLost { worker } => {
                write!(f, "join worker {worker} was lost mid-operation")
            }
            JoinError::WorkerPanicked {
                worker,
                stats_so_far,
            } => write!(
                f,
                "join worker {worker} panicked after seeing {} tuples \
                 ({} stored, {} matches)",
                stats_so_far.tuples_seen, stats_so_far.stored, stats_so_far.matches
            ),
            JoinError::Saturated { worker, waited_ms } => write!(
                f,
                "join worker {worker} made no progress for {waited_ms} ms \
                 with a full input channel"
            ),
            JoinError::AllWorkersLost => write!(f, "all join workers are gone"),
        }
    }
}

impl std::error::Error for JoinError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_worker_position() {
        let e = JoinError::WorkerLost { worker: 3 };
        assert!(e.to_string().contains("worker 3"));
        let e = JoinError::Saturated {
            worker: 1,
            waited_ms: 250,
        };
        assert!(e.to_string().contains("250 ms"));
    }

    #[test]
    fn worker_panicked_preserves_stats() {
        let stats = WorkerStats {
            tuples_seen: 42,
            stored: 10,
            comparisons: 99,
            matches: 7,
        };
        let e = JoinError::WorkerPanicked {
            worker: 2,
            stats_so_far: stats,
        };
        match e {
            JoinError::WorkerPanicked {
                worker,
                stats_so_far,
            } => {
                assert_eq!(worker, 2);
                assert_eq!(stats_so_far, stats);
            }
            other => panic!("unexpected variant {other:?}"),
        }
        assert!(JoinError::WorkerPanicked {
            worker: 2,
            stats_so_far: stats
        }
        .to_string()
        .contains("42 tuples"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(JoinError::AllWorkersLost, JoinError::AllWorkersLost);
        assert_ne!(
            JoinError::WorkerLost { worker: 0 },
            JoinError::WorkerLost { worker: 1 }
        );
    }
}
