//! Multithreaded uni-flow stream join (SplitJoin) — the software system
//! measured in Figs. 14d and 16 of the paper.
//!
//! Architecture (mirroring the hardware design of Fig. 9 in threads):
//!
//! ```text
//!            caller thread (distribution network)
//!           /         |          \
//!      join core   join core   join core      (N worker threads)
//!       [outbox]    [outbox]    [outbox]
//!           \         |          /
//!            caller thread (result gathering: `drain_results`)
//! ```
//!
//! An engine of N cores is N threads, collecting or not: there is no
//! gathering thread.
//!
//! Each worker owns one sub-window per stream and receives *every* tuple:
//! it probes the tuple against its share of the opposite window and stores
//! it round-robin ("each join core independently counts the number of
//! tuples received and, based on its position among other join cores,
//! determines its turn to store") — no central coordination.
//!
//! # The batched data path
//!
//! The paper observes that in software "the distribution and result
//! gathering network also consume a portion of the processors' capacity";
//! naïvely that cost is one cross-thread channel message *per tuple per
//! worker* on the way in and one *per match* on the way out, which
//! dominates the short per-tuple probe. This implementation batches both
//! directions:
//!
//! * **Distribution** — [`SplitJoin::process`] accumulates tuples in a
//!   caller-side buffer and ships one batch message per
//!   [`JoinConfig::batch_size`](crate::config::JoinConfig::batch_size)
//!   tuples to every worker (one shared copy per batch, N handles to
//!   it — not N copies).
//! * **Collection** — a worker writes each match once, into a local
//!   buffer, and at the end of every message moves that buffer (by
//!   pointer when it can) into its own *outbox*.
//!   [`SplitJoin::drain_results`] is the flush barrier followed by taking
//!   every outbox in position order: one cross-thread hop per match, one
//!   barrier per drain. In counting-only mode
//!   ([`JoinParams::counting_only`](crate::config::JoinParams::counting_only))
//!   no match is materialized and the total is folded from per-worker
//!   counters at shutdown.
//!
//! Batching never changes results: [`SplitJoin::flush`] and
//! [`SplitJoin::shutdown`] both drain the partial batch first, so
//! `batch_size = 1` reproduces the unbatched message-per-tuple path
//! exactly and every batch size yields the same result multiset.
//!
//! # Transport
//!
//! Distribution runs over lock-free SPSC rings ([`streamcore::ring`]),
//! one per worker, and nothing else. A batch is copied once into a
//! shared `Arc<[_]>`; a broadcast pushes one handle to it down every
//! worker's ring, and every join core probes it *in place* and drops its
//! handle. A prefill travels the same way. The last handle dropped frees
//! the batch, so the engine holds only the batches in flight, and the
//! rings' back-pressure is the only wait on the way in.
//! Nothing runs the other way but the worker's supervision cell: it
//! holds the outbox, and the count of messages the worker has finished,
//! advanced (`Release`) only after a message's matches are published.
//! The flush barrier is no message but the router reading (`Acquire`)
//! every live worker's count at the count it has sent that worker: the
//! outboxes then hold every match of everything flushed.
//!
//! # Probe paths
//!
//! Each sub-window is a [`FlatWindow`](streamcore::FlatWindow), scanned
//! nested-loop as the paper measures, and a worker picks its probe path
//! from what it observes, never from an option: a batch of at least
//! [`MIN_BLOCK_PROBES`](streamcore::kernel::MIN_BLOCK_PROBES) tuples runs
//! the blocked batch×window compare tiles ([`streamcore::kernel`]); a
//! smaller one (a caller that feeds per tuple and polls) runs the
//! per-tuple probe. The two are bit-identical
//! in results and in [`WorkerStats`] — the per-tuple path is the
//! in-tree reference the blocked path is tested against.
//!
//! # Fault tolerance
//!
//! Every data-path operation is fallible ([`JoinError`])
//! instead of `.expect`-ing peers alive, and the distribution side is a
//! supervised *router*:
//!
//! * ring pushes retry with a yield phase and then 50 µs sleeps while
//!   watching the receiving worker's heartbeat counter — back-pressure
//!   with progress waits forever, a frozen heartbeat with a full ring for
//!   the whole supervision deadline reports [`JoinError::Saturated`];
//! * a worker found dead (scripted kill from the
//!   [`FaultPlan`](crate::fault::FaultPlan), scripted panic, or organic
//!   death) is *recovered*: the router retires its position from the
//!   shared [`PartitionMap`], broadcasts the new map so survivors
//!   re-partition future storage turns at the same message boundary, and
//!   records the exact completeness loss — the tuples orphaned inside the
//!   dead worker's sub-window — in the outcome's
//!   [`FaultReport`]. Those tuples stay lost: nothing re-replicates them.
//!
//! Scripted kills are recovered *proactively* at the exact batch boundary
//! the plan names, which is what makes the orphan accounting exact: the
//! dead worker's occupancy is the closed-form round-robin share of the
//! streams sent so far, clamped to the sub-window size. With an empty
//! plan none of this machinery runs per tuple: the router counts stream
//! tags per batch and nothing else.

mod lanes;
mod live;
mod router;
#[cfg(test)]
mod tests;
mod worker;

use std::cell::RefCell;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::config::JoinConfig;
use crate::error::JoinError;
pub use crate::error::WorkerStats;
use streamcore::kernel::KernelStats;
use streamcore::ring;
use streamcore::{MatchPair, PartitionMap, StreamTag, Tuple};

/// Configuration of a [`SplitJoin`] instance: the shared [`JoinConfig`]
/// itself, since SplitJoin has no field of its own.
pub type SplitJoinConfig = JoinConfig;

use self::lanes::Msg;
use self::live::LiveRouter;
use self::router::Router;
use self::worker::{WorkerExit, WorkerState};
use crate::fault::FaultReport;
use crate::outcome::{key, JoinOutcome, RingStats};
use crate::streamjoin::StreamJoin;
use crate::supervise::{join_cores, outcome, run_core, take_outboxes, LiveIntake, WorkerCell};

/// A running SplitJoin: N join-core threads.
///
/// See the [crate-level example](crate) for basic usage.
#[derive(Debug)]
pub struct SplitJoin {
    router: RefCell<Router>,
    workers: Vec<JoinHandle<WorkerExit>>,
    /// `false` when counting-only: the outboxes stay empty and the
    /// result count comes from the workers' match counters.
    collecting: bool,
    batch_size: usize,
    /// Caller-side distribution buffer; drained on flush/shutdown so a
    /// partial batch is never lost.
    pending: RefCell<Vec<(StreamTag, Tuple)>>,
}

impl SplitJoin {
    fn drain_pending(&self) -> Result<(), JoinError> {
        let mut pending = self.pending.borrow_mut();
        if pending.is_empty() {
            return Ok(());
        }
        let result = self.router.borrow_mut().send_batch(&pending);
        pending.clear();
        result
    }
}

impl StreamJoin for SplitJoin {
    type Config = SplitJoinConfig;

    /// Spawns the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `config.channel_capacity` or `config.batch_size` is
    /// zero, or the fault plan targets a worker out of range (the builder
    /// methods reject these, but the fields are public).
    fn spawn(config: SplitJoinConfig) -> Self {
        config.validate();

        let mut senders = Vec::with_capacity(config.num_cores);
        let mut cells = Vec::with_capacity(config.num_cores);
        let mut workers = Vec::with_capacity(config.num_cores);
        for position in 0..config.num_cores {
            let cell = Arc::new(WorkerCell::new(key::SPLITJOIN, position));
            cells.push(Arc::clone(&cell));
            let (tx, msgs) = ring::spsc::<Msg>(config.channel_capacity);
            senders.push(Some(tx));
            let cfg = config.clone();
            // Built on its own thread, so its windows come from that
            // thread's allocator arena, away from its siblings'.
            workers.push(std::thread::spawn(move || {
                let core = WorkerState::new(position, &cfg, msgs, cell);
                run_core(core, position, &cfg.fault_plan)
            }));
        }
        let ring = obs::trace::enabled().then(|| {
            obs::trace::TraceRing::new("sw.router".to_string(), obs::trace::TimeDomain::Wall)
        });
        Self {
            router: RefCell::new(Router {
                senders,
                cells,
                map: PartitionMap::identity(config.num_cores),
                plan: config.fault_plan.clone(),
                sub_window: config.sub_window(),
                batch_hist: obs::Histogram::new(),
                r_sent: 0,
                s_sent: 0,
                owned: None,
                report: FaultReport::default(),
                ring,
                ring_stats: RingStats::default(),
                sent: vec![0; config.num_cores],
                intake: LiveIntake::new(key::SPLITJOIN, config.channel_capacity),
                live: obs::live::active().then(|| LiveRouter::new(config.num_cores)),
            }),
            workers,
            collecting: config.collect_results,
            batch_size: config.batch_size,
            pending: RefCell::new(Vec::with_capacity(config.batch_size)),
        }
    }

    /// Submits one tuple to the distribution network. The tuple is
    /// buffered; every `batch_size` tuples, one batch message is
    /// broadcast to all live join cores. Blocks (with supervision) when
    /// worker queues are full — natural back-pressure.
    ///
    /// # Errors
    ///
    /// [`JoinError::AllWorkersLost`] when no live worker remains;
    /// [`JoinError::Saturated`] when a worker's ring stays full with a
    /// frozen heartbeat past the supervision deadline. Losing *some*
    /// workers is not an error — the router re-partitions over the
    /// survivors and reports the damage in [`JoinOutcome::fault`].
    fn process(&self, tag: StreamTag, tuple: Tuple) -> Result<(), JoinError> {
        let mut pending = self.pending.borrow_mut();
        pending.push((tag, tuple));
        if pending.len() >= self.batch_size {
            let result = self.router.borrow_mut().send_batch(&pending);
            pending.clear();
            return result;
        }
        Ok(())
    }

    /// Broadcasts a pre-assembled batch as a single message per worker
    /// (after draining any partial [`SplitJoin::process`] buffer, so
    /// submission order is preserved).
    ///
    /// # Errors
    ///
    /// See [`SplitJoin::process`].
    fn process_batch(&self, batch: &[(StreamTag, Tuple)]) -> Result<(), JoinError> {
        self.drain_pending()?;
        self.router.borrow_mut().send_batch(batch)
    }

    /// Loads `tuples` directly into the sliding windows without probing —
    /// measurement setup, mirroring the hardware pre-fill path. Drains
    /// the pending batch first so earlier `process` calls stay ordered.
    ///
    /// # Errors
    ///
    /// See [`SplitJoin::process`].
    fn prefill(&self, tag: StreamTag, tuples: &[Tuple]) -> Result<(), JoinError> {
        self.drain_pending()?;
        self.router.borrow_mut().send_prefill(tag, tuples)
    }

    /// Blocks until every live worker has drained its queue and processed
    /// everything submitted before this call (including the partial
    /// batch, which is flushed first), and has published its matches.
    ///
    /// # Errors
    ///
    /// See [`SplitJoin::process`]. A worker dying *during* the flush is
    /// recovered, not an error: the barrier then covers the survivors.
    fn flush(&self) -> Result<(), JoinError> {
        self.drain_pending()?;
        self.router.borrow_mut().flush()
    }

    /// Flushes, then removes and returns every match produced so far
    /// and not yet drained. Counting-only runs return an empty vector.
    ///
    /// # Errors
    ///
    /// See [`SplitJoin::flush`].
    fn drain_results(&self) -> Result<Vec<MatchPair>, JoinError> {
        // Behind the barrier every live worker has published the matches
        // of everything flushed, and a retired one has exited (recovery
        // waits for that), so the outboxes are complete.
        self.flush()?;
        Ok(take_outboxes(&self.router.borrow().cells))
    }

    /// Stops all threads and returns the accumulated outcome. Any
    /// buffered partial batch is drained first — workers never observe
    /// their ring close with submitted-but-unsent tuples outstanding, so an
    /// explicit [`SplitJoin::flush`] before shutdown is not required for
    /// completeness.
    ///
    /// # Errors
    ///
    /// [`JoinError::WorkerPanicked`] if a worker thread panicked (with
    /// its last published statistics snapshot — the stats the
    /// pre-fault-model shutdown used to lose by re-panicking). Workers
    /// lost to *scripted kills* exit cleanly and do not error: their
    /// damage is in [`JoinOutcome::fault`].
    fn shutdown(self) -> Result<JoinOutcome, JoinError> {
        // Best-effort drain: during shutdown a failed drain (e.g. every
        // worker already dead) degrades to dropping the buffered batch,
        // which the fault report already accounts as worker loss.
        let _ = self.drain_pending();
        let mut router = self.router.into_inner();
        // Dropping the producers is the stop signal: each worker drains
        // what is queued and exits once its ring reads closed. Nothing
        // here can wait on a wedged worker.
        router.senders.clear();
        let mut trace = Vec::new();
        let mut kernel_stats = KernelStats::default();
        for (kstats, ring) in join_cores(self.workers, &router.cells)? {
            kernel_stats.merge(&kstats);
            trace.extend(ring);
        }
        if let Some(ring) = router.ring.take() {
            if !ring.is_empty() {
                trace.push(ring);
            }
        }
        Ok(JoinOutcome {
            ring_stats: Some(router.ring_stats),
            kernel_stats: Some(kernel_stats),
            ..outcome(
                key::SPLITJOIN,
                &router.cells,
                self.collecting,
                router.batch_hist,
                trace,
                router.report,
            )
        })
    }
}
