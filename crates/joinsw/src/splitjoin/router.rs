//! The supervised distribution side: dispatch, loss accounting,
//! recovery and the flush barrier. Every wait it makes is a `supervise`
//! function (`supervised_push`, `await_exit`, `wait_until`), and dropping
//! its producers is what stops the workers.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::error::JoinError;
use streamcore::ring::RingProducer;
use streamcore::{PartitionMap, StreamTag, Tuple};

use super::lanes::Msg;
use super::live::LiveRouter;
use crate::fault::{round_robin_share, FaultPlan, FaultReport};
use crate::outcome::RingStats;
use crate::supervise::{
    await_exit, supervised_push, wait_until, LiveIntake, SendStatus, WorkerCell,
};

/// The supervised distribution side: senders, supervision cells, the
/// live partition map, and the bookkeeping that makes loss accounting
/// exact.
#[derive(Debug)]
pub(super) struct Router {
    /// Per-position distribution ring; `None` once the position is
    /// retired (the drop disconnects the link and frees queued messages
    /// once the worker's receiving side is gone too).
    pub(super) senders: Vec<Option<RingProducer<Msg>>>,
    pub(super) cells: Vec<Arc<WorkerCell>>,
    pub(super) map: PartitionMap,
    pub(super) plan: FaultPlan,
    pub(super) sub_window: usize,
    /// Batch sizes; `total()` is the count of batches sent.
    pub(super) batch_hist: obs::Histogram,
    /// Tuples sent per stream (prefill included) — each healthy worker's
    /// local per-stream count equals these.
    pub(super) r_sent: u64,
    pub(super) s_sent: u64,
    /// Exact per-worker storage-turn counts `(R, S)`. `None` while the
    /// map is full (the closed form reproduces them on demand); kept
    /// incrementally once degraded.
    pub(super) owned: Option<(Vec<u64>, Vec<u64>)>,
    pub(super) report: FaultReport,
    /// `sw.router` span ring (`recover` spans); attached to the outcome
    /// trace only when non-empty, so healthy traced runs are unchanged.
    pub(super) ring: Option<obs::trace::TraceRing>,
    /// Ring occupancy / claim-wait telemetry.
    pub(super) ring_stats: RingStats,
    /// Messages pushed into each position's ring so far: the epoch a
    /// flush waits for that core's `heartbeat` to reach. Compared only
    /// over the live map — a retired core may have died with some queued.
    pub(super) sent: Vec<u64>,
    /// Live-telemetry handles; `None` unless the plane was armed at
    /// spawn ([`obs::live::set_active`]).
    pub(super) intake: Option<LiveIntake>,
    pub(super) live: Option<LiveRouter>,
}

impl Router {
    /// Sends one message down worker `w`'s ring under supervision,
    /// recording ring telemetry on the way and counting it into the
    /// lane's epoch. A retired position reports [`SendStatus::Lost`].
    fn send_msg(&mut self, w: usize, msg: Msg) -> Result<SendStatus, JoinError> {
        // Split borrows: the ring is &mut while cells/stats are read.
        let Router {
            senders,
            cells,
            ring_stats,
            live,
            sent,
            ..
        } = self;
        let Some(prod) = senders[w].as_mut() else {
            return Ok(SendStatus::Lost);
        };
        let depth = prod.len() as u64;
        if depth > ring_stats.peak_occupancy.get() {
            ring_stats.peak_occupancy.set(depth);
        }
        if live.is_some() {
            cells[w].ring_occupancy.set(depth);
        }
        let (status, waited_ns) = supervised_push(prod, &cells[w], w, msg)?;
        if waited_ns > 0 {
            ring_stats.claim_wait_ns.record_value(waited_ns);
        }
        if let SendStatus::Sent = status {
            sent[w] += 1;
        }
        Ok(status)
    }

    /// [`Router::send_msg`] to every live worker that still has a ring,
    /// returning the positions found dead on the way.
    fn send_to_live(&mut self, make: impl Fn() -> Msg) -> Result<Vec<usize>, JoinError> {
        let mut lost = Vec::new();
        for w in self.map.live().to_vec() {
            if self.senders[w].is_none() {
                continue;
            }
            if let SendStatus::Lost = self.send_msg(w, make())? {
                lost.push(w);
            }
        }
        Ok(lost)
    }

    /// Fails with [`JoinError::AllWorkersLost`] once no position is live.
    fn require_live(&self) -> Result<(), JoinError> {
        if self.map.live_count() == 0 {
            return Err(JoinError::AllWorkersLost);
        }
        Ok(())
    }

    /// Per-stream accounting for outgoing tuples: the two stream
    /// counters and, once degraded, the storage turn each tuple gives
    /// its owner under the current map.
    fn note_sent(&mut self, tags: impl Iterator<Item = StreamTag>) {
        for tag in tags {
            let sent = match tag {
                StreamTag::R => &mut self.r_sent,
                StreamTag::S => &mut self.s_sent,
            };
            if let Some((owned_r, owned_s)) = &mut self.owned {
                let owned = if tag == StreamTag::R {
                    owned_r
                } else {
                    owned_s
                };
                owned[self.map.owner(*sent)] += 1;
            }
            *sent += 1;
        }
    }

    /// Sends `make()` to every live worker; workers found dead are
    /// recovered and the broadcast continues over the survivors.
    fn broadcast(&mut self, make: impl Fn() -> Msg) -> Result<(), JoinError> {
        let lost = self.send_to_live(make)?;
        self.recover_all(lost)
    }

    /// Ships one caller batch: one shared copy, whose handle goes down
    /// every live worker's ring.
    pub(super) fn send_batch(&mut self, batch: &[(StreamTag, Tuple)]) -> Result<(), JoinError> {
        if batch.is_empty() {
            return Ok(());
        }
        self.require_live()?;
        self.batch_hist.record_value(batch.len() as u64);
        if let Some(intake) = self.intake.as_ref() {
            intake.on_batch(batch.len());
        }
        self.note_sent(batch.iter().map(|&(tag, _)| tag));
        let shared: Arc<[(StreamTag, Tuple)]> = batch.into();
        self.broadcast(|| Msg::Batch(Arc::clone(&shared)))?;
        // Proactive recovery at the scripted kill boundary: the victim
        // processes this batch and no more (its ring closes here, it
        // drains what was already queued and exits), so the closed-form
        // ownership shares are exactly its occupancy at death.
        let kills: Vec<usize> = self.plan.kills_after(self.batch_hist.total()).collect();
        self.recover_all(kills)
    }

    pub(super) fn send_prefill(
        &mut self,
        tag: StreamTag,
        tuples: &[Tuple],
    ) -> Result<(), JoinError> {
        if tuples.is_empty() {
            return Ok(());
        }
        self.require_live()?;
        self.note_sent(std::iter::repeat_n(tag, tuples.len()));
        let shared: Arc<[Tuple]> = tuples.to_vec().into();
        self.broadcast(|| Msg::Prefill(tag, shared.clone()))
    }

    /// Recovers every listed worker, plus any found dead on the way;
    /// fails with [`JoinError::AllWorkersLost`] once no survivor is left.
    fn recover_all(&mut self, mut pending: Vec<usize>) -> Result<(), JoinError> {
        while let Some(w) = pending.pop() {
            pending.extend(self.recover_one(w)?);
        }
        self.require_live()
    }

    /// Retires one dead worker and times the whole recovery. Returns any
    /// further workers discovered dead while notifying the survivors.
    fn recover_one(&mut self, worker: usize) -> Result<Vec<usize>, JoinError> {
        if !self.map.is_live(worker) {
            return Ok(Vec::new());
        }
        let t0 = Instant::now();
        let span_start = obs::trace::now_ns();
        let lost = self.retire(worker)?;
        self.report
            .recovery_ns
            .record_value(t0.elapsed().as_nanos().max(1) as u64);
        if let Some(r) = self.ring.as_mut() {
            let now = obs::trace::now_ns();
            r.record_arg(
                "recover",
                span_start,
                now.saturating_sub(span_start),
                worker as u64,
            );
        }
        Ok(lost)
    }

    /// Retires one dead worker: counts its orphans in closed form, drops
    /// the position from the map, closes its ring and reports the loss —
    /// then waits for the worker thread to actually exit (`await_exit`,
    /// bounded by the supervision deadline), and broadcasts the new map
    /// so survivors re-partition future storage turns at the same
    /// message boundary. Returns any further workers found dead while
    /// notifying the survivors.
    ///
    /// A scripted-kill victim is recovered proactively and may still be
    /// working through its queue; once it has exited, everything it will
    /// ever publish is in its outbox, so the next flush barrier covers it
    /// without waiting for its epoch.
    fn retire(&mut self, worker: usize) -> Result<Vec<usize>, JoinError> {
        let sub = self.sub_window as u64;
        // Materialize exact per-worker turn counts before mutating the
        // map: while it is still full the closed form reproduces them
        // from the two stream counters alone.
        let (map, r_sent, s_sent) = (&self.map, self.r_sent, self.s_sent);
        let (owned_r, owned_s) = self.owned.get_or_insert_with(|| {
            let share = |sent| {
                (0..map.total())
                    .map(|w| round_robin_share(map, w, sent))
                    .collect()
            };
            (share(r_sent), share(s_sent))
        });
        let orphans = owned_r[worker].min(sub) + owned_s[worker].min(sub);
        self.map.retire(worker);
        self.senders[worker] = None;
        self.report.workers_lost.push(worker);
        self.report.orphaned_tuples += orphans;
        if let Some(lv) = self.live.as_ref() {
            lv.on_worker_lost(orphans, self.map.live_count());
        }
        await_exit(&self.cells[worker], worker)?;
        // Off the live map, the lane may stay short of `sent` for good;
        // ahead it cannot be: the exit path finishes nothing.
        debug_assert!(self.cells[worker].heartbeat.load(Ordering::Acquire) <= self.sent[worker]);
        let shared = Arc::new(self.map.clone());
        self.send_to_live(|| Msg::Reconfigure(Arc::clone(&shared)))
    }

    /// Recovers any live-mapped worker whose cell reports it dead
    /// (reactive detection: scripted panics and organic deaths).
    fn reap_dead(&mut self) -> Result<(), JoinError> {
        let dead: Vec<usize> = self
            .map
            .live()
            .iter()
            .copied()
            .filter(|&w| self.cells[w].is_dead())
            .collect();
        self.recover_all(dead)
    }

    /// Flush barrier over the survivors, a *completion epoch* rather
    /// than a message: a core advances its `heartbeat` with `Release`
    /// once a message's matches are in its outbox, and this waits until
    /// every live lane's `heartbeat`, loaded with `Acquire`, has reached
    /// the `sent` count of its ring — the pair that makes the outboxes
    /// complete behind the barrier. With nothing in flight it touches no
    /// other thread. A worker that dies with messages queued never gets
    /// there: recovering it retires its position, and the barrier covers
    /// the survivors instead of deadlocking.
    pub(super) fn flush(&mut self) -> Result<(), JoinError> {
        self.require_live()?;
        wait_until(|| loop {
            let (mut behind, mut dead) = (false, false);
            for &w in self.map.live() {
                if self.cells[w].heartbeat.load(Ordering::Acquire) < self.sent[w] {
                    behind = true;
                    dead |= self.cells[w].is_dead();
                }
            }
            if !dead {
                return Ok(behind);
            }
            self.reap_dead()?;
        })
    }
}
