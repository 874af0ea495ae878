//! The supervised distribution side: dispatch, loss accounting,
//! recovery and the flush barrier.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use accel_error::JoinError;
use streamcore::ring::{self, ArenaWriter, RingProducer};
use streamcore::{FreqSketch, PartitionMap, StreamTag, Tuple};

use super::lanes::{Msg, PartEntry};
use super::live::LiveRouter;
use super::outcome::RingStats;
use crate::fault::{round_robin_share, FaultPlan, FaultReport};
use crate::supervise::{
    supervised_push, wait_until, Idle, SendStatus, SendSupervisor, WorkerCell,
    SATURATION_DEADLINE,
};

/// Tracked-key capacity of the router's Misra–Gries sketch
/// ([`FreqSketch`]) in partitioned mode. Any key above a
/// `1/(capacity+1)` traffic share is guaranteed tracked, far below the
/// promotion threshold for any plausible core count.
pub(super) const SKETCH_CAPACITY: usize = 64;

/// Router-side state of the keyed dispatch
/// ([`Partitioning::Hash`](crate::config::Partitioning::Hash)): the
/// frequency sketch, the hot-key set, the per-worker outboxes, and
/// the exact storage ledger that replaces broadcast's closed-form
/// round-robin accounting.
#[derive(Debug)]
pub(super) struct PartRouter {
    /// Effective global window size — the count-based expiry horizon
    /// stamped into every dispatch entry's eviction watermark.
    pub(super) window: u64,
    /// Misra–Gries heavy-hitter summary over routed keys.
    pub(super) sketch: FreqSketch,
    /// Promoted keys → round-robin store cursor over the live workers.
    /// Promotion is sticky: data already spread never re-concentrates.
    pub(super) hot: HashMap<u32, u64>,
    pub(super) hot_factor: f64,
    pub(super) min_sample: u64,
    /// Per-worker FIFO of stored R-stream sequence numbers, expired by
    /// the same watermark the workers use — exact live occupancy, and
    /// exact orphan counts when a worker dies.
    pub(super) ledger_r: Vec<VecDeque<u64>>,
    /// As `ledger_r`, for the S stream.
    pub(super) ledger_s: Vec<VecDeque<u64>>,
    /// Per-worker sub-batches being assembled for the current caller
    /// batch; flushed as one [`Msg::Part`] each.
    pub(super) outbox: Vec<Vec<PartEntry>>,
    pub(super) hot_splits: u64,
    pub(super) routed: u64,
}

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
    pub(super) batches_sent: u64,
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
    /// Writer side of the shared batch arena; `None` in partitioned
    /// mode, which ships keyed sub-batches instead of broadcasts.
    pub(super) arena: Option<ArenaWriter<(StreamTag, Tuple)>>,
    /// Ring occupancy / claim-wait telemetry.
    pub(super) ring_stats: RingStats,
    /// Messages pushed into each position's ring so far: the epoch a
    /// flush waits for that core's `heartbeat` to reach. Compared only
    /// over the live map — a retired core may have died with some queued.
    pub(super) sent: Vec<u64>,
    /// Keyed-dispatch state; `None` in broadcast mode.
    pub(super) part: Option<PartRouter>,
    /// Live-telemetry handles; `None` unless the plane was armed at
    /// spawn ([`obs::live::set_active`]).
    pub(super) live: Option<LiveRouter>,
}

impl Router {
    /// Sends one message down worker `w`'s ring under supervision,
    /// recording ring telemetry on the way and counting it into the
    /// lane's epoch. A retired position reports [`SendStatus::Lost`].
    fn send_msg(&mut self, w: usize, msg: Msg) -> Result<SendStatus, JoinError> {
        // Split borrows: the ring is &mut while cells/stats are read.
        let Router { senders, cells, ring_stats, live, sent, .. } = self;
        let Some(prod) = senders[w].as_mut() else { return Ok(SendStatus::Lost) };
        let depth = prod.len() as u64;
        ring_stats.occupancy.record_value(depth);
        if let Some(lv) = live.as_ref() {
            lv.ring_occupancy.set(depth);
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

    /// Publishes one batch into the shared arena, waiting (supervised)
    /// for slot reuse when the slowest reader is behind: a laggard that
    /// keeps beating is back-pressure and waits forever; a frozen
    /// laggard holding the arena full for the whole deadline is
    /// [`JoinError::Saturated`].
    fn publish_to_arena(&mut self, batch: &[(StreamTag, Tuple)]) -> Result<u64, JoinError> {
        let mut sup = SendSupervisor::new();
        let mut idle = Idle::claim();
        let mut wait_started: Option<Instant> = None;
        loop {
            let arena = self.arena.as_mut().expect("broadcast mode has an arena");
            match arena.try_publish(batch) {
                Ok(seq) => {
                    if let Some(t0) = wait_started {
                        self.ring_stats
                            .claim_wait_ns
                            .record_value(t0.elapsed().as_nanos().max(1) as u64);
                    }
                    return Ok(seq);
                }
                Err(ring::ArenaFull) => {
                    wait_started.get_or_insert_with(Instant::now);
                    // No active readers left: deactivation freed every
                    // slot, so the retry succeeds (or AllWorkersLost
                    // surfaces at the caller's live-count check).
                    let Some(laggard) = arena.laggard() else { continue };
                    if self.cells[laggard].is_dead() {
                        // The slot hog died — recover it (which also
                        // deactivates its arena reader) and retry.
                        self.reap_dead()?;
                        continue;
                    }
                    if !idle.relax() {
                        // Slow path only: export how far behind the
                        // slowest reader is and refresh its heartbeat
                        // age, so an armed scrape shows *which* worker
                        // is holding the arena and for how long.
                        if let Some(lv) = self.live.as_ref() {
                            let (seq, min) = {
                                let a = self.arena.as_ref().expect("broadcast mode has an arena");
                                (a.seq(), a.min_released())
                            };
                            lv.arena_lag.set(seq.saturating_sub(min));
                            let now = obs::trace::now_ns();
                            if let Some(age) = self.cells[laggard].heartbeat_age_ns(now) {
                                lv.heartbeat_age[laggard].set(age);
                            }
                        }
                        let beat = self.cells[laggard].heartbeat.load(Ordering::Relaxed);
                        let wait = sup.next_wait(Instant::now(), laggard, beat)?;
                        std::thread::sleep(wait);
                    }
                }
            }
        }
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
                let owned = if tag == StreamTag::R { owned_r } else { owned_s };
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

    /// Routes one tuple under keyed dispatch: stamp its global stream
    /// coordinates, feed the sketch (promoting the key if it crossed
    /// the hot threshold), expire the ledgers, then append dispatch
    /// entries to the owner's outbox — or, for a hot key, a probe entry
    /// to every live worker with the store turn rotating round-robin.
    fn route_tuple(&mut self, tag: StreamTag, tuple: Tuple, probe: bool) {
        let key = tuple.key();
        let (seq, opp) = match tag {
            StreamTag::R => (self.r_sent, self.s_sent),
            StreamTag::S => (self.s_sent, self.r_sent),
        };
        match tag {
            StreamTag::R => self.r_sent += 1,
            StreamTag::S => self.s_sent += 1,
        }
        let live_count = self.map.live_count();
        let part = self.part.as_mut().expect("route_tuple is partitioned-mode only");
        part.sketch.observe(key);
        // Promote once the key's sketched share reaches `hot_factor`
        // fair shares of the routed traffic. Splitting on a single
        // worker would be a no-op, so wait for company.
        if live_count > 1
            && !part.hot.contains_key(&key)
            && part.sketch.total() >= part.min_sample
            && part.sketch.estimate(key) as f64 * live_count as f64
                >= part.hot_factor * part.sketch.total() as f64
        {
            part.hot.insert(key, 0);
            part.hot_splits += 1;
        }
        // Expire this stream's ledgers by the same watermark the
        // workers evict with, so occupancy and orphan counts stay
        // exact. Amortized O(1): each stored seq is popped once.
        {
            let min_live = (seq + 1).saturating_sub(part.window);
            let ledger = match tag {
                StreamTag::R => &mut part.ledger_r,
                StreamTag::S => &mut part.ledger_s,
            };
            for stored in ledger.iter_mut() {
                while stored.front().is_some_and(|&s| s < min_live) {
                    stored.pop_front();
                }
            }
        }
        let store_at = if part.hot.contains_key(&key) {
            let live = self.map.live();
            let rr = part.hot.get_mut(&key).expect("just checked");
            let store_at = live[(*rr % live.len() as u64) as usize];
            *rr += 1;
            for &w in live {
                // Probe everywhere (any worker may hold this key's
                // spread-out opposite data); store on the rr turn.
                part.outbox[w].push(PartEntry {
                    tag,
                    tuple,
                    seq,
                    opp,
                    store: w == store_at,
                    probe,
                });
            }
            part.routed += live.len() as u64;
            store_at
        } else {
            let w = self.map.key_owner(key);
            part.outbox[w].push(PartEntry { tag, tuple, seq, opp, store: true, probe });
            part.routed += 1;
            w
        };
        match tag {
            StreamTag::R => part.ledger_r[store_at].push_back(seq),
            StreamTag::S => part.ledger_s[store_at].push_back(seq),
        }
    }

    /// Routes a block under keyed dispatch and ships the sub-batches,
    /// mirroring the dispatch entries it added to `part.routed` into the
    /// live plane.
    fn route_block(
        &mut self,
        block: impl Iterator<Item = (StreamTag, Tuple)>,
        probe: bool,
    ) -> Result<(), JoinError> {
        let before = self.part.as_ref().map_or(0, |part| part.routed);
        for (tag, tuple) in block {
            self.route_tuple(tag, tuple, probe);
        }
        if let (Some(lv), Some(part)) = (self.live.as_ref(), self.part.as_ref()) {
            lv.routed.add(part.routed - before);
        }
        self.flush_outboxes()
    }

    /// Ships every non-empty per-worker sub-batch as one [`Msg::Part`].
    /// A worker found dead mid-send is recovered and its sub-batch dies
    /// with it: the ledger already counts those tuples as stored there,
    /// so the loss surfaces as exact orphan accounting, and the dead
    /// position's keys re-home to survivors from the next tuple on
    /// (rendezvous hashing moves only its keys).
    fn flush_outboxes(&mut self) -> Result<(), JoinError> {
        let n = self.senders.len();
        let mut lost = Vec::new();
        for w in 0..n {
            let entries = {
                let part = self.part.as_mut().expect("partitioned mode");
                if part.outbox[w].is_empty() {
                    continue;
                }
                std::mem::take(&mut part.outbox[w])
            };
            if self.senders[w].is_none() {
                continue;
            }
            let shared: Arc<[PartEntry]> = entries.into();
            if let SendStatus::Lost = self.send_msg(w, Msg::Part(shared))? {
                lost.push(w);
            }
        }
        self.recover_all(lost)
    }

    /// Ships one caller batch. Broadcast mode: one arena publish, N
    /// sequence numbers (zero-copy). Partitioned mode: route every tuple,
    /// then flush at most one keyed sub-batch per worker.
    pub(super) fn send_batch(&mut self, batch: &[(StreamTag, Tuple)]) -> Result<(), JoinError> {
        if batch.is_empty() {
            return Ok(());
        }
        self.require_live()?;
        self.batch_hist.record_value(batch.len() as u64);
        self.batches_sent += 1;
        if let Some(lv) = self.live.as_ref() {
            lv.on_batch(batch.len(), &self.cells, self.map.live());
        }
        if self.part.is_some() {
            self.route_block(batch.iter().copied(), true)?;
        } else {
            self.note_sent(batch.iter().map(|&(tag, _)| tag));
            let seq = self.publish_to_arena(batch)?;
            self.broadcast(|| Msg::ArenaBatch { seq })?;
        }
        // Proactive recovery at the scripted kill boundary: the victim
        // processes this batch and no more (its ring closes here, it
        // drains what was already queued and exits), so the ownership
        // model — closed-form shares or the keyed ledger — is exactly its
        // occupancy at death.
        let kills: Vec<usize> = self.plan.kills_after(self.batches_sent).collect();
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
        if self.part.is_some() {
            // Same keyed routing path, probing disabled — prefill still
            // advances the stream counters and the sketch.
            return self.route_block(tuples.iter().map(|&t| (tag, t)), false);
        }
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

    /// Retires one dead worker — exact orphan accounting plus the
    /// mode's own repair — and times the whole recovery. Returns any
    /// further workers discovered dead while notifying the survivors.
    fn recover_one(&mut self, worker: usize) -> Result<Vec<usize>, JoinError> {
        if !self.map.is_live(worker) {
            return Ok(Vec::new());
        }
        let t0 = Instant::now();
        let span_start = obs::trace::now_ns();
        let lost = if self.part.is_some() {
            self.retire_part(worker)?;
            Vec::new()
        } else {
            self.retire_broadcast(worker)?
        };
        self.report
            .recovery_ns
            .record_value(t0.elapsed().as_nanos().max(1) as u64);
        if let Some(r) = self.ring.as_mut() {
            let now = obs::trace::now_ns();
            r.record_arg("recover", span_start, now.saturating_sub(span_start), worker as u64);
        }
        Ok(lost)
    }

    /// What every retirement shares: drop the position from the map,
    /// close its ring, report the loss — and wait, bounded by the
    /// supervision deadline, for the worker thread to actually exit (its
    /// `AliveGuard` flips the cell dead on the way out, scripted kills
    /// and panics alike). A scripted-kill victim is recovered
    /// proactively and may still be working through its queue; once it
    /// has exited, everything it will ever publish is in its outbox, so
    /// the next flush barrier covers it without waiting for its epoch,
    /// and its arena reader can never read again.
    fn retire_position(&mut self, worker: usize, orphans: u64) -> Result<(), JoinError> {
        self.map.retire(worker);
        self.senders[worker] = None;
        self.report.workers_lost.push(worker);
        self.report.orphaned_tuples += orphans;
        if let Some(lv) = self.live.as_ref() {
            lv.on_worker_lost(worker, orphans, self.map.live_count());
        }
        let t0 = Instant::now();
        wait_until(|| {
            if self.cells[worker].is_dead() {
                return Ok(false);
            }
            if t0.elapsed() >= SATURATION_DEADLINE {
                return Err(JoinError::Saturated {
                    worker,
                    waited_ms: t0.elapsed().as_millis() as u64,
                });
            }
            Ok(true)
        })?;
        // Off the live map, the lane may stay short of `sent` for good;
        // ahead it cannot be: a `Stop` and the exit path finish nothing.
        debug_assert!(self.cells[worker].heartbeat.load(Ordering::Acquire) <= self.sent[worker]);
        Ok(())
    }

    /// Broadcast-mode recovery: closed-form orphan count, then a
    /// partition-map broadcast so survivors re-partition future storage
    /// turns at the same message boundary.
    fn retire_broadcast(&mut self, worker: usize) -> Result<Vec<usize>, JoinError> {
        let sub = self.sub_window as u64;
        // Materialize exact per-worker turn counts before mutating the
        // map: while it is still full the closed form reproduces them
        // from the two stream counters alone.
        if self.owned.is_none() {
            let n = self.map.total();
            let owned_r = (0..n).map(|w| round_robin_share(&self.map, w, self.r_sent)).collect();
            let owned_s = (0..n).map(|w| round_robin_share(&self.map, w, self.s_sent)).collect();
            self.owned = Some((owned_r, owned_s));
        }
        let (owned_r, owned_s) = self.owned.as_ref().expect("just materialized");
        let orphans = owned_r[worker].min(sub) + owned_s[worker].min(sub);
        self.retire_position(worker, orphans)?;
        // The worker has exited, so the arena contract holds: a
        // deactivated reader never reads again.
        self.arena
            .as_mut()
            .expect("broadcast mode has an arena")
            .deactivate(worker);
        let shared = Arc::new(self.map.clone());
        self.send_to_live(|| Msg::Reconfigure(Arc::clone(&shared)))
    }

    /// Partitioned-mode recovery: retire the position and count its
    /// ledger occupancy as orphans. No partition-map broadcast is
    /// needed — partitioned workers are ownership-free (they store what
    /// the router stamps `store` on), future keys re-home through
    /// rendezvous hashing the moment the map retires the position. No
    /// arena reader to retire either: partitioned mode never creates the
    /// arena.
    fn retire_part(&mut self, worker: usize) -> Result<(), JoinError> {
        let part = self.part.as_mut().expect("partitioned mode");
        let orphans = (part.ledger_r[worker].len() + part.ledger_s[worker].len()) as u64;
        part.ledger_r[worker].clear();
        part.ledger_s[worker].clear();
        part.outbox[worker].clear();
        self.retire_position(worker, orphans)
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
