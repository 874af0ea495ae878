//! Crate-internal worker supervision primitives shared by the SplitJoin
//! router and the handshake chain: the per-worker heartbeat/liveness
//! cell (which also holds the core's result outbox), the scope guard
//! that marks a cell dead on any exit path, the
//! bounded-backoff policy ([`SendSupervisor`]), and the supervised send
//! for each link kind (the handshake chain's channel `send_timeout`,
//! SplitJoin's ring claim-retry).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use accel_error::{JoinError, WorkerStats};
use crossbeam::channel::{SendTimeoutError, Sender};
use streamcore::ring::{PushError, RingProducer};
use streamcore::MatchPair;

/// First supervised-send timeout; doubles per retry up to
/// [`BACKOFF_CAP_MS`].
pub(crate) const BACKOFF_START_MS: u64 = 1;
/// Supervised-send backoff ceiling (milliseconds).
pub(crate) const BACKOFF_CAP_MS: u64 = 64;
/// How long a full channel may show a frozen heartbeat before the
/// supervisor reports [`JoinError::Saturated`]. Progress resets the
/// clock, so plain back-pressure (slow but alive workers) never trips
/// it.
pub(crate) const SATURATION_DEADLINE: Duration = Duration::from_secs(10);
/// Yield-retry rounds a ring push or arena claim spends before falling
/// back to the sleeping [`SendSupervisor`] — rings have no condvar to
/// park on, and a draining consumer usually frees a slot within a
/// scheduler quantum or two.
pub(crate) const CLAIM_SPIN_YIELDS: u32 = 128;

/// Shared per-worker supervision block: heartbeat + liveness for the
/// coordinator, last published statistics for loss-tolerant shutdown,
/// and the worker-side fault tallies.
#[derive(Debug, Default)]
pub(crate) struct WorkerCell {
    /// Messages processed; the supervisor reads this to tell a slow
    /// worker (heartbeat advances) from a wedged one (frozen with a
    /// full channel).
    pub(crate) heartbeat: AtomicU64,
    /// Monotonic instant (`obs::trace::now_ns`) of the last heartbeat
    /// publication; 0 = never. Written only while the live telemetry
    /// plane is armed — the router exports
    /// `splitjoin.worker.<i>.heartbeat_age_ns` gauges from it so a
    /// stalling worker is visible to a scrape/sampler *long* before the
    /// 10 s [`SATURATION_DEADLINE`] fires.
    pub(crate) last_beat_ns: AtomicU64,
    /// Set when the worker thread exits, normally or by unwinding.
    pub(crate) dead: AtomicBool,
    /// Set when the worker exits on a *scripted kill* — a cooperative
    /// death that shutdown reports as degradation, not as an error.
    pub(crate) killed: AtomicBool,
    pub(crate) tuples_seen: AtomicU64,
    pub(crate) stored: AtomicU64,
    pub(crate) comparisons: AtomicU64,
    pub(crate) matches: AtomicU64,
    /// Scripted stalls that fired on this worker.
    pub(crate) stalls: AtomicU64,
    /// Scripted channel drops that fired on this worker.
    pub(crate) drops: AtomicU64,
    /// Matches of the in-progress message lost to an abrupt exit.
    pub(crate) results_dropped: AtomicU64,
    /// Matches this core has found and not yet handed to a drain. Only
    /// its core (at a message boundary) and the drainer (behind the
    /// flush barrier, or after the join) lock it, so it is uncontended.
    outbox: Mutex<Vec<MatchPair>>,
    /// Matches ever published to `outbox`, drained or not.
    pub(crate) results_published: AtomicU64,
    /// Orphans adopted from a dead sibling's replica.
    pub(crate) adopted: AtomicU64,
    /// Window tuples this worker's death (or a severed link next to it)
    /// removed from the join — used where the coordinator has no
    /// ownership model of its own (the handshake chain).
    pub(crate) orphaned: AtomicU64,
    /// Highest flush token this worker has acknowledged — SplitJoin's
    /// flush barrier (the handshake chain carries an ack sender in the
    /// message instead).
    pub(crate) flushed: AtomicU64,
}

impl WorkerCell {
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// A peer that panicked holding the lock was inside a `swap` or
    /// `append`, both of which leave the vector valid, so poisoning is
    /// recovered rather than propagated.
    fn lock_outbox(&self) -> MutexGuard<'_, Vec<MatchPair>> {
        self.outbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves the core's match buffer into its outbox, leaving `out`
    /// empty: by pointer when the outbox was drained since the last
    /// publish, appended otherwise.
    pub(crate) fn publish_results(&self, out: &mut Vec<MatchPair>) {
        if out.is_empty() {
            return;
        }
        let n = out.len() as u64;
        move_all(&mut self.lock_outbox(), out);
        self.results_published.fetch_add(n, Ordering::Relaxed);
    }

    /// Stamps the heartbeat instant for live-telemetry age export. Gated
    /// on [`obs::live::active`] so inactive runs pay only a relaxed load
    /// (and `--no-default-features` builds pay nothing).
    #[inline]
    pub(crate) fn stamp_beat(&self) {
        if obs::live::active() {
            self.last_beat_ns
                .store(obs::trace::now_ns(), Ordering::Relaxed);
        }
    }

    /// Nanoseconds since the last stamped heartbeat at `now_ns`; `None`
    /// before the first beat (or when live telemetry is off).
    pub(crate) fn heartbeat_age_ns(&self, now_ns: u64) -> Option<u64> {
        let beat = self.last_beat_ns.load(Ordering::Relaxed);
        (beat != 0).then(|| now_ns.saturating_sub(beat))
    }

    pub(crate) fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            tuples_seen: self.tuples_seen.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
            comparisons: self.comparisons.load(Ordering::Relaxed),
            matches: self.matches.load(Ordering::Relaxed),
        }
    }
}

/// Moves everything in `src` behind what `dst` holds, leaving `src`
/// empty: by pointer when `dst` is empty, by copy otherwise.
fn move_all(dst: &mut Vec<MatchPair>, src: &mut Vec<MatchPair>) {
    if dst.is_empty() {
        std::mem::swap(dst, src);
    } else {
        dst.append(src);
    }
}

/// Takes every core's outbox in position order, retired cores included
/// (what a core published before it died is still a result). The first
/// non-empty outbox is moved in whole; the rest are appended to it and
/// their buffers released, so a drained engine holds no result memory
/// while the caller works on the harvest.
pub(crate) fn take_outboxes(cells: &[Arc<WorkerCell>]) -> Vec<MatchPair> {
    let mut all = Vec::new();
    for cell in cells {
        let mut outbox = cell.lock_outbox();
        move_all(&mut all, &mut outbox);
        *outbox = Vec::new();
    }
    all
}

/// Start instant of a span that is recorded only into `ring`: an
/// untraced core does not read the clock.
pub(crate) fn span_start(ring: &Option<obs::trace::TraceRing>) -> u64 {
    if ring.is_some() {
        obs::trace::now_ns()
    } else {
        0
    }
}

/// Marks the cell dead when the worker thread exits — including by
/// panic, since the guard drops during unwinding.
pub(crate) struct AliveGuard(pub(crate) Arc<WorkerCell>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.dead.store(true, Ordering::Release);
    }
}

pub(crate) enum SendStatus {
    Sent,
    /// The worker's channel disconnected or its cell reports it dead:
    /// recover and reroute, don't error.
    Lost,
}

/// The pure bounded-backoff + saturation-deadline policy, factored out
/// of the send loops so it can be driven by a mock clock in tests.
///
/// Each call to [`SendSupervisor::next_wait`] reports one failed
/// attempt against `(worker, heartbeat)` and asks how long to wait
/// before the next. The backoff doubles from [`BACKOFF_START_MS`] to
/// [`BACKOFF_CAP_MS`] regardless of progress; the saturation clock runs
/// only while the same worker's heartbeat stays frozen, and any
/// progress (or a different laggard) resets it. The returned wait is
/// **clamped to the remaining deadline budget**, so the total frozen
/// wait is exactly [`SATURATION_DEADLINE`] — not the deadline plus a
/// trailing full backoff (the pre-clamp behavior reported `Saturated`
/// at up to 10 s + 64 ms).
#[derive(Debug)]
pub(crate) struct SendSupervisor {
    backoff_ms: u64,
    /// `(deadline start, worker, heartbeat)` of the frozen streak.
    stuck: Option<(Instant, usize, u64)>,
}

impl SendSupervisor {
    pub(crate) fn new() -> Self {
        Self { backoff_ms: BACKOFF_START_MS, stuck: None }
    }

    /// The next bounded wait (see the type docs), or
    /// [`JoinError::Saturated`] once the frozen streak has consumed the
    /// whole deadline.
    pub(crate) fn next_wait(
        &mut self,
        now: Instant,
        worker: usize,
        heartbeat: u64,
    ) -> Result<Duration, JoinError> {
        let wait = Duration::from_millis(self.backoff_ms);
        self.backoff_ms = (self.backoff_ms * 2).min(BACKOFF_CAP_MS);
        match self.stuck {
            Some((since, w, beat)) if w == worker && beat == heartbeat => {
                let elapsed = now.saturating_duration_since(since);
                if elapsed >= SATURATION_DEADLINE {
                    return Err(JoinError::Saturated {
                        worker,
                        waited_ms: elapsed.as_millis() as u64,
                    });
                }
                Ok(wait.min(SATURATION_DEADLINE - elapsed))
            }
            // Progress (or first attempt, or a different laggard):
            // restart the deadline — plain back-pressure waits as long
            // as it takes.
            _ => {
                self.stuck = Some((now, worker, heartbeat));
                Ok(wait)
            }
        }
    }
}

/// Bounded-backoff send with heartbeat supervision. Never blocks
/// indefinitely on a dead or wedged worker: back-pressure with progress
/// waits forever, a frozen heartbeat with a full channel for the whole
/// [`SATURATION_DEADLINE`] reports [`JoinError::Saturated`].
pub(crate) fn supervised_send<T>(
    tx: &Sender<T>,
    cell: &WorkerCell,
    worker: usize,
    mut msg: T,
) -> Result<SendStatus, JoinError> {
    let mut sup = SendSupervisor::new();
    let mut timeout = Duration::from_millis(BACKOFF_START_MS);
    loop {
        match tx.send_timeout(msg, timeout) {
            Ok(()) => return Ok(SendStatus::Sent),
            Err(SendTimeoutError::Disconnected(_)) => return Ok(SendStatus::Lost),
            Err(SendTimeoutError::Timeout(returned)) => {
                msg = returned;
                if cell.is_dead() {
                    return Ok(SendStatus::Lost);
                }
                timeout = sup.next_wait(
                    Instant::now(),
                    worker,
                    cell.heartbeat.load(Ordering::Relaxed),
                )?;
            }
        }
    }
}

/// Ring counterpart of [`supervised_send`]: claim-retry with
/// a yield phase, then the same backoff/saturation policy (a ring has
/// no blocking send to lean on). Returns the status plus the
/// nanoseconds spent waiting, which the router feeds the claim-wait
/// histogram.
pub(crate) fn supervised_push<T>(
    prod: &mut RingProducer<T>,
    cell: &WorkerCell,
    worker: usize,
    mut msg: T,
) -> Result<(SendStatus, u64), JoinError> {
    match prod.try_push(msg) {
        Ok(()) => return Ok((SendStatus::Sent, 0)),
        Err(PushError::Disconnected(_)) => return Ok((SendStatus::Lost, 0)),
        Err(PushError::Full(m)) => msg = m,
    }
    let t0 = Instant::now();
    let waited = |t0: Instant| t0.elapsed().as_nanos().max(1) as u64;
    let mut sup = SendSupervisor::new();
    let mut spins = 0u32;
    loop {
        if cell.is_dead() {
            return Ok((SendStatus::Lost, waited(t0)));
        }
        if spins < CLAIM_SPIN_YIELDS {
            spins += 1;
            std::thread::yield_now();
        } else {
            let wait = sup.next_wait(
                Instant::now(),
                worker,
                cell.heartbeat.load(Ordering::Relaxed),
            )?;
            std::thread::sleep(wait);
        }
        match prod.try_push(msg) {
            Ok(()) => return Ok((SendStatus::Sent, waited(t0))),
            Err(PushError::Disconnected(_)) => return Ok((SendStatus::Lost, waited(t0))),
            Err(PushError::Full(m)) => msg = m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    #[test]
    fn supervised_send_reports_disconnect_as_lost() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        let cell = WorkerCell::default();
        assert!(matches!(
            supervised_send(&tx, &cell, 0, 7),
            Ok(SendStatus::Lost)
        ));
    }

    #[test]
    fn supervised_send_gives_up_on_a_dead_cell_with_a_full_channel() {
        let (tx, _rx) = bounded::<u32>(1);
        tx.send(1).unwrap(); // fill the channel; _rx never drains
        let cell = WorkerCell::default();
        cell.dead.store(true, Ordering::Release);
        assert!(matches!(
            supervised_send(&tx, &cell, 3, 2),
            Ok(SendStatus::Lost)
        ));
    }

    #[test]
    fn supervised_push_gives_up_on_a_dead_cell_with_a_full_ring() {
        let (mut tx, _rx) = streamcore::ring::spsc::<u32>(1);
        tx.try_push(1).unwrap(); // fill the ring; _rx never drains
        let cell = WorkerCell::default();
        cell.dead.store(true, Ordering::Release);
        assert!(matches!(
            supervised_push(&mut tx, &cell, 3, 2),
            Ok((SendStatus::Lost, _))
        ));
    }

    #[test]
    fn supervised_push_reports_disconnect_as_lost() {
        let (mut tx, rx) = streamcore::ring::spsc::<u32>(1);
        drop(rx);
        let cell = WorkerCell::default();
        assert!(matches!(
            supervised_push(&mut tx, &cell, 0, 7),
            Ok((SendStatus::Lost, 0))
        ));
    }

    #[test]
    fn heartbeat_age_tracks_stamped_beats() {
        let cell = WorkerCell::default();
        assert_eq!(cell.heartbeat_age_ns(123), None, "no beat yet");
        cell.last_beat_ns.store(100, Ordering::Relaxed);
        assert_eq!(cell.heartbeat_age_ns(250), Some(150));
        // A sampler racing the beat may read an earlier clock: clamp.
        assert_eq!(cell.heartbeat_age_ns(50), Some(0));
    }

    fn mp(k: u32) -> MatchPair {
        MatchPair { r: streamcore::Tuple::new(k, 0), s: streamcore::Tuple::new(k, 1) }
    }

    #[test]
    fn outboxes_are_taken_in_position_order_and_keep_the_published_total() {
        let cells = [Arc::new(WorkerCell::default()), Arc::new(WorkerCell::default())];
        let mut out = Vec::new();
        cells[1].publish_results(&mut out);
        assert_eq!(cells[1].results_published.load(Ordering::Relaxed), 0, "empty publishes are free");
        assert!(take_outboxes(&cells).is_empty());

        out.extend([mp(3), mp(4)]);
        cells[1].publish_results(&mut out);
        assert!(out.is_empty(), "the buffer moved");
        out.push(mp(5));
        cells[1].publish_results(&mut out); // appended behind the undrained two
        out.push(mp(1));
        cells[0].publish_results(&mut out);
        assert_eq!(take_outboxes(&cells), [mp(1), mp(3), mp(4), mp(5)]);
        assert!(take_outboxes(&cells).is_empty(), "nothing is returned twice");
        // Draining does not rewind the totals.
        assert_eq!(cells[0].results_published.load(Ordering::Relaxed), 1);
        assert_eq!(cells[1].results_published.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn a_poisoned_outbox_still_publishes_and_drains() {
        let cells = [Arc::new(WorkerCell::default())];
        cells[0].publish_results(&mut vec![mp(1)]);
        let holder = Arc::clone(&cells[0]);
        let died = std::thread::spawn(move || {
            let _held = holder.outbox.lock().unwrap();
            panic!("a core dies holding its outbox");
        })
        .join();
        assert!(died.is_err() && cells[0].outbox.is_poisoned());
        cells[0].publish_results(&mut vec![mp(2)]);
        assert_eq!(take_outboxes(&cells), [mp(1), mp(2)]);
    }

    #[test]
    fn alive_guard_marks_death_on_drop() {
        let cell = Arc::new(WorkerCell::default());
        assert!(!cell.is_dead());
        drop(AliveGuard(Arc::clone(&cell)));
        assert!(cell.is_dead());
    }

    /// Regression for the saturation off-by-a-backoff: with a frozen
    /// heartbeat the policy used to sleep a full capped backoff even
    /// when less than that remained of the deadline, firing `Saturated`
    /// at 10 s + 64 ms. Driven by a mock clock (fabricated `Instant`s),
    /// the waits must sum to *exactly* the deadline.
    #[test]
    fn saturation_fires_at_exactly_the_deadline_under_a_mock_clock() {
        let base = Instant::now();
        let mut sup = SendSupervisor::new();
        let mut elapsed = Duration::ZERO;
        let mut waits = Vec::new();
        let err = loop {
            match sup.next_wait(base + elapsed, 3, 42) {
                Ok(w) => {
                    assert!(w > Duration::ZERO, "zero wait would spin");
                    waits.push(w);
                    elapsed += w;
                }
                Err(e) => break e,
            }
        };
        // Backoff doubles 1,2,4,...,64 then stays capped...
        let head: Vec<Duration> =
            [1u64, 2, 4, 8, 16, 32, 64].iter().map(|&ms| Duration::from_millis(ms)).collect();
        assert_eq!(&waits[..7], &head[..]);
        // ...except the final wait, which is clamped to the remaining
        // budget (10_000 = 63 + 155*64 + 17).
        assert_eq!(*waits.last().unwrap(), Duration::from_millis(17));
        assert_eq!(elapsed, SATURATION_DEADLINE, "waits must sum to the deadline exactly");
        match err {
            JoinError::Saturated { worker, waited_ms } => {
                assert_eq!(worker, 3);
                assert_eq!(waited_ms, 10_000, "not 10_064");
            }
            other => panic!("expected Saturated, got {other:?}"),
        }
    }

    /// Heartbeat progress (or a different laggard) restarts the
    /// deadline; the backoff itself keeps doubling.
    #[test]
    fn progress_resets_the_saturation_clock() {
        let base = Instant::now();
        let mut sup = SendSupervisor::new();
        // 9.9 s into a frozen streak on beat 1...
        let mut elapsed = Duration::ZERO;
        loop {
            let w = sup.next_wait(base + elapsed, 0, 1).unwrap();
            elapsed += w;
            if elapsed >= Duration::from_millis(9_900) {
                break;
            }
        }
        // ...the heartbeat moves: the clock restarts and the policy
        // will happily wait another full deadline.
        let w = sup.next_wait(base + elapsed, 0, 2).unwrap();
        assert_eq!(w, Duration::from_millis(BACKOFF_CAP_MS), "backoff stays capped, unclamped");
        let later = elapsed + Duration::from_secs(9);
        assert!(sup.next_wait(base + later, 0, 2).is_ok(), "reset clock must not saturate early");
        // A different worker index is also progress.
        assert!(sup.next_wait(base + later, 1, 2).is_ok());
    }
}
