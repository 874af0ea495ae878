//! Crate-internal worker supervision primitives, one of each, shared by
//! the SplitJoin router and the handshake chain, and the only place in
//! the crate a thread waits: the one core loop both engines' threads run
//! ([`run_core`]: the polled receive and its idle policy, the receive
//! clocks, message numbering, the fault script each data message goes
//! through ([`run_scripted_batch`]), the message boundary, and the stop,
//! which is the core's inboxes closing), the per-worker
//! heartbeat/liveness cell (which also holds the core's result outbox,
//! its statistics and every per-core reading of the live plane, see
//! [`WorkerCell::new`]), the caller-side live handles ([`LiveIntake`]),
//! the scope guard that marks a cell dead on any exit path, the idle
//! policy every polling loop waits under ([`Idle`]), the one saturation
//! rule ([`Watch`]) and the two waits it bounds, the supervised ring push
//! ([`supervised_push`]) and the wait for a retired core's exit
//! ([`await_exit`]), and the barrier wait loop ([`wait_until`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::{JoinError, WorkerStats};
use obs::MetricKind::{Level, Stamp, Total};
use streamcore::ring::{PopError, PushError, RingProducer};
use streamcore::MatchPair;

use crate::fault::{FaultPlan, FaultReport};
use crate::outcome::{key, JoinOutcome};

/// How long a core's heartbeat may stay frozen while a caller waits on
/// it before [`Watch`] reports [`JoinError::Saturated`]. Progress resets
/// the clock, so plain back-pressure (slow but alive workers) never trips
/// it.
pub(crate) const SATURATION_DEADLINE: Duration = Duration::from_secs(10);
/// How long an idle thread sleeps between polls once yielding has not
/// produced work.
pub(crate) const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// The idle policy of every polling loop in the crate: yield, then
/// sleep. Rings and atomics have nothing to park on, so the yields catch
/// the wakeups that matter for latency and the sleep keeps a long wait
/// off the CPU. Nothing spins: every measured host has fewer hardware
/// threads than an engine plus its caller, so the thread waited for
/// needs the CPU. The sites differ only in how many yields they spend.
#[derive(Debug)]
pub(crate) struct Idle {
    yields: u32,
    polls: u32,
}

impl Idle {
    /// A core waiting for its next message: the next batch of a loaded
    /// run arrives within the yield phase.
    pub(crate) const fn inbox() -> Self {
        Self {
            yields: 128,
            polls: 0,
        }
    }

    /// A caller waiting at a barrier (an epoch, a token, a worker's exit).
    pub(crate) const fn barrier() -> Self {
        Self {
            yields: 1_024,
            polls: 0,
        }
    }

    /// A producer waiting for ring space: a draining consumer usually
    /// frees a slot within a scheduler quantum or two.
    pub(crate) const fn claim() -> Self {
        Self {
            yields: 128,
            polls: 0,
        }
    }

    /// Work arrived: the next wait starts from the yield phase again.
    pub(crate) fn reset(&mut self) {
        self.polls = 0;
    }

    /// Yields while the yield phase lasts; `false` once it is spent and
    /// [`Idle::wait`] sleeps on [`IDLE_SLEEP`] instead.
    fn relax(&mut self) -> bool {
        if self.polls >= self.yields {
            return false;
        }
        self.polls += 1;
        std::thread::yield_now();
        true
    }

    /// One unproductive poll's worth of waiting.
    pub(crate) fn wait(&mut self) {
        if !self.relax() {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// The barrier wait loop: polls `pending` under [`Idle::barrier`] until
/// it reports nothing left to wait for.
pub(crate) fn wait_until(
    mut pending: impl FnMut() -> Result<bool, JoinError>,
) -> Result<(), JoinError> {
    let mut idle = Idle::barrier();
    while pending()? {
        idle.wait();
    }
    Ok(())
}

/// The one saturation rule of a caller waiting on core `worker`: the
/// core is saturated once its heartbeat has stayed frozen for the whole
/// [`SATURATION_DEADLINE`]; any progress restarts the clock, so a slow
/// but live core is waited for as long as it takes.
#[derive(Debug)]
pub(crate) struct Watch {
    worker: usize,
    /// When the heartbeat was first seen at its current value, and the
    /// value.
    frozen: Option<(Instant, u64)>,
}

impl Watch {
    pub(crate) fn new(worker: usize) -> Self {
        Self {
            worker,
            frozen: None,
        }
    }

    /// One poll of the core's `heartbeat` at `now`:
    /// [`JoinError::Saturated`] once it has not moved for the deadline.
    pub(crate) fn check(&mut self, now: Instant, heartbeat: u64) -> Result<(), JoinError> {
        match self.frozen {
            Some((since, beat)) if beat == heartbeat => {
                let waited = now.saturating_duration_since(since);
                if waited >= SATURATION_DEADLINE {
                    return Err(JoinError::Saturated {
                        worker: self.worker,
                        waited_ms: waited.as_millis() as u64,
                    });
                }
            }
            _ => self.frozen = Some((now, heartbeat)),
        }
        Ok(())
    }

    /// [`Watch::check`] against the cell's heartbeat now.
    fn poll(&mut self, cell: &WorkerCell) -> Result<(), JoinError> {
        self.check(Instant::now(), cell.heartbeat.load(Ordering::Relaxed))
    }
}

/// Waits for a retired core's thread to exit (its [`AliveGuard`] marks
/// the cell dead on every path, scripted kills and panics alike), or
/// reports [`JoinError::Saturated`] under the [`Watch`]: a retiring core
/// still working through its queue is not saturated.
pub(crate) fn await_exit(cell: &WorkerCell, worker: usize) -> Result<(), JoinError> {
    let mut watch = Watch::new(worker);
    wait_until(|| {
        if cell.is_dead() {
            return Ok(false);
        }
        watch.poll(cell)?;
        Ok(true)
    })
}

/// Shared per-worker supervision block: heartbeat + liveness for the
/// coordinator, the core's published statistics (the one source of the
/// outcome's `worker_stats` and of a panic's `stats_so_far`), every
/// per-core reading of the live plane, and the worker-side fault
/// tallies.
#[derive(Debug, Default)]
pub(crate) struct WorkerCell {
    /// Messages finished ([`WorkerCell::finish_message`]). The supervisor
    /// reads it to tell a slow worker (heartbeat advances) from a wedged
    /// one (frozen with a full channel); SplitJoin's flush barrier waits
    /// for it to reach the messages sent (the chain's barrier is a token
    /// that travels a lane, one atomic per lane in the `HandshakeJoin`).
    pub(crate) heartbeat: AtomicU64,
    /// Monotonic instant (`obs::trace::now_ns`) the core was last seen
    /// alive ([`WorkerCell::stamp_beat`]); 0 = not running (never
    /// stamped, or cleared by [`AliveGuard`] at exit). Written only while
    /// the live telemetry plane is armed; `obs::health` reads a sample's
    /// time minus this stamp as how long the core has been silent, so a
    /// stall is visible *long* before the 10 s [`SATURATION_DEADLINE`].
    pub(crate) last_beat_ns: obs::Metric,
    /// Set when the worker thread exits, normally or by unwinding.
    pub(crate) dead: AtomicBool,
    /// Set when the worker exits on a *scripted kill* — a cooperative
    /// death that shutdown reports as degradation, not as an error.
    pub(crate) killed: AtomicBool,
    pub(crate) tuples_seen: obs::Metric,
    pub(crate) stored: obs::Metric,
    pub(crate) comparisons: obs::Metric,
    pub(crate) matches: obs::Metric,
    /// Messages the core loop handled, and the nanoseconds it spent on
    /// them and waiting in its receive; written only while armed.
    pub(crate) batches: obs::Metric,
    pub(crate) busy_ns: obs::Metric,
    pub(crate) wait_ns: obs::Metric,
    /// Messages queued for the core: set by the core loop at each pop
    /// while armed and by SplitJoin's router at each push (instantaneous;
    /// the sampler turns it into a trajectory).
    pub(crate) ring_occupancy: obs::Metric,
    /// `<engine>.matches`, the pool's match total, which every core adds
    /// its surviving messages' matches to. `Some` only when the live
    /// plane was armed at spawn, which is what makes the core loop time
    /// its messages.
    pub(crate) pool_matches: Option<obs::Metric>,
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
    /// Window tuples this worker's death (or a severed link next to it)
    /// removed from the join — used where the coordinator has no
    /// ownership model of its own (the handshake chain).
    pub(crate) orphaned: AtomicU64,
}

impl WorkerCell {
    /// The cell of core `position` of an `engine`. With the live plane
    /// armed, every per-core reading is a new registry cell
    /// `<engine>.worker.<position>.<what>` ([`obs::Registry::own`]): the
    /// totals `tuples`, `stored`, `probes`, `matches`, `batches`,
    /// `busy_ns` and `wait_ns`, the level `ring_occupancy` and the stamp
    /// `last_beat_ns`. The names read the newest engine's readings, and
    /// no other engine writes this core's cell. Unarmed, they are
    /// detached and the pool total is `None`.
    pub(crate) fn new(engine: &str, position: usize) -> Self {
        let armed = obs::live::active();
        let cell = |what: &str, kind| {
            if armed {
                obs::live::global().own(&key::worker(engine, position, what), kind)
            } else {
                obs::Metric::new()
            }
        };
        Self {
            tuples_seen: cell("tuples", Total),
            stored: cell("stored", Total),
            comparisons: cell("probes", Total),
            matches: cell("matches", Total),
            last_beat_ns: cell("last_beat_ns", Stamp),
            batches: cell("batches", Total),
            busy_ns: cell("busy_ns", Total),
            wait_ns: cell("wait_ns", Total),
            ring_occupancy: cell("ring_occupancy", Level),
            pool_matches: armed.then(|| obs::live::global().metric(&key::matches(engine), Total)),
            ..Self::default()
        }
    }

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

    /// Publishes the core's statistics snapshot. On its own only where
    /// a core exits inside a message (scripted panic or kill), which is
    /// never counted as finished: its matches were not handed off.
    fn publish_stats(&self, stats: &WorkerStats) {
        self.tuples_seen.set(stats.tuples_seen);
        self.stored.set(stats.stored);
        self.comparisons.set(stats.comparisons);
        self.matches.set(stats.matches);
    }

    /// The end of every message a core survives: publishes its
    /// statistics and advances the heartbeat — the `Release` that follows
    /// the outbox publish and the statistics stores, so a barrier that
    /// reads the new count with `Acquire` sees both. The beat is then
    /// timestamped ([`WorkerCell::stamp_beat`]).
    fn finish_message(&self, stats: &WorkerStats) {
        self.publish_stats(stats);
        self.heartbeat.fetch_add(1, Ordering::Release);
        self.stamp_beat();
    }

    /// With the live plane armed (else one relaxed load), stamps the
    /// core as alive now: at the end of a message, and at every poll of
    /// an empty inbox ([`run_core`]) — a core waiting for work is idle,
    /// not stalled, and must not read as silent the moment work reaches
    /// it.
    fn stamp_beat(&self) {
        if obs::live::active() {
            self.last_beat_ns.set(obs::trace::now_ns());
        }
    }

    /// The core's statistics as last published. A core publishes at the
    /// end of every message and before it exits inside one, so once its
    /// thread has exited this is everything it did.
    pub(crate) fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            tuples_seen: self.tuples_seen.get(),
            stored: self.stored.get(),
            comparisons: self.comparisons.get(),
            matches: self.matches.get(),
        }
    }
}

/// The caller-side live handles of a threaded engine, built from its
/// name only when the plane is armed at spawn: `<engine>.batches` and
/// `<engine>.tuples`, counted per message the caller injects, and the
/// constant `<engine>.ring.capacity` that `obs::health` reads each of the
/// engine's `ring_occupancy` levels against. Per-core readings are the
/// cells' ([`WorkerCell::new`]).
#[derive(Debug)]
pub(crate) struct LiveIntake {
    batches: obs::Metric,
    tuples: obs::Metric,
}

impl LiveIntake {
    pub(crate) fn new(engine: &str, ring_capacity: usize) -> Option<Self> {
        obs::live::active().then(|| {
            let reg = obs::live::global();
            reg.metric(&format!("{engine}.ring.capacity"), Level)
                .set(ring_capacity as u64);
            Self {
                batches: reg.metric(&key::batches(engine), Total),
                tuples: reg.metric(&format!("{engine}.tuples"), Total),
            }
        })
    }

    /// One injected message of `len` tuples.
    pub(crate) fn on_batch(&self, len: usize) {
        self.batches.add(1);
        self.tuples.add(len as u64);
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

/// The tail of every threaded engine's `shutdown`, once its cores are
/// joined: reads each core's statistics from its cell
/// ([`WorkerCell::snapshot`]), folds the cores' fault tallies into
/// `fault` and takes what is left in the outboxes. `results` holds only
/// what no mid-run drain
/// harvested; the published totals are every match ever handed over, so
/// `result_count` survives draining. Counting-only publishes nothing and
/// folds the per-core match counters instead. SplitJoin's telemetry
/// fields are left `None`.
pub(crate) fn outcome(
    engine: &'static str,
    cells: &[Arc<WorkerCell>],
    collecting: bool,
    batch_sizes: obs::Histogram,
    trace: Vec<obs::trace::TraceRing>,
    mut fault: FaultReport,
) -> JoinOutcome {
    let worker_stats: Vec<WorkerStats> = cells.iter().map(|c| c.snapshot()).collect();
    for cell in cells {
        fault.injected_stalls += cell.stalls.load(Ordering::Relaxed);
        fault.injected_drops += cell.drops.load(Ordering::Relaxed);
        fault.results_dropped += cell.results_dropped.load(Ordering::Relaxed);
    }
    let result_count = if collecting {
        cells
            .iter()
            .map(|c| c.results_published.load(Ordering::Relaxed))
            .sum()
    } else {
        worker_stats.iter().map(|w| w.matches).sum()
    };
    JoinOutcome {
        engine,
        results: take_outboxes(cells),
        result_count,
        worker_stats,
        batch_sizes,
        trace,
        fault,
        ..JoinOutcome::default()
    }
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
/// panic, since the guard drops during unwinding — and clears its beat
/// stamp, so an exited core never reads as silent.
pub(crate) struct AliveGuard(pub(crate) Arc<WorkerCell>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.last_beat_ns.set(0);
        self.0.dead.store(true, Ordering::Release);
    }
}

/// Joins every core thread and returns what each left behind, or
/// [`JoinError::WorkerPanicked`] — naming the first core that panicked,
/// with its last published statistics — once all of them have exited.
pub(crate) fn join_cores<E>(
    workers: Vec<JoinHandle<E>>,
    cells: &[Arc<WorkerCell>],
) -> Result<Vec<E>, JoinError> {
    let mut exits = Vec::with_capacity(workers.len());
    let mut panicked = None;
    for (i, w) in workers.into_iter().enumerate() {
        match w.join() {
            Ok(exit) => exits.push(exit),
            Err(_) => {
                panicked.get_or_insert(i);
            }
        }
    }
    match panicked {
        Some(worker) => Err(JoinError::WorkerPanicked {
            worker,
            stats_so_far: cells[worker].snapshot(),
        }),
        None => Ok(exits),
    }
}

pub(crate) enum SendStatus {
    Sent,
    /// The worker's ring disconnected or its cell reports it dead:
    /// recover and reroute, don't error.
    Lost,
}

/// The supervised send: retries the push under [`Idle::claim`] (a ring
/// has no blocking send to lean on), checking the [`Watch`] at each
/// poll. Never blocks indefinitely on a dead or wedged worker:
/// back-pressure with progress waits forever, a frozen heartbeat with a
/// full ring for the whole [`SATURATION_DEADLINE`] reports
/// [`JoinError::Saturated`].
/// Returns the status plus the nanoseconds spent waiting, which the
/// router feeds the claim-wait histogram.
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
    let mut watch = Watch::new(worker);
    let mut idle = Idle::claim();
    loop {
        if cell.is_dead() {
            return Ok((SendStatus::Lost, waited(t0)));
        }
        watch.poll(cell)?;
        idle.wait();
        match prod.try_push(msg) {
            Ok(()) => return Ok((SendStatus::Sent, waited(t0))),
            Err(PushError::Disconnected(_)) => return Ok((SendStatus::Lost, waited(t0))),
            Err(PushError::Full(m)) => msg = m,
        }
    }
}

/// A join core as [`run_core`] drives it. The engine supplies only its
/// non-blocking receive, the handling of one message and what its thread
/// leaves behind; the loop owns everything else, waiting and stopping
/// included.
pub(crate) trait Core {
    /// What the core's inboxes carry.
    type Msg;
    /// A data message, once [`Core::open`] has told it from a control one.
    type Data;
    /// What the core's thread returns beyond its statistics, which stay
    /// in its cell ([`outcome`] reads them there).
    type Exit;
    /// Trace track of the core: `<TRACK>.<position>`.
    const TRACK: &'static str;
    /// Trace-span name of the core's own work on one data message.
    const WORK_SPAN: &'static str;
    /// Trace-span name of the hand-off of that message's matches;
    /// `None` when the engine does not trace it.
    const HAND_OFF_SPAN: Option<&'static str>;

    /// The core's supervision cell, its running statistics, and the
    /// matches of the message in progress.
    fn parts(&mut self) -> (&Arc<WorkerCell>, &WorkerStats, &mut Vec<MatchPair>);
    /// The next message if one is queued: [`PopError::Empty`] when none
    /// is, [`PopError::Disconnected`] once the inboxes have closed and
    /// drained, which ends the core.
    fn try_recv(&mut self) -> Result<Self::Msg, PopError>;
    /// Messages still queued for the core (read only while armed).
    fn queued(&self) -> usize;
    /// Handles a control message in place (`None`), or hands a data
    /// message back with its entry count, for the fault script
    /// ([`run_scripted_batch`]) to pass to [`Core::work`].
    fn open(
        &mut self,
        msg: Self::Msg,
        ring: &mut Option<obs::trace::TraceRing>,
    ) -> Option<(Self::Data, usize)>;
    /// The engine's own processing of a data message.
    fn work(&mut self, data: Self::Data);
    /// What else dies with the core under a scripted kill.
    fn on_kill(&mut self) {}
    /// The thread's result, from the core and its trace ring.
    fn exit(self, ring: Option<obs::trace::TraceRing>) -> Self::Exit;
}

/// The one core loop of both threaded engines: receive, handle, and
/// close each message at its boundary (statistics, heartbeat, beat
/// stamp), tracing `recv` waits when tracing is on. It polls the core's
/// inboxes under [`Idle::inbox`], stamping the beat at every empty poll (a
/// core waiting for work is idle, not stalled), and ends the core once
/// they have closed and drained: an engine stops its cores by dropping
/// their producers. With the live plane armed at spawn it also keeps the
/// cell's `batches`, `busy_ns` (the message) and `wait_ns` (waiting in
/// the receive) running, sets its `ring_occupancy` at each pop, and adds
/// each surviving data message's matches to the pool total; unarmed,
/// it reads no clock per message.
pub(crate) fn run_core<C: Core>(mut core: C, position: usize, plan: &FaultPlan) -> C::Exit {
    let cell = Arc::clone(core.parts().0);
    // Declared before the core, so it drops after it on every path,
    // unwinding included: a cell that reads dead has already dropped the
    // core's link ends (the chain's `flush` re-issues its token on that).
    let _guard = AliveGuard(Arc::clone(&cell));
    let mut core = core;
    let mut ring = obs::trace::enabled().then(|| {
        obs::trace::TraceRing::new(
            format!("{}.{position}", C::TRACK),
            obs::trace::TimeDomain::Wall,
        )
    });
    // Only the core writes its loop-kept totals, so a load and a store
    // keep each one, with no read-modify-write.
    let bump = |total: &obs::Metric, by: u64| total.set(total.get() + by);
    let armed = cell.pool_matches.is_some();
    // The core's match count at its last message, for the pool delta.
    let mut pooled = 0;
    let mut idle = Idle::inbox();
    let mut idle_since = span_start(&ring);
    let mut wait_start = armed.then(obs::trace::now_ns);
    let mut data_no: u64 = 0;
    loop {
        let msg = match core.try_recv() {
            Ok(msg) => msg,
            Err(PopError::Empty) => {
                cell.stamp_beat();
                idle.wait();
                continue;
            }
            Err(PopError::Disconnected) => break,
        };
        idle.reset();
        let busy_start = wait_start.map(|t0| {
            let now = obs::trace::now_ns();
            bump(&cell.wait_ns, now.saturating_sub(t0));
            cell.ring_occupancy.set(core.queued() as u64);
            now
        });
        if let Some(r) = ring.as_mut() {
            let t = obs::trace::now_ns();
            r.record("recv", idle_since, t.saturating_sub(idle_since));
        }
        let killed = match core.open(msg, &mut ring) {
            Some((data, len)) => {
                data_no += 1;
                run_scripted_batch(&mut core, plan, position, data_no, len, &mut ring, |c| {
                    c.work(data)
                })
            }
            None => false,
        };
        let (_, stats, _) = core.parts();
        if let (Some(pool), Some(t0)) = (&cell.pool_matches, busy_start) {
            bump(&cell.busy_ns, obs::trace::now_ns().saturating_sub(t0));
            bump(&cell.batches, 1);
            // The matches of a message a scripted kill took stay in the
            // core's own tally, as they do in its `WorkerStats`, but never
            // reach the pool total (`fault.results_dropped`).
            if !killed {
                pool.add(stats.matches - pooled);
            }
            pooled = stats.matches;
        }
        if killed {
            cell.killed.store(true, Ordering::Relaxed);
            core.on_kill();
            return core.exit(ring);
        }
        // The epoch step SplitJoin's flush waits for, behind the outbox
        // publish.
        cell.finish_message(stats);
        idle_since = span_start(&ring);
        wait_start = armed.then(obs::trace::now_ns);
    }
    debug_assert!(
        core.parts().2.is_empty(),
        "matches are published at every message boundary"
    );
    core.exit(ring)
}

/// One data message through the fault script: stall, drop-or-work,
/// scripted panic, scripted kill — and, when it survives all of them,
/// the hand-off of its matches to the cell's outbox, so a later flush
/// barrier covers them. `work` is the engine's own processing of the
/// message's `len` entries: a broadcast batch in SplitJoin, a wave group
/// probed, parked and forwarded on the chain (which counts both lanes
/// together). `true` when a scripted kill took the message: the core
/// exits abruptly, the script having counted the message's matches as
/// dropped; what else dies with it (the chain's parked window tuples) is
/// the engine's own accounting ([`Core::on_kill`]).
pub(crate) fn run_scripted_batch<C: Core>(
    core: &mut C,
    plan: &FaultPlan,
    position: usize,
    batch_no: u64,
    len: usize,
    ring: &mut Option<obs::trace::TraceRing>,
    work: impl FnOnce(&mut C),
) -> bool {
    let stall = plan.stall_ms(position, batch_no);
    if stall > 0 {
        core.parts().0.stalls.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(stall));
    }
    if plan.drops(position, batch_no) {
        // The message is lost in transit: never probed, never stored,
        // never forwarded, and this core's view of the streams silently
        // falls behind its siblings' — deliberate corruption.
        core.parts().0.drops.fetch_add(1, Ordering::Relaxed);
    } else {
        let t0 = span_start(ring);
        work(core);
        if let Some(r) = ring.as_mut() {
            let t1 = obs::trace::now_ns();
            r.record_arg(C::WORK_SPAN, t0, t1.saturating_sub(t0), len as u64);
        }
    }
    let (cell, stats, out) = core.parts();
    if plan.panics(position, batch_no) {
        cell.publish_stats(stats);
        panic!("fault injection: core {position} scripted panic at message {batch_no}");
    }
    if plan.kills(position, batch_no) {
        // Abrupt exit: this message's matches die here, unpublished.
        cell.results_dropped
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        cell.publish_stats(stats);
        return true;
    }
    let t0 = span_start(ring);
    cell.publish_results(out);
    if let (Some(r), Some(name)) = (ring.as_mut(), C::HAND_OFF_SPAN) {
        let t1 = obs::trace::now_ns();
        r.record(name, t0, t1.saturating_sub(t0));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn idle_phases_are_spent_in_order_and_restart_on_reset() {
        for (mut idle, yields) in [
            (Idle::inbox(), 128),
            (Idle::barrier(), 1_024),
            (Idle::claim(), 128),
        ] {
            assert_eq!(idle.yields, yields);
            for _ in 0..yields {
                assert!(idle.relax(), "the yield phase lasts {yields} yields");
            }
            assert!(!idle.relax(), "spent: the caller sleeps");
            assert!(!idle.relax(), "and keeps sleeping");
            idle.reset();
            assert!(idle.relax(), "work arrived: back to the yield phase");
        }
    }

    #[test]
    fn wait_until_polls_to_completion_and_passes_errors_through() {
        let mut polls = 0;
        wait_until(|| {
            polls += 1;
            Ok(polls < 5)
        })
        .unwrap();
        assert_eq!(polls, 5);
        assert_eq!(
            wait_until(|| Err(JoinError::AllWorkersLost)),
            Err(JoinError::AllWorkersLost)
        );
    }

    /// A core whose inbox holds `inbox` data messages, each finding two
    /// matches; with `gaps`, the inbox answers `Empty` once before each.
    #[derive(Default)]
    struct FakeCore {
        cell: Arc<WorkerCell>,
        stats: WorkerStats,
        out: Vec<MatchPair>,
        inbox: u64,
        gaps: bool,
        /// The last poll answered `Empty`.
        gapped: bool,
        /// `Empty` answers given.
        empties: u64,
    }

    impl Core for FakeCore {
        type Msg = ();
        type Data = ();
        type Exit = Self;
        const TRACK: &'static str = "fake";
        const WORK_SPAN: &'static str = "work";
        const HAND_OFF_SPAN: Option<&'static str> = None;

        fn parts(&mut self) -> (&Arc<WorkerCell>, &WorkerStats, &mut Vec<MatchPair>) {
            (&self.cell, &self.stats, &mut self.out)
        }
        fn try_recv(&mut self) -> Result<(), PopError> {
            if self.inbox == 0 {
                return Err(PopError::Disconnected);
            }
            if self.gaps && !self.gapped {
                self.gapped = true;
                self.empties += 1;
                return Err(PopError::Empty);
            }
            self.gapped = false;
            self.inbox -= 1;
            Ok(())
        }
        fn queued(&self) -> usize {
            self.inbox as usize
        }
        fn open(&mut self, (): (), _: &mut Option<obs::trace::TraceRing>) -> Option<((), usize)> {
            Some(((), 2))
        }
        fn work(&mut self, (): ()) {
            self.stats.matches += 2;
            self.out.extend([mp(1), mp(2)]);
        }
        fn exit(self, _: Option<obs::trace::TraceRing>) -> Self {
            self
        }
    }

    /// Runs three messages through the core loop under `plan`.
    fn scripted(plan: &str) -> FakeCore {
        let core = FakeCore {
            inbox: 3,
            ..FakeCore::default()
        };
        run_core(core, 0, &FaultPlan::parse(plan).unwrap())
    }

    #[test]
    fn an_empty_poll_waits_and_the_closed_inbox_ends_the_core() {
        let core = FakeCore {
            inbox: 3,
            gaps: true,
            ..FakeCore::default()
        };
        let core = run_core(core, 0, &FaultPlan::default());
        assert_eq!(core.empties, 3, "one empty poll before each message");
        assert_eq!(core.inbox, 0);
        assert_eq!(core.cell.heartbeat.load(Ordering::Relaxed), 3);
        assert_eq!(core.cell.snapshot().matches, 6);
        assert_eq!(core.cell.results_published.load(Ordering::Relaxed), 6);
        assert!(core.cell.is_dead(), "the loop ended on `Disconnected`");
        assert!(!core.cell.killed.load(Ordering::Relaxed));
    }

    #[test]
    fn a_scripted_drop_skips_the_work_and_counts_once() {
        let core = scripted("drop0@2");
        assert_eq!(core.cell.drops.load(Ordering::Relaxed), 1);
        assert_eq!(core.stats.matches, 4, "messages 1 and 3 did their work");
        assert_eq!(core.cell.results_published.load(Ordering::Relaxed), 4);
        assert!(
            core.out.is_empty(),
            "every surviving message hands its matches off"
        );
        assert_eq!(core.cell.heartbeat.load(Ordering::Relaxed), 3);
        assert!(core.cell.is_dead(), "the loop's exit marks the cell");
    }

    #[test]
    fn a_scripted_kill_drops_exactly_the_message_in_progress() {
        let core = scripted("kill0@2");
        assert_eq!(core.inbox, 1, "the core exits inside message 2");
        assert!(core.cell.killed.load(Ordering::Relaxed));
        assert_eq!(core.cell.heartbeat.load(Ordering::Relaxed), 1);
        assert_eq!(
            core.cell.results_dropped.load(Ordering::Relaxed),
            core.out.len() as u64
        );
        assert_eq!(
            core.out.len(),
            2,
            "the fatal message's matches are not handed off"
        );
        assert_eq!(core.cell.results_published.load(Ordering::Relaxed), 2);
        assert_eq!(
            core.cell.snapshot().matches,
            4,
            "the last snapshot includes the fatal message"
        );
    }

    fn mp(k: u32) -> MatchPair {
        MatchPair {
            r: streamcore::Tuple::new(k, 0),
            s: streamcore::Tuple::new(k, 1),
        }
    }

    #[test]
    fn outboxes_are_taken_in_position_order_and_keep_the_published_total() {
        let cells = [
            Arc::new(WorkerCell::default()),
            Arc::new(WorkerCell::default()),
        ];
        let mut out = Vec::new();
        cells[1].publish_results(&mut out);
        assert_eq!(
            cells[1].results_published.load(Ordering::Relaxed),
            0,
            "empty publishes are free"
        );
        assert!(take_outboxes(&cells).is_empty());

        out.extend([mp(3), mp(4)]);
        cells[1].publish_results(&mut out);
        assert!(out.is_empty(), "the buffer moved");
        out.push(mp(5));
        cells[1].publish_results(&mut out); // appended behind the undrained two
        out.push(mp(1));
        cells[0].publish_results(&mut out);
        assert_eq!(take_outboxes(&cells), [mp(1), mp(3), mp(4), mp(5)]);
        assert!(
            take_outboxes(&cells).is_empty(),
            "nothing is returned twice"
        );
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
        cell.last_beat_ns.set(7);
        assert!(!cell.is_dead());
        drop(AliveGuard(Arc::clone(&cell)));
        assert!(cell.is_dead());
        assert_eq!(cell.last_beat_ns.get(), 0, "an exited core is not silent");
    }

    /// The deadline is exact: a heartbeat frozen since `base` is
    /// `Saturated` at exactly `base + SATURATION_DEADLINE`, reporting
    /// those 10 000 ms, and not one nanosecond before. Driven by a mock
    /// clock (fabricated `Instant`s).
    #[test]
    fn saturation_fires_at_exactly_the_deadline_under_a_mock_clock() {
        let base = Instant::now();
        let mut watch = Watch::new(3);
        assert!(
            watch.check(base, 42).is_ok(),
            "the first poll starts the clock"
        );
        let just_before = base + SATURATION_DEADLINE - Duration::from_nanos(1);
        assert!(watch.check(just_before, 42).is_ok());
        match watch.check(base + SATURATION_DEADLINE, 42) {
            Err(JoinError::Saturated { worker, waited_ms }) => {
                assert_eq!(worker, 3);
                assert_eq!(waited_ms, 10_000);
            }
            other => panic!("expected Saturated, got {other:?}"),
        }
    }

    /// Heartbeat progress restarts the deadline.
    #[test]
    fn progress_resets_the_saturation_clock() {
        let base = Instant::now();
        let mut watch = Watch::new(0);
        watch.check(base, 1).unwrap();
        // 9.9 s into a frozen streak on beat 1...
        let later = base + Duration::from_millis(9_900);
        watch.check(later, 1).unwrap();
        // ...the heartbeat moves: the clock restarts from there, and a
        // whole deadline after the first poll is no saturation.
        watch.check(later, 2).unwrap();
        assert!(
            watch.check(base + SATURATION_DEADLINE, 2).is_ok(),
            "reset clock must not saturate early"
        );
        assert!(watch.check(later + SATURATION_DEADLINE, 2).is_err());
    }
}
