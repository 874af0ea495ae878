//! Multithreaded bi-flow stream join: a software low-latency handshake
//! join.
//!
//! Join cores form a chain of threads; R tuples enter at the left end and
//! travel right, S tuples enter at the right end and travel left. Each
//! arriving tuple is fast-forwarded along the whole chain (low-latency
//! handshake join), probing every core's opposite-stream segment, while a
//! storage cascade parks it and shifts displaced tuples toward the exit.
//!
//! Unlike the hardware model in `joinhw::biflow` — where a central
//! coordinator admits one wave at a time and therefore preserves strict
//! semantics — the software chain lets waves from both ends pipeline
//! through the cores concurrently. Tuples travelling in opposite
//! directions can race past each other between segments, so results follow
//! the *overlap* semantics of the handshake-join literature: matches whose
//! windows overlap by a margin are always found, but pairs that cross
//! right at a window boundary may be missed or observed with slightly
//! different window contents. The tests pin down both regimes: exactness
//! under serialized feeding, statistical agreement under pipelining.
//!
//! Each core is a thread running the core loop both threaded engines
//! share (`supervise::run_core`, which owns the waiting, the receive
//! clocks, message numbering, the fault script, the message boundary and
//! the stop); the chain supplies only its two-lane receive, one
//! non-blocking pass over both inboxes, and what a wave group or a flush
//! token means to a core. Armed, the live plane therefore reads the same
//! per-core keys from the chain as from SplitJoin,
//! `handshake.worker.<i>.*` busy and wait time included. A wave probes
//! a core's opposite segment with the probe SplitJoin's per-tuple path
//! runs ([`FlatWindow::probe`]), so the two flow models share what a
//! match is as well as how a core waits.
//!
//! # Batched waves
//!
//! Like [`SplitJoin`](crate::splitjoin::SplitJoin), the chain can batch
//! its data path: [`JoinConfig::batch_size`] tuples accumulate on the
//! caller side and enter the chain as one multi-wave message, and each
//! core forwards the whole group downstream as one message after
//! processing it. Within a lane the waves of a batch are processed in
//! order at every core, so same-lane semantics are identical to the
//! unbatched chain; batching only coarsens the interleaving *between* the
//! two lanes, which the overlap semantics already permit. The default is
//! `1` (every tuple is its own wave — the historical behaviour), because
//! `batch_size` trades ordering precision for throughput exactly like a
//! larger `channel_capacity` does. Serialized feeding (flush after every
//! tuple) remains exact at any batch size, since `flush` drains the
//! partial batch first.
//!
//! # Links
//!
//! A link is what it is in [`SplitJoin`](crate::splitjoin::SplitJoin): a
//! bounded lock-free SPSC ring ([`streamcore::ring`]) of
//! [`JoinConfig::channel_capacity`] messages — the two flow models differ
//! in topology, not in transport. Every core polls two inboxes (R from
//! its left, S from its right). Only the caller waits on a full ring
//! (the supervised push at the two entries: the chain's back-pressure
//! and its ordering-precision knob). A core whose onward ring is full
//! holds that one message back, leaves the lane's inbox alone until the
//! ring takes it, and keeps serving the other lane: two neighbours each
//! waiting on the other's full ring would never drain, while a lane on
//! its own runs one way and always does. A flush is a token pushed into
//! both entries: it travels its lane behind the waves, and the core that
//! ends its travel — the exit end, or the core before a cut — publishes
//! it to the lane's barrier atomic, which [`HandshakeJoin::flush`]
//! polls — unless nothing was injected since the last completed flush,
//! which returns at once. (SplitJoin's barrier counts finished messages;
//! a token can be re-issued past a cut, a count cannot.) Shutdown closes
//! the two entry rings and the close travels the same way.
//!
//! # Fault tolerance
//!
//! The chain has no partition map to re-route over — a core *is* a link
//! in both lanes — so degradation here means **severing**: a core lost to
//! a scripted [`FaultPlan`](crate::fault::FaultPlan) kill (or a panic,
//! or organic death) cuts both
//! lanes at its position, and its neighbours detect the cut on their
//! next forward, stop forwarding into it, and count every wave-carried
//! window tuple that can no longer be parked as orphaned. Entry pushes
//! are supervised (yield, then sleep, watching the entry core's
//! heartbeat); tuples offered to a severed entry are counted as orphaned
//! rather than panicking the caller, and [`HandshakeJoin::flush`]
//! degrades to a survivors-only barrier: the cores each lane can still
//! reach from its entry. The
//! damage tally arrives in [`JoinOutcome::fault`]; with an empty
//! plan and no organic failures it is all-zero and the data path is the
//! pre-fault-model one.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::error::{JoinError, WorkerStats};
use streamcore::ring::{self, PopError, PushError, RingConsumer, RingProducer};
use streamcore::{FlatWindow, JoinPredicate, MatchPair, StreamTag, Tuple};

use crate::config::{JoinConfig, JoinParams};
use crate::fault::FaultReport;
use crate::outcome::{key, JoinOutcome};
use crate::streamjoin::StreamJoin;
use crate::supervise::{
    join_cores, outcome, run_core, supervised_push, take_outboxes, wait_until, Core, LiveIntake,
    SendStatus, WorkerCell,
};

/// Configuration of a [`HandshakeJoin`] chain: the shared [`JoinConfig`]
/// with chain-appropriate defaults (entry capacity 256, unbatched
/// waves). Derefs to [`JoinConfig`], so the shared fields read and write
/// exactly as before the convergence.
#[derive(Debug, Clone, PartialEq)]
pub struct HandshakeConfig {
    /// The engine-independent configuration fields.
    pub common: JoinConfig,
}

impl std::ops::Deref for HandshakeConfig {
    type Target = JoinConfig;
    fn deref(&self) -> &JoinConfig {
        &self.common
    }
}

impl std::ops::DerefMut for HandshakeConfig {
    fn deref_mut(&mut self) -> &mut JoinConfig {
        &mut self.common
    }
}

impl JoinParams for HandshakeConfig {
    fn common(&self) -> &JoinConfig {
        &self.common
    }
    fn common_mut(&mut self) -> &mut JoinConfig {
        &mut self.common
    }
}

impl HandshakeConfig {
    /// An equi-join chain with default channel sizing and unbatched
    /// (`batch_size = 1`) waves. The shared builders come from
    /// [`JoinParams`].
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` or `window_size` is zero.
    pub fn new(num_cores: usize, window_size: usize) -> Self {
        let common = JoinConfig::new(num_cores, window_size);
        Self {
            common: common.with_channel_capacity(256).with_batch_size(1),
        }
    }
}

/// One wave: the fast-forwarded probe replica plus the storage-cascade
/// payload it is still carrying.
#[derive(Debug, Clone, Copy)]
struct Wave {
    probe: Tuple,
    store: Option<Tuple>,
}

enum ChainMsg {
    /// A group of same-lane waves, forwarded core-to-core as one message.
    Waves { tag: StreamTag, waves: Vec<Wave> },
    /// Flush token: forwarded down its lane and published to the lane's
    /// barrier atomic by the core that ends its travel. It queues behind
    /// its lane's waves at every core, and a core publishes a wave
    /// group's matches before it takes the next message, so the
    /// published token covers them.
    Flush(u64),
}

/// Lane index of a stream: R = 0 (rightward), S = 1 (leftward).
fn side(tag: StreamTag) -> usize {
    tag as usize
}

/// The caller's end of one lane: the link into the lane's entry core
/// and the wave group being assembled for it.
#[derive(Debug)]
struct Entry {
    link: RingProducer<ChainMsg>,
    /// Position of the entry core (0 for R, N-1 for S).
    core: usize,
    /// Caller-side wave buffer; drained on flush/shutdown.
    pending: Vec<Wave>,
}

/// A running software handshake join.
///
/// # Example
///
/// ```
/// use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
/// use joinsw::StreamJoin;
/// use streamcore::{StreamTag, Tuple};
///
/// let join = HandshakeJoin::spawn(HandshakeConfig::new(3, 12));
/// join.process(StreamTag::S, Tuple::new(4, 0)).unwrap();
/// join.flush().unwrap();
/// join.process(StreamTag::R, Tuple::new(4, 1)).unwrap();
/// join.flush().unwrap();
/// let outcome = join.shutdown().unwrap();
/// assert_eq!(outcome.result_count, 1);
/// ```
#[derive(Debug)]
pub struct HandshakeJoin {
    /// Lane entries, indexed by [`side`].
    entries: RefCell<[Entry; 2]>,
    /// Per-lane flush barrier: the highest token that has finished its
    /// travel down the lane (see [`ChainMsg::Flush`]).
    barrier: Arc<[AtomicU64; 2]>,
    /// Flush tokens issued so far.
    flush_seq: Cell<u64>,
    /// A wave group was injected since the last completed flush.
    unsettled: Cell<bool>,
    workers: Vec<JoinHandle<Option<obs::trace::TraceRing>>>,
    cells: Vec<Arc<WorkerCell>>,
    /// `false` when counting-only: the outboxes stay empty and the
    /// result count comes from the cores' match counters.
    collecting: bool,
    batch_size: usize,
    batch_hist: RefCell<obs::Histogram>,
    /// Caller-side damage tally: tuples that could not even enter the
    /// chain because an entry core was gone.
    report: RefCell<FaultReport>,
    /// `handshake.batches` (wave groups injected at the entries, the
    /// outcome's `batch_sizes.total()`) and `handshake.tuples`; `None`
    /// unless the plane was armed at spawn ([`obs::live::set_active`]).
    live: Option<LiveIntake>,
}

impl HandshakeJoin {
    /// Pushes `msg` into a lane's entry core under supervision.
    fn send_entry(&self, entry: &mut Entry, msg: ChainMsg) -> Result<SendStatus, JoinError> {
        let cell = &self.cells[entry.core];
        Ok(supervised_push(&mut entry.link, cell, entry.core, msg)?.0)
    }

    /// Injects the lane's pending wave group, if any, as one message.
    fn send_waves(&self, tag: StreamTag, entry: &mut Entry) -> Result<(), JoinError> {
        if entry.pending.is_empty() {
            return Ok(());
        }
        self.unsettled.set(true);
        let waves = std::mem::take(&mut entry.pending);
        let count = waves.len() as u64;
        self.batch_hist.borrow_mut().record_value(count);
        if let Some(intake) = self.live.as_ref() {
            intake.on_batch(waves.len());
        }
        if let SendStatus::Lost = self.send_entry(entry, ChainMsg::Waves { tag, waves })? {
            // The entry core is gone: these tuples never enter the join
            // at all.
            self.report.borrow_mut().orphaned_tuples += count;
        }
        Ok(())
    }

    fn drain_pending(&self) -> Result<(), JoinError> {
        let mut entries = self.entries.borrow_mut();
        for (tag, entry) in [StreamTag::R, StreamTag::S]
            .into_iter()
            .zip(entries.iter_mut())
        {
            self.send_waves(tag, entry)?;
        }
        Ok(())
    }
}

impl StreamJoin for HandshakeJoin {
    type Config = HandshakeConfig;

    /// Spawns the chain: one thread per core, collecting or not.
    ///
    /// # Panics
    ///
    /// Panics if `config.channel_capacity` or `config.batch_size` is
    /// zero, or the fault plan targets a core out of range (the builder
    /// methods reject these, but the fields are public).
    fn spawn(config: HandshakeConfig) -> Self {
        config.common.validate();
        let n = config.num_cores;

        // One ring per core per lane, all of `channel_capacity` slots:
        // ring i of the R lane feeds core i from the left (the caller at
        // i = 0), ring i of the S lane from the right (the caller at
        // i = N-1).
        let links = || -> (Vec<_>, Vec<_>) {
            (0..n)
                .map(|_| ring::spsc::<ChainMsg>(config.channel_capacity))
                .unzip()
        };
        let (r_tx, r_rx) = links();
        let (mut s_tx, s_rx) = links();
        let mut r_next = r_tx.into_iter();
        // Invariant: a chain has at least one core (`JoinConfig::new`
        // rejects zero), so each lane has an entry ring.
        #[allow(clippy::expect_used)]
        let entry = |link: Option<RingProducer<ChainMsg>>, core| Entry {
            link: link.expect("a chain has at least one core"),
            core,
            pending: Vec::with_capacity(config.batch_size),
        };
        let entries = [entry(r_next.next(), 0), entry(s_tx.pop(), n - 1)];
        let s_next = std::iter::once(None).chain(s_tx.into_iter().map(Some));

        let barrier = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let sub = config.sub_window();
        let lane = |inbox, next: Option<RingProducer<ChainMsg>>, downstream| Lane {
            inbox,
            open: true,
            at_exit: next.is_none(),
            next,
            held: None,
            window: FlatWindow::new(sub),
            downstream,
            forwarded: 0,
        };
        let mut cells = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for (position, ((r_rx, s_rx), s_next)) in r_rx.into_iter().zip(s_rx).zip(s_next).enumerate()
        {
            let cell = Arc::new(WorkerCell::new(key::HANDSHAKE, position));
            cells.push(Arc::clone(&cell));
            let core = ChainCore {
                predicate: config.predicate,
                collect: config.collect_results,
                lanes: [
                    lane(r_rx, r_next.next(), (n - 1 - position) * sub),
                    lane(s_rx, s_next, position * sub),
                ],
                stats: WorkerStats::default(),
                out: Vec::new(),
                cell,
                barrier: Arc::clone(&barrier),
                first: 0,
            };
            let plan = config.fault_plan.clone();
            workers.push(std::thread::spawn(move || run_core(core, position, &plan)));
        }
        Self {
            entries: RefCell::new(entries),
            barrier,
            flush_seq: Cell::new(0),
            unsettled: Cell::new(false),
            workers,
            cells,
            collecting: config.collect_results,
            batch_size: config.batch_size,
            batch_hist: RefCell::new(obs::Histogram::new()),
            report: RefCell::new(FaultReport::default()),
            live: LiveIntake::new(key::HANDSHAKE, config.channel_capacity),
        }
    }

    /// Injects one tuple at the chain end of its stream. The tuple joins
    /// its lane's pending wave group; every
    /// [`JoinConfig::batch_size`] tuples the group enters the chain
    /// as a single message.
    ///
    /// # Errors
    ///
    /// [`JoinError::Saturated`] when the entry core's ring stays full
    /// with a frozen heartbeat past the supervision deadline. A *severed*
    /// entry (its core killed or panicked) is not an error: the tuples
    /// are counted as orphaned in [`JoinOutcome::fault`] instead.
    fn process(&self, tag: StreamTag, tuple: Tuple) -> Result<(), JoinError> {
        let mut entries = self.entries.borrow_mut();
        let entry = &mut entries[side(tag)];
        entry.pending.push(Wave {
            probe: tuple,
            store: Some(tuple),
        });
        if entry.pending.len() >= self.batch_size {
            self.send_waves(tag, entry)?;
        }
        Ok(())
    }

    /// Loads `tuples` into the chain's windows by ordinary processing
    /// (the chain has no probe-free fast path — storage *is* the wave
    /// cascade), then flushes so the windows are settled.
    ///
    /// # Errors
    ///
    /// See [`HandshakeJoin::process`].
    fn prefill(&self, tag: StreamTag, tuples: &[Tuple]) -> Result<(), JoinError> {
        for &t in tuples {
            self.process(tag, t)?;
        }
        self.flush()
    }

    /// Blocks until everything submitted before this call (including
    /// partial wave groups, which are injected first) has traversed the
    /// whole chain and every core has published the matches it found
    /// (at once, if nothing was submitted since the last completed flush).
    ///
    /// # Errors
    ///
    /// See [`HandshakeJoin::process`]. Once a core has died the barrier
    /// covers the survivors a lane can still reach: the token ends its
    /// travel at the core before the cut.
    fn flush(&self) -> Result<(), JoinError> {
        self.drain_pending()?;
        if !self.unsettled.get() {
            return Ok(());
        }
        let token = self.flush_seq.get() + 1;
        self.flush_seq.set(token);
        let mut entries = self.entries.borrow_mut();
        // A token pushed into a core's ring just before that core dies
        // is stranded there. A core reads dead only after its ring ends
        // are gone, so a token issued *after* seeing it dead cannot
        // strand at it: each newly seen death re-issues the token, and a
        // lane whose entry is gone has nobody left to wait for.
        let dead = || self.cells.iter().filter(|c| c.is_dead()).count();
        let mut seen_dead = dead();
        let mut waiting = [true; 2];
        let mut issue = |waiting: &mut [bool; 2]| -> Result<(), JoinError> {
            for (lane, wait) in waiting.iter_mut().enumerate() {
                if *wait {
                    let status = self.send_entry(&mut entries[lane], ChainMsg::Flush(token))?;
                    *wait = matches!(status, SendStatus::Sent);
                }
            }
            Ok(())
        };
        issue(&mut waiting)?;
        wait_until(|| {
            // Acquire pairs with the publishing core's Release: once the
            // token shows, every hand-off it queued behind is visible.
            for (lane, wait) in waiting.iter_mut().enumerate() {
                *wait = *wait && self.barrier[lane].load(Ordering::Acquire) < token;
            }
            if waiting == [false; 2] {
                return Ok(false);
            }
            let now_dead = dead();
            if now_dead > seen_dead {
                seen_dead = now_dead;
                issue(&mut waiting)?;
            }
            Ok(true)
        })?;
        self.unsettled.set(false);
        Ok(())
    }

    /// Flushes the chain, then removes and returns every match produced
    /// so far and not yet drained. Counting-only runs return an empty
    /// vector.
    ///
    /// # Errors
    ///
    /// See [`HandshakeJoin::flush`].
    fn drain_results(&self) -> Result<Vec<MatchPair>, JoinError> {
        self.flush()?;
        Ok(take_outboxes(&self.cells))
    }

    /// Stops the chain and returns the accumulated outcome. Pending
    /// partial wave groups are injected first, so no submitted tuple is
    /// lost even without an explicit [`HandshakeJoin::flush`].
    ///
    /// # Errors
    ///
    /// [`JoinError::WorkerPanicked`] if a core thread panicked (with its
    /// last published statistics snapshot). Cores lost to *scripted
    /// kills* exit cleanly and do not error: their damage is in
    /// [`JoinOutcome::fault`].
    fn shutdown(self) -> Result<JoinOutcome, JoinError> {
        // Best effort: with an entry core gone the buffered waves are
        // already accounted as orphaned by `send_waves`.
        let _ = self.drain_pending();
        // Closing the two entry links is the stop signal: each core
        // drains a closed inbox and closes its own onward link, so the
        // close travels down the lane behind the last wave. Nothing here
        // can wait on a wedged core.
        drop(self.entries);
        let rings = join_cores(self.workers, &self.cells)?;
        let mut report = self.report.into_inner();
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.killed.load(Ordering::Relaxed) {
                report.workers_lost.push(i);
            }
            report.orphaned_tuples += cell.orphaned.load(Ordering::Relaxed);
        }
        Ok(outcome(
            key::HANDSHAKE,
            &self.cells,
            self.collecting,
            self.batch_hist.into_inner(),
            rings.into_iter().flatten().collect(),
            report,
        ))
    }
}

/// One direction of the chain as a core sees it: the inbox it polls,
/// the link onward, and its own stream's segment of the window.
struct Lane {
    inbox: RingConsumer<ChainMsg>,
    /// `false` once the inbox has closed and drained.
    open: bool,
    /// The lane's last core: nothing is forwarded, and the tuples a wave
    /// still carries there have expired.
    at_exit: bool,
    /// `None` at the exit end, once severed (the neighbour died), and
    /// once this lane has closed.
    next: Option<RingProducer<ChainMsg>>,
    /// The one message `next` had no slot for; while it waits here the
    /// lane's inbox is left alone (see the module docs, "Links").
    held: Option<ChainMsg>,
    window: FlatWindow,
    /// Capacity of the chain beyond this core; while the downstream
    /// still has room the storage cascade forwards tuples unparked, so
    /// the chain fills from the exit end.
    downstream: usize,
    forwarded: usize,
}

/// One core of the chain: a lane per direction (indexed by [`side`]),
/// running statistics and the matches of the message in progress.
struct ChainCore {
    predicate: JoinPredicate,
    /// Materialize matches (`false` = counting-only).
    collect: bool,
    lanes: [Lane; 2],
    stats: WorkerStats,
    /// Moved into the cell's outbox at the end of every wave group, so
    /// empty between messages.
    out: Vec<MatchPair>,
    cell: Arc<WorkerCell>,
    barrier: Arc<[AtomicU64; 2]>,
    /// The lane `try_recv` asks first; alternates so neither starves.
    first: usize,
}

impl Core for ChainCore {
    /// The lane a message came in on, and the message.
    type Msg = (usize, ChainMsg);
    type Data = (StreamTag, Vec<Wave>);
    type Exit = Option<obs::trace::TraceRing>;
    const TRACK: &'static str = "hs.core";
    const WORK_SPAN: &'static str = "wave";
    const HAND_OFF_SPAN: Option<&'static str> = None;

    fn parts(&mut self) -> (&Arc<WorkerCell>, &WorkerStats, &mut Vec<MatchPair>) {
        (&self.cell, &self.stats, &mut self.out)
    }

    /// One pass over both lanes for the next message. A lane whose inbox
    /// has closed and drained drops its onward link, which closes the
    /// next core's inbox in turn. [`PopError::Disconnected`] once both
    /// lanes are closed.
    fn try_recv(&mut self) -> Result<Self::Msg, PopError> {
        for lane in [self.first, 1 - self.first] {
            if !self.lanes[lane].open || !self.offer_held(lane) {
                continue;
            }
            match self.lanes[lane].inbox.try_pop() {
                Ok(msg) => {
                    self.first = 1 - lane;
                    return Ok((lane, msg));
                }
                Err(PopError::Empty) => {}
                Err(PopError::Disconnected) => {
                    self.lanes[lane].open = false;
                    self.lanes[lane].next = None;
                }
            }
        }
        if self.lanes.iter().any(|l| l.open) {
            Err(PopError::Empty)
        } else {
            Err(PopError::Disconnected)
        }
    }

    /// The fuller of the core's two inboxes.
    fn queued(&self) -> usize {
        self.lanes.iter().map(|l| l.inbox.len()).max().unwrap_or(0)
    }

    fn open(
        &mut self,
        (lane, msg): Self::Msg,
        _: &mut Option<obs::trace::TraceRing>,
    ) -> Option<(Self::Data, usize)> {
        match msg {
            ChainMsg::Waves { tag, waves } => {
                let len = waves.len();
                return Some(((tag, waves), len));
            }
            // At the exit end there is no onward link, so the token's
            // travel ends (and it is published) right here.
            ChainMsg::Flush(token) => self.forward(lane, ChainMsg::Flush(token)),
        }
        None
    }

    fn work(&mut self, (tag, waves): Self::Data) {
        self.handle_waves(tag, waves);
    }

    /// Both lanes sever here, and everything parked in the core's
    /// segments is orphaned.
    fn on_kill(&mut self) {
        let parked: usize = self.lanes.iter().map(|l| l.window.len()).sum();
        self.cell
            .orphaned
            .fetch_add(parked as u64, Ordering::Relaxed);
    }

    fn exit(self, ring: Option<obs::trace::TraceRing>) -> Self::Exit {
        ring
    }
}

impl ChainCore {
    /// Probes and parks one wave group, then forwards it onward as one
    /// message.
    fn handle_waves(&mut self, tag: StreamTag, mut waves: Vec<Wave>) {
        let [r, s] = &mut self.lanes;
        let (own, opposite) = match tag {
            StreamTag::R => (r, &s.window),
            StreamTag::S => (s, &r.window),
        };
        for wave in &mut waves {
            self.stats.tuples_seen += 1;
            self.stats.comparisons += opposite.len() as u64;
            let out = self.collect.then_some(&mut self.out);
            self.stats.matches += opposite.probe(self.predicate, tag, wave.probe, out) as u64;
            // Storage cascade: pass the carried tuple on while the chain
            // beyond is still filling, else park it and carry on whatever
            // it displaced.
            if let Some(t) = wave.store {
                if own.forwarded < own.downstream {
                    own.forwarded += 1;
                } else {
                    self.stats.stored += 1;
                    wave.store = own.window.insert(t);
                }
            }
        }
        if !own.at_exit {
            self.forward(side(tag), ChainMsg::Waves { tag, waves });
        }
    }

    /// Offers `msg` to the lane's onward link: taken, held back when the
    /// link is full, or at the end of its travel when there is no link
    /// (the exit end) or the link turns out to be cut.
    fn forward(&mut self, lane: usize, msg: ChainMsg) {
        let l = &mut self.lanes[lane];
        debug_assert!(
            l.held.is_none(),
            "a lane takes no message while one is held"
        );
        let Some(next) = l.next.as_mut() else {
            return self.end_of_travel(lane, msg);
        };
        match next.try_push(msg) {
            Ok(()) => {}
            Err(PushError::Full(msg)) => l.held = Some(msg),
            Err(PushError::Disconnected(msg)) => {
                // The downstream core is gone: drop our end so its queue
                // can be freed, and stop forwarding into the cut.
                l.next = None;
                self.end_of_travel(lane, msg);
            }
        }
    }

    /// Offers the lane's held message again; `true` once nothing is held
    /// and the lane's inbox may be served.
    fn offer_held(&mut self, lane: usize) -> bool {
        if let Some(msg) = self.lanes[lane].held.take() {
            self.forward(lane, msg);
        }
        self.lanes[lane].held.is_none()
    }

    /// A message that cannot go further: at a cut, every tuple a wave
    /// still carries is a window tuple the join has now lost; a flush
    /// token has covered every core its lane can reach.
    fn end_of_travel(&self, lane: usize, msg: ChainMsg) {
        match msg {
            ChainMsg::Waves { waves, .. } => {
                let stranded = waves.iter().filter(|w| w.store.is_some()).count() as u64;
                self.cell.orphaned.fetch_add(stranded, Ordering::Relaxed);
            }
            // Release pairs with the caller's Acquire poll in `flush`.
            ChainMsg::Flush(token) => {
                self.barrier[lane].fetch_max(token, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::reference_join;
    use crate::fault::FaultPlan;
    use std::collections::HashMap;
    use streamcore::workload::{KeyDist, WorkloadSpec};
    use streamcore::JoinPredicate;

    fn as_multiset(results: &[MatchPair]) -> HashMap<(u64, u64), u32> {
        let mut m = HashMap::new();
        for p in results {
            *m.entry((p.r.raw(), p.s.raw())).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn serialized_feeding_matches_reference_exactly() {
        // Flushing after every tuple serializes the waves: the chain then
        // implements strict semantics, like the hardware single-wave model.
        // Every predicate, collecting and counting-only: `LessThan` is the
        // one whose matches depend on which side probes.
        let inputs: Vec<_> = WorkloadSpec::new(120, KeyDist::Uniform { domain: 6 })
            .generate()
            .collect();
        for predicate in [
            JoinPredicate::Equi,
            JoinPredicate::Band { delta: 2 },
            JoinPredicate::LessThan,
            JoinPredicate::All,
        ] {
            let want = reference_join(&inputs, 32, predicate);
            for cores in [1usize, 2, 4] {
                for collect in [true, false] {
                    let mut config = HandshakeConfig::new(cores, 32).with_predicate(predicate);
                    if !collect {
                        config = config.counting_only();
                    }
                    let join = HandshakeJoin::spawn(config);
                    for &(tag, t) in &inputs {
                        join.process(tag, t).unwrap();
                        join.flush().unwrap();
                    }
                    let outcome = join.shutdown().unwrap();
                    let case = format!("{predicate:?}, {cores} cores, collect={collect}");
                    if collect {
                        assert_eq!(
                            as_multiset(&outcome.results),
                            as_multiset(&want),
                            "mismatch: {case}"
                        );
                    }
                    assert_eq!(outcome.result_count, want.len() as u64, "{case}");
                    assert!(!outcome.fault.degraded(), "healthy run must not degrade");
                }
            }
        }
    }

    #[test]
    fn serialized_feeding_is_exact_at_any_batch_size() {
        // `flush` drains the partial wave group, so per-tuple flushing
        // serializes the chain even when `batch_size` exceeds 1.
        let inputs: Vec<_> = WorkloadSpec::new(120, KeyDist::Uniform { domain: 6 })
            .generate()
            .collect();
        let want = as_multiset(&reference_join(&inputs, 32, JoinPredicate::Equi));
        for batch in [4usize, 64] {
            let join = HandshakeJoin::spawn(HandshakeConfig::new(4, 32).with_batch_size(batch));
            for &(tag, t) in &inputs {
                join.process(tag, t).unwrap();
                join.flush().unwrap();
            }
            let outcome = join.shutdown().unwrap();
            assert_eq!(
                as_multiset(&outcome.results),
                want,
                "mismatch at batch size {batch}"
            );
            // Serialized feeding means every wave group holds one tuple.
            assert_eq!(outcome.batch_sizes.max(), Some(1));
            assert_eq!(outcome.batch_sizes.total(), 120);
        }
    }

    #[test]
    fn serialized_feeding_with_expiry_matches_reference() {
        let inputs: Vec<_> = WorkloadSpec::new(300, KeyDist::Uniform { domain: 4 })
            .generate()
            .collect();
        let join = HandshakeJoin::spawn(HandshakeConfig::new(4, 16));
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
            join.flush().unwrap();
        }
        let outcome = join.shutdown().unwrap();
        let want = reference_join(&inputs, 16, JoinPredicate::Equi);
        assert_eq!(as_multiset(&outcome.results), as_multiset(&want));
    }

    #[test]
    fn pipelined_feeding_agrees_statistically() {
        // Without per-tuple flushes, waves pipeline; the in-flight depth
        // (channel capacity) bounds how far results drift from strict
        // semantics at window boundaries.
        let inputs: Vec<_> = WorkloadSpec::new(4_000, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let join = HandshakeJoin::spawn(HandshakeConfig::new(4, 256).with_channel_capacity(8));
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        let want = reference_join(&inputs, 256, JoinPredicate::Equi).len() as f64;
        let got = outcome.result_count as f64;
        let err = (got - want).abs() / want;
        assert!(
            err < 0.10,
            "pipelined result count {got} deviates {:.1}% from {want}",
            err * 100.0
        );
    }

    #[test]
    fn pipelined_batched_feeding_agrees_statistically() {
        // Batched wave groups coarsen lane interleaving but stay within
        // the same overlap-semantics drift envelope.
        let inputs: Vec<_> = WorkloadSpec::new(4_000, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let join = HandshakeJoin::spawn(
            HandshakeConfig::new(4, 256)
                .with_channel_capacity(8)
                .with_batch_size(16),
        );
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        let want = reference_join(&inputs, 256, JoinPredicate::Equi).len() as f64;
        let got = outcome.result_count as f64;
        let err = (got - want).abs() / want;
        assert!(
            err < 0.15,
            "batched pipelined count {got} deviates {:.1}% from {want}",
            err * 100.0
        );
        assert!(outcome.batch_sizes.max() <= Some(16));
    }

    #[test]
    fn tighter_ordering_precision_reduces_drift() {
        let inputs: Vec<_> = WorkloadSpec::new(4_000, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let want = reference_join(&inputs, 128, JoinPredicate::Equi).len() as f64;
        let mut errs = Vec::new();
        for capacity in [64usize, 2] {
            let join =
                HandshakeJoin::spawn(HandshakeConfig::new(4, 128).with_channel_capacity(capacity));
            for &(tag, t) in &inputs {
                join.process(tag, t).unwrap();
            }
            join.flush().unwrap();
            let got = join.shutdown().unwrap().result_count as f64;
            errs.push((got - want).abs() / want);
        }
        assert!(
            errs[1] <= errs[0] + 0.01,
            "capacity 2 drift {:.3} should not exceed capacity 64 drift {:.3}",
            errs[1],
            errs[0]
        );
    }

    #[test]
    fn counting_only_skips_collection() {
        let inputs: Vec<_> = WorkloadSpec::new(200, KeyDist::Uniform { domain: 4 })
            .generate()
            .collect();
        let collect = HandshakeJoin::spawn(HandshakeConfig::new(2, 16));
        let count = HandshakeJoin::spawn(HandshakeConfig::new(2, 16).counting_only());
        for &(tag, t) in &inputs {
            collect.process(tag, t).unwrap();
            collect.flush().unwrap();
            count.process(tag, t).unwrap();
            count.flush().unwrap();
        }
        let collected = collect.shutdown().unwrap();
        let counted = count.shutdown().unwrap();
        assert_eq!(counted.result_count, collected.result_count);
        assert!(counted.results.is_empty());
        assert!(collected.result_count > 0);
    }

    #[test]
    fn shutdown_drains_partial_wave_groups() {
        // batch_size bigger than the whole stream: shutdown alone must
        // still inject and process every buffered tuple.
        let join = HandshakeJoin::spawn(HandshakeConfig::new(2, 8).with_batch_size(512));
        join.process(StreamTag::S, Tuple::new(7, 0)).unwrap();
        join.process(StreamTag::R, Tuple::new(7, 1)).unwrap();
        let outcome = join.shutdown().unwrap(); // no flush
                                                // Both lanes race during shutdown, but the S tuple was injected
                                                // first and each lane is a single 1-wave group; with both groups
                                                // in flight the match may legitimately be observed from either
                                                // side — what must never happen is losing the buffered tuples.
        assert_eq!(outcome.batch_sizes.total(), 2, "both lanes injected");
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_is_rejected() {
        let _ = HandshakeConfig::new(2, 8).with_batch_size(0);
    }

    #[test]
    #[should_panic(expected = "targets worker 7")]
    fn spawn_validates_fault_plan_targets() {
        let mut config = HandshakeConfig::new(2, 8);
        config.common.fault_plan = FaultPlan::parse("kill7@1").unwrap();
        let _ = HandshakeJoin::spawn(config);
    }

    #[test]
    fn killing_an_interior_core_degrades_without_error() {
        let inputs: Vec<_> = WorkloadSpec::new(3_000, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let plan = FaultPlan::parse("kill1@5").unwrap();
        let join = HandshakeJoin::spawn(HandshakeConfig::new(4, 64).with_fault_plan(plan));
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.fault.workers_lost, vec![1]);
        assert!(outcome.fault.degraded());
        assert!(
            outcome.fault.orphaned_tuples > 0,
            "severing the chain mid-stream must strand window tuples"
        );
        // The reachable part of the chain kept joining.
        let want = reference_join(&inputs, 64, JoinPredicate::Equi).len() as u64;
        assert!(outcome.result_count < want, "a severed chain loses matches");
    }

    #[test]
    fn full_links_in_both_directions_never_deadlock() {
        // One-slot links everywhere and both lanes loaded with no flush
        // until the end: neighbouring cores keep finding each other's
        // link full. Cores that *waited* on a full link would stop
        // draining their own inboxes and the chain would wedge; holding
        // the one message back keeps every core serving its other lane.
        let inputs: Vec<_> = WorkloadSpec::new(20_000, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let join = HandshakeJoin::spawn(HandshakeConfig::new(4, 256).with_channel_capacity(1));
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        let want = reference_join(&inputs, 256, JoinPredicate::Equi).len() as f64;
        let got = outcome.result_count as f64;
        let err = (got - want).abs() / want;
        assert!(
            err < 0.10,
            "pipelined result count {got} deviates {:.1}% from {want}",
            err * 100.0
        );
        assert!(!outcome.fault.degraded());
    }

    #[test]
    fn the_barrier_covers_the_survivors_of_a_cut() {
        // Two S tuples settle in core 0 (the S lane fills from its exit
        // end). Core 1 then dies on the third arrival, whose flush may
        // find its tokens stranded in the dying core's rings and must
        // still return.
        let plan = FaultPlan::parse("kill1@3").unwrap();
        let join = HandshakeJoin::spawn(HandshakeConfig::new(3, 12).with_fault_plan(plan));
        for (tag, key) in [(StreamTag::S, 7), (StreamTag::S, 7), (StreamTag::R, 99)] {
            join.process(tag, Tuple::new(key, 0)).unwrap();
            join.flush().unwrap();
        }
        // Past the cut a token ends its travel at the core before it, so
        // the barrier is still a barrier: core 0 has probed this arrival
        // and handed its matches off by the time the drain looks.
        join.process(StreamTag::R, Tuple::new(7, 1)).unwrap();
        assert_eq!(join.drain_results().unwrap().len(), 2);
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.fault.workers_lost, vec![1]);
        assert_eq!(outcome.result_count, 2);
    }

    #[test]
    fn an_idle_flush_issues_no_token() {
        // The per-arrival flush settles the chain; the poll-time flush
        // and drain that follow have nothing injected to wait for.
        let join = HandshakeJoin::spawn(HandshakeConfig::new(3, 12));
        join.flush().unwrap();
        assert_eq!(join.flush_seq.get(), 0, "nothing was ever injected");
        join.process(StreamTag::S, Tuple::new(4, 0)).unwrap();
        join.flush().unwrap();
        join.flush().unwrap();
        assert!(join.drain_results().unwrap().is_empty());
        assert_eq!(join.flush_seq.get(), 1);
        // An injection makes the next barrier a real one again.
        join.process(StreamTag::R, Tuple::new(4, 1)).unwrap();
        assert_eq!(join.drain_results().unwrap().len(), 1);
        assert_eq!(join.flush_seq.get(), 2);
        join.shutdown().unwrap();
    }

    #[test]
    fn a_dead_entry_core_leaves_nothing_to_wait_for() {
        // A one-core chain is the entry of both lanes: once it is gone
        // both tokens are refused at the entries and the barrier has
        // nobody to wait for.
        let plan = FaultPlan::parse("kill0@1").unwrap();
        let join = HandshakeJoin::spawn(HandshakeConfig::new(1, 8).with_fault_plan(plan));
        join.process(StreamTag::S, Tuple::new(7, 0)).unwrap();
        join.flush().unwrap();
        for i in 0..3 {
            join.process(StreamTag::R, Tuple::new(7, i)).unwrap();
            join.flush().unwrap();
        }
        assert!(join.drain_results().unwrap().is_empty());
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.fault.workers_lost, vec![0]);
        // The parked S tuple died with the core; the three R tuples
        // never got in.
        assert_eq!(outcome.fault.orphaned_tuples, 4);
        assert_eq!(outcome.result_count, 0);
    }

    #[test]
    fn a_flush_issued_during_a_stall_covers_the_stalled_group() {
        // Core 0 sleeps 40 ms before its second group — the R tuple that
        // matches the S tuple parked there. The token queues behind the
        // stalled group, so the drain waits the stall out.
        let plan = FaultPlan::parse("stall0@2x40").unwrap();
        let join = HandshakeJoin::spawn(HandshakeConfig::new(2, 8).with_fault_plan(plan));
        join.process(StreamTag::S, Tuple::new(7, 0)).unwrap();
        join.flush().unwrap();
        join.process(StreamTag::R, Tuple::new(7, 1)).unwrap();
        assert_eq!(join.drain_results().unwrap().len(), 1);
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.fault.injected_stalls, 1);
        assert!(outcome.results.is_empty(), "the drain took the match");
    }

    #[test]
    fn a_scripted_kill_drops_exactly_its_last_groups_matches() {
        // One core, flushed per arrival, is exact against the reference,
        // so the kill's damage is too: everything before the fatal group
        // was handed off, the fatal group's matches are the drop count.
        let inputs: Vec<_> = WorkloadSpec::new(60, KeyDist::Uniform { domain: 4 })
            .generate()
            .collect();
        let plan = FaultPlan::parse("kill0@40").unwrap();
        let join = HandshakeJoin::spawn(HandshakeConfig::new(1, 16).with_fault_plan(plan));
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
            join.flush().unwrap();
        }
        let outcome = join.shutdown().unwrap();
        let before = reference_join(&inputs[..39], 16, JoinPredicate::Equi).len() as u64;
        let with_fatal = reference_join(&inputs[..40], 16, JoinPredicate::Equi).len() as u64;
        assert!(with_fatal > before, "the fatal group must find matches");
        assert_eq!(outcome.result_count, before);
        assert_eq!(outcome.fault.results_dropped, with_fatal - before);
    }

    #[test]
    fn scripted_stalls_and_drops_are_reported() {
        let inputs: Vec<_> = WorkloadSpec::new(400, KeyDist::Uniform { domain: 8 })
            .generate()
            .collect();
        let plan = FaultPlan::parse("stall0@2x5,drop1@3").unwrap();
        let join = HandshakeJoin::spawn(HandshakeConfig::new(2, 16).with_fault_plan(plan));
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.fault.injected_stalls, 1);
        assert_eq!(outcome.fault.injected_drops, 1);
        assert!(outcome.fault.degraded());
        assert!(outcome.fault.workers_lost.is_empty());
    }

    #[test]
    fn scripted_panic_surfaces_as_worker_panicked() {
        let inputs: Vec<_> = WorkloadSpec::new(200, KeyDist::Uniform { domain: 4 })
            .generate()
            .collect();
        let plan = FaultPlan::parse("panic1@3").unwrap();
        let join = HandshakeJoin::spawn(HandshakeConfig::new(2, 16).with_fault_plan(plan));
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        let _ = join.flush();
        match join.shutdown() {
            Err(JoinError::WorkerPanicked {
                worker,
                stats_so_far,
            }) => {
                assert_eq!(worker, 1);
                assert!(stats_so_far.tuples_seen > 0, "snapshot published pre-panic");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn fallible_surface_round_trips_a_match() {
        let join = HandshakeJoin::spawn(HandshakeConfig::new(2, 8));
        join.process(StreamTag::S, Tuple::new(3, 0)).unwrap();
        join.flush().unwrap();
        join.process(StreamTag::R, Tuple::new(3, 1)).unwrap();
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.result_count, 1);
    }

    #[test]
    fn tracing_records_core_spans_without_changing_results() {
        let inputs: Vec<_> = WorkloadSpec::new(120, KeyDist::Uniform { domain: 6 })
            .generate()
            .collect();
        let want = as_multiset(&reference_join(&inputs, 32, JoinPredicate::Equi));

        obs::trace::enable(1);
        let join = HandshakeJoin::spawn(HandshakeConfig::new(4, 32));
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
            join.flush().unwrap();
        }
        let outcome = join.shutdown().unwrap();
        obs::trace::disable();

        // Serialized feeding stays exact with tracing on.
        assert_eq!(as_multiset(&outcome.results), want);

        assert_eq!(outcome.trace.len(), 4);
        let mut tracks: Vec<_> = outcome
            .trace
            .iter()
            .map(|r| r.track().to_string())
            .collect();
        tracks.sort();
        assert_eq!(tracks, ["hs.core.0", "hs.core.1", "hs.core.2", "hs.core.3"]);
        for ring in &outcome.trace {
            assert_eq!(ring.domain(), obs::trace::TimeDomain::Wall);
            let events = ring.events();
            assert!(!events.is_empty(), "core ring {} is empty", ring.track());
            assert!(
                events.iter().any(|e| e.name == "wave"),
                "no wave spans on {}",
                ring.track()
            );
            for e in &events {
                assert!(
                    ["recv", "wave"].contains(&e.name),
                    "unexpected span name {}",
                    e.name
                );
            }
        }
    }

    #[test]
    fn no_matches_before_windows_overlap() {
        let join = HandshakeJoin::spawn(HandshakeConfig::new(2, 8));
        join.process(StreamTag::R, Tuple::new(1, 0)).unwrap();
        join.process(StreamTag::R, Tuple::new(2, 1)).unwrap();
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.result_count, 0);
    }
}
