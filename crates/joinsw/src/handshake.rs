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
//! # Fault tolerance
//!
//! The chain has no partition map to re-route over — a core *is* a link
//! in both lanes — so degradation here means **severing**: a core lost to
//! a scripted [`FaultPlan`](crate::fault::FaultPlan) kill (or a panic, or
//! organic death) cuts both lanes at its position, and its neighbours
//! detect the cut on their next forward, stop forwarding into it, and
//! count every wave-carried window tuple that can no longer be parked as
//! orphaned. Entry sends are supervised (bounded-backoff `send_timeout`
//! watching the entry core's heartbeat); tuples offered to a severed
//! entry are counted as orphaned rather than panicking the caller, and
//! [`HandshakeJoin::flush`] degrades to a survivors-only barrier. The
//! damage tally arrives in [`HandshakeOutcome::fault`]; with an empty
//! plan and no organic failures it is all-zero and the data path is the
//! pre-fault-model one.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use accel_error::JoinError;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use streamcore::{MatchPair, SlidingWindow, StreamTag, Tuple};

use crate::config::{JoinConfig, JoinParams};
use crate::fault::FaultReport;
use crate::supervise::{
    span_start, supervised_send, take_outboxes, AliveGuard, SendStatus, WorkerCell,
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
    /// (`batch_size = 1`) waves.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` or `window_size` is zero.
    pub fn new(num_cores: usize, window_size: usize) -> Self {
        let mut common = JoinConfig::new(num_cores, window_size);
        common.channel_capacity = 256;
        common.batch_size = 1;
        Self { common }
    }

    /// Replaces the join predicate.
    #[must_use]
    pub fn with_predicate(mut self, predicate: streamcore::JoinPredicate) -> Self {
        self.common = self.common.with_predicate(predicate);
        self
    }

    /// Sets the entry channel capacity. This is the chain's *ordering
    /// precision* knob: it bounds how many wave groups can be in flight,
    /// and therefore how far result semantics can drift from strict
    /// arrival-order semantics under pipelining.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        self.common = self.common.with_channel_capacity(capacity);
        self
    }

    /// Sets the wave-group batch size (see
    /// [`JoinConfig::batch_size`] and the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.common = self.common.with_batch_size(batch_size);
        self
    }

    /// Disables result retention and collection (counting only).
    #[must_use]
    pub fn counting_only(mut self) -> Self {
        self.common = self.common.counting_only();
        self
    }

    /// Installs a fault plan (validated against the core count). Batch
    /// numbers count the wave-group messages each core processes, both
    /// lanes combined.
    ///
    /// # Panics
    ///
    /// Panics if the plan targets a core `>= num_cores`.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.common = self.common.with_fault_plan(plan);
        self
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
    /// Flush token: forwarded to the end of the chain, then acknowledged.
    /// It queues behind its lane's waves at every core, and a core
    /// publishes a wave group's matches before it takes the next
    /// message, so the acknowledgement covers them.
    Flush(Sender<()>),
    Stop,
}

/// A running software handshake join.
///
/// # Example
///
/// ```
/// use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
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
    /// Entry of the rightward (R) lane: core 0.
    entry_r: Sender<ChainMsg>,
    /// Entry of the leftward (S) lane: core N-1.
    entry_s: Sender<ChainMsg>,
    workers: Vec<JoinHandle<(u64, Option<obs::trace::TraceRing>)>>,
    cells: Vec<Arc<WorkerCell>>,
    /// `false` when counting-only: the outboxes stay empty and the
    /// result count comes from the cores' match counters.
    collecting: bool,
    batch_size: usize,
    /// Caller-side wave buffers, one per lane; drained on flush/shutdown.
    pending_r: RefCell<Vec<Wave>>,
    pending_s: RefCell<Vec<Wave>>,
    batch_hist: RefCell<obs::Histogram>,
    /// Caller-side damage tally: tuples that could not even enter the
    /// chain because an entry core was gone.
    report: RefCell<FaultReport>,
    /// Live-telemetry handles; `None` unless the plane was armed at
    /// spawn ([`obs::live::set_active`]).
    live: Option<LiveChain>,
}

/// Handles into the process-global live plane (`obs::live`) for the
/// handshake chain: wave-group throughput and the depth of the group
/// most recently injected at an entry core. Updated once per injected
/// group — relaxed atomic stores, nothing per tuple.
#[derive(Debug)]
struct LiveChain {
    /// `handshake.waves` — wave groups injected at the chain entries.
    waves: obs::live::SharedCounter,
    /// `handshake.wave_tuples` — tuples carried by those groups.
    wave_tuples: obs::live::SharedCounter,
    /// `handshake.wave_depth` — size (waves per message) of the most
    /// recently injected group; the sampler turns it into a trajectory.
    wave_depth: obs::live::SharedGauge,
}

impl LiveChain {
    fn new() -> Self {
        let reg = obs::live::global();
        Self {
            waves: reg.counter("handshake.waves"),
            wave_tuples: reg.counter("handshake.wave_tuples"),
            wave_depth: reg.gauge("handshake.wave_depth"),
        }
    }
}

/// Shutdown outcome of a [`HandshakeJoin`].
#[derive(Debug, Clone, Default)]
pub struct HandshakeOutcome {
    /// Collected results no mid-run [`HandshakeJoin::drain_results`]
    /// call harvested (all of them when nothing drained; empty when
    /// counting only).
    pub results: Vec<MatchPair>,
    /// Total results ever observed, including drained ones.
    pub result_count: u64,
    /// Sizes of the wave groups injected at the chain entries (tuples per
    /// message): `total()` is the number of entry messages.
    pub batch_sizes: obs::Histogram,
    /// Wall-clock span rings, one per core (`hs.core.<position>`): receive
    /// waits and per-group wave processing. Empty unless tracing was
    /// enabled when the chain was spawned (see `obs::trace`).
    pub trace: Vec<obs::trace::TraceRing>,
    /// What went wrong, if anything: severed cores, window tuples lost to
    /// the cuts, scripted stalls and drops. All-zero (and
    /// [`FaultReport::degraded`] is `false`) for a healthy run.
    pub fault: FaultReport,
}

impl HandshakeJoin {
    /// Spawns the chain: one thread per core, collecting or not.
    ///
    /// # Panics
    ///
    /// Panics if `config.channel_capacity` or `config.batch_size` is
    /// zero, or the fault plan targets a core out of range (the builder
    /// methods reject these, but the fields are public).
    pub fn spawn(config: HandshakeConfig) -> Self {
        config.common.validate();
        let n = config.num_cores;

        // Each core has one inbox per direction lane. Only the two entry
        // channels are bounded (caller back-pressure); interior links are
        // unbounded so opposite-direction sends can never form a blocking
        // cycle between neighbouring cores. The pipeline is work-balanced
        // (every wave does the same work at every core), so interior
        // queues stay shallow in practice.
        let mut r_lane: Vec<(Sender<ChainMsg>, Receiver<ChainMsg>)> = Vec::new();
        let mut s_lane: Vec<(Sender<ChainMsg>, Receiver<ChainMsg>)> = Vec::new();
        for i in 0..n {
            r_lane.push(if i == 0 {
                bounded(config.channel_capacity)
            } else {
                crossbeam::channel::unbounded()
            });
            s_lane.push(if i == n - 1 {
                bounded(config.channel_capacity)
            } else {
                crossbeam::channel::unbounded()
            });
        }
        let entry_r = r_lane[0].0.clone();
        let entry_s = s_lane[n - 1].0.clone();

        let mut cells = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for position in 0..n {
            let cfg = config.clone();
            let cell = Arc::new(WorkerCell::default());
            cells.push(Arc::clone(&cell));
            let r_rx = r_lane[position].1.clone();
            let s_rx = s_lane[position].1.clone();
            let r_next = (position + 1 < n).then(|| r_lane[position + 1].0.clone());
            let s_next = position.checked_sub(1).map(|p| s_lane[p].0.clone());
            workers.push(std::thread::spawn(move || {
                core_loop(position, &cfg, &r_rx, &s_rx, r_next, s_next, &cell)
            }));
        }
        Self {
            entry_r,
            entry_s,
            workers,
            cells,
            collecting: config.collect_results,
            batch_size: config.batch_size,
            pending_r: RefCell::new(Vec::with_capacity(config.batch_size)),
            pending_s: RefCell::new(Vec::with_capacity(config.batch_size)),
            batch_hist: RefCell::new(obs::Histogram::new()),
            report: RefCell::new(FaultReport::default()),
            live: obs::live::active().then(LiveChain::new),
        }
    }

    /// Injects one tuple at the chain end of its stream. The tuple joins
    /// its lane's pending wave group; every
    /// [`JoinConfig::batch_size`] tuples the group enters the chain
    /// as a single message.
    ///
    /// # Errors
    ///
    /// [`JoinError::Saturated`] when the entry core's channel stays full
    /// with a frozen heartbeat past the supervision deadline. A *severed*
    /// entry (its core killed or panicked) is not an error: the tuples
    /// are counted as orphaned in [`HandshakeOutcome::fault`] instead.
    pub fn process(&self, tag: StreamTag, tuple: Tuple) -> Result<(), JoinError> {
        let pending = match tag {
            StreamTag::R => &self.pending_r,
            StreamTag::S => &self.pending_s,
        };
        let mut pending = pending.borrow_mut();
        pending.push(Wave {
            probe: tuple,
            store: Some(tuple),
        });
        if pending.len() >= self.batch_size {
            let waves = std::mem::take(&mut *pending);
            drop(pending);
            self.send_waves(tag, waves)?;
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
    pub fn prefill(&self, tag: StreamTag, tuples: &[Tuple]) -> Result<(), JoinError> {
        for &t in tuples {
            self.process(tag, t)?;
        }
        self.flush()
    }

    fn entry_for(&self, tag: StreamTag) -> (&Sender<ChainMsg>, usize) {
        match tag {
            StreamTag::R => (&self.entry_r, 0),
            StreamTag::S => (&self.entry_s, self.cells.len() - 1),
        }
    }

    fn send_waves(&self, tag: StreamTag, waves: Vec<Wave>) -> Result<(), JoinError> {
        if waves.is_empty() {
            return Ok(());
        }
        self.batch_hist
            .borrow_mut()
            .record_value(waves.len() as u64);
        if let Some(lv) = self.live.as_ref() {
            lv.waves.incr();
            lv.wave_tuples.add(waves.len() as u64);
            lv.wave_depth.set(waves.len() as u64);
        }
        let (entry, core) = self.entry_for(tag);
        let count = waves.len() as u64;
        match supervised_send(entry, &self.cells[core], core, ChainMsg::Waves { tag, waves })? {
            SendStatus::Sent => {}
            SendStatus::Lost => {
                // The entry core is gone: these tuples never enter the
                // join at all.
                self.report.borrow_mut().orphaned_tuples += count;
            }
        }
        Ok(())
    }

    fn drain_pending(&self) -> Result<(), JoinError> {
        let r = std::mem::take(&mut *self.pending_r.borrow_mut());
        self.send_waves(StreamTag::R, r)?;
        let s = std::mem::take(&mut *self.pending_s.borrow_mut());
        self.send_waves(StreamTag::S, s)
    }

    /// Blocks until everything submitted before this call (including
    /// partial wave groups, which are injected first) has traversed the
    /// whole chain and every core has published the matches it found.
    ///
    /// # Errors
    ///
    /// See [`HandshakeJoin::process`]. Once a core has died the barrier
    /// degrades to best-effort: it covers the reachable part of the
    /// chain and gives up waiting on acknowledgements that can no longer
    /// arrive.
    pub fn flush(&self) -> Result<(), JoinError> {
        self.drain_pending()?;
        let (ack_tx, ack_rx) = bounded::<()>(2);
        let mut sent = 0usize;
        for tag in [StreamTag::R, StreamTag::S] {
            let (entry, core) = self.entry_for(tag);
            match supervised_send(entry, &self.cells[core], core, ChainMsg::Flush(ack_tx.clone()))? {
                SendStatus::Sent => sent += 1,
                SendStatus::Lost => {}
            }
        }
        drop(ack_tx);
        let mut acks = 0usize;
        while acks < sent {
            match ack_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(()) => acks += 1,
                Err(RecvTimeoutError::Disconnected) => break,
                // A dead core can strand a token (and its ack) in a
                // severed link forever; stop waiting once any core is
                // down — the barrier already covered the survivors that
                // still forward.
                Err(RecvTimeoutError::Timeout) => {
                    if self.cells.iter().any(|c| c.is_dead()) {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Flushes the chain, then removes and returns every match produced
    /// so far and not yet drained — see
    /// [`StreamJoin::drain_results`](crate::streamjoin::StreamJoin::drain_results).
    /// Counting-only runs return an empty vector.
    ///
    /// # Errors
    ///
    /// See [`HandshakeJoin::flush`].
    pub fn drain_results(&self) -> Result<Vec<MatchPair>, JoinError> {
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
    /// [`HandshakeOutcome::fault`].
    pub fn shutdown(self) -> Result<HandshakeOutcome, JoinError> {
        // Best effort: with an entry core gone the buffered waves are
        // already accounted as orphaned by `send_waves`.
        let _ = self.drain_pending();
        let _ = self.entry_r.send(ChainMsg::Stop);
        let _ = self.entry_s.send(ChainMsg::Stop);
        drop(self.entry_r);
        drop(self.entry_s);
        let mut counted = 0u64;
        let mut trace = Vec::new();
        let mut panicked: Option<usize> = None;
        for (i, w) in self.workers.into_iter().enumerate() {
            match w.join() {
                Ok((matches, ring)) => {
                    counted += matches;
                    trace.extend(ring);
                }
                Err(_) => {
                    if panicked.is_none() {
                        panicked = Some(i);
                    }
                    counted += self.cells[i].matches.load(Ordering::Relaxed);
                }
            }
        }
        let mut report = self.report.into_inner();
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.killed.load(Ordering::Relaxed) {
                report.workers_lost.push(i);
            }
            report.orphaned_tuples += cell.orphaned.load(Ordering::Relaxed);
            report.injected_stalls += cell.stalls.load(Ordering::Relaxed);
            report.injected_drops += cell.drops.load(Ordering::Relaxed);
            report.results_dropped += cell.results_dropped.load(Ordering::Relaxed);
        }
        if let Some(worker) = panicked {
            return Err(JoinError::WorkerPanicked {
                worker,
                stats_so_far: self.cells[worker].snapshot(),
            });
        }
        // `results` holds only what no mid-run drain harvested; the
        // published totals are every match ever handed over, so the
        // count survives draining.
        let result_count = if self.collecting {
            self.cells
                .iter()
                .map(|c| c.results_published.load(Ordering::Relaxed))
                .sum()
        } else {
            counted
        };
        Ok(HandshakeOutcome {
            results: take_outboxes(&self.cells),
            result_count,
            batch_sizes: self.batch_hist.into_inner(),
            trace,
            fault: report,
        })
    }
}

impl crate::streamjoin::StreamJoin for HandshakeJoin {
    type Config = HandshakeConfig;
    type Outcome = HandshakeOutcome;

    fn spawn(config: HandshakeConfig) -> Self {
        HandshakeJoin::spawn(config)
    }
    fn process(&self, tag: StreamTag, tuple: Tuple) -> Result<(), JoinError> {
        HandshakeJoin::process(self, tag, tuple)
    }
    fn prefill(&self, tag: StreamTag, tuples: &[Tuple]) -> Result<(), JoinError> {
        HandshakeJoin::prefill(self, tag, tuples)
    }
    fn flush(&self) -> Result<(), JoinError> {
        HandshakeJoin::flush(self)
    }
    fn drain_results(&self) -> Result<Vec<MatchPair>, JoinError> {
        HandshakeJoin::drain_results(self)
    }
    fn shutdown(self) -> Result<HandshakeOutcome, JoinError> {
        HandshakeJoin::shutdown(self)
    }
}

impl crate::streamjoin::JoinSummary for HandshakeOutcome {
    fn result_count(&self) -> u64 {
        self.result_count
    }
    fn results(&self) -> &[MatchPair] {
        &self.results
    }
    fn batch_sizes(&self) -> &obs::Histogram {
        &self.batch_sizes
    }
    fn trace(&self) -> &[obs::trace::TraceRing] {
        &self.trace
    }
    fn fault(&self) -> &FaultReport {
        &self.fault
    }
}

/// Forwards `msg` downstream, severing the link on failure. Hands the
/// message back when the link is (or just became) severed, so the
/// caller can account for what it carried.
fn forward(
    next: &mut Option<Sender<ChainMsg>>,
    msg: ChainMsg,
) -> Result<(), ChainMsg> {
    let Some(tx) = next else { return Err(msg) };
    match tx.send(msg) {
        Ok(()) => Ok(()),
        Err(e) => {
            // The downstream core is gone: drop our sender so its queue
            // can be freed, and stop forwarding into the cut.
            *next = None;
            Err(e.0)
        }
    }
}

fn core_loop(
    position: usize,
    config: &HandshakeConfig,
    r_rx: &Receiver<ChainMsg>,
    s_rx: &Receiver<ChainMsg>,
    mut r_next: Option<Sender<ChainMsg>>,
    mut s_next: Option<Sender<ChainMsg>>,
    cell: &Arc<WorkerCell>,
) -> (u64, Option<obs::trace::TraceRing>) {
    let _guard = AliveGuard(Arc::clone(cell));
    let plan = &config.fault_plan;
    let sub = config.sub_window();
    let n = config.num_cores;
    let mut window_r: SlidingWindow<Tuple> = SlidingWindow::new(sub);
    let mut window_s: SlidingWindow<Tuple> = SlidingWindow::new(sub);
    // Capacity of the chain beyond this core, per lane; while the
    // downstream still has room the storage cascade forwards tuples
    // unparked, so the chain fills from the exit end.
    let r_downstream = (n - 1 - position) * sub;
    let s_downstream = position * sub;
    let mut r_forwarded = 0usize;
    let mut s_forwarded = 0usize;
    let mut r_open = true;
    let mut s_open = true;
    let mut stats = accel_error::WorkerStats::default();
    // Matches of the wave group being processed; moved into the cell's
    // outbox at the group's end, so empty between messages.
    let mut out: Vec<MatchPair> = Vec::new();
    let mut group_no: u64 = 0;
    let mut ring = obs::trace::enabled().then(|| {
        obs::trace::TraceRing::new(
            format!("hs.core.{position}"),
            obs::trace::TimeDomain::Wall,
        )
    });
    let mut idle_since = span_start(&ring);

    let publish = |cell: &WorkerCell, stats: &accel_error::WorkerStats| {
        cell.tuples_seen.store(stats.tuples_seen, Ordering::Relaxed);
        cell.stored.store(stats.stored, Ordering::Relaxed);
        cell.comparisons.store(stats.comparisons, Ordering::Relaxed);
        cell.matches.store(stats.matches, Ordering::Relaxed);
        cell.heartbeat.fetch_add(1, Ordering::Relaxed);
    };

    while r_open || s_open {
        // Alternate lanes fairly; block on select when both lanes open.
        let (msg, from_r) = if r_open && s_open {
            crossbeam::channel::select! {
                recv(r_rx) -> m => (m.ok(), true),
                recv(s_rx) -> m => (m.ok(), false),
            }
        } else if r_open {
            (r_rx.recv().ok(), true)
        } else {
            (s_rx.recv().ok(), false)
        };
        let Some(msg) = msg else {
            if from_r {
                r_open = false;
            } else {
                s_open = false;
            }
            continue;
        };
        if let Some(r) = ring.as_mut() {
            let t = obs::trace::now_ns();
            r.record("recv", idle_since, t.saturating_sub(idle_since));
        }
        match msg {
            ChainMsg::Waves { tag, waves } => {
                group_no += 1;
                let stall = plan.stall_ms(position, group_no);
                if stall > 0 {
                    cell.stalls.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(stall));
                }
                if plan.drops(position, group_no) {
                    // The group is lost in transit: never probed, never
                    // parked, never forwarded — downstream windows
                    // silently diverge. Deliberate corruption.
                    cell.drops.fetch_add(1, Ordering::Relaxed);
                    publish(cell, &stats);
                    idle_since = span_start(&ring);
                    continue;
                }
                // Process the group's waves in order, collecting the
                // forwarded group for one downstream send.
                let t0 = span_start(&ring);
                let group = waves.len() as u64;
                let mut onward = Vec::with_capacity(waves.len());
                for wave in waves {
                    let Wave { probe, store } = wave;
                    stats.tuples_seen += 1;
                    // Probe this core's opposite segment.
                    let opposite = match tag {
                        StreamTag::R => &window_s,
                        StreamTag::S => &window_r,
                    };
                    for &stored in opposite.iter() {
                        stats.comparisons += 1;
                        let (r, s) = match tag {
                            StreamTag::R => (probe, stored),
                            StreamTag::S => (stored, probe),
                        };
                        if config.predicate.matches(r, s) {
                            stats.matches += 1;
                            if config.collect_results {
                                out.push(MatchPair { r, s });
                            }
                        }
                    }
                    // Storage cascade.
                    let (own, downstream, forwarded) = match tag {
                        StreamTag::R => (&mut window_r, r_downstream, &mut r_forwarded),
                        StreamTag::S => (&mut window_s, s_downstream, &mut s_forwarded),
                    };
                    let store = match store {
                        Some(t) if *forwarded < downstream => {
                            // Chain still filling beyond us: pass it on.
                            *forwarded += 1;
                            Some(t)
                        }
                        Some(t) => {
                            stats.stored += 1;
                            own.insert(t)
                        }
                        None => None,
                    };
                    onward.push(Wave { probe, store });
                }
                // Fast-forward the whole group onward as one message.
                // At the exit end, any carried tuples have expired; at a
                // severed link, every carried tuple is a window tuple
                // the join has now lost.
                let next = match tag {
                    StreamTag::R => &mut r_next,
                    StreamTag::S => &mut s_next,
                };
                let at_exit = match tag {
                    StreamTag::R => position + 1 == n,
                    StreamTag::S => position == 0,
                };
                if !at_exit {
                    if let Err(ChainMsg::Waves { waves: lost, .. }) =
                        forward(next, ChainMsg::Waves { tag, waves: onward })
                    {
                        let stranded =
                            lost.iter().filter(|w| w.store.is_some()).count() as u64;
                        cell.orphaned.fetch_add(stranded, Ordering::Relaxed);
                    }
                }
                if let Some(r) = ring.as_mut() {
                    let t1 = obs::trace::now_ns();
                    r.record_arg("wave", t0, t1.saturating_sub(t0), group);
                }
                if plan.panics(position, group_no) {
                    publish(cell, &stats);
                    panic!(
                        "fault injection: core {position} scripted panic at group {group_no}"
                    );
                }
                if plan.kills(position, group_no) {
                    // Cooperative abrupt exit: both lanes sever here.
                    // Everything parked in our segments is orphaned,
                    // and this group's unpublished matches die with us.
                    cell.orphaned.fetch_add(
                        (window_r.len() + window_s.len()) as u64,
                        Ordering::Relaxed,
                    );
                    cell.results_dropped
                        .fetch_add(out.len() as u64, Ordering::Relaxed);
                    cell.killed.store(true, Ordering::Relaxed);
                    publish(cell, &stats);
                    return (stats.matches, ring);
                }
                cell.publish_results(&mut out);
            }
            ChainMsg::Flush(ack) => {
                let next = if from_r { &mut r_next } else { &mut s_next };
                // At the exit end — or a severed link — acknowledge
                // directly: the barrier covers the reachable chain.
                if let Err(ChainMsg::Flush(ack)) = forward(next, ChainMsg::Flush(ack)) {
                    let _ = ack.send(());
                }
            }
            ChainMsg::Stop => {
                let next = if from_r { &mut r_next } else { &mut s_next };
                let _ = forward(next, ChainMsg::Stop);
                if from_r {
                    r_open = false;
                } else {
                    s_open = false;
                }
            }
        }
        publish(cell, &stats);
        idle_since = span_start(&ring);
    }
    debug_assert!(out.is_empty(), "matches are published at every message boundary");
    publish(cell, &stats);
    (stats.matches, ring)
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
        let inputs: Vec<_> = WorkloadSpec::new(120, KeyDist::Uniform { domain: 6 })
            .generate()
            .collect();
        for cores in [1usize, 2, 4] {
            let join = HandshakeJoin::spawn(HandshakeConfig::new(cores, 32));
            for &(tag, t) in &inputs {
                join.process(tag, t).unwrap();
                join.flush().unwrap();
            }
            let outcome = join.shutdown().unwrap();
            let want = reference_join(&inputs, 32, JoinPredicate::Equi);
            assert_eq!(
                as_multiset(&outcome.results),
                as_multiset(&want),
                "mismatch with {cores} cores"
            );
            assert!(!outcome.fault.degraded(), "healthy run must not degrade");
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
            let join =
                HandshakeJoin::spawn(HandshakeConfig::new(4, 32).with_batch_size(batch));
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
        let join = HandshakeJoin::spawn(
            HandshakeConfig::new(4, 256).with_channel_capacity(8),
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
            let join = HandshakeJoin::spawn(
                HandshakeConfig::new(4, 128).with_channel_capacity(capacity),
            );
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
        let join = HandshakeJoin::spawn(
            HandshakeConfig::new(4, 64).with_fault_plan(plan),
        );
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
    fn scripted_stalls_and_drops_are_reported() {
        let inputs: Vec<_> = WorkloadSpec::new(400, KeyDist::Uniform { domain: 8 })
            .generate()
            .collect();
        let plan = FaultPlan::parse("stall0@2x5,drop1@3").unwrap();
        let join = HandshakeJoin::spawn(
            HandshakeConfig::new(2, 16).with_fault_plan(plan),
        );
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
        let join = HandshakeJoin::spawn(
            HandshakeConfig::new(2, 16).with_fault_plan(plan),
        );
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        let _ = join.flush();
        match join.shutdown() {
            Err(JoinError::WorkerPanicked { worker, stats_so_far }) => {
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
    #[cfg(feature = "obs")]
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
        let mut tracks: Vec<_> =
            outcome.trace.iter().map(|r| r.track().to_string()).collect();
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
