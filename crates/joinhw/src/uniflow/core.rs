//! The uni-flow join core: Fetcher, Storage Core, and Processing Core
//! (Fig. 11), with the controller FSMs of Figs. 12 and 13.

use hwsim::{Component, Fifo};
use streamcore::{Frame, HashIndexWindow, JoinAlgorithm, MatchPair, StreamTag, Tuple};

use crate::design::{FETCHER_DEPTH, RESULT_FIFO_DEPTH};
use crate::subwindow::SubWindow;
use crate::{JoinOperator, JoinPredicate};

/// Sub-window storage specialized for the core's join algorithm.
#[derive(Debug, Clone)]
enum WindowStore {
    Nested(SubWindow),
    Hash(HashIndexWindow),
}

impl WindowStore {
    fn new(algorithm: JoinAlgorithm, capacity: usize) -> Self {
        match algorithm {
            JoinAlgorithm::NestedLoop => WindowStore::Nested(SubWindow::new(capacity)),
            JoinAlgorithm::Hash => WindowStore::Hash(HashIndexWindow::new(capacity)),
        }
    }

    fn begin_cycle(&mut self) {
        if let WindowStore::Nested(w) = self {
            w.begin_cycle();
        }
    }

    fn store(&mut self, tuple: Tuple) {
        match self {
            WindowStore::Nested(w) => w.store(tuple),
            WindowStore::Hash(w) => w.insert(tuple),
        };
    }

    fn load(&mut self, tuple: Tuple) {
        match self {
            WindowStore::Nested(w) => w.load(tuple),
            WindowStore::Hash(w) => {
                w.insert(tuple);
            }
        }
    }

    /// Opens a probe with `key` and returns how many cycles it scans: the
    /// full occupancy for nested-loop, the matching tuples for hash. A
    /// hash probe copies its hits into `hits` once, oldest first, so each
    /// scan cycle reads one by index; the copy stays exact because the
    /// core fetches no frame mid-scan, so the scanned window cannot change.
    fn begin_probe(&self, key: u32, hits: &mut Vec<Tuple>) -> usize {
        match self {
            WindowStore::Nested(w) => w.occupancy(),
            WindowStore::Hash(w) => {
                hits.clear();
                hits.extend(w.probe(key));
                hits.len()
            }
        }
    }

    /// The `idx`-th tuple of the open probe's scan. Read every scan
    /// cycle, so `#[inline]`: whether `JoinCore::eval` inlines it must not
    /// depend on which codegen unit holds `SubWindow::read`.
    #[inline]
    fn probe_read(&mut self, hits: &[Tuple], idx: usize) -> Tuple {
        match self {
            WindowStore::Nested(w) => w.read(idx),
            WindowStore::Hash(_) => hits[idx],
        }
    }

    fn snapshot(&self) -> Vec<Tuple> {
        match self {
            WindowStore::Nested(w) => w.snapshot(),
            WindowStore::Hash(w) => w.iter().collect(),
        }
    }
}

/// Storage-core controller states (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum StorageState {
    /// Waiting for a frame.
    Idle,
    /// First operator word latched; waiting for the second.
    OperatorStore1,
    /// Writing the new tuple into its sub-window this cycle.
    Store(StreamTag),
}

/// Processing-core controller states (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ProcessingState {
    /// No operator programmed yet.
    Idle,
    /// Scanning the opposite sub-window, one read per cycle.
    JoinProcessing,
    /// Scan finished (or skipped on an empty window); ready for the next
    /// tuple.
    JoinWait,
}

/// Cumulative per-core counters (feed verification and the power model's
/// activity estimates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Tuples fully processed (probe completed).
    pub tuples_processed: u64,
    /// Window comparisons performed.
    pub comparisons: u64,
    /// Matches emitted.
    pub matches: u64,
    /// Tuples stored into a sub-window.
    pub stored: u64,
}

/// One uni-flow join core.
///
/// The core consumes [`Frame`]s from its fetcher. Operator frames program
/// the join (two words, *Operator Store 1/2*); tuple frames are handled by
/// the storage core (round-robin turn test, then a one-cycle store) and
/// the processing core (a one-read-per-cycle nested-loop probe of the
/// opposite sub-window) in parallel. A new frame is fetched only when both
/// controllers are ready, so frames are processed strictly in arrival
/// order — which is what makes the round-robin storage discipline
/// deterministic without any central coordination.
#[derive(Debug, Clone)]
pub struct JoinCore {
    position: u32,
    operator: Option<JoinOperator>,
    pending_op_word: Option<u64>,
    fetcher: Fifo<Frame>,
    results: Fifo<MatchPair>,
    window_r: WindowStore,
    window_s: WindowStore,
    r_count: u64,
    s_count: u64,
    storage: StorageState,
    processing: ProcessingState,
    store_tuple: Option<Tuple>,
    probe: Option<(StreamTag, Tuple)>,
    /// The in-flight hash probe's hits, oldest first (reused buffer).
    hits: Vec<Tuple>,
    scan_idx: usize,
    scan_len: usize,
    stats: CoreStats,
    /// Completed cycles (ticks in `begin_cycle`; engine-invariant).
    cycle: u64,
    /// Cycle the in-flight probe was accepted (span start).
    probe_start: u64,
    /// Matches emitted by the in-flight probe.
    probe_matches: u64,
    /// Provenance watch: the sampled tuple whose probe completion is
    /// being awaited. Pure observation — never steers the FSMs.
    watch: Option<(StreamTag, Tuple)>,
    /// Latched `(completion_cycle, matches)` of the watched probe,
    /// consumed by `take_watch_done`.
    watch_done: Option<(u64, u64)>,
    /// Cycle-stamped probe spans (`core.<position>`), recorded only when
    /// tracing was enabled at construction time.
    ring: Option<obs::trace::TraceRing>,
}

impl JoinCore {
    /// Creates a nested-loop core at `position` (0-based, used for the
    /// round-robin storage turn) with sub-windows of `sub_window` tuples
    /// per stream.
    pub fn new(position: u32, sub_window: usize) -> Self {
        Self::with_algorithm(position, sub_window, JoinAlgorithm::NestedLoop)
    }

    /// Creates a core running the given join algorithm.
    pub fn with_algorithm(position: u32, sub_window: usize, algorithm: JoinAlgorithm) -> Self {
        Self {
            position,
            operator: None,
            pending_op_word: None,
            fetcher: Fifo::new(FETCHER_DEPTH),
            results: Fifo::new(RESULT_FIFO_DEPTH),
            window_r: WindowStore::new(algorithm, sub_window),
            window_s: WindowStore::new(algorithm, sub_window),
            r_count: 0,
            s_count: 0,
            storage: StorageState::Idle,
            processing: ProcessingState::Idle,
            store_tuple: None,
            probe: None,
            hits: Vec::new(),
            scan_idx: 0,
            scan_len: 0,
            stats: CoreStats::default(),
            cycle: 0,
            probe_start: 0,
            probe_matches: 0,
            watch: None,
            watch_done: None,
            ring: obs::trace::enabled().then(|| {
                obs::trace::TraceRing::new(
                    format!("core.{position}"),
                    obs::trace::TimeDomain::Cycles,
                )
            }),
        }
    }

    /// The core's position among its peers.
    pub fn position(&self) -> u32 {
        self.position
    }

    /// The currently programmed operator, if any.
    pub fn operator(&self) -> Option<JoinOperator> {
        self.operator
    }

    /// The fetcher FIFO (filled by the distribution network).
    pub fn fetcher(&mut self) -> &mut Fifo<Frame> {
        &mut self.fetcher
    }

    /// `true` if the fetcher can accept a frame this cycle.
    pub fn fetcher_ready(&self) -> bool {
        self.fetcher.can_push()
    }

    /// The result FIFO (drained by the gathering network).
    pub fn results(&mut self) -> &mut Fifo<MatchPair> {
        &mut self.results
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// `true` when the core has no queued or in-flight work.
    pub fn quiescent(&self) -> bool {
        self.fetcher.is_empty()
            && self.fetcher.committed_len() == 0
            && self.results.is_empty()
            && self.results.committed_len() == 0
            && self.storage == StorageState::Idle
            && matches!(
                self.processing,
                ProcessingState::Idle | ProcessingState::JoinWait
            )
    }

    /// Loads a tuple directly into this core's sub-window for `tag`
    /// (pre-fill path; see `UniFlowJoin::prefill`).
    pub fn prefill(&mut self, tag: StreamTag, tuple: Tuple) {
        match tag {
            StreamTag::R => self.window_r.load(tuple),
            StreamTag::S => self.window_s.load(tuple),
        }
    }

    /// The core's join algorithm is fixed at construction ("synthesis");
    /// equi-joins are the only operators a hash core can execute.
    pub fn supports(&self, predicate: JoinPredicate) -> bool {
        match self.window_r {
            WindowStore::Nested(_) => true,
            WindowStore::Hash(_) => predicate == JoinPredicate::Equi,
        }
    }

    /// Sets the round-robin counters after a pre-fill.
    pub fn set_counts(&mut self, r_count: u64, s_count: u64) {
        self.r_count = r_count;
        self.s_count = s_count;
    }

    /// Snapshot of a sub-window's contents, oldest first (verification).
    pub fn window_snapshot(&mut self, tag: StreamTag) -> Vec<Tuple> {
        match tag {
            StreamTag::R => self.window_r.snapshot(),
            StreamTag::S => self.window_s.snapshot(),
        }
    }

    /// Starts watching `tuple`: `take_watch_done` latches the cycle its
    /// probe completes and the match count it produced. One watch at a
    /// time (a new watch replaces the old).
    pub fn set_watch(&mut self, tag: StreamTag, tuple: Tuple) {
        self.watch = Some((tag, tuple));
        self.watch_done = None;
    }

    /// Consumes the `(completion_cycle, matches)` record of the watched
    /// probe, if it finished since the last call.
    pub fn take_watch_done(&mut self) -> Option<(u64, u64)> {
        self.watch_done.take()
    }

    /// Detaches the core's probe-span ring (empty unless tracing was
    /// enabled when the core was built).
    pub fn take_ring(&mut self) -> Option<obs::trace::TraceRing> {
        self.ring.take()
    }

    /// Records a completed probe into the span ring and resolves the
    /// provenance watch if it targeted this tuple.
    fn probe_finished(&mut self, tag: StreamTag, tuple: Tuple, matches: u64) {
        if let Some(ring) = self.ring.as_mut() {
            ring.record_arg(
                "probe",
                self.probe_start,
                self.cycle - self.probe_start,
                matches,
            );
        }
        if self.watch == Some((tag, tuple)) {
            self.watch = None;
            self.watch_done = Some((self.cycle, matches));
        }
    }

    /// Opens the clock cycle (FIFO snapshots, BRAM port accounting).
    pub fn begin_cycle(&mut self) {
        self.cycle += 1;
        self.fetcher.begin_cycle();
        self.results.begin_cycle();
        self.window_r.begin_cycle();
        self.window_s.begin_cycle();
    }

    /// One cycle of combinational work; stage updates.
    pub fn eval(&mut self) {
        self.step_storage();
        self.step_processing();
        self.maybe_fetch();
    }

    /// Latches staged FIFO updates.
    pub fn commit(&mut self) {
        self.fetcher.commit();
        self.results.commit();
    }

    fn ready_for_frame(&self) -> bool {
        let storage_ready =
            self.storage == StorageState::Idle || self.storage == StorageState::OperatorStore1;
        let processing_ready = matches!(
            self.processing,
            ProcessingState::Idle | ProcessingState::JoinWait
        );
        storage_ready && processing_ready
    }

    fn maybe_fetch(&mut self) {
        if !self.ready_for_frame() || !self.fetcher.can_pop() {
            return;
        }
        let frame = self.fetcher.pop().expect("frame available");
        match frame {
            Frame::Operator(word) => {
                // Operator Store 1 / Operator Store 2 (Fig. 12).
                match self.pending_op_word.take() {
                    None => {
                        self.pending_op_word = Some(word);
                        self.storage = StorageState::OperatorStore1;
                    }
                    Some(first) => {
                        match JoinOperator::decode([first, word]) {
                            Ok(op) => {
                                self.operator = Some(op);
                                // Re-programming restarts the round-robin
                                // storage discipline.
                                self.r_count = 0;
                                self.s_count = 0;
                                self.processing = ProcessingState::JoinWait;
                            }
                            Err(_) => {
                                // Malformed instructions are dropped; the
                                // core keeps its previous operator.
                            }
                        }
                        self.storage = StorageState::Idle;
                    }
                }
            }
            Frame::TupleR(t) => self.accept_tuple(StreamTag::R, t),
            Frame::TupleS(t) => self.accept_tuple(StreamTag::S, t),
        }
    }

    fn accept_tuple(&mut self, tag: StreamTag, tuple: Tuple) {
        let Some(op) = self.operator else {
            // Tuples arriving before any operator are dropped, matching the
            // FSMs: both controllers leave IDLE only via operator states.
            return;
        };
        // Storage core: my turn iff count % num_cores == position
        // ("each join core independently counts the number of tuples
        // received and, based on its position, determines its turn").
        let count = match tag {
            StreamTag::R => &mut self.r_count,
            StreamTag::S => &mut self.s_count,
        };
        let my_turn = (*count % op.num_cores as u64) == self.position as u64;
        *count += 1;
        if my_turn {
            self.storage = StorageState::Store(tag);
            self.store_tuple = Some(tuple);
        }
        // Processing core: probe the opposite stream's sub-window (the
        // whole occupancy for nested-loop cores; the matching bucket for
        // hash cores).
        let opposite_occ = match tag {
            StreamTag::R => self.window_s.begin_probe(tuple.key(), &mut self.hits),
            StreamTag::S => self.window_r.begin_probe(tuple.key(), &mut self.hits),
        };
        if opposite_occ == 0 {
            // Processing Skip: nothing to compare against.
            self.processing = ProcessingState::JoinWait;
            self.stats.tuples_processed += 1;
            self.probe_start = self.cycle;
            self.probe_finished(tag, tuple, 0);
        } else {
            self.probe = Some((tag, tuple));
            self.scan_idx = 0;
            self.scan_len = opposite_occ;
            self.processing = ProcessingState::JoinProcessing;
            self.probe_start = self.cycle;
            self.probe_matches = 0;
        }
    }

    fn step_storage(&mut self) {
        if let StorageState::Store(tag) = self.storage {
            let tuple = self.store_tuple.take().expect("tuple staged for store");
            match tag {
                StreamTag::R => self.window_r.store(tuple),
                StreamTag::S => self.window_s.store(tuple),
            };
            self.stats.stored += 1;
            self.storage = StorageState::Idle;
        }
    }

    fn step_processing(&mut self) {
        if self.processing != ProcessingState::JoinProcessing {
            return;
        }
        let (tag, probe) = self.probe.expect("probe in flight");
        // Emit Result shares the cycle with the comparison; a full result
        // FIFO stalls the scan (back-pressure).
        if !self.results.can_push() {
            return;
        }
        let stored = match tag {
            StreamTag::R => self.window_s.probe_read(&self.hits, self.scan_idx),
            StreamTag::S => self.window_r.probe_read(&self.hits, self.scan_idx),
        };
        self.stats.comparisons += 1;
        let predicate = self
            .operator
            .map(|op| op.predicate)
            .unwrap_or(JoinPredicate::Equi);
        let (r, s) = match tag {
            StreamTag::R => (probe, stored),
            StreamTag::S => (stored, probe),
        };
        if predicate.matches(r, s) {
            self.results
                .push(MatchPair { r, s })
                .expect("checked can_push");
            self.stats.matches += 1;
            self.probe_matches += 1;
        }
        self.scan_idx += 1;
        if self.scan_idx == self.scan_len {
            self.processing = ProcessingState::JoinWait;
            self.probe = None;
            self.stats.tuples_processed += 1;
            self.probe_finished(tag, probe, self.probe_matches);
        }
    }
}

/// A core is itself a two-phase component — and, because it owns all of
/// its state (sub-windows, FIFOs, controller FSMs) and communicates with
/// the networks only through FIFOs touched during the coordinator's eval
/// phases, it is exactly the independent sub-tree the parallel engine's
/// `Shard` blanket impl requires.
impl Component for JoinCore {
    fn begin_cycle(&mut self) {
        JoinCore::begin_cycle(self);
    }
    fn eval(&mut self) {
        JoinCore::eval(self);
    }
    fn commit(&mut self) {
        JoinCore::commit(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn programmed_core(position: u32, num_cores: u32, sub_window: usize) -> JoinCore {
        let mut core = JoinCore::new(position, sub_window);
        let words = JoinOperator::equi(num_cores).encode();
        core.fetcher().load(Frame::Operator(words[0]));
        core.fetcher().load(Frame::Operator(words[1]));
        // Two cycles to program.
        for _ in 0..2 {
            cycle(&mut core);
        }
        assert_eq!(core.operator(), Some(JoinOperator::equi(num_cores)));
        core
    }

    fn cycle(core: &mut JoinCore) {
        core.begin_cycle();
        core.eval();
        core.commit();
    }

    fn run(core: &mut JoinCore, cycles: usize) {
        for _ in 0..cycles {
            cycle(core);
        }
    }

    fn drain(core: &mut JoinCore) -> Vec<MatchPair> {
        core.begin_cycle();
        let mut out = Vec::new();
        while let Some(m) = core.results().pop() {
            out.push(m);
        }
        core.commit();
        out
    }

    #[test]
    fn programming_takes_two_cycles_and_resets_counts() {
        let core = programmed_core(0, 4, 8);
        assert_eq!(core.processing, ProcessingState::JoinWait);
    }

    #[test]
    fn tuples_before_programming_are_dropped() {
        let mut core = JoinCore::new(0, 4);
        core.fetcher().load(Frame::TupleR(Tuple::new(1, 0)));
        run(&mut core, 4);
        assert_eq!(core.stats().stored, 0);
        assert_eq!(core.stats().tuples_processed, 0);
        assert!(core.quiescent());
    }

    #[test]
    fn round_robin_storage_follows_position() {
        // Two cores, position 0 and 1: even R tuples stored at 0, odd at 1.
        let mut c0 = programmed_core(0, 2, 8);
        let mut c1 = programmed_core(1, 2, 8);
        for i in 0..4u32 {
            for c in [&mut c0, &mut c1] {
                c.fetcher().load(Frame::TupleR(Tuple::new(i, i)));
            }
        }
        for c in [&mut c0, &mut c1] {
            run(c, 12);
        }
        assert_eq!(
            c0.window_snapshot(StreamTag::R),
            vec![Tuple::new(0, 0), Tuple::new(2, 2)]
        );
        assert_eq!(
            c1.window_snapshot(StreamTag::R),
            vec![Tuple::new(1, 1), Tuple::new(3, 3)]
        );
    }

    #[test]
    fn probe_scans_opposite_window_and_emits_matches() {
        let mut core = programmed_core(0, 1, 8);
        // Store three S tuples (keys 1, 2, 1).
        for (i, k) in [1u32, 2, 1].iter().enumerate() {
            core.fetcher().load(Frame::TupleS(Tuple::new(*k, i as u32)));
        }
        run(&mut core, 12);
        // Probe with an R tuple of key 1: expect 2 matches.
        core.fetcher().load(Frame::TupleR(Tuple::new(1, 99)));
        run(&mut core, 8);
        let results = drain(&mut core);
        assert_eq!(results.len(), 2);
        for m in &results {
            assert_eq!(m.r, Tuple::new(1, 99));
            assert_eq!(m.r.key(), m.s.key());
        }
        assert_eq!(core.stats().matches, 2);
    }

    #[test]
    fn empty_opposite_window_is_processing_skip() {
        let mut core = programmed_core(0, 1, 8);
        core.fetcher().load(Frame::TupleR(Tuple::new(1, 0)));
        run(&mut core, 3);
        assert_eq!(core.stats().tuples_processed, 1);
        assert_eq!(core.stats().comparisons, 0);
    }

    #[test]
    fn scan_takes_one_cycle_per_window_tuple() {
        let mut core = programmed_core(0, 1, 16);
        for i in 0..8u32 {
            core.prefill(StreamTag::S, Tuple::new(i + 100, i));
        }
        core.fetcher().load(Frame::TupleR(Tuple::new(1, 0)));
        // Fetch cycle + 8 scan cycles.
        let mut cycles = 0;
        while core.stats().tuples_processed == 0 {
            cycle(&mut core);
            cycles += 1;
            assert!(cycles < 20, "scan did not terminate");
        }
        assert_eq!(core.stats().comparisons, 8);
        assert_eq!(cycles, 1 + 8);
    }

    #[test]
    fn full_result_fifo_stalls_the_scan() {
        let mut core = programmed_core(0, 1, 16);
        for _ in 0..8 {
            core.prefill(StreamTag::S, Tuple::new(7, 0));
        }
        core.fetcher().load(Frame::TupleR(Tuple::new(7, 1)));
        // Run without draining: the 4-deep result FIFO fills, the scan
        // stalls rather than dropping matches.
        run(&mut core, 30);
        assert_eq!(core.stats().tuples_processed, 0, "scan should be stalled");
        let got = drain(&mut core).len();
        assert_eq!(got, RESULT_FIFO_DEPTH);
        // Draining lets the scan finish.
        run(&mut core, 10);
        let rest = drain(&mut core);
        assert_eq!(got + rest.len(), 8);
        assert_eq!(core.stats().tuples_processed, 1);
    }

    #[test]
    fn reprogramming_at_runtime_switches_predicate() {
        let mut core = programmed_core(0, 1, 8);
        core.prefill(StreamTag::S, Tuple::new(5, 0));
        core.fetcher().load(Frame::TupleR(Tuple::new(3, 0)));
        run(&mut core, 6);
        assert_eq!(drain(&mut core).len(), 0); // equi: 3 != 5
                                               // Switch to a band join with delta 2 — no re-synthesis, two frames.
        let words = JoinOperator {
            num_cores: 1,
            predicate: JoinPredicate::Band { delta: 2 },
        }
        .encode();
        core.fetcher().load(Frame::Operator(words[0]));
        core.fetcher().load(Frame::Operator(words[1]));
        run(&mut core, 4);
        core.fetcher().load(Frame::TupleR(Tuple::new(3, 1)));
        run(&mut core, 6);
        assert_eq!(drain(&mut core).len(), 1); // |3-5| <= 2
    }

    #[test]
    fn quiescent_reflects_outstanding_work() {
        let mut core = programmed_core(0, 1, 8);
        assert!(core.quiescent());
        core.prefill(StreamTag::S, Tuple::new(1, 0));
        core.fetcher().load(Frame::TupleR(Tuple::new(1, 0)));
        cycle(&mut core);
        assert!(!core.quiescent());
        run(&mut core, 6);
        assert!(!core.quiescent(), "undrained result keeps core busy");
        drain(&mut core);
        assert!(core.quiescent());
    }
}
