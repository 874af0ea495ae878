//! The bi-flow (handshake join) parallel stream join in hardware.
//!
//! Join cores form a linear chain (Fig. 8a): R tuples enter at the left
//! end and flow right, S tuples enter at the right end and flow left. Each
//! core hosts one sub-window per stream (Fig. 10); an arriving tuple is
//! probed against the core's opposite-stream sub-window, parked in its own
//! sub-window, and the displaced oldest tuple continues to the next core —
//! tuples "shake hands" with every sub-window exactly once as the streams
//! pass through each other.
//!
//! # Modeled control discipline (why bi-flow is slow)
//!
//! The paper stresses that bi-flow needs "locks … to avoid race conditions
//! caused by in-flight tuples" and a central coordination module, and that
//! "the simpler architecture in uni-flow brings superior performance"
//! (nearly an order of magnitude at 16 cores, Fig. 14b) even though "in
//! theory, both models are similar in their parallelization concept".
//!
//! We model the conservative discipline that guarantees exactly-once
//! semantics without any in-flight races: the central coordinator admits
//! **one tuple wave at a time** into the chain. A wave is the cascade of
//! (handshake → probe → park → displace) steps the tuple triggers from its
//! entry core to the far end. Because waves never overlap, every probe
//! observes exactly the windows as of the tuple's admission — the design
//! implements strict arrival-order join semantics, which the tests verify
//! against a reference join. The price is that the probe work of the N
//! cores is serialized along the chain, so the per-tuple service time is
//! `Σ occupancies + 3·N ≈ W + 3N` cycles instead of uni-flow's `W/N` —
//! reproducing the paper's throughput gap and its growth with the core
//! count.

use std::fmt;

use hwsim::{Component, Fifo, Sharded};
use streamcore::{MatchPair, StreamTag, Tuple};

use crate::design::RESULT_FIFO_DEPTH;
use crate::harness::StreamJoin;
use crate::subwindow::SubWindow;
use crate::{DesignParams, FlowModel, JoinOperator};

/// Cycles per neighbour handshake (request + grant/data).
pub const HANDSHAKE_CYCLES: u8 = 2;

/// Which handshake-join flavour the chain runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BiflowVariant {
    /// Low-latency handshake join (Roy et al., cited as \[36\]): "each
    /// tuple of each stream is replicated and forwarded to the next join
    /// core before the join computation is carried out" — every arrival
    /// probes the whole opposite window immediately, yielding strict
    /// semantics. The paper's measured configuration; the default.
    #[default]
    LowLatency,
    /// Original handshake join: a tuple only probes the segments it
    /// physically visits (on arrival and on each later displacement), so
    /// matches surface with delay as the streams push tuples toward each
    /// other — and a finite stream leaves some matches unreported. The
    /// `biflow_variants` ablation quantifies this deferral, which is
    /// precisely the motivation for the low-latency variant.
    Original,
}

/// One join core of the bi-flow chain: two window buffers and a result
/// port (the buffer managers and coordinator of Fig. 10 are modeled by the
/// chain-level wave discipline).
#[derive(Debug, Clone)]
struct BiCore {
    window_r: SubWindow,
    window_s: SubWindow,
    results: Fifo<MatchPair>,
}

impl BiCore {
    fn new(sub_window: usize) -> Self {
        Self {
            window_r: SubWindow::new(sub_window),
            window_s: SubWindow::new(sub_window),
            results: Fifo::new(RESULT_FIFO_DEPTH),
        }
    }

    fn window(&self, tag: StreamTag) -> &SubWindow {
        match tag {
            StreamTag::R => &self.window_r,
            StreamTag::S => &self.window_s,
        }
    }

    fn window_mut(&mut self, tag: StreamTag) -> &mut SubWindow {
        match tag {
            StreamTag::R => &mut self.window_r,
            StreamTag::S => &mut self.window_s,
        }
    }
}

/// Phase of the in-flight tuple wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WavePhase {
    /// Neighbour handshake into the current core.
    Handshake(u8),
    /// Nested-loop probe of the opposite sub-window, one read per cycle.
    Probe { idx: usize, len: usize },
    /// Parking the tuple into its own sub-window (one cycle).
    Park,
}

#[derive(Debug, Clone, Copy)]
struct Wave {
    tag: StreamTag,
    /// The newly arrived tuple, replicated to every core (low-latency
    /// handshake join fast-forwarding) and probed against each opposite
    /// segment.
    probe: Tuple,
    /// The tuple the storage cascade is currently carrying: the new tuple
    /// until it parks, then whatever each segment displaces.
    store: Option<Tuple>,
    core: usize,
    phase: WavePhase,
}

/// The complete bi-flow parallel stream join design.
///
/// # Example
///
/// ```
/// use joinhw::biflow::BiFlowJoin;
/// use joinhw::harness::run_stream;
/// use joinhw::{DesignParams, FlowModel, JoinOperator};
/// use streamcore::{StreamTag, Tuple};
///
/// let params = DesignParams::new(FlowModel::BiFlow, 2, 16);
/// let mut join = BiFlowJoin::new(&params);
/// join.program(JoinOperator::equi(2));
/// let inputs = [(StreamTag::S, Tuple::new(3, 0)), (StreamTag::R, Tuple::new(3, 0))];
/// let (results, _cycles) = run_stream(&mut join, &inputs, 10_000)?;
/// assert_eq!(results.len(), 1);
/// # Ok::<(), joinhw::harness::Stall>(())
/// ```
#[derive(Debug, Clone)]
pub struct BiFlowJoin {
    params: DesignParams,
    variant: BiflowVariant,
    operator: Option<JoinOperator>,
    cores: Vec<BiCore>,
    wave: Option<Wave>,
    /// Input registers: (arrival sequence number, tuple). The coordinator
    /// admits strictly in arrival order, which is what preserves strict
    /// join semantics across the two chain ends.
    pending_r: Option<(u64, Tuple)>,
    pending_s: Option<(u64, Tuple)>,
    arrival_seq: u64,
    collector_ptr: usize,
    collected: Vec<MatchPair>,
    /// Completed cycles (ticks in `begin_cycle`).
    cycle: u64,
    /// Cycle the in-flight wave entered its current core segment.
    seg_start: u64,
    /// Cycle-stamped wave-segment spans (`biflow.chain`, one span per
    /// core the wave visits); `None` unless tracing was enabled at
    /// build time.
    ring: Option<obs::trace::TraceRing>,
}

impl BiFlowJoin {
    /// Instantiates the chain described by `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.flow` is not [`FlowModel::BiFlow`].
    pub fn new(params: &DesignParams) -> Self {
        assert_eq!(
            params.flow,
            FlowModel::BiFlow,
            "BiFlowJoin requires bi-flow design parameters"
        );
        let n = params.num_cores as usize;
        let sub = params.sub_window();
        Self {
            params: *params,
            variant: BiflowVariant::LowLatency,
            operator: None,
            cores: (0..n).map(|_| BiCore::new(sub)).collect(),
            wave: None,
            pending_r: None,
            pending_s: None,
            arrival_seq: 0,
            collector_ptr: 0,
            collected: Vec::new(),
            cycle: 0,
            seg_start: 0,
            ring: obs::trace::enabled().then(|| {
                obs::trace::TraceRing::new("biflow.chain", obs::trace::TimeDomain::Cycles)
            }),
        }
    }

    /// Selects the handshake-join variant (default:
    /// [`BiflowVariant::LowLatency`]).
    pub fn with_variant(mut self, variant: BiflowVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Programs the join operator on every core of the chain.
    ///
    /// # Panics
    ///
    /// Panics if the operator's core count disagrees with the design's.
    pub fn program(&mut self, operator: JoinOperator) {
        assert_eq!(
            operator.num_cores, self.params.num_cores,
            "operator core count must match the design"
        );
        self.operator = Some(operator);
    }

    fn entry_core(&self, tag: StreamTag) -> usize {
        match tag {
            StreamTag::R => 0,
            StreamTag::S => self.cores.len() - 1,
        }
    }

    /// Next core along the flow direction, or `None` past the exit end.
    fn next_core(&self, tag: StreamTag, core: usize) -> Option<usize> {
        match tag {
            StreamTag::R => (core + 1 < self.cores.len()).then_some(core + 1),
            StreamTag::S => core.checked_sub(1),
        }
    }

    fn admit(&mut self) {
        if self.wave.is_some() {
            return;
        }
        // Oldest arrival first, regardless of which end it entered.
        let tag = match (self.pending_r, self.pending_s) {
            (None, None) => return,
            (Some(_), None) => StreamTag::R,
            (None, Some(_)) => StreamTag::S,
            (Some((seq_r, _)), Some((seq_s, _))) => {
                if seq_r < seq_s {
                    StreamTag::R
                } else {
                    StreamTag::S
                }
            }
        };
        let (_, tuple) = match tag {
            StreamTag::R => self.pending_r.take(),
            StreamTag::S => self.pending_s.take(),
        }
        .expect("pending tuple present");
        self.wave = Some(Wave {
            tag,
            probe: tuple,
            store: Some(tuple),
            core: self.entry_core(tag),
            phase: WavePhase::Handshake(HANDSHAKE_CYCLES),
        });
    }

    /// `true` if any core strictly beyond `core` in `tag`'s flow direction
    /// still has room in its own-stream segment. While filling, the
    /// storage cascade carries tuples past such cores so the chain fills
    /// from the exit end — exactly the layout steady-state displacement
    /// produces.
    fn deeper_has_room(&self, tag: StreamTag, core: usize) -> bool {
        let sub = self.params.sub_window();
        let deeper = match tag {
            StreamTag::R => &self.cores[core + 1..],
            StreamTag::S => &self.cores[..core],
        };
        deeper.iter().any(|c| c.window(tag).occupancy() < sub)
    }

    fn step_wave(&mut self) {
        let Some(mut wave) = self.wave else {
            return;
        };
        match wave.phase {
            WavePhase::Handshake(k) => {
                if k == HANDSHAKE_CYCLES {
                    // First cycle at this core: the segment span opens.
                    self.seg_start = self.cycle;
                }
                if k > 1 {
                    wave.phase = WavePhase::Handshake(k - 1);
                } else {
                    let occ = self.cores[wave.core]
                        .window_mut(wave.tag.other())
                        .occupancy();
                    wave.phase = if occ == 0 {
                        WavePhase::Park
                    } else {
                        WavePhase::Probe { idx: 0, len: occ }
                    };
                }
                self.wave = Some(wave);
            }
            WavePhase::Probe { idx, len } => {
                let predicate = self.operator.expect("programmed").predicate;
                let core = &mut self.cores[wave.core];
                if !core.results.can_push() {
                    // Back-pressure from the result port stalls the probe.
                    return;
                }
                let stored = core.window_mut(wave.tag.other()).read(idx);
                let (r, s) = match wave.tag {
                    StreamTag::R => (wave.probe, stored),
                    StreamTag::S => (stored, wave.probe),
                };
                if predicate.matches(r, s) {
                    core.results.push(MatchPair { r, s }).expect("checked");
                }
                wave.phase = if idx + 1 == len {
                    WavePhase::Park
                } else {
                    WavePhase::Probe { idx: idx + 1, len }
                };
                self.wave = Some(wave);
            }
            WavePhase::Park => {
                if let Some(ring) = self.ring.as_mut() {
                    // The park cycle closes this core's segment.
                    ring.record_arg(
                        "wave",
                        self.seg_start,
                        self.cycle - self.seg_start + 1,
                        wave.core as u64,
                    );
                }
                // Storage cascade: the carried tuple parks at the deepest
                // segment with room; in steady state (all full) it parks
                // here and displaces this segment's oldest, which the wave
                // carries onward — a one-slot shift along the chain.
                if let Some(t) = wave.store {
                    if !self.deeper_has_room(wave.tag, wave.core) {
                        wave.store = self.cores[wave.core].window_mut(wave.tag).store(t);
                    }
                }
                match (
                    self.variant,
                    wave.store,
                    self.next_core(wave.tag, wave.core),
                ) {
                    // Low-latency: the probe tuple is replicated to every
                    // core regardless of where storage settles.
                    (BiflowVariant::LowLatency, store, Some(next)) => {
                        self.wave = Some(Wave {
                            tag: wave.tag,
                            probe: wave.probe,
                            store,
                            core: next,
                            phase: WavePhase::Handshake(HANDSHAKE_CYCLES),
                        });
                    }
                    // Original: only the physically moving tuple advances,
                    // and it is also what probes at the next core.
                    (BiflowVariant::Original, Some(moving), Some(next)) => {
                        self.wave = Some(Wave {
                            tag: wave.tag,
                            probe: moving,
                            store: Some(moving),
                            core: next,
                            phase: WavePhase::Handshake(HANDSHAKE_CYCLES),
                        });
                    }
                    // Tuple parked with nothing displaced: the original
                    // wave stops here.
                    (BiflowVariant::Original, None, _) => {
                        self.wave = None;
                    }
                    // End of the chain: anything still carried by the
                    // storage cascade has been displaced out of the
                    // window — it expires.
                    (_, _, None) => {
                        self.wave = None;
                    }
                }
            }
        }
    }
}

impl StreamJoin for BiFlowJoin {
    /// Offers a tuple at the chain end for its stream (R left, S right).
    /// Returns `false` when that input register is occupied.
    fn offer(&mut self, tag: StreamTag, tuple: Tuple) -> bool {
        if self.operator.is_none() {
            return false;
        }
        let seq = self.arrival_seq;
        let slot = match tag {
            StreamTag::R => &mut self.pending_r,
            StreamTag::S => &mut self.pending_s,
        };
        if slot.is_some() {
            return false;
        }
        *slot = Some((seq, tuple));
        self.arrival_seq += 1;
        true
    }

    /// `true` when no tuple is pending, in flight, or undrained.
    fn quiescent(&self) -> bool {
        self.wave.is_none()
            && self.pending_r.is_none()
            && self.pending_s.is_none()
            && self
                .cores
                .iter()
                .all(|c| c.results.is_empty() && c.results.committed_len() == 0)
    }

    /// Results collected and not yet drained.
    fn pending_results(&self) -> usize {
        self.collected.len()
    }

    /// Removes and returns all collected results.
    fn drain_results(&mut self) -> Vec<MatchPair> {
        std::mem::take(&mut self.collected)
    }

    /// Direct pre-fill of the chain's windows. Tuples are laid out in the
    /// order a streamed fill would produce: the oldest tuples furthest
    /// from the entry end (next to expire), the newest at the entry core.
    fn prefill(&mut self, r: &[Tuple], s: &[Tuple]) {
        let n = self.cores.len();
        let sub = self.params.sub_window();
        assert!(r.len() <= n * sub && s.len() <= n * sub, "prefill overflow");
        // The chain fills from the exit end: the oldest R tuples live at
        // core n-1 (R's exit), the oldest S tuples at core 0 (S's exit).
        // Each core takes one contiguous chunk, oldest first.
        for (core, chunk) in self.cores.iter_mut().rev().zip(r.chunks(sub)) {
            core.window_r.fill(chunk);
        }
        for (core, chunk) in self.cores.iter_mut().zip(s.chunks(sub)) {
            core.window_s.fill(chunk);
        }
    }

    /// Detaches the chain's wave-segment span ring. Empty unless tracing
    /// was enabled when the design was built.
    fn take_trace(&mut self) -> Vec<obs::trace::TraceRing> {
        self.ring.take().into_iter().collect()
    }
}

impl Component for BiFlowJoin {
    /// Opens the wave's current core alone: every BRAM access and every
    /// `can_push` happens there. A core the wave reaches (on admission or
    /// after parking) is opened by the next cycle's `begin_cycle`, before
    /// its first touch; the collector's `pop` reads committed items, which
    /// need no snapshot.
    fn begin_cycle(&mut self) {
        self.cycle += 1;
        if let Some(wave) = self.wave {
            let core = &mut self.cores[wave.core];
            core.results.begin_cycle();
            core.window_r.begin_cycle();
            core.window_s.begin_cycle();
        }
    }

    fn eval(&mut self) {
        // Result collection: round-robin, one core per cycle, sharing the
        // chain's single output bus.
        if let Some(m) = self.cores[self.collector_ptr].results.pop() {
            self.collected.push(m);
        }
        self.collector_ptr = (self.collector_ptr + 1) % self.cores.len();

        self.step_wave();
        self.admit();
    }

    /// Latches the wave's current core alone. The probe is the only
    /// writer of a result port, and the wave neither moves on nor ends in
    /// a cycle that pushes, so no other core has anything staged.
    fn commit(&mut self) {
        debug_assert!(
            self.cores
                .iter()
                .enumerate()
                .filter(|&(i, _)| self.wave.is_none_or(|w| w.core != i))
                .all(|(_, c)| c.results.committed_len() == c.results.len()),
            "a result port off the wave's core staged a push"
        );
        if let Some(wave) = self.wave {
            self.cores[wave.core].results.commit();
        }
    }
}

/// The bi-flow chain is inherently sequential: one tuple wave is in
/// flight and each of its steps depends on the previous one. A cycle
/// touches only the wave's core and the result port the shared collector
/// visits, so there are no independent sub-trees to shard.
/// The empty default decomposition makes a [`hwsim::ParSimulator`]
/// fall back to the sequential schedule — still
/// cycle-exact, just not parallel. This asymmetry mirrors the paper's
/// architectural point: uni-flow scales by adding independent cores,
/// bi-flow serializes on its coordinator.
impl Sharded for BiFlowJoin {}

impl fmt::Display for BiFlowJoin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bi-flow chain of {} cores", self.cores.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{feed, run_stream, settle};
    use crate::JoinPredicate;
    use hwsim::Simulator;
    use joinsw::baseline::reference_join;
    use std::collections::HashMap;

    fn as_multiset(results: &[MatchPair]) -> HashMap<(u64, u64), u32> {
        let mut m = HashMap::new();
        for p in results {
            *m.entry((p.r.raw(), p.s.raw())).or_insert(0) += 1;
        }
        m
    }

    fn workload(n: usize, domain: u32) -> Vec<(StreamTag, Tuple)> {
        streamcore::workload::WorkloadSpec::new(
            n,
            streamcore::workload::KeyDist::Uniform { domain },
        )
        .generate()
        .collect()
    }

    #[test]
    fn matches_reference_join_exactly() {
        // At 16 cores and window 64 each core holds 4 tuples per stream,
        // so every wave crosses cores it leaves idle most cycles. The
        // pinned cycle counts hold the chain to its exact schedule.
        let inputs = workload(120, 6);
        for (cores, window, variant, cycles) in [
            (1u32, 32usize, BiflowVariant::LowLatency, 3_177u64),
            (2, 32, BiflowVariant::LowLatency, 3_537),
            (4, 32, BiflowVariant::LowLatency, 4_257),
            (16, 64, BiflowVariant::LowLatency, 9_362),
            (16, 64, BiflowVariant::Original, 5_393),
        ] {
            let params = DesignParams::new(FlowModel::BiFlow, cores, window);
            let mut join = BiFlowJoin::new(&params).with_variant(variant);
            join.program(JoinOperator::equi(cores));
            let (got, took) = run_stream(&mut join, &inputs, 2_000_000).expect("chain settles");
            let want = reference_join(&inputs, window, JoinPredicate::Equi);
            assert!(!want.is_empty());
            if variant == BiflowVariant::LowLatency {
                assert_eq!(
                    as_multiset(&got),
                    as_multiset(&want),
                    "mismatch with {cores} cores"
                );
            } else {
                // The original variant defers matches (see
                // `original_variant_defers_and_never_invents_results`).
                assert_eq!(got.len(), 355, "original variant's result count drifted");
            }
            assert_eq!(
                took, cycles,
                "{cores} cores, {variant:?}: cycle count drifted"
            );
        }
    }

    #[test]
    fn matches_reference_with_expiry() {
        let inputs = workload(300, 4);
        let params = DesignParams::new(FlowModel::BiFlow, 4, 16);
        let mut join = BiFlowJoin::new(&params);
        join.program(JoinOperator::equi(4));
        let got = run_stream(&mut join, &inputs, 4_000_000)
            .expect("chain settles")
            .0;
        let want = reference_join(&inputs, 16, JoinPredicate::Equi);
        assert_eq!(as_multiset(&got), as_multiset(&want));
    }

    #[test]
    fn full_result_ports_stall_the_probe_without_losing_results() {
        // One key for every arrival: each comparison matches, so a probe
        // stages a result every cycle into a depth-4 port that the shared
        // collector drains once every 4 cycles, and the probe waits on
        // `can_push`. The pinned totals include those stalls.
        let inputs: Vec<(StreamTag, Tuple)> = (0..96u32)
            .map(|i| {
                let tag = if i % 2 == 0 {
                    StreamTag::R
                } else {
                    StreamTag::S
                };
                (tag, Tuple::new(1, i))
            })
            .collect();
        let params = DesignParams::new(FlowModel::BiFlow, 4, 32);
        for (variant, cycles) in [
            (BiflowVariant::LowLatency, 5_805),
            (BiflowVariant::Original, 4_649),
        ] {
            let mut join = BiFlowJoin::new(&params).with_variant(variant);
            join.program(JoinOperator::equi(4));
            let (got, took) = run_stream(&mut join, &inputs, 1_000_000).expect("chain settles");
            if variant == BiflowVariant::LowLatency {
                assert_eq!(
                    as_multiset(&got),
                    as_multiset(&reference_join(&inputs, 32, JoinPredicate::Equi))
                );
            }
            assert_eq!(took, cycles, "{variant:?} cycle count drifted");
        }
    }

    #[test]
    fn tuples_rejected_before_programming() {
        let params = DesignParams::new(FlowModel::BiFlow, 2, 8);
        let mut join = BiFlowJoin::new(&params);
        assert!(!join.offer(StreamTag::R, Tuple::new(1, 0)));
        join.program(JoinOperator::equi(2));
        assert!(join.offer(StreamTag::R, Tuple::new(1, 0)));
    }

    #[test]
    fn input_register_backpressures_until_wave_completes() {
        let params = DesignParams::new(FlowModel::BiFlow, 2, 8);
        let mut join = BiFlowJoin::new(&params);
        join.program(JoinOperator::equi(2));
        assert!(join.offer(StreamTag::R, Tuple::new(1, 0)));
        // The R register is occupied until the coordinator admits the wave.
        assert!(!join.offer(StreamTag::R, Tuple::new(2, 0)));
        // The S register is independent.
        assert!(join.offer(StreamTag::S, Tuple::new(3, 0)));
    }

    #[test]
    fn service_time_grows_with_total_window_not_sub_window() {
        // The single-wave discipline serializes the chain: cycles per
        // tuple ~ W + 3N regardless of N — the root of Fig. 14b's gap.
        let mut cycles = Vec::new();
        for cores in [2u32, 8] {
            let window = 64usize;
            let params = DesignParams::new(FlowModel::BiFlow, cores, window);
            let mut join = BiFlowJoin::new(&params);
            join.program(JoinOperator::equi(cores));
            let r: Vec<Tuple> = (0..window as u32).map(|i| Tuple::new(i, i)).collect();
            let s: Vec<Tuple> = (0..window as u32)
                .map(|i| Tuple::new(i + 1000, i))
                .collect();
            join.prefill(&r, &s);
            let probes: Vec<_> = (0..8)
                .map(|i| (StreamTag::R, Tuple::new(1 << 20, i)))
                .collect();
            cycles.push(
                run_stream(&mut join, &probes, 1_000_000)
                    .expect("chain settles")
                    .1,
            );
        }
        // More cores does NOT speed up bi-flow materially.
        let ratio = cycles[0] as f64 / cycles[1] as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "bi-flow should not scale with cores: {cycles:?}"
        );
    }

    #[test]
    fn prefill_layout_matches_streamed_fill() {
        // Fill both streams' windows to capacity by streaming, then by
        // prefill: every segment must hold the same tuples in the same
        // order, and a probe must find the same matches. (Bi-flow cores
        // are nested-loop only.)
        let params = DesignParams::new(FlowModel::BiFlow, 4, 16);
        let fill = workload(2 * 16, 6);
        let probe = (StreamTag::R, Tuple::new(4, 999));
        let stream = |tag| -> Vec<Tuple> {
            fill.iter()
                .filter(|(t, _)| *t == tag)
                .map(|&(_, t)| t)
                .collect()
        };
        let (r, s) = (stream(StreamTag::R), stream(StreamTag::S));
        assert_eq!((r.len(), s.len()), (16, 16), "fill is exactly both windows");

        let mut a = BiFlowJoin::new(&params);
        a.program(JoinOperator::equi(4));
        run_stream(&mut a, &fill, 100_000).expect("chain settles");

        let mut b = BiFlowJoin::new(&params);
        b.program(JoinOperator::equi(4));
        b.prefill(&r, &s);
        for (ca, cb) in a.cores.iter().zip(&b.cores) {
            assert_eq!(ca.window_r.snapshot(), cb.window_r.snapshot());
            assert_eq!(ca.window_s.snapshot(), cb.window_s.snapshot());
        }

        let ra = run_stream(&mut a, &[probe], 10_000)
            .expect("chain settles")
            .0;
        let rb = run_stream(&mut b, &[probe], 10_000)
            .expect("chain settles")
            .0;
        assert_eq!(as_multiset(&ra), as_multiset(&rb));
        assert!(!rb.is_empty());
    }

    #[test]
    fn original_variant_defers_and_never_invents_results() {
        let inputs = workload(400, 6);
        let want = reference_join(&inputs, 32, JoinPredicate::Equi);

        let params = DesignParams::new(FlowModel::BiFlow, 4, 32);
        let mut original = BiFlowJoin::new(&params).with_variant(BiflowVariant::Original);
        original.program(JoinOperator::equi(4));
        let got = run_stream(&mut original, &inputs, 4_000_000)
            .expect("chain settles")
            .0;

        // Subset of the strict results: deferral can only delay or drop
        // matches at stream end, never fabricate them.
        let want_set = as_multiset(&want);
        for (pair, n) in as_multiset(&got) {
            assert!(
                want_set.get(&pair).copied().unwrap_or(0) >= n,
                "original variant invented a result"
            );
        }
        // And on a finite stream it reports strictly fewer than the
        // low-latency variant (which equals the reference — tested above).
        assert!(
            got.len() < want.len(),
            "expected deferred results: {} vs {}",
            got.len(),
            want.len()
        );
        // It still finds most of them once the streams flow past each
        // other.
        assert!(
            got.len() * 2 > want.len(),
            "coverage collapsed: {} of {}",
            got.len(),
            want.len()
        );
    }

    #[test]
    fn tracing_records_wave_segments_without_changing_results() {
        let _flag = crate::trace_flag_lock();
        let inputs = workload(60, 6);
        let params = DesignParams::new(FlowModel::BiFlow, 4, 16);
        let mut plain = BiFlowJoin::new(&params);
        plain.program(JoinOperator::equi(4));
        let want = run_stream(&mut plain, &inputs, 2_000_000)
            .expect("chain settles")
            .0;
        assert!(plain.take_trace().is_empty(), "tracing off: no ring");

        obs::trace::enable(1);
        let mut traced = BiFlowJoin::new(&params);
        traced.program(JoinOperator::equi(4));
        let got = run_stream(&mut traced, &inputs, 2_000_000)
            .expect("chain settles")
            .0;
        obs::trace::disable();

        assert_eq!(as_multiset(&got), as_multiset(&want));
        let rings = traced.take_trace();
        assert_eq!(rings.len(), 1);
        let ring = &rings[0];
        assert_eq!(ring.track(), "biflow.chain");
        assert_eq!(ring.domain(), obs::trace::TimeDomain::Cycles);
        let events = ring.events();
        assert!(!events.is_empty());
        // Every span is a wave segment at one of the 4 cores, at least
        // handshake + park long.
        for e in &events {
            assert_eq!(e.name, "wave");
            assert!(e.arg < 4, "core index in range");
            assert!(e.dur > u64::from(HANDSHAKE_CYCLES));
        }
    }

    /// Every occupancy the chain reports after `feed`ing `n` tuples and
    /// settling: the results left after the drain, whether an input
    /// register or a wave still holds a tuple, and each core's two
    /// sub-windows and result FIFO.
    fn occupancies(n: usize) -> Vec<usize> {
        let params = DesignParams::new(FlowModel::BiFlow, 4, 64);
        let mut join = BiFlowJoin::new(&params);
        join.program(JoinOperator::equi(4));
        let mut sim = Simulator::new();
        feed(&mut sim, &mut join, &workload(n, 8), u64::MAX).expect("unbounded");
        settle(&mut sim, &mut join, 1_000_000).expect("chain settles");
        let mut counts = vec![
            join.pending_results(),
            usize::from(join.pending_r.is_some()),
            usize::from(join.pending_s.is_some()),
            usize::from(join.wave.is_some()),
        ];
        for core in &join.cores {
            counts.push(core.window_r.occupancy());
            counts.push(core.window_s.occupancy());
            counts.push(core.results.committed_len());
        }
        counts
    }

    #[test]
    fn state_is_bounded_by_the_window_not_the_stream() {
        // 1 024 tuples fill each 16-tuple sub-window sixteen times over;
        // four times as many must leave every count where it was.
        let short = occupancies(1_024);
        assert_eq!(short, occupancies(4 * 1_024));
        let windows: Vec<usize> = short[4..].iter().step_by(3).copied().collect();
        assert_eq!(windows, [16; 4], "every R sub-window is full");
    }

    #[test]
    #[should_panic(expected = "requires bi-flow")]
    fn uniflow_params_rejected() {
        let params = DesignParams::new(FlowModel::UniFlow, 2, 16);
        let _ = BiFlowJoin::new(&params);
    }
}
