//! The uni-flow (SplitJoin) parallel stream join in hardware: distribution
//! network → independent join cores → result-gathering network (Fig. 9).

mod core;
mod network;

pub use self::core::{CoreStats, JoinCore};
pub use self::network::{DistributionNetwork, GatheringNetwork};

use hwsim::{Component, Shard, Sharded};
use streamcore::{Frame, MatchPair, StreamTag, Tuple};

use crate::harness::StreamJoin;
use crate::{DesignParams, FlowModel, JoinOperator};

/// The complete uni-flow parallel stream join design.
///
/// Drive it like hardware: [`offer`](StreamJoin::offer) frames into the
/// distribution network (one per cycle at most), step the clock via the
/// [`Component`] interface, and read joined pairs from
/// [`drain_results`](StreamJoin::drain_results).
/// [`harness::run_stream`](crate::harness::run_stream) is that loop.
///
/// # Example
///
/// ```
/// use joinhw::harness::run_stream;
/// use joinhw::uniflow::UniFlowJoin;
/// use joinhw::{DesignParams, FlowModel, JoinOperator};
/// use streamcore::{StreamTag, Tuple};
///
/// let params = DesignParams::new(FlowModel::UniFlow, 4, 64);
/// let mut join = UniFlowJoin::new(&params);
/// join.program(JoinOperator::equi(4));
///
/// // Feed one S tuple, then a matching R tuple.
/// let inputs = [(StreamTag::S, Tuple::new(7, 0)), (StreamTag::R, Tuple::new(7, 0))];
/// let (results, _cycles) = run_stream(&mut join, &inputs, 10_000)?;
/// assert_eq!(results.len(), 1);
/// assert_eq!(results[0].r.key(), 7);
/// # Ok::<(), joinhw::harness::Stall>(())
/// ```
#[derive(Debug, Clone)]
pub struct UniFlowJoin {
    params: DesignParams,
    dist: DistributionNetwork,
    cores: Vec<JoinCore>,
    gather: GatheringNetwork,
    collected: Vec<MatchPair>,
    accepted_tuples: u64,
    pending_program: Vec<Frame>,
    /// Completed cycles (ticks in `coord_begin_cycle`; identical under
    /// the sequential and parallel engines).
    cycle: u64,
    /// Cycle-stamped stage spans of the sampled tuples
    /// (`uniflow.coord`); `None` unless tracing was enabled at build
    /// time.
    coord_ring: Option<obs::trace::TraceRing>,
    /// Per-tuple provenance sampling state; `None` unless tracing was
    /// enabled at build time.
    prov: Option<ProvState>,
}

/// Bookkeeping for the one provenance-sampled tuple in flight: the
/// tracker holds its stage stamps, the counters track how much of the
/// pipeline it still has to clear.
#[derive(Debug, Clone)]
struct ProvState {
    tracker: obs::provenance::ProvenanceTracker,
    /// Cores whose probe of the sampled tuple has not completed yet.
    probes_pending: usize,
    /// Matches produced by the completed probes (= sink deliveries the
    /// gather stage owes us).
    results_expected: u64,
    /// Watched sink deliveries observed so far. Kept separate from
    /// `results_expected` because a match can reach the sink *before*
    /// its (still-scanning) probe reports completion.
    results_seen: u64,
}

impl UniFlowJoin {
    /// Instantiates the design described by `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.flow` is not [`FlowModel::UniFlow`], or if the
    /// scalable network is requested with a core count that is not a power
    /// of two.
    pub fn new(params: &DesignParams) -> Self {
        assert_eq!(
            params.flow,
            FlowModel::UniFlow,
            "UniFlowJoin requires uni-flow design parameters"
        );
        let n = params.num_cores as usize;
        let k = params.tree_fanout as usize;
        let sub = params.sub_window();
        Self {
            params: *params,
            dist: DistributionNetwork::new(params.network, n, k),
            cores: (0..n)
                .map(|i| JoinCore::with_algorithm(i as u32, sub, params.algorithm))
                .collect(),
            gather: GatheringNetwork::new(params.network, n, k),
            collected: Vec::new(),
            accepted_tuples: 0,
            pending_program: Vec::new(),
            cycle: 0,
            coord_ring: obs::trace::enabled().then(|| {
                obs::trace::TraceRing::new("uniflow.coord", obs::trace::TimeDomain::Cycles)
            }),
            prov: obs::trace::enabled().then(|| ProvState {
                tracker: obs::provenance::ProvenanceTracker::new(obs::trace::sample_every()),
                probes_pending: 0,
                results_expected: 0,
                results_seen: 0,
            }),
        }
    }

    /// Queues the two operator-instruction frames for broadcast; they are
    /// injected ahead of data tuples as input slots free up.
    ///
    /// # Panics
    ///
    /// Panics if the operator's core count disagrees with the design's.
    pub fn program(&mut self, operator: JoinOperator) {
        assert_eq!(
            operator.num_cores, self.params.num_cores,
            "operator core count must match the design"
        );
        assert!(
            self.cores.iter().all(|c| c.supports(operator.predicate)),
            "hash join cores only support equi-join operators"
        );
        let words = operator.encode();
        self.pending_program.push(Frame::Operator(words[0]));
        self.pending_program.push(Frame::Operator(words[1]));
    }

    /// Stamps `stage` for the in-flight sample at the current cycle (if
    /// the sample is due for it) and mirrors the stage as a span on the
    /// coordinator ring.
    fn stamp_stage(&mut self, stage: obs::provenance::Stage, name: &'static str) {
        let Some(p) = self.prov.as_mut() else { return };
        if let Some((from, to)) = p.tracker.stamp(stage, self.cycle) {
            if let Some(ring) = self.coord_ring.as_mut() {
                ring.record(name, from, to - from);
            }
        }
    }

    /// Aggregated per-core statistics.
    pub fn core_stats(&self) -> CoreStats {
        let mut total = CoreStats::default();
        for c in &self.cores {
            let s = c.stats();
            total.tuples_processed += s.tuples_processed;
            total.comparisons += s.comparisons;
            total.matches += s.matches;
            total.stored += s.stored;
        }
        total
    }
}

impl StreamJoin for UniFlowJoin {
    /// Offers one tuple to the input port. Returns `false` when
    /// back-pressured (or while operator frames are still queued).
    fn offer(&mut self, tag: StreamTag, tuple: Tuple) -> bool {
        if !self.pending_program.is_empty() || !self.dist.can_accept() {
            return false;
        }
        let ok = self.dist.offer(Frame::tuple(tag, tuple));
        if ok {
            self.accepted_tuples += 1;
            if let Some(p) = self.prov.as_mut() {
                if p.tracker.offer(tuple.raw(), self.cycle) {
                    // This tuple is the sample: arm the watch points along
                    // its path (distribution fan-out, every core's probe,
                    // sink arrival of its result pairs).
                    self.dist.set_watch(Frame::tuple(tag, tuple));
                    for core in &mut self.cores {
                        core.set_watch(tag, tuple);
                    }
                    self.gather.set_watch(tuple);
                    p.probes_pending = self.cores.len();
                    p.results_expected = 0;
                    p.results_seen = 0;
                }
            }
        }
        ok
    }

    /// `true` when every queue, core, and network in the design is empty.
    fn quiescent(&self) -> bool {
        self.pending_program.is_empty()
            && self.dist.is_empty()
            && self.gather.is_empty()
            && self.cores.iter().all(JoinCore::quiescent)
    }

    /// Results collected and not yet drained.
    fn pending_results(&self) -> usize {
        self.collected.len()
    }

    /// Removes and returns all results collected so far.
    fn drain_results(&mut self) -> Vec<MatchPair> {
        // The sample's results leave the design when the harness drains
        // them — that is its Emit stamp (a no-op until Gather is done).
        self.stamp_stage(obs::provenance::Stage::Emit, "emit");
        std::mem::take(&mut self.collected)
    }

    /// Direct pre-fill of the sliding windows (bypasses the clocked data
    /// path): `r` and `s` are distributed round-robin exactly as the
    /// storage cores would, and the storage counters are advanced so
    /// subsequent live tuples continue the rotation seamlessly.
    fn prefill(&mut self, r: &[Tuple], s: &[Tuple]) {
        let n = self.cores.len();
        for (i, &t) in r.iter().enumerate() {
            self.cores[i % n].prefill(StreamTag::R, t);
        }
        for (i, &t) in s.iter().enumerate() {
            self.cores[i % n].prefill(StreamTag::S, t);
        }
        for core in &mut self.cores {
            core.set_counts(r.len() as u64, s.len() as u64);
        }
    }

    /// Number of data tuples accepted by the input port so far.
    fn accepted_tuples(&self) -> u64 {
        self.accepted_tuples
    }

    /// Detaches every span ring in the design — the coordinator's
    /// stage-latency ring plus one probe ring per core. Empty unless
    /// tracing was enabled when the design was built.
    fn take_trace(&mut self) -> Vec<obs::trace::TraceRing> {
        let mut rings: Vec<_> = self.coord_ring.take().into_iter().collect();
        rings.extend(self.cores.iter_mut().filter_map(JoinCore::take_ring));
        rings
    }

    /// Detaches the per-tuple provenance tracker (abandoning any
    /// incomplete sample). `None` unless tracing was enabled when the
    /// design was built.
    fn take_provenance(&mut self) -> Option<obs::provenance::ProvenanceTracker> {
        self.prov.take().map(|mut p| {
            p.tracker.abandon();
            p.tracker
        })
    }
}

impl Component for UniFlowJoin {
    fn begin_cycle(&mut self) {
        self.coord_begin_cycle();
        for c in &mut self.cores {
            c.begin_cycle();
        }
    }

    fn eval(&mut self) {
        self.coord_eval_pre();
        for c in &mut self.cores {
            c.eval();
        }
        self.coord_eval_post();
    }

    fn commit(&mut self) {
        self.coord_commit();
        for c in &mut self.cores {
            c.commit();
        }
    }
}

/// The parallel decomposition of the uni-flow pipeline: each join core
/// (with its two sub-windows and FIFOs) is one shard; the distribution
/// and gathering trees stay on the coordinator. The trees touch core
/// state only through the cores' two-phase FIFOs, and only inside
/// `coord_eval_pre` (pushing into fetchers) and `coord_eval_post`
/// (popping results) — both of which run while the shards are quiescent,
/// so the schedule is cycle-exact with respect to the sequential
/// [`Component`] implementation above (which is itself written as
/// coordinator phases around the core loops).
impl Sharded for UniFlowJoin {
    fn coord_begin_cycle(&mut self) {
        self.cycle += 1;
        self.dist.begin_cycle();
        self.gather.begin_cycle();
    }

    fn coord_eval_pre(&mut self) {
        // Inject queued operator frames at the input port.
        if !self.pending_program.is_empty() && self.dist.can_accept() {
            let frame = self.pending_program.remove(0);
            self.dist.offer(frame);
        }
        self.dist.eval(&mut self.cores);
        if self.prov.is_some() && self.dist.take_watch_delivered() {
            self.stamp_stage(obs::provenance::Stage::Distribute, "distribute");
        }
    }

    fn coord_eval_post(&mut self) {
        self.gather.eval(&mut self.cores, &mut self.collected);
        if self.prov.is_some() {
            // Probe completions first (they raise the sink-delivery debt),
            // then this cycle's watched sink arrivals.
            let mut done = 0usize;
            let mut matches = 0u64;
            for core in &mut self.cores {
                if let Some((_, m)) = core.take_watch_done() {
                    done += 1;
                    matches += m;
                }
            }
            let hits = self.gather.take_watch_delivered();
            let p = self.prov.as_mut().expect("checked above");
            p.probes_pending = p.probes_pending.saturating_sub(done);
            p.results_expected += matches;
            p.results_seen += hits;
            let probes_done = p.probes_pending == 0;
            let gathered = probes_done && p.results_seen >= p.results_expected;
            if probes_done {
                self.stamp_stage(obs::provenance::Stage::Probe, "probe");
            }
            if gathered {
                self.stamp_stage(obs::provenance::Stage::Gather, "gather");
                self.gather.clear_watch();
            }
        }
    }

    fn coord_commit(&mut self) {
        self.dist.commit();
        self.gather.commit();
    }

    fn shards(&mut self) -> Vec<&mut dyn Shard> {
        self.cores.iter_mut().map(|c| c as &mut dyn Shard).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{feed, run_stream, settle};
    use crate::JoinPredicate;
    use crate::NetworkKind;
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
    fn matches_reference_join_exactly_small_config() {
        let inputs = workload(200, 8);
        for cores in [1u32, 2, 4] {
            let params = DesignParams::new(FlowModel::UniFlow, cores, 64);
            let mut join = UniFlowJoin::new(&params);
            join.program(JoinOperator::equi(cores));
            let got = run_stream(&mut join, &inputs, 200_000)
                .expect("design settles")
                .0;
            let want = reference_join(&inputs, 64, JoinPredicate::Equi);
            assert_eq!(
                as_multiset(&got),
                as_multiset(&want),
                "mismatch with {cores} cores"
            );
            assert!(!want.is_empty(), "test should exercise matches");
        }
    }

    #[test]
    fn matches_reference_with_window_expiry() {
        // Window smaller than input count: expiry paths exercised.
        let inputs = workload(400, 4);
        let params = DesignParams::new(FlowModel::UniFlow, 4, 16);
        let mut join = UniFlowJoin::new(&params);
        join.program(JoinOperator::equi(4));
        let got = run_stream(&mut join, &inputs, 400_000)
            .expect("design settles")
            .0;
        let want = reference_join(&inputs, 16, JoinPredicate::Equi);
        assert_eq!(as_multiset(&got), as_multiset(&want));
    }

    #[test]
    fn scalable_network_produces_identical_results() {
        let inputs = workload(300, 8);
        let lw = DesignParams::new(FlowModel::UniFlow, 8, 64);
        let sc = lw.with_network(NetworkKind::Scalable);
        let mut a = UniFlowJoin::new(&lw);
        let mut b = UniFlowJoin::new(&sc);
        a.program(JoinOperator::equi(8));
        b.program(JoinOperator::equi(8));
        let ra = run_stream(&mut a, &inputs, 400_000)
            .expect("design settles")
            .0;
        let rb = run_stream(&mut b, &inputs, 400_000)
            .expect("design settles")
            .0;
        assert_eq!(as_multiset(&ra), as_multiset(&rb));
    }

    #[test]
    fn operator_reprogramming_mid_stream_loses_nothing() {
        // "This makes it possible to update the current join operator in
        // real-time": stream tuples, switch the equi-join to a band join
        // through the same broadcast path the data uses, keep streaming.
        // Every tuple is processed under exactly one operator; none drop.
        let cores = 4u32;
        let params = DesignParams::new(FlowModel::UniFlow, cores, 32);
        let mut join = UniFlowJoin::new(&params);
        join.program(JoinOperator::equi(cores));
        let mut sim = Simulator::new();

        // Phase 1 under equi: store S keys 10, 20; probe with 11 (miss).
        let phase1: Vec<(StreamTag, Tuple)> = vec![
            (StreamTag::S, Tuple::new(10, 0)),
            (StreamTag::S, Tuple::new(20, 1)),
            (StreamTag::R, Tuple::new(11, 2)),
        ];
        feed(&mut sim, &mut join, &phase1, u64::MAX).expect("unbounded");
        let results = settle(&mut sim, &mut join, 10_000);
        assert!(
            results.is_ok_and(|r| r.is_empty()),
            "equi: 11 matches nothing"
        );

        // Live re-program to a band join (|Δkey| <= 1), then re-probe.
        join.program(JoinOperator {
            num_cores: cores,
            predicate: crate::JoinPredicate::Band { delta: 1 },
        });
        let phase2 = vec![(StreamTag::R, Tuple::new(11, 3))];
        feed(&mut sim, &mut join, &phase2, u64::MAX).expect("unbounded");
        let results = settle(&mut sim, &mut join, 10_000).expect("design settles");
        assert_eq!(results.len(), 1, "band: 11 matches stored 10");
        assert_eq!(results[0].s, Tuple::new(10, 0));
        // Re-programming resets the round-robin counters but the windows
        // survive: the stored S tuples were still probed. All four tuples
        // were accepted and processed.
        assert_eq!(join.accepted_tuples(), 4);
    }

    #[test]
    fn hash_cores_produce_identical_results_to_nested_loop() {
        let inputs = workload(400, 8);
        let nested = DesignParams::new(FlowModel::UniFlow, 4, 32);
        let hashed = nested.with_algorithm(crate::JoinAlgorithm::Hash);
        let mut a = UniFlowJoin::new(&nested);
        let mut b = UniFlowJoin::new(&hashed);
        a.program(JoinOperator::equi(4));
        b.program(JoinOperator::equi(4));
        let ra = run_stream(&mut a, &inputs, 400_000)
            .expect("design settles")
            .0;
        let rb = run_stream(&mut b, &inputs, 400_000)
            .expect("design settles")
            .0;
        assert_eq!(as_multiset(&ra), as_multiset(&rb));
        assert!(!ra.is_empty());
    }

    #[test]
    fn hash_cores_probe_fewer_tuples() {
        // Same workload: the hash design's comparison count collapses to
        // the matching tuples only.
        let inputs = workload(400, 8);
        let mut counts = Vec::new();
        for algorithm in [crate::JoinAlgorithm::NestedLoop, crate::JoinAlgorithm::Hash] {
            let params = DesignParams::new(FlowModel::UniFlow, 4, 32).with_algorithm(algorithm);
            let mut join = UniFlowJoin::new(&params);
            join.program(JoinOperator::equi(4));
            run_stream(&mut join, &inputs, 400_000).expect("design settles");
            let stats = join.core_stats();
            counts.push((stats.comparisons, stats.matches));
        }
        let (nested, hash) = (counts[0], counts[1]);
        assert_eq!(nested.1, hash.1, "same matches");
        assert_eq!(hash.0, hash.1, "hash compares only matching tuples");
        assert!(nested.0 > 4 * hash.0, "nested scans far more: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "hash join cores only support equi-join")]
    fn hash_cores_reject_non_equi_operators() {
        let params =
            DesignParams::new(FlowModel::UniFlow, 2, 16).with_algorithm(crate::JoinAlgorithm::Hash);
        let mut join = UniFlowJoin::new(&params);
        join.program(JoinOperator {
            num_cores: 2,
            predicate: crate::JoinPredicate::Band { delta: 1 },
        });
    }

    #[test]
    fn wider_tree_fanout_produces_identical_results() {
        let inputs = workload(300, 8);
        let base =
            DesignParams::new(FlowModel::UniFlow, 16, 64).with_network(NetworkKind::Scalable);
        let mut reference = None;
        for fanout in [2u32, 4, 16] {
            let params = base.with_fanout(fanout);
            let mut join = UniFlowJoin::new(&params);
            join.program(JoinOperator::equi(16));
            let results = as_multiset(
                &run_stream(&mut join, &inputs, 400_000)
                    .expect("design settles")
                    .0,
            );
            match &reference {
                None => reference = Some(results),
                Some(want) => assert_eq!(&results, want, "fan-out {fanout}"),
            }
        }
    }

    #[test]
    fn prefill_matches_streamed_fill() {
        let fill = workload(64, 8);
        let probe = (StreamTag::R, Tuple::new(3, 999));

        // Variant A: stream everything.
        let params = DesignParams::new(FlowModel::UniFlow, 4, 32);
        let mut a = UniFlowJoin::new(&params);
        a.program(JoinOperator::equi(4));
        let mut inputs = fill.clone();
        inputs.push(probe);
        let ra = run_stream(&mut a, &inputs, 400_000)
            .expect("design settles")
            .0;

        // Variant B: prefill directly, then stream only the probe.
        let mut b = UniFlowJoin::new(&params);
        b.program(JoinOperator::equi(4));
        let r: Vec<Tuple> = fill
            .iter()
            .filter(|(t, _)| *t == StreamTag::R)
            .map(|&(_, t)| t)
            .collect();
        let s: Vec<Tuple> = fill
            .iter()
            .filter(|(t, _)| *t == StreamTag::S)
            .map(|&(_, t)| t)
            .collect();
        b.prefill(&r, &s);
        let rb = run_stream(&mut b, &[probe], 10_000)
            .expect("design settles")
            .0;

        // A's results include fill-phase matches; B's only the probe's.
        let probe_matches_a: Vec<_> = ra
            .into_iter()
            .filter(|m| m.r == Tuple::new(3, 999))
            .collect();
        assert_eq!(as_multiset(&probe_matches_a), as_multiset(&rb));
        assert!(!rb.is_empty());
    }

    #[test]
    fn accepted_tuple_count_tracks_offers() {
        let params = DesignParams::new(FlowModel::UniFlow, 2, 16);
        let mut join = UniFlowJoin::new(&params);
        join.program(JoinOperator::equi(2));
        let inputs = workload(50, 4);
        run_stream(&mut join, &inputs, 100_000).expect("design settles");
        assert_eq!(join.accepted_tuples(), 50);
    }

    #[test]
    fn throughput_scales_linearly_with_cores() {
        // The headline uni-flow property (Fig. 14a): doubling cores halves
        // the cycles needed to absorb the same stream at full windows.
        let window = 256;
        let mut cycles_by_cores = Vec::new();
        for cores in [2u32, 4, 8] {
            let params = DesignParams::new(FlowModel::UniFlow, cores, window);
            let mut join = UniFlowJoin::new(&params);
            join.program(JoinOperator::equi(cores));
            // Pre-fill to steady state: full windows, unique keys.
            let r: Vec<Tuple> = (0..window as u32).map(|i| Tuple::new(i, i)).collect();
            let s: Vec<Tuple> = (0..window as u32)
                .map(|i| Tuple::new(i + window as u32, i))
                .collect();
            join.prefill(&r, &s);
            // Push 64 more tuples at max rate.
            let probes: Vec<_> = (0..64)
                .map(|i| (StreamTag::R, Tuple::new(1 << 20, i)))
                .collect();
            let (_, cycles) = run_stream(&mut join, &probes, 1_000_000).expect("design settles");
            cycles_by_cores.push(cycles);
        }
        // Halving ratio within tolerance.
        for w in cycles_by_cores.windows(2) {
            let ratio = w[0] as f64 / w[1] as f64;
            assert!(
                (1.5..2.5).contains(&ratio),
                "expected ~2x speedup, got {ratio:.2} ({cycles_by_cores:?})"
            );
        }
    }

    #[test]
    fn provenance_sampling_breaks_down_latency_without_changing_results() {
        let _flag = crate::trace_flag_lock();
        let inputs = workload(200, 8);
        let params = DesignParams::new(FlowModel::UniFlow, 4, 32);
        let mut plain = UniFlowJoin::new(&params);
        plain.program(JoinOperator::equi(4));
        let want = run_stream(&mut plain, &inputs, 200_000)
            .expect("design settles")
            .0;
        assert!(plain.take_trace().is_empty(), "tracing off: no rings");
        assert!(plain.take_provenance().is_none(), "tracing off: no tracker");

        obs::trace::enable(16);
        let mut traced = UniFlowJoin::new(&params);
        traced.program(JoinOperator::equi(4));
        // Drain every cycle (like the latency harness): Emit is stamped
        // when the harness drains, so per-cycle draining lets samples
        // complete throughout the run instead of once at the end.
        let mut sim = Simulator::new();
        let mut got = Vec::new();
        let mut idx = 0;
        while idx < inputs.len() {
            let (tag, t) = inputs[idx];
            if traced.offer(tag, t) {
                idx += 1;
            }
            sim.step(&mut traced);
            got.extend(traced.drain_results());
            assert!(sim.cycle() < 200_000, "inputs not accepted in time");
        }
        while !traced.quiescent() {
            sim.step(&mut traced);
            got.extend(traced.drain_results());
            assert!(sim.cycle() < 200_000, "design did not quiesce");
        }
        got.extend(traced.drain_results());
        obs::trace::disable();

        // Behavior-neutral: identical results with tracing on.
        assert_eq!(as_multiset(&got), as_multiset(&want));

        let tracker = traced.take_provenance().expect("tracing was on");
        assert!(tracker.completed() >= 10, "200 tuples / 1-in-16 sampling");
        // The headline invariant: stage deltas sum exactly to the
        // end-to-end total.
        assert_eq!(
            tracker.stage_sums().iter().sum::<u64>(),
            tracker.total_sum(),
            "stage breakdown must account for the full latency"
        );
        assert!(tracker.total_sum() > 0, "latency cannot be zero cycles");

        let rings = traced.take_trace();
        let coord = rings
            .iter()
            .find(|r| r.track() == "uniflow.coord")
            .expect("coordinator ring present");
        assert!(!coord.is_empty(), "stage spans recorded");
        let stage_names: Vec<&str> = coord.events().iter().map(|e| e.name).collect();
        for name in ["distribute", "probe", "gather", "emit"] {
            assert!(stage_names.contains(&name), "missing {name} span");
        }
        for i in 0..4 {
            let track = format!("core.{i}");
            let core = rings
                .iter()
                .find(|r| r.track() == track)
                .unwrap_or_else(|| panic!("missing ring {track}"));
            assert!(!core.is_empty(), "{track} recorded probe spans");
            assert!(core.events().iter().all(|e| e.name == "probe"));
        }
    }

    #[test]
    fn tracing_records_probe_spans_without_changing_results() {
        let _flag = crate::trace_flag_lock();
        let inputs = workload(200, 8);
        let params = DesignParams::new(FlowModel::UniFlow, 4, 32);
        let mut plain = UniFlowJoin::new(&params);
        plain.program(JoinOperator::equi(4));
        let (want, want_cycles) = run_stream(&mut plain, &inputs, 200_000).expect("design settles");

        obs::trace::enable(1);
        let mut traced = UniFlowJoin::new(&params);
        obs::trace::disable();
        traced.program(JoinOperator::equi(4));
        let (got, cycles) = run_stream(&mut traced, &inputs, 200_000).expect("design settles");

        assert_eq!(as_multiset(&got), as_multiset(&want));
        assert_eq!(cycles, want_cycles, "tracing must not move a cycle");
        assert!(!want.is_empty(), "test should exercise matches");

        let rings = traced.take_trace();
        assert!(rings
            .iter()
            .all(|r| r.domain() == obs::trace::TimeDomain::Cycles && r.dropped() == 0));
        let coord = rings.iter().filter(|r| r.track() == "uniflow.coord");
        assert!(coord.map(obs::trace::TraceRing::len).sum::<usize>() > 0);
        // One probe track per core; each probe's arg is its match count,
        // so the spans account for every result.
        let mut matches = 0;
        for i in 0..4 {
            let track = format!("core.{i}");
            let core: Vec<_> = rings.iter().filter(|r| r.track() == track).collect();
            assert_eq!(core.len(), 1, "one {track} track");
            let events = core[0].events();
            assert_eq!(events.len(), inputs.len(), "{track} probes every tuple");
            assert!(events.iter().all(|e| e.name == "probe"));
            matches += events.iter().map(|e| e.arg).sum::<u64>();
        }
        assert_eq!(matches, got.len() as u64);
    }

    #[test]
    #[should_panic(expected = "operator core count must match")]
    fn mismatched_operator_panics() {
        let params = DesignParams::new(FlowModel::UniFlow, 2, 16);
        let mut join = UniFlowJoin::new(&params);
        join.program(JoinOperator::equi(4));
    }

    #[test]
    #[should_panic(expected = "requires uni-flow")]
    fn biflow_params_rejected() {
        let params = DesignParams::new(FlowModel::BiFlow, 2, 16);
        let _ = UniFlowJoin::new(&params);
    }
}
