//! Cross-implementation equivalence: every realization of the windowed
//! equi-join — uni-flow hardware (both network variants), bi-flow
//! hardware, multithreaded software SplitJoin, software handshake join
//! (serialized), and the single-threaded reference — produces the same
//! result multiset on the same workload; both hardware designs also
//! under a band and an ordering predicate.
//!
//! The second half of the file pins *run-to-run determinism*: two runs
//! of the same SplitJoin configuration must agree — results, counts,
//! per-worker statistics, and (under a scripted [`FaultPlan`]) the
//! exact damage report — at every worker count, because batch message
//! boundaries, not thread timing, decide what every worker sees.
//!
//! The next section pins SplitJoin against the single-threaded reference
//! on uniform and zipf-skewed workloads at every worker count.
//!
//! The final section pins *cross-path* equivalence: the blocked probe
//! path (batches of 8 tuples or more) must be observationally identical
//! to the per-tuple probe path (smaller batches) — results and
//! per-worker statistics.

mod common;

use accel_landscape::joinhw::biflow::BiFlowJoin;
use accel_landscape::joinhw::harness::run_stream;
use accel_landscape::joinhw::uniflow::UniFlowJoin;
use accel_landscape::joinhw::{DesignParams, FlowModel, JoinOperator, NetworkKind};
use accel_landscape::joinsw::baseline::reference_join;
use accel_landscape::joinsw::handshake::{HandshakeConfig, HandshakeJoin};
use accel_landscape::joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use accel_landscape::joinsw::JoinOutcome;
use accel_landscape::joinsw::{FaultEvent, FaultPlan, JoinParams, StreamJoin};
use accel_landscape::streamcore::{JoinPredicate, MatchPair, StreamTag, Tuple};
use proptest::prelude::*;

use common::{as_multiset, workload};

const CORES: u32 = 4;
const WINDOW: usize = 32;

fn run_uniflow(
    inputs: &[(StreamTag, Tuple)],
    network: NetworkKind,
    predicate: JoinPredicate,
) -> Vec<MatchPair> {
    let params = DesignParams::new(FlowModel::UniFlow, CORES, WINDOW).with_network(network);
    let mut join = UniFlowJoin::new(&params);
    join.program(JoinOperator {
        num_cores: CORES,
        predicate,
    });
    run_stream(&mut join, inputs, 10_000_000)
        .expect("uni-flow stalled")
        .0
}

fn run_biflow(inputs: &[(StreamTag, Tuple)], predicate: JoinPredicate) -> Vec<MatchPair> {
    let params = DesignParams::new(FlowModel::BiFlow, CORES, WINDOW);
    let mut join = BiFlowJoin::new(&params);
    join.program(JoinOperator {
        num_cores: CORES,
        predicate,
    });
    run_stream(&mut join, inputs, 50_000_000)
        .expect("bi-flow stalled")
        .0
}

fn run_splitjoin_sw(inputs: &[(StreamTag, Tuple)]) -> Vec<MatchPair> {
    let join = SplitJoin::spawn(SplitJoinConfig::new(CORES as usize, WINDOW));
    for &(tag, t) in inputs {
        join.process(tag, t).unwrap();
    }
    join.flush().unwrap();
    join.shutdown().unwrap().results
}

fn run_handshake_sw(inputs: &[(StreamTag, Tuple)]) -> Vec<MatchPair> {
    let join = HandshakeJoin::spawn(HandshakeConfig::new(CORES as usize, WINDOW));
    for &(tag, t) in inputs {
        join.process(tag, t).unwrap();
        join.flush().unwrap(); // serialize waves: strict semantics
    }
    join.shutdown().unwrap().results
}

#[test]
fn all_five_realizations_agree_with_the_reference() {
    let inputs = workload(600, 8, 99);
    let want = as_multiset(&reference_join(&inputs, WINDOW, JoinPredicate::Equi));
    assert!(!want.is_empty(), "workload must produce matches");

    assert_eq!(
        as_multiset(&run_uniflow(
            &inputs,
            NetworkKind::Lightweight,
            JoinPredicate::Equi
        )),
        want,
        "uni-flow hardware (lightweight)"
    );
    assert_eq!(
        as_multiset(&run_uniflow(
            &inputs,
            NetworkKind::Scalable,
            JoinPredicate::Equi
        )),
        want,
        "uni-flow hardware (scalable)"
    );
    assert_eq!(
        as_multiset(&run_biflow(&inputs, JoinPredicate::Equi)),
        want,
        "bi-flow hardware"
    );
    assert_eq!(
        as_multiset(&run_splitjoin_sw(&inputs)),
        want,
        "software SplitJoin"
    );
    assert_eq!(
        as_multiset(&run_handshake_sw(&inputs)),
        want,
        "software handshake join"
    );
}

#[test]
fn both_hardware_designs_agree_with_the_reference_off_equi() {
    // A band and an ordering predicate reach every core's comparator the
    // way the equi-join does: each design must still equal the reference.
    let inputs = workload(300, 16, 7);
    for predicate in [JoinPredicate::Band { delta: 2 }, JoinPredicate::LessThan] {
        let want = as_multiset(&reference_join(&inputs, WINDOW, predicate));
        assert!(!want.is_empty(), "{predicate:?} must produce matches");
        for network in [NetworkKind::Lightweight, NetworkKind::Scalable] {
            assert_eq!(
                as_multiset(&run_uniflow(&inputs, network, predicate)),
                want,
                "uni-flow hardware ({network:?}) under {predicate:?}"
            );
        }
        assert_eq!(
            as_multiset(&run_biflow(&inputs, predicate)),
            want,
            "bi-flow hardware under {predicate:?}"
        );
    }
}

#[test]
fn equivalence_holds_across_seeds_and_selectivities() {
    for (seed, domain) in [(1u64, 4u32), (2, 16), (3, 64)] {
        let inputs = workload(300, domain, seed);
        let want = as_multiset(&reference_join(&inputs, WINDOW, JoinPredicate::Equi));
        assert_eq!(
            as_multiset(&run_uniflow(
                &inputs,
                NetworkKind::Lightweight,
                JoinPredicate::Equi
            )),
            want,
            "seed {seed} domain {domain} (hw)"
        );
        assert_eq!(
            as_multiset(&run_splitjoin_sw(&inputs)),
            want,
            "seed {seed} domain {domain} (sw)"
        );
    }
}

/// Everything that must match between two runs of one configuration.
/// Recovery latency is wall-clock and ring telemetry depends on thread
/// timing, so neither is compared; all logical outputs are.
fn assert_outcomes_agree(first: &JoinOutcome, second: &JoinOutcome, label: &str) {
    assert_eq!(
        as_multiset(&first.results),
        as_multiset(&second.results),
        "{label}: result multisets diverge"
    );
    assert_eq!(first.result_count, second.result_count, "{label}: counts");
    assert_eq!(
        first.worker_stats, second.worker_stats,
        "{label}: per-worker statistics"
    );
    assert_eq!(
        first.batch_sizes.total(),
        second.batch_sizes.total(),
        "{label}: batch message count"
    );
    assert_eq!(
        first.fault.workers_lost, second.fault.workers_lost,
        "{label}: lost workers"
    );
    assert_eq!(
        first.fault.orphaned_tuples, second.fault.orphaned_tuples,
        "{label}: orphan accounting"
    );
    assert_eq!(
        first.fault.injected_stalls, second.fault.injected_stalls,
        "{label}: stall count"
    );
    assert_eq!(
        first.fault.injected_drops, second.fault.injected_drops,
        "{label}: drop count"
    );
    assert_eq!(
        first.fault.results_dropped, second.fault.results_dropped,
        "{label}: results dropped at kill"
    );
}

/// Two runs of the same configuration.
fn run_twice(
    cores: usize,
    batch_size: usize,
    plan: Option<&FaultPlan>,
    inputs: &[(StreamTag, Tuple)],
) -> (JoinOutcome, JoinOutcome) {
    let run = || run_splitjoin(cores, batch_size, plan, inputs);
    (run(), run())
}

#[test]
fn healthy_runs_are_deterministic_at_every_worker_count() {
    let inputs = workload(600, 8, 42);
    for cores in [1usize, 2, 4, 8] {
        let (first, second) = run_twice(cores, 16, None, &inputs);
        assert_outcomes_agree(&first, &second, &format!("{cores} cores healthy"));
        assert!(
            first.ring_stats.is_some(),
            "every run carries ring telemetry"
        );
        assert!(!first.fault.degraded());
    }
}

#[test]
fn kill_and_stall_faults_are_deterministic() {
    let inputs = workload(600, 8, 7);
    for cores in [1usize, 2, 4, 8] {
        // A stall early, then (with a sibling to survive) a kill at a
        // later batch boundary — the orphan accounting and the
        // results_dropped tally must come out identical because both
        // runs deliver identical batch boundaries.
        let mut plan = FaultPlan::none().with(FaultEvent::Stall {
            worker: 0,
            at_batch: 2,
            millis: 5,
        });
        if cores > 1 {
            plan = plan.with(FaultEvent::Kill {
                worker: cores - 1,
                after_batch: 4,
            });
        }
        let (first, second) = run_twice(cores, 16, Some(&plan), &inputs);
        assert_outcomes_agree(&first, &second, &format!("{cores} cores faulted"));
        assert_eq!(first.fault.injected_stalls, 1);
        if cores > 1 {
            assert_eq!(first.fault.workers_lost, vec![cores - 1]);
            assert!(first.fault.degraded());
        }
    }
}

#[test]
fn drop_corruption_is_deterministic() {
    // A scripted message drop corrupts the round-robin discipline on
    // one worker — deliberately. Every run must corrupt the same way
    // (same dropped batch boundary), so outcomes still agree.
    let inputs = workload(400, 8, 21);
    let plan = FaultPlan::none().with(FaultEvent::Drop {
        worker: 1,
        at_batch: 3,
    });
    let (first, second) = run_twice(4, 16, Some(&plan), &inputs);
    assert_outcomes_agree(&first, &second, "scripted drop");
    assert_eq!(first.fault.injected_drops, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized equivalence: any workload, any core count, any batch
    /// size (both probe paths) — two runs agree with each other and with
    /// the single-threaded reference.
    #[test]
    fn random_workloads_match_the_reference(
        n in 100usize..400,
        domain in 2u32..32,
        seed in any::<u64>(),
        cores in 1usize..5,
        batch in 1usize..64,
    ) {
        let inputs = workload(n, domain, seed);
        let (first, second) = run_twice(cores, batch, None, &inputs);
        prop_assert_eq!(as_multiset(&first.results), as_multiset(&second.results));
        prop_assert_eq!(&first.worker_stats, &second.worker_stats);
        let window = SplitJoinConfig::new(cores, WINDOW).effective_window();
        let want = as_multiset(&reference_join(&inputs, window, JoinPredicate::Equi));
        prop_assert_eq!(as_multiset(&first.results), want);
    }
}

/// Runs a SplitJoin to completion. `batch_size` is an argument —
/// identical batch boundaries are exactly what makes two runs comparable
/// point-for-point under a fault plan.
fn run_splitjoin(
    cores: usize,
    batch_size: usize,
    plan: Option<&FaultPlan>,
    inputs: &[(StreamTag, Tuple)],
) -> JoinOutcome {
    let mut config = SplitJoinConfig::new(cores, WINDOW).with_batch_size(batch_size);
    if let Some(plan) = plan {
        config = config.with_fault_plan(plan.clone());
    }
    let join = SplitJoin::spawn(config);
    for &(tag, t) in inputs {
        join.process(tag, t).unwrap();
    }
    join.flush().unwrap();
    join.shutdown().unwrap()
}

/// A workload with tunable skew: `s == 0.0` is uniform, larger
/// exponents concentrate the key mass (classic Zipf at `s == 1.0`).
fn skewed_workload(tuples: usize, domain: u32, seed: u64, s: f64) -> Vec<(StreamTag, Tuple)> {
    use accel_landscape::streamcore::workload::{KeyDist, WorkloadSpec};
    let keys = if s == 0.0 {
        KeyDist::Uniform { domain }
    } else {
        KeyDist::Zipf { domain, s }
    };
    WorkloadSpec::new(tuples, keys)
        .with_seed(seed)
        .generate()
        .collect()
}

#[test]
fn skewed_workloads_match_the_reference_at_every_worker_count() {
    for s in [0.0, 1.0] {
        let inputs = skewed_workload(600, 8, 42, s);
        for cores in [1usize, 2, 4, 8] {
            let outcome = run_splitjoin(cores, 16, None, &inputs);
            assert!(!outcome.fault.degraded());
            assert_eq!(outcome.result_count, outcome.results.len() as u64);
            let window = SplitJoinConfig::new(cores, WINDOW).effective_window();
            assert_eq!(
                as_multiset(&outcome.results),
                as_multiset(&reference_join(&inputs, window, JoinPredicate::Equi)),
                "s={s} cores={cores}: SplitJoin vs reference"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized skewed workloads: any workload — uniform or
    /// zipf-skewed — at any worker count and batch size matches the
    /// single-threaded reference.
    #[test]
    fn skewed_random_workloads_match_the_reference(
        n in 100usize..400,
        domain in 2u32..32,
        seed in any::<u64>(),
        cores in prop::sample::select(vec![1usize, 2, 4, 8]),
        batch in 1usize..64,
        skew in prop::sample::select(vec![0.0f64, 0.7, 1.3]),
    ) {
        let inputs = skewed_workload(n, domain, seed, skew);
        let outcome = run_splitjoin(cores, batch, None, &inputs);
        prop_assert_eq!(outcome.result_count, outcome.results.len() as u64);
        let window = SplitJoinConfig::new(cores, WINDOW).effective_window();
        let want = as_multiset(&reference_join(&inputs, window, JoinPredicate::Equi));
        prop_assert_eq!(as_multiset(&outcome.results), want);
    }
}

#[test]
fn per_tuple_and_blocked_paths_agree() {
    let inputs = workload(600, 8, 123);
    let want = as_multiset(&reference_join(&inputs, WINDOW, JoinPredicate::Equi));
    assert!(!want.is_empty());
    let run = |batch| run_splitjoin(CORES as usize, batch, None, &inputs);
    // Batch 1 runs the per-tuple probe: the in-tree reference path.
    let per_tuple = run(1);
    assert_eq!(as_multiset(&per_tuple.results), want, "vs reference");
    // 7 stays on the per-tuple path; 8, 64 and 512 engage the blocked
    // tiles.
    for batch in [7usize, 8, 64, 512] {
        let other = run(batch);
        let label = format!("batch {batch}");
        assert_eq!(
            as_multiset(&other.results),
            as_multiset(&per_tuple.results),
            "{label}: probe paths diverge"
        );
        assert_eq!(
            other.worker_stats, per_tuple.worker_stats,
            "{label}: per-worker statistics diverge"
        );
        let tiles = other
            .kernel_stats
            .expect("every run carries kernel telemetry")
            .tiles;
        assert_eq!(tiles > 0, batch >= 8, "{label}: {tiles} tiles");
    }
}

#[test]
fn equivalence_holds_under_bursty_arrivals() {
    // Batched sensors: long same-stream runs stress the round-robin
    // storage and the bi-flow chain's arrival ordering.
    use accel_landscape::streamcore::workload::{ArrivalPattern, KeyDist, WorkloadSpec};
    for burst in [5usize, 23, 150] {
        let inputs: Vec<_> = WorkloadSpec::new(400, KeyDist::Uniform { domain: 8 })
            .with_arrivals(ArrivalPattern::Bursty { burst })
            .generate()
            .collect();
        let want = as_multiset(&reference_join(&inputs, WINDOW, JoinPredicate::Equi));
        assert!(!want.is_empty());
        assert_eq!(
            as_multiset(&run_uniflow(
                &inputs,
                NetworkKind::Scalable,
                JoinPredicate::Equi
            )),
            want,
            "burst {burst} (uni-flow hw)"
        );
        assert_eq!(
            as_multiset(&run_biflow(&inputs, JoinPredicate::Equi)),
            want,
            "burst {burst} (bi-flow hw)"
        );
        assert_eq!(
            as_multiset(&run_splitjoin_sw(&inputs)),
            want,
            "burst {burst} (sw)"
        );
    }
}
