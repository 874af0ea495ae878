use super::*;
use crate::baseline::reference_join;
use crate::config::JoinParams;
use crate::fault::{FaultEvent, FaultPlan};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use streamcore::kernel::MIN_BLOCK_PROBES;
use streamcore::workload::{KeyDist, WorkloadSpec};
use streamcore::JoinPredicate;

fn as_multiset(results: &[MatchPair]) -> HashMap<(u64, u64), u32> {
    let mut m = HashMap::new();
    for p in results {
        *m.entry((p.r.raw(), p.s.raw())).or_insert(0) += 1;
    }
    m
}

fn run_workload(config: SplitJoinConfig, inputs: &[(StreamTag, Tuple)]) -> JoinOutcome {
    let join = SplitJoin::spawn(config);
    for &(tag, t) in inputs {
        join.process(tag, t).unwrap();
    }
    join.flush().unwrap();
    join.shutdown().unwrap()
}

#[test]
fn matches_reference_exactly() {
    let inputs: Vec<_> = WorkloadSpec::new(500, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    // Core counts dividing the window: the effective window equals the
    // nominal one (see `effective_window`).
    for cores in [1usize, 2, 4, 8] {
        let outcome = run_workload(SplitJoinConfig::new(cores, 64), &inputs);
        let want = reference_join(&inputs, 64, JoinPredicate::Equi);
        assert_eq!(
            as_multiset(&outcome.results),
            as_multiset(&want),
            "mismatch with {cores} cores"
        );
        assert!(!want.is_empty());
        assert!(!outcome.fault.degraded(), "healthy run must not degrade");
    }
}

#[test]
fn every_batch_size_yields_identical_results() {
    let inputs: Vec<_> = WorkloadSpec::new(700, KeyDist::Uniform { domain: 12 })
        .generate()
        .collect();
    let want = as_multiset(&reference_join(&inputs, 48, JoinPredicate::Equi));
    assert!(!want.is_empty());
    for batch in [1usize, 2, 7, 64, 256, 4_096] {
        let outcome = run_workload(SplitJoinConfig::new(3, 48).with_batch_size(batch), &inputs);
        assert_eq!(
            as_multiset(&outcome.results),
            want,
            "mismatch at batch size {batch}"
        );
    }
}

#[test]
fn shutdown_drains_partial_batches() {
    // Regression: with `batch_size` larger than the whole stream, no
    // batch is ever full — shutdown (without an explicit flush) must
    // still deliver every buffered tuple before workers see their
    // ring close.
    let inputs: Vec<_> = WorkloadSpec::new(40, KeyDist::Uniform { domain: 4 })
        .generate()
        .collect();
    let want = reference_join(&inputs, 16, JoinPredicate::Equi);
    assert!(!want.is_empty());
    let join = SplitJoin::spawn(SplitJoinConfig::new(2, 16).with_batch_size(1_024));
    for &(tag, t) in &inputs {
        join.process(tag, t).unwrap();
    }
    let outcome = join.shutdown().unwrap(); // no flush
    assert_eq!(as_multiset(&outcome.results), as_multiset(&want));
    assert_eq!(outcome.batch_sizes.total(), 1, "one partial batch");
    assert_eq!(outcome.batch_sizes.max(), Some(40));
}

#[test]
fn uneven_core_count_rounds_the_window_up() {
    let config = SplitJoinConfig::new(7, 64);
    assert_eq!(config.sub_window(), 10);
    assert_eq!(config.effective_window(), 70);
    // Against a reference with the *effective* window, results match.
    let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    let outcome = run_workload(config, &inputs);
    let want = reference_join(&inputs, 70, JoinPredicate::Equi);
    assert_eq!(as_multiset(&outcome.results), as_multiset(&want));
}

#[test]
fn batch_processing_matches_per_tuple_processing() {
    let inputs: Vec<_> = WorkloadSpec::new(300, KeyDist::Uniform { domain: 8 })
        .generate()
        .collect();
    let per_tuple = run_workload(SplitJoinConfig::new(4, 32).with_batch_size(1), &inputs);
    let join = SplitJoin::spawn(SplitJoinConfig::new(4, 32));
    for chunk in inputs.chunks(37) {
        join.process_batch(chunk).unwrap();
    }
    join.flush().unwrap();
    let batched = join.shutdown().unwrap();
    assert_eq!(
        as_multiset(&batched.results),
        as_multiset(&per_tuple.results)
    );
}

#[test]
fn matches_reference_with_expiry() {
    let inputs: Vec<_> = WorkloadSpec::new(2_000, KeyDist::Uniform { domain: 8 })
        .generate()
        .collect();
    let outcome = run_workload(SplitJoinConfig::new(4, 32), &inputs);
    let want = reference_join(&inputs, 32, JoinPredicate::Equi);
    assert_eq!(as_multiset(&outcome.results), as_multiset(&want));
}

#[test]
fn matches_reference_under_skew() {
    let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Zipf { domain: 12, s: 0.8 })
        .generate()
        .collect();
    let want = as_multiset(&reference_join(&inputs, 48, JoinPredicate::Equi));
    assert!(!want.is_empty());
    let outcome = run_workload(SplitJoinConfig::new(3, 48), &inputs);
    assert_eq!(as_multiset(&outcome.results), want);
}

#[test]
fn every_worker_sees_every_tuple_but_stores_its_share() {
    let inputs: Vec<_> = WorkloadSpec::new(400, KeyDist::Uniform { domain: 1 << 20 })
        .generate()
        .collect();
    let outcome = run_workload(SplitJoinConfig::new(4, 80), &inputs);
    for (i, ws) in outcome.worker_stats.iter().enumerate() {
        assert_eq!(ws.tuples_seen, 400, "worker {i}");
        assert_eq!(ws.stored, 100, "worker {i}");
    }
}

#[test]
fn prefill_skips_probing_but_keeps_rotation() {
    let config = SplitJoinConfig::new(2, 8);
    let join = SplitJoin::spawn(config);
    let fill: Vec<Tuple> = (0..4u32).map(|i| Tuple::new(i, i)).collect();
    join.prefill(StreamTag::S, &fill).unwrap();
    // Probe matches exactly one prefilled tuple.
    join.process(StreamTag::R, Tuple::new(2, 99)).unwrap();
    join.flush().unwrap();
    let outcome = join.shutdown().unwrap();
    assert_eq!(outcome.result_count, 1);
    let total_comparisons: u64 = outcome.worker_stats.iter().map(|w| w.comparisons).sum();
    assert_eq!(total_comparisons, 4, "prefill must not probe");
}

#[test]
fn counting_only_discards_results() {
    let config = SplitJoinConfig::new(2, 16).counting_only();
    let join = SplitJoin::spawn(config);
    join.process(StreamTag::S, Tuple::new(1, 0)).unwrap();
    join.process(StreamTag::R, Tuple::new(1, 1)).unwrap();
    join.flush().unwrap();
    let outcome = join.shutdown().unwrap();
    assert_eq!(outcome.result_count, 1);
    assert!(outcome.results.is_empty());
}

#[test]
fn counting_only_agrees_with_collection_at_every_batch_size() {
    let inputs: Vec<_> = WorkloadSpec::new(900, KeyDist::Uniform { domain: 8 })
        .generate()
        .collect();
    let collected = run_workload(SplitJoinConfig::new(3, 24), &inputs);
    for batch in [1usize, 5, 256] {
        let counted = run_workload(
            SplitJoinConfig::new(3, 24)
                .with_batch_size(batch)
                .counting_only(),
            &inputs,
        );
        assert_eq!(counted.result_count, collected.result_count);
        assert!(counted.results.is_empty());
    }
}

#[test]
fn band_predicate_propagates_to_workers() {
    let config = SplitJoinConfig::new(3, 9).with_predicate(JoinPredicate::Band { delta: 5 });
    let join = SplitJoin::spawn(config);
    join.process(StreamTag::S, Tuple::new(100, 0)).unwrap();
    join.process(StreamTag::R, Tuple::new(104, 1)).unwrap();
    join.process(StreamTag::R, Tuple::new(106, 2)).unwrap();
    join.flush().unwrap();
    let outcome = join.shutdown().unwrap();
    assert_eq!(outcome.result_count, 1);
}

#[test]
#[should_panic(expected = "channel capacity must be positive")]
fn zero_channel_capacity_is_rejected() {
    let _ = SplitJoinConfig::new(2, 8).with_channel_capacity(0);
}

#[test]
#[should_panic(expected = "batch size must be positive")]
fn zero_batch_size_is_rejected() {
    let _ = SplitJoinConfig::new(2, 8).with_batch_size(0);
}

#[test]
#[should_panic(expected = "channel capacity must be positive")]
fn spawn_validates_direct_field_writes() {
    let mut config = SplitJoinConfig::new(2, 8);
    config.channel_capacity = 0;
    let _ = SplitJoin::spawn(config);
}

#[test]
#[should_panic(expected = "targets worker 9")]
fn spawn_validates_fault_plan_targets() {
    let mut config = SplitJoinConfig::new(2, 8);
    config.fault_plan = crate::fault::FaultPlan::parse("kill9").unwrap();
    let _ = SplitJoin::spawn(config);
}

#[test]
fn flush_is_a_real_barrier() {
    let config = SplitJoinConfig::new(4, 4_096);
    let join = SplitJoin::spawn(config);
    let fill: Vec<Tuple> = (0..4_096u32).map(|i| Tuple::new(i, i)).collect();
    join.prefill(StreamTag::S, &fill).unwrap();
    for i in 0..64u32 {
        join.process(StreamTag::R, Tuple::new(i, 1 << 20 | i))
            .unwrap();
    }
    join.flush().unwrap();
    // After flush all probes are done: every R probed its key once.
    let outcome = join.shutdown().unwrap();
    assert_eq!(outcome.result_count, 64);
}

/// `(sent, finished, queued)` per position: the two counts the barrier
/// compares, and what each distribution ring still holds.
fn epochs(join: &SplitJoin) -> (Vec<u64>, Vec<u64>, Vec<usize>) {
    let router = join.router.borrow();
    let finished = router
        .cells
        .iter()
        .map(|c| c.heartbeat.load(Ordering::Acquire))
        .collect();
    let queued = router.senders.iter().flatten().map(|tx| tx.len()).collect();
    (router.sent.clone(), finished, queued)
}

#[test]
fn an_idle_flush_moves_no_count_and_sends_nothing() {
    // The barrier compares two counts; it is not a message. With nothing
    // sent since the last one it advances neither count — no core
    // finished anything, so no core was handed anything — and the drain
    // built on it does the same.
    let join = SplitJoin::spawn(SplitJoinConfig::new(4, 64).with_batch_size(8));
    for i in 0..100u32 {
        let tag = if i % 2 == 0 {
            StreamTag::R
        } else {
            StreamTag::S
        };
        join.process(tag, Tuple::new(i / 2 % 16, i)).unwrap();
    }
    join.flush().unwrap();
    let (sent, finished, queued) = epochs(&join);
    assert_eq!(
        finished, sent,
        "behind the barrier every core has finished what it was sent"
    );
    assert!(sent.iter().sum::<u64>() > 0 && queued.iter().all(|&n| n == 0));
    join.flush().unwrap();
    assert!(!join.drain_results().unwrap().is_empty());
    assert_eq!(epochs(&join), (sent, finished, queued));
    join.shutdown().unwrap();
}

#[test]
fn batch_histogram_records_distribution_shape() {
    let join = SplitJoin::spawn(SplitJoinConfig::new(2, 8).with_batch_size(4));
    for i in 0..10u32 {
        join.process(StreamTag::R, Tuple::new(i, i)).unwrap();
    }
    join.flush().unwrap(); // two full batches of 4, one partial of 2
    let outcome = join.shutdown().unwrap();
    assert_eq!(outcome.batch_sizes.total(), 3);
    assert_eq!(outcome.batch_sizes.max(), Some(4));
    assert_eq!(outcome.batch_sizes.min(), Some(2));
    let reg = outcome.values();
    assert_eq!(reg.get("splitjoin.batches"), Some(3));
    assert!(reg.get("splitjoin.worker.0.probes").is_some());
    // Healthy run: the fault namespace must be absent.
    assert_eq!(reg.get("fault.workers_lost"), None);
}

#[test]
fn fallible_surface_round_trips_a_match() {
    let join = SplitJoin::spawn(SplitJoinConfig::new(2, 8));
    join.process(StreamTag::S, Tuple::new(3, 0)).unwrap();
    join.process(StreamTag::R, Tuple::new(3, 1)).unwrap();
    join.flush().unwrap();
    let outcome = join.shutdown().unwrap();
    assert_eq!(outcome.result_count, 1);
}

/// Batch sizes below [`MIN_BLOCK_PROBES`] keep a broadcast worker on
/// the per-tuple probe — the in-tree reference path.
const PER_TUPLE_BATCHES: [usize; 2] = [1, 7];
/// Batch sizes that engage the blocked compare tiles.
const BLOCKED_BATCHES: [usize; 3] = [8, 64, 512];

/// Runs `mk(batch)` at every per-tuple-path and blocked-path batch
/// size and asserts result multisets, counts and per-worker
/// [`WorkerStats`] all equal the `batch_size = 1` run. Returns that
/// reference run plus the `(batch, outcome)` pairs of the rest.
fn assert_batch_size_invariant(
    mk: impl Fn(usize) -> SplitJoinConfig,
    inputs: &[(StreamTag, Tuple)],
    label: &str,
) -> (JoinOutcome, Vec<(usize, JoinOutcome)>) {
    let reference = run_workload(mk(1), inputs);
    let rest: Vec<_> = PER_TUPLE_BATCHES[1..]
        .iter()
        .chain(&BLOCKED_BATCHES)
        .map(|&batch| (batch, run_workload(mk(batch), inputs)))
        .collect();
    for (batch, outcome) in &rest {
        assert_eq!(
            as_multiset(&outcome.results),
            as_multiset(&reference.results),
            "{label}: result mismatch at batch {batch}"
        );
        assert_eq!(
            outcome.result_count, reference.result_count,
            "{label}: batch {batch}"
        );
        assert_eq!(
            outcome.worker_stats, reference.worker_stats,
            "{label}: per-worker stat mismatch at batch {batch}"
        );
    }
    (reference, rest)
}

fn tiles(outcome: &JoinOutcome) -> u64 {
    outcome
        .kernel_stats
        .expect("every run carries kernel stats")
        .tiles
}

#[test]
fn blocked_path_is_bit_identical_to_per_tuple_path() {
    let inputs: Vec<_> = WorkloadSpec::new(900, KeyDist::Uniform { domain: 24 })
        .generate()
        .collect();
    for pred in [
        JoinPredicate::Equi,
        JoinPredicate::Band { delta: 3 },
        JoinPredicate::LessThan,
        JoinPredicate::All,
    ] {
        let mk = |batch| {
            SplitJoinConfig::new(3, 48)
                .with_predicate(pred)
                .with_batch_size(batch)
        };
        let (reference, rest) = assert_batch_size_invariant(mk, &inputs, &format!("{pred:?}"));
        assert_eq!(
            as_multiset(&reference.results),
            as_multiset(&reference_join(&inputs, 48, pred)),
            "{pred:?}: vs reference join"
        );
        assert_eq!(
            tiles(&reference),
            0,
            "batch 1 must stay on the per-tuple path"
        );
        for (batch, outcome) in &rest {
            let blocked = *batch >= MIN_BLOCK_PROBES;
            if !blocked {
                assert_eq!(tiles(outcome), 0, "{pred:?} batch {batch} must not tile");
            } else if pred != JoinPredicate::All {
                assert!(tiles(outcome) > 0, "{pred:?} batch {batch} never tiled");
            }
        }
    }
}

#[test]
fn blocked_path_survives_intra_batch_window_wrap() {
    // Window far smaller than the batch: most probes see snapshot
    // entries evicted mid-batch plus freshly stored siblings, so the
    // correction spans do all the work.
    let inputs: Vec<_> = WorkloadSpec::new(800, KeyDist::Uniform { domain: 6 })
        .generate()
        .collect();
    for cores in [1usize, 2, 3] {
        let mk = |batch| SplitJoinConfig::new(cores, 8).with_batch_size(batch);
        let (reference, rest) = assert_batch_size_invariant(mk, &inputs, &format!("{cores} cores"));
        let want = reference_join(&inputs, mk(1).effective_window(), JoinPredicate::Equi);
        assert_eq!(as_multiset(&reference.results), as_multiset(&want));
        let (_, widest) = rest.last().expect("blocked batch sizes ran");
        assert!(
            widest.kernel_stats.unwrap().scalar_fallbacks > 0,
            "wrap corrections must be accounted"
        );
    }
}

#[test]
fn blocked_counting_matches_per_tuple_counting() {
    let inputs: Vec<_> = WorkloadSpec::new(1_000, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    let mk = |batch| {
        SplitJoinConfig::new(3, 24)
            .with_batch_size(batch)
            .counting_only()
    };
    let (reference, rest) = assert_batch_size_invariant(mk, &inputs, "counting");
    assert_eq!(
        reference.result_count,
        reference_join(&inputs, 24, JoinPredicate::Equi).len() as u64
    );
    for (batch, outcome) in rest.iter().filter(|(b, _)| *b >= MIN_BLOCK_PROBES) {
        let ks = outcome.kernel_stats.unwrap();
        assert!(ks.tiles > 0 && ks.lanes > 0, "batch {batch}");
    }
}

#[test]
fn kernel_stats_surface_in_the_published_values() {
    let inputs: Vec<_> = WorkloadSpec::new(400, KeyDist::Uniform { domain: 8 })
        .generate()
        .collect();
    let outcome = run_workload(SplitJoinConfig::new(2, 16).with_batch_size(64), &inputs);
    let reg = outcome.values();
    assert!(reg.get("splitjoin.kernel.tiles").is_some_and(|t| t > 0));
    assert!(reg.get("splitjoin.kernel.lanes").is_some());
    assert!(reg.get("splitjoin.kernel.match_density_x1000").is_some());
    assert!(reg.get("splitjoin.kernel.scalar_fallbacks").is_some());
}

#[test]
fn tracing_records_worker_spans_without_changing_results() {
    let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    let prefill: Vec<Tuple> = (0..32u32).map(|i| Tuple::new(i, i)).collect();
    let config = || SplitJoinConfig::new(3, 64).with_batch_size(32);

    let run = |traced: bool| {
        if traced {
            obs::trace::enable(1);
        }
        let join = SplitJoin::spawn(config());
        join.prefill(StreamTag::S, &prefill).unwrap();
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        if traced {
            obs::trace::disable();
        }
        outcome
    };

    let plain = run(false);
    assert!(plain.trace.is_empty());
    let traced = run(true);

    assert_eq!(as_multiset(&plain.results), as_multiset(&traced.results));
    assert_eq!(plain.worker_stats, traced.worker_stats);

    // Healthy run: the router ring stays empty and is not attached.
    assert_eq!(traced.trace.len(), 3);
    let mut tracks: Vec<_> = traced.trace.iter().map(|r| r.track().to_string()).collect();
    tracks.sort();
    assert_eq!(tracks, ["sw.worker.0", "sw.worker.1", "sw.worker.2"]);
    for ring in &traced.trace {
        assert_eq!(ring.domain(), obs::trace::TimeDomain::Wall);
        assert!(!ring.is_empty(), "worker ring {} is empty", ring.track());
        let names: HashMap<&str, u32> = ring.events().iter().fold(HashMap::new(), |mut m, e| {
            *m.entry(e.name).or_insert(0) += 1;
            m
        });
        for name in names.keys() {
            assert!(
                ["recv", "probe", "insert", "send"].contains(name),
                "unexpected span name {name}"
            );
        }
        assert!(
            names.contains_key("probe"),
            "no probe spans on {}",
            ring.track()
        );
        assert!(
            names.contains_key("insert"),
            "no insert spans on {}",
            ring.track()
        );
    }
}

#[test]
fn a_flush_over_a_lane_that_will_never_finish_reaps_it() {
    // The victim sleeps on the message before its fatal one while the
    // router queues two more behind it, then dies inside the fatal one:
    // its epoch stops short of what it was sent, for good. The router's
    // copy of the script is blanked, so a kill is found the way a panic
    // or an organic death is — by the barrier, which must retire the
    // lane with exact orphan accounting and cover the survivors.
    let inputs: Vec<_> = WorkloadSpec::new(300, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    let (cores, window, batch, victim, fatal) = (4usize, 64usize, 50usize, 1usize, 4u64);
    for panics in [false, true] {
        let case = format!("panic {panics}");
        let fault = if panics {
            FaultEvent::Panic {
                worker: victim,
                at_batch: fatal,
            }
        } else {
            FaultEvent::Kill {
                worker: victim,
                after_batch: fatal,
            }
        };
        let plan = FaultPlan::none()
            .with(FaultEvent::Stall {
                worker: victim,
                at_batch: fatal - 1,
                millis: 50,
            })
            .with(fault);
        let config = SplitJoinConfig::new(cores, window);
        let join = SplitJoin::spawn(config.with_batch_size(batch).with_fault_plan(plan));
        join.router.borrow_mut().plan = FaultPlan::none();
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        {
            let router = join.router.borrow();
            assert!(
                router.report.workers_lost.is_empty(),
                "{case}: nothing to notice while sending"
            );
            assert!(
                router.sent[victim] > fatal,
                "{case}: messages queue behind the fatal one"
            );
        }
        let drained = join
            .drain_results()
            .expect("the barrier covers the survivors");
        assert!(!drained.is_empty(), "{case}");
        assert!(
            join.drain_results().unwrap().is_empty(),
            "{case}: nothing is returned twice"
        );
        {
            let router = join.router.borrow();
            assert_eq!(router.report.workers_lost, vec![victim], "{case}");
            let finished = |w: usize| router.cells[w].heartbeat.load(Ordering::Acquire);
            assert_eq!(
                finished(victim),
                fatal - 1,
                "{case}: the fatal message never finishes"
            );
            for &w in router.map.live() {
                assert_eq!(finished(w), router.sent[w], "{case}: survivor {w}");
            }
            // Everything any core handed over, the victim's first three
            // messages included, came out of the one drain.
            let published: u64 = router
                .cells
                .iter()
                .map(|c| c.results_published.load(Ordering::Relaxed))
                .sum();
            assert_eq!(drained.len() as u64, published, "{case}");
            // Round-robin turns: both of its sub-windows were full.
            let orphans = 2 * (window / cores) as u64;
            assert!(orphans > 0);
            assert_eq!(router.report.orphaned_tuples, orphans, "{case}");
        }
        match join.shutdown() {
            Ok(outcome) if !panics => {
                assert!(
                    outcome.results.is_empty(),
                    "{case}: the drain took everything"
                );
                assert_eq!(outcome.result_count, drained.len() as u64, "{case}");
            }
            Err(JoinError::WorkerPanicked { worker, .. }) if panics => assert_eq!(worker, victim),
            other => panic!("{case}: unexpected shutdown result {other:?}"),
        }
    }
}

#[test]
fn live_plane_registers_only_when_armed_and_exports_router_and_worker_metrics() {
    // The arming flag and the live registry are process-global and this
    // is the one test of the binary that arms, so its two phases run in
    // sequence here rather than as two tests racing on the flag.
    //
    // Unarmed: an engine must not touch the global registry. No other
    // test spawns 11 cores, so `<engine>.worker.10.` can only have been
    // registered by these engines.
    let inputs: Vec<_> = WorkloadSpec::new(50, KeyDist::Uniform { domain: 4 })
        .generate()
        .collect();
    let outcome = run_workload(SplitJoinConfig::new(11, 22), &inputs);
    assert!(!outcome.results.is_empty());
    let chain =
        crate::handshake::HandshakeJoin::spawn(crate::handshake::HandshakeConfig::new(11, 22));
    for &(tag, t) in &inputs {
        chain.process(tag, t).unwrap();
    }
    assert!(chain.shutdown().unwrap().result_count > 0);
    for prefix in ["splitjoin.worker.10.", "handshake.worker.10."] {
        assert!(
            !obs::live::global()
                .entries()
                .iter()
                .any(|(name, _, _)| name.starts_with(prefix)),
            "an unarmed engine registered live cells under {prefix}"
        );
    }

    // Armed: every exported key family shows up in the global snapshot.
    // Sibling engines spawned meanwhile can only *add* to the shared
    // counters, so the floor assertions below stay race-free.
    obs::live::set_active(true);
    let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    let outcome = run_workload(SplitJoinConfig::new(2, 32).with_batch_size(64), &inputs);
    obs::live::set_active(false);
    assert!(!outcome.results.is_empty());

    let snap = obs::live::global().values();
    for key in [
        "splitjoin.batches",
        "splitjoin.tuples",
        "splitjoin.matches",
        "splitjoin.ring.capacity",
        "splitjoin.workers.live",
        "fault.workers_lost",
        "fault.orphaned_tuples",
        "splitjoin.worker.0.batches",
        "splitjoin.worker.0.tuples",
        "splitjoin.worker.0.matches",
        "splitjoin.worker.0.busy_ns",
        "splitjoin.worker.0.wait_ns",
        "splitjoin.worker.0.last_beat_ns",
        "splitjoin.worker.1.last_beat_ns",
        "splitjoin.worker.0.ring_occupancy",
        "splitjoin.worker.1.ring_occupancy",
    ] {
        assert!(snap.get(key).is_some(), "missing live key {key}");
    }
    assert!(snap.get("splitjoin.tuples").unwrap() >= 600);
    assert!(snap.get("splitjoin.batches").unwrap() >= 600 / 64);
    assert!(snap.get("splitjoin.matches").unwrap() > 0);
    assert!(snap.get("splitjoin.ring.capacity").unwrap() > 0);
    assert!(snap.get("splitjoin.worker.0.busy_ns").unwrap() > 0);
}

#[test]
fn a_lane_gauge_follows_the_worker_draining_it() {
    // The router reads a lane's depth only when it pushes to it; blocked
    // on another lane, it would leave this one reading full after the
    // worker drained it. A cell given a pool total is armed without
    // arming the process-global plane.
    let mut cell = WorkerCell::default();
    cell.pool_matches = Some(obs::Metric::new());
    let cell = Arc::new(cell);
    let gauge = &cell.ring_occupancy;
    let (mut tx, msgs) = ring::spsc::<Msg>(4);
    for _ in 0..3 {
        gauge.set(tx.len() as u64);
        let prefill: Arc<[Tuple]> = Arc::from([Tuple::new(1, 1)]);
        assert!(tx.try_push(Msg::Prefill(StreamTag::R, prefill)).is_ok());
    }
    drop(tx);
    assert_eq!(gauge.get(), 2, "the router's last reading");
    let config = SplitJoinConfig::new(12, 24);
    let core = WorkerState::new(11, &config, msgs, Arc::clone(&cell));
    run_core(core, 11, &config.fault_plan);
    assert_eq!(gauge.get(), 0, "the worker's last pop emptied the lane");
}

#[test]
fn a_dead_worker_pins_no_batch() {
    // A worker killed after its first batch exits with two more queued;
    // once the router drops its end of the lane, nothing may still hold
    // the shared batch — neither the dead worker nor the closed ring.
    let b: Arc<[(StreamTag, Tuple)]> = Arc::from([(StreamTag::R, Tuple::new(1, 1))]);
    let (mut tx, msgs) = ring::spsc::<Msg>(4);
    for _ in 0..3 {
        assert!(tx.try_push(Msg::Batch(Arc::clone(&b))).is_ok());
    }
    let mut config = SplitJoinConfig::new(2, 8);
    config.fault_plan = FaultPlan::parse("kill0@1").unwrap();
    let cell = Arc::new(WorkerCell::default());
    let core = WorkerState::new(0, &config, msgs, Arc::clone(&cell));
    run_core(core, 0, &config.fault_plan);
    assert_eq!(
        cell.snapshot().tuples_seen,
        1,
        "the kill took the first batch"
    );
    assert!(cell.is_dead());
    drop(tx);
    assert_eq!(Arc::strong_count(&b), 1, "a batch outlived its lane");
}
