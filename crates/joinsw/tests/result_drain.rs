//! The result path, end to end: what `drain_results` returns, when, and
//! how the totals balance — healthy, across a scripted kill, and across
//! a scripted panic — for both threaded engines.
//!
//! A core publishes the matches of a message to its own outbox when the
//! message ends; a drain is the flush barrier (SplitJoin: every live
//! core has finished as many messages as it was sent; the chain: a token
//! behind the waves) followed by taking every outbox. So a drain must return *exactly* the matches of everything
//! flushed so far that no earlier drain returned: nothing in flight,
//! nothing twice.

use std::collections::{HashMap, VecDeque};

use joinsw::baseline::reference_join;
use joinsw::fault::{FaultEvent, FaultPlan};
use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use joinsw::JoinOutcome;
use joinsw::{JoinError, JoinParams, StreamJoin, DEFAULT_BATCH_SIZE};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use streamcore::{JoinPredicate, MatchPair, PartitionMap, StreamTag, Tuple};

type Multiset = HashMap<(u64, u64), u32>;

fn add(into: &mut Multiset, results: &[MatchPair]) {
    for p in results {
        *into.entry((p.r.raw(), p.s.raw())).or_insert(0) += 1;
    }
}

fn as_multiset(results: &[MatchPair]) -> Multiset {
    let mut m = Multiset::new();
    add(&mut m, results);
    m
}

/// True when every pair of `part` is in `whole`, as often.
fn is_submultiset(part: &Multiset, whole: &Multiset) -> bool {
    part.iter()
        .all(|(pair, n)| whole.get(pair).is_some_and(|m| m >= n))
}

/// Alternating R/S workload with keys hashed over `domain`.
fn workload(tuples: usize, domain: u32) -> Vec<(StreamTag, Tuple)> {
    (0..tuples)
        .map(|seq| {
            let tag = if seq % 2 == 0 {
                StreamTag::R
            } else {
                StreamTag::S
            };
            let key = ((seq as u32).wrapping_mul(2_654_435_761) >> 16) % domain;
            (tag, Tuple::new(key, seq as u32))
        })
        .collect()
}

/// Feeds `inputs` one at a time, draining after every arrival whose flag
/// is set, and checks each drain against the reference join of the
/// arrivals so far. `serialize` flushes after every arrival (the feeding
/// under which the handshake chain is reference-exact).
fn drains_partition_the_reference<J: StreamJoin>(
    config: J::Config,
    inputs: &[(StreamTag, Tuple, bool)],
    window: usize,
    serialize: bool,
) -> Result<(), TestCaseError> {
    let arrivals: Vec<(StreamTag, Tuple)> = inputs.iter().map(|&(tag, t, _)| (tag, t)).collect();
    let join = J::spawn(config);
    let mut seen = Multiset::new();
    let mut delivered = 0u64;
    for (i, &(tag, t, drain)) in inputs.iter().enumerate() {
        join.process(tag, t).unwrap();
        if serialize {
            join.flush().unwrap();
        }
        if drain {
            let got = join.drain_results().unwrap();
            delivered += got.len() as u64;
            add(&mut seen, &got);
            let want = reference_join(&arrivals[..=i], window, JoinPredicate::Equi);
            prop_assert_eq!(&seen, &as_multiset(&want), "drain after arrival {}", i);
        }
    }
    let outcome = join.shutdown().unwrap();
    add(&mut seen, &outcome.results);
    delivered += outcome.results.len() as u64;
    prop_assert_eq!(
        seen,
        as_multiset(&reference_join(&arrivals, window, JoinPredicate::Equi))
    );
    prop_assert_eq!(outcome.result_count, delivered);
    prop_assert!(!outcome.fault.degraded());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every drain returns exactly the reference matches of the arrivals
    /// flushed so far minus what earlier drains returned; the drains
    /// plus the shutdown residue are the whole reference join, and
    /// `result_count` is their total.
    #[test]
    fn every_drain_is_exactly_the_matches_flushed_since_the_last(
        inputs in prop::collection::vec(
            (any::<bool>(), 0u32..6, any::<u32>(), 0u8..6).prop_map(|(is_r, key, payload, d)| {
                let tag = if is_r { StreamTag::R } else { StreamTag::S };
                (tag, Tuple::new(key, payload), d == 0)
            }),
            0..120,
        ),
        cores in prop::sample::select(vec![1usize, 2, 4]),
        engine in 0usize..2,
        unbatched in any::<bool>(),
    ) {
        // 16 divides by every core count, so the effective window is 16.
        let window = 16usize;
        // SplitJoin's barrier counts finished messages: at batch size 1
        // every arrival is a message of its own, so every drain lands on
        // a different epoch step (the chain is unbatched by default).
        let split = SplitJoinConfig::new(cores, window)
            .with_batch_size(if unbatched { 1 } else { DEFAULT_BATCH_SIZE });
        match engine {
            0 => drains_partition_the_reference::<SplitJoin>(split, &inputs, window, false)?,
            _ => drains_partition_the_reference::<HandshakeJoin>(
                HandshakeConfig::new(cores, window), &inputs, window, true)?,
        }
    }
}

/// What a sequential model of broadcast SplitJoin says a run with one
/// scripted kill must deliver and drop.
struct KillModel {
    /// Matches delivered by the end of each chunk (cumulative).
    delivered_by_chunk: Vec<Multiset>,
    /// Matches the victim found in its last message: never published.
    dropped: u64,
}

/// Replays broadcast SplitJoin one arrival at a time: every live worker
/// probes its own sub-window rings, the partition map's owner of the
/// storage turn stores. After chunk `after_chunk` the victim's rings
/// are gone and the map re-partitions over the survivors.
fn model_broadcast_kill(
    chunks: &[&[(StreamTag, Tuple)]],
    cores: usize,
    sub_window: usize,
    victim: usize,
    after_chunk: usize,
) -> KillModel {
    let mut map = PartitionMap::identity(cores);
    let mut rings: Vec<[VecDeque<Tuple>; 2]> = vec![Default::default(); cores];
    let mut turns = [0u64; 2];
    let mut delivered = Multiset::new();
    let mut delivered_by_chunk = Vec::new();
    let mut dropped = 0u64;
    for (c, chunk) in chunks.iter().enumerate() {
        let chunk_no = c + 1;
        for &(tag, t) in chunk.iter() {
            let side = (tag == StreamTag::S) as usize;
            for &w in map.live() {
                for stored in rings[w][1 - side].iter().filter(|s| s.key() == t.key()) {
                    let pair = MatchPair::oriented(tag, t, *stored);
                    if w == victim && chunk_no == after_chunk {
                        dropped += 1;
                    } else {
                        add(&mut delivered, &[pair]);
                    }
                }
            }
            let ring = &mut rings[map.owner(turns[side])][side];
            turns[side] += 1;
            if ring.len() == sub_window {
                ring.pop_front();
            }
            ring.push_back(t);
        }
        if chunk_no == after_chunk {
            map.retire(victim);
        }
        delivered_by_chunk.push(delivered.clone());
    }
    KillModel {
        delivered_by_chunk,
        dropped,
    }
}

/// Broadcast SplitJoin across a scripted kill, drained after every
/// chunk, against the sequential model: what the victim published before
/// its kill is delivered, what it found in its last message is counted
/// as dropped, and the survivors keep joining over their own windows.
#[test]
fn a_kill_drops_exactly_the_victims_last_message() {
    let (cores, window, batch, victim, after_chunk) = (4usize, 64usize, 16usize, 1usize, 6usize);
    let inputs = workload(400, 12);
    let chunks: Vec<&[(StreamTag, Tuple)]> = inputs.chunks(batch).collect();
    let model = model_broadcast_kill(&chunks, cores, window / cores, victim, after_chunk);
    assert!(model.dropped > 0, "the scenario must actually drop matches");

    let plan = FaultPlan::none().with(FaultEvent::Kill {
        worker: victim,
        after_batch: after_chunk as u64,
    });
    let join = SplitJoin::spawn(SplitJoinConfig::new(cores, window).with_fault_plan(plan));
    let mut seen = Multiset::new();
    let mut delivered = 0u64;
    for (c, chunk) in chunks.iter().enumerate() {
        join.process_batch(chunk).unwrap();
        let got = join.drain_results().unwrap();
        delivered += got.len() as u64;
        add(&mut seen, &got);
        assert_eq!(
            seen,
            model.delivered_by_chunk[c],
            "drain after chunk {}",
            c + 1
        );
    }
    let outcome = join.shutdown().unwrap();
    assert!(outcome.results.is_empty(), "every chunk was drained");
    assert_eq!(outcome.fault.workers_lost, vec![victim]);
    assert_eq!(outcome.fault.results_dropped, model.dropped);
    assert_eq!(outcome.result_count, delivered);
    assert_every_match_is_accounted(&outcome, "kill");
}

/// Drives any engine across a scripted kill of `victim` at message
/// `after_chunk`, draining after every chunk, and checks what holds for
/// every engine: the matches of the chunks before the kill are all
/// delivered by the first drain after it, and drains plus residue are
/// the result count. Returns the outcome and everything delivered, for
/// engine-specific checks.
fn kill_keeps_what_was_published<J: StreamJoin>(
    config: J::Config,
    chunks: &[&[(StreamTag, Tuple)]],
    window: usize,
    after_chunk: usize,
    serialize: bool,
) -> (JoinOutcome, Multiset) {
    let arrivals: Vec<(StreamTag, Tuple)> = chunks.concat();
    let join = J::spawn(config);
    let mut seen = Multiset::new();
    let mut delivered = 0u64;
    let mut fed = 0usize;
    for (c, chunk) in chunks.iter().enumerate() {
        for &(tag, t) in chunk.iter() {
            join.process(tag, t).unwrap();
            if serialize {
                join.flush().unwrap();
            }
        }
        let got = join.drain_results().unwrap();
        delivered += got.len() as u64;
        add(&mut seen, &got);
        if c + 1 == after_chunk {
            let before_kill = reference_join(&arrivals[..fed], window, JoinPredicate::Equi);
            assert!(
                !before_kill.is_empty(),
                "the scenario must publish before the kill"
            );
            assert!(
                is_submultiset(&as_multiset(&before_kill), &seen),
                "matches published before the kill must be delivered"
            );
        }
        fed += chunk.len();
    }
    let outcome = join.shutdown().unwrap();
    add(&mut seen, &outcome.results);
    delivered += outcome.results.len() as u64;
    assert_eq!(outcome.result_count, delivered);
    assert!(outcome.fault.degraded());
    (outcome, seen)
}

#[test]
fn a_kill_keeps_what_was_published_on_the_handshake_chain() {
    // Serialized feeding, one wave per message, and every wave visits
    // every core, so the victim's message count is the arrival count:
    // it dies on the last arrival of chunk 3. The tail is short because
    // a flush across the cut can wait out a 50 ms timeout. (No "only
    // loses" check here: segments beyond a cut stop expiring, so a
    // severed chain can pair an arrival with a tuple the strict window
    // has already dropped.)
    let (cores, window, batch, victim, after_chunk) = (3usize, 12usize, 20usize, 1usize, 3usize);
    let inputs = workload(80, 4);
    let chunks: Vec<&[(StreamTag, Tuple)]> = inputs.chunks(batch).collect();
    let plan = FaultPlan::none().with(FaultEvent::Kill {
        worker: victim,
        after_batch: (batch * after_chunk) as u64,
    });
    let config = HandshakeConfig::new(cores, window).with_fault_plan(plan);
    let (outcome, _) =
        kill_keeps_what_was_published::<HandshakeJoin>(config, &chunks, window, after_chunk, true);
    assert_eq!(outcome.fault.workers_lost, vec![victim]);
}

/// A scripted panic takes one worker down mid-stream. The survivors'
/// barrier still completes and the drain still returns — including what
/// the victim published before it died — and the panic itself surfaces
/// at shutdown, not as a poisoned lock in the caller.
#[test]
fn a_panic_leaves_the_survivors_drain_live() {
    let inputs = workload(800, 16);
    let plan = FaultPlan::parse("panic1@3").unwrap();
    let join = SplitJoin::spawn(
        SplitJoinConfig::new(4, 128)
            .with_batch_size(16)
            .with_fault_plan(plan),
    );
    for chunk in inputs.chunks(16) {
        join.process_batch(chunk)
            .expect("survivors absorb the stream");
    }
    let drained = join
        .drain_results()
        .expect("the barrier covers the survivors");
    // Worker 1 dies in its third batch; it had published the first two.
    // (No "only loses" check: the router notices a panic some batches
    // late, and at that re-partition a survivor's storage turn can slip
    // by two, keeping a tuple that long past the strict window.)
    let before_panic = reference_join(&inputs[..32], 128, JoinPredicate::Equi);
    assert!(!before_panic.is_empty());
    assert!(is_submultiset(
        &as_multiset(&before_panic),
        &as_multiset(&drained)
    ));
    assert!(
        join.drain_results().expect("and again").is_empty(),
        "nothing is returned twice"
    );
    match join.shutdown() {
        Err(JoinError::WorkerPanicked { worker, .. }) => assert_eq!(worker, 1),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn a_panic_leaves_the_chains_drain_live() {
    let inputs = workload(60, 4);
    let plan = FaultPlan::parse("panic1@10").unwrap();
    let join = HandshakeJoin::spawn(HandshakeConfig::new(3, 12).with_fault_plan(plan));
    for &(tag, t) in &inputs[..20] {
        join.process(tag, t).unwrap();
        join.flush().unwrap();
    }
    let drained = join.drain_results().expect("a severed chain still drains");
    // Core 1 dies on the tenth arrival; the nine before it were flushed
    // one by one, so every core had published their matches.
    let before_panic = reference_join(&inputs[..9], 12, JoinPredicate::Equi);
    assert!(!before_panic.is_empty());
    assert!(is_submultiset(
        &as_multiset(&before_panic),
        &as_multiset(&drained)
    ));
    assert!(matches!(
        join.shutdown(),
        Err(JoinError::WorkerPanicked { worker: 1, .. })
    ));
}

/// Every match a core found is either in the result count or counted
/// as dropped.
fn assert_every_match_is_accounted(outcome: &JoinOutcome, case: &str) {
    let found: u64 = outcome.worker_stats.iter().map(|w| w.matches).sum();
    assert_eq!(
        outcome.result_count + outcome.fault.results_dropped,
        found,
        "{case}"
    );
}

/// Each plan of the fault table (see `fault_injection.rs`) with a drain
/// every few batches. Whatever the plan does, the drains plus the
/// residue are the result count, and every match a worker found is
/// either in that count or counted as dropped.
#[test]
fn scripted_fault_plans_keep_the_drain_accounting_exact() {
    let inputs = workload(4_000, 32);
    for spec in ["", "kill1,stall", "kill1@50", "stall0@3x25", "panic2@5"] {
        let plan = FaultPlan::parse(spec).unwrap();
        let expects_panic = plan
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::Panic { .. }));
        let healthy = plan.is_empty();
        let join = SplitJoin::spawn(
            SplitJoinConfig::new(4, 256)
                .with_batch_size(16)
                .with_fault_plan(plan),
        );
        let mut delivered = 0u64;
        for (i, chunk) in inputs.chunks(16).enumerate() {
            join.process_batch(chunk).unwrap();
            if i % 7 == 6 {
                delivered += join.drain_results().unwrap().len() as u64;
            }
        }
        let outcome = match join.shutdown() {
            Ok(outcome) => outcome,
            Err(JoinError::WorkerPanicked { .. }) if expects_panic => continue,
            Err(e) => panic!("{spec}: non-panic fault plans must be survivable: {e}"),
        };
        assert!(!expects_panic, "{spec}: the panic must surface");
        delivered += outcome.results.len() as u64;
        assert_eq!(outcome.result_count, delivered, "{spec}");
        assert_every_match_is_accounted(&outcome, spec);
        if healthy {
            let want = reference_join(&inputs, 256, JoinPredicate::Equi).len() as u64;
            assert_eq!(outcome.result_count, want);
        }
    }
}

/// The chain reports its cores' statistics like SplitJoin does, so it is
/// held to the same identity: healthy, across a kill drained mid-run
/// (the victim's last wave group is the dropped part), and counting-only
/// (nothing is published, so nothing can be dropped).
#[test]
fn the_chain_accounts_for_every_match_its_cores_found() {
    let inputs = workload(160, 4);
    for (spec, collect) in [
        ("", true),
        ("kill1@50", true),
        ("", false),
        ("kill1@50", false),
    ] {
        let case = format!("plan `{spec}`, collecting {collect}");
        let mut config =
            HandshakeConfig::new(3, 12).with_fault_plan(FaultPlan::parse(spec).unwrap());
        config.collect_results = collect;
        let join = HandshakeJoin::spawn(config);
        let mut delivered = 0u64;
        for (i, &(tag, t)) in inputs.iter().enumerate() {
            join.process(tag, t).unwrap();
            if i % 10 == 9 {
                delivered += join.drain_results().unwrap().len() as u64;
            }
        }
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.worker_stats.len(), 3, "{case}");
        assert_eq!(outcome.fault.degraded(), !spec.is_empty(), "{case}");
        assert_every_match_is_accounted(&outcome, &case);
        if collect {
            assert!(outcome.result_count > 0, "{case}: the scenario must match");
            assert_eq!(
                outcome.result_count,
                delivered + outcome.results.len() as u64,
                "{case}"
            );
        } else {
            assert_eq!((delivered, outcome.results.len()), (0, 0), "{case}");
            assert_eq!(outcome.fault.results_dropped, 0, "{case}");
        }
    }
}
