//! Fault-injection suite: scripted kills, stalls, drops, and panics
//! against the SplitJoin runtime, with exact completeness accounting.
//!
//! Every scenario is deterministic — fault plans fire at scripted batch
//! boundaries, never from wall-clock randomness — so the orphan counts
//! asserted here are recomputed independently by a tiny round-robin
//! model of the router rather than compared against tolerances.

use joinsw::baseline::reference_join;
use joinsw::fault::{FaultEvent, FaultPlan};
use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
use joinsw::splitjoin::{JoinOutcome, SplitJoin, SplitJoinConfig};
use joinsw::{JoinError, JoinParams, StreamJoin, DEFAULT_BATCH_SIZE};
use proptest::prelude::*;
use streamcore::{JoinPredicate, StreamTag, Tuple};

const CORES: usize = 4;

/// Alternating R/S workload with keys hashed over `domain`.
fn workload(tuples: usize, domain: u32) -> Vec<(StreamTag, Tuple)> {
    (0..tuples)
        .map(|seq| {
            let tag = if seq % 2 == 0 { StreamTag::R } else { StreamTag::S };
            let key = ((seq as u32).wrapping_mul(2_654_435_761) >> 16) % domain;
            (tag, Tuple::new(key, seq as u32))
        })
        .collect()
}

fn run(config: SplitJoinConfig, inputs: &[(StreamTag, Tuple)]) -> Result<JoinOutcome, JoinError> {
    let join = SplitJoin::spawn(config);
    for &(tag, t) in inputs {
        join.process(tag, t)?;
    }
    join.flush()?;
    join.shutdown()
}

/// Independent recount of the match-completeness loss when `victim`
/// dies after `tuples_distributed` inputs: replay the router's
/// round-robin storage discipline and count the victim's sub-window
/// occupancy per stream.
fn recount_orphans(
    inputs: &[(StreamTag, Tuple)],
    tuples_distributed: usize,
    victim: usize,
    sub_window: usize,
) -> u64 {
    let mut owned = [0u64; 2]; // victim's stored tuples per stream
    let mut arrivals = [0u64; 2]; // per-stream arrival counters
    for &(tag, _) in &inputs[..tuples_distributed] {
        let lane = (tag == StreamTag::S) as usize;
        if arrivals[lane] % CORES as u64 == victim as u64 {
            owned[lane] += 1;
        }
        arrivals[lane] += 1;
    }
    owned[0].min(sub_window as u64) + owned[1].min(sub_window as u64)
}

/// ISSUE acceptance scenario: kill worker 1 at batch 100 on 4 cores.
/// The run completes without panic, reports the loss exactly, and
/// records one recovery in the latency histogram.
#[test]
fn kill_one_worker_mid_stream_accounts_losses_exactly() {
    let window = 256;
    let batch = 16;
    let inputs = workload(4_000, 64);
    let plan = FaultPlan::none().with(FaultEvent::Kill { worker: 1, after_batch: 100 });
    let outcome = run(
        SplitJoinConfig::new(CORES, window)
            .with_batch_size(batch)
            .with_fault_plan(plan),
        &inputs,
    )
    .expect("degraded run still completes");

    assert_eq!(outcome.fault.workers_lost, vec![1]);
    // The victim processes exactly batches 1..=100 before the router
    // retires it at the scripted boundary.
    let distributed = 100 * batch;
    let want = recount_orphans(&inputs, distributed, 1, window / CORES);
    assert!(want > 0, "scenario must actually orphan tuples");
    assert_eq!(outcome.fault.orphaned_tuples, want);
    assert_eq!(outcome.fault.recovery_ns.total(), 1);
    assert!(outcome.fault.degraded());

    // Completeness genuinely degrades: strictly fewer matches than the
    // fault-free reference.
    let want_full = reference_join(&inputs, window, JoinPredicate::Equi).len() as u64;
    assert!(
        outcome.result_count < want_full,
        "lost sub-windows must cost matches: {} vs {}",
        outcome.result_count,
        want_full
    );

    // The loss lands in the manifest registry under fault.*.
    let reg = outcome.values();
    assert_eq!(reg.get("fault.workers_lost"), Some(1));
    assert_eq!(reg.get("fault.orphaned_tuples"), Some(want));
    assert_eq!(reg.get("fault.recoveries"), Some(1));
}

/// What a degraded outcome publishes under `fault.*`, sorted: the same
/// six counters on both engines that can lose a core.
const FAULT_KEYS: [&str; 6] = [
    "fault.injected_drops",
    "fault.injected_stalls",
    "fault.orphaned_tuples",
    "fault.recoveries",
    "fault.results_dropped",
    "fault.workers_lost",
];

/// A kill on SplitJoin and on the handshake chain publishes exactly
/// [`FAULT_KEYS`]: none missing, and no key the report cannot fill.
#[test]
fn a_degraded_outcome_publishes_exactly_the_fault_keys() {
    let inputs = workload(4_000, 64);
    let plan = || FaultPlan::parse("kill1@100").unwrap();
    let split = run(
        SplitJoinConfig::new(CORES, 256)
            .with_batch_size(16)
            .with_fault_plan(plan()),
        &inputs,
    )
    .unwrap();
    let chain = HandshakeJoin::spawn(HandshakeConfig::new(CORES, 64).with_fault_plan(plan()));
    for &(tag, t) in &inputs {
        chain.process(tag, t).unwrap();
    }
    chain.flush().unwrap();
    let chain = chain.shutdown().unwrap();

    for (engine, outcome) in [("splitjoin", split), ("handshake", chain)] {
        assert_eq!(outcome.fault.workers_lost, vec![1], "{engine}: the kill fired");
        let values = outcome.values();
        let mut keys: Vec<&str> = values
            .iter()
            .map(|(name, _)| name)
            .filter(|name| name.starts_with("fault."))
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, FAULT_KEYS, "{engine}");
    }
}

/// A stalled worker recovers through the supervised-send backoff: no
/// deadlock, no lost tuples, results identical to a fault-free run.
#[test]
fn stall_and_recover_preserves_results() {
    let window = 128;
    let inputs = workload(2_000, 32);
    let clean = run(
        SplitJoinConfig::new(CORES, window).with_batch_size(16),
        &inputs,
    )
    .unwrap();
    let start = std::time::Instant::now();
    let stalled = run(
        SplitJoinConfig::new(CORES, window)
            .with_batch_size(16)
            .with_fault_plan(FaultPlan::parse("stall1@3x60").unwrap()),
        &inputs,
    )
    .unwrap();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(8),
        "bounded backoff must not spiral"
    );
    assert_eq!(stalled.fault.injected_stalls, 1);
    assert!(stalled.fault.workers_lost.is_empty());
    assert_eq!(stalled.result_count, clean.result_count);
    assert_eq!(stalled.fault.orphaned_tuples, 0);
    assert!(stalled.fault.degraded(), "stalls are visible in the report");
}

/// A dropped batch loses exactly that batch's work and is counted.
#[test]
fn dropped_batch_is_counted_and_costs_matches() {
    let window = 128;
    let inputs = workload(2_000, 16);
    let clean = run(
        SplitJoinConfig::new(CORES, window).with_batch_size(16),
        &inputs,
    )
    .unwrap();
    let dropped = run(
        SplitJoinConfig::new(CORES, window)
            .with_batch_size(16)
            .with_fault_plan(FaultPlan::parse("drop1@4").unwrap()),
        &inputs,
    )
    .unwrap();
    assert_eq!(dropped.fault.injected_drops, 1);
    assert!(dropped.result_count <= clean.result_count);
    assert!(dropped.fault.degraded());
}

/// A scripted worker panic is not a degradation — it surfaces as
/// `WorkerPanicked` with the victim's stats up to the moment of death.
#[test]
fn scripted_panic_surfaces_with_stats() {
    let inputs = workload(2_000, 16);
    let join = SplitJoin::spawn(
        SplitJoinConfig::new(CORES, 128)
            .with_batch_size(16)
            .with_fault_plan(FaultPlan::parse("panic1@3").unwrap()),
    );
    let mut failed = None;
    for &(tag, t) in &inputs {
        if let Err(e) = join.process(tag, t) {
            failed = Some(e);
            break;
        }
    }
    let err = match failed {
        Some(e) => e,
        None => {
            let _ = join.flush();
            join.shutdown().expect_err("panic must surface by shutdown")
        }
    };
    match err {
        JoinError::WorkerPanicked { worker, stats_so_far } => {
            assert_eq!(worker, 1);
            assert!(stats_so_far.tuples_seen > 0, "stats survive the panic");
        }
        other => panic!("expected WorkerPanicked, got {other}"),
    }
}

/// Specs round-trip through the parser into plans that target real
/// workers (spawn validates the worker indices).
#[test]
fn fault_specs_parse_and_validate() {
    let plan = FaultPlan::parse("kill1@100,stall0@2x5,drop3@7").unwrap();
    assert_eq!(plan.events.len(), 3);
    plan.validate(CORES); // all targets < 4: fine
    assert!(FaultPlan::parse("explode1@2").is_err());
    assert!(FaultPlan::none().is_empty());
}

/// The fault plans every scripted-fault table replays: none, a kill
/// with a stall, an early kill, a stall riding the supervised-send
/// backoff, and a panic.
const PLANS: [&str; 5] = ["", "kill1,stall", "kill1@50", "stall0@3x25", "panic2@5"];

/// Each plan of the table against a 4-core run: the runtime survives
/// it — any non-panic scenario completes `Ok` with the damage on the
/// report, a panic scenario surfaces as `WorkerPanicked`, and the empty
/// plan is a healthy run.
#[test]
fn scripted_fault_plans_are_survivable() {
    let inputs = workload(4_000, 32);
    for spec in PLANS {
        let plan = FaultPlan::parse(spec).unwrap();
        let expects_panic = plan.events.iter().any(|e| matches!(e, FaultEvent::Panic { .. }));
        let scripted = !plan.is_empty();
        let result = run(
            SplitJoinConfig::new(CORES, 256)
                .with_batch_size(16)
                .with_fault_plan(plan),
            &inputs,
        );
        if expects_panic {
            assert!(matches!(result, Err(JoinError::WorkerPanicked { .. })), "{spec}");
            continue;
        }
        let outcome = result.expect("non-panic fault plans must be survivable");
        if scripted {
            assert!(outcome.fault.degraded(), "{spec}: scripted faults must be visible");
        } else {
            assert!(!outcome.fault.degraded());
            assert_eq!(
                outcome.result_count,
                reference_join(&inputs, 256, JoinPredicate::Equi).len() as u64
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An empty fault plan is bit-for-bit the plain runtime: same result
    /// multiset (asserted via the strict reference), clean fault report,
    /// no fault.* keys in the manifest registry.
    #[test]
    fn empty_fault_plan_is_equivalent_to_no_plan(
        tuples in 0usize..400,
        domain in 1u32..32,
        cores in 1usize..5,
    ) {
        let window = 16usize;
        let inputs = workload(tuples, domain);
        let effective = cores * window.div_ceil(cores);
        let want = reference_join(&inputs, effective, JoinPredicate::Equi);
        // Batch 1 is the per-tuple probe path, the default the blocked one.
        for batch in [1, DEFAULT_BATCH_SIZE] {
            let config = SplitJoinConfig::new(cores, window).with_batch_size(batch);
            let with_empty =
                run(config.clone().with_fault_plan(FaultPlan::none()), &inputs).unwrap();
            let without = run(config, &inputs).unwrap();

            prop_assert_eq!(with_empty.result_count, without.result_count);
            prop_assert_eq!(with_empty.result_count, want.len() as u64);
            prop_assert!(!with_empty.fault.degraded());
            prop_assert_eq!(with_empty.fault.recovery_ns.total(), 0);
            prop_assert_eq!(with_empty.values().get("fault.workers_lost"), None);
        }
    }
}
