//! One metric model, checked end to end: when an engine publishes a
//! quantity both into the armed live registry and in what it hands back
//! at shutdown, both carry it under the same key — so the same name means
//! the same number, and a run manifest agrees with the last sample of the
//! run's series.
//!
//! One test function: the arming flag and the registry are
//! process-global, and the phases below clear and re-read them in turn.

use std::collections::BTreeMap;

use accel_landscape::hwsim::{Control, Engine, ParSimulator};
use accel_landscape::joinhw::harness::{build, prefill_steady_state};
use accel_landscape::joinhw::{DesignParams, FlowModel, NetworkKind};
use joinsw::fault::FaultPlan;
use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use joinsw::{JoinParams, StreamJoin};
use streamcore::workload::{KeyDist, WorkloadSpec};
use streamcore::StreamTag;

/// Every key both maps hold carries one value, `must_share` is among
/// them, and no two names differ only in punctuation
/// (`splitjoin.worker0.x` beside `splitjoin.worker.0.x`).
fn assert_same_name_same_number(published: &obs::Values, live: &obs::Values, must_share: &[&str]) {
    for (name, value) in published.iter() {
        if let Some(cell) = live.get(name) {
            assert_eq!(cell, value, "`{name}`: live cell vs published value");
        }
    }
    for key in must_share {
        assert!(
            published.get(key).is_some(),
            "`{key}` not published at shutdown"
        );
        assert!(live.get(key).is_some(), "`{key}` not in the live registry");
    }
    let mut spellings = BTreeMap::new();
    for (name, _) in published.iter().chain(live.iter()) {
        let bare: String = name.chars().filter(char::is_ascii_alphanumeric).collect();
        let first = *spellings.entry(bare).or_insert(name);
        assert_eq!(first, name, "one quantity under two spellings");
    }
}

/// A skewed stream over both sides.
fn skewed() -> Vec<(StreamTag, streamcore::Tuple)> {
    WorkloadSpec::new(3_000, KeyDist::Zipf { domain: 32, s: 1.2 })
        .generate()
        .collect()
}

/// Runs `config` armed over [`skewed`] (after an R-side prefill) from a
/// registry cleared of earlier phases; returns what the engine published
/// and the registry's final reading.
fn armed_splitjoin(config: SplitJoinConfig) -> (obs::Values, obs::Values) {
    let reg = obs::live::global();
    reg.remove_prefix("splitjoin.");
    reg.remove_prefix("fault.");
    let inputs = skewed();
    let join = SplitJoin::spawn(config);
    let seed: Vec<_> = inputs[..64].iter().map(|&(_, t)| t).collect();
    join.prefill(StreamTag::R, &seed).unwrap();
    for &(tag, t) in &inputs {
        join.process(tag, t).unwrap();
    }
    join.flush().unwrap();
    let outcome = join.shutdown().unwrap();
    assert!(outcome.result_count > 0);
    (outcome.values(), reg.values())
}

#[test]
fn same_name_means_same_number_at_shutdown() {
    obs::live::set_active(true);
    let workers = [
        "splitjoin.batches",
        "splitjoin.matches",
        "splitjoin.worker.0.matches",
        "splitjoin.worker.1.matches",
        "splitjoin.worker.0.probes",
        "splitjoin.worker.0.stored",
    ];

    let (published, live) = armed_splitjoin(SplitJoinConfig::new(2, 64).with_batch_size(32));
    assert_same_name_same_number(&published, &live, &workers);

    // A degraded run publishes `fault.*` at shutdown; the live cells
    // counted the same losses as they happened.
    let plan = FaultPlan::parse("kill1@20").unwrap();
    let (published, live) = armed_splitjoin(
        SplitJoinConfig::new(2, 64)
            .with_batch_size(32)
            .with_fault_plan(plan),
    );
    assert_eq!(published.get("fault.workers_lost"), Some(1));
    assert_same_name_same_number(
        &published,
        &live,
        &["fault.workers_lost", "fault.orphaned_tuples"],
    );

    // The handshake chain publishes under its own namespace: its wave
    // groups are `handshake.batches`, its pool total `handshake.matches`,
    // and each core's cell its `handshake.worker.<i>.*` keys, both live
    // and at shutdown.
    let reg = obs::live::global();
    reg.remove_prefix("handshake.");
    let chain = HandshakeJoin::spawn(HandshakeConfig::new(2, 64).with_batch_size(16));
    for (tag, t) in skewed() {
        chain.process(tag, t).unwrap();
    }
    chain.flush().unwrap();
    let outcome = chain.shutdown().unwrap();
    assert!(outcome.result_count > 0);
    let published = outcome.values();
    let foreign: Vec<_> = published
        .iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("splitjoin."))
        .collect();
    assert!(foreign.is_empty(), "the chain published {foreign:?}");
    assert_same_name_same_number(
        &published,
        &reg.values(),
        &[
            "handshake.batches",
            "handshake.matches",
            "handshake.worker.0.matches",
            "handshake.worker.0.probes",
            "handshake.worker.1.matches",
            "handshake.worker.1.probes",
        ],
    );

    // One drive segment of the parallel simulator: its report and the
    // cells it accumulated into agree on every `hwsim.par.*` key.
    let params =
        DesignParams::new(FlowModel::UniFlow, 8, 1 << 6).with_network(NetworkKind::Scalable);
    let mut design = build(&params);
    prefill_steady_state(design.as_mut(), params.window_size);
    let mut sim = ParSimulator::new(2);
    sim.run_driven(design.as_mut(), 200, &mut |_, _| Control::Continue);
    obs::live::set_active(false);
    let stats = sim.take_stats().expect("the segment recorded stats");
    assert_eq!(stats.cycles, 200);
    assert_same_name_same_number(
        &stats.values(),
        &obs::live::global().values(),
        &[
            "hwsim.par.cycles",
            "hwsim.par.threads",
            "hwsim.par.worker.1.shards_executed",
        ],
    );
}
