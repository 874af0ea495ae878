//! End-to-end checks of the live telemetry plane: an armed SplitJoin run
//! leaves behind a parseable `*.series.jsonl` artifact carrying every
//! live `splitjoin.*` key, and that file alone names the worker a
//! scripted stall froze, and no other; the handshake chain registers the
//! same per-core readings under its own name; and each engine's per-core
//! names are its own.
//!
//! The arming flag and the registry are process-global, so the tests
//! arm the plane one at a time ([`armed`]).

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use joinsw::fault::{FaultEvent, FaultPlan};
use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use joinsw::{JoinParams, StreamJoin};
use obs::health::{unhealthy, PRESSURE_HEARTBEAT_AGE_NS};
use obs::series::{SeriesDoc, SeriesHeader, SeriesWriter};
use obs::MetricKind::{self, Level, Stamp, Total};
use streamcore::workload::{KeyDist, WorkloadSpec};

/// Arms the plane and holds it for one test; the test disarms it.
fn armed() -> MutexGuard<'static, ()> {
    static PLANE: Mutex<()> = Mutex::new(());
    let held = PLANE.lock().unwrap_or_else(PoisonError::into_inner);
    obs::live::set_active(true);
    held
}

/// Every per-core reading, with the kind it is registered with.
const PER_CORE: [(&str, MetricKind); 9] = [
    ("batches", Total),
    ("tuples", Total),
    ("stored", Total),
    ("probes", Total),
    ("matches", Total),
    ("busy_ns", Total),
    ("wait_ns", Total),
    ("last_beat_ns", Stamp),
    ("ring_occupancy", Level),
];

/// Every live key a `cores`-core engine named `engine` must register at
/// spawn: the caller's, the pool's, and each core's.
fn expected_keys(engine: &str, cores: usize) -> Vec<String> {
    let mut keys: Vec<String> = ["batches", "tuples", "matches", "ring.capacity"]
        .map(|what| format!("{engine}.{what}"))
        .to_vec();
    if engine == "splitjoin" {
        keys.push("splitjoin.workers.live".to_string());
    }
    for w in 0..cores {
        for (suffix, _) in PER_CORE {
            keys.push(format!("{engine}.worker.{w}.{suffix}"));
        }
    }
    keys
}

/// The global registry reports every per-core key of a `cores`-core
/// `engine` with its kind.
fn assert_per_core_kinds(engine: &str, cores: usize) {
    let entries = obs::live::global().entries();
    for w in 0..cores {
        for (suffix, kind) in PER_CORE {
            let key = format!("{engine}.worker.{w}.{suffix}");
            let found = entries.iter().find(|(name, _, _)| *name == key);
            assert_eq!(found.map(|e| e.2), Some(kind), "the kind of {key}");
        }
    }
}

#[test]
fn the_series_file_alone_names_the_stalled_worker() {
    // Arm the plane before spawn — registration happens at spawn time.
    let _plane = armed();
    let dir = std::env::temp_dir().join(format!("live-telemetry-{}", std::process::id()));
    let mut header = SeriesHeader::new("live-e2e", 5);
    header.config("fault", "stall1@2x3000");
    let writer = SeriesWriter::create(&dir, header).unwrap();
    let sampler = obs::live::Sampler::start(
        obs::live::global().clone(),
        Duration::from_millis(5),
        writer,
    )
    .unwrap();

    // Worker 1 freezes for 3 s before its second batch. Its 4-slot lane
    // fills, and the router, still being fed, waits on it; worker 1's
    // beat stamp stays where the stall found it.
    const BATCH: usize = 32;
    let inputs: Vec<_> = WorkloadSpec::new(2_000, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    let stall = FaultEvent::Stall {
        worker: 1,
        at_batch: 2,
        millis: 3_000,
    };
    let join = SplitJoin::spawn(
        SplitJoinConfig::new(2, 64)
            .with_batch_size(BATCH)
            .with_channel_capacity(4)
            .with_fault_plan(FaultPlan::none().with(stall)),
    );
    // Each batch waits for worker 0 to finish the one before, so the
    // stall is the run's only pressure even on a starved host: a lane
    // worker 0 left full for a whole sample, because the caller outran
    // it, would be real pressure and rightly reported. It then waits two
    // sample intervals; worker 0, idle all along, stamps its beat at
    // every empty poll and must not read as silent.
    let worker0_batches =
        obs::live::global().metric("splitjoin.worker.0.batches", obs::MetricKind::Total);
    for (sent, batch) in inputs.chunks(BATCH).enumerate() {
        while worker0_batches.get() < sent as u64 {
            std::thread::sleep(Duration::from_micros(50));
        }
        std::thread::sleep(Duration::from_millis(10));
        for &(tag, t) in batch {
            join.process(tag, t).unwrap();
        }
    }
    join.flush().unwrap();
    let outcome = join.shutdown().unwrap();
    obs::live::set_active(false);
    assert!(!outcome.results.is_empty());

    let report = sampler.stop();
    assert!(report.series_error.is_none(), "{:?}", report.series_error);
    let doc = SeriesDoc::parse(&std::fs::read_to_string(&report.series_path).unwrap())
        .expect("series artifact validates");
    std::fs::remove_dir_all(&dir).ok();

    let keys = doc.keys();
    for key in expected_keys("splitjoin", 2) {
        assert!(keys.contains(&key.as_str()), "series lacks live key {key}");
    }
    assert_per_core_kinds("splitjoin", 2);
    for (suffix, kind) in PER_CORE {
        let key = format!("splitjoin.worker.1.{suffix}");
        assert_eq!(doc.kind_of(&key), kind, "the series' kind of {key}");
    }
    let tuples = doc.series_of("splitjoin.tuples");
    assert!(
        tuples.windows(2).all(|w| w[0].1 <= w[1].1),
        "counter must be monotone"
    );
    assert!(tuples.last().unwrap().1 >= 2_000);

    let stretches = unhealthy(&doc);
    let reasons: Vec<_> = stretches.iter().flat_map(|u| &u.reasons).collect();
    assert!(
        reasons.iter().any(|r| {
            r.key == "splitjoin.worker.1.last_beat_ns"
                && r.threshold == "PRESSURE_HEARTBEAT_AGE_NS"
                && r.value >= PRESSURE_HEARTBEAT_AGE_NS as f64
        }),
        "no stretch names the stalled worker: {stretches:#?}"
    );
    assert!(
        !reasons
            .iter()
            .any(|r| r.key.starts_with("splitjoin.worker.0.")),
        "a stretch names the healthy worker: {stretches:#?}"
    );
}

#[test]
fn the_chain_registers_the_same_per_core_readings() {
    let _plane = armed();
    let chain = HandshakeJoin::spawn(HandshakeConfig::new(3, 48).with_batch_size(8));
    obs::live::set_active(false);
    let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    for &(tag, t) in &inputs {
        chain.process(tag, t).unwrap();
    }
    chain.flush().unwrap();
    assert!(chain.shutdown().unwrap().result_count > 0);

    let snap = obs::live::global().values();
    for key in expected_keys("handshake", 3) {
        assert!(snap.get(&key).is_some(), "the chain lacks live key {key}");
    }
    assert_per_core_kinds("handshake", 3);
    assert!(snap.get("handshake.worker.0.busy_ns").unwrap() > 0);
    assert_eq!(snap.get("handshake.tuples"), Some(600));
}

#[test]
fn an_engine_spawned_later_owns_the_per_core_names() {
    // Two 2-core SplitJoins, A then B: the per-core names are B's, so
    // driving A alone must move none of them.
    let _plane = armed();
    let config = || SplitJoinConfig::new(2, 32).with_batch_size(16);
    let (a, b) = (SplitJoin::spawn(config()), SplitJoin::spawn(config()));
    obs::live::set_active(false);
    let names = ["batches", "busy_ns", "wait_ns", "ring_occupancy"]
        .map(|what| format!("splitjoin.worker.0.{what}"));
    let read = || {
        names
            .each_ref()
            .map(|n| obs::live::global().values().get(n))
    };
    let before = read();
    assert!(before.iter().all(Option::is_some), "{before:?}");
    let inputs: Vec<_> = WorkloadSpec::new(400, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    for &(tag, t) in &inputs {
        a.process(tag, t).unwrap();
    }
    a.flush().unwrap();
    assert!(a.shutdown().unwrap().result_count > 0);
    assert_eq!(read(), before, "A's work moved B's per-core readings");
    b.shutdown().unwrap();
}
