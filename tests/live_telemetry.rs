//! End-to-end check of the live telemetry plane: an armed SplitJoin run
//! is observable *while it is running* — through a Prometheus-style
//! scrape of every `splitjoin.*` live gauge — and leaves behind a
//! parseable `*.series.jsonl` time-series artifact with health-derivable
//! samples.

use std::time::Duration;

use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use joinsw::{JoinParams, StreamJoin};
use streamcore::workload::{KeyDist, WorkloadSpec};

/// Every router- and worker-side live key a 2-core SplitJoin must
/// register at spawn, in dotted (registry) form.
fn expected_splitjoin_keys() -> Vec<String> {
    let mut keys: Vec<String> = [
        "splitjoin.batches",
        "splitjoin.tuples",
        "splitjoin.matches",
        "splitjoin.partition.routed",
        "splitjoin.ring.occupancy",
        "splitjoin.ring.capacity",
        "splitjoin.arena.lag",
        "splitjoin.workers.live",
    ]
    .map(String::from)
    .to_vec();
    for w in 0..2 {
        for suffix in [
            "batches",
            "tuples",
            "matches",
            "busy_ns",
            "wait_ns",
            "heartbeat_age_ns",
        ] {
            keys.push(format!("splitjoin.worker.{w}.{suffix}"));
        }
    }
    keys
}

#[test]
fn scrape_during_a_live_run_returns_every_splitjoin_gauge() {
    // Arm the plane before spawn — registration happens at spawn time.
    obs::live::set_active(true);
    let reg = obs::live::global().clone();

    let dir = std::env::temp_dir().join(format!("live-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut header = obs::series::SeriesHeader::new("live-e2e", 5);
    header.config("transport", "ring");
    let writer = obs::series::SeriesWriter::create(&dir, header).unwrap();
    let sampler = obs::live::Sampler::start_with_series(
        reg.clone(),
        obs::live::SamplerConfig {
            interval: Duration::from_millis(5),
            ..Default::default()
        },
        writer,
    );
    let server = obs::scrape::serve(reg, 0).expect("bind ephemeral scrape port");
    let addr = server.addr().to_string();

    let inputs: Vec<_> = WorkloadSpec::new(2_000, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    let join = SplitJoin::spawn(SplitJoinConfig::new(2, 64).with_batch_size(32));
    // Feed half the stream, then scrape mid-run: the run is still live
    // (workers spawned, not yet shut down) when the endpoint answers.
    let (first, second) = inputs.split_at(inputs.len() / 2);
    for &(tag, t) in first {
        join.process(tag, t).unwrap();
    }
    let body = obs::scrape::scrape_once(&addr).expect("mid-run scrape");
    for key in expected_splitjoin_keys() {
        assert!(
            body.lines()
                .any(|l| l.starts_with(&obs::scrape::metric_name(&key))),
            "scrape is missing live key {key}:\n{body}"
        );
    }
    for &(tag, t) in second {
        join.process(tag, t).unwrap();
    }
    join.flush().unwrap();
    let outcome = join.shutdown().unwrap();
    obs::live::set_active(false);
    assert!(!outcome.results.is_empty());

    assert!(server.scrapes() >= 1);
    server.stop();

    // The series artifact parses strictly and carries the splitjoin keys
    // with a sane trajectory (tuples monotone, ending >= the stream).
    let report = sampler.stop();
    assert!(report.series_error.is_none(), "{:?}", report.series_error);
    let path = report.series_path.expect("series file attached");
    let doc = obs::series::SeriesDoc::parse(&std::fs::read_to_string(&path).unwrap())
        .expect("series artifact validates");
    assert!(!doc.samples.is_empty());
    assert!(doc.keys().contains(&"splitjoin.tuples"));
    let tuples = doc.series_of("splitjoin.tuples");
    assert!(
        tuples.windows(2).all(|w| w[0].1 <= w[1].1),
        "counter must be monotone"
    );
    assert!(tuples.last().unwrap().1 >= 2_000);

    // Health derivation works over the retained ring.
    if report.snapshots.len() >= 2 {
        let h = obs::health::Health::derive(
            &report.snapshots[report.snapshots.len() - 2],
            &report.snapshots[report.snapshots.len() - 1],
        );
        assert!(h.interval_ns > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}
