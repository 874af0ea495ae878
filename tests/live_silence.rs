//! A worker that stalls while its caller waits at the flush barrier is
//! named by the live series, on both threaded engines: nothing but the
//! worker's own beat stamp feeds the reading, so the caller's wait
//! cannot freeze it, and the handshake chain's cores report through the
//! same cells as SplitJoin's workers.
//!
//! One test function: the arming flag and the registry are
//! process-global.

use std::time::Duration;

use joinsw::fault::{FaultEvent, FaultPlan};
use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use joinsw::{JoinParams, StreamJoin};
use obs::health::unhealthy;
use obs::series::{SeriesDoc, SeriesHeader, SeriesWriter};
use streamcore::workload::{KeyDist, WorkloadSpec};

fn stall(worker: usize, at_batch: u64) -> FaultPlan {
    FaultPlan::none().with(FaultEvent::Stall {
        worker,
        at_batch,
        millis: 3_000,
    })
}

#[test]
fn a_stall_behind_the_flush_barrier_is_named_on_both_engines() {
    obs::live::set_active(true);
    let dir = std::env::temp_dir().join(format!("live-silence-{}", std::process::id()));
    let writer = SeriesWriter::create(&dir, SeriesHeader::new("live-silence", 5)).unwrap();
    let sampler = obs::live::Sampler::start(
        obs::live::global().clone(),
        Duration::from_millis(5),
        writer,
    )
    .unwrap();
    let inputs: Vec<_> = WorkloadSpec::new(64, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();

    // Both callers are at their barriers while the stalled core sleeps:
    // no batch is routed and no backoff runs that could stamp anything.
    std::thread::scope(|s| {
        s.spawn(|| {
            let join = SplitJoin::spawn(
                SplitJoinConfig::new(2, 64)
                    .with_batch_size(32)
                    .with_channel_capacity(64)
                    .with_fault_plan(stall(1, 2)),
            );
            for &(tag, t) in &inputs {
                join.process(tag, t).unwrap();
            }
            join.flush().unwrap();
            join.shutdown().unwrap();
        });
        s.spawn(|| {
            let chain =
                HandshakeJoin::spawn(HandshakeConfig::new(4, 64).with_fault_plan(stall(2, 3)));
            for &(tag, t) in &inputs[..40] {
                chain.process(tag, t).unwrap();
            }
            chain.flush().unwrap();
            chain.shutdown().unwrap();
        });
    });
    obs::live::set_active(false);

    let report = sampler.stop();
    assert!(report.series_error.is_none(), "{:?}", report.series_error);
    let doc = SeriesDoc::parse(&std::fs::read_to_string(&report.series_path).unwrap())
        .expect("series artifact validates");
    std::fs::remove_dir_all(&dir).ok();

    let stretches = unhealthy(&doc);
    let mut named: Vec<_> = stretches
        .iter()
        .flat_map(|u| &u.reasons)
        .filter(|r| r.key.contains(".worker."))
        .map(|r| r.key.as_str())
        .collect();
    named.sort_unstable();
    named.dedup();
    assert_eq!(
        named,
        [
            "handshake.worker.2.last_beat_ns",
            "splitjoin.worker.1.last_beat_ns"
        ],
        "{stretches:#?}"
    );
}
