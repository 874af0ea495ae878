//! Manifest schema 1 and series schema 1 are on-disk contracts: the first
//! two fixtures below are artifacts as the commit before the one-metric-model
//! refactor wrote them, byte for byte. They must parse unchanged and
//! re-serialize identically. The third is a schema-1 series whose lines
//! declare their keys' kinds, as the sampler writes it.

use obs::series::{SeriesDoc, SeriesWriter};
use obs::RunManifest;

const MANIFEST: &str = r#"{
  "schema": 1,
  "name": "fixture run/1",
  "git_rev": "1b2862e268f6",
  "threads": 2,
  "config": {
    "obs_feature": "on",
    "cores": "2",
    "window": "2^10"
  },
  "counters": {
    "cycles": 9007199254740999,
    "splitjoin.batches": 7,
    "splitjoin.worker0.matches": 41
  },
  "histograms": {
    "latency_ns": {
      "count": 3,
      "sum": 909,
      "min": 4,
      "max": 900,
      "p50": 7,
      "p95": 900,
      "p99": 900,
      "buckets": [
        [
          4,
          2
        ],
        [
          512,
          1
        ]
      ]
    },
    "empty": {
      "count": 0,
      "sum": null,
      "min": null,
      "max": null,
      "p50": null,
      "p95": null,
      "p99": null,
      "buckets": []
    }
  }
}
"#;

const SERIES: &str = r#"{"schema":1,"kind":"series","name":"fixture","git_rev":"1b2862e268f6","interval_ms":25,"config":{"figure":"fixture"}}
{"seq":0,"t_ns":100,"values":{"fault.workers_lost":0,"splitjoin.tuples":0}}
{"seq":1,"t_ns":250,"values":{"fault.workers_lost":0,"splitjoin.tuples":512,"splitjoin.worker.0.matches":9}}
"#;

#[test]
fn a_schema_1_manifest_round_trips_byte_for_byte() {
    let m = RunManifest::from_json(MANIFEST).expect("parent-commit manifest parses");
    assert_eq!(m.git_rev(), "1b2862e268f6");
    assert_eq!(m.counters().get("cycles"), Some((1 << 53) + 7));
    assert_eq!(m.counters().len(), 3);
    assert_eq!(m.to_json(), MANIFEST);
}

#[test]
fn a_schema_1_series_round_trips_byte_for_byte() {
    let doc = SeriesDoc::parse(SERIES).expect("parent-commit series parses");
    assert_eq!(
        doc.series_of("splitjoin.tuples"),
        vec![(100, 0), (250, 512)]
    );
    let dir = std::env::temp_dir().join(format!("series-compat-{}", std::process::id()));
    let mut writer = SeriesWriter::create(&dir, doc.header.clone()).unwrap();
    for sample in &doc.samples {
        writer.append(sample).unwrap();
    }
    let rewritten = std::fs::read_to_string(writer.finish()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(rewritten, SERIES);
}

/// Each key's kind rides on the line of its first sample; `legacy.n`
/// declares none and reads as a total.
const KINDED_SERIES: &str = r#"{"schema":1,"kind":"series","name":"kinded","git_rev":"1b2862e268f6","interval_ms":25,"config":{"figure":"swflow"}}
{"seq":0,"t_ns":100,"kinds":{"handshake.ring.capacity":"level","handshake.worker.0.busy_ns":"total","handshake.worker.0.last_beat_ns":"stamp"},"values":{"handshake.ring.capacity":64,"handshake.worker.0.busy_ns":0,"handshake.worker.0.last_beat_ns":90}}
{"seq":1,"t_ns":250,"kinds":{"handshake.worker.0.ring_occupancy":"level"},"values":{"handshake.ring.capacity":64,"handshake.worker.0.busy_ns":120,"handshake.worker.0.last_beat_ns":240,"handshake.worker.0.ring_occupancy":3}}
{"seq":2,"t_ns":400,"values":{"handshake.ring.capacity":64,"handshake.worker.0.busy_ns":300,"handshake.worker.0.last_beat_ns":0,"handshake.worker.0.ring_occupancy":0,"legacy.n":5}}
"#;

#[test]
fn a_series_with_kinds_round_trips_byte_for_byte() {
    use obs::MetricKind::{Level, Stamp, Total};
    let doc = SeriesDoc::parse(KINDED_SERIES).expect("kinded series parses");
    let kinds: Vec<_> = doc
        .keys()
        .into_iter()
        .map(|k| (k, doc.kind_of(k)))
        .collect();
    assert_eq!(
        kinds,
        [
            ("handshake.ring.capacity", Level),
            ("handshake.worker.0.busy_ns", Total),
            ("handshake.worker.0.last_beat_ns", Stamp),
            ("handshake.worker.0.ring_occupancy", Level),
            ("legacy.n", Total),
        ]
    );
    assert_eq!(
        doc.rate_of("handshake.worker.0.busy_ns"),
        Some(300.0 * 1e9 / 300.0)
    );
    assert_eq!(doc.rate_of("handshake.worker.0.ring_occupancy"), None);
    let dir = std::env::temp_dir().join(format!("series-kinded-{}", std::process::id()));
    let mut writer = SeriesWriter::create(&dir, doc.header.clone()).unwrap();
    for sample in &doc.samples {
        writer.append_kinded(sample, &doc.kinds).unwrap();
    }
    let rewritten = std::fs::read_to_string(writer.finish()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(rewritten, KINDED_SERIES);
}
