//! Tests of the harness itself: the contract file, the trace, small
//! end-to-end runs against the oracle, and `compare`.

use obs::json::Json;
use query::prelude::Objective;
use streamcore::workload::KeyDist;

use crate::report::{compare_docs, number, obj};
use crate::spec::{Kind, Software, BLOCK, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{layers, software};

fn small(objective: Objective, churn: bool) -> Software {
    Software {
        keys: KeyDist::Zipf { domain: 32, s: 1.0 },
        window: 64,
        objective,
        churn,
        ladder: !churn && objective == Objective::MaxThroughput,
        block: 1024,
        trace_tuples: 0,
    }
}

/// `BENCHMARK.json` names every metric of the tables, in their order,
/// with the same unit, direction and bound, and only workloads the
/// ledger knows, with their reasons.
#[test]
fn benchmark_json_repeats_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .unwrap();
    let text = |v: &Json, k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| panic!("{k} missing"))
    };

    let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (got, want) in listed.iter().zip(END_TO_END) {
        assert_eq!(
            (text(got, "name"), text(got, "unit"), text(got, "better")),
            (
                want.name.into(),
                want.unit.into(),
                want.better.as_str().into()
            )
        );
        assert_eq!(
            got.get("bound").and_then(number),
            Some(want.bound),
            "{}",
            want.name
        );
    }
    let listed = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    for (got, want) in listed.iter().zip(PER_LAYER) {
        assert_eq!(
            (text(got, "name"), text(got, "unit"), text(got, "better")),
            (
                want.name.into(),
                want.unit.into(),
                want.better.as_str().into()
            )
        );
    }
    let listed = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert!(listed.len() >= 2);
    for got in listed {
        let known = WORKLOADS
            .iter()
            .find(|w| w.name == text(got, "name"))
            .expect("a workload of the ledger");
        assert_eq!(text(got, "why"), known.why);
    }
    let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
}

#[test]
fn workload_names_are_unique_and_blocks_fit_the_churn_cadence() {
    for (i, w) in WORKLOADS.iter().enumerate() {
        assert!(WORKLOADS[..i].iter().all(|other| other.name != w.name));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        if let Kind::Software(spec) = w.kind {
            assert_eq!(spec.block % crate::spec::REPLAN_EVERY, 0);
            assert!(spec.trace_tuples > spec.warmup() + crate::spec::CHECK_BLOCKS * spec.block);
            assert!(
                !spec.ladder || spec.block == BLOCK,
                "the ladder's rungs feed whole BLOCKs"
            );
        }
    }
}

/// The written trace passes `obs::trace::validate`, the spans of one
/// block share its identifier, children lie inside their parents, and
/// the ladder's shares sum to 1.
#[test]
fn a_traced_run_writes_a_valid_trace_and_shares_that_sum_to_one() {
    let spec = small(Objective::MaxThroughput, false);
    let traced = layers::traced(&spec, 5, spec.warmup() + 3 * BLOCK + 100).expect("traced run");
    assert_eq!(traced.failed, 0);

    let doc = traced.tracer.to_json("test");
    let summary = obs::trace::validate(&Json::parse(&doc.to_compact()).unwrap())
        .expect("a valid trace document");
    let spans = traced.tracer.spans();
    assert_eq!(summary.spans, spans.len());

    for span in spans {
        assert!(span.start_ns <= span.end_ns);
        if let Some(parent) = span.parent {
            let parent = &spans[parent];
            assert!(
                parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                "{span:?} outside {parent:?}"
            );
            assert_eq!(
                span.block, parent.block,
                "{span:?} and its parent are of one block"
            );
        }
    }
    let blocks: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "block")
        .collect();
    assert_eq!(blocks.len(), (3 * BLOCK + 100usize).div_ceil(spec.block));
    for (n, &root) in blocks.iter().enumerate() {
        assert_eq!(spans[root].block, n as u64 + 1);
        let children: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.name)
            .collect();
        assert_eq!(children, ["push", "poll", "take_rows"]);
    }

    let shares: f64 = traced
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with("share."))
        .map(|(_, v)| v)
        .sum();
    assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
    assert!(traced.metrics["splitjoin.comparisons"] > 0.0);
    assert!(
        traced.metrics.contains_key("trace.overhead_share")
            && traced.metrics.contains_key("harness.overhead_share")
    );
}

#[test]
fn churn_spans_are_children_of_their_block() {
    let spec = small(Objective::MaxThroughput, true);
    let traced = layers::traced(&spec, 6, spec.warmup() + 4 * spec.block).expect("traced run");
    assert_eq!(traced.failed, 0);
    let spans = traced.tracer.spans();
    for name in ["cancel", "admit", "replan"] {
        let of_blocks = spans
            .iter()
            .filter(|s| s.name == name && s.block > 0)
            .count();
        assert!(of_blocks > 0, "no {name} span");
        assert!(spans
            .iter()
            .filter(|s| s.name == name && s.block > 0)
            .all(|s| spans[s.parent.unwrap()].name == "block"));
    }
    // One cancel + admit per 128 arrivals but the first, one re-plan per 512.
    assert!(traced.metrics["query.replan_replay_tuples"] > 0.0);
    assert_eq!(
        spans.iter().filter(|s| s.name == "cancel").count(),
        4 * spec.block / 128 - 1
    );
    assert_eq!(
        spans.iter().filter(|s| s.name == "replan").count(),
        4 * spec.block / 512 - 1
    );
}

/// One-second runs of the three kinds of software workload agree with
/// the oracle on every count and row.
#[test]
fn short_runs_agree_with_the_oracle() {
    for spec in [
        small(Objective::MaxThroughput, false),
        small(Objective::MinLatency, false),
        small(Objective::MaxThroughput, true),
    ] {
        let e = software::run(&spec, 11, 1).expect("run");
        let detail = |name: &str| {
            e.detail
                .iter()
                .find(|(k, _)| *k == name)
                .and_then(|(_, v)| v.as_u64())
                .unwrap()
        };
        assert!(detail("throughput_blocks") >= 1);
        assert!(detail("latency_samples") >= 2 * crate::spec::LATENCY_WINDOW as u64);
        assert!(e.attempted > detail("throughput_tuples") + detail("latency_samples"));
        assert_eq!(e.failed, 0, "{spec:?}");
        assert!(
            e.throughput_ktps > 0.0
                && e.latency_p50_us > 0.0
                && e.latency_p99_us >= e.latency_p50_us
                && e.setup_s > 0.0
        );
    }
}

#[test]
fn the_calm_decile_has_a_tenth_of_the_samples_beyond_it() {
    let mut samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(crate::spec::calm_rate(&mut samples), 90.0);
    assert_eq!(crate::spec::calm_time(&mut samples), 10.0);
    assert_eq!(crate::spec::calm_time(&mut [3.0]), 3.0);
}

#[test]
fn verify_counts_every_missing_or_surplus_row() {
    use crate::oracle::Tally;
    let want = std::collections::BTreeMap::from([(
        0,
        Tally {
            matches_in: 10,
            rows: 8,
            hashed_rows: 3,
            row_hash_sum: 99,
        },
    )]);
    assert_eq!(software::verify(&want, &want), 0);
    let mut got = want.clone();
    got.get_mut(&0).unwrap().rows = 5;
    assert_eq!(software::verify(&got, &want), 3);
    got = want.clone();
    got.get_mut(&0).unwrap().row_hash_sum = 98;
    assert_eq!(software::verify(&got, &want), 1, "same counts, another row");
    got.insert(
        1,
        Tally {
            matches_in: 2,
            ..Tally::default()
        },
    );
    assert_eq!(
        software::verify(&got, &want),
        3,
        "a query the oracle never admitted"
    );
}

fn result_doc(throughput: f64, latency: f64, comparisons: u64) -> Json {
    let value = |v: Json| obj(vec![("value", v), ("unit", Json::Str("x".into()))]);
    obj(vec![
        ("host_parallelism", Json::UInt(2)),
        ("cpu_model", Json::Str("test".into())),
        ("run_seconds", Json::UInt(1)),
        (
            "results",
            Json::Arr(vec![
                obj(vec![
                    ("workload", Json::Str("w".into())),
                    ("trace", Json::Bool(false)),
                    (
                        "metrics",
                        obj(vec![
                            ("throughput_ktps", value(Json::Float(throughput))),
                            ("tuple_latency_p50_us", value(Json::Float(latency))),
                        ]),
                    ),
                ]),
                obj(vec![
                    ("workload", Json::Str("w".into())),
                    ("trace", Json::Bool(true)),
                    (
                        "metrics",
                        obj(vec![(
                            "splitjoin.comparisons",
                            value(Json::UInt(comparisons)),
                        )]),
                    ),
                ]),
            ]),
        ),
    ])
}

#[test]
fn compare_flags_worse_beyond_the_bound_and_never_calls_a_wide_gap_unchanged() {
    let base = result_doc(100.0, 10.0, 7);
    let bound = END_TO_END
        .iter()
        .find(|e| e.name == "throughput_ktps")
        .unwrap()
        .bound;

    let (table, regressed) =
        compare_docs(&base, &result_doc(100.0 * (1.0 - bound / 2.0), 10.0, 7)).unwrap();
    assert!(
        !regressed && table.matches("unchanged").count() == 2,
        "{table}"
    );

    let (table, regressed) =
        compare_docs(&base, &result_doc(100.0 * (1.0 - 2.0 * bound), 10.0, 7)).unwrap();
    assert!(regressed && table.contains("WORSE"), "{table}");

    let (table, regressed) =
        compare_docs(&base, &result_doc(100.0 * (1.0 + 2.0 * bound), 10.0, 7)).unwrap();
    assert!(!regressed && table.contains("unresolved"), "{table}");

    let (table, regressed) = compare_docs(&base, &result_doc(100.0, 10.0, 8)).unwrap();
    assert!(
        regressed && table.contains("exact count DIFFERS"),
        "{table}"
    );

    let mut other_host = result_doc(100.0, 10.0, 7);
    if let Json::Obj(members) = &mut other_host {
        members[0].1 = Json::UInt(1);
    }
    assert!(
        compare_docs(&base, &other_host).is_err(),
        "results of different hosts are not compared"
    );
}
