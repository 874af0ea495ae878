//! Acceptance test for the ISSUE's multi-tenancy bar: at least four
//! concurrent standing queries sharing one worker pool, each query's
//! rows matching its single-query reference run exactly (multiset
//! equality), and a live re-plan completing with zero lost tuples.

use query::prelude::*;
use streamcore::workload::{KeyDist, WorkloadSpec};
use streamcore::{StreamTag, Tuple};

const TUPLES: usize = 6_000;
const WINDOW: usize = 64;
const CORES: usize = 4;

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register_spec("trades=sym:32,qty:32").unwrap();
    catalog.register_spec("quotes=sym:32,px:32").unwrap();
    catalog
}

fn workload() -> Vec<(StreamTag, Tuple)> {
    WorkloadSpec::new(TUPLES, KeyDist::Zipf { domain: 32, s: 1.0 })
        .with_seed(7)
        .generate()
        .collect()
}

fn fleet() -> Vec<(&'static str, LogicalPlan)> {
    let join = || LogicalPlan::source("trades").join(LogicalPlan::source("quotes"), "sym", WINDOW);
    vec![
        ("all-pairs", join()),
        (
            "big-qty",
            join().filter("qty", CmpOp::Gt, TUPLES as u64 / 2),
        ),
        (
            "px-view",
            join()
                .filter("px", CmpOp::Gt, TUPLES as u64 / 4)
                .project(["qty", "px"]),
        ),
        ("sym-only", join().project(["sym", "px"])),
    ]
}

fn stream_of(tag: StreamTag) -> &'static str {
    match tag {
        StreamTag::R => "trades",
        StreamTag::S => "quotes",
    }
}

fn solo_rows(id: &str, plan: &LogicalPlan, inputs: &[(StreamTag, Tuple)]) -> Vec<Vec<u64>> {
    let mut runtime = QueryRuntime::new(catalog(), RuntimeConfig::new(CORES));
    runtime.admit(id, plan).unwrap();
    for &(tag, tuple) in inputs {
        runtime.push(stream_of(tag), tuple).unwrap();
    }
    let mut reports = runtime.finish().unwrap();
    reports.remove(0).rows
}

fn sorted(mut rows: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    rows.sort_unstable();
    rows
}

#[test]
fn four_concurrent_queries_share_one_pool_and_survive_a_live_replan() {
    let fleet = fleet();
    let inputs = workload();

    let mut runtime = QueryRuntime::new(catalog(), RuntimeConfig::new(CORES));
    for (id, plan) in &fleet {
        runtime.admit(id, plan).unwrap();
    }
    assert_eq!(
        runtime.group_count(),
        1,
        "all four queries must share one engine group (one worker pool)"
    );

    let halfway = inputs.len() / 2;
    for (seq, &(tag, tuple)) in inputs.iter().enumerate() {
        if seq == halfway {
            let handoff = runtime.replan("all-pairs", Objective::MinLatency).unwrap();
            assert!(
                handoff.lossless(),
                "live re-plan must lose nothing: {handoff}"
            );
            assert_ne!(
                handoff.from, handoff.to,
                "objective flip should switch engines"
            );
        }
        runtime.push(stream_of(tag), tuple).unwrap();
        if seq % 1024 == 1023 {
            runtime.poll().unwrap();
        }
    }
    let reports = runtime.finish().unwrap();
    assert_eq!(reports.len(), fleet.len());

    for report in &reports {
        let (id, plan) = fleet
            .iter()
            .find(|(id, _)| *id == report.id)
            .expect("report matches an admitted query");
        assert_eq!(report.replans, 1, "{id} rides the group re-plan");
        let reference = solo_rows(id, plan, &inputs);
        assert!(
            !reference.is_empty(),
            "{id} reference run must produce rows"
        );
        assert_eq!(
            sorted(report.rows.clone()),
            sorted(reference),
            "{id}: shared (re-planned) run must equal its solo reference as a multiset"
        );
    }
}
