//! The standing-query runtime's acceptance test: four joins sharing one
//! worker pool beside an inline tumbling aggregate, each query's rows
//! equal to its single-query reference run (multiset equality) through a
//! live re-plan that loses no tuple and whose accounting balances, and
//! each query's report, counters and manifest telling the same story.
//! Rows are taken mid-run by a rotating subset of the queries, right
//! after the re-plan too, so a query's rows are what it took plus what
//! its report still holds.

use std::collections::BTreeMap;

use obs::RunManifest;
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
        (
            "qty-sum",
            LogicalPlan::source("trades").aggregate(
                AggFunc::Sum,
                Some("qty"),
                WINDOW,
                WindowKind::Tumbling,
            ),
        ),
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
    let joined = |id: &str| id != "qty-sum";
    let inputs = workload();

    let mut runtime = QueryRuntime::new(catalog(), RuntimeConfig::new(CORES));
    for (id, plan) in &fleet {
        runtime.admit(id, plan).unwrap();
    }
    assert_eq!(
        runtime.group_count(),
        1,
        "all four joins must share one engine group (one worker pool)"
    );

    // Every `take`, a different half of the fleet takes its rows.
    let mut taken: BTreeMap<&str, Vec<Vec<u64>>> = BTreeMap::new();
    let mut takes = 0;
    let mut take = |runtime: &mut QueryRuntime| {
        for (i, (id, _)) in fleet.iter().enumerate() {
            if (i + takes) % 2 == 0 {
                let rows = runtime.take_rows(id).unwrap();
                taken.entry(*id).or_default().extend(rows);
            }
        }
        takes += 1;
    };

    let halfway = inputs.len() / 2;
    for (seq, &(tag, tuple)) in inputs.iter().enumerate() {
        if seq == halfway {
            let received = |runtime: &QueryRuntime, id: &str| {
                let cell = format!("query.{id}.matches_in");
                runtime.live().values().get(&cell).unwrap()
            };
            let before: Vec<(&str, u64)> = fleet
                .iter()
                .filter(|(id, _)| joined(id))
                .map(|(id, _)| (*id, received(&runtime, id)))
                .collect();
            let handoff = runtime.replan("all-pairs", Objective::MinLatency).unwrap();
            assert!(
                handoff.lossless(),
                "live re-plan must lose nothing: {handoff}"
            );
            assert_ne!(
                handoff.from, handoff.to,
                "objective flip should switch engines"
            );
            // The handoff's harvest is what each member received during
            // it, and by then each has every match the old engine made.
            for (id, before) in before {
                let after = received(&runtime, id);
                assert_eq!(
                    after - before,
                    handoff.drained + handoff.residual,
                    "{id}: {handoff}"
                );
                assert_eq!(after, handoff.produced_total, "{id}: {handoff}");
            }
            take(&mut runtime);
        }
        runtime.push(stream_of(tag), tuple).unwrap();
        if seq % 1024 == 1023 {
            runtime.poll().unwrap();
            take(&mut runtime);
        }
    }
    assert!(
        takes > 2 && taken.len() == fleet.len(),
        "every query took rows"
    );
    let reports = runtime.finish().unwrap();
    assert_eq!(reports.len(), fleet.len());

    for report in &reports {
        let (id, plan) = fleet
            .iter()
            .find(|(id, _)| *id == report.id)
            .expect("report matches an admitted query");
        let replans = u64::from(joined(id));
        assert_eq!(report.replans, replans, "{id} rides the group re-plan");
        let counters = report.manifest.counters();
        for (name, value) in [
            ("matches_in", report.matches_in),
            ("rows", report.rows_emitted),
            ("replans", report.replans),
        ] {
            let cell = format!("query.{id}.{name}");
            assert_eq!(counters.get(&cell), Some(value), "{cell}");
        }
        assert_eq!(
            RunManifest::from_json(&report.manifest.to_json()).as_ref(),
            Ok(&report.manifest),
            "{id}: the manifest must round-trip through JSON"
        );
        let reference = solo_rows(id, plan, &inputs);
        assert!(
            !reference.is_empty(),
            "{id} reference run must produce rows"
        );
        let mut rows = taken.remove(*id).unwrap_or_default();
        rows.extend(report.rows.iter().cloned());
        assert_eq!(
            rows.len() as u64,
            report.rows_emitted,
            "{id}: rows taken and reported are the rows emitted"
        );
        assert_eq!(
            sorted(rows),
            sorted(reference),
            "{id}: shared (re-planned) run must equal its solo reference as a multiset"
        );
    }
}
