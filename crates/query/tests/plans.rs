//! Every standing query the repo builds, through the one front end: the
//! builder's `Query` prints as text `Query::parse` reads back to the same
//! `Query`, and `compile` picks the engines and raises the errors it did
//! before the builder wrote `Query`s (values recorded at that parent).
//! The one exception is the window-16 projected joins, which land where
//! the bare join does: a projection never moves a join's engine.

use fqp::query::Query;
use query::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for spec in [
        "trades=sym:32,qty:32",
        "quotes=sym:32,px:32",
        "orders=sym:32,lot:32",
        "beats=node:32",
        "heartbeats=node:32",
        "l1=k:32",
        "l2=k:32,v:32",
        "r1=k:32",
        "r2=k:32,w:32",
    ] {
        c.register_spec(spec).unwrap();
    }
    c
}

fn join(window: usize) -> LogicalPlan {
    LogicalPlan::source("trades").join(LogicalPlan::source("quotes"), "sym", window)
}

fn trades() -> LogicalPlan {
    LogicalPlan::source("trades")
}

const SPLIT: &str = "Baseline Handshake Split Handshake Split Handshake";
const INLINE: &str = "Inline Inline Inline Inline Inline Inline";

/// `(plan, its text, its engines)`: the `runtime.rs` tests, the
/// `tests/concurrent.rs` fleet, the `standing_queries` example's fleet,
/// the ledger's templates (`benchmark/src/spec.rs`) at its windows, and
/// the crate's doc examples. Engines are `compile(..).engine` at cores
/// 1, 2, 4, each under `MaxThroughput` then `MinLatency`.
fn plans() -> Vec<(LogicalPlan, &'static str, &'static str)> {
    let mut plans = vec![
        (
            join(16),
            "SELECT * FROM trades JOIN quotes ON sym WINDOW 16",
            SPLIT,
        ),
        (
            join(16).filter("qty", CmpOp::Gt, 500),
            "SELECT * FROM trades JOIN quotes ON sym WINDOW 16 WHERE qty > 500",
            SPLIT,
        ),
        (
            join(16).project(["qty", "px"]),
            "SELECT qty, px FROM trades JOIN quotes ON sym WINDOW 16",
            SPLIT,
        ),
        (
            join(16).project(["qty"]),
            "SELECT qty FROM trades JOIN quotes ON sym WINDOW 16",
            SPLIT,
        ),
        (
            trades().filter("qty", CmpOp::Gt, 10).project(["sym"]),
            "SELECT sym FROM trades WHERE qty > 10",
            INLINE,
        ),
        (
            trades().aggregate(AggFunc::Sum, Some("qty"), 4, WindowKind::Tumbling),
            "SELECT SUM(qty) FROM trades WINDOW 4 TUMBLING",
            INLINE,
        ),
        (trades(), "SELECT * FROM trades", INLINE),
        (LogicalPlan::source("beats"), "SELECT * FROM beats", INLINE),
        (
            LogicalPlan::source("quotes").join(LogicalPlan::source("orders"), "sym", 16),
            "SELECT * FROM quotes JOIN orders ON sym WINDOW 16",
            SPLIT,
        ),
        (
            join(8).filter("qty", CmpOp::Gt, 10),
            "SELECT * FROM trades JOIN quotes ON sym WINDOW 8 WHERE qty > 10",
            SPLIT,
        ),
        (
            join(1024)
                .filter("qty", CmpOp::Gt, 10)
                .project(["qty", "px"]),
            "SELECT qty, px FROM trades JOIN quotes ON sym WINDOW 1024 WHERE qty > 10",
            SPLIT,
        ),
        (
            join(64)
                .filter("qty", CmpOp::Gt, 10)
                .filter("px", CmpOp::Lt, 50),
            "SELECT * FROM trades JOIN quotes ON sym WINDOW 64 WHERE qty > 10 AND px < 50",
            SPLIT,
        ),
        (
            trades().filter("qty", CmpOp::Ge, 5).project(["qty"]),
            "SELECT qty FROM trades WHERE qty >= 5",
            INLINE,
        ),
        (
            LogicalPlan::source("heartbeats").aggregate(
                AggFunc::Count,
                None,
                16,
                WindowKind::Tumbling,
            ),
            "SELECT COUNT(*) FROM heartbeats WINDOW 16 TUMBLING",
            INLINE,
        ),
        (
            trades().aggregate(AggFunc::Sum, Some("qty"), 256, WindowKind::Tumbling),
            "SELECT SUM(qty) FROM trades WINDOW 256 TUMBLING",
            INLINE,
        ),
    ];
    // The shared-group fleets: `concurrent.rs` (window 64, thresholds
    // from 6 000 tuples), the `standing_queries` example (256, from
    // 20 000) and the ledger (512 and 8 192, over the `u32` range).
    for (window, qty, px) in [
        (64, 3_000, 1_500),
        (256, 6_666, 10_000),
        (512, (1 << 32) / 3, 1 << 31),
        (8192, (1 << 32) / 3, 1 << 31),
    ] {
        plans.extend(
            [
                (join(window), SPLIT),
                (join(window).filter("qty", CmpOp::Gt, qty), SPLIT),
                (
                    join(window)
                        .filter("px", CmpOp::Gt, px)
                        .project(["qty", "px"]),
                    SPLIT,
                ),
                (join(window).project(["sym", "px"]), SPLIT),
            ]
            .map(|(plan, engines)| (plan, "", engines)),
        );
    }
    for (left, right) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
        let plan = LogicalPlan::source(format!("l{left}")).join(
            LogicalPlan::source(format!("r{right}")),
            "k",
            8,
        );
        plans.push((plan, "", SPLIT));
    }
    plans
}

#[test]
fn every_plan_prints_the_query_it_holds() {
    for (plan, text, _) in plans() {
        let printed = plan.to_string();
        if !text.is_empty() {
            assert_eq!(printed, text);
        }
        assert_eq!(
            &Query::parse(&printed).unwrap(),
            plan.query().unwrap(),
            "{printed}"
        );
    }
}

#[test]
fn engine_decisions_are_unchanged() {
    let catalog = catalog();
    for (plan, _, engines) in plans() {
        let mut got = Vec::new();
        for cores in [1, 2, 4] {
            for objective in [Objective::MaxThroughput, Objective::MinLatency] {
                let compiled = compile(&plan, &catalog, cores, objective).unwrap();
                got.push(format!("{:?}", compiled.engine));
            }
        }
        assert_eq!(got.join(" "), engines, "{plan}");
    }
}

#[test]
fn rejected_shapes_keep_their_errors() {
    let count = |plan: LogicalPlan| plan.aggregate(AggFunc::Count, None, 8, WindowKind::Sliding);
    let raw = |side| {
        format!(
            "filter below the {side} side of a join — windows run over raw arrivals \
             (CQL semantics); apply filters above the join instead"
        )
    };
    let shapes = [
        (
            trades()
                .filter("qty", CmpOp::Gt, 1)
                .join(LogicalPlan::source("quotes"), "sym", 8),
            raw("left"),
        ),
        (
            trades().join(
                LogicalPlan::source("quotes").filter("px", CmpOp::Gt, 1),
                "sym",
                8,
            ),
            raw("right"),
        ),
        (
            trades().join(trades(), "sym", 8),
            "self-join of stream \"trades\"".into(),
        ),
        (count(join(8)), "aggregate over a join".into()),
        (
            trades().project(["qty"]).project(["qty"]),
            "more than one projection".into(),
        ),
        (
            trades().project(["qty"]).filter("qty", CmpOp::Gt, 1),
            "projection below a filter (filter first, then project)".into(),
        ),
        (
            count(trades()).project(["count"]),
            "aggregate must be the topmost operator of its pipeline".into(),
        ),
        (
            count(trades()).filter("qty", CmpOp::Gt, 1),
            "aggregate must be the topmost operator of its pipeline".into(),
        ),
        (
            count(trades().project(["qty"])),
            "projection below an aggregate".into(),
        ),
        (count(count(trades())), "nested aggregates".into()),
    ];
    let catalog = catalog();
    for (plan, what) in shapes {
        let e = compile(&plan, &catalog, 2, Objective::MaxThroughput).unwrap_err();
        assert_eq!(e, CompileError::UnsupportedShape { what }, "{plan}");
    }

    let unknown = |field: &str, context: &str| {
        CompileError::Plan(PlanError::UnknownField {
            field: field.into(),
            context: context.into(),
        })
    };
    let bad_bindings = [
        (
            join(8).filter("volume", CmpOp::Gt, 1),
            unknown("volume", "joined record"),
        ),
        (
            LogicalPlan::source("nope").filter("x", CmpOp::Eq, 1),
            CompileError::Plan(PlanError::UnknownStream {
                stream: "nope".into(),
            }),
        ),
        (join(8).project(["nope"]), unknown("nope", "query output")),
        (
            LogicalPlan::source("l1").join(LogicalPlan::source("quotes"), "sym", 8),
            unknown("sym", "l1"),
        ),
    ];
    for (plan, error) in bad_bindings {
        let e = compile(&plan, &catalog, 2, Objective::MaxThroughput).unwrap_err();
        assert_eq!(e, error, "{plan}");
    }
}
