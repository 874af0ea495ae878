//! One plan, three executors, one meaning: every bound plan the three
//! executors accept — `SELECT <*|projection> FROM l JOIN r ON k WINDOW w
//! [WHERE <boolean expression>]` over one- or two-field streams, the
//! `WHERE` a conjunction (`Select`) or anything else (a truth-table
//! `SelectTable`) — returns the same row multiset on the FQP fabric
//! ([`QueryManager`]), on the hardware bridge ([`deploy_to_hardware`], 2
//! join cores) and on the standing-query runtime ([`QueryRuntime`], 2
//! cores), and that multiset is the reference join followed by the plan's
//! post-join operators. A projection that
//! names a field twice is rejected by all three with the same
//! [`PlanError::DuplicateField`].
//!
//! Where the executors differ, a named test below documents how.

mod common;

use accel_landscape::fqp::hwbridge::deploy_to_hardware;
use accel_landscape::fqp::manager::QueryManager;
use accel_landscape::fqp::plan::{bind, Catalog, Plan, PlanError, PlanOp};
use accel_landscape::fqp::query::{BoolExpr, Query};
use accel_landscape::hwsim::devices::XC7VX485T;
use accel_landscape::joinsw::baseline::reference_join;
use accel_landscape::query::{
    CompileError, LogicalPlan, QueryRuntime, RuntimeConfig, RuntimeError,
};
use accel_landscape::streamcore::{JoinPredicate, Record, StreamTag, Tuple};
use proptest::prelude::*;

/// One arrival: its stream and its full field values (key first).
type Arrival = (StreamTag, Vec<u64>);

/// `l` and `r`, each the key `k` and optionally one payload field.
fn catalog(left_arity: usize, right_arity: usize) -> Catalog {
    let mut c = Catalog::new();
    let spec = |name: &str, payload: &str, arity: usize| {
        let fields = ["k:32".to_string(), format!("{payload}:32")];
        format!("{name}={}", fields[..arity].join(","))
    };
    c.register_spec(&spec("l", "a", left_arity)).unwrap();
    c.register_spec(&spec("r", "b", right_arity)).unwrap();
    c
}

fn stream(tag: StreamTag) -> &'static str {
    match tag {
        StreamTag::R => "l",
        StreamTag::S => "r",
    }
}

fn sorted(mut rows: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    rows.sort();
    rows
}

/// The oracle: [`reference_join`] over the arrivals' keys, each match
/// widened back to `left ++ right`, then the plan's operators after the
/// join evaluated naively: a `WHERE` is the parsed `filter` evaluated
/// over its atoms' outcomes, never the bound truth table.
fn oracle(
    plan: &Plan,
    filter: Option<&BoolExpr>,
    arrivals: &[Arrival],
    window: usize,
) -> Vec<Vec<u64>> {
    let mut stores = (Vec::new(), Vec::new());
    let tuples: Vec<(StreamTag, Tuple)> = arrivals
        .iter()
        .map(|(tag, values)| {
            let store = match tag {
                StreamTag::R => &mut stores.0,
                StreamTag::S => &mut stores.1,
            };
            store.push(values.clone());
            (*tag, Tuple::new(values[0] as u32, store.len() as u32 - 1))
        })
        .collect();
    let join_at = plan
        .ops
        .iter()
        .position(|op| matches!(op, PlanOp::Join { .. }))
        .expect("a join plan");
    let mut rows = Vec::new();
    'matches: for m in reference_join(&tuples, window, JoinPredicate::Equi) {
        let mut row = stores.0[m.r.payload() as usize].clone();
        row.extend_from_slice(&stores.1[m.s.payload() as usize]);
        for op in &plan.ops[join_at + 1..] {
            match op {
                PlanOp::Select { conditions: atoms } | PlanOp::SelectTable { atoms, .. } => {
                    let outcomes: Vec<bool> = atoms
                        .iter()
                        .map(|c| c.op.eval(row[c.field], c.value))
                        .collect();
                    let filter = filter.expect("a bound WHERE has its parsed clause");
                    if !filter.eval_with(&outcomes) {
                        continue 'matches;
                    }
                }
                PlanOp::Project { fields } => row = fields.iter().map(|&i| row[i]).collect(),
                other => panic!("no post-join {other:?} in this grammar"),
            }
        }
        rows.push(row);
    }
    sorted(rows)
}

fn on_the_fabric(plan: &Plan, arrivals: &[Arrival]) -> Vec<Vec<u64>> {
    let mut mgr = QueryManager::new(plan.block_count());
    let id = mgr.deploy(plan).unwrap();
    for (tag, values) in arrivals {
        mgr.push(stream(*tag), Record::new(values.clone())).unwrap();
    }
    let rows = mgr.take_results(id).unwrap();
    sorted(rows.iter().map(|r| r.values().to_vec()).collect())
}

fn on_the_bridge(plan: &Plan, arrivals: &[Arrival]) -> Vec<Vec<u64>> {
    let mut hw = deploy_to_hardware(plan, 2, &XC7VX485T).unwrap();
    for (tag, values) in arrivals {
        hw.push(stream(*tag), Record::new(values.clone())).unwrap();
    }
    sorted(
        hw.finish()
            .unwrap()
            .iter()
            .map(|r| r.values().to_vec())
            .collect(),
    )
}

fn on_the_runtime(catalog: &Catalog, query: &Query, arrivals: &[Arrival]) -> Vec<Vec<u64>> {
    let mut rt = QueryRuntime::new(catalog.clone(), RuntimeConfig::new(2));
    rt.admit("q", &LogicalPlan::from(query.clone())).unwrap();
    for (tag, values) in arrivals {
        let payload = values.get(1).copied().unwrap_or(0);
        rt.push(stream(*tag), Tuple::new(values[0] as u32, payload as u32))
            .unwrap();
    }
    let reports = rt.finish().unwrap();
    sorted(reports.into_iter().flat_map(|r| r.rows).collect())
}

/// A plan of the shared grammar and a workload for it.
#[derive(Debug, Clone)]
struct Case {
    arity: (usize, usize),
    window: usize,
    text: String,
    /// The first field the projection names a second time, if any.
    repeated: Option<String>,
    arrivals: Vec<Arrival>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        1usize..3,
        1usize..3,
        2usize..33,
        (any::<bool>(), prop::collection::vec(0usize..4, 1..4)),
        (
            prop::collection::vec(
                (
                    0usize..4,
                    0usize..6,
                    0u64..16,
                    (any::<bool>(), any::<bool>()),
                ),
                0..4,
            ),
            any::<bool>(),
        ),
        prop::collection::vec((any::<bool>(), 0u64..4, 0u64..16), 0..60),
    )
        .prop_map(|(la, ra, half, (star, fields), (atoms, group), arrivals)| {
            // The joined record's field names: `r`'s key collides with
            // `l`'s and is renamed by `bind`.
            let names: Vec<&str> = ["k", "a"][..la]
                .iter()
                .chain(&["r_k", "b"][..ra])
                .copied()
                .collect();
            let projection: Vec<&str> = fields.iter().map(|&i| names[i % names.len()]).collect();
            let repeated = projection
                .iter()
                .enumerate()
                .find(|&(i, name)| !star && projection[..i].contains(name))
                .map(|(_, name)| name.to_string());
            let select = if star {
                "*".to_string()
            } else {
                projection.join(", ")
            };
            let window = 2 * half;
            let mut text = format!("SELECT {select} FROM l JOIN r ON k WINDOW {window}");
            // Each atom may be negated and joined to the one before by
            // OR instead of AND; `group` parenthesizes the first two.
            let ops = ["=", "!=", "<", "<=", ">", ">="];
            let grouped = group && atoms.len() > 2;
            for (i, &(f, op, v, (not, or))) in atoms.iter().enumerate() {
                let keyword = match i {
                    0 => " WHERE ",
                    _ if or => " OR ",
                    _ => " AND ",
                };
                let (open, close) = match i {
                    0 if grouped => ("( ", ""),
                    1 if grouped => ("", " )"),
                    _ => ("", ""),
                };
                let not = if not { "NOT " } else { "" };
                let name = names[f % names.len()];
                text.push_str(&format!(
                    "{keyword}{open}{not}{name} {} {v}{close}",
                    ops[op]
                ));
            }
            let arrivals = arrivals
                .into_iter()
                .map(|(is_left, key, payload)| {
                    let (tag, arity) = if is_left {
                        (StreamTag::R, la)
                    } else {
                        (StreamTag::S, ra)
                    };
                    (tag, [key, payload][..arity].to_vec())
                })
                .collect();
            Case {
                arity: (la, ra),
                window,
                text,
                repeated,
                arrivals,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_three_executors_return_the_oracles_rows(case in arb_case()) {
        let catalog = catalog(case.arity.0, case.arity.1);
        let query = Query::parse(&case.text).unwrap();
        if let Some(field) = case.repeated {
            // The fabric and the bridge run only what `bind` returns, so
            // its error is how both reject the text; `admit` binds alike.
            let want = PlanError::DuplicateField { field, context: "query output".into() };
            prop_assert_eq!(bind(&query, &catalog).unwrap_err(), want.clone(), "{}", case.text);
            let mut rt = QueryRuntime::new(catalog, RuntimeConfig::new(2));
            let err = rt.admit("q", &LogicalPlan::from(query)).unwrap_err();
            prop_assert!(
                matches!(&err, RuntimeError::Compile(CompileError::Plan(e)) if *e == want),
                "runtime: {}: {}",
                case.text,
                err
            );
            return Ok(());
        }
        let plan = bind(&query, &catalog).unwrap();
        let filter = query.join.as_ref().and_then(|j| j.filter.as_ref());
        let want = oracle(&plan, filter, &case.arrivals, case.window);
        prop_assert_eq!(&on_the_fabric(&plan, &case.arrivals), &want, "fabric: {}", case.text);
        prop_assert_eq!(&on_the_bridge(&plan, &case.arrivals), &want, "bridge: {}", case.text);
        prop_assert_eq!(
            &on_the_runtime(&catalog, &query, &case.arrivals),
            &want,
            "runtime: {}",
            case.text
        );
    }
}

/// The known difference: a `WHERE` before the `JOIN` — conjunctive or
/// boolean — filters the primary stream in front of the window on the
/// fabric and the bridge, so the window holds only accepted arrivals.
/// Both agree with the reference join over the filtered arrivals, and
/// that differs from filtering the joined records of raw windows.
/// `compile` rejects the shape: the runtime's windows hold raw arrivals
/// (CQL), so it has no place to run such a filter.
#[test]
fn a_pre_join_where_filters_before_the_window_on_the_fabric_and_the_bridge() {
    let catalog = catalog(2, 2);
    let arrivals: Vec<Arrival> = common::workload(400, 4, 7)
        .into_iter()
        .map(|(tag, t)| (tag, vec![u64::from(t.key()), u64::from(t.payload() % 16)]))
        .collect();
    let accept_conj: fn(&[u64]) -> bool = |v| v[1] > 5 && v[0] != 2;
    let accept_bool: fn(&[u64]) -> bool = |v| v[1] > 11 || v[0] == 1;
    let unfiltered_join = bind(
        &Query::parse("SELECT * FROM l JOIN r ON k WINDOW 4").unwrap(),
        &catalog,
    )
    .unwrap();
    for (text, accept) in [
        (
            "SELECT * FROM l WHERE a > 5 AND k != 2 JOIN r ON k WINDOW 4",
            accept_conj,
        ),
        (
            "SELECT * FROM l WHERE a > 11 OR k = 1 JOIN r ON k WINDOW 4",
            accept_bool,
        ),
    ] {
        let query = Query::parse(text).unwrap();
        let plan = bind(&query, &catalog).unwrap();
        let fabric = on_the_fabric(&plan, &arrivals);
        assert!(!fabric.is_empty(), "{text}");
        assert_eq!(on_the_bridge(&plan, &arrivals), fabric, "{text}");

        // The filter runs before the window…
        let filtered: Vec<Arrival> = arrivals
            .iter()
            .filter(|(tag, v)| *tag == StreamTag::S || accept(v))
            .cloned()
            .collect();
        assert_eq!(
            oracle(&unfiltered_join, None, &filtered, 4),
            fabric,
            "{text}"
        );
        // …which is not the same as filtering the join of raw windows.
        let after: Vec<Vec<u64>> = oracle(&unfiltered_join, None, &arrivals, 4)
            .into_iter()
            .filter(|row| accept(&row[..2]))
            .collect();
        assert_ne!(after, fabric, "{text}");

        let mut rt = QueryRuntime::new(catalog.clone(), RuntimeConfig::new(2));
        let err = rt.admit("q", &LogicalPlan::from(query)).unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Compile(CompileError::UnsupportedShape { .. })
            ),
            "{text}: {err}"
        );
    }
}
