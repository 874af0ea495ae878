//! Property-based tests over the core data structures and the headline
//! correctness invariant: every join realization agrees with the strict
//! reference on arbitrary workloads.

mod common;

use accel_landscape::hwsim::Fifo;
use accel_landscape::joinhw::harness::run_stream;
use accel_landscape::joinhw::uniflow::UniFlowJoin;
use accel_landscape::joinhw::{DesignParams, FlowModel, JoinOperator, JoinPredicate};
use accel_landscape::joinsw::baseline::reference_join;
use accel_landscape::joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use accel_landscape::joinsw::StreamJoin;
use accel_landscape::streamcore::{Field, Schema, SlidingWindow, StreamTag, Tuple};
use proptest::prelude::*;

use common::as_multiset;

fn arb_inputs(max_len: usize, domain: u32) -> impl Strategy<Value = Vec<(StreamTag, Tuple)>> {
    prop::collection::vec(
        (any::<bool>(), 0..domain, any::<u32>()).prop_map(|(is_r, key, payload)| {
            let tag = if is_r { StreamTag::R } else { StreamTag::S };
            (tag, Tuple::new(key, payload))
        }),
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The hardware uni-flow design implements strict join semantics on
    /// arbitrary input interleavings, including expiry.
    #[test]
    fn uniflow_hw_matches_reference(inputs in arb_inputs(120, 6), cores in 1u32..5) {
        let window = 16usize;
        let params = DesignParams::new(FlowModel::UniFlow, cores, window);
        let mut join = UniFlowJoin::new(&params);
        join.program(JoinOperator::equi(cores));
        let (got, _) = run_stream(&mut join, &inputs, 2_000_000)
            .map_err(|stall| TestCaseError::fail(format!("stalled: {stall}")))?;
        // Effective window: cores x ceil(window/cores).
        let effective = cores as usize * window.div_ceil(cores as usize);
        let want = reference_join(&inputs, effective, JoinPredicate::Equi);
        prop_assert_eq!(as_multiset(&got), as_multiset(&want));
    }

    /// The multithreaded software SplitJoin implements strict semantics.
    #[test]
    fn splitjoin_sw_matches_reference(inputs in arb_inputs(200, 8), cores in 1usize..5) {
        let window = 24usize;
        let join = SplitJoin::spawn(SplitJoinConfig::new(cores, window));
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        join.flush().unwrap();
        let got = join.shutdown().unwrap().results;
        let effective = cores * window.div_ceil(cores);
        let want = reference_join(&inputs, effective, JoinPredicate::Equi);
        prop_assert_eq!(as_multiset(&got), as_multiset(&want));
    }

    /// A sliding window always retains exactly the most recent `min(n, W)`
    /// inserts, in order.
    #[test]
    fn sliding_window_keeps_newest(cap in 1usize..20, values in prop::collection::vec(any::<u32>(), 0..100)) {
        let mut w = SlidingWindow::new(cap);
        for &v in &values {
            w.insert(v);
        }
        let kept: Vec<u32> = w.iter().copied().collect();
        let start = values.len().saturating_sub(cap);
        prop_assert_eq!(&kept[..], &values[start..]);
        prop_assert!(w.len() <= cap);
    }

    /// FIFO elements come out exactly once, in push order, across random
    /// sequences of clocked pushes and pops.
    #[test]
    fn fifo_is_order_preserving_and_lossless(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut fifo: Fifo<u32> = Fifo::new(4);
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        let mut next = 0u32;
        for &do_push in &ops {
            fifo.begin_cycle();
            if do_push && fifo.can_push() {
                fifo.push(next).unwrap();
                pushed.push(next);
                next += 1;
            }
            if !do_push {
                if let Some(v) = fifo.pop() {
                    popped.push(v);
                }
            }
            fifo.commit();
        }
        // Drain the remainder.
        fifo.begin_cycle();
        while let Some(v) = fifo.pop() {
            popped.push(v);
        }
        prop_assert_eq!(popped, pushed);
    }

    /// Operator instructions decode back to what was encoded.
    #[test]
    fn operator_encoding_round_trips(cores in 1u32..1025, delta in any::<u32>(), kind in 0u8..4) {
        let predicate = match kind {
            0 => JoinPredicate::Equi,
            1 => JoinPredicate::Band { delta },
            2 => JoinPredicate::LessThan,
            _ => JoinPredicate::All,
        };
        let op = JoinOperator { num_cores: cores, predicate };
        prop_assert_eq!(JoinOperator::decode(op.encode()).unwrap(), op);
    }

    /// Schema vertical partitioning covers every field exactly once and
    /// respects the segment budget.
    #[test]
    fn schema_segments_partition_fields(widths in prop::collection::vec(1u8..33, 1..12), budget in 33u32..128) {
        let fields: Vec<Field> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| Field::new(format!("f{i}"), w).unwrap())
            .collect();
        let schema = Schema::new(fields).unwrap();
        let segments = schema.segments(budget).unwrap();
        // Coverage: the segments concatenate to 0..arity.
        let mut covered = Vec::new();
        for s in &segments {
            prop_assert!(!s.is_empty());
            let bits: u32 = schema.fields()[s.clone()]
                .iter()
                .map(|f| f.width_bits() as u32)
                .sum();
            prop_assert!(bits <= budget);
            covered.extend(s.clone());
        }
        prop_assert_eq!(covered, (0..schema.arity()).collect::<Vec<_>>());
    }

    /// Workload generation is a pure function of the spec.
    #[test]
    fn workload_is_deterministic(seed in any::<u64>(), n in 1usize..200) {
        use accel_landscape::streamcore::workload::{KeyDist, WorkloadSpec};
        let spec = WorkloadSpec::new(n, KeyDist::Uniform { domain: 32 }).with_seed(seed);
        let a: Vec<_> = spec.generate().collect();
        let b: Vec<_> = spec.generate().collect();
        prop_assert_eq!(a, b);
    }

    /// The query parser never panics, on any input string.
    #[test]
    fn query_parser_is_total(input in ".{0,200}") {
        use accel_landscape::fqp::query::Query;
        let _ = Query::parse(&input);
    }

    /// A precomputed truth table agrees with direct Boolean evaluation on
    /// every record — the Ibex-style compilation is semantics-preserving.
    #[test]
    fn truth_table_select_equals_direct_evaluation(
        records in prop::collection::vec((0u64..10, 0u64..10, 0u64..10), 1..60),
        thresholds in (0u64..10, 0u64..10, 0u64..10),
    ) {
        use accel_landscape::fqp::opblock::{BlockId, BlockProgram, OpBlock, Port};
        use accel_landscape::fqp::plan::{bind, Catalog, PlanOp};
        use accel_landscape::fqp::query::Query;
        use accel_landscape::streamcore::Record;

        let mut catalog = Catalog::new();
        catalog.register(
            "s",
            Schema::new(vec![
                Field::new("a", 8).unwrap(),
                Field::new("b", 8).unwrap(),
                Field::new("c", 8).unwrap(),
            ])
            .unwrap(),
        );
        let (ta, tb, tc) = thresholds;
        let text = format!(
            "SELECT * FROM s WHERE (a > {ta} OR NOT b > {tb}) AND NOT (c > {tc} AND a > {tb})"
        );
        let query = Query::parse(&text).unwrap();
        let expr = query.filter.clone().expect("a WHERE clause");
        let plan = bind(&query, &catalog).unwrap();
        let op = plan.ops[0].clone();
        assert!(matches!(op, PlanOp::SelectTable { .. }), "expected truth-table select");

        let mut block = OpBlock::new(BlockId(0));
        block.reprogram(BlockProgram::Op(op));
        for (a, b, c) in records {
            let rec = Record::new(vec![a, b, c]);
            // Direct evaluation of the expression on this record.
            let outcomes: Vec<bool> = expr
                .atoms()
                .iter()
                .map(|cond| {
                    let idx = ["a", "b", "c"]
                        .iter()
                        .position(|n| *n == cond.field)
                        .unwrap();
                    cond.op.eval(rec.values()[idx], cond.value)
                })
                .collect();
            let want = expr.eval_with(&outcomes);
            let got = !block.process(Port::Left, rec).is_empty();
            prop_assert_eq!(got, want, "record mismatch under {}", text);
        }
    }

    /// Queries that do parse render to text that re-parses to the same
    /// AST (display/parse round-trip on a generated query space).
    #[test]
    fn parsed_queries_round_trip(
        has_where in any::<bool>(),
        has_join in any::<bool>(),
        has_post_where in any::<bool>(),
        window in 1usize..10_000,
        value in any::<u32>(),
    ) {
        use accel_landscape::fqp::query::Query;
        let mut text = String::from("SELECT * FROM customers");
        if has_where {
            text.push_str(&format!(" WHERE age > {value}"));
        }
        if has_join {
            text.push_str(&format!(" JOIN products ON product_id WINDOW {window}"));
            // The join's own WHERE, over the joined record.
            if has_post_where {
                text.push_str(&format!(" WHERE price <= {value} AND age != 3"));
            }
        }
        let q = Query::parse(&text).unwrap();
        prop_assert_eq!(Query::parse(&q.to_string()).unwrap(), q);
    }

    /// The hash core's indexed window retains exactly the same tuples as
    /// the nested sub-window across arbitrary store sequences, and each
    /// probe's hits are the sub-window's filtered scan, oldest first.
    #[test]
    fn hash_window_equals_subwindow(
        cap in 1usize..16,
        keys in prop::collection::vec(0u32..8, 0..80),
    ) {
        use accel_landscape::joinhw::SubWindow;
        use accel_landscape::streamcore::HashIndexWindow;
        let mut hash = HashIndexWindow::new(cap);
        let mut nested = SubWindow::new(cap);
        for (i, &k) in keys.iter().enumerate() {
            let t = Tuple::new(k, i as u32);
            hash.insert(t);
            nested.begin_cycle();
            nested.store(t);
        }
        prop_assert_eq!(hash.iter().collect::<Vec<_>>(), nested.snapshot());
        for probe in 0u32..8 {
            let scan: Vec<Tuple> = nested
                .snapshot()
                .into_iter()
                .filter(|t| t.key() == probe)
                .collect();
            prop_assert_eq!(hash.probe(probe).collect::<Vec<_>>(), scan);
        }
    }

    /// QueryManager deploy/undeploy sequences keep the fabric consistent:
    /// surviving queries keep producing correct results, no edge targets
    /// an idle block, only deployed queries have an output node and an
    /// edge into it (so only they receive a pushed record), each undeploy
    /// returns exactly the records its query had not taken, and fully
    /// undeploying returns every block to the pool.
    #[test]
    fn query_manager_lifecycle_is_consistent(ops in prop::collection::vec(0u8..4, 1..12)) {
        use accel_landscape::fqp::manager::QueryManager;
        use accel_landscape::fqp::plan::{bind, Catalog};
        use accel_landscape::fqp::query::Query;
        use accel_landscape::streamcore::{Field, Record, Schema};

        let mut catalog = Catalog::new();
        catalog
            .register("s", Schema::new(vec![Field::new("v", 32).unwrap()]).unwrap());
        // Two plans sharing a select prefix.
        let p1 = bind(&Query::parse("SELECT * FROM s WHERE v > 10").unwrap(), &catalog).unwrap();
        let p2 = bind(&Query::parse("SELECT v FROM s WHERE v > 10").unwrap(), &catalog).unwrap();

        // 0 deploys the next plan, 1 undeploys the newest query and 2 the
        // oldest, which may share blocks a later query still runs on; 3
        // leaves this round's results untaken. `live` holds each query
        // with the count of its untaken results, each one `[50]`.
        let mut mgr = QueryManager::new(6);
        let mut live = Vec::new();
        let mut counter = 0u64;
        for &op in &ops {
            if op == 0 {
                let plan = if counter.is_multiple_of(2) { &p1 } else { &p2 };
                if let Ok(id) = mgr.deploy(plan) {
                    live.push((id, 0));
                }
                counter += 1;
            } else if op < 3 && !live.is_empty() {
                let (id, untaken) = if op == 1 { live.pop().unwrap() } else { live.remove(0) };
                prop_assert_eq!(mgr.undeploy(id).unwrap(), vec![Record::new(vec![50]); untaken]);
            }
            let wiring = Wiring::of(&mgr.to_dot());
            prop_assert!(
                wiring.block_targets.iter().all(|b| !wiring.idle.contains(b)),
                "an edge targets an idle block:\n{}",
                mgr.to_dot()
            );
            prop_assert_eq!(wiring.outputs, live.len(), "{}", mgr.to_dot());
            prop_assert_eq!(wiring.output_edges, live.len(), "{}", mgr.to_dot());
            // Every surviving query still answers correctly.
            if !live.is_empty() {
                mgr.push("s", Record::new(vec![50])).unwrap();
                mgr.push("s", Record::new(vec![5])).unwrap();
                for (id, untaken) in &mut live {
                    *untaken += 1;
                    if op != 3 {
                        prop_assert_eq!(mgr.take_results(*id).unwrap().len(), *untaken);
                        *untaken = 0;
                    }
                }
            }
        }
        for (id, untaken) in live {
            prop_assert_eq!(mgr.undeploy(id).unwrap().len(), untaken);
        }
        prop_assert_eq!(mgr.idle_blocks(), 6);
        prop_assert_eq!(mgr.sharing_report().queries, 0);
    }
}

/// The wiring a [`QueryManager::to_dot`](accel_landscape::fqp::manager::QueryManager::to_dot)
/// rendering shows: idle blocks, the blocks edges lead into, the number
/// of query output nodes and the number of edges into them.
struct Wiring {
    idle: Vec<String>,
    block_targets: Vec<String>,
    outputs: usize,
    output_edges: usize,
}

impl Wiring {
    fn of(dot: &str) -> Self {
        let mut wiring = Wiring {
            idle: Vec::new(),
            block_targets: Vec::new(),
            outputs: 0,
            output_edges: 0,
        };
        for line in dot.lines().map(str::trim) {
            let head = line.split([' ', ';']).next().unwrap_or_default();
            if line.contains("style=dashed") {
                wiring.idle.push(head.to_string());
            } else if line.contains("shape=doublecircle") {
                wiring.outputs += 1;
            } else if let Some((_, to)) = line.split_once(" -> ") {
                let to = to.split([' ', ';']).next().unwrap_or_default();
                if to.starts_with("query") {
                    wiring.output_edges += 1;
                } else {
                    wiring.block_targets.push(to.to_string());
                }
            }
        }
        wiring
    }
}
