//! Criterion micro-benchmarks for the building blocks underneath the
//! figure experiments: simulation kernel cycle cost, software probe cost,
//! blocked vs scalar probe kernels, FQP fabric push, and reconfiguration
//! latency.
//!
//! A measuring run (not `--test`) also archives every `(id, ns/iter)`
//! median into a `microbench` run manifest under `target/obs/`, like the
//! figure binaries do.

use criterion::{BatchSize, Criterion};
use std::hint::black_box;

use fqp::manager::QueryManager;
use fqp::plan::{bind, Catalog};
use fqp::query::Query;
use hwsim::{ParSimulator, Simulator};
use joinhw::harness::{build, prefill_steady_state, run_throughput, run_throughput_with};
use joinhw::{DesignParams, FlowModel};
use joinsw::baseline::NestedLoopJoin;
use streamcore::workload::{KeyDist, WorkloadSpec};
use streamcore::{Field, JoinPredicate, Record, Schema, StreamTag, Tuple};

fn hw_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("hw_simulation");
    for (name, flow) in [
        ("uniflow", FlowModel::UniFlow),
        ("biflow", FlowModel::BiFlow),
    ] {
        group.bench_function(format!("{name}_16core_cycle"), |b| {
            let params = DesignParams::new(flow, 16, 1 << 10);
            let mut join = build(&params);
            prefill_steady_state(join.as_mut(), 1 << 10);
            let mut sim = Simulator::new();
            let mut seq = 0u32;
            b.iter(|| {
                // Keep the design saturated while stepping one cycle.
                join.offer(StreamTag::R, Tuple::new(seq, seq));
                seq = seq.wrapping_add(1);
                sim.step(black_box(join.as_mut()));
                if join.pending_results() > 1_024 {
                    join.drain_results();
                }
            });
        });
    }
    group.finish();
}

/// Sequential vs parallel simulation engines driving the same saturated
/// 64-core uni-flow design. The parallel line runs at the host's width
/// (`ParSimulator::auto()`); the quotient of the two lines is the
/// parallel layer's wall-clock speedup on this host.
fn par_simulation(c: &mut Criterion) {
    const TUPLES: u64 = 64;
    const KEY_DOMAIN: u32 = 1 << 20;
    let params = DesignParams::new(FlowModel::UniFlow, 64, 1 << 12)
        .with_network(joinhw::NetworkKind::Scalable);
    let mut group = c.benchmark_group("par_simulation");
    group.bench_function("sequential_64core_burst", |b| {
        b.iter_batched(
            || {
                let mut join = build(&params);
                prefill_steady_state(join.as_mut(), params.window_size);
                join
            },
            |mut join| black_box(run_throughput(join.as_mut(), TUPLES, KEY_DOMAIN)),
            BatchSize::PerIteration,
        );
    });
    let threads = ParSimulator::auto().threads();
    group.bench_function(format!("parallel_64core_burst_{threads}t"), |b| {
        b.iter_batched(
            || {
                let mut join = build(&params);
                prefill_steady_state(join.as_mut(), params.window_size);
                join
            },
            |mut join| {
                black_box(run_throughput_with(
                    &mut ParSimulator::new(threads),
                    join.as_mut(),
                    TUPLES,
                    KEY_DOMAIN,
                ))
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

fn synthesis_model(c: &mut Criterion) {
    c.bench_function("synthesize_512core_report", |b| {
        let params = DesignParams::new(FlowModel::UniFlow, 512, 1 << 18)
            .with_network(joinhw::NetworkKind::Scalable);
        b.iter(|| {
            params
                .synthesize(black_box(&hwsim::devices::XC7VX485T))
                .unwrap()
        });
    });
}

fn sw_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("sw_probe");
    for exp in [10u32, 12, 14] {
        group.bench_function(format!("nested_loop_window_2e{exp}"), |b| {
            let mut join = NestedLoopJoin::new(1 << exp, JoinPredicate::Equi);
            for i in 0..(1u32 << exp) {
                join.prefill(StreamTag::S, Tuple::new(i, i));
            }
            let mut seq = 1u32 << 30;
            b.iter(|| {
                seq = seq.wrapping_add(1);
                black_box(join.process(StreamTag::R, Tuple::new(seq, 0)));
            });
        });
    }
    group.finish();
}

/// The blocked probe kernels against the scalar sweep on raw key
/// arrays: one batch of 256 probes against one window-sized slice, the
/// exact shape the SplitJoin workers hand to `streamcore::kernel`.
fn sw_kernel(c: &mut Criterion) {
    use streamcore::kernel::{count_block, emit_block, KernelStats};

    let mut group = c.benchmark_group("sw_kernel");
    const PROBES: usize = 256;
    for exp in [10u32, 12, 14] {
        let keys: Vec<u32> = (0..1u32 << exp)
            .map(|i| i.wrapping_mul(2_654_435_761) % (1 << 20))
            .collect();
        let probes: Vec<u32> = (0..PROBES as u32)
            .map(|i| i.wrapping_mul(2_246_822_519) % (1 << 20))
            .collect();
        group.bench_function(format!("scalar_count_256x2e{exp}"), |b| {
            b.iter(|| {
                let total: u64 = probes
                    .iter()
                    .map(|&p| JoinPredicate::Equi.count_matches(p, true, black_box(&keys)) as u64)
                    .sum();
                black_box(total)
            });
        });
        group.bench_function(format!("blocked_count_256x2e{exp}"), |b| {
            let mut stats = KernelStats::default();
            b.iter(|| {
                black_box(count_block(
                    JoinPredicate::Equi,
                    true,
                    black_box(&probes),
                    black_box(&keys),
                    &mut stats,
                ))
            });
        });
        group.bench_function(format!("blocked_emit_256x2e{exp}"), |b| {
            let mut stats = KernelStats::default();
            b.iter(|| {
                let mut hits = 0u64;
                emit_block(
                    JoinPredicate::Equi,
                    true,
                    black_box(&probes),
                    black_box(&keys),
                    &mut stats,
                    |_, _| hits += 1,
                );
                black_box(hits)
            });
        });
    }
    group.finish();
}

fn workload_generation(c: &mut Criterion) {
    c.bench_function("workload_generate_10k", |b| {
        let spec = WorkloadSpec::new(10_000, KeyDist::Uniform { domain: 1 << 16 });
        b.iter(|| black_box(spec.generate().count()));
    });
}

fn select_variants(c: &mut Criterion) {
    use fqp::opblock::{BlockId, BlockProgram, OpBlock, Port};
    use fqp::plan::{BoundCondition, PlanOp};
    use fqp::query::CmpOp;

    let mut group = c.benchmark_group("select_variants");
    let conditions = vec![
        BoundCondition {
            field: 0,
            op: CmpOp::Gt,
            value: 10,
        },
        BoundCondition {
            field: 1,
            op: CmpOp::Lt,
            value: 90,
        },
        BoundCondition {
            field: 2,
            op: CmpOp::Eq,
            value: 1,
        },
    ];
    group.bench_function("conjunction_3_conditions", |b| {
        let mut block = OpBlock::new(BlockId(0));
        block.reprogram(BlockProgram::Op(PlanOp::Select {
            conditions: conditions.clone(),
        }));
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(block.process(Port::Left, Record::new(vec![i % 100, i % 97, i % 2])))
        });
    });
    group.bench_function("truth_table_3_atoms", |b| {
        // Equivalent conjunction as a precomputed table (only mask 0b111
        // passes).
        let table: Vec<bool> = (0..8).map(|m| m == 7).collect();
        let mut block = OpBlock::new(BlockId(1));
        block.reprogram(BlockProgram::Op(PlanOp::SelectTable {
            atoms: conditions.clone(),
            table,
        }));
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(block.process(Port::Left, Record::new(vec![i % 100, i % 97, i % 2])))
        });
    });
    group.finish();
}

fn datapath_push(c: &mut Criterion) {
    use fqp::datapath::canonical_path;
    use fqp::plan::{BoundCondition, PlanOp};
    use fqp::query::CmpOp;

    c.bench_function("datapath_active_switch_push", |b| {
        let mut path = canonical_path();
        path.activate(
            1,
            PlanOp::Select {
                conditions: vec![BoundCondition {
                    field: 0,
                    op: CmpOp::Gt,
                    value: 90,
                }],
            },
        )
        .unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            path.push(Record::new(vec![i % 100]));
            if i.is_multiple_of(4_096) {
                path.take_delivered();
            }
        });
    });
}

fn fqp_fabric(c: &mut Criterion) {
    let mut catalog = Catalog::new();
    catalog.register(
        "customers",
        Schema::new(vec![
            Field::new("product_id", 32).unwrap(),
            Field::new("age", 8).unwrap(),
        ])
        .unwrap(),
    );
    catalog.register(
        "products",
        Schema::new(vec![
            Field::new("product_id", 32).unwrap(),
            Field::new("price", 32).unwrap(),
        ])
        .unwrap(),
    );
    let plan = bind(
        &Query::parse(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 256",
        )
        .unwrap(),
        &catalog,
    )
    .unwrap();

    c.bench_function("fabric_push_select_join", |b| {
        let mut fabric = QueryManager::new(4);
        let id = fabric.deploy(&plan).unwrap();
        for i in 0..256u64 {
            fabric
                .push("products", Record::new(vec![i, i * 2]))
                .unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            fabric
                .push("customers", Record::new(vec![i % 256, 30]))
                .unwrap();
            if i.is_multiple_of(1_024) {
                fabric.take_results(id).unwrap();
            }
        });
    });

    c.bench_function("fabric_deploy_and_undeploy", |b| {
        b.iter_batched(
            || QueryManager::new(4),
            |mut fabric| {
                let id = fabric.deploy(black_box(&plan)).unwrap();
                fabric.undeploy(id).unwrap();
            },
            BatchSize::SmallInput,
        );
    });

    c.bench_function("query_parse_and_bind", |b| {
        b.iter(|| {
            let q = Query::parse(black_box(
                "SELECT age FROM customers WHERE age > 25 \
                 JOIN products ON product_id WINDOW 1536",
            ))
            .unwrap();
            bind(&q, &catalog).unwrap()
        });
    });
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    hw_simulation(&mut criterion);
    par_simulation(&mut criterion);
    synthesis_model(&mut criterion);
    sw_probe(&mut criterion);
    sw_kernel(&mut criterion);
    workload_generation(&mut criterion);
    select_variants(&mut criterion);
    datapath_push(&mut criterion);
    fqp_fabric(&mut criterion);

    // Archive the medians like the figure binaries archive their runs.
    if !criterion.results().is_empty() {
        let mut m = bench::obsout::manifest("microbench");
        for (id, ns) in criterion.results() {
            m.counter(format!("{id}.ns_per_iter"), ns.round() as u64);
        }
        bench::obsout::emit(&m);
    }
}
