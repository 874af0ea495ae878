//! The traced run of a software workload: per-layer metrics over a fixed
//! prefix of the stream, so that every count repeats exactly.
//!
//! Nothing inside the program is instrumented. The harness (1) records a
//! span around each of its calls into `query::QueryRuntime`, and (2)
//! replays the same arrivals up a ladder of configurations, each adding
//! one layer of the path, so that the differences between successive
//! rungs are the layers' shares and sum to the end-to-end time by
//! construction.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use joinsw::prelude::*;
use query::compile::Shape;
use query::prelude::{compile, Objective};
use streamcore::kernel::{count_block, emit_block, KernelStats};
use streamcore::ring::{batch_arena, spsc};
use streamcore::{FlatWindow, HashIndexWindow, JoinPredicate, MatchPair, StreamTag, Tuple};

use crate::oracle::{Tally, WindowJoin};
use crate::report::{Metrics, Traced};
use crate::software::{replay, verify, Driver, Noop, Runtime, Segment, Sink, Totals};
use crate::spec::{
    catalog, median, Software, Stream, Template, BLOCK, CHECK_BLOCKS, CORES, JOIN_TEMPLATES,
};
use crate::trace::Tracer;

type Arrival = (StreamTag, Tuple);

/// Above this share the run measures the harness, not the program.
const MAX_HARNESS_SHARE: f64 = 0.05;
/// Matches kept from the materializing rung for the post-pipeline metric.
const KEPT_MATCHES: usize = 1 << 20;
/// Arrivals given to the measurements that are slow per arrival and are
/// not rungs: the emitting kernel and the nested-loop baseline.
const SIDE_PREFIX: usize = 100_000;

/// The first `tuples` arrivals of the workload's stream.
fn prefix(spec: &Software, seed: u64, tuples: usize) -> Vec<Arrival> {
    let mut stream = Stream::new(spec.keys, seed);
    let mut inputs = Vec::with_capacity(tuples);
    while inputs.len() < tuples {
        inputs.extend_from_slice(stream.take(BLOCK.min(tuples - inputs.len())));
    }
    inputs
}

struct Drive {
    /// Seconds of the timed blocks.
    blocks_s: f64,
    program: BTreeMap<usize, Tally>,
    totals: Totals,
}

/// The end-to-end path over a fixed input: set-up on `warmup`, then
/// `rest` in blocks, then `finish`.
fn drive<S: Sink>(
    spec: &Software,
    sink: S,
    fleet: &[Template],
    (warmup, rest): (&[Arrival], &[Arrival]),
    tracer: &mut Tracer,
) -> Result<Drive, String> {
    let mut driver = Driver::setup(spec, sink, fleet, warmup, tracer)?;
    let mut blocks_s = 0.0;
    for (i, block) in rest.chunks(spec.block).enumerate() {
        blocks_s += driver.block(block, i < CHECK_BLOCKS, tracer)?;
    }
    let (program, totals) = driver.finish(tracer)?;
    Ok(Drive {
        blocks_s,
        program,
        totals,
    })
}

pub fn traced(spec: &Software, seed: u64, tuples: usize) -> Result<Traced, String> {
    if tuples <= spec.warmup() {
        return Err(format!(
            "a traced run needs more than the {} warm-up arrivals",
            spec.warmup()
        ));
    }
    let inputs = prefix(spec, seed, tuples);
    let split = inputs.split_at(spec.warmup());
    let fleet = spec.fleet();
    let mut m = Metrics::new();

    let untraced = drive(
        spec,
        Runtime::new(spec),
        &fleet,
        split,
        &mut Tracer::new(false),
    )?;
    let mut tracer = Tracer::new(true);
    let run = drive(spec, Runtime::new(spec), &fleet, split, &mut tracer)?;
    let noop = drive(
        spec,
        Noop::default(),
        &fleet,
        split,
        &mut Tracer::new(false),
    )?;

    let segments = [
        Segment::Warmup(split.0.len()),
        Segment::Blocks(split.1.len()),
    ];
    let oracle = replay(
        spec,
        &fleet,
        &mut Stream::new(spec.keys, seed),
        &segments,
        CHECK_BLOCKS,
    );
    let failed = verify(&run.program, &oracle);
    let attempted = tuples as u64 + fleet.len() as u64 + run.totals.control_ops;

    m.insert(
        "trace.overhead_share",
        run.blocks_s / untraced.blocks_s - 1.0,
    );
    let harness_share = noop.blocks_s / untraced.blocks_s;
    m.insert("harness.overhead_share", harness_share);
    if harness_share > MAX_HARNESS_SHARE {
        return Err(format!(
            "the generator loop alone takes {harness_share:.3} of the timed segment"
        ));
    }

    // Where the caller waits, from the spans of the timed blocks (the
    // set-up's own push and poll are not part of them).
    let in_blocks = |name: &str| {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name && s.block > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum::<f64>()
    };
    m.insert("query.push_share", in_blocks("push") / run.blocks_s);
    m.insert("query.poll_share", in_blocks("poll") / run.blocks_s);
    m.insert(
        "query.take_rows_share",
        in_blocks("take_rows") / run.blocks_s,
    );
    m.insert(
        "query.finish_share",
        tracer.total_s("finish") / run.blocks_s,
    );
    m.insert(
        "query.matches_in",
        run.program.values().map(|t| t.matches_in).sum::<u64>() as f64,
    );
    m.insert(
        "query.rows_out",
        run.program.values().map(|t| t.rows).sum::<u64>() as f64,
    );
    m.insert("group.arrivals", run.totals.group_arrivals as f64);
    m.insert("group.drained", run.totals.group_drained as f64);

    if spec.churn {
        // Calls per second at the median call's duration.
        let rate = |name: &str| 1.0 / median(&mut tracer.durations_s(name));
        m.insert("query.admits_per_ms", rate("admit") / 1e3);
        m.insert("query.cancels_per_ms", rate("cancel") / 1e3);
        m.insert("query.replans_per_s", rate("replan"));
        m.insert("query.replan_replay_tuples", run.totals.replayed as f64);
        m.insert("query.replan_duplicates", run.totals.duplicates as f64);
    }
    match spec.objective {
        Objective::MaxThroughput => {
            split_join_control(spec, &mut m)?;
            rings(&mut m);
        }
        Objective::MinLatency => handshake(spec, &inputs, &mut m)?,
    }
    if spec.ladder {
        ladder(spec, split, run.blocks_s, &mut m)?;
        baseline(spec, &inputs, &mut m)?;
        windows(spec, &inputs, &mut m);
    }
    let detail = vec![("tuples", obs::json::Json::UInt(tuples as u64))];
    Ok(Traced {
        tracer,
        metrics: m,
        attempted,
        failed,
        detail,
    })
}

fn engine_error(e: JoinError) -> String {
    format!("engine: {e}")
}

/// Seconds to feed `rest` to a warmed SplitJoin in blocks, `feed`
/// submitting one block and `settle` ending it (flush or drain).
fn split_join_rung(
    config: SplitJoinConfig,
    (warmup, rest): (&[Arrival], &[Arrival]),
    mut feed: impl FnMut(&SplitJoin, &[Arrival]) -> Result<(), JoinError>,
    mut settle: impl FnMut(&SplitJoin) -> Result<(), JoinError>,
) -> Result<(f64, JoinOutcome), String> {
    let join = SplitJoin::spawn(config);
    join.process_batch(warmup).map_err(engine_error)?;
    settle(&join).map_err(engine_error)?;
    let start = Instant::now();
    for block in rest.chunks(BLOCK) {
        feed(&join, block).map_err(engine_error)?;
        settle(&join).map_err(engine_error)?;
    }
    let seconds = start.elapsed().as_secs_f64();
    Ok((seconds, join.shutdown().map_err(engine_error)?))
}

/// The ladder. Every rung sees the same warm-up and the same `rest`.
fn ladder(
    spec: &Software,
    split: (&[Arrival], &[Arrival]),
    fleet_s: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let config = || SplitJoinConfig::new(CORES, spec.window);

    // Rung 1: the probe kernel alone, on one thread, over full-size
    // windows: twice one worker's share of the compares, hence the /2.
    let (count_s, stats) = kernel_rung(spec, split, false);
    let side = (split.0, &split.1[..split.1.len().min(SIDE_PREFIX)]);
    let (emit_s, emit_stats) = kernel_rung(spec, side, true);
    let kernel_s = count_s / 2.0;
    m.insert(
        "kernel.count_gcmp_per_s",
        stats.lanes as f64 / count_s / 1e9,
    );
    m.insert(
        "kernel.emit_gcmp_per_s",
        emit_stats.lanes as f64 / emit_s / 1e9,
    );
    m.insert(
        "kernel.match_density",
        stats.match_bits as f64 / stats.lanes.max(1) as f64,
    );

    // Rung 2: router, arena / ring and workers, counting only.
    let (counting_s, _) = split_join_rung(
        config().counting_only(),
        split,
        |j, block| j.process_batch(block),
        |j| j.flush(),
    )?;

    // Rung 3: materializing results, drained per block.
    let mut kept: Vec<MatchPair> = Vec::new();
    let (mut drain_s, mut drained) = (0.0, 0u64);
    let (materialize_s, outcome) = split_join_rung(
        config(),
        split,
        |j, block| j.process_batch(block),
        |j| {
            let start = Instant::now();
            let matches = j.drain_results()?;
            drain_s += start.elapsed().as_secs_f64();
            drained += matches.len() as u64;
            kept.extend(matches.into_iter().take(KEPT_MATCHES - kept.len()));
            Ok(())
        },
    )?;
    m.insert(
        "splitjoin.drain_mmatches_per_s",
        drained as f64 / drain_s / 1e6,
    );
    m.insert(
        "splitjoin.comparisons",
        outcome
            .worker_stats
            .iter()
            .map(|w| w.comparisons)
            .sum::<u64>() as f64,
    );
    m.insert(
        "splitjoin.kernel_tiles",
        outcome.kernel_stats.map_or(0, |k| k.tiles) as f64,
    );
    if let Some(ring) = &outcome.ring_stats {
        m.insert(
            "splitjoin.ring_peak_occupancy",
            ring.peak_occupancy.get() as f64,
        );
        m.insert("splitjoin.claim_waits", ring.claim_wait_ns.total() as f64);
    }

    // Rung 4: the same, fed a tuple at a time, as `QueryRuntime` feeds it.
    let (per_tuple_s, _) = split_join_rung(
        config(),
        split,
        |j, block| {
            block
                .iter()
                .try_for_each(|&(tag, tuple)| j.process(tag, tuple))
        },
        |j| j.drain_results().map(drop),
    )?;

    // Rung 5: the query runtime with one unfiltered join; rung 6 is the
    // traced fleet run, the end-to-end path.
    let query1_s = drive(
        spec,
        Runtime::new(spec),
        &[Template::AllPairs],
        split,
        &mut Tracer::new(false),
    )?
    .blocks_s;

    let rungs = [
        ("ladder.kernel_ktps", "share.kernel", kernel_s),
        ("ladder.count_ktps", "share.transport", counting_s),
        (
            "ladder.materialize_ktps",
            "share.result_path",
            materialize_s,
        ),
        ("ladder.per_tuple_ktps", "share.feed", per_tuple_s),
        ("ladder.query1_ktps", "share.query_route", query1_s),
        ("ladder.fleet_ktps", "share.post_pipelines", fleet_s),
    ];
    // A rung is reported as the rate it sustains over the prefix; its
    // share is the time it adds to the rung below, of the fleet's time.
    let mut below = 0.0;
    for (rung, share, rung_s) in rungs {
        m.insert(rung, split.1.len() as f64 / rung_s / 1e3);
        m.insert(share, (rung_s - below) / fleet_s);
        below = rung_s;
    }
    m.insert("query.overhead_ratio", fleet_s / materialize_s);
    post_pipelines(spec, &kept, m)
}

/// `count_block` (or `emit_block`) over the workload's probe sequence in
/// 256-probe batches against `FlatWindow` key segments, one thread.
fn kernel_rung(
    spec: &Software,
    (warmup, rest): (&[Arrival], &[Arrival]),
    emit: bool,
) -> (f64, KernelStats) {
    let mut windows = [FlatWindow::new(spec.window), FlatWindow::new(spec.window)];
    let side = |tag: StreamTag| (tag == StreamTag::S) as usize;
    for &(tag, tuple) in warmup {
        windows[side(tag)].insert(tuple);
    }
    let mut stats = KernelStats::default();
    let mut probes: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut matched = 0u64;
    let start = Instant::now();
    for batch in rest.chunks(256) {
        probes.iter_mut().for_each(Vec::clear);
        for &(tag, tuple) in batch {
            probes[side(tag)].push(tuple.key());
        }
        for tag in [StreamTag::R, StreamTag::S] {
            let probe_keys = &probes[side(tag)];
            for (keys, _) in windows[side(tag.other())].segments() {
                if emit {
                    pairs.clear();
                    emit_block(
                        JoinPredicate::Equi,
                        tag == StreamTag::R,
                        probe_keys,
                        keys,
                        &mut stats,
                        |p, k| pairs.push((p, k)),
                    );
                    matched += black_box(&pairs).len() as u64;
                } else {
                    matched += count_block(
                        JoinPredicate::Equi,
                        tag == StreamTag::R,
                        probe_keys,
                        keys,
                        &mut stats,
                    );
                }
            }
        }
        for &(tag, tuple) in batch {
            windows[side(tag)].insert(tuple);
        }
    }
    black_box(matched);
    (start.elapsed().as_secs_f64(), stats)
}

/// `PostPipeline::apply` alone over drained matches, per member query.
fn post_pipelines(spec: &Software, matches: &[MatchPair], m: &mut Metrics) -> Result<(), String> {
    if matches.is_empty() {
        return Ok(());
    }
    let mut applied = 0u64;
    let mut seconds = 0.0;
    for template in JOIN_TEMPLATES {
        let compiled = compile(
            &template.plan(spec.window),
            &catalog(),
            CORES,
            spec.objective,
        )
        .map_err(|e| format!("compile {template:?}: {e}"))?;
        let Shape::Joined { post, .. } = &compiled.shape else {
            return Err(format!("{template:?} is not a join"));
        };
        let start = Instant::now();
        for pair in matches {
            let values = [
                pair.r.key() as u64,
                pair.r.payload() as u64,
                pair.s.key() as u64,
                pair.s.payload() as u64,
            ];
            black_box(post.apply(black_box(&values)));
        }
        seconds += start.elapsed().as_secs_f64();
        applied += matches.len() as u64;
    }
    m.insert(
        "query.post_apply_mmatches_per_s",
        applied as f64 / seconds / 1e6,
    );
    Ok(())
}

/// What `replan`, `admit` and `finish` pay the engine for: spawn and
/// shutdown of an idle SplitJoin, and its flush barrier with nothing in
/// flight, which bounds `tuple_latency_p50_us` from below.
fn split_join_control(spec: &Software, m: &mut Metrics) -> Result<(), String> {
    let (mut spawn_ms, mut shutdown_ms) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let start = Instant::now();
        let join = SplitJoin::spawn(SplitJoinConfig::new(CORES, spec.window));
        spawn_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        join.shutdown().map_err(engine_error)?;
        shutdown_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    m.insert("splitjoin.spawns_per_ms", 1.0 / median(&mut spawn_ms));
    m.insert("splitjoin.shutdowns_per_ms", 1.0 / median(&mut shutdown_ms));

    let join = SplitJoin::spawn(SplitJoinConfig::new(CORES, spec.window));
    let mut flush_us = Vec::new();
    for _ in 0..2000 {
        let start = Instant::now();
        join.flush().map_err(engine_error)?;
        flush_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    join.shutdown().map_err(engine_error)?;
    m.insert("splitjoin.flushes_per_ms", 1e3 / median(&mut flush_us));
    Ok(())
}

/// The bare handshake chain: serialized (flushed per tuple, exact) and
/// pipelined (batched, faster, and short of the reference by `recall`).
fn handshake(spec: &Software, inputs: &[Arrival], m: &mut Metrics) -> Result<(), String> {
    let mut reference = WindowJoin::new(spec.window);
    let mut matches = Vec::new();
    for &(tag, tuple) in inputs {
        reference.arrive(tag, tuple, &mut matches);
    }
    let config = || HandshakeConfig::new(CORES, spec.window).counting_only();

    let join = HandshakeJoin::spawn(config());
    let mut flush_us = Vec::with_capacity(inputs.len());
    let start = Instant::now();
    for &(tag, tuple) in inputs {
        join.process(tag, tuple).map_err(engine_error)?;
        let flush = Instant::now();
        join.flush().map_err(engine_error)?;
        flush_us.push(flush.elapsed().as_secs_f64() * 1e6);
    }
    let serial_s = start.elapsed().as_secs_f64();
    let serial = join.shutdown().map_err(engine_error)?;
    if serial.result_count != matches.len() as u64 {
        return Err(format!(
            "serialized handshake chain: {} results, reference {}",
            serial.result_count,
            matches.len()
        ));
    }
    m.insert(
        "handshake.serial_ktps",
        inputs.len() as f64 / serial_s / 1e3,
    );
    m.insert("handshake.flushes_per_ms", 1e3 / median(&mut flush_us));

    let join = HandshakeJoin::spawn(config());
    let start = Instant::now();
    join.process_batch(inputs).map_err(engine_error)?;
    join.flush().map_err(engine_error)?;
    let pipelined_s = start.elapsed().as_secs_f64();
    let pipelined = join.shutdown().map_err(engine_error)?;
    m.insert(
        "handshake.pipelined_ktps",
        inputs.len() as f64 / pipelined_s / 1e3,
    );
    m.insert(
        "handshake.pipelined_recall",
        pipelined.result_count as f64 / matches.len().max(1) as f64,
    );
    Ok(())
}

/// The single-threaded baseline over the same inputs.
fn baseline(spec: &Software, inputs: &[Arrival], m: &mut Metrics) -> Result<(), String> {
    let inputs = &inputs[..inputs.len().min(SIDE_PREFIX)];
    let join = BaselineJoin::spawn(JoinConfig::new(1, spec.window));
    let start = Instant::now();
    for block in inputs.chunks(BLOCK) {
        join.process_batch(block).map_err(engine_error)?;
        black_box(join.drain_results().map_err(engine_error)?);
    }
    m.insert(
        "baseline.ktps",
        inputs.len() as f64 / start.elapsed().as_secs_f64() / 1e3,
    );
    join.shutdown().map_err(engine_error)?;
    Ok(())
}

/// The two transports alone: an SPSC ring moving 256-item batches across
/// two threads, and the batch arena's publish -> read -> release cycle.
fn rings(m: &mut Metrics) {
    // Debug builds (the tests) move fewer items.
    const ITEMS: u64 = if cfg!(debug_assertions) {
        1 << 18
    } else {
        16 << 20
    };
    const BATCH: usize = 256;
    let batch: Vec<u64> = (0..BATCH as u64).collect();

    let (mut producer, mut consumer) = spsc::<u64>(1024);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut sent = 0;
            while sent < ITEMS {
                let mut at = 0;
                while at < BATCH {
                    at += producer.push_batch(&batch[at..]).expect("consumer alive");
                }
                sent += BATCH as u64;
            }
        });
        let mut out = Vec::with_capacity(BATCH);
        let mut received = 0;
        while received < ITEMS {
            out.clear();
            received += consumer
                .pop_batch(&mut out, BATCH)
                .expect("producer alive until all is sent") as u64;
            black_box(&out);
        }
    });
    m.insert(
        "ring.spsc_mops",
        ITEMS as f64 / start.elapsed().as_secs_f64() / 1e6,
    );

    let (mut writer, mut readers) = batch_arena::<u64>(8, 1);
    let mut reader = readers.pop().expect("one reader");
    let batches = ITEMS / BATCH as u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..batches {
                while writer.try_publish(&batch).is_err() {
                    std::hint::spin_loop();
                }
            }
        });
        for seq in 1..=batches {
            while !reader.peek_published(seq) {
                std::hint::spin_loop();
            }
            black_box(reader.read(seq).iter().sum::<u64>());
            reader.release(seq);
        }
    });
    m.insert(
        "ring.arena_mops",
        ITEMS as f64 / start.elapsed().as_secs_f64() / 1e6,
    );
}

/// The window structures alone, on the workload's keys.
fn windows(spec: &Software, inputs: &[Arrival], m: &mut Metrics) {
    let mut flat = FlatWindow::new(spec.window);
    let start = Instant::now();
    for &(_, tuple) in inputs {
        black_box(flat.insert(tuple));
    }
    m.insert(
        "window.flat_insert_mops",
        inputs.len() as f64 / start.elapsed().as_secs_f64() / 1e6,
    );

    let mut hashed = HashIndexWindow::new(spec.window);
    for &(_, tuple) in &inputs[..spec.window.min(inputs.len())] {
        hashed.insert(tuple);
    }
    let start = Instant::now();
    let mut hits = 0usize;
    for &(_, tuple) in inputs {
        hits += hashed.probe(tuple.key()).count();
    }
    black_box(hits);
    m.insert(
        "window.hash_probe_mops",
        inputs.len() as f64 / start.elapsed().as_secs_f64() / 1e6,
    );
}
