//! What the ledger measures: the workloads, the metric tables and the
//! input stream. `BENCHMARK.json` at the repository root repeats the
//! names, units and bounds listed here; a test keeps the two in step.

use query::prelude::*;
use streamcore::workload::{Generate, KeyDist, WorkloadSpec};
use streamcore::{StreamTag, Tuple};

/// Arrivals between two `poll` + `take_rows` sweeps on the SplitJoin
/// workloads; see [`Software::block`].
pub const BLOCK: usize = 4096;
/// Worker threads of every engine and simulator under test. Fixed, so
/// that a number never depends on where the ledger happens to run; the
/// host's own parallelism is written beside every result.
pub const CORES: usize = 2;
/// A run of a software workload is `--seconds` cycles: a set-up, then
/// one second split into a throughput slice of this share and a latency
/// slice of the rest, so that every metric sees the same mix of the
/// host's fast and slow seconds.
pub const THROUGHPUT_SHARE: f64 = 0.7;
/// Leading blocks of a run whose rows are hashed (between timed blocks)
/// and compared with the oracle's row multiset.
pub const CHECK_BLOCKS: usize = 5;
/// `churn`: arrivals between one cancel + admit and the next.
pub const CHURN_EVERY: usize = 128;
/// `churn`: arrivals between two re-plans of the group.
pub const REPLAN_EVERY: usize = 512;

/// Better direction of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the other side's value by which the metric may be worse
    /// before `compare` calls it a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_ktps",
        unit: "kt/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "tuple_latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tuple_latency_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric. `exact` marks counts that must repeat from run
/// to run (same seed, same code): `check` compares them for equality.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        exact: true,
    }
}

/// Every per-layer metric of the traced run: rates, shares, ratios and
/// counts, never durations, because every workload reports every metric
/// and one on which a metric is not defined reports it as 0, which reads
/// as "none" for a rate and as "instantly" for a duration.
pub const PER_LAYER: &[PerLayer] = &[
    layer("ladder.kernel_ktps", "kt/s", Better::Higher),
    layer("ladder.count_ktps", "kt/s", Better::Higher),
    layer("ladder.materialize_ktps", "kt/s", Better::Higher),
    layer("ladder.per_tuple_ktps", "kt/s", Better::Higher),
    layer("ladder.query1_ktps", "kt/s", Better::Higher),
    layer("ladder.fleet_ktps", "kt/s", Better::Higher),
    layer("share.kernel", "fraction", Better::Lower),
    layer("share.transport", "fraction", Better::Lower),
    layer("share.result_path", "fraction", Better::Lower),
    layer("share.feed", "fraction", Better::Lower),
    layer("share.query_route", "fraction", Better::Lower),
    layer("share.post_pipelines", "fraction", Better::Lower),
    layer("query.overhead_ratio", "ratio", Better::Lower),
    layer("query.push_share", "fraction", Better::Lower),
    layer("query.poll_share", "fraction", Better::Lower),
    layer("query.take_rows_share", "fraction", Better::Lower),
    layer("query.finish_share", "fraction", Better::Lower),
    count("query.matches_in"),
    count("query.rows_out"),
    count("group.arrivals"),
    count("group.drained"),
    layer("query.post_apply_mmatches_per_s", "M/s", Better::Higher),
    layer("query.admits_per_ms", "1/ms", Better::Higher),
    layer("query.cancels_per_ms", "1/ms", Better::Higher),
    layer("query.replans_per_s", "1/s", Better::Higher),
    count("query.replan_replay_tuples"),
    count("query.replan_duplicates"),
    layer("splitjoin.spawns_per_ms", "1/ms", Better::Higher),
    layer("splitjoin.shutdowns_per_ms", "1/ms", Better::Higher),
    layer("splitjoin.flushes_per_ms", "1/ms", Better::Higher),
    layer("splitjoin.drain_mmatches_per_s", "M/s", Better::Higher),
    count("splitjoin.comparisons"),
    layer("splitjoin.kernel_tiles", "count", Better::Lower),
    layer("splitjoin.ring_peak_occupancy", "count", Better::Lower),
    layer("splitjoin.claim_waits", "count", Better::Lower),
    layer("handshake.serial_ktps", "kt/s", Better::Higher),
    layer("handshake.flushes_per_ms", "1/ms", Better::Higher),
    layer("handshake.pipelined_ktps", "kt/s", Better::Higher),
    layer("handshake.pipelined_recall", "ratio", Better::Higher),
    layer("baseline.ktps", "kt/s", Better::Higher),
    layer("kernel.count_gcmp_per_s", "Gcmp/s", Better::Higher),
    layer("kernel.emit_gcmp_per_s", "Gcmp/s", Better::Higher),
    layer("kernel.match_density", "ratio", Better::Lower),
    layer("ring.spsc_mops", "M/s", Better::Higher),
    layer("ring.arena_mops", "M/s", Better::Higher),
    layer("window.flat_insert_mops", "M/s", Better::Higher),
    layer("window.hash_probe_mops", "M/s", Better::Higher),
    layer("hwsim.mcycles_per_s", "Mcycles/s", Better::Higher),
    layer("hwsim.par_coordinator_share", "fraction", Better::Lower),
    layer("hwsim.par_utilization", "fraction", Better::Higher),
    count("joinhw.tuples"),
    count("joinhw.cycles"),
    count("joinhw.results"),
    count("joinhw.latency_cycles"),
    count("joinhw.latency_results"),
    layer("trace.overhead_share", "fraction", Better::Lower),
    layer("harness.overhead_share", "fraction", Better::Lower),
];

/// The standing-query templates of the fleet (after
/// `crates/bench/src/bin/queries.rs`): four `trades JOIN quotes ON sym`
/// shapes that share one engine group, and one inline aggregate.
/// Payloads are spread over the whole `u32` range (see [`Stream`]), so
/// `BigQty` keeps two thirds of the matches and `PxView` half of them at
/// every point of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Every match, all four fields.
    AllPairs,
    /// `WHERE qty > min`.
    BigQty { min: u64 },
    /// `WHERE px > min`, projected to `(qty, px)`.
    PxView { min: u64 },
    /// Projected to `(sym, px)`.
    SymOnly,
    /// Tumbling `SUM(qty)` over `window` trades, no join.
    QtySum { window: usize },
}

pub const JOIN_TEMPLATES: [Template; 4] = [
    Template::AllPairs,
    Template::BigQty { min: (1 << 32) / 3 },
    Template::PxView { min: 1 << 31 },
    Template::SymOnly,
];

impl Template {
    /// The logical plan handed to `QueryRuntime::admit`.
    pub fn plan(self, window: usize) -> LogicalPlan {
        let join =
            || LogicalPlan::source("trades").join(LogicalPlan::source("quotes"), "sym", window);
        match self {
            Template::AllPairs => join(),
            Template::BigQty { min } => join().filter("qty", CmpOp::Gt, min),
            Template::PxView { min } => join().filter("px", CmpOp::Gt, min).project(["qty", "px"]),
            Template::SymOnly => join().project(["sym", "px"]),
            Template::QtySum { window } => LogicalPlan::source("trades").aggregate(
                AggFunc::Sum,
                Some("qty"),
                window,
                WindowKind::Tumbling,
            ),
        }
    }
}

pub fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .register_spec("trades=sym:32,qty:32")
        .expect("trades schema");
    catalog
        .register_spec("quotes=sym:32,px:32")
        .expect("quotes schema");
    catalog
}

pub fn stream_name(tag: StreamTag) -> &'static str {
    match tag {
        StreamTag::R => "trades",
        StreamTag::S => "quotes",
    }
}

/// A software workload: a key distribution and window driven through
/// `query::QueryRuntime`.
#[derive(Debug, Clone, Copy)]
pub struct Software {
    pub keys: KeyDist,
    pub window: usize,
    pub objective: Objective,
    /// Cancel, admit and re-plan on the [`CHURN_EVERY`] / [`REPLAN_EVERY`]
    /// cadence, with the four join templates live and no aggregate.
    pub churn: bool,
    /// The SplitJoin ladder applies (a SplitJoin group and no control calls).
    pub ladder: bool,
    /// Arrivals between two `poll` + `take_rows` sweeps: one timed block.
    /// [`BLOCK`], except where that would leave a run with a few dozen
    /// blocks only.
    pub block: usize,
    /// Arrivals of the traced run: fixed, so that its counts repeat.
    pub trace_tuples: usize,
}

impl Software {
    /// Arrivals that fill the windows before the first timed push.
    pub fn warmup(&self) -> usize {
        4 * self.window
    }

    /// The queries admitted at set-up, in admission order.
    pub fn fleet(&self) -> Vec<Template> {
        let mut fleet = JOIN_TEMPLATES.to_vec();
        if !self.churn {
            fleet.push(Template::QtySum {
                window: self.window.min(256),
            });
        }
        fleet
    }
}

/// A simulator workload: one hardware design on one simulation engine.
#[derive(Debug, Clone, Copy)]
pub struct Sim {
    pub flow: joinhw::FlowModel,
    /// `hwsim::ParSimulator::new(CORES)` instead of `hwsim::Simulator`.
    pub parallel: bool,
    /// Input tuples of one simulated run (one operation): some 10 ms of
    /// host time, short enough for the host to leave some runs alone.
    pub unit_tuples: u64,
}

impl Sim {
    pub const JOIN_CORES: u32 = 16;
    pub const WINDOW: usize = 1 << 12;
    pub const KEY_DOMAIN: u32 = 1 << 20;
    /// Latency probes of one pass. A run repeats the pass and keeps each
    /// probe's fastest repetition, so that its percentiles are those of
    /// the simulator and not of the host: one probe lies beyond the 99th.
    pub const PROBES: usize = 100;
    /// Share of a cycle's second given to simulated runs; the rest goes
    /// to latency passes, whose probes each need hundreds of repetitions
    /// before one of them met a calm host (a bi-flow probe takes 0.4 ms).
    pub const UNITS_SHARE: f64 = 0.4;

    pub fn params(&self) -> joinhw::DesignParams {
        joinhw::DesignParams::new(self.flow, Self::JOIN_CORES, Self::WINDOW)
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Software(Software),
    Sim(Sim),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; repeated in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "match_heavy",
        why: "zipf(1.0) over 64 keys, window 512, SplitJoin: ~37 matches per arrival, so the result path, fan_out and row building dominate and the probe kernel does little",
        kind: Kind::Software(Software {
            keys: KeyDist::Zipf { domain: 64, s: 1.0 },
            window: 512,
            objective: Objective::MaxThroughput,
            churn: false,
            ladder: true,
            block: BLOCK,
            trace_tuples: 200_000,
        }),
    },
    Workload {
        name: "probe_heavy",
        why: "uniform over 2^20 keys, window 8192, SplitJoin: ~0.008 matches per arrival, so the probe kernel and the router/arena/ring transport dominate; a query-layer change must not move it",
        kind: Kind::Software(Software {
            keys: KeyDist::Uniform { domain: 1 << 20 },
            window: 8192,
            objective: Objective::MaxThroughput,
            churn: false,
            ladder: true,
            block: BLOCK,
            trace_tuples: 400_000,
        }),
    },
    Workload {
        name: "biflow_serial",
        why: "the match_heavy stream under MinLatency: the handshake chain (bi-flow in software), flushed per arrival, the only regime where it is reference-exact",
        kind: Kind::Software(Software {
            keys: KeyDist::Zipf { domain: 64, s: 1.0 },
            window: 512,
            objective: Objective::MinLatency,
            churn: false,
            ladder: false,
            block: BLOCK / 8,
            trace_tuples: 30_000,
        }),
    },
    Workload {
        name: "churn",
        why: "uniform over 4096 keys, window 512, cancel+admit every 128 arrivals, re-plan every 512: spawn, shutdown, replay and admission dominate, so costlier control calls show as a loss",
        kind: Kind::Software(Software {
            keys: KeyDist::Uniform { domain: 4096 },
            window: 512,
            objective: Objective::MaxThroughput,
            churn: true,
            ladder: false,
            block: BLOCK,
            trace_tuples: 1_000_000,
        }),
    },
    Workload {
        name: "sim_uniflow",
        why: "uni-flow design, 16 join cores, window 2^12, on hwsim::Simulator: all work is in hwsim + joinhw, none in the software path; simulated counts must stay identical",
        kind: Kind::Sim(Sim { flow: joinhw::FlowModel::UniFlow, parallel: false, unit_tuples: 100 }),
    },
    Workload {
        name: "sim_biflow",
        why: "bi-flow (handshake) design, 16 join cores, window 2^12, on hwsim::Simulator: the paper's other flow model, far more simulated cycles per tuple",
        kind: Kind::Sim(Sim { flow: joinhw::FlowModel::BiFlow, parallel: false, unit_tuples: 25 }),
    },
    Workload {
        name: "sim_par",
        why: "the uni-flow design on hwsim::ParSimulator with 2 threads: the parallel engine's barrier and coordinator cost, checked cycle-exact against the sequential engine",
        kind: Kind::Sim(Sim { flow: joinhw::FlowModel::UniFlow, parallel: true, unit_tuples: 60 }),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The input stream of a software workload: `WorkloadSpec` with the run's
/// seed, strict R/S alternation, generated a block at a time so that the
/// process never holds more input than it is about to push.
///
/// `WorkloadSpec` payloads are sequence numbers. The stream multiplies
/// them by an odd constant (a bijection on `u32`), which keeps every
/// tuple unique and spreads `qty` / `px` over the whole range, so the
/// fleet's filters select the same share of matches at every point of a
/// stream whose length is set by the clock.
pub struct Stream {
    generate: Generate,
    block: Vec<(StreamTag, Tuple)>,
}

impl Stream {
    pub fn new(keys: KeyDist, seed: u64) -> Self {
        Self {
            generate: WorkloadSpec::new(usize::MAX, keys)
                .with_seed(seed)
                .generate(),
            block: Vec::with_capacity(BLOCK),
        }
    }

    /// The next arrival.
    pub fn one(&mut self) -> (StreamTag, Tuple) {
        let (tag, t) = self.generate.next().expect("the stream is endless");
        (
            tag,
            Tuple::new(t.key(), t.payload().wrapping_mul(2_654_435_761)),
        )
    }

    /// The next `n` arrivals.
    pub fn take(&mut self, n: usize) -> &[(StreamTag, Tuple)] {
        self.block.clear();
        for _ in 0..n {
            let arrival = self.one();
            self.block.push(arrival);
        }
        &self.block
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// The share of a run's blocks, windows and set-ups taken to be the
/// host's calm spells.
///
/// The hosts this was defined on (2 hardware threads of a shared machine,
/// under engines that run 4 threads and wait by spin, yield and sleep)
/// move between a fast and a slow state for seconds at a time, and a run
/// may meet the slow one for more than half its length: the median block
/// of six equal 10-second `probe_heavy` runs read 335 to 474 kt/s where
/// the boundary of their fastest tenth read 469 to 500. Interference only
/// ever slows a block down, so the software workloads report the sample
/// at the boundary of the calm tenth: [`calm_rate`] for rates,
/// [`calm_time`] for times. It has a tenth of the samples beyond it and,
/// unlike the single fastest sample, does not rest on one lucky block.
/// What it cannot show is a change that only makes slow spells longer;
/// the result file keeps `median_block_ktps` beside it for that.
pub const CALM: f64 = 0.1;

/// The rate a tenth of `rates` exceed.
pub fn calm_rate(rates: &mut [f64]) -> f64 {
    percentile(rates, 1.0 - CALM)
}

/// The time a tenth of `times` stay under.
pub fn calm_time(times: &mut [f64]) -> f64 {
    percentile(times, CALM)
}

/// Latency samples per window of [`window_quantiles`] on the software
/// workloads.
pub const LATENCY_WINDOW: usize = 500;

/// The `q`-quantile of each consecutive window of `samples` (of all of
/// them, when they do not fill one window).
///
/// The host's slow spells last a second or two and hold most of a run's
/// slowest samples, so a quantile of the whole run follows how many
/// spells the run happened to meet. A software workload therefore
/// reports [`calm_time`] of its windows' quantiles.
pub fn window_quantiles(samples: &[f64], window: usize, q: f64) -> Vec<f64> {
    let mut quantiles: Vec<f64> = samples
        .chunks(window)
        .filter(|w| w.len() == window)
        .map(|w| percentile(&mut w.to_vec(), q))
        .collect();
    if quantiles.is_empty() {
        quantiles.push(percentile(&mut samples.to_vec(), q));
    }
    quantiles
}

/// The smallest of `times`. A sequential-simulator workload repeats one
/// deterministic computation on one thread, so whatever a repetition
/// takes beyond the fastest one is the host's doing, not the program's.
/// The software workloads push different tuples in every block and run
/// on several threads: there [`CALM`] is the measure.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `q`-quantile of `values` (nearest rank); sorts in place.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "no samples");
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}
