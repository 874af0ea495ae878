//! The simulator workloads: how fast the cycle-level FPGA simulator runs
//! (host time) while what it simulates (cycles, results) stays identical.
//!
//! One operation is one simulated run: a design built, its windows
//! pre-filled, `unit_tuples` inputs driven through it at saturation. A
//! run fails when its simulated counts differ from the values pinned in
//! `expected/hw_sim.json`, or between the sequential and the parallel
//! engine.

use std::time::{Duration, Instant};

use hwsim::{Engine, ParSimulator, Simulator};
use joinhw::harness::{self, LatencyRun, StreamJoin, ThroughputRun};
use obs::json::Json;
use streamcore::{StreamTag, Tuple};

use crate::report;
use crate::software::peak_rss_mb;
use crate::spec::{fastest, median, percentile, Sim, CORES};
use crate::trace::Tracer;

const PROBE_KEY: u32 = 7;
const LATENCY_MAX_CYCLES: u64 = 10_000_000;

/// The simulated counts of one workload, as pinned and as measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub tuples: u64,
    pub cycles: u64,
    pub results: u64,
    /// First latency probe on planted windows: cycles to its last result.
    pub latency_cycles: u64,
    pub latency_results: u64,
}

impl Counts {
    fn new(run: ThroughputRun, probe: LatencyRun) -> Self {
        Self {
            tuples: run.tuples,
            cycles: run.cycles,
            results: run.results,
            latency_cycles: probe.cycles_to_last_result,
            latency_results: probe.results,
        }
    }
}

/// The counts pinned for `workload` when the benchmark was defined.
pub fn pinned(workload: &str) -> Result<Counts, String> {
    let doc = Json::parse(include_str!("../expected/hw_sim.json"))
        .map_err(|e| format!("expected/hw_sim.json: {e}"))?;
    let entry = doc
        .get(workload)
        .ok_or_else(|| format!("expected/hw_sim.json has no entry {workload}"))?;
    let field = |name: &str| {
        entry
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("expected/hw_sim.json: {workload}.{name} missing"))
    };
    Ok(Counts {
        tuples: field("tuples")?,
        cycles: field("cycles")?,
        results: field("results")?,
        latency_cycles: field("latency_cycles")?,
        latency_results: field("latency_results")?,
    })
}

fn build(spec: &Sim, tracer: &mut Tracer) -> Box<dyn StreamJoin> {
    tracer.span("setup", |tracer| {
        let mut join = tracer.span("build", |_| harness::build(&spec.params()));
        tracer.span("prefill", |_| {
            harness::prefill_steady_state(join.as_mut(), Sim::WINDOW)
        });
        join
    })
}

/// One simulated run on a fresh engine of the workload's kind. Returns
/// the run, its host seconds and, for the parallel engine, its stats.
fn unit(
    spec: &Sim,
    join: &mut dyn StreamJoin,
    parallel: bool,
) -> (ThroughputRun, f64, Option<hwsim::ParStats>) {
    let start = Instant::now();
    if parallel {
        let mut engine = ParSimulator::new(CORES);
        let run =
            harness::run_throughput_with(&mut engine, join, spec.unit_tuples, Sim::KEY_DOMAIN);
        (run, start.elapsed().as_secs_f64(), engine.take_stats())
    } else {
        let run = harness::run_throughput(join, spec.unit_tuples, Sim::KEY_DOMAIN);
        (run, start.elapsed().as_secs_f64(), None)
    }
}

/// Host time of one latency experiment: the paper's "time to process and
/// emit all results for a newly inserted tuple", simulated.
fn probe<E: Engine>(
    engine: &mut E,
    join: &mut dyn StreamJoin,
    n: u32,
) -> Result<(LatencyRun, Duration), String> {
    let start = Instant::now();
    let run = harness::run_latency_with(
        engine,
        join,
        (StreamTag::R, Tuple::new(PROBE_KEY, n)),
        LATENCY_MAX_CYCLES,
    )
    .ok_or("latency probe did not quiesce")?;
    Ok((run, start.elapsed()))
}

/// Latency probes, one after the other, on one design with planted
/// windows and one engine of the workload's kind.
struct Prober {
    join: Box<dyn StreamJoin>,
    sequential: Simulator,
    parallel: Option<ParSimulator>,
    /// The first probe's simulated run.
    first: Option<LatencyRun>,
    sent: u32,
}

impl Prober {
    fn new(spec: &Sim) -> Self {
        let params = spec.params();
        let mut join = harness::build(&params);
        harness::prefill_planted(join.as_mut(), &params, PROBE_KEY);
        let parallel = spec.parallel.then(|| ParSimulator::new(CORES));
        Self {
            join,
            sequential: Simulator::new(),
            parallel,
            first: None,
            sent: 0,
        }
    }

    /// One probe; returns its host time.
    fn probe(&mut self) -> Result<Duration, String> {
        let (run, host) = match &mut self.parallel {
            Some(engine) => probe(engine, self.join.as_mut(), self.sent)?,
            None => probe(&mut self.sequential, self.join.as_mut(), self.sent)?,
        };
        self.sent += 1;
        self.first.get_or_insert(run);
        Ok(host)
    }
}

/// Simulated runs that differ from the pinned counts or, on the parallel
/// workload, from the sequential engine. Each counts as one failure.
fn check(workload: &str, spec: &Sim, counts: Counts) -> Result<u64, String> {
    let mut failed = 0;
    let want = pinned(workload)?;
    if counts != want {
        eprintln!("ledger: {workload}: simulated {counts:?}, pinned {want:?}");
        failed += 1;
    }
    if spec.parallel {
        let mut join = build(spec, &mut Tracer::new(false));
        let (sequential, _, _) = unit(spec, join.as_mut(), false);
        if (sequential.tuples, sequential.cycles, sequential.results)
            != (counts.tuples, counts.cycles, counts.results)
        {
            eprintln!("ledger: {workload}: ParSimulator {counts:?}, Simulator {sequential:?}");
            failed += 1;
        }
    }
    Ok(failed)
}

/// What a workload reports of the times of its repetitions: the fastest
/// on one thread (see [`fastest`]), the median on the parallel engine,
/// whose threads wait for each other at every simulated cycle.
fn typical(spec: &Sim, times: &mut [f64]) -> f64 {
    if spec.parallel {
        median(times)
    } else {
        fastest(times)
    }
}

pub fn run(workload: &str, spec: &Sim, seconds: u64) -> Result<report::EndToEnd, String> {
    let mut tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut unit_s = Vec::new();
    let mut runs = Vec::new();
    // Host microseconds of every repetition of each probe of the pass.
    let mut probe_us = vec![Vec::new(); Sim::PROBES];
    let mut first_probe = None;
    for _ in 0..seconds {
        let deadline = Instant::now() + Duration::from_secs_f64(Sim::UNITS_SHARE);
        let before = runs.len();
        while runs.len() == before || Instant::now() < deadline {
            let start = Instant::now();
            let mut join = build(spec, &mut tracer);
            setup_s.push(start.elapsed().as_secs_f64());
            let (run, host_s, _) = unit(spec, join.as_mut(), spec.parallel);
            unit_s.push(host_s);
            runs.push(run);
        }
        // Whole passes: the same probes on the same planted windows.
        let deadline = Instant::now() + Duration::from_secs_f64(1.0 - Sim::UNITS_SHARE);
        while first_probe.is_none() || Instant::now() < deadline {
            let mut prober = Prober::new(spec);
            for repetitions in &mut probe_us {
                repetitions.push(prober.probe()?.as_secs_f64() * 1e6);
            }
            first_probe = first_probe.or(prober.first);
        }
    }
    let first_probe = first_probe.expect("at least one pass");
    let peak_rss_mb = peak_rss_mb()?;

    let counts = Counts::new(runs[0], first_probe);
    // Every unit is the same simulation: any that differs from the first
    // is a failed operation, and the first is checked against the pins.
    let failed =
        runs.iter().filter(|run| **run != runs[0]).count() as u64 + check(workload, spec, counts)?;
    let typical = |times: &mut [f64]| typical(spec, times);
    let passes = probe_us[0].len();
    let mut latency_us: Vec<f64> = probe_us.iter_mut().map(|r| typical(r)).collect();
    Ok(report::EndToEnd {
        throughput_ktps: spec.unit_tuples as f64 / typical(&mut unit_s) / 1e3,
        latency_p50_us: percentile(&mut latency_us, 0.5),
        latency_p99_us: percentile(&mut latency_us, 0.99),
        peak_rss_mb,
        setup_s: typical(&mut setup_s),
        attempted: runs.len() as u64,
        failed,
        detail: vec![
            ("unit_tuples", Json::UInt(spec.unit_tuples)),
            ("units", Json::UInt(runs.len() as u64)),
            ("simulated_cycles_per_unit", Json::UInt(counts.cycles)),
            ("latency_passes", Json::UInt(passes as u64)),
        ],
    })
}

/// The traced run: a fixed number of units with a span around each call
/// into `joinhw` / `hwsim`, the simulated counts, and the parallel
/// engine's own accounting.
pub fn traced(workload: &str, spec: &Sim) -> Result<report::Traced, String> {
    const UNITS: usize = 20;
    let mut tracer = Tracer::new(true);
    let mut plain = Tracer::new(false);
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut runs = Vec::new();
    let (mut coordinator, mut utilization) = (Vec::new(), Vec::new());
    for i in 0..UNITS {
        tracer.set_block(i as u64 + 1);
        let (run, host_s, stats) = tracer.span("unit", |tracer| {
            let mut join = build(spec, tracer);
            tracer.span("run", |_| unit(spec, join.as_mut(), spec.parallel))
        });
        traced_s.push(host_s);
        runs.push(run);
        if let Some(stats) = stats {
            coordinator.push(stats.coordinator_share().unwrap_or(0.0));
            let busy: Vec<f64> = stats
                .workers
                .iter()
                .filter_map(|w| w.utilization())
                .collect();
            utilization.push(busy.iter().sum::<f64>() / busy.len().max(1) as f64);
        }
        let mut join = build(spec, &mut plain);
        untraced_s.push(unit(spec, join.as_mut(), spec.parallel).1);
    }
    let mut prober = Prober::new(spec);
    tracer.span("latency_probe", |_| prober.probe())?;
    let first_probe = prober.first.expect("just probed");
    let counts = Counts::new(runs[0], first_probe);
    let failed =
        runs.iter().filter(|run| **run != runs[0]).count() as u64 + check(workload, spec, counts)?;
    let or_zero = |values: &mut Vec<f64>| {
        if values.is_empty() {
            0.0
        } else {
            median(values)
        }
    };
    let metrics = report::Metrics::from([
        (
            "hwsim.mcycles_per_s",
            counts.cycles as f64 / typical(spec, &mut traced_s) / 1e6,
        ),
        ("hwsim.par_coordinator_share", or_zero(&mut coordinator)),
        ("hwsim.par_utilization", or_zero(&mut utilization)),
        ("joinhw.tuples", counts.tuples as f64),
        ("joinhw.cycles", counts.cycles as f64),
        ("joinhw.results", counts.results as f64),
        ("joinhw.latency_cycles", counts.latency_cycles as f64),
        ("joinhw.latency_results", counts.latency_results as f64),
        // Traced over untraced host time of the same units, minus one.
        (
            "trace.overhead_share",
            typical(spec, &mut traced_s) / typical(spec, &mut untraced_s) - 1.0,
        ),
    ]);
    Ok(report::Traced {
        tracer,
        metrics,
        attempted: UNITS as u64,
        failed,
        detail: vec![
            ("unit_tuples", Json::UInt(spec.unit_tuples)),
            ("units", Json::UInt(UNITS as u64)),
        ],
    })
}
