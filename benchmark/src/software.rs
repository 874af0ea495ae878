//! The software workloads: one caller, closed loop, at saturation, through
//! `query::QueryRuntime`; then the same stream through the oracle.
//!
//! `QueryRuntime::push` is synchronous and back-pressured by the engine's
//! bounded rings, so saturation throughput is the sustainable rate.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use query::prelude::*;
use streamcore::{StreamTag, Tuple};

use obs::json::Json;

use crate::oracle::{Oracle, Tally};
use crate::report;
use crate::spec::{
    calm_rate, calm_time, catalog, median, stream_name, window_quantiles, Software, Stream,
    Template, CHECK_BLOCKS, CHURN_EVERY, CORES, JOIN_TEMPLATES, LATENCY_WINDOW, REPLAN_EVERY,
    THROUGHPUT_SHARE,
};
use crate::trace::Tracer;

/// A query that left the runtime, by `cancel` or at `finish`.
#[derive(Default)]
pub struct Closed {
    pub name: String,
    pub matches_in: u64,
    pub rows_emitted: u64,
    /// Rows produced since the last `take_rows`.
    pub rows: Vec<Vec<u64>>,
}

/// What the generator loop drives. The runtime under test implements it,
/// and so does [`Noop`], which gives the cost of the loop itself.
pub trait Sink: Sized {
    fn admit(&mut self, name: &str, plan: &LogicalPlan) -> Result<(), String>;
    fn push(&mut self, stream: &'static str, tuple: Tuple) -> Result<(), String>;
    fn poll(&mut self) -> Result<(), String>;
    fn take_rows(&mut self, name: &str) -> Result<Vec<Vec<u64>>, String>;
    fn cancel(&mut self, name: &str) -> Result<Closed, String>;
    /// Re-plans the group of `name`; returns `(tuples replayed, duplicates discarded)`.
    fn replan(&mut self, name: &str, objective: Objective) -> Result<(u64, u64), String>;
    /// Shuts down; returns the remaining queries and `(group.arrivals,
    /// group.drained)` summed over the live-metric registry.
    fn finish(self) -> Result<(Vec<Closed>, (u64, u64)), String>;
}

pub struct Runtime {
    runtime: QueryRuntime,
    expect: EngineKind,
}

impl Runtime {
    pub fn new(spec: &Software) -> Self {
        let config = RuntimeConfig {
            cores: CORES,
            objective: spec.objective,
        };
        let expect = match spec.objective {
            Objective::MaxThroughput => EngineKind::Split,
            Objective::MinLatency => EngineKind::Handshake,
        };
        Self {
            runtime: QueryRuntime::new(catalog(), config),
            expect,
        }
    }
}

fn closed(report: QueryReport) -> Closed {
    Closed {
        name: report.id,
        matches_in: report.matches_in,
        rows_emitted: report.rows_emitted,
        rows: report.rows,
    }
}

impl Sink for Runtime {
    fn admit(&mut self, name: &str, plan: &LogicalPlan) -> Result<(), String> {
        let engine = self
            .runtime
            .admit(name, plan)
            .map_err(|e| format!("admit {name}: {e}"))?;
        // The workload is defined by the engine it lands on; a placement
        // change must not silently turn it into a different benchmark.
        if engine != self.expect && engine != EngineKind::Inline {
            return Err(format!(
                "admit {name}: placed on {engine}, the workload needs {}",
                self.expect
            ));
        }
        Ok(())
    }

    fn push(&mut self, stream: &'static str, tuple: Tuple) -> Result<(), String> {
        self.runtime
            .push(stream, tuple)
            .map_err(|e| format!("push: {e}"))
    }

    fn poll(&mut self) -> Result<(), String> {
        self.runtime
            .poll()
            .map(drop)
            .map_err(|e| format!("poll: {e}"))
    }

    fn take_rows(&mut self, name: &str) -> Result<Vec<Vec<u64>>, String> {
        self.runtime
            .take_rows(name)
            .map_err(|e| format!("take_rows {name}: {e}"))
    }

    fn cancel(&mut self, name: &str) -> Result<Closed, String> {
        self.runtime
            .cancel(name)
            .map(closed)
            .map_err(|e| format!("cancel {name}: {e}"))
    }

    fn replan(&mut self, name: &str, objective: Objective) -> Result<(u64, u64), String> {
        let report = self
            .runtime
            .replan(name, objective)
            .map_err(|e| format!("replan {name}: {e}"))?;
        if !report.lossless() {
            return Err(format!("replan {name} lost results: {report}"));
        }
        Ok((
            (report.prefilled.0 + report.prefilled.1) as u64,
            report.duplicates_discarded,
        ))
    }

    fn finish(self) -> Result<(Vec<Closed>, (u64, u64)), String> {
        let live = self.runtime.live().clone();
        let reports = self.runtime.finish().map_err(|e| format!("finish: {e}"))?;
        let sum = |suffix: &str| {
            live.entries()
                .iter()
                .filter(|(name, _, _)| name.starts_with("group.") && name.ends_with(suffix))
                .map(|(_, value, _)| value)
                .sum()
        };
        Ok((
            reports.into_iter().map(closed).collect(),
            (sum(".arrivals"), sum(".drained")),
        ))
    }
}

/// Accepts every call and does nothing.
#[derive(Default)]
pub struct Noop {
    live: Vec<String>,
}

impl Sink for Noop {
    fn admit(&mut self, name: &str, _: &LogicalPlan) -> Result<(), String> {
        self.live.push(name.to_string());
        Ok(())
    }
    fn push(&mut self, stream: &'static str, tuple: Tuple) -> Result<(), String> {
        std::hint::black_box((stream, tuple));
        Ok(())
    }
    fn poll(&mut self) -> Result<(), String> {
        Ok(())
    }
    fn take_rows(&mut self, _: &str) -> Result<Vec<Vec<u64>>, String> {
        Ok(Vec::new())
    }
    fn cancel(&mut self, name: &str) -> Result<Closed, String> {
        self.live.retain(|n| n != name);
        Ok(Closed {
            name: name.to_string(),
            ..Closed::default()
        })
    }
    fn replan(&mut self, _: &str, _: Objective) -> Result<(u64, u64), String> {
        Ok((0, 0))
    }
    fn finish(self) -> Result<(Vec<Closed>, (u64, u64)), String> {
        Ok((
            self.live
                .into_iter()
                .map(|name| Closed {
                    name,
                    ..Closed::default()
                })
                .collect(),
            (0, 0),
        ))
    }
}

/// Exact totals of a finished drive.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub control_ops: u64,
    pub replayed: u64,
    pub duplicates: u64,
    pub group_arrivals: u64,
    pub group_drained: u64,
}

/// The generator loop around one sink: admits the fleet, pushes arrivals,
/// polls and takes rows on the block cadence, issues `churn`'s control
/// calls, and keeps what the sink reported per query.
pub struct Driver<'a, S: Sink> {
    spec: &'a Software,
    sink: S,
    /// Live queries `(id, name)`, oldest first.
    live: VecDeque<(usize, String)>,
    admitted: usize,
    /// Arrivals pushed in blocks since set-up.
    pushed: usize,
    program: BTreeMap<usize, Tally>,
    /// Rows of the current block, kept for hashing once its clock stopped.
    hash_rows: bool,
    pending: Vec<(usize, Vec<Vec<u64>>)>,
    totals: Totals,
}

impl<'a, S: Sink> Driver<'a, S> {
    /// Set-up as a user pays it: admit the fleet (compile, placement,
    /// engine spawn), fill the windows with `warmup`, poll, discard rows.
    pub fn setup(
        spec: &'a Software,
        sink: S,
        fleet: &[Template],
        warmup: &[(StreamTag, Tuple)],
        tracer: &mut Tracer,
    ) -> Result<Self, String> {
        let mut driver = Self {
            spec,
            sink,
            live: VecDeque::new(),
            admitted: 0,
            pushed: 0,
            program: BTreeMap::new(),
            hash_rows: false,
            pending: Vec::new(),
            totals: Totals::default(),
        };
        tracer.span("setup", |tracer| {
            for &template in fleet {
                tracer.span("admit", |_| driver.admit(template))?;
            }
            tracer.span("push", |_| driver.push_all(warmup))?;
            tracer.span("poll", |_| driver.sink.poll())?;
            tracer.span("take_rows", |_| driver.take_rows())
        })?;
        driver.pushed = 0;
        Ok(driver)
    }

    fn admit(&mut self, template: Template) -> Result<(), String> {
        let id = self.admitted;
        let name = format!("q{id}");
        self.sink.admit(&name, &template.plan(self.spec.window))?;
        self.live.push_back((id, name));
        self.admitted += 1;
        Ok(())
    }

    fn push_all(&mut self, tuples: &[(StreamTag, Tuple)]) -> Result<(), String> {
        for &(tag, tuple) in tuples {
            self.sink.push(stream_name(tag), tuple)?;
        }
        self.pushed += tuples.len();
        Ok(())
    }

    /// Takes every live query's rows; drops them unless the block is hashed.
    fn take_rows(&mut self) -> Result<(), String> {
        for (id, name) in &self.live {
            let rows = self.sink.take_rows(name)?;
            if self.hash_rows {
                self.pending.push((*id, rows));
            }
        }
        Ok(())
    }

    /// `churn`'s control calls: poll (so that a query's visibility ends
    /// and begins exactly here), cancel the oldest query, admit the next
    /// template, and every [`REPLAN_EVERY`] arrivals re-plan the group
    /// under the same objective: a full drain-and-handoff.
    fn control(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        tracer.span("poll", |_| self.sink.poll())?;
        let (id, name) = self
            .live
            .pop_front()
            .expect("churn keeps four queries live");
        let closed = tracer.span("cancel", |_| self.sink.cancel(&name))?;
        self.close(id, closed);
        let template = JOIN_TEMPLATES[self.admitted % JOIN_TEMPLATES.len()];
        tracer.span("admit", |_| self.admit(template))?;
        self.totals.control_ops += 2;
        if self.pushed.is_multiple_of(REPLAN_EVERY) {
            let name = &self.live.front().expect("just admitted").1;
            let (replayed, duplicates) =
                tracer.span("replan", |_| self.sink.replan(name, self.spec.objective))?;
            self.totals.replayed += replayed;
            self.totals.duplicates += duplicates;
            self.totals.control_ops += 1;
        }
        Ok(())
    }

    fn close(&mut self, id: usize, closed: Closed) {
        let tally = self.program.entry(id).or_default();
        tally.matches_in = closed.matches_in;
        tally.rows = closed.rows_emitted;
        if self.hash_rows {
            self.pending.push((id, closed.rows));
        }
    }

    /// One block of arrivals, timed: push each, then poll and take rows
    /// from every query. Returns the block's seconds. When `hash_rows`,
    /// the block's rows outlive the clock and are hashed afterwards.
    pub fn block(
        &mut self,
        tuples: &[(StreamTag, Tuple)],
        hash_rows: bool,
        tracer: &mut Tracer,
    ) -> Result<f64, String> {
        self.hash_rows = hash_rows;
        tracer.set_block((self.pushed / self.spec.block) as u64 + 1);
        let start = Instant::now();
        tracer.span("block", |tracer| {
            if self.spec.churn {
                for chunk in tuples.chunks(CHURN_EVERY) {
                    if self.pushed > 0 {
                        self.control(tracer)?;
                    }
                    tracer.span("push", |_| self.push_all(chunk))?;
                }
            } else {
                tracer.span("push", |_| self.push_all(tuples))?;
            }
            tracer.span("poll", |_| self.sink.poll())?;
            tracer.span("take_rows", |_| self.take_rows())
        })?;
        let seconds = start.elapsed().as_secs_f64();
        self.hash_rows = false;
        for (id, rows) in self.pending.drain(..) {
            let tally = self.program.entry(id).or_default();
            rows.iter().for_each(|row| tally.hash_row(row));
        }
        Ok(seconds)
    }

    /// The paper's latency, at the query layer: the time to process one
    /// newly inserted tuple and hand out every row it produces.
    pub fn latency_sample(&mut self, (tag, tuple): (StreamTag, Tuple)) -> Result<Duration, String> {
        let start = Instant::now();
        self.sink.push(stream_name(tag), tuple)?;
        self.sink.poll()?;
        for (_, name) in &self.live {
            self.sink.take_rows(name)?;
        }
        Ok(start.elapsed())
    }

    /// Shuts the runtime down; returns what it reported per query.
    pub fn finish(
        mut self,
        tracer: &mut Tracer,
    ) -> Result<(BTreeMap<usize, Tally>, Totals), String> {
        tracer.set_block(0);
        let (reports, (arrivals, drained)) = tracer.span("finish", |_| self.sink.finish())?;
        (self.totals.group_arrivals, self.totals.group_drained) = (arrivals, drained);
        let ids: BTreeMap<String, usize> = self
            .live
            .iter()
            .map(|(id, name)| (name.clone(), *id))
            .collect();
        for report in reports {
            let id = *ids
                .get(&report.name)
                .ok_or_else(|| format!("finish reported unknown query {}", report.name))?;
            // `close` without the rows: nothing is hashed after the last block.
            let tally = self.program.entry(id).or_default();
            tally.matches_in = report.matches_in;
            tally.rows = report.rows_emitted;
        }
        Ok((self.program, self.totals))
    }
}

/// A stretch of the arrivals a drive pushed. The oracle replays the
/// same stream in the same segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Pushed by set-up; rows discarded.
    Warmup(usize),
    /// Pushed in blocks, with `churn`'s control calls between them.
    Blocks(usize),
    /// Pushed one at a time by a latency slice.
    Singles(usize),
}

impl Segment {
    pub fn arrivals(self) -> usize {
        match self {
            Segment::Warmup(n) | Segment::Blocks(n) | Segment::Singles(n) => n,
        }
    }
}

/// The oracle's tally of every query over the next arrivals of `stream`,
/// with `fleet` admitted at the start and `churn`'s cancel + admit cadence
/// over the arrivals pushed in blocks. Rows of the first `hashed_blocks`
/// blocks are hashed.
pub fn replay(
    spec: &Software,
    fleet: &[Template],
    stream: &mut Stream,
    segments: &[Segment],
    hashed_blocks: usize,
) -> BTreeMap<usize, Tally> {
    let mut oracle = Oracle::new(spec.window);
    let mut admitted = 0;
    for &template in fleet {
        oracle.admit(admitted, template);
        admitted += 1;
    }
    let mut in_blocks = 0;
    for &segment in segments {
        for _ in 0..segment.arrivals() {
            let (tag, tuple) = stream.one();
            let Segment::Blocks(_) = segment else {
                oracle.arrive(tag, tuple, false);
                continue;
            };
            if spec.churn && in_blocks > 0 && in_blocks % CHURN_EVERY == 0 {
                oracle.cancel(admitted - JOIN_TEMPLATES.len());
                oracle.admit(admitted, JOIN_TEMPLATES[admitted % JOIN_TEMPLATES.len()]);
                admitted += 1;
            }
            oracle.arrive(tag, tuple, in_blocks < hashed_blocks * spec.block);
            in_blocks += 1;
        }
    }
    oracle.finish()
}

/// Output rows and matches missing or surplus against the oracle, each
/// counted as one failed operation; the first differences are printed.
pub fn verify(program: &BTreeMap<usize, Tally>, oracle: &BTreeMap<usize, Tally>) -> u64 {
    let mut failed = 0;
    let ids: std::collections::BTreeSet<usize> =
        program.keys().chain(oracle.keys()).copied().collect();
    for id in ids {
        let (got, want) = (
            program.get(&id).copied().unwrap_or_default(),
            oracle.get(&id).copied().unwrap_or_default(),
        );
        if got == want {
            continue;
        }
        let mut wrong = got.matches_in.abs_diff(want.matches_in)
            + got.rows.abs_diff(want.rows)
            + got.hashed_rows.abs_diff(want.hashed_rows);
        if wrong == 0 {
            // Same counts, different rows.
            wrong = 1;
        }
        if failed == 0 {
            eprintln!("ledger: query q{id} differs from the oracle: got {got:?}, want {want:?}");
        }
        failed += wrong;
    }
    failed
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What one cycle of a run pushed and what its runtime reported.
struct Cycle {
    segments: [Segment; 3],
    hashed_blocks: usize,
    program: BTreeMap<usize, Tally>,
}

/// One end-to-end run, tracing off: `seconds` cycles, each a runtime of
/// its own that is set up (timed), driven through a throughput slice and
/// a latency slice, and shut down. Every metric therefore has samples
/// from every second of the run, and `peak_rss_mb` is that of one
/// second's runtime, whatever the run's length.
pub fn run(spec: &Software, seed: u64, seconds: u64) -> Result<report::EndToEnd, String> {
    let mut tracer = Tracer::new(false);
    let fleet = spec.fleet();
    let mut stream = Stream::new(spec.keys, seed);
    let (mut setup_s, mut block_ktps, mut latency_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut cycles = Vec::new();
    let mut control_ops = 0;
    for cycle in 1..=seconds {
        let hashed_blocks = if cycle == 1 { CHECK_BLOCKS } else { 0 };
        let warmup = stream.take(spec.warmup()).to_vec();
        let start = Instant::now();
        let mut driver = Driver::setup(spec, Runtime::new(spec), &fleet, &warmup, &mut tracer)?;
        setup_s.push(start.elapsed().as_secs_f64());

        let deadline = Instant::now() + Duration::from_secs_f64(THROUGHPUT_SHARE);
        let mut blocks = 0;
        while blocks == 0 || Instant::now() < deadline {
            let block = stream.take(spec.block);
            let block_s = driver.block(block, blocks < hashed_blocks, &mut tracer)?;
            block_ktps.push(spec.block as f64 / block_s / 1e3);
            blocks += 1;
        }

        // The last slice runs on until there are two windows of samples.
        let deadline = Instant::now() + Duration::from_secs_f64(1.0 - THROUGHPUT_SHARE);
        let before = latency_us.len();
        while Instant::now() < deadline
            || (cycle == seconds && latency_us.len() < 2 * LATENCY_WINDOW)
        {
            latency_us.push(driver.latency_sample(stream.one())?.as_secs_f64() * 1e6);
        }

        let (program, totals) = driver.finish(&mut tracer)?;
        control_ops += totals.control_ops;
        cycles.push(Cycle {
            segments: [
                Segment::Warmup(warmup.len()),
                Segment::Blocks(blocks * spec.block),
                Segment::Singles(latency_us.len() - before),
            ],
            hashed_blocks,
            program,
        });
    }
    // Before the oracle runs: its tables are harness memory.
    let peak_rss_mb = peak_rss_mb()?;

    let mut again = Stream::new(spec.keys, seed);
    let (mut failed, mut arrivals) = (0, 0);
    for cycle in &cycles {
        let oracle = replay(
            spec,
            &fleet,
            &mut again,
            &cycle.segments,
            cycle.hashed_blocks,
        );
        failed += verify(&cycle.program, &oracle);
        arrivals += cycle.segments.iter().map(|s| s.arrivals()).sum::<usize>();
    }
    let count = |n: usize| Json::UInt(n as u64);
    let median_block_ktps = median(&mut block_ktps);
    Ok(report::EndToEnd {
        throughput_ktps: calm_rate(&mut block_ktps),
        latency_p50_us: calm_time(&mut window_quantiles(&latency_us, LATENCY_WINDOW, 0.5)),
        latency_p99_us: calm_time(&mut window_quantiles(&latency_us, LATENCY_WINDOW, 0.99)),
        peak_rss_mb,
        setup_s: calm_time(&mut setup_s),
        attempted: arrivals as u64 + (fleet.len() as u64) * seconds + control_ops,
        failed,
        detail: vec![
            ("warmup_tuples", count(spec.warmup())),
            ("throughput_blocks", count(block_ktps.len())),
            ("throughput_tuples", count(block_ktps.len() * spec.block)),
            ("median_block_ktps", Json::Float(median_block_ktps)),
            ("latency_samples", count(latency_us.len())),
            ("setup_samples", count(setup_s.len())),
        ],
    })
}
