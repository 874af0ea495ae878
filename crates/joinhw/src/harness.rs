//! Experiment harness: drives the hardware designs through throughput and
//! latency measurements, matching the paper's methodology.
//!
//! * **Throughput** (Figs. 14a–c): windows are pre-filled to steady state,
//!   then the design is driven at saturation — a tuple is offered every
//!   cycle and accepted whenever the input port has room. Input throughput
//!   is accepted tuples per cycle, converted to tuples/second by the
//!   synthesis clock.
//! * **Latency** (Fig. 15): "the time it takes to process and emit all
//!   results for a newly inserted tuple" — windows are pre-filled with a
//!   planted match per join core, one probe tuple is injected, and the
//!   cycle at which the last result reaches the collector is recorded.
//! * **A finite stream** ([`run_stream`], or [`feed`] and [`settle`] on a
//!   caller's [`Simulator`]): every input offered in order until accepted,
//!   then the design stepped to quiescence and its results drained. This
//!   is the one drive loop for a design's results.
//!
//! The analytic models at the bottom cross-validate the cycle-accurate
//! simulation (see `tests/model_vs_sim.rs` at the workspace root).

use std::fmt;

use hwsim::{Control, Engine, Sharded, Simulator};
use streamcore::metrics::Throughput;
use streamcore::{MatchPair, StreamTag, Tuple};

use crate::biflow::BiFlowJoin;
use crate::uniflow::UniFlowJoin;
use crate::{DesignParams, FlowModel};

/// Common driving interface over the two hardware join designs.
///
/// The [`Sharded`] supertrait lets any engine implementing
/// [`Engine`] — the sequential [`Simulator`] or the parallel
/// `hwsim::ParSimulator` — drive a boxed design.
pub trait StreamJoin: Sharded {
    /// Offers a tuple at the appropriate input port; `false` if
    /// back-pressured this cycle.
    fn offer(&mut self, tag: StreamTag, tuple: Tuple) -> bool;
    /// `true` when no work is queued or in flight.
    fn quiescent(&self) -> bool;
    /// Results collected and not yet drained.
    fn pending_results(&self) -> usize;
    /// Removes and returns collected results.
    fn drain_results(&mut self) -> Vec<MatchPair>;
    /// Directly loads the sliding windows (measurement setup).
    fn prefill(&mut self, r: &[Tuple], s: &[Tuple]);
    /// Tuples accepted so far.
    fn accepted_tuples(&self) -> u64;
    /// Detaches the design's cycle-stamped span rings (empty unless
    /// tracing was enabled when the design was built; see `obs::trace`).
    fn take_trace(&mut self) -> Vec<obs::trace::TraceRing> {
        Vec::new()
    }
    /// Detaches the design's per-tuple provenance tracker, if the design
    /// samples one (uni-flow does; bi-flow has no staged pipeline).
    fn take_provenance(&mut self) -> Option<obs::provenance::ProvenanceTracker> {
        None
    }
}

/// Builds the design named by `params`, programmed with an equi-join.
pub fn build(params: &DesignParams) -> Box<dyn StreamJoin> {
    let op = crate::JoinOperator::equi(params.num_cores);
    match params.flow {
        FlowModel::UniFlow => {
            let mut j = UniFlowJoin::new(params);
            j.program(op);
            Box::new(j)
        }
        FlowModel::BiFlow => {
            let mut j = BiFlowJoin::new(params);
            j.program(op);
            Box::new(j)
        }
    }
}

/// A design that did not make progress within a driver's cycle bound:
/// the cycles the stalled call stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall(pub u64);

impl fmt::Display for Stall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "design stalled for {} cycles", self.0)
    }
}

impl std::error::Error for Stall {}

/// Offers `inputs` in order, stepping `sim` once per attempt and retrying
/// each input until the design accepts it.
///
/// # Errors
///
/// Returns a [`Stall`] once `max_cycles` cycles pass with input left.
pub fn feed(
    sim: &mut Simulator,
    join: &mut dyn StreamJoin,
    inputs: &[(StreamTag, Tuple)],
    max_cycles: u64,
) -> Result<(), Stall> {
    let start = sim.cycle();
    for &(tag, tuple) in inputs {
        loop {
            if sim.cycle() - start >= max_cycles {
                return Err(Stall(max_cycles));
            }
            let taken = join.offer(tag, tuple);
            sim.step(join);
            if taken {
                break;
            }
        }
    }
    Ok(())
}

/// Steps `sim` until the design is quiescent, then drains its results.
///
/// # Errors
///
/// Returns a [`Stall`] if the design is still busy after `max_cycles`.
pub fn settle(
    sim: &mut Simulator,
    join: &mut dyn StreamJoin,
    max_cycles: u64,
) -> Result<Vec<MatchPair>, Stall> {
    let start = sim.cycle();
    while !join.quiescent() {
        if sim.cycle() - start >= max_cycles {
            return Err(Stall(max_cycles));
        }
        sim.step(join);
    }
    Ok(join.drain_results())
}

/// Runs a finite stream through `join` on a fresh [`Simulator`]:
/// [`feed`], then [`settle`], each within `max_cycles`. Returns the
/// results and the cycles the run took.
///
/// # Errors
///
/// Returns the [`Stall`] of whichever phase ran out of cycles.
pub fn run_stream(
    join: &mut dyn StreamJoin,
    inputs: &[(StreamTag, Tuple)],
    max_cycles: u64,
) -> Result<(Vec<MatchPair>, u64), Stall> {
    let mut sim = Simulator::new();
    feed(&mut sim, join, inputs, max_cycles)?;
    let results = settle(&mut sim, join, max_cycles)?;
    Ok((results, sim.cycle()))
}

/// Fills both windows to capacity with non-matching keys (distinct per
/// stream), leaving the design in steady state for a throughput run.
pub fn prefill_steady_state(join: &mut dyn StreamJoin, window_size: usize) {
    let r: Vec<Tuple> = (0..window_size as u32).map(|i| Tuple::new(i, i)).collect();
    let s: Vec<Tuple> = (0..window_size as u32)
        .map(|i| Tuple::new(i + window_size as u32, i))
        .collect();
    join.prefill(&r, &s);
}

/// Outcome of a saturation throughput run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputRun {
    /// Tuples accepted during the measured span.
    pub tuples: u64,
    /// Clock cycles elapsed.
    pub cycles: u64,
    /// Join results produced during the span.
    pub results: u64,
}

impl ThroughputRun {
    /// Accepted input tuples per clock cycle.
    pub fn tuples_per_cycle(&self) -> f64 {
        self.tuples as f64 / self.cycles as f64
    }

    /// Converts to tuples/second at clock frequency `mhz`.
    pub fn at_clock(&self, mhz: f64) -> Throughput {
        Throughput::over_cycles(self.tuples, self.cycles, mhz)
    }
}

/// Drives a pre-filled design at saturation until `tuples` inputs have
/// been accepted; alternates R and S tuples with keys drawn round-robin
/// from `key_domain` (selectivity `window / key_domain` per probe).
///
/// # Panics
///
/// Panics if the design stops accepting input for an implausibly long
/// stretch (a deadlock in the modeled flow control).
pub fn run_throughput(join: &mut dyn StreamJoin, tuples: u64, key_domain: u32) -> ThroughputRun {
    run_throughput_with(&mut Simulator::new(), join, tuples, key_domain)
}

/// [`run_throughput`] on an explicit [`Engine`] — pass an
/// `hwsim::ParSimulator` to run the same (cycle-exact) measurement with
/// the join cores spread across a worker pool.
///
/// The drive loop is expressed as a per-cycle tick: drain the collector
/// when its backlog passes the watermark, stop once `tuples` inputs were
/// accepted, otherwise offer the next tuple. This ordering reproduces the
/// sequential measurement loop event for event, so every engine reports
/// identical [`ThroughputRun`]s.
///
/// # Panics
///
/// Panics if the design stops accepting input for an implausibly long
/// stretch (a deadlock in the modeled flow control).
pub fn run_throughput_with<E: Engine>(
    engine: &mut E,
    join: &mut dyn StreamJoin,
    tuples: u64,
    key_domain: u32,
) -> ThroughputRun {
    run_throughput_observed(engine, join, tuples, key_domain).0
}

/// [`run_throughput_with`] that additionally returns the distribution of
/// per-tuple **service gaps**: the number of cycles between consecutive
/// input acceptances. At saturation the gap is the design's service time,
/// so the histogram's p50/p99 expose the tail the mean throughput number
/// hides (e.g. cycles stalling on a full gathering tree).
///
/// The drive loop is byte-for-byte the one [`run_throughput`] uses —
/// recording a gap has no control-flow effect — so the returned
/// [`ThroughputRun`] is identical to the unobserved run's.
///
/// # Panics
///
/// Panics if the design stops accepting input for an implausibly long
/// stretch (a deadlock in the modeled flow control).
pub fn run_throughput_observed<E: Engine>(
    engine: &mut E,
    join: &mut dyn StreamJoin,
    tuples: u64,
    key_domain: u32,
) -> (ThroughputRun, obs::Histogram) {
    let start = engine.cycle();
    let mut sent = 0u64;
    let mut results = 0u64;
    let mut seq = 0u32;
    let mut stall = 0u64;
    let mut gaps = obs::Histogram::new();
    let mut last_accept = start;
    engine.run_driven(join, u64::MAX, &mut |join, cycle| {
        if join.pending_results() > 4_096 {
            results += join.drain_results().len() as u64;
        }
        if sent == tuples {
            return Control::Stop;
        }
        let tag = if sent.is_multiple_of(2) {
            StreamTag::R
        } else {
            StreamTag::S
        };
        // Multiplicative hash (high bits) decorrelates the key sequence
        // from the strict R/S alternation — plain `seq % domain` would
        // give the two streams disjoint key parities.
        let key = (seq.wrapping_mul(2_654_435_761) >> 16) % key_domain;
        if join.offer(tag, Tuple::new(key, seq)) {
            sent += 1;
            seq = seq.wrapping_add(1);
            stall = 0;
            gaps.record_value(cycle - last_accept);
            last_accept = cycle;
        } else {
            stall += 1;
            assert!(stall < 100_000_000, "input port wedged after {sent} tuples");
        }
        Control::Continue
    });
    results += join.drain_results().len() as u64;
    let run = ThroughputRun {
        tuples: sent,
        cycles: engine.cycle() - start,
        results,
    };
    (run, gaps)
}

/// Outcome of a single-tuple latency probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyRun {
    /// Cycles from injection until the last result reached the collector.
    pub cycles_to_last_result: u64,
    /// Cycles from injection until the whole design quiesced.
    pub cycles_to_quiescent: u64,
    /// Number of results the probe produced.
    pub results: u64,
}

/// Measures the latency of one probe tuple through a pre-filled design.
///
/// The windows must already contain the tuples the probe should match
/// (use [`prefill_planted`]). Returns `None` if the design fails to
/// quiesce within `max_cycles`.
pub fn run_latency(
    join: &mut dyn StreamJoin,
    probe: (StreamTag, Tuple),
    max_cycles: u64,
) -> Option<LatencyRun> {
    run_latency_with(&mut Simulator::new(), join, probe, max_cycles)
}

/// [`run_latency`] on an explicit [`Engine`]; see
/// [`run_throughput_with`] for the engine-equivalence contract.
///
/// The tick is a two-phase state machine mirroring the sequential probe
/// loop: retry the offer until accepted (with the same timeout check the
/// sequential loop applies after each stalled cycle), then drain and
/// watch for quiescence every cycle, recording the cycle of the last
/// drained result.
pub fn run_latency_with<E: Engine>(
    engine: &mut E,
    join: &mut dyn StreamJoin,
    probe: (StreamTag, Tuple),
    max_cycles: u64,
) -> Option<LatencyRun> {
    let start = engine.cycle();
    let mut offered_at: Option<u64> = None;
    let mut results = 0u64;
    let mut last_result_cycle = 0u64;
    let mut timed_out = false;
    engine.run_driven(join, u64::MAX, &mut |join, cycle| match offered_at {
        None => {
            if cycle - start > max_cycles {
                timed_out = true;
                return Control::Stop;
            }
            if !join.offer(probe.0, probe.1) {
                return Control::Continue;
            }
            offered_at = Some(cycle);
            last_result_cycle = cycle;
            if join.quiescent() {
                Control::Stop
            } else {
                Control::Continue
            }
        }
        Some(offered) => {
            let drained = join.drain_results();
            if !drained.is_empty() {
                results += drained.len() as u64;
                last_result_cycle = cycle;
            }
            if cycle - offered > max_cycles {
                timed_out = true;
                return Control::Stop;
            }
            if join.quiescent() {
                Control::Stop
            } else {
                Control::Continue
            }
        }
    });
    let offered = offered_at?;
    if timed_out {
        return None;
    }
    Some(LatencyRun {
        cycles_to_last_result: last_result_cycle - offered,
        cycles_to_quiescent: engine.cycle() - offered,
        results,
    })
}

/// Pre-fills a uni-flow design so that an R probe with `probe_key` finds
/// exactly one match in every join core's S sub-window, planted at the
/// *end* of each scan — the last-emitted result defines the latency, so
/// this makes the probe exercise the full scan plus the full breadth of
/// the gathering network, as the paper's latency experiment does.
pub fn prefill_planted(join: &mut dyn StreamJoin, params: &DesignParams, probe_key: u32) {
    let window = params.window_size;
    let n = params.num_cores as usize;
    let sub = params.sub_window();
    // Non-matching R fill.
    let r: Vec<Tuple> = (0..window as u32)
        .map(|i| Tuple::new(probe_key + 1 + i, i))
        .collect();
    // S fill: round-robin distribution maps index i to core i % n; the
    // newest tuple assigned to each core (scan position sub-1) matches.
    let s: Vec<Tuple> = (0..window as u32)
        .map(|i| {
            let pos_in_core = i as usize / n;
            if pos_in_core == sub - 1 {
                Tuple::new(probe_key, i)
            } else {
                Tuple::new(probe_key + 1 + i, i)
            }
        })
        .collect();
    join.prefill(&r, &s);
}

// ---------------------------------------------------------------------
// Analytic models (cross-validation of the cycle-accurate simulation)
// ---------------------------------------------------------------------

/// Uni-flow steady-state service time per tuple, in cycles: each core
/// scans its full opposite sub-window at one read per cycle. The fetch of
/// the next tuple overlaps the final scan cycle, so no extra cycle is
/// charged; the input bus caps the rate at one tuple per cycle.
pub fn uniflow_service_cycles(window_size: usize, num_cores: u32) -> f64 {
    window_size.div_ceil(num_cores as usize).max(1) as f64
}

/// Uni-flow input throughput in tuples/second at `mhz`.
pub fn uniflow_throughput_model(window_size: usize, num_cores: u32, mhz: f64) -> f64 {
    mhz * 1e6 / uniflow_service_cycles(window_size, num_cores)
}

/// Bi-flow (single-wave discipline) service time per tuple, in cycles:
/// the wave traverses every core, paying handshake + probe + park at each.
pub fn biflow_service_cycles(window_size: usize, num_cores: u32) -> f64 {
    let sub = window_size.div_ceil(num_cores as usize) as f64;
    num_cores as f64 * (sub + f64::from(crate::biflow::HANDSHAKE_CYCLES) + 1.0)
}

/// Bi-flow input throughput in tuples/second at `mhz`.
pub fn biflow_throughput_model(window_size: usize, num_cores: u32, mhz: f64) -> f64 {
    mhz * 1e6 / biflow_service_cycles(window_size, num_cores)
}

/// Bi-flow single-tuple latency in cycles: the admitted wave traverses
/// every core, paying handshake + full-segment probe + park at each —
/// the "latency increase since the processing of a single incoming tuple
/// requires a sequential flow through the entire processing pipeline"
/// the paper attributes to bi-flow.
pub fn biflow_latency_cycles(window_size: usize, num_cores: u32) -> f64 {
    biflow_service_cycles(window_size, num_cores)
}

/// Uni-flow single-tuple latency in cycles: distribution stages, the
/// sub-window scan, and result collection.
pub fn uniflow_latency_cycles(params: &DesignParams) -> f64 {
    let sub = params.sub_window() as f64;
    let n = params.num_cores as f64;
    let (dist, gather) = match params.network {
        crate::NetworkKind::Lightweight => (1.0, n / 2.0 + 1.0),
        crate::NetworkKind::Scalable => {
            let depth = (params.num_cores as f64)
                .log(params.tree_fanout as f64)
                .ceil()
                + 1.0;
            (depth, params.tree_fanout as f64 * depth)
        }
    };
    // Fetch + scan to the planted match (mid-window average ≈ full scan
    // for the last result) + emit.
    dist + 1.0 + sub + gather
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkKind;

    fn uni(n: u32, w: usize) -> DesignParams {
        DesignParams::new(FlowModel::UniFlow, n, w)
    }

    #[test]
    fn throughput_run_matches_service_model() {
        let params = uni(4, 256);
        let mut join = build(&params);
        prefill_steady_state(join.as_mut(), params.window_size);
        let run = run_throughput(join.as_mut(), 200, 1 << 20);
        let measured = 1.0 / run.tuples_per_cycle();
        let model = uniflow_service_cycles(params.window_size, params.num_cores);
        let err = (measured - model).abs() / model;
        assert!(
            err < 0.10,
            "service cycles measured {measured:.1} vs model {model:.1}"
        );
    }

    #[test]
    fn biflow_run_matches_service_model() {
        let params = DesignParams::new(FlowModel::BiFlow, 4, 64);
        let mut join = build(&params);
        prefill_steady_state(join.as_mut(), params.window_size);
        let run = run_throughput(join.as_mut(), 50, 1 << 20);
        let measured = 1.0 / run.tuples_per_cycle();
        let model = biflow_service_cycles(params.window_size, params.num_cores);
        let err = (measured - model).abs() / model;
        assert!(
            err < 0.15,
            "service cycles measured {measured:.1} vs model {model:.1}"
        );
    }

    #[test]
    fn uniflow_beats_biflow_by_roughly_the_core_count() {
        // Fig. 14b's "nearly an order of magnitude" at matched parameters.
        let (n, w) = (8u32, 256usize);
        let uni_t = uniflow_throughput_model(w, n, 100.0);
        let bi_t = biflow_throughput_model(w, n, 100.0);
        let ratio = uni_t / bi_t;
        assert!(
            (n as f64 * 0.8..n as f64 * 1.6).contains(&ratio),
            "expected ~{n}x, got {ratio:.1}"
        );
    }

    #[test]
    fn latency_probe_collects_one_match_per_core() {
        for network in [NetworkKind::Lightweight, NetworkKind::Scalable] {
            let params = uni(4, 64).with_network(network);
            let mut join = build(&params);
            prefill_planted(join.as_mut(), &params, 7);
            let run = run_latency(
                join.as_mut(),
                (StreamTag::R, Tuple::new(7, 1 << 30)),
                100_000,
            )
            .expect("quiesces");
            assert_eq!(run.results, 4, "{network:?}");
            assert!(run.cycles_to_last_result > 0);
            assert!(run.cycles_to_quiescent >= run.cycles_to_last_result);
        }
    }

    #[test]
    fn latency_matches_analytic_model_within_tolerance() {
        let params = uni(8, 512).with_network(NetworkKind::Scalable);
        let mut join = build(&params);
        prefill_planted(join.as_mut(), &params, 3);
        let run = run_latency(
            join.as_mut(),
            (StreamTag::R, Tuple::new(3, 1 << 30)),
            1_000_000,
        )
        .expect("quiesces");
        let model = uniflow_latency_cycles(&params);
        let measured = run.cycles_to_last_result as f64;
        let err = (measured - model).abs() / model;
        assert!(
            err < 0.25,
            "latency measured {measured} vs model {model:.0}"
        );
    }

    #[test]
    fn network_variants_similar_cycles_but_scalable_wins_in_time() {
        // Fig. 15: "we do not observe a significant difference in the
        // number of cycles … however, by taking into account the clock
        // frequency drop in the lightweight solution, the actual
        // difference in latency becomes significant."
        let mut cycle_counts = Vec::new();
        let mut micros = Vec::new();
        for network in [NetworkKind::Lightweight, NetworkKind::Scalable] {
            let params = uni(32, 1 << 10).with_network(network);
            let mut join = build(&params);
            prefill_planted(join.as_mut(), &params, 5);
            let run = run_latency(
                join.as_mut(),
                (StreamTag::R, Tuple::new(5, 1 << 30)),
                1_000_000,
            )
            .expect("quiesces");
            let clock = params
                .synthesize(&hwsim::devices::XC7VX485T)
                .expect("fits")
                .clock;
            cycle_counts.push(run.cycles_to_last_result);
            micros.push(clock.cycles_to_us(run.cycles_to_last_result));
        }
        let cycle_ratio = cycle_counts[0] as f64 / cycle_counts[1] as f64;
        assert!(
            (0.4..2.5).contains(&cycle_ratio),
            "cycle counts should be comparable: {cycle_counts:?}"
        );
        assert!(
            micros[1] < micros[0],
            "scalable should win in wall-clock: {micros:?} µs"
        );
    }

    #[test]
    fn biflow_latency_is_chain_serial() {
        // The wave visits every core sequentially: the measured latency of
        // a probe through a full chain tracks W + 3N, and sits roughly N×
        // above the uni-flow latency at matched parameters — the paper's
        // structural argument for uni-flow.
        let (cores, window) = (4u32, 256usize);
        let bi = DesignParams::new(FlowModel::BiFlow, cores, window);
        let mut join = build(&bi);
        // Plant one matching S tuple per segment.
        let r: Vec<_> = (0..window as u32).map(|i| Tuple::new(100 + i, i)).collect();
        let s: Vec<_> = (0..window as u32)
            .map(|i| {
                if (i as usize).is_multiple_of(bi.sub_window()) {
                    Tuple::new(7, i)
                } else {
                    Tuple::new(100_000 + i, i)
                }
            })
            .collect();
        join.prefill(&r, &s);
        let run = run_latency(
            join.as_mut(),
            (StreamTag::R, Tuple::new(7, u32::MAX)),
            1_000_000,
        )
        .expect("quiesces");
        assert_eq!(run.results, cores as u64);
        let model = biflow_latency_cycles(window, cores);
        let measured = run.cycles_to_last_result as f64;
        let err = (measured - model).abs() / model;
        assert!(err < 0.25, "bi-flow latency {measured} vs model {model}");

        // Uni-flow at the same parameters is roughly N× faster.
        let uni_model = uniflow_latency_cycles(&uni(cores, window));
        assert!(
            model > 2.5 * uni_model,
            "chain latency {model} should dwarf uni-flow {uni_model}"
        );
    }

    #[test]
    fn observed_run_matches_unobserved() {
        let params = DesignParams::new(FlowModel::BiFlow, 2, 32);
        let mut a = build(&params);
        prefill_steady_state(a.as_mut(), params.window_size);
        let run_a = run_throughput(a.as_mut(), 50, 1 << 20);

        let mut b = build(&params);
        prefill_steady_state(b.as_mut(), params.window_size);
        let (run_b, gaps) = run_throughput_observed(&mut Simulator::new(), b.as_mut(), 50, 1 << 20);
        assert_eq!(run_a, run_b, "recording gaps must not perturb the run");
        assert_eq!(gaps.total(), 50);
        assert!(gaps.p99() >= gaps.p50());
        assert_eq!(b.accepted_tuples(), 50);
    }

    #[test]
    fn throughput_results_counted() {
        // Key domain equal to a quarter of the window: every probe finds
        // matches; they must all surface through the gathering network.
        let params = uni(2, 32);
        let mut join = build(&params);
        let run = run_throughput(join.as_mut(), 400, 8);
        assert!(run.results > 0, "expected matches to be collected");
    }
}
