//! Determinism: a measurement is a pure function of its configuration and
//! seed. Repeating a run — on the same engine, on engines with different
//! thread counts, or on a host-sized pool — must reproduce the exact same
//! `ThroughputRun` / `LatencyRun`, field for field. Parallel scheduling
//! must not leak nondeterminism into the simulated machine.

mod common;

use accel_landscape::hwsim::{ParSimulator, Simulator};
use accel_landscape::joinhw::harness::{
    build, prefill_planted, prefill_steady_state, run_latency_with, run_throughput_with,
    LatencyRun, ThroughputRun,
};
use accel_landscape::joinhw::{DesignParams, FlowModel, NetworkKind};
use accel_landscape::streamcore::{StreamTag, Tuple};

fn throughput_on(params: &DesignParams, threads: Option<usize>) -> ThroughputRun {
    let mut join = build(params);
    prefill_steady_state(join.as_mut(), params.window_size);
    match threads {
        None => run_throughput_with(&mut Simulator::new(), join.as_mut(), 96, 1 << 20),
        Some(t) => run_throughput_with(&mut ParSimulator::new(t), join.as_mut(), 96, 1 << 20),
    }
}

fn latency_on(params: &DesignParams, threads: Option<usize>) -> LatencyRun {
    let mut join = build(params);
    prefill_planted(join.as_mut(), params, 5);
    let probe = (StreamTag::R, Tuple::new(5, u32::MAX));
    let run = match threads {
        None => run_latency_with(&mut Simulator::new(), join.as_mut(), probe, 1_000_000),
        Some(t) => run_latency_with(&mut ParSimulator::new(t), join.as_mut(), probe, 1_000_000),
    };
    run.expect("probe quiesces")
}

#[test]
fn throughput_runs_are_deterministic_across_repeats_and_threads() {
    for flow in [FlowModel::UniFlow, FlowModel::BiFlow] {
        let params = DesignParams::new(flow, 4, 1 << 6);
        let reference = throughput_on(&params, None);
        // Repeats on the same engine.
        for _ in 0..3 {
            assert_eq!(reference, throughput_on(&params, None), "{flow:?} repeat");
        }
        // Every thread count, including 0 = the host's width — each run
        // twice.
        for threads in [1usize, 2, 4, 8, 0] {
            assert_eq!(
                reference,
                throughput_on(&params, Some(threads)),
                "{flow:?} at {threads} threads"
            );
            assert_eq!(
                reference,
                throughput_on(&params, Some(threads)),
                "{flow:?} at {threads} threads, repeat"
            );
        }
    }
}

#[test]
fn latency_runs_are_deterministic_across_repeats_and_threads() {
    let params =
        DesignParams::new(FlowModel::UniFlow, 8, 1 << 7).with_network(NetworkKind::Scalable);
    let reference = latency_on(&params, None);
    for _ in 0..3 {
        assert_eq!(reference, latency_on(&params, None), "sequential repeat");
    }
    for threads in [1usize, 2, 4, 8, 0] {
        assert_eq!(
            reference,
            latency_on(&params, Some(threads)),
            "{threads} threads"
        );
        assert_eq!(
            reference,
            latency_on(&params, Some(threads)),
            "{threads} threads, repeat"
        );
    }
}

#[test]
fn full_result_streams_are_reproducible() {
    // Beyond the summary structs: the exact drained result sequence of a
    // randomized workload is identical run over run at mixed thread
    // counts.
    let params = DesignParams::new(FlowModel::UniFlow, 4, 1 << 5);
    let inputs = common::workload(80, 8, 0xFEED_FACE);
    let run = |threads: usize| -> Vec<_> {
        let mut join = build(&params);
        let mut engine = ParSimulator::new(threads);
        let mut idx = 0usize;
        let mut out = Vec::new();
        use accel_landscape::hwsim::{Control, Engine};
        engine.run_driven(join.as_mut(), 1_000_000, &mut |join, _| {
            out.extend(join.drain_results());
            if idx == inputs.len() {
                if join.quiescent() {
                    return Control::Stop;
                }
            } else {
                let (tag, tuple) = inputs[idx];
                if join.offer(tag, tuple) {
                    idx += 1;
                }
            }
            Control::Continue
        });
        out.extend(join.drain_results());
        out
    };
    let reference = run(1);
    assert!(!reference.is_empty(), "workload should produce matches");
    for threads in [1, 2, 4, 8] {
        assert_eq!(reference, run(threads), "{threads} threads");
    }
}
