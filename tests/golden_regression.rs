//! Golden regression: the paper-figure anchor configurations must
//! reproduce the exact cycle counts snapshotted in
//! `tests/common/golden.rs` — on the sequential engine *and* on the
//! parallel engine, which pins both the simulated machine and the
//! parallel layer's cycle-exactness on real designs (Figs. 14a, 14b, 15).
//! The hash-core pin (`figs hashjoin`) runs on the sequential engine only.

mod common;

use accel_landscape::hwsim::{ParSimulator, Simulator};
use accel_landscape::joinhw::harness::{
    build, prefill_planted, prefill_steady_state, run_latency_with, run_throughput_with,
    LatencyRun, ThroughputRun,
};
use accel_landscape::joinhw::{DesignParams, FlowModel, JoinAlgorithm, NetworkKind};
use accel_landscape::streamcore::{StreamTag, Tuple};
use common::golden;

const PAR_THREADS: usize = 4;

fn throughput_both(params: &DesignParams, tuples: u64) -> (ThroughputRun, ThroughputRun) {
    let mut join = build(params);
    prefill_steady_state(join.as_mut(), params.window_size);
    let seq = run_throughput_with(&mut Simulator::new(), join.as_mut(), tuples, 1 << 20);
    let mut join = build(params);
    prefill_steady_state(join.as_mut(), params.window_size);
    let par = run_throughput_with(
        &mut ParSimulator::new(PAR_THREADS),
        join.as_mut(),
        tuples,
        1 << 20,
    );
    (seq, par)
}

/// The planted-window latency probe (key 7) on both engines.
fn latency_both(params: &DesignParams) -> (LatencyRun, LatencyRun) {
    let probe = (StreamTag::R, Tuple::new(7, u32::MAX));
    let mut join = build(params);
    prefill_planted(join.as_mut(), params, 7);
    let seq = run_latency_with(&mut Simulator::new(), join.as_mut(), probe, 10_000_000)
        .expect("quiesces");
    let mut join = build(params);
    prefill_planted(join.as_mut(), params, 7);
    let par = run_latency_with(
        &mut ParSimulator::new(PAR_THREADS),
        join.as_mut(),
        probe,
        10_000_000,
    )
    .expect("quiesces");
    (seq, par)
}

#[test]
fn fig14a_throughput_cycles_match_golden() {
    for &(cores, tuples, cycles, results) in golden::FIG14A_THROUGHPUT {
        let params = DesignParams::new(FlowModel::UniFlow, cores, 1 << 11);
        let want = ThroughputRun {
            tuples,
            cycles,
            results,
        };
        let (seq, par) = throughput_both(&params, 128);
        assert_eq!(seq, want, "sequential drifted at {cores} cores");
        assert_eq!(par, want, "parallel drifted at {cores} cores");
    }
}

#[test]
fn fig14b_biflow_throughput_cycles_match_golden() {
    for &(cores, window, tuples, cycles, results) in golden::FIG14B_BIFLOW_THROUGHPUT {
        let params = DesignParams::new(FlowModel::BiFlow, cores, window);
        let want = ThroughputRun {
            tuples,
            cycles,
            results,
        };
        let (seq, par) = throughput_both(&params, tuples);
        assert_eq!(
            seq, want,
            "sequential drifted at {cores} cores, window {window}"
        );
        assert_eq!(
            par, want,
            "parallel drifted at {cores} cores, window {window}"
        );
    }
}

#[test]
fn fig14b_biflow_latency_cycles_match_golden() {
    for &(cores, window, last, quiescent, results) in golden::FIG14B_BIFLOW_LATENCY {
        let params = DesignParams::new(FlowModel::BiFlow, cores, window);
        let want = LatencyRun {
            cycles_to_last_result: last,
            cycles_to_quiescent: quiescent,
            results,
        };
        let (seq, par) = latency_both(&params);
        assert_eq!(
            seq, want,
            "sequential drifted at {cores} cores, window {window}"
        );
        assert_eq!(
            par, want,
            "parallel drifted at {cores} cores, window {window}"
        );
    }
}

#[test]
fn golden_cycles_are_identical_with_tracing_on() {
    // Span tracing and provenance sampling must be behavior-neutral:
    // re-run a pin from each golden table with tracing at its most
    // intrusive setting (every tuple sampled) and demand the exact
    // cycle counts: the pins hold with tracing on and off.
    use accel_landscape::obs::trace;
    trace::enable(1);

    let &(cores, tuples, cycles, results) = &golden::FIG14A_THROUGHPUT[0];
    let params = DesignParams::new(FlowModel::UniFlow, cores, 1 << 11);
    let (seq, par) = throughput_both(&params, 128);
    assert_eq!(
        seq,
        ThroughputRun {
            tuples,
            cycles,
            results
        },
        "traced fig14a seq drifted"
    );
    assert_eq!(
        par,
        ThroughputRun {
            tuples,
            cycles,
            results
        },
        "traced fig14a par drifted"
    );

    let &(cores, window, tuples, cycles, results) = &golden::FIG14B_BIFLOW_THROUGHPUT[0];
    let params = DesignParams::new(FlowModel::BiFlow, cores, window);
    let (seq, _) = throughput_both(&params, tuples);
    assert_eq!(
        seq,
        ThroughputRun {
            tuples,
            cycles,
            results
        },
        "traced fig14b drifted"
    );

    let &(cores, scalable, last, quiescent, results) = &golden::FIG15_LATENCY[0];
    let network = if scalable {
        NetworkKind::Scalable
    } else {
        NetworkKind::Lightweight
    };
    let params = DesignParams::new(FlowModel::UniFlow, cores, 1 << 13).with_network(network);
    let mut join = build(&params);
    prefill_planted(join.as_mut(), &params, 7);
    let probe = (StreamTag::R, Tuple::new(7, u32::MAX));
    let seq = run_latency_with(&mut Simulator::new(), join.as_mut(), probe, 10_000_000)
        .expect("quiesces");
    let want = LatencyRun {
        cycles_to_last_result: last,
        cycles_to_quiescent: quiescent,
        results,
    };
    assert_eq!(seq, want, "traced fig15 drifted");

    trace::disable();
}

#[test]
fn fig15_latency_cycles_match_golden() {
    for &(cores, scalable, last, quiescent, results) in golden::FIG15_LATENCY {
        let network = if scalable {
            NetworkKind::Scalable
        } else {
            NetworkKind::Lightweight
        };
        let params = DesignParams::new(FlowModel::UniFlow, cores, 1 << 13).with_network(network);
        let want = LatencyRun {
            cycles_to_last_result: last,
            cycles_to_quiescent: quiescent,
            results,
        };
        let (seq, par) = latency_both(&params);
        assert_eq!(
            seq, want,
            "sequential drifted at {cores} cores ({network:?})"
        );
        assert_eq!(par, want, "parallel drifted at {cores} cores ({network:?})");
    }
}

#[test]
fn hash_core_cycles_match_golden() {
    // The `figs hashjoin` design: a hash core probes only the matching
    // bucket, so its cycles pin the bucket index's hit sequence.
    let params =
        DesignParams::new(FlowModel::UniFlow, 16, 1 << 12).with_algorithm(JoinAlgorithm::Hash);
    for &(domain, tuples, cycles, results) in golden::HASHJOIN_THROUGHPUT {
        let mut join = build(&params);
        prefill_steady_state(join.as_mut(), params.window_size);
        let run = run_throughput_with(&mut Simulator::new(), join.as_mut(), tuples, domain);
        let want = ThroughputRun {
            tuples,
            cycles,
            results,
        };
        assert_eq!(run, want, "hash core drifted at key domain {domain}");
    }

    let (last, quiescent, results) = golden::HASHJOIN_LATENCY;
    let mut join = build(&params);
    prefill_planted(join.as_mut(), &params, 7);
    let probe = (StreamTag::R, Tuple::new(7, u32::MAX));
    let run = run_latency_with(&mut Simulator::new(), join.as_mut(), probe, 10_000_000)
        .expect("quiesces");
    let want = LatencyRun {
        cycles_to_last_result: last,
        cycles_to_quiescent: quiescent,
        results,
    };
    assert_eq!(run, want, "hash core latency drifted");
}
