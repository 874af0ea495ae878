//! Cross-validation of the analytic throughput/latency models against the
//! cycle-accurate simulation — the ablation DESIGN.md calls out. If these
//! drift apart, either the simulator or the closed-form model (which the
//! figure tables print side by side) has regressed.

use accel_landscape::joinhw::harness::{
    biflow_service_cycles, build, prefill_planted, prefill_steady_state, run_latency,
    run_throughput, uniflow_latency_cycles, uniflow_service_cycles,
};
use accel_landscape::joinhw::{DesignParams, FlowModel, NetworkKind};
use accel_landscape::streamcore::{StreamTag, Tuple};

const KEY_DOMAIN: u32 = 1 << 20;

#[test]
fn uniflow_throughput_model_tracks_simulation_across_grid() {
    for &cores in &[2u32, 4, 8, 16] {
        for &window in &[1usize << 8, 1 << 10, 1 << 12] {
            let params = DesignParams::new(FlowModel::UniFlow, cores, window);
            let mut join = build(&params);
            prefill_steady_state(join.as_mut(), window);
            let run = run_throughput(join.as_mut(), 128, KEY_DOMAIN);
            let measured = 1.0 / run.tuples_per_cycle();
            let model = uniflow_service_cycles(window, cores);
            let err = (measured - model).abs() / model;
            assert!(
                err < 0.10,
                "uni-flow {cores}x2^{}: measured {measured:.1} vs model {model:.1}",
                window.ilog2()
            );
        }
    }
}

#[test]
fn biflow_throughput_model_tracks_simulation() {
    for &cores in &[2u32, 4, 8] {
        let window = 1usize << 8;
        let params = DesignParams::new(FlowModel::BiFlow, cores, window);
        let mut join = build(&params);
        prefill_steady_state(join.as_mut(), window);
        let run = run_throughput(join.as_mut(), 32, KEY_DOMAIN);
        let measured = 1.0 / run.tuples_per_cycle();
        let model = biflow_service_cycles(window, cores);
        let err = (measured - model).abs() / model;
        assert!(
            err < 0.15,
            "bi-flow {cores} cores: measured {measured:.1} vs model {model:.1}"
        );
    }
}

#[test]
fn uniflow_latency_model_tracks_simulation_for_both_networks() {
    for network in [NetworkKind::Lightweight, NetworkKind::Scalable] {
        for &cores in &[4u32, 16] {
            let window = 1usize << 12;
            let params = DesignParams::new(FlowModel::UniFlow, cores, window).with_network(network);
            let mut join = build(&params);
            prefill_planted(join.as_mut(), &params, 3);
            let run = run_latency(
                join.as_mut(),
                (StreamTag::R, Tuple::new(3, u32::MAX)),
                10_000_000,
            )
            .expect("probe quiesces");
            assert_eq!(run.results, cores as u64, "one planted match per core");
            let measured = run.cycles_to_last_result as f64;
            let model = uniflow_latency_cycles(&params);
            let err = (measured - model).abs() / model;
            assert!(
                err < 0.25,
                "{network:?} {cores} cores: measured {measured} vs model {model:.0}"
            );
        }
    }
}

#[test]
fn simulated_speedup_matches_model_prediction() {
    // The headline linear-scaling claim, checked end to end: quadrupling
    // cores should quadruple simulated throughput (full windows).
    let window = 1usize << 10;
    let mut rates = Vec::new();
    for &cores in &[2u32, 8] {
        let params = DesignParams::new(FlowModel::UniFlow, cores, window);
        let mut join = build(&params);
        prefill_steady_state(join.as_mut(), window);
        let run = run_throughput(join.as_mut(), 128, KEY_DOMAIN);
        rates.push(run.tuples_per_cycle());
    }
    let speedup = rates[1] / rates[0];
    assert!(
        (3.4..4.6).contains(&speedup),
        "expected ~4x from 2 to 8 cores, got {speedup:.2}"
    );
}
