//! Cross-engine equivalence: the parallel simulation layer must be
//! *cycle-exact* — for any design configuration and workload, driving the
//! design with `hwsim::ParSimulator` at any thread count produces the
//! same cycle counts, the same accepted-tuple counts, and the same result
//! stream (order included) as the sequential `hwsim::Simulator`.
//!
//! Randomized configurations sweep both flow models, both network kinds,
//! core counts, window sizes, and workload seeds; every configuration is
//! run at 1, 2, 4, and 8 threads.

mod common;

use accel_landscape::hwsim::{Control, Engine, ParSimulator, Simulator};
use accel_landscape::joinhw::harness::{
    build, prefill_planted, prefill_steady_state, run_latency_with, run_throughput_with, StreamJoin,
};
use accel_landscape::joinhw::{DesignParams, FlowModel, NetworkKind};
use accel_landscape::streamcore::{MatchPair, StreamTag, Tuple};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Drives `inputs` through the design until quiescence, collecting every
/// drained result in drain order — the full observable behavior of a run.
fn drive_collect<E: Engine>(
    engine: &mut E,
    join: &mut dyn StreamJoin,
    inputs: &[(StreamTag, Tuple)],
) -> (u64, usize, Vec<MatchPair>) {
    let mut idx = 0usize;
    let mut out = Vec::new();
    let stopped = engine.run_driven(join, 1_000_000, &mut |join, _| {
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
    assert!(stopped, "design failed to quiesce within the cycle budget");
    out.extend(join.drain_results());
    (engine.cycle(), idx, out)
}

fn params_for(flow: FlowModel, cores: u32, window: usize, scalable: bool) -> DesignParams {
    // Scalable (tree) networks require the core count to be a power of
    // the fan-out; other configurations use the lightweight network.
    let network = if scalable && cores.is_power_of_two() {
        NetworkKind::Scalable
    } else {
        NetworkKind::Lightweight
    };
    DesignParams::new(flow, cores, window).with_network(network)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    /// Full-run observable equivalence on a randomized workload: cycles,
    /// accepted tuples, and the exact result stream all match the
    /// sequential engine at every thread count.
    fn workload_runs_are_engine_invariant(
        uni in any::<bool>(),
        cores in prop::sample::select(vec![1u32, 2, 3, 4, 8]),
        wexp in prop::sample::select(vec![4u32, 5, 6]),
        scalable in any::<bool>(),
        tuples in 20usize..100,
        domain in prop::sample::select(vec![4u32, 16, 64]),
        seed in 0u64..1 << 32,
    ) {
        let flow = if uni { FlowModel::UniFlow } else { FlowModel::BiFlow };
        let params = params_for(flow, cores, 1 << wexp, scalable);
        let inputs = common::workload(tuples, domain, seed);

        let mut join = build(&params);
        let reference = drive_collect(&mut Simulator::new(), join.as_mut(), &inputs);

        for threads in THREAD_COUNTS {
            let mut join = build(&params);
            let got =
                drive_collect(&mut ParSimulator::new(threads), join.as_mut(), &inputs);
            prop_assert_eq!(
                &reference, &got,
                "engine divergence at {} threads ({:?})", threads, &params
            );
        }
    }

    #[test]
    /// The saturation-throughput harness reports identical runs on every
    /// engine.
    fn throughput_runs_are_engine_invariant(
        uni in any::<bool>(),
        cores in prop::sample::select(vec![1u32, 2, 4, 8]),
        wexp in prop::sample::select(vec![4u32, 6]),
        tuples in 16u64..80,
    ) {
        let flow = if uni { FlowModel::UniFlow } else { FlowModel::BiFlow };
        let params = params_for(flow, cores, 1 << wexp, false);

        let mut join = build(&params);
        prefill_steady_state(join.as_mut(), params.window_size);
        let reference =
            run_throughput_with(&mut Simulator::new(), join.as_mut(), tuples, 1 << 20);

        for threads in THREAD_COUNTS {
            let mut join = build(&params);
            prefill_steady_state(join.as_mut(), params.window_size);
            let got = run_throughput_with(
                &mut ParSimulator::new(threads),
                join.as_mut(),
                tuples,
                1 << 20,
            );
            prop_assert_eq!(reference, got, "threads {}", threads);
        }
    }

    #[test]
    /// The latency harness (planted matches, one probe) reports identical
    /// runs on every engine.
    fn latency_runs_are_engine_invariant(
        cores in prop::sample::select(vec![1u32, 2, 4, 8]),
        wexp in prop::sample::select(vec![5u32, 6, 7]),
        scalable in any::<bool>(),
    ) {
        let params = params_for(FlowModel::UniFlow, cores, 1 << wexp, scalable);
        let probe = (StreamTag::R, Tuple::new(7, u32::MAX));

        let mut join = build(&params);
        prefill_planted(join.as_mut(), &params, 7);
        let reference =
            run_latency_with(&mut Simulator::new(), join.as_mut(), probe, 1_000_000);
        prop_assert!(reference.is_some());

        for threads in THREAD_COUNTS {
            let mut join = build(&params);
            prefill_planted(join.as_mut(), &params, 7);
            let got = run_latency_with(
                &mut ParSimulator::new(threads),
                join.as_mut(),
                probe,
                1_000_000,
            );
            prop_assert_eq!(reference, got, "threads {}", threads);
        }
    }
}
