//! Per-shard utilization accounting of the parallel simulation engine on
//! a real join design: after any run, every worker's cycle ledger must
//! balance — `busy_cycles + wait_cycles == ParStats::cycles` — at every
//! thread count, and the report must publish cleanly as named values.

use accel_landscape::hwsim::{ParSimulator, ParStats};
use accel_landscape::joinhw::harness::{build, prefill_steady_state, run_throughput_with};
use accel_landscape::joinhw::{DesignParams, FlowModel, NetworkKind};

fn run_and_take_stats(threads: usize) -> ParStats {
    let params =
        DesignParams::new(FlowModel::UniFlow, 8, 1 << 6).with_network(NetworkKind::Scalable);
    let mut join = build(&params);
    prefill_steady_state(join.as_mut(), params.window_size);
    let mut sim = ParSimulator::new(threads);
    run_throughput_with(&mut sim, join.as_mut(), 64, 1 << 20);
    sim.take_stats().expect("run records stats")
}

#[test]
fn busy_and_wait_cycles_sum_to_run_cycles_at_every_thread_count() {
    for threads in [1usize, 2, 4] {
        let stats = run_and_take_stats(threads);
        assert_eq!(stats.threads, threads, "engine honors its thread budget");
        assert!(stats.cycles > 0, "throughput run advances the clock");
        assert_eq!(
            stats.workers.len(),
            threads,
            "one ledger per worker (the driving thread included)"
        );
        for (i, w) in stats.workers.iter().enumerate() {
            assert_eq!(
                w.busy_cycles + w.wait_cycles,
                stats.cycles,
                "worker {i} of {threads}: every cycle is busy or waiting"
            );
        }
        if threads > 1 {
            // The design decomposes into shards; a saturated run keeps
            // every worker busy on most cycles.
            let executed: u64 = stats.workers.iter().map(|w| w.shards_executed).sum();
            assert!(executed > 0, "parallel run executed shard phases");
        }
    }
}

#[test]
fn stats_publish_per_worker_keys_into_a_registry() {
    let stats = run_and_take_stats(2);
    let reg = stats.values();
    assert_eq!(reg.get("hwsim.par.threads"), Some(2));
    assert_eq!(reg.get("hwsim.par.cycles"), Some(stats.cycles));
    for i in 0..2 {
        let busy = reg
            .get(&format!("hwsim.par.worker.{i}.busy_cycles"))
            .unwrap();
        let wait = reg
            .get(&format!("hwsim.par.worker.{i}.wait_cycles"))
            .unwrap();
        assert_eq!(busy + wait, stats.cycles);
    }
}
