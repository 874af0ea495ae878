//! Waveform capture: run the cycle-accurate uni-flow join and dump a VCD
//! trace viewable in GTKWave — per-core busy signals, input acceptance,
//! and result arrivals.
//!
//! ```sh
//! cargo run --release --example waveform
//! # then: gtkwave target/uniflow.vcd
//! ```

use accel_landscape::hwsim::{Simulator, TraceRecorder};
use accel_landscape::joinhw::uniflow::{ProcessingState, UniFlowJoin};
use accel_landscape::joinhw::{DesignParams, FlowModel, JoinOperator};
use accel_landscape::streamcore::workload::{KeyDist, WorkloadSpec};

fn main() -> std::io::Result<()> {
    let cores = 4u32;
    let params = DesignParams::new(FlowModel::UniFlow, cores, 64);
    let mut join = UniFlowJoin::new(&params);
    join.program(JoinOperator::equi(cores));

    let mut trace = TraceRecorder::new();
    let accepted = trace.signal("input_accepted", 1);
    let results = trace.signal("results_total", 16);
    let busy: Vec<_> = (0..cores)
        .map(|i| trace.signal(format!("core{i}_busy"), 1))
        .collect();

    let inputs: Vec<_> = WorkloadSpec::new(64, KeyDist::Uniform { domain: 8 })
        .generate()
        .collect();
    let mut sim = Simulator::new();
    let mut idx = 0;
    let mut total_results = 0u64;
    let mut last_accepted = 0;
    while idx < inputs.len() || !join.quiescent() {
        if idx < inputs.len() {
            let (tag, tuple) = inputs[idx];
            if join.offer(tag, tuple) {
                idx += 1;
            }
        }
        sim.step(&mut join);
        total_results += join.drain_results().len() as u64;

        trace.set_cycle(sim.cycle());
        trace.sample(accepted, u64::from(join.accepted_tuples() != last_accepted));
        last_accepted = join.accepted_tuples();
        trace.sample(results, total_results);
        for (i, &sig) in busy.iter().enumerate() {
            let is_busy = join.core_mut(i).processing_state() == ProcessingState::JoinProcessing;
            trace.sample(sig, u64::from(is_busy));
        }
    }

    let path = std::path::Path::new("target/uniflow.vcd");
    std::fs::create_dir_all("target")?;
    let file = std::fs::File::create(path)?;
    trace.write_vcd(file)?;
    println!(
        "traced {} cycles, {} value changes, {} results -> {}",
        sim.cycle(),
        trace.change_count(),
        total_results,
        path.display()
    );
    Ok(())
}
