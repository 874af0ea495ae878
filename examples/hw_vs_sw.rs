//! Hardware vs software: the same windowed equi-join measured on the
//! cycle-accurate uni-flow FPGA design (Virtex-7, 300 MHz) and on the
//! software SplitJoin of this host — the comparison behind the paper's
//! "around 15x acceleration" observation (Figs. 14c vs 14d).
//!
//! ```sh
//! cargo run --release --example hw_vs_sw
//! ```

use accel_landscape::hwsim::devices;
use accel_landscape::joinhw::harness::{
    build, prefill_steady_state, run_throughput, uniflow_throughput_model,
};
use accel_landscape::joinhw::{DesignParams, FlowModel, NetworkKind};
use accel_landscape::joinsw::harness::{host_parallelism, measure_throughput, modeled_throughput};
use accel_landscape::joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use accel_landscape::joinsw::JoinParams;

fn main() {
    let window = 1 << 14; // keep the demo snappy; the paper uses 2^18
    let hw_cores = 512u32;
    let sw_cores = 28usize;

    // Hardware: 512 uni-flow cores at 300 MHz, cycle-accurate.
    let params =
        DesignParams::new(FlowModel::UniFlow, hw_cores, window).with_network(NetworkKind::Scalable);
    let report = params
        .synthesize_at(&devices::XC7VX485T, 300.0)
        .expect("fits the VC707");
    let mut join = build(&params);
    prefill_steady_state(join.as_mut(), window);
    let run = run_throughput(join.as_mut(), 256, 1 << 20);
    let hw = run.at_clock(300.0).per_second();
    println!("hardware ({hw_cores} cores @ {}):", report.clock);
    println!("  measured {:.3} M tuples/s", hw / 1e6);
    println!(
        "  analytic {:.3} M tuples/s",
        uniflow_throughput_model(window, hw_cores, 300.0) / 1e6
    );
    println!("  {}", report.power);

    // Software: SplitJoin on this host.
    let (single, _) = measure_throughput::<SplitJoin>(
        SplitJoinConfig::new(1, window).counting_only(),
        2_048,
        1 << 20,
    )
    .expect("software run failed");
    let sw = if host_parallelism() >= sw_cores {
        measure_throughput::<SplitJoin>(
            SplitJoinConfig::new(sw_cores, window).counting_only(),
            16_384,
            1 << 20,
        )
        .expect("software run failed")
        .0
        .per_second()
    } else {
        println!(
            "\n(host has {} hardware thread(s); modeling {sw_cores}-core software rate)",
            host_parallelism()
        );
        modeled_throughput(single, sw_cores)
    };
    println!("software ({sw_cores} cores): {:.4} M tuples/s", sw / 1e6);

    println!("\nhardware / software speedup: {:.1}x", hw / sw);
    println!("(paper reports ~15x at window 2^18: 512 HW cores vs 28 SW cores)");
}
