//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section V).
//!
//! Each figure has a binary (`cargo run -p bench --release --bin fig14a`,
//! …); [`all`] returns every table for the combined `all_figures` binary,
//! whose output backs `EXPERIMENTS.md`.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig14a` | uni-flow HW throughput vs cores (Virtex-5) |
//! | `fig14b` | uni-flow vs bi-flow HW throughput vs window |
//! | `fig14c` | uni-flow HW throughput, 512 cores (Virtex-7) |
//! | `fig14d` | software SplitJoin throughput |
//! | `fig15`  | uni-flow HW latency |
//! | `fig16`  | software SplitJoin latency |
//! | `fig17`  | clock frequency vs cores |
//! | `kernel` | blocked probe kernel, counting and materializing (software SplitJoin) |
//! | `partition` | broadcast vs hash-partitioned dispatch + zipf occupancy |
//! | `power`  | Section V power comparison |
//! | `reconfig` | Fig. 6 deployment paths + live re-query |
//! | `precision` | ablation: handshake ordering precision vs drift |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hwfigs;
mod kernelfigs;
pub mod obsout;
mod partfigs;
mod reconfigfig;
mod swfigs;
pub mod swjoin;
mod table;

pub use hwfigs::{
    cloudscale_projection, deferral_ablation, fanout_ablation, fig14a, fig14a_run, fig14b,
    fig14b_run, fig14c, fig14c_run, fig14c_threads, fig14c_threads_run, fig15, fig15_run,
    fig15_threads, fig15_threads_run, fig17, fig17_run, hashjoin_ablation, power, power_run,
};
pub use kernelfigs::{kernel_figure, kernel_figure_windows, kernel_run_opts};
pub use partfigs::partition_run_opts;
pub use reconfigfig::{deployment_paths, live_requery};
pub use swfigs::{
    fig14d, fig14d_run, fig14d_run_opts, fig14d_windows, fig16, fig16_config, fig16_run,
    fig16_run_opts,
};
pub use table::Table;

use joinsw::baseline::reference_join;
use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
use streamcore::workload::{KeyDist, WorkloadSpec};
use streamcore::JoinPredicate;

/// Ablation: the software handshake chain's ordering-precision knob
/// (in-flight wave depth) versus result drift from strict semantics.
pub fn precision_ablation() -> Table {
    let mut t = Table::new(
        "Ablation — handshake ordering precision (in-flight depth) vs result drift",
        &["channel capacity", "results", "reference", "drift"],
    );
    let inputs: Vec<_> = WorkloadSpec::new(6_000, KeyDist::Uniform { domain: 16 })
        .generate()
        .collect();
    let window = 256;
    let want = reference_join(&inputs, window, JoinPredicate::Equi).len() as f64;
    for capacity in [2usize, 8, 32, 128] {
        let join = HandshakeJoin::spawn(
            HandshakeConfig::new(4, window).with_channel_capacity(capacity),
        );
        for &(tag, tuple) in &inputs {
            join.process(tag, tuple).expect("handshake chain died");
        }
        join.flush().expect("handshake chain died");
        let got = join.shutdown().expect("handshake chain died").result_count as f64;
        t.row(vec![
            capacity.to_string(),
            format!("{got}"),
            format!("{want}"),
            format!("{:.2}%", 100.0 * (got - want).abs() / want),
        ]);
    }
    t.note("SplitJoin's 'adjustable ordering precision': shallower buffers = stricter semantics");
    t
}

/// Parses a `--threads N` (or `--threads=N`) flag from the process
/// arguments. `None` when absent; `Some(0)` means "size from the host"
/// (`hwsim::ParSimulator::new(0)` resolves it).
pub fn threads_from_args() -> Option<usize> {
    fn bad(got: &str) -> ! {
        eprintln!("error: --threads requires a non-negative integer (0 = host auto), got `{got}`");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--threads" {
            let v = args.get(i + 1).map(String::as_str).unwrap_or("");
            return Some(v.parse().unwrap_or_else(|_| bad(v)));
        }
        if let Some(v) = arg.strip_prefix("--threads=") {
            return Some(v.parse().unwrap_or_else(|_| bad(v)));
        }
    }
    None
}

/// Parses a `--trace [N]` (or `--trace=N`) flag from the process
/// arguments: enable span tracing with 1-in-`N` provenance sampling.
/// Bare `--trace` samples every 64th tuple; `None` when absent.
///
/// The figure binaries pass the parsed period to [`obs::trace::enable`]
/// before measuring and export the harvested rings afterwards (see
/// [`obsout::take_harvest`]); tracing never changes measured cycle
/// counts or results, only what gets recorded on the side.
pub fn trace_from_args() -> Option<u64> {
    fn bad(got: &str) -> ! {
        eprintln!("error: --trace takes an optional positive integer sample period, got `{got}`");
        std::process::exit(2);
    }
    let parse = |v: &str| v.parse::<u64>().ok().filter(|&n| n > 0).unwrap_or_else(|| bad(v));
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--trace" {
            return Some(match args.get(i + 1) {
                Some(v) if !v.starts_with('-') => parse(v),
                _ => 64,
            });
        }
        if let Some(v) = arg.strip_prefix("--trace=") {
            return Some(parse(v));
        }
    }
    None
}

/// [`trace_from_args`] plus the side effect every figure binary wants:
/// when `--trace` is present, turns tracing on via [`obs::trace::enable`].
/// Returns whether tracing was requested. Without the `obs` feature the
/// enable call is a no-op and no spans are ever recorded.
pub fn trace_setup() -> bool {
    match trace_from_args() {
        Some(n) => {
            obs::trace::enable(n);
            true
        }
        None => false,
    }
}

/// Every figure and table, in paper order.
pub fn all() -> Vec<Table> {
    vec![
        fig14a(),
        fig14b(),
        fig14c(),
        fig14d(),
        fig15(),
        fig16(),
        fig17(),
        power(),
        deployment_paths(),
        live_requery(),
        precision_ablation(),
        fanout_ablation(),
        hashjoin_ablation(),
        deferral_ablation(),
        cloudscale_projection(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_ablation_produces_four_points() {
        let t = precision_ablation();
        assert_eq!(t.len(), 4);
    }
}
