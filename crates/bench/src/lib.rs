//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section V).
//!
//! One binary runs them all: `cargo run -p bench --release --bin figs --
//! <name|all> [flags]` looks `<name>` up in [`FIGURES`], prints the
//! figure's tables and writes its [`obs::RunManifest`] to
//! `target/obs/<name>.json` — the one artifact this crate writes.
//! [`FigOpts`] documents the flags; `figs all` (every figure, in table
//! order) backs `EXPERIMENTS.md`.
//!
//! | name | reproduces |
//! |---|---|
//! | `fig14a` | uni-flow HW throughput vs cores (Virtex-5) |
//! | `fig14b` | uni-flow vs bi-flow HW throughput vs window |
//! | `fig14c` | uni-flow HW throughput, 512 cores (Virtex-7) |
//! | `fig14d` | software SplitJoin throughput |
//! | `fig15`  | uni-flow HW latency |
//! | `fig16`  | software SplitJoin latency |
//! | `fig17`  | clock frequency vs cores |
//! | `power`  | Section V power comparison |
//! | `reconfig` | Fig. 6 deployment paths + live re-query |
//! | `precision` | ablation: handshake ordering precision vs drift |
//! | `fanout` | ablation: scalable-network tree fan-out |
//! | `hashjoin` | ablation: nested-loop vs hash join cores |
//! | `deferral` | ablation: original vs low-latency handshake join |
//! | `cloudscale` | projection: uni-flow on the AWS F1 FPGA |
//! | `kernel` | blocked probe kernel, counting and materializing (software SplitJoin) |
//! | `swflow` | ablation: software uni-flow vs bi-flow throughput |
//! | `faults` | fault injection: kill/stall/drop vs throughput and completeness |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faultfig;
mod hwfigs;
mod kernelfigs;
pub mod obsout;
mod opts;
mod reconfigfig;
mod swfigs;
mod table;

pub use opts::{FigOpts, USAGE};
pub use table::Table;

use obs::RunManifest;

/// A figure's entry point: its tables and its run manifest.
pub type FigureFn = fn(&FigOpts) -> (Vec<Table>, RunManifest);

/// The tables of a figure that records nothing beyond them; its manifest
/// carries the run's provenance only.
fn tables_only(name: &str, tables: Vec<Table>) -> (Vec<Table>, RunManifest) {
    (tables, obsout::manifest(name))
}

/// Every figure by name: the paper's evaluation in paper order, then its
/// ablations, then this repo's own software figures.
pub const FIGURES: &[(&str, FigureFn)] = &[
    ("fig14a", hwfigs::fig14a),
    ("fig14b", hwfigs::fig14b),
    ("fig14c", hwfigs::fig14c),
    ("fig14d", swfigs::fig14d),
    ("fig15", hwfigs::fig15),
    ("fig16", swfigs::fig16),
    ("fig17", hwfigs::fig17),
    ("power", hwfigs::power),
    ("reconfig", |_| {
        tables_only(
            "reconfig",
            vec![reconfigfig::deployment_paths(), reconfigfig::live_requery()],
        )
    }),
    ("precision", |_| {
        tables_only("precision", vec![swfigs::precision_ablation()])
    }),
    ("fanout", |_| {
        tables_only("fanout", vec![hwfigs::fanout_ablation()])
    }),
    ("hashjoin", hwfigs::hashjoin),
    ("deferral", |_| {
        tables_only("deferral", vec![hwfigs::deferral_ablation()])
    }),
    ("cloudscale", |_| {
        tables_only("cloudscale", vec![hwfigs::cloudscale_projection()])
    }),
    ("kernel", kernelfigs::kernel),
    ("swflow", swfigs::swflow),
    ("faults", faultfig::faults),
];

/// Why `figure` cannot run with `opts`, if it cannot; `figs` asks for
/// every selected figure before running any. Every kill scenario of
/// `faults` targets worker 1, so it needs at least two cores.
#[must_use]
pub fn unrunnable(figure: &str, opts: &FigOpts) -> Option<&'static str> {
    (figure == "faults" && faultfig::cores(opts) < 2)
        .then_some("--cores must be at least 2 (the kill scenarios target worker 1)")
}
