//! # accel-landscape
//!
//! A reproduction of *"Hardware Acceleration Landscape for Distributed
//! Real-time Analytics: Virtues and Limitations"* (Najafi, Zhang, Jacobsen,
//! Sadoghi — ICDCS 2017) as a Rust workspace.
//!
//! This facade crate re-exports the public API of every subsystem:
//!
//! * [`hwsim`] — cycle-level FPGA simulation kernel plus device, resource,
//!   timing, and power models (the substitute for the paper's Virtex-5/7
//!   boards and the Xilinx tool chain);
//! * [`streamcore`] — tuples, schemas, sliding windows, workload
//!   generators, and metrics shared by the hardware and software paths;
//! * [`joinhw`] — the paper's case study in "hardware": uni-flow
//!   (SplitJoin) and bi-flow (handshake join) parallel stream joins as
//!   clocked component designs;
//! * [`joinsw`] — multithreaded software realizations of the same two flow
//!   models;
//! * [`fqp`] — the Flexible Query Processor: runtime-programmable operator
//!   blocks, parametrized topologies, query assignment, and the
//!   acceleration-landscape taxonomy of the paper's Section II;
//! * [`obs`] — the observability layer: counters, log2 latency
//!   histograms, registries, and JSON run manifests, compiled into every
//!   crate; `--trace` and `--live` switch spans and live telemetry on at
//!   run time.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and the
//! per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured results
//! of every evaluation figure.
//!
//! # Quickstart
//!
//! Run a parallel stream join in simulated hardware and read its synthesis
//! report:
//!
//! ```
//! use accel_landscape::joinhw::{DesignParams, FlowModel, NetworkKind};
//! use accel_landscape::hwsim::devices;
//!
//! let params = DesignParams::new(FlowModel::UniFlow, 4, 1 << 8)
//!     .with_network(NetworkKind::Lightweight);
//! let report = params.synthesize(&devices::XC5VLX50T)?;
//! assert!(report.clock.mhz() > 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use fqp;
pub use hwsim;
pub use joinhw;
pub use joinsw;
pub use obs;
pub use query;
pub use streamcore;

/// The workspace-wide single import: the software-join surface
/// ([`joinsw::prelude`]) together with the standing-query front end
/// ([`query::prelude`]), which is all most programs driving the fabric
/// need.
///
/// ```
/// use accel_landscape::prelude::*;
/// use accel_landscape::streamcore::Tuple;
///
/// let mut catalog = Catalog::new();
/// catalog.register_spec("trades=sym:32,qty:32").unwrap();
/// catalog.register_spec("quotes=sym:32,px:32").unwrap();
/// let mut runtime = QueryRuntime::new(catalog, RuntimeConfig::new(2));
/// let plan = LogicalPlan::source("trades")
///     .join(LogicalPlan::source("quotes"), "sym", 8);
/// runtime.admit("ticks", &plan).unwrap();
/// runtime.push("trades", Tuple::new(1, 0)).unwrap();
/// runtime.push("quotes", Tuple::new(1, 1)).unwrap();
/// assert_eq!(runtime.finish().unwrap()[0].rows.len(), 1);
/// ```
pub mod prelude {
    pub use joinsw::prelude::*;
    pub use query::prelude::*;
}
