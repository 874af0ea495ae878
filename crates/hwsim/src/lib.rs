//! Cycle-level synchronous hardware simulation kernel with FPGA device,
//! resource, timing, and power models.
//!
//! `hwsim` is the substrate on which the hardware designs of the
//! acceleration-landscape reproduction are built. It provides:
//!
//! * a **simulation kernel** ([`Component`], [`Simulator`]) implementing the
//!   classic two-phase synchronous-circuit discipline: every clock cycle,
//!   all components first *evaluate* (compute combinational outputs and
//!   stage register updates against the state at the start of the cycle)
//!   and then *commit* (latch the staged updates). Evaluation order never
//!   affects results;
//! * a **parallel scheduling layer** ([`par`]): designs that expose
//!   independent sub-trees via [`Sharded`] can be driven by a
//!   [`ParSimulator`] that evaluates shards across a persistent worker
//!   pool with a barrier per phase — cycle-exact with respect to the
//!   sequential [`Simulator`];
//! * **hardware building blocks**: registered FIFOs ([`Fifo`]) and a
//!   block-RAM model ([`Bram`]) whose words are plain values, its two
//!   ports checked in debug builds;
//! * **synthesis-report models**: an FPGA device catalog ([`Device`],
//!   [`devices`]), LUT/FF/BRAM resource accounting ([`Resources`],
//!   [`Utilization`]), a fan-out-driven maximum-clock-frequency estimator
//!   ([`TimingProfile`], [`estimate_fmax`]) and a static + dynamic power
//!   model ([`PowerModel`]).
//!
//! The synthesis-report models are *models of a synthesis tool*, not
//! measurements: their constants are calibrated against the feasibility
//! matrix and data points reported in the ICDCS'17 paper (see `DESIGN.md`
//! at the repository root).
//!
//! # Example
//!
//! Simulate a two-stage pipeline built from FIFOs:
//!
//! ```
//! use hwsim::{Component, Fifo, Simulator};
//!
//! struct Pipeline {
//!     input: Fifo<u64>,
//!     output: Fifo<u64>,
//! }
//!
//! impl Component for Pipeline {
//!     fn begin_cycle(&mut self) {
//!         self.input.begin_cycle();
//!         self.output.begin_cycle();
//!     }
//!     fn eval(&mut self) {
//!         if self.input.can_pop() && self.output.can_push() {
//!             let v = self.input.pop().unwrap();
//!             self.output.push(v + 1).unwrap();
//!         }
//!     }
//!     fn commit(&mut self) {
//!         self.input.commit();
//!         self.output.commit();
//!     }
//! }
//!
//! let mut p = Pipeline { input: Fifo::new(4), output: Fifo::new(4) };
//! p.input.load(7);
//! let mut sim = Simulator::new();
//! sim.run(&mut p, 2);
//! assert_eq!(p.output.pop(), Some(8));
//! ```

// `deny` rather than `forbid`: the `par` module's worker pool hands shard
// pointers across threads and carries the crate's only `unsafe`, behind a
// module-local allow with documented invariants.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bram;
mod device;
mod error;
mod fifo;
pub mod par;
mod power;
mod resources;
mod sim;
mod timing;

pub use bram::Bram;
pub use device::{devices, Device, Family};
pub use error::{CapacityError, FifoFullError};
pub use fifo::Fifo;
pub use par::{Control, Engine, ParSimulator, ParStats, Shard, Sharded, WorkerStats};
pub use power::{PowerModel, PowerReport};
pub use resources::LUTRAM_THRESHOLD_BITS as LUTRAM_THRESHOLD_BITS_DEFAULT;
pub use resources::{MemoryMapping, Resources, Utilization};
pub use sim::{Component, Simulator};
pub use timing::{estimate_fmax, Frequency, TimingProfile};
