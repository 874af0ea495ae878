//! Flow-based parallel stream joins in simulated FPGA hardware.
//!
//! This crate realizes the paper's case study (Sections III–V): two
//! hardware architectures for parallel sliding-window stream joins,
//! expressed as cycle-accurate [`hwsim`] component designs:
//!
//! * [`uniflow`] — the **uni-flow** (SplitJoin) architecture: a single
//!   top-down data flow through a distribution network into fully
//!   independent join cores with round-robin sub-window storage, and a
//!   result-gathering network (Fig. 9 of the paper). Join cores implement
//!   the Fetcher / Storage Core / Processing Core micro-architecture with
//!   the exact FSMs of Figs. 11–13;
//! * [`biflow`] — the **bi-flow** (handshake join) architecture: a linear
//!   chain of join cores through which the R stream flows left-to-right
//!   and the S stream right-to-left, with boundary locks to avoid
//!   in-flight races (Figs. 8a and 10).
//!
//! [`DesignParams::synthesize`] produces a [`SynthesisReport`] — resource
//! utilization, maximum clock frequency, and power — from the calibrated
//! models in [`hwsim`], and [`harness`] runs throughput/latency experiments
//! against the cycle-accurate designs.
//!
//! # Example
//!
//! ```
//! use joinhw::{DesignParams, FlowModel};
//! use hwsim::devices;
//!
//! // The paper's Fig. 14a point: 16 uni-flow cores, window 2^13, Virtex-5.
//! let params = DesignParams::new(FlowModel::UniFlow, 16, 1 << 13);
//! let report = params.synthesize(&devices::XC5VLX50T)?;
//! assert!(report.utilization.fits());
//!
//! // 64 cores at the same window do NOT fit, as the paper reports.
//! let too_big = DesignParams::new(FlowModel::UniFlow, 64, 1 << 13);
//! assert!(too_big.synthesize(&devices::XC5VLX50T).is_err());
//! # Ok::<(), hwsim::CapacityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod biflow;
mod design;
pub mod harness;
mod operator;
mod subwindow;
pub mod uniflow;

/// Held by every test that flips the process-wide trace flag, so no
/// other such test builds its untraced design while the flag is on.
#[cfg(test)]
fn trace_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use streamcore::JoinAlgorithm;
pub use subwindow::SubWindow;

pub use design::{DesignParams, FlowModel, NetworkKind, SynthesisReport};
pub use operator::{JoinOperator, JoinPredicate, OperatorDecodeError};
