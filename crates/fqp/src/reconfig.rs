//! Deployment-path cost model: standard synthesis-per-query vs FQP
//! runtime reprogramming (paper Fig. 6).
//!
//! The paper contrasts three ways of getting a changed query onto a
//! reconfigurable fabric:
//!
//! 1. **Hardware redesign** — change the hardware model by hand
//!    (hours–months), re-synthesize (minutes–days, NP-hard placement),
//!    halt the system, reprogram the FPGA (seconds–minutes), and resume —
//!    with costly data-flow control around the halt;
//! 2. **Re-synthesis of an existing design** — skip the redesign but keep
//!    the synthesis, halt, and reprogram steps;
//! 3. **FQP** — map new operators onto already-synthesized OP-Blocks
//!    (µs–ms) and apply them (µs), with no halt at all.
//!
//! [`DeploymentPath::steps`] provides the modeled duration breakdown used
//! by the `reconfig` bench, which measures the real thing by timing
//! [`QueryManager`](crate::manager::QueryManager) on a live fabric.

use std::time::Duration;

/// One step of a deployment pipeline, with its modeled duration range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentStep {
    /// Step name as in Fig. 6.
    pub name: &'static str,
    /// Lower bound on the step's duration.
    pub min: Duration,
    /// Upper bound on the step's duration.
    pub max: Duration,
    /// Whether normal system operation must halt during this step.
    pub halts_system: bool,
}

/// The three deployment paths of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeploymentPath {
    /// Hand-modify the hardware model, then synthesize and reprogram.
    HardwareRedesign,
    /// Re-synthesize an existing design for the new query set.
    ReSynthesis,
    /// FQP: remap operators onto the running fabric.
    FqpRemap,
}

const HOUR: Duration = Duration::from_secs(3_600);
const DAY: Duration = Duration::from_secs(24 * 3_600);

impl DeploymentPath {
    /// The pipeline steps of this path with modeled duration ranges
    /// (Fig. 6's annotations).
    pub fn steps(&self) -> Vec<DeploymentStep> {
        match self {
            DeploymentPath::HardwareRedesign => vec![
                DeploymentStep {
                    name: "apply changes in hardware model",
                    min: HOUR,
                    max: 90 * DAY,
                    halts_system: false,
                },
                DeploymentStep {
                    name: "synthesize (NP-hard place & route)",
                    min: Duration::from_secs(60),
                    max: 2 * DAY,
                    halts_system: false,
                },
                DeploymentStep {
                    name: "halt system & control data flow",
                    min: Duration::from_secs(1),
                    max: 10 * Duration::from_secs(60),
                    halts_system: true,
                },
                DeploymentStep {
                    name: "reprogram FPGA",
                    min: Duration::from_secs(1),
                    max: 2 * Duration::from_secs(60),
                    halts_system: true,
                },
                DeploymentStep {
                    name: "resume & replay dropped tuples",
                    min: Duration::from_secs(1),
                    max: 10 * Duration::from_secs(60),
                    halts_system: true,
                },
            ],
            DeploymentPath::ReSynthesis => DeploymentPath::HardwareRedesign.steps()[1..].to_vec(),
            DeploymentPath::FqpRemap => vec![
                DeploymentStep {
                    name: "map new operators onto OP-Blocks",
                    min: Duration::from_micros(1),
                    max: Duration::from_millis(1),
                    halts_system: false,
                },
                DeploymentStep {
                    name: "apply operator instructions",
                    min: Duration::from_micros(1),
                    max: Duration::from_micros(100),
                    halts_system: false,
                },
            ],
        }
    }

    /// Best-case total duration.
    pub fn min_total(&self) -> Duration {
        self.steps().iter().map(|s| s.min).sum()
    }

    /// Worst-case total duration.
    pub fn max_total(&self) -> Duration {
        self.steps().iter().map(|s| s.max).sum()
    }

    /// `true` if the path requires halting stream processing.
    pub fn requires_halt(&self) -> bool {
        self.steps().iter().any(|s| s.halts_system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fqp_is_orders_of_magnitude_faster_even_best_case() {
        let fqp = DeploymentPath::FqpRemap.max_total();
        let resynth = DeploymentPath::ReSynthesis.min_total();
        let redesign = DeploymentPath::HardwareRedesign.min_total();
        assert!(resynth > 1_000 * fqp);
        assert!(redesign > resynth);
    }

    #[test]
    fn only_fqp_avoids_halting_the_system() {
        assert!(DeploymentPath::HardwareRedesign.requires_halt());
        assert!(DeploymentPath::ReSynthesis.requires_halt());
        assert!(!DeploymentPath::FqpRemap.requires_halt());
    }

    #[test]
    fn step_ranges_are_well_formed() {
        for path in [
            DeploymentPath::HardwareRedesign,
            DeploymentPath::ReSynthesis,
            DeploymentPath::FqpRemap,
        ] {
            for s in path.steps() {
                assert!(s.min <= s.max, "{}: min > max", s.name);
                assert!(!s.name.is_empty());
            }
        }
    }
}
