//! The acceleration design landscape (paper Section II, Fig. 4) as a
//! typed model.
//!
//! The paper's first contribution is "a comprehensive formalization of the
//! acceleration landscape over distributed heterogeneous hardware". This
//! module encodes the four layers of that formalization — system model,
//! programming model, representational model, and algorithmic model — and
//! a catalog of the systems the paper classifies, with a query API for
//! navigating it.
//!
//! # Example
//!
//! ```
//! use fqp::landscape::{catalog, RepresentationalModel, SystemModel};
//!
//! // Which systems support runtime topology changes?
//! let dynamic: Vec<_> = catalog()
//!     .iter()
//!     .filter(|s| s.representation >= RepresentationalModel::ParametrizedTopology)
//!     .map(|s| s.name)
//!     .collect();
//! assert_eq!(dynamic, vec!["FQP"]);
//!
//! // Everything deployable standalone on an FPGA:
//! assert!(catalog()
//!     .iter()
//!     .any(|s| s.name == "Glacier" && s.system == SystemModel::Standalone));
//! ```

use std::fmt;

/// Deployment of an accelerator within the distributed system (top layer
/// of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemModel {
    /// The entire software stack is embedded on the accelerator.
    Standalone,
    /// The accelerator sits on the data path, performing partial or
    /// best-effort computation (e.g. between network and host).
    CoPlacement,
    /// The host offloads (partial) computation to the accelerator.
    CoProcessor,
}

/// How the accelerator is programmed (second layer of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgrammingModel {
    /// Hardware description languages: VHDL, Verilog, SystemC, TLM.
    HardwareDescription,
    /// General-purpose or parallel software languages and APIs: C, C++,
    /// Java, CUDA, OpenCL, OpenMP.
    Procedural,
    /// SQL-based declarative languages compiled to hardware ahead of time
    /// (the Glacier approach: query → final circuit).
    DeclarativeStatic,
    /// SQL-based declarative languages mapped onto a pre-synthesized
    /// fabric at runtime (the FQP approach).
    DeclarativeDynamic,
}

/// How data and control flow are realized on the fabric (third layer).
/// Ordered by increasing dynamism, as in the paper's narrative from
/// static circuits to parametrized topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RepresentationalModel {
    /// Fixed logic and hard-coded wiring; best performing, unchangeable.
    StaticCircuit,
    /// Selection/join conditions changeable at runtime without
    /// re-synthesis (skeleton automata, fpga-ToPSS, OP-Blocks, Ibex,
    /// Netezza, Q100's temporal/spatial instructions).
    ParametrizedCircuit,
    /// Schemas of varying size over a fixed wiring budget via vertical
    /// partitioning of query and data.
    ParametrizedDataSegments,
    /// Macro changes (query structure) and micro changes (operator
    /// conditions) both possible at runtime.
    ParametrizedTopology,
}

/// Parallelism patterns exploited by a design (bottom layer of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Same task over partitioned data (SIMD-style).
    Data,
    /// Independent concurrent tasks over replicated/partitioned data.
    Task,
    /// A task broken into a sequence of sub-tasks with data flowing
    /// through — "arguably the most important design pattern on hardware".
    Pipeline,
}

/// Data-flow discipline of a parallel stream join, where applicable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowDiscipline {
    /// Tuples flow in opposite directions through a chain (handshake
    /// join).
    BiDirectional,
    /// A single top-down flow into independent cores (SplitJoin).
    UniDirectional,
    /// Not a flow-based design.
    NotApplicable,
}

/// One classified system in the landscape.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemProfile {
    /// System name as used in the paper.
    pub name: &'static str,
    /// Deployment model.
    pub system: SystemModel,
    /// Programming model.
    pub programming: ProgrammingModel,
    /// Representational model (degree of runtime dynamism).
    pub representation: RepresentationalModel,
    /// Parallelism patterns exploited.
    pub parallelism: &'static [Parallelism],
    /// Flow discipline for stream joins.
    pub flow: FlowDiscipline,
    /// One-line description from the paper.
    pub note: &'static str,
}

impl fmt::Display for SystemProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:?} / {:?} / {:?} — {}",
            self.name, self.system, self.programming, self.representation, self.note
        )
    }
}

/// The catalog of systems the paper classifies (Fig. 4 and Section II).
pub fn catalog() -> &'static [SystemProfile] {
    use FlowDiscipline::*;
    use Parallelism::*;
    use ProgrammingModel::*;
    use RepresentationalModel::*;
    use SystemModel::*;
    const CATALOG: &[SystemProfile] = &[
        SystemProfile {
            name: "Glacier",
            system: Standalone,
            programming: DeclarativeStatic,
            representation: StaticCircuit,
            parallelism: &[Pipeline],
            flow: NotApplicable,
            note: "static compiler composing operator-based logic blocks into a final circuit",
        },
        SystemProfile {
            name: "FQP",
            system: Standalone,
            programming: DeclarativeDynamic,
            representation: ParametrizedTopology,
            parallelism: &[Data, Task, Pipeline],
            flow: UniDirectional,
            note: "online-programmable OP-Blocks composed into a reconfigurable topology",
        },
        SystemProfile {
            name: "fpga-ToPSS",
            system: Standalone,
            programming: HardwareDescription,
            representation: ParametrizedCircuit,
            parallelism: &[Data, Pipeline],
            flow: NotApplicable,
            note: "event processing hiding off-chip memory latency behind on-chip queries",
        },
        SystemProfile {
            name: "Skeleton automata",
            system: Standalone,
            programming: HardwareDescription,
            representation: ParametrizedCircuit,
            parallelism: &[Pipeline],
            flow: NotApplicable,
            note: "structural NFA skeletons in logic, XPath query conditions in memory",
        },
        SystemProfile {
            name: "Ibex",
            system: CoProcessor,
            programming: DeclarativeStatic,
            representation: ParametrizedCircuit,
            parallelism: &[Pipeline],
            flow: NotApplicable,
            note: "intelligent storage engine; software precomputes Boolean truth tables for hardware",
        },
        SystemProfile {
            name: "IBM Netezza",
            system: CoPlacement,
            programming: DeclarativeStatic,
            representation: ParametrizedCircuit,
            parallelism: &[Data, Pipeline],
            flow: NotApplicable,
            note: "commercial warehouse appliance offloading query computation on the data path",
        },
        SystemProfile {
            name: "Q100",
            system: CoProcessor,
            programming: DeclarativeStatic,
            representation: ParametrizedCircuit,
            parallelism: &[Pipeline, Task],
            flow: NotApplicable,
            note: "database processing unit with temporal/spatial instructions over pipelined SQL stages",
        },
        SystemProfile {
            name: "Handshake join",
            system: Standalone,
            programming: HardwareDescription,
            representation: StaticCircuit,
            parallelism: &[Data, Pipeline],
            flow: BiDirectional,
            note: "bi-directional data flow through a linear chain of join cores",
        },
        SystemProfile {
            name: "SplitJoin",
            system: Standalone,
            programming: HardwareDescription,
            representation: ParametrizedCircuit,
            parallelism: &[Data, Task],
            flow: UniDirectional,
            note: "top-down flow into independent join cores with round-robin storage",
        },
    ];
    CATALOG
}

/// Returns the catalog entry for `name`, if the paper classifies it.
pub fn find(name: &str) -> Option<&'static SystemProfile> {
    catalog().iter().find(|s| s.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_three_system_models() {
        for model in [
            SystemModel::Standalone,
            SystemModel::CoPlacement,
            SystemModel::CoProcessor,
        ] {
            assert!(
                catalog().iter().any(|s| s.system == model),
                "no system with {model:?}"
            );
        }
    }

    #[test]
    fn fqp_is_the_only_parametrized_topology() {
        let tops: Vec<_> = catalog()
            .iter()
            .filter(|s| s.representation == RepresentationalModel::ParametrizedTopology)
            .collect();
        assert_eq!(tops.len(), 1);
        assert_eq!(tops[0].name, "FQP");
    }

    #[test]
    fn representational_dynamism_is_ordered() {
        assert!(RepresentationalModel::StaticCircuit < RepresentationalModel::ParametrizedCircuit);
        assert!(
            RepresentationalModel::ParametrizedCircuit
                < RepresentationalModel::ParametrizedDataSegments
        );
        assert!(
            RepresentationalModel::ParametrizedDataSegments
                < RepresentationalModel::ParametrizedTopology
        );
    }

    #[test]
    fn flow_based_joins_are_classified() {
        assert_eq!(
            find("handshake join").unwrap().flow,
            FlowDiscipline::BiDirectional
        );
        assert_eq!(
            find("splitjoin").unwrap().flow,
            FlowDiscipline::UniDirectional
        );
    }

    #[test]
    fn find_is_case_insensitive_and_total() {
        assert!(find("FQP").is_some());
        assert!(find("fqp").is_some());
        assert!(find("nonexistent system").is_none());
    }

    #[test]
    fn every_entry_exploits_some_parallelism_and_has_a_note() {
        for s in catalog() {
            assert!(!s.parallelism.is_empty(), "{}", s.name);
            assert!(!s.note.is_empty(), "{}", s.name);
            assert!(!s.to_string().is_empty());
        }
    }
}
