//! The *active data path* (paper Section II): "each piece of data travels
//! from a source (data producer) to a destination (data consumer), passing
//! through the network and temporarily residing in storage and memory of
//! intermediate nodes. Usually, the actual data computation task is
//! performed close to the destination using CPUs. Instead, an active data
//! path distributes processing tasks along the entire length to various
//! network, storage, and memory components by making them 'active', i.e.,
//! coupled with an accelerator."
//!
//! [`DataPath`] models such a path as a chain of stages, each optionally
//! hosting an OP-Block. Records actually flow through the blocks, and the
//! path counts per-link traffic — so the benefit of pushing a filter
//! toward the source (the co-placement system model) is measured, not
//! asserted.

use std::fmt;

use streamcore::Record;

use crate::opblock::{BlockId, BlockProgram, OpBlock, Port};
use crate::plan::PlanOp;

/// What kind of component a stage is (where on the path it sits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// The data producer.
    Source,
    /// A network element (switch, NIC).
    Network,
    /// A storage node on the path.
    Storage,
    /// Memory of an intermediate host.
    Memory,
    /// The data consumer.
    Destination,
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StageKind::Source => "source",
            StageKind::Network => "network",
            StageKind::Storage => "storage",
            StageKind::Memory => "memory",
            StageKind::Destination => "destination",
        };
        f.write_str(s)
    }
}

/// One stage of the path.
#[derive(Debug, Clone)]
struct Stage {
    name: String,
    kind: StageKind,
    block: Option<OpBlock>,
    /// Records that arrived at this stage (traffic on the inbound link).
    inbound: u64,
}

/// A source-to-destination data path whose components can be made active.
///
/// # Example
///
/// ```
/// use fqp::datapath::{DataPath, StageKind};
/// use fqp::plan::{BoundCondition, PlanOp};
/// use fqp::query::CmpOp;
/// use streamcore::Record;
///
/// let mut path = DataPath::new();
/// path.add_stage("sensor hub", StageKind::Source);
/// path.add_stage("ToR switch", StageKind::Network);
/// path.add_stage("analytics host", StageKind::Destination);
///
/// // Make the switch active: filter at line rate on the data path.
/// path.activate(
///     1,
///     PlanOp::Select {
///         conditions: vec![BoundCondition { field: 0, op: CmpOp::Gt, value: 90 }],
///     },
/// )?;
///
/// path.push(Record::new(vec![95]));
/// path.push(Record::new(vec![10]));
/// assert_eq!(path.delivered().len(), 1);
/// // Both records crossed source→switch, only one crossed switch→host.
/// assert_eq!(path.link_traffic(), vec![2, 1]);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataPath {
    stages: Vec<Stage>,
    delivered: Vec<Record>,
}

impl DataPath {
    /// Creates an empty path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a (passive) stage; returns its index.
    pub fn add_stage(&mut self, name: impl Into<String>, kind: StageKind) -> usize {
        self.stages.push(Stage {
            name: name.into(),
            kind,
            block: None,
            inbound: 0,
        });
        self.stages.len() - 1
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` if the path has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Makes the stage at `index` active: couples it with an OP-Block
    /// running `op`.
    ///
    /// # Errors
    ///
    /// Returns an error string for out-of-range indices.
    pub fn activate(&mut self, index: usize, op: PlanOp) -> Result<(), String> {
        let stage = self
            .stages
            .get_mut(index)
            .ok_or_else(|| format!("no stage at index {index}"))?;
        let mut block = OpBlock::new(BlockId(index));
        block.reprogram(BlockProgram::Op(op));
        stage.block = Some(block);
        Ok(())
    }

    /// Returns a stage to passive forwarding.
    ///
    /// # Errors
    ///
    /// Returns an error string for out-of-range indices.
    pub fn deactivate(&mut self, index: usize) -> Result<(), String> {
        let stage = self
            .stages
            .get_mut(index)
            .ok_or_else(|| format!("no stage at index {index}"))?;
        stage.block = None;
        Ok(())
    }

    /// Sends one record down the path. Each active stage transforms (or
    /// drops) the in-flight records; passive stages forward.
    ///
    /// # Panics
    ///
    /// Panics if the path has no stages.
    pub fn push(&mut self, record: Record) {
        assert!(!self.stages.is_empty(), "path has no stages");
        let mut in_flight = vec![record];
        for stage in &mut self.stages {
            stage.inbound += in_flight.len() as u64;
            if let Some(block) = stage.block.as_mut() {
                in_flight = in_flight
                    .into_iter()
                    .flat_map(|r| block.process(Port::Left, r))
                    .collect();
            }
            if in_flight.is_empty() {
                return;
            }
        }
        self.delivered.extend(in_flight);
    }

    /// Records that reached the destination (in arrival order).
    pub fn delivered(&self) -> &[Record] {
        &self.delivered
    }

    /// Removes and returns the delivered records.
    pub fn take_delivered(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.delivered)
    }

    /// Traffic on each link: records that *left* stage `i` toward stage
    /// `i+1` (equivalently, arrived at stage `i+1`).
    pub fn link_traffic(&self) -> Vec<u64> {
        self.stages.iter().skip(1).map(|s| s.inbound).collect()
    }

    /// Total record-hops moved across all links — the data-movement cost
    /// an active placement minimizes.
    pub fn total_traffic(&self) -> u64 {
        self.link_traffic().iter().sum()
    }

    /// Per-stage `(name, kind, active?)` summary.
    pub fn stages(&self) -> Vec<(String, StageKind, bool)> {
        self.stages
            .iter()
            .map(|s| (s.name.clone(), s.kind, s.block.is_some()))
            .collect()
    }
}

/// Builds the canonical five-stage path of the paper's description.
pub fn canonical_path() -> DataPath {
    let mut p = DataPath::new();
    p.add_stage("producer", StageKind::Source);
    p.add_stage("switch", StageKind::Network);
    p.add_stage("storage node", StageKind::Storage);
    p.add_stage("host memory", StageKind::Memory);
    p.add_stage("consumer", StageKind::Destination);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::BoundCondition;
    use crate::query::CmpOp;

    fn hot_filter() -> PlanOp {
        PlanOp::Select {
            conditions: vec![BoundCondition {
                field: 0,
                op: CmpOp::Gt,
                value: 90,
            }],
        }
    }

    fn drive(path: &mut DataPath) {
        for v in 0..100u64 {
            path.push(Record::new(vec![v]));
        }
    }

    #[test]
    fn passive_path_delivers_everything_at_full_traffic() {
        let mut path = canonical_path();
        drive(&mut path);
        assert_eq!(path.delivered().len(), 100);
        assert_eq!(path.link_traffic(), vec![100, 100, 100, 100]);
        assert_eq!(path.total_traffic(), 400);
    }

    #[test]
    fn filtering_at_the_destination_saves_nothing_upstream() {
        let mut path = canonical_path();
        path.activate(4, hot_filter()).unwrap();
        drive(&mut path);
        assert_eq!(path.delivered().len(), 9); // 91..=99
        assert_eq!(path.link_traffic(), vec![100, 100, 100, 100]);
    }

    #[test]
    fn active_switch_cuts_downstream_traffic() {
        // The co-placement model: the same filter at the network element.
        let mut path = canonical_path();
        path.activate(1, hot_filter()).unwrap();
        drive(&mut path);
        assert_eq!(path.delivered().len(), 9);
        assert_eq!(path.link_traffic(), vec![100, 9, 9, 9]);
        // 400 -> 127 record-hops: the earlier the filter, the cheaper.
        assert_eq!(path.total_traffic(), 127);
    }

    #[test]
    fn earliest_placement_dominates_for_selective_filters() {
        let mut at_source = canonical_path();
        at_source.activate(0, hot_filter()).unwrap();
        let mut at_dest = canonical_path();
        at_dest.activate(4, hot_filter()).unwrap();
        drive(&mut at_source);
        drive(&mut at_dest);
        assert_eq!(at_source.delivered().len(), at_dest.delivered().len());
        assert!(at_source.total_traffic() < at_dest.total_traffic() / 5);
    }

    #[test]
    fn partial_computation_composes_along_the_path() {
        // Filter at the switch, project at the storage node: best-effort
        // partial computation distributed along the path.
        let mut path = canonical_path();
        path.activate(1, hot_filter()).unwrap();
        path.activate(2, PlanOp::Project { fields: vec![0] })
            .unwrap();
        path.push(Record::new(vec![95, 1234]));
        path.push(Record::new(vec![50, 1234]));
        assert_eq!(path.delivered(), &[Record::new(vec![95])]);
    }

    #[test]
    fn deactivate_restores_passive_forwarding() {
        let mut path = canonical_path();
        path.activate(1, hot_filter()).unwrap();
        path.deactivate(1).unwrap();
        drive(&mut path);
        assert_eq!(path.delivered().len(), 100);
        assert!(path.stages().iter().all(|(_, _, active)| !active));
    }

    #[test]
    fn out_of_range_stage_errors() {
        let mut path = canonical_path();
        assert!(path.activate(9, hot_filter()).is_err());
        assert!(path.deactivate(9).is_err());
    }
}
