//! Deploying FQP queries onto the hardware join fabric — what the paper's
//! FQP compiler does: "generates a dynamic mapping of queries onto the FQP
//! topology at runtime", here targeting the cycle-accurate uni-flow design
//! of [`joinhw`].
//!
//! [`deploy_to_hardware`] takes a bound select–join(–project) plan, runs
//! the synthesis-report model for the chosen device, programs a
//! [`UniFlowJoin`] with the plan's equi-join, and translates records to
//! and from the 64-bit tuple format of the hardware: the join key rides in
//! the tuple's key half, and the payload half indexes a record store kept
//! beside the fabric (the paper's parametrized-data-segment idea in its
//! simplest form: wide records stay in memory, the fabric sees fixed-width
//! tuples). Selections on the primary stream execute in the OP-Block in
//! front of the fabric; projections on the gathered results. A selection
//! over the joined record has no block to run in and is rejected.

use std::error::Error;
use std::fmt;

use hwsim::{CapacityError, Device, Simulator};
use joinhw::harness::uniflow_throughput_model;
use joinhw::uniflow::UniFlowJoin;
use joinhw::{DesignParams, FlowModel, JoinOperator, SynthesisReport};
use streamcore::{Record, StreamTag, Tuple};

use crate::plan::{BoundCondition, Plan, PlanOp};

/// The selection OP-Block standing in front of the join fabric.
#[derive(Debug, Clone, Default)]
enum Filter {
    #[default]
    None,
    Conjunction(Vec<BoundCondition>),
    Table {
        atoms: Vec<BoundCondition>,
        table: Vec<bool>,
    },
}

impl Filter {
    fn accepts(&self, values: &[u64]) -> bool {
        match self {
            Filter::None => true,
            Filter::Conjunction(conds) => conds.iter().all(|c| c.eval(values)),
            Filter::Table { atoms, table } => {
                let mut mask = 0usize;
                for (i, c) in atoms.iter().enumerate() {
                    if c.eval(values) {
                        mask |= 1 << i;
                    }
                }
                table[mask]
            }
        }
    }
}

/// Errors raised while deploying or driving a hardware-mapped query.
#[derive(Debug, Clone, PartialEq)]
pub enum HwBridgeError {
    /// The plan contains an operator the join fabric cannot run.
    UnsupportedPlan {
        /// Which operator broke the mapping.
        op: String,
    },
    /// The plan has no join — there is nothing to accelerate.
    NoJoin,
    /// The design does not fit the device.
    DoesNotFit(CapacityError),
    /// A record's join key exceeds the fabric's 32-bit key lane.
    KeyTooWide {
        /// The offending value.
        value: u64,
    },
    /// A record was pushed for a stream the plan does not read.
    UnknownStream {
        /// The stream name.
        stream: String,
    },
}

impl fmt::Display for HwBridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwBridgeError::UnsupportedPlan { op } => {
                write!(f, "operator {op} cannot run on the join fabric")
            }
            HwBridgeError::NoJoin => write!(f, "plan has no join to accelerate"),
            HwBridgeError::DoesNotFit(e) => write!(f, "design does not fit: {e}"),
            HwBridgeError::KeyTooWide { value } => {
                write!(f, "join key {value} exceeds the 32-bit tuple key lane")
            }
            HwBridgeError::UnknownStream { stream } => {
                write!(f, "plan does not read stream {stream:?}")
            }
        }
    }
}

impl Error for HwBridgeError {}

impl From<CapacityError> for HwBridgeError {
    fn from(e: CapacityError) -> Self {
        HwBridgeError::DoesNotFit(e)
    }
}

/// A query running on the simulated hardware join fabric.
pub struct HwDeployment {
    report: SynthesisReport,
    join: UniFlowJoin,
    sim: Simulator,
    primary: String,
    secondary: String,
    filter: Filter,
    key_left: usize,
    key_right: usize,
    project: Option<Vec<usize>>,
    left_records: Vec<Record>,
    right_records: Vec<Record>,
    accepted: u64,
    filtered: u64,
}

impl fmt::Debug for HwDeployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HwDeployment")
            .field("primary", &self.primary)
            .field("secondary", &self.secondary)
            .field("accepted", &self.accepted)
            .finish_non_exhaustive()
    }
}

/// Maps `plan` onto a uni-flow join design with `num_cores` cores on
/// `device`.
///
/// # Errors
///
/// Returns [`HwBridgeError::NoJoin`] for join-less plans,
/// [`HwBridgeError::UnsupportedPlan`] for aggregates and for a selection
/// after the join, and
/// [`HwBridgeError::DoesNotFit`] when synthesis fails.
pub fn deploy_to_hardware(
    plan: &Plan,
    num_cores: u32,
    device: &Device,
) -> Result<HwDeployment, HwBridgeError> {
    let mut filter = Filter::None;
    let mut join_op = None;
    let mut project = None;
    for op in &plan.ops {
        match op {
            // The bridge's one selection block sits in front of the
            // fabric, on the primary stream.
            PlanOp::Select { .. } | PlanOp::SelectTable { .. } if join_op.is_some() => {
                return Err(HwBridgeError::UnsupportedPlan {
                    op: "selection over the joined record".to_string(),
                });
            }
            PlanOp::Select { conditions: c } => filter = Filter::Conjunction(c.clone()),
            PlanOp::SelectTable { atoms, table } => {
                filter = Filter::Table {
                    atoms: atoms.clone(),
                    table: table.clone(),
                };
            }
            PlanOp::Join {
                key_left,
                key_right,
                window,
            } => join_op = Some((*key_left, *key_right, *window)),
            PlanOp::Project { fields } => project = Some(fields.clone()),
            PlanOp::Aggregate { .. } => {
                return Err(HwBridgeError::UnsupportedPlan {
                    op: "aggregate".to_string(),
                });
            }
        }
    }
    let (key_left, key_right, window) = join_op.ok_or(HwBridgeError::NoJoin)?;

    let params = DesignParams::new(FlowModel::UniFlow, num_cores, window);
    let report = params.synthesize(device)?;
    let mut join = UniFlowJoin::new(&params);
    join.program(JoinOperator::equi(num_cores));

    Ok(HwDeployment {
        report,
        join,
        sim: Simulator::new(),
        primary: plan.primary.clone(),
        secondary: plan
            .secondary
            .clone()
            .expect("join implies a secondary stream"),
        filter,
        key_left,
        key_right,
        project,
        left_records: Vec::new(),
        right_records: Vec::new(),
        accepted: 0,
        filtered: 0,
    })
}

impl HwDeployment {
    /// The synthesis report of the deployed design.
    pub fn report(&self) -> &SynthesisReport {
        &self.report
    }

    /// Records accepted into the fabric so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Records dropped by the selection OP-Block in front of the fabric.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Clock cycles the fabric has run.
    pub fn cycles(&self) -> u64 {
        self.sim.cycle()
    }

    /// Pushes one record into the deployment.
    ///
    /// # Errors
    ///
    /// Returns [`HwBridgeError::UnknownStream`] or
    /// [`HwBridgeError::KeyTooWide`].
    pub fn push(&mut self, stream: &str, record: Record) -> Result<(), HwBridgeError> {
        let stream = stream.to_ascii_lowercase();
        let (tag, key_idx, store) = if stream == self.primary {
            // The selection OP-Block filters the primary stream before it
            // reaches the join fabric.
            if !self.filter.accepts(record.values()) {
                self.filtered += 1;
                return Ok(());
            }
            (StreamTag::R, self.key_left, &mut self.left_records)
        } else if stream == self.secondary {
            (StreamTag::S, self.key_right, &mut self.right_records)
        } else {
            return Err(HwBridgeError::UnknownStream { stream });
        };
        let key = record.get(key_idx).unwrap_or(0);
        let key: u32 = key
            .try_into()
            .map_err(|_| HwBridgeError::KeyTooWide { value: key })?;
        let payload = store.len() as u32;
        store.push(record);
        let tuple = Tuple::new(key, payload);
        while !self.join.offer(tag, tuple) {
            self.sim.step(&mut self.join);
        }
        self.sim.step(&mut self.join);
        self.accepted += 1;
        Ok(())
    }

    /// Runs the fabric to quiescence and returns the joined (and
    /// projected) records produced so far.
    pub fn finish(&mut self) -> Vec<Record> {
        while !self.join.quiescent() {
            self.sim.step(&mut self.join);
        }
        self.join
            .drain_results()
            .into_iter()
            .map(|m| {
                let left = &self.left_records[m.r.payload() as usize];
                let right = &self.right_records[m.s.payload() as usize];
                let mut values = left.values().to_vec();
                values.extend_from_slice(right.values());
                match &self.project {
                    Some(fields) => Record::new(
                        fields
                            .iter()
                            .filter_map(|&i| values.get(i).copied())
                            .collect(),
                    ),
                    None => Record::new(values),
                }
            })
            .collect()
    }

    /// Sustainable input throughput of this deployment at its synthesis
    /// clock, from the analytic model (tuples/second).
    pub fn throughput_estimate(&self) -> f64 {
        uniflow_throughput_model(
            self.report.params.window_size,
            self.report.params.num_cores,
            self.report.clock.mhz(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{bind, Catalog};
    use crate::query::Query;
    use hwsim::devices::XC7VX485T;
    use streamcore::{Field, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "customers",
            Schema::new(vec![
                Field::new("product_id", 32).unwrap(),
                Field::new("age", 8).unwrap(),
            ])
            .unwrap(),
        );
        c.register(
            "products",
            Schema::new(vec![
                Field::new("product_id", 32).unwrap(),
                Field::new("price", 32).unwrap(),
            ])
            .unwrap(),
        );
        c
    }

    fn plan_of(text: &str) -> Plan {
        bind(&Query::parse(text).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn hardware_results_match_the_software_fabric() {
        let plan = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 64",
        );

        // Software fabric execution.
        let mut fabric = crate::fabric::Fabric::new(4);
        let handle = crate::assign::assign(&plan, &mut fabric).unwrap();

        // Hardware deployment.
        let mut hw = deploy_to_hardware(&plan, 4, &XC7VX485T).unwrap();

        for pid in 0..8u64 {
            let product = Record::new(vec![pid, pid * 11]);
            fabric.push("products", product.clone()).unwrap();
            hw.push("products", product).unwrap();
        }
        for (pid, age) in [(1u64, 30u64), (1, 20), (5, 40), (9, 50)] {
            let customer = Record::new(vec![pid, age]);
            fabric.push("customers", customer.clone()).unwrap();
            hw.push("customers", customer).unwrap();
        }

        let mut sw: Vec<Record> = fabric.take_sink(handle.sink).unwrap();
        let mut hw_out = hw.finish();
        sw.sort_by_key(|r| r.values().to_vec());
        hw_out.sort_by_key(|r| r.values().to_vec());
        assert_eq!(hw_out, sw);
        assert_eq!(hw.filtered(), 1, "the under-age customer is filtered");
        assert!(!hw_out.is_empty());
    }

    #[test]
    fn projection_applies_to_hardware_results() {
        let plan = plan_of(
            "SELECT age, price FROM customers \
             JOIN products ON product_id WINDOW 16",
        );
        let mut hw = deploy_to_hardware(&plan, 2, &XC7VX485T).unwrap();
        hw.push("products", Record::new(vec![3, 99])).unwrap();
        hw.push("customers", Record::new(vec![3, 41])).unwrap();
        let out = hw.finish();
        assert_eq!(out, vec![Record::new(vec![41, 99])]);
    }

    #[test]
    fn joinless_and_aggregate_plans_are_rejected() {
        let select_only = plan_of("SELECT * FROM customers WHERE age > 5");
        assert_eq!(
            deploy_to_hardware(&select_only, 2, &XC7VX485T).unwrap_err(),
            HwBridgeError::NoJoin
        );
        let agg = plan_of("SELECT COUNT(*) FROM customers WINDOW 8");
        assert!(matches!(
            deploy_to_hardware(&agg, 2, &XC7VX485T),
            Err(HwBridgeError::UnsupportedPlan { .. })
        ));
    }

    #[test]
    fn a_selection_after_the_join_is_rejected() {
        // `price` is field 3 of the joined record; the front block would
        // have read field 3 of a two-field customer record.
        let plan = plan_of(
            "SELECT * FROM customers JOIN products ON product_id WINDOW 16 \
             WHERE price > 5",
        );
        assert_eq!(
            deploy_to_hardware(&plan, 2, &XC7VX485T).unwrap_err(),
            HwBridgeError::UnsupportedPlan {
                op: "selection over the joined record".to_string()
            }
        );
    }

    #[test]
    fn oversized_designs_are_rejected_at_deploy_time() {
        let plan = plan_of("SELECT * FROM customers JOIN products ON product_id WINDOW 4000000");
        assert!(matches!(
            deploy_to_hardware(&plan, 16, &XC7VX485T),
            Err(HwBridgeError::DoesNotFit(_))
        ));
    }

    #[test]
    fn wide_keys_are_rejected_at_push_time() {
        // 64-bit key field in the schema; a value beyond u32 cannot ride
        // the tuple key lane.
        let mut c = Catalog::new();
        c.register(
            "a",
            Schema::new(vec![Field::new("k", 64).unwrap()]).unwrap(),
        );
        c.register(
            "b",
            Schema::new(vec![Field::new("k", 64).unwrap()]).unwrap(),
        );
        let plan = bind(
            &Query::parse("SELECT * FROM a JOIN b ON k WINDOW 8").unwrap(),
            &c,
        )
        .unwrap();
        let mut hw = deploy_to_hardware(&plan, 2, &XC7VX485T).unwrap();
        assert!(hw.push("a", Record::new(vec![7])).is_ok());
        assert_eq!(
            hw.push("a", Record::new(vec![1 << 40])).unwrap_err(),
            HwBridgeError::KeyTooWide { value: 1 << 40 }
        );
        assert!(matches!(
            hw.push("ghost", Record::new(vec![1])),
            Err(HwBridgeError::UnknownStream { .. })
        ));
    }

    #[test]
    fn deployment_exposes_synthesis_data() {
        let plan = plan_of("SELECT * FROM customers JOIN products ON product_id WINDOW 256");
        let hw = deploy_to_hardware(&plan, 8, &XC7VX485T).unwrap();
        assert!(hw.report().utilization.fits());
        assert!(hw.throughput_estimate() > 1e6);
        assert_eq!(hw.accepted(), 0);
        assert_eq!(hw.cycles(), 0);
    }
}
