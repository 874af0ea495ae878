//! Deploying FQP queries onto the hardware join fabric — what the paper's
//! FQP compiler does: "generates a dynamic mapping of queries onto the FQP
//! topology at runtime", here targeting the cycle-accurate uni-flow design
//! of [`joinhw`].
//!
//! [`deploy_to_hardware`] takes a bound plan with a join, runs the
//! synthesis-report model for the chosen device, programs a
//! [`UniFlowJoin`] with the plan's equi-join, and translates records to
//! and from the 64-bit tuple format of the hardware: the join key rides in
//! the tuple's key half, and the payload half indexes a record store kept
//! beside the fabric (the paper's parametrized-data-segment idea in its
//! simplest form: wide records stay in memory, the fabric sees fixed-width
//! tuples). Every other operator of the plan runs in an [`OpBlock`], as it
//! does on a [`Fabric`](crate::fabric::Fabric): the operators before the
//! join in front blocks on the primary stream, the operators after it — a
//! selection over the joined record, a projection — in back blocks on the
//! gathered results.

use std::error::Error;
use std::fmt;

use hwsim::{CapacityError, Device, Simulator};
use joinhw::harness::uniflow_throughput_model;
use joinhw::uniflow::UniFlowJoin;
use joinhw::{DesignParams, FlowModel, JoinOperator, SynthesisReport};
use streamcore::{Record, StreamTag, Tuple};

use crate::opblock::{BlockId, BlockProgram, OpBlock, Port};
use crate::plan::{Plan, PlanOp};

/// Errors raised while deploying or driving a hardware-mapped query.
#[derive(Debug, Clone, PartialEq)]
pub enum HwBridgeError {
    /// The plan has no join — there is nothing to accelerate.
    NoJoin,
    /// The design does not fit the device.
    DoesNotFit(CapacityError),
    /// A record's join key exceeds the fabric's 32-bit key lane.
    KeyTooWide {
        /// The offending value.
        value: u64,
    },
    /// A record reaching the join is too short to hold its join key.
    MissingKey {
        /// The stream the record was pushed on.
        stream: String,
        /// The join key's field index.
        field: usize,
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
            HwBridgeError::NoJoin => write!(f, "plan has no join to accelerate"),
            HwBridgeError::DoesNotFit(e) => write!(f, "design does not fit: {e}"),
            HwBridgeError::KeyTooWide { value } => {
                write!(f, "join key {value} exceeds the 32-bit tuple key lane")
            }
            HwBridgeError::MissingKey { stream, field } => {
                write!(f, "record on {stream:?} has no join key field {field}")
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
    key_left: usize,
    key_right: usize,
    /// The operators before the join, on the primary stream.
    front: Vec<OpBlock>,
    /// The operators after the join, on the joined records.
    back: Vec<OpBlock>,
    left_records: Vec<Record>,
    right_records: Vec<Record>,
    accepted: u64,
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
/// `device`, with one OP-Block per other operator around it.
///
/// # Errors
///
/// Returns [`HwBridgeError::NoJoin`] for join-less plans and
/// [`HwBridgeError::DoesNotFit`] when synthesis fails.
pub fn deploy_to_hardware(
    plan: &Plan,
    num_cores: u32,
    device: &Device,
) -> Result<HwDeployment, HwBridgeError> {
    let (at, key_left, key_right, window) = plan
        .ops
        .iter()
        .enumerate()
        .find_map(|(at, op)| match *op {
            PlanOp::Join {
                key_left,
                key_right,
                window,
            } => Some((at, key_left, key_right, window)),
            _ => None,
        })
        .ok_or(HwBridgeError::NoJoin)?;
    let blocks = |first: usize, ops: &[PlanOp]| -> Vec<OpBlock> {
        ops.iter()
            .enumerate()
            .map(|(i, op)| {
                let mut block = OpBlock::new(BlockId(first + i));
                block.reprogram(BlockProgram::Op(op.clone()));
                block
            })
            .collect()
    };

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
        key_left,
        key_right,
        front: blocks(0, &plan.ops[..at]),
        back: blocks(at + 1, &plan.ops[at + 1..]),
        left_records: Vec::new(),
        right_records: Vec::new(),
        accepted: 0,
    })
}

/// Runs `records` through `blocks` in order, each block feeding the next.
fn run_blocks(blocks: &mut [OpBlock], mut records: Vec<Record>) -> Vec<Record> {
    for block in blocks {
        records = records
            .into_iter()
            .flat_map(|r| block.process(Port::Left, r))
            .collect();
    }
    records
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

    /// Records dropped by the OP-Blocks around the fabric: the
    /// selections' rejects, since a projection drops nothing.
    pub fn filtered(&self) -> u64 {
        self.front
            .iter()
            .chain(&self.back)
            .map(|b| b.stats().records_in - b.stats().records_out)
            .sum()
    }

    /// Clock cycles the fabric has run.
    pub fn cycles(&self) -> u64 {
        self.sim.cycle()
    }

    /// Pushes one record into the deployment.
    ///
    /// # Errors
    ///
    /// Returns [`HwBridgeError::UnknownStream`],
    /// [`HwBridgeError::MissingKey`] or [`HwBridgeError::KeyTooWide`].
    pub fn push(&mut self, stream: &str, record: Record) -> Result<(), HwBridgeError> {
        let stream = stream.to_ascii_lowercase();
        let (tag, field, records) = if stream == self.primary {
            (
                StreamTag::R,
                self.key_left,
                run_blocks(&mut self.front, vec![record]),
            )
        } else if stream == self.secondary {
            (StreamTag::S, self.key_right, vec![record])
        } else {
            return Err(HwBridgeError::UnknownStream { stream });
        };
        for record in records {
            let key = record.get(field).ok_or_else(|| HwBridgeError::MissingKey {
                stream: stream.clone(),
                field,
            })?;
            let key: u32 = key
                .try_into()
                .map_err(|_| HwBridgeError::KeyTooWide { value: key })?;
            let store = match tag {
                StreamTag::R => &mut self.left_records,
                StreamTag::S => &mut self.right_records,
            };
            let tuple = Tuple::new(key, store.len() as u32);
            store.push(record);
            while !self.join.offer(tag, tuple) {
                self.sim.step(&mut self.join);
            }
            self.sim.step(&mut self.join);
            self.accepted += 1;
        }
        Ok(())
    }

    /// Runs the fabric to quiescence and returns the joined records
    /// produced so far, through the back OP-Blocks.
    pub fn finish(&mut self) -> Vec<Record> {
        while !self.join.quiescent() {
            self.sim.step(&mut self.join);
        }
        let joined = self
            .join
            .drain_results()
            .into_iter()
            .map(|m| {
                let mut values = self.left_records[m.r.payload() as usize].values().to_vec();
                values.extend_from_slice(self.right_records[m.s.payload() as usize].values());
                Record::new(values)
            })
            .collect();
        run_blocks(&mut self.back, joined)
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
    use crate::manager::QueryManager;
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
        let mut fabric = QueryManager::new(4);
        let id = fabric.deploy(&plan).unwrap();

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

        let mut sw: Vec<Record> = fabric.take_results(id).unwrap();
        let mut hw_out = hw.finish();
        sw.sort_by_key(|r| r.values().to_vec());
        hw_out.sort_by_key(|r| r.values().to_vec());
        assert_eq!(hw_out, sw);
        assert_eq!(hw.filtered(), 1, "the under-age customer is filtered");
        assert!(!hw_out.is_empty());
    }

    #[test]
    fn the_bridge_runs_every_operator_the_fabric_runs() {
        // (plan, records the selections drop): products 0..8 priced
        // 11 × id, then six customers, five of whom buy a listed product.
        let cases = [
            (
                "SELECT * FROM customers WHERE age > 25 \
                 JOIN products ON product_id WINDOW 64",
                1,
            ),
            (
                "SELECT * FROM customers WHERE age > 60 OR product_id = 3 \
                 JOIN products ON product_id WINDOW 64",
                4,
            ),
            (
                "SELECT * FROM customers JOIN products ON product_id WINDOW 64 \
                 WHERE price > 30",
                2,
            ),
            (
                "SELECT age, price FROM customers \
                 JOIN products ON product_id WINDOW 64",
                0,
            ),
            (
                "SELECT age, price FROM customers \
                 JOIN products ON product_id WINDOW 64 WHERE price > 30",
                2,
            ),
        ];
        for (text, filtered) in cases {
            let plan = plan_of(text);
            let mut fabric = QueryManager::new(4);
            let id = fabric.deploy(&plan).unwrap();
            let mut hw = deploy_to_hardware(&plan, 4, &XC7VX485T).unwrap();
            let products = (0..8u64).map(|pid| ("products", vec![pid, pid * 11]));
            let customers = [(1u64, 30u64), (1, 20), (3, 40), (5, 70), (9, 50), (6, 26)]
                .map(|(pid, age)| ("customers", vec![pid, age]));
            for (stream, values) in products.chain(customers) {
                fabric.push(stream, Record::new(values.clone())).unwrap();
                hw.push(stream, Record::new(values)).unwrap();
            }

            let mut sw = fabric.take_results(id).unwrap();
            let mut hw_out = hw.finish();
            sw.sort_by_key(|r| r.values().to_vec());
            hw_out.sort_by_key(|r| r.values().to_vec());
            assert!(!sw.is_empty(), "{text}");
            assert_eq!(hw_out, sw, "{text}");
            // The fabric's selections drop what the bridge's do.
            let sw_filtered: u64 = fabric
                .blocks(id)
                .unwrap()
                .into_iter()
                .map(|block| fabric.fabric().block(block).unwrap())
                .filter(|b| !matches!(b.program(), BlockProgram::Op(PlanOp::Join { .. })))
                .map(|b| b.stats().records_in - b.stats().records_out)
                .sum();
            assert_eq!((hw.filtered(), sw_filtered), (filtered, filtered), "{text}");
        }
    }

    #[test]
    fn a_keyless_record_is_rejected_not_joined_as_key_0() {
        let plan = plan_of("SELECT * FROM customers JOIN products ON product_id WINDOW 16");
        let mut hw = deploy_to_hardware(&plan, 2, &XC7VX485T).unwrap();
        let err = hw.push("products", Record::new(vec![])).unwrap_err();
        assert_eq!(
            err,
            HwBridgeError::MissingKey {
                stream: "products".to_string(),
                field: 0
            }
        );
        hw.push("customers", Record::new(vec![0, 30])).unwrap();
        assert!(hw.finish().is_empty());
        assert_eq!(hw.accepted(), 1);
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
        // An aggregate never rides a join, so it has nothing to accelerate.
        for text in [
            "SELECT * FROM customers WHERE age > 5",
            "SELECT COUNT(*) FROM customers WINDOW 8",
        ] {
            assert_eq!(
                deploy_to_hardware(&plan_of(text), 2, &XC7VX485T).unwrap_err(),
                HwBridgeError::NoJoin
            );
        }
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
