//! Deploying FQP queries onto the hardware join fabric — what the paper's
//! FQP compiler does: "generates a dynamic mapping of queries onto the FQP
//! topology at runtime", here targeting the cycle-accurate uni-flow design
//! of [`joinhw`].
//!
//! [`deploy_to_hardware`] takes a bound plan with a join, runs the
//! synthesis-report model for the chosen device, builds the uni-flow
//! design with [`harness::build`] (an equi-join), and translates records
//! to and from the 64-bit tuple format of the hardware: the join key rides
//! in the tuple's key half, and the payload half carries the record's
//! per-stream sequence number into a record store kept beside the fabric
//! (the paper's parametrized-data-segment idea in its simplest form: wide
//! records stay in memory, the fabric sees fixed-width tuples). A store
//! keeps only the records the design's windows can still join once
//! [`HwDeployment::finish`] has drained. [`harness::feed`] and
//! [`harness::settle`] drive the design. Every other operator of the plan runs in an [`OpBlock`], as it
//! does on a [`Fabric`](crate::fabric::Fabric): the operators before the
//! join in front blocks on the primary stream, the operators after it — a
//! selection over the joined record, a projection — in back blocks on the
//! gathered results.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use hwsim::{CapacityError, Device, Simulator};
use joinhw::harness::{self, uniflow_throughput_model, Stall, StreamJoin};
use joinhw::{DesignParams, FlowModel, SynthesisReport};
use streamcore::{Record, StreamTag, Tuple};

use crate::opblock::{BlockId, BlockProgram, OpBlock, Port};
use crate::plan::{Plan, PlanOp};

/// Errors raised while deploying or driving a hardware-mapped query.
#[derive(Debug, Clone, PartialEq)]
pub enum HwBridgeError {
    /// The plan has no join, or no secondary stream for its join —
    /// there is nothing to accelerate.
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
    /// The design stopped accepting input or did not quiesce.
    Stalled(Stall),
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
            HwBridgeError::Stalled(stall) => write!(f, "fabric {stall}"),
        }
    }
}

impl Error for HwBridgeError {}

impl From<CapacityError> for HwBridgeError {
    fn from(e: CapacityError) -> Self {
        HwBridgeError::DoesNotFit(e)
    }
}

/// One stream's records the fabric may still join, oldest first. A
/// record's tuple carries its sequence number; `base` is the front
/// record's, so both wrap together past `u32::MAX`.
#[derive(Debug, Default)]
struct RecordStore {
    base: u32,
    records: VecDeque<Record>,
}

impl RecordStore {
    /// Stores `record` and returns its sequence number.
    fn push(&mut self, record: Record) -> u32 {
        self.records.push_back(record);
        self.base.wrapping_add(self.records.len() as u32 - 1)
    }

    fn get(&self, seq: u32) -> &Record {
        &self.records[seq.wrapping_sub(self.base) as usize]
    }

    /// Drops all but the newest `keep` records.
    fn retain_newest(&mut self, keep: usize) {
        let old = self.records.len().saturating_sub(keep);
        self.records.drain(..old);
        self.base = self.base.wrapping_add(old as u32);
    }
}

/// A query running on the simulated hardware join fabric.
pub struct HwDeployment {
    report: SynthesisReport,
    join: Box<dyn StreamJoin>,
    sim: Simulator,
    /// The records a window holds per stream: `sub_window × num_cores`.
    window: usize,
    /// Cycles a feed or a settle may take before it counts as a stall.
    max_cycles: u64,
    primary: String,
    secondary: String,
    key_left: usize,
    key_right: usize,
    /// The operators before the join, on the primary stream.
    front: Vec<OpBlock>,
    /// The operators after the join, on the joined records.
    back: Vec<OpBlock>,
    left_records: RecordStore,
    right_records: RecordStore,
}

impl fmt::Debug for HwDeployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HwDeployment")
            .field("primary", &self.primary)
            .field("secondary", &self.secondary)
            .field("accepted", &self.accepted())
            .finish_non_exhaustive()
    }
}

/// Maps `plan` onto a uni-flow join design with `num_cores` cores on
/// `device`, with one OP-Block per other operator around it.
///
/// # Errors
///
/// Returns [`HwBridgeError::NoJoin`] for join-less plans (or a join
/// with no secondary stream) and [`HwBridgeError::DoesNotFit`] when
/// synthesis fails.
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
    let secondary = plan.secondary.clone().ok_or(HwBridgeError::NoJoin)?;
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
    let window = params.sub_window() * num_cores as usize;

    Ok(HwDeployment {
        join: harness::build(&params),
        sim: Simulator::new(),
        window,
        // A tuple takes a sub-window scan plus a result per window slot;
        // a thousand of those is a wedge, not a busy design.
        max_cycles: 1_000 * (window as u64 + 64),
        report,
        primary: plan.primary.clone(),
        secondary,
        key_left,
        key_right,
        front: blocks(0, &plan.ops[..at]),
        back: blocks(at + 1, &plan.ops[at + 1..]),
        left_records: RecordStore::default(),
        right_records: RecordStore::default(),
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
        self.join.accepted_tuples()
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
    /// [`HwBridgeError::MissingKey`], [`HwBridgeError::KeyTooWide`] or
    /// [`HwBridgeError::Stalled`].
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
            let input = [(tag, Tuple::new(key, store.push(record)))];
            harness::feed(&mut self.sim, self.join.as_mut(), &input, self.max_cycles)
                .map_err(HwBridgeError::Stalled)?;
        }
        Ok(())
    }

    /// Runs the fabric to quiescence and returns the joined records
    /// produced so far, through the back OP-Blocks. Afterwards each
    /// record store holds only the design's effective window.
    ///
    /// # Errors
    ///
    /// Returns [`HwBridgeError::Stalled`] if the fabric does not quiesce.
    pub fn finish(&mut self) -> Result<Vec<Record>, HwBridgeError> {
        let results = harness::settle(&mut self.sim, self.join.as_mut(), self.max_cycles)
            .map_err(HwBridgeError::Stalled)?;
        let joined = results
            .into_iter()
            .map(|m| {
                let mut values = self.left_records.get(m.r.payload()).values().to_vec();
                values.extend_from_slice(self.right_records.get(m.s.payload()).values());
                Record::new(values)
            })
            .collect();
        self.left_records.retain_newest(self.window);
        self.right_records.retain_newest(self.window);
        Ok(run_blocks(&mut self.back, joined))
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
        let mut hw_out = hw.finish().unwrap();
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
            let mut hw_out = hw.finish().unwrap();
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
    fn record_stores_hold_at_most_two_windows_and_match_the_fabric() {
        // Window 16 on 2 cores: the design's effective window is the
        // plan's, so the fabric's join is the same join.
        let plan = plan_of("SELECT * FROM customers JOIN products ON product_id WINDOW 16");
        let mut fabric = QueryManager::new(4);
        let id = fabric.deploy(&plan).unwrap();
        let mut hw = deploy_to_hardware(&plan, 2, &XC7VX485T).unwrap();
        assert_eq!(hw.window, 16);
        let mut hw_out = Vec::new();
        for round in 0..10u64 {
            for i in 0..16u64 {
                let n = round * 16 + i;
                for (stream, values) in
                    [("products", vec![n % 5, n]), ("customers", vec![n % 3, n])]
                {
                    fabric.push(stream, Record::new(values.clone())).unwrap();
                    hw.push(stream, Record::new(values)).unwrap();
                    assert!(hw.left_records.records.len() <= 2 * hw.window);
                    assert!(hw.right_records.records.len() <= 2 * hw.window);
                }
            }
            hw_out.extend(hw.finish().unwrap());
        }
        let mut sw = fabric.take_results(id).unwrap();
        sw.sort_by_key(|r| r.values().to_vec());
        hw_out.sort_by_key(|r| r.values().to_vec());
        assert!(!sw.is_empty());
        assert_eq!(hw_out, sw);
        assert_eq!(hw.accepted(), 320);
    }

    #[test]
    fn record_store_sequence_numbers_wrap_with_their_base() {
        let mut store = RecordStore {
            base: u32::MAX - 1,
            records: VecDeque::new(),
        };
        let seqs: Vec<u32> = (0..4).map(|v| store.push(Record::new(vec![v]))).collect();
        assert_eq!(seqs, [u32::MAX - 1, u32::MAX, 0, 1]);
        store.retain_newest(2);
        assert_eq!(store.base, 0);
        assert_eq!(store.get(1), &Record::new(vec![3]));
        assert_eq!(store.get(0), &Record::new(vec![2]));
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
        assert!(hw.finish().unwrap().is_empty());
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
        let out = hw.finish().unwrap();
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
