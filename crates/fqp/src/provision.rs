//! Fabric provisioning — the paper's open problem #3: "What is the best
//! initial topology given a sample query workload and a set of
//! application requirements known a priori?"
//!
//! Given the query plans an application expects to run, [`provision`]
//! sizes the OP-Block pool (with and without inter-query sharing),
//! estimates the FPGA resources of the synthesized fabric, and checks the
//! estimate against a device.

use hwsim::{CapacityError, Device, Resources, Utilization};

use crate::manager::QueryManager;
use crate::opblock::OpBlock;
use crate::plan::{Plan, PlanOp};

/// Fixed interconnect/bridge overhead of the fabric itself.
const FABRIC_OVERHEAD: Resources = Resources {
    luts: 800,
    ffs: 600,
    bram18: 0,
};

/// Per-block programmable-bridge cost (ports, instruction decoder).
const BRIDGE_PER_BLOCK: Resources = Resources {
    luts: 90,
    ffs: 120,
    bram18: 0,
};

/// A provisioning recommendation for a query workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSpec {
    /// OP-Blocks needed when every query is deployed independently.
    pub blocks_unshared: usize,
    /// OP-Blocks needed with prefix sharing (what [`crate::manager`]
    /// achieves).
    pub blocks_shared: usize,
    /// Estimated resources of the shared-size fabric.
    pub resources: Resources,
    /// Utilization on the target device.
    pub utilization: Utilization,
}

impl FabricSpec {
    /// Blocks saved by sharing-aware deployment.
    pub fn blocks_saved(&self) -> usize {
        self.blocks_unshared - self.blocks_shared
    }
}

/// Blocks `plans` occupy under [`QueryManager`]'s prefix sharing: the
/// plans are deployed on a scratch manager and its report is read, so
/// there is one sharing rule, the manager's.
pub fn shared_block_count(plans: &[Plan]) -> usize {
    let mut manager = QueryManager::new(plans.iter().map(Plan::block_count).sum());
    for plan in plans {
        manager
            .deploy(plan)
            .expect("a fabric of the unshared size fits every plan");
    }
    manager.sharing_report().blocks_in_use
}

/// Resource estimate for one plan's blocks, with `record_bits`-wide
/// records in the join/aggregate windows.
fn plan_resources(plan: &Plan, record_bits: u64) -> Resources {
    if plan.ops.is_empty() {
        return OpBlock::resource_cost(0, record_bits);
    }
    plan.ops
        .iter()
        .map(|op| {
            let window = match op {
                PlanOp::Join { window, .. } | PlanOp::Aggregate { window, .. } => *window,
                PlanOp::Select { .. } | PlanOp::SelectTable { .. } | PlanOp::Project { .. } => 0,
            };
            OpBlock::resource_cost(window, record_bits)
        })
        .sum()
}

/// Sizes a fabric for `plans` and checks it against `device`.
///
/// # Errors
///
/// Returns a [`CapacityError`] when even the shared-size fabric exceeds
/// the device.
///
/// # Example
///
/// ```
/// use fqp::plan::{bind, Catalog};
/// use fqp::provision::provision;
/// use fqp::query::Query;
/// use hwsim::devices;
/// use streamcore::{Field, Schema};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut catalog = Catalog::new();
/// catalog.register(
///     "readings",
///     Schema::new(vec![Field::new("sensor", 32)?, Field::new("value", 32)?])?,
/// );
/// let plan = bind(&Query::parse("SELECT * FROM readings WHERE value > 1")?, &catalog)?;
/// let spec = provision(&[plan], 64, &devices::XC7VX485T)?;
/// assert_eq!(spec.blocks_shared, 1);
/// assert!(spec.utilization.fits());
/// # Ok(())
/// # }
/// ```
pub fn provision(
    plans: &[Plan],
    record_bits: u64,
    device: &Device,
) -> Result<FabricSpec, CapacityError> {
    let blocks_unshared: usize = plans.iter().map(Plan::block_count).sum();
    let blocks_shared = shared_block_count(plans);

    // Resources of the shared fabric: sum per-plan block costs, then
    // subtract nothing — the shared estimate conservatively keeps each
    // unique prefix's cost once. We approximate by scaling the unshared
    // total by the sharing ratio; window-heavy blocks dominate either way.
    let unshared_total: Resources = plans.iter().map(|p| plan_resources(p, record_bits)).sum();
    let scale = |v: u64| -> u64 {
        if blocks_unshared == 0 {
            0
        } else {
            v * blocks_shared as u64 / blocks_unshared as u64
        }
    };
    let resources = Resources {
        luts: scale(unshared_total.luts),
        ffs: scale(unshared_total.ffs),
        bram18: scale(unshared_total.bram18),
    } + BRIDGE_PER_BLOCK * blocks_shared as u64
        + FABRIC_OVERHEAD;
    resources.check_fits(device)?;
    Ok(FabricSpec {
        blocks_unshared,
        blocks_shared,
        resources,
        utilization: Utilization::new(resources, device),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{bind, Catalog};
    use crate::query::Query;
    use hwsim::devices::{XC5VLX50T, XC7VX485T};
    use streamcore::{Field, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "customers",
            Schema::new(vec![
                Field::new("product_id", 32).unwrap(),
                Field::new("age", 8).unwrap(),
                Field::new("gender", 1).unwrap(),
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
        c.register(
            "returns",
            Schema::new(vec![Field::new("product_id", 32).unwrap()]).unwrap(),
        );
        c
    }

    fn plan_of(text: &str) -> Plan {
        bind(&Query::parse(text).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn shared_block_count_is_what_the_query_manager_occupies() {
        const Q1: &str = "SELECT * FROM customers WHERE age > 25 \
                          JOIN products ON product_id WINDOW 1536";
        const Q2: &str = "SELECT * FROM customers WHERE age > 25 \
                          JOIN products ON product_id WINDOW 2048";
        const HOT: &str = "SELECT * FROM customers WHERE age > 25";
        let table: [(&[&str], usize); 10] = [
            (&[Q1], 2),
            (&[Q1, Q2], 3),
            (&[Q1, Q1], 2),
            (&[HOT, HOT], 1),
            (&[HOT, "SELECT age FROM customers WHERE age > 25"], 2),
            (
                &[
                    "SELECT * FROM customers WHERE product_id > 0",
                    "SELECT * FROM products WHERE product_id > 0",
                ],
                2,
            ),
            (&["SELECT * FROM customers", "SELECT * FROM products"], 2),
            (
                &[
                    "SELECT * FROM customers JOIN products ON product_id WINDOW 64",
                    "SELECT * FROM customers JOIN returns ON product_id WINDOW 64",
                ],
                2,
            ),
            // The same ops after joins with different secondaries: the
            // projection blocks see different records, so neither shares.
            (
                &[
                    "SELECT age FROM customers JOIN products ON product_id WINDOW 64",
                    "SELECT age FROM customers JOIN returns ON product_id WINDOW 64",
                ],
                4,
            ),
            (
                &[
                    "SELECT * FROM customers JOIN products ON product_id WINDOW 64 \
                     WHERE product_id > 5",
                    "SELECT * FROM customers JOIN returns ON product_id WINDOW 64 \
                     WHERE product_id > 5",
                ],
                4,
            ),
        ];
        for (texts, blocks) in table {
            let plans: Vec<Plan> = texts.iter().map(|t| plan_of(t)).collect();
            let mut mgr = crate::manager::QueryManager::new(16);
            for plan in &plans {
                mgr.deploy(plan).unwrap();
            }
            assert_eq!(mgr.sharing_report().blocks_in_use, blocks, "{texts:?}");
            assert_eq!(shared_block_count(&plans), blocks, "{texts:?}");
        }
    }

    #[test]
    fn sharing_counts_match_the_query_manager_examples() {
        let q1 = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 1536",
        );
        let q2 = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 2048",
        );
        let spec = provision(&[q1, q2], 64, &XC7VX485T).unwrap();
        assert_eq!(spec.blocks_unshared, 4);
        assert_eq!(spec.blocks_shared, 3);
        assert_eq!(spec.blocks_saved(), 1);
    }

    #[test]
    fn window_size_drives_resources() {
        let small = plan_of("SELECT * FROM customers JOIN products ON product_id WINDOW 64");
        let large = plan_of("SELECT * FROM customers JOIN products ON product_id WINDOW 16384");
        let s = provision(std::slice::from_ref(&small), 64, &XC7VX485T).unwrap();
        let l = provision(std::slice::from_ref(&large), 64, &XC7VX485T).unwrap();
        assert!(l.resources.bram18 > s.resources.bram18);
    }

    #[test]
    fn oversized_workload_is_rejected_by_small_device() {
        // Many big-window joins cannot fit the Virtex-5.
        let plans: Vec<Plan> = (0..24)
            .map(|i| {
                plan_of(&format!(
                    "SELECT * FROM customers WHERE age > {i} \
                     JOIN products ON product_id WINDOW 8192"
                ))
            })
            .collect();
        assert!(provision(&plans, 64, &XC5VLX50T).is_err());
        assert!(provision(&plans, 64, &XC7VX485T).is_ok());
    }

    #[test]
    fn empty_workload_is_trivially_provisioned() {
        let spec = provision(&[], 64, &XC5VLX50T).unwrap();
        assert_eq!(spec.blocks_shared, 0);
        assert_eq!(spec.blocks_unshared, 0);
        assert!(spec.utilization.fits());
    }

    #[test]
    fn passthrough_plans_count_one_block_each_stream() {
        let p1 = plan_of("SELECT * FROM customers");
        let p2 = plan_of("SELECT * FROM products");
        assert_eq!(shared_block_count(&[p1.clone(), p2]), 2);
        assert_eq!(shared_block_count(&[p1.clone(), p1]), 1);
    }
}
