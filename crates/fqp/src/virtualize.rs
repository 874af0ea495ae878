//! Distributing a query workload over multiple accelerator devices — the
//! paper's closing vision (Fig. 18): "superimpose FQP abstraction over
//! these heterogeneous compute nodes in order to hide their intricacy and
//! to virtualize the computation over them".
//!
//! [`distribute`] packs query plans onto a set of FPGAs using first-fit
//! decreasing over the provisioning estimates of [`crate::provision`]:
//! each device ends up with a fabric spec it can actually synthesize, and
//! queries that fit no device are reported rather than silently dropped.

use hwsim::Device;

use crate::plan::Plan;
use crate::provision::{provision, FabricSpec};

/// Result of distributing a workload over devices.
#[derive(Debug, Clone)]
pub struct Distribution {
    /// Plan indices assigned to each device (parallel to the input
    /// device slice).
    pub assignments: Vec<Vec<usize>>,
    /// Provisioning spec per device (for devices with assignments).
    pub specs: Vec<Option<FabricSpec>>,
    /// Plans that fit no device.
    pub unplaced: Vec<usize>,
}

impl Distribution {
    /// `true` when every plan found a home.
    pub fn is_complete(&self) -> bool {
        self.unplaced.is_empty()
    }

    /// Number of devices actually used.
    pub fn devices_used(&self) -> usize {
        self.assignments.iter().filter(|a| !a.is_empty()).count()
    }
}

/// Packs `plans` onto `devices` (first-fit decreasing by window volume).
///
/// # Example
///
/// ```
/// use fqp::plan::{bind, Catalog};
/// use fqp::query::Query;
/// use fqp::virtualize::distribute;
/// use hwsim::devices;
/// use streamcore::{Field, Schema};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut catalog = Catalog::new();
/// catalog.register(
///     "readings",
///     Schema::new(vec![Field::new("sensor", 32)?, Field::new("value", 32)?])?,
/// );
/// let plan = bind(&Query::parse("SELECT * FROM readings WHERE value > 5")?, &catalog)?;
/// let d = distribute(&[plan], 64, &[devices::XC5VLX50T]);
/// assert!(d.is_complete());
/// assert_eq!(d.devices_used(), 1);
/// # Ok(())
/// # }
/// ```
pub fn distribute(plans: &[Plan], record_bits: u64, devices: &[Device]) -> Distribution {
    // Heaviest plans first: total window volume dominates block RAM.
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(plan_weight(&plans[i])));

    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); devices.len()];
    let mut unplaced = Vec::new();
    for idx in order {
        let mut placed = false;
        for (d, device) in devices.iter().enumerate() {
            let mut candidate: Vec<Plan> =
                assignments[d].iter().map(|&i| plans[i].clone()).collect();
            candidate.push(plans[idx].clone());
            if provision(&candidate, record_bits, device).is_ok() {
                assignments[d].push(idx);
                placed = true;
                break;
            }
        }
        if !placed {
            unplaced.push(idx);
        }
    }
    unplaced.sort_unstable();

    let specs = assignments
        .iter()
        .zip(devices)
        .map(|(assigned, device)| {
            if assigned.is_empty() {
                return None;
            }
            let subset: Vec<Plan> = assigned.iter().map(|&i| plans[i].clone()).collect();
            Some(provision(&subset, record_bits, device).expect("checked during packing"))
        })
        .collect();

    Distribution {
        assignments,
        specs,
        unplaced,
    }
}

/// Rough resource weight: total window tuples across the plan's ops.
fn plan_weight(plan: &Plan) -> usize {
    use crate::plan::PlanOp;
    plan.ops
        .iter()
        .map(|op| match op {
            PlanOp::Join { window, .. } | PlanOp::Aggregate { window, .. } => *window,
            PlanOp::Select { .. } | PlanOp::SelectTable { .. } | PlanOp::Project { .. } => 1,
        })
        .sum::<usize>()
        .max(1)
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

    fn join_plan(age: u32, window: usize) -> Plan {
        bind(
            &Query::parse(&format!(
                "SELECT * FROM customers WHERE age > {age} \
                 JOIN products ON product_id WINDOW {window}"
            ))
            .unwrap(),
            &catalog(),
        )
        .unwrap()
    }

    #[test]
    fn small_workload_stays_on_one_device() {
        let plans = vec![join_plan(25, 512), join_plan(30, 1024)];
        let d = distribute(&plans, 64, &[XC5VLX50T, XC7VX485T]);
        assert!(d.is_complete());
        assert_eq!(d.devices_used(), 1);
    }

    #[test]
    fn overflow_spills_to_the_second_device() {
        // Three joins too big for the Virtex-5 plus three small ones.
        let mut plans: Vec<Plan> = (0..3).map(|i| join_plan(20 + i, 50_000)).collect();
        plans.extend((0..3).map(|i| join_plan(40 + i, 2_000)));
        let v5_only = distribute(&plans, 64, &[XC5VLX50T]);
        assert!(
            !v5_only.is_complete(),
            "the V5 cannot hold 50k-tuple windows"
        );
        let both = distribute(&plans, 64, &[XC5VLX50T, XC7VX485T]);
        assert!(both.is_complete());
        assert_eq!(both.devices_used(), 2);
        // The big joins land on the Virtex-7 (second device).
        for &i in &both.assignments[1] {
            assert!(i < 3, "plan {i} should be a big join");
        }
        // Every plan appears exactly once.
        let mut all: Vec<usize> = both.assignments.concat();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn impossible_plans_are_reported_not_dropped() {
        let giant = join_plan(25, 3_000_000);
        let d = distribute(&[giant], 64, &[XC5VLX50T]);
        assert_eq!(d.unplaced, vec![0]);
        assert!(!d.is_complete());
        assert_eq!(d.devices_used(), 0);
    }

    #[test]
    fn specs_cover_exactly_the_used_devices() {
        let plans = vec![join_plan(25, 256)];
        let d = distribute(&plans, 64, &[XC5VLX50T, XC7VX485T]);
        assert!(d.specs[0].is_some());
        assert!(d.specs[1].is_none());
        assert!(d.specs[0].as_ref().unwrap().utilization.fits());
    }

    #[test]
    fn empty_workload_distributes_trivially() {
        let d = distribute(&[], 64, &[XC5VLX50T]);
        assert!(d.is_complete());
        assert_eq!(d.devices_used(), 0);
    }
}
