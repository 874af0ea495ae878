//! Heterogeneous operator placement — the paper's open problem #5: "How
//! do we extend query execution on hardware to co-placement and/or
//! co-processor designs by distributing and orchestrating query execution
//! over heterogeneous hardware … such as CPUs, FPGAs, and GPUs?"
//!
//! A [`SiteProfile`] characterizes one execution site (per-operator
//! throughput, per-tuple latency, and the cost of crossing onto/off the
//! site, e.g. a PCIe hop). [`place`] assigns each pipeline operator to a
//! site by dynamic programming over the operator chain, minimizing
//! end-to-end latency or maximizing the bottleneck throughput. The result
//! maps back onto the landscape taxonomy: all operators on one
//! accelerator is the *standalone* model, a mix is *co-processor*.

use std::fmt;

use crate::landscape::SystemModel;
use crate::plan::{Plan, PlanOp};

/// Kind of execution site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// General-purpose processor.
    Cpu,
    /// FPGA fabric.
    Fpga,
    /// GPU.
    Gpu,
}

/// Performance profile of one execution site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteProfile {
    /// Human-readable name.
    pub name: String,
    /// Site kind.
    pub kind: SiteKind,
    /// Throughput for a selection/projection operator (tuples/s).
    pub filter_tps: f64,
    /// Throughput for a windowed join, per 1k window tuples (tuples/s) —
    /// larger windows scale it down linearly.
    pub join_tps_per_1k_window: f64,
    /// Throughput for a windowed aggregate (tuples/s).
    pub aggregate_tps: f64,
    /// Per-tuple processing latency on this site (µs).
    pub tuple_latency_us: f64,
    /// One-way transfer latency onto/off this site (µs); zero for the
    /// host CPU.
    pub transfer_latency_us: f64,
}

impl SiteProfile {
    /// Throughput of `op` on this site (tuples/s).
    pub fn op_throughput(&self, op: &PlanOp) -> f64 {
        match op {
            PlanOp::Select { .. } | PlanOp::SelectTable { .. } | PlanOp::Project { .. } => {
                self.filter_tps
            }
            PlanOp::Aggregate { .. } => self.aggregate_tps,
            PlanOp::Join { window, .. } => {
                self.join_tps_per_1k_window / (*window as f64 / 1_000.0).max(1e-3)
            }
        }
    }
}

/// Reference profiles, order-of-magnitude calibrated from this
/// reproduction's own measurements (software SplitJoin for the CPU, the
/// cycle-accurate uni-flow design for the FPGA) and a synthetic GPU with
/// high throughput but batch-transfer latency.
pub fn default_sites() -> Vec<SiteProfile> {
    vec![
        SiteProfile {
            name: "host CPU".into(),
            kind: SiteKind::Cpu,
            filter_tps: 50e6,
            join_tps_per_1k_window: 1.5e6,
            aggregate_tps: 30e6,
            tuple_latency_us: 1.0,
            transfer_latency_us: 0.0,
        },
        SiteProfile {
            name: "FPGA (uni-flow fabric)".into(),
            kind: SiteKind::Fpga,
            filter_tps: 300e6,
            join_tps_per_1k_window: 150e6,
            aggregate_tps: 300e6,
            tuple_latency_us: 5.0,
            transfer_latency_us: 2.0,
        },
        SiteProfile {
            name: "GPU".into(),
            kind: SiteKind::Gpu,
            filter_tps: 1_000e6,
            join_tps_per_1k_window: 40e6,
            aggregate_tps: 800e6,
            tuple_latency_us: 50.0,
            transfer_latency_us: 30.0,
        },
    ]
}

/// Optimization objective for [`place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize end-to-end per-tuple latency (transfers included).
    MinLatency,
    /// Maximize the pipeline's bottleneck throughput (latency as the
    /// tie-breaker).
    MaxThroughput,
}

/// A placement decision for one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Site index (into the input slice) per pipeline operator.
    pub sites: Vec<usize>,
    /// Estimated bottleneck throughput (tuples/s).
    pub throughput_tps: f64,
    /// Estimated end-to-end per-tuple latency (µs).
    pub latency_us: f64,
}

impl Placement {
    /// The landscape system model this placement realizes: everything on
    /// one accelerator is *standalone*; everything on the CPU is also
    /// standalone (software); a mix is the *co-processor* model.
    pub fn system_model(&self, sites: &[SiteProfile]) -> SystemModel {
        let kinds: Vec<SiteKind> = self.sites.iter().map(|&i| sites[i].kind).collect();
        let all_same = kinds.windows(2).all(|w| w[0] == w[1]);
        if all_same {
            SystemModel::Standalone
        } else {
            SystemModel::CoProcessor
        }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sites {:?}: {:.2} M tuples/s, {:.1} us latency",
            self.sites,
            self.throughput_tps / 1e6,
            self.latency_us
        )
    }
}

/// Places each operator of `plan` on one of `sites`.
///
/// Dynamic programming over the operator chain: the state is (operator,
/// site); moving between sites pays both sites' transfer latencies. For
/// [`Objective::MaxThroughput`] the score is lexicographic:
/// bottleneck throughput first, latency second.
///
/// # Panics
///
/// Panics if `sites` is empty.
pub fn place(plan: &Plan, sites: &[SiteProfile], objective: Objective) -> Placement {
    assert!(!sites.is_empty(), "need at least one execution site");
    let ops: Vec<&PlanOp> = plan.ops.iter().collect();
    if ops.is_empty() {
        // A pass-through plan runs wherever ingest is cheapest: the host.
        return Placement {
            sites: vec![],
            throughput_tps: f64::INFINITY,
            latency_us: 0.0,
        };
    }

    // dp[s] = best (throughput, latency, path) ending with ops[i] on s.
    #[derive(Clone)]
    struct State {
        throughput: f64,
        latency: f64,
        path: Vec<usize>,
    }
    let better = |a: &State, b: &State| -> bool {
        match objective {
            Objective::MinLatency => a.latency < b.latency,
            Objective::MaxThroughput => {
                a.throughput > b.throughput
                    || (a.throughput == b.throughput && a.latency < b.latency)
            }
        }
    };

    let mut dp: Vec<State> = sites
        .iter()
        .enumerate()
        .map(|(s, p)| State {
            throughput: p.op_throughput(ops[0]),
            // Entering the first site from the data source.
            latency: p.transfer_latency_us + p.tuple_latency_us,
            path: vec![s],
        })
        .collect();

    for op in ops.iter().skip(1) {
        let mut next: Vec<Option<State>> = vec![None; sites.len()];
        for (s, profile) in sites.iter().enumerate() {
            for (prev_s, prev) in dp.iter().enumerate() {
                let hop = if prev_s == s {
                    0.0
                } else {
                    sites[prev_s].transfer_latency_us + profile.transfer_latency_us
                };
                let mut path = prev.path.clone();
                path.push(s);
                let cand = State {
                    throughput: prev.throughput.min(profile.op_throughput(op)),
                    latency: prev.latency + hop + profile.tuple_latency_us,
                    path,
                };
                if next[s].as_ref().is_none_or(|cur| better(&cand, cur)) {
                    next[s] = Some(cand);
                }
            }
        }
        dp = next.into_iter().map(|s| s.expect("filled")).collect();
    }

    let best = dp
        .into_iter()
        .reduce(|a, b| if better(&b, &a) { b } else { a })
        .expect("non-empty sites");
    Placement {
        sites: best.path,
        throughput_tps: best.throughput,
        latency_us: best.latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{bind, Catalog};
    use crate::query::Query;
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
    fn big_window_joins_prefer_the_fpga_for_throughput() {
        let plan = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 262144",
        );
        let sites = default_sites();
        let p = place(&plan, &sites, Objective::MaxThroughput);
        let join_site = sites[p.sites[1]].kind;
        assert_eq!(join_site, SiteKind::Fpga, "{p}");
        assert!(p.throughput_tps > 100e3);
    }

    #[test]
    fn latency_objective_avoids_expensive_hops() {
        let plan = plan_of("SELECT age FROM customers WHERE age > 25");
        let sites = default_sites();
        let p = place(&plan, &sites, Objective::MinLatency);
        // Two cheap filters: the host CPU wins (no transfer, 1 µs/op).
        assert!(
            p.sites.iter().all(|&s| sites[s].kind == SiteKind::Cpu),
            "{p}"
        );
        assert!(p.latency_us <= 2.0 + 1e-9);
        assert_eq!(
            p.system_model(&sites),
            crate::landscape::SystemModel::Standalone
        );
    }

    #[test]
    fn mixed_placement_is_the_coprocessor_model() {
        // Force a mix: a site that is unbeatable for joins but terrible
        // for filters, plus a host.
        let sites = vec![
            SiteProfile {
                name: "host".into(),
                kind: SiteKind::Cpu,
                filter_tps: 100e6,
                join_tps_per_1k_window: 1e3,
                aggregate_tps: 100e6,
                tuple_latency_us: 1.0,
                transfer_latency_us: 0.0,
            },
            SiteProfile {
                name: "join engine".into(),
                kind: SiteKind::Fpga,
                filter_tps: 1e3,
                join_tps_per_1k_window: 500e6,
                aggregate_tps: 1e3,
                tuple_latency_us: 2.0,
                transfer_latency_us: 1.0,
            },
        ];
        let plan = plan_of(
            "SELECT * FROM customers WHERE age > 25 \
             JOIN products ON product_id WINDOW 8192",
        );
        let p = place(&plan, &sites, Objective::MaxThroughput);
        assert_eq!(p.sites, vec![0, 1]);
        assert_eq!(
            p.system_model(&sites),
            crate::landscape::SystemModel::CoProcessor
        );
        // Latency = host op (1) + hop onto the engine (0 + 1) + join (2).
        assert!((p.latency_us - 4.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn single_site_placement_is_trivially_consistent() {
        let plan = plan_of("SELECT * FROM customers WHERE age > 25");
        let sites = vec![default_sites().remove(0)];
        let p = place(&plan, &sites, Objective::MaxThroughput);
        assert_eq!(p.sites, vec![0]);
    }

    #[test]
    fn passthrough_plan_needs_no_placement() {
        let plan = plan_of("SELECT * FROM customers");
        let p = place(&plan, &default_sites(), Objective::MinLatency);
        assert!(p.sites.is_empty());
        assert_eq!(p.latency_us, 0.0);
    }

    #[test]
    fn aggregate_ops_use_the_aggregate_throughput() {
        let plan = plan_of("SELECT SUM(age) FROM customers WINDOW 64");
        let sites = default_sites();
        let p = place(&plan, &sites, Objective::MaxThroughput);
        // GPU has the highest aggregate throughput.
        assert_eq!(sites[p.sites[0]].kind, SiteKind::Gpu, "{p}");
    }
}
