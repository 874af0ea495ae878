//! Design descriptors and the synthesis-report model.
//!
//! A [`DesignParams`] names one hardware configuration of the case study —
//! flow model, number of join cores, per-stream window size, and network
//! variant. [`DesignParams::synthesize`] plays the role of the Xilinx tool
//! chain in the paper: it computes resource utilization from the calibrated
//! per-component costs below, estimates the post-route clock frequency, and
//! produces a power report.
//!
//! Calibration (see `DESIGN.md` §6): per-component costs are chosen so the
//! paper's entire stated feasibility matrix holds — which (cores, window)
//! configurations fit each device — and the power coefficients reproduce
//! the paper's bi-flow/uni-flow power pair. Everything else the models
//! produce is an out-of-sample prediction.

use std::fmt;

use hwsim::{
    estimate_fmax, CapacityError, Device, Family, Frequency, MemoryMapping, PowerModel,
    PowerReport, Resources, TimingProfile, Utilization,
};
use streamcore::JoinAlgorithm;

/// Default width of a stream tuple on the wire, excluding the 2-bit
/// header. Frame buses carry `tuple_bits + 2` bits and result buses
/// `2 × tuple_bits + 2` (two joined tuples plus the header), per the
/// paper's bus-width discussion.
pub const TUPLE_BITS: u64 = 64;

/// Depth of the per-core fetcher FIFO (tuples).
pub const FETCHER_DEPTH: usize = 4;

/// Depth of the per-core result FIFO (result frames).
pub const RESULT_FIFO_DEPTH: usize = 4;

/// Base logic cost of one uni-flow join core (storage + processing FSMs,
/// comparator, round-robin counters).
const UNIFLOW_CORE: Resources = Resources {
    luts: 260,
    ffs: 240,
    bram18: 0,
};

/// Base logic cost of one bi-flow join core: two buffer managers, the
/// coordinator unit, five I/O ports, and the processing unit (Fig. 10) —
/// roughly 3.5× the uni-flow core, plus four BRAM18 of neighbour and
/// coordination buffers. This extra memory is what makes 16 bi-flow cores
/// at window 2^13 infeasible on the Virtex-5 while uni-flow fits.
const BIFLOW_CORE: Resources = Resources {
    luts: 900,
    ffs: 700,
    bram18: 4,
};

/// One DNode of the scalable distribution network (2-deep frame buffer
/// plus broadcast drivers — cost grows with the tree fan-out).
fn dnode_cost(fanout: u64) -> Resources {
    Resources {
        luts: 60 + 10 * fanout,
        ffs: 100 + 20 * fanout,
        bram18: 0,
    }
}

/// One GNode of the scalable gathering network (result buffer plus the
/// rotating-grant logic over `fanout` upper ports).
fn gnode_cost(fanout: u64) -> Resources {
    Resources {
        luts: 80 + 20 * fanout,
        ffs: 140 + 20 * fanout,
        bram18: 0,
    }
}

/// The lightweight distribution network: an input register broadcast to
/// all cores.
const LIGHTWEIGHT_DIST: Resources = Resources {
    luts: 120,
    ffs: 70,
    bram18: 0,
};

/// Fixed part of the lightweight gathering network (result bus register
/// plus round-robin pointer); add [`LIGHTWEIGHT_GATHER_PER_CORE`] per core.
const LIGHTWEIGHT_GATHER: Resources = Resources {
    luts: 60,
    ffs: 130,
    bram18: 0,
};
const LIGHTWEIGHT_GATHER_PER_CORE: Resources = Resources {
    luts: 10,
    ffs: 0,
    bram18: 0,
};

/// Stream de-packetizer, query assigner, and result collector — the
/// auxiliary blocks around any design (Fig. 5).
const AUXILIARY: Resources = Resources {
    luts: 500,
    ffs: 400,
    bram18: 0,
};

/// Per-core neighbour-link wiring of the bi-flow chain.
const BIFLOW_LINK_PER_CORE: Resources = Resources {
    luts: 50,
    ffs: 0,
    bram18: 0,
};

/// The bi-flow chain's central coordination module (low-latency handshake
/// join fast-forwarding).
const BIFLOW_COORDINATOR: Resources = Resources {
    luts: 800,
    ffs: 600,
    bram18: 0,
};

/// Switching-activity factors fed to the power model: uni-flow cores skip
/// storage turns and have no neighbour traffic, bi-flow buffer managers
/// and coordination logic toggle every cycle.
const UNIFLOW_ACTIVITY: f64 = 0.9;
const BIFLOW_ACTIVITY: f64 = 1.0;

/// The data-flow model of a parallel stream join (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowModel {
    /// Uni-directional top-down flow (SplitJoin): independent join cores
    /// behind a distribution network.
    UniFlow,
    /// Bi-directional flow (handshake join): a linear chain with R flowing
    /// left-to-right and S right-to-left.
    BiFlow,
}

impl fmt::Display for FlowModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowModel::UniFlow => write!(f, "uni-flow"),
            FlowModel::BiFlow => write!(f, "bi-flow"),
        }
    }
}

/// Distribution / result-gathering network variant of the uni-flow design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Single-stage broadcast and round-robin collection: cheapest, but the
    /// broadcast fan-out grows with the core count and drags the clock
    /// frequency down.
    Lightweight,
    /// Hierarchical DNode/GNode trees (1→2 fan-out per stage): a few extra
    /// pipeline cycles of latency, but the clock frequency stays flat as
    /// the design scales (Fig. 17).
    Scalable,
}

impl fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkKind::Lightweight => write!(f, "lightweight"),
            NetworkKind::Scalable => write!(f, "scalable"),
        }
    }
}

/// Parameters of one hardware join design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignParams {
    /// Flow model.
    pub flow: FlowModel,
    /// Number of join cores.
    pub num_cores: u32,
    /// Sliding-window size per stream (tuples), divided evenly across
    /// cores.
    pub window_size: usize,
    /// Network variant (uni-flow only; the bi-flow chain has no separate
    /// networks).
    pub network: NetworkKind,
    /// Fan-out of the scalable DNode/GNode trees (default 2, as in
    /// Fig. 9). Wider trees are shallower — lower latency — but each
    /// stage drives more loads, costing clock frequency; the paper flags
    /// this trade-off as worth exploring.
    pub tree_fanout: u32,
    /// Join algorithm inside each core (uni-flow; default nested-loop).
    pub algorithm: JoinAlgorithm,
    /// Tuple width in bits — a pre-synthesis parameter ("both of the
    /// realizations have the ability to adopt larger tuples that are
    /// defined by pre-synthesis parameters"). Affects window storage, bus
    /// widths, and therefore feasibility; the functional simulation always
    /// carries 64-bit tuples.
    pub tuple_bits: u32,
}

impl DesignParams {
    /// Creates a design with the lightweight network.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` or `window_size` is zero.
    pub fn new(flow: FlowModel, num_cores: u32, window_size: usize) -> Self {
        assert!(num_cores > 0, "a design needs at least one join core");
        assert!(window_size > 0, "window size must be positive");
        Self {
            flow,
            num_cores,
            window_size,
            network: NetworkKind::Lightweight,
            tree_fanout: 2,
            algorithm: JoinAlgorithm::NestedLoop,
            tuple_bits: TUPLE_BITS as u32,
        }
    }

    /// Selects the network variant.
    pub fn with_network(mut self, network: NetworkKind) -> Self {
        self.network = network;
        self
    }

    /// Sets the scalable-tree fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2`.
    pub fn with_fanout(mut self, fanout: u32) -> Self {
        assert!(fanout >= 2, "tree fan-out must be at least 2");
        self.tree_fanout = fanout;
        self
    }

    /// Selects the join algorithm inside each core.
    pub fn with_algorithm(mut self, algorithm: JoinAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the pre-synthesis tuple width in bits.
    ///
    /// # Panics
    ///
    /// Panics unless `8 <= tuple_bits <= 512`.
    pub fn with_tuple_bits(mut self, tuple_bits: u32) -> Self {
        assert!(
            (8..=512).contains(&tuple_bits),
            "tuple width must be within 8..=512 bits"
        );
        self.tuple_bits = tuple_bits;
        self
    }

    /// Per-core sub-window capacity: `⌈window_size / num_cores⌉` tuples.
    pub fn sub_window(&self) -> usize {
        self.window_size.div_ceil(self.num_cores as usize)
    }

    /// Resource requirement of the design on `device` (the memory-mapping
    /// rule is family-dependent; see `DESIGN.md` §6).
    pub fn resources(&self, device: &Device) -> Resources {
        let n = self.num_cores as u64;
        let tuple_bits = self.tuple_bits as u64;
        let frame_bits = tuple_bits + 2;
        let result_bits = 2 * tuple_bits + 2;
        let window_bits = self.sub_window() as u64 * tuple_bits;
        // Two sub-windows (R and S) per core.
        let windows_per_core = Resources::for_memory_on(window_bits, device) * 2;
        let windows_in_bram =
            Resources::memory_mapping_on(window_bits, device) == MemoryMapping::BlockRam;

        // Fetcher and result FIFOs: on Virtex-5, once the windows spill to
        // block RAM the scarce LUT-RAM forces these FIFOs into BRAM too; on
        // Virtex-7 distributed RAM is plentiful and they stay in LUTs.
        let fifos_per_core = match (device.family, windows_in_bram) {
            (Family::Virtex5, true) => Resources {
                luts: 0,
                ffs: 0,
                bram18: 2,
            },
            _ => {
                Resources::for_memory_with(
                    FETCHER_DEPTH as u64 * frame_bits,
                    hwsim::LUTRAM_THRESHOLD_BITS_DEFAULT,
                ) + Resources::for_memory_with(
                    RESULT_FIFO_DEPTH as u64 * result_bits,
                    hwsim::LUTRAM_THRESHOLD_BITS_DEFAULT,
                )
            }
        };

        // Hash cores add index logic plus a bucket-pointer memory of
        // ~16 bits per slot alongside each sub-window.
        let hash_extra = match self.algorithm {
            JoinAlgorithm::NestedLoop => Resources::ZERO,
            JoinAlgorithm::Hash => {
                Resources {
                    luts: 150,
                    ffs: 40,
                    bram18: 0,
                } + Resources::for_memory_on(self.sub_window() as u64 * 16, device) * 2
            }
        };

        match self.flow {
            FlowModel::UniFlow => {
                let core = UNIFLOW_CORE + windows_per_core + fifos_per_core + hash_extra;
                let networks = match self.network {
                    NetworkKind::Lightweight => {
                        LIGHTWEIGHT_DIST + LIGHTWEIGHT_GATHER + LIGHTWEIGHT_GATHER_PER_CORE * n
                    }
                    NetworkKind::Scalable => {
                        // A complete k-ary tree with N leaves has
                        // (N-1)/(k-1) internal nodes.
                        let k = self.tree_fanout as u64;
                        let internal = n.saturating_sub(1) / (k - 1);
                        (dnode_cost(k) + gnode_cost(k)) * internal
                    }
                };
                core * n + networks + AUXILIARY
            }
            FlowModel::BiFlow => {
                let core = BIFLOW_CORE + windows_per_core + BIFLOW_LINK_PER_CORE;
                core * n + BIFLOW_COORDINATOR + AUXILIARY
            }
        }
    }

    /// Critical-path profile of the design, consumed by the fmax estimator.
    pub fn timing_profile(&self) -> TimingProfile {
        match self.flow {
            FlowModel::UniFlow => match self.network {
                NetworkKind::Lightweight => TimingProfile {
                    max_fanout: self.num_cores as u64,
                    logic_levels: 4,
                },
                NetworkKind::Scalable => TimingProfile {
                    max_fanout: self.tree_fanout as u64,
                    logic_levels: 6,
                },
            },
            // The chain has local fan-out only, but the coordinator and
            // dual buffer managers deepen the per-core control path.
            FlowModel::BiFlow => TimingProfile {
                max_fanout: 4,
                logic_levels: 7,
            },
        }
    }

    /// Switching-activity factor for the power model.
    pub fn activity(&self) -> f64 {
        match self.flow {
            FlowModel::UniFlow => UNIFLOW_ACTIVITY,
            FlowModel::BiFlow => BIFLOW_ACTIVITY,
        }
    }

    /// Runs the synthesis-report model: utilization, clock, and power.
    ///
    /// # Errors
    ///
    /// Returns a [`CapacityError`] if the design does not fit `device` —
    /// the model's equivalent of a failed place-and-route.
    pub fn synthesize(&self, device: &Device) -> Result<SynthesisReport, CapacityError> {
        let used = self.resources(device);
        used.check_fits(device)?;
        let clock = estimate_fmax(device, &self.timing_profile());
        let power = PowerModel::calibrated().report(device, used, clock, self.activity());
        Ok(SynthesisReport {
            params: *self,
            device_name: device.name,
            utilization: Utilization::new(used, device),
            clock,
            power,
        })
    }

    /// Synthesizes and then derates the clock to `mhz` (the paper runs the
    /// Virtex-5 experiments at a fixed 100 MHz even though timing closes
    /// higher).
    ///
    /// # Errors
    ///
    /// Returns a [`CapacityError`] if the design does not fit, and panics
    /// if `mhz` exceeds the achievable clock.
    pub fn synthesize_at(
        &self,
        device: &Device,
        mhz: f64,
    ) -> Result<SynthesisReport, CapacityError> {
        let mut report = self.synthesize(device)?;
        assert!(
            mhz <= report.clock.mhz(),
            "requested clock {mhz} MHz exceeds achievable {}",
            report.clock
        );
        report.clock = Frequency::from_mhz(mhz);
        report.power = PowerModel::calibrated().report(
            device,
            report.utilization.used,
            report.clock,
            self.activity(),
        );
        Ok(report)
    }
}

impl fmt::Display for DesignParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} join, {} cores, window 2^{:.0} per stream, {} network",
            self.flow,
            self.num_cores,
            (self.window_size as f64).log2(),
            self.network
        )
    }
}

/// The output of the synthesis-report model for one design on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisReport {
    /// The synthesized design.
    pub params: DesignParams,
    /// Target device part name.
    pub device_name: &'static str,
    /// Resource usage relative to the device capacity.
    pub utilization: Utilization,
    /// Estimated post-route clock frequency.
    pub clock: Frequency,
    /// Estimated power at that clock.
    pub power: PowerReport,
}

impl fmt::Display for SynthesisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} on {}", self.params, self.device_name)?;
        writeln!(
            f,
            "  LUT {:>6.1}%  FF {:>6.1}%  BRAM {:>6.1}%",
            self.utilization.lut_percent(),
            self.utilization.ff_percent(),
            self.utilization.bram_percent()
        )?;
        writeln!(f, "  clock {}", self.clock)?;
        write!(f, "  power {}", self.power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::devices::{XC5VLX50T, XC7VX485T};

    fn uni(n: u32, w: usize) -> DesignParams {
        DesignParams::new(FlowModel::UniFlow, n, w)
    }

    fn bi(n: u32, w: usize) -> DesignParams {
        DesignParams::new(FlowModel::BiFlow, n, w)
    }

    #[test]
    fn sub_window_divides_evenly_and_rounds_up() {
        assert_eq!(uni(16, 1 << 13).sub_window(), 512);
        assert_eq!(uni(3, 10).sub_window(), 4);
    }

    // ---- The paper's feasibility matrix (Section V) ----

    #[test]
    fn v5_uniflow_16_cores_window_2_13_fits() {
        assert!(uni(16, 1 << 13).synthesize(&XC5VLX50T).is_ok());
    }

    #[test]
    fn v5_uniflow_32_and_64_cores_cap_at_window_2_11() {
        // "We were not able to realize window sizes larger than 2^11 when
        // instantiating 32 and 64 join cores."
        for n in [32, 64] {
            assert!(uni(n, 1 << 11).synthesize(&XC5VLX50T).is_ok(), "{n}@2^11");
            assert!(
                uni(n, 1 << 12).synthesize(&XC5VLX50T).is_err(),
                "{n}@2^12 should not fit"
            );
            assert!(uni(n, 1 << 13).synthesize(&XC5VLX50T).is_err());
        }
    }

    #[test]
    fn v5_uniflow_small_core_counts_fit_both_paper_windows() {
        for n in [2, 4, 8, 16] {
            for w in [1 << 11, 1 << 13] {
                assert!(uni(n, w).synthesize(&XC5VLX50T).is_ok(), "{n}@{w}");
            }
        }
    }

    #[test]
    fn v5_biflow_16_cores_window_2_13_does_not_fit() {
        // "We were not able to instantiate 16 join cores with 2^13 in
        // bi-flow hardware, unlike the uni-flow one."
        assert!(bi(16, 1 << 13).synthesize(&XC5VLX50T).is_err());
        // ...but 2^12 (the largest bi-flow point in Fig. 14b) fits.
        assert!(bi(16, 1 << 12).synthesize(&XC5VLX50T).is_ok());
    }

    #[test]
    fn v7_uniflow_512_cores_window_2_18_is_the_ceiling() {
        // Fig. 14c: "as many as 512 join cores and window sizes as large
        // as 2^18".
        let max = uni(512, 1 << 18).with_network(NetworkKind::Scalable);
        assert!(max.synthesize(&XC7VX485T).is_ok());
        let beyond = uni(512, 1 << 19).with_network(NetworkKind::Scalable);
        assert!(beyond.synthesize(&XC7VX485T).is_err());
    }

    // ---- Clock model ----

    #[test]
    fn v7_scalable_clock_supports_the_papers_300mhz() {
        let r = uni(512, 1 << 18)
            .with_network(NetworkKind::Scalable)
            .synthesize(&XC7VX485T)
            .unwrap();
        assert!(
            r.clock.mhz() >= 300.0,
            "paper clocks the V7 scalable design at 300 MHz, model gives {}",
            r.clock
        );
    }

    #[test]
    fn v5_clock_supports_the_papers_100mhz() {
        for n in [2, 4, 8, 16] {
            let r = uni(n, 1 << 11).synthesize(&XC5VLX50T).unwrap();
            assert!(r.clock.mhz() >= 100.0, "{n} cores: {}", r.clock);
        }
    }

    #[test]
    fn synthesize_at_derates_clock_and_power() {
        let full = uni(16, 1 << 13).synthesize(&XC5VLX50T).unwrap();
        let derated = uni(16, 1 << 13).synthesize_at(&XC5VLX50T, 100.0).unwrap();
        assert_eq!(derated.clock.mhz(), 100.0);
        assert!(derated.power.total_mw() < full.power.total_mw());
    }

    // ---- Power model calibration anchors (paper §V) ----

    #[test]
    fn power_pair_matches_paper_within_half_percent() {
        // "16 join cores with a total window size of 2^13 (for each
        // stream) consumed 1647.53 mW and 800.35 mW power for parallel
        // stream join based on bi-flow and uni-flow, respectively."
        // Power is a synthesis estimate, so it is available even for the
        // bi-flow configuration that place-and-route rejects.
        let clock = Frequency::from_mhz(100.0);
        let model = PowerModel::calibrated();
        let uni_p = model.report(
            &XC5VLX50T,
            uni(16, 1 << 13).resources(&XC5VLX50T),
            clock,
            UNIFLOW_ACTIVITY,
        );
        let bi_p = model.report(
            &XC5VLX50T,
            bi(16, 1 << 13).resources(&XC5VLX50T),
            clock,
            BIFLOW_ACTIVITY,
        );
        let uni_err = (uni_p.total_mw() - 800.35).abs() / 800.35;
        let bi_err = (bi_p.total_mw() - 1647.53).abs() / 1647.53;
        assert!(uni_err < 0.005, "uni-flow power {} vs 800.35", uni_p);
        assert!(bi_err < 0.005, "bi-flow power {} vs 1647.53", bi_p);
        // "more than 50% power saving"
        assert!(uni_p.total_mw() < 0.5 * bi_p.total_mw());
    }

    // ---- General sanity ----

    #[test]
    fn resources_scale_with_cores_and_windows() {
        let small = uni(4, 1 << 10).resources(&XC7VX485T);
        let more_cores = uni(8, 1 << 10).resources(&XC7VX485T);
        let bigger_window = uni(4, 1 << 14).resources(&XC7VX485T);
        assert!(more_cores.luts > small.luts);
        assert!(bigger_window.bram18 >= small.bram18);
    }

    #[test]
    fn scalable_network_costs_more_logic_than_lightweight() {
        let lw = uni(64, 1 << 11).resources(&XC7VX485T);
        let sc = uni(64, 1 << 11)
            .with_network(NetworkKind::Scalable)
            .resources(&XC7VX485T);
        assert!(sc.luts > lw.luts);
        assert!(sc.ffs > lw.ffs);
    }

    #[test]
    fn biflow_core_is_heavier_than_uniflow_core() {
        let u = uni(16, 1 << 12).resources(&XC5VLX50T);
        let b = bi(16, 1 << 12).resources(&XC5VLX50T);
        assert!(b.luts > 2 * u.luts);
        assert!(b.bram18 > u.bram18);
    }

    #[test]
    fn display_report_is_readable() {
        let r = uni(4, 1 << 8).synthesize(&XC5VLX50T).unwrap();
        let s = r.to_string();
        assert!(s.contains("uni-flow join, 4 cores"));
        assert!(s.contains("clock"));
        assert!(s.contains("power"));
    }

    #[test]
    #[should_panic(expected = "at least one join core")]
    fn zero_cores_panics() {
        let _ = uni(0, 16);
    }

    #[test]
    fn wider_tuples_shrink_the_feasible_window() {
        // 64-bit tuples: 16 cores @ 2^13 fits the V5 (the paper's point).
        assert!(uni(16, 1 << 13).synthesize(&XC5VLX50T).is_ok());
        // 256-bit tuples quadruple the window storage: no longer fits.
        let wide = uni(16, 1 << 13).with_tuple_bits(256);
        assert!(wide.synthesize(&XC5VLX50T).is_err());
        // A quarter of the window restores feasibility.
        let wide_small = uni(16, 1 << 11).with_tuple_bits(256);
        assert!(wide_small.synthesize(&XC5VLX50T).is_ok());
    }

    #[test]
    #[should_panic(expected = "tuple width must be within")]
    fn absurd_tuple_width_rejected() {
        let _ = uni(2, 16).with_tuple_bits(4);
    }
}
