//! Property-based tests of the hardware designs and synthesis models.

use joinhw::{DesignParams, FlowModel, JoinAlgorithm, NetworkKind, SubWindow};
use proptest::prelude::*;
use streamcore::{HashIndexWindow, Tuple};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The circular sub-window and the hash core's indexed window agree
    /// with a model FIFO across arbitrary store sequences, including
    /// wraparound.
    #[test]
    fn windows_match_a_model_fifo(cap in 1usize..24, keys in prop::collection::vec(0u32..6, 0..120)) {
        let mut nested = SubWindow::new(cap);
        let mut hashed = HashIndexWindow::new(cap);
        let mut model: Vec<Tuple> = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let t = Tuple::new(k, i as u32);
            nested.begin_cycle();
            let expired = nested.store(t);
            let h_expired = hashed.insert(t);
            model.push(t);
            let model_expired = if model.len() > cap {
                Some(model.remove(0))
            } else {
                None
            };
            prop_assert_eq!(expired, model_expired);
            prop_assert_eq!(h_expired, model_expired);
        }
        prop_assert_eq!(nested.snapshot(), model.clone());
        prop_assert_eq!(hashed.iter().collect::<Vec<_>>(), model.clone());
        // Each probe's hits are the filtered scan, oldest first.
        for key in 0u32..6 {
            let scan: Vec<Tuple> = model.iter().copied().filter(|t| t.key() == key).collect();
            prop_assert_eq!(hashed.probe(key).collect::<Vec<_>>(), scan);
        }
    }

    /// Resource requirements are monotone in cores, window, and tuple
    /// width (no configuration gets cheaper by growing).
    #[test]
    fn resources_are_monotone(cores in 1u32..64, window in 1usize..10_000) {
        let device = hwsim::devices::XC7VX485T;
        let base = DesignParams::new(FlowModel::UniFlow, cores, window);
        let more_cores = DesignParams::new(FlowModel::UniFlow, cores * 2, window);
        let wider = base.with_tuple_bits(128);
        let r0 = base.resources(&device);
        let r1 = more_cores.resources(&device);
        let r2 = wider.resources(&device);
        prop_assert!(r1.luts >= r0.luts);
        // Doubling tuple width can shift storage between LUT-RAM and
        // BRAM; total storage bits never shrink.
        let bits = |r: hwsim::Resources| r.luts * 32 + r.bram18 * 18 * 1024;
        prop_assert!(bits(r2) >= bits(r0));
    }

    /// Synthesis either fits or reports a specific overflowing resource —
    /// and fitting designs always report a positive clock.
    #[test]
    fn synthesis_is_total(cores_exp in 0u32..8, window_exp in 4u32..16) {
        let params = DesignParams::new(FlowModel::UniFlow, 1 << cores_exp, 1usize << window_exp)
            .with_network(NetworkKind::Scalable);
        for device in hwsim::devices::ALL {
            match params.synthesize(&device) {
                Ok(report) => {
                    prop_assert!(report.clock.mhz() > 0.0);
                    prop_assert!(report.utilization.fits());
                    prop_assert!(report.power.total_mw() > 0.0);
                }
                Err(e) => {
                    prop_assert!(!e.resource.is_empty());
                    prop_assert!(e.required > e.available);
                }
            }
        }
    }

    /// Service-time models are consistent: uni-flow is never slower than
    /// bi-flow, and both grow with the window.
    #[test]
    fn service_models_are_ordered(cores in 1u32..128, w1 in 1usize..100_000, w2 in 1usize..100_000) {
        use joinhw::harness::{biflow_service_cycles, uniflow_service_cycles};
        let (small, large) = (w1.min(w2), w1.max(w2));
        prop_assert!(uniflow_service_cycles(large, cores) >= uniflow_service_cycles(small, cores));
        prop_assert!(biflow_service_cycles(large, cores) >= biflow_service_cycles(small, cores));
        prop_assert!(biflow_service_cycles(small, cores) >= uniflow_service_cycles(small, cores));
    }

    /// Hash designs cost at least as much as nested-loop designs.
    #[test]
    fn hash_costs_extra(cores in 1u32..32, window in 1usize..20_000) {
        let device = hwsim::devices::XC7VX485T;
        let nested = DesignParams::new(FlowModel::UniFlow, cores, window);
        let hashed = nested.with_algorithm(JoinAlgorithm::Hash);
        let rn = nested.resources(&device);
        let rh = hashed.resources(&device);
        prop_assert!(rh.luts >= rn.luts);
        prop_assert!(rh.bram18 >= rn.bram18);
    }
}
