//! Property-based tests of the simulation kernel and synthesis models.

use hwsim::{devices, estimate_fmax, Bram, Frequency, PowerModel, Resources, TimingProfile};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BRAM reads always return the most recent write per address, and
    /// the default for an address never written.
    #[test]
    fn bram_is_last_write_wins(ops in prop::collection::vec((0usize..16, any::<u64>()), 1..200)) {
        let mut bram: Bram<u64> = Bram::new(16);
        let mut model = [u64::default(); 16];
        for (addr, value) in ops {
            bram.begin_cycle();
            prop_assert_eq!(bram.write(addr, value), model[addr]);
            model[addr] = value;
            bram.begin_cycle();
            prop_assert_eq!(bram.read(addr), model[addr]);
        }
        for (addr, want) in model.iter().enumerate() {
            prop_assert_eq!(bram.peek(addr), *want);
        }
    }

    /// fmax estimation is monotone: more fan-out never speeds a design up
    /// beyond noise, and every estimate is positive and at most the base.
    #[test]
    fn fmax_is_bounded_and_fanout_monotone(levels in 1u32..12, a in 2u64..4096, b in 2u64..4096) {
        for device in devices::ALL {
            let (lo, hi) = (a.min(b), a.max(b));
            let f_lo = estimate_fmax(&device, &TimingProfile { max_fanout: lo, logic_levels: levels });
            let f_hi = estimate_fmax(&device, &TimingProfile { max_fanout: hi, logic_levels: levels });
            prop_assert!(f_lo.mhz() > 0.0);
            // Allow the deterministic heuristic-noise amplitude (±4 MHz)
            // plus the V5 16-core calibration bump (+9 MHz).
            prop_assert!(
                f_hi.mhz() <= f_lo.mhz() + 2.0 * 4.0 + 9.0,
                "{}: fanout {hi} gave {} vs fanout {lo} {}",
                device.name, f_hi, f_lo
            );
            prop_assert!(f_lo.mhz() <= device.base_fmax_mhz + 4.0 + 9.0);
        }
    }

    /// Resource arithmetic is associative/commutative and capacity checks
    /// agree with field-wise comparison.
    #[test]
    fn resource_vectors_behave(l1 in 0u64..10_000, f1 in 0u64..10_000, b1 in 0u64..100,
                               l2 in 0u64..10_000, f2 in 0u64..10_000, b2 in 0u64..100) {
        let a = Resources { luts: l1, ffs: f1, bram18: b1 };
        let b = Resources { luts: l2, ffs: f2, bram18: b2 };
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + a, a + (b + a));
        prop_assert_eq!(a * 3, a + a + a);
        let device = devices::XC5VLX50T;
        let fits = a.fits(&device);
        let expect = l1 <= device.luts && f1 <= device.ffs && b1 <= device.bram18;
        prop_assert_eq!(fits, expect);
    }

    /// Memory mapping never loses bits: the mapped resources can hold the
    /// requested memory.
    #[test]
    fn memory_mapping_covers_request(bits in 0u64..2_000_000, threshold in 1u64..100_000) {
        let r = Resources::for_memory_with(bits, threshold);
        let capacity_bits = r.luts * 32 + r.bram18 * 18 * 1024;
        prop_assert!(capacity_bits >= bits, "{bits} bits -> {r:?}");
    }

    /// Power reports scale linearly and are never negative.
    #[test]
    fn power_is_linear_in_frequency(luts in 0u64..100_000, mhz in 1.0f64..500.0) {
        let model = PowerModel::calibrated();
        let res = Resources { luts, ffs: luts / 2, bram18: luts / 100 };
        let p1 = model.report(&devices::XC7VX485T, res, Frequency::from_mhz(mhz), 1.0);
        let p2 = model.report(&devices::XC7VX485T, res, Frequency::from_mhz(2.0 * mhz), 1.0);
        prop_assert!(p1.dynamic_mw >= 0.0);
        prop_assert!((p2.dynamic_mw - 2.0 * p1.dynamic_mw).abs() < 1e-6);
    }
}
