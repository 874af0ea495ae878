//! Property-based equivalence battery for the blocked probe kernels.
//!
//! For every predicate, both probe orientations, and adversarial shapes
//! (empty windows, lengths with `len % 8 != 0`, tile-boundary sizes,
//! band edges at 0 / `u32::MAX`), the blocked counting and emitting
//! kernels must agree exactly with the scalar sweeps
//! ([`JoinPredicate::count_matches`]) and with a per-pair reference
//! evaluated one `(probe, key)` at a time.

use proptest::prelude::*;
use streamcore::kernel::{self, KernelStats};
use streamcore::JoinPredicate;

/// Join keys biased toward collisions (small domain) but salted with
/// the extremes where band arithmetic saturates.
fn arb_key() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..48,
        Just(0u32),
        Just(u32::MAX),
        Just(u32::MAX - 1),
        any::<u32>(),
    ]
}

fn arb_predicate() -> impl Strategy<Value = JoinPredicate> {
    prop_oneof![
        Just(JoinPredicate::Equi),
        Just(JoinPredicate::LessThan),
        Just(JoinPredicate::All),
        Just(JoinPredicate::Band { delta: 0 }),
        (0u32..16).prop_map(|delta| JoinPredicate::Band { delta }),
        Just(JoinPredicate::Band { delta: u32::MAX }),
    ]
}

/// The per-pair reference: every `(probe, key)` lane evaluated with the
/// scalar predicate on the keys in (R, S) order, collected as ordered
/// match coordinates.
fn reference_pairs(
    pred: JoinPredicate,
    probe_is_r: bool,
    probes: &[u32],
    keys: &[u32],
) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (pi, &p) in probes.iter().enumerate() {
        for (ki, &k) in keys.iter().enumerate() {
            let (r, s) = if probe_is_r { (p, k) } else { (k, p) };
            if pred.matches_keys(r, s) {
                pairs.push((pi, ki));
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `count_block` equals both the scalar sweep and the per-pair
    /// reference, for any shape.
    #[test]
    fn count_block_matches_scalar_and_reference(
        pred in arb_predicate(),
        probe_is_r in any::<bool>(),
        probes in prop::collection::vec(arb_key(), 0..40),
        keys in prop::collection::vec(arb_key(), 0..200),
    ) {
        let mut stats = KernelStats::default();
        let got = kernel::count_block(pred, probe_is_r, &probes, &keys, &mut stats);
        let scalar: u64 = probes
            .iter()
            .map(|&p| pred.count_matches(p, probe_is_r, &keys) as u64)
            .sum();
        prop_assert_eq!(got, scalar);
        let reference = reference_pairs(pred, probe_is_r, &probes, &keys);
        prop_assert_eq!(got, reference.len() as u64);
        prop_assert_eq!(stats.match_bits, got);
        if !probes.is_empty() {
            prop_assert_eq!(stats.lanes, (probes.len() * keys.len()) as u64);
        }
    }

    /// `emit_block` yields exactly the reference coordinate multiset,
    /// ascending per probe, and agrees with `count_block`.
    #[test]
    fn emit_block_matches_reference_pairs(
        pred in arb_predicate(),
        probe_is_r in any::<bool>(),
        probes in prop::collection::vec(arb_key(), 0..24),
        keys in prop::collection::vec(arb_key(), 0..150),
    ) {
        let mut cstats = KernelStats::default();
        let count = kernel::count_block(pred, probe_is_r, &probes, &keys, &mut cstats);
        let mut estats = KernelStats::default();
        let mut got = Vec::new();
        kernel::emit_block(pred, probe_is_r, &probes, &keys, &mut estats, |pi, ki| {
            got.push((pi, ki));
        });
        prop_assert_eq!(got.len() as u64, count);
        prop_assert_eq!(estats.match_bits, cstats.match_bits);
        // Per-probe key order must be ascending (the scalar path scans
        // the window oldest-first; downstream dedup relies on it).
        for w in got.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
        let mut reference = reference_pairs(pred, probe_is_r, &probes, &keys);
        got.sort_unstable();
        reference.sort_unstable();
        prop_assert_eq!(got, reference);
    }

    /// The `LessThan` orientation hoist is an exact reflection: swapping
    /// the probe side mirrors the lane value for every pair.
    #[test]
    fn less_than_orientation_mirrors(
        probes in prop::collection::vec(arb_key(), 1..20),
        keys in prop::collection::vec(arb_key(), 1..100),
    ) {
        let pred = JoinPredicate::LessThan;
        let mut s1 = KernelStats::default();
        let mut s2 = KernelStats::default();
        let as_r = kernel::count_block(pred, true, &probes, &keys, &mut s1);
        let as_s = kernel::count_block(pred, false, &probes, &keys, &mut s2);
        let strict_pairs = probes
            .iter()
            .flat_map(|&p| keys.iter().map(move |&k| (p, k)))
            .filter(|&(p, k)| p != k)
            .count() as u64;
        // p<k and k<p partition the non-equal pairs.
        prop_assert_eq!(as_r + as_s, strict_pairs);
    }
}

/// Band deltas at the saturation edges: `abs_diff` never wraps, so a
/// `u32::MAX` delta matches everything and a zero delta collapses to
/// equi — at both ends of the key space.
#[test]
fn band_edges_collapse_to_all_and_equi() {
    let probes = [0u32, 1, u32::MAX - 1, u32::MAX];
    let keys: Vec<u32> = (0..17)
        .map(|i| if i % 2 == 0 { i } else { u32::MAX - i })
        .collect();
    for probe_is_r in [true, false] {
        let mut s = KernelStats::default();
        let all = kernel::count_block(
            JoinPredicate::Band { delta: u32::MAX },
            probe_is_r,
            &probes,
            &keys,
            &mut s,
        );
        assert_eq!(all, (probes.len() * keys.len()) as u64);
        let mut s = KernelStats::default();
        let equi_band = kernel::count_block(
            JoinPredicate::Band { delta: 0 },
            probe_is_r,
            &probes,
            &keys,
            &mut s,
        );
        let mut s = KernelStats::default();
        let equi = kernel::count_block(JoinPredicate::Equi, probe_is_r, &probes, &keys, &mut s);
        assert_eq!(equi_band, equi);
    }
}
