//! Randomized cross-checks of the flat window backends against the
//! `VecDeque` reference backend.
//!
//! `FlatWindow` and `HashIndexWindow` must implement exactly the
//! count-based sliding semantics of `SlidingWindow<Tuple>` — same
//! contents, same expiry order, same probe results — on arbitrary
//! interleavings of inserts, expiries (inserting past capacity), and
//! probes. These properties are what lets the software joins swap their
//! storage backend without moving any correctness contract.

use proptest::prelude::*;
use streamcore::{
    FlatWindow, HashIndexWindow, JoinPredicate, MatchPair, SlidingWindow, StreamTag, Tuple,
};

/// The reference probe: scan the whole reference window, oldest first,
/// with `probe` on its own side of each pair.
fn reference_probe(
    w: &SlidingWindow<Tuple>,
    pred: JoinPredicate,
    tag: StreamTag,
    probe: Tuple,
) -> Vec<MatchPair> {
    w.iter()
        .map(|&stored| MatchPair::oriented(tag, probe, stored))
        .filter(|pair| pred.matches(pair.r, pair.s))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NestedLoop backend: after every insert in a randomized sequence,
    /// the flat window holds exactly the reference contents in the same
    /// order, reports the same expiry, and scans to the same probe hits.
    #[test]
    fn flat_window_matches_reference(
        cap in 1usize..48,
        keys in prop::collection::vec(0u32..24, 0..220),
    ) {
        let mut flat = FlatWindow::new(cap);
        let mut reference: SlidingWindow<Tuple> = SlidingWindow::new(cap);
        for (i, &key) in keys.iter().enumerate() {
            let t = Tuple::new(key, i as u32);
            // Probe before insert (Kang's ordering), for every predicate,
            // from either stream, collecting and counting-only.
            for pred in [
                JoinPredicate::Equi,
                JoinPredicate::Band { delta: 2 },
                JoinPredicate::LessThan,
                JoinPredicate::All,
            ] {
                for tag in [StreamTag::R, StreamTag::S] {
                    let want = reference_probe(&reference, pred, tag, t);
                    let mut got = Vec::new();
                    prop_assert_eq!(flat.probe(pred, tag, t, Some(&mut got)), want.len());
                    prop_assert_eq!(
                        &got, &want,
                        "{:?} probe from {:?} diverged at step {} (cap {})", pred, tag, i, cap
                    );
                    prop_assert_eq!(flat.probe(pred, tag, t, None), want.len());
                }
            }
            let expired_flat = flat.insert(t);
            let expired_ref = reference.insert(t);
            prop_assert_eq!(expired_flat, expired_ref, "expiry diverged at step {}", i);
            prop_assert_eq!(flat.len(), reference.len());
            let got: Vec<Tuple> = flat.iter().collect();
            let want: Vec<Tuple> = reference.iter().copied().collect();
            prop_assert_eq!(got, want, "contents diverged at step {}", i);
        }
    }

    /// Hash backend: same cross-check, with `probe()` compared against
    /// the reference equi-scan (including hit order: oldest first).
    #[test]
    fn hash_index_window_matches_reference(
        cap in 1usize..48,
        keys in prop::collection::vec(0u32..16, 0..260),
    ) {
        let mut hash = HashIndexWindow::new(cap);
        let mut reference: SlidingWindow<Tuple> = SlidingWindow::new(cap);
        for (i, &key) in keys.iter().enumerate() {
            let t = Tuple::new(key, i as u32);
            let got: Vec<Tuple> = hash.probe(t.key()).collect();
            let want: Vec<Tuple> = reference_probe(&reference, JoinPredicate::Equi, StreamTag::R, t)
                .into_iter()
                .map(|pair| pair.s)
                .collect();
            prop_assert_eq!(got, want, "probe diverged at step {} (cap {})", i, cap);
            // Probing keys absent from the window finds nothing.
            prop_assert_eq!(hash.probe(1 << 30).count(), 0);
            let expired_hash = hash.insert(t);
            let expired_ref = reference.insert(t);
            prop_assert_eq!(expired_hash, expired_ref, "expiry diverged at step {}", i);
            prop_assert_eq!(hash.len(), reference.len());
            let contents: Vec<Tuple> = hash.iter().collect();
            let want_contents: Vec<Tuple> = reference.iter().copied().collect();
            prop_assert_eq!(contents, want_contents, "contents diverged at step {}", i);
        }
    }

    /// The hash index stays exact across many wrap-arounds of a tiny
    /// ring, where tombstone pressure and chain relinking are heaviest.
    #[test]
    fn hash_index_survives_heavy_churn(
        cap in 1usize..6,
        keys in prop::collection::vec(0u32..4, 100..400),
    ) {
        let mut hash = HashIndexWindow::new(cap);
        let mut reference: SlidingWindow<Tuple> = SlidingWindow::new(cap);
        for (i, &key) in keys.iter().enumerate() {
            let t = Tuple::new(key, i as u32);
            hash.insert(t);
            reference.insert(t);
        }
        for key in 0u32..4 {
            let got: Vec<Tuple> = hash.probe(key).collect();
            let want: Vec<Tuple> = reference
                .iter()
                .copied()
                .filter(|s| s.key() == key)
                .collect();
            prop_assert_eq!(got, want, "churned probe diverged for key {}", key);
        }
    }
}

#[test]
fn clear_resets_both_backends() {
    let mut flat = FlatWindow::new(4);
    let mut hash = HashIndexWindow::new(4);
    for i in 0..9u32 {
        flat.insert(Tuple::new(i % 3, i));
        hash.insert(Tuple::new(i % 3, i));
    }
    flat.clear();
    hash.clear();
    assert!(flat.is_empty());
    assert!(hash.is_empty());
    assert_eq!(hash.probe(0).count(), 0);
    flat.insert(Tuple::new(9, 9));
    hash.insert(Tuple::new(9, 9));
    assert_eq!(flat.iter().collect::<Vec<_>>(), vec![Tuple::new(9, 9)]);
    assert_eq!(hash.probe(9).collect::<Vec<_>>(), vec![Tuple::new(9, 9)]);
}
