//! Property-based tests of the software joins.

use joinsw::baseline::reference_join;
use joinsw::splitjoin::{JoinOutcome, SplitJoin, SplitJoinConfig};
use joinsw::{JoinParams, StreamJoin, DEFAULT_BATCH_SIZE};
use proptest::prelude::*;
use std::collections::HashMap;
use streamcore::{JoinPredicate, MatchPair, StreamTag, Tuple};

fn arb_inputs(max_len: usize, domain: u32) -> impl Strategy<Value = Vec<(StreamTag, Tuple)>> {
    prop::collection::vec(
        (any::<bool>(), 0..domain, any::<u32>()).prop_map(|(is_r, key, payload)| {
            let tag = if is_r { StreamTag::R } else { StreamTag::S };
            (tag, Tuple::new(key, payload))
        }),
        0..max_len,
    )
}

fn as_multiset(results: &[MatchPair]) -> HashMap<(u64, u64), u32> {
    let mut m = HashMap::new();
    for p in results {
        *m.entry((p.r.raw(), p.s.raw())).or_insert(0) += 1;
    }
    m
}

fn run(config: SplitJoinConfig, inputs: &[(StreamTag, Tuple)]) -> JoinOutcome {
    let join = SplitJoin::spawn(config);
    for &(tag, t) in inputs {
        join.process(tag, t).unwrap();
    }
    join.flush().unwrap();
    join.shutdown().unwrap()
}

/// Batch 1 is the per-tuple probe path, the default the blocked one.
const BATCHES: [usize; 2] = [1, DEFAULT_BATCH_SIZE];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SplitJoin agrees with the strict reference on arbitrary
    /// interleavings at every core count, on the per-tuple and the
    /// blocked probe path alike.
    #[test]
    fn splitjoin_algorithms_agree(inputs in arb_inputs(150, 6), cores in 1usize..4) {
        let window = 12usize;
        let effective = cores * window.div_ceil(cores);
        let want = as_multiset(&reference_join(&inputs, effective, JoinPredicate::Equi));

        for batch in BATCHES {
            let config = SplitJoinConfig::new(cores, window).with_batch_size(batch);
            prop_assert_eq!(
                as_multiset(&run(config, &inputs).results),
                want.clone(),
                "{} cores at batch {}",
                cores,
                batch
            );
        }
    }

    /// Worker accounting is conserved: every input is seen by every
    /// worker, stored exactly once across workers, and the per-worker
    /// match counts sum to the engine's result count.
    #[test]
    fn worker_accounting_is_conserved(inputs in arb_inputs(200, 8), cores in 1usize..5) {
        for batch in BATCHES {
            let outcome = run(SplitJoinConfig::new(cores, 16).with_batch_size(batch), &inputs);
            let n = inputs.len() as u64;
            let seen: u64 = outcome.worker_stats.iter().map(|w| w.tuples_seen).sum();
            let stored: u64 = outcome.worker_stats.iter().map(|w| w.stored).sum();
            let matches: u64 = outcome.worker_stats.iter().map(|w| w.matches).sum();
            prop_assert_eq!(seen, n * cores as u64);
            prop_assert_eq!(stored, n);
            prop_assert_eq!(matches, outcome.result_count);
            prop_assert_eq!(outcome.results.len() as u64, outcome.result_count);
        }
    }
}
