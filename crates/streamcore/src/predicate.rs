//! Join predicates and algorithms shared by the hardware and software
//! join realizations.

use std::fmt;

use crate::{MatchPair, StreamTag, Tuple};

/// How a join core finds a probe's partners in the opposite window. The
/// paper's join core implements its operator "without posing any
/// limitation on the chosen join algorithm, e.g., nested-loop join or
/// hash join".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgorithm {
    /// Compare the probe against every stored tuple, oldest first — works
    /// for any [`JoinPredicate`]; the paper's measured configuration.
    NestedLoop,
    /// Visit only the stored tuples sharing the probe's key, oldest first,
    /// through a key index ([`HashIndexWindow`](crate::HashIndexWindow)) —
    /// restricted to [`JoinPredicate::Equi`] and costing index memory.
    Hash,
}

impl fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinAlgorithm::NestedLoop => write!(f, "nested-loop"),
            JoinAlgorithm::Hash => write!(f, "hash"),
        }
    }
}

/// The join condition evaluated between an R tuple and an S tuple.
///
/// The paper's experiments use an equi-join "though there is no limitation
/// on the condition(s) used"; the other variants exercise that freedom.
///
/// ```
/// use streamcore::{JoinPredicate, Tuple};
///
/// let r = Tuple::new(10, 0);
/// let s = Tuple::new(12, 0);
/// assert!(!JoinPredicate::Equi.matches(r, s));
/// assert!(JoinPredicate::Band { delta: 2 }.matches(r, s));
/// assert!(JoinPredicate::LessThan.matches(r, s));
/// assert!(JoinPredicate::All.matches(r, s));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinPredicate {
    /// Keys are equal: `r.key == s.key`.
    Equi,
    /// Band join: `|r.key - s.key| <= delta`.
    Band {
        /// Half-width of the band.
        delta: u32,
    },
    /// Inequality join: `r.key < s.key`.
    LessThan,
    /// Cross product: every pair matches (useful for calibration).
    All,
}

impl JoinPredicate {
    /// Evaluates the predicate on an (R, S) tuple pair.
    pub fn matches(&self, r: Tuple, s: Tuple) -> bool {
        self.matches_keys(r.key(), s.key())
    }

    /// Evaluates the predicate on the join keys alone.
    ///
    /// Every predicate in this vocabulary depends only on the keys, which
    /// lets struct-of-arrays window scans (see
    /// [`FlatWindow`](crate::FlatWindow)) walk the contiguous key array
    /// and touch payloads only for actual matches.
    #[inline]
    pub fn matches_keys(&self, r_key: u32, s_key: u32) -> bool {
        match *self {
            JoinPredicate::Equi => r_key == s_key,
            JoinPredicate::Band { delta } => r_key.abs_diff(s_key) <= delta,
            JoinPredicate::LessThan => r_key < s_key,
            JoinPredicate::All => true,
        }
    }

    /// Counts the stored keys matching a probe key in one sweep —
    /// semantically `keys.filter(|k| matches_keys(..)).count()` with the
    /// predicate dispatch hoisted out of the loop, so each arm is a
    /// branch-light scan the compiler can vectorize. `probe_is_r` gives
    /// the probe's stream side ([`JoinPredicate::LessThan`] is the only
    /// asymmetric predicate). This is the counting-only fast path of
    /// window scans: no per-match work, just the tally.
    #[inline]
    pub fn count_matches(&self, probe_key: u32, probe_is_r: bool, keys: &[u32]) -> usize {
        match *self {
            JoinPredicate::Equi => keys.iter().filter(|&&k| k == probe_key).count(),
            JoinPredicate::Band { delta } => keys
                .iter()
                .filter(|&&k| k.abs_diff(probe_key) <= delta)
                .count(),
            JoinPredicate::LessThan => {
                if probe_is_r {
                    keys.iter().filter(|&&k| probe_key < k).count()
                } else {
                    keys.iter().filter(|&&k| k < probe_key).count()
                }
            }
            JoinPredicate::All => keys.len(),
        }
    }

    /// The collecting form of [`JoinPredicate::count_matches`]: appends
    /// every stored tuple (`keys[i]`, `payloads[i]`) matching `probe`,
    /// which arrived on stream `tag`, to `out` as a
    /// [`MatchPair::oriented`] pair, oldest first, and returns how many
    /// it appended. A payload is read only for a key that matches.
    #[inline]
    pub fn emit_matches(
        &self,
        tag: StreamTag,
        probe: Tuple,
        keys: &[u32],
        payloads: &[u32],
        out: &mut Vec<MatchPair>,
    ) -> usize {
        let before = out.len();
        let p = probe.key();
        for (i, &k) in keys.iter().enumerate() {
            let hit = match tag {
                StreamTag::R => self.matches_keys(p, k),
                StreamTag::S => self.matches_keys(k, p),
            };
            if hit {
                out.push(MatchPair::oriented(tag, probe, Tuple::new(k, payloads[i])));
            }
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_matches_only_equal_keys() {
        assert!(JoinPredicate::Equi.matches(Tuple::new(5, 0), Tuple::new(5, 9)));
        assert!(!JoinPredicate::Equi.matches(Tuple::new(5, 0), Tuple::new(6, 0)));
    }

    #[test]
    fn band_is_symmetric_and_inclusive() {
        let p = JoinPredicate::Band { delta: 3 };
        assert!(p.matches(Tuple::new(10, 0), Tuple::new(13, 0)));
        assert!(p.matches(Tuple::new(13, 0), Tuple::new(10, 0)));
        assert!(!p.matches(Tuple::new(10, 0), Tuple::new(14, 0)));
    }

    #[test]
    fn less_than_is_directional() {
        assert!(JoinPredicate::LessThan.matches(Tuple::new(1, 0), Tuple::new(2, 0)));
        assert!(!JoinPredicate::LessThan.matches(Tuple::new(2, 0), Tuple::new(2, 0)));
    }

    #[test]
    fn all_matches_everything() {
        assert!(JoinPredicate::All.matches(Tuple::new(0, 0), Tuple::new(u32::MAX, 0)));
    }

    #[test]
    fn count_matches_agrees_with_per_key_evaluation() {
        // Pseudo-random keys around the probe so every predicate arm has
        // hits and misses on both orientations.
        let keys: Vec<u32> = (0u32..257)
            .map(|i| i.wrapping_mul(2_654_435_761) % 64)
            .collect();
        let probe = 31u32;
        for p in [
            JoinPredicate::Equi,
            JoinPredicate::Band { delta: 0 },
            JoinPredicate::Band { delta: 7 },
            JoinPredicate::LessThan,
            JoinPredicate::All,
        ] {
            for probe_is_r in [true, false] {
                let slow = keys
                    .iter()
                    .filter(|&&k| {
                        if probe_is_r {
                            p.matches_keys(probe, k)
                        } else {
                            p.matches_keys(k, probe)
                        }
                    })
                    .count();
                assert_eq!(
                    p.count_matches(probe, probe_is_r, &keys),
                    slow,
                    "{p:?} probe_is_r={probe_is_r}"
                );
            }
        }
    }
}
