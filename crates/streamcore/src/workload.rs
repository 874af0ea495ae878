//! Reproducible stream workload generation.
//!
//! Experiments need interleaved R/S streams with controllable key
//! distributions: the key domain sets join selectivity (under uniform
//! keys a probe matches a window tuple with probability
//! `1 / key_domain`), while [`KeyDist::Zipf`] models the skewed feeds
//! that stress hash-partitioned dispatch. Arrival interleaving
//! ([`ArrivalPattern`]) and bounded out-of-order delivery
//! ([`WorkloadSpec::with_disorder`]) are controlled the same way.
//!
//! Generators are deterministic given a seed, so every realization of a
//! join — hardware simulation, broadcast SplitJoin, partitioned
//! SplitJoin, handshake chain — sees the identical tuple sequence and
//! their result multisets can be compared exactly. A workload feeds a
//! join through the fallible `StreamJoin` API (`process` /
//! `process_batch`, both `Result`-returning); the measurement loops in
//! `joinsw::harness` and the equivalence suites in
//! `tests/cross_impl_equivalence.rs` are the canonical consumers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{StreamTag, Tuple};

/// Distribution of join keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Keys uniform over `0..domain`.
    Uniform {
        /// Number of distinct keys.
        domain: u32,
    },
    /// Zipf-distributed keys over `0..domain` with exponent `s` — models
    /// skewed IoT feeds where a few sensors dominate.
    Zipf {
        /// Number of distinct keys.
        domain: u32,
        /// Skew exponent (0 = uniform, 1 = classic Zipf).
        s: f64,
    },
}

impl KeyDist {
    fn domain(&self) -> u32 {
        match *self {
            KeyDist::Uniform { domain } | KeyDist::Zipf { domain, .. } => domain,
        }
    }
}

/// How tuples are interleaved between the R and S streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// Strict alternation R, S, R, S… (the default; equal rates).
    Alternating,
    /// The origin of each tuple is drawn uniformly at random.
    RandomOrigin,
    /// Runs of `burst` consecutive tuples from the same stream, streams
    /// alternating between runs — models sensors that report in batches.
    Bursty {
        /// Length of each same-stream run.
        burst: usize,
    },
}

/// Specification of a two-stream workload.
///
/// # Example
///
/// ```
/// use streamcore::workload::{KeyDist, WorkloadSpec};
/// use streamcore::StreamTag;
///
/// let spec = WorkloadSpec::new(1_000, KeyDist::Uniform { domain: 64 });
/// let tuples: Vec<_> = spec.generate().collect();
/// assert_eq!(tuples.len(), 1_000);
/// // Alternating R/S by default: exactly half from each stream.
/// let r = tuples.iter().filter(|(tag, _)| *tag == StreamTag::R).count();
/// assert_eq!(r, 500);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Total number of tuples to generate (across both streams).
    pub tuples: usize,
    /// Key distribution.
    pub keys: KeyDist,
    /// RNG seed; equal seeds yield identical workloads.
    pub seed: u64,
    /// Stream interleaving.
    pub arrivals: ArrivalPattern,
    /// Out-of-order block size: tuples are emitted in a random order
    /// within consecutive blocks of this many tuples (`0` or `1` =
    /// strictly in order). See [`WorkloadSpec::with_disorder`].
    pub disorder: usize,
}

impl WorkloadSpec {
    /// Creates a spec with seed 42 and strict R/S alternation.
    pub fn new(tuples: usize, keys: KeyDist) -> Self {
        Self {
            tuples,
            keys,
            seed: 42,
            arrivals: ArrivalPattern::Alternating,
            disorder: 0,
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chooses random (rather than alternating) stream origins.
    pub fn with_random_origin(mut self) -> Self {
        self.arrivals = ArrivalPattern::RandomOrigin;
        self
    }

    /// Selects the arrival interleaving.
    ///
    /// # Panics
    ///
    /// Panics if a bursty pattern has a zero burst length.
    pub fn with_arrivals(mut self, arrivals: ArrivalPattern) -> Self {
        if let ArrivalPattern::Bursty { burst } = arrivals {
            assert!(burst > 0, "burst length must be positive");
        }
        self.arrivals = arrivals;
        self
    }

    /// Emits tuples out of order: each consecutive block of `block`
    /// tuples is shuffled (deterministically, from the spec's seed)
    /// before emission, so a tuple's displacement from its in-order
    /// position is bounded by `block - 1`. Payloads still carry the
    /// *generation* sequence number, so the disorder of a stream is
    /// observable downstream. `block <= 1` restores strict order.
    ///
    /// This models bounded network reordering between a sensor and the
    /// join: the same multiset of tuples, delivered within a bounded
    /// horizon of their true positions.
    pub fn with_disorder(mut self, block: usize) -> Self {
        self.disorder = block;
        self
    }

    /// Expected number of matches each probe finds in a full window of
    /// `window` tuples of the other stream (uniform keys only; a guide for
    /// sizing result buffers).
    pub fn expected_matches_per_probe(&self, window: usize) -> f64 {
        window as f64 / self.keys.domain() as f64
    }

    /// Returns the workload as an iterator of `(origin, tuple)` pairs.
    /// Payloads are sequence numbers, making every generated tuple unique
    /// and results traceable to their inputs.
    pub fn generate(&self) -> Generate {
        Generate {
            rng: StdRng::seed_from_u64(self.seed),
            zipf: match self.keys {
                KeyDist::Zipf { domain, s } => Some(ZipfSampler::new(domain, s)),
                KeyDist::Uniform { .. } => None,
            },
            keys: self.keys,
            remaining: self.tuples,
            seq: 0,
            arrivals: self.arrivals,
            disorder: self.disorder,
            // A separate RNG stream for shuffling keeps the generated
            // content byte-identical to the in-order workload: disorder
            // is purely a re-ordering.
            shuffle_rng: StdRng::seed_from_u64(self.seed ^ 0x5DEE_CE66_D5DE_ECE6),
            block: Vec::new(),
            block_pos: 0,
        }
    }
}

/// Iterator of workload tuples; created by [`WorkloadSpec::generate`].
#[derive(Debug, Clone)]
pub struct Generate {
    rng: StdRng,
    zipf: Option<ZipfSampler>,
    keys: KeyDist,
    remaining: usize,
    seq: u64,
    arrivals: ArrivalPattern,
    disorder: usize,
    shuffle_rng: StdRng,
    /// Shuffled block awaiting emission (disorder mode only).
    block: Vec<(StreamTag, Tuple)>,
    block_pos: usize,
}

impl Generate {
    /// Generates the next tuple in true arrival order.
    fn next_in_order(&mut self) -> Option<(StreamTag, Tuple)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let tag = match self.arrivals {
            ArrivalPattern::Alternating => {
                if self.seq.is_multiple_of(2) {
                    StreamTag::R
                } else {
                    StreamTag::S
                }
            }
            ArrivalPattern::RandomOrigin => {
                if self.rng.gen_bool(0.5) {
                    StreamTag::R
                } else {
                    StreamTag::S
                }
            }
            ArrivalPattern::Bursty { burst } => {
                if (self.seq as usize / burst).is_multiple_of(2) {
                    StreamTag::R
                } else {
                    StreamTag::S
                }
            }
        };
        let key = match self.keys {
            KeyDist::Uniform { domain } => self.rng.gen_range(0..domain),
            KeyDist::Zipf { .. } => {
                let z = self.zipf.as_mut().expect("zipf sampler present");
                z.sample(&mut self.rng)
            }
        };
        let t = Tuple::new(key, self.seq as u32);
        self.seq += 1;
        Some((tag, t))
    }
}

impl Iterator for Generate {
    type Item = (StreamTag, Tuple);

    fn next(&mut self) -> Option<Self::Item> {
        if self.disorder <= 1 {
            return self.next_in_order();
        }
        if self.block_pos == self.block.len() {
            // Refill: draw the next block in order, then Fisher–Yates
            // shuffle it with the dedicated (seeded) shuffle RNG.
            self.block.clear();
            self.block_pos = 0;
            for _ in 0..self.disorder {
                match self.next_in_order() {
                    Some(item) => self.block.push(item),
                    None => break,
                }
            }
            for i in (1..self.block.len()).rev() {
                let j = self.shuffle_rng.gen_range(0..i + 1);
                self.block.swap(i, j);
            }
        }
        let item = self.block.get(self.block_pos).copied();
        self.block_pos += 1;
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining + (self.block.len() - self.block_pos.min(self.block.len()));
        (n, Some(n))
    }
}

impl ExactSizeIterator for Generate {}

/// Inverse-CDF Zipf sampler over `0..domain`.
#[derive(Debug, Clone)]
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(domain: u32, s: f64) -> Self {
        assert!(domain > 0, "zipf domain must be positive");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(domain as usize);
        let mut acc = 0.0;
        for k in 1..=domain as u64 {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    fn sample<R: Rng>(&mut self, rng: &mut R) -> u32 {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => (i as u32).min(self.cdf.len() as u32 - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = WorkloadSpec::new(100, KeyDist::Uniform { domain: 10 }).with_seed(7);
        let a: Vec<_> = spec.generate().collect();
        let b: Vec<_> = spec.generate().collect();
        assert_eq!(a, b);
        let c: Vec<_> = spec.with_seed(8).generate().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn alternation_is_strict() {
        let spec = WorkloadSpec::new(10, KeyDist::Uniform { domain: 4 });
        let tags: Vec<_> = spec.generate().map(|(tag, _)| tag).collect();
        for (i, tag) in tags.iter().enumerate() {
            let expect = if i % 2 == 0 {
                StreamTag::R
            } else {
                StreamTag::S
            };
            assert_eq!(*tag, expect);
        }
    }

    #[test]
    fn payloads_are_sequence_numbers() {
        let spec = WorkloadSpec::new(5, KeyDist::Uniform { domain: 4 });
        let payloads: Vec<_> = spec.generate().map(|(_, t)| t.payload()).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn uniform_keys_stay_in_domain() {
        let spec = WorkloadSpec::new(1_000, KeyDist::Uniform { domain: 16 });
        assert!(spec.generate().all(|(_, t)| t.key() < 16));
    }

    #[test]
    fn uniform_selectivity_close_to_expectation() {
        // With domain 8, a probe against a 800-tuple window expects 100
        // matches.
        let spec = WorkloadSpec::new(10_000, KeyDist::Uniform { domain: 8 });
        assert!((spec.expected_matches_per_probe(800) - 100.0).abs() < 1e-9);
        // Empirically, key frequencies are near uniform.
        let mut counts = [0u32; 8];
        for (_, t) in spec.generate() {
            counts[t.key() as usize] += 1;
        }
        for c in counts {
            assert!((1_000..1_500).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn zipf_skews_towards_small_keys() {
        let spec = WorkloadSpec::new(
            10_000,
            KeyDist::Zipf {
                domain: 100,
                s: 1.2,
            },
        );
        let mut counts = vec![0u32; 100];
        for (_, t) in spec.generate() {
            counts[t.key() as usize] += 1;
        }
        assert!(
            counts[0] > 10 * counts[50].max(1),
            "zipf head {} should dominate tail {}",
            counts[0],
            counts[50]
        );
    }

    #[test]
    fn zipf_with_zero_exponent_is_uniformish() {
        let spec = WorkloadSpec::new(8_000, KeyDist::Zipf { domain: 8, s: 0.0 });
        let mut counts = [0u32; 8];
        for (_, t) in spec.generate() {
            counts[t.key() as usize] += 1;
        }
        for c in counts {
            assert!((800..1_200).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn random_origin_mixes_streams() {
        let spec = WorkloadSpec::new(2_000, KeyDist::Uniform { domain: 4 }).with_random_origin();
        let r = spec
            .generate()
            .filter(|(tag, _)| *tag == StreamTag::R)
            .count();
        assert!((800..1_200).contains(&r), "origin split {r} too skewed");
    }

    #[test]
    fn bursty_arrivals_alternate_runs() {
        let spec = WorkloadSpec::new(12, KeyDist::Uniform { domain: 4 })
            .with_arrivals(ArrivalPattern::Bursty { burst: 3 });
        let tags: Vec<_> = spec.generate().map(|(tag, _)| tag).collect();
        use StreamTag::{R, S};
        assert_eq!(tags, vec![R, R, R, S, S, S, R, R, R, S, S, S]);
    }

    #[test]
    #[should_panic(expected = "burst length must be positive")]
    fn zero_burst_rejected() {
        let _ = WorkloadSpec::new(4, KeyDist::Uniform { domain: 2 })
            .with_arrivals(ArrivalPattern::Bursty { burst: 0 });
    }

    #[test]
    fn exact_size_iterator() {
        let spec = WorkloadSpec::new(17, KeyDist::Uniform { domain: 2 });
        let mut it = spec.generate();
        assert_eq!(it.len(), 17);
        it.next();
        assert_eq!(it.len(), 16);
    }

    #[test]
    fn disorder_is_a_permutation_with_bounded_displacement() {
        let ordered = WorkloadSpec::new(1_000, KeyDist::Uniform { domain: 8 });
        let disordered = ordered.clone().with_disorder(16);
        let base: Vec<_> = ordered.generate().collect();
        let got: Vec<_> = disordered.generate().collect();
        assert_eq!(got.len(), base.len());
        // Same multiset of (tag, tuple) pairs…
        let mut a = base.clone();
        let mut b = got.clone();
        a.sort_unstable_by_key(|(_, t)| t.payload());
        b.sort_unstable_by_key(|(_, t)| t.payload());
        assert_eq!(a, b);
        // …and every tuple lands within its shuffle block: displacement
        // from the in-order position is bounded by block - 1.
        let mut shuffled = 0;
        for (pos, (_, t)) in got.iter().enumerate() {
            let home = t.payload() as usize;
            assert!(pos.abs_diff(home) < 16, "tuple {home} displaced to {pos}");
            if pos != home {
                shuffled += 1;
            }
        }
        assert!(shuffled > 100, "only {shuffled} of 1000 tuples moved");
    }

    #[test]
    fn disorder_is_deterministic_and_exact_size() {
        let spec = WorkloadSpec::new(100, KeyDist::Uniform { domain: 4 })
            .with_seed(9)
            .with_disorder(7);
        let a: Vec<_> = spec.generate().collect();
        let b: Vec<_> = spec.generate().collect();
        assert_eq!(a, b);
        let mut it = spec.generate();
        assert_eq!(it.size_hint(), (100, Some(100)));
        it.next();
        assert_eq!(it.size_hint(), (99, Some(99)));
    }

    #[test]
    fn disorder_of_one_is_in_order() {
        let spec = WorkloadSpec::new(50, KeyDist::Uniform { domain: 4 });
        let base: Vec<_> = spec.generate().collect();
        let same: Vec<_> = spec.clone().with_disorder(1).generate().collect();
        assert_eq!(base, same);
    }
}
