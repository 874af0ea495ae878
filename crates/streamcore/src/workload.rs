//! Reproducible stream workload generation.
//!
//! Experiments need interleaved R/S streams with controllable key
//! distributions: the key domain sets join selectivity (under uniform
//! keys a probe matches a window tuple with probability
//! `1 / key_domain`), while [`KeyDist::Zipf`] models skewed feeds.
//! Arrival interleaving ([`ArrivalPattern`]) is controlled the same way.
//!
//! Generators are deterministic given a seed, so every realization of a
//! join — hardware simulation, SplitJoin, handshake chain — sees the
//! identical tuple sequence and their result multisets can be compared
//! exactly. A workload feeds a
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
}

impl WorkloadSpec {
    /// Creates a spec with seed 42 and strict R/S alternation.
    pub fn new(tuples: usize, keys: KeyDist) -> Self {
        Self {
            tuples,
            keys,
            seed: 42,
            arrivals: ArrivalPattern::Alternating,
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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

    /// Returns the workload as an iterator of `(origin, tuple)` pairs.
    /// Payloads are sequence numbers, making every generated tuple unique
    /// and results traceable to their inputs.
    pub fn generate(&self) -> Generate {
        Generate {
            rng: StdRng::seed_from_u64(self.seed),
            keys: match self.keys {
                KeyDist::Uniform { domain } => KeySampler::Uniform(domain),
                KeyDist::Zipf { domain, s } => KeySampler::Zipf(ZipfSampler::new(domain, s)),
            },
            remaining: self.tuples,
            seq: 0,
            arrivals: self.arrivals,
        }
    }
}

/// Iterator of workload tuples; created by [`WorkloadSpec::generate`].
#[derive(Debug, Clone)]
pub struct Generate {
    rng: StdRng,
    keys: KeySampler,
    remaining: usize,
    seq: u64,
    arrivals: ArrivalPattern,
}

/// Where a [`Generate`] draws its keys from: a [`KeyDist`] with the Zipf
/// CDF built once, up front.
#[derive(Debug, Clone)]
enum KeySampler {
    Uniform(u32),
    Zipf(ZipfSampler),
}

impl Iterator for Generate {
    type Item = (StreamTag, Tuple);

    fn next(&mut self) -> Option<Self::Item> {
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
        let key = match &self.keys {
            KeySampler::Uniform(domain) => self.rng.gen_range(0..*domain),
            KeySampler::Zipf(z) => z.sample(&mut self.rng),
        };
        let t = Tuple::new(key, self.seq as u32);
        self.seq += 1;
        Some((tag, t))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
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

    fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
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
        let spec = WorkloadSpec::new(10_000, KeyDist::Uniform { domain: 8 });
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
        let spec = WorkloadSpec::new(2_000, KeyDist::Uniform { domain: 4 })
            .with_arrivals(ArrivalPattern::RandomOrigin);
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
    fn generated_streams_are_pinned() {
        // Literal draws: a change to how keys or origins are sampled
        // changes every workload the figures, golden pins and ledger use.
        let keys =
            |spec: WorkloadSpec| -> Vec<u32> { spec.generate().map(|(_, t)| t.key()).collect() };
        assert_eq!(
            keys(WorkloadSpec::new(6, KeyDist::Uniform { domain: 1 << 20 })),
            [853_860, 334_308, 1_031_687, 735_193, 832_049, 616_665]
        );
        assert_eq!(
            keys(WorkloadSpec::new(12, KeyDist::Zipf { domain: 64, s: 1.0 }).with_seed(7)),
            [0, 0, 16, 3, 53, 4, 16, 2, 58, 0, 0, 0]
        );
        let mixed: Vec<_> = WorkloadSpec::new(8, KeyDist::Uniform { domain: 16 })
            .with_arrivals(ArrivalPattern::RandomOrigin)
            .generate()
            .map(|(tag, t)| (tag, t.key()))
            .collect();
        use StreamTag::{R, S};
        assert_eq!(
            mixed,
            [
                (S, 5),
                (S, 11),
                (S, 9),
                (R, 9),
                (R, 14),
                (S, 13),
                (S, 1),
                (R, 8)
            ]
        );
    }
}
