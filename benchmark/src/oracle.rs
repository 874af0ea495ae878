//! The reference the ledger checks every software workload against: a
//! sliding-window equi join over a hash multimap plus naive
//! filter / project / tumbling-sum evaluation of the fleet templates.
//! It shares no code with any engine under test; the tests below
//! cross-check it against `joinsw::baseline::reference_join`.

use std::collections::{BTreeMap, HashMap, VecDeque};

use streamcore::{MatchPair, StreamTag, Tuple};

use crate::spec::Template;

/// What one standing query received and produced.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Records fanned into the query (join matches, or arrivals for the
    /// aggregate).
    pub matches_in: u64,
    /// Rows it emitted.
    pub rows: u64,
    /// Rows folded into `row_hash_sum`.
    pub hashed_rows: u64,
    /// Order-independent sum of [`row_hash`] over the hashed rows.
    pub row_hash_sum: u64,
}

impl Tally {
    pub fn hash_row(&mut self, row: &[u64]) {
        self.hashed_rows += 1;
        self.row_hash_sum = self.row_hash_sum.wrapping_add(row_hash(row));
    }
}

/// A 64-bit hash of one output row (splitmix64 finalizer per field).
pub fn row_hash(row: &[u64]) -> u64 {
    let mut h = row.len() as u64;
    for &v in row {
        let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// The last `window` tuples of one stream, indexed by key. Tuples of one
/// key expire in arrival order, so each key's deque is a FIFO.
struct Side {
    order: VecDeque<Tuple>,
    by_key: HashMap<u32, VecDeque<u32>>,
}

impl Side {
    fn insert(&mut self, tuple: Tuple, window: usize) {
        self.order.push_back(tuple);
        self.by_key
            .entry(tuple.key())
            .or_default()
            .push_back(tuple.payload());
        if self.order.len() > window {
            let old = self.order.pop_front().expect("non-empty");
            let chain = self.by_key.get_mut(&old.key()).expect("indexed on insert");
            chain.pop_front();
            if chain.is_empty() {
                self.by_key.remove(&old.key());
            }
        }
    }
}

/// Count-based sliding-window equi join: an arrival probes the opposite
/// stream's last `window` tuples, then enters its own window.
pub struct WindowJoin {
    window: usize,
    r: Side,
    s: Side,
}

impl WindowJoin {
    pub fn new(window: usize) -> Self {
        let side = || Side {
            order: VecDeque::new(),
            by_key: HashMap::new(),
        };
        Self {
            window,
            r: side(),
            s: side(),
        }
    }

    /// Appends the matches of one arrival to `out`.
    pub fn arrive(&mut self, tag: StreamTag, tuple: Tuple, out: &mut Vec<MatchPair>) {
        let (own, other) = match tag {
            StreamTag::R => (&mut self.r, &self.s),
            StreamTag::S => (&mut self.s, &self.r),
        };
        if let Some(chain) = other.by_key.get(&tuple.key()) {
            out.extend(
                chain.iter().map(|&payload| {
                    MatchPair::oriented(tag, tuple, Tuple::new(tuple.key(), payload))
                }),
            );
        }
        own.insert(tuple, self.window);
    }
}

struct Live {
    id: usize,
    template: Template,
    tally: Tally,
    /// Tumbling-sum state: the running sum and how many values it holds.
    sum: u64,
    filled: usize,
}

impl Live {
    fn emit(&mut self, row: &[u64], hash: bool) {
        self.tally.rows += 1;
        if hash {
            self.tally.hash_row(row);
        }
    }

    /// One joined record `(sym, qty, sym, px)`.
    fn on_match(&mut self, m: &MatchPair, hash: bool) {
        if matches!(self.template, Template::QtySum { .. }) {
            return;
        }
        self.tally.matches_in += 1;
        let (sym, qty, px) = (m.r.key() as u64, m.r.payload() as u64, m.s.payload() as u64);
        match self.template {
            Template::AllPairs => self.emit(&[sym, qty, sym, px], hash),
            Template::BigQty { min } if qty > min => self.emit(&[sym, qty, sym, px], hash),
            Template::PxView { min } if px > min => self.emit(&[qty, px], hash),
            Template::SymOnly => self.emit(&[sym, px], hash),
            Template::BigQty { .. } | Template::PxView { .. } | Template::QtySum { .. } => {}
        }
    }

    fn on_trade(&mut self, trade: Tuple, hash: bool) {
        let Template::QtySum { window } = self.template else {
            return;
        };
        self.tally.matches_in += 1;
        self.sum += trade.payload() as u64;
        self.filled += 1;
        if self.filled == window {
            let row = [self.sum];
            self.emit(&row, hash);
            self.sum = 0;
            self.filled = 0;
        }
    }
}

/// The whole query layer, naively: a window join and the standing
/// queries that are live. A query sees exactly the matches whose later
/// tuple arrives while it is admitted.
pub struct Oracle {
    join: WindowJoin,
    live: Vec<Live>,
    closed: BTreeMap<usize, Tally>,
    matches: Vec<MatchPair>,
}

impl Oracle {
    pub fn new(window: usize) -> Self {
        Self {
            join: WindowJoin::new(window),
            live: Vec::new(),
            closed: BTreeMap::new(),
            matches: Vec::new(),
        }
    }

    pub fn admit(&mut self, id: usize, template: Template) {
        self.live.push(Live {
            id,
            template,
            tally: Tally::default(),
            sum: 0,
            filled: 0,
        });
    }

    pub fn cancel(&mut self, id: usize) {
        let at = self
            .live
            .iter()
            .position(|q| q.id == id)
            .expect("cancel of a live query");
        let q = self.live.remove(at);
        self.closed.insert(q.id, q.tally);
    }

    /// One arrival; rows it produces are hashed when `hash_rows`.
    pub fn arrive(&mut self, tag: StreamTag, tuple: Tuple, hash_rows: bool) {
        self.matches.clear();
        self.join.arrive(tag, tuple, &mut self.matches);
        for q in &mut self.live {
            for m in &self.matches {
                q.on_match(m, hash_rows);
            }
            if tag == StreamTag::R {
                q.on_trade(tuple, hash_rows);
            }
        }
    }

    /// Every query's tally, by id.
    pub fn finish(mut self) -> BTreeMap<usize, Tally> {
        for q in self.live {
            self.closed.insert(q.id, q.tally);
        }
        self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Stream;
    use joinsw::baseline::reference_join;
    use streamcore::workload::KeyDist;
    use streamcore::JoinPredicate;

    fn sorted(mut pairs: Vec<MatchPair>) -> Vec<(u64, u64)> {
        let mut keyed: Vec<(u64, u64)> = pairs.drain(..).map(|m| (m.r.raw(), m.s.raw())).collect();
        keyed.sort_unstable();
        keyed
    }

    #[test]
    fn window_join_equals_the_nested_loop_reference() {
        for (keys, window) in [
            (KeyDist::Zipf { domain: 16, s: 1.0 }, 32),
            (KeyDist::Zipf { domain: 64, s: 1.0 }, 7),
            (KeyDist::Uniform { domain: 8 }, 1),
            (KeyDist::Uniform { domain: 200 }, 128),
        ] {
            for seed in [1, 7, 42] {
                let inputs = Stream::new(keys, seed).take(3_000).to_vec();
                let mut join = WindowJoin::new(window);
                let mut got = Vec::new();
                for &(tag, t) in &inputs {
                    join.arrive(tag, t, &mut got);
                }
                let want = reference_join(&inputs, window, JoinPredicate::Equi);
                assert!(!want.is_empty());
                assert_eq!(
                    sorted(got),
                    sorted(want),
                    "{keys:?} window {window} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn templates_filter_project_and_sum_the_reference_matches() {
        let window = 16;
        let inputs = Stream::new(KeyDist::Zipf { domain: 8, s: 1.0 }, 3)
            .take(2_000)
            .to_vec();
        let (big, px) = (
            Template::BigQty { min: 1 << 31 },
            Template::PxView { min: 1 << 30 },
        );
        let mut oracle = Oracle::new(window);
        for (id, t) in [
            Template::AllPairs,
            big,
            px,
            Template::SymOnly,
            Template::QtySum { window: 10 },
        ]
        .into_iter()
        .enumerate()
        {
            oracle.admit(id, t);
        }
        for &(tag, t) in &inputs {
            oracle.arrive(tag, t, true);
        }
        let tallies = oracle.finish();

        let matches = reference_join(&inputs, window, JoinPredicate::Equi);
        let n = matches.len() as u64;
        let mut want = [Tally::default(); 4];
        for m in &matches {
            let (sym, qty, px) = (m.r.key() as u64, m.r.payload() as u64, m.s.payload() as u64);
            want[0].hash_row(&[sym, qty, sym, px]);
            if qty > 1 << 31 {
                want[1].hash_row(&[sym, qty, sym, px]);
            }
            if px > 1 << 30 {
                want[2].hash_row(&[qty, px]);
            }
            want[3].hash_row(&[sym, px]);
        }
        for (id, w) in want.iter().enumerate() {
            let got = tallies[&id];
            assert_eq!(got.matches_in, n);
            assert_eq!(
                (got.rows, got.hashed_rows, got.row_hash_sum),
                (w.hashed_rows, w.hashed_rows, w.row_hash_sum)
            );
        }
        assert!(
            want[1].hashed_rows > 0 && want[1].hashed_rows < n,
            "the filter selects a strict subset"
        );

        let trades: Vec<u64> = inputs
            .iter()
            .filter(|(tag, _)| *tag == StreamTag::R)
            .map(|(_, t)| t.payload() as u64)
            .collect();
        let mut sums = Tally::default();
        for chunk in trades.chunks_exact(10) {
            sums.hash_row(&[chunk.iter().sum()]);
        }
        let got = tallies[&4];
        assert_eq!(got.matches_in, trades.len() as u64);
        assert_eq!(
            (got.rows, got.row_hash_sum),
            (sums.hashed_rows, sums.row_hash_sum)
        );
    }

    #[test]
    fn a_churned_query_sees_matches_of_arrivals_between_admit_and_cancel() {
        let window = 8;
        let inputs = Stream::new(KeyDist::Uniform { domain: 4 }, 9)
            .take(400)
            .to_vec();
        let (admit, cancel) = (100, 250);
        let mut oracle = Oracle::new(window);
        for (i, &(tag, t)) in inputs.iter().enumerate() {
            if i == admit {
                oracle.admit(0, Template::AllPairs);
            }
            if i == cancel {
                oracle.cancel(0);
            }
            oracle.arrive(tag, t, false);
        }
        // The reference emits matches in arrival order of their later
        // tuple, so the visible ones are a contiguous run of its output.
        let upto =
            |n: usize| reference_join(&inputs[..n], window, JoinPredicate::Equi).len() as u64;
        assert_eq!(oracle.finish()[&0].matches_in, upto(cancel) - upto(admit));
    }
}
