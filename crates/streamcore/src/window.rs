//! Count-based sliding windows.
//!
//! Two storage backends implement the same count-based semantics:
//!
//! * [`SlidingWindow`] — the generic `VecDeque` reference backend. The
//!   flat backends are validated against it, and it holds the Flexible
//!   Query Processor's [`Record`](crate::Record) windows.
//! * [`FlatWindow`] / [`HashIndexWindow`] — flat ring buffers over
//!   [`Tuple`]s, one per [`JoinAlgorithm`](crate::JoinAlgorithm).
//!   `FlatWindow` stores keys and payloads in separate contiguous arrays
//!   (struct-of-arrays), so a nested-loop probe is a linear scan of a
//!   dense `u32` array; the SplitJoin workers, the baseline join and the
//!   handshake chain all scan it. `HashIndexWindow` adds an
//!   open-addressing equi-join index over the same ring; the hardware
//!   design's hash cores store through it. Both are cross-checked against
//!   `SlidingWindow` by randomized property tests
//!   (`tests/window_backends.rs`).

use std::collections::VecDeque;

use crate::Tuple;

/// A count-based sliding window of capacity `W`.
///
/// Inserting into a full window expires the oldest element — the semantics
/// the paper inherits from Kang's three-step procedure: a new tuple is
/// (1) probed against the other stream's window, (2) inserted into its own
/// window, (3) the oldest tuple is expired.
///
/// # Example
///
/// ```
/// use streamcore::SlidingWindow;
///
/// let mut w = SlidingWindow::new(2);
/// assert_eq!(w.insert(1), None);
/// assert_eq!(w.insert(2), None);
/// assert_eq!(w.insert(3), Some(1)); // capacity reached: 1 expires
/// assert_eq!(w.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlidingWindow<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> SlidingWindow<T> {
    /// Creates an empty window of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be at least 1");
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of tuples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of tuples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the window holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` once the window has filled to capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Inserts `value`, returning the expired oldest element if the window
    /// was full.
    pub fn insert(&mut self, value: T) -> Option<T> {
        let expired = if self.is_full() {
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(value);
        expired
    }

    /// Iterates from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// The most recently inserted element.
    pub fn newest(&self) -> Option<&T> {
        self.items.back()
    }

    /// The oldest retained element (the next to expire).
    pub fn oldest(&self) -> Option<&T> {
        self.items.front()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl<'a, T> IntoIterator for &'a SlidingWindow<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T> Extend<T> for SlidingWindow<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// A count-based sliding window of [`Tuple`]s stored as a flat
/// struct-of-arrays ring buffer.
///
/// Semantics are identical to [`SlidingWindow`]`<Tuple>` — inserting into
/// a full window expires the oldest tuple — but the storage layout is
/// built for the nested-loop probe of the software joins: all join keys
/// live in one contiguous `u32` array (and all payloads in another), so a
/// window scan streams through dense cache lines instead of chasing
/// 64-bit tuples interleaved with `VecDeque` bookkeeping. Payloads are
/// only touched when a key satisfies the predicate (see
/// [`JoinPredicate::matches_keys`](crate::JoinPredicate::matches_keys)).
///
/// # Example
///
/// ```
/// use streamcore::{FlatWindow, Tuple};
///
/// let mut w = FlatWindow::new(2);
/// assert_eq!(w.insert(Tuple::new(1, 10)), None);
/// assert_eq!(w.insert(Tuple::new(2, 20)), None);
/// // Capacity reached: the oldest tuple expires.
/// assert_eq!(w.insert(Tuple::new(3, 30)), Some(Tuple::new(1, 10)));
/// let keys: Vec<u32> = w.iter().map(|t| t.key()).collect();
/// assert_eq!(keys, vec![2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatWindow {
    keys: Box<[u32]>,
    payloads: Box<[u32]>,
    /// Index of the oldest element.
    head: usize,
    len: usize,
}

impl FlatWindow {
    /// Creates an empty window of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be at least 1");
        Self {
            keys: vec![0; capacity].into_boxed_slice(),
            payloads: vec![0; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of tuples retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Current number of tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the window holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` once the window has filled to capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// Inserts `value`, returning the expired oldest tuple if the window
    /// was full.
    pub fn insert(&mut self, value: Tuple) -> Option<Tuple> {
        let cap = self.capacity();
        if self.len == cap {
            // Full: the head slot is both the expiring tuple and the
            // write position for the new one.
            let old = Tuple::new(self.keys[self.head], self.payloads[self.head]);
            self.keys[self.head] = value.key();
            self.payloads[self.head] = value.payload();
            self.head = (self.head + 1) % cap;
            Some(old)
        } else {
            let slot = (self.head + self.len) % cap;
            self.keys[slot] = value.key();
            self.payloads[slot] = value.payload();
            self.len += 1;
            None
        }
    }

    /// The window contents as up to two contiguous `(keys, payloads)`
    /// runs, oldest run first — the shape the nested-loop probe consumes.
    /// Within each run, `keys[i]` and `payloads[i]` belong to the same
    /// tuple; an empty second run means the ring has not wrapped.
    #[must_use]
    pub fn segments(&self) -> [(&[u32], &[u32]); 2] {
        let cap = self.capacity();
        if self.head + self.len <= cap {
            let r = self.head..self.head + self.len;
            [(&self.keys[r.clone()], &self.payloads[r]), (&[], &[])]
        } else {
            let wrap = self.head + self.len - cap;
            [
                (&self.keys[self.head..], &self.payloads[self.head..]),
                (&self.keys[..wrap], &self.payloads[..wrap]),
            ]
        }
    }

    /// Copies the window contents, oldest first, into contiguous
    /// scratch vectors (cleared first). Payloads are copied only when
    /// `with_payloads` — the counting path of the blocked probe kernels
    /// ([`kernel`](crate::kernel)) never touches them. Index `i` of the
    /// snapshot is the window's `i`-th oldest tuple, so per-probe
    /// expiry can be expressed as an index range over the snapshot.
    pub fn snapshot_into(&self, keys: &mut Vec<u32>, payloads: &mut Vec<u32>, with_payloads: bool) {
        keys.clear();
        payloads.clear();
        for (k, p) in self.segments() {
            keys.extend_from_slice(k);
            if with_payloads {
                payloads.extend_from_slice(p);
            }
        }
    }

    /// Iterates from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        let [(k1, p1), (k2, p2)] = self.segments();
        k1.iter()
            .zip(p1)
            .chain(k2.iter().zip(p2))
            .map(|(&k, &p)| Tuple::new(k, p))
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

const NIL: u32 = u32::MAX;

/// Open-addressing table entry state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Empty,
    Tombstone,
    Occupied,
}

/// One open-addressing table entry: a key and its FIFO chain of ring
/// slots (oldest first).
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    state: SlotState,
    key: u32,
    first: u32,
    last: u32,
}

impl IndexEntry {
    const EMPTY: IndexEntry = IndexEntry {
        state: SlotState::Empty,
        key: 0,
        first: NIL,
        last: NIL,
    };
}

/// A count-based sliding window of [`Tuple`]s with an open-addressing
/// equi-join index over a flat ring buffer.
///
/// Storage is the same struct-of-arrays ring as [`FlatWindow`], plus a
/// per-slot `next` link threading all tuples that share a join key into
/// an insertion-ordered chain, and an open-addressing hash table mapping
/// each live key to its chain. [`HashIndexWindow::probe`] therefore
/// visits exactly the stored tuples equal to the probe key, oldest
/// first, in O(matches).
///
/// Expiry keeps the index exact: evicting the globally-oldest tuple pops
/// the head of its key chain (insertion order makes them the same
/// element), and key entries whose chain empties are tombstoned; the
/// table rebuilds in place when tombstones pile up.
///
/// # Example
///
/// ```
/// use streamcore::{HashIndexWindow, Tuple};
///
/// let mut w = HashIndexWindow::new(3);
/// w.insert(Tuple::new(7, 0));
/// w.insert(Tuple::new(9, 1));
/// w.insert(Tuple::new(7, 2));
/// let hits: Vec<u32> = w.probe(7).map(|t| t.payload()).collect();
/// assert_eq!(hits, vec![0, 2]); // oldest first
/// assert_eq!(w.probe(8).count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct HashIndexWindow {
    keys: Box<[u32]>,
    payloads: Box<[u32]>,
    /// Next newer ring slot holding the same key (`NIL` terminates).
    next: Box<[u32]>,
    head: usize,
    len: usize,
    table: Box<[IndexEntry]>,
    mask: usize,
    occupied: usize,
    tombstones: usize,
}

impl HashIndexWindow {
    /// Creates an empty window of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `u32::MAX - 1` slots (the
    /// ring is `u32`-indexed).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be at least 1");
        assert!(
            capacity < NIL as usize,
            "window capacity must fit u32 slot indices"
        );
        let table_len = (capacity * 2).next_power_of_two().max(8);
        Self {
            keys: vec![0; capacity].into_boxed_slice(),
            payloads: vec![0; capacity].into_boxed_slice(),
            next: vec![NIL; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            table: vec![IndexEntry::EMPTY; table_len].into_boxed_slice(),
            mask: table_len - 1,
            occupied: 0,
            tombstones: 0,
        }
    }

    /// Maximum number of tuples retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Current number of tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the window holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` once the window has filled to capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    #[inline]
    fn hash(&self, key: u32) -> usize {
        // Fibonacci multiplicative hash over the table's power-of-two size.
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// Finds the table position of `key`: `Ok(pos)` if present,
    /// `Err(pos)` with the best insertion position (first tombstone on
    /// the probe path, else the terminating empty slot) if absent.
    fn find(&self, key: u32) -> Result<usize, usize> {
        let mut pos = self.hash(key);
        let mut insert_at = None;
        loop {
            let e = &self.table[pos];
            match e.state {
                SlotState::Empty => return Err(insert_at.unwrap_or(pos)),
                SlotState::Tombstone => {
                    insert_at.get_or_insert(pos);
                }
                SlotState::Occupied if e.key == key => return Ok(pos),
                SlotState::Occupied => {}
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// Rebuilds the table in place, dropping accumulated tombstones. The
    /// live-key count is bounded by the ring capacity (≤ half the table),
    /// so the same table size always suffices.
    fn rebuild(&mut self) {
        self.table.fill(IndexEntry::EMPTY);
        self.occupied = 0;
        self.tombstones = 0;
        self.next.fill(NIL);
        let cap = self.capacity();
        for i in 0..self.len {
            let slot = ((self.head + i) % cap) as u32;
            self.link_slot(slot);
        }
    }

    /// Appends ring slot `slot` (whose key/payload are already written)
    /// to its key chain, creating the table entry if needed.
    fn link_slot(&mut self, slot: u32) {
        let key = self.keys[slot as usize];
        match self.find(key) {
            Ok(pos) => {
                let last = self.table[pos].last;
                self.next[last as usize] = slot;
                self.table[pos].last = slot;
            }
            Err(pos) => {
                if self.table[pos].state == SlotState::Tombstone {
                    self.tombstones -= 1;
                }
                self.table[pos] = IndexEntry {
                    state: SlotState::Occupied,
                    key,
                    first: slot,
                    last: slot,
                };
                self.occupied += 1;
            }
        }
    }

    /// Unlinks the current head slot (the globally-oldest tuple) from its
    /// key chain ahead of its eviction.
    fn unlink_oldest(&mut self) {
        let slot = self.head as u32;
        let key = self.keys[self.head];
        // Invariant: `link_slot` indexed every live slot's key on insert,
        // and the head slot is live.
        #[allow(clippy::expect_used)]
        let pos = self.find(key).expect("evicted key must be indexed");
        debug_assert_eq!(
            self.table[pos].first, slot,
            "global oldest must head its key chain"
        );
        let rest = self.next[self.head];
        self.next[self.head] = NIL;
        if rest == NIL {
            self.table[pos].state = SlotState::Tombstone;
            self.occupied -= 1;
            self.tombstones += 1;
        } else {
            self.table[pos].first = rest;
        }
    }

    /// Inserts `value`, returning the expired oldest tuple if the window
    /// was full.
    pub fn insert(&mut self, value: Tuple) -> Option<Tuple> {
        let cap = self.capacity();
        let mut expired = None;
        if self.len == cap {
            self.unlink_oldest();
            expired = Some(Tuple::new(self.keys[self.head], self.payloads[self.head]));
            self.head = (self.head + 1) % cap;
            self.len -= 1;
        }
        if self.tombstones + self.occupied > self.table.len() * 3 / 4 {
            self.rebuild();
        }
        let slot = ((self.head + self.len) % cap) as u32;
        self.keys[slot as usize] = value.key();
        self.payloads[slot as usize] = value.payload();
        self.next[slot as usize] = NIL;
        self.len += 1;
        self.link_slot(slot);
        expired
    }

    /// Visits the stored tuples whose key equals `key`, oldest first.
    pub fn probe(&self, key: u32) -> ProbeHits<'_> {
        let cur = match self.find(key) {
            Ok(pos) => self.table[pos].first,
            Err(_) => NIL,
        };
        ProbeHits { window: self, cur }
    }

    /// Iterates every stored tuple from oldest to newest (verification;
    /// the hot path uses [`HashIndexWindow::probe`]).
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        let cap = self.capacity();
        (0..self.len).map(move |i| {
            let slot = (self.head + i) % cap;
            Tuple::new(self.keys[slot], self.payloads[slot])
        })
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.table.fill(IndexEntry::EMPTY);
        self.next.fill(NIL);
        self.occupied = 0;
        self.tombstones = 0;
    }
}

/// Iterator over the equi-join hits of one [`HashIndexWindow::probe`].
#[derive(Debug)]
pub struct ProbeHits<'a> {
    window: &'a HashIndexWindow,
    cur: u32,
}

impl Iterator for ProbeHits<'_> {
    type Item = Tuple;

    #[inline]
    fn next(&mut self) -> Option<Tuple> {
        if self.cur == NIL {
            return None;
        }
        let slot = self.cur as usize;
        self.cur = self.window.next[slot];
        Some(Tuple::new(
            self.window.keys[slot],
            self.window.payloads[slot],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_until_capacity_then_slides() {
        let mut w = SlidingWindow::new(3);
        assert!(w.is_empty());
        for i in 0..3 {
            assert_eq!(w.insert(i), None);
        }
        assert!(w.is_full());
        assert_eq!(w.insert(3), Some(0));
        assert_eq!(w.insert(4), Some(1));
        let v: Vec<_> = w.iter().copied().collect();
        assert_eq!(v, vec![2, 3, 4]);
    }

    #[test]
    fn oldest_and_newest() {
        let mut w = SlidingWindow::new(2);
        assert_eq!(w.oldest(), None);
        assert_eq!(w.newest(), None);
        w.insert(10);
        w.insert(20);
        assert_eq!(w.oldest(), Some(&10));
        assert_eq!(w.newest(), Some(&20));
    }

    #[test]
    fn extend_applies_sliding_semantics() {
        let mut w = SlidingWindow::new(2);
        w.extend(0..5);
        let v: Vec<_> = (&w).into_iter().copied().collect();
        assert_eq!(v, vec![3, 4]);
    }

    #[test]
    fn clear_empties_window() {
        let mut w = SlidingWindow::new(2);
        w.insert(1);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = SlidingWindow::<u8>::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn hash_index_zero_capacity_panics() {
        let _ = HashIndexWindow::new(0);
    }

    #[test]
    fn window_of_one_always_keeps_latest() {
        let mut w = SlidingWindow::new(1);
        for i in 0..10 {
            w.insert(i);
            assert_eq!(w.newest(), Some(&i));
            assert_eq!(w.len(), 1);
        }
    }

    #[test]
    fn flat_snapshot_is_oldest_first_across_wrap() {
        let mut w = FlatWindow::new(4);
        for i in 0..6u32 {
            w.insert(Tuple::new(i, i + 100));
        }
        let (mut keys, mut pays) = (Vec::new(), Vec::new());
        w.snapshot_into(&mut keys, &mut pays, true);
        assert_eq!(keys, vec![2, 3, 4, 5]);
        assert_eq!(pays, vec![102, 103, 104, 105]);
        // Counting mode leaves payloads empty; scratch is reset each call.
        w.snapshot_into(&mut keys, &mut pays, false);
        assert_eq!(keys, vec![2, 3, 4, 5]);
        assert!(pays.is_empty());
    }
}
