//! Lock-free single-producer/single-consumer rings: the one link type
//! both software join engines run on.
//!
//! The paper attributes the software join's ceiling to inter-core
//! communication: every tuple crosses from the distribution thread to
//! every join core and every match crosses back. The channel transport
//! pays a mutex + condvar handoff per message; this module replaces it
//! with the software analogue of the hardware design's dedicated
//! point-to-point links — one bounded SPSC ring per direction per
//! worker. SplitJoin broadcasts a batch as one `Arc`-shared copy and a
//! handle to it on every worker's ring. The module also keeps
//! [`batch_arena`], which no engine uses (see its docs).
//!
//! # The head/tail protocol
//!
//! A ring is a power-free (any capacity ≥ 1) Lamport queue over
//! monotonically increasing `u64` positions:
//!
//! * the **producer** owns `tail`: it loads `head` with `Acquire` to
//!   check for space (`tail - head < capacity`), writes the slot
//!   `tail % capacity`, then stores `tail + 1` with `Release`;
//! * the **consumer** owns `head`: it loads `tail` with `Acquire` to
//!   check for data (`head < tail`), reads the slot `head % capacity`,
//!   then stores `head + 1` with `Release`.
//!
//! The `Release` store on `tail` publishes the slot write; the matching
//! `Acquire` load on the consumer side makes it visible before the slot
//! read (and symmetrically for `head`, which licenses the producer to
//! overwrite the slot). Each side caches the other's index locally and
//! refreshes only on apparent-full/apparent-empty, so the steady-state
//! cost of a transfer is one atomic store per side. Head and tail live
//! on separate [`CachePadded`] cache lines to keep the two sides from
//! false-sharing.
//!
//! Disconnect semantics mirror a channel: dropping the [`RingProducer`]
//! closes the ring (the consumer drains what is queued, then sees
//! [`PopError::Disconnected`]); dropping the [`RingConsumer`] makes
//! further pushes fail with [`PushError::Disconnected`]. Whatever is
//! still queued when both ends are gone is dropped with the ring.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Pads and aligns a value to (at least) one cache line, so two hot
/// atomics owned by different threads never share a line. 128 bytes
/// covers the spatial-prefetcher pair on x86 and the line size on
/// every target this crate builds for.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(
    /// The padded value.
    pub T,
);

/// Why a push could not complete.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is full; the value is handed back for a retry.
    Full(T),
    /// The consumer is gone; the value is handed back.
    Disconnected(T),
}

/// Why a pop could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopError {
    /// Nothing queued right now, but the producer is still alive.
    Empty,
    /// Nothing queued and the producer is gone: the ring is finished.
    Disconnected,
}

struct RingShared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer position: the next slot to read. Only the consumer
    /// stores it (Release); the producer loads it (Acquire) to bound
    /// the slots it may overwrite.
    head: CachePadded<AtomicU64>,
    /// Producer position: one past the last published slot. Only the
    /// producer stores it (Release); the consumer loads it (Acquire)
    /// to bound the slots it may read.
    tail: CachePadded<AtomicU64>,
    /// Producer dropped or closed; queued items stay readable.
    closed: AtomicBool,
    /// Consumer dropped; further pushes are pointless.
    receiver_gone: AtomicBool,
}

// SAFETY: the one-producer/one-consumer discipline (enforced by the
// !Clone handle types) means a slot is written by exactly one thread
// and read by exactly one thread, with the head/tail Release/Acquire
// pairs ordering every write before the read that consumes it. T only
// needs to be Send, as values merely move across threads.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for RingShared<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Sole owner at this point: both handles are gone, so the
        // plain loads are the final published values.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        let cap = self.buf.len() as u64;
        for pos in head..tail {
            let slot = self.buf[(pos % cap) as usize].get();
            // SAFETY: slots in [head, tail) hold initialized values
            // that neither handle will touch again.
            #[allow(unsafe_code)]
            unsafe {
                (*slot).assume_init_drop();
            }
        }
    }
}

/// The sending half of a bounded SPSC ring (see the
/// [module docs](self) for the protocol). Not cloneable — exactly one
/// producer exists per ring.
pub struct RingProducer<T> {
    shared: Arc<RingShared<T>>,
    /// Local copy of our own tail (we are its only writer).
    tail: u64,
    /// Last observed consumer head; refreshed only on apparent-full.
    cached_head: u64,
}

/// The receiving half of a bounded SPSC ring. Not cloneable — exactly
/// one consumer exists per ring.
pub struct RingConsumer<T> {
    shared: Arc<RingShared<T>>,
    /// Local copy of our own head (we are its only writer).
    head: u64,
    /// Last observed producer tail; refreshed only on apparent-empty.
    cached_tail: u64,
}

impl<T> fmt::Debug for RingProducer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingProducer")
            .field("capacity", &self.capacity())
            .field("tail", &self.tail)
            .finish()
    }
}

impl<T> fmt::Debug for RingConsumer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingConsumer")
            .field("capacity", &self.shared.buf.len())
            .field("head", &self.head)
            .finish()
    }
}

/// Creates a bounded SPSC ring of `capacity` slots (≥ 1).
///
/// # Panics
///
/// Panics if `capacity` is zero — a zero-slot ring could never transfer
/// anything.
pub fn spsc<T: Send>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(RingShared {
        buf,
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
        closed: AtomicBool::new(false),
        receiver_gone: AtomicBool::new(false),
    });
    (
        RingProducer {
            shared: Arc::clone(&shared),
            tail: 0,
            cached_head: 0,
        },
        RingConsumer {
            shared,
            head: 0,
            cached_tail: 0,
        },
    )
}

/// Splits `len` logical slots starting at absolute position `pos` into
/// the at-most-two contiguous index ranges they occupy in a `cap`-slot
/// buffer: `[(start, len); 2]`, second range possibly empty. This is
/// the index arithmetic behind every batch claim/publish; the property
/// tests in the ring battery pin its invariants.
pub fn wrap_ranges(pos: u64, len: usize, cap: usize) -> [(usize, usize); 2] {
    debug_assert!(cap > 0 && len <= cap);
    let start = (pos % cap as u64) as usize;
    let first = len.min(cap - start);
    [(start, first), (0, len - first)]
}

impl<T> RingProducer<T> {
    /// Total slots in the ring.
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }

    /// Queued items from the producer's point of view (exact for our
    /// own pushes, conservative for concurrent pops).
    pub fn len(&self) -> usize {
        (self.tail - self.shared.head.0.load(Ordering::Relaxed)) as usize
    }

    /// `true` when nothing is queued (producer's view).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once the consumer has been dropped.
    pub fn is_disconnected(&self) -> bool {
        self.shared.receiver_gone.load(Ordering::Acquire)
    }

    /// Free slots, refreshing the cached consumer position.
    fn free_slots(&mut self) -> usize {
        let cap = self.capacity() as u64;
        if self.tail - self.cached_head == cap {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
        }
        (cap - (self.tail - self.cached_head)) as usize
    }

    /// Pushes one value without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when no slot is free, [`PushError::Disconnected`]
    /// when the consumer is gone; both return the value.
    pub fn try_push(&mut self, value: T) -> Result<(), PushError<T>> {
        if self.is_disconnected() {
            return Err(PushError::Disconnected(value));
        }
        if self.free_slots() == 0 {
            return Err(PushError::Full(value));
        }
        let slot = (self.tail % self.capacity() as u64) as usize;
        // SAFETY: `free_slots() > 0` means the consumer has released
        // this slot (its head, read with Acquire, is past the slot's
        // previous occupant), and only this producer writes slots.
        #[allow(unsafe_code)]
        unsafe {
            (*self.shared.buf[slot].get()).write(value);
        }
        self.tail += 1;
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Copies as many leading `items` as fit into the ring in one
    /// claim/publish cycle (one `head` load, one `tail` store), and
    /// returns how many were accepted — `0` when the ring is full.
    ///
    /// # Errors
    ///
    /// [`PushError::Disconnected`] (carrying `()`) when the consumer is
    /// gone.
    pub fn push_batch(&mut self, items: &[T]) -> Result<usize, PushError<()>>
    where
        T: Copy,
    {
        if self.is_disconnected() {
            return Err(PushError::Disconnected(()));
        }
        let n = self.free_slots().min(items.len());
        if n == 0 {
            return Ok(0);
        }
        let cap = self.capacity();
        let mut taken = 0usize;
        for (start, len) in wrap_ranges(self.tail, n, cap) {
            for i in 0..len {
                // SAFETY: the n claimed slots are released by the
                // consumer (see `try_push`); wrap_ranges covers
                // exactly positions tail..tail+n.
                #[allow(unsafe_code)]
                unsafe {
                    (*self.shared.buf[start + i].get()).write(items[taken]);
                }
                taken += 1;
            }
        }
        self.tail += n as u64;
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(n)
    }
}

impl<T> Drop for RingProducer<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
    }
}

impl<T> RingConsumer<T> {
    /// Total slots in the ring.
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }

    /// Queued items from the consumer's point of view.
    pub fn len(&self) -> usize {
        (self.shared.tail.0.load(Ordering::Relaxed) - self.head) as usize
    }

    /// `true` when nothing is queued (consumer's view).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued items, refreshing the cached producer position.
    fn available(&mut self) -> usize {
        if self.head == self.cached_tail {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
        }
        (self.cached_tail - self.head) as usize
    }

    /// `true` when the ring is finished: producer gone and nothing
    /// left to drain.
    fn finished(&mut self) -> bool {
        if !self.shared.closed.load(Ordering::Acquire) {
            return false;
        }
        // The close flag is stored after the final tail publish; one
        // more refresh observes anything pushed right before the drop.
        self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
        self.head == self.cached_tail
    }

    /// Pops one value without blocking.
    ///
    /// # Errors
    ///
    /// [`PopError::Empty`] when nothing is queued yet,
    /// [`PopError::Disconnected`] when the producer is gone and the ring
    /// is drained.
    pub fn try_pop(&mut self) -> Result<T, PopError> {
        if self.available() == 0 {
            return Err(if self.finished() {
                PopError::Disconnected
            } else {
                PopError::Empty
            });
        }
        let slot = (self.head % self.capacity() as u64) as usize;
        // SAFETY: `available() > 0` means the producer published this
        // slot (its tail, read with Acquire, is past it), and only
        // this consumer reads slots.
        #[allow(unsafe_code)]
        let value = unsafe { (*self.shared.buf[slot].get()).assume_init_read() };
        self.head += 1;
        self.shared.head.0.store(self.head, Ordering::Release);
        Ok(value)
    }

    /// Drains up to `max` queued values into `out` in one claim/release
    /// cycle (one `tail` load, one `head` store). Returns how many were
    /// drained — `Ok(0)` means empty-but-open.
    ///
    /// # Errors
    ///
    /// [`PopError::Disconnected`] when the producer is gone and the
    /// ring is drained.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<usize, PopError> {
        let n = self.available().min(max);
        if n == 0 {
            return if self.finished() {
                Err(PopError::Disconnected)
            } else {
                Ok(0)
            };
        }
        let cap = self.capacity();
        out.reserve(n);
        for (start, len) in wrap_ranges(self.head, n, cap) {
            for i in 0..len {
                // SAFETY: the n claimed slots are published by the
                // producer (see `try_pop`).
                #[allow(unsafe_code)]
                let value = unsafe { (*self.shared.buf[start + i].get()).assume_init_read() };
                out.push(value);
            }
        }
        self.head += n as u64;
        self.shared.head.0.store(self.head, Ordering::Release);
        Ok(n)
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        self.shared.receiver_gone.store(true, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Batch arena
// ---------------------------------------------------------------------------

/// The writer's claim failed because a slot it must reuse is still held
/// by a reader that has not yet released the slot's previous occupant.
/// Retry after that reader makes progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFull;

struct ArenaSlot<T> {
    data: UnsafeCell<Vec<T>>,
    /// Sequence number currently resident in this slot (0 = never
    /// written). Stored with Release after the data write; readers
    /// check it with Acquire before touching the data, so a stale or
    /// wild sequence number panics instead of racing.
    published: AtomicU64,
}

struct ArenaShared<T> {
    slots: Box<[ArenaSlot<T>]>,
    /// Per-reader released watermark: the highest sequence number the
    /// reader has finished with. Padded — each is written by a
    /// different worker thread on every batch.
    released: Box<[CachePadded<AtomicU64>]>,
}

// SAFETY: the watermark protocol (writer waits for every reader's
// released watermark before reusing a slot; readers check the
// published sequence before reading and cannot release a sequence while
// still borrowing its slice — `release` takes &mut self) gives each
// slot alternating exclusive-write / shared-read phases, ordered by the
// Release/Acquire pairs on `published` and `released`.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for ArenaShared<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send + Sync> Sync for ArenaShared<T> {}

/// The writing half of a batch arena: publishes a batch into a slot once
/// every reader has released the slot's previous batch.
pub struct ArenaWriter<T> {
    shared: Arc<ArenaShared<T>>,
    /// Highest sequence number published (0 = none yet).
    seq: u64,
}

/// One reader's handle: maps received sequence numbers back to slices
/// and releases them once probed.
pub struct ArenaReader<T> {
    shared: Arc<ArenaShared<T>>,
    index: usize,
    /// Local copy of our own released watermark.
    released: u64,
}

impl<T> fmt::Debug for ArenaWriter<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArenaWriter")
            .field("slots", &self.shared.slots.len())
            .field("seq", &self.seq)
            .finish()
    }
}

impl<T> fmt::Debug for ArenaReader<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArenaReader")
            .field("index", &self.index)
            .field("released", &self.released)
            .finish()
    }
}

/// Creates a batch arena of `slots` reusable buffers shared by one
/// writer and `readers` readers (returned in reader-index order).
///
/// The writer publishes batch `seq` into slot `seq % slots`; each reader
/// maps the sequence number it received (over its ring) back to the
/// slice, probes it **in place**, and releases the sequence. Slot reuse
/// waits until every reader's released watermark has passed the slot's
/// previous occupant, so the writer never overwrites a batch a reader
/// may still be probing.
/// The ring's `Release`/`Acquire` pair carries the happens-before edge
/// from the slot write to the slot read, and the per-slot published
/// sequence number turns any protocol violation into a panic instead of
/// a data race.
///
/// No engine uses the arena: SplitJoin ships each batch as one shared
/// `Arc<[_]>` over its rings. Its one caller is the benchmark ledger's
/// `ring.arena_mops` row.
///
/// # Panics
///
/// Panics if `slots` or `readers` is zero.
pub fn batch_arena<T: Send + Sync>(
    slots: usize,
    readers: usize,
) -> (ArenaWriter<T>, Vec<ArenaReader<T>>) {
    assert!(slots > 0, "arena needs at least one slot");
    assert!(readers > 0, "arena needs at least one reader");
    let shared = Arc::new(ArenaShared {
        slots: (0..slots)
            .map(|_| ArenaSlot {
                data: UnsafeCell::new(Vec::new()),
                published: AtomicU64::new(0),
            })
            .collect(),
        released: (0..readers)
            .map(|_| CachePadded(AtomicU64::new(0)))
            .collect(),
    });
    let handles = (0..readers)
        .map(|index| ArenaReader {
            shared: Arc::clone(&shared),
            index,
            released: 0,
        })
        .collect();
    (ArenaWriter { shared, seq: 0 }, handles)
}

impl<T> ArenaWriter<T> {
    /// Slot count (the bound on batches in flight).
    pub fn slots(&self) -> usize {
        self.shared.slots.len()
    }

    /// Highest sequence number published so far (0 = none).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The lowest released watermark over all readers.
    pub fn min_released(&self) -> u64 {
        self.shared
            .released
            .iter()
            .map(|cell| cell.0.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Publishes `items` as the next batch and returns its sequence
    /// number. The batch is copied into the slot's reused buffer — no
    /// allocation once every slot has grown to the steady-state batch
    /// size.
    ///
    /// # Errors
    ///
    /// [`ArenaFull`] when the slot's previous occupant is still held by
    /// a reader; nothing is written and the claim can be retried.
    pub fn try_publish(&mut self, items: &[T]) -> Result<u64, ArenaFull>
    where
        T: Copy,
    {
        let seq = self.seq + 1;
        let slots = self.slots() as u64;
        if seq > slots && self.min_released() < seq - slots {
            return Err(ArenaFull);
        }
        let slot = &self.shared.slots[(seq % slots) as usize];
        // SAFETY: the slot's previous occupant is `seq - slots`, and
        // every reader has released it (checked above with Acquire loads
        // that pair with the readers' Release stores, so their in-place
        // reads happen-before this overwrite). No reader reads *this*
        // sequence until it observes the `published` store below via its
        // ring message.
        #[allow(unsafe_code)]
        unsafe {
            let buf = &mut *slot.data.get();
            buf.clear();
            buf.extend_from_slice(items);
        }
        slot.published.store(seq, Ordering::Release);
        self.seq = seq;
        Ok(seq)
    }
}

impl<T> ArenaReader<T> {
    /// This reader's index (its position in the `released` watermark
    /// array).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The slice published as batch `seq`, read in place. The borrow
    /// keeps `self` shared, so the sequence cannot be released (and
    /// hence the slot cannot be reused) while the slice is alive.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was already released by this reader or is not
    /// the sequence currently resident in its slot — both protocol
    /// violations that would otherwise be data races.
    pub fn read(&self, seq: u64) -> &[T] {
        assert!(seq > self.released, "arena read of a released batch {seq}");
        let slots = self.shared.slots.len() as u64;
        let slot = &self.shared.slots[(seq % slots) as usize];
        let resident = slot.published.load(Ordering::Acquire);
        assert_eq!(
            resident, seq,
            "arena slot holds batch {resident}, not {seq}"
        );
        // SAFETY: `published == seq` (Acquire, pairing with the
        // writer's Release) proves the writer's data write
        // happens-before this read, and the writer will not overwrite
        // the slot until this reader releases `seq` (watermark check),
        // which the borrow rules forbid while the slice is alive.
        #[allow(unsafe_code)]
        unsafe {
            (*slot.data.get()).as_slice()
        }
    }

    /// `true` once batch `seq` is resident in its slot — a non-blocking
    /// publish poll (Acquire, pairing with the writer's Release store)
    /// for callers sequencing reads without a message channel alongside
    /// the arena.
    pub fn peek_published(&self, seq: u64) -> bool {
        let slots = self.shared.slots.len() as u64;
        self.shared.slots[(seq % slots) as usize]
            .published
            .load(Ordering::Acquire)
            == seq
    }

    /// Marks every sequence up to and including `seq` as finished,
    /// allowing the writer to reuse their slots. Watermarks only move
    /// forward; releasing an older sequence is a no-op.
    pub fn release(&mut self, seq: u64) {
        if seq <= self.released {
            return;
        }
        self.released = seq;
        self.shared.released[self.index]
            .0
            .store(seq, Ordering::Release);
    }

    /// The highest sequence this reader has released.
    pub fn released(&self) -> u64 {
        self.released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_capacity_then_rejects() {
        let (mut tx, mut rx) = spsc::<u32>(3);
        for i in 0..3 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(9), Err(PushError::Full(9)));
        assert_eq!(tx.len(), 3);
        assert_eq!(rx.try_pop(), Ok(0));
        tx.try_push(9).unwrap();
        assert_eq!(rx.try_pop(), Ok(1));
        assert_eq!(rx.try_pop(), Ok(2));
        assert_eq!(rx.try_pop(), Ok(9));
        assert_eq!(rx.try_pop(), Err(PopError::Empty));
    }

    #[test]
    fn capacity_one_alternates() {
        let (mut tx, mut rx) = spsc::<u64>(1);
        for i in 0..100u64 {
            tx.try_push(i).unwrap();
            assert_eq!(tx.try_push(i), Err(PushError::Full(i)));
            assert_eq!(rx.try_pop(), Ok(i));
            assert_eq!(rx.try_pop(), Err(PopError::Empty));
        }
    }

    #[test]
    fn producer_drop_lets_consumer_drain_then_disconnect() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_pop(), Ok(1));
        assert_eq!(rx.try_pop(), Ok(2));
        assert_eq!(rx.try_pop(), Err(PopError::Disconnected));
    }

    #[test]
    fn consumer_drop_fails_pushes() {
        let (mut tx, rx) = spsc::<u32>(4);
        tx.try_push(1).unwrap();
        drop(rx);
        assert_eq!(tx.try_push(2), Err(PushError::Disconnected(2)));
        assert!(tx.is_disconnected());
    }

    #[test]
    fn queued_items_are_dropped_with_the_ring() {
        let marker = Arc::new(());
        let (mut tx, rx) = spsc::<Arc<()>>(4);
        for _ in 0..3 {
            tx.try_push(Arc::clone(&marker)).unwrap();
        }
        assert_eq!(Arc::strong_count(&marker), 4);
        drop(tx);
        drop(rx);
        assert_eq!(
            Arc::strong_count(&marker),
            1,
            "ring drop must free queued items"
        );
    }

    #[test]
    fn batch_push_and_pop_straddle_the_wrap() {
        let (mut tx, mut rx) = spsc::<u32>(5);
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        let mut out = Vec::new();
        // Offset the positions so batches repeatedly cross the wrap.
        for round in 0..50 {
            let want = 1 + (round % 5);
            let items: Vec<u32> = (next_in..next_in + want as u32).collect();
            let pushed = tx.push_batch(&items).unwrap();
            next_in += pushed as u32;
            out.clear();
            let popped = rx.pop_batch(&mut out, usize::MAX).unwrap();
            assert_eq!(popped, out.len());
            for &v in &out {
                assert_eq!(v, next_out, "reordered or lost at {next_out}");
                next_out += 1;
            }
        }
        assert_eq!(next_in, next_out);
    }

    #[test]
    fn wrap_ranges_cover_exactly_the_claim() {
        // 5-slot ring, position 3, length 4: indices 3,4 then 0,1.
        assert_eq!(wrap_ranges(3, 4, 5), [(3, 2), (0, 2)]);
        assert_eq!(wrap_ranges(8, 4, 5), [(3, 2), (0, 2)]);
        assert_eq!(wrap_ranges(0, 5, 5), [(0, 5), (0, 0)]);
        assert_eq!(wrap_ranges(7, 0, 5), [(2, 0), (0, 0)]);
    }

    #[test]
    fn arena_publishes_and_reuses_slots() {
        let (mut w, mut readers) = batch_arena::<u64>(2, 2);
        let s1 = w.try_publish(&[1, 2, 3]).unwrap();
        let s2 = w.try_publish(&[4]).unwrap();
        assert_eq!((s1, s2), (1, 2));
        // Both slots occupied and unreleased: the claim must fail.
        assert_eq!(w.try_publish(&[5]), Err(ArenaFull));
        assert_eq!(readers[0].read(1), &[1, 2, 3]);
        assert_eq!(readers[1].read(1), &[1, 2, 3]);
        // One reader still holding batch 1 keeps its slot from reuse.
        readers[0].release(1);
        assert_eq!(w.min_released(), 0);
        assert_eq!(w.try_publish(&[5]), Err(ArenaFull));
        readers[1].release(1);
        assert_eq!(w.min_released(), 1);
        let s3 = w.try_publish(&[5]).unwrap();
        assert_eq!(s3, 3);
        assert_eq!(readers[0].read(2), &[4]);
        assert_eq!(readers[1].read(3), &[5]);
    }

    #[test]
    #[should_panic(expected = "released batch")]
    fn arena_read_after_release_panics() {
        let (mut w, mut readers) = batch_arena::<u64>(2, 1);
        w.try_publish(&[1]).unwrap();
        readers[0].release(1);
        let _ = readers[0].read(1);
    }

    #[test]
    #[should_panic(expected = "arena slot holds batch")]
    fn arena_read_of_unpublished_sequence_panics() {
        let (mut w, readers) = batch_arena::<u64>(2, 1);
        w.try_publish(&[1]).unwrap();
        let _ = readers[0].read(2);
    }
}
