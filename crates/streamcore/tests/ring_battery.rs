//! Concurrency battery for the lock-free SPSC ring and batch arena
//! (`streamcore::ring`) — the transport under the SplitJoin data path.
//!
//! The unit tests in the module prove single-threaded invariants; this
//! battery proves the *two-party* protocol: a real producer thread and a
//! real consumer thread, tiny capacities that force head/tail wraparound
//! under contention, and sequence checksums that would expose any lost,
//! duplicated, or reordered element. Sizes shrink under miri
//! (`cargo miri test -p streamcore ring`), which runs the same protocol
//! through the interpreter's data-race detector.

use std::thread;

use proptest::prelude::*;
use streamcore::ring::{self, PopError, PushError};

/// Elements pushed through each stress run: one million natively, a few
/// thousand under miri (the interpreter is ~1000x slower and the
/// wraparound count, not the element count, is what exercises the
/// protocol).
const STRESS_LEN: u64 = if cfg!(miri) { 4_096 } else { 1_000_000 };

/// Drives `n` sequential elements through a ring of the given capacity
/// with a dedicated producer thread, while the calling thread consumes.
/// Returns (count, sum, order_ok) as observed by the consumer.
fn stress_spsc(capacity: usize, n: u64) -> (u64, u64, bool) {
    let (mut tx, mut rx) = ring::spsc::<u64>(capacity);
    let producer = thread::spawn(move || {
        let mut next = 0u64;
        while next < n {
            match tx.try_push(next) {
                Ok(()) => next += 1,
                Err(PushError::Full(_)) => thread::yield_now(),
                Err(PushError::Disconnected(_)) => panic!("consumer vanished"),
            }
        }
    });
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut expected = 0u64;
    let mut in_order = true;
    loop {
        match rx.try_pop() {
            Ok(v) => {
                in_order &= v == expected;
                expected += 1;
                count += 1;
                sum = sum.wrapping_add(v);
            }
            Err(PopError::Empty) => thread::yield_now(),
            Err(PopError::Disconnected) => break,
        }
    }
    producer.join().unwrap();
    (count, sum, in_order)
}

#[test]
fn two_thread_stress_over_a_wrapping_ring() {
    // Capacity 7 (not a power of two) forces index arithmetic across
    // ~STRESS_LEN/7 wraparounds while both sides race.
    let n = STRESS_LEN;
    let (count, sum, in_order) = stress_spsc(7, n);
    assert_eq!(count, n, "elements lost or duplicated");
    assert_eq!(sum, n * (n - 1) / 2, "checksum mismatch: corrupt element");
    assert!(in_order, "elements reordered");
}

#[test]
fn capacity_one_ring_is_a_rendezvous_slot() {
    // Every element wraps: the tightest possible full/empty interleaving.
    let n = STRESS_LEN / 10;
    let (count, sum, in_order) = stress_spsc(1, n);
    assert_eq!(count, n);
    assert_eq!(sum, n * (n - 1) / 2);
    assert!(in_order);
}

#[test]
fn batch_claims_straddle_the_wrap_under_contention() {
    // Producer uses push_batch with sizes that never divide the
    // capacity, so claims regularly straddle the wrap point; consumer
    // uses pop_batch. The sequence must still arrive exactly once, in
    // order.
    let n = STRESS_LEN / 2;
    let (mut tx, mut rx) = ring::spsc::<u64>(13);
    let producer = thread::spawn(move || {
        let mut next = 0u64;
        let mut batch_len = 1usize;
        while next < n {
            let end = (next + batch_len as u64).min(n);
            let batch: Vec<u64> = (next..end).collect();
            let mut sent = 0usize;
            while sent < batch.len() {
                match tx.push_batch(&batch[sent..]) {
                    Ok(0) => thread::yield_now(),
                    Ok(k) => sent += k,
                    Err(_) => panic!("consumer vanished"),
                }
            }
            next = end;
            batch_len = batch_len % 9 + 1; // 1,2,...,9,1,...
        }
    });
    let mut got: Vec<u64> = Vec::new();
    let mut buf: Vec<u64> = Vec::new();
    loop {
        match rx.pop_batch(&mut buf, 5) {
            Ok(0) => thread::yield_now(),
            Ok(_) => got.append(&mut buf),
            Err(PopError::Disconnected) => break,
            Err(PopError::Empty) => unreachable!("pop_batch reports empty as Ok(0)"),
        }
    }
    producer.join().unwrap();
    assert_eq!(got.len() as u64, n);
    assert!(
        got.iter().copied().eq(0..n),
        "lost, duplicated, or reordered"
    );
}

#[test]
fn non_copy_elements_survive_the_crossing() {
    // Boxed payloads: a double-drop, a skipped drop, or an uninitialized
    // read would crash or leak loudly under miri.
    let n: u64 = if cfg!(miri) { 512 } else { 100_000 };
    let (mut tx, mut rx) = ring::spsc::<Box<u64>>(5);
    let producer = thread::spawn(move || {
        for i in 0..n {
            let mut item = Box::new(i);
            loop {
                match tx.try_push(item) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        thread::yield_now();
                    }
                    Err(PushError::Disconnected(_)) => panic!("consumer vanished"),
                }
            }
        }
    });
    let mut sum = 0u64;
    let mut count = 0u64;
    loop {
        match rx.try_pop() {
            Ok(b) => {
                sum = sum.wrapping_add(*b);
                count += 1;
            }
            Err(PopError::Empty) => thread::yield_now(),
            Err(PopError::Disconnected) => break,
        }
    }
    producer.join().unwrap();
    assert_eq!(count, n);
    assert_eq!(sum, n * (n - 1) / 2);
}

#[test]
fn consumer_drop_mid_stream_disconnects_the_producer() {
    let (mut tx, rx) = ring::spsc::<u64>(4);
    let consumer = thread::spawn(move || {
        let mut rx = rx;
        // Take a few, then walk away.
        let mut taken = 0;
        while taken < 8 {
            if rx.try_pop().is_ok() {
                taken += 1;
            } else {
                thread::yield_now();
            }
        }
    });
    let mut pushed = 0u64;
    let disconnected = loop {
        match tx.try_push(pushed) {
            Ok(()) => pushed += 1,
            Err(PushError::Full(_)) => thread::yield_now(),
            Err(PushError::Disconnected(_)) => break true,
        }
    };
    consumer.join().unwrap();
    assert!(disconnected);
    assert!(pushed >= 8, "consumer took 8 before leaving");
}

#[test]
fn arena_watermark_protocol_under_concurrent_readers() {
    // One writer republishing into a small arena; R reader threads each
    // verify every batch's content in place and release it. The
    // watermark (min over released sequences) is what lets the writer
    // reuse slots — any premature reuse would corrupt a checksum.
    const READERS: usize = 3;
    let rounds: u64 = if cfg!(miri) { 64 } else { 20_000 };
    let (mut writer, readers) = ring::batch_arena::<u64>(4, READERS);
    let mut handles = Vec::new();
    for mut reader in readers {
        handles.push(thread::spawn(move || {
            for seq in 1..=rounds {
                // Wait for the writer to publish `seq`, then verify.
                loop {
                    if writer_published(&reader, seq) {
                        break;
                    }
                    thread::yield_now();
                }
                let batch = reader.read(seq);
                assert_eq!(batch.len(), (seq % 5 + 1) as usize);
                assert!(batch.iter().all(|&v| v == seq * 1_000_003));
                reader.release(seq);
            }
        }));
    }
    for seq in 1..=rounds {
        let batch: Vec<u64> = vec![seq * 1_000_003; (seq % 5 + 1) as usize];
        loop {
            match writer.try_publish(&batch) {
                Ok(got) => {
                    assert_eq!(got, seq);
                    break;
                }
                Err(ring::ArenaFull) => thread::yield_now(),
            }
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(writer.min_released(), rounds);
}

/// A reader knows `seq` is published once its own un-released cursor is
/// behind it and the writer has moved past it; the arena's `published`
/// tag check inside `read` does the authoritative verification. Here we
/// conservatively gate on the released cursor to sequence the loop.
fn writer_published<T: Send + Sync>(reader: &ring::ArenaReader<T>, seq: u64) -> bool {
    reader.released() >= seq - 1 && reader.peek_published(seq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wrap-range decomposition covers exactly [pos, pos+len) mod
    /// cap: the two spans are disjoint, in-bounds, sized to `len`, and
    /// contiguous from `pos % cap`.
    #[test]
    fn wrap_ranges_partition_the_claim(
        pos in any::<u64>(),
        len in 0usize..512,
        cap in 1usize..512,
    ) {
        let len = len.min(cap); // a claim never exceeds capacity
        let [(a_start, a_len), (b_start, b_len)] = ring::wrap_ranges(pos, len, cap);
        prop_assert_eq!(a_len + b_len, len);
        prop_assert_eq!(a_start, (pos % cap as u64) as usize);
        prop_assert!(a_start + a_len <= cap, "first span overruns the buffer");
        if b_len > 0 {
            prop_assert_eq!(b_start, 0, "second span must restart at the base");
            prop_assert_eq!(a_start + a_len, cap, "wrap only after hitting the end");
            prop_assert!(b_len <= a_start, "wrapped span may not catch the first");
        }
    }

    /// Pushing then popping any sequence through any capacity is the
    /// identity, batch boundaries notwithstanding.
    #[test]
    fn single_thread_round_trip_is_identity(
        cap in 1usize..32,
        items in proptest::collection::vec(any::<u32>(), 0..200),
        chunk in 1usize..17,
    ) {
        let (mut tx, mut rx) = ring::spsc::<u32>(cap);
        let mut got = Vec::new();
        let mut buf = Vec::new();
        for batch in items.chunks(chunk) {
            let mut sent = 0usize;
            while sent < batch.len() {
                match tx.push_batch(&batch[sent..]) {
                    Ok(0) => {
                        // Full: drain everything available and retry.
                        let _ = rx.pop_batch(&mut buf, usize::MAX);
                        got.append(&mut buf);
                    }
                    Ok(k) => sent += k,
                    Err(_) => unreachable!("both halves live"),
                }
            }
        }
        drop(tx);
        while rx.pop_batch(&mut buf, usize::MAX).is_ok() {
            got.append(&mut buf);
        }
        prop_assert_eq!(got, items);
    }
}
