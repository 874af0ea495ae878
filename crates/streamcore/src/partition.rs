//! Round-robin partition map: which worker owns which storage turn.
//!
//! The SplitJoin storage discipline is decentralized round-robin: every
//! worker sees every tuple and stores the ones whose per-stream sequence
//! number is "its turn" (`seq % num_cores == position`). [`PartitionMap`]
//! abstracts that modulo so the set of owning workers can shrink when a
//! core is lost: the coordinator retires the dead position and broadcasts
//! the updated map, and from the next message boundary on, the survivors
//! share the turns among themselves. While every position is live the map
//! is exactly the original modulo — re-partitioning support costs the
//! healthy path nothing.

/// Maps per-stream storage turns (sequence numbers) to live worker
/// positions, round-robin over the survivors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// Number of positions the join started with.
    total: usize,
    /// Live positions, ascending. Turn `seq` belongs to
    /// `live[seq % live.len()]`.
    live: Vec<usize>,
    /// Bumped every time the live set changes.
    epoch: u64,
}

impl PartitionMap {
    /// The identity map over `num_cores` live positions.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    #[must_use]
    pub fn identity(num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one partition");
        Self {
            total: num_cores,
            live: (0..num_cores).collect(),
            epoch: 0,
        }
    }

    /// Number of positions the join started with.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of live positions.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The live positions, ascending.
    #[must_use]
    pub fn live(&self) -> &[usize] {
        &self.live
    }

    /// True while no position has been retired (owner == `seq % total`).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.live.len() == self.total
    }

    /// True when `position` is still live.
    #[must_use]
    pub fn is_live(&self, position: usize) -> bool {
        if self.is_full() {
            position < self.total
        } else {
            self.live.binary_search(&position).is_ok()
        }
    }

    /// Times the live set has changed.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The live position that owns storage turn `seq`.
    ///
    /// # Panics
    ///
    /// Panics if no positions are live.
    #[must_use]
    pub fn owner(&self, seq: u64) -> usize {
        if self.is_full() {
            // Fast path: the original decentralized modulo.
            (seq % self.total as u64) as usize
        } else {
            assert!(!self.live.is_empty(), "no live partitions");
            self.live[(seq % self.live.len() as u64) as usize]
        }
    }

    /// Retires `position` from the live set, re-partitioning future turns
    /// over the survivors. Returns `false` if it was already retired.
    pub fn retire(&mut self, position: usize) -> bool {
        match self.live.binary_search(&position) {
            Ok(idx) => {
                self.live.remove(idx);
                self.epoch += 1;
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_map_is_the_plain_modulo() {
        let map = PartitionMap::identity(4);
        assert!(map.is_full());
        for seq in 0..100u64 {
            assert_eq!(map.owner(seq), (seq % 4) as usize);
        }
    }

    #[test]
    fn retiring_redistributes_over_survivors() {
        let mut map = PartitionMap::identity(4);
        assert!(map.retire(1));
        assert!(!map.retire(1), "second retire is a no-op");
        assert_eq!(map.live(), &[0, 2, 3]);
        assert_eq!(map.epoch(), 1);
        assert!(!map.is_live(1));
        // Turns cycle over the three survivors.
        let owners: Vec<usize> = (0..6u64).map(|s| map.owner(s)).collect();
        assert_eq!(owners, vec![0, 2, 3, 0, 2, 3]);
    }

    #[test]
    fn survivor_shares_are_balanced() {
        let mut map = PartitionMap::identity(8);
        map.retire(0);
        map.retire(5);
        let mut counts = [0u32; 8];
        for seq in 0..6_000u64 {
            counts[map.owner(seq)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[5], 0);
        for w in [1, 2, 3, 4, 6, 7] {
            assert_eq!(counts[w], 1_000, "worker {w} share");
        }
    }

    #[test]
    #[should_panic(expected = "no live partitions")]
    fn owner_panics_with_no_survivors() {
        let mut map = PartitionMap::identity(1);
        map.retire(0);
        let _ = map.owner(0);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = PartitionMap::identity(0);
    }
}
