//! Blocked batch×window probe kernels — the software analog of the
//! paper's comparator array.
//!
//! The hardware join wins by evaluating many comparators per cycle; the
//! scalar software path pays O(window) per probe with a fresh pass over
//! the stored keys for every tuple. These kernels restructure that work
//! as a *block*: all B probe keys of a distribution batch are compared
//! against the window's struct-of-arrays key slice in cache-sized tiles
//! of [`TILE_KEYS`] keys, so each tile is loaded from memory once and
//! reused across the whole batch instead of B times.
//!
//! The inner loops are 8-wide manually unrolled compare-and-accumulate
//! (counting) or compare-and-mask (materializing) sweeps over plain
//! `u32` slices; on stable Rust the autovectorizer lowers them to SIMD
//! compares. The materializing path first builds an 8-bit match mask
//! per key group and then walks its set bits (`trailing_zeros` +
//! clear-lowest-bit), which keeps the hot compare loop branch-free —
//! mispredicted per-key `if match { push }` branches are what make the
//! scalar emitter slow on selective predicates.
//!
//! Per-predicate specializations mirror
//! [`JoinPredicate::count_matches`]: the predicate dispatch and the
//! [`JoinPredicate::LessThan`] orientation are hoisted out of the loops,
//! and [`JoinPredicate::All`] short-circuits to `B * window` without
//! touching a single key.
//!
//! ```
//! use streamcore::kernel::{count_block, KernelStats};
//! use streamcore::JoinPredicate;
//!
//! let probes = [3u32, 5, 7, 9];
//! let window = [5u32, 5, 9, 11, 2];
//! let mut stats = KernelStats::default();
//! let n = count_block(JoinPredicate::Equi, true, &probes, &window, &mut stats);
//! assert_eq!(n, 3); // 5 twice, 9 once
//! assert_eq!(stats.lanes, (probes.len() * window.len()) as u64);
//! ```

use crate::JoinPredicate;

/// Keys per tile of the blocked sweep. 1024 × 4-byte keys = 4 KiB, far
/// inside L1, so a tile stays resident while every probe of the batch
/// sweeps it.
pub const TILE_KEYS: usize = 1024;

/// Below this many probes a blocked pass cannot amortize its per-batch
/// setup (window snapshotting in the caller); callers fall back to the
/// scalar per-tuple path and count the probes in
/// [`KernelStats::scalar_fallbacks`].
pub const MIN_BLOCK_PROBES: usize = 8;

/// Telemetry for the blocked kernels, surfaced as `splitjoin.kernel.*`
/// in run manifests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Key tiles swept (a tile shorter than [`TILE_KEYS`] still counts
    /// as one). [`JoinPredicate::All`] blocks short-circuit and sweep
    /// zero tiles.
    pub tiles: u64,
    /// Probe×key comparator lanes evaluated (logical lanes for the
    /// `All` short-circuit).
    pub lanes: u64,
    /// Lanes that matched — set bits across all produced masks.
    pub match_bits: u64,
    /// Probes handled by the scalar path instead: batches below
    /// [`MIN_BLOCK_PROBES`], plus per-probe correction scans the caller
    /// runs outside the block (expired snapshot prefixes, intra-batch
    /// stores).
    pub scalar_fallbacks: u64,
}

impl KernelStats {
    /// Folds another worker's counters into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.tiles += other.tiles;
        self.lanes += other.lanes;
        self.match_bits += other.match_bits;
        self.scalar_fallbacks += other.scalar_fallbacks;
    }

    /// Match-bit density in fixed-point thousandths (`match_bits /
    /// lanes × 1000`), the registry's fraction idiom. Zero when no
    /// lanes ran.
    #[must_use]
    pub fn density_x1000(&self) -> u64 {
        (self.match_bits * 1000).checked_div(self.lanes).unwrap_or(0)
    }
}

/// Sums a predicate over one 8-key group against one probe key. The
/// eight independent terms are what the autovectorizer turns into a
/// SIMD compare + accumulate.
#[inline(always)]
fn sum8(g: &[u32], p: u32, f: impl Fn(u32, u32) -> bool + Copy) -> u32 {
    (f(g[0], p) as u32)
        + (f(g[1], p) as u32)
        + (f(g[2], p) as u32)
        + (f(g[3], p) as u32)
        + (f(g[4], p) as u32)
        + (f(g[5], p) as u32)
        + (f(g[6], p) as u32)
        + (f(g[7], p) as u32)
}

/// Builds the 8-bit match mask of one key group against one probe key
/// (bit i set ⇔ `f(g[i], p)`).
#[inline(always)]
fn mask8(g: &[u32], p: u32, f: impl Fn(u32, u32) -> bool + Copy) -> u32 {
    (f(g[0], p) as u32)
        | ((f(g[1], p) as u32) << 1)
        | ((f(g[2], p) as u32) << 2)
        | ((f(g[3], p) as u32) << 3)
        | ((f(g[4], p) as u32) << 4)
        | ((f(g[5], p) as u32) << 5)
        | ((f(g[6], p) as u32) << 6)
        | ((f(g[7], p) as u32) << 7)
}

/// The blocked counting sweep, monomorphized per predicate arm.
/// Probes advance in register quads so four probe keys share every
/// 8-key tile load (4 × 8 comparator lanes per unrolled step).
#[inline(always)]
fn count_block_with(
    probes: &[u32],
    keys: &[u32],
    stats: &mut KernelStats,
    f: impl Fn(u32, u32) -> bool + Copy,
) -> u64 {
    let mut total = 0u64;
    for tile in keys.chunks(TILE_KEYS) {
        stats.tiles += 1;
        stats.lanes += (tile.len() * probes.len()) as u64;
        let mut quads = probes.chunks_exact(4);
        for q in quads.by_ref() {
            let (p0, p1, p2, p3) = (q[0], q[1], q[2], q[3]);
            // Per-probe accumulators stay u32: a tile holds at most
            // TILE_KEYS keys, far below u32::MAX.
            let (mut a0, mut a1, mut a2, mut a3) = (0u32, 0u32, 0u32, 0u32);
            let mut groups = tile.chunks_exact(8);
            for g in groups.by_ref() {
                a0 += sum8(g, p0, f);
                a1 += sum8(g, p1, f);
                a2 += sum8(g, p2, f);
                a3 += sum8(g, p3, f);
            }
            for &k in groups.remainder() {
                a0 += f(k, p0) as u32;
                a1 += f(k, p1) as u32;
                a2 += f(k, p2) as u32;
                a3 += f(k, p3) as u32;
            }
            total += u64::from(a0) + u64::from(a1) + u64::from(a2) + u64::from(a3);
        }
        for &p in quads.remainder() {
            let mut acc = 0u32;
            let mut groups = tile.chunks_exact(8);
            for g in groups.by_ref() {
                acc += sum8(g, p, f);
            }
            for &k in groups.remainder() {
                acc += f(k, p) as u32;
            }
            total += u64::from(acc);
        }
    }
    stats.match_bits += total;
    total
}

/// The blocked materializing sweep: per 8-key group build the match
/// mask, then emit only its set bits.
#[inline(always)]
fn emit_block_with(
    probes: &[u32],
    keys: &[u32],
    stats: &mut KernelStats,
    f: impl Fn(u32, u32) -> bool + Copy,
    on_match: &mut impl FnMut(usize, usize),
) {
    let mut base = 0usize;
    for tile in keys.chunks(TILE_KEYS) {
        stats.tiles += 1;
        stats.lanes += (tile.len() * probes.len()) as u64;
        for (pi, &p) in probes.iter().enumerate() {
            let mut off = 0usize;
            let mut groups = tile.chunks_exact(8);
            for g in groups.by_ref() {
                let mut mask = mask8(g, p, f);
                stats.match_bits += u64::from(mask.count_ones());
                while mask != 0 {
                    let bit = mask.trailing_zeros() as usize;
                    on_match(pi, base + off + bit);
                    mask &= mask - 1;
                }
                off += 8;
            }
            for (i, &k) in groups.remainder().iter().enumerate() {
                if f(k, p) {
                    stats.match_bits += 1;
                    on_match(pi, base + off + i);
                }
            }
        }
        base += tile.len();
    }
}

/// Counts all matching (probe, key) pairs of a batch of probe keys
/// against a window key slice.
///
/// Equivalent to summing [`JoinPredicate::count_matches`] over the
/// probes, but tiled so every [`TILE_KEYS`]-key slice of the window is
/// loaded once for the whole batch. `probe_is_r` orients the one
/// asymmetric predicate exactly as `count_matches` does.
pub fn count_block(
    pred: JoinPredicate,
    probe_is_r: bool,
    probes: &[u32],
    keys: &[u32],
    stats: &mut KernelStats,
) -> u64 {
    match pred {
        JoinPredicate::Equi => count_block_with(probes, keys, stats, |k, p| k == p),
        JoinPredicate::Band { delta } => {
            count_block_with(probes, keys, stats, move |k, p| k.abs_diff(p) <= delta)
        }
        JoinPredicate::LessThan => {
            if probe_is_r {
                count_block_with(probes, keys, stats, |k, p| p < k)
            } else {
                count_block_with(probes, keys, stats, |k, p| k < p)
            }
        }
        JoinPredicate::All => {
            // Cross product: every lane matches, so the count is known
            // without sweeping a single tile.
            let n = probes.len() as u64 * keys.len() as u64;
            stats.lanes += n;
            stats.match_bits += n;
            n
        }
    }
}

/// Emits every matching `(probe_idx, key_idx)` pair of a batch of probe
/// keys against a window key slice, per probe in ascending key order.
///
/// The pair indices let the caller materialize full tuples from its own
/// payload arrays (and filter per-probe index ranges, e.g. entries that
/// had already slid out of the window at that probe's logical time).
pub fn emit_block(
    pred: JoinPredicate,
    probe_is_r: bool,
    probes: &[u32],
    keys: &[u32],
    stats: &mut KernelStats,
    mut on_match: impl FnMut(usize, usize),
) {
    match pred {
        JoinPredicate::Equi => emit_block_with(probes, keys, stats, |k, p| k == p, &mut on_match),
        JoinPredicate::Band { delta } => emit_block_with(
            probes,
            keys,
            stats,
            move |k, p| k.abs_diff(p) <= delta,
            &mut on_match,
        ),
        JoinPredicate::LessThan => {
            if probe_is_r {
                emit_block_with(probes, keys, stats, |k, p| p < k, &mut on_match)
            } else {
                emit_block_with(probes, keys, stats, |k, p| k < p, &mut on_match)
            }
        }
        JoinPredicate::All => {
            let n = probes.len() as u64 * keys.len() as u64;
            stats.lanes += n;
            stats.match_bits += n;
            for pi in 0..probes.len() {
                for ki in 0..keys.len() {
                    on_match(pi, ki);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761) % 97).collect()
    }

    fn reference_count(
        pred: JoinPredicate,
        probe_is_r: bool,
        probes: &[u32],
        window: &[u32],
    ) -> u64 {
        probes
            .iter()
            .map(|&p| {
                window
                    .iter()
                    .filter(|&&k| {
                        if probe_is_r {
                            pred.matches_keys(p, k)
                        } else {
                            pred.matches_keys(k, p)
                        }
                    })
                    .count() as u64
            })
            .sum()
    }

    const PREDICATES: [JoinPredicate; 5] = [
        JoinPredicate::Equi,
        JoinPredicate::Band { delta: 0 },
        JoinPredicate::Band { delta: 5 },
        JoinPredicate::LessThan,
        JoinPredicate::All,
    ];

    #[test]
    fn count_block_matches_reference_across_shapes() {
        // Sizes straddle the 8-wide unroll, the probe quads, and the
        // tile boundary.
        for &np in &[1usize, 3, 4, 7, 8, 9, 31] {
            for &nk in &[0usize, 1, 7, 8, 9, 64, TILE_KEYS - 1, TILE_KEYS + 3] {
                let probes = keys(np);
                let window = keys(nk);
                for pred in PREDICATES {
                    for probe_is_r in [true, false] {
                        let mut stats = KernelStats::default();
                        let got = count_block(pred, probe_is_r, &probes, &window, &mut stats);
                        let want = reference_count(pred, probe_is_r, &probes, &window);
                        assert_eq!(got, want, "{pred:?} r={probe_is_r} np={np} nk={nk}");
                        assert_eq!(stats.match_bits, want);
                        assert_eq!(stats.lanes, (np * nk) as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn emit_block_agrees_with_count_and_orders_keys_per_probe() {
        let probes = keys(13);
        let window = keys(200);
        for pred in PREDICATES {
            for probe_is_r in [true, false] {
                let mut stats = KernelStats::default();
                let mut pairs = Vec::new();
                emit_block(pred, probe_is_r, &probes, &window, &mut stats, |pi, ki| {
                    pairs.push((pi, ki));
                });
                let want = reference_count(pred, probe_is_r, &probes, &window);
                assert_eq!(pairs.len() as u64, want, "{pred:?} r={probe_is_r}");
                assert_eq!(stats.match_bits, want);
                for (pi, ki) in &pairs {
                    let (p, k) = (probes[*pi], window[*ki]);
                    let hit = if probe_is_r {
                        pred.matches_keys(p, k)
                    } else {
                        pred.matches_keys(k, p)
                    };
                    assert!(hit, "{pred:?} emitted non-match ({pi}, {ki})");
                }
                // Per probe, key indices come out ascending (callers
                // range-filter on them).
                let mut per_probe = vec![Vec::new(); probes.len()];
                for (pi, ki) in pairs {
                    per_probe[pi].push(ki);
                }
                for kis in per_probe {
                    assert!(kis.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    #[test]
    fn all_predicate_short_circuits_without_tiles() {
        let probes = keys(16);
        let window = keys(3 * TILE_KEYS);
        let mut stats = KernelStats::default();
        let n = count_block(JoinPredicate::All, true, &probes, &window, &mut stats);
        assert_eq!(n, (16 * 3 * TILE_KEYS) as u64);
        assert_eq!(stats.tiles, 0, "All must not sweep tiles");
        assert_eq!(stats.density_x1000(), 1000);
    }

    #[test]
    fn band_edges_saturate_correctly() {
        // abs_diff handles the 0 / u32::MAX rim without overflow.
        let probes = [0u32, u32::MAX];
        let window = [0u32, 1, u32::MAX - 1, u32::MAX];
        let mut stats = KernelStats::default();
        let n = count_block(
            JoinPredicate::Band { delta: 1 },
            true,
            &probes,
            &window,
            &mut stats,
        );
        assert_eq!(n, 4); // 0→{0,1}, MAX→{MAX-1,MAX}
        let mut stats = KernelStats::default();
        let all = count_block(
            JoinPredicate::Band { delta: u32::MAX },
            false,
            &probes,
            &window,
            &mut stats,
        );
        assert_eq!(all, 8);
    }

    #[test]
    fn stats_merge_and_density() {
        let mut a = KernelStats {
            tiles: 1,
            lanes: 100,
            match_bits: 10,
            scalar_fallbacks: 2,
        };
        let b = KernelStats {
            tiles: 2,
            lanes: 100,
            match_bits: 40,
            scalar_fallbacks: 0,
        };
        a.merge(&b);
        assert_eq!(a.tiles, 3);
        assert_eq!(a.lanes, 200);
        assert_eq!(a.density_x1000(), 250);
        assert_eq!(KernelStats::default().density_x1000(), 0);
    }
}
