//! Golden regression fixtures: exact cycle counts of the paper-figure
//! anchor configurations, snapshotted from the cycle-accurate simulation.
//!
//! These pin the *simulated machine*, not the paper's numbers: any change
//! to the FSMs, FIFOs, networks, or the scheduling layer that shifts a
//! single cycle shows up here. If a change is intentional, regenerate the
//! values with the corresponding harness calls (the configurations are
//! spelled out field by field below) and update them in the same commit
//! that changes the behavior.

/// Fig. 14a anchors — uni-flow, lightweight networks, window 2^11,
/// saturation run of 128 tuples with key domain 2^20:
/// `(cores, accepted_tuples, cycles, results)`.
pub const FIG14A_THROUGHPUT: &[(u32, u64, u64, u64)] = &[
    (2, 128, 123_911, 2),
    (4, 128, 61_959, 2),
    (8, 128, 30_983, 2),
    (16, 128, 15_495, 2),
];

/// Fig. 14b anchors — bi-flow chain, saturation run of `accepted_tuples`
/// tuples with key domain 2^20: `(cores, window, accepted_tuples, cycles,
/// results)`. The last row is the ledger's `sim_biflow` design, whose run
/// produces results.
pub const FIG14B_BIFLOW_THROUGHPUT: &[(u32, usize, u64, u64, u64)] = &[
    (4, 64, 24, 1_598, 0),
    (16, 128, 24, 3_698, 0),
    (16, 1 << 12, 25, 91_170, 2),
];

/// Fig. 14b latency anchor — bi-flow chain, one planted match per core
/// (probe key 7): `(cores, window, cycles_to_last_result,
/// cycles_to_quiescent, results)`.
pub const FIG14B_BIFLOW_LATENCY: &[(u32, usize, u64, u64, u64)] =
    &[(16, 1 << 12, 4_384, 4_384, 16)];

/// Fig. 15 anchors — uni-flow latency probe, window 2^13, one planted
/// match per core (probe key 7): `(cores, scalable, cycles_to_last_result,
/// cycles_to_quiescent, results)`.
pub const FIG15_LATENCY: &[(u32, bool, u64, u64, u64)] = &[
    (2, false, 4_101, 4_101, 2),
    (8, false, 1_035, 1_035, 8),
    (8, true, 1_041, 1_041, 8),
];

/// `figs hashjoin` anchors — uni-flow, 16 hash-join cores, window 2^12,
/// lightweight networks, steady-state prefill, saturation run of
/// `accepted_tuples` tuples: `(key_domain, accepted_tuples, cycles,
/// results)`. Sequential engine only.
pub const HASHJOIN_THROUGHPUT: &[(u32, u64, u64, u64)] =
    &[(1 << 16, 512, 514, 32), (64, 512, 1_122, 992)];

/// Hash-core latency anchor — the same design, one planted match per
/// core (probe key 7): `(cycles_to_last_result, cycles_to_quiescent,
/// results)`. Sequential engine only.
pub const HASHJOIN_LATENCY: (u64, u64, u64) = (20, 20, 16);
