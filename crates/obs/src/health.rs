//! Derived health signals: the bridge from raw live samples to an
//! autoscaling / admission decision.
//!
//! `joinsw::supervise` only reports saturation *after* its 10-second
//! deadline expires; by then the run is already lost. [`Health::derive`]
//! turns two consecutive [`Snapshot`]s into the
//! leading indicators a controller needs — busy fraction, throughput
//! rate, ring occupancy, worker heartbeat age — and
//! [`Health::pressured`] flags approaching saturation long before the
//! deadline fires.
//!
//! The derivation is name-convention based, matching what the engines
//! publish (see the workspace `ARCHITECTURE.md` for the full key list):
//!
//! * `*.busy_ns` / `*.wait_ns` — summed deltas give the busy fraction.
//! * `splitjoin.tuples` / `splitjoin.matches` — deltas over elapsed time
//!   give rates.
//! * `splitjoin.ring.occupancy` / `splitjoin.ring.capacity` — queue
//!   pressure.
//! * `*.heartbeat_age_ns` — the max is the most-stalled worker.
//!
//! # Example
//!
//! ```
//! use obs::health::Health;
//! use obs::Snapshot;
//!
//! let prev = Snapshot { t_ns: 0, values: [
//!     ("splitjoin.tuples", 0),
//!     ("splitjoin.worker.0.busy_ns", 0),
//!     ("splitjoin.worker.0.wait_ns", 0),
//! ].into_iter().collect() };
//! let cur = Snapshot { t_ns: 1_000_000_000, values: [
//!     ("splitjoin.tuples", 1_000_000),
//!     ("splitjoin.worker.0.busy_ns", 900_000_000),
//!     ("splitjoin.worker.0.wait_ns", 100_000_000),
//! ].into_iter().collect() };
//! let h = Health::derive(&prev, &cur);
//! assert_eq!(h.tuples_per_sec, Some(1_000_000.0));
//! assert_eq!(h.busy_fraction, Some(0.9));
//! assert!(!h.pressured());
//! ```

use crate::Snapshot;

/// Ring occupancy fraction at which [`Health::pressured`] trips.
pub const PRESSURE_OCCUPANCY_FRACTION: f64 = 0.75;

/// Worker heartbeat age at which [`Health::pressured`] trips: a quarter
/// of `joinsw::supervise`'s 10-second saturation deadline, so a stalled
/// worker is visible with 7.5 seconds of headroom.
pub const PRESSURE_HEARTBEAT_AGE_NS: u64 = 2_500_000_000;

/// Busy fraction at which [`Health::pressured`] trips (the pool has no
/// spare service capacity left).
pub const PRESSURE_BUSY_FRACTION: f64 = 0.95;

/// Signals derived from two consecutive snapshots of the live registry.
///
/// Every field is `Option`al: a key the producing engine does not publish
/// (or an interval too short to rate) simply yields `None` and never
/// contributes to [`Health::pressured`].
#[derive(Debug, Clone, PartialEq)]
pub struct Health {
    /// Elapsed time between the two snapshots, nanoseconds.
    pub interval_ns: u64,
    /// Σ Δ`*.busy_ns` / (Σ Δ`*.busy_ns` + Σ Δ`*.wait_ns`) across every
    /// instrumented worker; `None` when nothing reported either.
    pub busy_fraction: Option<f64>,
    /// Δ`splitjoin.tuples` per second.
    pub tuples_per_sec: Option<f64>,
    /// Δ`splitjoin.matches` per second.
    pub matches_per_sec: Option<f64>,
    /// Current `splitjoin.ring.occupancy` (slots in flight on the fullest
    /// transport hop).
    pub ring_occupancy: Option<u64>,
    /// Current `splitjoin.ring.capacity`.
    pub ring_capacity: Option<u64>,
    /// Max over current `*.heartbeat_age_ns` — how long the most-stalled
    /// worker has gone without publishing.
    pub max_heartbeat_age_ns: Option<u64>,
    /// Current `splitjoin.workers.live`.
    pub workers_live: Option<u64>,
}

impl Health {
    /// Derives health from two snapshots (`prev` taken before `cur`).
    #[must_use]
    pub fn derive(prev: &Snapshot, cur: &Snapshot) -> Self {
        let mut busy = 0u64;
        let mut wait = 0u64;
        let mut saw_cycle_split = false;
        let mut max_age: Option<u64> = None;
        for (name, value) in cur.values.iter() {
            if name.ends_with(".busy_ns") {
                if let Some(d) = cur.delta(prev, name) {
                    busy += d;
                    saw_cycle_split = true;
                }
            } else if name.ends_with(".wait_ns") {
                if let Some(d) = cur.delta(prev, name) {
                    wait += d;
                    saw_cycle_split = true;
                }
            } else if name.ends_with(".heartbeat_age_ns") {
                max_age = Some(max_age.unwrap_or(0).max(value));
            }
        }
        let busy_fraction = if saw_cycle_split && busy + wait > 0 {
            Some(busy as f64 / (busy + wait) as f64)
        } else {
            None
        };
        Self {
            interval_ns: cur.t_ns.saturating_sub(prev.t_ns),
            busy_fraction,
            tuples_per_sec: cur.rate_per_sec(prev, "splitjoin.tuples"),
            matches_per_sec: cur.rate_per_sec(prev, "splitjoin.matches"),
            ring_occupancy: cur.values.get("splitjoin.ring.occupancy"),
            ring_capacity: cur.values.get("splitjoin.ring.capacity"),
            max_heartbeat_age_ns: max_age,
            workers_live: cur.values.get("splitjoin.workers.live"),
        }
    }

    /// Current ring occupancy as a fraction of capacity.
    #[must_use]
    pub fn occupancy_fraction(&self) -> Option<f64> {
        match (self.ring_occupancy, self.ring_capacity) {
            (Some(occ), Some(cap)) if cap > 0 => Some(occ as f64 / cap as f64),
            _ => None,
        }
    }

    /// The pre-`Saturated` pressure predicate: true when the system is
    /// approaching the state where `joinsw::supervise` would eventually
    /// give up — transport queues ≥ [`PRESSURE_OCCUPANCY_FRACTION`] full,
    /// a worker silent for ≥ [`PRESSURE_HEARTBEAT_AGE_NS`], or the pool
    /// ≥ [`PRESSURE_BUSY_FRACTION`] busy. A controller acting on this
    /// signal still has seconds of headroom; `Saturated` means it is too
    /// late.
    #[must_use]
    pub fn pressured(&self) -> bool {
        if self
            .occupancy_fraction()
            .is_some_and(|f| f >= PRESSURE_OCCUPANCY_FRACTION)
        {
            return true;
        }
        if self
            .max_heartbeat_age_ns
            .is_some_and(|age| age >= PRESSURE_HEARTBEAT_AGE_NS)
        {
            return true;
        }
        self.busy_fraction
            .is_some_and(|f| f >= PRESSURE_BUSY_FRACTION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(t_ns: u64, values: &[(&str, u64)]) -> Snapshot {
        Snapshot {
            t_ns,
            values: values.iter().copied().collect(),
        }
    }

    #[test]
    fn empty_snapshots_derive_no_signals_and_no_pressure() {
        let h = Health::derive(&snap(0, &[]), &snap(10, &[]));
        assert_eq!(h.interval_ns, 10);
        assert_eq!(h.busy_fraction, None);
        assert_eq!(h.tuples_per_sec, None);
        assert!(!h.pressured());
    }

    #[test]
    fn busy_fraction_sums_across_workers() {
        let prev = snap(
            0,
            &[
                ("splitjoin.worker.0.busy_ns", 0),
                ("splitjoin.worker.0.wait_ns", 0),
                ("splitjoin.worker.1.busy_ns", 0),
                ("splitjoin.worker.1.wait_ns", 0),
            ],
        );
        let cur = snap(
            1_000,
            &[
                ("splitjoin.worker.0.busy_ns", 600),
                ("splitjoin.worker.0.wait_ns", 400),
                ("splitjoin.worker.1.busy_ns", 200),
                ("splitjoin.worker.1.wait_ns", 800),
            ],
        );
        let h = Health::derive(&prev, &cur);
        assert_eq!(h.busy_fraction, Some(0.4));
        assert!(!h.pressured());
    }

    #[test]
    fn pressure_trips_on_each_leading_indicator() {
        // Queue nearly full.
        let cur = snap(
            10,
            &[
                ("splitjoin.ring.occupancy", 96),
                ("splitjoin.ring.capacity", 128),
            ],
        );
        let h = Health::derive(&snap(0, &[]), &cur);
        assert_eq!(h.occupancy_fraction(), Some(0.75));
        assert!(h.pressured());

        // Stalled worker.
        let cur = snap(
            10,
            &[(
                "splitjoin.worker.3.heartbeat_age_ns",
                PRESSURE_HEARTBEAT_AGE_NS,
            )],
        );
        assert!(Health::derive(&snap(0, &[]), &cur).pressured());

        // Pool saturated on service time.
        let prev = snap(0, &[("w.busy_ns", 0), ("w.wait_ns", 0)]);
        let cur = snap(100, &[("w.busy_ns", 99), ("w.wait_ns", 1)]);
        assert!(Health::derive(&prev, &cur).pressured());
    }
}
