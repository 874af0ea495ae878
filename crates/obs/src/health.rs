//! Health: what a live series says about its run — which worker went
//! silent, which ring filled, whether the pool ran out of service
//! capacity, and when.
//!
//! `joinsw::supervise` only reports saturation *after* its 10-second
//! deadline expires; by then the run is already lost. [`Health::derive`]
//! reads the leading indicators from two consecutive [`Snapshot`]s, and
//! [`Health::pressured`] returns a [`Reason`] for each one that reached
//! its threshold: the key it read, its value, and the constant reached.
//! [`unhealthy`] walks a parsed [`SeriesDoc`] and returns the stretches
//! of the run that had reasons. It needs nothing but the file, and since
//! every line is written whole, a reader tailing a live run's file gets
//! the same answer for the prefix it has.
//!
//! The derivation is name-convention based, matching what the engines
//! publish (see the workspace `ARCHITECTURE.md` for the full key list):
//!
//! * `*.busy_ns` / `*.wait_ns` — summed deltas ([`Snapshot::delta`],
//!   which reads a fall as an engine spawned later restarting the name)
//!   give the pool's busy fraction.
//! * `<engine>.worker.<i>.ring_occupancy` over its own engine's
//!   `<engine>.ring.capacity`, at both ends of the interval — the
//!   pressure on each core's inbox.
//! * `*.last_beat_ns` — the instant each worker was last seen alive, on
//!   the sample's clock ([`crate::trace::now_ns`]). The sample's `t_ns`
//!   minus that stamp is how long the worker has been silent; a stamp of
//!   0 means the worker is not running, and is never silent. The reader
//!   computes the silence, so it keeps growing while nothing but the
//!   worker itself could have refreshed it.
//!
//! # Example
//!
//! ```
//! use obs::health::Health;
//! use obs::Snapshot;
//!
//! let prev = Snapshot { t_ns: 0, values: [
//!     ("splitjoin.worker.0.busy_ns", 0),
//!     ("splitjoin.worker.0.wait_ns", 0),
//! ].into_iter().collect() };
//! let cur = Snapshot { t_ns: 4_000_000_000, values: [
//!     ("splitjoin.worker.0.busy_ns", 900_000_000),
//!     ("splitjoin.worker.0.wait_ns", 100_000_000),
//!     ("splitjoin.worker.1.last_beat_ns", 1_000_000_000),
//! ].into_iter().collect() };
//! let h = Health::derive(&prev, &cur);
//! assert_eq!(h.busy_fraction, Some(0.9));
//! let reasons = h.pressured();
//! assert_eq!(reasons.len(), 1);
//! assert_eq!(
//!     reasons[0].to_string(),
//!     "splitjoin.worker.1.last_beat_ns = 3000000000 >= PRESSURE_HEARTBEAT_AGE_NS"
//! );
//! ```

use std::fmt;

use crate::series::SeriesDoc;
use crate::Snapshot;

/// Ring occupancy fraction at which a lane is reported full.
pub const PRESSURE_OCCUPANCY_FRACTION: f64 = 0.75;

/// Worker silence at which a worker is reported stalled: a quarter
/// of `joinsw::supervise`'s 10-second saturation deadline, so a stalled
/// worker is visible with 7.5 seconds of headroom.
pub const PRESSURE_HEARTBEAT_AGE_NS: u64 = 2_500_000_000;

/// Busy fraction at which the pool is reported saturated (it has no
/// spare service capacity left).
pub const PRESSURE_BUSY_FRACTION: f64 = 0.95;

/// The readings of one sampling interval that the pressure thresholds
/// apply to.
///
/// A key the producing engine does not publish simply yields no reading
/// and never contributes to [`Health::pressured`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Health {
    /// Σ Δ`*.busy_ns` / (Σ Δ`*.busy_ns` + Σ Δ`*.wait_ns`) across every
    /// instrumented worker; `None` when nothing reported either.
    pub busy_fraction: Option<f64>,
    /// Every non-zero `*.last_beat_ns` stamp of the later snapshot, as
    /// nanoseconds of silence up to its `t_ns` (0 for a stamp taken after
    /// the sample's clock read).
    pub silences: Vec<(String, u64)>,
    /// Every `<engine>.worker.<i>.ring_occupancy` key in both snapshots,
    /// read as the lower of its two values over `<engine>.ring.capacity`
    /// (none without a capacity): a lane counts as full only when it is
    /// full at both ends of the interval, not when one push found it
    /// momentarily so.
    pub occupancy: Vec<(String, f64)>,
}

/// One reading that reached its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Reason {
    /// The key read; `*.busy_ns` for the pool-wide busy fraction.
    pub key: String,
    /// The reading: nanoseconds for a silence, a fraction for
    /// occupancy and busy time.
    pub value: f64,
    /// The name of the constant reached, e.g.
    /// `"PRESSURE_HEARTBEAT_AGE_NS"`.
    pub threshold: &'static str,
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = ", self.key)?;
        if self.value.fract() == 0.0 {
            write!(f, "{}", self.value)?;
        } else {
            write!(f, "{:.3}", self.value)?;
        }
        write!(f, " >= {}", self.threshold)
    }
}

impl Health {
    /// Derives the readings from two snapshots (`prev` taken before
    /// `cur`).
    #[must_use]
    pub fn derive(prev: &Snapshot, cur: &Snapshot) -> Self {
        let mut health = Self::default();
        let (mut busy, mut wait) = (0u64, 0u64);
        for (name, value) in cur.values.iter() {
            if name.ends_with(".busy_ns") {
                busy += cur.delta(prev, name).unwrap_or(0);
            } else if name.ends_with(".wait_ns") {
                wait += cur.delta(prev, name).unwrap_or(0);
            } else if name.ends_with(".last_beat_ns") {
                if value != 0 {
                    let silence = cur.t_ns.saturating_sub(value);
                    health.silences.push((name.to_string(), silence));
                }
            } else if let Some((engine, _)) = name
                .strip_suffix(".ring_occupancy")
                .and_then(|lane| lane.split_once(".worker."))
            {
                let capacity = cur.values.get(&format!("{engine}.ring.capacity"));
                if let (Some(cap @ 1..), Some(before)) = (capacity, prev.values.get(name)) {
                    let fraction = value.min(before) as f64 / cap as f64;
                    health.occupancy.push((name.to_string(), fraction));
                }
            }
        }
        health.busy_fraction = (busy + wait > 0).then(|| busy as f64 / (busy + wait) as f64);
        health
    }

    /// Every reading that reached its threshold: a worker silent for
    /// ≥ [`PRESSURE_HEARTBEAT_AGE_NS`], a lane ≥
    /// [`PRESSURE_OCCUPANCY_FRACTION`] full, or the pool ≥
    /// [`PRESSURE_BUSY_FRACTION`] busy. Empty means healthy. A controller
    /// acting on these still has seconds of headroom; `Saturated` means
    /// it is too late.
    #[must_use]
    pub fn pressured(&self) -> Vec<Reason> {
        let reason = |key: &str, value: f64, threshold| Reason {
            key: key.to_string(),
            value,
            threshold,
        };
        let silent = self
            .silences
            .iter()
            .filter(|(_, ns)| *ns >= PRESSURE_HEARTBEAT_AGE_NS)
            .map(|(key, ns)| reason(key, *ns as f64, "PRESSURE_HEARTBEAT_AGE_NS"));
        let lanes = self
            .occupancy
            .iter()
            .filter(|(_, f)| *f >= PRESSURE_OCCUPANCY_FRACTION)
            .map(|(key, f)| reason(key, *f, "PRESSURE_OCCUPANCY_FRACTION"));
        let busy = self
            .busy_fraction
            .filter(|&f| f >= PRESSURE_BUSY_FRACTION)
            .map(|f| reason("*.busy_ns", f, "PRESSURE_BUSY_FRACTION"));
        silent.chain(lanes).chain(busy).collect()
    }
}

/// One stretch of a series in which every sampling interval had
/// reasons.
#[derive(Debug, Clone, PartialEq)]
pub struct Unhealthy {
    /// `t_ns` of the sample that opens the stretch.
    pub start_ns: u64,
    /// `t_ns` of the sample that closes it.
    pub end_ns: u64,
    /// Every reason its intervals had, once per key and threshold, at
    /// its peak value.
    pub reasons: Vec<Reason>,
}

/// The unhealthy stretches of a series: [`Health::pressured`] over every
/// pair of consecutive samples, adjacent unhealthy intervals merged.
/// Empty means the run was healthy throughout.
#[must_use]
pub fn unhealthy(doc: &SeriesDoc) -> Vec<Unhealthy> {
    let mut out: Vec<Unhealthy> = Vec::new();
    let mut open = false;
    for pair in doc.samples.windows(2) {
        let reasons = Health::derive(&pair[0], &pair[1]).pressured();
        if reasons.is_empty() {
            open = false;
            continue;
        }
        match out.last_mut() {
            Some(last) if open => {
                last.end_ns = pair[1].t_ns;
                for r in reasons {
                    let same = |k: &&mut Reason| k.key == r.key && k.threshold == r.threshold;
                    match last.reasons.iter_mut().find(same) {
                        Some(kept) => kept.value = kept.value.max(r.value),
                        None => last.reasons.push(r),
                    }
                }
            }
            _ => out.push(Unhealthy {
                start_ns: pair[0].t_ns,
                end_ns: pair[1].t_ns,
                reasons,
            }),
        }
        open = true;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesHeader;

    fn snap(t_ns: u64, values: &[(&str, u64)]) -> Snapshot {
        Snapshot {
            t_ns,
            values: values.iter().copied().collect(),
        }
    }

    #[test]
    fn empty_snapshots_derive_no_signals_and_no_pressure() {
        let h = Health::derive(&snap(0, &[]), &snap(10, &[]));
        assert_eq!(h, Health::default());
        assert!(h.pressured().is_empty());
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
        assert!(h.pressured().is_empty());
    }

    #[test]
    fn each_reason_fires_at_its_threshold_and_names_its_key() {
        const BEAT: &str = "splitjoin.worker.3.last_beat_ns";
        const LANE: &str = "splitjoin.worker.1.ring_occupancy";
        const CAP: &str = "splitjoin.ring.capacity";
        const CORE: &str = "handshake.worker.1.ring_occupancy";
        const CORE_CAP: &str = "handshake.ring.capacity";
        const AT: u64 = PRESSURE_HEARTBEAT_AGE_NS;
        /// `t_ns` of every `cur` snapshot below.
        const T: u64 = 2 * AT;
        type Readings = &'static [(&'static str, u64)];
        const IDLE: Readings = &[("w.busy_ns", 0), ("w.wait_ns", 0)];
        /// prev, cur, and the one reason expected as (key, threshold).
        type Case = (Readings, Readings, Option<(&'static str, &'static str)>);
        let table: [Case; 11] = [
            (
                &[],
                &[(BEAT, T - AT)],
                Some((BEAT, "PRESSURE_HEARTBEAT_AGE_NS")),
            ),
            (&[], &[(BEAT, T - AT + 1)], None),
            // Stamp 0: the worker is not running.
            (&[], &[(BEAT, 0)], None),
            // A stamp taken after the sample's clock read.
            (&[], &[(BEAT, T + 1)], None),
            (
                &[(LANE, 128)],
                &[(CAP, 128), (LANE, 96)],
                Some((LANE, "PRESSURE_OCCUPANCY_FRACTION")),
            ),
            (&[(LANE, 95)], &[(CAP, 128), (LANE, 128)], None),
            // Each lane against its own engine's capacity.
            (
                &[(CORE, 256), (LANE, 128)],
                &[(CAP, 1024), (CORE_CAP, 256), (CORE, 256), (LANE, 128)],
                Some((CORE, "PRESSURE_OCCUPANCY_FRACTION")),
            ),
            (&[(CORE, 128)], &[(CAP, 128), (CORE, 128)], None),
            (
                IDLE,
                &[("w.busy_ns", 95), ("w.wait_ns", 5)],
                Some(("*.busy_ns", "PRESSURE_BUSY_FRACTION")),
            ),
            (IDLE, &[("w.busy_ns", 94), ("w.wait_ns", 6)], None),
            // Both fall: a newer engine restarted the names, and the
            // later values are the interval's increase.
            (
                &[("w.busy_ns", 1_000), ("w.wait_ns", 1_000)],
                &[("w.busy_ns", 95), ("w.wait_ns", 5)],
                Some(("*.busy_ns", "PRESSURE_BUSY_FRACTION")),
            ),
        ];
        for (prev, cur, want) in table {
            let reasons = Health::derive(&snap(0, prev), &snap(T, cur)).pressured();
            let got: Vec<_> = reasons
                .iter()
                .map(|r| (r.key.as_str(), r.threshold))
                .collect();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "{cur:?}");
        }
        let silences = |stamp| Health::derive(&snap(0, &[]), &snap(T, &[(BEAT, stamp)])).silences;
        assert_eq!(silences(0), [], "stamp 0 is no reading");
        assert_eq!(silences(T + 1), [(BEAT.to_string(), 0)], "clamped to 0");
    }

    #[test]
    fn adjacent_unhealthy_intervals_merge_at_their_peak() {
        const BEAT: &str = "splitjoin.worker.1.last_beat_ns";
        let stalled = PRESSURE_HEARTBEAT_AGE_NS;
        // Samples every 10 ns from T0 on, each stamped `silence` before
        // its own clock read.
        const T0: u64 = 10 * PRESSURE_HEARTBEAT_AGE_NS;
        let silences = [0, stalled, stalled + 7, 0, stalled, 0];
        let doc = SeriesDoc {
            header: SeriesHeader::new("merge", 1),
            kinds: Default::default(),
            samples: silences
                .iter()
                .zip(0u64..)
                .map(|(&silence, i)| {
                    let t = T0 + i * 10;
                    snap(t, &[(BEAT, t - silence)])
                })
                .collect(),
        };
        let stretches = unhealthy(&doc);
        let spans: Vec<_> = stretches
            .iter()
            .map(|u| (u.start_ns - T0, u.end_ns - T0))
            .collect();
        assert_eq!(spans, [(0, 20), (30, 40)]);
        assert_eq!(stretches[0].reasons.len(), 1, "one reason per key");
        assert_eq!(stretches[0].reasons[0].value, (stalled + 7) as f64);
        assert_eq!(stretches[1].reasons[0].key, BEAT);
    }
}
