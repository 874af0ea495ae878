//! The metric cells — [`Counter`] and [`Gauge`] — and the [`Registry`]
//! that names them.
//!
//! A cell is one relaxed shared atomic: the instrumented thread updates
//! it, and a sampler or a shutdown path reads the same value
//! from any other thread. A component either owns a detached cell
//! ([`Counter::new`]) or asks a [`Registry`] for a named one; reading
//! every named cell at once gives a [`Values`] map.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::values::{Snapshot, Values};

/// A monotonically increasing event counter.
///
/// One relaxed `fetch_add` per update, readable from any thread.
/// **`Clone` shares the cell**: both handles observe the same evolving
/// value — this is the one `Clone` contract of every cell in the crate
/// ([`Gauge`] included), and what lets an engine hand one handle to its
/// worker thread and another to a [`Registry`].
///
/// ```
/// let stalls = obs::Counter::new();
/// let seen_elsewhere = stalls.clone();
/// stalls.incr();
/// stalls.add(2);
/// assert_eq!(seen_elsewhere.get(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a detached counter at zero (use [`Registry::counter`] for
    /// a named one).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value gauge (a high-water mark, a queue depth, a knob).
///
/// Same cost model and sharing contract as [`Counter`]: relaxed atomic
/// stores, `Clone` shares the cell.
///
/// ```
/// let depth = obs::Gauge::new();
/// depth.set(7);
/// depth.max(3); // keeps 7
/// depth.max(9); // takes 9
/// assert_eq!(depth.get(), 9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a detached gauge at zero (use [`Registry::gauge`] for a
    /// named one).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Whether a registry entry is a counter (monotone) or a gauge
/// (last-value), as [`Registry::entries`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing ([`Counter`]).
    Counter,
    /// Last value written ([`Gauge`]).
    Gauge,
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
}

/// The named store of metric cells.
///
/// Cloning the registry shares the store; [`Registry::counter`] /
/// [`Registry::gauge`] register-or-reuse by name, so an engine spawned
/// twice in one process keeps accumulating into the same cells;
/// [`Registry::fresh_gauge`] instead gives each owner a cell of its own
/// and hands the name to the newest.
/// Registration takes a mutex (cold path, spawn time); updates through
/// the returned handles are lock-free relaxed atomics (hot path).
/// [`crate::live::global`] is the process-wide instance.
///
/// Asking for an existing name with the *other* kind returns a fresh
/// detached handle instead of panicking — telemetry must never take an
/// engine down.
///
/// ```
/// let reg = obs::Registry::new();
/// let tuples = reg.counter("splitjoin.tuples");
/// reg.gauge("splitjoin.worker.0.ring_occupancy").set(3);
/// tuples.add(256);
/// assert_eq!(reg.values().get("splitjoin.tuples"), Some(256));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Slot>>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it at zero
    /// on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Counter::new()))
        {
            Slot::Counter(c) => c.clone(),
            Slot::Gauge(_) => Counter::new(),
        }
    }

    /// Returns the gauge registered under `name`, creating it at zero on
    /// first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Gauge::new()))
        {
            Slot::Gauge(g) => g.clone(),
            Slot::Counter(_) => Gauge::new(),
        }
    }

    /// Registers a new gauge at zero under `name`, taking the name from
    /// whatever held it: for a cell that must stay its owner's alone.
    /// Handles the name gave out before keep working, detached.
    #[must_use]
    pub fn fresh_gauge(&self, name: &str) -> Gauge {
        let gauge = Gauge::new();
        let mut map = self.inner.lock().expect("registry poisoned");
        map.insert(name.to_string(), Slot::Gauge(gauge.clone()));
        gauge
    }

    /// Unregisters every entry whose name starts with `prefix`, so a
    /// registry whose owners come and go (standing queries) does not
    /// grow forever. Handles already handed out keep working, detached,
    /// and keep their values. The match is textual: pass the trailing
    /// separator (`"query.q1."`, not `"query.q1"`, which would also take
    /// `query.q10.*`).
    pub fn remove_prefix(&self, prefix: &str) {
        use std::ops::Bound;
        let mut map = self.inner.lock().expect("registry poisoned");
        let doomed: Vec<String> = map
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(name, _)| name.clone())
            .collect();
        for name in doomed {
            map.remove(&name);
        }
    }

    /// Every entry as `(name, value, kind)`, in name order. One call is
    /// one consistent pass over the map, but values are read with relaxed
    /// loads — a reading is *approximately* simultaneous, which is all
    /// rate estimation needs.
    #[must_use]
    pub fn entries(&self) -> Vec<(String, u64, MetricKind)> {
        let map = self.inner.lock().expect("registry poisoned");
        map.iter()
            .map(|(name, slot)| match slot {
                Slot::Counter(c) => (name.clone(), c.get(), MetricKind::Counter),
                Slot::Gauge(g) => (name.clone(), g.get(), MetricKind::Gauge),
            })
            .collect()
    }

    /// The current value of every entry, frozen.
    #[must_use]
    pub fn values(&self) -> Values {
        self.entries()
            .into_iter()
            .map(|(name, value, _)| (name, value))
            .collect()
    }

    /// [`Registry::values`] stamped with the capture time.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            t_ns: crate::trace::now_ns(),
            values: self.values(),
        }
    }

    /// Number of registered cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("registry poisoned").len()
    }

    /// True when no cells are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_cell() {
        let c = Counter::new();
        let d = c.clone();
        c.add(5);
        d.incr();
        assert_eq!((c.get(), d.get()), (6, 6));

        let g = Gauge::new();
        let h = g.clone();
        g.set(5);
        h.max(3);
        assert_eq!((g.get(), h.get()), (5, 5));
        h.max(8);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn registry_reuses_handles_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x.n");
        let b = reg.counter("x.n");
        a.add(2);
        b.add(3);
        assert_eq!(reg.values().get("x.n"), Some(5));
        assert_eq!(reg.len(), 1);

        let g = reg.gauge("x.depth");
        g.set(7);
        g.max(3);
        let values = reg.clone().values();
        assert_eq!(values.get("x.depth"), Some(7));
        let names: Vec<_> = values.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["x.depth", "x.n"]);
    }

    #[test]
    fn kind_mismatch_returns_a_detached_handle() {
        let reg = Registry::new();
        let _ = reg.counter("m");
        let g = reg.gauge("m"); // wrong kind: detached, never panics
        g.set(99);
        assert_eq!(reg.values().get("m"), Some(0));
    }

    #[test]
    fn a_fresh_gauge_takes_the_name_and_detaches_the_old_handle() {
        let reg = Registry::new();
        let old = reg.gauge("w.0.tuples");
        old.set(5);
        let new = reg.fresh_gauge("w.0.tuples");
        assert_eq!(reg.values().get("w.0.tuples"), Some(0));
        old.set(9);
        new.set(2);
        assert_eq!((old.get(), reg.values().get("w.0.tuples")), (9, Some(2)));
    }

    #[test]
    fn remove_prefix_unregisters_exactly_the_prefixed_entries() {
        let reg = Registry::new();
        let rows = reg.counter("query.q1.rows");
        let _ = reg.counter("query.q1.matches_in");
        let _ = reg.counter("query.q10.rows");
        let _ = reg.gauge("group.g.depth");
        rows.add(2);
        reg.remove_prefix("query.q1.");
        let names: Vec<_> = reg.entries().into_iter().map(|(name, _, _)| name).collect();
        assert_eq!(names, ["group.g.depth", "query.q10.rows"]);
        // The detached handle keeps its value and still counts; a
        // re-registration starts over.
        rows.add(3);
        assert_eq!(rows.get(), 5);
        assert_eq!(reg.counter("query.q1.rows").get(), 0);
        reg.remove_prefix("nothing.");
        assert_eq!(reg.len(), 3);
    }
}
