//! The metric cell, [`Metric`], and the [`Registry`] that names cells
//! and fixes each name's [`MetricKind`].
//!
//! A cell is one relaxed shared atomic: the instrumented thread updates
//! it, and a sampler or a shutdown path reads the same value
//! from any other thread. A component either owns a detached cell
//! ([`Metric::new`]) or asks a [`Registry`] for a named one; reading
//! every named cell at once gives a [`Values`] map.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::values::Values;

/// A relaxed shared-atomic `u64`: a running total ([`Metric::add`]) or
/// a last value ([`Metric::set`]), as its [`MetricKind`] says.
///
/// **`Clone` shares the cell**: both handles observe the same evolving
/// value, which is what lets an engine hand one handle to its worker
/// thread and another to a [`Registry`].
///
/// ```
/// let stalls = obs::Metric::new();
/// let seen_elsewhere = stalls.clone();
/// stalls.add(1);
/// stalls.add(2);
/// assert_eq!(seen_elsewhere.get(), 3);
/// seen_elsewhere.set(7);
/// assert_eq!(stalls.get(), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metric {
    cell: Arc<AtomicU64>,
}

impl Metric {
    /// Creates a detached cell at zero (use [`Registry::metric`] for a
    /// named one).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (one relaxed `fetch_add`).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (one relaxed store).
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// What a named value means, fixed when the name is registered and
/// written into every series file beside its first sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A running total; a fall in its value is a restart (an engine
    /// spawned later took the name).
    Total,
    /// A depth, a capacity or a count of live things.
    Level,
    /// An instant on [`crate::trace::now_ns`]; 0 means "not running".
    Stamp,
}

/// The named store of metric cells, one [`MetricKind`] per name.
///
/// Cloning the registry shares the store. [`Registry::metric`]
/// registers-or-reuses by name, so an engine spawned twice in one
/// process keeps accumulating into the same cells; [`Registry::own`]
/// instead gives each owner a cell of its own and hands the name to the
/// newest. Registration takes a mutex (cold path, spawn time); updates
/// through the returned handles are lock-free relaxed atomics (hot
/// path). [`crate::live::global`] is the process-wide instance.
///
/// Asking for an existing name with *another* kind returns a fresh
/// detached cell instead of panicking — telemetry must never take an
/// engine down.
///
/// ```
/// use obs::MetricKind::{Level, Total};
///
/// let reg = obs::Registry::new();
/// let tuples = reg.metric("splitjoin.tuples", Total);
/// reg.metric("splitjoin.worker.0.ring_occupancy", Level).set(3);
/// tuples.add(256);
/// assert_eq!(reg.values().get("splitjoin.tuples"), Some(256));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, (MetricKind, Metric)>>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A registrant that panicked holding the lock left the map valid,
    /// so poisoning is recovered rather than propagated.
    fn map(&self) -> MutexGuard<'_, BTreeMap<String, (MetricKind, Metric)>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cell registered under `name`, creating it at zero
    /// with `kind` on first use.
    #[must_use]
    pub fn metric(&self, name: &str, kind: MetricKind) -> Metric {
        match self
            .map()
            .entry(name.to_string())
            .or_insert_with(|| (kind, Metric::new()))
        {
            (held, cell) if *held == kind => cell.clone(),
            _ => Metric::new(),
        }
    }

    /// Registers a new cell at zero under `name`, taking the name from
    /// whatever held it with the same kind: for a cell that must stay
    /// its owner's alone. Handles the name gave out before keep working,
    /// detached.
    #[must_use]
    pub fn own(&self, name: &str, kind: MetricKind) -> Metric {
        let cell = Metric::new();
        let mut map = self.map();
        if map.get(name).is_none_or(|(held, _)| *held == kind) {
            map.insert(name.to_string(), (kind, cell.clone()));
        }
        cell
    }

    /// Unregisters every entry whose name starts with `prefix`, so a
    /// registry whose owners come and go (standing queries) does not
    /// grow forever. Handles already handed out keep working, detached,
    /// and keep their values. The match is textual: pass the trailing
    /// separator (`"query.q1."`, not `"query.q1"`, which would also take
    /// `query.q10.*`).
    pub fn remove_prefix(&self, prefix: &str) {
        self.map().retain(|name, _| !name.starts_with(prefix));
    }

    /// Every entry as `(name, value, kind)`, in name order. One call is
    /// one consistent pass over the map, but values are read with relaxed
    /// loads — a reading is *approximately* simultaneous, which is all
    /// rate estimation needs.
    #[must_use]
    pub fn entries(&self) -> Vec<(String, u64, MetricKind)> {
        self.map()
            .iter()
            .map(|(name, (kind, cell))| (name.clone(), cell.get(), *kind))
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
}

#[cfg(test)]
mod tests {
    use super::MetricKind::{Level, Total};
    use super::*;

    #[test]
    fn clone_shares_the_cell() {
        let c = Metric::new();
        let d = c.clone();
        c.add(5);
        d.add(1);
        assert_eq!((c.get(), d.get()), (6, 6));

        let g = Metric::new();
        let h = g.clone();
        g.set(5);
        assert_eq!((g.get(), h.get()), (5, 5));
        h.set(8);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn registry_reuses_handles_by_name() {
        let reg = Registry::new();
        let a = reg.metric("x.n", Total);
        let b = reg.metric("x.n", Total);
        a.add(2);
        b.add(3);
        assert_eq!(reg.values().get("x.n"), Some(5));
        assert_eq!(reg.entries().len(), 1);

        let g = reg.metric("x.depth", Level);
        g.set(7);
        let values = reg.clone().values();
        assert_eq!(values.get("x.depth"), Some(7));
        let names: Vec<_> = values.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["x.depth", "x.n"]);
        let kinds: Vec<_> = reg.entries().into_iter().map(|(_, _, k)| k).collect();
        assert_eq!(kinds, [Level, Total]);
    }

    #[test]
    fn kind_mismatch_returns_a_detached_handle() {
        let reg = Registry::new();
        let _ = reg.metric("m", Total);
        let g = reg.metric("m", Level); // wrong kind: detached, never panics
        g.set(99);
        assert_eq!(reg.values().get("m"), Some(0));
        let owned = reg.own("m", Level); // nor does it take the name
        owned.set(98);
        assert_eq!(reg.entries(), [("m".to_string(), 0, Total)]);
    }

    #[test]
    fn an_owned_cell_takes_the_name_and_detaches_the_old_handle() {
        let reg = Registry::new();
        let old = reg.metric("w.0.tuples", Total);
        old.set(5);
        let new = reg.own("w.0.tuples", Total);
        assert_eq!(reg.values().get("w.0.tuples"), Some(0));
        old.set(9);
        new.set(2);
        assert_eq!((old.get(), reg.values().get("w.0.tuples")), (9, Some(2)));
    }

    #[test]
    fn remove_prefix_unregisters_exactly_the_prefixed_entries() {
        let reg = Registry::new();
        let rows = reg.metric("query.q1.rows", Total);
        let _ = reg.metric("query.q1.matches_in", Total);
        let _ = reg.metric("query.q10.rows", Total);
        let _ = reg.metric("group.g.depth", Level);
        rows.add(2);
        reg.remove_prefix("query.q1.");
        let names: Vec<_> = reg.entries().into_iter().map(|(name, _, _)| name).collect();
        assert_eq!(names, ["group.g.depth", "query.q10.rows"]);
        // The detached handle keeps its value and still counts; a
        // re-registration starts over.
        rows.add(3);
        assert_eq!(rows.get(), 5);
        assert_eq!(reg.metric("query.q1.rows", Total).get(), 0);
        reg.remove_prefix("nothing.");
        assert_eq!(reg.entries().len(), 3);
    }
}
