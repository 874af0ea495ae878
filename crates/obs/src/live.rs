//! The live telemetry plane: shared-atomic metrics sampled *while the
//! system runs*.
//!
//! The post-mortem surfaces ([`Counter`](crate::Counter) /
//! [`Gauge`](crate::Gauge) → [`Registry`](crate::Registry) →
//! [`RunManifest`](crate::RunManifest)) only speak after a run ends. This
//! module is their online counterpart:
//!
//! * [`SharedCounter`] / [`SharedGauge`] — `Arc<AtomicU64>` cells with
//!   relaxed ordering. Unlike the thread-local cells, **`Clone` shares
//!   the handle**: the instrumented thread and the sampler thread see the
//!   same value. With the `enabled` feature off both types are zero-sized
//!   and every operation compiles to nothing.
//! * [`LiveRegistry`] — a named, cloneable store of shared handles.
//!   [`global()`] is the process-wide instance the engines publish into;
//!   [`set_active`] arms it so hot paths pay nothing unless a live run
//!   was requested.
//! * [`Sampler`] — a background thread snapshotting a registry at a fixed
//!   interval into a bounded ring of [`Snapshot`]s, optionally streaming
//!   each sample to a [`SeriesWriter`]
//!   (`target/obs/<run>.series.jsonl`).
//!
//! [`crate::health`] derives busy fraction / throughput / pressure from
//! consecutive snapshots, and [`crate::scrape`] serves the registry as
//! Prometheus-style text over std TCP.
//!
//! # Example
//!
//! ```
//! use obs::live::{LiveRegistry, Sampler, SamplerConfig};
//! use std::time::Duration;
//!
//! let reg = LiveRegistry::new();
//! let tuples = reg.counter("splitjoin.tuples");
//! let depth = reg.gauge("splitjoin.ring.occupancy");
//!
//! tuples.add(256);
//! depth.set(3);
//!
//! let snap = reg.snapshot();
//! #[cfg(feature = "enabled")]
//! assert_eq!(snap.get("splitjoin.tuples"), Some(256));
//!
//! let sampler = Sampler::start(
//!     reg.clone(),
//!     SamplerConfig { interval: Duration::from_millis(1), ..Default::default() },
//! );
//! tuples.add(256);
//! let report = sampler.stop();
//! assert!(!report.snapshots.is_empty()); // always at least the final one
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

#[cfg(feature = "enabled")]
use std::collections::BTreeMap;
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::series::SeriesWriter;

/// A monotonically increasing event counter shared across threads.
///
/// The online sibling of [`Counter`](crate::Counter): one relaxed
/// `fetch_add` per update, readable from any thread. **`Clone` shares the
/// underlying cell** (both handles observe the same value) — the opposite
/// of `Counter::clone`, which copies the value into an independent cell.
///
/// With the `enabled` feature off the type is zero-sized and all
/// operations compile to nothing ([`SharedCounter::get`] returns 0).
#[derive(Debug, Clone, Default)]
pub struct SharedCounter {
    #[cfg(feature = "enabled")]
    cell: Arc<AtomicU64>,
}

impl SharedCounter {
    /// Creates a detached counter at zero (use
    /// [`LiveRegistry::counter`] for a named one).
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
        #[cfg(feature = "enabled")]
        self.cell.fetch_add(n, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Current value (0 when the `enabled` feature is off).
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.cell.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }
}

/// A last-value gauge shared across threads.
///
/// Same cost model and sharing semantics as [`SharedCounter`]: relaxed
/// atomic stores, `Clone` shares the cell, zero-sized no-op without the
/// `enabled` feature.
#[derive(Debug, Clone, Default)]
pub struct SharedGauge {
    #[cfg(feature = "enabled")]
    cell: Arc<AtomicU64>,
}

impl SharedGauge {
    /// Creates a detached gauge at zero (use [`LiveRegistry::gauge`] for
    /// a named one).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        #[cfg(feature = "enabled")]
        self.cell.store(v, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Raises the value to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn max(&self, v: u64) {
        #[cfg(feature = "enabled")]
        self.cell.fetch_max(v, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Current value (0 when the `enabled` feature is off).
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.cell.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }
}

/// Whether a registry entry is a counter (monotone) or a gauge
/// (last-value). The scrape endpoint exposes this as the Prometheus
/// `# TYPE` of each metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing ([`SharedCounter`]).
    Counter,
    /// Last value written ([`SharedGauge`]).
    Gauge,
}

#[cfg(feature = "enabled")]
#[derive(Debug, Clone)]
enum Slot {
    Counter(SharedCounter),
    Gauge(SharedGauge),
}

/// A named store of shared metric handles.
///
/// Cloning the registry shares the store; [`LiveRegistry::counter`] /
/// [`LiveRegistry::gauge`] register-or-reuse by name, so an engine spawned
/// twice in one process keeps accumulating into the same cells.
/// Registration takes a mutex (cold path, spawn time); updates through the
/// returned handles are lock-free relaxed atomics (hot path).
///
/// Asking for an existing name with the *other* kind returns a fresh
/// detached handle instead of panicking — live telemetry must never take
/// an engine down.
///
/// With the `enabled` feature off the registry stores nothing and
/// snapshots are empty.
#[derive(Debug, Clone, Default)]
pub struct LiveRegistry {
    #[cfg(feature = "enabled")]
    inner: Arc<Mutex<BTreeMap<String, Slot>>>,
}

impl LiveRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it at zero
    /// on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> SharedCounter {
        #[cfg(feature = "enabled")]
        {
            let mut map = self.inner.lock().expect("live registry poisoned");
            match map
                .entry(name.to_string())
                .or_insert_with(|| Slot::Counter(SharedCounter::new()))
            {
                Slot::Counter(c) => c.clone(),
                Slot::Gauge(_) => SharedCounter::new(),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = name;
            SharedCounter::new()
        }
    }

    /// Returns the gauge registered under `name`, creating it at zero on
    /// first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> SharedGauge {
        #[cfg(feature = "enabled")]
        {
            let mut map = self.inner.lock().expect("live registry poisoned");
            match map
                .entry(name.to_string())
                .or_insert_with(|| Slot::Gauge(SharedGauge::new()))
            {
                Slot::Gauge(g) => g.clone(),
                Slot::Counter(_) => SharedGauge::new(),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = name;
            SharedGauge::new()
        }
    }

    /// Unregisters every entry whose name starts with `prefix`, so a
    /// registry whose owners come and go (standing queries) does not
    /// grow forever. Handles already handed out keep working, detached.
    /// The match is textual: pass the trailing separator
    /// (`"query.q1."`, not `"query.q1"`, which would also take
    /// `query.q10.*`).
    pub fn remove_prefix(&self, prefix: &str) {
        #[cfg(feature = "enabled")]
        {
            use std::ops::Bound;
            let mut map = self.inner.lock().expect("live registry poisoned");
            let doomed: Vec<String> = map
                .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
                .take_while(|(name, _)| name.starts_with(prefix))
                .map(|(name, _)| name.clone())
                .collect();
            for name in doomed {
                map.remove(&name);
            }
        }
        #[cfg(not(feature = "enabled"))]
        let _ = prefix;
    }

    /// Every entry as `(name, value, kind)`, in name order. One call is
    /// one consistent pass over the map, but values are read with relaxed
    /// loads — a snapshot is *approximately* simultaneous, which is all
    /// rate estimation needs.
    #[must_use]
    pub fn entries(&self) -> Vec<(String, u64, MetricKind)> {
        #[cfg(feature = "enabled")]
        {
            let map = self.inner.lock().expect("live registry poisoned");
            map.iter()
                .map(|(name, slot)| match slot {
                    Slot::Counter(c) => (name.clone(), c.get(), MetricKind::Counter),
                    Slot::Gauge(g) => (name.clone(), g.get(), MetricKind::Gauge),
                })
                .collect()
        }
        #[cfg(not(feature = "enabled"))]
        {
            Vec::new()
        }
    }

    /// Takes a timestamped value snapshot of every entry (name order).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            t_ns: crate::trace::now_ns(),
            values: self
                .entries()
                .into_iter()
                .map(|(name, value, _)| (name, value))
                .collect(),
        }
    }

    /// Number of registered handles (0 when the feature is off).
    #[must_use]
    pub fn len(&self) -> usize {
        #[cfg(feature = "enabled")]
        {
            self.inner.lock().expect("live registry poisoned").len()
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }

    /// True when no handles are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide live registry.
///
/// Engines (`SplitJoin`, the handshake chain, `hwsim::par`) publish into
/// this instance when [`active()`] is set; the bench binaries arm it with
/// [`set_active`] before spawning and hand it to a [`Sampler`] and the
/// scrape endpoint.
#[must_use]
pub fn global() -> &'static LiveRegistry {
    static GLOBAL: OnceLock<LiveRegistry> = OnceLock::new();
    GLOBAL.get_or_init(LiveRegistry::new)
}

#[cfg(feature = "enabled")]
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms) the global live plane. Hot layers consult
/// [`active()`] once per engine spawn / batch, so flipping this before
/// spawning is what makes live gauges appear.
pub fn set_active(on: bool) {
    #[cfg(feature = "enabled")]
    ACTIVE.store(on, Ordering::Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = on;
}

/// True when a live run was requested via [`set_active`]. Constant
/// `false` with the `enabled` feature off, so guarded instrumentation
/// compiles away entirely.
#[inline]
#[must_use]
pub fn active() -> bool {
    #[cfg(feature = "enabled")]
    {
        ACTIVE.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// One timestamped value capture of a [`LiveRegistry`].
///
/// `t_ns` is monotonic nanoseconds on the process trace anchor
/// ([`crate::trace::now_ns`]), so differences between snapshots are exact
/// elapsed time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Capture time, monotonic process nanoseconds.
    pub t_ns: u64,
    /// `(name, value)` pairs in name order.
    pub values: Vec<(String, u64)>,
}

impl Snapshot {
    /// Looks up a value by exact name. Linear scan: registry snapshots
    /// are name-sorted, but hand-built ones need not be, and the maps are
    /// small.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// The increase of `name` since `prev` (saturating at zero; `None`
    /// when either snapshot lacks the key).
    #[must_use]
    pub fn delta(&self, prev: &Snapshot, name: &str) -> Option<u64> {
        Some(self.get(name)?.saturating_sub(prev.get(name)?))
    }

    /// The per-second rate of counter `name` between `prev` and `self`
    /// (`None` when the key is missing or no time elapsed).
    #[must_use]
    pub fn rate_per_sec(&self, prev: &Snapshot, name: &str) -> Option<f64> {
        let dt = self.t_ns.saturating_sub(prev.t_ns);
        if dt == 0 {
            return None;
        }
        let dv = self.delta(prev, name)?;
        Some(dv as f64 * 1e9 / dt as f64)
    }
}

/// [`Sampler`] tuning.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Time between snapshots. Default 25 ms — coarse enough to stay
    /// under the 2% overhead budget of the bench gate, fine enough to
    /// resolve batch-scale dynamics.
    pub interval: Duration,
    /// In-memory ring capacity (oldest snapshots are dropped first; the
    /// series file, when attached, keeps everything). Default 1024.
    pub ring_capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(25),
            ring_capacity: 1024,
        }
    }
}

/// What a [`Sampler`] hands back from [`Sampler::stop`].
#[derive(Debug)]
pub struct SamplerReport {
    /// The retained snapshot ring, oldest first (bounded by
    /// [`SamplerConfig::ring_capacity`]).
    pub snapshots: Vec<Snapshot>,
    /// Total snapshots taken (may exceed `snapshots.len()` when the ring
    /// wrapped).
    pub ticks: u64,
    /// Where the series artifact was written, when one was attached.
    pub series_path: Option<std::path::PathBuf>,
    /// The first I/O error hit while streaming the series, if any
    /// (sampling continues in memory after a write error).
    pub series_error: Option<String>,
}

struct SamplerState {
    ring: VecDeque<Snapshot>,
    ticks: u64,
    writer: Option<SeriesWriter>,
    series_error: Option<String>,
}

struct StopGate {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// A background thread that snapshots a [`LiveRegistry`] at a fixed
/// interval.
///
/// Each tick appends to a bounded in-memory ring and, when a
/// [`SeriesWriter`] is attached, streams the sample as one JSONL line.
/// [`Sampler::stop`] takes one final snapshot (so even sub-interval runs
/// produce a sample), joins the thread, and returns a [`SamplerReport`].
#[derive(Debug)]
pub struct Sampler {
    reg: LiveRegistry,
    state: Arc<Mutex<SamplerState>>,
    gate: Arc<StopGate>,
    interval: Duration,
    capacity: usize,
    handle: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for SamplerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerState")
            .field("ticks", &self.ticks)
            .field("ring_len", &self.ring.len())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for StopGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StopGate").finish_non_exhaustive()
    }
}

impl Sampler {
    /// Starts sampling `reg` in the background (in-memory ring only).
    #[must_use]
    pub fn start(reg: LiveRegistry, cfg: SamplerConfig) -> Self {
        Self::spawn(reg, cfg, None)
    }

    /// Starts sampling `reg` and streams every snapshot to `writer` as a
    /// JSONL series line.
    #[must_use]
    pub fn start_with_series(reg: LiveRegistry, cfg: SamplerConfig, writer: SeriesWriter) -> Self {
        Self::spawn(reg, cfg, Some(writer))
    }

    fn spawn(reg: LiveRegistry, cfg: SamplerConfig, writer: Option<SeriesWriter>) -> Self {
        let state = Arc::new(Mutex::new(SamplerState {
            ring: VecDeque::new(),
            ticks: 0,
            writer,
            series_error: None,
        }));
        let gate = Arc::new(StopGate {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        });
        let capacity = cfg.ring_capacity.max(1);
        let interval = cfg.interval;
        let thread_state = Arc::clone(&state);
        let thread_gate = Arc::clone(&gate);
        let thread_reg = reg.clone();
        let handle = thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || {
                loop {
                    let stopped = thread_gate.stopped.lock().expect("sampler gate poisoned");
                    let (stopped, _) = thread_gate
                        .cv
                        .wait_timeout_while(stopped, interval, |s| !*s)
                        .expect("sampler gate poisoned");
                    if *stopped {
                        return;
                    }
                    drop(stopped);
                    record_tick(&thread_state, thread_reg.snapshot(), capacity);
                }
            })
            .expect("spawn obs-sampler thread");
        Self {
            reg,
            state,
            gate,
            interval,
            capacity,
            handle: Some(handle),
        }
    }

    /// The sampling interval this sampler was started with.
    #[must_use]
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Snapshots taken so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.state.lock().expect("sampler poisoned").ticks
    }

    /// A copy of the current snapshot ring, oldest first.
    #[must_use]
    pub fn recent(&self) -> Vec<Snapshot> {
        let state = self.state.lock().expect("sampler poisoned");
        state.ring.iter().cloned().collect()
    }

    /// Stops the sampler: takes one final snapshot (so even sub-interval
    /// runs record their end state), joins the thread, flushes the series
    /// artifact, and returns everything retained.
    #[must_use]
    pub fn stop(mut self) -> SamplerReport {
        self.finish(true)
    }

    fn finish(&mut self, final_sample: bool) -> SamplerReport {
        {
            let mut stopped = self.gate.stopped.lock().expect("sampler gate poisoned");
            *stopped = true;
            self.gate.cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        if final_sample {
            record_tick(&self.state, self.reg.snapshot(), self.capacity);
        }
        let mut state = self.state.lock().expect("sampler poisoned");
        let mut report = SamplerReport {
            snapshots: state.ring.iter().cloned().collect(),
            ticks: state.ticks,
            series_path: None,
            series_error: state.series_error.clone(),
        };
        if let Some(writer) = state.writer.take() {
            match writer.finish() {
                Ok(path) => report.series_path = Some(path),
                Err(e) => {
                    report
                        .series_error
                        .get_or_insert_with(|| format!("finish: {e}"));
                }
            }
        }
        report
    }

    /// Takes an immediate out-of-schedule snapshot (the same ring/series
    /// path as a timer tick), e.g. at a phase boundary worth marking.
    pub fn sample_now(&self) {
        record_tick(&self.state, self.reg.snapshot(), self.capacity);
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.finish(false);
        }
    }
}

fn record_tick(state: &Mutex<SamplerState>, snap: Snapshot, capacity: usize) {
    let mut state = state.lock().expect("sampler poisoned");
    state.ticks += 1;
    if let Some(writer) = state.writer.as_mut() {
        if let Err(e) = writer.append(&snap) {
            state
                .series_error
                .get_or_insert_with(|| format!("append: {e}"));
        }
    }
    if state.ring.len() == capacity {
        state.ring.pop_front();
    }
    state.ring.push_back(snap);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "enabled")]
    fn shared_counter_clone_shares_the_cell() {
        let c = SharedCounter::new();
        let d = c.clone();
        c.add(5);
        d.incr();
        assert_eq!((c.get(), d.get()), (6, 6));
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn registry_reuses_handles_by_name() {
        let reg = LiveRegistry::new();
        let a = reg.counter("x.n");
        let b = reg.counter("x.n");
        a.add(2);
        b.add(3);
        assert_eq!(reg.snapshot().get("x.n"), Some(5));
        assert_eq!(reg.len(), 1);

        let g = reg.gauge("x.depth");
        g.set(7);
        g.max(3);
        let snap = reg.snapshot();
        assert_eq!(snap.get("x.depth"), Some(7));
        // Name order in snapshots.
        let names: Vec<_> = snap.values.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["x.depth", "x.n"]);
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn kind_mismatch_returns_a_detached_handle() {
        let reg = LiveRegistry::new();
        let _ = reg.counter("m");
        let g = reg.gauge("m"); // wrong kind: detached, never panics
        g.set(99);
        assert_eq!(reg.snapshot().get("m"), Some(0));
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn remove_prefix_unregisters_exactly_the_prefixed_entries() {
        let reg = LiveRegistry::new();
        let rows = reg.counter("query.q1.rows");
        let _ = reg.counter("query.q1.matches_in");
        let _ = reg.counter("query.q10.rows");
        let _ = reg.gauge("group.g.depth");
        reg.remove_prefix("query.q1.");
        let names: Vec<_> = reg.entries().into_iter().map(|(name, _, _)| name).collect();
        assert_eq!(names, ["group.g.depth", "query.q10.rows"]);
        // The detached handle still counts; a re-registration starts over.
        rows.add(3);
        assert_eq!(rows.get(), 3);
        assert_eq!(reg.counter("query.q1.rows").get(), 0);
        reg.remove_prefix("nothing.");
        assert_eq!(reg.len(), 3);
    }

    #[test]
    #[cfg(not(feature = "enabled"))]
    fn disabled_plane_is_zero_sized_and_empty() {
        assert_eq!(std::mem::size_of::<SharedCounter>(), 0);
        assert_eq!(std::mem::size_of::<SharedGauge>(), 0);
        let reg = LiveRegistry::new();
        let c = reg.counter("x");
        c.add(9);
        assert_eq!(c.get(), 0);
        assert!(reg.snapshot().values.is_empty());
        set_active(true);
        assert!(!active());
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn snapshot_deltas_and_rates() {
        let prev = Snapshot {
            t_ns: 1_000_000_000,
            values: vec![("a".into(), 100), ("b".into(), 7)],
        };
        let cur = Snapshot {
            t_ns: 3_000_000_000,
            values: vec![("a".into(), 400), ("b".into(), 7)],
        };
        assert_eq!(cur.delta(&prev, "a"), Some(300));
        assert_eq!(cur.rate_per_sec(&prev, "a"), Some(150.0));
        assert_eq!(cur.rate_per_sec(&prev, "b"), Some(0.0));
        assert_eq!(cur.rate_per_sec(&prev, "missing"), None);
        assert_eq!(cur.rate_per_sec(&cur, "a"), None); // dt == 0
    }

    #[test]
    fn sampler_ticks_and_stops() {
        let reg = LiveRegistry::new();
        let c = reg.counter("t.events");
        let sampler = Sampler::start(
            reg.clone(),
            SamplerConfig {
                interval: Duration::from_millis(1),
                ring_capacity: 4,
            },
        );
        c.add(10);
        while sampler.ticks() < 6 {
            std::thread::yield_now();
        }
        sampler.sample_now();
        let report = sampler.stop();
        assert!(report.ticks >= 6);
        assert!(report.snapshots.len() <= 4, "ring stays bounded");
        assert!(report.series_path.is_none());
        #[cfg(feature = "enabled")]
        assert_eq!(
            report.snapshots.last().unwrap().get("t.events"),
            Some(10)
        );
    }
}
