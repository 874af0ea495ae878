//! The live telemetry plane: the process-wide [`Registry`] and the
//! [`Sampler`] that reads it *while the system runs*.
//!
//! * [`global()`] is the registry the engines publish into;
//!   [`set_active`] arms it so hot paths pay nothing unless a live run
//!   was requested.
//! * [`Sampler`] — a background thread snapshotting a registry at a fixed
//!   interval into a bounded ring of [`Snapshot`]s, optionally streaming
//!   each one to a [`SeriesWriter`]
//!   (`target/obs/<run>.series.jsonl`).
//!
//! [`crate::health`] derives busy fraction / throughput / pressure from
//! consecutive snapshots, and [`crate::scrape`] serves the registry as
//! Prometheus-style text over std TCP.
//!
//! # Example
//!
//! ```
//! use obs::live::{Sampler, SamplerConfig};
//! use std::time::Duration;
//!
//! let reg = obs::Registry::new();
//! let tuples = reg.counter("splitjoin.tuples");
//! tuples.add(256);
//!
//! let sampler = Sampler::start(
//!     reg.clone(),
//!     SamplerConfig { interval: Duration::from_millis(1), ..Default::default() },
//! );
//! tuples.add(256);
//! let report = sampler.stop();
//! // Always at least the final snapshot.
//! assert_eq!(report.snapshots.last().unwrap().values.get("splitjoin.tuples"), Some(512));
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use crate::series::SeriesWriter;
use crate::{Registry, Snapshot};

/// The process-wide live registry.
///
/// Engines (`SplitJoin`, the handshake chain, `hwsim::par`) publish into
/// this instance when [`active()`] is set; the bench binaries arm it with
/// [`set_active`] before spawning and hand it to a [`Sampler`] and the
/// scrape endpoint.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms) the global live plane. Hot layers consult
/// [`active()`] once per engine spawn / batch, so flipping this before
/// spawning is what makes live gauges appear.
pub fn set_active(on: bool) {
    ACTIVE.store(on, Ordering::Relaxed);
}

/// True when a live run was requested via [`set_active`].
#[inline]
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
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

/// A background thread that snapshots a [`Registry`] at a fixed
/// interval.
///
/// Each tick appends to a bounded in-memory ring and, when a
/// [`SeriesWriter`] is attached, streams the sample as one JSONL line.
/// [`Sampler::stop`] takes one final snapshot (so even sub-interval runs
/// produce a sample), joins the thread, and returns a [`SamplerReport`].
pub struct Sampler {
    reg: Registry,
    state: Arc<Mutex<SamplerState>>,
    gate: Arc<StopGate>,
    capacity: usize,
    handle: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("ticks", &self.ticks())
            .finish_non_exhaustive()
    }
}

impl Sampler {
    /// Starts sampling `reg` in the background (in-memory ring only).
    #[must_use]
    pub fn start(reg: Registry, cfg: SamplerConfig) -> Self {
        Self::spawn(reg, cfg, None)
    }

    /// Starts sampling `reg` and streams every snapshot to `writer` as a
    /// JSONL series line.
    #[must_use]
    pub fn start_with_series(reg: Registry, cfg: SamplerConfig, writer: SeriesWriter) -> Self {
        Self::spawn(reg, cfg, Some(writer))
    }

    fn spawn(reg: Registry, cfg: SamplerConfig, writer: Option<SeriesWriter>) -> Self {
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
            .spawn(move || loop {
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
            })
            .expect("spawn obs-sampler thread");
        Self {
            reg,
            state,
            gate,
            capacity,
            handle: Some(handle),
        }
    }

    /// Snapshots taken so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.state.lock().expect("sampler poisoned").ticks
    }

    /// Stops the sampler: takes one final snapshot (so even sub-interval
    /// runs record their end state), joins the thread, closes the series
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
        SamplerReport {
            snapshots: state.ring.iter().cloned().collect(),
            ticks: state.ticks,
            series_path: state.writer.take().map(SeriesWriter::finish),
            series_error: state.series_error.clone(),
        }
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
    fn sampler_ticks_and_stops() {
        let reg = Registry::new();
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
        let report = sampler.stop();
        assert!(report.ticks >= 6);
        assert!(report.snapshots.len() <= 4, "ring stays bounded");
        assert!(report.series_path.is_none());
        assert_eq!(
            report.snapshots.last().unwrap().values.get("t.events"),
            Some(10)
        );
    }
}
