//! The live telemetry plane: the process-wide [`Registry`] and the
//! [`Sampler`] that reads it *while the system runs*.
//!
//! * [`global()`] is the registry the engines publish into;
//!   [`set_active`] arms it so hot paths pay nothing unless a live run
//!   was requested.
//! * [`Sampler`] — a background thread snapshotting a registry at a fixed
//!   interval and streaming each [`Snapshot`] to a [`SeriesWriter`]
//!   (`target/obs/<run>.series.jsonl`), the plane's one output.
//!
//! [`crate::health`] reads that file back and names the unhealthy
//! stretches of the run.
//!
//! # Example
//!
//! ```
//! use obs::live::Sampler;
//! use obs::series::{SeriesDoc, SeriesHeader, SeriesWriter};
//! use std::time::Duration;
//!
//! let reg = obs::Registry::new();
//! let tuples = reg.counter("splitjoin.tuples");
//! tuples.add(256);
//!
//! let dir = std::env::temp_dir().join(format!("sampler-doc-{}", std::process::id()));
//! let writer = SeriesWriter::create(&dir, SeriesHeader::new("demo", 1)).unwrap();
//! let sampler = Sampler::start(reg.clone(), Duration::from_millis(1), writer);
//! tuples.add(256);
//! let report = sampler.stop();
//! // Always at least the final snapshot.
//! let doc = SeriesDoc::parse(&std::fs::read_to_string(&report.series_path).unwrap()).unwrap();
//! assert_eq!(doc.samples.last().unwrap().values.get("splitjoin.tuples"), Some(512));
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use crate::series::SeriesWriter;
use crate::{Registry, Snapshot};

/// The process-wide live registry.
///
/// Engines (`SplitJoin`, the handshake chain, `hwsim::par`) publish into
/// this instance when [`active()`] is set — a threaded core through its
/// own supervision cell, whose statistics and beat stamp are gauges
/// here, read as they stand; the bench binaries arm it with
/// [`set_active`] before spawning and hand it to a [`Sampler`].
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

/// What a [`Sampler`] hands back from [`Sampler::stop`].
#[derive(Debug)]
pub struct SamplerReport {
    /// Snapshots taken, the final one included.
    pub ticks: u64,
    /// Where the series artifact was written.
    pub series_path: PathBuf,
    /// The first I/O error hit while streaming the series, if any
    /// (sampling continues after a write error; later lines may land).
    pub series_error: Option<String>,
}

struct SamplerState {
    ticks: u64,
    writer: SeriesWriter,
    series_error: Option<String>,
}

struct StopGate {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// A background thread that snapshots a [`Registry`] at a fixed
/// interval and streams each sample to a [`SeriesWriter`] as one JSONL
/// line.
///
/// [`Sampler::stop`] takes one final snapshot (so even sub-interval runs
/// produce a sample), joins the thread, and returns a [`SamplerReport`].
pub struct Sampler {
    reg: Registry,
    state: Arc<Mutex<SamplerState>>,
    gate: Arc<StopGate>,
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
    /// Starts sampling `reg` every `interval` in the background, writing
    /// every snapshot to `writer` as a series line.
    #[must_use]
    pub fn start(reg: Registry, interval: Duration, writer: SeriesWriter) -> Self {
        let state = Arc::new(Mutex::new(SamplerState {
            ticks: 0,
            writer,
            series_error: None,
        }));
        let gate = Arc::new(StopGate {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        });
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
                record_tick(&thread_state, &thread_reg.snapshot());
            })
            .expect("spawn obs-sampler thread");
        Self {
            reg,
            state,
            gate,
            handle: Some(handle),
        }
    }

    /// Snapshots taken so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.state.lock().expect("sampler poisoned").ticks
    }

    /// Stops the sampler: takes one final snapshot (so even sub-interval
    /// runs record their end state), joins the thread, and reports what
    /// was written.
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
            record_tick(&self.state, &self.reg.snapshot());
        }
        let state = self.state.lock().expect("sampler poisoned");
        SamplerReport {
            ticks: state.ticks,
            series_path: state.writer.path().to_path_buf(),
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

fn record_tick(state: &Mutex<SamplerState>, snap: &Snapshot) {
    let mut state = state.lock().expect("sampler poisoned");
    state.ticks += 1;
    if let Err(e) = state.writer.append(snap) {
        state
            .series_error
            .get_or_insert_with(|| format!("append: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{SeriesDoc, SeriesHeader};

    #[test]
    fn sampler_ticks_into_the_series_and_stops() {
        let dir = std::env::temp_dir().join(format!("sampler-test-{}", std::process::id()));
        let writer = SeriesWriter::create(&dir, SeriesHeader::new("ticks", 1)).unwrap();
        let reg = Registry::new();
        let c = reg.counter("t.events");
        let sampler = Sampler::start(reg.clone(), Duration::from_millis(1), writer);
        c.add(10);
        while sampler.ticks() < 6 {
            std::thread::yield_now();
        }
        let report = sampler.stop();
        assert!(report.series_error.is_none(), "{:?}", report.series_error);
        let text = std::fs::read_to_string(&report.series_path).unwrap();
        let doc = SeriesDoc::parse(&text).unwrap();
        assert!(report.ticks >= 7, "six timed ticks plus the final one");
        assert_eq!(doc.samples.len() as u64, report.ticks, "one line per tick");
        assert_eq!(doc.samples.last().unwrap().values.get("t.events"), Some(10));
        std::fs::remove_dir_all(&dir).ok();
    }
}
