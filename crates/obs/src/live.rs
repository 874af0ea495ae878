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
//! let tuples = reg.metric("splitjoin.tuples", obs::MetricKind::Total);
//! tuples.add(256);
//!
//! let dir = std::env::temp_dir().join(format!("sampler-doc-{}", std::process::id()));
//! let writer = SeriesWriter::create(&dir, SeriesHeader::new("demo", 1)).unwrap();
//! let sampler = Sampler::start(reg.clone(), Duration::from_millis(1), writer).unwrap();
//! tuples.add(256);
//! let report = sampler.stop();
//! // Always at least the final snapshot.
//! let doc = SeriesDoc::parse(&std::fs::read_to_string(&report.series_path).unwrap()).unwrap();
//! assert_eq!(doc.samples.last().unwrap().values.get("splitjoin.tuples"), Some(512));
//! assert_eq!(doc.kind_of("splitjoin.tuples"), obs::MetricKind::Total);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::Duration;

use crate::series::SeriesWriter;
use crate::{Registry, Snapshot};

/// The process-wide live registry.
///
/// Engines (`SplitJoin`, the handshake chain, `hwsim::par`) publish into
/// this instance when [`active()`] is set — a threaded core through its
/// own supervision cell, whose running totals, levels and beat stamp
/// are cells the newest engine owns by name ([`Registry::own`]); the
/// bench binaries arm it with [`set_active`] before spawning and hand
/// it to a [`Sampler`].
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms) the global live plane. Hot layers consult
/// [`active()`] once per engine spawn / batch, so flipping this before
/// spawning is what makes live cells appear.
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

/// A background thread that snapshots a [`Registry`] at a fixed
/// interval and streams each sample to a [`SeriesWriter`] as one JSONL
/// line, with the kind of each key the line is the first to hold.
///
/// A thread that panicked holding its lock left the state whole, so
/// poisoning is recovered: telemetry never takes an engine down.
///
/// [`Sampler::stop`] takes one final snapshot (so even sub-interval runs
/// produce a sample), joins the thread, and returns a [`SamplerReport`].
pub struct Sampler {
    reg: Registry,
    state: Arc<Mutex<SamplerState>>,
    /// Dropping the sender stops the thread.
    thread: Option<(mpsc::Sender<()>, thread::JoinHandle<()>)>,
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
    ///
    /// # Errors
    ///
    /// The sampling thread could not be spawned.
    pub fn start(reg: Registry, interval: Duration, writer: SeriesWriter) -> io::Result<Self> {
        let state = Arc::new(Mutex::new(SamplerState {
            ticks: 0,
            writer,
            series_error: None,
        }));
        let (stop, stopped) = mpsc::channel::<()>();
        let thread_state = Arc::clone(&state);
        let thread_reg = reg.clone();
        let handle = thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    record_tick(&thread_state, &thread_reg);
                }
            })?;
        Ok(Self {
            reg,
            state,
            thread: Some((stop, handle)),
        })
    }

    /// Snapshots taken so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        lock(&self.state).ticks
    }

    /// Stops the sampler: takes one final snapshot (so even sub-interval
    /// runs record their end state), joins the thread, and reports what
    /// was written.
    #[must_use]
    pub fn stop(mut self) -> SamplerReport {
        self.finish(true)
    }

    fn finish(&mut self, final_sample: bool) -> SamplerReport {
        if let Some((stop, handle)) = self.thread.take() {
            drop(stop);
            let _ = handle.join();
        }
        if final_sample {
            record_tick(&self.state, &self.reg);
        }
        let state = lock(&self.state);
        SamplerReport {
            ticks: state.ticks,
            series_path: state.writer.path().to_path_buf(),
            series_error: state.series_error.clone(),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.finish(false);
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reads every entry of `reg` once and appends it as the next sample.
fn record_tick(state: &Mutex<SamplerState>, reg: &Registry) {
    let t_ns = crate::trace::now_ns();
    let entries = reg.entries();
    let kinds = entries
        .iter()
        .map(|(name, _, kind)| (name.clone(), *kind))
        .collect();
    let values = entries
        .into_iter()
        .map(|(name, value, _)| (name, value))
        .collect();
    let mut state = lock(state);
    state.ticks += 1;
    if let Err(e) = state
        .writer
        .append_kinded(&Snapshot { t_ns, values }, &kinds)
    {
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
        let c = reg.metric("t.events", crate::MetricKind::Total);
        let sampler = Sampler::start(reg.clone(), Duration::from_millis(1), writer).unwrap();
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
