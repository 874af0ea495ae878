//! Manifest emission for the bench binaries.
//!
//! `figs` prints each figure's human-readable [`Table`](crate::Table)
//! to stdout and, in addition, writes a machine-readable
//! [`obs::RunManifest`] — git revision, thread count,
//! configuration, counters, and latency histograms — so runs can be
//! diffed and archived. Manifests land in `target/obs/<name>.json` (or
//! `$ACCEL_OBS_DIR` when set); see `EXPERIMENTS.md` for the schema.

use std::sync::Mutex;
use std::time::Duration;

use obs::trace::{TraceRing, TraceSet};
use obs::RunManifest;

/// Span rings harvested by the figure functions while tracing is
/// enabled, awaiting export by the binary (see [`take_harvest`]).
static HARVEST: Mutex<Vec<TraceRing>> = Mutex::new(Vec::new());

/// Stashes harvested span rings for the running figure. Figure
/// functions call this after a measured point; the binary drains the
/// collection once with [`take_harvest`] and writes it via
/// [`emit_trace`].
pub fn harvest(rings: impl IntoIterator<Item = TraceRing>) {
    HARVEST.lock().expect("harvest lock").extend(rings);
}

/// Drains every harvested ring into a trace set named after the figure.
pub fn take_harvest(figure: &str) -> TraceSet {
    let mut set = TraceSet::new(figure);
    set.extend(HARVEST.lock().expect("harvest lock").drain(..));
    set
}

/// Drains the harvest into a [`TraceSet`] named `figure` and writes it
/// out — the one-call exit path for figure binaries. Does nothing when
/// no rings were harvested (tracing off, or the figure has none).
pub fn emit_harvest(figure: &str) {
    emit_trace(&take_harvest(figure));
}

/// Writes a non-empty [`TraceSet`] next to the run manifests and prints
/// where it landed; write failures warn instead of aborting the run.
pub fn emit_trace(set: &TraceSet) {
    if set.is_empty() {
        return;
    }
    match set.write_default() {
        Ok(path) => eprintln!("trace: {}", path.display()),
        Err(e) => eprintln!("warning: trace `{}` not written: {e}", set.name()),
    }
}

/// Starts a manifest for the named figure. The git revision is stamped
/// by the manifest itself; callers add config, counters, and histograms.
pub fn manifest(figure: &str) -> RunManifest {
    RunManifest::new(figure)
}

/// Writes `m` to the default manifest directory, reporting the path on
/// stderr. A failure to write is a warning, never a failed run: the
/// table on stdout is the primary artifact.
pub fn emit(m: &RunManifest) {
    match m.write_default() {
        Ok(path) => eprintln!("manifest: {}", path.display()),
        Err(e) => eprintln!("warning: manifest `{}` not written: {e}", m.name()),
    }
}

/// A figure binary's live-telemetry session: the armed global
/// [`obs::live`] plane and a background sampler streaming
/// `target/obs/<figure>.series.jsonl`. Construct with [`live_start`],
/// tear down with [`LiveRun::finish`] — dropping without `finish` still
/// stops the sampler, it just skips the stderr summary.
#[derive(Debug)]
pub struct LiveRun {
    sampler: obs::live::Sampler,
}

/// Creates the series file, starts the sampler and arms the live plane.
/// Call *before* spawning engines: the hot layers only register their
/// live cells when the plane is armed at spawn. A series file that
/// cannot be created, or a sampler that cannot start, is a warning,
/// never a failed run: the figure then runs without sampling (`None`).
pub fn live_start(figure: &str, interval_ms: u64) -> Option<LiveRun> {
    let interval_ms = interval_ms.max(1);
    let mut header = obs::series::SeriesHeader::new(figure, interval_ms);
    header.config("figure", figure);
    let interval = Duration::from_millis(interval_ms);
    let reg = obs::live::global().clone();
    let started = obs::series::SeriesWriter::create(obs::default_dir(), header)
        .and_then(|writer| obs::live::Sampler::start(reg, interval, writer));
    if let Err(e) = &started {
        eprintln!("warning: series for `{figure}` not started: {e}; running without sampling");
    }
    let sampler = started.ok()?;
    obs::live::set_active(true);
    Some(LiveRun { sampler })
}

impl LiveRun {
    /// Stops the sampler (with a final sample), disarms the plane, and
    /// reports the series artifact on stderr.
    pub fn finish(self) {
        let report = self.sampler.stop();
        if let Some(e) = report.series_error {
            eprintln!("warning: series write failed mid-run: {e}");
        }
        eprintln!(
            "series: {} ({} samples)",
            report.series_path.display(),
            report.ticks
        );
        obs::live::set_active(false);
    }
}
