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
/// [`obs::live`] plane, a background sampler streaming
/// `target/obs/<figure>.series.jsonl`, and (when a port was requested) a
/// Prometheus-style scrape endpoint. Construct with [`live_start`],
/// tear down with [`LiveRun::finish`] — dropping without `finish` still
/// stops the sampler, it just skips the stderr summary.
#[derive(Debug)]
pub struct LiveRun {
    sampler: Option<obs::live::Sampler>,
    server: Option<obs::scrape::ScrapeServer>,
}

/// Arms the live plane and starts the sampler (and scrape endpoint,
/// when `port` is given — `0` binds an ephemeral port, printed on
/// stderr as `live scrape: <addr>`). Call *before* spawning engines:
/// the hot layers only register their live gauges when the plane is
/// armed at spawn. Failures to open the series file or bind the socket
/// are warnings, never failed runs.
pub fn live_start(figure: &str, interval_ms: u64, port: Option<u16>) -> LiveRun {
    obs::live::set_active(true);
    let reg = obs::live::global().clone();
    let cfg = obs::live::SamplerConfig {
        interval: Duration::from_millis(interval_ms.max(1)),
        ..Default::default()
    };
    let mut header = obs::series::SeriesHeader::new(figure, interval_ms.max(1));
    header.config("figure", figure);
    let sampler = match obs::series::SeriesWriter::create(obs::default_dir(), header) {
        Ok(writer) => obs::live::Sampler::start_with_series(reg.clone(), cfg, writer),
        Err(e) => {
            eprintln!("warning: series for `{figure}` not started: {e}; sampling in memory");
            obs::live::Sampler::start(reg.clone(), cfg)
        }
    };
    let server = port.and_then(|p| match obs::scrape::serve(reg, p) {
        Ok(server) => {
            eprintln!("live scrape: {}", server.addr());
            Some(server)
        }
        Err(e) => {
            eprintln!("warning: scrape endpoint not started: {e}");
            None
        }
    });
    LiveRun {
        sampler: Some(sampler),
        server,
    }
}

impl LiveRun {
    /// Stops the sampler (flushing the series artifact) and the scrape
    /// endpoint, disarms the plane, and reports what was produced on
    /// stderr.
    pub fn finish(mut self) {
        if let Some(sampler) = self.sampler.take() {
            let report = sampler.stop();
            if let Some(e) = report.series_error {
                eprintln!("warning: series write failed mid-run: {e}");
            }
            match report.series_path {
                Some(path) => {
                    eprintln!("series: {} ({} samples)", path.display(), report.ticks)
                }
                None => eprintln!("live sampling: {} snapshots (no series file)", report.ticks),
            }
        }
        if let Some(server) = self.server.take() {
            eprintln!("live scrape: {} requests served", server.scrapes());
            server.stop();
        }
        obs::live::set_active(false);
    }
}
