//! Structured span tracing with Chrome trace-event (Perfetto) export.
//!
//! Counters say *that* something happened; spans say *when*. This module
//! records `(name, start, duration)` spans into bounded per-worker
//! [`TraceRing`]s — one ring per join core, tree stage, or worker thread,
//! owned by that component, written without any synchronization — and
//! exports a [`TraceSet`] of rings as a Chrome trace-event JSON file
//! (`target/obs/<name>.trace.json`) that loads directly in
//! <https://ui.perfetto.dev>.
//!
//! Two time domains coexist in one trace:
//!
//! * **[`TimeDomain::Cycles`]** — simulation timestamps from `hwsim`
//!   components (join cores, distribution/gathering trees). One cycle is
//!   rendered as one microsecond on the timeline.
//! * **[`TimeDomain::Wall`]** — wall-clock nanoseconds (see [`now_ns`])
//!   from the threaded software data path and the `ParSimulator` worker
//!   pool.
//!
//! Rings are *flight recorders*: when full they overwrite the oldest
//! span and count the overwrite in [`TraceRing::dropped`], so the hot
//! path never allocates after construction and never blocks. Tracing is
//! globally off until a harness calls [`enable`], and the golden
//! cycle-count pins hold with tracing on and off.
//!
//! # Example
//!
//! ```
//! use obs::trace::{TimeDomain, TraceRing, TraceSet};
//!
//! let mut ring = TraceRing::with_capacity("core.0", TimeDomain::Cycles, 8);
//! ring.record("probe", 100, 12);
//! ring.record_arg("probe", 120, 9, 2); // 2 matches
//! assert_eq!(ring.len(), 2);
//!
//! let mut set = TraceSet::new("example");
//! set.push(ring);
//! let json = set.to_json();
//! assert!(obs::trace::validate(&json).is_ok());
//! ```

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

/// Which clock a ring's timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeDomain {
    /// Simulated clock cycles (deterministic; rendered as µs in Perfetto).
    Cycles,
    /// Wall-clock nanoseconds since the process trace anchor ([`now_ns`]).
    Wall,
}

/// One recorded span: a named interval with an optional integer payload
/// (match count, batch length, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Span name (static so recording never allocates).
    pub name: &'static str,
    /// Start timestamp in the ring's [`TimeDomain`].
    pub start: u64,
    /// Duration in the same unit as `start`.
    pub dur: u64,
    /// Free-form integer argument (exported as `args.arg`).
    pub arg: u64,
}

/// A bounded, overwrite-oldest span buffer owned by one worker/component.
///
/// Recording is one bounds check and one array write — no locks, no
/// allocation (after construction), no system calls — so a ring can sit
/// on a simulation hot path without perturbing cycle-exact behaviour.
/// When the buffer is full the *oldest* span is overwritten (flight-
/// recorder semantics: the last `capacity` spans survive) and
/// [`dropped`](TraceRing::dropped) counts the loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRing {
    track: String,
    domain: TimeDomain,
    buf: Vec<Event>,
    /// Next overwrite position once `buf.len() == cap`.
    next: usize,
    dropped: u64,
    cap: usize,
}

impl TraceRing {
    /// Creates a ring named `track` holding the last 512 spans.
    #[must_use]
    pub fn new(track: impl Into<String>, domain: TimeDomain) -> Self {
        Self::with_capacity(track, domain, DEFAULT_RING_CAPACITY)
    }

    /// Creates a ring holding at most `capacity` spans (clamped to ≥ 1).
    #[must_use]
    pub fn with_capacity(track: impl Into<String>, domain: TimeDomain, capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            track: track.into(),
            domain,
            buf: Vec::with_capacity(cap),
            next: 0,
            dropped: 0,
            cap,
        }
    }

    /// Records a span with no argument.
    pub fn record(&mut self, name: &'static str, start: u64, dur: u64) {
        self.record_arg(name, start, dur, 0);
    }

    /// Records a span with an integer argument.
    pub fn record_arg(&mut self, name: &'static str, start: u64, dur: u64, arg: u64) {
        let e = Event {
            name,
            start,
            dur,
            arg,
        };
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// The retained spans in recording order (oldest first).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }

    /// Number of retained spans (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no span has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Spans lost to overwriting (total recorded = `len() + dropped()`).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The track label (becomes the Perfetto thread name).
    #[must_use]
    pub fn track(&self) -> &str {
        &self.track
    }

    /// The ring's time domain.
    #[must_use]
    pub fn domain(&self) -> TimeDomain {
        self.domain
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(64);

/// Spans a ring built by [`TraceRing::new`] holds.
const DEFAULT_RING_CAPACITY: usize = 512;

/// Turns tracing on process-wide and sets the provenance sampling
/// period (1-in-`sample_every` tuples; clamped to ≥ 1). Components
/// constructed while tracing is on allocate their rings; components
/// constructed while it is off carry `None` and stay span-free.
pub fn enable(sample_every: u64) {
    SAMPLE_EVERY.store(sample_every.max(1), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns tracing off process-wide (existing rings keep their spans).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether tracing is currently on.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The provenance sampling period set by [`enable`].
#[must_use]
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Wall-clock nanoseconds since the first call in this process.
///
/// All [`TimeDomain::Wall`] rings share this anchor, so spans from
/// different threads line up on one Perfetto timeline. Saturates after
/// ~584 years of process uptime.
#[must_use]
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Perfetto process id used for cycle-domain tracks.
const PID_CYCLES: u64 = 1;
/// Perfetto process id used for wall-clock tracks.
const PID_WALL: u64 = 2;

/// A named collection of rings, exportable as one Chrome trace-event
/// JSON document.
///
/// Cycle-domain rings land under process 1 ("simulated cycles", one
/// timeline microsecond per cycle) and wall-domain rings under process 2
/// ("wall clock"); each ring becomes one named thread track. Empty rings
/// are skipped.
#[derive(Debug, Clone, Default)]
pub struct TraceSet {
    name: String,
    rings: Vec<TraceRing>,
}

impl TraceSet {
    /// Creates an empty set; `name` becomes the output file stem.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            rings: Vec::new(),
        }
    }

    /// The set name (output file stem).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds one ring.
    pub fn push(&mut self, ring: TraceRing) {
        self.rings.push(ring);
    }

    /// Adds every ring from an iterator.
    pub fn extend(&mut self, rings: impl IntoIterator<Item = TraceRing>) {
        self.rings.extend(rings);
    }

    /// The collected rings.
    #[must_use]
    pub fn rings(&self) -> &[TraceRing] {
        &self.rings
    }

    /// True when every ring is empty (nothing to export).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(TraceRing::is_empty)
    }

    /// Builds the Chrome trace-event document
    /// (`{"traceEvents": [...], "otherData": {...}}`).
    ///
    /// Per track: one `ph:"M"` `thread_name` metadata event, then one
    /// `ph:"X"` complete event per span with `ts`/`dur` in microseconds
    /// (cycles map 1:1 to µs; wall nanoseconds are divided by 1000).
    /// `otherData` records per-track retained/dropped span counts.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut events = Vec::new();
        let mut other = vec![("trace_name".to_string(), Json::Str(self.name.clone()))];
        for (pid, label) in [(PID_CYCLES, "simulated cycles"), (PID_WALL, "wall clock")] {
            if self
                .rings
                .iter()
                .any(|r| pid_of(r.domain) == pid && !r.is_empty())
            {
                events.push(metadata(pid, 0, "process_name", label));
            }
        }
        let mut tid_by_pid = [0u64; 2];
        for ring in &self.rings {
            if ring.is_empty() {
                continue;
            }
            let pid = pid_of(ring.domain);
            let slot = (pid - 1) as usize;
            tid_by_pid[slot] += 1;
            let tid = tid_by_pid[slot];
            events.push(metadata(pid, tid, "thread_name", ring.track()));
            for e in ring.events() {
                let (ts, dur) = match ring.domain {
                    TimeDomain::Cycles => (Json::UInt(e.start), Json::UInt(e.dur)),
                    TimeDomain::Wall => (
                        Json::Float(e.start as f64 / 1_000.0),
                        Json::Float(e.dur as f64 / 1_000.0),
                    ),
                };
                events.push(Json::Obj(vec![
                    ("name".to_string(), Json::Str(e.name.to_string())),
                    ("ph".to_string(), Json::Str("X".to_string())),
                    ("pid".to_string(), Json::UInt(pid)),
                    ("tid".to_string(), Json::UInt(tid)),
                    ("ts".to_string(), ts),
                    ("dur".to_string(), dur),
                    (
                        "args".to_string(),
                        Json::Obj(vec![("arg".to_string(), Json::UInt(e.arg))]),
                    ),
                ]));
            }
            other.push((
                format!("track.{}", ring.track()),
                Json::Obj(vec![
                    ("events".to_string(), Json::UInt(ring.len() as u64)),
                    ("dropped".to_string(), Json::UInt(ring.dropped())),
                ]),
            ));
        }
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("otherData".to_string(), Json::Obj(other)),
        ])
    }

    /// Writes `<dir>/<sanitized name>.trace.json`, creating `dir` as
    /// needed. Returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let path = crate::manifest::artifact_path(dir.as_ref(), &self.name, ".trace.json")?;
        let mut text = self.to_json().to_string();
        text.push('\n');
        std::fs::write(&path, text)?;
        Ok(path)
    }

    /// Writes the trace to the default artifact directory (see
    /// [`default_dir`](crate::default_dir)). Returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_default(&self) -> io::Result<PathBuf> {
        self.write_to_dir(crate::default_dir())
    }
}

fn pid_of(domain: TimeDomain) -> u64 {
    match domain {
        TimeDomain::Cycles => PID_CYCLES,
        TimeDomain::Wall => PID_WALL,
    }
}

fn metadata(pid: u64, tid: u64, kind: &str, name: &str) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(kind.to_string())),
        ("ph".to_string(), Json::Str("M".to_string())),
        ("pid".to_string(), Json::UInt(pid)),
        ("tid".to_string(), Json::UInt(tid)),
        (
            "args".to_string(),
            Json::Obj(vec![("name".to_string(), Json::Str(name.to_string()))]),
        ),
    ])
}

/// What [`validate`] found in a trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of `ph:"X"` complete (span) events.
    pub spans: usize,
    /// `(track label, span count)` per track, in document order. The
    /// label comes from the `thread_name` metadata, falling back to
    /// `pid.tid`.
    pub tracks: Vec<(String, usize)>,
    /// Spans reported dropped by the recorder (`otherData` totals).
    pub dropped: u64,
}

/// Checks that `doc` is a well-formed Chrome trace-event document of the
/// shape this module writes, and summarizes it.
///
/// Verifies the `traceEvents` array exists and that every event carries
/// the schema's required fields: a string `name`, a string `ph`, integer
/// `pid`/`tid`, and — for `ph:"X"` spans — numeric `ts` and `dur`.
///
/// # Errors
///
/// Returns a message naming the first malformed event.
pub fn validate(doc: &Json) -> Result<TraceSummary, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let is_num = |v: &Json| matches!(v, Json::UInt(_) | Json::Int(_) | Json::Float(_));
    let mut names: Vec<((u64, u64), String)> = Vec::new();
    let mut counts: Vec<((u64, u64), usize)> = Vec::new();
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let field = |k: &str| ev.get(k).ok_or(format!("event {i}: missing `{k}`"));
        let name = field("name")?
            .as_str()
            .ok_or(format!("event {i}: `name` must be a string"))?;
        let ph = field("ph")?
            .as_str()
            .ok_or(format!("event {i}: `ph` must be a string"))?;
        let pid = field("pid")?
            .as_u64()
            .ok_or(format!("event {i}: `pid` must be an integer"))?;
        let tid = field("tid")?
            .as_u64()
            .ok_or(format!("event {i}: `tid` must be an integer"))?;
        match ph {
            "X" => {
                if !is_num(field("ts")?) || !is_num(field("dur")?) {
                    return Err(format!("event {i}: span `ts`/`dur` must be numbers"));
                }
                spans += 1;
                match counts.iter_mut().find(|(k, _)| *k == (pid, tid)) {
                    Some((_, n)) => *n += 1,
                    None => counts.push(((pid, tid), 1)),
                }
            }
            "M" => {
                if name == "thread_name" {
                    let label = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .ok_or(format!("event {i}: thread_name without args.name"))?;
                    names.push(((pid, tid), label.to_string()));
                }
            }
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    let tracks = counts
        .into_iter()
        .map(|(key, n)| {
            let label = names
                .iter()
                .find(|(k, _)| *k == key)
                .map_or_else(|| format!("{}.{}", key.0, key.1), |(_, l)| l.clone());
            (label, n)
        })
        .collect();
    let mut dropped = 0u64;
    if let Some(other) = doc.get("otherData").and_then(Json::as_obj) {
        for (_, v) in other {
            dropped += v.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        }
    }
    Ok(TraceSummary {
        spans,
        tracks,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_capacity_spans_and_counts_drops() {
        let mut r = TraceRing::with_capacity("t", TimeDomain::Cycles, 4);
        for i in 0..10u64 {
            r.record("s", i * 10, 5);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let starts: Vec<u64> = r.events().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![60, 70, 80, 90]); // the LAST 4, oldest first
    }

    #[test]
    fn ring_below_capacity_is_chronological_and_dropless() {
        let mut r = TraceRing::with_capacity("t", TimeDomain::Wall, 8);
        r.record_arg("a", 1, 2, 42);
        r.record("b", 3, 4);
        assert_eq!(r.dropped(), 0);
        let ev = r.events();
        assert_eq!(
            ev[0],
            Event {
                name: "a",
                start: 1,
                dur: 2,
                arg: 42
            }
        );
        assert_eq!(ev[1].name, "b");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = TraceRing::with_capacity("t", TimeDomain::Cycles, 0);
        r.record("a", 0, 1);
        r.record("b", 1, 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.events()[0].name, "b");
    }

    #[test]
    fn export_emits_chrome_schema_and_validates() {
        let mut cyc = TraceRing::with_capacity("core.0", TimeDomain::Cycles, 8);
        cyc.record_arg("probe", 100, 12, 3);
        let mut wall = TraceRing::with_capacity("sw.worker.1", TimeDomain::Wall, 8);
        wall.record("recv", 2_500, 1_000);
        let mut set = TraceSet::new("unit");
        set.push(cyc);
        set.push(wall);
        let doc = set.to_json();

        let summary = validate(&doc).unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(
            summary.tracks,
            vec![("core.0".to_string(), 1), ("sw.worker.1".to_string(), 1)]
        );
        assert_eq!(summary.dropped, 0);

        // Domains land in distinct processes; wall ns are µs-scaled.
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let span_of = |track_pid: u64| {
            events
                .iter()
                .find(|e| {
                    e.get("ph").and_then(Json::as_str) == Some("X")
                        && e.get("pid").and_then(Json::as_u64) == Some(track_pid)
                })
                .unwrap()
        };
        assert_eq!(span_of(1).get("ts").unwrap(), &Json::UInt(100));
        assert_eq!(span_of(2).get("ts").unwrap(), &Json::Float(2.5));
    }

    #[test]
    fn export_round_trips_through_the_parser_with_escaping() {
        let mut r = TraceRing::with_capacity("weird \"track\"\nname\t\\", TimeDomain::Wall, 4);
        r.record("span", 1, 1);
        let mut set = TraceSet::new("escape");
        set.push(r);
        let text = set.to_json().to_string();
        let back = Json::parse(&text).unwrap();
        let summary = validate(&back).unwrap();
        assert_eq!(summary.tracks[0].0, "weird \"track\"\nname\t\\");
    }

    #[test]
    fn empty_rings_are_skipped_and_empty_set_still_validates() {
        let mut set = TraceSet::new("empty");
        set.push(TraceRing::with_capacity("never", TimeDomain::Cycles, 4));
        assert!(set.is_empty());
        let doc = set.to_json();
        assert_eq!(validate(&doc).unwrap().spans, 0);
        assert!(doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn dropped_counts_surface_in_other_data() {
        let mut r = TraceRing::with_capacity("lossy", TimeDomain::Cycles, 2);
        for i in 0..5 {
            r.record("s", i, 1);
        }
        let mut set = TraceSet::new("drops");
        set.push(r);
        assert_eq!(validate(&set.to_json()).unwrap().dropped, 3);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate(&Json::Null).is_err());
        assert!(validate(&Json::Obj(vec![])).is_err());
        // A span without `ts`.
        let bad = Json::Obj(vec![(
            "traceEvents".to_string(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".to_string(), Json::Str("s".into())),
                ("ph".to_string(), Json::Str("X".into())),
                ("pid".to_string(), Json::UInt(1)),
                ("tid".to_string(), Json::UInt(1)),
            ])]),
        )]);
        assert!(validate(&bad).unwrap_err().contains("ts"));
    }

    #[test]
    fn write_to_dir_appends_trace_suffix() {
        let dir = std::env::temp_dir().join(format!("obs-trace-test-{}", std::process::id()));
        let mut r = TraceRing::with_capacity("t", TimeDomain::Cycles, 4);
        r.record("s", 0, 1);
        let mut set = TraceSet::new("fig15 run/1");
        set.push(r);
        let path = set.write_to_dir(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "fig15_run_1.trace.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(validate(&Json::parse(&text).unwrap()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn runtime_toggles_enable_state() {
        // Other tests share the process-global state; restore it.
        enable(7);
        assert!(enabled());
        assert_eq!(sample_every(), 7);
        disable();
        assert!(!enabled());
        enable(0); // clamps to 1
        assert_eq!(sample_every(), 1);
        disable();
    }
}
