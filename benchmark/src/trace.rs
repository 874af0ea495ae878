//! Spans recorded by the harness around its calls into each layer, kept
//! in memory and written as Chrome trace-event JSON when the run ends.
//!
//! `obs::trace::TraceRing` has no parent field, so the ledger keeps its
//! own span list and writes the document itself, in the shape
//! `obs::trace::validate` accepts; a span's parent and the index of the
//! 4096-arrival block it belongs to travel as event args.

use std::path::{Path, PathBuf};
use std::time::Instant;

use obs::json::Json;

use crate::report::obj;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The identifier shared by every span of one block of arrivals.
    pub block: u64,
}

/// Records spans when enabled; otherwise only runs the closures.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
    /// Innermost open span and current block.
    parent: Option<usize>,
    block: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
            parent: None,
            block: 0,
        }
    }

    pub fn set_block(&mut self, block: u64) {
        self.block = block;
    }

    /// Runs `f` as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let Some(spans) = &mut self.spans else {
            return f(self);
        };
        let id = spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parent,
            block: self.block,
        });
        let outer = self.parent.replace(id);
        let out = f(self);
        self.parent = outer;
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.as_mut().expect("enabled")[id].end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Seconds covered by the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    pub fn to_json(&self, track: &str) -> Json {
        let mut events = vec![obj(vec![
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(2)),
            ("tid", Json::UInt(1)),
            ("args", obj(vec![("name", Json::Str(track.into()))])),
        ])];
        events.extend(self.spans().iter().enumerate().map(|(id, s)| {
            obj(vec![
                ("name", Json::Str(s.name.into())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::UInt(2)),
                ("tid", Json::UInt(1)),
                ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                ("dur", Json::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    obj(vec![
                        ("id", Json::UInt(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("block", Json::UInt(s.block)),
                    ]),
                ),
            ])
        }));
        obj(vec![("traceEvents", Json::Arr(events))])
    }

    /// Writes `<dir>/<workload>.trace.json`.
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, self.to_json(workload).to_compact() + "\n")?;
        Ok(path)
    }
}
