//! The JSONL time-series artifact (`target/obs/<run>.series.jsonl`).
//!
//! A series file is the on-disk trail of a [`Sampler`](crate::live::Sampler)
//! run: line 1 is a self-describing header (schema version, run name, git
//! revision, sampling interval, configuration), and every further line is
//! one compact-JSON [`Snapshot`] — monotone `seq`,
//! monotonic `t_ns`, and the full name → value map. Each line reaches the
//! file in one write as its tick happens (instead of one document at the
//! end), so a crashed or killed run still leaves a readable prefix.
//!
//! [`SeriesDoc::parse`] is the strict reader `obstool series validate`
//! and CI use; [`SeriesWriter`] is the streaming writer.
//!
//! # Example
//!
//! ```
//! use obs::series::{SeriesDoc, SeriesHeader, SeriesWriter};
//! use obs::Snapshot;
//!
//! let dir = std::env::temp_dir().join(format!("series-doc-{}", std::process::id()));
//! let mut w = SeriesWriter::create(&dir, SeriesHeader::new("demo", 25)).unwrap();
//! w.append(&Snapshot { t_ns: 10, values: [("a.n", 1)].into_iter().collect() }).unwrap();
//! w.append(&Snapshot { t_ns: 20, values: [("a.n", 5)].into_iter().collect() }).unwrap();
//! let path = w.finish();
//!
//! let doc = SeriesDoc::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
//! assert_eq!(doc.samples.len(), 2);
//! assert_eq!(doc.series_of("a.n"), vec![(10, 1), (20, 5)]);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::manifest::{artifact_path, config_from_json, config_to_json};
use crate::values::increase;
use crate::{Snapshot, Values};

/// On-disk schema version written into every series header.
pub const SERIES_SCHEMA_VERSION: u64 = 1;

/// The self-describing first line of a series file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesHeader {
    /// Run name (also the output file stem: `<name>.series.jsonl`).
    pub name: String,
    /// Git revision of the producing build (see [`crate::git_rev`]).
    pub git_rev: String,
    /// The sampling interval the producer was configured with, in
    /// milliseconds.
    pub interval_ms: u64,
    /// Free-form configuration pairs (core count, window, transport, …),
    /// insertion-ordered.
    pub config: Vec<(String, String)>,
}

impl SeriesHeader {
    /// A header for run `name` stamped with the current [`crate::git_rev`].
    #[must_use]
    pub fn new(name: impl Into<String>, interval_ms: u64) -> Self {
        Self {
            name: name.into(),
            git_rev: crate::git_rev().to_string(),
            interval_ms,
            config: Vec::new(),
        }
    }

    /// Appends one configuration pair (order preserved).
    pub fn config(&mut self, key: impl Into<String>, value: impl ToString) {
        self.config.push((key.into(), value.to_string()));
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::UInt(SERIES_SCHEMA_VERSION)),
            ("kind".into(), Json::Str("series".into())),
            ("name".into(), Json::Str(self.name.clone())),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("interval_ms".into(), Json::UInt(self.interval_ms)),
            ("config".into(), config_to_json(&self.config)),
        ])
    }

    fn from_json(root: &Json) -> Result<Self, String> {
        let schema = root
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("header missing `schema`")?;
        if schema != SERIES_SCHEMA_VERSION {
            return Err(format!("unknown series schema version {schema}"));
        }
        match root.get("kind").and_then(Json::as_str) {
            Some("series") => {}
            _ => return Err("header `kind` must be \"series\"".into()),
        }
        let text = |k: &str| -> Result<String, String> {
            root.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("header `{k}` must be a string"))
        };
        Ok(Self {
            name: text("name")?,
            git_rev: text("git_rev")?,
            interval_ms: root
                .get("interval_ms")
                .and_then(Json::as_u64)
                .ok_or("header `interval_ms` must be a u64")?,
            config: config_from_json(root.get("config").unwrap_or(&Json::Null))?,
        })
    }
}

/// Streams snapshots into `<dir>/<name>.series.jsonl`, one compact JSON
/// line per sample after the header line.
#[derive(Debug)]
pub struct SeriesWriter {
    out: File,
    path: PathBuf,
    next_seq: u64,
}

impl SeriesWriter {
    /// Creates (truncating) the series file for `header.name` under
    /// `dir`, creating `dir` as needed, and writes the header line. The
    /// file stem is sanitized exactly like manifest names.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(dir: impl AsRef<Path>, header: SeriesHeader) -> io::Result<Self> {
        let path = artifact_path(dir.as_ref(), &header.name, ".series.jsonl")?;
        let mut writer = Self {
            out: File::create(&path)?,
            path,
            next_seq: 0,
        };
        writer.write_line(&header.to_json())?;
        Ok(writer)
    }

    /// The path being written.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// One line, one unbuffered write: a reader (or a crash) between two
    /// appends sees only whole lines.
    fn write_line(&mut self, line: &Json) -> io::Result<()> {
        let mut text = line.to_compact();
        text.push('\n');
        self.out.write_all(text.as_bytes())
    }

    /// Appends one snapshot as a sample line (assigning the next `seq`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, snap: &Snapshot) -> io::Result<()> {
        self.write_line(&Json::Obj(vec![
            ("seq".into(), Json::UInt(self.next_seq)),
            ("t_ns".into(), Json::UInt(snap.t_ns)),
            ("values".into(), snap.values.to_json()),
        ]))?;
        self.next_seq += 1;
        Ok(())
    }

    /// Closes the file and returns the written path.
    #[must_use]
    pub fn finish(self) -> PathBuf {
        self.path
    }
}

/// A fully parsed and validated series file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesDoc {
    /// The header line.
    pub header: SeriesHeader,
    /// Every sample line, in file order: a line's `seq` is its index.
    pub samples: Vec<Snapshot>,
}

impl SeriesDoc {
    /// Parses and validates a series file.
    ///
    /// Validation is strict — this is the CI gate behind
    /// `obstool series validate`: the header must carry schema
    /// [`SERIES_SCHEMA_VERSION`] and `kind: "series"`; at least one
    /// sample must follow; `seq` must count 0, 1, 2, … exactly; `t_ns`
    /// must be non-decreasing; every value must be a JSON `u64`. Key sets
    /// may differ between samples (engines register mid-run).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line (1-based).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, first) = lines.next().ok_or("empty series file")?;
        let header =
            SeriesHeader::from_json(&Json::parse(first).map_err(|e| format!("line 1: {e}"))?)
                .map_err(|e| format!("line 1: {e}"))?;
        let mut samples: Vec<Snapshot> = Vec::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            let root = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
            let num = |k: &str| -> Result<u64, String> {
                root.get(k)
                    .and_then(Json::as_u64)
                    .ok_or(format!("line {lineno}: `{k}` must be a u64"))
            };
            let seq = num("seq")?;
            if seq != samples.len() as u64 {
                return Err(format!(
                    "line {lineno}: seq {seq} out of order (expected {})",
                    samples.len()
                ));
            }
            let t_ns = num("t_ns")?;
            if let Some(prev) = samples.last() {
                if t_ns < prev.t_ns {
                    return Err(format!(
                        "line {lineno}: t_ns {t_ns} goes backwards (prev {})",
                        prev.t_ns
                    ));
                }
            }
            let values = Values::from_json(root.get("values").unwrap_or(&Json::Null))
                .map_err(|e| format!("line {lineno}: `values`: {e}"))?;
            samples.push(Snapshot { t_ns, values });
        }
        if samples.is_empty() {
            return Err("series has a header but no samples".into());
        }
        Ok(Self { header, samples })
    }

    /// Every key that appears in any sample, sorted and deduplicated.
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self
            .samples
            .iter()
            .flat_map(|s| s.values.iter().map(|(k, _)| k))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The `(t_ns, value)` trajectory of one key, skipping samples that
    /// lack it.
    #[must_use]
    pub fn series_of(&self, key: &str) -> Vec<(u64, u64)> {
        self.samples
            .iter()
            .filter_map(|s| s.values.get(key).map(|v| (s.t_ns, v)))
            .collect()
    }

    /// The overall per-second rate of counter `key` across the file: the
    /// sum of its per-interval increases, a fall read as a restart
    /// ([`Snapshot::delta`]), over the time from its first sample to its
    /// last (`None` when the key appears fewer than twice or no time
    /// elapsed).
    #[must_use]
    pub fn rate_of(&self, key: &str) -> Option<f64> {
        let points = self.series_of(key);
        let (t0, _) = *points.first()?;
        let (t1, _) = *points.last()?;
        let dt = t1.saturating_sub(t0);
        if dt == 0 {
            return None;
        }
        let total: u64 = points.windows(2).map(|w| increase(w[0].1, w[1].1)).sum();
        Some(total as f64 * 1e9 / dt as f64)
    }

    /// Wall-clock span covered by the samples, in nanoseconds.
    #[must_use]
    pub fn span_ns(&self) -> u64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.t_ns.saturating_sub(a.t_ns),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_writer(dir: &Path) -> SeriesWriter {
        let mut header = SeriesHeader::new("demo run", 25);
        header.config("cores", 4);
        let mut w = SeriesWriter::create(dir, header).unwrap();
        for (t, v) in [(100u64, 0u64), (200, 512), (300, 2048)] {
            w.append(&Snapshot {
                t_ns: t,
                values: [("j.tuples", v), ("j.depth", v / 100)]
                    .into_iter()
                    .collect(),
            })
            .unwrap();
        }
        w
    }

    #[test]
    fn writes_parses_and_validates() {
        let dir = std::env::temp_dir().join(format!("series-test-{}", std::process::id()));
        let path = demo_writer(&dir).finish();
        assert_eq!(path.file_name().unwrap(), "demo_run.series.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = SeriesDoc::parse(&text).unwrap();
        assert_eq!(doc.header.name, "demo run");
        assert_eq!(doc.header.interval_ms, 25);
        assert_eq!(
            doc.header.config,
            vec![("cores".to_string(), "4".to_string())]
        );
        assert_eq!(doc.samples.len(), 3);
        assert_eq!(doc.keys(), vec!["j.depth", "j.tuples"]);
        assert_eq!(
            doc.series_of("j.tuples"),
            vec![(100, 0), (200, 512), (300, 2048)]
        );
        assert_eq!(doc.rate_of("j.tuples"), Some(2048.0 * 1e9 / 200.0));
        assert_eq!(doc.span_ns(), 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_file_parses_while_the_writer_is_still_alive() {
        // What a killed run leaves behind is what is on disk before
        // `finish`: every appended line must already be there, whole.
        let dir = std::env::temp_dir().join(format!("series-live-{}", std::process::id()));
        let writer = demo_writer(&dir);
        let text = std::fs::read_to_string(writer.path()).unwrap();
        let doc = SeriesDoc::parse(&text).expect("a readable prefix, not a torn line");
        assert_eq!(doc.samples.len(), 3);
        drop(writer);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_structural_damage() {
        let dir = std::env::temp_dir().join(format!("series-bad-{}", std::process::id()));
        let text = std::fs::read_to_string(demo_writer(&dir).finish()).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert!(SeriesDoc::parse("").unwrap_err().contains("empty"));
        // Header alone is not a valid series.
        let header_only = text.lines().next().unwrap();
        assert!(SeriesDoc::parse(header_only)
            .unwrap_err()
            .contains("no samples"));
        // Wrong schema version.
        assert!(
            SeriesDoc::parse(&text.replacen("\"schema\":1", "\"schema\":9", 1))
                .unwrap_err()
                .contains("schema")
        );
        // Broken seq ordering.
        assert!(
            SeriesDoc::parse(&text.replacen("\"seq\":1", "\"seq\":7", 1))
                .unwrap_err()
                .contains("out of order")
        );
        // Time going backwards.
        assert!(
            SeriesDoc::parse(&text.replacen("\"t_ns\":300", "\"t_ns\":50", 1))
                .unwrap_err()
                .contains("backwards")
        );
        // Non-u64 value.
        assert!(
            SeriesDoc::parse(&text.replacen("\"j.depth\":5", "\"j.depth\":-5", 1))
                .unwrap_err()
                .contains("u64")
        );
    }

    #[test]
    fn samples_may_grow_their_key_set() {
        let header = "{\"schema\":1,\"kind\":\"series\",\"name\":\"x\",\"git_rev\":\"abc\",\"interval_ms\":10,\"config\":{}}";
        let text = format!(
            "{header}\n{}\n{}\n",
            "{\"seq\":0,\"t_ns\":1,\"values\":{\"a\":1}}",
            "{\"seq\":1,\"t_ns\":2,\"values\":{\"a\":2,\"b\":9}}",
        );
        let doc = SeriesDoc::parse(&text).unwrap();
        assert_eq!(doc.keys(), vec!["a", "b"]);
        assert_eq!(doc.series_of("b"), vec![(2, 9)]);
    }

    #[test]
    fn a_falling_pair_is_a_restart_in_the_rate() {
        // A newer engine's gauge restarts at 0: 100 -> 300 is +200, the
        // fall to 50 is +50 from the restart, 50 -> 150 is +100.
        let header = "{\"schema\":1,\"kind\":\"series\",\"name\":\"x\",\"git_rev\":\"abc\",\"interval_ms\":10,\"config\":{}}";
        let samples: Vec<String> = [(100u64, 0u64), (300, 1), (50, 2), (150, 3)]
            .iter()
            .map(|(v, i)| {
                let t = 1_000_000_000 * (i + 1);
                format!("{{\"seq\":{i},\"t_ns\":{t},\"values\":{{\"w.busy_ns\":{v}}}}}")
            })
            .collect();
        let doc = SeriesDoc::parse(&format!("{header}\n{}\n", samples.join("\n"))).unwrap();
        assert_eq!(doc.rate_of("w.busy_ns"), Some(350.0 / 3.0));
    }
}
