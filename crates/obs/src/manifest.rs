//! Machine-readable per-run artifacts (`target/obs/*.json`).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::json::Json;
use crate::{Histogram, Values};

/// On-disk schema version written into every manifest.
pub const SCHEMA_VERSION: u64 = 1;

/// A machine-readable record of one measurement run: what was run (name,
/// git revision, thread count, configuration), every counter snapshot,
/// and every histogram — serialized as pretty-printed JSON into
/// `target/obs/<name>.json`.
///
/// Manifests are what make perf runs comparable across commits: every
/// `figs` figure and the `faults` run write one, so two checkouts can be
/// diffed artifact-to-artifact instead of eyeballing console tables.
///
/// # Example
///
/// ```
/// use obs::{Histogram, RunManifest};
///
/// let mut m = RunManifest::new("fig14c");
/// m.config("cores", "512");
/// m.counter("w2e11.cycles", 123_911);
/// let mut h = Histogram::new();
/// h.record_value(242);
/// m.histogram("service_cycles", h);
///
/// let text = m.to_json();
/// let back = RunManifest::from_json(&text).unwrap();
/// assert_eq!(back, m);
/// assert_eq!(back.histograms()[0].1.p50(), Some(242));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    name: String,
    git_rev: String,
    threads: u64,
    config: Vec<(String, String)>,
    counters: Values,
    histograms: Vec<(String, Histogram)>,
}

impl RunManifest {
    /// Creates a manifest for run `name` with the current git revision
    /// (see [`git_rev`]) and a thread count of 1.
    ///
    /// `ACCEL_OBS_DIR`, the one environment variable the workspace
    /// reads, is pre-seeded into the config block as `env.ACCEL_OBS_DIR`
    /// when set, so artifacts say where they were written.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let config = std::env::var("ACCEL_OBS_DIR")
            .map(|dir| vec![("env.ACCEL_OBS_DIR".to_string(), dir)])
            .unwrap_or_default();
        Self {
            name: name.into(),
            git_rev: git_rev().to_string(),
            threads: 1,
            config,
            counters: Values::new(),
            histograms: Vec::new(),
        }
    }

    /// The run name (also the output file stem).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The git revision the manifest was stamped with.
    #[must_use]
    pub fn git_rev(&self) -> &str {
        &self.git_rev
    }

    /// The recorded worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads as usize
    }

    /// Records one configuration key/value pair (window size, core count,
    /// network variant, …). Order is preserved.
    pub fn config(&mut self, key: impl Into<String>, value: impl ToString) {
        self.config.push((key.into(), value.to_string()));
    }

    /// The recorded configuration pairs, in insertion order.
    #[must_use]
    pub fn config_entries(&self) -> &[(String, String)] {
        &self.config
    }

    /// Records one named counter value.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.record(name, value);
    }

    /// Absorbs every entry of a [`Values`] map — what an engine
    /// publishes at shutdown, or a registry's final reading.
    pub fn record_values(&mut self, values: &Values) {
        self.counters.absorb(values);
    }

    /// The recorded counters.
    #[must_use]
    pub fn counters(&self) -> &Values {
        &self.counters
    }

    /// Attaches a named histogram (replacing an existing one of the same
    /// name).
    pub fn histogram(&mut self, name: impl Into<String>, hist: Histogram) {
        let name = name.into();
        if let Some(slot) = self.histograms.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = hist;
        } else {
            self.histograms.push((name, hist));
        }
    }

    /// The attached histograms, in insertion order.
    #[must_use]
    pub fn histograms(&self) -> &[(String, Histogram)] {
        &self.histograms
    }

    /// Serializes to pretty-printed JSON (schema: see module docs and
    /// `EXPERIMENTS.md`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut root = vec![
            ("schema".to_string(), Json::UInt(SCHEMA_VERSION)),
            ("name".to_string(), Json::Str(self.name.clone())),
            ("git_rev".to_string(), Json::Str(self.git_rev.clone())),
            ("threads".to_string(), Json::UInt(self.threads)),
        ];
        root.push(("config".to_string(), config_to_json(&self.config)));
        root.push(("counters".to_string(), self.counters.to_json()));
        root.push((
            "histograms".to_string(),
            Json::Obj(
                self.histograms
                    .iter()
                    .map(|(name, h)| (name.clone(), hist_to_json(h)))
                    .collect(),
            ),
        ));
        let mut text = Json::Obj(root).to_string();
        text.push('\n');
        text
    }

    /// Parses a manifest previously produced by [`RunManifest::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a missing field, or an
    /// unknown schema version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        let schema = root
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("missing `schema`")?;
        if schema != SCHEMA_VERSION {
            return Err(format!("unknown schema version {schema}"));
        }
        let field =
            |k: &str| -> Result<&Json, String> { root.get(k).ok_or(format!("missing `{k}`")) };
        let mut m = RunManifest {
            name: field("name")?
                .as_str()
                .ok_or("`name` must be a string")?
                .into(),
            git_rev: field("git_rev")?
                .as_str()
                .ok_or("`git_rev` must be a string")?
                .into(),
            threads: field("threads")?
                .as_u64()
                .ok_or("`threads` must be an integer")?,
            config: config_from_json(field("config")?)?,
            counters: Values::from_json(field("counters")?)
                .map_err(|e| format!("`counters`: {e}"))?,
            histograms: Vec::new(),
        };
        for (k, v) in field("histograms")?
            .as_obj()
            .ok_or("`histograms` must be an object")?
        {
            m.histograms.push((k.clone(), hist_from_json(v)?));
        }
        Ok(m)
    }

    /// Writes `<dir>/<name>.json`, creating `dir` as needed. Returns the
    /// written path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let path = artifact_path(dir.as_ref(), &self.name, ".json")?;
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes the manifest to the default artifact directory (see
    /// [`default_dir`]). Returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_default(&self) -> io::Result<PathBuf> {
        self.write_to_dir(default_dir())
    }
}

/// The default artifact directory: `$ACCEL_OBS_DIR` if set, else
/// `target/obs` under the enclosing workspace root (the nearest ancestor
/// of the working directory holding a `Cargo.lock`; cargo sets the
/// working directory to the *package* root for benches and tests, so a
/// plain relative path would scatter artifacts across `crates/*/target`).
/// Falls back to `./target/obs` outside any workspace.
#[must_use]
pub fn default_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("ACCEL_OBS_DIR") {
        return PathBuf::from(dir);
    }
    let target = PathBuf::from("target").join("obs");
    if let Ok(cwd) = std::env::current_dir() {
        for dir in cwd.ancestors() {
            if dir.join("Cargo.lock").is_file() {
                return dir.join(&target);
            }
        }
    }
    target
}

/// Where artifact `name` goes under `dir`, which is created as needed:
/// `<dir>/<stem><suffix>`, the stem being `name` with every character
/// outside `[alphanumeric-_]` replaced by `_`. Manifests (`.json`),
/// traces (`.trace.json`) and series (`.series.jsonl`) of one run share
/// the stem.
pub(crate) fn artifact_path(dir: &Path, name: &str, suffix: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let stem: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    Ok(dir.join(format!("{stem}{suffix}")))
}

/// The `config` object of a manifest or a series header: string pairs in
/// insertion order.
pub(crate) fn config_to_json(config: &[(String, String)]) -> Json {
    Json::Obj(
        config
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

/// Inverse of [`config_to_json`].
pub(crate) fn config_from_json(json: &Json) -> Result<Vec<(String, String)>, String> {
    json.as_obj()
        .ok_or("`config` must be an object")?
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.as_str().ok_or("config values are strings")?.to_string(),
            ))
        })
        .collect()
}

/// The git revision baked into manifests: `git rev-parse --short=12 HEAD`
/// in the working directory, or `"unknown"` when git (or a repository) is
/// unavailable. Cached for the process lifetime.
#[must_use]
pub fn git_rev() -> &'static str {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

fn hist_to_json(h: &Histogram) -> Json {
    let buckets = h
        .rows()
        .into_iter()
        .map(|(low, _, n)| Json::Arr(vec![Json::UInt(low), Json::UInt(n)]))
        .collect();
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::UInt);
    Json::Obj(vec![
        ("count".to_string(), Json::UInt(h.total())),
        ("sum".to_string(), opt(h.sum())),
        ("min".to_string(), opt(h.min())),
        ("max".to_string(), opt(h.max())),
        // Derived quantiles, for human readers and plotting scripts; the
        // parser rebuilds from the buckets and ignores these.
        ("p50".to_string(), opt(h.p50())),
        ("p95".to_string(), opt(h.p95())),
        ("p99".to_string(), opt(h.p99())),
        ("buckets".to_string(), Json::Arr(buckets)),
    ])
}

fn hist_from_json(v: &Json) -> Result<Histogram, String> {
    let count = v
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("histogram missing `count`")?;
    let num = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut rows = Vec::new();
    for item in v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("histogram missing `buckets`")?
    {
        let pair = item.as_arr().ok_or("bucket rows are [low, count] pairs")?;
        match pair {
            [low, n] => rows.push((
                low.as_u64().ok_or("bucket low must be u64")?,
                n.as_u64().ok_or("bucket count must be u64")?,
            )),
            _ => return Err("bucket rows are [low, count] pairs".into()),
        }
    }
    Histogram::from_parts(&rows, count, num("sum"), num("min"), num("max"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("unit-test run/42");
        m.config("cores", "512");
        m.config("window", "2^11");
        m.counter("cycles", (1u64 << 53) + 7); // beyond f64 integer range
        m.counter("stalls", 0);
        let mut h = Histogram::new();
        for v in [4u64, 5, 6, 900, 1_000_000] {
            h.record_value(v);
        }
        m.histogram("service_cycles", h);
        m.histogram("empty", Histogram::new());
        m
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let m = sample();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.counters().get("cycles"), Some((1u64 << 53) + 7));
        assert_eq!(back.histograms()[0].1.total(), 5);
        assert_eq!(back.histograms()[1].1.total(), 0);
    }

    #[test]
    fn rejects_wrong_schema_and_missing_fields() {
        assert!(RunManifest::from_json("{}").is_err());
        let bumped = sample()
            .to_json()
            .replacen("\"schema\": 1", "\"schema\": 99", 1);
        assert!(RunManifest::from_json(&bumped)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn write_to_dir_sanitizes_the_file_name() {
        let dir = std::env::temp_dir().join(format!("obs-test-{}", std::process::id()));
        let path = sample().write_to_dir(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "unit-test_run_42.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(RunManifest::from_json(&text).unwrap(), sample());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn new_manifests_seed_only_the_environment() {
        let m = RunManifest::new("x");
        assert!(m
            .config_entries()
            .iter()
            .all(|(key, _)| key == "env.ACCEL_OBS_DIR"));
        // Every pre-seeded entry survives the JSON round trip.
        assert_eq!(RunManifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn git_rev_is_stable_within_a_process() {
        assert_eq!(git_rev(), git_rev());
        assert!(!git_rev().is_empty());
    }
}
