//! Results as JSON, the host they were taken on, and `compare`.
//!
//! Every result carries the host's parallelism and CPU model, the git
//! revision, seed and run length, so that numbers from different hosts
//! or settings are never compared. Every value is measured; there is no
//! modeled mode.

use obs::json::Json;

use crate::spec::{Better, Workload, END_TO_END, PER_LAYER};

pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn number(value: &Json) -> Option<f64> {
    match *value {
        Json::UInt(n) => Some(n as f64),
        Json::Int(n) => Some(n as f64),
        Json::Float(x) => Some(x),
        _ => None,
    }
}

/// `value` with five significant digits: `setup_s` is 0.00005 on one
/// workload and `throughput_ktps` 400 on another.
fn show(value: f64) -> String {
    let magnitude = if value == 0.0 {
        0
    } else {
        value.abs().log10().floor() as i32
    };
    format!("{value:.*}", (4 - magnitude).max(0) as usize)
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Per-layer metric values by name; a name that is absent reads 0.
pub type Metrics = std::collections::BTreeMap<&'static str, f64>;

/// What an end-to-end run of either kind of workload hands back.
pub struct EndToEnd {
    /// In the order of [`END_TO_END`].
    pub throughput_ktps: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Tuple counts, sample counts and the like, for the result file.
    pub detail: Vec<(&'static str, Json)>,
}

/// What a traced run of either kind of workload hands back.
pub struct Traced {
    pub tracer: crate::trace::Tracer,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub detail: Vec<(&'static str, Json)>,
}

/// One run of one workload.
pub struct RunResult {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit, better)`: every end-to-end metric, or with
    /// `trace` every per-layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str, Better)>,
    /// Tuple counts, sample counts and the like.
    pub detail: Vec<(&'static str, Json)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// What the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit, _)| {
                let value = obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.into())),
                ]);
                (name.to_string(), value)
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// This run's entry in a result file: the contract's members plus
    /// which run it was and its detail.
    pub fn entry(&self) -> Json {
        let Json::Obj(mut members) = self.contract() else {
            unreachable!("contract() builds an object")
        };
        members.insert(
            0,
            (
                "workload".to_string(),
                Json::Str(self.workload.name.to_string()),
            ),
        );
        members.insert(1, ("trace".to_string(), Json::Bool(self.trace)));
        members.push(("detail".to_string(), obj(self.detail.clone())));
        Json::Obj(members)
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "{}: {}\n  seed {}, {} s{}: {} operations, {} failed\n",
            self.workload.name,
            self.workload.why,
            self.seed,
            self.seconds,
            if self.trace { ", traced" } else { "" },
            self.attempted,
            self.failed
        );
        for &(name, value, unit, better) in &self.metrics {
            out += &format!(
                "  {name:<34} {:>18} {unit:<10} ({} is better)\n",
                show(value),
                better.as_str()
            );
        }
        out
    }
}

/// The fields every result file starts with.
pub fn header(seed: u64, seconds: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("schema", Json::UInt(1)),
        ("host_parallelism", Json::UInt(host_parallelism() as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("git_rev", Json::Str(obs::git_rev().to_string())),
        ("seed", Json::UInt(seed)),
        ("run_seconds", Json::UInt(seconds)),
        // This benchmark's definition claims no gain.
        ("claim", Json::Null),
    ]
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric(results: &Json, workload: &str, trace: bool, name: &str) -> Option<f64> {
    results.as_arr()?.iter().find_map(|r| {
        let same =
            r.get("workload")?.as_str()? == workload && *r.get("trace")? == Json::Bool(trace);
        same.then(|| number(r.get("metrics")?.get(name)?.get("value")?))
            .flatten()
    })
}

/// One row per workload x end-to-end metric of two result documents, `a`
/// the base, as text; and whether `b` is worse beyond a bound anywhere or
/// an exact count differs.
///
/// With one value a side, the spread between the two is all there is to
/// judge noise by: a difference beyond the bound in the better direction
/// is called `unresolved`, never `unchanged`.
pub fn compare_docs(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for key in ["host_parallelism", "cpu_model", "run_seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "{key} differs ({:?} vs {:?}): the two sets are not comparable",
                a.get(key),
                b.get(key)
            ));
        }
    }
    let (ra, rb) = (
        a.get("results").ok_or("a: no results")?,
        b.get("results").ok_or("b: no results")?,
    );
    let mut workloads: Vec<&str> = Vec::new();
    for name in ra
        .as_arr()
        .ok_or("a: results is not an array")?
        .iter()
        .filter_map(|r| r.get("workload")?.as_str())
    {
        if !workloads.contains(&name) {
            workloads.push(name);
        }
    }

    let mut regressed = false;
    let mut table = format!(
        "{:<14} {:<22} {:>14} {:>14} {:>22} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "b/a (base: a)", "bound"
    );
    for workload in &workloads {
        for e in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric(ra, workload, false, e.name),
                metric(rb, workload, false, e.name),
            ) else {
                continue;
            };
            let ratio = vb / va;
            // Positive when b is worse, as a share of a.
            let worse_by = match e.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let verdict = if worse_by > e.bound {
                regressed = true;
                "WORSE"
            } else if worse_by < -e.bound {
                "unresolved"
            } else {
                "unchanged"
            };
            table += &format!(
                "{workload:<14} {:<22} {:>14} {:>14} {:>22} {:>5.0}%  {verdict}\n",
                e.name,
                show(va),
                show(vb),
                format!("{ratio:.4} of {}", show(va)),
                e.bound * 100.0
            );
        }
        for layer in PER_LAYER.iter().filter(|l| l.exact) {
            let (Some(va), Some(vb)) = (
                metric(ra, workload, true, layer.name),
                metric(rb, workload, true, layer.name),
            ) else {
                continue;
            };
            if va != vb {
                regressed = true;
                table += &format!(
                    "{workload:<14} {:<22} {va:>14} {vb:>14}  exact count DIFFERS\n",
                    layer.name
                );
            }
        }
    }
    Ok((table, regressed))
}

/// [`compare_docs`] on two result files; prints the table.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (table, regressed) = compare_docs(&load(path_a)?, &load(path_b)?)?;
    print!("{table}");
    Ok(regressed)
}
