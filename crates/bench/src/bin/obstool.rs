//! Inspects the artifacts the bench harness drops under `target/obs/`:
//! run manifests (`<figure>.json`) and Chrome/Perfetto trace exports
//! (`<figure>.trace.json`).
//!
//! ```text
//! obstool summarize <manifest.json>
//! obstool diff <baseline.json> <candidate.json> [--tolerance PCT]
//!             [--require PREFIX]
//! obstool trace <file.trace.json>
//! obstool series validate <file.series.jsonl>
//! obstool series summarize <file.series.jsonl>
//! obstool series spark <file.series.jsonl> <key>
//! ```
//!
//! `summarize` prints a manifest's config, counters, and histogram
//! digests. `diff` compares two manifests counter by counter and
//! histogram by histogram, flags relative drifts beyond the tolerance
//! (default 10%), and exits non-zero when anything drifted — the CI
//! determinism smoke runs a figure twice and diffs the manifests.
//! `--require PREFIX` additionally fails the diff unless the candidate
//! manifest carries at least one counter or histogram under that prefix
//! (the CI fault leg asserts `fault.*` made it into the schema).
//! `trace` validates a trace export against the Chrome trace-event
//! schema and summarizes spans per track.
//!
//! `series` works on the live-telemetry time-series artifacts
//! (`<figure>.series.jsonl`, written by the `--live` flag of the figure
//! binaries): `validate` strictly checks the schema (CI runs it on the
//! bench-smoke artifacts), `summarize` prints per-key digests and
//! rates and the run's unhealthy stretches with their reasons
//! ([`obs::health::unhealthy`]), and `spark` renders one key's
//! trajectory as a sparkline.

use std::collections::BTreeSet;
use std::process::ExitCode;

use obs::json::Json;
use obs::RunManifest;

fn usage() -> ExitCode {
    eprintln!(
        "usage: obstool summarize <manifest.json>\n\
        \x20      obstool diff <baseline.json> <candidate.json> [--tolerance PCT]\n\
        \x20                   [--require PREFIX]\n\
        \x20      obstool trace <file.trace.json>\n\
        \x20      obstool series validate|summarize <file.series.jsonl>\n\
        \x20      obstool series spark <file.series.jsonl> <key>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("summarize") if args.len() == 2 => summarize(&args[1]),
        Some("diff") => match parse_diff_args(&args[1..]) {
            Some((a, b, tol, require)) => diff(a, b, tol, require),
            None => return usage(),
        },
        Some("trace") if args.len() == 2 => trace(&args[1]),
        Some("series") => match args.get(1).map(String::as_str) {
            Some("validate") if args.len() == 3 => series_validate(&args[2]),
            Some("summarize") if args.len() == 3 => series_summarize(&args[2]),
            Some("spark") if args.len() == 4 => series_spark(&args[2], &args[3]),
            _ => return usage(),
        },
        _ => return usage(),
    };
    match result {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_diff_args(rest: &[String]) -> Option<(&str, &str, f64, Option<&str>)> {
    let mut paths = Vec::new();
    let mut tolerance = 10.0;
    let mut require = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--tolerance" => {
                tolerance = rest.get(i + 1)?.parse().ok()?;
                i += 2;
            }
            flag if flag.starts_with("--tolerance=") => {
                tolerance = flag["--tolerance=".len()..].parse().ok()?;
                i += 1;
            }
            "--require" => {
                require = Some(rest.get(i + 1)?.as_str());
                i += 2;
            }
            flag if flag.starts_with("--require=") => {
                require = Some(&rest[i]["--require=".len()..]);
                i += 1;
            }
            path => {
                paths.push(path);
                i += 1;
            }
        }
    }
    if paths.len() == 2 && tolerance >= 0.0 {
        Some((paths[0], paths[1], tolerance, require))
    } else {
        None
    }
}

fn load_manifest(path: &str) -> Result<RunManifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    RunManifest::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn summarize(path: &str) -> Result<bool, String> {
    let m = load_manifest(path)?;
    println!(
        "manifest {} (git {}, threads {})",
        m.name(),
        m.git_rev(),
        m.threads()
    );
    if !m.config_entries().is_empty() {
        println!("config:");
        for (k, v) in m.config_entries() {
            println!("  {k} = {v}");
        }
    }
    if !m.counters().is_empty() {
        println!("counters:");
        for (k, v) in m.counters().iter() {
            println!("  {k} = {v}");
        }
    }
    if !m.histograms().is_empty() {
        println!("histograms:");
        for (name, h) in m.histograms() {
            println!(
                "  {name}: n={} sum={} p50={} p99={} max={}",
                h.total(),
                h.sum().unwrap_or(0),
                h.p50().unwrap_or(0),
                h.p99().unwrap_or(0),
                h.max().unwrap_or(0),
            );
        }
    }
    Ok(true)
}

/// One drifted metric: `(metric, baseline, candidate, relative %)`.
type Drift = (String, f64, f64, f64);

/// Relative drift of `b` versus baseline `a`, in percent. A change from
/// zero is infinite drift — any tolerance flags it.
fn drift_pct(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        100.0 * (b - a).abs() / a.abs()
    }
}

/// Compares every counter and histogram digest present in either
/// manifest; returns the drifts beyond `tolerance` percent. A metric
/// missing on one side counts as zero there (infinite drift).
fn manifest_drifts(a: &RunManifest, b: &RunManifest, tolerance: f64) -> Vec<Drift> {
    let mut out = Vec::new();
    let mut check = |metric: String, va: f64, vb: f64| {
        if drift_pct(va, vb) > tolerance {
            out.push((metric, va, vb, drift_pct(va, vb)));
        }
    };
    let (ca, cb) = (a.counters(), b.counters());
    let names: BTreeSet<&str> = ca.iter().chain(cb.iter()).map(|(k, _)| k).collect();
    for name in names {
        let (va, vb) = (ca.get(name).unwrap_or(0), cb.get(name).unwrap_or(0));
        check(name.to_string(), va as f64, vb as f64);
    }
    let digest = |m: &RunManifest, name: &str| -> Option<(f64, f64)> {
        m.histograms()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| (h.total() as f64, h.sum().unwrap_or(0) as f64))
    };
    let hnames: BTreeSet<&str> = a
        .histograms()
        .iter()
        .chain(b.histograms())
        .map(|(n, _)| n.as_str())
        .collect();
    for name in hnames {
        let (na, sa) = digest(a, name).unwrap_or((0.0, 0.0));
        let (nb, sb) = digest(b, name).unwrap_or((0.0, 0.0));
        check(format!("hist {name} (count)"), na, nb);
        check(format!("hist {name} (sum)"), sa, sb);
    }
    out
}

/// Metric names (counters and histograms) in `m` under `prefix`.
fn metrics_under<'m>(m: &'m RunManifest, prefix: &str) -> Vec<&'m str> {
    let mut names: Vec<&str> = m
        .counters()
        .iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with(prefix))
        .collect();
    names.extend(
        m.histograms()
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with(prefix)),
    );
    names.sort_unstable();
    names
}

fn diff(a_path: &str, b_path: &str, tolerance: f64, require: Option<&str>) -> Result<bool, String> {
    let a = load_manifest(a_path)?;
    let b = load_manifest(b_path)?;
    if let Some(prefix) = require {
        let present = metrics_under(&b, prefix);
        if present.is_empty() {
            println!(
                "FAIL: `{}` carries no counter or histogram under `{prefix}*`",
                b.name()
            );
            return Ok(false);
        }
        println!(
            "required `{prefix}*` present in `{}`: {}",
            b.name(),
            present.join(", ")
        );
    }
    let drifts = manifest_drifts(&a, &b, tolerance);
    if drifts.is_empty() {
        println!(
            "OK: `{}` matches `{}` within {tolerance}% ({} counters, {} histograms)",
            b.name(),
            a.name(),
            a.counters().len(),
            a.histograms().len(),
        );
        return Ok(true);
    }
    println!(
        "{} metric(s) drifted beyond {tolerance}% ({a_path} -> {b_path}):",
        drifts.len()
    );
    for (metric, va, vb, pct) in &drifts {
        println!("  {metric}: {va} -> {vb} ({pct:.1}%)");
    }
    Ok(false)
}

fn trace(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let summary = obs::trace::validate(&doc).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "valid Chrome trace: {} span(s), {} dropped",
        summary.spans, summary.dropped
    );
    for (track, spans) in &summary.tracks {
        println!("  {track}: {spans} span(s)");
    }
    Ok(true)
}

fn load_series(path: &str) -> Result<obs::series::SeriesDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    obs::series::SeriesDoc::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn series_validate(path: &str) -> Result<bool, String> {
    let doc = load_series(path)?;
    println!(
        "valid series: {} ({} samples, {} keys, {:.2}s span, {}ms interval, git {})",
        doc.header.name,
        doc.samples.len(),
        doc.keys().len(),
        doc.span_ns() as f64 / 1e9,
        doc.header.interval_ms,
        doc.header.git_rev,
    );
    Ok(true)
}

fn series_summarize(path: &str) -> Result<bool, String> {
    let doc = load_series(path)?;
    println!(
        "series {} (git {}, {}ms interval, {} samples over {:.2}s)",
        doc.header.name,
        doc.header.git_rev,
        doc.header.interval_ms,
        doc.samples.len(),
        doc.span_ns() as f64 / 1e9,
    );
    if !doc.header.config.is_empty() {
        println!("config:");
        for (k, v) in &doc.header.config {
            println!("  {k} = {v}");
        }
    }
    println!("keys:");
    for key in doc.keys() {
        let points = doc.series_of(key);
        let first = points.first().map_or(0, |&(_, v)| v);
        let last = points.last().map_or(0, |&(_, v)| v);
        let max = points.iter().map(|&(_, v)| v).max().unwrap_or(0);
        match doc.rate_of(key) {
            Some(rate) => println!("  {key}: {first} -> {last} (max {max}, {rate:.1}/s)"),
            None => println!("  {key}: {first} -> {last} (max {max})"),
        }
    }
    for line in health_block(&doc) {
        println!("{line}");
    }
    Ok(true)
}

/// The `health` block of `series summarize`: every unhealthy stretch,
/// in seconds since the first sample, with its reasons.
fn health_block(doc: &obs::series::SeriesDoc) -> Vec<String> {
    let stretches = obs::health::unhealthy(doc);
    if stretches.is_empty() {
        return vec!["health: healthy throughout".into()];
    }
    let t0 = doc.samples[0].t_ns;
    let secs = |t: u64| (t - t0) as f64 / 1e9;
    let mut lines = vec![format!("health: {} unhealthy stretch(es)", stretches.len())];
    for stretch in &stretches {
        let (start, end) = (secs(stretch.start_ns), secs(stretch.end_ns));
        lines.push(format!("  {start:.3}s..{end:.3}s:"));
        lines.extend(stretch.reasons.iter().map(|r| format!("    {r}")));
    }
    lines
}

/// Renders `values` as a fixed-palette sparkline, downsampled (by
/// bucket max) to at most `width` columns. Empty input renders empty.
fn sparkline(values: &[u64], width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let buckets: Vec<u64> = if values.len() <= width {
        values.to_vec()
    } else {
        (0..width)
            .map(|b| {
                let lo = b * values.len() / width;
                let hi = ((b + 1) * values.len() / width).max(lo + 1);
                values[lo..hi].iter().copied().max().unwrap_or(0)
            })
            .collect()
    };
    let lo = buckets.iter().copied().min().unwrap_or(0);
    let hi = buckets.iter().copied().max().unwrap_or(0);
    let span = (hi - lo).max(1);
    buckets
        .iter()
        .map(|&v| LEVELS[((v - lo) * (LEVELS.len() as u64 - 1) / span) as usize])
        .collect()
}

fn series_spark(path: &str, key: &str) -> Result<bool, String> {
    let doc = load_series(path)?;
    let points = doc.series_of(key);
    if points.is_empty() {
        let known = doc.keys().join(", ");
        return Err(format!("key `{key}` not in series (known keys: {known})"));
    }
    let values: Vec<u64> = points.iter().map(|&(_, v)| v).collect();
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    println!("{key} ({} points, min {min}, max {max})", values.len());
    println!("{}", sparkline(&values, 72));
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(counter: u64, hist_vals: &[u64]) -> RunManifest {
        let mut m = RunManifest::new("t");
        m.counter("tuples", counter);
        let mut h = obs::Histogram::new();
        for &v in hist_vals {
            h.record_value(v);
        }
        m.histogram("lat", h);
        m
    }

    #[test]
    fn identical_manifests_have_no_drift() {
        let a = manifest(100, &[5, 9]);
        assert!(manifest_drifts(&a, &manifest(100, &[5, 9]), 0.0).is_empty());
    }

    #[test]
    fn counter_drift_beyond_tolerance_is_flagged() {
        let a = manifest(100, &[5]);
        let b = manifest(125, &[5]);
        assert!(manifest_drifts(&a, &b, 30.0).is_empty());
        let drifts = manifest_drifts(&a, &b, 20.0);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].0, "tuples");
        assert_eq!(drifts[0].3, 25.0);
    }

    #[test]
    fn metric_appearing_from_zero_is_infinite_drift() {
        let mut a = RunManifest::new("t");
        a.counter("only_in_b", 0);
        let mut b = RunManifest::new("t");
        b.counter("only_in_b", 7);
        let drifts = manifest_drifts(&a, &b, 1e9);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].3.is_infinite());
    }

    #[test]
    fn histogram_sum_drift_is_flagged_separately_from_count() {
        let a = manifest(1, &[10, 10]);
        let b = manifest(1, &[10, 100]); // same count, bigger sum
        let drifts = manifest_drifts(&a, &b, 10.0);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].0.contains("sum"));
    }

    #[test]
    fn diff_args_accept_tolerance_forms() {
        let args: Vec<String> = ["a.json", "b.json", "--tolerance", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_diff_args(&args),
            Some(("a.json", "b.json", 5.0, None))
        );
        let args: Vec<String> = ["--tolerance=2.5", "a.json", "b.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_diff_args(&args),
            Some(("a.json", "b.json", 2.5, None))
        );
        let args: Vec<String> = ["a.json"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_diff_args(&args), None);
    }

    #[test]
    fn diff_args_accept_require_forms() {
        let args: Vec<String> = ["a.json", "b.json", "--require", "fault."]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_diff_args(&args),
            Some(("a.json", "b.json", 10.0, Some("fault.")))
        );
        let args: Vec<String> = ["--require=fault.", "a.json", "b.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_diff_args(&args),
            Some(("a.json", "b.json", 10.0, Some("fault.")))
        );
    }

    #[test]
    fn sparkline_scales_and_downsamples() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[5], 10), "▁");
        let line = sparkline(&[0, 7], 10);
        assert_eq!(line.chars().collect::<Vec<_>>(), vec!['▁', '█']);
        // Constant series stays at the floor instead of dividing by zero.
        assert_eq!(sparkline(&[3, 3, 3], 10), "▁▁▁");
        // 100 points squeeze into the requested width.
        let wide: Vec<u64> = (0..100).collect();
        assert_eq!(sparkline(&wide, 8).chars().count(), 8);
    }

    #[test]
    fn series_commands_validate_and_summarize_a_real_artifact() {
        let dir = std::env::temp_dir().join(format!("obstool-series-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let reg = obs::Registry::new();
        let c = reg.counter("sw.tuples");
        let header = obs::series::SeriesHeader::new("obstool-test", 5);
        let mut writer = obs::series::SeriesWriter::create(&dir, header).unwrap();
        for v in [10u64, 30, 60] {
            c.add(v);
            writer.append(&reg.snapshot()).unwrap();
        }
        let path = writer.finish();
        let path = path.to_str().unwrap();
        assert!(series_validate(path).unwrap());
        assert!(series_summarize(path).unwrap());
        assert!(series_spark(path, "sw.tuples").unwrap());
        let err = series_spark(path, "missing.key").unwrap_err();
        assert!(err.contains("known keys"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn series_summarize_names_the_stalled_stretch_or_healthy_throughout() {
        use obs::health::PRESSURE_HEARTBEAT_AGE_NS as STALLED;
        // Samples every 0.5 s from 10 s on, each `silence` after the
        // worker's last beat.
        let doc = |silences: &[u64]| obs::series::SeriesDoc {
            header: obs::series::SeriesHeader::new("synthetic", 500),
            samples: silences
                .iter()
                .zip(0u64..)
                .map(|(&silence, i)| {
                    let t_ns = 10_000_000_000 + i * 500_000_000;
                    obs::Snapshot {
                        t_ns,
                        values: [("splitjoin.worker.1.last_beat_ns", t_ns - silence)]
                            .into_iter()
                            .collect(),
                    }
                })
                .collect(),
        };
        assert_eq!(
            health_block(&doc(&[0, 0, STALLED, STALLED + 1, 0])),
            [
                "health: 1 unhealthy stretch(es)",
                "  0.500s..1.500s:",
                "    splitjoin.worker.1.last_beat_ns = 2500000001 >= PRESSURE_HEARTBEAT_AGE_NS",
            ]
        );
        assert_eq!(
            health_block(&doc(&[0, 1, STALLED - 1])),
            ["health: healthy throughout"]
        );
    }

    #[test]
    fn metrics_under_finds_counters_and_histograms() {
        let mut m = RunManifest::new("t");
        m.counter("fault.workers_lost", 1);
        m.counter("sw.tuples", 9);
        m.histogram("fault.recovery_ns", obs::Histogram::new());
        assert_eq!(
            metrics_under(&m, "fault."),
            vec!["fault.recovery_ns", "fault.workers_lost"]
        );
        assert!(metrics_under(&m, "hw.").is_empty());
    }
}
