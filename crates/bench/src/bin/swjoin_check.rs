//! Validates a `BENCH_swjoin.json` artifact and gates it against the
//! committed baseline (CI bench-smoke gate).
//!
//! Usage: `swjoin_check [path] [--baseline PATH] [--tolerance PCT]`.
//!
//! `path` defaults to the artifact in the manifest directory
//! (`target/obs/BENCH_swjoin.json`, or `$ACCEL_OBS_DIR`). The file must
//! exist, parse as schema-1 JSON, and hold entries; a per-figure summary
//! is printed. Then every point is compared against the matching point
//! in the baseline — the committed `BENCH_swjoin.json` at the repo root
//! unless `--baseline` overrides it — and the run fails when throughput
//! fell (or latency rose) more than the tolerance, default 10%. A
//! baseline figure with no entries at all in the fresh run fails the
//! check outright: unmatched points are skipped individually, so a
//! silently-dropped figure would otherwise pass vacuously. The
//! host's parallelism is printed next to the baseline's, with a warning
//! on mismatch (a differently-sized host silently skews comparisons). A
//! missing baseline only warns: fresh checkouts and pruned worktrees
//! must not fail CI.

use std::path::PathBuf;

use bench::swjoin::{default_path, missing_figures, regressions, SwJoinDoc};

/// The committed before/after evidence this repo gates against.
const BASELINE: &str = "BENCH_swjoin.json";

struct Opts {
    path: PathBuf,
    baseline: PathBuf,
    tolerance: f64,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        path: default_path(),
        baseline: PathBuf::from(BASELINE),
        tolerance: 10.0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                let v = args.get(i).ok_or("--baseline requires a value")?;
                opts.baseline = PathBuf::from(v);
            }
            "--tolerance" => {
                i += 1;
                let v = args.get(i).ok_or("--tolerance requires a value")?;
                opts.tolerance = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| *t >= 0.0)
                    .ok_or_else(|| format!("--tolerance must be a non-negative percent, got `{v}`"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => positional.push(path.to_string()),
        }
        i += 1;
    }
    match positional.len() {
        0 => {}
        1 => opts.path = PathBuf::from(&positional[0]),
        _ => return Err(format!("at most one path, got {positional:?}")),
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: swjoin_check [path] [--baseline PATH] [--tolerance PCT]");
            std::process::exit(2);
        }
    };
    if !opts.path.exists() {
        eprintln!("error: {} does not exist", opts.path.display());
        std::process::exit(1);
    }
    let doc = match SwJoinDoc::load(&opts.path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if doc.entries.is_empty() {
        eprintln!("error: {} holds no entries", opts.path.display());
        std::process::exit(1);
    }
    println!("{}: {} entries OK", opts.path.display(), doc.entries.len());
    let mut figures: Vec<&str> = doc.entries.iter().map(|e| e.figure.as_str()).collect();
    figures.sort_unstable();
    figures.dedup();
    for figure in figures {
        let rows: Vec<_> = doc.entries.iter().filter(|e| e.figure == figure).collect();
        let batches: Vec<usize> = {
            let mut b: Vec<usize> = rows.iter().map(|e| e.batch_size).collect();
            b.sort_unstable();
            b.dedup();
            b
        };
        println!(
            "  {figure}: {} points, batch sizes {batches:?}",
            rows.len()
        );
    }

    if !opts.baseline.exists() {
        eprintln!(
            "warning: baseline {} missing; regression gate skipped",
            opts.baseline.display()
        );
        return;
    }
    let baseline = match SwJoinDoc::load(&opts.baseline) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: baseline {e}");
            std::process::exit(1);
        }
    };
    // Surface host-size drift before any comparison: the committed
    // baseline was recorded on a specific host width, and throughput
    // points measured on a different width are not like-for-like.
    let host = joinsw::harness::host_parallelism() as u64;
    match baseline.host_parallelism {
        Some(p) if p == host => {
            println!("host_parallelism: {host} (matches baseline)");
        }
        Some(p) => eprintln!(
            "warning: this host has parallelism {host} but baseline {} was recorded \
             with {p}; throughput comparisons may be skewed",
            opts.baseline.display()
        ),
        None => eprintln!(
            "warning: baseline {} records no host_parallelism; this host has {host}",
            opts.baseline.display()
        ),
    }
    // A figure in the baseline with no entries at all in the fresh run
    // would pass the point-by-point gate vacuously (unmatched points are
    // skipped); that is a coverage regression, not a tolerable sweep
    // difference, and it fails loudly here.
    let dropped = missing_figures(&baseline, &doc);
    if !dropped.is_empty() {
        eprintln!(
            "error: baseline {} has figure(s) the fresh run never produced: {}",
            opts.baseline.display(),
            dropped.join(", ")
        );
        eprintln!(
            "  (the regression gate would otherwise skip them silently; \
             re-run the missing figure binaries or prune the baseline)"
        );
        std::process::exit(1);
    }
    let (compared, found) = regressions(&baseline, &doc, opts.tolerance);
    if found.is_empty() {
        println!(
            "baseline {}: {compared} matching point(s) within {}%",
            opts.baseline.display(),
            opts.tolerance
        );
        return;
    }
    // Baseline provenance first: a gate trip on a differently-sized (or
    // simply older) host is the most common false alarm, so put the
    // facts needed to judge that next to the failure.
    eprintln!(
        "error: {} point(s) regressed beyond {}% vs {} (baseline git_rev {}, \
         host_parallelism {}; this host {}):",
        found.len(),
        opts.tolerance,
        opts.baseline.display(),
        baseline.git_rev.as_deref().unwrap_or("unknown"),
        baseline
            .host_parallelism
            .map_or_else(|| "unknown".to_string(), |p| p.to_string()),
        joinsw::harness::host_parallelism(),
    );
    for r in &found {
        eprintln!(
            "  {}: {:.5} -> {:.5} ({:.1}% worse)",
            r.point, r.baseline, r.candidate, r.worse_pct
        );
    }
    std::process::exit(1);
}
