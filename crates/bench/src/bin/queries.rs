//! Standing-query demo: N concurrent queries multiplexed onto one
//! shared join fabric, with per-query manifests and an optional live
//! re-plan mid-run. Run with --release.
//!
//! The binary admits `--queries N` standing queries (window joins with
//! filters and projections over a `trades`⋈`quotes` pair, plus one
//! inline windowed aggregate) into a single
//! [`query::QueryRuntime`], feeds a zipf-skewed workload through it,
//! and — when `--replan` is given — performs one drain-and-handoff
//! re-plan to the latency-optimal engine at the halfway point without
//! stopping the feed.
//!
//! Every query is then *verified*: the same query is run alone in a
//! fresh runtime over the same workload, and the shared run's rows must
//! equal the solo run's rows exactly (as multisets). The process exits
//! non-zero on any mismatch, lossy handoff, or completeness violation,
//! making it usable as an acceptance gate in CI.
//!
//! Per-query [`obs::RunManifest`]s (`query_<id>.json`) and one run-level
//! `queries.json` manifest land in `target/obs/` (or `$ACCEL_OBS_DIR`).
//!
//! Flags: `--queries N` (default 5), `--tuples N` (default 40000),
//! `--window N` (default 512), `--cores N` (default 4), `--seed K`,
//! `--domain N`, `--skew S` (zipf exponent, default 1.0), `--replan`.

use query::prelude::*;
use streamcore::workload::{KeyDist, WorkloadSpec};
use streamcore::StreamTag;

#[derive(Debug, Clone)]
struct Opts {
    queries: usize,
    tuples: usize,
    window: usize,
    cores: usize,
    seed: u64,
    domain: u32,
    skew: f64,
    replan: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            queries: 5,
            tuples: 40_000,
            window: 512,
            cores: 4,
            seed: 42,
            domain: 64,
            skew: 1.0,
            replan: false,
        }
    }
}

impl Opts {
    fn from_args() -> Self {
        let mut opts = Self::default();
        let mut args = std::env::args().skip(1);
        fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
            v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("error: {flag} expects a value");
                std::process::exit(2);
            })
        }
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--queries" => opts.queries = value("--queries", args.next()),
                "--tuples" => opts.tuples = value("--tuples", args.next()),
                "--window" => opts.window = value("--window", args.next()),
                "--cores" => opts.cores = value("--cores", args.next()),
                "--seed" => opts.seed = value("--seed", args.next()),
                "--domain" => opts.domain = value("--domain", args.next()),
                "--skew" => opts.skew = value("--skew", args.next()),
                "--replan" => opts.replan = true,
                other => {
                    eprintln!("error: unknown flag `{other}`");
                    eprintln!(
                        "usage: queries [--queries N] [--tuples N] [--window N] [--cores N] \
                         [--seed K] [--domain N] [--skew S] [--replan]"
                    );
                    std::process::exit(2);
                }
            }
        }
        if opts.queries < 4 {
            eprintln!("error: --queries must be at least 4 (concurrency demo)");
            std::process::exit(2);
        }
        opts
    }
}

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .register_spec("trades=sym:32,qty:32")
        .expect("trades schema");
    catalog
        .register_spec("quotes=sym:32,px:32")
        .expect("quotes schema");
    catalog
}

/// The standing-query fleet: index `i` cycles through join templates
/// that share the one `trades`⋈`quotes` engine group, with the last
/// slot reserved for an inline windowed aggregate (so the demo shows
/// both execution paths). Thresholds are spread over the payload
/// domain (payloads are sequence numbers) so every query selects a
/// different, non-trivial slice.
fn fleet(opts: &Opts) -> Vec<(String, LogicalPlan)> {
    let w = opts.window;
    let join = |filtered| {
        let base = LogicalPlan::source("trades").join(LogicalPlan::source("quotes"), "sym", w);
        match filtered {
            Some((field, value)) => base.filter(field, CmpOp::Gt, value),
            None => base,
        }
    };
    (0..opts.queries)
        .map(|i| {
            if i == opts.queries - 1 {
                let plan = LogicalPlan::source("trades").aggregate(
                    AggFunc::Sum,
                    Some("qty"),
                    w.min(256),
                    WindowKind::Tumbling,
                );
                return (format!("q{i}-qty-sum"), plan);
            }
            let threshold = (opts.tuples as u64 * (i as u64 + 1)) / (opts.queries as u64 + 1);
            match i % 4 {
                0 => (format!("q{i}-all-pairs"), join(None)),
                1 => (format!("q{i}-big-qty"), join(Some(("qty", threshold)))),
                2 => (
                    format!("q{i}-px-view"),
                    join(Some(("px", threshold))).project(["qty", "px"]),
                ),
                _ => (format!("q{i}-sym-only"), join(None).project(["sym", "px"])),
            }
        })
        .collect()
}

/// Runs `fleet` concurrently in one runtime over `inputs`, optionally
/// re-planning the joined group halfway through. Returns the final
/// per-query reports plus the handoff accounting, if one happened.
fn run_shared(
    opts: &Opts,
    fleet: &[(String, LogicalPlan)],
    inputs: &[(StreamTag, streamcore::Tuple)],
) -> (Vec<query::QueryReport>, Option<query::HandoffReport>) {
    let mut runtime = QueryRuntime::new(catalog(), RuntimeConfig::new(opts.cores));
    for (id, plan) in fleet {
        let engine = runtime.admit(id, plan).unwrap_or_else(|e| {
            eprintln!("error: admitting `{id}`: {e}");
            std::process::exit(1);
        });
        eprintln!("admitted {id} -> {engine}: {plan}");
    }
    eprintln!(
        "{} queries share {} engine group(s)",
        fleet.len(),
        runtime.group_count()
    );

    let halfway = inputs.len() / 2;
    let mut handoff = None;
    for (seq, &(tag, tuple)) in inputs.iter().enumerate() {
        if opts.replan && seq == halfway {
            let target = fleet
                .iter()
                .map(|(id, _)| id)
                .find(|id| runtime.engine_of(id) != Some(query::EngineKind::Inline))
                .expect("at least one joined query")
                .clone();
            let report = runtime
                .replan(&target, Objective::MinLatency)
                .unwrap_or_else(|e| {
                    eprintln!("error: re-plan failed: {e}");
                    std::process::exit(1);
                });
            eprintln!("re-plan @tuple {seq}: {report}");
            if !report.lossless() {
                eprintln!("error: handoff lost tuples: {report}");
                std::process::exit(1);
            }
            handoff = Some(report);
        }
        let stream = match tag {
            StreamTag::R => "trades",
            StreamTag::S => "quotes",
        };
        runtime.push(stream, tuple).unwrap_or_else(|e| {
            eprintln!("error: push @tuple {seq}: {e}");
            std::process::exit(1);
        });
        // Poll mid-run so rows stream out incrementally, as a live
        // dashboard would; finish() drains whatever remains.
        if seq % 4096 == 4095 {
            runtime.poll().unwrap_or_else(|e| {
                eprintln!("error: poll: {e}");
                std::process::exit(1);
            });
        }
    }
    let reports = runtime.finish().unwrap_or_else(|e| {
        eprintln!("error: finish: {e}");
        std::process::exit(1);
    });
    (reports, handoff)
}

/// Runs a single query alone over the same workload — the reference the
/// shared run must match exactly.
fn run_solo(
    opts: &Opts,
    id: &str,
    plan: &LogicalPlan,
    inputs: &[(StreamTag, streamcore::Tuple)],
) -> Vec<Vec<u64>> {
    let mut runtime = QueryRuntime::new(catalog(), RuntimeConfig::new(opts.cores));
    runtime.admit(id, plan).expect("solo admit");
    for &(tag, tuple) in inputs {
        let stream = match tag {
            StreamTag::R => "trades",
            StreamTag::S => "quotes",
        };
        runtime.push(stream, tuple).expect("solo push");
    }
    let mut reports = runtime.finish().expect("solo finish");
    reports.remove(0).rows
}

fn sorted(mut rows: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    rows.sort_unstable();
    rows
}

fn main() {
    let opts = Opts::from_args();
    let fleet = fleet(&opts);
    let inputs: Vec<(StreamTag, streamcore::Tuple)> = WorkloadSpec::new(
        opts.tuples,
        KeyDist::Zipf {
            domain: opts.domain,
            s: opts.skew,
        },
    )
    .with_seed(opts.seed)
    .generate()
    .collect();

    let (reports, handoff) = run_shared(&opts, &fleet, &inputs);

    let mut table = bench::Table::new(
        format!(
            "Standing queries — {} concurrent on {} cores, window {}, zipf(s={}) over {} keys",
            opts.queries, opts.cores, opts.window, opts.skew, opts.domain
        ),
        &[
            "query",
            "engine",
            "matches in",
            "rows",
            "re-plans",
            "vs solo run",
        ],
    );

    let mut failures = 0usize;
    let mut run_manifest = bench::obsout::manifest("queries");
    run_manifest.config("queries", opts.queries);
    run_manifest.config("tuples", opts.tuples);
    run_manifest.config("window", opts.window);
    run_manifest.config("cores", opts.cores);
    run_manifest.config("seed", opts.seed);
    run_manifest.config("zipf_domain", opts.domain);
    run_manifest.config("zipf_s", opts.skew);
    run_manifest.config("replan", opts.replan);

    for report in &reports {
        let (id, plan) = fleet
            .iter()
            .find(|(id, _)| *id == report.id)
            .expect("report for an admitted query");
        let reference = run_solo(&opts, id, plan, &inputs);
        let exact = sorted(report.rows.clone()) == sorted(reference.clone());
        if !exact {
            failures += 1;
            eprintln!(
                "MISMATCH {id}: shared run produced {} rows, solo reference {} rows",
                report.rows.len(),
                reference.len()
            );
        }
        table.row(vec![
            report.id.clone(),
            report.engine.to_string(),
            report.matches_in.to_string(),
            report.rows_emitted.to_string(),
            report.replans.to_string(),
            if exact {
                "exact".into()
            } else {
                "MISMATCH".into()
            },
        ]);
        run_manifest.counter(format!("query.{id}.rows"), report.rows_emitted);
        bench::obsout::emit(&report.manifest);
    }

    if let Some(h) = &handoff {
        run_manifest.config("handoff", h.to_string());
        run_manifest.counter("handoff.drained", h.drained);
        run_manifest.counter("handoff.residual", h.residual);
        run_manifest.counter("handoff.duplicates_discarded", h.duplicates_discarded);
    }
    run_manifest.counter("verify.mismatches", failures as u64);
    bench::obsout::emit(&run_manifest);

    println!("{table}");
    match failures {
        0 => println!(
            "all {} queries exact vs solo reference runs{}",
            reports.len(),
            if opts.replan {
                " (with one live re-plan)"
            } else {
                ""
            }
        ),
        n => {
            eprintln!(
                "error: {n} quer{} diverged from solo reference",
                if n == 1 { "y" } else { "ies" }
            );
            std::process::exit(1);
        }
    }
}
