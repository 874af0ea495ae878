//! `ledger`: the repository's benchmark. End-to-end metrics of the
//! query -> engine -> kernel path and of the FPGA simulator, a traced run
//! that splits them by layer, and an oracle that checks every output.
//! See `benchmark/README.md`.

mod layers;
mod oracle;
mod report;
mod sim;
mod software;
mod spec;
#[cfg(test)]
mod tests;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use obs::json::Json;

use report::{obj, RunResult};
use spec::{Kind, Workload, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage:
  ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; the last line is the result as JSON
  ledger run <name>|--all [--seed N] [--seconds S] [--trace] [--out FILE]
  ledger compare <a.json> <b.json>
  ledger check [--seed N] [--seconds S]";

/// Where result files and traces go: `benchmark/out/`, ignored by git.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn result_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}{}.json",
        if trace { ".traced" } else { "" }
    ))
}

fn measure(
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<RunResult, String> {
    let (attempted, failed, metrics, detail) = if trace {
        let t = match &workload.kind {
            Kind::Software(spec) => layers::traced(spec, seed, spec.trace_tuples)?,
            Kind::Sim(spec) => sim::traced(workload.name, spec)?,
        };
        if let Some(unknown) = t
            .metrics
            .keys()
            .find(|k| !PER_LAYER.iter().any(|l| l.name == **k))
        {
            panic!("{unknown} is not in spec::PER_LAYER");
        }
        let path = t
            .tracer
            .write(&out_dir(), workload.name)
            .map_err(|e| format!("writing the trace: {e}"))?;
        let mut detail = t.detail;
        detail.push(("spans", Json::UInt(t.tracer.spans().len() as u64)));
        detail.push(("trace_file", Json::Str(path.display().to_string())));
        let metrics = PER_LAYER
            .iter()
            .map(|l| {
                (
                    l.name,
                    t.metrics.get(l.name).copied().unwrap_or(0.0),
                    l.unit,
                    l.better,
                )
            })
            .collect();
        (t.attempted, t.failed, metrics, detail)
    } else {
        let e = match &workload.kind {
            Kind::Software(spec) => software::run(spec, seed, seconds)?,
            Kind::Sim(spec) => sim::run(workload.name, spec, seconds)?,
        };
        let values = [
            e.throughput_ktps,
            e.latency_p50_us,
            e.latency_p99_us,
            e.peak_rss_mb,
            e.setup_s,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit, m.better))
            .collect();
        (e.attempted, e.failed, metrics, e.detail)
    };
    Ok(RunResult {
        workload,
        seed,
        seconds,
        trace,
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// Writes a result file: the header and `results`.
fn write_results(path: &Path, seed: u64, seconds: u64, results: Vec<Json>) -> Result<(), String> {
    let mut members = report::header(seed, seconds);
    members.push(("results", Json::Arr(results)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{}\n", obj(members)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process. Prints every metric by name with its
/// unit, then the result line; writes the result file.
fn run_one(
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<bool, String> {
    let result = measure(workload, seed, seconds, trace)?;
    write_results(
        &result_path(workload.name, trace),
        seed,
        seconds,
        vec![result.entry()],
    )?;
    print!("{}", result.table());
    println!("{}", result.contract().to_compact());
    Ok(result.correct())
}

/// Every workload, each in a child process of its own, so that peak
/// memory and thread state are per workload. Returns whether all were
/// correct.
fn run_all(seed: u64, seconds: u64, traces: &[bool], out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        for &trace in traces {
            let status = Command::new(&exe)
                .args([
                    "--workload",
                    workload.name,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            // 1 = ran, outputs wrong: its result file is there to report.
            match status.code() {
                Some(0) => {}
                Some(1) => all_correct = false,
                _ => return Err(format!("{} ended with {status}", workload.name)),
            }
            let path = result_path(workload.name, trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let entry = doc
                .get("results")
                .and_then(Json::as_arr)
                .and_then(|r| r.first())
                .ok_or("empty result file")?;
            results.push(entry.clone());
        }
    }
    write_results(out, seed, seconds, results)?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        positional: Vec::new(),
        workload: None,
        all: false,
        seed: 42,
        seconds: 10,
        trace: false,
        out: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--all" => parsed.all = true,
            // `--trace` alone, or the driver's `--trace 0` / `--trace 1`.
            "--trace" => {
                parsed.trace = match args.next_if(|next| next == "0" || next == "1") {
                    Some(flag) => flag == "1",
                    None => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg),
        }
    }
    Ok(parsed)
}

/// Numbers from a debug build, a one-thread host or an engine
/// reconfigured through the environment are not this benchmark's.
fn refuse_unfit_host() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built without optimizations; use `cargo run --release`".into());
    }
    if report::host_parallelism() < spec::CORES {
        return Err(format!(
            "the host offers {} thread(s); the workloads need {}",
            report::host_parallelism(),
            spec::CORES
        ));
    }
    // `joinsw::JoinConfig::new` reads these (batch size, transport,
    // partitioning, kernel, scripted faults).
    let reconfigures = |name: &str| name.starts_with("ACCEL_SW_") || name == "ACCEL_FAULTS";
    if let Some((name, _)) = std::env::vars().find(|(name, _)| reconfigures(name)) {
        return Err(format!(
            "{name} is set: it reconfigures the engines under test"
        ));
    }
    Ok(())
}

fn find(name: &str) -> Result<&'static Workload, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    spec::workload(name)
        .ok_or_else(|| format!("unknown workload {name}; one of {}", names.join(", ")))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    if let ["compare", a, b] = positional[..] {
        return match report::compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Err(e) = refuse_unfit_host() {
        eprintln!("ledger: {e}");
        return ExitCode::from(2);
    }
    let set = |name: &str| out_dir().join(name);
    let outcome = match (&positional[..], args.workload.as_deref(), args.all) {
        (&[], Some(name), false) | (&["run", name], None, false) => {
            find(name).and_then(|w| run_one(w, args.seed, args.seconds, args.trace))
        }
        (&["run"], None, true) => run_all(
            args.seed,
            args.seconds,
            &[args.trace],
            &args.out.unwrap_or_else(|| set("ledger.json")),
        ),
        // The repeatability gate: the full set twice, traced runs too,
        // then the two compared within the benchmark's own bounds.
        (&["check"], None, false) => (|| {
            let (a, b) = (set("check_a.json"), set("check_b.json"));
            let correct = run_all(args.seed, args.seconds, &[false, true], &a)?
                & run_all(args.seed, args.seconds, &[false, true], &b)?;
            let regressed = report::compare(&a.display().to_string(), &b.display().to_string())?;
            Ok(correct && !regressed)
        })(),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(3)
        }
    }
}
