//! `accel` — command-line front end to the acceleration-landscape
//! reproduction.
//!
//! ```text
//! accel landscape
//! accel synthesize --flow uni --cores 16 --window 8192 --device v5
//! accel throughput --cores 512 --window 262144 --device v7 --network scalable --clock 300
//! accel explain "SELECT * FROM s WHERE v > 9" --schema s=v:32
//! accel deploy "SELECT * FROM a JOIN b ON k WINDOW 1024" \
//!       --schema a=k:32,x:32 --schema b=k:32,y:32 --cores 8 --device v7
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use accel_landscape::fqp::landscape;
use accel_landscape::fqp::plan::{bind, Catalog, PlanOp};
use accel_landscape::fqp::query::Query;
use accel_landscape::hwsim::{devices, Device};
use accel_landscape::joinhw::harness::{
    build, prefill_steady_state, run_throughput, uniflow_throughput_model,
};
use accel_landscape::joinhw::{DesignParams, FlowModel, JoinAlgorithm, NetworkKind};

const USAGE: &str = "\
accel — flow-based stream joins in simulated hardware

USAGE:
  accel landscape
      Print the Section II acceleration-landscape catalog.

  accel synthesize --cores N --window W --device v5|v7
        [--flow uni|bi] [--network lightweight|scalable] [--fanout K]
        [--algorithm nested|hash] [--tuple-bits B]
      Run the synthesis-report model: utilization, clock, power.

  accel throughput --cores N --window W --device v5|v7
        [--flow uni|bi] [--network ...] [--clock MHZ] [--tuples N]
      Cycle-accurate saturation throughput of the design.

  accel explain <query> --schema name=field:width[,field:width...] ...
      Parse and bind a query, print the EXPLAIN plan.

  accel deploy <query> --schema ... --cores N --device v5|v7
      Size a uni-flow design for a join query's window; print the
      synthesis report and the sustainable-throughput estimate.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".to_string());
    };
    let (positional, flags) = parse_flags(&args[1..])?;
    match cmd.as_str() {
        "landscape" => {
            for s in landscape::catalog() {
                println!("{s}");
            }
            Ok(())
        }
        "synthesize" => synthesize(&flags),
        "throughput" => throughput(&flags),
        "explain" => explain(&positional, &flags),
        "deploy" => deploy(&positional, &flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// Flag map: name -> values (repeatable flags accumulate).
type Flags = HashMap<String, Vec<String>>;

/// Splits arguments into positionals and `--flag value` pairs.
fn parse_flags(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags: HashMap<String, Vec<String>> = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags
                .entry(name.to_string())
                .or_default()
                .push(value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn one<'a>(flags: &'a HashMap<String, Vec<String>>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .and_then(|v| v.first())
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn opt<'a>(flags: &'a HashMap<String, Vec<String>>, name: &str) -> Option<&'a str> {
    flags.get(name).and_then(|v| v.first()).map(String::as_str)
}

fn parse_device(s: &str) -> Result<Device, String> {
    match s.to_ascii_lowercase().as_str() {
        "v5" | "xc5vlx50t" | "virtex-5" => Ok(devices::XC5VLX50T),
        "v7" | "xc7vx485t" | "virtex-7" => Ok(devices::XC7VX485T),
        other => Err(format!("unknown device {other:?} (use v5 or v7)")),
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: {s:?}"))
}

fn design_from_flags(flags: &HashMap<String, Vec<String>>) -> Result<DesignParams, String> {
    let cores: u32 = parse_num(one(flags, "cores")?, "core count")?;
    let window: usize = parse_num(one(flags, "window")?, "window size")?;
    let flow = match opt(flags, "flow").unwrap_or("uni") {
        "uni" | "uniflow" => FlowModel::UniFlow,
        "bi" | "biflow" => FlowModel::BiFlow,
        other => return Err(format!("unknown flow model {other:?}")),
    };
    let mut params = DesignParams::new(flow, cores, window);
    if let Some(network) = opt(flags, "network") {
        params = params.with_network(match network {
            "lightweight" => NetworkKind::Lightweight,
            "scalable" => NetworkKind::Scalable,
            other => return Err(format!("unknown network {other:?}")),
        });
    }
    if let Some(fanout) = opt(flags, "fanout") {
        params = params.with_fanout(parse_num(fanout, "fan-out")?);
    }
    if let Some(algorithm) = opt(flags, "algorithm") {
        params = params.with_algorithm(match algorithm {
            "nested" | "nested-loop" => JoinAlgorithm::NestedLoop,
            "hash" => JoinAlgorithm::Hash,
            other => return Err(format!("unknown algorithm {other:?}")),
        });
    }
    if let Some(bits) = opt(flags, "tuple-bits") {
        params = params.with_tuple_bits(parse_num(bits, "tuple width")?);
    }
    Ok(params)
}

fn synthesize(flags: &HashMap<String, Vec<String>>) -> Result<(), String> {
    let device = parse_device(one(flags, "device")?)?;
    let params = design_from_flags(flags)?;
    let report = params.synthesize(&device).map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}

fn throughput(flags: &HashMap<String, Vec<String>>) -> Result<(), String> {
    let device = parse_device(one(flags, "device")?)?;
    let params = design_from_flags(flags)?;
    let report = match opt(flags, "clock") {
        Some(mhz) => params
            .synthesize_at(&device, parse_num(mhz, "clock")?)
            .map_err(|e| e.to_string())?,
        None => params.synthesize(&device).map_err(|e| e.to_string())?,
    };
    let tuples: u64 = match opt(flags, "tuples") {
        Some(t) => parse_num(t, "tuple count")?,
        None => 256,
    };
    let mut join = build(&params);
    prefill_steady_state(join.as_mut(), params.window_size);
    let run = run_throughput(join.as_mut(), tuples, 1 << 20);
    println!("{report}");
    println!(
        "measured: {} over {} cycles ({} results)",
        run.at_clock(report.clock.mhz()),
        run.cycles,
        run.results
    );
    Ok(())
}

fn catalog_from_flags(flags: &HashMap<String, Vec<String>>) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    let specs = flags
        .get("schema")
        .ok_or("missing --schema (name=field:width,...)")?;
    for spec in specs {
        catalog.register_spec(spec)?;
    }
    Ok(catalog)
}

fn explain(positional: &[String], flags: &HashMap<String, Vec<String>>) -> Result<(), String> {
    let text = positional.first().ok_or("missing query text")?;
    let catalog = catalog_from_flags(flags)?;
    let query = Query::parse(text).map_err(|e| e.to_string())?;
    let plan = bind(&query, &catalog).map_err(|e| e.to_string())?;
    print!("{}", plan.explain());
    Ok(())
}

fn deploy(positional: &[String], flags: &HashMap<String, Vec<String>>) -> Result<(), String> {
    let text = positional.first().ok_or("missing query text")?;
    let catalog = catalog_from_flags(flags)?;
    let device = parse_device(one(flags, "device")?)?;
    let cores: u32 = parse_num(one(flags, "cores")?, "core count")?;
    let query = Query::parse(text).map_err(|e| e.to_string())?;
    let plan = bind(&query, &catalog).map_err(|e| e.to_string())?;
    print!("{}", plan.explain());
    let window = plan
        .ops
        .iter()
        .find_map(|op| match *op {
            PlanOp::Join { window, .. } => Some(window),
            _ => None,
        })
        .ok_or("plan has no join to accelerate")?;
    let report = DesignParams::new(FlowModel::UniFlow, cores, window)
        .synthesize(&device)
        .map_err(|e| format!("design does not fit: {e}"))?;
    println!("{report}");
    println!(
        "sustainable input throughput: {:.3} M tuples/s",
        uniflow_throughput_model(window, cores, report.clock.mhz()) / 1e6
    );
    Ok(())
}
