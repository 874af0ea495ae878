//! Fault-injection sweep: scripted kill/stall/drop scenarios against the
//! SplitJoin runtime versus throughput and match completeness. Run with
//! --release.
//!
//! Each scenario replays the same workload under a different
//! deterministic [`joinsw::FaultPlan`] and reports wall-clock
//! throughput, the match count versus the strict single-threaded
//! reference (completeness), and the runtime's own damage accounting
//! (orphaned tuples, recovery latency). The acceptance
//! scenario — kill worker 1 at batch 100 on 4 cores — also publishes
//! its `fault.*` counters and the `fault.recovery_ns` histogram into
//! the `faults` run manifest.
//!
//! Accepts `--cores N` (first value used; at least 2, since every kill
//! targets worker 1), `--windows LO..HI` (first exponent used), and
//! `--batch N`.

use std::time::Instant;

use joinsw::baseline::reference_join;
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};
use joinsw::JoinOutcome;
use joinsw::{FaultPlan, JoinError, JoinParams, StreamJoin};
use streamcore::{JoinPredicate, StreamTag, Tuple};

use bench::FigOpts;

const TUPLES: usize = 60_000;
const KEY_DOMAIN: u32 = 64;

fn workload() -> Vec<(StreamTag, Tuple)> {
    (0..TUPLES)
        .map(|seq| {
            let tag = if seq % 2 == 0 {
                StreamTag::R
            } else {
                StreamTag::S
            };
            let key = ((seq as u32).wrapping_mul(2_654_435_761) >> 16) % KEY_DOMAIN;
            (tag, Tuple::new(key, seq as u32))
        })
        .collect()
}

fn run_scenario(
    config: SplitJoinConfig,
    inputs: &[(StreamTag, Tuple)],
) -> Result<(f64, JoinOutcome), JoinError> {
    let join = SplitJoin::spawn(config.counting_only());
    let start = Instant::now();
    for &(tag, t) in inputs {
        join.process(tag, t)?;
    }
    join.flush()?;
    let secs = start.elapsed().as_secs_f64();
    let outcome = join.shutdown()?;
    Ok((inputs.len() as f64 / secs / 1e6, outcome))
}

fn main() {
    let opts = FigOpts::from_args(std::env::args().skip(1));
    let cores = opts
        .cores
        .clone()
        .and_then(|c| c.first().copied())
        .unwrap_or(4);
    if cores < 2 {
        eprintln!("error: --cores must be at least 2 (the kill scenarios target worker 1)");
        eprintln!("usage: faults {}", bench::USAGE);
        std::process::exit(2);
    }
    let exp = opts.windows.clone().map(|w| *w.start()).unwrap_or(9);
    let window = 1usize << exp;
    let batch = opts.batch_size;
    let inputs = workload();
    let reference = reference_join(&inputs, window, JoinPredicate::Equi).len() as u64;

    let scenarios = [
        ("baseline", ""),
        ("kill1@100", "kill1@100"),
        ("stall0@3x25", "stall0@3x25"),
        ("drop0@5", "drop0@5"),
    ];

    let mut m = bench::obsout::manifest("faults");
    m.config("cores", cores);
    m.config("window", format!("2^{exp}"));
    m.config("tuples", TUPLES);
    m.config("batch_size", batch);
    m.config("reference_matches", reference);

    let mut t = bench::Table::new(
        format!("Fault injection — SplitJoin on {cores} cores, window 2^{exp}"),
        &[
            "scenario",
            "Mt/s",
            "matches",
            "completeness",
            "orphaned",
            "lost workers",
        ],
    );
    for (label, spec) in scenarios {
        let plan = FaultPlan::parse(spec).expect("scenario spec parses");
        let config = SplitJoinConfig::new(cores, window)
            .with_batch_size(batch)
            .with_fault_plan(plan);
        let (mtps, outcome) = run_scenario(config, &inputs).expect("degraded runs still complete");
        let completeness = 100.0 * outcome.result_count as f64 / reference as f64;
        t.row(vec![
            label.to_string(),
            format!("{mtps:.5}"),
            outcome.result_count.to_string(),
            format!("{completeness:.2}%"),
            outcome.fault.orphaned_tuples.to_string(),
            format!("{:?}", outcome.fault.workers_lost),
        ]);
        let key = label.replace('@', "_");
        m.config(format!("{key}.mtps"), format!("{mtps:.5}"));
        m.config(format!("{key}.completeness"), format!("{completeness:.4}"));
        if label == "kill1@100" {
            // The acceptance scenario's damage accounting is the
            // manifest's counter set and recovery-latency histogram.
            m.record_values(&outcome.values());
            m.histogram("fault.recovery_ns", outcome.fault.recovery_ns.clone());
        }
    }
    t.note(format!(
        "completeness = matches / strict reference ({reference}); orphaned tuples \
         are sub-window entries that died with their worker"
    ));
    println!("{t}");
    bench::obsout::emit(&m);
}
