//! Hardware-side figures: 14a, 14b, 14c (throughput), 15 (latency),
//! 17 (clock frequency), and the Section V power table.

use hwsim::devices::{XC5VLX50T, XC7VX485T, XCVU9P};
use hwsim::{estimate_fmax, Device, Simulator};
use joinhw::harness::{
    self, biflow_throughput_model, prefill_planted, prefill_steady_state, run_latency,
    run_throughput, run_throughput_observed, uniflow_throughput_model, LatencyRun, ThroughputRun,
};
use joinhw::{DesignParams, FlowModel, JoinAlgorithm, NetworkKind};
use obs::provenance::ProvenanceTracker;
use obs::{Histogram, RunManifest};
use streamcore::{StreamTag, Tuple};

use crate::opts::FigOpts;
use crate::table::Table;

/// Key domain used in throughput runs: large enough that matches are rare
/// and the gathering network never bottlenecks the input (the paper's
/// throughput figures measure *input* throughput).
const THROUGHPUT_KEY_DOMAIN: u32 = 1 << 20;

/// Picks a measurement length that keeps each simulated point under a few
/// million cycles.
fn tuples_for(sub_window: usize) -> u64 {
    (2_000_000 / (sub_window as u64 + 1)).clamp(64, 512)
}

/// Runs one cycle-accurate throughput point and converts to M tuples/s.
#[cfg(test)]
fn measure_mtps(params: &DesignParams, clock_mhz: f64) -> f64 {
    measure_observed_traced(params, false, &mut None)
        .0
        .at_clock(clock_mhz)
        .million_per_second()
}

/// One cycle-accurate throughput point plus its service-gap histogram
/// (cycles between consecutive input acceptances).
fn measure_observed_traced(
    params: &DesignParams,
    rings: bool,
    prov: &mut Option<ProvenanceTracker>,
) -> (ThroughputRun, Histogram) {
    measure_point(params, tuples_for(params.sub_window()), rings, prov)
}

/// Runs `tuples` inputs through a steady-state join on [`Simulator`].
/// After the run, the join's span rings go to the crate harvest when
/// `rings` is set and its provenance breakdown merges into `prov` — a
/// no-op side channel unless [`obs::trace::enabled`].
fn measure_point(
    params: &DesignParams,
    tuples: u64,
    rings: bool,
    prov: &mut Option<ProvenanceTracker>,
) -> (ThroughputRun, Histogram) {
    let mut join = harness::build(params);
    prefill_steady_state(join.as_mut(), params.window_size);
    let out = run_throughput_observed(
        &mut Simulator::new(),
        join.as_mut(),
        tuples,
        THROUGHPUT_KEY_DOMAIN,
    );
    harvest_join(join.as_mut(), rings, prov);
    out
}

/// Harvests a finished join's observability side channel: span rings go
/// to the crate-wide harvest (only when `rings` — one representative
/// point per series keeps exports bounded), the per-stage provenance
/// breakdown merges into the figure-wide accumulator `prov`.
fn harvest_join(
    join: &mut dyn harness::StreamJoin,
    rings: bool,
    prov: &mut Option<ProvenanceTracker>,
) {
    if !obs::trace::enabled() {
        return;
    }
    if rings {
        crate::obsout::harvest(join.take_trace());
    }
    if let Some(p) = join.take_provenance() {
        match prov.as_mut() {
            Some(acc) => acc.merge(&p),
            None => *prov = Some(p),
        }
    }
}

/// Records an accumulated provenance breakdown (when tracing produced
/// one) into the manifest, in cycles.
fn record_provenance(m: &mut RunManifest, prov: &Option<ProvenanceTracker>) {
    if let Some(p) = prov {
        p.record_into(m, "cycles");
    }
}

/// Records one throughput point's counters under `{key}` in `m`.
fn record_run(m: &mut RunManifest, key: &str, run: &ThroughputRun) {
    m.counter(format!("{key}tuples"), run.tuples);
    m.counter(format!("{key}cycles"), run.cycles);
    m.counter(format!("{key}results"), run.results);
}

/// Fig. 14a — uni-flow throughput vs join cores on Virtex-5 @100 MHz for
/// windows 2^11 and 2^13. Linear scaling; infeasible points marked. The
/// manifest holds per-point tuple/cycle/result counters and the merged
/// service-gap histogram.
pub fn fig14a(_: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = crate::obsout::manifest("fig14a");
    m.config("device", "XC5VLX50T");
    m.config("target_clock_mhz", 100);
    let mut gaps_all = Histogram::new();
    let mut prov = None;
    let mut t = Table::new(
        "Fig. 14a — uni-flow throughput on Virtex-5 (100 MHz)",
        &["cores", "window", "model Mt/s", "measured Mt/s"],
    );
    for &window in &[1usize << 11, 1 << 13] {
        for &cores in &[2u32, 4, 8, 16, 32, 64] {
            let params = DesignParams::new(FlowModel::UniFlow, cores, window);
            match params.synthesize_at(&XC5VLX50T, 100.0) {
                Ok(report) => {
                    let clock = report.clock.mhz();
                    let model = uniflow_throughput_model(window, cores, clock) / 1e6;
                    let (run, gaps) = measure_observed_traced(&params, cores == 2, &mut prov);
                    let measured = run.at_clock(clock).million_per_second();
                    record_run(&mut m, &format!("c{cores}.w2e{}.", window.ilog2()), &run);
                    gaps_all.merge(&gaps);
                    t.row(vec![
                        cores.to_string(),
                        format!("2^{}", window.ilog2()),
                        format!("{model:.4}"),
                        format!("{measured:.4}"),
                    ]);
                }
                Err(e) => t.row(vec![
                    cores.to_string(),
                    format!("2^{}", window.ilog2()),
                    "n/a".into(),
                    format!("does not fit: {e}"),
                ]),
            }
        }
    }
    t.note("paper: linear speedup with cores; window 2^13 infeasible at 32/64 cores");
    m.histogram("service_gap_cycles", gaps_all);
    record_provenance(&mut m, &prov);
    (vec![t], m)
}

/// Fig. 14b — uni-flow vs bi-flow throughput at 16 cores on Virtex-5
/// @100 MHz across window sizes 2^7–2^13. The manifest holds per-point
/// counters for both flow models and a service-gap histogram per model.
pub fn fig14b(_: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = crate::obsout::manifest("fig14b");
    m.config("device", "XC5VLX50T");
    m.config("target_clock_mhz", 100);
    m.config("cores", 16);
    let mut uni_gaps = Histogram::new();
    let mut bi_gaps = Histogram::new();
    let mut prov = None;
    let mut t = Table::new(
        "Fig. 14b — uni-flow vs bi-flow at 16 cores, Virtex-5 (100 MHz)",
        &["window", "uni Mt/s", "bi Mt/s", "uni/bi"],
    );
    let cores = 16u32;
    for exp in 7..=13u32 {
        let window = 1usize << exp;
        let uni = DesignParams::new(FlowModel::UniFlow, cores, window);
        let bi = DesignParams::new(FlowModel::BiFlow, cores, window);
        let (uni_run, gaps) = measure_observed_traced(&uni, exp == 7, &mut prov);
        let uni_mtps = uni_run.at_clock(100.0).million_per_second();
        record_run(&mut m, &format!("uni.w2e{exp}."), &uni_run);
        uni_gaps.merge(&gaps);
        let bi_cell = match bi.synthesize_at(&XC5VLX50T, 100.0) {
            Ok(_) => {
                let (bi_run, gaps) = measure_biflow_run(&bi, exp == 7, &mut prov);
                record_run(&mut m, &format!("bi.w2e{exp}."), &bi_run);
                bi_gaps.merge(&gaps);
                format!("{:.4}", bi_run.at_clock(100.0).million_per_second())
            }
            Err(_) => "does not fit".to_string(),
        };
        let ratio = match bi_cell.parse::<f64>() {
            Ok(b) if b > 0.0 => format!("{:.1}x", uni_mtps / b),
            _ => "-".to_string(),
        };
        t.row(vec![
            format!("2^{exp}"),
            format!("{uni_mtps:.4}"),
            bi_cell,
            ratio,
        ]);
    }
    t.note("paper: nearly an order of magnitude uni-flow advantage; bi-flow 2^13 infeasible");
    t.note(format!(
        "analytic models at 2^10: uni {:.3} vs bi {:.3} Mt/s",
        uniflow_throughput_model(1 << 10, cores, 100.0) / 1e6,
        biflow_throughput_model(1 << 10, cores, 100.0) / 1e6
    ));
    m.histogram("uni_service_gap_cycles", uni_gaps);
    m.histogram("bi_service_gap_cycles", bi_gaps);
    record_provenance(&mut m, &prov);
    (vec![t], m)
}

fn measure_biflow_run(
    params: &DesignParams,
    rings: bool,
    prov: &mut Option<ProvenanceTracker>,
) -> (ThroughputRun, Histogram) {
    // Bi-flow service time scales with the total window; keep runs short.
    let tuples = (1_500_000
        / (joinhw::harness::biflow_service_cycles(params.window_size, params.num_cores) as u64
            + 1))
        .clamp(16, 256);
    measure_point(params, tuples, rings, prov)
}

/// Fig. 14c — uni-flow throughput with 512 join cores on Virtex-7
/// @300 MHz (scalable networks) across windows 2^11–2^18 (or
/// `--windows`). The manifest holds per-point counters and the merged
/// service-gap histogram.
pub fn fig14c(opts: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = crate::obsout::manifest("fig14c");
    m.config("device", "XC7VX485T");
    m.config("target_clock_mhz", 300);
    m.config("cores", 512);
    m.config("network", "scalable");
    let mut gaps_all = Histogram::new();
    let mut prov = None;
    let mut t = Table::new(
        "Fig. 14c — uni-flow, 512 cores, Virtex-7 (300 MHz, scalable networks)",
        &["window", "model Mt/s", "measured Mt/s"],
    );
    let cores = 512u32;
    let exponents = opts.windows.clone().unwrap_or(11..=18);
    let first = *exponents.start();
    for exp in exponents {
        let window = 1usize << exp;
        let params = DesignParams::new(FlowModel::UniFlow, cores, window)
            .with_network(NetworkKind::Scalable);
        match params.synthesize_at(&XC7VX485T, 300.0) {
            Ok(_) => {
                let model = uniflow_throughput_model(window, cores, 300.0) / 1e6;
                let (run, gaps) = measure_observed_traced(&params, exp == first, &mut prov);
                let measured = run.at_clock(300.0).million_per_second();
                record_run(&mut m, &format!("w2e{exp}."), &run);
                gaps_all.merge(&gaps);
                t.row(vec![
                    format!("2^{exp}"),
                    format!("{model:.3}"),
                    format!("{measured:.3}"),
                ]);
            }
            Err(e) => t.row(vec![format!("2^{exp}"), "n/a".into(), format!("{e}")]),
        }
    }
    t.note("paper: ~2 orders of magnitude over the Virtex-5 realization at window 2^13");
    m.histogram("service_gap_cycles", gaps_all);
    record_provenance(&mut m, &prov);
    (vec![t], m)
}

/// One latency point: a planted probe's cycles to its last result. The
/// join's observability side channel is harvested as in
/// [`measure_point`].
fn measure_latency(
    params: &DesignParams,
    rings: bool,
    prov: &mut Option<ProvenanceTracker>,
) -> LatencyRun {
    const PROBE_KEY: u32 = 7;
    let probe = (StreamTag::R, Tuple::new(PROBE_KEY, u32::MAX));
    let mut join = harness::build(params);
    prefill_planted(join.as_mut(), params, PROBE_KEY);
    let run = run_latency(join.as_mut(), probe, 20_000_000).expect("latency probe quiesces");
    harvest_join(join.as_mut(), rings, prov);
    run
}

/// Fig. 15 — uni-flow hardware latency versus join cores, in cycles and
/// microseconds, for the paper's three series. The manifest holds
/// per-point latency-cycle counters and a histogram of all measured
/// probe latencies (in cycles).
pub fn fig15(_: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = crate::obsout::manifest("fig15");
    let mut latencies = Histogram::new();
    let mut prov = None;
    let mut t = Table::new(
        "Fig. 15 — uni-flow latency (planted match per core)",
        &["series", "cores", "cycles", "clock MHz", "latency us"],
    );
    let series: [(&str, &Device, NetworkKind, usize, Option<f64>); 3] = [
        (
            "W 2^18 (V7)",
            &XC7VX485T,
            NetworkKind::Lightweight,
            1 << 18,
            None,
        ),
        (
            "W 2^18 (V7s)",
            &XC7VX485T,
            NetworkKind::Scalable,
            1 << 18,
            Some(300.0),
        ),
        (
            "W 2^13 (V5)",
            &XC5VLX50T,
            NetworkKind::Lightweight,
            1 << 13,
            Some(100.0),
        ),
    ];
    for (s, (name, device, network, window, fixed_clock)) in series.into_iter().enumerate() {
        m.config(format!("series.{s}"), name);
        for exp in 1..=9u32 {
            let cores = 1u32 << exp;
            let params = DesignParams::new(FlowModel::UniFlow, cores, window).with_network(network);
            let report = match fixed_clock {
                Some(mhz) => params.synthesize_at(device, mhz),
                None => params.synthesize(device),
            };
            let Ok(report) = report else {
                continue; // beyond the device's capacity for this series
            };
            let cycles = measure_latency(&params, exp == 1, &mut prov).cycles_to_last_result;
            m.counter(format!("s{s}.c{cores}.latency_cycles"), cycles);
            latencies.record_value(cycles);
            let mhz = report.clock.mhz();
            t.row(vec![
                name.to_string(),
                cores.to_string(),
                cycles.to_string(),
                format!("{mhz:.0}"),
                format!("{:.2}", cycles as f64 / mhz),
            ]);
        }
    }
    t.note("paper: cycles similar across networks; lightweight loses in time via clock drop");
    m.histogram("latency_cycles", latencies);
    record_provenance(&mut m, &prov);
    (vec![t], m)
}

/// Fig. 17 — maximum clock frequency versus join cores for the three
/// series. A pure timing-model sweep, so the estimated fmax per point
/// lands in the manifest's config map (floats, no cycle counters to
/// record).
pub fn fig17(_: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = crate::obsout::manifest("fig17");
    let mut t = Table::new(
        "Fig. 17 — clock frequency vs join cores",
        &["series", "cores", "fmax MHz"],
    );
    for exp in 1..=9u32 {
        let cores = 1u32 << exp;
        let v7l = DesignParams::new(FlowModel::UniFlow, cores, 1 << 18);
        let fmax = estimate_fmax(&XC7VX485T, &v7l.timing_profile()).mhz();
        m.config(
            format!("v7_lightweight.c{cores}.fmax_mhz"),
            format!("{fmax:.1}"),
        );
        t.row(vec![
            "W 2^18 (V7)".into(),
            cores.to_string(),
            format!("{fmax:.1}"),
        ]);
        let v7s = v7l.with_network(NetworkKind::Scalable);
        let fmax = estimate_fmax(&XC7VX485T, &v7s.timing_profile()).mhz();
        m.config(
            format!("v7_scalable.c{cores}.fmax_mhz"),
            format!("{fmax:.1}"),
        );
        t.row(vec![
            "W 2^18 (V7s)".into(),
            cores.to_string(),
            format!("{fmax:.1}"),
        ]);
        if cores <= 16 {
            let v5 = DesignParams::new(FlowModel::UniFlow, cores, 1 << 13);
            let fmax = estimate_fmax(&XC5VLX50T, &v5.timing_profile()).mhz();
            m.config(
                format!("v5_lightweight.c{cores}.fmax_mhz"),
                format!("{fmax:.1}"),
            );
            t.row(vec![
                "W 2^13 (V5)".into(),
                cores.to_string(),
                format!("{fmax:.1}"),
            ]);
        }
    }
    t.note("paper: V7 lightweight drops with fan-out; V7 scalable flat ~300; V5 flat, bump at 16");
    (vec![t], m)
}

/// Section V power table — bi-flow vs uni-flow at 16 cores, window 2^13,
/// on the Virtex-5 at 100 MHz, plus a core-count sweep. Model estimates
/// (floats) land in the manifest's config map.
pub fn power(_: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = crate::obsout::manifest("power");
    m.config("device", "XC5VLX50T");
    m.config("clock_mhz", 100);
    let mut t = Table::new(
        "Power — Virtex-5 @100 MHz (synthesis-model estimates)",
        &["flow", "cores", "window", "total mW", "saving"],
    );
    for &(cores, window) in &[(16u32, 1usize << 13), (8, 1 << 12), (4, 1 << 11)] {
        let mut totals = Vec::new();
        for flow in [FlowModel::BiFlow, FlowModel::UniFlow] {
            let params = DesignParams::new(flow, cores, window);
            let power = hwsim::PowerModel::calibrated().report(
                &XC5VLX50T,
                params.resources(&XC5VLX50T),
                hwsim::Frequency::from_mhz(100.0),
                params.activity(),
            );
            totals.push(power.total_mw());
            m.config(
                format!("{flow}.c{cores}.w2e{}.total_mw", window.ilog2()),
                format!("{:.2}", power.total_mw()),
            );
            t.row(vec![
                flow.to_string(),
                cores.to_string(),
                format!("2^{}", window.ilog2()),
                format!("{:.2}", power.total_mw()),
                String::new(),
            ]);
        }
        let saving = 100.0 * (1.0 - totals[1] / totals[0]);
        m.config(
            format!("c{cores}.w2e{}.saving_pct", window.ilog2()),
            format!("{saving:.1}"),
        );
        t.row(vec![
            "-".into(),
            cores.to_string(),
            format!("2^{}", window.ilog2()),
            "-".into(),
            format!("{saving:.1}%"),
        ]);
    }
    t.note("paper anchor: bi-flow 1647.53 mW vs uni-flow 800.35 mW at 16 cores, window 2^13 (>50% saving)");
    (vec![t], m)
}

/// Ablation — tree fan-out of the scalable networks (paper future work:
/// "other fan-out sizes (e.g., 1→4) could be interesting to explore").
/// Wider trees are shallower (lower latency in cycles) but each stage
/// drives more loads (lower clock), so the best wall-clock latency is a
/// genuine trade-off.
pub fn fanout_ablation() -> Table {
    let mut t = Table::new(
        "Ablation — scalable-network tree fan-out (64 cores, window 2^12, Virtex-7)",
        &[
            "fan-out",
            "tree depth",
            "latency cycles",
            "fmax MHz",
            "latency us",
        ],
    );
    let cores = 64u32;
    let window = 1usize << 12;
    for fanout in [2u32, 4, 8] {
        let params = DesignParams::new(FlowModel::UniFlow, cores, window)
            .with_network(NetworkKind::Scalable)
            .with_fanout(fanout);
        let report = params.synthesize(&XC7VX485T).expect("fits");
        let depth = (cores as f64).log(fanout as f64).round() as u32 + 1;
        let cycles = measure_latency(&params, false, &mut None).cycles_to_last_result;
        t.row(vec![
            fanout.to_string(),
            depth.to_string(),
            cycles.to_string(),
            format!("{:.1}", report.clock.mhz()),
            format!("{:.2}", cycles as f64 / report.clock.mhz()),
        ]);
    }
    t.note("shallower trees save cycles; wider stages cost clock frequency");
    t
}

/// Ablation — join algorithm inside the cores (paper: "without posing any
/// limitation on the chosen join algorithm, e.g., nested-loop join or
/// hash join"). Hash cores probe only the matching bucket, turning the
/// scan-bound design into an input-bound one at low selectivity — at the
/// price of index memory and an equi-join-only restriction. The manifest
/// holds per-point tuple/cycle/result counters, keyed
/// `{nested|hash}.w2e{n}.d{domain}.`.
pub fn hashjoin(_: &FigOpts) -> (Vec<Table>, RunManifest) {
    let mut m = crate::obsout::manifest("hashjoin");
    m.config("device", "XC5VLX50T");
    m.config("target_clock_mhz", 100);
    m.config("cores", 16);
    let mut t = Table::new(
        "Ablation — nested-loop vs hash join cores (16 cores, Virtex-5, 100 MHz)",
        &[
            "window",
            "key domain",
            "nested Mt/s",
            "hash Mt/s",
            "speedup",
        ],
    );
    for &(window, domain) in &[
        (1usize << 10, 1u32 << 16),
        (1 << 12, 1 << 16),
        (1 << 12, 64),
        (1 << 13, 1 << 16),
    ] {
        let mut rates = Vec::new();
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let params =
                DesignParams::new(FlowModel::UniFlow, 16, window).with_algorithm(algorithm);
            let mut join = harness::build(&params);
            prefill_steady_state(join.as_mut(), window);
            let tuples = tuples_for(params.sub_window()).max(256);
            let run = run_throughput(join.as_mut(), tuples, domain);
            let name = match algorithm {
                JoinAlgorithm::NestedLoop => "nested",
                JoinAlgorithm::Hash => "hash",
            };
            record_run(
                &mut m,
                &format!("{name}.w2e{}.d{domain}.", window.ilog2()),
                &run,
            );
            rates.push(run.at_clock(100.0).million_per_second());
        }
        t.row(vec![
            format!("2^{}", window.ilog2()),
            domain.to_string(),
            format!("{:.4}", rates[0]),
            format!("{:.4}", rates[1]),
            format!("{:.0}x", rates[1] / rates[0]),
        ]);
    }
    t.note("prefilled windows hold distinct keys; live keys drawn from the domain");
    t.note("hash cores cost index memory: compare `synthesize` reports per algorithm");
    (vec![t], m)
}

/// Projection — the paper's conclusion points at cloud FPGAs ("Amazon …
/// FPGAs … Xilinx UltraScale+ VU9P"). Re-running the synthesis model on
/// that part predicts what the Fig. 14c experiment would become on an
/// AWS F1 instance: the largest realizable (cores × window) uni-flow
/// designs and their model throughput. Pure out-of-sample prediction —
/// no calibration anchors touch this device.
pub fn cloudscale_projection() -> Table {
    let mut t = Table::new(
        "Projection — uni-flow on the AWS F1 FPGA (XCVU9P, scalable networks)",
        &[
            "cores",
            "max window",
            "fmax MHz",
            "model Mt/s at max window",
        ],
    );
    for exp in [9u32, 10, 11, 12] {
        let cores = 1u32 << exp;
        // Largest power-of-two window that fits.
        let mut max_window = None;
        for wexp in (10..=26u32).rev() {
            let params = DesignParams::new(FlowModel::UniFlow, cores, 1usize << wexp)
                .with_network(NetworkKind::Scalable);
            if let Ok(report) = params.synthesize(&XCVU9P) {
                max_window = Some((wexp, report.clock.mhz()));
                break;
            }
        }
        match max_window {
            Some((wexp, mhz)) => {
                let model = uniflow_throughput_model(1usize << wexp, cores, mhz) / 1e6;
                t.row(vec![
                    cores.to_string(),
                    format!("2^{wexp}"),
                    format!("{mhz:.0}"),
                    format!("{model:.3}"),
                ]);
            }
            None => t.row(vec![
                cores.to_string(),
                "none".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    t.note("paper evaluation peaked at 512 cores x 2^18 on the VC707 (0.59 Mt/s model)");
    t
}

/// Ablation — original vs low-latency handshake join: how many of the
/// strict-semantics results each variant reports on a finite stream, and
/// in how many cycles. The deferral of the original flow is exactly what
/// motivated the low-latency variant the paper's bi-flow design uses.
pub fn deferral_ablation() -> Table {
    use joinhw::biflow::{BiFlowJoin, BiflowVariant};
    use joinhw::JoinOperator;
    use streamcore::workload::{KeyDist, WorkloadSpec};

    /// Far beyond the ~90 k cycles either design takes on this stream.
    const MAX_CYCLES: u64 = 50_000_000;
    let mut t = Table::new(
        "Ablation — handshake-join variant vs result deferral (4 cores, window 64)",
        &["variant", "results", "reference", "coverage", "cycles"],
    );
    let inputs: Vec<_> = WorkloadSpec::new(1_200, KeyDist::Uniform { domain: 8 })
        .generate()
        .collect();
    // Strict reference count via the uni-flow design (verified exact).
    let mut uniflow = harness::build(&DesignParams::new(FlowModel::UniFlow, 4, 64));
    let reference = harness::run_stream(uniflow.as_mut(), &inputs, MAX_CYCLES)
        .expect("uni-flow design stalled")
        .0
        .len();
    for (name, variant) in [
        ("low-latency", BiflowVariant::LowLatency),
        ("original", BiflowVariant::Original),
    ] {
        let params = DesignParams::new(FlowModel::BiFlow, 4, 64);
        let mut join = BiFlowJoin::new(&params).with_variant(variant);
        join.program(JoinOperator::equi(4));
        let (results, cycles) =
            harness::run_stream(&mut join, &inputs, MAX_CYCLES).expect("bi-flow design stalled");
        let results = results.len();
        t.row(vec![
            name.to_string(),
            results.to_string(),
            reference.to_string(),
            format!("{:.1}%", 100.0 * results as f64 / reference as f64),
            cycles.to_string(),
        ]);
    }
    t.note("original handshake join defers matches until tuples physically meet; a finite stream strands the rest");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deferral_ablation_shows_the_gap() {
        let t = deferral_ablation();
        assert_eq!(t.len(), 2);
        let low: f64 = t.cell(0, 3).unwrap().trim_end_matches('%').parse().unwrap();
        let orig: f64 = t.cell(1, 3).unwrap().trim_end_matches('%').parse().unwrap();
        assert!((99.0..=100.0).contains(&low), "low-latency coverage {low}");
        assert!(orig < low, "original should defer: {orig} vs {low}");
    }

    #[test]
    fn hash_cores_are_dramatically_faster_at_low_selectivity() {
        let nested = DesignParams::new(FlowModel::UniFlow, 4, 1 << 8);
        let hashed = nested.with_algorithm(JoinAlgorithm::Hash);
        let a = measure_mtps(&nested, 100.0);
        let b = measure_mtps(&hashed, 100.0);
        assert!(b > 10.0 * a, "hash {b} vs nested {a}");
    }

    #[test]
    fn tuples_for_is_bounded() {
        assert_eq!(tuples_for(1), 512);
        assert_eq!(tuples_for(1 << 17), 64);
    }

    #[test]
    fn fig17_has_all_series() {
        let t = &fig17(&FigOpts::default()).0[0];
        // 9 core counts x 2 V7 series + 4 V5 points.
        assert_eq!(t.len(), 9 * 2 + 4);
    }

    #[test]
    fn power_table_reports_over_50_percent_saving() {
        let t = &power(&FigOpts::default()).0[0];
        let saving_cell = t.cell(2, 4).unwrap();
        let saving: f64 = saving_cell.trim_end_matches('%').parse().unwrap();
        assert!(saving > 50.0, "saving {saving}%");
    }

    #[test]
    fn small_throughput_point_is_sane() {
        // A miniature fig14a point: model and simulation agree.
        let params = DesignParams::new(FlowModel::UniFlow, 4, 1 << 8);
        let measured = measure_mtps(&params, 100.0);
        let model = uniflow_throughput_model(1 << 8, 4, 100.0) / 1e6;
        assert!(
            (measured - model).abs() / model < 0.15,
            "{measured} vs {model}"
        );
    }
}
