//! Ablation: software uni-flow (SplitJoin) vs software bi-flow (handshake
//! join) throughput on this host — the Fig. 14b comparison, in software.
//! Run with --release.
//!
//! Accepts `--batch N` (both flows run their data paths at that batch
//! size), `--windows LO..HI`, and `--trace [N]` (export worker/core span
//! rings from the first window to `target/obs/swflow.trace.json`).
//! Measured points are upserted into `BENCH_swjoin.json`.

use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
use joinsw::harness::measure_throughput_with;
use joinsw::splitjoin::{SplitJoin, SplitJoinConfig};

use bench::swjoin::{SwJoinEntry, SwRunOpts};

fn main() {
    let opts = SwRunOpts::from_args();
    let mut traced = !opts.setup_trace();
    let batch = opts.batch_size;
    let windows = opts.windows.clone().unwrap_or(10..=14);
    let mut t = bench::Table::new(
        "Ablation — software uni-flow vs bi-flow throughput (4 threads)",
        &["window", "uni-flow Mt/s", "bi-flow Mt/s", "uni/bi"],
    );
    let mut entries = Vec::new();
    let entry = |variant: &str, window: usize, tuples: u64, mtps: f64| SwJoinEntry {
        figure: "swflow".into(),
        variant: variant.into(),
        cores: 4,
        window,
        batch_size: batch,
        tuples,
        metric: "throughput_mtps".into(),
        value: mtps,
        mode: "measured".into(),
    };
    for exp in windows.step_by(2) {
        let window = 1usize << exp;
        let tuples = (40_000_000 / window as u64).clamp(500, 8_192);
        // Under `--trace`, the first window's runs also donate their span
        // rings to the exported timeline; later windows run untouched.
        let (uni, uni_outcome) = measure_throughput_with::<SplitJoin>(
            SplitJoinConfig::new(4, window).with_batch_size(batch),
            tuples,
            1 << 20,
        )
        .expect("swflow run failed");
        let (bi, bi_outcome) = measure_throughput_with::<HandshakeJoin>(
            HandshakeConfig::new(4, window).with_batch_size(batch),
            tuples,
            1 << 20,
        )
        .expect("swflow run failed");
        if !traced {
            traced = true;
            bench::obsout::harvest(uni_outcome.trace);
            bench::obsout::harvest(bi_outcome.trace);
        }
        let uni = uni.million_per_second();
        let bi = bi.million_per_second();
        entries.push(entry("splitjoin", window, tuples, uni));
        entries.push(entry("handshake", window, tuples, bi));
        t.row(vec![
            format!("2^{exp}"),
            format!("{uni:.5}"),
            format!("{bi:.5}"),
            format!("{:.1}x", uni / bi),
        ]);
    }
    t.note(format!("data-path batch size: {batch}"));
    t.note(
        "both flows do the same total comparisons per tuple; in software they land \
         near parity at large windows — the paper's 'in theory, both models are \
         similar in their parallelization concept'. The hardware gap of Fig. 14b \
         comes from bi-flow's coordination discipline, not the flow model itself.",
    );
    println!("{t}");
    bench::swjoin::record(&entries);
    bench::obsout::emit_harvest("swflow");
}
