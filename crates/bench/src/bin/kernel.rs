//! Regenerates the kernel figure: the blocked probe kernel on the
//! software SplitJoin, single-core. Run with --release.
//!
//! Accepts `--batch N` (blocked tiles need >= 8 probes per batch),
//! `--windows LO..HI` (inclusive exponent range, default 8..14), and
//! `--samples N` (best-of-N runs per point, default 3 — scheduler
//! noise only depresses a rate), plus `--trace [N]`. Prints the sweep
//! table to stdout, writes a run
//! manifest to `target/obs/kernel.json` (or `$ACCEL_OBS_DIR`), and
//! upserts every measured point into `BENCH_swjoin.json` alongside it.
//! `swjoin_check` gates these entries against the committed baseline.
fn main() {
    let opts = bench::swjoin::SwRunOpts::from_args();
    opts.setup_trace();
    let (t, m, entries) = bench::kernel_run_opts(&opts);
    println!("{t}");
    bench::obsout::emit(&m);
    bench::swjoin::record(&entries);
    bench::obsout::emit_harvest("kernel");
}
