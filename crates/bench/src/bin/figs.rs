//! Regenerates the paper's figures and this repo's own sweeps. Run with
//! --release.
//!
//! `figs <name|all> [flags]`: runs the named figure of
//! [`bench::FIGURES`] (`all`: every one, in table order), prints its
//! tables to stdout and writes its run manifest to
//! `target/obs/<name>.json` (or `$ACCEL_OBS_DIR`). [`bench::FigOpts`]
//! documents the flags; under `--trace` the figure's span rings are
//! exported to `target/obs/<name>.trace.json`, under `--live` its
//! telemetry series to `target/obs/<name>.series.jsonl`.

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let selected: Vec<_> = bench::FIGURES
        .iter()
        .filter(|(figure, _)| name == "all" || name == *figure)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = bench::FIGURES.iter().map(|(figure, _)| *figure).collect();
        eprintln!("usage: figs <name|all> {}", bench::USAGE);
        eprintln!("figures: {}", names.join(", "));
        std::process::exit(2);
    }
    let opts = bench::FigOpts::from_args(args);
    if let Some(error) = selected
        .iter()
        .find_map(|(figure, _)| bench::unrunnable(figure, &opts))
    {
        eprintln!("error: {error}");
        eprintln!("usage: figs <name|all> {}", bench::USAGE);
        std::process::exit(2);
    }
    opts.setup_trace();
    for (figure, run) in selected {
        let live = opts.setup_live(figure);
        let (tables, manifest) = run(&opts);
        if let Some(live) = live {
            live.finish();
        }
        for table in &tables {
            if opts.csv {
                println!("{}", table.to_csv());
            } else {
                println!("{table}");
            }
        }
        bench::obsout::emit(&manifest);
        bench::obsout::emit_harvest(figure);
    }
}
