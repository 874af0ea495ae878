//! Every deterministic figure prints the tables pinned under
//! `crates/bench/expected/`, byte for byte.
//!
//! A pin holds what `figs <figure> [flags]` prints on stdout, so a
//! figure changed on purpose is re-pinned in the same change with, e.g.,
//! `cargo run --release -p bench --bin figs -- fig15 >
//! crates/bench/expected/fig15.txt`. `reconfig.txt` keeps only the first
//! table `figs reconfig` prints (the modeled deployment paths); its
//! second table is measured wall-clock time. The full `fig14c` sweep
//! (`fig14c.txt`) takes ~20 s in release, so CI's bench-smoke job diffs
//! `figs fig14c` against it; here `fig14c` runs CI's narrowed
//! `--windows 11..13` (`fig14c_w11-13.txt`).

use bench::{FigOpts, FIGURES};

/// Runs `figure` under `opts` and renders its first `tables` tables as
/// `figs` prints them.
fn render(figure: &str, opts: &FigOpts, tables: usize) -> String {
    let (_, run) = FIGURES
        .iter()
        .find(|(name, _)| *name == figure)
        .unwrap_or_else(|| panic!("`{figure}` is not a figure"));
    run(opts)
        .0
        .iter()
        .take(tables)
        .map(|table| format!("{table}\n"))
        .collect()
}

/// The lines where `want` and `got` differ, `-` for the pin and `+` for
/// this run.
fn diff(want: &str, got: &str) -> String {
    let (want, got): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    let mut out = String::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            if let Some(w) = w {
                out.push_str(&format!("line {}: -{w}\n", i + 1));
            }
            if let Some(g) = g {
                out.push_str(&format!("line {}: +{g}\n", i + 1));
            }
        }
    }
    out
}

/// Compares the first `tables` tables of `figure` under `opts` with the
/// pin `expected/<pin>.txt`.
fn check(pin: &str, figure: &str, opts: &FigOpts, tables: usize) {
    let path = format!("{}/expected/{pin}.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = render(figure, opts, tables);
    assert!(
        got == want,
        "`{figure}` no longer prints its pin {path}:\n{}",
        diff(&want, &got)
    );
}

/// Compares every table of `figure`, run without flags, with
/// `expected/<figure>.txt`.
fn check_all(figure: &str) {
    check(figure, figure, &FigOpts::default(), usize::MAX);
}

#[test]
fn fig14a() {
    check_all("fig14a");
}

#[test]
fn fig14b() {
    check_all("fig14b");
}

#[test]
fn fig14c_narrowed() {
    let opts = FigOpts {
        windows: Some(11..=13),
        ..FigOpts::default()
    };
    check("fig14c_w11-13", "fig14c", &opts, usize::MAX);
}

#[test]
fn fig15() {
    check_all("fig15");
}

#[test]
fn fig17() {
    check_all("fig17");
}

#[test]
fn power() {
    check_all("power");
}

#[test]
fn fanout() {
    check_all("fanout");
}

#[test]
fn hashjoin() {
    check_all("hashjoin");
}

#[test]
fn deferral() {
    check_all("deferral");
}

#[test]
fn cloudscale() {
    check_all("cloudscale");
}

#[test]
fn reconfig_model_rows() {
    check("reconfig", "reconfig", &FigOpts::default(), 1);
}
