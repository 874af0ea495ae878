//! Every registered figure runs, the `figs` binary names them, and the
//! `figs` and `faults` binaries reject bad flags before running.

use std::process::Command;

use bench::{FigOpts, FIGURES};
use obs::RunManifest;

/// Config-map keys a figure's manifest must hold at the smallest sweep
/// (`--windows 10..10 --cores 2,1`): one per point the figure measures.
/// A multi-core point is keyed `_modeled` on a host narrower than the
/// sweep, so both spellings are listed and exactly one must be present.
fn point_keys(figure: &str) -> &'static [&'static [&'static str]] {
    match figure {
        "fig14d" => &[
            &["w2e10.single_mtps"],
            &["w2e10.c1_mtps", "w2e10.c1_modeled_mtps"],
            &["w2e10.c2_mtps", "w2e10.c2_modeled_mtps"],
        ],
        "fig16" => &[
            &["w2e10.c1.p50", "w2e10.c1.p50_modeled_ns"],
            &["w2e10.c2.p50", "w2e10.c2.p50_modeled_ns"],
        ],
        "kernel" => &[&["w2e10.blocked_count_mtps"], &["w2e10.blocked_mat_mtps"]],
        "swflow" => &[&["w2e10.splitjoin_mtps"], &["w2e10.handshake_mtps"]],
        _ => &[],
    }
}

#[test]
fn every_figure_runs_and_records_its_points() {
    let opts = FigOpts {
        cores: Some(vec![2, 1]),
        windows: Some(10..=10),
        samples: Some(1),
        ..FigOpts::default()
    };
    for (figure, run) in FIGURES {
        let (tables, manifest) = run(&opts);
        assert!(!tables.is_empty(), "{figure}: no table");
        for table in &tables {
            assert!(!table.is_empty(), "{figure}: empty table\n{table}");
        }
        assert_eq!(
            manifest.name(),
            *figure,
            "manifest lands in target/obs/<figure>.json"
        );
        let back = RunManifest::from_json(&manifest.to_json())
            .unwrap_or_else(|e| panic!("{figure}: manifest does not parse back: {e}"));
        assert_eq!(back, manifest, "{figure}: manifest round trip");
        for spellings in point_keys(figure) {
            let present = manifest
                .config_entries()
                .iter()
                .filter(|(k, _)| spellings.contains(&k.as_str()))
                .count();
            assert_eq!(
                present, 1,
                "{figure}: exactly one of {spellings:?} expected"
            );
        }
    }
}

#[test]
fn figs_names_the_figures_when_the_name_is_unknown_or_missing() {
    for args in [&["fig99"][..], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figs"))
            .args(args)
            .output()
            .expect("figs runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        for (figure, _) in FIGURES {
            assert!(
                stderr.contains(figure),
                "{args:?}: `{figure}` not listed in:\n{stderr}"
            );
        }
    }
}

#[test]
fn every_figure_design_md_cites_is_a_figs_name() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md at the workspace root");
    let index = design
        .split("\n## ")
        .find(|section| section.starts_with("4. "))
        .expect("DESIGN.md has a §4");
    let cited: Vec<&str> = index
        .split("figs -- ")
        .skip(1)
        .map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .collect();
    assert!(
        cited.len() >= 10,
        "too few `figs -- <name>` in §4: {cited:?}"
    );
    for name in cited {
        assert!(
            FIGURES.iter().any(|(figure, _)| *figure == name),
            "DESIGN.md §4 cites `figs -- {name}`, which `figs` does not know"
        );
    }
}

#[test]
fn figs_rejects_a_malformed_flag_before_running_anything() {
    for (args, message) in [
        (
            ["fig14c", "--batch", "many"],
            "--batch requires a positive integer",
        ),
        (
            ["fig14c", "--frobnicate", "2"],
            "unknown flag `--frobnicate`",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figs"))
            .args(args)
            .output()
            .expect("figs runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn faults_rejects_fewer_than_two_cores_before_running_anything() {
    // Every kill scenario targets worker 1.
    for cores in ["1", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_faults"))
            .args(["--cores", cores])
            .output()
            .expect("faults runs");
        assert_eq!(out.status.code(), Some(2), "--cores {cores}");
        assert!(out.stdout.is_empty(), "--cores {cores}: nothing on stdout");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains("usage: "), "--cores {cores}: {stderr}");
    }
}
