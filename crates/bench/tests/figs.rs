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
        "partition" => &[
            &["w2e10.broadcast_mtps"],
            &["w2e10.partitioned_mtps"],
            &["zipf.partitioned.occupancy_ratio"],
            &["zipf.nosplit.occupancy_ratio"],
        ],
        "kernel" => &[&["w2e10.blocked_count_mtps"], &["w2e10.blocked_mat_mtps"]],
        "swflow" => &[&["w2e10.splitjoin_mtps"], &["w2e10.handshake_mtps"]],
        _ => &[],
    }
}

#[test]
fn every_figure_runs_and_records_its_points() {
    // `partition` runs at the first core count, and one worker has no
    // one to split a hot key with: 2 leads.
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
fn figs_rejects_a_malformed_flag_before_running_anything() {
    let out = Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(["fig14c", "--threads", "many"])
        .output()
        .expect("figs runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("--threads requires a non-negative integer"),
        "{stderr}"
    );
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
