//! End-to-end tests of the `accel` command-line tool.

use std::process::{Command, Output};

fn accel(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_accel"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn landscape_lists_the_catalog() {
    let out = accel(&["landscape"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("FQP"));
    assert!(text.contains("SplitJoin"));
    assert!(text.contains("Handshake join"));
}

#[test]
fn synthesize_prints_a_report() {
    let out = accel(&[
        "synthesize",
        "--cores",
        "16",
        "--window",
        "8192",
        "--device",
        "v5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("uni-flow join, 16 cores"));
    assert!(text.contains("clock"));
    assert!(text.contains("power"));
}

#[test]
fn synthesize_reports_infeasible_designs() {
    let out = accel(&[
        "synthesize",
        "--cores",
        "64",
        "--window",
        "8192",
        "--device",
        "v5",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("BRAM18"));
}

#[test]
fn throughput_measures_a_small_design() {
    let out = accel(&[
        "throughput",
        "--cores",
        "4",
        "--window",
        "256",
        "--device",
        "v5",
        "--clock",
        "100",
        "--tuples",
        "64",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("measured:"), "{text}");
    assert!(text.contains("M tuples/s"), "{text}");
}

/// `(cycles, results)` from `accel throughput`'s `measured:` line.
fn measured(text: &str) -> (u64, u64) {
    let line = text
        .lines()
        .find(|l| l.starts_with("measured:"))
        .unwrap_or_else(|| panic!("no measured line in {text}"));
    let words: Vec<&str> = line.split_whitespace().collect();
    let after = |w: &str| {
        let i = words.iter().position(|x| *x == w).expect(w);
        words[i + 1]
            .trim_start_matches('(')
            .parse()
            .expect("a count")
    };
    (after("over"), after("cycles"))
}

#[test]
fn throughput_runs_either_join_algorithm() {
    let run = |algorithm: &str| {
        let out = accel(&[
            "throughput",
            "--cores",
            "4",
            "--window",
            "256",
            "--device",
            "v5",
            "--tuples",
            "512",
            "--algorithm",
            algorithm,
        ]);
        assert!(out.status.success(), "{algorithm}: {}", stderr(&out));
        measured(&stdout(&out))
    };
    let (nested_cycles, nested_results) = run("nested");
    let (hash_cycles, hash_results) = run("hash");
    // Same join, same stream: a hash core finds the same partners while
    // probing only the matching bucket instead of the whole sub-window.
    assert!(nested_results > 0, "the stream should produce matches");
    assert_eq!(hash_results, nested_results);
    assert!(
        hash_cycles < nested_cycles,
        "hash {hash_cycles} cycles vs nested {nested_cycles}"
    );

    let out = accel(&[
        "throughput",
        "--cores",
        "4",
        "--window",
        "256",
        "--device",
        "v5",
        "--algorithm",
        "bogus",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown algorithm"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn explain_binds_against_cli_schemas() {
    let out = accel(&[
        "explain",
        "SELECT v FROM s WHERE v > 9",
        "--schema",
        "s=v:32,w:8",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Source: s"), "{text}");
    assert!(text.contains("Select [v > 9]"), "{text}");
    assert!(text.contains("Output: (v:32)"), "{text}");
}

#[test]
fn explain_prints_one_plan_for_any_spacing_around_an_operator() {
    let explain = |query| accel(&["explain", query, "--schema", "s=v:32,w:8"]);
    let spaced = explain("SELECT v FROM s WHERE v > 9");
    assert!(spaced.status.success(), "{}", stderr(&spaced));
    let glued = explain("SELECT v FROM s WHERE v >9");
    assert!(glued.status.success(), "{}", stderr(&glued));
    assert_eq!(stdout(&glued), stdout(&spaced));
}

#[test]
fn explain_rejects_a_field_named_twice_without_panicking() {
    let out = accel(&["explain", "SELECT k, k FROM s", "--schema", "s=k:32"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("field \"k\" appears twice"), "{err}");
}

/// `accel deploy` on README's schemas, cores and device.
fn deploy(query: &str) -> Output {
    accel(&[
        "deploy",
        query,
        "--schema",
        "a=k:32,x:32",
        "--schema",
        "b=k:32,y:32",
        "--cores",
        "8",
        "--device",
        "v7",
    ])
}

#[test]
fn deploy_prints_the_synthesis_report() {
    let out = deploy("SELECT * FROM a JOIN b ON k WINDOW 1024");
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // README's example output.
    for line in [
        "Join b ON k WINDOW 1024",
        "uni-flow join, 8 cores, window 2^10 per stream, lightweight network on XC7VX485T",
        "clock 279.9 MHz",
        "sustainable input throughput: 2.186 M tuples/s",
    ] {
        assert!(text.contains(line), "{line:?} missing from:\n{text}");
    }
}

#[test]
fn deploy_rejects_a_plan_it_cannot_accelerate() {
    for (query, error) in [
        (
            "SELECT * FROM a WHERE x > 5",
            "plan has no join to accelerate",
        ),
        (
            "SELECT * FROM a JOIN b ON k WINDOW 4000000",
            "design does not fit",
        ),
    ] {
        let out = deploy(query);
        assert_eq!(out.status.code(), Some(1), "{query}");
        let err = stderr(&out);
        assert!(err.contains(error), "{query}: {err}");
    }
}

#[test]
fn explain_handles_boolean_where_clauses() {
    let out = accel(&[
        "explain",
        "SELECT * FROM s WHERE (v > 9 OR w < 2) AND NOT v = 5",
        "--schema",
        "s=v:32,w:8",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("truth table"), "{text}");
}

#[test]
fn bad_invocations_print_usage() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["synthesize", "--cores", "four"][..],
        &["explain", "SELECT *"][..],
    ] {
        let out = accel(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(stderr(&out).contains("USAGE"), "{args:?}");
    }
}

#[test]
fn help_prints_usage() {
    let out = accel(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}
