//! The `report` binary's command line: an experiment id it does not
//! know must fail the run, not print a header and exit zero, so a
//! script that asks for a deleted or mistyped experiment finds out.

use std::process::{Command, Output};

/// Run the built `report` binary with the given arguments.
fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report runs")
}

#[test]
fn unknown_experiment_ids_exit_non_zero_and_name_the_valid_ones() {
    // Neither e11 nor e99 names an experiment, and an unknown id beside
    // a known one still runs nothing.
    for args in [&["e11"][..], &["e99"], &["e1", "e99"]] {
        let output = report(args);
        assert_eq!(output.status.code(), Some(2), "report {args:?}");
        assert!(output.stdout.is_empty(), "report {args:?} ran something");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let unknown = args[args.len() - 1];
        assert!(
            stderr.contains(unknown),
            "the error names {unknown}: {stderr}"
        );
        assert!(
            stderr.contains("e1 e2"),
            "the error lists the ids: {stderr}"
        );
    }
}

#[test]
fn a_known_experiment_runs_and_exits_zero() {
    let output = report(&["E1"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("==== E1:"), "{stdout}");
    assert!(!stdout.contains("==== E2:"), "only E1 runs: {stdout}");
}

#[test]
fn e14_runs_the_parallel_shuffle() {
    // A declined `mapReduce` with more pairs than the shuffle's threshold
    // must reach the parallel shuffle, and its traced report says so.
    let output = report(&["e14"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let runs = stdout
        .lines()
        .find_map(|line| line.trim().strip_prefix("shuffle.parallel_runs"))
        .unwrap_or_else(|| panic!("no shuffle.parallel_runs row: {stdout}"));
    assert_eq!(runs.trim(), "1", "{stdout}");
}
