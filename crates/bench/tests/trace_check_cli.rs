//! Negative-path suite for the `trace_check` CI gate: every validator
//! must fail loudly (non-zero exit + a `trace_check FAILED` diagnostic)
//! on the inputs it exists to catch. A gate that exits zero on garbage
//! is worse than no gate, so each failure mode is pinned here.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run the built `trace_check` binary with the given arguments.
fn trace_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_check"))
        .args(args)
        .output()
        .expect("trace_check runs")
}

/// Write `contents` to a unique temp file and return its path.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("trace_check_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path
}

fn assert_fails(output: &Output, expected_in_stderr: &str) {
    assert!(
        !output.status.success(),
        "expected non-zero exit; stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("trace_check FAILED"),
        "stderr must carry the FAILED marker: {stderr}"
    );
    assert!(
        stderr.contains(expected_in_stderr),
        "stderr missing {expected_in_stderr:?}: {stderr}"
    );
}

/// A minimal report JSON carrying every well-known counter except
/// `missing` (`""` keeps them all), which the per-test cases corrupt.
fn report_json_without(missing: &str) -> String {
    let body: Vec<String> = snap_trace::metrics::known_counters()
        .iter()
        .map(|known| known.metric.name())
        .filter(|name| *name != missing)
        .map(|name| format!("\"{name}\": 1"))
        .collect();
    format!(
        "{{\"counters\": {{{}}}, \"gauges\": {{}}, \"spans\": [], \"executed_per_worker\": []}}",
        body.join(", ")
    )
}

fn full_report_json() -> String {
    report_json_without("")
}

const VALID_TRACE: &str = r#"{"traceEvents":[{"name":"ring_map","cat":"snap","ph":"X","pid":1,"tid":1,"ts":1.5,"dur":2.0,"args":{"span_id":7}}],"displayTimeUnit":"ms"}"#;

#[test]
fn missing_file_fails() {
    let out = trace_check(&["/nonexistent/trace.json"]);
    assert_fails(&out, "/nonexistent/trace.json");
}

#[test]
fn malformed_json_fails() {
    let path = temp_file("malformed.json", "{\"traceEvents\": [ nope ]");
    let out = trace_check(&[path.to_str().unwrap()]);
    assert_fails(&out, "bad JSON");
}

#[test]
fn trace_event_missing_required_field_fails() {
    // Second event lacks "dur" — every event must carry the full set.
    let path = temp_file(
        "missing_dur.json",
        r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":1,"ts":1.0,"dur":2.0},
            {"name":"b","ph":"X","pid":1,"tid":1,"ts":3.0}
        ]}"#,
    );
    let out = trace_check(&[path.to_str().unwrap()]);
    assert_fails(&out, "missing \"dur\"");
}

#[test]
fn report_missing_required_counter_fails() {
    let trace = temp_file("ok_trace_a.json", VALID_TRACE);
    // Drop trace.spans_dropped from the otherwise-complete counter set.
    let report = temp_file(
        "gutted_report.json",
        &report_json_without("trace.spans_dropped"),
    );
    let out = trace_check(&[trace.to_str().unwrap(), report.to_str().unwrap()]);
    assert_fails(&out, "\"trace.spans_dropped\"");
}

#[test]
fn report_missing_any_table_counter_fails() {
    // vm.frames is a table row like any other, so the report contract
    // covers it: the check reads the whole table, not a hand-kept list.
    let trace = temp_file("ok_trace_vm.json", VALID_TRACE);
    let report = temp_file("no_vm_frames.json", &report_json_without("vm.frames"));
    let out = trace_check(&[trace.to_str().unwrap(), report.to_str().unwrap()]);
    assert_fails(&out, "\"vm.frames\"");
}

#[test]
fn require_counter_rejects_zero() {
    let trace = temp_file("ok_trace_b.json", VALID_TRACE);
    let zeroed = full_report_json().replace(
        "\"shuffle.pairs_combined\": 1",
        "\"shuffle.pairs_combined\": 0",
    );
    let report = temp_file("zeroed_report.json", &zeroed);
    let out = trace_check(&[
        trace.to_str().unwrap(),
        report.to_str().unwrap(),
        "--require-counter",
        "shuffle.pairs_combined",
    ]);
    assert_fails(&out, "shuffle.pairs_combined");
}

#[test]
fn complete_trace_and_report_pass() {
    let trace = temp_file("ok_trace_c.json", VALID_TRACE);
    let report = temp_file("ok_report.json", &full_report_json());
    let out = trace_check(&[trace.to_str().unwrap(), report.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "valid inputs must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A bench file with one row per gated bench (`a1_job_churn/1` at
/// `churn_ns`), minus any name in `skip`.
fn bench_json_without(churn_ns: f64, skip: &[&str]) -> String {
    let rows: Vec<String> = [
        ("a1_job_churn/1", churn_ns, 1),
        ("a1_nested_latency/outer2_inner8", 1000.0, 8),
        ("a5_ring_eval/bytecode_fastpath", 1000.0, 4),
        ("a5_word_count_combine/combiner_on", 1000.0, 4),
        ("a6_batch_eval/eval_batch", 1000.0, 4),
        ("a6_columnar_map/columnar_on", 1000.0, 4),
        ("a9_native_vs_batch/batch_tier", 1000.0, 4),
    ]
    .into_iter()
    .filter(|(name, _, _)| !skip.contains(name))
    .map(|(name, ns, workers)| {
        format!(r#"{{"name": "{name}", "median_ns": {ns:?}, "workers": {workers}}}"#)
    })
    .collect();
    format!(
        r#"{{"date": "2026-08-08", "host_cpus": 4, "benches": [{}]}}"#,
        rows.join(",\n")
    )
}

fn bench_json(churn_ns: f64) -> String {
    bench_json_without(churn_ns, &[])
}

#[test]
fn gated_bench_regression_fails() {
    let baseline = temp_file("baseline.json", &bench_json(1000.0));
    // 30% slower than baseline on a gated bench: past the 1.25x gate.
    let current = temp_file("regressed.json", &bench_json(1300.0));
    let out = trace_check(&[
        "--bench-json",
        current.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_fails(&out, "a1_job_churn/1");
}

#[test]
fn gated_bench_within_tolerance_passes() {
    let baseline = temp_file("baseline_ok.json", &bench_json(1000.0));
    let current = temp_file("current_ok.json", &bench_json(1100.0));
    let out = trace_check(&[
        "--bench-json",
        current.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "10% drift is within the 25% gate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn gated_bench_missing_from_either_file_fails() {
    // A gated bench the baseline lacks cannot be compared, so even a 10x
    // slowdown in the current run would pass unseen: that must fail, as
    // must a gated bench the current run lacks.
    let cases = [
        (
            bench_json(10_000.0),
            bench_json_without(1000.0, &["a1_job_churn/1"]),
            "a1_job_churn/1: missing from",
        ),
        (
            bench_json_without(1000.0, &["a9_native_vs_batch/batch_tier"]),
            bench_json(1000.0),
            "a9_native_vs_batch/batch_tier: missing from",
        ),
    ];
    for (i, (current, baseline, expected)) in cases.iter().enumerate() {
        let current = temp_file(&format!("current_gap{i}.json"), current);
        let baseline = temp_file(&format!("baseline_gap{i}.json"), baseline);
        let out = trace_check(&[
            "--bench-json",
            current.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ]);
        assert_fails(&out, expected);
    }
}

#[test]
fn bench_row_with_median_outside_its_range_fails() {
    let row = |lo: f64, hi: f64| {
        format!(
            r#"{{"date": "2026-08-08", "host_cpus": 2, "benches": [
                {{"name": "a1_job_churn/1", "median_ns": 1000.0, "lo_ns": {lo:?}, "hi_ns": {hi:?}, "workers": 1}}]}}"#
        )
    };
    let ordered = temp_file("range_ok.json", &row(900.0, 1500.0));
    let out = trace_check(&["--bench-json", ordered.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for (i, (lo, hi)) in [(1100.0, 1500.0), (900.0, 950.0)].into_iter().enumerate() {
        let path = temp_file(&format!("range_bad{i}.json"), &row(lo, hi));
        let out = trace_check(&["--bench-json", path.to_str().unwrap()]);
        assert_fails(&out, "lo_ns <= median_ns <= hi_ns");
    }
}

#[test]
fn committed_baseline_clears_its_own_gates() {
    // The CI gate compares a fresh run against this file: every gated
    // bench needs a row here, every row must be well formed, and the
    // a7 pair must be present, or the gate fails before comparing.
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");
    let out = trace_check(&["--bench-json", baseline, "--baseline", baseline]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(7 gated benches)"), "{stdout}");
    let out = trace_check(&["--overhead-gate", baseline]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn overhead_json(on_ns: f64, off_ns: f64) -> String {
    format!(
        r#"{{"date": "2026-08-08", "host_cpus": 4, "benches": [
            {{"name": "a7_trace_overhead/telemetry_off", "median_ns": {off_ns}, "workers": 4}},
            {{"name": "a7_trace_overhead/telemetry_on", "median_ns": {on_ns}, "workers": 4}}
        ]}}"#
    )
}

#[test]
fn overhead_gate_rejects_blown_budget() {
    // 10% overhead: well past the 3% budget.
    let path = temp_file("overhead_bad.json", &overhead_json(1100.0, 1000.0));
    let out = trace_check(&["--overhead-gate", path.to_str().unwrap()]);
    assert_fails(&out, "overhead");
}

#[test]
fn overhead_gate_accepts_budget() {
    let path = temp_file("overhead_ok.json", &overhead_json(1020.0, 1000.0));
    let out = trace_check(&["--overhead-gate", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "2% overhead is within the 3% budget: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn overhead_gate_requires_the_pair() {
    let path = temp_file(
        "overhead_missing.json",
        r#"{"date": "2026-08-08", "host_cpus": 4, "benches": [
            {"name": "a7_trace_overhead/telemetry_off", "median_ns": 1000.0, "workers": 4}
        ]}"#,
    );
    let out = trace_check(&["--overhead-gate", path.to_str().unwrap()]);
    assert_fails(&out, "telemetry_on");
}

#[test]
fn scrape_fails_when_nothing_listens() {
    let outfile = std::env::temp_dir().join(format!("scrape_none_{}.txt", std::process::id()));
    // Port 9 (discard) on localhost is never an HTTP server.
    let out = trace_check(&[
        "--scrape",
        "127.0.0.1:9",
        "/metrics",
        outfile.to_str().unwrap(),
    ]);
    assert_fails(&out, "attempt");
}

#[test]
fn scrape_reads_a_live_endpoint_and_checks_expectations() {
    snap_trace::well_known::POOL_JOBS_EXECUTED.incr();
    let server = snap_trace::serve("127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let outfile = std::env::temp_dir().join(format!("scrape_live_{}.prom", std::process::id()));
    let out = trace_check(&[
        "--scrape",
        &addr,
        "/metrics",
        outfile.to_str().unwrap(),
        "--retry",
        "3",
        "--expect",
        "snap_pool_jobs_executed",
    ]);
    assert!(
        out.status.success(),
        "live scrape must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&outfile).expect("scrape wrote the body");
    assert!(body.contains("snap_pool_jobs_executed"));
    // A wrong expectation against the same live endpoint must fail.
    let out = trace_check(&[
        "--scrape",
        &addr,
        "/metrics",
        outfile.to_str().unwrap(),
        "--expect",
        "this_metric_does_not_exist",
    ]);
    assert_fails(&out, "this_metric_does_not_exist");
    // --expect-positive: the incremented counter's sample line is > 0...
    let out = trace_check(&[
        "--scrape",
        &addr,
        "/metrics",
        outfile.to_str().unwrap(),
        "--expect-positive",
        "snap_pool_jobs_executed ",
    ]);
    assert!(
        out.status.success(),
        "live counter must satisfy --expect-positive: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...while a prefix matching no sample line must fail.
    let out = trace_check(&[
        "--scrape",
        &addr,
        "/metrics",
        outfile.to_str().unwrap(),
        "--expect-positive",
        "snap_no_such_sample ",
    ]);
    assert_fails(&out, "snap_no_such_sample");
}
