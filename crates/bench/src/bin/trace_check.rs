//! Validate an emitted Chrome `trace_event` JSON file (and optionally
//! an `ExecutionReport` JSON) — the CI gate for the tracing pipeline.
//!
//! ```sh
//! cargo run -p bench --bin trace_check -- target/trace.json [target/trace.json.report.json]
//! cargo run -p bench --bin trace_check -- target/trace.json target/trace.json.report.json \
//!     --require-counter shuffle.pairs_combined
//! cargo run -p bench --bin trace_check -- --bench-json target/ci/BENCH_BASELINE.json
//! cargo run -p bench --bin trace_check -- --bench-json target/ci/BENCH_BASELINE.json \
//!     --baseline BENCH_BASELINE.json
//! ```
//!
//! Report validation checks the schema (counters/gauges/spans/
//! executed_per_worker) and that every well-known counter — each row of
//! `snap_trace::metrics::known_counters()`, the table `report()` emits
//! zero or not — is present. `--require-counter <name>`
//! additionally asserts the named counter is **positive** in every
//! report file checked (CI uses it to prove the map-side combiner
//! actually ran on the traced example).
//!
//! `--bench-json` instead validates a `scripts/bench.sh` baseline file
//! (date, host_cpus, and a non-empty benches array of name/median_ns/
//! workers entries, with `lo_ns <= median_ns <= hi_ns` where a row
//! records its sample range). With `--baseline`, the fresh run is
//! additionally compared against the committed baseline: the gated
//! benches (see [`GATED_BENCHES`]; from `a1_job_churn/1` through
//! `a10_native_amortized/persistent_deep_120000`) fail the check when
//! missing from either file or more than 25% slower than the
//! baseline, and the full comparison table is appended to
//! `$GITHUB_STEP_SUMMARY` when that variable is set. Exits non-zero if
//! a file is missing, fails to parse, lacks its required structure,
//! regresses past the gate, or (for traces) contains malformed events.
//!
//! Two more modes serve the continuous-telemetry pipeline:
//!
//! * `--overhead-gate <BENCH.json>` — reads the `a7_trace_overhead`
//!   pair from a fresh bench run and fails when `telemetry_on` costs
//!   more than [`OVERHEAD_GATE_RATIO`]× `telemetry_off` — the <3%
//!   always-on telemetry budget, self-audited.
//! * `--scrape <host:port> <path> <outfile> [--retry N] [--expect
//!   <substr> ...] [--expect-positive <line-prefix> ...]` —
//!   dependency-free HTTP GET against a live `snap_trace::serve`
//!   endpoint (CI has no curl guarantee). Writes the response body to
//!   `<outfile>` and fails unless the status is 200, every `--expect`
//!   substring occurs in the body, and every `--expect-positive` prefix
//!   matches a sample line whose value is > 0 (proving the metric is
//!   live, not just exported). `--retry` re-attempts (1s apart) while
//!   the server warms up or a metric has yet to go live.

use std::io::{Read, Write};
use std::process::ExitCode;

use serde_json::Value;

fn parse_file(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde::json::parse(&text).map_err(|e| format!("{path}: bad JSON: {e:?}"))
}

fn check_trace(path: &str) -> Result<(), String> {
    let doc = parse_file(path)?;
    let events = match doc.as_object().and_then(|o| o.get("traceEvents")) {
        Some(Value::Array(events)) => events,
        _ => return Err(format!("{path}: no traceEvents array")),
    };
    for (i, event) in events.iter().enumerate() {
        let object = event
            .as_object()
            .ok_or_else(|| format!("{path}: event {i} is not an object"))?;
        for field in ["name", "ph", "ts", "dur", "pid", "tid"] {
            if object.get(field).is_none() {
                return Err(format!("{path}: event {i} missing {field:?}"));
            }
        }
    }
    let mut names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.as_object()?.get("name")?.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    println!(
        "{path}: OK — {} events, {} distinct spans: {}",
        events.len(),
        names.len(),
        names.join(", ")
    );
    Ok(())
}

fn check_report(path: &str, require_positive: &[String]) -> Result<(), String> {
    let doc = parse_file(path)?;
    let object = doc
        .as_object()
        .ok_or_else(|| format!("{path}: report is not an object"))?;
    for field in ["counters", "gauges", "spans", "executed_per_worker"] {
        if object.get(field).is_none() {
            return Err(format!("{path}: report missing {field:?}"));
        }
    }
    let counters = object
        .get("counters")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: counters is not an object"))?;
    for known in snap_trace::metrics::known_counters() {
        let name = known.metric.name();
        if counters.get(name).is_none() {
            return Err(format!("{path}: report missing counter {name:?}"));
        }
    }
    for name in require_positive {
        let value = match counters.get(name.as_str()) {
            Some(Value::Number(n)) => n.as_f64(),
            _ => return Err(format!("{path}: required counter {name:?} not found")),
        };
        if value <= 0.0 {
            return Err(format!("{path}: counter {name:?} is {value}, expected > 0"));
        }
        println!("{path}: counter {name} = {value} (> 0 as required)");
    }
    println!("{path}: OK — {} counters", counters.len());
    Ok(())
}

fn check_bench_json(path: &str) -> Result<(), String> {
    let doc = parse_file(path)?;
    let object = doc
        .as_object()
        .ok_or_else(|| format!("{path}: baseline is not an object"))?;
    for field in ["date", "host_cpus", "benches"] {
        if object.get(field).is_none() {
            return Err(format!("{path}: baseline missing {field:?}"));
        }
    }
    let benches = match object.get("benches") {
        Some(Value::Array(benches)) if !benches.is_empty() => benches,
        _ => return Err(format!("{path}: benches is not a non-empty array")),
    };
    for (i, bench) in benches.iter().enumerate() {
        let entry = bench
            .as_object()
            .ok_or_else(|| format!("{path}: bench {i} is not an object"))?;
        for field in ["name", "median_ns", "workers"] {
            if entry.get(field).is_none() {
                return Err(format!("{path}: bench {i} missing {field:?}"));
            }
        }
        let median = match entry.get("median_ns") {
            Some(Value::Number(ns)) if ns.as_f64() > 0.0 => ns.as_f64(),
            _ => return Err(format!("{path}: bench {i} median_ns is not positive")),
        };
        // The sample range, where the row records one.
        let bound = |key: &str| match entry.get(key) {
            None => Ok(median),
            Some(Value::Number(ns)) => Ok(ns.as_f64()),
            Some(_) => Err(format!("{path}: bench {i} {key} is not a number")),
        };
        let (lo, hi) = (bound("lo_ns")?, bound("hi_ns")?);
        if !(lo <= median && median <= hi) {
            return Err(format!(
                "{path}: bench {i} breaks lo_ns <= median_ns <= hi_ns ({lo} / {median} / {hi})"
            ));
        }
    }
    println!("{path}: OK — {} bench baselines", benches.len());
    Ok(())
}

/// Benches whose regressions fail CI; everything else is informational.
/// All run single-job/low-worker shapes that are stable on small CI
/// hosts, unlike the saturation benches that swing with core count.
/// The `a5` pair gates the ring-bytecode fast path and the map-side
/// combiner: both are per-item/per-pair CPU work, stable on one core.
/// The `a6` pair gates the columnar batch tier: the raw `eval_batch`
/// lane loops and the end-to-end columnar `parallelMap` pipeline. The
/// `a8` pair gates the streaming tier: whole-corpus streaming word
/// count and the short-pipeline end-to-end latency.
const GATED_BENCHES: &[&str] = &[
    "a1_job_churn/1",
    "a1_nested_latency/outer2_inner8",
    "a5_ring_eval/bytecode_fastpath",
    "a5_word_count_combine/combiner_on",
    "a6_batch_eval/eval_batch",
    "a6_columnar_map/columnar_on",
    "a8_stream_throughput/streaming",
    "a8_stream_latency/numeric_2stage",
    "a9_native_vs_batch/batch_tier",
    "a10_native_amortized/persistent_deep_120000",
];

/// Regression tolerance for gated benches: fail when `current` is more
/// than 25% slower than the committed baseline.
const GATE_RATIO: f64 = 1.25;

fn bench_medians(path: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse_file(path)?;
    let benches = match doc.as_object().and_then(|o| o.get("benches")) {
        Some(Value::Array(benches)) => benches,
        _ => return Err(format!("{path}: no benches array")),
    };
    let mut medians = Vec::with_capacity(benches.len());
    for bench in benches {
        let entry = bench
            .as_object()
            .ok_or_else(|| format!("{path}: bench entry is not an object"))?;
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: bench entry missing name"))?;
        let median = match entry.get("median_ns") {
            Some(Value::Number(ns)) => ns.as_f64(),
            _ => return Err(format!("{path}: bench {name:?} missing median_ns")),
        };
        medians.push((name.to_string(), median));
    }
    Ok(medians)
}

/// Compare a fresh bench run against the committed baseline. Prints a
/// markdown comparison table (also appended to `$GITHUB_STEP_SUMMARY`
/// when set) and fails if any gated bench is missing from either file
/// or regressed past [`GATE_RATIO`].
fn compare_bench_json(current_path: &str, baseline_path: &str) -> Result<(), String> {
    let current = bench_medians(current_path)?;
    let baseline = bench_medians(baseline_path)?;
    let mut table = String::from(
        "## Bench regression gate\n\n\
         | bench | baseline ns | current ns | ratio | gate |\n\
         |---|---:|---:|---:|---|\n",
    );
    let mut regressions = Vec::new();
    for gated in GATED_BENCHES {
        for (path, rows) in [(current_path, &current), (baseline_path, &baseline)] {
            if !rows.iter().any(|(name, _)| name == gated) {
                regressions.push(format!("{gated}: missing from {path}"));
            }
        }
    }
    for (name, base_ns) in &baseline {
        let Some((_, cur_ns)) = current.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let ratio = cur_ns / base_ns;
        let gated = GATED_BENCHES.contains(&name.as_str());
        let verdict = match (gated, ratio > GATE_RATIO) {
            (true, true) => "FAIL",
            (true, false) => "pass",
            (false, _) => "info",
        };
        if gated && ratio > GATE_RATIO {
            regressions.push(format!(
                "{name}: {cur_ns:.0}ns vs baseline {base_ns:.0}ns ({ratio:.2}x > {GATE_RATIO}x)"
            ));
        }
        table.push_str(&format!(
            "| {name} | {base_ns:.0} | {cur_ns:.0} | {ratio:.2}x | {verdict} |\n"
        ));
    }
    println!("{table}");
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        if !summary_path.is_empty() {
            use std::io::Write;
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&summary_path)
            {
                let _ = writeln!(file, "{table}");
            }
        }
    }
    if regressions.is_empty() {
        println!(
            "{current_path}: OK — no gated regression vs {baseline_path} ({} gated benches)",
            GATED_BENCHES.len()
        );
        Ok(())
    } else {
        Err(format!(
            "{current_path}: gated bench regression vs {baseline_path}: {}",
            regressions.join("; ")
        ))
    }
}

/// Telemetry-on may cost at most 3% over telemetry-off on the churn
/// workload — the always-on tier's self-audited overhead budget.
const OVERHEAD_GATE_RATIO: f64 = 1.03;

/// Assert the `a7_trace_overhead` pair in a fresh bench run is within
/// [`OVERHEAD_GATE_RATIO`].
fn check_overhead_gate(path: &str) -> Result<(), String> {
    let medians = bench_medians(path)?;
    let median_of = |name: &str| {
        medians
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
            .ok_or_else(|| format!("{path}: missing bench {name:?}"))
    };
    let off = median_of("a7_trace_overhead/telemetry_off")?;
    let on = median_of("a7_trace_overhead/telemetry_on")?;
    if off <= 0.0 {
        return Err(format!("{path}: telemetry_off median is not positive"));
    }
    let ratio = on / off;
    if ratio > OVERHEAD_GATE_RATIO {
        return Err(format!(
            "{path}: continuous telemetry overhead {on:.0}ns vs {off:.0}ns \
             ({ratio:.3}x > {OVERHEAD_GATE_RATIO}x budget)"
        ));
    }
    println!(
        "{path}: OK — telemetry overhead {ratio:.3}x (on {on:.0}ns / off {off:.0}ns, \
         budget {OVERHEAD_GATE_RATIO}x)"
    );
    Ok(())
}

/// One dependency-free HTTP/1.1 GET. Returns the response body after
/// verifying a 200 status line.
fn http_get(addr: &str, target: &str) -> Result<String, String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| format!("{addr}: {e}"))?;
    let request = format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("{addr}: write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{addr}: read: {e}"))?;
    let status = response.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{addr}{target}: status {status:?}, expected 200"));
    }
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(format!(
            "{addr}{target}: malformed response (no header end)"
        )),
    }
}

/// Check one scraped body against the `--expect` substrings and the
/// `--expect-positive` sample-line prefixes (line value must be > 0).
fn check_body(
    addr: &str,
    target: &str,
    outfile: &str,
    body: &str,
    expect: &[String],
    expect_positive: &[String],
) -> Result<(), String> {
    for needle in expect {
        if !body.contains(needle.as_str()) {
            return Err(format!(
                "{addr}{target}: body ({} bytes, saved to {outfile}) \
                 does not contain {needle:?}",
                body.len()
            ));
        }
    }
    for prefix in expect_positive {
        let value = body
            .lines()
            .find(|line| line.starts_with(prefix.as_str()))
            .and_then(|line| line.rsplit_once(' '))
            .and_then(|(_, v)| v.parse::<f64>().ok());
        match value {
            Some(v) if v > 0.0 => {}
            Some(v) => {
                return Err(format!(
                    "{addr}{target}: sample {prefix:?} is {v}, expected > 0 \
                     (saved to {outfile})"
                ));
            }
            None => {
                return Err(format!(
                    "{addr}{target}: no parseable sample line starts with {prefix:?} \
                     (saved to {outfile})"
                ));
            }
        }
    }
    Ok(())
}

/// `--scrape` mode: GET `<path>` from a live endpoint, write the body
/// to `<outfile>`, and assert every expectation. Retries cover both a
/// server that is still warming up (connection refused) and a metric
/// that has not gone live yet (unmet expectation), so CI can scrape a
/// freshly-launched example without a sleep.
fn scrape(
    addr: &str,
    target: &str,
    outfile: &str,
    retries: u32,
    expect: &[String],
    expect_positive: &[String],
) -> Result<(), String> {
    let mut last_err = String::new();
    for attempt in 0..=retries {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_secs(1));
        }
        match http_get(addr, target).and_then(|body| {
            std::fs::write(outfile, &body).map_err(|e| format!("{outfile}: {e}"))?;
            check_body(addr, target, outfile, &body, expect, expect_positive).map(|()| body)
        }) {
            Ok(body) => {
                println!(
                    "{addr}{target}: OK — {} bytes to {outfile} ({} expectation(s) met)",
                    body.len(),
                    expect.len() + expect_positive.len()
                );
                return Ok(());
            }
            Err(e) => last_err = e,
        }
    }
    Err(format!("after {} attempt(s): {last_err}", retries + 1))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: trace_check <chrome-trace.json> [report.json ...] \
             [--require-counter <name> ...] \
             | --bench-json <BENCH.json> [--baseline <BENCH.json>] \
             | --overhead-gate <BENCH.json> \
             | --scrape <host:port> <path> <outfile> [--retry N] [--expect <substr> ...] \
             [--expect-positive <line-prefix> ...]"
        );
        return ExitCode::FAILURE;
    }
    if args[0] == "--overhead-gate" {
        let Some(path) = args.get(1) else {
            eprintln!("trace_check FAILED: --overhead-gate requires a bench JSON path");
            return ExitCode::FAILURE;
        };
        return match check_overhead_gate(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("trace_check FAILED: {message}");
                ExitCode::FAILURE
            }
        };
    }
    if args[0] == "--scrape" {
        let (Some(addr), Some(target), Some(outfile)) = (args.get(1), args.get(2), args.get(3))
        else {
            eprintln!("trace_check FAILED: --scrape requires <host:port> <path> <outfile>");
            return ExitCode::FAILURE;
        };
        let mut retries = 0u32;
        let mut expect: Vec<String> = Vec::new();
        let mut expect_positive: Vec<String> = Vec::new();
        let mut rest = args[4..].iter();
        while let Some(arg) = rest.next() {
            match arg.as_str() {
                "--retry" => match rest.next().and_then(|v| v.parse().ok()) {
                    Some(n) => retries = n,
                    None => {
                        eprintln!("trace_check FAILED: --retry requires a count");
                        return ExitCode::FAILURE;
                    }
                },
                "--expect" => match rest.next() {
                    Some(needle) => expect.push(needle.clone()),
                    None => {
                        eprintln!("trace_check FAILED: --expect requires a substring");
                        return ExitCode::FAILURE;
                    }
                },
                "--expect-positive" => match rest.next() {
                    Some(prefix) => expect_positive.push(prefix.clone()),
                    None => {
                        eprintln!("trace_check FAILED: --expect-positive requires a line prefix");
                        return ExitCode::FAILURE;
                    }
                },
                other => {
                    eprintln!("trace_check FAILED: unknown --scrape argument {other:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return match scrape(addr, target, outfile, retries, &expect, &expect_positive) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("trace_check FAILED: {message}");
                ExitCode::FAILURE
            }
        };
    }
    if args[0] == "--bench-json" {
        let mut paths: Vec<&str> = Vec::new();
        let mut baseline: Option<&str> = None;
        let mut rest = args[1..].iter();
        while let Some(arg) = rest.next() {
            if arg == "--baseline" {
                match rest.next() {
                    Some(path) => baseline = Some(path),
                    None => {
                        eprintln!("trace_check FAILED: --baseline requires a path");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                paths.push(arg);
            }
        }
        for path in &paths {
            if let Err(message) = check_bench_json(path) {
                eprintln!("trace_check FAILED: {message}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(baseline) = baseline {
            if let Err(message) = check_bench_json(baseline) {
                eprintln!("trace_check FAILED: {message}");
                return ExitCode::FAILURE;
            }
            for path in &paths {
                if let Err(message) = compare_bench_json(path, baseline) {
                    eprintln!("trace_check FAILED: {message}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let mut paths: Vec<&str> = Vec::new();
    let mut require_positive: Vec<String> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--require-counter" {
            match rest.next() {
                Some(name) => require_positive.push(name.clone()),
                None => {
                    eprintln!("trace_check FAILED: --require-counter requires a name");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            paths.push(arg);
        }
    }
    for (i, path) in paths.iter().enumerate() {
        let result = if i == 0 {
            check_trace(path)
        } else {
            check_report(path, &require_positive)
        };
        if let Err(message) = result {
            eprintln!("trace_check FAILED: {message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
