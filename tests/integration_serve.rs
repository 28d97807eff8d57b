//! End-to-end acceptance of the continuous-telemetry tier: a live
//! `snap_trace::serve` endpoint must answer `/metrics` with windowed
//! shuffle percentiles while a MapReduce workload runs, `/profile` must
//! capture the pool mid-flight as folded stacks, and `/report.json`
//! counters must reconcile with an in-process `ExecutionReport` — all
//! WITHOUT span recording enabled, because the continuous tier is
//! always on.
//!
//! Everything lives in ONE test: the trace registry is process-global,
//! and a single test keeps counter reconciliation free of interference
//! from sibling tests on other threads (this binary has no others).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_parallel::{map_reduce, PARALLEL_SHUFFLE_THRESHOLD};

/// Plain blocking HTTP GET against the test server.
fn get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The value of the first Prometheus sample line starting with `prefix`.
fn prom_value(body: &str, prefix: &str) -> f64 {
    let line = body
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in /metrics:\n{body}"));
    line.rsplit_once(' ')
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("unparseable sample line: {line}"))
}

fn word_count_mapper() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ))
}

fn sum_reducer() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ))
}

/// One shuffle-threshold-crossing MapReduce iteration.
fn run_workload() {
    // High key cardinality so even the combined pair stream crosses the
    // parallel-shuffle threshold (4 chunks × 1400 keys ≥ 2048). Keys
    // alternate between numbers and words, so the column spans two of
    // `snap_cmp`'s regimes and stays on the boxed path's sort by rule.
    let keys: Vec<Value> = (0..3 * PARALLEL_SHUFFLE_THRESHOLD)
        .map(|i| match i % 2 {
            0 => Value::Number(((i / 2) % 700) as f64),
            _ => Value::text(format!("w{}", (i / 2) % 700)),
        })
        .collect();
    let groups = map_reduce(word_count_mapper(), sum_reducer(), keys, 4).expect("map_reduce runs");
    assert_eq!(groups.len(), 1400);
}

#[test]
fn live_endpoint_serves_windows_profile_and_reconcilable_report() {
    // Span recording stays OFF: windows, counters, and the profiler are
    // the always-on tier this test accepts.
    assert!(!snap_trace::enabled());

    // The plain word corpus takes the keyed-columnar rung, which never
    // reaches the parallel shuffle: that is why the workload below
    // mixes number and word keys.
    let chunks_before = snap_trace::well_known::PAR_COLUMNAR_CHUNKS.get();
    let parallel_before = snap_trace::well_known::SHUFFLE_PARALLEL_RUNS.get();
    let words: Vec<Value> = (0..3 * PARALLEL_SHUFFLE_THRESHOLD)
        .map(|i| Value::text(format!("w{}", i % 700)))
        .collect();
    let groups = map_reduce(word_count_mapper(), sum_reducer(), words, 4).expect("keyed run");
    assert_eq!(groups.len(), 700);
    assert!(snap_trace::well_known::PAR_COLUMNAR_CHUNKS.get() > chunks_before);
    assert_eq!(
        snap_trace::well_known::SHUFFLE_PARALLEL_RUNS.get(),
        parallel_before
    );
    let server = snap_trace::serve("127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // --- /profile concurrent with the workload ----------------------
    // The profiler samples every registered thread's span stack; the
    // GET blocks for its sampling window, so it runs on a helper thread
    // while this thread keeps the pool and the shuffle busy.
    let profiler = std::thread::spawn(move || get(addr, "/profile?seconds=1&hz=199"));
    let busy_until = Instant::now() + Duration::from_millis(1600);
    let mut iterations = 0u32;
    while Instant::now() < busy_until {
        run_workload();
        iterations += 1;
    }
    assert!(iterations > 0);
    let (status, folded) = profiler.join().expect("profile thread");
    assert_eq!(status, 200);
    assert!(!folded.is_empty(), "folded profile is empty");
    for line in folded.lines() {
        let (_stack, count) = line.rsplit_once(' ').expect("folded `stack count` shape");
        assert!(count.parse::<u64>().is_ok(), "bad sample count: {line}");
    }
    assert!(
        folded.contains("snap-worker"),
        "pool workers missing from the profile:\n{folded}"
    );
    assert!(
        folded.contains("exec.chunk") || folded.contains("shuffle."),
        "no pool/shuffle leaves captured mid-workload:\n{folded}"
    );

    // --- /metrics has live windowed percentiles ---------------------
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let merge_p99 = prom_value(
        &metrics,
        "snap_shuffle_merge_ns_window{quantile=\"0.99\",window=\"60s\"}",
    );
    assert!(
        merge_p99 > 0.0,
        "windowed shuffle-merge p99 must be live after {iterations} shuffles"
    );
    let window_count = prom_value(&metrics, "snap_shuffle_merge_ns_window_count");
    assert!(window_count >= iterations as f64);
    // Cumulative summary and per-worker utilization ride along.
    assert!(metrics.contains("snap_shuffle_merge_ns{quantile=\"0.99\"}"));
    assert!(metrics.contains("snap_pool_worker_jobs{worker=\"0\"}"));
    let scraped_jobs = prom_value(&metrics, "snap_pool_jobs_executed ");

    // --- /report.json reconciles with the in-process report ---------
    let (status, report_json) = get(addr, "/report.json");
    assert_eq!(status, 200);
    let doc = serde::json::parse(&report_json).expect("report JSON parses");
    let counters = doc
        .as_object()
        .and_then(|o| o.get("counters"))
        .and_then(|c| c.as_object())
        .expect("counters object");
    let counter = |name: &str| -> f64 {
        match counters.get(name) {
            Some(serde_json::Value::Number(n)) => n.as_f64(),
            other => panic!("counter {name:?} missing or non-numeric: {other:?}"),
        }
    };
    // The continuous tier's self-audit counters are all live.
    assert!(counter("pool.jobs_executed") > 0.0);
    assert!(counter("shuffle.parallel_runs") >= iterations as f64);
    assert!(counter("trace.metrics_scrapes") >= 1.0);
    assert!(counter("trace.profile_samples") > 0.0);
    assert!(counter("trace.overhead_ns") > 0.0);
    assert_eq!(counter("trace.spans_dropped"), 0.0);
    // Monotonic reconciliation: the scrape happened before this final
    // in-process snapshot, so every scraped value is a lower bound.
    let report = snap_trace::report();
    assert!(scraped_jobs <= report.counter("pool.jobs_executed") as f64);
    assert!(counter("pool.jobs_executed") <= report.counter("pool.jobs_executed") as f64);
    let scraped_per_worker: f64 = (0..64)
        .map_while(|id| {
            let prefix = format!("snap_pool_worker_jobs{{worker=\"{id}\"}}");
            metrics
                .lines()
                .find(|l| l.starts_with(&prefix))
                .and_then(|l| l.rsplit_once(' '))
                .and_then(|(_, v)| v.parse::<f64>().ok())
        })
        .sum();
    let final_per_worker: u64 = report.executed_per_worker.iter().sum();
    assert!(
        scraped_per_worker > 0.0 && scraped_per_worker <= final_per_worker as f64,
        "scraped per-worker jobs {scraped_per_worker} must bound-check against {final_per_worker}"
    );

    server.shutdown();
}
