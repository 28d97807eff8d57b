//! End-to-end acceptance of the snap-trace subsystem: a traced
//! `ring_map` over 10k elements must emit a well-formed Chrome
//! `trace_event` JSON containing pool, chunk, and shuffle spans, and
//! the registry counters must reconcile with the pool's own
//! `executed_per_worker` totals.
//!
//! Everything lives in ONE test: the trace registry is process-global,
//! and a single test keeps counter reconciliation free of interference
//! from sibling tests on other threads (this binary has no others).

use std::sync::Arc;

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_core::trace;
use snap_parallel::{map_reduce, parallel_map, PARALLEL_SHUFFLE_THRESHOLD};
use snap_trace::well_known as metrics;
use snap_workers::global_pool;

#[test]
fn traced_run_emits_reconcilable_trace_and_report() {
    trace::set_enabled(true);

    // --- a 10k-element parallel ring map ----------------------------
    let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
    let items: Vec<Value> = (0..10_000).map(|n| Value::Number(n as f64)).collect();
    let out = parallel_map(ring, items, 4).expect("traced map runs");
    assert_eq!(out.len(), 10_000);
    assert_eq!(out[7], Value::Number(70.0));

    // --- a map_reduce big enough to cross the shuffle threshold -----
    // The associative `+` reducer triggers map-side combining, so the
    // key cardinality must be high enough that even the combined pair
    // stream (≤ workers × keys) still crosses the parallel-shuffle
    // threshold. The keys alternate between numbers and words: a key
    // column in two of `snap_cmp`'s regimes stays on the boxed path's
    // combine and sort by rule, where 4 chunks × 1400 keys ≥ 2048.
    let mapper = Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ));
    let reducer = Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ));
    let keys: Vec<Value> = (0..3 * PARALLEL_SHUFFLE_THRESHOLD)
        .map(|i| match i % 2 {
            0 => Value::Number(((i / 2) % 700) as f64),
            _ => Value::text(format!("w{}", (i / 2) % 700)),
        })
        .collect();
    let groups =
        map_reduce(mapper.clone(), reducer.clone(), keys, 4).expect("traced map_reduce runs");
    assert_eq!(groups.len(), 1400);

    // The plain word corpus takes the keyed-columnar rung instead: its
    // chunks run, and nothing reaches the parallel shuffle.
    let chunks_before = metrics::PAR_COLUMNAR_CHUNKS.get();
    let parallel_before = metrics::SHUFFLE_PARALLEL_RUNS.get();
    let words: Vec<Value> = (0..3 * PARALLEL_SHUFFLE_THRESHOLD)
        .map(|i| Value::text(format!("w{}", i % 700)))
        .collect();
    let groups = map_reduce(mapper, reducer, words, 4).expect("keyed map_reduce runs");
    assert_eq!(groups.len(), 700);
    assert!(metrics::PAR_COLUMNAR_CHUNKS.get() > chunks_before);
    assert_eq!(metrics::SHUFFLE_PARALLEL_RUNS.get(), parallel_before);

    trace::set_enabled(false);

    // --- the Chrome trace is well-formed and has the right spans ----
    let spans = trace::collect_spans();
    let json = trace::chrome_trace_json(&spans);
    let doc = serde::json::parse(&json).expect("chrome trace JSON parses");
    let events = match doc.as_object().and_then(|o| o.get("traceEvents")) {
        Some(serde_json::Value::Array(events)) => events,
        other => panic!("no traceEvents array: {other:?}"),
    };
    assert_eq!(events.len(), spans.len());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.as_object()?.get("name")?.as_str())
        .collect();
    for required in [
        "exec.pooled",    // pool-level task span
        "exec.chunk",     // dynamic chunk claims
        "exec.map_slice", // the gather
        "ring_map",
        "shuffle.combine", // map-side combiner on the associative reducer
        "shuffle.parallel",
        "shuffle.partition",
        "shuffle.sort",
        "shuffle.merge",
    ] {
        assert!(
            names.contains(&required),
            "trace missing span {required:?}; have: {names:?}"
        );
    }
    for event in events {
        let object = event.as_object().expect("event object");
        for field in ["name", "ph", "ts", "dur", "pid", "tid"] {
            assert!(object.get(field).is_some(), "event missing {field}");
        }
        assert_eq!(object.get("ph").and_then(|v| v.as_str()), Some("X"));
    }

    // --- counters reconcile with the pool's own accounting ----------
    let report = trace::report();
    let per_worker = global_pool().executed_per_worker();
    let total: u64 = per_worker.iter().sum();
    assert_eq!(
        report.pool_jobs_executed_total(),
        total,
        "report per-worker view must be the global pool's counters"
    );
    assert_eq!(
        report.counter("pool.jobs_executed"),
        total,
        "executed counter must reconcile with executed_per_worker"
    );
    assert_eq!(
        report.counter("pool.jobs_submitted"),
        total,
        "every submitted job was executed once the run is quiescent"
    );
    assert!(report.counter("exec.chunks_claimed") > 0);
    assert!(report.counter("ring_map.items") >= 10_000);
    assert!(report.counter("shuffle.parallel_runs") >= 1);
    assert!(report.counter("compile_cache.misses") >= 1);

    // --- ring tier + combiner counters -----------------------------
    // The ×10 map ring is numeric over an all-Number list → the run must
    // take the columnar batch tier: every one of its 10k elements flows
    // through eval_batch chunks, with no per-element dispatch. The
    // word-count mapper's make_list body runs on the tree walk over the
    // mixed keys; the associative reducer engages the combiner.
    assert!(report.counter("ring.bytecode_compiles") >= 2);
    assert!(report.counter("ring.batch_elems") >= 10_000);
    assert!(report.counter("ring.batch_calls") >= 1);
    assert!(report.counter("par.columnar_chunks") >= 1);
    assert!(report.counter("ring.treewalk_calls") >= 1);
    assert!(report.counter("shuffle.combine_runs") >= 1);
    assert!(
        report.counter("shuffle.pairs_combined") > 0,
        "combiner must have eliminated pairs before the shuffle"
    );

    // --- both report renderings carry the reconciled numbers --------
    let table = report.to_table();
    assert!(table.contains("pool.jobs_executed"));
    assert!(table.contains("spans"));
    let report_json = report.to_json();
    let parsed = serde::json::parse(&report_json).expect("report JSON parses");
    let counters = parsed
        .as_object()
        .and_then(|o| o.get("counters"))
        .and_then(|v| v.as_object())
        .expect("counters object");
    assert!(counters.get("pool.jobs_executed").is_some());

    // --- JSONL export: one parseable object per span ----------------
    let jsonl = trace::spans_jsonl(&spans);
    assert_eq!(jsonl.lines().count(), spans.len());
    for line in jsonl.lines().take(50) {
        serde::json::parse(line).expect("JSONL line parses");
    }

    // Nothing was silently dropped in a run this small.
    assert_eq!(report.dropped_spans, 0);
    let _ = metrics::POOL_QUEUE_DEPTH.get(); // gauge readable
}
