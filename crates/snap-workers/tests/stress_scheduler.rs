//! Scheduler robustness under adversarial load: panicking jobs, nested
//! submissions from pool threads (which land on per-worker deques), and
//! `ensure_workers` growth while jobs are in flight. The assertions are
//! the scheduler's contract: no deadlock (the test returns), every
//! accepted job runs exactly once, and `pool.queue_depth` returns to
//! zero at quiescence.
//!
//! Everything lives in ONE test: the queue-depth gauge is
//! process-global, and a single test keeps it free of interference from
//! sibling tests on other threads (this binary has no others).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use snap_trace::well_known as metrics;
use snap_workers::{map_slice_with, WorkerPool};

#[test]
fn scheduler_survives_panics_nesting_and_growth() {
    // --- phase 1: a private pool under adversarial load -------------
    let pool = Arc::new(WorkerPool::new(2));
    let outer_ran = Arc::new(AtomicUsize::new(0));
    let nested_ran = Arc::new(AtomicUsize::new(0));
    let nested_accepted = Arc::new(AtomicUsize::new(0));

    // Grow the pool from a side thread while jobs are in flight.
    let grower = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            for target in [3, 5, 8] {
                std::thread::sleep(Duration::from_millis(2));
                pool.ensure_workers(target);
            }
        })
    };

    const OUTER: usize = 600;
    {
        let pool = pool.clone();
        let outer_ran = outer_ran.clone();
        let nested_ran = nested_ran.clone();
        let nested_accepted = nested_accepted.clone();
        pool.clone().scatter_gather(OUTER, move |i| {
            outer_ran.fetch_add(1, Ordering::SeqCst);
            if i % 7 == 3 {
                // Keep some jobs in flight long enough for the growth
                // thread to land mid-run.
                std::thread::sleep(Duration::from_micros(500));
            }
            if i % 5 == 0 {
                // Nested fire-and-forget submissions from a pool thread:
                // these land on the submitting worker's own deque and
                // are drained by the owner or stolen by siblings.
                for _ in 0..3 {
                    let nested_ran = nested_ran.clone();
                    if pool
                        .execute(move || {
                            nested_ran.fetch_add(1, Ordering::SeqCst);
                        })
                        .is_ok()
                    {
                        nested_accepted.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            if i % 97 == 13 {
                panic!("stress: job panic must stay contained to its worker");
            }
        });
    }
    grower.join().unwrap();
    assert_eq!(pool.workers(), 8, "mid-flight growth must have landed");
    assert_eq!(
        outer_ran.load(Ordering::SeqCst),
        OUTER,
        "every outer job (panicking ones included) runs exactly once"
    );

    // Shutdown drains: every accepted nested job must run before the
    // workers exit, even the ones still queued when drop begins.
    drop(pool);
    assert_eq!(
        nested_ran.load(Ordering::SeqCst),
        nested_accepted.load(Ordering::SeqCst),
        "every accepted nested job runs exactly once across shutdown"
    );
    assert_eq!(
        metrics::POOL_QUEUE_DEPTH.get(),
        0,
        "queue depth returns to zero once the private pool is quiescent"
    );

    // --- phase 2: nested pooled maps on the global pool -------------
    // A pooled map from inside a pooled job submits to the worker's own
    // deque and helps (no serial inlining); results and counters must
    // still reconcile.
    let outer: Vec<u64> = (0..32).collect();
    let out = map_slice_with(&outer, 4, |&n| {
        let inner: Vec<u64> = (0..64).collect();
        map_slice_with(&inner, 4, |&m| m + n)
            .into_iter()
            .sum::<u64>()
    });
    let expected: Vec<u64> = (0..32u64)
        .map(|n| (0..64u64).map(|m| m + n).sum())
        .collect();
    assert_eq!(out, expected);
    assert_eq!(
        metrics::POOL_QUEUE_DEPTH.get(),
        0,
        "queue depth returns to zero once the global pool is quiescent"
    );

    // Submitted and executed reconcile at quiescence (no job was lost
    // or double-counted by the deques, the injector, or stealing), and
    // every dequeue is attributed to exactly one source.
    let submitted = metrics::POOL_JOBS_SUBMITTED.get();
    let executed = metrics::POOL_JOBS_EXECUTED.get();
    assert_eq!(submitted, executed, "accepted jobs all executed");
    let by_source = metrics::POOL_DEQUEUE_LOCAL.get()
        + metrics::POOL_DEQUEUE_INJECTOR.get()
        + metrics::POOL_JOBS_STOLEN.get();
    assert_eq!(
        by_source, executed,
        "each executed job was dequeued from exactly one source"
    );
}
