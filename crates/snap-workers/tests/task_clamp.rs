//! A call never queues more tasks than the pool can have threads: a
//! block program that asks for a worker per item (say `parallelMap` over
//! 10,000 numbers with 10,000 workers) runs on at most
//! `MAX_POOL_WORKERS` tasks, the caller's own task plus one queued job
//! per other worker.
//!
//! The counter is process-wide, so this file holds one test.

use snap_trace::well_known::POOL_JOBS_SUBMITTED;
use snap_workers::map_slice_with;
use snap_workers::pool::MAX_POOL_WORKERS;

#[test]
fn a_worker_per_item_queues_at_most_max_pool_workers_jobs() {
    let items: Vec<u64> = (0..10_000).collect();
    let before = POOL_JOBS_SUBMITTED.get();
    let out = map_slice_with(&items, items.len(), |&n| n * 3 + 1);
    let queued = POOL_JOBS_SUBMITTED.get() - before;
    assert_eq!(out, items.iter().map(|&n| n * 3 + 1).collect::<Vec<_>>());
    assert!(
        queued <= (MAX_POOL_WORKERS - 1) as u64,
        "{queued} jobs queued for one call"
    );
}
