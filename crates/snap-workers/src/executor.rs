//! The pooled execution engine behind every parallel primitive.
//!
//! The paper's Parallel.js model spawns fresh Web Workers per call; here
//! a process-wide [`WorkerPool`] is created lazily on first use and every
//! later `parallel map` reuses its threads.
//!
//! Both maps, [`map_slice_with`] and [`try_map_slice_with`], run one
//! chunk loop. Its tasks claim blocks of [`chunk_size`] indices with one
//! atomic `fetch_add` each ("the workers systematically process the
//! remaining elements from the list until completed", paper §3.2), and
//! each claimed block writes its results into its own `&mut` slice of
//! the output, so no two tasks can reach the same slot and no lock is
//! shared between tasks.
//!
//! The pool itself schedules by work-stealing (see [`crate::pool`]): a
//! call from a worker of the global pool pushes its task jobs onto that
//! worker's own deque and *helps* run them while waiting, so nested
//! `parallelMap`s parallelize instead of falling back to a serial
//! inline loop.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use snap_trace::well_known as metrics;

use crate::fault::{injector, panic_message, ExecError, FaultPolicy};
use crate::parallel::default_workers;
use crate::pool::{on_pool_thread, Job, WaitGroup, WorkerPool, MAX_POOL_WORKERS};

/// The last parameter of `snap_parallel::combine_pairs`, which ignores
/// it: every parallel call runs on the shared pool, so this one value
/// selects nothing. It stays only because perfbench's traced replay
/// passes `ExecMode::Pooled` to `combine_pairs`; once that call drops
/// the argument, the type goes too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run on the shared, lazily created process-wide pool.
    Pooled,
}

static GLOBAL_POOL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide pool, created on first use with
/// [`default_workers`] threads.
pub fn global_pool() -> &'static WorkerPool {
    GLOBAL_POOL.get_or_init(|| {
        let pool = WorkerPool::new(default_workers());
        // Let `snap_trace::report()` show the shared pool's per-worker
        // utilization without reaching into this crate.
        snap_trace::register_global_workers(pool.executed_counters());
        pool
    })
}

/// Block size of the chunk loop: ~2 blocks per worker, never zero.
///
/// Two blocks per worker (down from the original four) still gives
/// dynamic claiming one round of rebalancing slack while halving the
/// per-block claim overhead; with four, the `a1_strategy_skewed` bench
/// measured dynamic claiming slower than one fixed block per worker on
/// uniform numeric work.
pub fn chunk_size(len: usize, workers: usize) -> usize {
    (len / (workers.max(1) * 2)).max(1)
}

/// Minimum elements per columnar chunk. Claiming a chunk costs one
/// atomic fetch-add plus a pool hand-off; `eval_batch` needs at least a
/// few hundred elements per chunk for that overhead to vanish.
pub const COLUMNAR_MIN_CHUNK: usize = 256;

/// Chunk size for columnar (flat `f64`) maps: ~2 chunks per worker like
/// [`chunk_size`], but floored at [`COLUMNAR_MIN_CHUNK`] elements —
/// numeric batch work is so cheap per element that finer chunks are all
/// scheduling overhead. The floor applies only to the columnar tier;
/// latency-bound boxed maps keep the fine-grained sizing above.
pub fn columnar_chunk_size(len: usize, workers: usize) -> usize {
    chunk_size(len, workers).max(COLUMNAR_MIN_CHUNK)
}

/// Run `body(0..tasks)` concurrently on the global pool and return once
/// all calls finish.
///
/// `body` may borrow from the caller's stack: its lifetime is erased for
/// submission, which is sound because this function never returns before
/// every submitted job has completed (completion tokens are dropped even
/// when a job panics). A panic in any `body` call is re-raised on the
/// caller's thread after all tasks finish, matching scoped-thread join
/// semantics.
fn run_tasks(tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    if tasks == 0 {
        return;
    }
    if tasks == 1 {
        body(0);
        return;
    }
    let pool = global_pool();
    if on_pool_thread() && !pool.on_worker_thread() {
        // Re-entrant parallel call from a worker of some *other* pool: we
        // cannot help-drain a foreign pool's queues, so run inline rather
        // than block one pool on another.
        metrics::EXEC_REENTRANT_INLINE.incr();
        for w in 0..tasks {
            body(w);
        }
        return;
    }
    // From a worker of the global pool itself, submissions land on this
    // worker's own deque and the wait below helps run them
    // (work-stealing), so nested calls parallelize instead of inlining
    // serially.
    metrics::EXEC_POOLED_CALLS.incr();
    let _span = snap_trace::span!("exec.pooled", tasks);
    // Honour explicit oversubscription (latency-bound maps ask for more
    // workers than cores); growth is permanent, so the steady state still
    // spawns nothing.
    pool.ensure_workers(tasks);
    run_scoped_on_pool(pool, tasks, body);
}

/// Count and trace a panic caught at the scoped-executor level. These
/// jobs catch before the pool's own `run_job` guard can see the unwind,
/// so the accounting lives here; the panic is re-raised to the caller
/// after the wait, which makes it final (no retry budget on this path).
fn record_task_panic(w: usize, payload: &(dyn std::any::Any + Send)) {
    metrics::POOL_JOBS_PANICKED.incr();
    metrics::FAULT_FAILURES_FINAL.incr();
    snap_trace::note(
        "exec.task_panic",
        format!("task {w}: {}", crate::fault::panic_message(payload)),
    );
}

fn run_scoped_on_pool(pool: &WorkerPool, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    // SAFETY: the 'static lifetime is a lie told only to the job queues.
    // Every submitted job holds a WaitGroup token dropped when the job
    // finishes (including by panic, via catch_unwind), and we block on
    // the wait group before returning — `wait_helping` only returns
    // between jobs, once the group is done, and every inline run below
    // is wrapped in `catch_unwind` so no panic can unwind past the wait
    // — so no job can observe `body` after this frame is gone. That
    // covers everything `body` borrows, including the chunk loop's
    // output slices: they are `&mut` borrows of the caller's result
    // buffer, which `map_chunks` reads (or drops) only after `run_tasks`
    // has returned, so no job writes a slot after its buffer is gone.
    // The columnar map's in-place slices (`ring_fn::columnar_map`) are
    // items the chunk loop borrows, and their buffer is read only after
    // the whole call has returned.
    let body_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
    let wg = WaitGroup::new();
    let panicked = Arc::new(AtomicBool::new(false));
    let run_inline = |w: usize| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body_static(w))) {
            record_task_panic(w, payload.as_ref());
            panicked.store(true, Ordering::SeqCst);
        }
    };
    // The caller participates: tasks 1.. go to the pool in one batch
    // (one queue lock, one wake-up for the whole scatter) while task 0
    // runs right here — the thread that would otherwise sit in
    // `wait_helping` claims chunks alongside the workers.
    let batch: Vec<Job> = (1..tasks)
        .zip(wg.tokens(tasks - 1))
        .map(|(w, token)| {
            let panicked = panicked.clone();
            Box::new(move || {
                let _token = token;
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body_static(w))) {
                    record_task_panic(w, payload.as_ref());
                    panicked.store(true, Ordering::SeqCst);
                }
            }) as Job
        })
        .collect();
    let refused = pool.execute_batch(batch).is_err();
    run_inline(0);
    if refused {
        // The whole batch (and its tokens) was dropped by the refused
        // submission (shutdown race); run every index inline.
        for w in 1..tasks {
            metrics::POOL_JOBS_INLINE.incr();
            run_inline(w);
        }
    }
    pool.wait_helping(&wg);
    if panicked.load(Ordering::SeqCst) {
        resume_unwind(Box::new("a pooled parallel task panicked"));
    }
}

/// `out` cut into consecutive `&mut` slices of `chunk` items (the last
/// may be shorter), each behind a lock that hands it to the one task that
/// claims it: how a chunk of a parallel call writes its results in place.
pub(crate) fn chunk_slices<R>(out: &mut [R], chunk: usize) -> Vec<Mutex<&mut [R]>> {
    out.chunks_mut(chunk.max(1)).map(Mutex::new).collect()
}

/// The one chunk loop behind [`map_slice_with`] and
/// [`try_map_slice_with`]: on up to `workers` pool tasks (never more than
/// [`MAX_POOL_WORKERS`], the most threads the pool ever has), sets each
/// item's result slot to `fill(index, item)` and returns the slots in
/// input order.
///
/// A task claims its next chunk with one `fetch_add` on the chunk index
/// and then locks that chunk's output slice. Only the claiming task ever
/// locks it, so the lock is never contended and never shared between
/// tasks; it is what hands the task a safe `&mut` slice. `stop` is asked
/// after each claim: when it says so, the task ends and leaves the
/// claimed chunk's slots empty (`try_map_slice_with`'s deadline).
fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    span: &'static str,
    stop: impl Fn() -> bool + Sync,
    fill: impl Fn(usize, &T) -> Option<R> + Sync,
) -> Vec<Option<R>> {
    let len = items.len();
    let tasks = workers.clamp(1, MAX_POOL_WORKERS).min(len);
    let chunk = chunk_size(len, tasks);
    // The innermost span open on the *calling* thread (a `ring_map`, a
    // shuffle stage, …): chunk spans executed on pool workers link back
    // to it, so the scatter is causally stitched in the Chrome trace.
    let origin = snap_trace::current_span_id();
    let mut out: Vec<Option<R>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    let slices = chunk_slices(&mut out, chunk);
    let next = AtomicUsize::new(0);
    let task = |_: usize| loop {
        let claimed = next.fetch_add(1, Ordering::Relaxed);
        let Some(slice) = slices.get(claimed) else {
            break;
        };
        if stop() {
            break;
        }
        metrics::EXEC_CHUNKS_CLAIMED.incr();
        let start = claimed * chunk;
        let _span = snap_trace::span_linked_with("exec.chunk", "start", start as u64, origin);
        let mut slots = slice
            .lock()
            .expect("a chunk's slice is locked only by the one task that claimed it");
        for (i, (slot, item)) in slots.iter_mut().zip(&items[start..]).enumerate() {
            *slot = fill(start + i, item);
        }
    };
    let map_span = snap_trace::span!(span, len);
    run_tasks(tasks, &task);
    drop(map_span);
    drop(slices);
    out
}

/// Parallel map over a borrowed slice on the shared pool. Results come
/// back in input order; a panic in `f` reaches the caller once every
/// task has finished.
pub fn map_slice_with<T: Send + Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Send + Sync,
) -> Vec<R> {
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    map_chunks(
        items,
        workers,
        "exec.map_slice",
        || false,
        |_, item| Some(f(item)),
    )
    .into_iter()
    .map(|slot| slot.expect("every index processed exactly once"))
    .collect()
}

/// Fault-aware parallel map: like [`map_slice_with`], but each item runs
/// under `policy` — a panicked item is re-attempted up to
/// `policy.retries` times with exponential backoff, and the whole call
/// observes the policy deadline cooperatively (workers stop *claiming*
/// work once it passes; in-flight items always finish, because pooled
/// jobs borrow the caller's stack and can never be abandoned).
///
/// When the active [`FaultInjector`](crate::fault::FaultInjector) (see
/// [`crate::fault::install_injector`]) is configured, every attempt may
/// be injected with a delay or a panic, deterministically per
/// `(item index, attempt)`.
///
/// Items that exhaust their retry budget are salvaged by one final
/// sequential, injector-free pass on the caller's thread (counted under
/// `fault.items_reassigned`) — but only when the policy actually asked
/// for retries. With `retries == 0` the call reports
/// [`ExecError::RetriesExhausted`] on the first panic, which is the
/// seed's propagate-the-panic behaviour in `Result` form.
pub fn try_map_slice_with<T: Send + Sync, R: Send>(
    items: &[T],
    workers: usize,
    policy: &FaultPolicy,
    f: impl Fn(&T) -> R + Send + Sync,
) -> Result<Vec<R>, ExecError> {
    let len = items.len();
    if len == 0 {
        return Ok(Vec::new());
    }
    let started = Instant::now();
    let injector = injector();
    let expired = || matches!(policy.deadline, Some(d) if started.elapsed() >= d);
    // Causal anchor for retry and salvage spans (as for the chunk spans,
    // see `map_chunks`): the innermost span open on the calling thread.
    let origin = snap_trace::current_span_id();
    let failed: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let deadline_hit = AtomicBool::new(false);

    // The per-item attempt loop, shared by the sequential and parallel
    // paths. Returns the value on success; on budget exhaustion records
    // the failure (counter + note + failed list) and returns None.
    let attempt_item = |index: usize, item: &T| -> Option<R> {
        let mut attempt = 0u32;
        loop {
            let result = catch_unwind(AssertUnwindSafe(|| {
                if let Some(inj) = injector {
                    inj.inject(index as u64, attempt);
                }
                f(item)
            }));
            match result {
                Ok(value) => return Some(value),
                Err(payload) => {
                    metrics::POOL_JOBS_PANICKED.incr();
                    let message = panic_message(payload.as_ref());
                    if attempt < policy.retries {
                        metrics::FAULT_RETRIES_SCHEDULED.incr();
                        // The retry span covers the backoff wait and links
                        // back to the originating parallel call, so the
                        // fault ladder's second rung is visible (and
                        // attributable) in the Chrome trace.
                        let _retry = snap_trace::span_linked_with(
                            "fault.retry",
                            "item",
                            index as u64,
                            origin,
                        );
                        std::thread::sleep(policy.backoff_for(attempt));
                        attempt += 1;
                    } else {
                        metrics::FAULT_FAILURES_FINAL.incr();
                        snap_trace::note(
                            "exec.item_failed",
                            format!("item {index} failed after {attempt} retr(ies): {message}"),
                        );
                        failed
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push((index, message));
                        return None;
                    }
                }
            }
        }
    };

    let mut out = if workers <= 1 || len <= 1 {
        let mut out: Vec<Option<R>> = Vec::with_capacity(len);
        out.resize_with(len, || None);
        for (index, item) in items.iter().enumerate() {
            if expired() {
                deadline_hit.store(true, Ordering::SeqCst);
                break;
            }
            out[index] = attempt_item(index, item);
        }
        out
    } else {
        // The deadline is checked after each claim: a skipped claimed
        // chunk guarantees unfilled slots, so a deadline error is never
        // reported for a run that actually completed everything.
        let stop = || {
            let hit = expired();
            if hit {
                deadline_hit.store(true, Ordering::SeqCst);
            }
            hit
        };
        map_chunks(items, workers, "exec.try_map_slice", stop, attempt_item)
    };

    if deadline_hit.load(Ordering::SeqCst) {
        let completed = out.iter().filter(|slot| slot.is_some()).count();
        metrics::FAULT_DEADLINES_EXCEEDED.incr();
        snap_trace::note(
            "exec.deadline_exceeded",
            format!("{completed}/{len} items completed before the deadline"),
        );
        return Err(ExecError::DeadlineExceeded {
            completed,
            total: len,
        });
    }

    let failed = failed.into_inner().unwrap_or_else(PoisonError::into_inner);
    if !failed.is_empty() {
        let last_message = failed.last().map(|(_, m)| m.clone()).unwrap_or_default();
        if policy.retries == 0 {
            return Err(ExecError::RetriesExhausted {
                failed_items: failed.len(),
                last_message,
            });
        }
        // Salvage pass: the retry budget was spent under injection, so
        // give the failed items one clean sequential run on the caller's
        // thread. A panic here is genuine (no injector) and final.
        metrics::FAULT_ITEMS_REASSIGNED.add(failed.len() as u64);
        let _salvage =
            snap_trace::span_linked_with("fault.salvage", "items", failed.len() as u64, origin);
        snap_trace::note(
            "exec.salvage",
            format!("re-running {} failed item(s) sequentially", failed.len()),
        );
        for (index, _) in &failed {
            match catch_unwind(AssertUnwindSafe(|| f(&items[*index]))) {
                Ok(value) => out[*index] = Some(value),
                Err(payload) => {
                    metrics::POOL_JOBS_PANICKED.incr();
                    metrics::FAULT_FAILURES_FINAL.incr();
                    let message = panic_message(payload.as_ref());
                    snap_trace::note(
                        "exec.salvage_failed",
                        format!("item {index} failed without injection: {message}"),
                    );
                    return Err(ExecError::RetriesExhausted {
                        failed_items: failed.len(),
                        last_message: message,
                    });
                }
            }
        }
    }

    Ok(out
        .into_iter()
        .map(|slot| slot.expect("every index processed exactly once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_leaves_two_blocks_per_worker() {
        assert_eq!(chunk_size(1000, 5), 100);
        assert_eq!(chunk_size(3, 8), 1);
        assert_eq!(chunk_size(0, 4), 1);
    }

    #[test]
    fn columnar_chunk_size_is_floored() {
        // Small inputs: one chunk swallows everything up to the floor.
        assert_eq!(columnar_chunk_size(1000, 4), COLUMNAR_MIN_CHUNK);
        // Large inputs: ~2 chunks per worker, same as chunk_size.
        assert_eq!(columnar_chunk_size(1_000_000, 4), 125_000);
    }

    #[test]
    fn pooled_map_matches_sequential_map() {
        let items: Vec<i64> = (0..503).collect();
        let pooled = map_slice_with(&items, 4, |&n| n * 7);
        assert_eq!(pooled, items.iter().map(|n| n * 7).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_map_borrows_stack_data() {
        let base = [10i64, 20, 30];
        let items: Vec<usize> = (0..base.len()).collect();
        let out = map_slice_with(&items, 2, |&i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn reentrant_pooled_map_does_not_deadlock() {
        let outer: Vec<i64> = (0..8).collect();
        let out = map_slice_with(&outer, 4, |&n| {
            let inner: Vec<i64> = (0..50).collect();
            map_slice_with(&inner, 4, |&m| m + n)
                .into_iter()
                .sum::<i64>()
        });
        let expected: Vec<i64> = (0..8).map(|n| (0..50).map(|m| m + n).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn panic_in_pooled_task_propagates_and_pool_survives() {
        let items: Vec<i64> = (0..64).collect();
        let result = catch_unwind(|| {
            map_slice_with(&items, 4, |&n| {
                if n == 13 {
                    panic!("boom");
                }
                n
            })
        });
        assert!(result.is_err(), "panic must reach the caller");
        // The pool is still healthy afterwards.
        let ok = map_slice_with(&items, 4, |&n| n + 1);
        assert_eq!(ok, items.iter().map(|n| n + 1).collect::<Vec<_>>());
    }

    /// Heap-owning results: a slot written twice, leaked, or written
    /// after its buffer is freed shows under AddressSanitizer here,
    /// where integer results would hide it. The panicking call leaves
    /// some slots filled and some empty when its buffer is dropped.
    #[test]
    fn string_results_survive_a_panicking_call() {
        let items: Vec<usize> = (0..1000).collect();
        let result = catch_unwind(|| {
            map_slice_with(&items, 4, |&i| {
                if i == 613 {
                    panic!("boom-613");
                }
                format!("item-{i}")
            })
        });
        assert!(result.is_err(), "panic must reach the caller");
        let out = map_slice_with(&items, 4, |&i| format!("item-{i}"));
        let expected: Vec<String> = items.iter().map(|i| format!("item-{i}")).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn string_results_survive_a_retried_item() {
        use std::sync::atomic::AtomicU32;
        let attempts = AtomicU32::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let policy = FaultPolicy::with_retries(1).backoff(std::time::Duration::ZERO);
        let out = try_map_slice_with(&items, 4, &policy, |&i| {
            if i == 389 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt of item 389");
            }
            format!("item-{i}")
        })
        .unwrap();
        let expected: Vec<String> = items.iter().map(|i| format!("item-{i}")).collect();
        assert_eq!(out, expected);
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "one retry, no salvage");
    }

    #[test]
    fn try_map_with_zero_retries_matches_plain_map() {
        let items: Vec<i64> = (0..503).collect();
        let policy = FaultPolicy::default();
        let out = try_map_slice_with(&items, 4, &policy, |&n| n * 7).unwrap();
        assert_eq!(out, map_slice_with(&items, 4, |&n| n * 7));
    }

    #[test]
    fn retries_recover_flaky_items_in_order() {
        use std::sync::atomic::AtomicU32;
        let attempts: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        let policy = FaultPolicy::with_retries(2).backoff(std::time::Duration::ZERO);
        let out = try_map_slice_with(&items, 4, &policy, |&i| {
            let n = attempts[i].fetch_add(1, Ordering::SeqCst);
            if i % 7 == 0 && n == 0 {
                panic!("flaky item");
            }
            i * 3
        })
        .unwrap();
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_retry_failure_reports_retries_exhausted() {
        let items: Vec<i64> = (0..64).collect();
        let policy = FaultPolicy::default();
        let err = try_map_slice_with(&items, 4, &policy, |&n| {
            if n == 13 {
                panic!("boom-13");
            }
            n
        })
        .unwrap_err();
        match err {
            ExecError::RetriesExhausted {
                failed_items,
                last_message,
            } => {
                assert_eq!(failed_items, 1);
                assert!(last_message.contains("boom-13"), "got: {last_message}");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn deadline_exceeded_is_reported_not_hung() {
        let items: Vec<u64> = (0..64).collect();
        let policy = FaultPolicy::default().deadline(std::time::Duration::from_millis(5));
        let err = try_map_slice_with(&items, 2, &policy, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
        .unwrap_err();
        match err {
            ExecError::DeadlineExceeded { completed, total } => {
                assert_eq!(total, 64);
                assert!(completed < total, "some work must have been skipped");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn exhausted_items_are_salvaged_sequentially_in_order() {
        use std::sync::atomic::AtomicU32;
        let attempts: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..50).collect();
        let policy = FaultPolicy::with_retries(1).backoff(std::time::Duration::ZERO);
        // Items 3, 13, 23, 33, 43 fail on both in-worker attempts (the
        // whole retry budget) and only succeed on the third call — which
        // can only be the sequential salvage pass.
        let out = try_map_slice_with(&items, 4, &policy, |&i| {
            let n = attempts[i].fetch_add(1, Ordering::SeqCst);
            if i % 10 == 3 && n < 2 {
                panic!("needs salvage");
            }
            i + 1000
        })
        .unwrap();
        assert_eq!(out, (0..50).map(|i| i + 1000).collect::<Vec<_>>());
    }

    #[test]
    fn global_pool_is_created_once() {
        let first = global_pool() as *const WorkerPool;
        let _ = map_slice_with(&(0..100).collect::<Vec<i64>>(), 4, |&n| n);
        let second = global_pool() as *const WorkerPool;
        assert_eq!(first, second);
    }
}
