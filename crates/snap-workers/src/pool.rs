//! A persistent worker pool with a work-stealing scheduler.
//!
//! Parallel.js creates its Web Workers anew for every `Parallel` object
//! (paper Listing 1/2). That is faithful but wasteful; this pool is the
//! long-lived alternative every parallel call runs on (EXPERIMENTS.md
//! A1 and A5 record what spawning per call cost). Workers are OS
//! threads — the share-nothing, message-passing shape of HTML5 Web
//! Workers — but the job queue is no longer one mpsc channel behind a
//! mutex shared by every worker. Scheduling is work-stealing:
//!
//! * **Global injector** — external submissions land in one
//!   `Mutex<VecDeque>` pushed/popped at the ends, so the lock is held
//!   for O(1) and is uncontended unless two threads collide on the same
//!   instant (the old design serialized *every* dequeue of *every*
//!   worker on one receiver lock).
//! * **Per-worker deques** — each worker owns a deque. Jobs submitted
//!   from a pool thread (nested `parallelMap` continuations) push onto
//!   the submitting worker's own deque; the owner pops LIFO (newest
//!   first, cache-warm), while idle workers steal FIFO (oldest first)
//!   from a randomly probed victim, so the two ends never contend on
//!   the same job unless the deque holds exactly one.
//! * **Parking** — an idle worker re-checks every queue, then sleeps on
//!   a condvar guarded by a notification epoch. Producers bump the
//!   epoch and wake a sleeper only when the idle count is non-zero, so
//!   the steady state (all workers busy) never touches the sleep lock.
//!
//! Workers survive panicking jobs: each job runs under `catch_unwind`,
//! so a single bad ring does not shrink the pool. Submission is fallible
//! ([`WorkerPool::execute`] returns [`PoolClosed`] once shutdown began)
//! instead of panicking, and [`WorkerPool::scatter_gather`] falls back
//! to running refused jobs on the caller's thread (counted under
//! `pool.jobs_inline`). Per-worker executed counts are taken at
//! *dequeue*, not completion: waiters wake the instant a job's
//! completion token drops (inside the job), so counting before the run
//! keeps every finished job in the totals a quiescent observer reads.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use snap_trace::{well_known as metrics, WorkerCounters};

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Hard ceiling on pool growth ([`WorkerPool::ensure_workers`]); far
/// above any sensible worker request, it only guards against runaway
/// `workers` expressions. Also sizes the fixed deque-slot table.
pub const MAX_POOL_WORKERS: usize = 64;

/// How long a helping thread waits on the wait-group condvar before
/// re-probing the queues for stealable work.
const HELP_POLL: Duration = Duration::from_micros(200);

/// Error returned when a job is submitted after the pool started shutting
/// down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("worker pool is closed")
    }
}

impl std::error::Error for PoolClosed {}

/// Identity of the pool worker running on this thread: which pool it
/// belongs to (by `Shared` address), its slot id, and its own deque.
struct WorkerContext {
    pool: usize,
    id: usize,
    local: Arc<LocalDeque>,
}

thread_local! {
    /// Set for the lifetime of every pool worker thread; lets the
    /// executor detect re-entrant parallel calls, and lets `execute`
    /// route submissions from a worker onto that worker's own deque.
    static WORKER_CONTEXT: RefCell<Option<WorkerContext>> = const { RefCell::new(None) };
}

/// `true` when the calling thread is a worker of *any* pool.
pub fn on_pool_thread() -> bool {
    WORKER_CONTEXT.with(|ctx| ctx.borrow().is_some())
}

/// One worker's own job deque. The owner pushes and pops at the back
/// (LIFO — the continuation it just spawned is the cache-warm one);
/// thieves take from the front (FIFO — the oldest job is the one the
/// owner would reach last, so stealing it minimizes contention).
#[derive(Default)]
struct LocalDeque {
    jobs: Mutex<VecDeque<Job>>,
}

impl LocalDeque {
    fn push(&self, job: Job) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(job);
    }

    /// Append a whole batch under one lock acquisition.
    fn push_all(&self, batch: Vec<Job>) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(batch);
    }

    /// Owner end: newest job first.
    fn pop_newest(&self) -> Option<Job> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_back()
    }

    /// Thief end: oldest job first.
    fn steal_oldest(&self) -> Option<Job> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }
}

/// State shared between the pool handle and every worker thread.
struct Shared {
    /// External submissions. O(1) push/pop under a lock held only for
    /// the queue operation itself.
    injector: Mutex<VecDeque<Job>>,
    /// Set (under the injector lock) when shutdown begins; pushes that
    /// serialize after the store are refused, so workers that observe
    /// `closed` and then find the queues empty can exit without losing
    /// an accepted job.
    closed: AtomicBool,
    /// Fixed slot table of per-worker deques; slot `i` is set once when
    /// worker `i` spawns and published by the `live` increment.
    deques: Box<[OnceLock<Arc<LocalDeque>>]>,
    /// Number of published deque slots (== spawned workers).
    live: AtomicUsize,
    /// Jobs currently sitting in any queue (injector + every deque).
    /// Approximate by design — it trails pushes and pops by a few
    /// instructions — and used only to decide whether a dequeue should
    /// chain-wake one more peer.
    queued: AtomicUsize,
    /// Workers currently parked or about to park. Producers skip the
    /// sleep lock entirely while this is zero.
    idle: AtomicUsize,
    /// Notification epoch: bumped under the lock by every wake, so a
    /// worker that read the epoch before its final empty scan can never
    /// sleep through a push that happened after that scan.
    epoch: Mutex<u64>,
    wake: Condvar,
}

impl Shared {
    fn addr(self: &Arc<Shared>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Wake one parked worker if any worker is parked.
    fn notify_one(&self) {
        if self.idle.load(Ordering::SeqCst) > 0 {
            let mut epoch = self.epoch.lock().unwrap_or_else(PoisonError::into_inner);
            *epoch += 1;
            self.wake.notify_one();
        }
    }

    /// Wake every parked worker (shutdown).
    fn notify_all(&self) {
        let mut epoch = self.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        *epoch += 1;
        self.wake.notify_all();
    }
}

/// xorshift64 step — cheap thread-local randomness for victim probing
/// (no external RNG dependency on the steal path).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Chained wake-up, run at every successful dequeue: submission only
/// ever wakes one worker (even for a whole batch), and each worker that
/// pops a job while more remain queued wakes one more peer. Work spreads
/// to exactly as many workers as can pick it up, instead of every batch
/// paying a wake-up per job up front.
fn note_dequeue(shared: &Shared) {
    if shared.queued.fetch_sub(1, Ordering::SeqCst) > 1 {
        shared.notify_one();
    }
}

/// Dequeue one job for worker `id`: own deque LIFO, then the injector,
/// then steal FIFO from a randomly probed victim. Each source increments
/// its observability counter at the moment of the pop.
fn next_job(shared: &Shared, id: usize, local: &LocalDeque, rng: &mut u64) -> Option<Job> {
    // Empty fast path: `queued` counts jobs in every queue, so an idle
    // scan costs one atomic load instead of a lock per queue probed. A
    // racing push is caught by the parking protocol (the producer bumps
    // the epoch only after raising `queued`).
    if shared.queued.load(Ordering::SeqCst) == 0 {
        return None;
    }
    if let Some(job) = local.pop_newest() {
        metrics::POOL_DEQUEUE_LOCAL.incr();
        note_dequeue(shared);
        return Some(job);
    }
    if let Some(job) = shared
        .injector
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop_front()
    {
        metrics::POOL_DEQUEUE_INJECTOR.incr();
        note_dequeue(shared);
        return Some(job);
    }
    let live = shared.live.load(Ordering::Acquire);
    if live > 1 {
        let start = (xorshift(rng) as usize) % live;
        for probe in 0..live {
            let victim = (start + probe) % live;
            if victim == id {
                continue;
            }
            if let Some(deque) = shared.deques[victim].get() {
                if let Some(job) = deque.steal_oldest() {
                    metrics::POOL_JOBS_STOLEN.incr();
                    note_dequeue(shared);
                    return Some(job);
                }
            }
        }
    }
    None
}

/// Count a dequeued job (at dequeue, not completion — see the module
/// docs) and run it with panic isolation.
fn run_job(executed: &WorkerCounters, id: usize, job: Job) {
    executed.incr(id);
    metrics::POOL_JOBS_EXECUTED.incr();
    metrics::POOL_QUEUE_DEPTH.decr();
    // A panicking job must not kill the worker; the panic is surfaced to
    // the submitter through whatever completion handle the job carries.
    // The payload is not silently dropped: its message goes into the
    // trace as a `pool.job_panic` note, and the counters record it as a
    // final failure, so `pool.jobs_panicked` and `fault.failures_final`
    // move together.
    if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
        metrics::POOL_JOBS_PANICKED.incr();
        metrics::FAULT_FAILURES_FINAL.incr();
        snap_trace::note(
            "pool.job_panic",
            format!(
                "worker {id}: {}",
                crate::fault::panic_message(payload.as_ref())
            ),
        );
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    executed: Arc<WorkerCounters>,
    id: usize,
    local: Arc<LocalDeque>,
) {
    WORKER_CONTEXT.with(|ctx| {
        *ctx.borrow_mut() = Some(WorkerContext {
            pool: shared.addr(),
            id,
            local: local.clone(),
        });
    });
    // Register with the sampling profiler immediately so an idle worker
    // shows up in folded stacks (utilization view) from its first tick,
    // not from its first span.
    snap_trace::register_thread();
    let mut rng = (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    loop {
        if let Some(job) = next_job(&shared, id, &local, &mut rng) {
            run_job(&executed, id, job);
            continue;
        }
        // The epoch read must precede the empty re-scans below: a
        // producer that pushes after a scan bumps the epoch, which makes
        // the park predicate fail instead of sleeping through the push.
        // Reading it only on this slow path keeps the hot dequeue loop
        // off the sleep lock entirely.
        let epoch0 = *shared.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(job) = next_job(&shared, id, &local, &mut rng) {
            run_job(&executed, id, job);
            continue;
        }
        if shared.closed.load(Ordering::SeqCst) {
            // Drain: re-scan *after* observing `closed`. Any push that
            // succeeded serialized before the close (both take the
            // injector lock), so this scan sees it; an empty scan here
            // means no accepted job can be left behind.
            match next_job(&shared, id, &local, &mut rng) {
                Some(job) => run_job(&executed, id, job),
                None => break,
            }
            continue;
        }
        // Park: register as idle, re-scan once more (a producer that
        // missed our idle increment must be caught by this scan), then
        // sleep until the epoch moves.
        shared.idle.fetch_add(1, Ordering::SeqCst);
        if let Some(job) = next_job(&shared, id, &local, &mut rng) {
            shared.idle.fetch_sub(1, Ordering::SeqCst);
            run_job(&executed, id, job);
            continue;
        }
        if shared.closed.load(Ordering::SeqCst) {
            shared.idle.fetch_sub(1, Ordering::SeqCst);
            continue; // next iteration drains and exits
        }
        metrics::POOL_WORKER_PARKS.incr();
        {
            let mut epoch = shared.epoch.lock().unwrap_or_else(PoisonError::into_inner);
            while *epoch == epoch0 {
                epoch = shared
                    .wake
                    .wait(epoch)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        shared.idle.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A pool of worker threads. Starts at a fixed size and grows (up to
/// [`MAX_POOL_WORKERS`]) when a caller asks for more concurrency than
/// the pool currently has — necessary for latency-bound workloads that
/// legitimately oversubscribe the CPUs, exactly as a browser happily
/// runs more Web Workers than cores. Threads, once spawned, persist
/// until the pool drops, so steady-state parallel calls create none.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Per-worker executed-job counters. Slots are fixed at
    /// construction ([`MAX_POOL_WORKERS`]); each worker claims its slot
    /// at spawn time, so reads are a lock-free snapshot.
    executed: Arc<WorkerCounters>,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let pool = WorkerPool {
            shared: Arc::new(Shared {
                injector: Mutex::new(VecDeque::new()),
                closed: AtomicBool::new(false),
                deques: (0..MAX_POOL_WORKERS).map(|_| OnceLock::new()).collect(),
                live: AtomicUsize::new(0),
                queued: AtomicUsize::new(0),
                idle: AtomicUsize::new(0),
                epoch: Mutex::new(0),
                wake: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
            executed: Arc::new(WorkerCounters::new(MAX_POOL_WORKERS)),
        };
        pool.ensure_workers(workers.max(1));
        pool
    }

    /// Grow the pool to at least `target` workers (clamped to
    /// [`MAX_POOL_WORKERS`]). Never shrinks.
    pub fn ensure_workers(&self, target: usize) {
        let target = target.clamp(1, MAX_POOL_WORKERS);
        // Steady-state fast path: `live` counts spawned workers and the
        // pool never shrinks, so a satisfied target needs no lock.
        if self.shared.live.load(Ordering::Acquire) >= target {
            return;
        }
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        while handles.len() < target {
            // Claiming the slot under the handles lock keeps slot ids
            // aligned with thread spawn order.
            let id = self.executed.add_worker();
            metrics::POOL_WORKERS_SPAWNED.incr();
            let local = Arc::new(LocalDeque::default());
            self.shared.deques[id]
                .set(local.clone())
                .unwrap_or_else(|_| panic!("deque slot {id} claimed twice"));
            // Publish the slot *after* it is set; stealers read `live`
            // with Acquire and only probe published slots.
            self.shared.live.fetch_add(1, Ordering::Release);
            let shared = self.shared.clone();
            let executed = self.executed.clone();
            let handle = std::thread::Builder::new()
                .name(format!("snap-worker-{id}"))
                .spawn(move || worker_loop(shared, executed, id, local))
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when the calling thread is a worker of *this* pool (not
    /// merely of some pool).
    pub fn on_worker_thread(&self) -> bool {
        let addr = self.shared.addr();
        WORKER_CONTEXT.with(|ctx| matches!(&*ctx.borrow(), Some(c) if c.pool == addr))
    }

    /// Submit a job; it runs on some worker eventually. Fails with
    /// [`PoolClosed`] when the pool is shutting down (the job is returned
    /// to the heap and dropped, never silently run). Submissions from a
    /// worker of this pool land on that worker's own deque (LIFO for the
    /// owner, stealable by everyone else); all others go through the
    /// global injector.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolClosed> {
        let sent = self.submit(Box::new(job));
        match sent {
            Ok(()) => {
                metrics::POOL_JOBS_SUBMITTED.incr();
                // Jobs waiting in a queue; the dequeuer decrements at
                // dequeue (not completion) so a quiescent observer — one
                // whose wait-group already released — never reads a
                // stale nonzero depth.
                metrics::POOL_QUEUE_DEPTH.incr();
            }
            Err(PoolClosed) => metrics::POOL_JOBS_REFUSED.incr(),
        }
        sent
    }

    fn submit(&self, job: Job) -> Result<(), PoolClosed> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(PoolClosed);
        }
        let addr = self.shared.addr();
        let mut job = Some(job);
        // `queued` must be raised BEFORE the job becomes poppable so it
        // is always an upper bound on jobs in the queues — the empty
        // fast path in `next_job` relies on `queued == 0` proving every
        // queue is empty (a drain scan that trusted a stale zero could
        // strand an accepted job at shutdown).
        let pushed_local = WORKER_CONTEXT.with(|ctx| {
            if let Some(ctx) = &*ctx.borrow() {
                if ctx.pool == addr {
                    // Owner push: the worker drains its own deque before
                    // exiting, so this job runs even if shutdown races in.
                    self.shared.queued.fetch_add(1, Ordering::SeqCst);
                    ctx.local.push(job.take().expect("job still unsent"));
                    return true;
                }
            }
            false
        });
        if !pushed_local {
            let mut injector = self
                .shared
                .injector
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // Re-check under the lock: `close` sets the flag while
            // holding it, so a push that wins this lock either precedes
            // the close (and is drained) or observes it (and refuses).
            if self.shared.closed.load(Ordering::SeqCst) {
                return Err(PoolClosed);
            }
            self.shared.queued.fetch_add(1, Ordering::SeqCst);
            injector.push_back(job.take().expect("job still unsent"));
        }
        self.shared.notify_one();
        Ok(())
    }

    /// Submit a whole batch of jobs with one queue-lock acquisition and
    /// one wake-up, instead of a lock + notify per job. All-or-nothing:
    /// on [`PoolClosed`] every job is dropped unrun (their completion
    /// handles fire on drop, exactly as a failed [`WorkerPool::execute`]
    /// drops its closure) and the caller falls back inline. From a
    /// worker of this pool the batch lands on that worker's own deque.
    pub(crate) fn execute_batch(&self, batch: Vec<Job>) -> Result<(), PoolClosed> {
        let n = batch.len() as u64;
        if n == 0 {
            return Ok(());
        }
        if self.shared.closed.load(Ordering::SeqCst) {
            metrics::POOL_JOBS_REFUSED.add(n);
            return Err(PoolClosed);
        }
        let addr = self.shared.addr();
        let mut batch = Some(batch);
        // As in `submit`, `queued` is raised before the jobs become
        // poppable so it stays an upper bound (the `next_job` empty
        // fast path depends on that).
        let pushed_local = WORKER_CONTEXT.with(|ctx| {
            if let Some(ctx) = &*ctx.borrow() {
                if ctx.pool == addr {
                    self.shared.queued.fetch_add(n as usize, Ordering::SeqCst);
                    ctx.local
                        .push_all(batch.take().expect("batch still unsent"));
                    return true;
                }
            }
            false
        });
        if !pushed_local {
            let mut injector = self
                .shared
                .injector
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // Same re-check-under-the-lock protocol as `submit`.
            if self.shared.closed.load(Ordering::SeqCst) {
                metrics::POOL_JOBS_REFUSED.add(n);
                return Err(PoolClosed);
            }
            self.shared.queued.fetch_add(n as usize, Ordering::SeqCst);
            injector.extend(batch.take().expect("batch still unsent"));
        }
        metrics::POOL_JOBS_SUBMITTED.add(n);
        metrics::POOL_QUEUE_DEPTH.add(n as i64);
        // One wake-up for the whole batch; the woken worker chain-wakes
        // a peer per dequeue while jobs remain (`note_dequeue`), so the
        // batch recruits workers one by one as long as there is work
        // left — instead of paying every wake-up on the submit path.
        self.shared.notify_one();
        Ok(())
    }

    /// Begin shutdown: refuse new submissions, wake every worker so they
    /// drain the queues and exit. Idempotent; `Drop` calls it and joins.
    fn close(&self) {
        {
            let _injector = self
                .shared
                .injector
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.closed.store(true, Ordering::SeqCst);
        }
        self.shared.notify_all();
    }

    /// Jobs executed so far, per worker — a lock-free snapshot.
    pub fn executed_per_worker(&self) -> Vec<u64> {
        self.executed.snapshot()
    }

    /// The pool's per-worker counter set, shareable with the trace
    /// registry (the global pool registers its set so
    /// `snap_trace::report()` can show worker utilization).
    pub fn executed_counters(&self) -> Arc<WorkerCounters> {
        self.executed.clone()
    }

    /// Block until `wg` completes. On a worker thread of this pool the
    /// wait *helps*: it pops the worker's own deque (where its nested
    /// submissions just landed), the injector, and victims' deques, so a
    /// worker waiting on continuations it spawned makes progress instead
    /// of deadlocking — the work-stealing replacement for the old
    /// run-inline re-entrancy fallback.
    pub(crate) fn wait_helping(&self, wg: &WaitGroup) {
        let addr = self.shared.addr();
        let ctx: Option<(usize, Arc<LocalDeque>)> = WORKER_CONTEXT.with(|ctx| {
            ctx.borrow()
                .as_ref()
                .filter(|c| c.pool == addr)
                .map(|c| (c.id, c.local.clone()))
        });
        let Some((id, local)) = ctx else {
            wg.wait();
            return;
        };
        let mut rng = (id as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        while !wg.is_done() {
            match next_job(&self.shared, id, &local, &mut rng) {
                Some(job) => run_job(&self.executed, id, job),
                // Our tasks were stolen and are in flight elsewhere:
                // sleep briefly on the wait-group, then re-probe.
                None => {
                    if wg.wait_timeout(HELP_POLL) {
                        return;
                    }
                }
            }
        }
    }

    /// Run `n` independent jobs `job(i)` and block until all complete.
    /// State shared with the jobs goes through `Arc`, mirroring how Web
    /// Worker code shares nothing but what is explicitly sent. Jobs the
    /// pool refuses (shutdown race) run on the caller's thread — counted
    /// under `pool.jobs_inline` — so every index is still processed
    /// exactly once.
    pub fn scatter_gather(&self, n: usize, job: impl Fn(usize) + Send + Sync + 'static) {
        let job = Arc::new(job);
        let wg = WaitGroup::new();
        let batch: Vec<Job> = (0..n)
            .zip(wg.tokens(n))
            .map(|(i, token)| {
                let job = job.clone();
                Box::new(move || {
                    job(i);
                    // Release the shared closure *before* signalling
                    // completion, so a caller that captured resources in
                    // `job` (a pool handle, say) uniquely owns them again
                    // the moment the wait returns.
                    drop(job);
                    drop(token);
                }) as Job
            })
            .collect();
        if self.execute_batch(batch).is_err() {
            // The whole batch (with its tokens) was dropped by the
            // refused submission; run every index inline.
            for i in 0..n {
                metrics::POOL_JOBS_INLINE.incr();
                job(i);
            }
        }
        self.wait_helping(&wg);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.close(); // refuse new work: workers drain and exit
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

struct WaitGroupState {
    outstanding: Mutex<usize>,
    done: Condvar,
}

/// Counts outstanding jobs: each [`WaitGroup::token`] increments, each
/// token drop decrements (drop runs even when the job unwinds, so a
/// panicking job can never wedge the waiter).
pub(crate) struct WaitGroup {
    state: Arc<WaitGroupState>,
}

/// One outstanding-job marker; dropping it signals completion.
pub(crate) struct WaitToken {
    state: Arc<WaitGroupState>,
}

impl WaitGroup {
    pub(crate) fn new() -> WaitGroup {
        WaitGroup {
            state: Arc::new(WaitGroupState {
                outstanding: Mutex::new(0),
                done: Condvar::new(),
            }),
        }
    }

    /// Register `n` outstanding jobs under a single lock acquisition
    /// (batch submission creates one token per job).
    pub(crate) fn tokens(&self, n: usize) -> Vec<WaitToken> {
        {
            let mut count = self
                .state
                .outstanding
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *count += n;
        }
        (0..n)
            .map(|_| WaitToken {
                state: self.state.clone(),
            })
            .collect()
    }

    /// `true` once every token has been dropped.
    pub(crate) fn is_done(&self) -> bool {
        *self
            .state
            .outstanding
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            == 0
    }

    /// Block until every token has been dropped.
    pub(crate) fn wait(&self) {
        let mut count = self
            .state
            .outstanding
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *count > 0 {
            count = self
                .state
                .done
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wait up to `timeout` for completion; `true` when done. Helpers
    /// use this to sleep between steal probes without missing the
    /// completion notification.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> bool {
        let count = self
            .state
            .outstanding
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if *count == 0 {
            return true;
        }
        let (count, _timed_out) = self
            .state
            .done
            .wait_timeout(count, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        *count == 0
    }
}

impl Drop for WaitToken {
    fn drop(&mut self) {
        let mut count = self
            .state
            .outstanding
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *count -= 1;
        if *count == 0 {
            self.state.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        pool.scatter_gather(100, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn pool_uses_multiple_workers() {
        let pool = WorkerPool::new(4);
        pool.scatter_gather(64, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let per_worker = pool.executed_per_worker();
        assert_eq!(per_worker.iter().sum::<u64>(), 64);
        assert!(
            per_worker.iter().filter(|&&n| n > 0).count() > 1,
            "expected more than one worker to participate: {per_worker:?}"
        );
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        pool.scatter_gather(5, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn drop_joins_cleanly() {
        let pool = WorkerPool::new(2);
        pool.scatter_gather(10, |_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn fire_and_forget_jobs_drain_before_drop_joins() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = counter.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        drop(pool); // drain semantics: every accepted job runs
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = WorkerPool::new(2);
        let wg = WaitGroup::new();
        let token = wg.tokens(1).pop().expect("one token");
        pool.execute(move || {
            let _token = token;
            panic!("job panic must stay inside the worker");
        })
        .unwrap();
        wg.wait();
        // The pool still has live workers and completes new jobs.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        pool.scatter_gather(20, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 20);
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn pool_grows_on_demand_but_never_shrinks() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        pool.ensure_workers(5);
        assert_eq!(pool.workers(), 5);
        pool.ensure_workers(3); // never shrinks
        assert_eq!(pool.workers(), 5);
        pool.ensure_workers(MAX_POOL_WORKERS + 100);
        assert_eq!(pool.workers(), MAX_POOL_WORKERS);
        // All workers remain usable after growth.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        pool.scatter_gather(200, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn execute_reports_closure_instead_of_panicking() {
        let pool = WorkerPool::new(1);
        pool.close(); // simulate shutdown having begun
        let result = pool.execute(|| {});
        assert_eq!(result, Err(PoolClosed));
    }

    #[test]
    fn refused_scatter_gather_runs_every_index_inline_on_the_caller() {
        let pool = WorkerPool::new(2);
        pool.close();
        let caller = std::thread::current().id();
        let hits = Arc::new(Mutex::new(Vec::new()));
        let h = hits.clone();
        pool.scatter_gather(6, move |i| {
            h.lock()
                .unwrap()
                .push((i, std::thread::current().id() == caller));
        });
        let hits = hits.lock().unwrap().clone();
        assert_eq!(hits, (0..6).map(|i| (i, true)).collect::<Vec<_>>());
        assert_eq!(pool.executed_per_worker().iter().sum::<u64>(), 0);
    }

    #[test]
    fn on_worker_thread_tells_this_pool_from_another() {
        let a = Arc::new(WorkerPool::new(1));
        let b = Arc::new(WorkerPool::new(1));
        assert!(!on_pool_thread());
        assert!(!a.on_worker_thread() && !b.on_worker_thread());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (a2, b2, s) = (a.clone(), b.clone(), seen.clone());
        b.scatter_gather(2, move |_| {
            s.lock().unwrap().push((
                on_pool_thread(),
                b2.on_worker_thread(),
                a2.on_worker_thread(),
            ));
        });
        assert_eq!(*seen.lock().unwrap(), vec![(true, true, false); 2]);
    }

    #[test]
    fn nested_submission_from_worker_lands_on_local_deque_and_runs() {
        let pool = Arc::new(WorkerPool::new(1));
        let nested = Arc::new(AtomicUsize::new(0));
        let (p, n) = (pool.clone(), nested.clone());
        pool.scatter_gather(8, move |_| {
            let n = n.clone();
            // Submitting from the (only) worker must not deadlock: the
            // job lands on the worker's own deque and the wait-group
            // helper drains it.
            p.execute(move || {
                n.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        });
        drop(pool); // drain any still-queued nested jobs
        assert_eq!(nested.load(Ordering::SeqCst), 8);
    }
}
