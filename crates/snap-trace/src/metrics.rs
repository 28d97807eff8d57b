//! Counters, gauges, and histograms behind the global registry.
//!
//! Every metric is a plain atomic: updates are one relaxed RMW with no
//! locking on any hot path. The well-known runtime metrics (pool, ring
//! map, compile cache, shuffle, VM) are declared once, in the
//! `metrics!` table below, as `static`s so call sites pay no lookup at
//! all; ad-hoc metrics can be interned at runtime through [`counter`] /
//! [`histogram_owned`], which hand back `&'static` references from a
//! leak-once registry.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::window::WindowRing;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (const, so counters can be `static`).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, live worker counts).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicI64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn decr(&self) {
        self.add(-1);
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, n: i64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Power-of-two bucket count: bucket `i` holds samples in
/// `[2^i, 2^(i+1))`, with bucket 0 also absorbing zero.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free histogram over `u64` samples (nanoseconds, sizes, …)
/// with power-of-two buckets plus exact count/sum/min/max, and a
/// windowed ring ([`WindowRing`]) answering quantiles over the trailing
/// minute while the run is live.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    window: WindowRing,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            window: WindowRing::new(),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one sample (stamped with the current trace-epoch time for
    /// window placement).
    #[inline]
    pub fn record(&self, sample: u64) {
        self.record_at(sample, crate::span::now_ns());
    }

    /// Record one sample observed at `now_ns` (nanoseconds since the
    /// trace epoch). Call sites that already hold a timestamp (span
    /// guards) use this to skip a second clock read.
    #[inline]
    pub fn record_at(&self, sample: u64, now_ns: u64) {
        let bucket = (64 - sample.leading_zeros() as usize).saturating_sub(1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(sample, Ordering::Relaxed);
        self.min.fetch_min(sample, Ordering::Relaxed);
        self.max.fetch_max(sample, Ordering::Relaxed);
        self.window.record(sample, now_ns);
    }

    /// A point-in-time copy of the histogram's summary statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: self.name,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// A snapshot of only the samples recorded in the trailing
    /// `range_secs` seconds (clamped to the ring's one-minute span) —
    /// the live view behind windowed p50/p95/p99.
    pub fn windowed(&self, range_secs: u64) -> HistogramSnapshot {
        let stats = self.window.merged(range_secs, crate::span::now_ns());
        HistogramSnapshot {
            name: self.name,
            count: stats.count,
            sum: stats.sum,
            min: stats.min,
            max: stats.max,
            buckets: stats.buckets,
        }
    }
}

/// Frozen view of a [`Histogram`], safe to serialize.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// The metric name.
    pub name: &'static str,
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-power-of-two bucket counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `p`-quantile (`p` in `0.0..=1.0`) from the
    /// power-of-two buckets: the upper bound of the bucket holding the
    /// requested rank, clamped into the observed `[min, max]`. At worst
    /// one bucket (2×) coarse; exact at the extremes.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                let upper = if i >= HISTOGRAM_BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Per-worker executed-job counters with a fixed capacity, readable
/// without any lock.
///
/// This replaces the seed's `Mutex<Vec<Arc<AtomicU64>>>` in
/// `WorkerPool`: slots are allocated once at construction, each worker
/// claims the next slot at spawn time ([`WorkerCounters::add_worker`]),
/// and [`WorkerCounters::snapshot`] is a read-only pass over the live
/// prefix — no mutex on the read path, no allocation on the hot path.
#[derive(Debug)]
pub struct WorkerCounters {
    slots: Box<[AtomicU64]>,
    live: AtomicUsize,
}

impl WorkerCounters {
    /// Allocate `capacity` zeroed slots.
    pub fn new(capacity: usize) -> WorkerCounters {
        WorkerCounters {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            live: AtomicUsize::new(0),
        }
    }

    /// Claim the next worker slot, returning its id. Panics if the
    /// capacity chosen at construction is exhausted.
    pub fn add_worker(&self) -> usize {
        let id = self.live.fetch_add(1, Ordering::Relaxed);
        assert!(
            id < self.slots.len(),
            "WorkerCounters capacity ({}) exhausted",
            self.slots.len()
        );
        id
    }

    /// Count one executed job for worker `id`.
    #[inline]
    pub fn incr(&self, id: usize) {
        self.slots[id].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of live (claimed) worker slots.
    pub fn workers(&self) -> usize {
        self.live.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// Jobs executed so far, per live worker — a lock-free read.
    pub fn snapshot(&self) -> Vec<u64> {
        self.slots[..self.workers()]
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .collect()
    }

    /// Total jobs executed across all workers.
    pub fn total(&self) -> u64 {
        self.snapshot().iter().sum()
    }
}

// ---------------------------------------------------------------------
// Well-known runtime metrics
// ---------------------------------------------------------------------

/// One row of the well-known metrics table: the metric's static and
/// its help text.
#[derive(Debug)]
pub struct Known<M: 'static> {
    /// The metric's static in [`well_known`].
    pub metric: &'static M,
    /// The row's doc comment joined into one line — the `# HELP` text
    /// on `/metrics`.
    pub help: &'static str,
}

/// Declares every well-known metric once. A row is a doc comment (the
/// help text), a static identifier and the dotted metric name; rows are
/// grouped by kind under the function that lists them. The table
/// expands to the statics in [`well_known`] and to [`known_counters`],
/// [`known_gauges`] and [`known_histograms`], which the report schema,
/// `/metrics` and trace_check's report check all read.
macro_rules! metrics {
    ($(
        $kind:ident in $list:ident {
            $( $(#[doc = $doc:literal])+ $id:ident = $name:literal; )*
        }
    )*) => {
        /// The well-known metrics every runtime crate reports into. Call
        /// sites use these statics directly (zero lookup cost);
        /// [`known_counters`] and friends enumerate them for reports and
        /// exporters.
        pub mod well_known {
            use super::{Counter, Gauge, Histogram};
            $($(
                $(#[doc = $doc])+
                pub static $id: $kind = $kind::new($name);
            )*)*
        }

        $(
            #[doc = concat!("Every well-known `", stringify!($kind), "`, in table order.")]
            pub fn $list() -> &'static [Known<$kind>] {
                static ROWS: &[Known<$kind>] = &[$(
                    Known {
                        metric: &well_known::$id,
                        help: concat!($($doc),+).trim_ascii(),
                    },
                )*];
                ROWS
            }
        )*
    };
}

metrics! {
    Counter in known_counters {
        /// Jobs submitted to the worker pool (accepted sends).
        POOL_JOBS_SUBMITTED = "pool.jobs_submitted";
        /// Jobs completed by pool workers.
        POOL_JOBS_EXECUTED = "pool.jobs_executed";
        /// Jobs the pool refused (shutdown race) that ran inline instead.
        POOL_JOBS_REFUSED = "pool.jobs_refused";
        /// Refused jobs that actually ran inline on the submitting thread —
        /// the shutdown-race fallback, attributed so report totals
        /// reconcile (inline runs are neither submitted nor executed).
        POOL_JOBS_INLINE = "pool.jobs_inline";
        /// Jobs and items that panicked inside a worker. Nothing is
        /// retried, so each one is also counted final
        /// (`fault.failures_final`), and the two always move together.
        POOL_JOBS_PANICKED = "pool.jobs_panicked";
        /// Worker threads spawned (all pools).
        POOL_WORKERS_SPAWNED = "pool.workers_spawned";
        /// Jobs a worker popped from its own deque (LIFO fast path).
        POOL_DEQUEUE_LOCAL = "pool.dequeue_local";
        /// Jobs dequeued from the shared injector.
        POOL_DEQUEUE_INJECTOR = "pool.dequeue_injector";
        /// Jobs stolen FIFO from another worker's deque.
        POOL_JOBS_STOLEN = "pool.jobs_stolen";
        /// Times a worker parked (slept on the wake condvar) when every
        /// queue probe came up empty.
        POOL_WORKER_PARKS = "pool.worker_parks";

        /// Panicked items granted another try on the pool. Nothing retries,
        /// so this stays 0; a benchmark's fault-free check still reads it.
        FAULT_RETRIES_SCHEDULED = "fault.retries_scheduled";
        /// Panicked jobs and items, each final: nothing is retried.
        FAULT_FAILURES_FINAL = "fault.failures_final";
        /// Panics provoked by the deterministic fault injector.
        FAULT_INJECTED_PANICS = "fault.injected_panics";
        /// Delays provoked by the deterministic fault injector.
        FAULT_INJECTED_DELAYS = "fault.injected_delays";
        /// Phases of parallel blocks that re-ran on the sequential path
        /// because an item panicked on the pool.
        FAULT_DEGRADED_RUNS = "fault.degraded_runs";

        /// `run_tasks` invocations that ran on the pool.
        EXEC_POOLED_CALLS = "exec.pooled_calls";
        /// Re-entrant pooled calls that ran inline to avoid deadlock.
        EXEC_REENTRANT_INLINE = "exec.reentrant_inline";
        /// Chunks claimed by the executor's chunk loop, one `fetch_add`
        /// each.
        EXEC_CHUNKS_CLAIMED = "exec.chunks_claimed";

        /// `ring_map` / `ring_reduce_groups` calls.
        RING_MAP_CALLS = "ring_map.calls";
        /// Items shipped through ring maps.
        RING_MAP_ITEMS = "ring_map.items";

        /// Ring compile-cache hits.
        COMPILE_CACHE_HITS = "compile_cache.hits";
        /// Ring compile-cache misses (fresh compiles).
        COMPILE_CACHE_MISSES = "compile_cache.misses";

        /// Rings lowered to the numeric `f64` bytecode at compile time.
        RING_BYTECODE_COMPILES = "ring.bytecode_compiles";
        /// Ring calls served by the unboxed `f64` numeric fast path.
        RING_FASTPATH_CALLS = "ring.fastpath_calls";
        /// Ring calls served by the tree-walking evaluator (every ring the
        /// numeric pass declines).
        RING_TREEWALK_CALLS = "ring.treewalk_calls";
        /// `eval_batch` invocations — each covers a whole chunk of elements.
        RING_BATCH_CALLS = "ring.batch_calls";
        /// Elements evaluated by `eval_batch` (no per-element dispatch).
        RING_BATCH_ELEMS = "ring.batch_elems";
        /// Maps that considered the columnar batch tier but declined it
        /// (non-batchable ring, or non-numeric elements in the list).
        RING_BATCH_FALLBACKS = "ring.batch_fallbacks";
        /// Flat `f64` chunks executed by the columnar map path.
        PAR_COLUMNAR_CHUNKS = "par.columnar_chunks";

        /// Shuffles that took the sequential path.
        SHUFFLE_SEQ_RUNS = "shuffle.seq_runs";
        /// Shuffles that took the parallel (partition/sort/merge) path.
        SHUFFLE_PARALLEL_RUNS = "shuffle.parallel_runs";
        /// Pairs shuffled (both paths).
        SHUFFLE_PAIRS = "shuffle.pairs";
        /// Map-side combiner runs (associative reducers only).
        SHUFFLE_COMBINE_RUNS = "shuffle.combine_runs";
        /// Pairs eliminated by the map-side combiner before the shuffle
        /// (pairs in minus partially-reduced pairs out).
        SHUFFLE_PAIRS_COMBINED = "shuffle.pairs_combined";

        /// Emitted C/OpenMP programs compiled by the codegen harness.
        CODEGEN_COMPILES = "codegen.compiles";
        /// Compiled codegen binaries executed to completion.
        CODEGEN_RUNS = "codegen.runs";
        /// Data elements processed by the native (compiled C) tier.
        CODEGEN_NATIVE_ELEMS = "codegen.native_elems";
        /// Codegen runs skipped because no C toolchain was detected.
        CODEGEN_TOOLCHAIN_MISSING = "codegen.toolchain_missing";
        /// Codegen compile-cache hits (binary reused, keyed on source hash).
        CODEGEN_CACHE_HITS = "codegen.cache_hits";
        /// Codegen compile-cache misses (fresh compile required).
        CODEGEN_CACHE_MISSES = "codegen.cache_misses";

        /// VM frames executed (`step_frame` calls, stolen or not).
        VM_FRAMES = "vm.frames";
        /// VM frames consumed by the interference model.
        VM_FRAMES_STOLEN = "vm.frames_stolen";
        /// Processes spawned (green flag, broadcasts, clones, scripts).
        VM_PROCESSES_SPAWNED = "vm.processes_spawned";

        /// Spans lost because a thread's buffer hit
        /// `span::MAX_EVENTS_PER_THREAD`.
        TRACE_SPANS_DROPPED = "trace.spans_dropped";
        /// Nanoseconds snap-trace spent on itself: profiler sampling ticks
        /// plus telemetry HTTP handler time — the self-audit behind the
        /// `a7_trace_overhead` CI gate.
        TRACE_OVERHEAD_NS = "trace.overhead_ns";
        /// Sampling-profiler ticks taken (all profiler runs).
        TRACE_PROFILE_SAMPLES = "trace.profile_samples";
        /// `/metrics` scrapes answered by the telemetry server.
        TRACE_METRICS_SCRAPES = "trace.metrics_scrapes";
    }

    Gauge in known_gauges {
        /// Jobs currently queued or running on the pool.
        POOL_QUEUE_DEPTH = "pool.queue_depth";
        /// Live processes in the most recently stepped VM.
        VM_LIVE_PROCESSES = "vm.live_processes";
    }

    Histogram in known_histograms {
        /// Size of each hash partition in the parallel shuffle.
        SHUFFLE_PARTITION_SIZE = "shuffle.partition_size";
        /// Wall-time of the parallel shuffle's k-way merge, nanoseconds.
        SHUFFLE_MERGE_NS = "shuffle.merge_ns";
        /// Wall-time of each VM frame step, nanoseconds.
        VM_FRAME_NS = "vm.frame_ns";
    }
}

// ---------------------------------------------------------------------
// Dynamic (interned) metrics
// ---------------------------------------------------------------------

static DYNAMIC_COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
static DYNAMIC_HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// The one intern path: the metric in `registry` named `name`, or a
/// fresh `make(name)` leaked into it (the name is leaked once, on first
/// use). Hot paths cache the returned reference.
fn intern<M>(
    registry: &Mutex<Vec<&'static M>>,
    name: &str,
    name_of: fn(&M) -> &'static str,
    make: fn(&'static str) -> M,
) -> &'static M {
    let mut metrics = registry.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = metrics.iter().find(|m| name_of(m) == name) {
        return existing;
    }
    let leaked: &'static M = Box::leak(Box::new(make(Box::leak(name.into()))));
    metrics.push(leaked);
    leaked
}

fn listed<M>(registry: &Mutex<Vec<&'static M>>) -> Vec<&'static M> {
    registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Intern a counter by name: repeated calls with the same name return
/// the same `&'static Counter`. For hot paths prefer holding the
/// reference (or use a well-known static).
pub fn counter(name: &'static str) -> &'static Counter {
    intern(&DYNAMIC_COUNTERS, name, Counter::name, Counter::new)
}

/// Intern a histogram under a runtime-built name. Used for
/// per-span-name duration histograms (`span.<name>.ns`), where the set
/// of names is only known at runtime.
pub fn histogram_owned(name: String) -> &'static Histogram {
    intern(&DYNAMIC_HISTOGRAMS, &name, Histogram::name, Histogram::new)
}

/// Dynamically interned counters, for report enumeration.
pub fn dynamic_counters() -> Vec<&'static Counter> {
    listed(&DYNAMIC_COUNTERS)
}

/// Dynamically interned histograms, for report enumeration.
pub fn dynamic_histograms() -> Vec<&'static Histogram> {
    listed(&DYNAMIC_HISTOGRAMS)
}

// ---------------------------------------------------------------------
// Global-pool worker counters
// ---------------------------------------------------------------------

static GLOBAL_WORKERS: OnceLock<std::sync::Arc<WorkerCounters>> = OnceLock::new();

/// Register the process-wide pool's per-worker counters so reports can
/// show utilization. First registration wins; later calls return the
/// already-registered set (the global pool is created once).
pub fn register_global_workers(counters: std::sync::Arc<WorkerCounters>) {
    let _ = GLOBAL_WORKERS.set(counters);
}

/// The process-wide pool's per-worker counters, if a pool exists yet.
pub fn global_workers() -> Option<std::sync::Arc<WorkerCounters>> {
    GLOBAL_WORKERS.get().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_up() {
        static C: Counter = Counter::new("test.counter");
        let before = C.get();
        C.incr();
        C.add(4);
        assert_eq!(C.get(), before + 5);
    }

    #[test]
    fn gauges_go_both_ways() {
        static G: Gauge = Gauge::new("test.gauge");
        G.set(0);
        G.add(10);
        G.decr();
        assert_eq!(G.get(), 9);
        G.add(-9);
        assert_eq!(G.get(), 0);
    }

    #[test]
    fn histogram_tracks_summary_stats() {
        static H: Histogram = Histogram::new("test.histogram");
        for sample in [1u64, 2, 3, 1024] {
            H.record(sample);
        }
        let snap = H.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1030);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1024);
        assert!((snap.mean() - 257.5).abs() < 1e-9);
        // 1 → bucket 0; 2,3 → bucket 1; 1024 → bucket 10.
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 2);
        assert_eq!(snap.buckets[10], 1);
    }

    #[test]
    fn histogram_zero_sample_lands_in_bucket_zero() {
        static H: Histogram = Histogram::new("test.histogram.zero");
        H.record(0);
        let snap = H.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.min, 0);
    }

    #[test]
    fn histogram_windows_and_percentiles_follow_samples() {
        static H: Histogram = Histogram::new("test.histogram.windowed");
        H.record(100);
        H.record(1000);
        let windowed = H.windowed(60);
        assert_eq!(windowed.count, 2, "fresh samples are in the last minute");
        assert_eq!(windowed.sum, 1100);
        let snap = H.snapshot();
        // 100 → bucket [64,128): p50 estimate is that bucket's upper
        // bound clamped into [min, max]; p100 resolves to the max.
        assert_eq!(snap.percentile(0.5), 127);
        assert_eq!(snap.percentile(1.0), 1000);
        assert_eq!(windowed.percentile(1.0), snap.percentile(1.0));
        let empty = Histogram::new("test.histogram.empty_window");
        assert_eq!(empty.windowed(60).count, 0);
        assert_eq!(empty.snapshot().percentile(0.99), 0);
    }

    #[test]
    fn owned_name_histograms_intern_by_value() {
        let a = histogram_owned("test.owned.histogram".to_string());
        let b = histogram_owned("test.owned.histogram".to_string());
        assert!(std::ptr::eq(a, b));
        a.record(5);
        assert!(b.snapshot().count >= 1);
    }

    #[test]
    fn interned_metrics_are_shared() {
        let a = counter("test.dynamic.counter");
        let b = counter("test.dynamic.counter");
        assert!(std::ptr::eq(a, b));
        a.incr();
        assert!(b.get() >= 1);
        assert!(dynamic_counters()
            .iter()
            .any(|c| c.name() == "test.dynamic.counter"));
    }

    #[test]
    fn worker_counters_snapshot_without_locks() {
        let workers = WorkerCounters::new(8);
        let a = workers.add_worker();
        let b = workers.add_worker();
        workers.incr(a);
        workers.incr(b);
        workers.incr(b);
        assert_eq!(workers.workers(), 2);
        assert_eq!(workers.snapshot(), vec![1, 2]);
        assert_eq!(workers.total(), 3);
    }

    #[test]
    #[should_panic(expected = "WorkerCounters capacity (2) exhausted")]
    fn worker_counters_refuse_a_worker_past_capacity() {
        let workers = WorkerCounters::new(2);
        workers.add_worker();
        workers.add_worker();
        workers.add_worker();
    }

    #[test]
    fn percentile_estimate_brackets_the_true_quantile() {
        static H: Histogram = Histogram::new("test.histogram.quantiles");
        for sample in 1..=1000u64 {
            H.record(sample);
        }
        let snap = H.snapshot();
        for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            // The exact quantile of 1..=1000 at rank ceil(p * n).
            let exact = ((p * 1000.0_f64).ceil() as u64).max(1);
            let estimate = snap.percentile(p);
            assert!(
                exact <= estimate && estimate < 2 * exact.max(1),
                "p={p}: estimate {estimate} is not within one bucket of {exact}"
            );
            assert!((snap.min..=snap.max).contains(&estimate));
        }
        // Out-of-range probabilities clamp instead of reading past the
        // buckets.
        assert_eq!(snap.percentile(-1.0), snap.percentile(0.0));
        assert_eq!(snap.percentile(7.0), 1000);
    }

    /// Every table row as `(name, help)`, across all three kinds.
    fn rows() -> Vec<(&'static str, &'static str)> {
        let counters = known_counters().iter().map(|k| (k.metric.name(), k.help));
        let gauges = known_gauges().iter().map(|k| (k.metric.name(), k.help));
        let histograms = known_histograms().iter().map(|k| (k.metric.name(), k.help));
        counters.chain(gauges).chain(histograms).collect()
    }

    #[test]
    fn well_known_lists_are_consistent() {
        let rows = rows();
        let mut names: Vec<_> = rows.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len(), "a metric name is declared twice");
        for (name, help) in &rows {
            assert!(!help.is_empty(), "{name} has no help text");
            assert_eq!(help.trim(), *help, "{name}: help is not trimmed");
            assert!(
                !help.contains("  "),
                "{name}: doc lines joined badly: {help:?}"
            );
        }
        // A three-line doc comment reads as one sentence.
        let panicked = known_counters()
            .iter()
            .find(|k| std::ptr::eq(k.metric, &well_known::POOL_JOBS_PANICKED))
            .expect("POOL_JOBS_PANICKED is a row");
        assert!(panicked
            .help
            .contains("Nothing is retried, so each one is also counted final"));
    }

    #[test]
    fn every_row_reaches_the_report_and_metrics() {
        let json = crate::report().to_json();
        let (counters, rest) = json.split_once("\"gauges\":").expect("gauges section");
        let gauges = rest
            .split_once("\"histograms\":")
            .expect("histograms section")
            .0;
        for known in known_counters() {
            let key = format!("\"{}\":", known.metric.name());
            assert!(counters.contains(&key), "report lacks counter {key}");
        }
        for known in known_gauges() {
            let key = format!("\"{}\":", known.metric.name());
            assert!(gauges.contains(&key), "report lacks gauge {key}");
        }
        let text = crate::prometheus_text();
        let lines: Vec<&str> = text.lines().collect();
        for (name, help) in rows() {
            let family = format!("snap_{}", name.replace('.', "_"));
            let type_prefix = format!("# TYPE {family} ");
            let help_line = format!("# HELP {family} {help}");
            let types: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].starts_with(&type_prefix))
                .collect();
            assert_eq!(types.len(), 1, "{name}: want one # TYPE line");
            let helps = lines
                .iter()
                .filter(|l| l.starts_with(&format!("# HELP {family} ")))
                .count();
            assert_eq!(helps, 1, "{name}: want one # HELP line");
            assert!(
                types[0] > 0 && lines[types[0] - 1] == help_line,
                "{name}: # HELP must precede # TYPE"
            );
        }
    }
}
