//! Scoped wall-time spans recorded into per-thread buffers.
//!
//! A span is opened with [`span`] (or the [`crate::span!`] macro) and
//! closed when its guard drops; the completed event goes into the
//! calling thread's own buffer, so recording takes no shared lock. The
//! buffers register themselves in a global list the exporters walk.
//!
//! Recording is off until [`set_enabled`]`(true)`: a disabled span is
//! one relaxed atomic load and no clock read, so instrumented code left
//! in place costs effectively nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Hard cap on buffered events per thread; beyond it new events are
/// counted as dropped rather than grow memory without bound.
pub const MAX_EVENTS_PER_THREAD: usize = 1 << 16;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (`"ring_map"`, `"shuffle.merge"`, …).
    pub name: &'static str,
    /// Recording thread's trace id (dense, assigned at first span).
    pub tid: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Process-unique span id (0 only for hand-built events).
    pub id: u64,
    /// Id of the span that was open on the same thread when this one
    /// began (0 at the top of a thread's stack).
    pub parent: u64,
    /// Causal link to a span on *another* thread: the originating
    /// `parallelMap`-side span a pooled chunk, fault retry, or salvage
    /// pass was scheduled from (0 when unlinked).
    pub link: u64,
    /// Optional single argument, e.g. `("len", 10000)`.
    pub arg: Option<(&'static str, u64)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on or off at runtime. Counters and gauges are
/// always live; only spans (which cost two clock reads and a buffer
/// push each) are gated.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is span recording currently on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch, shared with histogram
/// windows so every subsystem stamps time on one axis.
pub(crate) fn now_ns() -> u64 {
    Instant::now().duration_since(epoch()).as_nanos() as u64
}

struct ThreadBuffer {
    tid: u64,
    events: Mutex<Vec<SpanEvent>>,
    dropped: AtomicU64,
}

static BUFFERS: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
}

fn with_local_buffer(f: impl FnOnce(&ThreadBuffer)) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buffer = slot.get_or_insert_with(|| {
            let buffer = Arc::new(ThreadBuffer {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            });
            buffers()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(buffer.clone());
            buffer
        });
        f(buffer);
    });
}

/// An open span; records its event when dropped. Inert (and free) when
/// neither recording nor profiling was active at open time.
#[must_use = "a span records nothing unless it lives across the timed region"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
    framed: bool,
}

struct OpenSpan {
    name: &'static str,
    arg: Option<(&'static str, u64)>,
    id: u64,
    parent: u64,
    link: u64,
    start: Instant,
    start_ns: u64,
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // Ids of the spans currently open on this thread, innermost last —
    // the source of `SpanEvent::parent` and `current_span_id`. Plain
    // (non-atomic) because only the owning thread reads it; the
    // profiler's cross-thread view lives in `crate::profile`.
    static OPEN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The id of the innermost span currently open on this thread (0 when
/// none). Capture it before handing work to another thread and pass it
/// to [`span_linked`] there, so the pooled side of a scatter links back
/// to the originating call in the trace.
pub fn current_span_id() -> u64 {
    OPEN_STACK.with(|stack| stack.borrow().last().copied().unwrap_or(0))
}

/// Open a span covering the enclosing scope.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_inner(name, None, 0)
}

/// Open a span with one `key = value` argument.
#[inline]
pub fn span_with(name: &'static str, key: &'static str, value: u64) -> SpanGuard {
    span_inner(name, Some((key, value)), 0)
}

/// Open a span causally linked to a span on another thread (see
/// [`current_span_id`]).
#[inline]
pub fn span_linked(name: &'static str, link: u64) -> SpanGuard {
    span_inner(name, None, link)
}

/// [`span_linked`] with one `key = value` argument.
#[inline]
pub fn span_linked_with(name: &'static str, key: &'static str, value: u64, link: u64) -> SpanGuard {
    span_inner(name, Some((key, value)), link)
}

#[inline]
fn span_inner(name: &'static str, arg: Option<(&'static str, u64)>, link: u64) -> SpanGuard {
    let recording = enabled();
    if !recording && !crate::profile::profiling() {
        return SpanGuard {
            open: None,
            framed: false,
        };
    }
    // The profiler's per-thread stack is maintained whenever spans are
    // recorded OR a sampler is running, so a profile can be pulled from
    // a process that never enabled full span recording.
    crate::profile::push_frame(name);
    if !recording {
        return SpanGuard {
            open: None,
            framed: true,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let epoch = epoch();
    let start = Instant::now();
    SpanGuard {
        open: Some(OpenSpan {
            name,
            arg,
            id,
            parent,
            link,
            start,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
        }),
        framed: true,
    }
}

thread_local! {
    // name-ptr → duration histogram, so each span drop records into
    // `span.<name>.ns` without touching the global intern lock.
    static DURATION_CACHE: RefCell<Vec<(usize, &'static crate::metrics::Histogram)>> =
        const { RefCell::new(Vec::new()) };
}

fn duration_histogram(name: &'static str) -> &'static crate::metrics::Histogram {
    let key = name.as_ptr() as usize;
    DURATION_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&(_, histogram)) = cache.iter().find(|(k, _)| *k == key) {
            return histogram;
        }
        let histogram = crate::metrics::histogram_owned(format!("span.{name}.ns"));
        cache.push((key, histogram));
        histogram
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.framed {
            crate::profile::pop_frame();
        }
        let Some(open) = self.open.take() else {
            return;
        };
        OPEN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        // Span durations flow into windowed histograms, so live p99s
        // per span name come for free with recording on. The end
        // timestamp is already known — no extra clock read.
        duration_histogram(open.name).record_at(dur_ns, open.start_ns + dur_ns);
        with_local_buffer(|buffer| {
            let mut events = buffer.events.lock().unwrap_or_else(PoisonError::into_inner);
            if events.len() >= MAX_EVENTS_PER_THREAD {
                buffer.dropped.fetch_add(1, Ordering::Relaxed);
                crate::metrics::well_known::TRACE_SPANS_DROPPED.incr();
                return;
            }
            events.push(SpanEvent {
                name: open.name,
                tid: buffer.tid,
                start_ns: open.start_ns,
                dur_ns,
                id: open.id,
                parent: open.parent,
                link: open.link,
                arg: open.arg,
            });
        });
    }
}

/// Open a span: `span!("name")` or `span!("ring_map", len)` (the
/// argument's identifier becomes the key) or
/// `span!("name", "key" => value)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $key:literal => $value:expr) => {
        $crate::span_with($name, $key, $value as u64)
    };
    ($name:expr, $value:ident) => {
        $crate::span_with($name, stringify!($value), $value as u64)
    };
}

/// Copy out every buffered span, across all threads, ordered by start
/// time. Buffers are left intact (see [`take_spans`]).
pub fn collect_spans() -> Vec<SpanEvent> {
    let buffers = buffers().lock().unwrap_or_else(PoisonError::into_inner);
    let mut all: Vec<SpanEvent> = buffers
        .iter()
        .flat_map(|b| {
            b.events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        })
        .collect();
    all.sort_by_key(|e| (e.start_ns, e.tid));
    all
}

/// Drain every buffered span, across all threads, ordered by start
/// time. Subsequent calls see only newly recorded spans.
pub fn take_spans() -> Vec<SpanEvent> {
    let buffers = buffers().lock().unwrap_or_else(PoisonError::into_inner);
    let mut all: Vec<SpanEvent> = buffers
        .iter()
        .flat_map(|b| std::mem::take(&mut *b.events.lock().unwrap_or_else(PoisonError::into_inner)))
        .collect();
    all.sort_by_key(|e| (e.start_ns, e.tid));
    all
}

// ---------------------------------------------------------------------
// Trace notes — point-in-time diagnostics that carry a message
// ---------------------------------------------------------------------

/// Hard cap on buffered notes; failure diagnostics are rare, so hitting
/// this means something is very wrong — later notes are counted as
/// dropped rather than grow memory without bound.
pub const MAX_NOTES: usize = 1024;

/// A point-in-time diagnostic record. Unlike a [`SpanEvent`], a note has
/// no duration and carries an owned message — the vehicle for panic
/// payloads and degradation records, which must survive into the trace
/// even though their text is only known at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNote {
    /// Note name (`"pool.job_panic"`, `"blocks.degraded"`, …).
    pub name: &'static str,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// The diagnostic message (panic payload text, degradation reason).
    pub message: String,
}

struct NoteBuffer {
    notes: Mutex<Vec<TraceNote>>,
    dropped: AtomicU64,
}

fn note_buffer() -> &'static NoteBuffer {
    static NOTES: OnceLock<NoteBuffer> = OnceLock::new();
    NOTES.get_or_init(|| NoteBuffer {
        notes: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
    })
}

/// Record a diagnostic note. Notes are always on (failures are rare and
/// the message is precious), independent of the span toggle.
pub fn note(name: &'static str, message: impl Into<String>) {
    let ts_ns = Instant::now().duration_since(epoch()).as_nanos() as u64;
    let buffer = note_buffer();
    let mut notes = buffer.notes.lock().unwrap_or_else(PoisonError::into_inner);
    if notes.len() >= MAX_NOTES {
        buffer.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    notes.push(TraceNote {
        name,
        ts_ns,
        message: message.into(),
    });
}

/// Copy out every buffered note, ordered by timestamp.
pub fn collect_notes() -> Vec<TraceNote> {
    let mut all = note_buffer()
        .notes
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    all.sort_by_key(|n| n.ts_ns);
    all
}

/// Drain every buffered note; later calls see only newly recorded ones.
pub fn take_notes() -> Vec<TraceNote> {
    let mut all = std::mem::take(
        &mut *note_buffer()
            .notes
            .lock()
            .unwrap_or_else(PoisonError::into_inner),
    );
    all.sort_by_key(|n| n.ts_ns);
    all
}

/// Notes dropped because the buffer hit [`MAX_NOTES`].
pub fn dropped_notes() -> u64 {
    note_buffer().dropped.load(Ordering::Relaxed)
}

/// Spans dropped because a thread's buffer hit
/// [`MAX_EVENTS_PER_THREAD`].
pub fn dropped_spans() -> u64 {
    buffers()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|b| b.dropped.load(Ordering::Relaxed))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable flag is process-global; tests that flip it take this
    /// lock so the default parallel test runner cannot interleave them.
    fn toggle_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = toggle_lock();
        set_enabled(false);
        {
            let _s = span("test.disabled");
        }
        assert!(!collect_spans().iter().any(|e| e.name == "test.disabled"));
    }

    #[test]
    fn enabled_spans_record_name_arg_and_duration() {
        let _guard = toggle_lock();
        set_enabled(true);
        {
            let _s = span_with("test.enabled", "len", 42);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_enabled(false);
        let spans = collect_spans();
        let ours = spans
            .iter()
            .find(|e| e.name == "test.enabled")
            .expect("span recorded");
        assert_eq!(ours.arg, Some(("len", 42)));
        assert!(ours.dur_ns >= 1_000_000, "slept 1ms, got {}", ours.dur_ns);
    }

    #[test]
    fn spans_from_worker_threads_are_collected() {
        let _guard = toggle_lock();
        set_enabled(true);
        std::thread::spawn(|| {
            let _s = span!("test.worker_thread");
        })
        .join()
        .unwrap();
        set_enabled(false);
        assert!(collect_spans()
            .iter()
            .any(|e| e.name == "test.worker_thread"));
    }

    #[test]
    fn notes_record_messages_regardless_of_span_toggle() {
        let _guard = toggle_lock();
        set_enabled(false); // notes are independent of the span gate
        note("test.note", "panicked at 'boom'");
        let notes = collect_notes();
        let ours = notes
            .iter()
            .find(|n| n.name == "test.note")
            .expect("note recorded");
        assert_eq!(ours.message, "panicked at 'boom'");
        assert_eq!(dropped_notes(), 0);
    }

    #[test]
    fn spans_carry_ids_parents_and_links() {
        let _guard = toggle_lock();
        set_enabled(true);
        let origin_id;
        {
            let _outer = span("test.link.origin");
            origin_id = current_span_id();
            assert_ne!(origin_id, 0, "an open span has an id");
            let _inner = span_linked_with("test.link.child", "item", 3, origin_id);
        }
        assert_eq!(current_span_id(), 0, "stack empties when guards drop");
        set_enabled(false);
        let spans = collect_spans();
        let outer = spans
            .iter()
            .find(|e| e.name == "test.link.origin")
            .expect("origin recorded");
        let inner = spans
            .iter()
            .find(|e| e.name == "test.link.child")
            .expect("child recorded");
        assert_eq!(outer.id, origin_id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, origin_id, "same-thread nesting sets parent");
        assert_eq!(inner.link, origin_id, "explicit link survives");
        assert_ne!(inner.id, outer.id);
    }

    #[test]
    fn span_durations_flow_into_windowed_histograms() {
        let _guard = toggle_lock();
        set_enabled(true);
        {
            let _s = span("test.duration_window");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_enabled(false);
        let histogram = crate::metrics::histogram_owned("span.test.duration_window.ns".into());
        let windowed = histogram.windowed(60);
        assert!(windowed.count >= 1, "duration recorded into the window");
        assert!(
            windowed.percentile(0.99) >= 1_000_000,
            "p99 covers the 1ms sleep"
        );
    }

    #[test]
    fn buffer_overflow_counts_dropped_spans() {
        let _guard = toggle_lock();
        set_enabled(true);
        let before = crate::metrics::well_known::TRACE_SPANS_DROPPED.get();
        // A dedicated thread gets a fresh thread-local buffer, so the
        // overflow is deterministic and no sibling test's spans are
        // eaten by the full buffer.
        std::thread::spawn(|| {
            for _ in 0..(MAX_EVENTS_PER_THREAD + 10) {
                let _s = span("test.overflow");
            }
        })
        .join()
        .unwrap();
        set_enabled(false);
        assert!(dropped_spans() >= 10, "per-buffer drop counts advance");
        assert!(
            crate::metrics::well_known::TRACE_SPANS_DROPPED.get() >= before + 10,
            "the well-known counter mirrors the drops"
        );
    }

    #[test]
    fn span_macro_forms_compile() {
        let _guard = toggle_lock();
        set_enabled(true);
        let len = 7usize;
        {
            let _a = span!("test.macro.plain");
            let _b = span!("test.macro.ident", len);
            let _c = span!("test.macro.kv", "items" => 3);
        }
        set_enabled(false);
        let spans = collect_spans();
        assert!(spans
            .iter()
            .any(|e| e.name == "test.macro.ident" && e.arg == Some(("len", 7))));
        assert!(spans
            .iter()
            .any(|e| e.name == "test.macro.kv" && e.arg == Some(("items", 3))));
    }
}
