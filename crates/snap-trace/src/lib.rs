//! # snap-trace — unified tracing, metrics, and run reports
//!
//! The paper's headline claims are quantitative (parallelMap speedups,
//! the concession stand's 12-vs-3 timesteps); this crate is the
//! instrumentation substrate that makes those numbers observable in our
//! runtime instead of asserted. Three layers, all lock-cheap:
//!
//! * **Metrics** — [`Counter`] / [`Gauge`] / [`Histogram`] statics
//!   behind a global registry (plus interned ad-hoc metrics): pool jobs
//!   submitted/executed/refused, queue depth, chunk claims, compile
//!   cache hits/misses, shuffle runs and partition sizes, VM frames and
//!   process spawns. Updates are single relaxed atomic RMWs and are
//!   always live.
//! * **Spans** — [`span!`]`("ring_map", len)` records scoped wall-time
//!   begin/end events into per-thread buffers, gated behind a runtime
//!   toggle ([`set_enabled`]) so a disabled span costs one atomic load.
//!   Export as Chrome `trace_event` JSON ([`chrome_trace_json`]) or
//!   JSONL ([`spans_jsonl`]).
//! * **Reports** — [`report()`] snapshots everything into an
//!   [`ExecutionReport`] with table and JSON renderings.
//!
//! Building the crate with `--no-default-features` compiles every
//! instrumentation site down to a no-op (the `enabled` feature).
//!
//! ```
//! snap_trace::set_enabled(true);
//! {
//!     let _s = snap_trace::span!("demo.work", "items" => 3);
//!     snap_trace::well_known::RING_MAP_CALLS.incr();
//! }
//! snap_trace::set_enabled(false);
//! let report = snap_trace::report();
//! assert!(report.counter("ring_map.calls") >= 1);
//! let trace = snap_trace::chrome_trace_json(&snap_trace::collect_spans());
//! assert!(trace.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod serve;
pub mod span;
pub mod window;

pub use export::{chrome_trace_json, chrome_trace_json_with_notes, spans_jsonl};
pub use metrics::{
    counter, global_workers, histogram_owned, register_global_workers, well_known, Counter, Gauge,
    Histogram, HistogramSnapshot, WorkerCounters,
};
pub use profile::{profile_for, register_thread, sample_once, Profile, ProfilerHandle};
pub use report::{report, ExecutionReport, SpanSummary};
pub use serve::{prometheus_text, serve, MetricsServer};
pub use span::{
    collect_notes, collect_spans, current_span_id, dropped_notes, dropped_spans, enabled, note,
    set_enabled, span, span_linked, span_linked_with, span_with, take_notes, take_spans, SpanEvent,
    SpanGuard, TraceNote,
};
pub use window::{WINDOW_SECS, WINDOW_SLOTS};
