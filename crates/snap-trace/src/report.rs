//! The per-run [`ExecutionReport`] snapshot.
//!
//! [`crate::report()`] freezes every registered metric plus a summary
//! of the buffered spans into one value that renders as a
//! human-readable table ([`ExecutionReport::to_table`]) or as JSON
//! ([`ExecutionReport::to_json`]). Examples print the table; CI and
//! benches archive the JSON next to the Chrome trace.

use std::fmt::Write as _;

use crate::export::escape_json;
use crate::metrics::well_known::*;
use crate::metrics::{
    dynamic_counters, dynamic_gauges, dynamic_histograms, global_workers, known_counters,
    known_gauges, known_histograms, Counter, HistogramSnapshot,
};
use crate::span::{collect_notes, collect_spans, dropped_spans};

/// Aggregate of all recorded spans sharing one name.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// How many spans were recorded under this name.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// A point-in-time snapshot of every metric and span aggregate.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// `(name, value)` for every non-zero counter, name-sorted.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge, name-sorted.
    pub gauges: Vec<(&'static str, i64)>,
    /// Snapshot of every histogram with at least one sample.
    pub histograms: Vec<HistogramSnapshot>,
    /// Jobs executed per worker of the process-wide pool (empty until
    /// the pool exists).
    pub executed_per_worker: Vec<u64>,
    /// Per-name span aggregates, name-sorted.
    pub spans: Vec<SpanSummary>,
    /// Spans lost to full thread buffers.
    pub dropped_spans: u64,
    /// Diagnostic messages recorded by [`crate::note`] (panic payloads,
    /// degradation reasons), as `name: message`, timestamp-ordered.
    pub fault_messages: Vec<String>,
}

/// Snapshot the registry: counters, gauges, histograms, the global
/// pool's per-worker totals, and a per-name summary of buffered spans.
pub fn report() -> ExecutionReport {
    // Every known counter is kept, zero or not: the machine-readable
    // report is a *schema* — tools (trace_check, CI assertions) rely on
    // a counter being present even when its subsystem never ran. The
    // human table filters zeros for readability instead.
    let mut counters: Vec<(&'static str, u64)> = known_counters()
        .iter()
        .map(|k| k.metric)
        .chain(dynamic_counters())
        .map(|c| (c.name(), c.get()))
        .collect();
    counters.sort_by_key(|(name, _)| *name);

    let mut gauges: Vec<(&'static str, i64)> = known_gauges()
        .iter()
        .map(|k| k.metric)
        .chain(dynamic_gauges())
        .map(|g| (g.name(), g.get()))
        .collect();
    gauges.sort_by_key(|(name, _)| *name);

    let mut histograms: Vec<HistogramSnapshot> = known_histograms()
        .iter()
        .map(|k| k.metric)
        .chain(dynamic_histograms())
        .map(|h| h.snapshot())
        .filter(|snap| snap.count > 0)
        .collect();
    histograms.sort_by_key(|snap| snap.name);

    let mut by_name: Vec<SpanSummary> = Vec::new();
    for event in collect_spans() {
        match by_name.iter_mut().find(|s| s.name == event.name) {
            Some(summary) => {
                summary.count += 1;
                summary.total_ns += event.dur_ns;
                summary.max_ns = summary.max_ns.max(event.dur_ns);
            }
            None => by_name.push(SpanSummary {
                name: event.name,
                count: 1,
                total_ns: event.dur_ns,
                max_ns: event.dur_ns,
            }),
        }
    }
    by_name.sort_by_key(|s| s.name);

    ExecutionReport {
        counters,
        gauges,
        histograms,
        executed_per_worker: global_workers().map(|w| w.snapshot()).unwrap_or_default(),
        spans: by_name,
        dropped_spans: dropped_spans(),
        fault_messages: collect_notes()
            .into_iter()
            .map(|n| format!("{}: {}", n.name, n.message))
            .collect(),
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl ExecutionReport {
    /// Total jobs executed by the process-wide pool across all workers.
    pub fn pool_jobs_executed_total(&self) -> u64 {
        self.executed_per_worker.iter().sum()
    }

    /// Value of a counter by name (0 when absent / never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Render as an aligned human-readable table.
    pub fn to_table(&self) -> String {
        let count = |c: &Counter| self.counter(c.name());
        let mut out = String::new();
        out.push_str("snap-trace execution report\n");
        out.push_str("  counters\n");
        // Zero counters stay in the JSON schema but would drown the
        // human table; show only what actually fired.
        let fired: Vec<_> = self.counters.iter().filter(|(_, v)| *v > 0).collect();
        if fired.is_empty() {
            out.push_str("    (none)\n");
        }
        for (name, value) in fired {
            let _ = writeln!(out, "    {name:<28} {value:>12}");
        }
        out.push_str("  gauges\n");
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "    {name:<28} {value:>12}");
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms\n");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {:<28} n={} mean={:.1} min={} max={}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                );
            }
        }
        if !self.executed_per_worker.is_empty() {
            let _ = writeln!(
                out,
                "  pool workers: {} executed {:?} (total {})",
                self.executed_per_worker.len(),
                self.executed_per_worker,
                self.pool_jobs_executed_total()
            );
            // The work-stealing scheduler's dequeue breakdown, next to
            // the per-worker totals it explains: where each executed job
            // was dequeued from, how often workers slept, and how many
            // refused jobs ran inline on the submitter.
            let _ = writeln!(
                out,
                "  scheduler: local={} injector={} stolen={} parks={} inline={} spans_dropped={}",
                count(&POOL_DEQUEUE_LOCAL),
                count(&POOL_DEQUEUE_INJECTOR),
                count(&POOL_JOBS_STOLEN),
                count(&POOL_WORKER_PARKS),
                count(&POOL_JOBS_INLINE),
                count(&TRACE_SPANS_DROPPED),
            );
        }
        // The fault-tolerance line: every panicked attempt is either
        // retried or final, so panicked == retries + final — a reader
        // can check the reconciliation straight off the report.
        let panicked = count(&POOL_JOBS_PANICKED);
        let faulty = panicked > 0
            || count(&FAULT_DEADLINES_EXCEEDED) > 0
            || count(&FAULT_DEGRADED_RUNS) > 0
            || count(&FAULT_INJECTED_DELAYS) > 0;
        if faulty {
            let _ = writeln!(
                out,
                "  faults: panicked={} retries={} final={} deadline={} \
                 injected_panics={} injected_delays={} reassigned={} degraded={}",
                panicked,
                count(&FAULT_RETRIES_SCHEDULED),
                count(&FAULT_FAILURES_FINAL),
                count(&FAULT_DEADLINES_EXCEEDED),
                count(&FAULT_INJECTED_PANICS),
                count(&FAULT_INJECTED_DELAYS),
                count(&FAULT_ITEMS_REASSIGNED),
                count(&FAULT_DEGRADED_RUNS),
            );
        }
        if !self.fault_messages.is_empty() {
            out.push_str("  fault messages (most recent last)\n");
            // The tail is the interesting part of a long failure run.
            let skip = self.fault_messages.len().saturating_sub(16);
            if skip > 0 {
                let _ = writeln!(out, "    … {skip} earlier message(s) elided");
            }
            for message in &self.fault_messages[skip..] {
                let _ = writeln!(out, "    {message}");
            }
        }
        if !self.spans.is_empty() {
            out.push_str("  spans\n");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "    {:<28} n={:<6} total={:<10} max={}",
                    s.name,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.max_ns)
                );
            }
        }
        if self.dropped_spans > 0 {
            let _ = writeln!(out, "  dropped spans: {}", self.dropped_spans);
        }
        out
    }

    /// Render as a machine-readable JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(name, &mut out);
            let _ = write!(out, "\":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(name, &mut out);
            let _ = write!(out, "\":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(h.name, &mut out);
            let _ = write!(
                out,
                "\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            );
        }
        out.push_str("},\"executed_per_worker\":[");
        for (i, n) in self.executed_per_worker.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{n}");
        }
        out.push_str("],\"spans\":{");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(s.name, &mut out);
            let _ = write!(
                out,
                "\":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                s.count, s.total_ns, s.max_ns
            );
        }
        let _ = write!(out, "}},\"dropped_spans\":{}", self.dropped_spans);
        out.push_str(",\"fault_messages\":[");
        for (i, message) in self.fault_messages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(message, &mut out);
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::well_known;

    #[test]
    fn report_includes_incremented_counters() {
        well_known::RING_MAP_CALLS.incr();
        let report = report();
        assert!(report.counter("ring_map.calls") >= 1);
        assert!(report.to_table().contains("ring_map.calls"));
        assert!(report.to_json().contains("\"ring_map.calls\":"));
    }

    #[test]
    fn json_report_is_balanced() {
        let json = report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(json.contains("\"executed_per_worker\":["));
        assert!(json.contains("\"dropped_spans\":"));
    }

    #[test]
    fn absent_counter_reads_zero() {
        assert_eq!(report().counter("no.such.metric"), 0);
    }

    #[test]
    fn fault_counters_and_messages_surface_in_renderings() {
        well_known::POOL_JOBS_PANICKED.incr();
        well_known::FAULT_RETRIES_SCHEDULED.incr();
        crate::span::note("test.report_fault", "worker panic recorded");
        let report = report();
        assert!(report.counter("pool.jobs_panicked") >= 1);
        let table = report.to_table();
        assert!(table.contains("faults: panicked="));
        assert!(table.contains("fault messages (most recent last)"));
        assert!(table.contains("test.report_fault: worker panic recorded"));
        let json = report.to_json();
        assert!(json.contains("\"fault_messages\":["));
        assert!(json.contains("test.report_fault: worker panic recorded"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
