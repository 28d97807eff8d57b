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
    dynamic_counters, dynamic_histograms, global_workers, known_counters, known_gauges,
    known_histograms, Counter, HistogramSnapshot,
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
        .map(|k| (k.metric.name(), k.metric.get()))
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
        // The fault line: every panic is final, so panicked == final —
        // a reader can check the reconciliation straight off the report.
        let panicked = count(&POOL_JOBS_PANICKED);
        let faulty =
            panicked > 0 || count(&FAULT_DEGRADED_RUNS) > 0 || count(&FAULT_INJECTED_DELAYS) > 0;
        if faulty {
            let _ = writeln!(
                out,
                "  faults: panicked={} final={} injected_panics={} injected_delays={} degraded={}",
                panicked,
                count(&FAULT_FAILURES_FINAL),
                count(&FAULT_INJECTED_PANICS),
                count(&FAULT_INJECTED_DELAYS),
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
        well_known::FAULT_FAILURES_FINAL.incr();
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

    /// A report built by hand, so renderings can be checked exactly
    /// without the process-wide registry.
    fn built(counters: Vec<(&'static str, u64)>, fault_messages: Vec<String>) -> ExecutionReport {
        ExecutionReport {
            counters,
            gauges: vec![("test.gauge_row", -2)],
            histograms: Vec::new(),
            executed_per_worker: Vec::new(),
            spans: vec![SpanSummary {
                name: "test.span",
                count: 2,
                total_ns: 1_500_000,
                max_ns: 999,
            }],
            dropped_spans: 0,
            fault_messages,
        }
    }

    #[test]
    fn table_lists_only_counters_that_fired() {
        let quiet = built(vec![("test.silent", 0)], Vec::new()).to_table();
        assert!(quiet.contains("  counters\n    (none)\n"), "{quiet}");
        assert!(!quiet.contains("test.silent"));
        let busy = built(vec![("test.silent", 0), ("test.busy", 3)], Vec::new()).to_table();
        assert!(busy.contains("test.busy"));
        assert!(!busy.contains("test.silent"));
        assert!(!busy.contains("(none)"));
        // Gauges show at any value; spans render their durations in
        // the unit that fits; no pool line without workers.
        assert!(busy.contains("test.gauge_row"));
        assert!(busy.contains("total=1.50ms"));
        assert!(busy.contains("max=999ns"));
        assert!(!busy.contains("pool workers"));
    }

    #[test]
    fn table_keeps_only_the_last_sixteen_fault_messages() {
        let messages: Vec<String> = (0..20)
            .map(|i| format!("test.note: message {i:02}"))
            .collect();
        let table = built(Vec::new(), messages).to_table();
        assert!(table.contains("… 4 earlier message(s) elided"));
        for i in 0..4 {
            assert!(!table.contains(&format!("message {i:02}")), "{table}");
        }
        for i in 4..20 {
            assert!(table.contains(&format!("message {i:02}")), "{table}");
        }
        let last = table.find("message 19").unwrap();
        assert!(table.find("message 04").unwrap() < last, "oldest first");
    }

    #[test]
    fn durations_pick_the_unit_by_magnitude() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_000), "1.00µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn json_of_a_built_report_is_exact() {
        let mut report = built(vec![("test.a", 1)], vec!["n: \"q\"\tx".to_string()]);
        report.executed_per_worker = vec![3, 4];
        report.dropped_spans = 5;
        assert_eq!(
            report.to_json(),
            "{\"counters\":{\"test.a\":1},\"gauges\":{\"test.gauge_row\":-2},\
             \"histograms\":{},\"executed_per_worker\":[3,4],\
             \"spans\":{\"test.span\":{\"count\":2,\"total_ns\":1500000,\"max_ns\":999}},\
             \"dropped_spans\":5,\"fault_messages\":[\"n: \\\"q\\\"\\tx\"]}"
        );
        assert_eq!(report.pool_jobs_executed_total(), 7);
        assert!(report.to_table().contains("dropped spans: 5"));
    }
}
