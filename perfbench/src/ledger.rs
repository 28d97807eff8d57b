//! The layer ledger: spans, self time, percentiles and counter deltas.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (never inside the program), kept in memory and written out as JSONL
//! when the benchmark ends. A layer's self time is its span's duration
//! minus the summed durations of its direct children.

use std::io::{self, Write};
use std::time::Instant;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `snap-parallel.block`.
    pub name: &'static str,
    /// Green-flag run this span belongs to.
    pub run: u32,
    /// The span it is attributed to (`None` for a run's root span).
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (the start while
    /// the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds (0 while the span is still open).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, run: u32, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, run, parent, now, now)
    }

    /// Close an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record a span that was timed elsewhere, from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        run: u32,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            run,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"run\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of span `id`: its duration minus the summed durations of
/// its direct children (grandchildren are already inside a child),
/// floored at zero.
pub fn self_ns(spans: &[Span], id: SpanId) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::dur_ns)
        .sum();
    spans[id].dur_ns().saturating_sub(children)
}

/// Time recorded under one span name in one run, in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Span name.
    pub name: &'static str,
    /// Summed self time.
    pub self_ms: f64,
    /// Summed duration.
    pub total_ms: f64,
}

/// The layer ledger of one traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLedger {
    /// The run's wall time less the tracer's own work (`trace.*`), ms.
    pub wall_ms: f64,
    /// Every layer span name of the run, `trace.*` excluded.
    pub layers: Vec<Layer>,
}

impl RunLedger {
    /// Build the ledger of the run rooted at span `root`. Tracer spans
    /// (`trace.*`) are the benchmark's own work: they leave the wall
    /// time and the ledger.
    pub fn of_run(spans: &[Span], root: SpanId) -> RunLedger {
        let run = spans[root].run;
        let tracer_ns: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.name.starts_with("trace."))
            .map(Span::dur_ns)
            .sum();
        let mut layers: Vec<Layer> = Vec::new();
        for (id, s) in spans.iter().enumerate() {
            if s.run != run || s.name.starts_with("trace.") {
                continue;
            }
            let (self_ms, total_ms) = (ns_to_ms(self_ns(spans, id)), ns_to_ms(s.dur_ns()));
            match layers.iter_mut().find(|l| l.name == s.name) {
                Some(l) => {
                    l.self_ms += self_ms;
                    l.total_ms += total_ms;
                }
                None => layers.push(Layer {
                    name: s.name,
                    self_ms,
                    total_ms,
                }),
            }
        }
        RunLedger {
            wall_ms: ns_to_ms(spans[root].dur_ns().saturating_sub(tracer_ns)),
            layers,
        }
    }

    fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Self time recorded under `name` (0 when the layer did not run).
    pub fn self_ms(&self, name: &str) -> f64 {
        self.layer(name).map_or(0.0, |l| l.self_ms)
    }

    /// Duration recorded under `name` (0 when the layer did not run).
    pub fn total_ms(&self, name: &str) -> f64 {
        self.layer(name).map_or(0.0, |l| l.total_ms)
    }

    /// Summed layer self times over the run's wall time. The outside-in
    /// spans cover the whole run, so this is never below 1: it rises
    /// above 1 by as much as the replayed phases overran the real block.
    pub fn layers_over_wall(&self) -> f64 {
        let total: f64 = self.layers.iter().map(|l| l.self_ms).sum();
        total / self.wall_ms
    }

    /// The median self time of every layer, summed, over the median
    /// wall time of `runs`: whether the per-layer figures reported for
    /// these runs add up to their run time. Unlike one run's ratio, this
    /// can fall below 1 as well as rise above it. Panics on no runs.
    pub fn medians_over_wall(runs: &[RunLedger]) -> f64 {
        let mut names: Vec<&str> = runs
            .iter()
            .flat_map(|r| r.layers.iter().map(|l| l.name))
            .collect();
        names.sort_unstable();
        names.dedup();
        let of = |f: &dyn Fn(&RunLedger) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        let layers: f64 = names.iter().map(|name| of(&|r| r.self_ms(name))).sum();
        layers / of(&|r| r.wall_ms)
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nearest-rank median (the lower middle sample for an even count).
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    sorted(samples)[(samples.len() - 1) / 2]
}

/// The `p`-th percentile (0 < p < 1) by nearest rank, never
/// interpolated. `None` unless at least [`MIN_TAIL_SAMPLES`] samples lie
/// beyond it, so p90 needs 100 samples.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A snapshot of every snap-trace counter, by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    /// Snapshot the process's counters through [`snap_trace::report()`].
    pub fn snapshot() -> Counters {
        Counters(snap_trace::report().counters)
    }

    /// Value of a counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Per-counter `later − self`: what happened between two snapshots.
    pub fn delta(&self, later: &Counters) -> Counters {
        Counters(
            later
                .0
                .iter()
                .map(|&(name, v)| (name, v.saturating_sub(self.get(name))))
                .collect(),
        )
    }

    /// Per-counter `self − other`, floored at zero: a run's delta with
    /// the tracer's own replay work taken out.
    pub fn minus(&self, other: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|&(name, v)| (name, v.saturating_sub(other.get(name))))
                .collect(),
        )
    }

    /// Per-counter sum.
    pub fn plus(&self, other: &Counters) -> Counters {
        let mut out = self.0.clone();
        for &(name, v) in &other.0 {
            match out.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += v,
                None => out.push((name, v)),
            }
        }
        Counters(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            run: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0, 100) ⊃ block [10, 90) ⊃ map [20, 50) ⊃ inner [25, 35)
        let spans = vec![
            span("run", None, 0, 100),
            span("block", Some(0), 10, 90),
            span("map", Some(1), 20, 50),
            span("inner", Some(2), 25, 35),
        ];
        assert_eq!(self_ns(&spans, 0), 20);
        assert_eq!(self_ns(&spans, 1), 50);
        assert_eq!(self_ns(&spans, 2), 20);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn self_time_subtracts_every_sibling_and_floors_at_zero() {
        let spans = vec![
            span("block", None, 0, 100),
            span("map", Some(0), 0, 40),
            span("combine", Some(0), 40, 70),
            span("shuffle", Some(0), 70, 75),
        ];
        assert_eq!(self_ns(&spans, 0), 25);
        // Children longer than their parent (a replay slower than the
        // block it stands for) leave no negative self time.
        let over = vec![span("block", None, 0, 10), span("map", Some(0), 20, 35)];
        assert_eq!(self_ns(&over, 0), 0);
    }

    #[test]
    fn run_ledger_excludes_tracer_spans_and_adds_up() {
        let spans = vec![
            span("run", None, 0, 1_000_000),
            span("trace.copy", Some(0), 0, 100_000),
            span("snap-parallel.block", Some(0), 100_000, 800_000),
            span("trace.replay", Some(0), 800_000, 1_000_000),
            span("snap-workers.map", Some(2), 800_000, 900_000),
            span("snap-parallel.shuffle", Some(2), 900_000, 1_000_000),
        ];
        let ledger = RunLedger::of_run(&spans, 0);
        assert_eq!(ledger.wall_ms, 0.7);
        assert_eq!(ledger.self_ms("run"), 0.0);
        assert_eq!(ledger.self_ms("snap-parallel.block"), 0.5);
        assert_eq!(ledger.total_ms("snap-parallel.block"), 0.7);
        assert_eq!(ledger.self_ms("snap-workers.map"), 0.1);
        assert_eq!(ledger.self_ms("trace.copy"), 0.0);
        assert!((ledger.layers_over_wall() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replayed_phases_slower_than_the_block_show_as_overrun() {
        // run 100 µs = VM 40 + block 60; the replayed phases take 72.
        let spans = vec![
            span("run", None, 0, 100_000),
            span("snap-parallel.block", Some(0), 40_000, 100_000),
            span("snap-workers.map", Some(1), 100_000, 150_000),
            span("snap-parallel.shuffle", Some(1), 150_000, 172_000),
        ];
        let ledger = RunLedger::of_run(&spans, 0);
        assert_eq!(ledger.self_ms("snap-parallel.block"), 0.0);
        assert!((ledger.layers_over_wall() - 1.12).abs() < 1e-12);
    }

    #[test]
    fn medians_of_layers_can_fall_short_of_the_wall_time() {
        // A 100 µs run whose block takes `block_ns`; the VM has the rest.
        let run = |block_ns: u64| {
            let spans = vec![
                span("run", None, 0, 100_000),
                span("snap-parallel.block", Some(0), 100_000 - block_ns, 100_000),
            ];
            RunLedger::of_run(&spans, 0)
        };
        let runs = [run(80_000), run(20_000), run(80_000)];
        assert!(runs
            .iter()
            .all(|r| (r.layers_over_wall() - 1.0).abs() < 1e-12));
        // Each run adds up, but over the first two the medians (the lower
        // middle sample) of the VM and the block are 20 µs each.
        assert!((RunLedger::medians_over_wall(&runs[..2]) - 0.4).abs() < 1e-12);
        assert!((RunLedger::medians_over_wall(&runs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_keep_their_own_times() {
        let mut recorder = Recorder::default();
        let start = Instant::now();
        let end = start + std::time::Duration::from_micros(250);
        let root = recorder.open("run", 0, None);
        let phase = recorder.record("snap-workers.map", 0, Some(root), start, end);
        recorder.close(root);
        assert_eq!(recorder.spans()[phase].dur_ns(), 250_000);
        assert_eq!(recorder.spans()[phase].parent, Some(root));
    }

    #[test]
    fn p90_needs_a_hundred_samples_and_is_never_interpolated() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&samples, 0.5), Some(50.0));
        assert_eq!(tail_percentile(&samples[..99], 0.9), None);
        // 19 samples leave only 9 beyond the median.
        assert_eq!(tail_percentile(&samples[..19], 0.5), None);
        // Nearest rank reports a sample: 900, where linear interpolation
        // between the 90th and 91st of 10, 20, …, 1000 would give 901.
        let tens: Vec<f64> = (1..=100).rev().map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(tail_percentile(&tens, 0.9), Some(900.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn counter_deltas_come_from_the_report() {
        let probe = snap_trace::counter("perfbench.ledger_test_probe");
        let before = Counters::snapshot();
        probe.add(3);
        let after = Counters::snapshot();
        let delta = before.delta(&after);
        assert_eq!(delta.get("perfbench.ledger_test_probe"), 3);
        let replay = Counters(vec![("perfbench.ledger_test_probe", 1)]);
        assert_eq!(delta.minus(&replay).get("perfbench.ledger_test_probe"), 2);
        assert_eq!(
            replay.plus(&replay).get("perfbench.ledger_test_probe"),
            2,
            "sums add per name"
        );
        assert_eq!(delta.get("no.such.counter"), 0);
    }
}
