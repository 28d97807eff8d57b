//! The traced run's backend: the stock worker backend, timed from
//! outside, with the block's public phases replayed for the ledger.
//!
//! Each block call is one `snap-parallel.block` span around the real
//! call. After it returns, the backend replays the block's phases —
//! `ring_map_faulted` or `ring_map_pairs_faulted`, then for MapReduce
//! `combine_pairs` (when the block would combine), `shuffle` and
//! `ring_reduce_groups_faulted` — `REPLAYS` times on copies of the
//! same input, checks that every replay's output equals the block's, and
//! records the phases of the fastest replay as the block's children. The
//! copies and the replays are the tracer's own work (`trace.*` spans)
//! and leave the run's wall time.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use snap_ast::{EvalError, Ring, Value};
use snap_parallel::{
    associative_fold_op, combine_pairs, shuffle, WorkerBackend, COMBINE_MIN_PAIRS,
};
use snap_vm::ParallelBackend;
use snap_workers::{
    ring_map_faulted, ring_map_pairs_faulted, ring_reduce_groups_faulted, ExecMode, RingMapOptions,
};

use crate::ledger::{Counters, Recorder, SpanId};

/// A green-flag run, green flag to idle: the root span.
pub const RUN: &str = "run";
/// The real block call.
pub const BLOCK: &str = "snap-parallel.block";
/// Replayed map phase.
pub const MAP: &str = "snap-workers.map";
/// Replayed map-side combine.
pub const COMBINE: &str = "snap-parallel.combine";
/// Replayed shuffle.
pub const SHUFFLE: &str = "snap-parallel.shuffle";
/// Replayed reduce phase.
pub const REDUCE: &str = "snap-workers.reduce";

/// Replays per block call. The block runs once, so its phases are
/// estimated from the fastest of a few replays: a single replay slowed
/// by the host would claim more time than the block took.
const REPLAYS: usize = 3;

/// What the tracer learned during one green-flag run.
#[derive(Debug, Clone, Default)]
pub struct RunFacts {
    /// Pairs the replayed map phase emitted (MapReduce only).
    pub map_pairs: u64,
    /// Pairs that entered the replayed shuffle.
    pub shuffle_pairs: u64,
    /// Replays whose output differed from the block's, or failed.
    pub mismatches: u64,
    /// Counter movement caused by the replays, to be taken out of the
    /// run's counter deltas.
    pub replay_counters: Counters,
}

/// The rings and input of the most recent block call, kept for the
/// ring-level measurements.
#[derive(Debug, Clone)]
pub struct LastCall {
    /// The mapper (or `parallelMap`'s ring), then the reducer if any.
    pub rings: Vec<Arc<Ring>>,
    /// A copy of the block's input list.
    pub input: Vec<Value>,
}

/// One replay of a block's phases.
#[derive(Default)]
struct Replay {
    /// `(span name, start, end)` of each phase, in order.
    phases: Vec<(&'static str, Instant, Instant)>,
    /// Pairs the map phase emitted (MapReduce only).
    map_pairs: u64,
    /// Pairs that entered the shuffle.
    shuffle_pairs: u64,
}

impl Replay {
    /// Time `f` as phase `name`.
    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.phases.push((name, start, Instant::now()));
        out
    }

    fn busy(&self) -> Duration {
        self.phases.iter().map(|&(_, start, end)| end - start).sum()
    }
}

#[derive(Default)]
struct State {
    recorder: Recorder,
    /// `(run id, root span)` of the run in progress.
    run: Option<(u32, SpanId)>,
    facts: RunFacts,
    last: Option<LastCall>,
}

/// A [`ParallelBackend`] owned by the benchmark that wraps the stock
/// [`WorkerBackend`].
#[derive(Default)]
pub struct TracingBackend {
    inner: WorkerBackend,
    state: Mutex<State>,
}

impl TracingBackend {
    fn state(&self) -> MutexGuard<'_, State> {
        // Every update leaves the state whole, so a poisoned lock (a
        // panic elsewhere while held) still holds usable data.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open run `run`'s root span; block calls until
    /// [`TracingBackend::end_run`] are attributed to it.
    pub fn begin_run(&self, run: u32) {
        let mut state = self.state();
        let root = state.recorder.open(RUN, run, None);
        state.run = Some((run, root));
        state.facts = RunFacts::default();
    }

    /// Close the run's root span; returns it with what the run taught.
    pub fn end_run(&self) -> (SpanId, RunFacts) {
        let mut state = self.state();
        let (_, root) = state.run.take().expect("end_run follows begin_run");
        state.recorder.close(root);
        (root, std::mem::take(&mut state.facts))
    }

    /// Every span recorded so far.
    pub fn with_recorder<R>(&self, f: impl FnOnce(&Recorder) -> R) -> R {
        f(&self.state().recorder)
    }

    /// The rings and input of the most recent block call.
    pub fn last_call(&self) -> Option<LastCall> {
        self.state().last.clone()
    }

    /// Open a span as a child of the run's root.
    fn open(&self, name: &'static str) -> SpanId {
        let mut state = self.state();
        let (run, root) = state.run.expect("block calls happen inside a traced run");
        state.recorder.open(name, run, Some(root))
    }

    fn close(&self, id: SpanId) {
        self.state().recorder.close(id);
    }

    /// Copy the input, run `real` inside the block span, then run
    /// `replay` [`REPLAYS`] times inside a `trace.replay` span, compare
    /// each output with the block's and keep the fastest replay's phases.
    fn traced_block(
        &self,
        rings: Vec<Arc<Ring>>,
        items: Vec<Value>,
        real: impl FnOnce(Vec<Value>) -> Result<Vec<Value>, EvalError>,
        replay: impl Fn(&mut Replay, Vec<Value>) -> Result<Vec<Value>, EvalError>,
    ) -> Result<Vec<Value>, EvalError> {
        let copy = self.open("trace.copy");
        let input = items.clone();
        self.close(copy);

        let block = self.open(BLOCK);
        let out = real(items);
        self.close(block);

        let replay_span = self.open("trace.replay");
        let before = Counters::snapshot();
        let mut fastest: Option<Replay> = None;
        let mut mismatches = 0;
        for _ in 0..REPLAYS {
            let mut this = Replay::default();
            let replayed = replay(&mut this, input.clone());
            mismatches += u64::from(!matches!((&out, &replayed), (Ok(a), Ok(b)) if a == b));
            if fastest.as_ref().is_none_or(|f| this.busy() < f.busy()) {
                fastest = Some(this);
            }
        }
        let moved = before.delta(&Counters::snapshot());
        let fastest = fastest.expect("REPLAYS > 0");
        {
            let mut state = self.state();
            let (run, _) = state.run.expect("block calls happen inside a traced run");
            for &(name, start, end) in &fastest.phases {
                state.recorder.record(name, run, Some(block), start, end);
            }
            state.facts.map_pairs += fastest.map_pairs;
            state.facts.shuffle_pairs += fastest.shuffle_pairs;
            state.facts.mismatches += mismatches;
            state.facts.replay_counters = state.facts.replay_counters.plus(&moved);
            state.last = Some(LastCall { rings, input });
        }
        self.close(replay_span);
        out
    }
}

/// The options the stock backend runs every block with.
fn options(workers: usize) -> RingMapOptions {
    RingMapOptions {
        workers,
        ..Default::default()
    }
}

impl ParallelBackend for TracingBackend {
    fn parallel_map(
        &self,
        ring: Arc<Ring>,
        items: Vec<Value>,
        workers: usize,
    ) -> Result<Vec<Value>, EvalError> {
        self.traced_block(
            vec![ring.clone()],
            items,
            |items| self.inner.parallel_map(ring.clone(), items, workers),
            |replay, input| {
                replay.phase(MAP, || {
                    ring_map_faulted(ring.clone(), input, options(workers)).map_err(Into::into)
                })
            },
        )
    }

    fn map_reduce(
        &self,
        mapper: Arc<Ring>,
        reducer: Arc<Ring>,
        items: Vec<Value>,
        workers: usize,
    ) -> Result<Vec<Value>, EvalError> {
        self.traced_block(
            vec![mapper.clone(), reducer.clone()],
            items,
            |items| {
                self.inner
                    .map_reduce(mapper.clone(), reducer.clone(), items, workers)
            },
            |replay, input| {
                let pairs = replay.phase(MAP, || {
                    ring_map_pairs_faulted(mapper.clone(), input, options(workers))
                })?;
                replay.map_pairs = pairs.len() as u64;
                let pairs = match associative_fold_op(&reducer) {
                    Some(op) if pairs.len() >= COMBINE_MIN_PAIRS => replay.phase(COMBINE, || {
                        combine_pairs(pairs, op, workers, ExecMode::Pooled)
                    }),
                    _ => pairs,
                };
                replay.shuffle_pairs = pairs.len() as u64;
                let groups = replay.phase(SHUFFLE, || shuffle(pairs));
                replay.phase(REDUCE, || {
                    ring_reduce_groups_faulted(reducer.clone(), groups, options(workers))
                        .map_err(Into::into)
                })
            },
        )
    }

    fn name(&self) -> &'static str {
        "traced-worker-pool"
    }
}
