//! Shipping rings to workers.
//!
//! The paper's `reportParallelMap` (Listing 2) extracts the user's ringed
//! operator from the stack frame, renders it to source with
//! `mappedCode()`, wraps it in `new Function(...)`, and hands it to
//! Parallel.js; the list data is copied to each Web Worker by
//! `postMessage`'s structured clone. [`ring_map`] is that pipeline in
//! Rust: compile the ring to a [`PureFn`] (compile-time purity check
//! instead of "hope the JS works in the worker"), deep-copy each item
//! across the thread boundary, evaluate, deep-copy the result back.
//!
//! Compilation goes further than the paper's `new Function`: a numeric
//! ring's `PureFn` from [`compile_cached`] carries an unboxed `f64`
//! register program (see `snap_ast::bytecode`), so every execution path
//! that flows through here — pooled, work-stolen, fault-retried,
//! spawn-per-call — runs it per item; every other ring runs on the tree
//! walk. On top of that sits the **columnar batch tier**: when the ring
//! is batchable and every list element is a `Value::Number`, the map
//! unboxes the list once, moves flat `f64` chunks through the pool, and
//! runs `eval_batch` per chunk with no per-element dispatch at all (see
//! [`ColumnarPolicy`]). The ladder is columnar batch → numeric scalar →
//! tree walk; the `ring.batch_calls` / `ring.fastpath_calls` /
//! `ring.treewalk_calls` counters show which tier a run used.
//!
//! The same rung covers MapReduce's `[key, value]` mappers:
//! [`ring_map_keyed`] runs a mapper's [`PairProgram`] as a key column and
//! an `f64` value column per chunk, so no two-item list is ever built.

use std::fmt;
use std::sync::Arc;

use snap_ast::bytecode::{NumProgram, PairKey, PairProgram};
use snap_ast::pure::{as_map_pair, compile_cached, PureFn};
use snap_ast::{EvalError, Ring, Value};

use crate::executor::{columnar_chunk_size, try_map_slice_with, ExecMode};
use crate::fault::{ExecError, FaultPolicy};
use crate::parallel::Strategy;

/// Whether values crossing the worker boundary are structured-cloned
/// (the Web Worker model) or shared (what raw threads allow). `Share` is
/// only for the `ablate_copy` bench — it quantifies what the copy costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Isolation {
    /// Deep-copy inputs into the worker and results out of it.
    #[default]
    Copy,
    /// Share list storage across threads (safe in Rust — `List` is a
    /// lock-protected `Arc` — but not what Web Workers do).
    Share,
}

/// Whether [`ring_map`] may route all-numeric lists through the
/// columnar batch tier (flat `f64` chunks + `eval_batch`, boxing
/// deferred to the output seam) instead of per-element calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnarPolicy {
    /// Batch when the ring is batchable and every element is a
    /// `Value::Number` (and the list is big enough to pay for the scan).
    #[default]
    Auto,
    /// Always evaluate per element — the ablation baseline, and the
    /// knob differential tests flip to prove output equivalence.
    Disabled,
}

/// Don't bother scanning tiny lists for numeric-ness: below this the
/// per-element path is already cheap. Public so tests and benches can
/// size inputs relative to the threshold.
pub const COLUMNAR_MIN_ITEMS: usize = 16;

/// Options for [`ring_map`].
#[derive(Debug, Clone, Copy)]
pub struct RingMapOptions {
    /// Worker count (clamped to ≥ 1).
    pub workers: usize,
    /// Work-distribution strategy.
    pub strategy: Strategy,
    /// Boundary-crossing semantics.
    pub isolation: Isolation,
    /// Pooled (default) or spawn-per-call execution.
    pub exec: ExecMode,
    /// Simulated per-item service time, slept by the worker before
    /// evaluating. Models latency-bound items (a drink takes time to
    /// pour, a request takes time to answer) so worker scaling is
    /// observable even on single-core hosts; `None` for real workloads.
    pub latency: Option<std::time::Duration>,
    /// Fault policy for the call. The default (no retries, no deadline)
    /// reproduces the pre-fault-tolerance behaviour exactly.
    pub policy: FaultPolicy,
    /// Columnar batch tier: on by default, off for ablation.
    pub columnar: ColumnarPolicy,
}

impl Default for RingMapOptions {
    fn default() -> Self {
        RingMapOptions {
            workers: crate::parallel::default_workers(),
            strategy: Strategy::Dynamic,
            isolation: Isolation::Copy,
            exec: ExecMode::Pooled,
            latency: None,
            policy: FaultPolicy::default(),
            columnar: ColumnarPolicy::default(),
        }
    }
}

/// Failure of a fault-aware ring map: either the user's ring reported an
/// evaluation error, or the execution layer itself failed (retry budget
/// exhausted, deadline exceeded). Callers that degrade gracefully match
/// on [`RingMapError::Exec`] to pick the fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum RingMapError {
    /// The ring itself reported an error on some item.
    Eval(EvalError),
    /// The execution layer failed (panics beyond the retry budget, or
    /// the call deadline passed).
    Exec(ExecError),
}

impl fmt::Display for RingMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingMapError::Eval(e) => write!(f, "{e}"),
            RingMapError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RingMapError {}

impl From<RingMapError> for EvalError {
    fn from(err: RingMapError) -> EvalError {
        match err {
            RingMapError::Eval(e) => e,
            RingMapError::Exec(e) => EvalError::Other(e.to_string()),
        }
    }
}

/// Apply a reporter ring to every item in parallel. Results come back in
/// input order; the first error (if any) is reported. Execution-layer
/// failures (retry exhaustion, deadline) are flattened into
/// [`EvalError::Other`]; callers that need to tell them apart use
/// [`ring_map_faulted`].
pub fn ring_map(
    ring: Arc<Ring>,
    items: Vec<Value>,
    options: RingMapOptions,
) -> Result<Vec<Value>, EvalError> {
    ring_map_faulted(ring, items, options).map_err(EvalError::from)
}

/// [`ring_map`] with the execution-layer failure kept distinct: the
/// fault-aware entry point for callers that degrade gracefully (the
/// parallel blocks fall back to a sequential map on
/// [`ExecError::RetriesExhausted`], but propagate deadline errors).
/// Takes the items by reference or by value; either way it only reads
/// them, so a caller that must be able to re-run the map keeps its own
/// list instead of a copy.
pub fn ring_map_faulted(
    ring: Arc<Ring>,
    items: impl AsRef<[Value]>,
    options: RingMapOptions,
) -> Result<Vec<Value>, RingMapError> {
    let items = items.as_ref();
    let len = items.len();
    snap_trace::well_known::RING_MAP_CALLS.incr();
    snap_trace::well_known::RING_MAP_ITEMS.add(len as u64);
    let _span = snap_trace::span!("ring_map", len);
    let f = compile_cached(&ring).map_err(RingMapError::Eval)?;
    if columnar_applies(&options, len) {
        if let Some(inputs) = f.is_batchable().then(|| columnar_f64(items)).flatten() {
            return columnar_map(&f, inputs, &options);
        }
        // A batch-sized map stayed on the per-element path: either the
        // ring is not batchable or the list is not all-numeric.
        snap_trace::well_known::RING_BATCH_FALLBACKS.incr();
    }
    let results = try_map_slice_with(
        items,
        options.workers,
        options.strategy,
        options.exec,
        &options.policy,
        |item| {
            if let Some(latency) = options.latency {
                std::thread::sleep(latency);
            }
            let input = match options.isolation {
                Isolation::Copy => item.deep_copy(),
                Isolation::Share => item.clone(),
            };
            f.call1(input).map(|v| match options.isolation {
                Isolation::Copy => v.deep_copy(),
                Isolation::Share => v,
            })
        },
    )
    .map_err(RingMapError::Exec)?;
    results
        .into_iter()
        .collect::<Result<Vec<Value>, EvalError>>()
        .map_err(RingMapError::Eval)
}

/// Whether `options` let a map of `len` items onto the columnar tier:
/// `ColumnarPolicy::Auto`, no simulated latency, and enough items to pay
/// for the detection scan.
fn columnar_applies(options: &RingMapOptions, len: usize) -> bool {
    options.columnar == ColumnarPolicy::Auto
        && options.latency.is_none()
        && len >= COLUMNAR_MIN_ITEMS
}

/// The columnar detection scan: `Some(flat f64s)` when every element is
/// a `Value::Number`, `None` at the first non-number. One pass, no
/// boxing — `to_number` of a `Number` is the identity, so the flat view
/// feeds `eval_batch` the exact values per-element calls would coerce.
fn columnar_f64(items: &[Value]) -> Option<Vec<f64>> {
    let mut flat = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Number(n) => flat.push(*n),
            _ => return None,
        }
    }
    Some(flat)
}

/// The columnar batch tier of [`ring_map_faulted`]: the list moves
/// through the work-stealing pool as flat `f64` chunk descriptors, each
/// task runs one [`PureFn::eval_batch`] over its sub-slice, and results
/// are boxed back to `Value`s only at the single output seam below.
///
/// Chunks are deliberately coarse ([`columnar_chunk_size`]): batch
/// arithmetic is so cheap per element that fine-grained claiming is all
/// overhead. The fault policy still applies — at chunk granularity: an
/// injected panic retries the whole chunk, and exhausted budgets surface
/// as [`RingMapError::Exec`] so callers degrade exactly as they do for
/// the per-element path. Isolation needs no handling here: numbers are
/// plain copies either way.
fn columnar_map(
    f: &PureFn,
    inputs: Vec<f64>,
    options: &RingMapOptions,
) -> Result<Vec<Value>, RingMapError> {
    let len = inputs.len();
    let _span = snap_trace::span!("columnar_map", len);
    let chunks = chunk_ranges(len, columnar_chunk_size(len, options.workers));
    let outputs = try_map_slice_with(
        &chunks,
        options.workers,
        options.strategy,
        options.exec,
        &options.policy,
        |range| {
            snap_trace::well_known::PAR_COLUMNAR_CHUNKS.incr();
            let mut out = Vec::with_capacity(range.len());
            let batched = f.eval_batch(&inputs[range.clone()], &mut out);
            debug_assert!(batched, "columnar_map requires a batchable ring");
            out
        },
    )
    .map_err(RingMapError::Exec)?;
    // The boxing seam: flat chunk outputs become Values exactly once,
    // in input order.
    let mut values = Vec::with_capacity(len);
    for chunk in outputs {
        values.extend(chunk.into_iter().map(Value::Number));
    }
    Ok(values)
}

/// `0..len` cut into consecutive ranges of `chunk` items (the last may
/// be shorter).
fn chunk_ranges(len: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = chunk.max(1);
    (0..len)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(len))
        .collect()
}

/// One chunk's keys in [`ring_map_keyed`].
#[derive(Debug)]
pub enum KeyColumn<'a> {
    /// The key is the argument: the chunk's items are its keys.
    Items(&'a [Value]),
    /// Every item has this key.
    Const(&'a Value),
    /// Keys computed by the pair's numeric key program, one per item.
    Numbers(Vec<f64>),
}

/// What one [`ring_map_keyed`] call ran, kept off the counters until
/// [`KeyedTally::count`]: a caller that declines the folds and maps the
/// items again on another path drops it, so each item is counted by the
/// one path whose result is used.
#[derive(Debug, Clone, Copy, Default)]
#[must_use = "a keyed map the caller keeps is counted by `count`"]
pub struct KeyedTally {
    chunks: u64,
    batches: u64,
    batch_elems: u64,
    scalar_items: u64,
}

impl KeyedTally {
    /// Count the map on the columnar tier's counters, as the columnar map
    /// counts: one `par.columnar_chunks` per chunk, one
    /// `ring.batch_calls` per all-number chunk with its items in
    /// `ring.batch_elems`, and one `ring.fastpath_calls` per item of every
    /// other chunk (one per item, however many of the pair's programs
    /// ran on it).
    pub fn count(self) {
        snap_trace::well_known::PAR_COLUMNAR_CHUNKS.add(self.chunks);
        snap_trace::well_known::RING_BATCH_CALLS.add(self.batches);
        snap_trace::well_known::RING_BATCH_ELEMS.add(self.batch_elems);
        snap_trace::well_known::RING_FASTPATH_CALLS.add(self.scalar_items);
    }
}

/// The map of MapReduce's keyed-columnar rung: run a mapper's
/// [`PairProgram`] over `items` in pool chunks of `chunk_len` items and
/// hand each chunk's key column and `f64` value column to `fold`, inside
/// the same pool task. Returns the folds in chunk order, with the
/// [`KeyedTally`] the caller counts if it keeps them.
///
/// Numeric programs run as [`NumProgram::eval_batch`] over a chunk whose
/// items are all numbers, and as scalar calls otherwise; either way the
/// values are bit-identical to the tree walk's. The fault policy applies
/// per chunk, as on the columnar map: an injected panic re-runs the whole
/// chunk (so `fold` must be a pure function of its columns) and an
/// exhausted budget or a missed deadline is the `Err`. `Ok(None)` means
/// `options` keep this call off the columnar tier (see
/// [`ColumnarPolicy`]); nothing ran.
pub fn ring_map_keyed<R: Send>(
    pair: &PairProgram,
    items: &[Value],
    chunk_len: usize,
    options: &RingMapOptions,
    fold: impl Fn(KeyColumn<'_>, Vec<f64>) -> R + Send + Sync,
) -> Result<Option<(Vec<R>, KeyedTally)>, ExecError> {
    let len = items.len();
    if !columnar_applies(options, len) {
        return Ok(None);
    }
    let _span = snap_trace::span!("keyed.map", len);
    let ranges = chunk_ranges(len, chunk_len);
    let chunks = try_map_slice_with(
        &ranges,
        options.workers,
        options.strategy,
        options.exec,
        &options.policy,
        |range| {
            let items = &items[range.clone()];
            let numbers = columnar_f64(items);
            let keys = match &pair.key {
                PairKey::Arg => KeyColumn::Items(items),
                PairKey::Const(key) => KeyColumn::Const(key),
                PairKey::Num(p) => KeyColumn::Numbers(eval_column(p, items, numbers.as_deref())),
            };
            let values = eval_column(&pair.value, items, numbers.as_deref());
            (fold(keys, values), numbers.is_some())
        },
    )?;
    let mut tally = KeyedTally::default();
    let mut folds = Vec::with_capacity(chunks.len());
    for ((folded, batched), range) in chunks.into_iter().zip(&ranges) {
        tally.chunks += 1;
        if batched {
            tally.batches += 1;
            tally.batch_elems += range.len() as u64;
        } else {
            tally.scalar_items += range.len() as u64;
        }
        folds.push(folded);
    }
    Ok(Some((folds, tally)))
}

/// One numeric program over one chunk: `eval_batch` over the unboxed
/// column when the chunk is all numbers, a scalar call per item
/// otherwise.
fn eval_column(p: &NumProgram, items: &[Value], numbers: Option<&[f64]>) -> Vec<f64> {
    let mut out = Vec::with_capacity(items.len());
    match numbers {
        Some(inputs) => p.eval_batch(inputs, &mut out),
        None => out.extend(items.iter().map(|item| p.call1_f64(item))),
    }
    out
}

/// Apply a reporter ring to every item, returning `[key, value]` pairs —
/// the worker half of the MapReduce map phase. Identical to [`ring_map`]
/// but validates each result is a pair (`snap_ast::pure::as_map_pair`).
pub fn ring_map_pairs(
    ring: Arc<Ring>,
    items: Vec<Value>,
    options: RingMapOptions,
) -> Result<Vec<(Value, Value)>, EvalError> {
    ring_map_pairs_faulted(ring, items, options).map_err(EvalError::from)
}

/// [`ring_map_pairs`] with the execution-layer failure kept distinct.
pub fn ring_map_pairs_faulted(
    ring: Arc<Ring>,
    items: impl AsRef<[Value]>,
    options: RingMapOptions,
) -> Result<Vec<(Value, Value)>, RingMapError> {
    let mapped = ring_map_faulted(ring, items, options)?;
    mapped
        .into_iter()
        .map(as_map_pair)
        .collect::<Result<Vec<(Value, Value)>, EvalError>>()
        .map_err(RingMapError::Eval)
}

/// Apply a reporter ring once per group in parallel. Each call receives
/// the group's value list as its single argument (the reduce phase).
pub fn ring_reduce_groups(
    ring: Arc<Ring>,
    groups: Vec<(Value, Vec<Value>)>,
    options: RingMapOptions,
) -> Result<Vec<Value>, EvalError> {
    ring_reduce_groups_faulted(ring, groups, options).map_err(EvalError::from)
}

/// [`ring_reduce_groups`] with the execution-layer failure kept
/// distinct. Like [`ring_map_faulted`], it only reads the groups.
pub fn ring_reduce_groups_faulted(
    ring: Arc<Ring>,
    groups: impl AsRef<[(Value, Vec<Value>)]>,
    options: RingMapOptions,
) -> Result<Vec<Value>, RingMapError> {
    let groups = groups.as_ref();
    let len = groups.len();
    snap_trace::well_known::RING_MAP_CALLS.incr();
    snap_trace::well_known::RING_MAP_ITEMS.add(len as u64);
    let _span = snap_trace::span!("ring_reduce_groups", len);
    let f = compile_cached(&ring).map_err(RingMapError::Eval)?;
    let results = try_map_slice_with(
        groups,
        options.workers,
        options.strategy,
        options.exec,
        &options.policy,
        |(key, values)| {
            let arg = match options.isolation {
                Isolation::Copy => Value::list(values.iter().map(Value::deep_copy).collect()),
                Isolation::Share => Value::list(values.clone()),
            };
            f.call1(arg).map(|reduced| {
                Value::list(vec![
                    key.clone(),
                    match options.isolation {
                        Isolation::Copy => reduced.deep_copy(),
                        Isolation::Share => reduced,
                    },
                ])
            })
        },
    )
    .map_err(RingMapError::Exec)?;
    results
        .into_iter()
        .collect::<Result<Vec<Value>, EvalError>>()
        .map_err(RingMapError::Eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_ast::builder::*;
    use std::sync::{Mutex, MutexGuard};

    fn times_ten() -> Arc<Ring> {
        Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))))
    }

    /// `ring.batch_fallbacks` is process-wide: the test that bumps it
    /// and the test that asserts it unchanged take turns on this lock.
    static COUNTER_LOCK: Mutex<()> = Mutex::new(());

    /// Serialize on the fallback counter (a failed sibling's poison does
    /// not matter: the lock guards no data).
    fn counter_lock() -> MutexGuard<'static, ()> {
        COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn ring_map_matches_paper_fig6() {
        let out = ring_map(
            times_ten(),
            vec![3.into(), 7.into(), 8.into()],
            RingMapOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out, vec![30.into(), 70.into(), 80.into()]);
    }

    #[test]
    fn ring_map_first_ten_of_large_list() {
        // Fig. 6 shows the first ten inputs/outputs of a long list.
        let items: Vec<Value> = (1..=1000).map(|n| Value::Number(n as f64)).collect();
        let out = ring_map(times_ten(), items, RingMapOptions::default()).unwrap();
        let first_ten: Vec<f64> = out.iter().take(10).map(Value::to_number).collect();
        assert_eq!(
            first_ten,
            vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        );
    }

    #[test]
    fn pooled_map_runs_the_columnar_batch_tier() {
        // The columnar contract: a numeric ring over an all-Number list
        // must run eval_batch over flat chunks, not per-element calls.
        // Counters are global, so assert deltas: 64 items → at least 64
        // new batch elements, and the treewalk counter must not have
        // absorbed them.
        let batch_before = snap_trace::well_known::RING_BATCH_ELEMS.get();
        let tree_before = snap_trace::well_known::RING_TREEWALK_CALLS.get();
        let items: Vec<Value> = (0..64).map(|n| Value::Number(n as f64)).collect();
        let out = ring_map(
            times_ten(),
            items,
            RingMapOptions {
                workers: 4,
                exec: ExecMode::Pooled,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.len(), 64);
        assert_eq!(out[7], Value::Number(70.0));
        let batch_delta = snap_trace::well_known::RING_BATCH_ELEMS.get() - batch_before;
        let tree_delta = snap_trace::well_known::RING_TREEWALK_CALLS.get() - tree_before;
        assert!(
            batch_delta >= 64,
            "expected ≥64 batch elements, saw {batch_delta}"
        );
        assert!(
            tree_delta < 64,
            "numeric ring fell back to the tree walk ({tree_delta} calls)"
        );
    }

    #[test]
    fn disabled_columnar_runs_the_scalar_fastpath() {
        // The pre-columnar contract still holds under
        // ColumnarPolicy::Disabled: per-element unboxed fastpath calls.
        let fast_before = snap_trace::well_known::RING_FASTPATH_CALLS.get();
        let items: Vec<Value> = (0..64).map(|n| Value::Number(n as f64)).collect();
        let out = ring_map(
            times_ten(),
            items,
            RingMapOptions {
                workers: 4,
                columnar: ColumnarPolicy::Disabled,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.len(), 64);
        let fast_delta = snap_trace::well_known::RING_FASTPATH_CALLS.get() - fast_before;
        assert!(
            fast_delta >= 64,
            "expected ≥64 fastpath calls, saw {fast_delta}"
        );
    }

    #[test]
    fn mixed_type_lists_fall_back_to_per_element_calls() {
        // One Text element spoils the columnar scan; output must still
        // be correct and the fallback counter must tick.
        let _serial = counter_lock();
        let fallback_before = snap_trace::well_known::RING_BATCH_FALLBACKS.get();
        let mut items: Vec<Value> = (0..32).map(|n| Value::Number(n as f64)).collect();
        items.push(Value::text("  4 ")); // numeric text coerces to 4
        let out = ring_map(times_ten(), items, RingMapOptions::default()).unwrap();
        assert_eq!(out.len(), 33);
        assert_eq!(out[32], Value::Number(40.0));
        assert!(snap_trace::well_known::RING_BATCH_FALLBACKS.get() > fallback_before);
    }

    #[test]
    fn small_lists_skip_the_columnar_scan() {
        // Below COLUMNAR_MIN_ITEMS the per-element path runs directly —
        // and without counting a fallback (nothing was declined).
        let _serial = counter_lock();
        let fallback_before = snap_trace::well_known::RING_BATCH_FALLBACKS.get();
        let items: Vec<Value> = (0..COLUMNAR_MIN_ITEMS - 1)
            .map(|n| Value::Number(n as f64))
            .collect();
        let out = ring_map(times_ten(), items, RingMapOptions::default()).unwrap();
        assert_eq!(out.len(), COLUMNAR_MIN_ITEMS - 1);
        assert_eq!(
            snap_trace::well_known::RING_BATCH_FALLBACKS.get(),
            fallback_before
        );
    }

    #[test]
    fn columnar_and_scalar_agree_elementwise() {
        let items: Vec<Value> = (0..500).map(|n| Value::Number(n as f64 * 0.73)).collect();
        let on = ring_map(times_ten(), items.clone(), RingMapOptions::default()).unwrap();
        let off = ring_map(
            times_ten(),
            items,
            RingMapOptions {
                columnar: ColumnarPolicy::Disabled,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(on, off);
    }

    #[test]
    fn copy_isolation_protects_caller_lists() {
        // The ring reports its input list unchanged; under Copy isolation
        // the outputs must not alias the inputs.
        let identity = Arc::new(Ring::reporter(empty_slot()));
        let shared = snap_ast::List::from_vec(vec![1.into()]);
        let out = ring_map(
            identity,
            vec![Value::List(shared.clone())],
            RingMapOptions::default(),
        )
        .unwrap();
        shared.add(2.into());
        assert_eq!(out[0].as_list().unwrap().len(), 1, "worker saw a copy");
    }

    #[test]
    fn share_isolation_aliases() {
        let identity = Arc::new(Ring::reporter(empty_slot()));
        let shared = snap_ast::List::from_vec(vec![1.into()]);
        let out = ring_map(
            identity,
            vec![Value::List(shared.clone())],
            RingMapOptions {
                isolation: Isolation::Share,
                ..Default::default()
            },
        )
        .unwrap();
        shared.add(2.into());
        assert_eq!(out[0].as_list().unwrap().len(), 2, "worker shared storage");
    }

    #[test]
    fn impure_ring_is_rejected() {
        let ring = Arc::new(Ring::reporter(pick_random(num(1.0), num(6.0))));
        assert!(ring_map(ring, vec![1.into()], RingMapOptions::default()).is_err());
    }

    #[test]
    fn eval_errors_propagate_from_workers() {
        // item 5 of the (too short) input list → index error on workers.
        let ring = Arc::new(Ring::reporter(item(num(5.0), empty_slot())));
        let items = vec![Value::list(vec![1.into()]), Value::list(vec![2.into()])];
        let err = ring_map(ring, items, RingMapOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn ring_map_pairs_validates_shape() {
        let good = Arc::new(Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0)]),
        ));
        let pairs = ring_map_pairs(good, vec!["a".into()], RingMapOptions::default()).unwrap();
        assert_eq!(pairs[0].0, Value::text("a"));
        let bad = Arc::new(Ring::reporter(empty_slot()));
        assert!(ring_map_pairs(bad, vec![1.into()], RingMapOptions::default()).is_err());
    }

    #[test]
    fn map_pairs_keep_the_first_two_items_and_reject_short_lists() {
        let triple = Arc::new(Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0), text("extra")]),
        ));
        let items = vec!["a".into(), "b".into()];
        let pairs = ring_map_pairs(triple, items, RingMapOptions::default()).unwrap();
        assert_eq!(pairs, vec![("a".into(), 1.into()), ("b".into(), 1.into())]);
        assert_eq!(
            as_map_pair(Value::list(vec!["a".into()])),
            Err(snap_ast::EvalError::TypeMismatch {
                expected: "[key, value] pair from the map function",
                got: "[a]".into(),
            })
        );
    }

    #[test]
    fn ring_reduce_groups_reduces_each_key() {
        let sum = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ));
        let groups = vec![
            ("a".into(), vec![1.into(), 2.into()]),
            ("b".into(), vec![10.into()]),
        ];
        let out = ring_reduce_groups(sum, groups, RingMapOptions::default()).unwrap();
        assert_eq!(
            out,
            vec![
                Value::list(vec!["a".into(), 3.into()]),
                Value::list(vec!["b".into(), 10.into()]),
            ]
        );
    }
}
