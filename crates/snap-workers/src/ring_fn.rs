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
//! that flows through here — pooled, work-stolen, fault-retried — runs
//! it per item; every other ring runs on the tree walk. On top of that
//! sits the **columnar batch tier**: when the ring is batchable and the
//! list is stored as numbers, [`ring_map_view`] reads its `f64`s in
//! place and runs one `eval_batch_into` per pool chunk of them, with no
//! per-element dispatch at all, straight into that chunk's own `&mut`
//! slice of the one result, which it reports as a numeric list (see
//! [`ColumnarPolicy`]). Nothing is unboxed, boxed or copied again on the
//! way. The ladder is columnar batch → numeric scalar → tree walk; the
//! `ring.batch_calls` / `ring.fastpath_calls` / `ring.treewalk_calls`
//! counters show which tier a run used.
//!
//! The same rung covers MapReduce's `[key, value]` mappers:
//! [`ring_map_keyed`] runs a mapper's [`PairProgram`] as a key column and
//! an `f64` value column per chunk, so no two-item list is ever built; a
//! value program that folded to a constant (word count's `1`) fills its
//! column once per chunk instead of running per item. The reduce phase
//! hands each group to the reducer as one list
//! ([`ring_reduce_lists_faulted`]), so a numeric group stays numeric.
//!
//! The `Vec` and slice entry points ([`ring_map`], [`ring_map_faulted`],
//! …) are adapters onto the view functions. A boxed slice stays boxed:
//! only a list stored as numbers reaches the columnar tier.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use snap_ast::bytecode::{NumProgram, PairKey, PairProgram};
use snap_ast::pure::{as_map_pair, compile_cached, PureFn};
use snap_ast::{EvalError, List, ListView, Ring, Value};

use crate::executor::{chunk_slices, columnar_chunk_size, try_map_slice_with};
use crate::fault::{ExecError, FaultPolicy};

/// Whether [`ring_map`] may route numeric lists through the columnar
/// batch tier (`f64` chunks + `eval_batch`) instead of per-element calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnarPolicy {
    /// Batch when the ring is batchable and the list is stored as
    /// numbers (and is big enough to pay for the chunking).
    #[default]
    Auto,
    /// Always evaluate per element — the ablation baseline, and the
    /// knob differential tests flip to prove output equivalence.
    Disabled,
}

/// Don't bother chunking tiny lists: below this the per-element path is
/// already cheap. Public so tests and benches can size inputs relative
/// to the threshold.
pub const COLUMNAR_MIN_ITEMS: usize = 16;

/// Options for [`ring_map`].
#[derive(Debug, Clone, Copy)]
pub struct RingMapOptions {
    /// Worker count (clamped to ≥ 1).
    pub workers: usize,
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
/// [`ring_map_faulted`]. The items become a list first, so numbers only
/// run on the columnar tier.
pub fn ring_map(
    ring: Arc<Ring>,
    items: Vec<Value>,
    options: RingMapOptions,
) -> Result<Vec<Value>, EvalError> {
    List::from_vec(items)
        .with_view(|items| ring_map_view(ring, items, options))
        .map(List::into_vec)
        .map_err(EvalError::from)
}

/// [`ring_map`] over borrowed boxed items, with the execution-layer
/// failure kept distinct: the fault-aware entry point for callers that
/// degrade gracefully (the parallel blocks fall back to a sequential map
/// on [`ExecError::RetriesExhausted`], but propagate deadline errors).
/// It only reads the items, so a caller that must be able to re-run the
/// map keeps its own list instead of a copy. Boxed items run one call
/// each, numbers included; [`ring_map_view`] over a numeric list batches.
pub fn ring_map_faulted(
    ring: Arc<Ring>,
    items: impl AsRef<[Value]>,
    options: RingMapOptions,
) -> Result<Vec<Value>, RingMapError> {
    ring_map_view(ring, ListView::Values(items.as_ref()), options).map(List::into_vec)
}

/// The parallel map over a list's items in place, reporting the mapped
/// list: the one implementation behind every `ring_map` entry point.
/// Numeric items under a batchable ring run on the columnar tier and
/// report a numeric list; everything else runs one call per item, each
/// item deep-copied into the worker and its result out of it.
pub fn ring_map_view(
    ring: Arc<Ring>,
    items: ListView<'_>,
    options: RingMapOptions,
) -> Result<List, RingMapError> {
    let len = items.len();
    snap_trace::well_known::RING_MAP_CALLS.incr();
    snap_trace::well_known::RING_MAP_ITEMS.add(len as u64);
    let _span = snap_trace::span!("ring_map", len);
    let f = compile_cached(&ring).map_err(RingMapError::Eval)?;
    if columnar_applies(&options, len) {
        match items {
            ListView::Numbers(numbers) if f.is_batchable() => {
                return columnar_map(&f, numbers, &options)
            }
            // A batch-sized map stayed on the per-element path: either
            // the ring is not batchable or the list is not numeric.
            _ => snap_trace::well_known::RING_BATCH_FALLBACKS.incr(),
        }
    }
    let mapped = match items {
        ListView::Values(items) => map_items(items, &options, |item| f.call1(item.deep_copy())),
        ListView::Numbers(numbers) => map_items(numbers, &options, |&n| f.call1(Value::Number(n))),
    };
    mapped.map(List::from_vec)
}

/// One call per item on the pool, under `options`' fault policy and
/// simulated latency; each result is deep-copied out of the worker
/// (structured clone, as `postMessage` does for a Web Worker).
fn map_items<T: Send + Sync>(
    items: &[T],
    options: &RingMapOptions,
    call: impl Fn(&T) -> Result<Value, EvalError> + Send + Sync,
) -> Result<Vec<Value>, RingMapError> {
    let results = try_map_slice_with(items, options.workers, &options.policy, |item| {
        if let Some(latency) = options.latency {
            std::thread::sleep(latency);
        }
        call(item).map(|v| v.deep_copy())
    })
    .map_err(RingMapError::Exec)?;
    results
        .into_iter()
        .collect::<Result<Vec<Value>, EvalError>>()
        .map_err(RingMapError::Eval)
}

/// Whether `options` let a map of `len` items onto the columnar tier:
/// `ColumnarPolicy::Auto`, no simulated latency, and enough items to pay
/// for the chunking.
fn columnar_applies(options: &RingMapOptions, len: usize) -> bool {
    options.columnar == ColumnarPolicy::Auto
        && options.latency.is_none()
        && len >= COLUMNAR_MIN_ITEMS
}

/// The columnar batch tier of [`ring_map_view`]: the list's `f64`s move
/// through the work-stealing pool as chunks, and each task runs one
/// [`PureFn::eval_batch_into`] from its chunk of the input straight into
/// its own `&mut` slice of the one result, which becomes the numeric
/// list reported. No chunk output is copied again.
///
/// Chunks are deliberately coarse ([`columnar_chunk_size`]): batch
/// arithmetic is so cheap per element that fine-grained claiming is all
/// overhead. The fault policy still applies — at chunk granularity: an
/// injected panic retries the whole chunk, which writes its whole slice
/// again, and exhausted budgets or a missed deadline surface as
/// [`RingMapError::Exec`], dropping the partly written result, so
/// callers degrade exactly as they do for the per-element path. Numbers
/// are plain copies, so the structured clone needs no work here.
fn columnar_map(
    f: &PureFn,
    inputs: &[f64],
    options: &RingMapOptions,
) -> Result<List, RingMapError> {
    let len = inputs.len();
    let _span = snap_trace::span!("columnar_map", len);
    let chunk = columnar_chunk_size(len, options.workers);
    let mut numbers = vec![0.0; len];
    let chunks: Vec<(&[f64], Mutex<&mut [f64]>)> = inputs
        .chunks(chunk)
        .zip(chunk_slices(&mut numbers, chunk))
        .collect();
    try_map_slice_with(&chunks, options.workers, &options.policy, |(input, out)| {
        snap_trace::well_known::PAR_COLUMNAR_CHUNKS.incr();
        // A retry after a panic mid-write rewrites the whole slice.
        let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
        let batched = f.eval_batch_into(input, &mut out);
        debug_assert!(batched, "columnar_map requires a batchable ring");
    })
    .map_err(RingMapError::Exec)?;
    drop(chunks);
    Ok(List::from_numbers(numbers))
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
    /// The key is the argument: the chunk's boxed items are its keys.
    Items(&'a [Value]),
    /// Every item has this key.
    Const(&'a Value),
    /// Number keys, one per item: a numeric chunk's own items when the
    /// key is the argument, or the pair's numeric key program's results.
    Numbers(Cow<'a, [f64]>),
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
    /// `ring.batch_calls` per chunk of a numeric list with its items in
    /// `ring.batch_elems`, and one `ring.fastpath_calls` per item of a
    /// boxed list (one per item, however many of the pair's programs ran
    /// on it).
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
/// Numeric programs run as [`NumProgram::eval_batch_into`] straight over
/// a numeric list's `f64`s, and as scalar calls over boxed items; either
/// way the values are bit-identical to the tree walk's. The fault policy
/// applies per chunk, as on the columnar map: an injected panic re-runs
/// the whole chunk (so `fold` must be a pure function of its columns) and an
/// exhausted budget or a missed deadline is the `Err`. `Ok(None)` means
/// `options` keep this call off the columnar tier (see
/// [`ColumnarPolicy`]); nothing ran.
pub fn ring_map_keyed<R: Send>(
    pair: &PairProgram,
    items: ListView<'_>,
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
    let folds = try_map_slice_with(&ranges, options.workers, &options.policy, |range| {
        let (keys, values) = match items {
            ListView::Numbers(numbers) => {
                let numbers = &numbers[range.clone()];
                let keys = match &pair.key {
                    PairKey::Arg => KeyColumn::Numbers(Cow::Borrowed(numbers)),
                    PairKey::Const(key) => KeyColumn::Const(key),
                    PairKey::Num(p) => KeyColumn::Numbers(Cow::Owned(batch_column(p, numbers))),
                };
                (keys, batch_column(&pair.value, numbers))
            }
            ListView::Values(items) => {
                let items = &items[range.clone()];
                let keys = match &pair.key {
                    PairKey::Arg => KeyColumn::Items(items),
                    PairKey::Const(key) => KeyColumn::Const(key),
                    PairKey::Num(p) => KeyColumn::Numbers(Cow::Owned(scalar_column(p, items))),
                };
                (keys, scalar_column(&pair.value, items))
            }
        };
        fold(keys, values)
    })?;
    let chunks = ranges.len() as u64;
    let tally = match items {
        ListView::Numbers(_) => KeyedTally {
            chunks,
            batches: chunks,
            batch_elems: len as u64,
            scalar_items: 0,
        },
        ListView::Values(_) => KeyedTally {
            chunks,
            scalar_items: len as u64,
            ..KeyedTally::default()
        },
    };
    Ok(Some((folds, tally)))
}

/// One numeric program over one numeric chunk, as one `eval_batch_into`.
fn batch_column(p: &NumProgram, numbers: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; numbers.len()];
    p.eval_batch_into(numbers, &mut out);
    out
}

/// One numeric program over one boxed chunk: a scalar call per item, or,
/// for a program that folded to a constant (word count's `1`), that
/// constant filled once.
fn scalar_column(p: &NumProgram, items: &[Value]) -> Vec<f64> {
    match p.constant() {
        Some(value) => vec![value; items.len()],
        None => items.iter().map(|item| p.call1_f64(item)).collect(),
    }
}

/// Apply a reporter ring to every item, returning `[key, value]` pairs —
/// the worker half of the MapReduce map phase. Identical to [`ring_map`]
/// but validates each result is a pair (`snap_ast::pure::as_map_pair`).
pub fn ring_map_pairs(
    ring: Arc<Ring>,
    items: Vec<Value>,
    options: RingMapOptions,
) -> Result<Vec<(Value, Value)>, EvalError> {
    List::from_vec(items)
        .with_view(|items| ring_map_pairs_view(ring, items, options))
        .map_err(EvalError::from)
}

/// [`ring_map_pairs`] over borrowed boxed items, with the
/// execution-layer failure kept distinct.
pub fn ring_map_pairs_faulted(
    ring: Arc<Ring>,
    items: impl AsRef<[Value]>,
    options: RingMapOptions,
) -> Result<Vec<(Value, Value)>, RingMapError> {
    ring_map_pairs_view(ring, ListView::Values(items.as_ref()), options)
}

/// [`ring_map_view`], then each result validated as a pair.
pub fn ring_map_pairs_view(
    ring: Arc<Ring>,
    items: ListView<'_>,
    options: RingMapOptions,
) -> Result<Vec<(Value, Value)>, RingMapError> {
    ring_map_view(ring, items, options)?
        .into_vec()
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
/// distinct. Like [`ring_map_faulted`], it only reads the groups: each
/// group's values are deep-copied into one list (numeric when they are
/// all numbers), which [`ring_reduce_lists_faulted`] reduces.
pub fn ring_reduce_groups_faulted(
    ring: Arc<Ring>,
    groups: impl AsRef<[(Value, Vec<Value>)]>,
    options: RingMapOptions,
) -> Result<Vec<Value>, RingMapError> {
    let groups: Vec<(Value, List)> = groups
        .as_ref()
        .iter()
        .map(|(key, values)| {
            let values = values.iter().map(Value::deep_copy).collect();
            (key.clone(), List::from_vec(values))
        })
        .collect();
    ring_reduce_lists_faulted(ring, &groups, options)
}

/// The reduce phase: apply a reporter ring to each group's value list in
/// parallel and report `[key, reduced]` per group, in group order.
///
/// Every call, a retried one too, gets the group's own list. The reducer
/// passed `compile_cached`'s purity check, so it cannot change that list,
/// and its result is deep-copied out of the worker, so nothing it
/// reports shares the list either.
pub fn ring_reduce_lists_faulted(
    ring: Arc<Ring>,
    groups: &[(Value, List)],
    options: RingMapOptions,
) -> Result<Vec<Value>, RingMapError> {
    let len = groups.len();
    snap_trace::well_known::RING_MAP_CALLS.incr();
    snap_trace::well_known::RING_MAP_ITEMS.add(len as u64);
    let _span = snap_trace::span!("ring_reduce_groups", len);
    let f = compile_cached(&ring).map_err(RingMapError::Eval)?;
    let results = try_map_slice_with(groups, options.workers, &options.policy, |(key, values)| {
        f.call1(Value::List(values.clone()))
            .map(|reduced| Value::list(vec![key.clone(), reduced.deep_copy()]))
    })
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
    fn ring_map_view_keeps_a_numeric_list_numeric_at_any_length() {
        for len in [0, 3, COLUMNAR_MIN_ITEMS, 200] {
            let numbers: Vec<f64> = (0..len).map(|n| n as f64 * 0.5 - 3.0).collect();
            let list = List::from_numbers(numbers.clone());
            let out = list
                .with_view(|items| ring_map_view(times_ten(), items, RingMapOptions::default()))
                .unwrap();
            assert!(out.is_numeric(), "{len} items");
            let want: Vec<Value> = numbers.iter().map(|&n| (n * 10.0).into()).collect();
            assert_eq!(out.to_vec(), want, "{len} items");
        }
    }

    #[test]
    fn boxed_numbers_run_one_call_per_item_and_agree_with_the_batch() {
        let _serial = counter_lock();
        let numbers: Vec<f64> = (0..64).map(|n| n as f64 * 0.73).collect();
        let boxed: Vec<Value> = numbers.iter().map(|&n| n.into()).collect();
        let fallback_before = snap_trace::well_known::RING_BATCH_FALLBACKS.get();
        let per_item = ring_map_faulted(times_ten(), &boxed, RingMapOptions::default()).unwrap();
        assert_eq!(
            snap_trace::well_known::RING_BATCH_FALLBACKS.get(),
            fallback_before + 1,
            "a boxed slice stays off the columnar tier"
        );
        let batched = List::from_numbers(numbers)
            .with_view(|items| ring_map_view(times_ten(), items, RingMapOptions::default()))
            .unwrap();
        assert_eq!(per_item, batched.to_vec());
    }

    #[test]
    fn a_text_ring_over_numbers_reports_text_per_item() {
        let _serial = counter_lock();
        let exclaim = Arc::new(Ring::reporter(join(vec![empty_slot(), text("!")])));
        let list = List::from_numbers((0..20).map(f64::from).collect());
        let fallback_before = snap_trace::well_known::RING_BATCH_FALLBACKS.get();
        let out = list
            .with_view(|items| ring_map_view(exclaim, items, RingMapOptions::default()))
            .unwrap();
        assert!(snap_trace::well_known::RING_BATCH_FALLBACKS.get() > fallback_before);
        assert!(!out.is_numeric());
        assert_eq!(out.item(20), Some(Value::text("19!")));
        assert!(list.is_numeric(), "the input keeps its form");
    }

    #[test]
    fn ring_map_keyed_borrows_a_numeric_chunk_as_its_key_column() {
        // mapper x -> [x, x × 2]: the key is the argument itself.
        let pair = snap_ast::bytecode::lower_pair(&Ring::reporter_with_params(
            vec!["x".into()],
            make_list(vec![var("x"), mul(var("x"), num(2.0))]),
        ))
        .unwrap();
        let numbers: Vec<f64> = (0..40).map(f64::from).collect();
        let boxed: Vec<Value> = numbers.iter().map(|&n| n.into()).collect();
        let options = RingMapOptions {
            workers: 2,
            ..Default::default()
        };
        let run = |items: ListView<'_>| {
            let fold = |keys: KeyColumn<'_>, values: Vec<f64>| {
                let (borrowed, keys) = match keys {
                    KeyColumn::Numbers(keys) => (matches!(keys, Cow::Borrowed(_)), keys.to_vec()),
                    KeyColumn::Items(items) => {
                        (false, items.iter().map(Value::to_number).collect())
                    }
                    KeyColumn::Const(_) => panic!("the key is the argument"),
                };
                (borrowed, keys, values)
            };
            ring_map_keyed(&pair, items, 16, &options, fold)
                .unwrap()
                .expect("Auto keeps the keyed rung")
        };
        let (numeric, tally) = run(ListView::Numbers(&numbers));
        assert_eq!(numeric.len(), 3, "40 items in chunks of 16");
        assert!(numeric.iter().all(|(borrowed, _, _)| *borrowed));
        assert_eq!(
            (
                tally.chunks,
                tally.batches,
                tally.batch_elems,
                tally.scalar_items
            ),
            (3, 3, 40, 0)
        );
        let (on_boxed, tally) = run(ListView::Values(&boxed));
        assert!(on_boxed.iter().all(|(borrowed, _, _)| !borrowed));
        assert_eq!(
            (
                tally.chunks,
                tally.batches,
                tally.batch_elems,
                tally.scalar_items
            ),
            (3, 0, 0, 40)
        );
        let columns = |chunks: &[(bool, Vec<f64>, Vec<f64>)]| -> (Vec<f64>, Vec<f64>) {
            let keys = chunks.iter().flat_map(|c| c.1.clone()).collect();
            let values = chunks.iter().flat_map(|c| c.2.clone()).collect();
            (keys, values)
        };
        let (keys, values) = columns(&numeric);
        assert_eq!(keys, numbers);
        assert_eq!(values, numbers.iter().map(|n| n * 2.0).collect::<Vec<_>>());
        assert_eq!(columns(&on_boxed), (keys, values));
    }

    #[test]
    fn ring_map_keyed_stays_off_under_a_disabled_policy() {
        let pair = snap_ast::bytecode::lower_pair(&Ring::reporter(make_list(vec![
            text("k"),
            add(empty_slot(), num(1.0)),
        ])))
        .unwrap();
        let options = RingMapOptions {
            columnar: ColumnarPolicy::Disabled,
            ..Default::default()
        };
        let numbers = [1.0; 32];
        let ran = ring_map_keyed(&pair, ListView::Numbers(&numbers), 8, &options, |_, _| ());
        assert!(matches!(ran, Ok(None)));
    }

    #[test]
    fn reduced_groups_share_nothing_with_the_groups() {
        // The reducer reports its input list: what comes out is a copy,
        // in the group's form.
        let identity = Arc::new(Ring::reporter(empty_slot()));
        let numeric = List::from_numbers(vec![1.0, 2.0]);
        let boxed = List::from_vec(vec!["a".into(), 3.into()]);
        let groups = vec![
            (Value::text("n"), numeric.clone()),
            (Value::text("b"), boxed.clone()),
        ];
        let out = ring_reduce_lists_faulted(identity, &groups, RingMapOptions::default()).unwrap();
        let reduced = |i: usize| out[i].as_list().unwrap().item(2).unwrap();
        let (n, b) = (reduced(0), reduced(1));
        assert!(n.as_list().unwrap().is_numeric());
        assert!(!b.as_list().unwrap().is_numeric());
        n.as_list().unwrap().add(99.into());
        b.as_list().unwrap().add(99.into());
        assert_eq!(numeric.len(), 2);
        assert_eq!(boxed.len(), 2);
        assert_eq!(out[0].as_list().unwrap().item(1), Some(Value::text("n")));
    }

    #[test]
    fn reduce_groups_hand_numbers_to_the_reducer_as_a_numeric_list() {
        let identity = Arc::new(Ring::reporter(empty_slot()));
        let groups = vec![
            (Value::text("n"), vec![1.into(), 2.into()]),
            (Value::text("m"), vec![1.into(), "2".into()]),
        ];
        let out = ring_reduce_groups(identity, groups, RingMapOptions::default()).unwrap();
        let reduced = |i: usize| out[i].as_list().unwrap().item(2).unwrap();
        assert!(reduced(0).as_list().unwrap().is_numeric());
        assert!(!reduced(1).as_list().unwrap().is_numeric());
        assert_eq!(reduced(0), Value::number_list([1.0, 2.0]));
        assert_eq!(reduced(1), Value::list(vec![1.into(), "2".into()]));
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
