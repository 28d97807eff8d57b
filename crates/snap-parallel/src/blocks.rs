//! The parallel blocks, as plain functions.
//!
//! These are the semantics of the paper's three new blocks, exposed for
//! embedding code and the benchmark harness. Scripts running inside the
//! VM reach the same implementations through [`crate::WorkerBackend`].
//!
//! The blocks are the last rung of the fault-degradation ladder: when
//! the pooled execution layer gives up (retry budget exhausted), a block
//! never surfaces a panic — it re-runs the whole phase sequentially and
//! injector-free on the calling thread (counted under
//! `fault.degraded_runs`, recorded as a trace note). Deadline failures
//! are the exception: a deadline is a promise to the caller, so they
//! propagate as errors instead of being quietly absorbed by a slower
//! sequential pass.
//!
//! Each block reads its input list in place, under the list's read lock
//! for the whole call ([`parallel_map_list`], [`map_reduce_list`]); the
//! `Vec` entry points build a list and run the same code. `parallelMap`
//! routes through `ring_map_view`, which runs a numeric list on the
//! **columnar batch tier** (its `f64`s in pool chunks, one `eval_batch`
//! per chunk, reporting a numeric list — see
//! `snap_workers::ColumnarPolicy`). `mapReduce` widens that rung: a
//! `[key, value]` mapper with a numeric value runs as a key column and
//! an `f64` column, with its keys interned and grouped by id instead of
//! boxed, hashed and sorted, and each group reaches the reducer as a
//! numeric list (see the `keyed` module). Any other mapper, and any key
//! column the keyed rung declines, takes the boxed path:
//! `ring_map_pairs_view`, then `combine_pairs`, `shuffle` and the reduce.
//! Which one a call took shows in the counters: the keyed rung moves
//! `par.columnar_chunks` and never `ring.batch_fallbacks`; the boxed path
//! moves `ring.batch_fallbacks` and the shuffle's own runs.
//!
//! No block copies its input to be able to degrade: every phase only
//! reads the list (or the groups), and a degraded phase re-runs on the
//! same one.
//!
//! Holding the read lock is safe because every ring a block runs passed
//! `compile_cached`'s purity check, so none can write a list, on the pool
//! or on the calling thread. A pure ring may read the same list again
//! (`item (i) of xs` with `xs` captured); that takes a second read lock,
//! which only a waiting writer could block, and no writer can be waiting:
//! the VM thread that owns the list is inside this call.

use std::sync::Arc;

use snap_ast::pure::{as_map_pair, compile_cached};
use snap_ast::{BinOp, EvalError, Expr, List, ListView, Ring, RingBody, RingExprBody, Value};
use snap_workers::{
    ring_map_pairs_view, ring_map_view, ring_reduce_lists_faulted, ExecError, ExecMode,
    FaultPolicy, RingMapError, RingMapOptions,
};

use crate::keyed;
use crate::shuffle::{combine_pairs, shuffle};

/// Record one block-level degradation to sequential execution.
fn record_degraded(block: &'static str, err: &ExecError) {
    snap_trace::well_known::FAULT_DEGRADED_RUNS.incr();
    snap_trace::note(
        "blocks.degraded",
        format!("{block} degraded to sequential: {err}"),
    );
}

/// The blocks' rung of the fault ladder for one phase: an evaluation
/// error or a missed deadline surfaces as an error; any other execution
/// failure is recorded and `sequential` re-runs the phase.
fn or_degrade<T>(
    block: &'static str,
    pooled: Result<T, RingMapError>,
    sequential: impl FnOnce() -> Result<T, EvalError>,
) -> Result<T, EvalError> {
    match pooled {
        Ok(out) => Ok(out),
        Err(RingMapError::Eval(e)) => Err(e),
        Err(RingMapError::Exec(e @ ExecError::DeadlineExceeded { .. })) => {
            Err(EvalError::Other(e.to_string()))
        }
        Err(RingMapError::Exec(e)) => {
            record_degraded(block, &e);
            sequential()
        }
    }
}

/// Injector-free sequential map over the same view — the degraded path:
/// one call per item with the pooled path's structured clones.
fn sequential_ring_map(ring: &Arc<Ring>, items: ListView<'_>) -> Result<List, EvalError> {
    let f = compile_cached(ring)?;
    items
        .iter()
        .map(|item| f.call1(item.deep_copy()).map(|v| v.deep_copy()))
        .collect::<Result<Vec<_>, _>>()
        .map(List::from_vec)
}

/// Injector-free sequential reduce over the same groups — the degraded
/// path of the reduce phase.
fn sequential_reduce_groups(
    ring: &Arc<Ring>,
    groups: &[(Value, List)],
) -> Result<Vec<Value>, EvalError> {
    let f = compile_cached(ring)?;
    groups
        .iter()
        .map(|(key, values)| {
            f.call1(Value::List(values.clone()))
                .map(|reduced| Value::list(vec![key.clone(), reduced.deep_copy()]))
        })
        .collect()
}

/// `parallelMap <ring> over <list>` (paper §3.2): apply the ring to every
/// item on `workers` true parallel workers; results in input order.
pub fn parallel_map(
    ring: Arc<Ring>,
    items: Vec<Value>,
    workers: usize,
) -> Result<Vec<Value>, EvalError> {
    parallel_map_with_options(
        ring,
        items,
        RingMapOptions {
            workers,
            ..Default::default()
        },
    )
}

/// [`parallel_map`] under an explicit [`FaultPolicy`].
pub fn parallel_map_with_policy(
    ring: Arc<Ring>,
    items: Vec<Value>,
    workers: usize,
    policy: FaultPolicy,
) -> Result<Vec<Value>, EvalError> {
    parallel_map_with_options(
        ring,
        items,
        RingMapOptions {
            workers,
            policy,
            ..Default::default()
        },
    )
}

/// [`parallel_map`] with full execution options, including the fault
/// policy: [`parallel_map_list`] over a list of `items`.
pub fn parallel_map_with_options(
    ring: Arc<Ring>,
    items: Vec<Value>,
    options: RingMapOptions,
) -> Result<Vec<Value>, EvalError> {
    parallel_map_list(ring, &List::from_vec(items), options).map(List::into_vec)
}

/// `parallelMap` over `list`, read in place under its read lock (see the
/// module docs), reporting the mapped list. This is the
/// fault-degradation rung: execution-layer failures other than a missed
/// deadline fall back to a sequential injector-free map over the same
/// items instead of surfacing.
pub fn parallel_map_list(
    ring: Arc<Ring>,
    list: &List,
    options: RingMapOptions,
) -> Result<List, EvalError> {
    list.with_view(|items| {
        let _span = snap_trace::span!("parallel_map", "items" => items.len());
        or_degrade(
            "parallel_map",
            ring_map_view(ring.clone(), items, options),
            || sequential_ring_map(&ring, items),
        )
    })
}

/// `mapReduce <mapper> <reducer> over <list>` (paper §3.4): parallel map
/// phase producing `[key, value]` pairs, sort-by-key shuffle, then a
/// parallel reduce phase — one reducer call per key, receiving that key's
/// value list. Returns `[key, reduced]` pairs in key order.
pub fn map_reduce(
    mapper: Arc<Ring>,
    reducer: Arc<Ring>,
    items: Vec<Value>,
    workers: usize,
) -> Result<Vec<Value>, EvalError> {
    map_reduce_with_options(
        mapper,
        reducer,
        items,
        RingMapOptions {
            workers,
            ..Default::default()
        },
    )
}

/// [`map_reduce`] under an explicit [`FaultPolicy`].
pub fn map_reduce_with_policy(
    mapper: Arc<Ring>,
    reducer: Arc<Ring>,
    items: Vec<Value>,
    workers: usize,
    policy: FaultPolicy,
) -> Result<Vec<Value>, EvalError> {
    map_reduce_with_options(
        mapper,
        reducer,
        items,
        RingMapOptions {
            workers,
            policy,
            ..Default::default()
        },
    )
}

/// Whether `mapReduce` may partially reduce pairs on the map side
/// before the shuffle (see [`map_reduce_with_combine`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CombinePolicy {
    /// Combine when the reducer is detected associative
    /// ([`associative_fold_op`]) and the pair count makes it worthwhile.
    #[default]
    Auto,
    /// Never combine: every mapper-emitted pair reaches the shuffle.
    Disabled,
}

/// Below this many pairs the combiner's per-key bookkeeping costs more
/// than the shuffle volume it saves.
pub const COMBINE_MIN_PAIRS: usize = 32;

/// Detect a reducer whose whole body is an associative fold, so partial
/// per-chunk reductions can safely happen before the shuffle.
///
/// The check is deliberately *syntactic and conservative*: the body must
/// be exactly `combine <vals> using (<a> ⊕ <b>)` where `<vals>` is the
/// reducer's own value-list argument (its single named parameter, or an
/// empty slot for implicit-parameter rings), the combining ring's
/// operands are exactly its own two inputs, and `⊕` is `+` or `×` —
/// associative *and* commutative, so regrouping values across worker
/// chunks cannot change the result (word count's integer `+` is
/// bit-exact; float folds accept the usual reassociation). Anything else
/// — the climate example's `combine ÷ length`, identity reducers, `join`
/// (order-sensitive), `-`/`/` (non-associative) — reports `None` and
/// runs uncombined.
pub fn associative_fold_op(reducer: &Ring) -> Option<BinOp> {
    let body = match &reducer.body {
        RingBody::Reporter(e) | RingBody::Predicate(e) => e,
        RingBody::Command(_) => return None,
    };
    let Expr::Combine { list, ring } = body else {
        return None;
    };
    let list_is_own_arg = match (&**list, reducer.params.as_slice()) {
        (Expr::Var(name), [p]) => name == p,
        (Expr::EmptySlot, []) => true,
        _ => false,
    };
    if !list_is_own_arg {
        return None;
    }
    let Expr::Ring(inner) = &**ring else {
        return None;
    };
    let inner_body = match &inner.body {
        RingExprBody::Reporter(e) | RingExprBody::Predicate(e) => e,
        RingExprBody::Command(_) => return None,
    };
    let Expr::Binary(op, a, b) = &**inner_body else {
        return None;
    };
    if !matches!(op, BinOp::Add | BinOp::Mul) {
        return None;
    }
    let operands_are_own_inputs = match inner.params.as_slice() {
        [] => matches!(**a, Expr::EmptySlot) && matches!(**b, Expr::EmptySlot),
        [p0, p1] => {
            matches!(&**a, Expr::Var(n) if n == p0) && matches!(&**b, Expr::Var(n) if n == p1)
        }
        _ => false,
    };
    operands_are_own_inputs.then_some(*op)
}

/// [`map_reduce`] with full execution options. Each phase degrades to
/// its sequential path independently (a healthy reduce still runs
/// pooled even when the map phase had to degrade). Map-side combining
/// runs under the default [`CombinePolicy::Auto`].
pub fn map_reduce_with_options(
    mapper: Arc<Ring>,
    reducer: Arc<Ring>,
    items: Vec<Value>,
    options: RingMapOptions,
) -> Result<Vec<Value>, EvalError> {
    map_reduce_with_combine(mapper, reducer, items, options, CombinePolicy::Auto)
}

/// [`map_reduce`] with full execution options and an explicit
/// [`CombinePolicy`]: [`map_reduce_list`] over a list of `items`.
pub fn map_reduce_with_combine(
    mapper: Arc<Ring>,
    reducer: Arc<Ring>,
    items: Vec<Value>,
    options: RingMapOptions,
    combine: CombinePolicy,
) -> Result<Vec<Value>, EvalError> {
    let list = List::from_vec(items);
    list.with_view(|items| map_reduce_view(mapper, reducer, items, options, combine))
}

/// `mapReduce` over `list`, read in place under its read lock (see the
/// module docs), reporting the `[key, reduced]` list. Under
/// [`CombinePolicy::Auto`], when [`associative_fold_op`] recognizes the
/// reducer, each worker partially reduces its chunk's pairs by key
/// *before* the shuffle — shrinking shuffle volume from O(items) to
/// O(workers × keys) with identical output (the reducer then folds
/// per-chunk partials exactly as it would have folded raw values).
///
/// The map phase runs on the keyed-columnar rung when the mapper and its
/// key column allow it (see the `keyed` module); its groups are
/// bit-identical to the boxed path's, which every other call takes.
pub fn map_reduce_list(
    mapper: Arc<Ring>,
    reducer: Arc<Ring>,
    list: &List,
    options: RingMapOptions,
    combine: CombinePolicy,
) -> Result<List, EvalError> {
    list.with_view(|items| map_reduce_view(mapper, reducer, items, options, combine))
        .map(List::from_vec)
}

/// The one `mapReduce` of this crate, over a list's items in place.
fn map_reduce_view(
    mapper: Arc<Ring>,
    reducer: Arc<Ring>,
    items: ListView<'_>,
    options: RingMapOptions,
    combine: CombinePolicy,
) -> Result<Vec<Value>, EvalError> {
    let _span = snap_trace::span!("map_reduce", "items" => items.len());
    // The mapper emits one pair per item, so this is the pair count the
    // combiner's threshold sees.
    let fold = match combine {
        CombinePolicy::Auto if items.len() >= COMBINE_MIN_PAIRS => associative_fold_op(&reducer),
        _ => None,
    };
    let map_fn = compile_cached(&mapper)?;
    let pairs = match keyed::map_groups(&map_fn, items, &options, fold) {
        Ok(Some(groups)) => return reduce_groups(&reducer, &groups, options),
        Ok(None) => ring_map_pairs_view(mapper.clone(), items, options),
        Err(e) => Err(RingMapError::Exec(e)),
    };
    let pairs = or_degrade("map_reduce (map phase)", pairs, || {
        sequential_ring_map(&mapper, items)?
            .into_vec()
            .into_iter()
            .map(as_map_pair)
            .collect()
    })?;
    let pairs = match fold {
        Some(op) => combine_pairs(pairs, op, options.workers, ExecMode::Pooled),
        None => pairs,
    };
    let groups: Vec<(Value, List)> = shuffle(pairs)
        .into_iter()
        .map(|(key, values)| (key, List::from_vec(values)))
        .collect();
    reduce_groups(&reducer, &groups, options)
}

/// The reduce phase of `mapReduce`, degrading to a sequential reduce of
/// the same groups.
fn reduce_groups(
    reducer: &Arc<Ring>,
    groups: &[(Value, List)],
    options: RingMapOptions,
) -> Result<Vec<Value>, EvalError> {
    or_degrade(
        "map_reduce (reduce phase)",
        ring_reduce_lists_faulted(reducer.clone(), groups, options),
        || sequential_reduce_groups(reducer, groups),
    )
}

/// `parallelForEach` over plain Rust data: run `f` once per item with
/// true parallelism. The in-VM block spawns sprite clones instead (see
/// `snap-vm`); this is the embedding-API equivalent.
pub fn parallel_for_each<T: Send + Sync>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(&T) + Send + Sync,
) {
    snap_workers::Parallel::new(items)
        .with_max_workers(workers)
        .for_each(f);
}

#[cfg(test)]
mod tests {
    use super::{map_reduce as run_map_reduce, parallel_for_each, parallel_map};
    use super::{Arc, Ring, Value};
    use snap_ast::builder::*;

    #[test]
    fn parallel_map_times_ten() {
        let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
        let out = parallel_map(ring, vec![3.into(), 7.into(), 8.into()], 4).unwrap();
        assert_eq!(out, vec![30.into(), 70.into(), 80.into()]);
    }

    #[test]
    fn map_reduce_word_count_matches_paper_fig12() {
        // Figure 11/12: word count over a sentence; output is the sorted
        // unique words with their counts.
        let mapper = Arc::new(Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0)]),
        ));
        let reducer = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ));
        let words: Vec<Value> = "the quick brown fox jumps over the lazy dog the end"
            .split(' ')
            .map(Value::from)
            .collect();
        let out = run_map_reduce(mapper, reducer, words, 4).unwrap();
        let rendered: Vec<String> = out.iter().map(Value::to_display_string).collect();
        assert_eq!(
            rendered,
            vec![
                "[brown, 1]",
                "[dog, 1]",
                "[end, 1]",
                "[fox, 1]",
                "[jumps, 1]",
                "[lazy, 1]",
                "[over, 1]",
                "[quick, 1]",
                "[the, 3]",
            ]
        );
    }

    #[test]
    fn map_reduce_climate_average_matches_paper_fig13() {
        // Figure 13: mapper converts °F to °C, reducer averages. A single
        // shared key averages the whole dataset.
        let mapper = Arc::new(Ring::reporter_with_params(
            vec!["t".into()],
            make_list(vec![
                text("avg"),
                div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
            ]),
        ));
        let reducer = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            div(
                combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
                length_of(var("vals")),
            ),
        ));
        // 32 °F → 0 °C, 212 °F → 100 °C: average 50 °C.
        let out = run_map_reduce(mapper, reducer, vec![32.into(), 212.into()], 4).unwrap();
        assert_eq!(out.len(), 1);
        let pair = out[0].as_list().unwrap();
        assert_eq!(pair.item(1).unwrap(), Value::text("avg"));
        assert!((pair.item(2).unwrap().to_number() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn identity_map_function_passes_through() {
        // §3.4: "the map or reduce functions can express the identity
        // function which passes its input argument through unchanged" —
        // here an identity-shaped mapper emits [item, item].
        let mapper = Arc::new(Ring::reporter_with_params(
            vec!["x".into()],
            make_list(vec![var("x"), var("x")]),
        ));
        let reducer = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            item(num(1.0), var("vals")),
        ));
        let out = run_map_reduce(mapper, reducer, vec![2.into(), 1.into()], 2).unwrap();
        assert_eq!(
            out,
            vec![
                Value::list(vec![1.into(), 1.into()]),
                Value::list(vec![2.into(), 2.into()]),
            ]
        );
    }

    #[test]
    fn empty_lists_flow_through_every_block() {
        let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
        assert_eq!(
            parallel_map(ring, Vec::new(), 4).unwrap(),
            Vec::<Value>::new()
        );
        let out = run_map_reduce(word_count_mapper(), word_count_reducer(), Vec::new(), 4);
        assert_eq!(out.unwrap(), Vec::<Value>::new());
        parallel_for_each(Vec::<i32>::new(), 4, |_| panic!("no item to visit"));
    }

    #[test]
    fn eval_errors_surface_as_the_sequential_call_reports_them() {
        use snap_ast::pure::compile_cached;
        use snap_ast::EvalError;
        // item 5 of a one-item list fails on whichever worker runs it.
        let ring = Arc::new(Ring::reporter(item(num(5.0), empty_slot())));
        let short = Value::list(vec![1.into()]);
        let want = compile_cached(&ring)
            .unwrap()
            .call1(short.clone())
            .unwrap_err();
        let items: Vec<Value> = (0..40).map(|_| short.clone()).collect();
        assert_eq!(parallel_map(ring.clone(), items, 4).unwrap_err(), want);

        // A mapper must report a [key, value] pair.
        let bare = Arc::new(Ring::reporter(empty_slot()));
        assert_eq!(
            run_map_reduce(bare, word_count_reducer(), vec![3.into()], 2).unwrap_err(),
            EvalError::TypeMismatch {
                expected: "[key, value] pair from the map function",
                got: "3".into(),
            }
        );
        // A failing reducer fails the block as well.
        let bad_reducer = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            item(num(5.0), var("vals")),
        ));
        let words: Vec<Value> = vec!["a".into(), "b".into()];
        assert!(run_map_reduce(word_count_mapper(), bad_reducer, words, 2).is_err());
    }

    #[test]
    fn reducer_sees_each_keys_values_in_input_order() {
        // Mapper [x mod 3, x]; the reducer reports its value list as is,
        // so the output shows the order the shuffle handed over.
        let mapper = Arc::new(Ring::reporter_with_params(
            vec!["x".into()],
            make_list(vec![modulo(var("x"), num(3.0)), var("x")]),
        ));
        let reducer = Arc::new(Ring::reporter_with_params(vec!["vals".into()], var("vals")));
        let items: Vec<Value> = (0..90).map(|n| Value::Number(n as f64)).collect();
        let out = run_map_reduce(mapper, reducer, items, 4).unwrap();
        assert_eq!(out.len(), 3);
        for (key, group) in out.iter().enumerate() {
            let group = group.as_list().unwrap();
            assert_eq!(group.item(1).unwrap(), Value::Number(key as f64));
            let values = group.item(2).unwrap().as_list().unwrap().to_vec();
            let want: Vec<Value> = (0..30)
                .map(|i| Value::Number((key + 3 * i) as f64))
                .collect();
            assert_eq!(values, want, "key {key}");
        }
    }

    #[test]
    fn parallel_for_each_runs_every_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        parallel_for_each((0..50).collect::<Vec<i32>>(), 4, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    fn word_count_mapper() -> Arc<Ring> {
        Arc::new(Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0)]),
        ))
    }

    fn word_count_reducer() -> Arc<Ring> {
        Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ))
    }

    #[test]
    fn associative_detection_accepts_plain_folds() {
        use super::associative_fold_op;
        use snap_ast::BinOp;
        // Named-parameter form: the word-count reducer.
        assert_eq!(associative_fold_op(&word_count_reducer()), Some(BinOp::Add));
        // Implicit-slot form: combine ( ) using (( ) × ( )).
        let slots = Ring::reporter(combine_using(
            empty_slot(),
            ring_reporter(mul(empty_slot(), empty_slot())),
        ));
        assert_eq!(associative_fold_op(&slots), Some(BinOp::Mul));
        // Named inner parameters.
        let named_inner = Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(
                var("vals"),
                ring_reporter_with(vec!["a", "b"], add(var("a"), var("b"))),
            ),
        );
        assert_eq!(associative_fold_op(&named_inner), Some(BinOp::Add));
    }

    #[test]
    fn associative_detection_rejects_non_folds() {
        use super::associative_fold_op;
        // Climate reducer: combine ÷ length — the root is not the fold.
        let climate = Ring::reporter_with_params(
            vec!["vals".into()],
            div(
                combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
                length_of(var("vals")),
            ),
        );
        assert_eq!(associative_fold_op(&climate), None);
        // Identity reducer.
        let identity = Ring::reporter_with_params(vec!["vals".into()], item(num(1.0), var("vals")));
        assert_eq!(associative_fold_op(&identity), None);
        // Non-associative operator.
        let subtract = Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(sub(empty_slot(), empty_slot()))),
        );
        assert_eq!(associative_fold_op(&subtract), None);
        // Fold over something other than the reducer's own argument.
        let wrong_list = Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(
                make_list(vec![num(1.0), num(2.0)]),
                ring_reporter(add(empty_slot(), empty_slot())),
            ),
        );
        assert_eq!(associative_fold_op(&wrong_list), None);
        // Inner ring using a captured/free variable, not its own inputs.
        let free_var = Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), var("x")))),
        );
        assert_eq!(associative_fold_op(&free_var), None);
    }

    #[test]
    fn combiner_output_matches_disabled_exactly() {
        use super::{map_reduce_with_combine, CombinePolicy};
        use snap_workers::RingMapOptions;
        // A word corpus big enough to clear COMBINE_MIN_PAIRS, with heavy
        // key repetition and case variation.
        let words = ["the", "The", "fox", "dog", "THE", "a", "dog"];
        let items: Vec<Value> = (0..400).map(|i| words[i % words.len()].into()).collect();
        let options = RingMapOptions {
            workers: 4,
            ..Default::default()
        };
        let combined_before = snap_trace::well_known::SHUFFLE_PAIRS_COMBINED.get();
        let on = map_reduce_with_combine(
            word_count_mapper(),
            word_count_reducer(),
            items.clone(),
            options,
            CombinePolicy::Auto,
        )
        .unwrap();
        assert!(
            snap_trace::well_known::SHUFFLE_PAIRS_COMBINED.get() > combined_before,
            "Auto must actually combine on an associative reducer"
        );
        let off = map_reduce_with_combine(
            word_count_mapper(),
            word_count_reducer(),
            items,
            options,
            CombinePolicy::Disabled,
        )
        .unwrap();
        assert_eq!(on, off, "combining must not change output or ordering");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let ring = Arc::new(Ring::reporter(pow(empty_slot(), num(2.0))));
        let items: Vec<Value> = (1..=100).map(|n| Value::Number(n as f64)).collect();
        let expected = parallel_map(ring.clone(), items.clone(), 1).unwrap();
        for workers in [2, 3, 4, 8, 16] {
            assert_eq!(
                parallel_map(ring.clone(), items.clone(), workers).unwrap(),
                expected,
                "worker count {workers} changed the result"
            );
        }
    }

    fn options(workers: usize) -> snap_workers::RingMapOptions {
        snap_workers::RingMapOptions {
            workers,
            ..Default::default()
        }
    }

    #[test]
    fn parallel_map_list_reads_a_numeric_list_and_reports_numbers() {
        use super::parallel_map_list;
        use snap_ast::List;
        let ring = Arc::new(Ring::reporter(sub(mul(empty_slot(), num(3.0)), num(0.5))));
        let numbers: Vec<f64> = (0..100).map(|n| n as f64 * 0.25).collect();
        let numeric = List::from_numbers(numbers.clone());
        let boxed = List::boxed(numbers.iter().map(|&n| n.into()).collect());
        let from_numeric = parallel_map_list(ring.clone(), &numeric, options(3)).unwrap();
        let from_boxed = parallel_map_list(ring, &boxed, options(3)).unwrap();
        assert!(from_numeric.is_numeric());
        let want: Vec<Value> = numbers.iter().map(|n| (n * 3.0 - 0.5).into()).collect();
        assert_eq!(from_numeric.to_vec(), want);
        assert_eq!(from_boxed.to_vec(), want);
        // Read, not changed, and free to write once the block returns.
        assert_eq!(numeric.len(), 100);
        numeric.add(1.into());
        boxed.add(1.into());
        assert_eq!((numeric.len(), boxed.len()), (101, 101));
    }

    #[test]
    fn a_failed_parallel_map_list_releases_the_list() {
        use super::parallel_map_list;
        use snap_ast::List;
        // `item 5 of` a number fails on whichever worker runs it.
        let ring = Arc::new(Ring::reporter(item(num(5.0), empty_slot())));
        let list = List::from_numbers((0..40).map(f64::from).collect());
        assert!(parallel_map_list(ring, &list, options(2)).is_err());
        list.set_item(1, "written".into());
        assert_eq!(list.item(1), Some(Value::text("written")));
    }

    #[test]
    fn map_reduce_list_hands_each_group_over_as_a_numeric_list() {
        use super::{map_reduce_list, CombinePolicy};
        use snap_ast::List;
        // Mapper [x mod 3, x]; the reducer reports its value list.
        let mapper = Arc::new(Ring::reporter_with_params(
            vec!["x".into()],
            make_list(vec![modulo(var("x"), num(3.0)), var("x")]),
        ));
        let reducer = Arc::new(Ring::reporter_with_params(vec!["vals".into()], var("vals")));
        let list = List::from_numbers((0..60).map(f64::from).collect());
        let out = map_reduce_list(mapper, reducer, &list, options(2), CombinePolicy::Auto).unwrap();
        assert_eq!(out.len(), 3);
        for (k, pair) in out.to_vec().iter().enumerate() {
            let pair = pair.as_list().unwrap();
            assert_eq!(pair.item(1), Some(Value::Number(k as f64)));
            let group = pair.item(2).unwrap();
            let group = group.as_list().unwrap();
            assert!(group.is_numeric(), "group {k}");
            let want: Vec<Value> = (0..20).map(|i| ((3 * i + k) as f64).into()).collect();
            assert_eq!(group.to_vec(), want);
        }
    }

    #[test]
    fn map_reduce_list_matches_the_vec_entry_point_on_words() {
        use super::{map_reduce_list, map_reduce_with_combine, CombinePolicy};
        use snap_ast::List;
        let words: Vec<Value> = "b a c a b a".split(' ').map(Value::from).collect();
        let list = List::from_vec(words.clone());
        for combine in [CombinePolicy::Auto, CombinePolicy::Disabled] {
            let by_list = map_reduce_list(
                word_count_mapper(),
                word_count_reducer(),
                &list,
                options(2),
                combine,
            )
            .unwrap();
            let by_vec = map_reduce_with_combine(
                word_count_mapper(),
                word_count_reducer(),
                words.clone(),
                options(2),
                combine,
            )
            .unwrap();
            assert_eq!(by_list.to_vec(), by_vec);
            assert_eq!(
                Value::List(by_list).to_display_string(),
                "[[a, 3], [b, 2], [c, 1]]"
            );
        }
        assert_eq!(list.len(), 6);
    }

    #[test]
    fn parallel_map_engages_the_columnar_tier() {
        // The block-level contract of the batch tier: a numeric
        // parallelMap over an all-Number list must flow through
        // eval_batch chunks, and produce the per-element results.
        let chunks_before = snap_trace::well_known::PAR_COLUMNAR_CHUNKS.get();
        let batch_before = snap_trace::well_known::RING_BATCH_ELEMS.get();
        let ring = Arc::new(Ring::reporter(pow(empty_slot(), num(2.0))));
        let items: Vec<Value> = (1..=1000).map(|n| Value::Number(n as f64)).collect();
        let out = parallel_map(ring, items, 4).unwrap();
        assert_eq!(out.len(), 1000);
        assert_eq!(out[9], Value::Number(100.0));
        assert!(snap_trace::well_known::PAR_COLUMNAR_CHUNKS.get() > chunks_before);
        assert!(snap_trace::well_known::RING_BATCH_ELEMS.get() >= batch_before + 1000);
    }
}
