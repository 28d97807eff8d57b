//! The hook through which the VM reaches true parallelism.
//!
//! The VM itself is single-threaded and cooperative, exactly like the
//! browser thread that hosts Snap! (paper §2). When a script evaluates a
//! `parallelMap` or `mapReduce` block, the VM hands the (ringified,
//! environment-capturing) function and the input data to a
//! [`ParallelBackend`] — the seam where the paper plugs in HTML5 Web
//! Workers via Parallel.js (§4.1).
//!
//! Two implementations exist:
//! * [`SequentialBackend`] (here) — evaluates in-thread; what Snap! does
//!   when no workers are available. Installed by default.
//! * `WorkerPoolBackend` (in `snap-parallel`) — real OS threads standing
//!   in for Web Workers.

use std::sync::Arc;

use snap_ast::{compile_cached, EvalError, Ring, Value};

/// Implementation of the truly parallel blocks.
pub trait ParallelBackend: Send + Sync {
    /// `parallelMap <ring> over <list>` with `workers` workers: apply
    /// `ring` to each item and return the results in input order.
    fn parallel_map(
        &self,
        ring: Arc<Ring>,
        items: Vec<Value>,
        workers: usize,
    ) -> Result<Vec<Value>, EvalError>;

    /// `mapReduce <mapper> <reducer> over <list>`: map each item to a
    /// `[key, value]` pair, sort/group by key, reduce each group, and
    /// return the sorted `[key, reduced]` list.
    fn map_reduce(
        &self,
        mapper: Arc<Ring>,
        reducer: Arc<Ring>,
        items: Vec<Value>,
        workers: usize,
    ) -> Result<Vec<Value>, EvalError>;

    /// Human-readable backend name (shows up in diagnostics).
    fn name(&self) -> &'static str;
}

/// In-thread fallback backend: the degradation Snap! performs when Web
/// Workers are unavailable. Semantically identical to the parallel
/// backend, so tests can compare outputs.
pub struct SequentialBackend;

impl ParallelBackend for SequentialBackend {
    fn parallel_map(
        &self,
        ring: Arc<Ring>,
        items: Vec<Value>,
        _workers: usize,
    ) -> Result<Vec<Value>, EvalError> {
        // Memoized on ring identity: a parallelMap block inside a loop
        // re-verifies purity only on its first evaluation.
        let f = compile_cached(&ring)?;
        items.into_iter().map(|item| f.call1(item)).collect()
    }

    fn map_reduce(
        &self,
        mapper: Arc<Ring>,
        reducer: Arc<Ring>,
        items: Vec<Value>,
        _workers: usize,
    ) -> Result<Vec<Value>, EvalError> {
        let map_fn = compile_cached(&mapper)?;
        let reduce_fn = compile_cached(&reducer)?;
        snap_ast::pure::map_reduce(&map_fn, &reduce_fn, items)
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_ast::builder::*;

    #[test]
    fn sequential_parallel_map_matches_paper_fig6() {
        let backend = SequentialBackend;
        let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
        let out = backend
            .parallel_map(ring, vec![3.into(), 7.into(), 8.into()], 4)
            .unwrap();
        assert_eq!(out, vec![30.into(), 70.into(), 80.into()]);
    }

    #[test]
    fn sequential_map_reduce_sorts_and_groups() {
        // mapper: the item itself is the pair; reducer: sum of values.
        let backend = SequentialBackend;
        let identity = Arc::new(Ring::reporter(empty_slot()));
        let sum = Arc::new(Ring::reporter(combine_using(
            empty_slot(),
            ring_reporter(add(empty_slot(), empty_slot())),
        )));
        let pairs = vec![
            Value::list(vec!["b".into(), 1.into()]),
            Value::list(vec!["a".into(), 2.into()]),
            Value::list(vec!["b".into(), 3.into()]),
        ];
        let out = backend.map_reduce(identity, sum, pairs, 1).unwrap();
        assert_eq!(
            out,
            vec![
                Value::list(vec!["a".into(), 2.into()]),
                Value::list(vec!["b".into(), 4.into()]),
            ]
        );
    }

    #[test]
    fn sequential_map_reduce_rejects_non_pairs() {
        // A number and a one-item list are not pairs, on this backend as
        // on the worker backend.
        let backend = SequentialBackend;
        let identity = Arc::new(Ring::reporter(empty_slot()));
        for bad in [Value::Number(3.0), Value::list(vec!["w".into()])] {
            let err = backend
                .map_reduce(identity.clone(), identity.clone(), vec![bad], 1)
                .unwrap_err();
            assert!(matches!(err, EvalError::TypeMismatch { .. }), "{err:?}");
        }
    }

    #[test]
    fn sequential_map_reduce_word_count_shape() {
        // mapper: word -> [word, 1]; reducer: sum of values
        let backend = SequentialBackend;
        let mapper = Arc::new(Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0)]),
        ));
        let reducer = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ));
        let words: Vec<Value> = ["the", "cat", "the"].iter().map(|&w| w.into()).collect();
        let out = backend.map_reduce(mapper, reducer, words, 4).unwrap();
        assert_eq!(
            out,
            vec![
                Value::list(vec!["cat".into(), 1.into()]),
                Value::list(vec!["the".into(), 2.into()]),
            ]
        );
    }
}
