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
//! * `WorkerBackend` (in `snap-parallel`) — real OS threads standing in
//!   for Web Workers.
//!
//! The VM hands a block its input list by handle
//! ([`ParallelBackend::parallel_map_list`],
//! [`ParallelBackend::map_reduce_list`]). Both backends read it in place
//! under its read lock (the worker backend's batch tier reads a numeric
//! list as `f64`s) while the VM thread waits for the call; the rings
//! they run passed `compile_cached`'s purity check, so no ring can write
//! a list meanwhile. A backend that implements only the `Vec` methods
//! gets a snapshot of the list.

use std::sync::Arc;

use snap_ast::{compile_cached, EvalError, List, Ring, Value};

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

    /// `parallelMap` over `list` as the VM calls it: the result is the
    /// reported list. By default, [`ParallelBackend::parallel_map`] on a
    /// snapshot of the list.
    fn parallel_map_list(
        &self,
        ring: Arc<Ring>,
        list: &List,
        workers: usize,
    ) -> Result<Value, EvalError> {
        self.parallel_map(ring, list.to_vec(), workers)
            .map(Value::list)
    }

    /// `mapReduce` over `list` as the VM calls it. By default,
    /// [`ParallelBackend::map_reduce`] on a snapshot of the list.
    fn map_reduce_list(
        &self,
        mapper: Arc<Ring>,
        reducer: Arc<Ring>,
        list: &List,
        workers: usize,
    ) -> Result<Value, EvalError> {
        self.map_reduce(mapper, reducer, list.to_vec(), workers)
            .map(Value::list)
    }
}

/// The items of the list a by-handle method reported.
fn reported_items(reported: Value) -> Vec<Value> {
    match reported {
        Value::List(list) => list.into_vec(),
        other => vec![other],
    }
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
        workers: usize,
    ) -> Result<Vec<Value>, EvalError> {
        self.parallel_map_list(ring, &List::from_vec(items), workers)
            .map(reported_items)
    }

    fn map_reduce(
        &self,
        mapper: Arc<Ring>,
        reducer: Arc<Ring>,
        items: Vec<Value>,
        workers: usize,
    ) -> Result<Vec<Value>, EvalError> {
        self.map_reduce_list(mapper, reducer, &List::from_vec(items), workers)
            .map(reported_items)
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    /// One call per item, over the list in place.
    fn parallel_map_list(
        &self,
        ring: Arc<Ring>,
        list: &List,
        _workers: usize,
    ) -> Result<Value, EvalError> {
        // Memoized on ring identity: a parallelMap block inside a loop
        // re-verifies purity only on its first evaluation.
        let f = compile_cached(&ring)?;
        // The read guard is held for the call. `f` is pure, so it cannot
        // write a list; reading this one again only takes a second read
        // lock, and no writer can be waiting while the VM thread is here.
        list.with_view(|view| {
            view.iter()
                .map(|item| f.call1(item))
                .collect::<Result<_, _>>()
                .map(Value::list)
        })
    }

    fn map_reduce_list(
        &self,
        mapper: Arc<Ring>,
        reducer: Arc<Ring>,
        list: &List,
        _workers: usize,
    ) -> Result<Value, EvalError> {
        let map_fn = compile_cached(&mapper)?;
        let reduce_fn = compile_cached(&reducer)?;
        // Under the read guard, as in `parallel_map_list`.
        list.with_view(|view| snap_ast::pure::map_reduce(&map_fn, &reduce_fn, view.iter()))
            .map(Value::list)
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
    fn sequential_parallel_map_list_keeps_numbers_unboxed() {
        let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
        let numbers: Vec<f64> = (0..40).map(|i| i as f64 - 0.5).collect();
        let want: Vec<Value> = numbers.iter().map(|&n| (n * 10.0).into()).collect();
        let numeric = List::from_numbers(numbers.clone());
        let boxed = List::boxed(numbers.iter().map(|&n| n.into()).collect());
        for input in [numeric, boxed] {
            let out = SequentialBackend
                .parallel_map_list(ring.clone(), &input, 2)
                .unwrap();
            let out = out.as_list().unwrap();
            assert!(out.is_numeric());
            assert_eq!(out.to_vec(), want);
            // The input is read, not changed.
            assert_eq!(input.len(), numbers.len());
        }
    }

    #[test]
    fn sequential_parallel_map_list_with_a_text_ring_reports_text() {
        let ring = Arc::new(Ring::reporter(join(vec![empty_slot(), text("!")])));
        let out = SequentialBackend
            .parallel_map_list(ring, &List::from_numbers(vec![1.0, 2.5]), 1)
            .unwrap();
        assert_eq!(out, Value::list(vec!["1!".into(), "2.5!".into()]));
    }

    #[test]
    fn sequential_list_methods_reject_impure_rings() {
        let impure = Arc::new(Ring::reporter(pick_random(num(1.0), empty_slot())));
        let list = List::from_numbers(vec![1.0, 2.0]);
        assert!(SequentialBackend
            .parallel_map_list(impure.clone(), &list, 1)
            .is_err());
        let pure = Arc::new(Ring::reporter(empty_slot()));
        assert!(SequentialBackend
            .map_reduce_list(impure, pure, &list, 1)
            .is_err());
    }

    #[test]
    fn sequential_map_reduce_list_groups_a_numeric_list() {
        // mapper: x -> [x mod 3, x]; reducer: sum of values.
        let mapper = Arc::new(Ring::reporter_with_params(
            vec!["x".into()],
            make_list(vec![modulo(var("x"), num(3.0)), var("x")]),
        ));
        let reducer = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ));
        let list = List::from_numbers((1..=9).map(f64::from).collect());
        let out = SequentialBackend
            .map_reduce_list(mapper.clone(), reducer.clone(), &list, 2)
            .unwrap();
        let pair = |k: f64, v: f64| Value::number_list([k, v]);
        let want = Value::list(vec![pair(0.0, 18.0), pair(1.0, 12.0), pair(2.0, 15.0)]);
        assert_eq!(out, want);
        // The `Vec` method is the same block.
        let by_vec = SequentialBackend
            .map_reduce(mapper, reducer, list.to_vec(), 2)
            .unwrap();
        assert_eq!(Value::list(by_vec), want);
    }

    /// A backend with only the `Vec` methods, recording what it received.
    #[derive(Default)]
    struct VecOnly {
        received: std::sync::Mutex<Vec<Vec<Value>>>,
    }

    impl ParallelBackend for VecOnly {
        fn parallel_map(
            &self,
            ring: Arc<Ring>,
            items: Vec<Value>,
            workers: usize,
        ) -> Result<Vec<Value>, EvalError> {
            self.received.lock().unwrap().push(items.clone());
            SequentialBackend.parallel_map(ring, items, workers)
        }

        fn map_reduce(
            &self,
            mapper: Arc<Ring>,
            reducer: Arc<Ring>,
            items: Vec<Value>,
            workers: usize,
        ) -> Result<Vec<Value>, EvalError> {
            self.received.lock().unwrap().push(items.clone());
            SequentialBackend.map_reduce(mapper, reducer, items, workers)
        }

        fn name(&self) -> &'static str {
            "vec-only"
        }
    }

    #[test]
    fn default_list_methods_hand_the_vec_methods_a_snapshot() {
        let backend = VecOnly::default();
        let list = List::from_numbers(vec![1.0, 2.0]);
        let double = Arc::new(Ring::reporter(mul(empty_slot(), num(2.0))));
        let out = backend.parallel_map_list(double, &list, 3).unwrap();
        assert_eq!(out, Value::number_list([2.0, 4.0]));
        let pairs = List::from_vec(vec![Value::list(vec!["k".into(), 5.into()])]);
        let identity = Arc::new(Ring::reporter(empty_slot()));
        let first = Arc::new(Ring::reporter(item(num(1.0), empty_slot())));
        let out = backend.map_reduce_list(identity, first, &pairs, 3).unwrap();
        assert_eq!(
            out,
            Value::list(vec![Value::list(vec!["k".into(), 5.into()])])
        );
        let received = backend.received.lock().unwrap();
        assert_eq!(*received, vec![list.to_vec(), pairs.to_vec()]);
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
