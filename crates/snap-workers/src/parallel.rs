//! A Parallel.js-shaped API on OS threads.
//!
//! The paper's Listing 1:
//!
//! ```js
//! var p = new Parallel([1,2,3,4], {maxWorkers: 2});
//! p.map(mydouble);
//! console.log(p.data);
//! ```
//!
//! becomes:
//!
//! ```
//! use snap_workers::Parallel;
//! let data = Parallel::new(vec![1, 2, 3, 4])
//!     .with_max_workers(2)
//!     .map(|n| n + n);
//! assert_eq!(data, vec![2, 4, 6, 8]);
//! ```
//!
//! Unlike Parallel.js — which spawns its Web Workers afresh per call —
//! execution runs on the shared process-wide pool. Results always come
//! back in input order.

#![forbid(unsafe_code)]

use crate::executor::map_slice_with;

/// Builder mirroring `new Parallel(data, opts)`.
#[derive(Debug)]
pub struct Parallel<T> {
    data: Vec<T>,
    max_workers: usize,
}

/// The default worker count: hardware concurrency if known, else 4 —
/// exactly the paper's `navigator.hardwareConcurrency || 4` (Listing 2).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

impl<T: Send + Sync> Parallel<T> {
    /// Wrap the input data.
    pub fn new(data: Vec<T>) -> Parallel<T> {
        Parallel {
            data,
            max_workers: default_workers(),
        }
    }

    /// `{maxWorkers: n}`.
    pub fn with_max_workers(mut self, workers: usize) -> Parallel<T> {
        self.max_workers = workers.max(1);
        self
    }

    /// Apply `f` to every item in parallel; results in input order.
    pub fn map<R: Send>(self, f: impl Fn(&T) -> R + Send + Sync) -> Vec<R> {
        map_slice_with(&self.data, self.max_workers, f)
    }

    /// Run `f` on every item in parallel, for its effects.
    pub fn for_each(self, f: impl Fn(&T) + Send + Sync) {
        let _ = self.map(|item| f(item));
    }

    /// Parallel map followed by a sequential fold of the results —
    /// Parallel.js's `reduce` (the per-item mapping runs on workers, the
    /// combination is associative-agnostic and stays ordered).
    pub fn map_reduce<R: Send, A>(
        self,
        f: impl Fn(&T) -> R + Send + Sync,
        init: A,
        fold: impl FnMut(A, R) -> A,
    ) -> A {
        self.map(f).into_iter().fold(init, fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn listing1_example() {
        // function mydouble(n) { return n+n; }
        let p = Parallel::new(vec![1, 2, 3, 4]).with_max_workers(2);
        assert_eq!(p.map(|n| n + n), vec![2, 4, 6, 8]);
    }

    #[test]
    fn results_stay_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = Parallel::new(items.clone())
            .with_max_workers(8)
            .map(|&n| n * 3);
        assert_eq!(out, items.iter().map(|n| n * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let out = Parallel::new(vec![5, 6]).with_max_workers(1).map(|n| n + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<i32> = Parallel::new(Vec::<i32>::new()).map(|n| *n);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_clamped() {
        let out = Parallel::new(vec![1, 2])
            .with_max_workers(64)
            .map(|n| n * 10);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn for_each_touches_every_item() {
        use std::sync::atomic::AtomicI64;
        let sum = AtomicI64::new(0);
        Parallel::new((1..=100i64).collect::<Vec<_>>())
            .with_max_workers(4)
            .for_each(|&n| {
                sum.fetch_add(n, Ordering::Relaxed);
            });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn map_reduce_combines_in_order() {
        let s = Parallel::new(vec!["a", "b", "c"])
            .with_max_workers(2)
            .map_reduce(|w| w.to_uppercase(), String::new(), |acc, w| acc + &w);
        assert_eq!(s, "ABC");
    }

    #[test]
    fn skewed_work_matches_sequential_map() {
        let items: Vec<u64> = (0..64).collect();
        // Item 0 is 100× more expensive.
        let cost = |&n: &u64| {
            let reps = if n == 0 { 10_000 } else { 100 };
            (0..reps).fold(n, |acc, _| acc.wrapping_mul(31).wrapping_add(7))
        };
        let out = Parallel::new(items.clone()).with_max_workers(4).map(cost);
        assert_eq!(out, items.iter().map(cost).collect::<Vec<_>>());
    }
}
