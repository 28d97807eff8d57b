//! Acceptance tests for map-side combining on the word-count corpus.
//!
//! The contract: on a realistic Zipf word corpus the combiner must cut
//! shuffled pairs by **at least 5×** while leaving the `mapReduce`
//! output — values *and* group ordering — bit-for-bit identical to the
//! uncombined run, the sequential `mapReduce`.
//!
//! The word-count mapper runs on the keyed-columnar rung, which folds
//! per key inside its map chunks; `combine_pairs` itself is checked
//! directly. The counter checks assert exact deltas of the process-wide
//! `shuffle.pairs_combined` / `shuffle.combine_runs` counters (which the
//! keyed rung moves too), and every test here runs a combiner, so each
//! test holds [`COUNTER_LOCK`]: no sibling can move the counters between
//! a test's before and after.

use std::sync::{Arc, Mutex, MutexGuard};

use snap_ast::builder::*;
use snap_ast::pure::compile_cached;
use snap_ast::{BinOp, List, Ring, Value};
use snap_data::generate_words;
use snap_parallel::{combine_pairs, map_reduce, map_reduce_list};
use snap_trace::well_known as metrics;
use snap_workers::ExecMode;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Serialize on the combiner counters (a failed sibling's poison does
/// not matter: the lock guards no data).
fn counter_lock() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
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

/// The uncombined `mapReduce`: the sequential one, which folds each
/// group's raw values in input order.
fn sequential_map_reduce(mapper: Arc<Ring>, reducer: Arc<Ring>, items: Vec<Value>) -> Vec<Value> {
    let mapper = compile_cached(&mapper).unwrap();
    let reducer = compile_cached(&reducer).unwrap();
    snap_ast::pure::map_reduce(&mapper, &reducer, items).unwrap()
}

/// The corpus used by the acceptance check: large enough that every
/// worker chunk sees each common word many times.
fn corpus(n: usize) -> Vec<Value> {
    generate_words(n, 42).into_iter().map(Value::from).collect()
}

#[test]
fn combiner_cuts_pairs_at_least_five_fold_on_word_corpus() {
    let _guard = counter_lock();
    // Deterministic, directly on the combiner: 20k Zipf words over a
    // bounded vocabulary, 4 chunks → at most 4 × vocabulary pairs out.
    let pairs: Vec<(Value, Value)> = corpus(20_000)
        .into_iter()
        .map(|w| (w, Value::Number(1.0)))
        .collect();
    let n_in = pairs.len();
    let combined_before = metrics::SHUFFLE_PAIRS_COMBINED.get();
    let runs_before = metrics::SHUFFLE_COMBINE_RUNS.get();
    let out = combine_pairs(pairs, BinOp::Add, 4, ExecMode::Pooled);
    assert!(
        out.len() * 5 <= n_in,
        "expected ≥5× pair reduction, got {} -> {}",
        n_in,
        out.len()
    );
    // The trace counters record exactly what was eliminated.
    assert_eq!(
        metrics::SHUFFLE_PAIRS_COMBINED.get() - combined_before,
        (n_in - out.len()) as u64
    );
    assert_eq!(metrics::SHUFFLE_COMBINE_RUNS.get() - runs_before, 1);
    // Totals survive: the partial sums still add up to the corpus size.
    let total: f64 = out.iter().map(|(_, v)| v.to_number()).sum();
    assert_eq!(total, n_in as f64);
}

#[test]
fn combined_map_reduce_output_is_identical_to_uncombined() {
    let _guard = counter_lock();
    // End-to-end mapReduce on the word-count corpus: the combined block
    // and the sequential mapReduce must agree exactly, across worker
    // counts, including output order.
    let items = corpus(8_000);
    let off = sequential_map_reduce(word_count_mapper(), word_count_reducer(), items.clone());
    for workers in [1, 2, 4, 8] {
        let chunks_before = metrics::PAR_COLUMNAR_CHUNKS.get();
        let fallback_before = metrics::RING_BATCH_FALLBACKS.get();
        let combined_before = metrics::SHUFFLE_PAIRS_COMBINED.get();
        let on = map_reduce(
            word_count_mapper(),
            word_count_reducer(),
            items.clone(),
            workers,
        )
        .unwrap();
        // The block took the keyed rung and combined there: its chunks
        // ran and no map declined the columnar tier.
        assert!(metrics::PAR_COLUMNAR_CHUNKS.get() > chunks_before);
        assert_eq!(metrics::RING_BATCH_FALLBACKS.get(), fallback_before);
        assert!(metrics::SHUFFLE_PAIRS_COMBINED.get() > combined_before);
        assert_eq!(on, off, "workers={workers}");
    }
}

#[test]
fn combined_output_on_number_lists_is_identical_in_both_forms() {
    let _guard = counter_lock();
    // Integer readings keyed by `x mod 7` and summed: the combiner folds
    // a numeric list's `f64`s per chunk and the reducer folds each group
    // as a numeric list; held boxed, or uncombined (the sequential
    // mapReduce), nothing changes.
    let mapper = Arc::new(Ring::reporter_with_params(
        vec!["x".into()],
        make_list(vec![modulo(var("x"), num(7.0)), var("x")]),
    ));
    let numbers: Vec<f64> = (0..6_000).map(|i| ((i * 37) % 1_000) as f64).collect();
    let numeric = List::from_numbers(numbers.clone());
    let boxed = List::boxed(numbers.iter().map(|&n| Value::Number(n)).collect());
    let run = |list: &List, workers: usize| {
        map_reduce_list(mapper.clone(), word_count_reducer(), list, workers)
            .unwrap()
            .to_vec()
    };
    let want = sequential_map_reduce(mapper.clone(), word_count_reducer(), boxed.to_vec());
    assert_eq!(want.len(), 7);
    for workers in [1, 2, 4] {
        let combined_before = metrics::SHUFFLE_PAIRS_COMBINED.get();
        assert_eq!(run(&numeric, workers), want, "workers={workers}");
        assert!(metrics::SHUFFLE_PAIRS_COMBINED.get() > combined_before);
        assert_eq!(run(&boxed, workers), want, "workers={workers}");
    }
}

#[test]
fn map_reduce_combines_on_the_word_corpus() {
    let _guard = counter_lock();
    // The block must actually engage the combiner for the associative
    // word-count reducer.
    let items = corpus(4_000);
    let before = metrics::SHUFFLE_PAIRS_COMBINED.get();
    let out = map_reduce(word_count_mapper(), word_count_reducer(), items, 4).unwrap();
    assert!(!out.is_empty());
    // The corpus vocabulary is ~105 words; 4 chunks keep at most
    // 4 × 105 pairs, so at least 4000 − 420 must have been eliminated.
    let eliminated = metrics::SHUFFLE_PAIRS_COMBINED.get() - before;
    assert!(
        eliminated >= 4_000 - 4 * 105,
        "the block barely combined: only {eliminated} pairs eliminated"
    );
}

#[test]
fn combine_pairs_counts_eliminated_pairs() {
    let _guard = counter_lock();
    let before = metrics::SHUFFLE_PAIRS_COMBINED.get();
    let pairs: Vec<(Value, Value)> = (0..100)
        .map(|i| (Value::Number((i % 5) as f64), 1.into()))
        .collect();
    let out = combine_pairs(pairs, BinOp::Add, 2, ExecMode::Pooled);
    // 2 chunks × 5 keys = 10 surviving pairs, 90 eliminated.
    assert_eq!(out.len(), 10);
    assert_eq!(metrics::SHUFFLE_PAIRS_COMBINED.get() - before, 90);
}
