//! The fault ladder on the columnar rungs, run where CI's ASan job runs
//! it: injected chunk panics in `mapReduce`'s keyed-columnar map are
//! retried with identical output, a zero-retry exhaustion degrades once
//! to the sequential path over the same input, a missed deadline is an
//! error, and a degraded `parallelMap` equals the pooled one. A numeric
//! `parallelMap`, whose chunks write into their own slices of one
//! result, rewrites a retried chunk's slice and hands out nothing when
//! it misses its deadline. Blocks
//! whose rings read the very list they map, held as numbers and held
//! boxed, go through a degraded call and a retried chunk while the block
//! holds the list's read lock, and leave the list as it was.
//!
//! The fault injector and the counters are process-wide, so every test
//! holds [`injector_lock`] and uninstalls the injector before releasing
//! it.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::{List, Ring, Value};
use snap_parallel::{
    map_reduce_list, map_reduce_with_options, parallel_map_list, parallel_map_with_options,
    CombinePolicy,
};
use snap_trace::well_known as metrics;
use snap_workers::{install_injector, ColumnarPolicy, FaultInjector, FaultPolicy, RingMapOptions};

fn injector_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn word_count_mapper() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ))
}

fn sum_reducer() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ))
}

fn climate_mapper() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["t".into()],
        make_list(vec![
            text("avg"),
            div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
        ]),
    ))
}

fn mean_reducer() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        div(
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
            length_of(var("vals")),
        ),
    ))
}

fn words(n: usize) -> Vec<Value> {
    let vocabulary = ["the", "The", "fox", "dog", "a", "über"];
    (0..n)
        .map(|i| Value::text(vocabulary[(i * 7) % 6]))
        .collect()
}

fn temps(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| Value::Number(20.0 + (i % 97) as f64 * 0.37))
        .collect()
}

fn options(workers: usize, policy: FaultPolicy) -> RingMapOptions {
    RingMapOptions {
        workers,
        policy,
        ..Default::default()
    }
}

/// Bits-equal outputs of two runs (NaN payloads aside, though none
/// arise here).
fn assert_same(a: &[Value], b: &[Value]) {
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "outputs differ in their values"
    );
}

#[test]
fn injected_chunk_panics_on_the_keyed_rung_are_retried_with_identical_output() {
    let _guard = injector_lock();
    install_injector(None);
    let cases = [
        (word_count_mapper(), sum_reducer(), words(5_000)),
        (climate_mapper(), mean_reducer(), temps(5_000)),
    ];
    for (mapper, reducer, items) in cases {
        let clean = map_reduce_with_options(
            mapper.clone(),
            reducer.clone(),
            items.clone(),
            options(3, FaultPolicy::default()),
        )
        .unwrap();
        let retried_before = metrics::FAULT_RETRIES_SCHEDULED.get();
        let fallbacks_before = metrics::RING_BATCH_FALLBACKS.get();
        install_injector(Some(FaultInjector::new(0x5EED).panic_probability(0.5)));
        let policy = FaultPolicy::with_retries(12).backoff(Duration::from_micros(10));
        let faulted = map_reduce_with_options(mapper, reducer, items, options(3, policy));
        install_injector(None);
        assert_same(&faulted.unwrap(), &clean);
        assert!(metrics::FAULT_RETRIES_SCHEDULED.get() > retried_before);
        assert_eq!(
            metrics::RING_BATCH_FALLBACKS.get(),
            fallbacks_before,
            "the retried map stayed on the keyed rung"
        );
    }
}

#[test]
fn zero_retry_exhaustion_degrades_once_to_the_sequential_path() {
    let _guard = injector_lock();
    install_injector(None);
    let items = temps(4_096);
    let clean = map_reduce_with_options(
        climate_mapper(),
        mean_reducer(),
        items.clone(),
        options(2, FaultPolicy::default()),
    )
    .unwrap();
    // A seed that fails the keyed map's second chunk but spares index 0,
    // the one reduce group: the map degrades, the reduce does not.
    let injector = (0..)
        .map(|seed| FaultInjector::new(seed).panic_probability(0.5))
        .find(|i| !i.should_panic(0, 0) && i.should_panic(1, 0))
        .unwrap();
    let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
    let injected_before = metrics::FAULT_INJECTED_PANICS.get();
    let chunks_before = metrics::PAR_COLUMNAR_CHUNKS.get();
    install_injector(Some(injector));
    let degraded = map_reduce_with_options(
        climate_mapper(),
        mean_reducer(),
        items,
        options(2, FaultPolicy::default()),
    );
    install_injector(None);
    assert_same(&degraded.unwrap(), &clean);
    assert_eq!(metrics::FAULT_DEGRADED_RUNS.get() - degraded_before, 1);
    // The injected panics hit the keyed map's chunks (the degraded path
    // injects nothing), and a keyed map whose result is dropped is not
    // counted: the sequential path produced the output.
    assert!(
        metrics::FAULT_INJECTED_PANICS.get() > injected_before,
        "the keyed rung ran before degrading"
    );
    assert_eq!(metrics::PAR_COLUMNAR_CHUNKS.get(), chunks_before);
}

#[test]
fn deadline_errors_propagate_from_the_keyed_rung() {
    let _guard = injector_lock();
    let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
    let fallbacks_before = metrics::RING_BATCH_FALLBACKS.get();
    // Every chunk sleeps 20 ms before it runs; one worker walks two or
    // more chunks, so the 5 ms deadline passes before the second.
    install_injector(Some(
        FaultInjector::new(3).delay_probability(1.0, Duration::from_millis(20)),
    ));
    let policy = FaultPolicy::default().deadline(Duration::from_millis(5));
    let result = map_reduce_with_options(
        climate_mapper(),
        mean_reducer(),
        temps(4_096),
        options(1, policy),
    );
    install_injector(None);
    let err = result.expect_err("the deadline must surface");
    assert!(err.to_string().contains("deadline exceeded"), "{err}");
    assert_eq!(metrics::FAULT_DEGRADED_RUNS.get(), degraded_before);
    assert_eq!(
        metrics::RING_BATCH_FALLBACKS.get(),
        fallbacks_before,
        "the deadline was the keyed rung's, not the boxed path's"
    );
}

#[test]
fn degraded_parallel_map_equals_the_pooled_map() {
    let _guard = injector_lock();
    install_injector(None);
    let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
    let items: Vec<Value> = (0..10_000).map(|i| Value::Number(i as f64 * 0.5)).collect();
    let pooled = parallel_map_with_options(
        ring.clone(),
        items.clone(),
        options(4, FaultPolicy::default()),
    )
    .unwrap();
    let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
    install_injector(Some(FaultInjector::new(17).panic_probability(1.0)));
    let degraded = parallel_map_with_options(ring, items, options(4, FaultPolicy::default()));
    install_injector(None);
    assert_same(&degraded.unwrap(), &pooled);
    assert_eq!(metrics::FAULT_DEGRADED_RUNS.get() - degraded_before, 1);
}

/// `( ) × 10` over 10,000 numbers stored as numbers: on 2 workers, the
/// columnar map cuts them into 4 chunks, which the injector keys 0–3.
fn numeric_map_case() -> (Arc<Ring>, List, u64) {
    let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
    let numbers: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.5 - 7.25).collect();
    (ring, List::from_numbers(numbers), 4)
}

#[test]
fn a_numeric_parallel_map_rewrites_a_retried_chunk_in_place() {
    let _guard = injector_lock();
    install_injector(None);
    let (ring, list, chunks) = numeric_map_case();
    let per_item = parallel_map_list(
        ring.clone(),
        &list,
        RingMapOptions {
            columnar: ColumnarPolicy::Disabled,
            ..options(2, FaultPolicy::default())
        },
    )
    .unwrap();
    // A seed that fails exactly one chunk's first attempt, and no retry.
    let one_chunk_once = (0..)
        .map(|seed| FaultInjector::new(seed).panic_probability(0.3))
        .find(|i| {
            (0..chunks).filter(|&k| i.should_panic(k, 0)).count() == 1
                && (0..chunks).all(|k| !i.should_panic(k, 1))
        })
        .unwrap();
    let retries_before = metrics::FAULT_RETRIES_SCHEDULED.get();
    let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
    let chunks_before = metrics::PAR_COLUMNAR_CHUNKS.get();
    install_injector(Some(one_chunk_once));
    let policy = FaultPolicy::with_retries(1).backoff(Duration::from_micros(10));
    let retried = parallel_map_list(ring, &list, options(2, policy));
    install_injector(None);
    let retried = retried.unwrap();
    assert!(retried.is_numeric());
    assert_same(&retried.to_vec(), &per_item.to_vec());
    assert_eq!(metrics::FAULT_RETRIES_SCHEDULED.get() - retries_before, 1);
    assert_eq!(metrics::FAULT_DEGRADED_RUNS.get(), degraded_before);
    // The injected panic strikes before its chunk runs: each chunk ran
    // once, on the columnar tier.
    assert_eq!(metrics::PAR_COLUMNAR_CHUNKS.get() - chunks_before, chunks);
}

#[test]
fn a_numeric_parallel_map_that_misses_its_deadline_hands_out_no_list() {
    let _guard = injector_lock();
    let (ring, list, _) = numeric_map_case();
    let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
    let deadlines_before = metrics::FAULT_DEADLINES_EXCEEDED.get();
    // Every chunk sleeps 20 ms first: each worker's second claim comes
    // after the 5 ms deadline, so two of the four slices stay unwritten.
    install_injector(Some(
        FaultInjector::new(5).delay_probability(1.0, Duration::from_millis(20)),
    ));
    let policy = FaultPolicy::default().deadline(Duration::from_millis(5));
    let result = parallel_map_list(ring, &list, options(2, policy));
    install_injector(None);
    let err = result.expect_err("no partial list may escape a missed deadline");
    assert!(err.to_string().contains("deadline exceeded"), "{err}");
    assert_eq!(
        metrics::FAULT_DEADLINES_EXCEEDED.get() - deadlines_before,
        1
    );
    assert_eq!(metrics::FAULT_DEGRADED_RUNS.get(), degraded_before);
    assert!(list.is_numeric());
    assert_eq!(list.item(3), Some(Value::Number(-6.25)));
}

/// `(x + length of xs)`, with `xs` captured: every call reads `xs`.
fn plus_length_of(xs: &List) -> Arc<Ring> {
    Arc::new(
        Ring::reporter(add(empty_slot(), length_of(var("xs"))))
            .with_captured(vec![("xs".into(), Value::List(xs.clone()))]),
    )
}

/// `(combine vals using +) + (length of xs)`, with `xs` captured.
fn sum_plus_length_of(xs: &List) -> Arc<Ring> {
    Arc::new(
        Ring::reporter_with_params(
            vec!["vals".into()],
            add(
                combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
                length_of(var("xs")),
            ),
        )
        .with_captured(vec![("xs".into(), Value::List(xs.clone()))]),
    )
}

/// `[x mod 3, x]`: a mapper the keyed rung runs.
fn mod_three_mapper() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["x".into()],
        make_list(vec![modulo(var("x"), num(3.0)), var("x")]),
    ))
}

#[test]
fn blocks_whose_rings_read_the_list_they_map_survive_faults_in_both_forms() {
    let _guard = injector_lock();
    install_injector(None);
    let numbers: Vec<f64> = (0..3_000).map(|i| i as f64 * 0.25).collect();
    let values: Vec<Value> = numbers.iter().map(|&n| Value::Number(n)).collect();
    // A seed whose injector fails item 0's first attempt only: a retry.
    let retried_once = (0..)
        .map(|seed| FaultInjector::new(seed).panic_probability(0.5))
        .find(|i| i.should_panic(0, 0) && !i.should_panic(0, 1))
        .unwrap();
    let mut outputs = Vec::new();
    for list in [
        List::from_numbers(numbers.clone()),
        List::boxed(values.clone()),
    ] {
        let numeric = list.is_numeric();
        let map = |policy: FaultPolicy| {
            parallel_map_list(plus_length_of(&list), &list, options(2, policy)).map(List::into_vec)
        };
        let map_reduce = |policy: FaultPolicy| {
            let reducer = sum_plus_length_of(&list);
            let options = options(2, policy);
            map_reduce_list(
                mod_three_mapper(),
                reducer,
                &list,
                options,
                CombinePolicy::Auto,
            )
            .map(List::into_vec)
        };
        let clean = (
            map(FaultPolicy::default()).unwrap(),
            map_reduce(FaultPolicy::default()).unwrap(),
        );
        assert_eq!(clean.0[4], Value::Number(1.0 + 3_000.0));

        // Every attempt panics and none is retried: both blocks degrade
        // to the sequential path over the same list, on this thread.
        install_injector(Some(FaultInjector::new(9).panic_probability(1.0)));
        let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
        let degraded = (
            map(FaultPolicy::default()),
            map_reduce(FaultPolicy::default()),
        );
        install_injector(None);
        assert!(metrics::FAULT_DEGRADED_RUNS.get() - degraded_before >= 2);
        assert_same(&degraded.0.unwrap(), &clean.0);
        assert_same(&degraded.1.unwrap(), &clean.1);

        // One chunk's first attempt panics and its retry succeeds.
        let policy = FaultPolicy::with_retries(2).backoff(Duration::from_micros(10));
        let retries_before = metrics::FAULT_RETRIES_SCHEDULED.get();
        install_injector(Some(retried_once));
        let retried = (map(policy), map_reduce(policy));
        install_injector(None);
        assert!(metrics::FAULT_RETRIES_SCHEDULED.get() > retries_before);
        assert_same(&retried.0.unwrap(), &clean.0);
        assert_same(&retried.1.unwrap(), &clean.1);

        // The list is as it was, in its form, and free to read and write.
        assert_eq!(list.is_numeric(), numeric);
        assert_same(&list.to_vec(), &values);
        list.add(Value::text("unlocked"));
        assert_eq!(list.delete(list.len()), Some(Value::text("unlocked")));
        outputs.push(clean);
    }
    assert_same(&outputs[0].0, &outputs[1].0);
    assert_same(&outputs[0].1, &outputs[1].1);
}
