//! The blocks' fault contract on the columnar rungs, run where CI's ASan
//! job runs it: a chunk that panics in `mapReduce`'s keyed-columnar map
//! makes the map phase degrade once to the sequential path over the
//! same input, with identical output, and a degraded `parallelMap`
//! equals the pooled one. A numeric `parallelMap`, whose chunks write
//! into their own slices of one result, drops the partly written result
//! when a chunk panics and reports the same numeric list from its
//! sequential run. Blocks whose rings read the very list they map, held
//! as numbers and held boxed, go through a degraded call while the block
//! holds the list's read lock, and leave the list as it was.
//!
//! The fault injector and the counters are process-wide, so every test
//! holds [`injector_lock`] and uninstalls the injector before releasing
//! it.

use std::sync::{Arc, Mutex, MutexGuard};

use snap_ast::builder::*;
use snap_ast::{List, Ring, Value};
use snap_parallel::{map_reduce, map_reduce_list, parallel_map, parallel_map_list};
use snap_trace::well_known as metrics;
use snap_workers::{install_injector, FaultInjector};

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
fn injected_chunk_panics_on_the_keyed_rung_degrade_with_identical_output() {
    let _guard = injector_lock();
    install_injector(None);
    let cases = [
        (word_count_mapper(), sum_reducer(), words(5_000)),
        (climate_mapper(), mean_reducer(), temps(5_000)),
    ];
    for (mapper, reducer, items) in cases {
        let clean = map_reduce(mapper.clone(), reducer.clone(), items.clone(), 3).unwrap();
        let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
        let retried_before = metrics::FAULT_RETRIES_SCHEDULED.get();
        let fallbacks_before = metrics::RING_BATCH_FALLBACKS.get();
        install_injector(Some(FaultInjector::new(0x5EED).panic_probability(0.5)));
        let faulted = map_reduce(mapper, reducer, items, 3);
        install_injector(None);
        assert_same(&faulted.unwrap(), &clean);
        assert!(metrics::FAULT_DEGRADED_RUNS.get() > degraded_before);
        assert_eq!(metrics::FAULT_RETRIES_SCHEDULED.get(), retried_before);
        assert_eq!(
            metrics::RING_BATCH_FALLBACKS.get(),
            fallbacks_before,
            "the degraded map never tried the boxed path"
        );
    }
}

#[test]
fn a_panicked_keyed_chunk_degrades_the_map_phase_once() {
    let _guard = injector_lock();
    install_injector(None);
    let items = temps(4_096);
    let clean = map_reduce(climate_mapper(), mean_reducer(), items.clone(), 2).unwrap();
    // A seed that fails the keyed map's second chunk but spares index 0,
    // the one reduce group: the map degrades, the reduce does not.
    let injector = (0..)
        .map(|seed| FaultInjector::new(seed).panic_probability(0.5))
        .find(|i| !i.should_panic(0) && i.should_panic(1))
        .unwrap();
    let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
    let injected_before = metrics::FAULT_INJECTED_PANICS.get();
    let chunks_before = metrics::PAR_COLUMNAR_CHUNKS.get();
    install_injector(Some(injector));
    let degraded = map_reduce(climate_mapper(), mean_reducer(), items, 2);
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
fn degraded_parallel_map_equals_the_pooled_map() {
    let _guard = injector_lock();
    install_injector(None);
    let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
    let items: Vec<Value> = (0..10_000).map(|i| Value::Number(i as f64 * 0.5)).collect();
    let pooled = parallel_map(ring.clone(), items.clone(), 4).unwrap();
    let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
    install_injector(Some(FaultInjector::new(17).panic_probability(1.0)));
    let degraded = parallel_map(ring, items, 4);
    install_injector(None);
    assert_same(&degraded.unwrap(), &pooled);
    assert_eq!(metrics::FAULT_DEGRADED_RUNS.get() - degraded_before, 1);
}

#[test]
fn a_numeric_parallel_map_with_a_panicked_chunk_reports_the_same_numeric_list() {
    let _guard = injector_lock();
    install_injector(None);
    // `( ) × 10` over 10,000 numbers stored as numbers: on 2 workers, the
    // columnar map cuts them into 4 chunks, which the injector keys 0–3.
    let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
    let numbers: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.5 - 7.25).collect();
    let list = List::from_numbers(numbers.clone());
    let boxed = List::boxed(numbers.iter().map(|&n| Value::Number(n)).collect());
    let per_item = parallel_map_list(ring.clone(), &boxed, 2).unwrap();
    // A seed that fails exactly one chunk.
    let one_chunk = (0..)
        .map(|seed| FaultInjector::new(seed).panic_probability(0.3))
        .find(|i| (0..4).filter(|&k| i.should_panic(k)).count() == 1)
        .unwrap();
    let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
    let chunks_before = metrics::PAR_COLUMNAR_CHUNKS.get();
    install_injector(Some(one_chunk));
    let degraded = parallel_map_list(ring, &list, 2);
    install_injector(None);
    let degraded = degraded.unwrap();
    assert!(degraded.is_numeric());
    assert_same(&degraded.to_vec(), &per_item.to_vec());
    assert_eq!(metrics::FAULT_DEGRADED_RUNS.get() - degraded_before, 1);
    // The injected panic strikes before its chunk runs: the other three
    // ran on the columnar tier, and their slices went with the dropped
    // result.
    assert_eq!(metrics::PAR_COLUMNAR_CHUNKS.get() - chunks_before, 3);
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
    let mut outputs = Vec::new();
    for list in [
        List::from_numbers(numbers.clone()),
        List::boxed(values.clone()),
    ] {
        let numeric = list.is_numeric();
        let map = || parallel_map_list(plus_length_of(&list), &list, 2).map(List::into_vec);
        let map_reduce = || {
            map_reduce_list(mod_three_mapper(), sum_plus_length_of(&list), &list, 2)
                .map(List::into_vec)
        };
        let clean = (map().unwrap(), map_reduce().unwrap());
        assert_eq!(clean.0[4], Value::Number(1.0 + 3_000.0));

        // Every item panics on the pool: both blocks degrade to the
        // sequential path over the same list, on this thread.
        install_injector(Some(FaultInjector::new(9).panic_probability(1.0)));
        let degraded_before = metrics::FAULT_DEGRADED_RUNS.get();
        let degraded = (map(), map_reduce());
        install_injector(None);
        assert!(metrics::FAULT_DEGRADED_RUNS.get() - degraded_before >= 2);
        assert_same(&degraded.0.unwrap(), &clean.0);
        assert_same(&degraded.1.unwrap(), &clean.1);

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
