//! Acceptance tests for the columnar batch tier at the blocks layer:
//! `parallelMap` and `mapReduce` on the columnar tier ("on") must
//! produce output — values *and* ordering — bit-for-bit identical to
//! the per-element path ("off"), on both the numeric climate workload
//! and the word-count corpus. A `parallelMap` is off when its numbers
//! are held boxed; a `mapReduce` is off when composed from its public
//! phases (`common::public_phases`). Both `[key, value]` mappers run on
//! the keyed-columnar rung.
//!
//! The rung checks read the process-wide `par.columnar_chunks` and
//! `ring.batch_fallbacks` counters, so every test holds
//! [`counter_lock`].

mod common;

use std::sync::{Arc, Mutex, MutexGuard};

use snap_ast::builder::*;
use snap_ast::{List, Ring, Value};
use snap_data::{generate_noaa, generate_words, NoaaConfig};
use snap_parallel::{map_reduce, map_reduce_list, parallel_map, parallel_map_list};
use snap_trace::well_known as metrics;

const WORKERS: usize = 4;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Serialize on the tier counters (a failed sibling's poison does not
/// matter: the lock guards no data).
fn counter_lock() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` and assert that it took the keyed-columnar rung: columnar
/// chunks ran and no map declined the columnar tier.
fn on_keyed_rung<R>(f: impl FnOnce() -> R) -> R {
    let chunks_before = metrics::PAR_COLUMNAR_CHUNKS.get();
    let fallback_before = metrics::RING_BATCH_FALLBACKS.get();
    let out = f();
    assert!(
        metrics::PAR_COLUMNAR_CHUNKS.get() > chunks_before,
        "the [key, value] mapper must run on the keyed-columnar rung"
    );
    assert_eq!(
        metrics::RING_BATCH_FALLBACKS.get(),
        fallback_before,
        "the keyed rung never counts a columnar fallback"
    );
    out
}

/// `parallelMap` over `items` held boxed: one call per item, off the
/// columnar tier.
fn per_item_map(ring: Arc<Ring>, items: Vec<Value>) -> Vec<Value> {
    let fallback_before = metrics::RING_BATCH_FALLBACKS.get();
    let out = parallel_map_list(ring, &List::boxed(items), WORKERS).unwrap();
    assert!(
        metrics::RING_BATCH_FALLBACKS.get() > fallback_before,
        "a boxed list stays off the columnar tier"
    );
    out.into_vec()
}

/// °F → °C as a one-parameter ring: 5 × (t − 32) ÷ 9.
fn f_to_c_ring() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["t".into()],
        div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
    ))
}

/// Bit-exact elementwise comparison for number lists, modulo NaN
/// payloads (any NaN matches any NaN): which payload propagates when
/// two NaNs meet at a commutable op is an instruction-operand-order
/// artifact the optimizer may pick differently for the scalar and
/// vectorized loops. Signed zeros, infinities and subnormals are exact.
fn assert_numbers_bits_eq(a: &[Value], b: &[Value]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        match (x, y) {
            (Value::Number(p), Value::Number(q)) => assert!(
                p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                "element {i}: {p:?} vs {q:?}"
            ),
            _ => assert_eq!(x, y, "element {i}"),
        }
    }
}

#[test]
fn climate_parallel_map_columnar_on_off_are_identical() {
    let _serial = counter_lock();
    let dataset = generate_noaa(&NoaaConfig {
        stations: 10,
        years: 10,
        readings_per_year: 52,
        ..NoaaConfig::default()
    });
    let temps = dataset.temps_f_values();
    let chunks_before = metrics::PAR_COLUMNAR_CHUNKS.get();
    let on = parallel_map(f_to_c_ring(), temps.clone(), WORKERS).unwrap();
    assert!(
        metrics::PAR_COLUMNAR_CHUNKS.get() > chunks_before,
        "the all-numeric climate map must take the columnar tier"
    );
    let off = per_item_map(f_to_c_ring(), temps);
    assert_numbers_bits_eq(&on, &off);
}

#[test]
fn awkward_floats_survive_the_columnar_tier_bitwise() {
    // parallelMap over the IEEE specials: ordering and bits must match
    // the per-element path exactly.
    let _serial = counter_lock();
    let mut inputs: Vec<Value> = (0..40).map(|i| Value::Number(i as f64 * 1.7)).collect();
    for special in [
        f64::NAN,
        f64::from_bits(0x7ff8_0000_dead_beef),
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
    ] {
        inputs.push(Value::Number(special));
    }
    let ring = Arc::new(Ring::reporter(add(
        mul(empty_slot(), num(0.1)),
        modulo(empty_slot(), num(7.0)),
    )));
    let on = parallel_map(ring.clone(), inputs.clone(), WORKERS).unwrap();
    let off = per_item_map(ring, inputs);
    assert_numbers_bits_eq(&on, &off);
}

#[test]
fn word_count_map_reduce_columnar_on_off_are_identical() {
    // The word-count mapper [w, 1] lowers to a pair program, so the
    // block runs it on the keyed rung (text keys, constant values,
    // combined per chunk) and must change nothing, including key
    // ordering.
    let _serial = counter_lock();
    let mapper = Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ));
    let reducer = Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ));
    let words: Vec<Value> = generate_words(5_000, 42)
        .into_iter()
        .map(Value::from)
        .collect();
    let on = on_keyed_rung(|| {
        map_reduce(mapper.clone(), reducer.clone(), words.clone(), WORKERS).unwrap()
    });
    let off = common::public_phases(mapper, reducer, &words, WORKERS).unwrap();
    assert_eq!(on, off, "the keyed rung changed mapReduce output");
}

#[test]
fn climate_map_reduce_columnar_on_off_are_identical() {
    // The full climate pipeline (["avg", °C] mapper, averaging reducer)
    // both ways: the block runs the map on the keyed rung (one constant
    // key, batched values) and the output must be unchanged.
    let _serial = counter_lock();
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
    let temps = generate_noaa(&NoaaConfig {
        stations: 5,
        years: 5,
        readings_per_year: 24,
        ..NoaaConfig::default()
    })
    .temps_f_values();
    let on = on_keyed_rung(|| {
        map_reduce(mapper.clone(), reducer.clone(), temps.clone(), WORKERS).unwrap()
    });
    let off = common::public_phases(mapper, reducer, &temps, WORKERS).unwrap();
    assert_eq!(on, off);
}

#[test]
fn numeric_lists_match_per_item_runs_over_boxed_lists() {
    // The blocks over a list stored as numbers, on the columnar tier and
    // the keyed rung, against the per-element path over the same numbers
    // held boxed: bit for bit, and the numeric list stays numeric.
    let _serial = counter_lock();
    let temps: Vec<f64> = generate_noaa(&NoaaConfig {
        stations: 8,
        years: 6,
        readings_per_year: 40,
        ..NoaaConfig::default()
    })
    .readings
    .iter()
    .map(|r| r.temp_f)
    .collect();
    let numeric = List::from_numbers(temps.clone());
    let boxed = List::boxed(temps.iter().map(|&t| Value::Number(t)).collect());

    let chunks_before = metrics::PAR_COLUMNAR_CHUNKS.get();
    let on = parallel_map_list(f_to_c_ring(), &numeric, WORKERS).unwrap();
    assert!(metrics::PAR_COLUMNAR_CHUNKS.get() > chunks_before);
    assert!(on.is_numeric(), "a numeric map reports a numeric list");
    let off = parallel_map_list(f_to_c_ring(), &boxed, WORKERS).unwrap();
    assert_numbers_bits_eq(&on.to_vec(), &off.to_vec());

    let mapper = Arc::new(Ring::reporter_with_params(
        vec!["t".into()],
        make_list(vec![
            modulo(floor(var("t")), num(4.0)),
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
    let on = on_keyed_rung(|| {
        map_reduce_list(mapper.clone(), reducer.clone(), &numeric, WORKERS).unwrap()
    });
    let off = common::public_phases(mapper, reducer, &boxed.to_vec(), WORKERS).unwrap();
    assert_eq!(on.len(), 4);
    assert_eq!(format!("{:?}", on.to_vec()), format!("{off:?}"));
    assert!(numeric.is_numeric() && !boxed.is_numeric());
}
