//! Acceptance tests for the columnar batch tier at the blocks layer:
//! with `ColumnarPolicy::Auto`, `parallelMap` and `mapReduce` must
//! produce output — values *and* ordering — bit-for-bit identical to
//! the per-element (`Disabled`) runs, on both the numeric climate
//! workload and the word-count corpus. Both `[key, value]` mappers run
//! on the keyed-columnar rung under `Auto`.
//!
//! The rung checks read the process-wide `par.columnar_chunks` and
//! `ring.batch_fallbacks` counters, so every test holds
//! [`counter_lock`].

use std::sync::{Arc, Mutex, MutexGuard};

use snap_ast::builder::*;
use snap_ast::{List, Ring, Value};
use snap_data::{generate_noaa, generate_words, NoaaConfig};
use snap_parallel::{
    map_reduce_list, map_reduce_with_options, parallel_map_list, parallel_map_with_options,
    CombinePolicy,
};
use snap_trace::well_known as metrics;
use snap_workers::{ColumnarPolicy, RingMapOptions};

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

fn options(columnar: ColumnarPolicy) -> RingMapOptions {
    RingMapOptions {
        workers: 4,
        columnar,
        ..Default::default()
    }
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
    let on = parallel_map_with_options(f_to_c_ring(), temps.clone(), options(ColumnarPolicy::Auto))
        .unwrap();
    assert!(
        metrics::PAR_COLUMNAR_CHUNKS.get() > chunks_before,
        "the all-numeric climate map must take the columnar tier"
    );
    let off =
        parallel_map_with_options(f_to_c_ring(), temps, options(ColumnarPolicy::Disabled)).unwrap();
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
    let on = parallel_map_with_options(ring.clone(), inputs.clone(), options(ColumnarPolicy::Auto))
        .unwrap();
    let off = parallel_map_with_options(ring, inputs, options(ColumnarPolicy::Disabled)).unwrap();
    assert_numbers_bits_eq(&on, &off);
}

#[test]
fn word_count_map_reduce_columnar_on_off_are_identical() {
    // The word-count mapper [w, 1] lowers to a pair program, so Auto
    // runs it on the keyed rung (text keys, constant values, combined
    // per chunk) and must change nothing, including key ordering.
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
        map_reduce_with_options(
            mapper.clone(),
            reducer.clone(),
            words.clone(),
            options(ColumnarPolicy::Auto),
        )
        .unwrap()
    });
    let off =
        map_reduce_with_options(mapper, reducer, words, options(ColumnarPolicy::Disabled)).unwrap();
    assert_eq!(on, off, "columnar fallback changed mapReduce output");
}

#[test]
fn climate_map_reduce_columnar_on_off_are_identical() {
    // The full climate pipeline (["avg", °C] mapper, averaging reducer)
    // under both policies: Auto runs the map on the keyed rung (one
    // constant key, batched values) and the output must be unchanged.
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
        map_reduce_with_options(
            mapper.clone(),
            reducer.clone(),
            temps.clone(),
            options(ColumnarPolicy::Auto),
        )
        .unwrap()
    });
    let off =
        map_reduce_with_options(mapper, reducer, temps, options(ColumnarPolicy::Disabled)).unwrap();
    assert_eq!(on, off);
}

#[test]
fn numeric_lists_match_disabled_runs_over_boxed_lists() {
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
    let on = parallel_map_list(f_to_c_ring(), &numeric, options(ColumnarPolicy::Auto)).unwrap();
    assert!(metrics::PAR_COLUMNAR_CHUNKS.get() > chunks_before);
    assert!(on.is_numeric(), "a numeric map reports a numeric list");
    let off = parallel_map_list(f_to_c_ring(), &boxed, options(ColumnarPolicy::Disabled)).unwrap();
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
        map_reduce_list(
            mapper.clone(),
            reducer.clone(),
            &numeric,
            options(ColumnarPolicy::Auto),
            CombinePolicy::Auto,
        )
        .unwrap()
    });
    let off = map_reduce_list(
        mapper,
        reducer,
        &boxed,
        options(ColumnarPolicy::Disabled),
        CombinePolicy::Disabled,
    )
    .unwrap();
    assert_eq!(on.len(), 4);
    assert_eq!(format!("{on:?}"), format!("{off:?}"));
    assert!(numeric.is_numeric() && !boxed.is_numeric());
}
