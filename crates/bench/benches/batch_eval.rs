//! A6: the columnar batch tier — eval_batch against the per-element
//! fast path, the numeric `combine` fold, and the columnar map pipeline
//! against per-element calls.
//!
//! * `a6_batch_eval` isolates the evaluator: the a5 numeric ring
//!   (`(( ) × 2 + ( ) mod 7) ÷ 3`) over the same 1 000-element batch,
//!   once via `eval_batch` (instruction-outer lane loops, no per-element
//!   dispatch) and once via per-element `PureFn::call` — the PR 5
//!   baseline it must beat by ≥ 5×.
//! * `a6_batch_eval/combine_fold` is `combine xs using (( ) + ( ))` over
//!   192 000 numbers stored as numbers (e5's reducer fold): the one-op
//!   fold, `acc + x` with the op dispatched once. Beside it,
//!   `combine_fold_register_machine` folds the same numbers with
//!   `(( ) + ( )) × 1`, the same sums through two ops, which stays on the
//!   register machine: the pair is the one-op path's justification.
//! * `a6_columnar_map` measures the whole pipeline on the climate
//!   workload: a numeric `parallelMap` over synthetic NOAA readings with
//!   the columnar tier on (`ColumnarPolicy::Auto`: flat `f64` chunks,
//!   each written in place into its slice of the one result) versus off
//!   (`Disabled`, one call per item).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::pure::CompiledStrategy;
use snap_ast::{List, PureFn, Ring, Value};
use snap_data::{generate_noaa, NoaaConfig};
use snap_parallel::parallel_map_with_options;
use snap_workers::{ColumnarPolicy, RingMapOptions};

const ITEMS: usize = 1_000;

/// e5's readings per run: the length of its reducer's one fold.
const FOLD_ITEMS: usize = 192_000;

/// The a5 bench ring, unchanged, so `a6_batch_eval/per_element_fastpath`
/// is directly comparable to `a5_ring_eval/bytecode_fastpath`.
fn numeric_ring() -> Arc<Ring> {
    Arc::new(Ring::reporter(div(
        add(mul(empty_slot(), num(2.0)), modulo(empty_slot(), num(7.0))),
        num(3.0),
    )))
}

fn bench_batch_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("a6_batch_eval");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(30);
    group.throughput(Throughput::Elements(ITEMS as u64));

    let f = PureFn::compile(numeric_ring()).expect("numeric ring compiles");
    assert_eq!(f.strategy(), CompiledStrategy::Numeric);
    assert!(f.is_batchable(), "bench ring must be batchable");
    let flat: Vec<f64> = (0..ITEMS).map(|n| n as f64).collect();
    let boxed: Vec<Value> = flat.iter().map(|&x| Value::Number(x)).collect();

    {
        let f = f.clone();
        let flat = flat.clone();
        group.bench_function("eval_batch", move |b| {
            let mut out = Vec::with_capacity(ITEMS);
            b.iter(|| {
                out.clear();
                assert!(f.eval_batch(black_box(&flat), &mut out));
                black_box(out.last().copied())
            })
        });
    }
    {
        group.bench_function("per_element_fastpath", move |b| {
            b.iter(|| {
                for item in &boxed {
                    black_box(f.call(std::slice::from_ref(black_box(item))).unwrap());
                }
            })
        });
    }

    group.throughput(Throughput::Elements(FOLD_ITEMS as u64));
    let readings = Value::List(List::from_numbers(
        (0..FOLD_ITEMS).map(|n| (n % 997) as f64 * 0.37).collect(),
    ));
    let one_op = add(empty_slot(), empty_slot());
    for (name, combining) in [
        ("combine_fold", one_op.clone()),
        ("combine_fold_register_machine", mul(one_op, num(1.0))),
    ] {
        let sum = PureFn::compile(Arc::new(Ring::reporter_with_params(
            vec!["xs".into()],
            combine_using(var("xs"), ring_reporter(combining)),
        )))
        .expect("the reducer compiles");
        let readings = readings.clone();
        group.bench_function(name, move |b| {
            b.iter(|| black_box(sum.call1(black_box(readings.clone())).unwrap()))
        });
    }
    group.finish();
}

fn bench_columnar_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("a6_columnar_map");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);

    // The climate workload: °F → °C over synthetic NOAA readings
    // (10 stations × 10 years × 52 weekly readings = 5 200 items).
    let temps = generate_noaa(&NoaaConfig {
        stations: 10,
        years: 10,
        readings_per_year: 52,
        ..NoaaConfig::default()
    })
    .temps_f_values();
    group.throughput(Throughput::Elements(temps.len() as u64));
    let ring = Arc::new(Ring::reporter_with_params(
        vec!["t".into()],
        div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
    ));
    let options = |columnar| RingMapOptions {
        workers: 4,
        columnar,
        ..Default::default()
    };

    {
        let ring = ring.clone();
        let temps = temps.clone();
        group.bench_function("columnar_on", move |b| {
            b.iter(|| {
                black_box(
                    parallel_map_with_options(
                        ring.clone(),
                        temps.clone(),
                        options(ColumnarPolicy::Auto),
                    )
                    .unwrap(),
                )
            })
        });
    }
    {
        group.bench_function("columnar_off", move |b| {
            b.iter(|| {
                black_box(
                    parallel_map_with_options(
                        ring.clone(),
                        temps.clone(),
                        options(ColumnarPolicy::Disabled),
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_eval, bench_columnar_map);
criterion_main!(benches);
