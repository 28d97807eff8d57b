//! A5: map-side combining on the word-count corpus (paper §3.4).
//!
//! A 20 000-word Zipf-distributed `mapReduce` whose summing reducer the
//! block recognises, so it combines. It runs on the keyed-columnar rung:
//! the `[w, 1]` mapper runs as a key column and a constant value column
//! per chunk, each chunk interns its words in a hashed dictionary and
//! folds its values per word in the same task. It builds no pair list
//! and never reaches the shuffle; the boxed path this bench once timed
//! runs only for calls the rung declines, and the differential suites
//! prove the output identical either way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_data::generate_words;
use snap_parallel::map_reduce;

const WORDS: usize = 20_000;
const WORKERS: usize = 4;

fn mapper() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ))
}

fn reducer() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ))
}

fn bench_word_count_combine(c: &mut Criterion) {
    let mut group = c.benchmark_group("a5_word_count_combine");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(15);
    group.throughput(Throughput::Elements(WORDS as u64));

    let items: Vec<Value> = generate_words(WORDS, 42)
        .into_iter()
        .map(Value::from)
        .collect();

    group.bench_function("combiner_on", move |b| {
        b.iter(|| {
            black_box(map_reduce(mapper(), reducer(), black_box(items.clone()), WORKERS).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_word_count_combine);
criterion_main!(benches);
