//! A2: what the Web-Worker structured clone costs, by payload size: a
//! ring that reads its whole input list, over 64 lists of 10, 100 and
//! 1 000 numbers. The shared-storage side this group once compared
//! against is gone; EXPERIMENTS.md (A2) keeps what the comparison found.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_workers::{ring_map, RingMapOptions};

fn nested_items(count: usize, payload: usize) -> Vec<Value> {
    (0..count)
        .map(|_| Value::list((0..payload).map(|i| Value::Number(i as f64)).collect()))
        .collect()
}

fn bench_isolation(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_copy_vs_share");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(15);
    // The ring sums its input list: reads the whole payload.
    let ring = Arc::new(Ring::reporter_with_params(
        vec!["xs".into()],
        combine_using(var("xs"), ring_reporter(add(empty_slot(), empty_slot()))),
    ));
    for payload in [10usize, 100, 1_000] {
        let items = nested_items(64, payload);
        group.bench_with_input(BenchmarkId::new("copy", payload), &items, |b, items| {
            b.iter(|| {
                black_box(
                    ring_map(ring.clone(), items.clone(), RingMapOptions { workers: 4 }).unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_isolation);
criterion_main!(benches);
