//! Pool-reuse bench: the acceptance bench for the persistent pooled
//! executor. Runs a 1 000-item `parallelMap` of a cheap ring
//! (`(( ) × 10)`) on the shared process-wide `WorkerPool`, whose threads
//! are created once and reused for every call, so a call pays only the
//! batch hand-off and the wait-group handshake. The spawn-per-call side
//! this group once compared against is gone; EXPERIMENTS.md (A5) keeps
//! what it measured.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use snap_ast::builder::{empty_slot, mul, num};
use snap_ast::{Ring, Value};
use snap_workers::{ring_map, RingMapOptions};

const ITEMS: usize = 1_000;
const WORKERS: usize = 4;

fn cheap_ring() -> Arc<Ring> {
    // (( ) × 10) — the cheapest useful reporter ring.
    Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))))
}

fn inputs() -> Vec<Value> {
    (0..ITEMS).map(|n| Value::from(n as f64)).collect()
}

fn bench_pool_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_reuse");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);
    group.throughput(Throughput::Elements(ITEMS as u64));

    let ring = cheap_ring();
    let items = inputs();

    group.bench_function("pooled", move |b| {
        b.iter(|| {
            let options = RingMapOptions { workers: WORKERS };
            black_box(ring_map(ring.clone(), black_box(items.clone()), options).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pool_reuse);
criterion_main!(benches);
