//! E10: worker-count scaling and the sequential/parallel crossover.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use bench::{number_items, sleep_for_each, times_ten_ring};

fn bench_latency_scaling(c: &mut Criterion) {
    // 16 items that each sleep 1 ms: wall time falls with workers on
    // any host.
    let mut group = c.benchmark_group("e10_latency_scaling");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    for workers in [1usize, 2, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| b.iter(|| sleep_for_each(16, workers, Duration::from_millis(1))),
        );
    }
    group.finish();
}

fn bench_crossover(c: &mut Criterion) {
    // Tiny cheap items: pool dispatch and copy overhead should make the
    // sequential path win below a crossover size.
    let mut group = c.benchmark_group("e10_crossover");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(20);
    for n in [1usize, 10, 100, 1_000] {
        let items = number_items(n);
        group.bench_with_input(BenchmarkId::new("seq", n), &items, |b, items| {
            b.iter(|| {
                black_box(snap_parallel::parallel_map(times_ten_ring(), items.clone(), 1).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("par4", n), &items, |b, items| {
            b.iter(|| {
                black_box(snap_parallel::parallel_map(times_ten_ring(), items.clone(), 4).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_latency_scaling, bench_crossover);
criterion_main!(benches);
