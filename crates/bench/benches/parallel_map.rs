//! E2 (Fig. 5/6): the `parallelMap` block across worker counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bench::{number_items, times_ten_ring};

fn bench_parallel_map_compute(c: &mut Criterion) {
    // Compute-bound: honest wall time, so the speedup is bounded by the
    // host's core count. E10's bench scales latency-bound work.
    let mut group = c.benchmark_group("e2_parallel_map_compute");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(15);
    let items = number_items(10_000);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    black_box(
                        snap_parallel::parallel_map(times_ten_ring(), items.clone(), workers)
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_map_compute);
criterion_main!(benches);
