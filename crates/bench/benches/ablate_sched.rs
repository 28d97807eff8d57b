//! A1: the scheduler's cost on a skewed workload, on tiny maps, on
//! bursts of tiny maps and on nested latency-bound maps. Every row runs
//! the one chunk loop on the persistent pool; the static-block and
//! per-call-spawn sides these groups once compared are gone, and
//! EXPERIMENTS.md (A1) keeps what they measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use snap_workers::map_slice_with;

/// Skewed per-item cost: every 8th item is 20× more expensive.
fn skewed_cost(i: &u64) -> u64 {
    let reps = if i.is_multiple_of(8) { 20_000 } else { 1_000 };
    (0..reps).fold(*i, |acc, _| acc.wrapping_mul(31).wrapping_add(7))
}

fn bench_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_strategy_skewed");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(15);
    let items: Vec<u64> = (0..512).collect();
    group.bench_function("dynamic", |b| {
        b.iter(|| black_box(map_slice_with(&items, 4, skewed_cost)))
    });
    group.finish();
}

fn bench_spawn_vs_pool(c: &mut Criterion) {
    // A tiny 64-item map, where scheduling cost dominates: what one call
    // costs on the persistent pool, which never spawns a thread per call
    // as Parallel.js does.
    let mut group = c.benchmark_group("a1_spawn_vs_pool");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(2));
    let items: Vec<u64> = (0..64).collect();
    group.bench_function("persistent_pool", |b| {
        b.iter(|| black_box(map_slice_with(&items, 4, |&n| n * 2)))
    });
    group.finish();
}

fn bench_job_churn(c: &mut Criterion) {
    // Small-chunk, high job-count workload: a burst of 16 consecutive
    // tiny pooled maps per iteration, so per-job dequeue cost dominates.
    // This is the path the work-stealing scheduler targets — under the
    // old single shared queue every dequeue of every worker serialized
    // on one receiver mutex. The 1-worker case guards the uncontended
    // baseline against regression.
    let mut group = c.benchmark_group("a1_job_churn");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(2));
    let items: Vec<u64> = (0..64).collect();
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    for _ in 0..16 {
                        black_box(map_slice_with(&items, workers, |&n| n.wrapping_mul(3)));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_nested_latency(c: &mut Criterion) {
    // Nested parallelism over latency-bound items: an outer pooled map
    // whose per-item body is itself a pooled map over items that each
    // wait on simulated I/O. Under the single-queue scheduler a
    // re-entrant pooled call ran inline — serially — on the pool
    // thread, so the inner waits accumulated one after another.
    // Work-stealing pushes the nested jobs onto the worker's local
    // deque where parked peers steal them, overlapping the waits.
    // Latency-bound on purpose: overlap is measurable even on the
    // 1-CPU reproduction host (see README "Host note").
    let mut group = c.benchmark_group("a1_nested_latency");
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(3));
    let outer: Vec<u64> = (0..2).collect();
    group.bench_function("outer2_inner8", |b| {
        b.iter(|| {
            black_box(map_slice_with(&outer, 8, |&o| {
                let inner: Vec<u64> = (0..8).map(|i| o * 8 + i).collect();
                map_slice_with(&inner, 8, |&n| {
                    std::thread::sleep(Duration::from_micros(200));
                    n.wrapping_mul(3)
                })
                .iter()
                .sum::<u64>()
            }))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_strategy,
    bench_spawn_vs_pool,
    bench_job_churn,
    bench_nested_latency
);
criterion_main!(benches);
