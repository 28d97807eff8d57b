//! A4: the batch scheduler's EASY-backfill queue on a mixed workload
//! (wide long jobs + narrow short jobs). Its FIFO baseline is gone; the
//! measured FIFO/backfill table stays in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use snap_build::{BatchScheduler, JobSpec};

fn run_workload() -> (f64, u64) {
    let mut s = BatchScheduler::new(16);
    // A stream of jobs: every 4th is wide (12 nodes), the rest narrow.
    for i in 0..64u64 {
        let wide = i % 4 == 0;
        s.submit(JobSpec {
            name: format!("job{i}"),
            nodes: if wide { 12 } else { 2 },
            walltime: if wide { 20 } else { 5 },
            runtime: if wide { 15 } else { 3 },
        });
    }
    let ticks = s.run_to_completion(1_000_000);
    (s.mean_wait(), ticks)
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("a4_batch_policy");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(20);
    group.bench_function("backfill", |b| b.iter(|| black_box(run_workload())));
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
