//! A7: continuous-telemetry overhead self-audit.
//!
//! The observability contract is that the always-on tier — counters,
//! windowed histograms, and the 99 Hz sampling profiler — costs under 3%
//! on the scheduler's most overhead-sensitive workload. The workload is
//! the `a1_job_churn` shape: bursts of tiny pooled maps where per-job
//! dequeue cost dominates, so any telemetry tax is maximally visible.
//!
//! * `telemetry_off` — the workload as every untraced run executes it:
//!   span recording off, no profiler. (The relaxed-atomic counters and
//!   windows are compile-time features and always on; they are part of
//!   the baseline in both arms.)
//! * `telemetry_on` — the same workload with the continuous tier fully
//!   engaged: a 99 Hz sampling profiler snapshotting every worker's
//!   span stack for the whole measurement. Span recording stays off —
//!   per-span event buffering is the opt-in `--trace` tier, not the
//!   continuous one, and is priced separately by its event path.
//!
//! `trace_check --overhead-gate` asserts `telemetry_on / telemetry_off
//! <= 1.03` from this group's criterion output; `scripts/ci.sh` runs it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use snap_workers::map_slice_with;

/// One iteration of the churn workload: 16 consecutive tiny pooled maps
/// (the `a1_job_churn/4` shape).
fn churn(items: &[u64]) {
    for _ in 0..16 {
        black_box(map_slice_with(items, 4, |&n| n.wrapping_mul(3)));
    }
}

fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("a7_trace_overhead");
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(2));
    let items: Vec<u64> = (0..64).collect();

    snap_trace::set_enabled(false);
    group.bench_function("telemetry_off", |b| b.iter(|| churn(&items)));

    group.bench_function("telemetry_on", |b| {
        let profiler = snap_trace::profile::start(99);
        b.iter(|| churn(&items));
        let profile = profiler.stop();
        black_box(profile.samples);
    });

    group.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
