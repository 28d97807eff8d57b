//! A9: the native (compiled C/OpenMP) tier against the columnar batch
//! tier on the climate map (°F → °C over synthetic NOAA readings).
//!
//! * `native_openmp` — run the cached codegen binary over the dataset
//!   via the stdin/stdout line protocol. The compile happens once
//!   outside the timed loop (content-addressed cache), so the measured
//!   cost is process spawn + protocol encode/decode + the native loop:
//!   the real end-to-end price of escaping the VM per invocation.
//! * `batch_tier` — the same ring through the pooled columnar
//!   `ring_map` pipeline (flat `f64` lanes).
//!
//! On small inputs the batch tier wins (no exec/process overhead);
//! the native tier amortizes only on much larger datasets. Recording
//! both under `a9_native_vs_batch` makes that crossover a tracked
//! number instead of a claim.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_codegen::harness::Harness;
use snap_codegen::openmp::emit_map_openmp;
use snap_data::{generate_noaa, NoaaConfig};
use snap_workers::{ring_map, RingMapOptions};

const WORKERS: usize = 4;

/// The climate mapper ring: `(5 × (t − 32)) / 9`.
fn climate_ring() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["t".into()],
        div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
    ))
}

fn inputs() -> Vec<f64> {
    let dataset = generate_noaa(&NoaaConfig {
        stations: 25,
        years: 4,
        readings_per_year: 12,
        ..NoaaConfig::default()
    });
    dataset.readings.iter().map(|r| r.temp_f).collect()
}

fn bench_native_vs_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("a9_native_vs_batch");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);

    let ring = climate_ring();
    let flat = inputs();
    group.throughput(Throughput::Elements(flat.len() as u64));

    // Native: compile once (cached), then time run-per-invocation.
    if let Ok(harness) = Harness::detect() {
        let source = emit_map_openmp(&ring).expect("climate ring translates");
        // Prime the compile cache so the timed loop measures runs only.
        harness
            .run_map("bench_climate_map", &source, &flat[..1])
            .expect("native climate map compiles and runs");
        let flat_native = flat.clone();
        group.bench_function("native_openmp", move |b| {
            b.iter(|| {
                let out = harness
                    .run_map("bench_climate_map", &source, black_box(&flat_native))
                    .expect("native run");
                black_box(out.len())
            })
        });
    } else {
        eprintln!("a9_native_vs_batch: no C toolchain, skipping native_openmp");
    }

    let boxed: Vec<Value> = flat.iter().map(|&x| Value::Number(x)).collect();
    group.bench_function("batch_tier", move |b| {
        b.iter(|| {
            let out = ring_map(
                Arc::clone(&ring),
                black_box(boxed.clone()),
                RingMapOptions { workers: WORKERS },
            )
            .expect("batch tier run");
            black_box(out.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_native_vs_batch);
criterion_main!(benches);
