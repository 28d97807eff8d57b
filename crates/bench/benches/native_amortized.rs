//! A10: persistent native workers against spawn-per-call and the
//! in-process batch tier, two ring depths × two dataset sizes.
//!
//! Three ways to run the same flat `f64` chunk through a ring:
//!
//! * `persistent_*` — one warm `--serve` worker per compiled program
//!   ([`native_pool`]): the timed loop is a single binary frame
//!   (header + raw `f64` lanes both ways) against a process that was
//!   spawned once — the transport `codegen_check --persistent` uses.
//! * `spawn_*` — the same compiled binary, but a fresh process per
//!   invocation ([`NativeWorker::spawn`] + one frame + drop): what the
//!   native tier costs without the pool. The persistent/spawn gap is
//!   the amortized spawn overhead.
//! * `batch_*` — the in-process columnar interpreter
//!   (`PureFn::eval_batch`) on the identical input slice: the tier
//!   `ring_map` runs, and the yardstick the native rows are read against.
//!
//! The crossover this records: a deep ring (14 chained float ops) is
//! compute-bound enough that the compiled loop wins even after paying
//! pipe I/O — `persistent_deep_120000` is the gated number — while the
//! shallow climate ring stays cheaper in-process at every size (frame
//! I/O dwarfs two float ops). Spawn-per-call loses everywhere by
//! design; its distance from `persistent_*` is the point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::pure::compile_cached;
use snap_ast::{Expr, Ring};
use snap_codegen::worker::{compile_native_map, native_pool, NativeWorker};

const SIZES: [usize; 2] = [12_000, 120_000];

/// The shallow climate mapper: `(x × 1.8) + 32` — two float ops.
fn shallow_ring() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["x".into()],
        add(mul(var("x"), num(1.8)), num(32.0)),
    ))
}

/// A deep dependent chain of 14 float ops (mul/add/sub/div cycle):
/// enough arithmetic per element that compiled code pulls ahead of the
/// interpreter's dispatch-per-instruction lane loops.
fn deep_chain(depth: usize) -> Expr {
    let mut e = var("x");
    for i in 0..depth {
        e = match i % 4 {
            0 => mul(e, num(1.0001)),
            1 => add(e, num(0.25)),
            2 => sub(e, num(0.125)),
            _ => div(e, num(1.0002)),
        };
    }
    e
}

fn deep_ring() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(vec!["x".into()], deep_chain(14)))
}

fn bench_native_amortized(c: &mut Criterion) {
    let mut group = c.benchmark_group("a10_native_amortized");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);

    for (label, ring) in [("shallow", shallow_ring()), ("deep", deep_ring())] {
        let f = compile_cached(&ring).expect("ring compiles to the numeric tier");
        // Compile once outside every timed loop (content-addressed
        // cache); a missing C toolchain skips the native rows only.
        let program = compile_native_map(&ring)
            .map_err(|e| eprintln!("a10_native_amortized: skipping native {label} rows: {e}"))
            .ok();

        for n in SIZES {
            let inputs: Vec<f64> = (0..n).map(|i| i as f64 * 0.001 + 1.0).collect();
            group.throughput(Throughput::Elements(n as u64));

            let batch_inputs = inputs.clone();
            let batch_f = f.clone();
            group.bench_function(
                BenchmarkId::from_parameter(format!("batch_{label}_{n}")),
                move |b| {
                    let mut out = Vec::new();
                    b.iter(|| {
                        out.clear();
                        batch_f.eval_batch(black_box(&batch_inputs), &mut out);
                        black_box(out.len())
                    })
                },
            );

            let Some(program) = program.clone() else {
                continue;
            };

            // Warm the pool so the first timed frame hits a live worker.
            native_pool()
                .map_frame(&program, &inputs[..64.min(n)])
                .expect("warm worker answers");
            let frame_inputs = inputs.clone();
            let frame_program = program.clone();
            group.bench_function(
                BenchmarkId::from_parameter(format!("persistent_{label}_{n}")),
                move |b| {
                    b.iter(|| {
                        let out = native_pool()
                            .map_frame(&frame_program, black_box(&frame_inputs))
                            .expect("persistent frame");
                        black_box(out.len())
                    })
                },
            );

            let spawn_inputs = inputs;
            group.bench_function(
                BenchmarkId::from_parameter(format!("spawn_{label}_{n}")),
                move |b| {
                    b.iter(|| {
                        let mut worker =
                            NativeWorker::spawn(&program).expect("spawn-per-call worker");
                        let out = worker
                            .map_frame(black_box(&spawn_inputs))
                            .expect("spawned frame");
                        black_box(out.len())
                    })
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_native_amortized);
criterion_main!(benches);
