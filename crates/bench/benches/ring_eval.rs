//! A5: per-item ring evaluation — the acceptance bench for the ring
//! bytecode compiler. Every prior bench measured *scheduling*; this one
//! measures the work each worker performs per item, over a 1 000-item
//! batch:
//!
//! * `bytecode_fastpath` — `PureFn::call` on a numeric ring (a small
//!   polynomial like the paper's image-kernel and climate inner loops):
//!   the unboxed `f64` register program from `snap_ast::bytecode`;
//! * `treewalk_oracle` — `PureFn::call_treewalk` on the *same* compiled
//!   ring: the reference tree-walking evaluator the fast path must beat
//!   by ≥ 2× (the acceptance bar);
//! * `boxed_treewalk` — the tree walk on a list-producing ring (the
//!   word-count mapper), the tier every non-numeric ring runs on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::pure::CompiledStrategy;
use snap_ast::{PureFn, Ring, Value};

const ITEMS: usize = 1_000;

/// `(( ) × 2 + ( ) mod 7) ÷ 3` — a numeric ring with enough operator
/// nodes that per-node dispatch cost dominates, like the paper's
/// image-kernel and climate map bodies.
fn numeric_ring() -> Arc<Ring> {
    Arc::new(Ring::reporter(div(
        add(mul(empty_slot(), num(2.0)), modulo(empty_slot(), num(7.0))),
        num(3.0),
    )))
}

/// The word-count mapper `[w, 1]` — runs on the tree walk (the result
/// is a list, so the numeric pass declines).
fn list_ring() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ))
}

fn number_inputs() -> Vec<Value> {
    (0..ITEMS).map(|n| Value::Number(n as f64)).collect()
}

fn bench_ring_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("a5_ring_eval");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(30);
    group.throughput(Throughput::Elements(ITEMS as u64));

    let numeric = PureFn::compile(numeric_ring()).expect("numeric ring compiles");
    assert_eq!(
        numeric.strategy(),
        CompiledStrategy::Numeric,
        "bench ring must take the numeric fast path"
    );
    let items = number_inputs();

    {
        let f = numeric.clone();
        let items = items.clone();
        group.bench_function("bytecode_fastpath", move |b| {
            b.iter(|| {
                for item in &items {
                    black_box(f.call(std::slice::from_ref(black_box(item))).unwrap());
                }
            })
        });
    }
    {
        let f = numeric.clone();
        let items = items.clone();
        group.bench_function("treewalk_oracle", move |b| {
            b.iter(|| {
                for item in &items {
                    black_box(
                        f.call_treewalk(std::slice::from_ref(black_box(item)))
                            .unwrap(),
                    );
                }
            })
        });
    }

    let boxed = PureFn::compile(list_ring()).expect("list ring compiles");
    assert_eq!(boxed.strategy(), CompiledStrategy::TreeWalk);
    let words: Vec<Value> = (0..ITEMS)
        .map(|n| Value::text(format!("w{}", n % 97)))
        .collect();
    {
        let f = boxed;
        group.bench_function("boxed_treewalk", move |b| {
            b.iter(|| {
                for word in &words {
                    black_box(
                        f.call_treewalk(std::slice::from_ref(black_box(word)))
                            .unwrap(),
                    );
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ring_eval);
criterion_main!(benches);
