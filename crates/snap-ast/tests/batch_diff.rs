//! Differential tests for the columnar batch tier: `eval_batch` against
//! the scalar fast path against the tree-walk oracle, **bit for bit** —
//! except NaN payloads, which compare as "both NaN". All tiers run the
//! same `num_binop`/`num_unop` cores, but when two NaNs with different
//! payloads meet at a commutable op, which payload propagates is decided
//! by instruction operand order — something LLVM is free to pick
//! differently for the scalar call and the vectorized batch loop (IEEE
//! 754 only requires *a* quiet NaN). Signed zeros, infinities and
//! subnormals stay exact.
//!
//! Random numeric rings (arithmetic-rooted, over empty slots or a named
//! parameter) are evaluated three ways over random `f64` inputs covering
//! NaN (payloads included), ±0.0, ±inf, and subnormals. Deep expressions
//! occasionally exceed the numeric register file, in which case lowering
//! declines to the tree walk: `eval_batch` must then report
//! non-batchable rather than mis-evaluate, and the scalar paths must
//! still agree — the whole fallback ladder is exercised from one
//! generator.

use proptest::prelude::*;

use snap_ast::{CompiledStrategy, Constant, Expr, PureFn, Ring, UnOp, Value};
use std::sync::Arc;

/// Bit-exact number equality, modulo NaN payloads (any NaN == any NaN;
/// -0.0 ≠ 0.0). See the module doc for why payloads are exempt.
fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        _ => a == b,
    }
}

/// Evaluate `ring` over `inputs` on every tier and assert agreement.
fn assert_batch_matches(ring: Arc<Ring>, inputs: &[f64]) {
    let f = PureFn::compile(ring).expect("generated ring must be pure");
    let mut batch = Vec::new();
    let batched = f.eval_batch(inputs, &mut batch);
    if batched {
        assert_eq!(f.strategy(), CompiledStrategy::Numeric);
        assert_eq!(batch.len(), inputs.len());
    } else {
        assert!(
            batch.is_empty(),
            "a declined eval_batch must append nothing"
        );
    }
    for (i, &x) in inputs.iter().enumerate() {
        let arg = Value::Number(x);
        let scalar = f.call1(arg.clone()).expect("scalar call");
        let oracle = f
            .call_treewalk(std::slice::from_ref(&arg))
            .expect("tree walk");
        assert!(
            bits_eq(&scalar, &oracle),
            "strategy {:?}: scalar {scalar:?} vs oracle {oracle:?} on input {x:?}",
            f.strategy()
        );
        if batched {
            let got = Value::Number(batch[i]);
            assert!(
                bits_eq(&got, &scalar),
                "batch element {i} diverged: batch {got:?} vs scalar {scalar:?} on input {x:?}"
            );
        }
    }
}

/// Batch inputs: ordinary magnitudes plus every special the IEEE grid
/// offers — NaN with a non-default payload, signed zeros, infinities,
/// and subnormals.
fn input_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e6f64..1e6,
        Just(f64::NAN),
        Just(f64::from_bits(0x7ff8_0000_dead_beef)), // NaN payload
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(5e-324),                      // smallest positive subnormal
        Just(-2.225_073_858_507_201e-308), // near the subnormal boundary
    ]
}

fn numeric_unop_strategy() -> impl Strategy<Value = UnOp> {
    prop_oneof![
        Just(UnOp::Neg),
        Just(UnOp::Abs),
        Just(UnOp::Sqrt),
        Just(UnOp::Round),
        Just(UnOp::Floor),
        Just(UnOp::Ceil),
        Just(UnOp::Sin),
        Just(UnOp::Cos),
        Just(UnOp::Ln),
        Just(UnOp::Exp),
    ]
}

fn arith_binop_strategy() -> impl Strategy<Value = snap_ast::BinOp> {
    use snap_ast::BinOp;
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Pow),
    ]
}

/// Numeric expression bodies. `use_var` picks the element leaf: the
/// named parameter `x`, or an empty slot. The root combinator below
/// guarantees an arithmetic root, so every generated ring passes the
/// numeric type pass (unless it outgrows the register file — also a
/// case worth hitting).
fn numeric_expr_strategy(use_var: bool) -> impl Strategy<Value = Expr> {
    let element: Expr = if use_var {
        Expr::Var("x".into())
    } else {
        Expr::EmptySlot
    };
    let leaf = prop_oneof![
        (-100f64..100.0).prop_map(|n| Expr::Literal(Constant::Number(n))),
        Just(element),
    ];
    let tree = leaf.prop_recursive(4, 40, 2, |inner| {
        prop_oneof![
            (arith_binop_strategy(), inner.clone(), inner.clone())
                .prop_map(|(op, a, b)| Expr::Binary(op, Box::new(a), Box::new(b))),
            (numeric_unop_strategy(), inner).prop_map(|(op, a)| Expr::Unary(op, Box::new(a))),
        ]
    });
    // Force an arithmetic root so the ring is always numeric-rooted.
    (arith_binop_strategy(), tree.clone(), tree)
        .prop_map(|(op, a, b)| Expr::Binary(op, Box::new(a), Box::new(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Slot-style rings: each batch element fills every empty slot.
    #[test]
    fn slot_rings_batch_matches_scalar_and_oracle(
        body in numeric_expr_strategy(false),
        inputs in prop::collection::vec(input_f64(), 0..150),
    ) {
        assert_batch_matches(Arc::new(Ring::reporter(body)), &inputs);
    }

    /// One-parameter rings: each batch element binds the parameter (and
    /// any empty slots, per the single-argument rule).
    #[test]
    fn param_rings_batch_matches_scalar_and_oracle(
        body in numeric_expr_strategy(true),
        inputs in prop::collection::vec(input_f64(), 0..150),
    ) {
        let ring = Ring::reporter_with_params(vec!["x".into()], body);
        assert_batch_matches(Arc::new(ring), &inputs);
    }
}

/// The register-spill ladder, deterministically: a provably-numeric ring
/// too wide for the fixed register file must land on the tree walk (not
/// fail), refuse `eval_batch`, and still agree with the oracle.
#[test]
fn register_spill_falls_back_to_treewalk() {
    use snap_ast::builder::*;
    let mut expr = var("x");
    for _ in 0..40 {
        expr = add(expr, var("x"));
    }
    let ring = Arc::new(Ring::reporter_with_params(vec!["x".into()], expr));
    let treewalk_before = snap_trace::well_known::RING_TREEWALK_CALLS.get();
    let f = PureFn::compile(ring).unwrap();
    assert_eq!(
        f.strategy(),
        CompiledStrategy::TreeWalk,
        "a >32-register numeric ring must decline to the tree walk"
    );
    assert!(!f.is_batchable());
    let mut out = Vec::new();
    assert!(!f.eval_batch(&[1.0, 2.0], &mut out));
    assert!(out.is_empty());
    let result = f.call1(Value::Number(1.5)).unwrap();
    let oracle = f.call_treewalk(&[Value::Number(1.5)]).unwrap();
    assert!(bits_eq(&result, &oracle));
    assert_eq!(result, Value::Number(41.0 * 1.5));
    // The tier counter proves which executor ran the call above.
    let treewalk_delta = snap_trace::well_known::RING_TREEWALK_CALLS.get() - treewalk_before;
    assert!(treewalk_delta >= 1, "tree-walk executor did not run");
}
