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
//!
//! `combine` over a list stored as numbers folds it in one pass
//! (`NumProgram::fold`); over the same numbers boxed it applies its ring
//! step by step. Both must give what step-by-step scalar calls give. The
//! generated combining rings include every one-op shape the fold runs
//! without the register machine (each arithmetic op over two empty
//! slots, or over two named inputs in either order), and a fixed sweep
//! checks those shapes bit for bit, NaN included.

use proptest::prelude::*;

use snap_ast::{
    CompiledStrategy, Constant, EvalError, Expr, List, PureFn, Ring, RingExpr, RingExprBody, UnOp,
    Value,
};
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

/// `combine xs using ring` on `xs` as numbers, on `xs` boxed, and as
/// scalar calls `acc = ring(acc, x)` from the first item, must agree.
fn assert_combine_matches(params: &[&str], body: Expr, inputs: &[f64]) {
    let inner = RingExpr {
        params: params.iter().map(|p| p.to_string()).collect(),
        body: RingExprBody::Reporter(Box::new(body.clone())),
    };
    let combine = Ring::reporter_with_params(
        vec!["xs".into()],
        Expr::Combine {
            list: Box::new(Expr::Var("xs".into())),
            ring: Box::new(Expr::Ring(inner)),
        },
    );
    let f = PureFn::compile(Arc::new(combine)).unwrap();
    let boxed: Vec<Value> = inputs.iter().map(|&x| Value::Number(x)).collect();
    let on_numbers = f.call1(Value::List(List::from_numbers(inputs.to_vec())));
    let on_boxed = f.call1(Value::List(List::boxed(boxed.clone())));
    let ring =
        Ring::reporter_with_params(params.iter().map(|p| p.to_string()).collect(), body.clone());
    let step = PureFn::compile(Arc::new(ring)).unwrap();
    let mut items = boxed.into_iter();
    let by_steps: Result<Value, EvalError> = match items.next() {
        None => Ok(Value::Number(0.0)),
        Some(first) => items.try_fold(first, |acc, x| step.call(&[acc, x])),
    };
    for (how, got) in [("numeric list", &on_numbers), ("boxed list", &on_boxed)] {
        match (got, &by_steps) {
            (Ok(a), Ok(b)) => assert!(
                bits_eq(a, b),
                "{how}: {a:?} vs steps {b:?} over {inputs:?} under {params:?} {body:?}"
            ),
            (a, b) => assert_eq!(a, b, "{how}"),
        }
    }
}

/// Combining rings of one arithmetic op over `a` and `b`.
fn one_op_strategy(a: Expr, b: Expr) -> impl Strategy<Value = Expr> {
    arith_binop_strategy()
        .prop_map(move |op| Expr::Binary(op, Box::new(a.clone()), Box::new(b.clone())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Slot-style combining rings: the accumulator fills the first slot,
    /// the item the second, and any further slot reads nothing.
    #[test]
    fn combine_over_numbers_folds_as_step_by_step_calls(
        body in prop_oneof![
            numeric_expr_strategy(false),
            one_op_strategy(Expr::EmptySlot, Expr::EmptySlot),
        ],
        inputs in prop::collection::vec(input_f64(), 0..60),
    ) {
        assert_combine_matches(&[], body, &inputs);
    }

    /// Named combining rings: two parameters fold, in either order; one
    /// parameter raises the arity error at the first step, on both forms.
    #[test]
    fn named_combine_over_numbers_folds_as_step_by_step_calls(
        body in prop_oneof![
            numeric_expr_strategy(true),
            one_op_strategy(Expr::Var("acc".into()), Expr::Var("x".into())),
            one_op_strategy(Expr::Var("x".into()), Expr::Var("acc".into())),
        ],
        params in prop_oneof![
            Just(vec!["acc", "x"]),
            Just(vec!["x", "acc"]),
            Just(vec!["x", "item"]),
            Just(vec!["x"]),
        ],
        inputs in prop::collection::vec(input_f64(), 0..60),
    ) {
        assert_combine_matches(&params, body, &inputs);
    }
}

/// Numbers where a fold's rounding shows: NaN, both zeros, both
/// infinities, subnormals, ±1 and 2^53 ± 1, past which adding 1 no
/// longer changes a sum.
fn fold_inputs() -> Vec<f64> {
    let two_53 = 2f64.powi(53);
    vec![
        two_53 - 1.0,
        1.0,
        -0.0,
        two_53 + 1.0,
        5e-324,
        f64::INFINITY,
        0.0,
        -1.0,
        -2.225_073_858_507_201e-308,
        f64::NEG_INFINITY,
        f64::NAN,
        two_53,
    ]
}

/// Every one-op combining ring (each arithmetic op, over two empty
/// slots, over `(acc, x)` named in order, and reversed as `x op acc`),
/// plus a two-op ring that stays on the register machine, folds every
/// rotation and prefix of [`fold_inputs`] bit for bit as step-by-step
/// calls do, on a numeric list and on a boxed one. NaN payloads are
/// exempt, as everywhere in this suite: when a NaN meets a NaN, operand
/// order picks the payload, and the compiler may commute `x + acc` in
/// the fold loop where a call runs it as written.
#[test]
fn every_one_op_combine_ring_folds_bit_for_bit() {
    use snap_ast::builder::*;
    use snap_ast::BinOp;
    let ops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Pow,
    ];
    let binary = |op, a, b| Expr::Binary(op, Box::new(a), Box::new(b));
    let mut rings: Vec<(Vec<&str>, Expr)> = Vec::new();
    for op in ops {
        rings.push((vec![], binary(op, empty_slot(), empty_slot())));
        rings.push((vec!["acc", "x"], binary(op, var("acc"), var("x"))));
        rings.push((vec!["acc", "x"], binary(op, var("x"), var("acc"))));
    }
    rings.push((vec![], mul(add(empty_slot(), empty_slot()), num(0.5))));
    let mut inputs = fold_inputs();
    for _ in 0..inputs.len() {
        inputs.rotate_left(1);
        for n in 0..=inputs.len() {
            for (params, body) in &rings {
                assert_combine_matches(params, body.clone(), &inputs[..n]);
            }
        }
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
