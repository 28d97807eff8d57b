//! Differential tests: `PureFn::call` against the tree-walk oracle.
//!
//! `PureFn::call` dispatches to the unboxed numeric program when the
//! ring lowers to one and to the tree walk otherwise;
//! `PureFn::call_treewalk` is the reference evaluator. For any pure ring
//! and any arguments the two must agree **bit for bit** — including NaN
//! payload propagation, `-0.0`, Text/Bool numeric coercion edges, and
//! the exact `EvalError` on failure. Random rings are generated over the
//! whole strict grammar (arithmetic, comparisons, logic, list/text
//! blocks) plus unbound variables, so both the numeric fast path and the
//! tree walk are hit.

use proptest::prelude::*;

use snap_ast::pure::compile_cached;
use snap_ast::{BinOp, CompiledStrategy, Constant, Expr, PureFn, Ring, UnOp, Value};
use std::sync::Arc;

/// Bit-exact value equality: `Value`'s `PartialEq` uses `f64 ==`, under
/// which `NaN != NaN` and `-0.0 == 0.0` — too loose *and* too strict for
/// a differential test. Numbers compare by bits, lists recursively.
fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        (Value::List(x), Value::List(y)) => {
            let (xv, yv) = (x.to_vec(), y.to_vec());
            xv.len() == yv.len() && xv.iter().zip(&yv).all(|(p, q)| bits_eq(p, q))
        }
        _ => a == b,
    }
}

/// Assert both evaluation paths of `ring` agree on `args`. Panics on
/// divergence (the generator only produces pure rings, so compilation
/// itself must succeed).
fn assert_paths_agree(ring: Arc<Ring>, args: &[Value]) {
    let f = PureFn::compile(ring).expect("generated ring must be pure");
    let fast = f.call(args);
    let slow = f.call_treewalk(args);
    match (&fast, &slow) {
        (Ok(x), Ok(y)) => assert!(
            bits_eq(x, y),
            "strategy {:?} diverged: call {x:?} vs treewalk {y:?}",
            f.strategy()
        ),
        (Err(x), Err(y)) => assert_eq!(
            x,
            y,
            "strategy {:?} ring {:?} args {args:?}",
            f.strategy(),
            f.ring()
        ),
        _ => panic!(
            "strategy {:?}: one path errored: call {fast:?} vs treewalk {slow:?}",
            f.strategy()
        ),
    }
}

/// Random argument values, covering every coercion edge the VM has to
/// reproduce: NaN, ±0.0, numeric text, booleans, Nothing, nested lists.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Nothing),
        (-1e6f64..1e6).prop_map(Value::Number),
        Just(Value::Number(f64::NAN)),
        Just(Value::Number(-0.0)),
        Just(Value::Number(f64::INFINITY)),
        "[a-zA-Z0-9 .-]{0,8}".prop_map(Value::text),
        (-100i64..100).prop_map(|n| Value::text(format!(" {n} "))), // numeric text
        any::<bool>().prop_map(Value::Bool),
    ];
    leaf.prop_recursive(2, 12, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::list)
    })
}

fn binop_strategy() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Pow),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Gt),
        Just(BinOp::Le),
        Just(BinOp::Ge),
        Just(BinOp::And),
        Just(BinOp::Or),
    ]
}

fn unop_strategy() -> impl Strategy<Value = UnOp> {
    prop_oneof![
        Just(UnOp::Not),
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

/// Random pure ring bodies over the strict grammar. `Var("x")` is the
/// named parameter when the ring declares one, otherwise an unbound
/// variable (exercising the tree-walk fallback and the runtime error).
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100f64..100.0).prop_map(|n| Expr::Literal(Constant::Number(n))),
        "[a-zA-Z0-9 .-]{0,8}".prop_map(|s| Expr::Literal(Constant::Text(s))),
        any::<bool>().prop_map(|b| Expr::Literal(Constant::Bool(b))),
        Just(Expr::Literal(Constant::Nothing)),
        Just(Expr::EmptySlot),
        Just(Expr::Var("x".into())),
    ];
    leaf.prop_recursive(4, 40, 3, |inner| {
        let b = |e: Expr| Box::new(e);
        prop_oneof![
            (binop_strategy(), inner.clone(), inner.clone())
                .prop_map(move |(op, x, y)| Expr::Binary(op, Box::new(x), Box::new(y))),
            (unop_strategy(), inner.clone()).prop_map(move |(op, x)| Expr::Unary(op, Box::new(x))),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::MakeList),
            (inner.clone(), inner.clone())
                .prop_map(move |(i, l)| Expr::Item(Box::new(i), Box::new(l))),
            inner.clone().prop_map(move |l| Expr::LengthOf(b(l))),
            (inner.clone(), inner.clone())
                .prop_map(move |(l, v)| Expr::Contains(Box::new(l), Box::new(v))),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::Join),
            (inner.clone(), inner.clone())
                .prop_map(move |(t, d)| Expr::Split(Box::new(t), Box::new(d))),
            (inner.clone(), inner.clone())
                .prop_map(move |(i, t)| Expr::LetterOf(Box::new(i), Box::new(t))),
            inner.clone().prop_map(move |t| Expr::TextLength(b(t))),
            // Range arguments stay literal so a random subexpression
            // cannot demand a billion-element list.
            ((-30f64..30.0), (-30f64..30.0)).prop_map(|(lo, hi)| Expr::NumbersFromTo(
                Box::new(Expr::Literal(Constant::Number(lo))),
                Box::new(Expr::Literal(Constant::Number(hi))),
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Implicit-parameter rings: arguments feed the empty slots (one
    /// argument fills every slot). `Var("x")` is unbound here, so rings
    /// containing it must fail identically on both paths.
    #[test]
    fn implicit_rings_call_matches_treewalk(
        body in expr_strategy(),
        args in prop::collection::vec(value_strategy(), 0..3),
    ) {
        assert_paths_agree(Arc::new(Ring::reporter(body)), &args);
    }

    /// Named-parameter rings: `x` binds positionally; empty slots also
    /// consume the arguments. Wrong arity must error identically.
    #[test]
    fn named_rings_call_matches_treewalk(
        body in expr_strategy(),
        args in prop::collection::vec(value_strategy(), 0..3),
    ) {
        let ring = Ring::reporter_with_params(vec!["x".into()], body);
        assert_paths_agree(Arc::new(ring), &args);
    }

    /// Rings with a captured environment: `x` resolves to the capture
    /// (folded to a constant at compile time) when no parameter shadows
    /// it.
    #[test]
    fn captured_rings_call_matches_treewalk(
        body in expr_strategy(),
        captured in value_strategy(),
        args in prop::collection::vec(value_strategy(), 0..2),
    ) {
        let ring = Ring {
            params: Vec::new(),
            body: snap_ast::RingBody::Reporter(body),
            captured: vec![("x".into(), captured)],
        };
        assert_paths_agree(Arc::new(ring), &args);
    }

    /// The numeric fast path never misfires: a random arithmetic-only
    /// polynomial lowers to `Numeric` and agrees bit-for-bit on the
    /// nastiest scalar inputs.
    #[test]
    fn numeric_fastpath_agrees_on_coercion_edges(
        k1 in -1e3f64..1e3,
        k2 in -1e3f64..1e3,
        arg in value_strategy(),
    ) {
        use snap_ast::builder::*;
        let ring = Arc::new(Ring::reporter(add(
            mul(empty_slot(), num(k1)),
            div(empty_slot(), num(k2)),
        )));
        let f = compile_cached(&ring).unwrap();
        prop_assert_eq!(f.strategy(), CompiledStrategy::Numeric);
        let fast = f.call1(arg.clone()).unwrap();
        let slow = f.call_treewalk(std::slice::from_ref(&arg)).unwrap();
        prop_assert!(bits_eq(&fast, &slow), "{arg:?}: {fast:?} vs {slow:?}");
    }
}
