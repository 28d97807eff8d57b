//! Property-based tests for the value model and the pure evaluator.

use proptest::prelude::*;

use snap_ast::builder::*;
use snap_ast::pure::{eval_binop, numbers_from_to};
use snap_ast::{BinOp, Constant, Expr, List, PureFn, Ring, Value};
use std::sync::Arc;

/// A strategy for (bounded) runtime values, including nested lists.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Nothing),
        (-1e9f64..1e9).prop_map(Value::Number),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::text),
        any::<bool>().prop_map(Value::Bool),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop::collection::vec(inner, 0..6).prop_map(Value::list)
    })
}

/// A strategy for serializable constants.
fn constant_strategy() -> impl Strategy<Value = Constant> {
    let leaf = prop_oneof![
        Just(Constant::Nothing),
        (-1e9f64..1e9).prop_map(Constant::Number),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Constant::Text),
        any::<bool>().prop_map(Constant::Bool),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop::collection::vec(inner, 0..6).prop_map(Constant::List)
    })
}

proptest! {
    #[test]
    fn loose_eq_is_reflexive(v in value_strategy()) {
        prop_assert!(v.loose_eq(&v));
    }

    #[test]
    fn loose_eq_is_symmetric(a in value_strategy(), b in value_strategy()) {
        prop_assert_eq!(a.loose_eq(&b), b.loose_eq(&a));
    }

    #[test]
    fn deep_copy_is_loose_equal_but_disjoint(v in value_strategy()) {
        let copy = v.deep_copy();
        prop_assert!(v.loose_eq(&copy));
        if let (Value::List(a), Value::List(b)) = (&v, &copy) {
            prop_assert!(!a.same_identity(b));
        }
    }

    #[test]
    fn display_string_of_number_roundtrips(n in -1_000_000i64..1_000_000) {
        let v = Value::Number(n as f64);
        prop_assert_eq!(v.to_display_string().parse::<f64>().unwrap(), n as f64);
    }

    #[test]
    fn snap_cmp_is_antisymmetric(a in value_strategy(), b in value_strategy()) {
        use std::cmp::Ordering;
        let ab = a.snap_cmp(&b);
        let ba = b.snap_cmp(&a);
        match ab {
            Ordering::Less => prop_assert_eq!(ba, Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(ba, Ordering::Less),
            Ordering::Equal => prop_assert_eq!(ba, Ordering::Equal),
        }
    }

    #[test]
    fn sorting_values_never_panics_and_is_idempotent(
        items in prop::collection::vec(value_strategy(), 0..20)
    ) {
        let list = List::from_vec(items);
        list.sort();
        let once = list.to_vec();
        list.sort();
        prop_assert_eq!(list.to_vec(), once);
    }

    #[test]
    fn constant_roundtrips_through_value_and_json(c in constant_strategy()) {
        prop_assert_eq!(Constant::from_value(&c.to_value()), c.clone());
        let json = serde_json::to_string(&c).unwrap();
        prop_assert_eq!(serde_json::from_str::<Constant>(&json).unwrap(), c);
    }

    #[test]
    fn list_add_then_delete_last_is_identity(
        items in prop::collection::vec(value_strategy(), 0..10),
        extra in value_strategy()
    ) {
        let list = List::from_vec(items.clone());
        list.add(extra);
        list.delete(list.len());
        prop_assert_eq!(list.to_vec(), items);
    }

    #[test]
    fn list_insert_increases_len_and_places_item(
        items in prop::collection::vec(value_strategy(), 0..10),
        idx in 1usize..12,
        v in value_strategy()
    ) {
        let list = List::from_vec(items.clone());
        let before = list.len();
        list.insert(idx, v.clone());
        prop_assert_eq!(list.len(), before + 1);
        let where_expected = idx.min(before + 1);
        prop_assert!(list.item(where_expected).unwrap().loose_eq(&v));
    }

    #[test]
    fn addition_block_is_commutative(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let x = eval_binop(BinOp::Add, &Value::Number(a), &Value::Number(b));
        let y = eval_binop(BinOp::Add, &Value::Number(b), &Value::Number(a));
        prop_assert_eq!(x, y);
    }

    #[test]
    fn mod_result_has_divisor_sign(a in -1000i64..1000, b in 1i64..1000, neg in any::<bool>()) {
        let divisor = if neg { -b } else { b } as f64;
        let v = eval_binop(BinOp::Mod, &Value::Number(a as f64), &Value::Number(divisor));
        let r = v.to_number();
        if r != 0.0 {
            prop_assert_eq!(r.signum(), divisor.signum());
        }
        prop_assert!(r.abs() < divisor.abs());
    }

    #[test]
    fn numbers_from_to_has_right_length(a in -100i64..100, b in -100i64..100) {
        let v = numbers_from_to(a as f64, b as f64).unwrap();
        let len = v.as_list().unwrap().len() as i64;
        prop_assert_eq!(len, (a - b).abs() + 1);
    }

    #[test]
    fn pure_fn_times_k_matches_direct_multiplication(
        xs in prop::collection::vec(-1e6f64..1e6, 0..50),
        k in -100f64..100.0
    ) {
        let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(k))));
        let f = PureFn::compile(ring).unwrap();
        for &x in &xs {
            let got = f.call1(Value::Number(x)).unwrap().to_number();
            prop_assert_eq!(got, x * k);
        }
    }

    #[test]
    fn named_and_implicit_params_agree(x in -1e6f64..1e6, k in -100f64..100.0) {
        // (( ) × k) and ((n) ↦ n × k) must compute the same function.
        let implicit = PureFn::compile(Arc::new(Ring::reporter(
            mul(empty_slot(), num(k)),
        ))).unwrap();
        let named = PureFn::compile(Arc::new(Ring::reporter_with_params(
            vec!["n".into()],
            mul(var("n"), num(k)),
        ))).unwrap();
        prop_assert_eq!(
            implicit.call1(Value::Number(x)).unwrap(),
            named.call1(Value::Number(x)).unwrap()
        );
    }

    #[test]
    fn expr_serde_roundtrips(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let e = parallel_map_with_workers(
            ring_reporter(add(empty_slot(), num(a))),
            number_list([b, a + b]),
            num(4.0),
        );
        let json = serde_json::to_string(&e).unwrap();
        prop_assert_eq!(serde_json::from_str::<Expr>(&json).unwrap(), e);
    }

    #[test]
    fn block_count_is_positive_and_stable(n in 0usize..5) {
        let mut e = num(1.0);
        for _ in 0..n {
            e = add(e, num(2.0));
        }
        prop_assert_eq!(e.block_count(), 2 * n + 1);
    }
}
