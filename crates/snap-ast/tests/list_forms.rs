//! A list stores its items boxed or as plain `f64`s (see `value.rs`).
//! These tests hold the two forms to one behaviour: a model-based
//! property over random mutation sequences, applied at once to a list
//! that starts numeric, one that starts boxed and a plain `Vec<Value>`,
//! and the counted `numbers from a to b` against the stepping loop it
//! replaced.

use std::sync::Arc;

use proptest::prelude::*;

use snap_ast::builder::*;
use snap_ast::pure::{numbers_from_to, MAX_LIST_ITEMS};
use snap_ast::{EvalError, List, PureFn, Ring, Value};

/// Items the mutations write: numbers (with NaN and −0), numeric text,
/// text, and nested lists of those.
fn item_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(|n| Value::Number(n as f64)),
        (-1e3f64..1e3).prop_map(Value::Number),
        Just(Value::Number(f64::NAN)),
        Just(Value::Number(-0.0)),
        Just(Value::Number(0.0)),
        Just(Value::text(" 12 ")),
        Just(Value::text("-0")),
        "[a-cA-C]{0,3}".prop_map(Value::text),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop::collection::vec(inner, 0..3).prop_map(Value::list)
    })
}

/// Mostly numbers, so that numeric lists stay numeric for a while.
fn number_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-20i64..20).prop_map(|n| Value::Number(n as f64)),
        (-1e3f64..1e3).prop_map(Value::Number),
        Just(Value::Number(f64::NAN)),
        Just(Value::Number(-0.0)),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Add(Value),
    Insert(usize, Value),
    Delete(usize),
    Replace(usize, Value),
    ReplaceAll(Vec<Value>),
    Clear,
    DeepCopy,
    Sort,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let value = prop_oneof![number_strategy(), number_strategy(), item_strategy()];
    prop_oneof![
        value.clone().prop_map(Op::Add),
        (0usize..8, value.clone()).prop_map(|(i, v)| Op::Insert(i, v)),
        (0usize..8).prop_map(Op::Delete),
        (0usize..8, value.clone()).prop_map(|(i, v)| Op::Replace(i, v)),
        prop::collection::vec(value, 0..5).prop_map(Op::ReplaceAll),
        Just(Op::Clear),
        Just(Op::DeepCopy),
        Just(Op::Sort),
    ]
}

/// The structure of `items`, NaN and the sign of zero included.
fn shape(items: &[Value]) -> String {
    format!("{items:?}")
}

/// `items` as the model's list value.
fn model_list(items: &[Value]) -> Value {
    Value::List(List::boxed(items.to_vec()))
}

/// Apply `op` to the model, with the list blocks' index rules.
fn apply_to_model(model: &mut Vec<Value>, op: &Op) {
    match op {
        Op::Add(v) => model.push(v.clone()),
        Op::Insert(i, v) => {
            let at = i.saturating_sub(1).min(model.len());
            model.insert(at, v.clone());
        }
        Op::Delete(i) => {
            if (1..=model.len()).contains(i) {
                model.remove(i - 1);
            }
        }
        Op::Replace(i, v) => {
            if (1..=model.len()).contains(i) {
                model[i - 1] = v.clone();
            }
        }
        Op::ReplaceAll(vs) => *model = vs.clone(),
        Op::Clear => model.clear(),
        Op::DeepCopy => {}
        Op::Sort => model.sort_by(Value::snap_cmp),
    }
}

/// Apply `op` through `handle`, another handle to `list`, and check
/// `deep_copy` shares nothing with `list`.
fn apply_to_list(list: &List, handle: &List, op: &Op) {
    match op {
        Op::Add(v) => handle.add(v.clone()),
        Op::Insert(i, v) => handle.insert(*i, v.clone()),
        Op::Delete(i) => {
            handle.delete(*i);
        }
        Op::Replace(i, v) => {
            handle.set_item(*i, v.clone());
        }
        Op::ReplaceAll(vs) => handle.replace_all(vs.clone()),
        Op::Clear => handle.clear(),
        Op::DeepCopy => {
            let copy = list.deep_copy();
            assert_eq!(shape(&copy.to_vec()), shape(&list.to_vec()));
            assert!(!copy.same_identity(list));
            let before = shape(&list.to_vec());
            copy.add(Value::text("only in the copy"));
            for item in copy.to_vec() {
                if let Value::List(nested) = item {
                    nested.add(Value::text("only in the copy"));
                }
            }
            assert_eq!(shape(&list.to_vec()), before, "deep_copy shared storage");
        }
        Op::Sort => handle.sort(),
    }
}

/// Whether `op` writes a value that is not a number into a list.
fn writes_a_non_number(op: &Op, len_before: usize) -> bool {
    let boxed = |v: &Value| !matches!(v, Value::Number(_));
    match op {
        Op::Add(v) | Op::Insert(_, v) => boxed(v),
        Op::Replace(i, v) => (1..=len_before).contains(i) && boxed(v),
        Op::ReplaceAll(vs) => vs.iter().any(boxed),
        Op::Delete(_) | Op::Clear | Op::DeepCopy | Op::Sort => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn both_forms_behave_as_the_model(
        start in prop::collection::vec(number_strategy(), 0..6),
        ops in prop::collection::vec(op_strategy(), 0..24),
    ) {
        let numeric = List::from_vec(start.clone());
        let boxed = List::boxed(start.clone());
        let mut model = start;
        prop_assert!(numeric.is_numeric());
        prop_assert!(!boxed.is_numeric());
        let (numeric_alias, boxed_alias) = (numeric.clone(), boxed.clone());
        let mut still_numeric = true;
        for (step, op) in ops.iter().enumerate() {
            still_numeric &= !writes_a_non_number(op, model.len());
            apply_to_model(&mut model, op);
            // Alternate which handle writes: a write through either shows
            // through both.
            let (n_handle, b_handle) = if step % 2 == 0 {
                (&numeric, &boxed_alias)
            } else {
                (&numeric_alias, &boxed)
            };
            apply_to_list(&numeric, n_handle, op);
            apply_to_list(&boxed, b_handle, op);

            prop_assert_eq!(numeric.is_numeric(), still_numeric, "after {:?}", op);
            prop_assert!(!boxed.is_numeric(), "a boxed list went numeric");
            for list in [&numeric, &boxed, &numeric_alias, &boxed_alias] {
                prop_assert_eq!(shape(&list.to_vec()), shape(&model), "after {:?}", op);
                prop_assert_eq!(list.len(), model.len());
                let items = list.with_items(shape);
                prop_assert_eq!(items, shape(&model));
                for i in 0..=model.len() + 1 {
                    prop_assert_eq!(
                        format!("{:?}", list.item(i)),
                        format!("{:?}", i.checked_sub(1).and_then(|i| model.get(i)))
                    );
                }
            }
            prop_assert!(numeric.same_identity(&numeric_alias));
            prop_assert_eq!(numeric.is_numeric(), still_numeric, "with_items promoted");

            let (n, b, m) = (Value::List(numeric.clone()), Value::List(boxed.clone()), model_list(&model));
            let shown = m.to_display_string();
            prop_assert_eq!(n.to_display_string(), shown.clone());
            prop_assert_eq!(b.to_display_string(), shown);
            prop_assert_eq!(format!("{n:?}"), format!("{m:?}"));
            // `==` across forms is the items' `==` (false with a NaN),
            // and `=` is the items' loose equality.
            let strict = model.iter().zip(&model).all(|(x, y)| x == y);
            prop_assert_eq!(numeric == boxed, strict);
            prop_assert_eq!(boxed == numeric, strict);
            let loose = model_list(&model).loose_eq(&m);
            prop_assert_eq!(n.loose_eq(&b), loose);
            prop_assert_eq!(b.loose_eq(&n), loose);
            for probe in [Value::Number(3.0), Value::text("3"), Value::text("a"), Value::Number(f64::NAN)] {
                let want = model.iter().any(|v| v.loose_eq(&probe));
                prop_assert_eq!(numeric.contains(&probe), want);
                prop_assert_eq!(boxed.contains(&probe), want);
            }
        }
    }
}

/// `numbers from a to b` as it was before it counted its items: step
/// `x` by one while it stays within `b`. That loop never ends once a step
/// no longer changes `x`; `cap` stops it, and the flag says whether it
/// ended by itself.
fn stepped(a: f64, b: f64, cap: usize) -> (Vec<f64>, bool) {
    let mut out = Vec::new();
    let mut x = a;
    if a <= b {
        while x <= b {
            if out.len() == cap {
                return (out, false);
            }
            out.push(x);
            x += 1.0;
        }
    } else {
        while x >= b {
            if out.len() == cap {
                return (out, false);
            }
            out.push(x);
            x -= 1.0;
        }
    }
    (out, true)
}

/// The bits of the numbers `numbers_from_to` reports, checking that the
/// list is numeric.
fn range_bits(a: f64, b: f64) -> Vec<u64> {
    let range = numbers_from_to(a, b).unwrap();
    let list = range.as_list().unwrap();
    assert!(list.is_numeric(), "{a} to {b} is boxed");
    list.to_vec()
        .iter()
        .map(|v| v.to_number().to_bits())
        .collect()
}

const TWO_53: f64 = 9_007_199_254_740_992.0;

fn bound_strategy() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![
        // Fractional and negative bounds, either order.
        (-500.0f64..500.0, -500.0f64..500.0),
        // Integer bounds.
        (-300i64..300, -300i64..300).prop_map(|(a, b)| (a as f64, b as f64)),
        // A fractional start with an integer end, and the reverse.
        (-50.0f64..50.0, -60i64..60).prop_map(|(a, b)| (a, b as f64)),
        (-60i64..60, -50.0f64..50.0).prop_map(|(a, b)| (a as f64, b)),
        // Starts just below ±2^53, where steps stop changing `x`.
        (0i64..40, 0i64..80, any::<bool>()).prop_map(|(k, m, neg)| {
            let (a, b) = (TWO_53 - k as f64, TWO_53 - 40.0 + m as f64);
            if neg {
                (-a, -b)
            } else {
                (a, b)
            }
        }),
        (0.0f64..40.0, 0i64..80).prop_map(|(k, m)| (TWO_53 - 64.0 + k, TWO_53 + m as f64)),
        // Starts past 2^53.
        (0i64..8, 0i64..8).prop_map(|(k, m)| (TWO_53 * 2.0 + k as f64, TWO_53 * 2.0 + m as f64)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn counted_range_matches_the_stepping_loop((a, b) in bound_strategy()) {
        let got = range_bits(a, b);
        let (old, ended) = stepped(a, b, 10_000);
        let old: Vec<u64> = old.iter().map(|x| x.to_bits()).collect();
        if ended {
            prop_assert_eq!(got, old, "{} to {}", a, b);
        } else {
            // The old loop stalled: the new range is its items up to the
            // step that stopped changing `x`.
            let step = if a <= b { 1.0 } else { -1.0 };
            let last = f64::from_bits(*got.last().unwrap());
            prop_assert_eq!(last + step, last, "{} to {}", a, b);
            prop_assert_eq!(&got[..], &old[..got.len()], "{} to {}", a, b);
        }
    }
}

#[test]
fn nan_bounds_give_an_empty_range_and_infinite_ones_an_error() {
    for (a, b) in [(f64::NAN, 3.0), (3.0, f64::NAN), (f64::NAN, f64::NAN)] {
        assert_eq!(range_bits(a, b), Vec::<u64>::new(), "{a} to {b}");
    }
    let too_long = Err(EvalError::ListTooLong {
        limit: MAX_LIST_ITEMS,
    });
    for (a, b) in [
        (1.0, f64::INFINITY),
        (f64::NEG_INFINITY, 5.0),
        (5.0, f64::NEG_INFINITY),
        (f64::INFINITY, f64::INFINITY),
    ] {
        assert_eq!(numbers_from_to(a, b), too_long, "{a} to {b}");
    }
    // The sign of a −0 start survives, as in the stepping loop.
    assert_eq!(
        range_bits(-0.0, 1.0),
        vec![(-0.0f64).to_bits(), 1.0f64.to_bits()]
    );
}

#[test]
fn huge_ranges_fail_or_stop_on_a_small_stack() {
    // On a 2 MiB thread, without raising the stack: the two ranges that
    // used to append until an allocation failed.
    let out = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let huge = numbers_from_to(1.0, 1e12);
            let stalled = numbers_from_to(1e16, 1e16);
            let ring = Arc::new(Ring::reporter(numbers_from_to_block()));
            let through_a_ring = PureFn::compile(ring).unwrap().call(&[]);
            (huge, stalled, through_a_ring)
        })
        .unwrap()
        .join()
        .unwrap();
    let too_long = Err(EvalError::ListTooLong {
        limit: MAX_LIST_ITEMS,
    });
    assert_eq!(out.0, too_long);
    assert_eq!(out.1, Ok(Value::number_list([1e16])));
    assert_eq!(out.2, too_long);
    assert_eq!(
        numbers_from_to(1.0, MAX_LIST_ITEMS as f64 + 1.0),
        too_long,
        "one past the budget"
    );
}

/// `numbers from 1 to 1e12` as a block.
fn numbers_from_to_block() -> snap_ast::Expr {
    snap_ast::builder::numbers_from_to(num(1.0), num(1e12))
}
