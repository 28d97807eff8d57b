//! Property-based tests: worker parallelism must never change results.

use std::sync::Arc;

use proptest::prelude::*;

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_workers::{map_slice_with, ring_map, RingMapOptions};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_slice_matches_sequential_for_any_worker_count(
        items in prop::collection::vec(any::<i64>(), 0..200),
        workers in 1usize..16
    ) {
        let expected: Vec<i64> = items.iter().map(|n| n.wrapping_mul(3)).collect();
        let got = map_slice_with(&items, workers, |n| n.wrapping_mul(3));
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn pooled_map_of_strings_matches_sequential_map(
        items in prop::collection::vec(any::<u32>(), 0..150),
        workers in 1usize..9
    ) {
        // Heap-owning results over every chunk layout: each slot must
        // receive exactly one value, in input order.
        let expected: Vec<String> = items.iter().map(|n| n.rotate_left(7).to_string()).collect();
        let got = map_slice_with(&items, workers, |n| n.rotate_left(7).to_string());
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn ring_map_is_worker_count_invariant(
        xs in prop::collection::vec(-1e6f64..1e6, 0..60),
        workers in 1usize..9,
        k in -50f64..50.0
    ) {
        let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(k))));
        let items: Vec<Value> = xs.iter().map(|&x| Value::Number(x)).collect();
        let baseline = ring_map(ring.clone(), items.clone(), RingMapOptions { workers: 1 }).unwrap();
        let parallel = ring_map(ring, items, RingMapOptions { workers }).unwrap();
        prop_assert_eq!(baseline, parallel);
    }

    #[test]
    fn read_only_ring_matches_sequential_map(
        xs in prop::collection::vec(-1e3f64..1e3, 1..40),
        workers in 1usize..6
    ) {
        // The structured clone must not change what a read-only ring
        // reports.
        let ring = Arc::new(Ring::reporter_with_params(
            vec!["v".into()],
            add(var("v"), num(1.0)),
        ));
        let items: Vec<Value> = xs.iter().map(|&x| Value::Number(x)).collect();
        let expected: Vec<Value> = xs.iter().map(|&x| Value::Number(x + 1.0)).collect();
        let got = ring_map(ring, items, RingMapOptions { workers }).unwrap();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn inputs_survive_ring_map_unchanged(
        xs in prop::collection::vec(-1e3f64..1e3, 0..30),
        workers in 1usize..6
    ) {
        // Structured-clone isolation: the caller's nested lists must be
        // byte-identical after the parallel map.
        let ring = Arc::new(Ring::reporter(length_of(empty_slot())));
        let items: Vec<Value> = xs
            .iter()
            .map(|&x| Value::list(vec![Value::Number(x)]))
            .collect();
        let snapshot: Vec<String> =
            items.iter().map(Value::to_display_string).collect();
        let _ = ring_map(ring, items.clone(), RingMapOptions { workers }).unwrap();
        let after: Vec<String> = items.iter().map(Value::to_display_string).collect();
        prop_assert_eq!(snapshot, after);
    }
}
