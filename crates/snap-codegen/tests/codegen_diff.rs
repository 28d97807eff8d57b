//! Differential proptest suite: random numeric rings are lowered to
//! C/OpenMP, compiled, executed over the stdin protocol, and compared
//! **bit-for-bit** against the tree-walk oracle (and the scalar and
//! columnar batch tiers). Ops are restricted to the IEEE-exact set the
//! four tiers agree on exactly — add/sub/mul/div plus the floored mod,
//! and the Neg/Abs/Sqrt/Round/Floor/Ceil unaries. `pow`/trig/log are
//! excluded: libm is free to differ from Rust's implementations in the
//! last ulp, which would turn bit equality into a tolerance test.
//!
//! Auto-skips (visibly) when no C toolchain is present; CI forbids the
//! skip by running `codegen_check --require-toolchain` alongside.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::Arc;

use snap_ast::builder::*;
use snap_ast::{BinOp, Expr, Ring, UnOp};
use snap_codegen::harness::{
    compare_values, detect_toolchain, oracle_map_tiers, reference_mapreduce, Harness,
};
use snap_codegen::openmp::{
    emit_map_openmp, emit_mapreduce_openmp_protocol, summing_reducer, word_count_mapper,
};

/// Constant pool: mundane values plus the edges where C `int`
/// arithmetic or printf rounding would diverge from IEEE doubles.
const CONSTANTS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -3.75,
    9.0,
    10.0,
    0.1,
    1e10,
    1e-10,
    1.0 / 3.0,
];

/// Fixed IEEE edge-case inputs prepended to every random input set.
fn edge_inputs() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -273.15,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        f64::EPSILON,
        1e300,
        -1e300,
    ]
}

/// Random expression over `x`, depth-bounded, IEEE-exact ops only.
fn random_expr(rng: &mut TestRng, depth: u32) -> Expr {
    // Bias leaves toward the variable so most trees actually read x.
    if depth == 0 || rng.below(5) == 0 {
        return if rng.below(3) < 2 {
            var("x")
        } else {
            num(CONSTANTS[rng.below(CONSTANTS.len() as u64) as usize])
        };
    }
    match rng.below(11) {
        0 => Expr::Binary(
            BinOp::Add,
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        ),
        1 => Expr::Binary(
            BinOp::Sub,
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        ),
        2 => Expr::Binary(
            BinOp::Mul,
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        ),
        3 => Expr::Binary(
            BinOp::Div,
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        ),
        4 => Expr::Binary(
            BinOp::Mod,
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        ),
        5 => Expr::Unary(UnOp::Neg, Box::new(random_expr(rng, depth - 1))),
        6 => abs(random_expr(rng, depth - 1)),
        7 => sqrt(random_expr(rng, depth - 1)),
        8 => round(random_expr(rng, depth - 1)),
        9 => floor(random_expr(rng, depth - 1)),
        _ => ceiling(random_expr(rng, depth - 1)),
    }
}

fn random_ring(seed: u64) -> Arc<Ring> {
    let mut rng = TestRng::seed_from_u64(seed);
    Arc::new(Ring::reporter_with_params(
        vec!["x".into()],
        random_expr(&mut rng, 4),
    ))
}

fn random_inputs(seed: u64) -> Vec<f64> {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x0DA7_A5E7);
    let mut inputs = edge_inputs();
    for _ in 0..24 {
        // Span magnitudes from subnormal-adjacent to 1e6, both signs.
        let mag = 10f64.powf(rng.unit_f64() * 12.0 - 6.0);
        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        inputs.push(sign * mag * rng.unit_f64());
    }
    inputs
}

/// Run one generated ring through native C and every oracle tier,
/// asserting bit-for-bit agreement. Returns false when skipped.
fn check_ring(harness: &Harness, seed: u64) -> Result<(), String> {
    let ring = random_ring(seed);
    let inputs = random_inputs(seed);
    let source = emit_map_openmp(&ring).map_err(|e| format!("seed {seed}: emit failed: {e}"))?;
    let native = harness
        .run_map(&format!("diff_ring_{seed:x}"), &source, &inputs)
        .map_err(|e| format!("seed {seed}: native run failed: {e}\n--- source ---\n{source}"))?;
    let tiers = oracle_map_tiers(&ring, &inputs)
        .map_err(|e| format!("seed {seed}: oracle tiers failed: {e}"))?;
    compare_values(
        &format!("seed {seed}: native vs treewalk"),
        &native,
        &tiers.treewalk,
    )
    .map_err(|e| format!("{e}\n--- source ---\n{source}"))?;
    compare_values(
        &format!("seed {seed}: native vs scalar"),
        &native,
        &tiers.scalar,
    )?;
    if let Some(batch) = &tiers.batch {
        compare_values(&format!("seed {seed}: native vs batch"), &native, batch)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    fn random_rings_native_matches_all_tiers(seed in 0u64..1_000_000u64) {
        let Ok(harness) = Harness::detect() else {
            eprintln!("codegen.toolchain_missing — skipping differential proptest");
            return;
        };
        if let Err(msg) = check_ring(&harness, seed) {
            panic!("{msg}");
        }
    }
}

/// IEEE specials survive the full compile-and-run protocol through an
/// actual binary: the identity map must hand back the exact bits it was
/// fed (NaN matching any NaN payload).
#[test]
fn ieee_specials_round_trip_through_compiled_identity_map() {
    let Ok(harness) = Harness::detect() else {
        eprintln!("codegen.toolchain_missing — skipping identity round-trip");
        return;
    };
    let ring = Arc::new(Ring::reporter_with_params(vec!["x".into()], var("x")));
    let source = emit_map_openmp(&ring).expect("identity ring translates");
    let inputs = edge_inputs();
    let native = harness
        .run_map("diff_identity", &source, &inputs)
        .expect("identity map compiles and runs");
    compare_values("identity round-trip", &native, &inputs).unwrap_or_else(|e| panic!("{e}"));
}

/// Input lengths short of, exactly at and one past the 64-lane
/// `eval_batch` stride, a two-stride crossing and the empty list: the
/// random-ring proptest runs 39 inputs per ring, so these boundaries
/// need their own runs.
#[test]
fn empty_and_lane_boundary_lengths_match_all_tiers() {
    let Ok(harness) = Harness::detect() else {
        eprintln!("codegen.toolchain_missing — skipping lane-boundary lengths");
        return;
    };
    let ring = Arc::new(Ring::reporter_with_params(
        vec!["x".into()],
        add(mul(var("x"), num(3.0)), num(1.5)),
    ));
    let source = emit_map_openmp(&ring).expect("ring translates");
    for len in [0usize, 1, 63, 64, 65, 128, 130] {
        let inputs: Vec<f64> = (0..len).map(|i| i as f64 * 0.37 - 11.0).collect();
        let native = harness
            .run_map("diff_lane_boundary", &source, &inputs)
            .unwrap_or_else(|e| panic!("{len} inputs: native run failed: {e}"));
        let tiers = oracle_map_tiers(&ring, &inputs).expect("oracle tiers");
        compare_values(
            &format!("len {len}: native vs treewalk"),
            &native,
            &tiers.treewalk,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        compare_values(
            &format!("len {len}: native vs scalar"),
            &native,
            &tiers.scalar,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let batch = tiers.batch.expect("the ring is batchable");
        compare_values(&format!("len {len}: native vs batch"), &native, &batch)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A MapReduce job with no input pairs reduces to no groups, natively
/// and in the f64 reference.
#[test]
fn empty_mapreduce_job_has_no_groups() {
    let Ok(harness) = Harness::detect() else {
        eprintln!("codegen.toolchain_missing — skipping empty mapreduce job");
        return;
    };
    let (mapper, reducer) = (word_count_mapper(), summing_reducer());
    let program = emit_mapreduce_openmp_protocol(&mapper, &reducer).expect("recognized pair");
    let native = harness
        .run_mapreduce("diff_empty_wordcount", &program, &[])
        .expect("empty job runs");
    let reference = reference_mapreduce(&mapper, &reducer, &[]).expect("reference semantics");
    assert!(native.is_empty(), "native groups: {native:?}");
    assert_eq!(native, reference);
}

/// The toolchain probe is stable: repeated detection returns the same
/// compiler identity, and a detected compiler reports a version.
#[test]
fn toolchain_probe_is_stable_and_versioned() {
    let first = detect_toolchain();
    let second = detect_toolchain();
    match (first, second) {
        (Some(a), Some(b)) => {
            assert_eq!(a.cc, b.cc);
            assert_eq!(a.version, b.version);
            assert_eq!(a.openmp, b.openmp);
            assert!(!a.version.is_empty(), "detected compiler has no version");
        }
        (None, None) => {
            eprintln!("codegen.toolchain_missing — probe consistently absent");
        }
        _ => panic!("toolchain probe flip-flopped between calls"),
    }
}
