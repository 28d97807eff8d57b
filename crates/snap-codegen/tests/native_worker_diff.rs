//! Differential suite for the **persistent** native tier: random
//! IEEE-exact rings are compiled once, spawned once in `--serve` mode,
//! and streamed many successive binary frames — every frame must match
//! `eval_batch` and the tree-walk oracle **bit-for-bit** (any-NaN
//! rule), the same contract `codegen_diff.rs` enforces for the
//! spawn-per-call protocol. Extra shapes the spawn path never sees:
//! an empty frame, frames crossing the 64-lane `eval_batch` boundary,
//! and the same-pid assertion proving the worker really is warm.
//!
//! Auto-skips (visibly) when no C toolchain is present; CI forbids the
//! skip by running `codegen_check --require-toolchain --persistent`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::Arc;

use snap_ast::builder::*;
use snap_ast::{BinOp, Expr, Ring, UnOp};
use snap_codegen::harness::{
    compare_pairs, compare_values, oracle_map_tiers, reference_mapreduce, Harness,
    MAPREDUCE_REL_TOL,
};
use snap_codegen::openmp::{emit_mapreduce_openmp_protocol, summing_reducer, word_count_mapper};
use snap_codegen::worker::{compile_native_map, native_pool, NativeProgram, WorkerKind};

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

/// Fixed IEEE edge-case inputs prepended to the first frame of every
/// random stream: binary frames must carry specials without the text
/// protocol's `{:e}`/`strtod` round-trip even being involved.
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

/// Random expression over `x`, depth-bounded, IEEE-exact ops only
/// (same generator as `codegen_diff.rs`).
fn random_expr(rng: &mut TestRng, depth: u32) -> Expr {
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

/// Per-frame random inputs: frame 0 leads with the IEEE specials, later
/// frames are fresh draws so the stream isn't one payload repeated.
fn frame_inputs(seed: u64, frame: u64, len: usize) -> Vec<f64> {
    let mut rng = TestRng::seed_from_u64(seed ^ (frame.wrapping_mul(0x9E37_79B9)) ^ 0x0DA7_A5E7);
    let mut inputs = if frame == 0 {
        edge_inputs()
    } else {
        Vec::new()
    };
    while inputs.len() < len {
        let mag = 10f64.powf(rng.unit_f64() * 12.0 - 6.0);
        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        inputs.push(sign * mag * rng.unit_f64());
    }
    inputs
}

/// Register + stream `frames` successive frames through one persistent
/// worker, asserting per-frame bit equality against every oracle tier
/// and that the worker pid never changes (one spawn, many frames).
fn check_persistent_ring(seed: u64, frames: u64) -> Result<(), String> {
    let ring = random_ring(seed);
    let program = compile_native_map(&ring)
        .map_err(|e| format!("seed {seed}: compile_native_map failed: {e}"))?;
    let mut pid = None;
    for frame in 0..frames {
        let inputs = frame_inputs(seed, frame, 40);
        let native = native_pool()
            .map_frame(&program, &inputs)
            .map_err(|e| format!("seed {seed} frame {frame}: worker frame failed: {e}"))?;
        let this_pid = native_pool().worker_pid(&program.name);
        if frame == 0 {
            pid = this_pid;
        } else if this_pid != pid {
            return Err(format!(
                "seed {seed} frame {frame}: worker respawned mid-stream ({pid:?} -> {this_pid:?})"
            ));
        }
        let tiers = oracle_map_tiers(&ring, &inputs)
            .map_err(|e| format!("seed {seed} frame {frame}: oracle tiers failed: {e}"))?;
        compare_values(
            &format!("seed {seed} frame {frame}: persistent vs treewalk"),
            &native,
            &tiers.treewalk,
        )?;
        compare_values(
            &format!("seed {seed} frame {frame}: persistent vs scalar"),
            &native,
            &tiers.scalar,
        )?;
        if let Some(batch) = &tiers.batch {
            compare_values(
                &format!("seed {seed} frame {frame}: persistent vs batch"),
                &native,
                batch,
            )?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    fn random_rings_stream_many_frames_bit_exact(seed in 0u64..1_000_000u64) {
        if Harness::detect().is_err() {
            eprintln!("codegen.toolchain_missing — skipping persistent differential proptest");
            return;
        }
        if let Err(msg) = check_persistent_ring(seed, 5) {
            panic!("{msg}");
        }
    }
}

/// The frame shapes the batch tier treats specially: empty, one lane
/// short of / exactly at / one past the 64-lane `eval_batch` stride,
/// and a two-stride crossing — all through ONE warm worker, interleaved
/// so the protocol must resynchronize after the empty frame.
#[test]
fn empty_and_lane_boundary_frames_round_trip() {
    if Harness::detect().is_err() {
        eprintln!("codegen.toolchain_missing — skipping lane-boundary frames");
        return;
    }
    let ring = Arc::new(Ring::reporter_with_params(
        vec!["x".into()],
        add(mul(var("x"), num(3.0)), num(1.5)),
    ));
    let program = compile_native_map(&ring).expect("ring compiles");
    let first_pid = {
        let warmup = native_pool()
            .map_frame(&program, &[2.0])
            .expect("warm-up frame");
        assert_eq!(warmup, vec![7.5]);
        native_pool().worker_pid(&program.name)
    };
    for len in [0usize, 1, 63, 64, 65, 128, 130] {
        let inputs: Vec<f64> = (0..len).map(|i| i as f64 * 0.37 - 11.0).collect();
        let native = native_pool()
            .map_frame(&program, &inputs)
            .unwrap_or_else(|e| panic!("frame of {len} elements failed: {e}"));
        let tiers = oracle_map_tiers(&ring, &inputs).expect("oracle tiers");
        compare_values(
            &format!("frame len {len} vs treewalk"),
            &native,
            &tiers.treewalk,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        if let Some(batch) = &tiers.batch {
            compare_values(&format!("frame len {len} vs batch"), &native, batch)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
    assert_eq!(
        native_pool().worker_pid(&program.name),
        first_pid,
        "boundary frames must not kill the worker"
    );
}

/// MapReduce frames through a persistent worker: each frame is one
/// complete job (map, shuffle, reduce), compared against the f64
/// reference at `MAPREDUCE_REL_TOL` (kvp.h reduces in `float`). Two
/// different datasets over the same warm worker prove no state leaks
/// between frames.
#[test]
fn persistent_mapreduce_frames_match_reference() {
    let Ok(harness) = Harness::detect() else {
        eprintln!("codegen.toolchain_missing — skipping persistent mapreduce frames");
        return;
    };
    let mapper = word_count_mapper();
    let reducer = summing_reducer();
    let program = emit_mapreduce_openmp_protocol(&mapper, &reducer).expect("recognized pair");
    let compiled = harness
        .compile(
            "native_worker_wordcount",
            &[
                ("kvp.h", &program.kvp_h),
                ("mapred.c", &program.mapred_c),
                ("driver.c", &program.driver_c),
            ],
            true,
        )
        .expect("mapreduce program compiles");
    let native = NativeProgram {
        name: "native_worker_wordcount".into(),
        binary: compiled.binary,
        kind: WorkerKind::MapReduce,
    };
    let words = ["the", "quick", "brown", "fox", "the", "lazy", "dog", "the"];
    let frames: [Vec<(String, f64)>; 3] = [
        words.iter().map(|w| (w.to_string(), 1.0)).collect(),
        // Different multiset: a leak from frame 1 would change counts.
        ["alpha", "beta", "alpha", "gamma"]
            .iter()
            .map(|w| (w.to_string(), 1.0))
            .collect(),
        Vec::new(), // empty job: zero groups back, worker stays up
    ];
    let mut pid = None;
    for (i, pairs) in frames.iter().enumerate() {
        let got = native_pool()
            .mapreduce_frame(&native, pairs)
            .unwrap_or_else(|e| panic!("mapreduce frame {i} failed: {e}"));
        let want = reference_mapreduce(&mapper, &reducer, pairs).expect("reference semantics");
        compare_pairs(
            &format!("mapreduce frame {i}"),
            &got,
            &want,
            MAPREDUCE_REL_TOL,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let this_pid = native_pool().worker_pid(&native.name);
        if i == 0 {
            pid = this_pid;
        } else {
            assert_eq!(this_pid, pid, "mapreduce worker respawned at frame {i}");
        }
    }
}
