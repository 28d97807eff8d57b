//! Experiment-level assertions: every quantitative claim reproduced
//! from the paper, one test per experiment id (see DESIGN.md's index).
//! The `report` binary in `crates/bench` prints the same numbers as
//! human-readable tables.

use std::sync::Arc;
use std::time::{Duration, Instant};

use snap_core::data::{simulate_cohort, tabulate, PAPER_TABLE};
use snap_core::prelude::*;
use snap_core::workers::Parallel;

/// E1 (Fig. 4/6): the sequential map block multiplies each element by 10.
#[test]
fn e1_sequential_map() {
    let mut session = Session::load(Project::new("e1").with_sprite(SpriteDef::new("S")));
    let out = session
        .eval(
            Some("S"),
            &map_over(
                ring_reporter(mul(empty_slot(), num(10.0))),
                number_list([3.0, 7.0, 8.0]),
            ),
        )
        .unwrap();
    assert_eq!(out, Value::number_list([30.0, 70.0, 80.0]));
}

/// E2 (Fig. 5/6): parallelMap returns identical results for any worker
/// count, including the paper's default of 4.
#[test]
fn e2_parallel_map_equivalence() {
    let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
    let items: Vec<Value> = (1..=100).map(|n| Value::Number(n as f64)).collect();
    let expected: Vec<Value> = (1..=100).map(|n| Value::Number(n as f64 * 10.0)).collect();
    for workers in [1, 2, 4, 8] {
        assert_eq!(
            snap_core::parallel::parallel_map(ring.clone(), items.clone(), workers).unwrap(),
            expected
        );
    }
}

/// E3 (Figs. 7–10): concession stand — sequential 12 timesteps vs
/// parallel 3 (the paper's observed numbers), ideal sequential 9 (the
/// expected number of footnote 5).
#[test]
fn e3_concession_stand_timing() {
    let build = |parallel: bool| {
        let fill = vec![repeat(num(3.0), vec![wait(num(1.0))])];
        let serve = if parallel {
            parallel_for_each("cup", var("cups"), fill)
        } else {
            parallel_for_each_sequential("cup", var("cups"), fill)
        };
        Project::new("e3")
            .with_global(
                "cups",
                Constant::List(vec!["c1".into(), "c2".into(), "c3".into()]),
            )
            .with_sprite(
                SpriteDef::new("Pitcher").with_script(Script::on_green_flag(vec![
                    Stmt::ResetTimer,
                    serve,
                    say(timer()),
                ])),
            )
    };
    let mut seq = Session::load(build(false));
    seq.run();
    assert_eq!(seq.said(), vec!["12"], "paper observed 12 sequential");

    let mut par = Session::load(build(true));
    par.run();
    // The parent script observes completion one join-poll after the
    // clones finish pouring at t=3; the last pour is the paper's number.
    let total: u64 = par.said()[0].parse().unwrap();
    assert!(total <= 5, "parallel completion near 3, got {total}");
}

/// E4 (Figs. 11–12): word count produces the sorted unique words with
/// counts.
#[test]
fn e4_word_count_output_shape() {
    let mut session = Session::load(Project::new("e4").with_sprite(SpriteDef::new("S")));
    let out = session
        .eval(
            Some("S"),
            &map_reduce(
                ring_reporter_with(vec!["w"], make_list(vec![var("w"), num(1.0)])),
                ring_reporter_with(
                    vec!["vals"],
                    combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
                ),
                split(text("to be or not to be"), text(" ")),
            ),
        )
        .unwrap();
    assert_eq!(
        out.to_display_string(),
        "[[be, 2], [not, 1], [or, 1], [to, 2]]"
    );
}

/// E5 (Fig. 13): Fahrenheit→Celsius averaging MapReduce.
#[test]
fn e5_climate_average() {
    let mut session = Session::load(Project::new("e5").with_sprite(SpriteDef::new("S")));
    let out = session
        .eval(
            Some("S"),
            &map_reduce(
                ring_reporter_with(
                    vec!["t"],
                    make_list(vec![
                        text("avg"),
                        div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
                    ]),
                ),
                ring_reporter_with(
                    vec!["vals"],
                    div(
                        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
                        length_of(var("vals")),
                    ),
                ),
                number_list([32.0, 50.0, 212.0]),
            ),
        )
        .unwrap();
    let pair = out.as_list().unwrap().item(1).unwrap();
    let avg = pair.as_list().unwrap().item(2).unwrap().to_number();
    // (0 + 10 + 100) / 3 = 36.67 °C
    assert!((avg - 110.0 / 3.0).abs() < 1e-9);
}

/// E6 (Listings 3–4): the hello-world listings match the paper.
#[test]
fn e6_hello_world_listings() {
    use snap_core::codegen::openmp::{LISTING3_SEQUENTIAL_HELLO, LISTING4_OPENMP_HELLO};
    assert!(LISTING3_SEQUENTIAL_HELLO.contains("printf(\" hello(%d), \", ID);"));
    assert!(LISTING4_OPENMP_HELLO.contains("#pragma omp parallel"));
    // The whole difference between them is the pragma + thread id call —
    // the paper's point about OpenMP's low syntactic overhead.
    let seq_lines: Vec<&str> = LISTING3_SEQUENTIAL_HELLO.lines().collect();
    let omp_lines: Vec<&str> = LISTING4_OPENMP_HELLO.lines().collect();
    assert!(omp_lines.len() - seq_lines.len() <= 4);
}

/// E7 (Fig. 15–16, Listing 5): blocks→C for the map example.
#[test]
fn e7_listing5_structure() {
    let code = snap_core::codegen::emit_listing5();
    assert!(code.contains("int a[] = {3, 7, 8};"));
    assert!(code.contains("append((a[i - 1] * 10), b);"));
}

/// E8 (Listings 6–7): blocks→OpenMP for the climate MapReduce.
#[test]
fn e8_openmp_mapreduce_structure() {
    use snap_core::codegen::openmp::*;
    let program = emit_mapreduce_openmp(
        &climate_mapper(),
        &averaging_reducer(),
        &[("s".into(), 32.0)],
    )
    .unwrap();
    assert!(program
        .mapred_c
        .contains("out->val = ((5 * (in->val - 32)) / 9);"));
    assert!(program.driver_c.contains("#pragma omp parallel for"));
    assert!(program.kvp_h.contains("typedef struct KVP"));
}

/// E9 (§5): the WCD survey table.
#[test]
fn e9_survey_table_matches_paper() {
    let table = tabulate(&simulate_cohort(100, 2016));
    assert_eq!(table.career_cs_pct, PAPER_TABLE.career_cs_pct);
    assert_eq!(table.career_other_pct, PAPER_TABLE.career_other_pct);
    assert_eq!(table.career_none_pct, PAPER_TABLE.career_none_pct);
    assert_eq!(table.benefit_pct, PAPER_TABLE.benefit_pct);
    assert_eq!(table.more_favorable_pct, PAPER_TABLE.more_favorable_pct);
    assert_eq!(table.less_favorable_pct, PAPER_TABLE.less_favorable_pct);
}

/// E10: worker scaling on latency-bound items. Compute-bound speedup is
/// capped by the host's core count, so the scaling claim is exercised on
/// items that each sleep for their service time (documented in
/// EXPERIMENTS.md); the shape — more workers, less wall time — must hold
/// anywhere.
#[test]
fn e10_latency_bound_scaling_shape() {
    let time_with = |workers: usize| {
        let start = Instant::now();
        Parallel::new((0..24).collect::<Vec<u32>>())
            .with_max_workers(workers)
            .for_each(|_| std::thread::sleep(Duration::from_millis(2)));
        start.elapsed()
    };
    let t1 = time_with(1);
    let t8 = time_with(8);
    assert!(
        t8 < t1 / 3,
        "8 workers ({t8:?}) must be far faster than 1 ({t1:?}) on latency-bound items"
    );
}
