//! Shared workloads for the evaluation harness.
//!
//! Everything the `report` binary and the Criterion benches measure is
//! built here, so the two always agree on what an experiment means.
//! See `DESIGN.md`'s experiment index for the paper mapping.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::{Constant, Project, Ring, Script, SpriteDef, Stmt, Value};
use snap_vm::Vm;
use snap_workers::Parallel;

/// The paper's `(( ) × 10)` ring (Figs. 4–6).
pub fn times_ten_ring() -> Arc<Ring> {
    Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))))
}

/// A ring whose evaluation cost is tunable: sums `1..cost` scaled by the
/// input, entirely inside the pure evaluator (compute-bound work).
pub fn expensive_ring(cost: usize) -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["x".into()],
        combine_using(
            map_over(
                ring_reporter(mul(empty_slot(), var("x"))),
                numbers_from_to(num(1.0), num(cost as f64)),
            ),
            ring_reporter(add(empty_slot(), empty_slot())),
        ),
    ))
}

/// The word-count mapper `[w, 1]` (Fig. 11).
pub fn word_count_mapper() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ))
}

/// The summing reducer (Fig. 11).
pub fn summing_reducer() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ))
}

/// The climate mapper `["avg", °C]` (Fig. 19).
pub fn climate_mapper() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["t".into()],
        make_list(vec![
            text("avg"),
            div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
        ]),
    ))
}

/// The averaging reducer (Fig. 20).
pub fn averaging_reducer() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        div(
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
            length_of(var("vals")),
        ),
    ))
}

/// Number values `1..=n`.
pub fn number_items(n: usize) -> Vec<Value> {
    (1..=n).map(|i| Value::Number(i as f64)).collect()
}

/// E10's latency-bound work: `items` items on `workers` pool workers
/// (`Parallel::for_each`), each of which sleeps for `service`, as a drink
/// takes time to pour or a request takes time to answer. A sleep needs
/// no CPU, so worker scaling shows on a host with any core count.
pub fn sleep_for_each(items: usize, workers: usize, service: Duration) {
    Parallel::new((0..items).collect::<Vec<_>>())
        .with_max_workers(workers)
        .for_each(|_| std::thread::sleep(service));
}

/// Build the concession-stand project (paper §3.3). `parallel` selects
/// the `parallelForEach` mode.
pub fn concession_project(parallel: bool, cups: usize) -> Project {
    let fill = vec![repeat(num(3.0), vec![wait(num(1.0))])];
    let serve = if parallel {
        parallel_for_each("cup", var("cups"), fill)
    } else {
        parallel_for_each_sequential("cup", var("cups"), fill)
    };
    let cup_names: Vec<Constant> = (1..=cups)
        .map(|i| Constant::Text(format!("Cup{i}")))
        .collect();
    Project::new("concession")
        .with_global("cups", Constant::List(cup_names))
        .with_sprite(
            SpriteDef::new("Pitcher").with_script(Script::on_green_flag(vec![
                Stmt::ResetTimer,
                serve,
                say(timer()),
            ])),
        )
}

/// Run the concession stand; returns the timesteps the script reports
/// (the stage-timer value the paper's screenshots show).
pub fn run_concession(parallel: bool, cups: usize) -> u64 {
    let mut vm = Vm::new(concession_project(parallel, cups));
    snap_parallel::install(&mut vm);
    vm.green_flag();
    vm.run_until_idle();
    vm.world
        .said()
        .last()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// Like [`run_concession`] but returns the timestep at which the last
/// glass finished pouring (the paper's parallel "3").
pub fn run_concession_last_fill(parallel: bool, cups: usize) -> u64 {
    let fill = vec![
        repeat(num(3.0), vec![wait(num(1.0))]),
        say(join(vec![text("filled "), var("cup")])),
    ];
    let serve = if parallel {
        parallel_for_each("cup", var("cups"), fill)
    } else {
        parallel_for_each_sequential("cup", var("cups"), fill)
    };
    let cup_names: Vec<Constant> = (1..=cups)
        .map(|i| Constant::Text(format!("Cup{i}")))
        .collect();
    let project = Project::new("concession")
        .with_global("cups", Constant::List(cup_names))
        .with_sprite(
            SpriteDef::new("Pitcher")
                .with_script(Script::on_green_flag(vec![Stmt::ResetTimer, serve])),
        );
    let mut vm = Vm::new(project);
    snap_parallel::install(&mut vm);
    vm.green_flag();
    vm.run_until_idle();
    vm.world
        .say_log
        .iter()
        .filter(|e| e.text.starts_with("filled"))
        .map(|e| e.timestep)
        .max()
        .unwrap_or(0)
}

/// A compute-heavy VM script (for the time-slice ablation): `iters`
/// iterations of arithmetic in a plain (unwarped) repeat loop, so the
/// scheduler's slice length is what's being measured.
pub fn compute_script_project(iters: u64) -> Project {
    Project::new("compute").with_sprite(SpriteDef::new("S").with_script(Script::on_green_flag(
        vec![
            set_var("acc", num(0.0)),
            repeat(
                num(iters as f64),
                vec![set_var("acc", add(var("acc"), num(1.0)))],
            ),
            say(var("acc")),
        ],
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expensive_ring_cost_scales() {
        let cheap = expensive_ring(10);
        let f = snap_ast::PureFn::compile(cheap).unwrap();
        // sum(1..10)*x with x=2 → 55*2 = 110
        assert_eq!(f.call1(Value::Number(2.0)).unwrap(), Value::Number(110.0));
    }

    #[test]
    fn concession_matches_paper_numbers() {
        assert_eq!(run_concession(false, 3), 12);
        assert_eq!(run_concession_last_fill(true, 3), 3);
    }

    #[test]
    fn compute_script_reports_iterations() {
        let mut vm = Vm::new(compute_script_project(100));
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["100"]);
    }
}
