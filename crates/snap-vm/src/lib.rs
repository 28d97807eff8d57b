//! # snap-vm — the cooperative Snap! runtime
//!
//! A faithful, headless reimplementation of the execution model the
//! paper builds on (§2, §4): an event-driven world of sprites whose
//! scripts run as *processes* under a single-threaded, time-sliced,
//! round-robin scheduler — concurrency, not parallelism. True
//! parallelism enters only through the [`backend::ParallelBackend`] seam
//! (the paper's HTML5 Web Workers), implemented by `snap-parallel`.
//!
//! ```
//! use snap_ast::builder::*;
//! use snap_ast::{Project, SpriteDef, Script, Value};
//! use snap_vm::Vm;
//!
//! let project = Project::new("hello").with_sprite(
//!     SpriteDef::new("Cat").with_script(Script::on_green_flag(vec![
//!         say(map_over(
//!             ring_reporter(mul(empty_slot(), num(10.0))),
//!             number_list([3.0, 7.0, 8.0]),
//!         )),
//!     ])),
//! );
//! let mut vm = Vm::new(project);
//! vm.green_flag();
//! vm.run_until_idle();
//! assert_eq!(vm.world.said(), vec!["[30, 70, 80]"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod error;
pub mod eval;
pub mod process;
pub mod stage;
pub mod vm;
pub mod world;

pub use backend::{ParallelBackend, SequentialBackend};
pub use error::VmError;
pub use eval::EvalCtx;
pub use process::{Pid, Process, ScopeStack};
pub use stage::{render_stage, StageView};
pub use vm::{Interference, Vm, VmConfig};
pub use world::{SayEvent, SpriteId, SpriteInstance, World};

#[cfg(test)]
mod tests {
    use snap_ast::builder::*;
    use snap_ast::{Constant, Project, Script, SpriteDef, Stmt, StopKind, Value};

    use crate::vm::{Interference, Vm, VmConfig};

    fn run_script(body: Vec<Stmt>) -> Vm {
        let project = Project::new("t")
            .with_sprite(SpriteDef::new("S").with_script(Script::on_green_flag(body)));
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        vm
    }

    #[test]
    fn say_logs_output() {
        let vm = run_script(vec![say(text("hello")), say(num(42.0))]);
        assert_eq!(vm.world.said(), vec!["hello", "42"]);
        assert!(vm.world.errors.is_empty());
    }

    #[test]
    fn set_and_change_variables() {
        let vm = run_script(vec![
            set_var("x", num(10.0)),
            change_var("x", num(5.0)),
            say(var("x")),
        ]);
        assert_eq!(vm.world.said(), vec!["15"]);
    }

    #[test]
    fn repeat_loop_counts() {
        let vm = run_script(vec![
            set_var("n", num(0.0)),
            repeat(num(5.0), vec![change_var("n", num(1.0))]),
            say(var("n")),
        ]);
        assert_eq!(vm.world.said(), vec!["5"]);
    }

    #[test]
    fn for_loop_binds_variable() {
        let vm = run_script(vec![
            set_var("sum", num(0.0)),
            for_loop("i", num(1.0), num(10.0), vec![change_var("sum", var("i"))]),
            say(var("sum")),
        ]);
        assert_eq!(vm.world.said(), vec!["55"]);
    }

    #[test]
    fn for_each_iterates_in_order() {
        let vm = run_script(vec![for_each(
            "w",
            make_list(vec![text("a"), text("b"), text("c")]),
            vec![say(var("w"))],
        )]);
        assert_eq!(vm.world.said(), vec!["a", "b", "c"]);
    }

    #[test]
    fn repeat_until_exits() {
        let vm = run_script(vec![
            set_var("n", num(0.0)),
            repeat_until(ge(var("n"), num(3.0)), vec![change_var("n", num(1.0))]),
            say(var("n")),
        ]);
        assert_eq!(vm.world.said(), vec!["3"]);
    }

    #[test]
    fn wait_takes_timesteps() {
        // say at t0, wait 5, say again — second say is at timestep 5.
        let vm = run_script(vec![say(text("a")), wait(num(5.0)), say(text("b"))]);
        assert_eq!(vm.world.say_log[0].timestep, 0);
        assert_eq!(vm.world.say_log[1].timestep, 5);
    }

    #[test]
    fn repeat_with_wait_absorbs_loop_bottom() {
        // repeat 3 { wait 1 } finishes as the timer shows 3: the wait
        // absorbs the loop-bottom yield (see module docs).
        let vm = run_script(vec![repeat(num(3.0), vec![wait(num(1.0))]), say(timer())]);
        assert_eq!(vm.world.said(), vec!["3"]);
    }

    #[test]
    fn bare_loop_pays_one_frame_per_iteration() {
        let vm = run_script(vec![
            repeat(num(4.0), vec![set_var("x", num(0.0))]),
            say(timer()),
        ]);
        // 4 loop-bottom yields → timer 4.
        assert_eq!(vm.world.said(), vec!["4"]);
    }

    #[test]
    fn warp_suppresses_loop_yields() {
        let vm = run_script(vec![
            warp(vec![repeat(num(100.0), vec![set_var("x", num(0.0))])]),
            say(timer()),
        ]);
        assert_eq!(vm.world.said(), vec!["0"]);
    }

    #[test]
    fn scripts_interleave_round_robin() {
        // Two green-flag scripts on one sprite: their outputs interleave
        // because each loop iteration yields.
        let project = Project::new("t").with_sprite(
            SpriteDef::new("S")
                .with_script(Script::on_green_flag(vec![repeat(
                    num(2.0),
                    vec![say(text("A"))],
                )]))
                .with_script(Script::on_green_flag(vec![repeat(
                    num(2.0),
                    vec![say(text("B"))],
                )])),
        );
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["A", "B", "A", "B"]);
    }

    #[test]
    fn key_press_scripts_run() {
        let project = Project::new("t").with_sprite(SpriteDef::new("Dragon").with_script(
            Script::on_key("right arrow", vec![Stmt::TurnRight(num(15.0))]),
        ));
        let mut vm = Vm::new(project);
        vm.key_press("right arrow");
        vm.run_until_idle();
        assert_eq!(vm.world.sprites[1].heading, 105.0);
        vm.key_press("x");
        vm.run_until_idle();
        assert_eq!(vm.world.sprites[1].heading, 105.0);
    }

    #[test]
    fn broadcast_activates_receivers() {
        let project = Project::new("t")
            .with_sprite(SpriteDef::new("A").with_script(Script::on_green_flag(vec![
                broadcast("go"),
                say(text("sent")),
            ])))
            .with_sprite(
                SpriteDef::new("B")
                    .with_script(Script::on_message("go", vec![say(text("got it"))])),
            );
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        let said = vm.world.said();
        assert!(said.contains(&"sent"));
        assert!(said.contains(&"got it"));
    }

    #[test]
    fn broadcast_and_wait_blocks_until_receivers_finish() {
        let project = Project::new("t")
            .with_sprite(SpriteDef::new("A").with_script(Script::on_green_flag(vec![
                broadcast_and_wait("work"),
                say(text("after")),
            ])))
            .with_sprite(SpriteDef::new("B").with_script(Script::on_message(
                "work",
                vec![wait(num(3.0)), say(text("worked"))],
            )));
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["worked", "after"]);
    }

    #[test]
    fn clones_run_start_as_clone_scripts() {
        let project = Project::new("t").with_sprite(
            SpriteDef::new("S")
                .with_script(Script::on_green_flag(vec![clone_myself(), clone_myself()]))
                .with_script(Script::on_clone_start(vec![say(text("cloned"))])),
        );
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["cloned", "cloned"]);
        assert_eq!(vm.world.live_clone_count(), 2);
    }

    #[test]
    fn delete_this_clone_stops_its_scripts() {
        let project = Project::new("t").with_sprite(
            SpriteDef::new("S")
                .with_script(Script::on_green_flag(vec![clone_myself()]))
                .with_script(Script::on_clone_start(vec![
                    Stmt::DeleteThisClone,
                    say(text("unreachable")),
                ])),
        );
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        assert!(vm.world.said().is_empty());
        assert_eq!(vm.world.live_clone_count(), 0);
    }

    #[test]
    fn stop_all_halts_everything() {
        let project = Project::new("t").with_sprite(
            SpriteDef::new("S")
                .with_script(Script::on_green_flag(vec![
                    wait(num(2.0)),
                    Stmt::Stop(StopKind::All),
                ]))
                .with_script(Script::on_green_flag(vec![forever(vec![say(text(
                    "tick",
                ))])])),
        );
        let mut vm = Vm::new(project);
        vm.green_flag();
        let frames = vm.run_until_idle();
        assert!(frames < 100, "stop all must terminate the forever loop");
        assert!(vm.world.said().len() <= 3);
    }

    #[test]
    fn forever_never_idles() {
        let project = Project::new("t").with_sprite(SpriteDef::new("S").with_script(
            Script::on_green_flag(vec![forever(vec![change_var("n", num(1.0))])]),
        ));
        let mut vm = Vm::with_config(
            project,
            VmConfig {
                max_frames: 50,
                ..VmConfig::default()
            },
        );
        vm.green_flag();
        let frames = vm.run_until_idle();
        assert_eq!(frames, 50);
        assert_eq!(vm.process_count(), 1);
    }

    #[test]
    fn errors_kill_only_the_raising_process() {
        let project = Project::new("t").with_sprite(
            SpriteDef::new("S")
                .with_script(Script::on_green_flag(vec![say(var("missing"))]))
                .with_script(Script::on_green_flag(vec![say(text("fine"))])),
        );
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["fine"]);
        assert_eq!(vm.world.errors.len(), 1);
    }

    #[test]
    fn run_ring_is_synchronous_launch_is_not() {
        let vm = run_script(vec![
            Stmt::RunRing(ring_command(vec![say(text("ran"))]), vec![]),
            say(text("after-run")),
            Stmt::LaunchRing(
                ring_command(vec![wait(num(1.0)), say(text("launched"))]),
                vec![],
            ),
            say(text("after-launch")),
        ]);
        assert_eq!(
            vm.world.said(),
            vec!["ran", "after-run", "after-launch", "launched"]
        );
    }

    #[test]
    fn run_fills_a_command_rings_own_empty_slots() {
        let vm = run_script(vec![
            Stmt::RunRing(ring_command(vec![say(empty_slot())]), vec![num(7.0)]),
            // One input fills every slot, in every statement.
            Stmt::RunRing(
                ring_command(vec![
                    say(join(vec![empty_slot(), empty_slot()])),
                    say(empty_slot()),
                ]),
                vec![text("a")],
            ),
            // Otherwise slot i takes input i, across statements; a slot
            // with no input reads nothing.
            Stmt::RunRing(
                ring_command(vec![
                    say(empty_slot()),
                    if_then(boolean(true), vec![say(empty_slot())]),
                    say(join(vec![text("["), empty_slot(), text("]")])),
                ]),
                vec![num(1.0), num(2.0)],
            ),
            // Formal parameters do not change the rule, and a nested
            // ring keeps its own slot.
            Stmt::RunRing(
                ring_command_with(
                    vec!["a"],
                    vec![say(join(vec![
                        var("a"),
                        empty_slot(),
                        call_ring(ring_reporter(add(empty_slot(), num(1.0))), vec![num(4.0)]),
                    ]))],
                ),
                vec![num(3.0)],
            ),
        ]);
        assert_eq!(vm.world.said(), vec!["7", "aa", "a", "1", "2", "[]", "335"]);
    }

    #[test]
    fn launch_fills_a_command_rings_own_empty_slots_with_the_inputs_themselves() {
        let vm = run_script(vec![
            set_var("xs", make_list(vec![num(1.0)])),
            Stmt::LaunchRing(
                ring_command(vec![
                    say(length_of(empty_slot())),
                    Stmt::AddToList {
                        item: num(9.0),
                        list: empty_slot(),
                    },
                ]),
                vec![var("xs")],
            ),
            wait(num(1.0)),
            say(length_of(var("xs"))),
        ]);
        // The launched script read its input list, then grew that very
        // list.
        assert_eq!(vm.world.said(), vec!["1", "2"]);
    }

    #[test]
    fn custom_command_blocks_execute_with_params() {
        let project = Project::new("t")
            .with_global_block(snap_ast::CustomBlock::command(
                "greet",
                vec!["who".into()],
                vec![say(join(vec![text("hi "), var("who")]))],
            ))
            .with_sprite(SpriteDef::new("S").with_script(Script::on_green_flag(vec![
                Stmt::CallCustom("greet".into(), vec![text("world")]),
            ])));
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["hi world"]);
    }

    #[test]
    fn stop_this_block_returns_from_custom_command() {
        let project = Project::new("t")
            .with_global_block(snap_ast::CustomBlock::command(
                "partial",
                vec![],
                vec![
                    say(text("one")),
                    Stmt::Stop(StopKind::ThisBlock),
                    say(text("two")),
                ],
            ))
            .with_sprite(SpriteDef::new("S").with_script(Script::on_green_flag(vec![
                Stmt::CallCustom("partial".into(), vec![]),
                say(text("back")),
            ])));
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["one", "back"]);
    }

    #[test]
    fn wait_until_resumes_on_condition() {
        let project = Project::new("t")
            .with_global("flag", Constant::Number(0.0))
            .with_sprite(
                SpriteDef::new("S")
                    .with_script(Script::on_green_flag(vec![
                        wait_until(eq(var("flag"), num(1.0))),
                        say(text("released")),
                    ]))
                    .with_script(Script::on_green_flag(vec![
                        wait(num(4.0)),
                        set_var("flag", num(1.0)),
                    ])),
            );
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["released"]);
        assert!(vm.world.say_log[0].timestep >= 4);
    }

    // -----------------------------------------------------------------
    // The concession stand (paper §3.3, Figs. 7–10) — experiment E3
    // -----------------------------------------------------------------

    /// Build the concession-stand project. One Pitcher sprite fills the
    /// three cups; filling a glass takes three timesteps (three waits).
    fn concession_project(parallel: bool) -> Project {
        let fill = vec![
            // walk to the cup and pour: 3 timesteps of pouring
            repeat(num(3.0), vec![wait(num(1.0))]),
            say(join(vec![text("filled "), var("cup")])),
        ];
        let body = if parallel {
            parallel_for_each("cup", var("cups"), fill)
        } else {
            parallel_for_each_sequential("cup", var("cups"), fill)
        };
        Project::new("concession")
            .with_global(
                "cups",
                Constant::List(vec!["Cup1".into(), "Cup2".into(), "Cup3".into()]),
            )
            .with_sprite(
                SpriteDef::new("Pitcher").with_script(Script::on_green_flag(vec![
                    Stmt::ResetTimer,
                    body,
                    say(join(vec![text("total "), timer()])),
                ])),
            )
    }

    #[test]
    fn concession_stand_sequential_takes_12_timesteps() {
        let mut vm = Vm::new(concession_project(false));
        vm.green_flag();
        vm.run_until_idle();
        // Per glass: 3 waits + 1 outer loop-bottom yield = 4 timesteps.
        // Fills land at t=3, 7, 11; the script completes at t=12 — the
        // paper's observed 12 (expected 9 + browser overhead).
        let fills: Vec<u64> = vm
            .world
            .say_log
            .iter()
            .filter(|e| e.text.starts_with("filled"))
            .map(|e| e.timestep)
            .collect();
        assert_eq!(fills, vec![3, 7, 11]);
        assert_eq!(*vm.world.said().last().unwrap(), "total 12");
    }

    #[test]
    fn concession_stand_parallel_takes_3_timesteps() {
        let mut vm = Vm::new(concession_project(true));
        vm.green_flag();
        vm.run_until_idle();
        let fills: Vec<u64> = vm
            .world
            .say_log
            .iter()
            .filter(|e| e.text.starts_with("filled"))
            .map(|e| e.timestep)
            .collect();
        // Three clones pour simultaneously: all cups filled at t=3, the
        // paper's parallel result.
        assert_eq!(fills, vec![3, 3, 3]);
        // All three cups served, each exactly once.
        let mut texts: Vec<&str> = vm
            .world
            .said()
            .into_iter()
            .filter(|t| t.starts_with("filled"))
            .collect();
        texts.sort();
        assert_eq!(texts, vec!["filled Cup1", "filled Cup2", "filled Cup3"]);
        // Clones are cleaned up after the join.
        assert_eq!(vm.world.live_clone_count(), 0);
    }

    #[test]
    fn concession_stand_ideal_sequential_is_9_with_warp() {
        // Inside warp, the outer loop bottoms don't yield: the "expected"
        // 9 timesteps of the paper's footnote 5 (3 glasses × 3 waits).
        let fill = vec![repeat(num(3.0), vec![wait(num(1.0))])];
        let project = Project::new("t")
            .with_global(
                "cups",
                Constant::List(vec!["a".into(), "b".into(), "c".into()]),
            )
            .with_sprite(SpriteDef::new("P").with_script(Script::on_green_flag(vec![
                Stmt::ResetTimer,
                warp(vec![for_each("cup", var("cups"), fill)]),
                say(timer()),
            ])));
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["9"]);
    }

    #[test]
    fn parallel_for_each_bounded_parallelism_round_robins() {
        // 6 items, parallelism 2 → each clone serves 3 items; total time
        // = 3 fills × 3 waits (+ absorbed bottoms) = 9-ish, but crucially
        // every item is served exactly once.
        let project = Project::new("t")
            .with_global(
                "items",
                Constant::List(vec![
                    "a".into(),
                    "b".into(),
                    "c".into(),
                    "d".into(),
                    "e".into(),
                    "f".into(),
                ]),
            )
            .with_sprite(SpriteDef::new("W").with_script(Script::on_green_flag(vec![
                parallel_for_each_n("it", var("items"), num(2.0), vec![say(var("it"))]),
                say(text("done")),
            ])));
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        let mut served: Vec<&str> = vm
            .world
            .said()
            .into_iter()
            .filter(|t| *t != "done")
            .collect();
        served.sort();
        assert_eq!(served, vec!["a", "b", "c", "d", "e", "f"]);
        assert_eq!(*vm.world.said().last().unwrap(), "done");
    }

    #[test]
    fn interference_steals_frames() {
        let project = Project::new("t").with_sprite(SpriteDef::new("S").with_script(
            Script::on_green_flag(vec![
                Stmt::ResetTimer,
                repeat(num(3.0), vec![wait(num(1.0))]),
                say(timer()),
            ]),
        ));
        let mut vm = Vm::with_config(
            project,
            VmConfig {
                interference: Some(Interference {
                    period: 2,
                    phase: 1,
                }),
                ..VmConfig::default()
            },
        );
        vm.green_flag();
        vm.run_until_idle();
        // Every other frame stolen → roughly double the time.
        let t: u64 = vm.world.said()[0].parse().unwrap();
        assert!(t >= 5, "interference should slow the script (got {t})");
    }

    #[test]
    fn parallel_map_block_inside_script() {
        let vm = run_script(vec![say(parallel_map_over(
            ring_reporter(mul(empty_slot(), num(10.0))),
            number_list([3.0, 7.0, 8.0]),
        ))]);
        assert_eq!(vm.world.said(), vec!["[30, 70, 80]"]);
    }

    #[test]
    fn eval_expr_entry_point() {
        let project = Project::new("t").with_sprite(SpriteDef::new("S"));
        let mut vm = Vm::new(project);
        let v = vm.eval_expr(Some("S"), &add(num(2.0), num(3.0))).unwrap();
        assert_eq!(v, Value::Number(5.0));
        assert!(vm.eval_expr(Some("Nope"), &num(1.0)).is_err());
    }

    #[test]
    fn say_for_clears_bubble() {
        let project = Project::new("t").with_sprite(SpriteDef::new("S").with_script(
            Script::on_green_flag(vec![Stmt::SayFor(text("hi"), num(2.0)), say(text("done"))]),
        ));
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.step_frame();
        assert_eq!(vm.world.sprites[1].saying.as_deref(), Some("hi"));
        vm.run_until_idle();
        assert_eq!(vm.world.sprites[1].saying.as_deref(), Some("done"));
    }
}
