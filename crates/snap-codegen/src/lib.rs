//! # snap-codegen — the code-mapping feature
//!
//! Snap!'s experimental block→text translation (paper §6): per-language
//! mapping tables of `<#N>` templates ([`CodeMapping`], [`Template`]),
//! a generator that walks scripts and fills the templates ([`Generator`]),
//! a dynamic→static type-inference pass ([`types::TypeEnv`], the paper's
//! §6.3 future work), and whole-program emitters reproducing the paper's
//! listings: the map example in C (Listing 5) and the MapReduce OpenMP
//! program (`kvp.h`, Listings 6–7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod c_program;
pub mod gen;
pub mod harness;
pub mod mapping;
pub mod openmp;
pub mod programs;
pub mod template;
pub mod types;

pub use c_program::{emit_c_program, emit_listing5, emit_listing5_runnable, map_example_script};
pub use gen::{CodegenError, Generator};
pub use harness::{
    detect_toolchain, oracle_map_tiers, CompiledProgram, Harness, HarnessError, Scenario,
    ScenarioKind, Toolchain, MAPREDUCE_REL_TOL,
};
pub use mapping::{CodeMapping, Target};
pub use openmp::{
    emit_map_openmp, emit_mapreduce_openmp, emit_mapreduce_openmp_protocol, OpenMpProgram,
};
pub use programs::{emit_js_program, emit_python_program, emit_smalltalk_chunk};
pub use template::Template;

use snap_ast::Stmt;

/// Human-readable label for a statement (used in error messages).
pub fn stmt_label(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::Say(_) | Stmt::SayFor(_, _) | Stmt::Think(_) => "say",
        Stmt::SetVar(_, _) => "set",
        Stmt::ChangeVar(_, _) => "change",
        Stmt::Broadcast(_) => "broadcast",
        Stmt::BroadcastAndWait(_) => "broadcast and wait",
        Stmt::Wait(_) => "wait",
        Stmt::WaitUntil(_) => "wait until",
        Stmt::CreateCloneOf(_) => "create a clone",
        Stmt::DeleteThisClone => "delete this clone",
        Stmt::RunRing(_, _) => "run",
        Stmt::LaunchRing(_, _) => "launch",
        Stmt::CallCustom(_, _) => "custom block",
        Stmt::Stop(_) => "stop",
        Stmt::Move(_) => "move",
        Stmt::TurnRight(_) | Stmt::TurnLeft(_) => "turn",
        Stmt::GoToXY(_, _) => "go to",
        Stmt::PointInDirection(_) => "point in direction",
        Stmt::Show => "show",
        Stmt::Hide => "hide",
        Stmt::SwitchCostume(_) | Stmt::NextCostume => "costume",
        Stmt::ResetTimer => "reset timer",
        _ => "block",
    }
}
