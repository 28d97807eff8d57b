//! # snap-core — parallel programming with pictures, in Rust
//!
//! The public facade of **psnap**, a from-scratch Rust reproduction of
//! *"Parallel Programming with Pictures is a Snap!"* (Feng, Gardner &
//! Feng): a Snap!-style block language with first-class lists and rings,
//! a cooperative sprite runtime, the paper's truly parallel
//! `parallelMap` / `parallelForEach` / `mapReduce` blocks on an
//! OS-thread Web-Worker substrate, and the block→C/OpenMP code-mapping
//! pipeline.
//!
//! ```
//! use snap_core::prelude::*;
//!
//! // Figure 5: parallelMap (( ) × 10) over [3, 7, 8]
//! let project = Project::new("quickstart").with_sprite(
//!     SpriteDef::new("Sprite").with_script(Script::on_green_flag(vec![
//!         say(parallel_map_over(
//!             ring_reporter(mul(empty_slot(), num(10.0))),
//!             number_list([3.0, 7.0, 8.0]),
//!         )),
//!     ])),
//! );
//! let mut session = Session::load(project);
//! session.run();
//! assert_eq!(session.said(), vec!["[30, 70, 80]"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use snap_ast as ast;
pub use snap_build as build;
pub use snap_codegen as codegen;
pub use snap_data as data;
pub use snap_parallel as parallel;
pub use snap_trace as trace;
pub use snap_vm as vm;
pub use snap_workers as workers;

use snap_ast::{Expr, Project, Stmt, Value};
use snap_vm::{Pid, Vm, VmConfig, VmError};

/// Everything a typical program needs, one import away.
pub mod prelude {
    pub use snap_ast::builder::*;
    pub use snap_ast::{
        BlockKind, Constant, CustomBlock, Expr, HatBlock, List, Project, Ring, Script, SpriteDef,
        Stmt, StopKind, Value,
    };
    pub use snap_vm::{Interference, Vm, VmConfig};
    pub use snap_workers::Parallel;

    pub use crate::Session;
}

/// A loaded project with the true-parallel backend installed — the
/// equivalent of opening the paper's extended Snap! in a browser with
/// Web Workers available.
pub struct Session {
    /// The underlying VM (public for advanced control).
    pub vm: Vm,
}

impl Session {
    /// Load a project with default scheduler settings.
    pub fn load(project: Project) -> Session {
        Session::load_with_config(project, VmConfig::default())
    }

    /// Load with explicit scheduler configuration.
    pub fn load_with_config(project: Project, config: VmConfig) -> Session {
        let mut vm = Vm::with_config(project, config);
        snap_parallel::install(&mut vm);
        Session { vm }
    }

    /// Load from a JSON project file.
    pub fn load_json(json: &str) -> Result<Session, serde_json::Error> {
        Ok(Session::load(Project::from_json(json)?))
    }

    /// Load from an XML project file (the format real Snap! uses).
    pub fn load_xml(xml: &str) -> Result<Session, snap_ast::project_xml::ProjectXmlError> {
        Ok(Session::load(Project::from_xml(xml)?))
    }

    /// Press the green flag and run until every script finishes.
    /// Returns the number of frames executed.
    pub fn run(&mut self) -> u64 {
        self.vm.green_flag();
        self.vm.run_until_idle()
    }

    /// Press the green flag and run at most `frames` frames (for
    /// projects with `forever` scripts).
    pub fn run_frames(&mut self, frames: u64) {
        self.vm.green_flag();
        self.vm.run_frames(frames);
    }

    /// Everything sprites have said, in order.
    pub fn said(&self) -> Vec<&str> {
        self.vm.world.said()
    }

    /// The stage timer (timesteps since last reset).
    pub fn timer(&self) -> u64 {
        self.vm.timer()
    }

    /// Evaluate a reporter in a sprite's context (`None` = stage) — the
    /// analogue of clicking a block in the editor.
    pub fn eval(&mut self, sprite: Option<&str>, expr: &Expr) -> Result<Value, VmError> {
        self.vm.eval_expr(sprite, expr)
    }

    /// Start an ad-hoc script on a sprite.
    pub fn spawn(&mut self, sprite: Option<&str>, body: Vec<Stmt>) -> Result<Pid, VmError> {
        self.vm.spawn_script(sprite, body)
    }

    /// Errors raised by scripts so far.
    pub fn errors(&self) -> &[(String, VmError)] {
        &self.vm.world.errors
    }

    /// Show a stage watcher for a variable (like checking the variable's
    /// checkbox in Snap!'s palette).
    pub fn watch(&mut self, name: impl Into<String>) {
        self.vm.world.watch(name);
    }

    /// Render the stage as text: timer, watchers, say bubbles, sprites.
    pub fn stage(&self) -> String {
        snap_vm::render_stage(
            &self.vm.world,
            self.vm.timestep(),
            &snap_vm::StageView::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn session_installs_parallel_backend() {
        let session = Session::load(Project::new("t"));
        assert_eq!(session.vm.world.backend.name(), "worker-pool");
    }

    #[test]
    fn session_roundtrips_project_json() {
        let project = Project::new("t").with_sprite(
            SpriteDef::new("S").with_script(Script::on_green_flag(vec![say(text("hello"))])),
        );
        let json = project.to_json();
        let mut session = Session::load_json(&json).unwrap();
        session.run();
        assert_eq!(session.said(), vec!["hello"]);
    }

    #[test]
    fn session_stage_rendering_shows_watchers() {
        let mut session = Session::load(
            Project::new("t")
                .with_global("score", Constant::Number(3.0))
                .with_sprite(SpriteDef::new("Cat")),
        );
        session.watch("score");
        session.run();
        let stage = session.stage();
        assert!(stage.contains("score = 3"));
        assert!(stage.contains('C'));
    }

    #[test]
    fn session_loads_xml_projects() {
        let project = Project::new("x").with_sprite(
            SpriteDef::new("S").with_script(Script::on_green_flag(vec![say(text("from xml"))])),
        );
        let mut session = Session::load_xml(&project.to_xml()).unwrap();
        session.run();
        assert_eq!(session.said(), vec!["from xml"]);
    }

    #[test]
    fn eval_uses_true_parallel_backend() {
        let mut session = Session::load(Project::new("t").with_sprite(SpriteDef::new("S")));
        let v = session
            .eval(
                Some("S"),
                &parallel_map_over(
                    ring_reporter(mul(empty_slot(), num(10.0))),
                    number_list([3.0, 7.0, 8.0]),
                ),
            )
            .unwrap();
        assert_eq!(v, Value::number_list([30.0, 70.0, 80.0]));
    }
}
