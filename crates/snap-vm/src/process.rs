//! Processes — Snap!'s unit of concurrency.
//!
//! "When events occur …, all scripts that wait for that event are added
//! to the process queue by Snap!'s thread manager. Each process executes
//! for a short amount of time called a *time slice* before yielding to
//! the next process" (paper §2). A [`Process`] is one activated script:
//! an explicit stack of [`Task`]s (the analogue of Snap!'s `Context`
//! chain) plus its variable scopes.

use std::collections::VecDeque;
use std::sync::Arc;

use snap_ast::{Expr, Stmt, Value};

use crate::world::SpriteId;

/// Process identifier, unique for the lifetime of a VM.
pub type Pid = u64;

/// A stack of variable scope frames. Lookup walks innermost-first; the
/// sprite's variables and the globals sit *below* the stack (the VM
/// consults them when the stack misses).
#[derive(Debug, Clone, Default)]
pub struct ScopeStack {
    frames: Vec<Vec<(String, Value)>>,
}

impl ScopeStack {
    /// A stack with one empty base frame.
    pub fn new() -> ScopeStack {
        ScopeStack {
            frames: vec![Vec::new()],
        }
    }

    /// Push a new (possibly pre-populated) frame.
    pub fn push(&mut self, bindings: Vec<(String, Value)>) {
        self.frames.push(bindings);
    }

    /// Pop the innermost frame.
    pub fn pop(&mut self) {
        self.frames.pop();
    }

    /// Number of frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Declare a variable in the innermost frame (shadowing outer ones).
    pub fn declare(&mut self, name: &str, value: Value) {
        if let Some(frame) = self.frames.last_mut() {
            if let Some(slot) = frame.iter_mut().find(|(n, _)| n == name) {
                slot.1 = value;
            } else {
                frame.push((name.to_owned(), value));
            }
        }
    }

    /// Look up a variable, innermost frame first.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.frames
            .iter()
            .rev()
            .find_map(|frame| frame.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v))
    }

    /// Assign to an existing binding. Returns `false` when no frame binds
    /// `name` (the VM then tries sprite variables and globals).
    pub fn set(&mut self, name: &str, value: Value) -> bool {
        for frame in self.frames.iter_mut().rev() {
            if let Some(slot) = frame.iter_mut().rev().find(|(n, _)| n == name) {
                slot.1 = value;
                return true;
            }
        }
        false
    }

    /// Flatten every binding (outermost first, so inner shadows outer on
    /// reverse lookup) — used to capture a ring's environment.
    pub fn flatten(&self) -> Vec<(String, Value)> {
        self.frames.iter().flatten().cloned().collect()
    }
}

/// What kind of loop a [`Task::Loop`] drives.
#[derive(Debug, Clone)]
pub enum LoopKind {
    /// `repeat <n>`.
    Repeat {
        /// Iterations left.
        remaining: u64,
    },
    /// `forever`.
    Forever,
    /// `repeat until <cond>`.
    Until {
        /// Loop exit condition, re-evaluated before each iteration.
        cond: Expr,
    },
    /// `for <var> = <from> to <to>`.
    For {
        /// Loop variable name.
        var: String,
        /// Next value to bind.
        next: f64,
        /// Inclusive end.
        end: f64,
        /// +1 or −1.
        step: f64,
    },
    /// `for each <var> in <list>` (also `parallelForEach` in sequential
    /// mode, and each clone's share of a parallel one).
    ForEach {
        /// Item variable name.
        var: String,
        /// Snapshot of the items to visit.
        items: VecDeque<Value>,
    },
}

/// The state of one in-flight loop.
#[derive(Debug, Clone)]
pub struct LoopTask {
    /// Loop flavour + progress.
    pub kind: LoopKind,
    /// Shared loop body.
    pub body: Arc<Vec<Stmt>>,
    /// `true` while an iteration's body is on the stack above us.
    pub iter_active: bool,
    /// Set when the current iteration executed a wait — the loop-bottom
    /// yield is then *absorbed* (the process is already at a frame
    /// boundary). See `DESIGN.md` on concession-stand timing.
    pub yielded_in_iter: bool,
}

/// One entry of a process's continuation stack.
#[derive(Debug, Clone)]
pub enum Task {
    /// Execute `stmts[idx..]` in order.
    Seq {
        /// Shared statement list.
        stmts: Arc<Vec<Stmt>>,
        /// Next statement to run.
        idx: usize,
    },
    /// A loop controller (owns one scope frame, pushed at entry).
    Loop(LoopTask),
    /// `wait until <cond>` — re-evaluated once per frame.
    WaitUntil {
        /// The condition.
        cond: Expr,
    },
    /// Block until every listed process has finished, then delete the
    /// listed clones (used by `broadcast and wait` and the parallel
    /// `parallelForEach`).
    Join {
        /// Processes to wait for.
        pids: Vec<Pid>,
        /// Clones to delete once they finish.
        cleanup_clones: Vec<SpriteId>,
    },
    /// Marks a custom-command / command-ring call boundary: `stop this
    /// block` and `report` unwind to here. Owns one scope frame.
    CallBoundary,
    /// Leaving a `warp` block: decrement the warp depth.
    ExitWarp,
    /// Clear the sprite's say bubble (end of `say … for …`).
    ClearSay,
}

/// One activated script.
#[derive(Debug)]
pub struct Process {
    /// Unique id.
    pub pid: Pid,
    /// The sprite (or stage) this script belongs to.
    pub sprite: SpriteId,
    /// Continuation stack; the top is the current task.
    pub tasks: Vec<Task>,
    /// Variable scopes.
    pub scopes: ScopeStack,
    /// The process sleeps until this timestep (a `wait` in progress).
    pub sleep_until: u64,
    /// Nesting depth of `warp` blocks (loop bottoms don't yield inside).
    pub warp_depth: u32,
    /// Set when the script has run to completion or was stopped.
    pub finished: bool,
}

impl Process {
    /// A process about to run `body` on `sprite`.
    pub fn new(pid: Pid, sprite: SpriteId, body: Arc<Vec<Stmt>>) -> Process {
        Process {
            pid,
            sprite,
            tasks: vec![Task::Seq {
                stmts: body,
                idx: 0,
            }],
            scopes: ScopeStack::new(),
            sleep_until: 0,
            warp_depth: 0,
            finished: false,
        }
    }

    /// A process with pre-seeded scope frames (ring launches, clone
    /// children inherit the parent's visible variables).
    pub fn with_scopes(
        pid: Pid,
        sprite: SpriteId,
        body: Arc<Vec<Stmt>>,
        scopes: ScopeStack,
    ) -> Process {
        Process {
            pid,
            sprite,
            tasks: vec![Task::Seq {
                stmts: body,
                idx: 0,
            }],
            scopes,
            sleep_until: 0,
            warp_depth: 0,
            finished: false,
        }
    }

    /// Mark the innermost loop's current iteration as having yielded
    /// (called when a `wait` executes), so its bottom yield is absorbed.
    pub fn mark_innermost_loop_yielded(&mut self) {
        for task in self.tasks.iter_mut().rev() {
            if let Task::Loop(lt) = task {
                lt.yielded_in_iter = true;
                return;
            }
        }
    }

    /// Unwind to (and including) the nearest [`Task::CallBoundary`],
    /// popping scopes owned by unwound tasks. Returns `false` if no
    /// boundary exists (the caller then stops the script).
    pub fn unwind_to_call_boundary(&mut self) -> bool {
        while let Some(task) = self.tasks.pop() {
            match task {
                Task::CallBoundary => {
                    self.scopes.pop();
                    return true;
                }
                Task::Loop(_) => self.scopes.pop(),
                Task::ExitWarp => self.warp_depth = self.warp_depth.saturating_sub(1),
                _ => {}
            }
        }
        false
    }

    /// Stop the whole script.
    pub fn stop_script(&mut self) {
        self.tasks.clear();
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_lookup_is_innermost_first() {
        let mut s = ScopeStack::new();
        s.declare("x", Value::Number(1.0));
        s.push(vec![("x".into(), Value::Number(2.0))]);
        assert_eq!(s.get("x"), Some(&Value::Number(2.0)));
        s.pop();
        assert_eq!(s.get("x"), Some(&Value::Number(1.0)));
    }

    #[test]
    fn set_updates_innermost_binding_only() {
        let mut s = ScopeStack::new();
        s.declare("x", Value::Number(1.0));
        s.push(vec![("x".into(), Value::Number(2.0))]);
        assert!(s.set("x", Value::Number(3.0)));
        assert_eq!(s.get("x"), Some(&Value::Number(3.0)));
        s.pop();
        assert_eq!(s.get("x"), Some(&Value::Number(1.0)));
        assert!(!s.set("y", Value::Number(0.0)));
    }

    #[test]
    fn declare_overwrites_in_same_frame() {
        let mut s = ScopeStack::new();
        s.declare("x", Value::Number(1.0));
        s.declare("x", Value::Number(2.0));
        assert_eq!(s.get("x"), Some(&Value::Number(2.0)));
        assert_eq!(s.flatten().len(), 1);
    }

    #[test]
    fn flatten_puts_outer_bindings_first_so_captures_see_the_innermost() {
        let mut s = ScopeStack::new();
        s.declare("x", Value::Number(1.0));
        s.declare("y", Value::Number(5.0));
        s.push(vec![("x".into(), Value::Number(2.0))]);
        let flat = s.flatten();
        let names: Vec<&str> = flat.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["x", "y", "x"]);
        let ring = snap_ast::Ring::reporter(snap_ast::Expr::EmptySlot).with_captured(flat);
        assert_eq!(ring.captured_var("x"), Some(&Value::Number(2.0)));
        assert_eq!(ring.captured_var("y"), Some(&Value::Number(5.0)));
    }

    #[test]
    fn unwind_stops_at_boundary_and_pops_scopes() {
        let mut p = Process::new(1, 0, Arc::new(vec![]));
        p.scopes.push(vec![]); // owned by CallBoundary
        p.tasks.push(Task::CallBoundary);
        p.scopes.push(vec![]); // owned by Loop
        p.tasks.push(Task::Loop(LoopTask {
            kind: LoopKind::Forever,
            body: Arc::new(vec![]),
            iter_active: false,
            yielded_in_iter: false,
        }));
        let base_depth = 1; // ScopeStack::new starts with one frame
        assert!(p.unwind_to_call_boundary());
        assert_eq!(p.scopes.depth(), base_depth);
        // Seq base task remains.
        assert_eq!(p.tasks.len(), 1);
    }

    #[test]
    fn unwind_without_boundary_reports_false() {
        let mut p = Process::new(1, 0, Arc::new(vec![]));
        assert!(!p.unwind_to_call_boundary());
        assert!(p.tasks.is_empty());
    }

    #[test]
    fn mark_innermost_loop_only() {
        let mut p = Process::new(1, 0, Arc::new(vec![]));
        let lt = || {
            Task::Loop(LoopTask {
                kind: LoopKind::Forever,
                body: Arc::new(vec![]),
                iter_active: true,
                yielded_in_iter: false,
            })
        };
        p.tasks.push(lt());
        p.tasks.push(lt());
        p.mark_innermost_loop_yielded();
        let flags: Vec<bool> = p
            .tasks
            .iter()
            .filter_map(|t| match t {
                Task::Loop(l) => Some(l.yielded_in_iter),
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec![false, true]);
    }
}
