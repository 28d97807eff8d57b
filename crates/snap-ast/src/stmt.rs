//! Command blocks — the statement layer of the psnap AST.
//!
//! Each variant corresponds to a puzzle-piece command block. Control
//! blocks carry their C-shaped sub-scripts as `Vec<Stmt>`.

use serde::{Deserialize, Serialize};

use crate::expr::Expr;

/// Target of a `stop` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopKind {
    /// `stop all` — halt every process in the project.
    All,
    /// `stop this script` — halt the enclosing script.
    ThisScript,
    /// `stop this block` — return from the current custom block / ring.
    ThisBlock,
}

/// A command block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `say <text>` — show a speech bubble (also the headless VM's
    /// standard output channel).
    Say(Expr),
    /// `say <text> for <n> timesteps`.
    SayFor(Expr, Expr),
    /// `think <text>`.
    Think(Expr),
    /// `set <var> to <value>` — sets the innermost visible binding, or
    /// creates a global when none exists.
    SetVar(String, Expr),
    /// `change <var> by <delta>`.
    ChangeVar(String, Expr),
    /// `script variables <names…>` — declare script-local variables.
    DeclareLocals(Vec<String>),
    /// `add <value> to <list>`.
    AddToList {
        /// The value to append.
        item: Expr,
        /// The target list.
        list: Expr,
    },
    /// `delete <index> of <list>` (1-based).
    DeleteOfList {
        /// 1-based index.
        index: Expr,
        /// The target list.
        list: Expr,
    },
    /// `insert <value> at <index> of <list>` (1-based).
    InsertAtList {
        /// The value to insert.
        item: Expr,
        /// 1-based index.
        index: Expr,
        /// The target list.
        list: Expr,
    },
    /// `replace item <index> of <list> with <value>`.
    ReplaceItemOfList {
        /// 1-based index.
        index: Expr,
        /// The target list.
        list: Expr,
        /// The replacement value.
        item: Expr,
    },
    /// `if <cond> { … }`.
    If(Expr, Vec<Stmt>),
    /// `if <cond> { … } else { … }`.
    IfElse(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `repeat <n> { … }`.
    Repeat(Expr, Vec<Stmt>),
    /// `forever { … }` — runs until stopped (paper Fig. 3).
    Forever(Vec<Stmt>),
    /// `repeat until <cond> { … }`.
    RepeatUntil(Expr, Vec<Stmt>),
    /// `for <var> = <from> to <to> { … }`.
    For {
        /// Loop variable name.
        var: String,
        /// First value (inclusive).
        from: Expr,
        /// Last value (inclusive).
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for each <var> in <list> { … }` — sequential iteration.
    ForEach {
        /// Item variable name.
        var: String,
        /// The input list.
        list: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// **`parallelForEach <var> in <list> (in parallel <n>) { … }`** —
    /// the paper's block (§3.3, Fig. 8). With `parallel: true` the runtime
    /// spawns clones of the running sprite, one per element (bounded by
    /// the optional `parallelism` input, default = list length), each
    /// executing the body concurrently; collapsing the input box
    /// (`parallel: false`) degrades it to a plain `forEach` loop.
    ParallelForEach {
        /// Item variable name.
        var: String,
        /// The input list.
        list: Expr,
        /// Loop body, run once per element.
        body: Vec<Stmt>,
        /// Optional explicit level of parallelism.
        parallelism: Option<Expr>,
        /// `true` = "in parallel" label visible (Fig. 8a), `false` =
        /// sequential mode (Fig. 8b).
        parallel: bool,
    },
    /// `wait <n> timesteps`.
    Wait(Expr),
    /// `wait until <cond>`.
    WaitUntil(Expr),
    /// `broadcast <message>` — fire and forget.
    Broadcast(Expr),
    /// `broadcast <message> and wait` — resumes when every triggered
    /// script has finished.
    BroadcastAndWait(Expr),
    /// `create a clone of <sprite>` (`"myself"` clones the running sprite).
    CreateCloneOf(Expr),
    /// `delete this clone`.
    DeleteThisClone,
    /// `run <ring> with inputs <args…>` — synchronous command-ring call.
    RunRing(Expr, Vec<Expr>),
    /// `launch <ring> with inputs <args…>` — start the ring as a new
    /// concurrent process and continue immediately.
    LaunchRing(Expr, Vec<Expr>),
    /// Call a custom command block.
    CallCustom(String, Vec<Expr>),
    /// `report <value>` — return from a custom reporter / reporter ring.
    Report(Expr),
    /// `stop <kind>`.
    Stop(StopKind),
    /// `warp { … }` — run the body atomically, without yielding.
    Warp(Vec<Stmt>),
    /// `move <n> steps`.
    Move(Expr),
    /// `turn ↻ <degrees>`.
    TurnRight(Expr),
    /// `turn ↺ <degrees>`.
    TurnLeft(Expr),
    /// `go to x: <x> y: <y>`.
    GoToXY(Expr, Expr),
    /// `point in direction <degrees>`.
    PointInDirection(Expr),
    /// `show`.
    Show,
    /// `hide`.
    Hide,
    /// `switch to costume <number>`.
    SwitchCostume(Expr),
    /// `next costume`.
    NextCostume,
    /// `reset timer`.
    ResetTimer,
    /// A comment attached to the script; ignored by the runtime.
    Comment(String),
}

/// The expressions a statement holds, in input order, handed to `$f`,
/// and its nested bodies, handed to `$body`: one match for the shared
/// and the mutable visit, since match ergonomics give each binding the
/// statement's own mutability.
macro_rules! visit_inputs {
    ($stmt:expr, $f:ident, $body:ident) => {
        match $stmt {
            Stmt::Say(e)
            | Stmt::Think(e)
            | Stmt::SetVar(_, e)
            | Stmt::ChangeVar(_, e)
            | Stmt::Wait(e)
            | Stmt::WaitUntil(e)
            | Stmt::Broadcast(e)
            | Stmt::BroadcastAndWait(e)
            | Stmt::CreateCloneOf(e)
            | Stmt::Report(e)
            | Stmt::Move(e)
            | Stmt::TurnRight(e)
            | Stmt::TurnLeft(e)
            | Stmt::PointInDirection(e)
            | Stmt::SwitchCostume(e) => $f(e),
            Stmt::SayFor(a, b) | Stmt::GoToXY(a, b) => {
                $f(a);
                $f(b);
            }
            Stmt::AddToList { item, list } => {
                $f(item);
                $f(list);
            }
            Stmt::DeleteOfList { index, list } => {
                $f(index);
                $f(list);
            }
            Stmt::InsertAtList { item, index, list } => {
                $f(item);
                $f(index);
                $f(list);
            }
            Stmt::ReplaceItemOfList { index, list, item } => {
                $f(index);
                $f(list);
                $f(item);
            }
            Stmt::If(c, b) | Stmt::Repeat(c, b) | Stmt::RepeatUntil(c, b) => {
                $f(c);
                $body(b, $f);
            }
            Stmt::IfElse(c, t, e) => {
                $f(c);
                $body(t, $f);
                $body(e, $f);
            }
            Stmt::Forever(b) | Stmt::Warp(b) => $body(b, $f),
            Stmt::For {
                from, to, body: b, ..
            } => {
                $f(from);
                $f(to);
                $body(b, $f);
            }
            Stmt::ForEach { list, body: b, .. } => {
                $f(list);
                $body(b, $f);
            }
            Stmt::ParallelForEach {
                list,
                body: b,
                parallelism,
                ..
            } => {
                $f(list);
                if let Some(p) = parallelism {
                    $f(p);
                }
                $body(b, $f);
            }
            Stmt::RunRing(r, args) | Stmt::LaunchRing(r, args) => {
                $f(r);
                for a in args {
                    $f(a);
                }
            }
            Stmt::CallCustom(_, args) => {
                for a in args {
                    $f(a);
                }
            }
            Stmt::DeclareLocals(_)
            | Stmt::DeleteThisClone
            | Stmt::Stop(_)
            | Stmt::Show
            | Stmt::Hide
            | Stmt::NextCostume
            | Stmt::ResetTimer
            | Stmt::Comment(_) => {}
        }
    };
}

impl Stmt {
    /// Call `f` on every expression directly contained in this statement
    /// (not recursing into the expressions themselves), and recurse into
    /// nested statement bodies.
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        self.visit_exprs_inner(f, true);
    }

    /// Like [`Stmt::visit_exprs`], but does **not** descend into nested
    /// statement bodies — only this statement's own inputs. Used by
    /// scope-sensitive passes (the linter) that walk bodies themselves.
    pub fn visit_own_exprs(&self, f: &mut impl FnMut(&Expr)) {
        self.visit_exprs_inner(f, false);
    }

    fn visit_exprs_inner(&self, f: &mut impl FnMut(&Expr), recurse: bool) {
        self.visit_exprs_dyn(f, recurse);
    }

    fn visit_exprs_dyn(&self, f: &mut dyn FnMut(&Expr), recurse: bool) {
        let body = |stmts: &[Stmt], f: &mut dyn FnMut(&Expr)| {
            if !recurse {
                return;
            }
            for s in stmts {
                s.visit_exprs_dyn(f, true);
            }
        };
        visit_inputs!(self, f, body);
    }

    /// [`Stmt::visit_exprs`] with each expression handed over mutably.
    fn visit_exprs_mut(&mut self, f: &mut dyn FnMut(&mut Expr)) {
        let body = |stmts: &mut [Stmt], f: &mut dyn FnMut(&mut Expr)| {
            for s in stmts {
                s.visit_exprs_mut(f);
            }
        };
        visit_inputs!(self, f, body);
    }

    /// Rebuild a command ring's body `stmts` with each of its own empty
    /// slots replaced by `f(slot_index)`. Slots are numbered from 0 in
    /// the order the blocks' inputs appear, statement by statement and
    /// into nested bodies; slots inside nested rings belong to those
    /// rings and stay (see [`Expr::map_own_empty_slots`]).
    pub fn map_own_empty_slots(stmts: &[Stmt], f: &mut impl FnMut(usize) -> Expr) -> Vec<Stmt> {
        let mut out = stmts.to_vec();
        let mut next = 0;
        for stmt in &mut out {
            stmt.visit_exprs_mut(&mut |e| {
                let base = next;
                *e = e.map_own_empty_slots(&mut |i| {
                    next = next.max(base + i + 1);
                    f(base + i)
                });
            });
        }
        out
    }

    /// Count command blocks in a script, recursing into nested bodies.
    pub fn block_count(stmts: &[Stmt]) -> usize {
        let mut n = 0;
        for s in stmts {
            n += 1;
            match s {
                Stmt::If(_, b)
                | Stmt::Repeat(_, b)
                | Stmt::RepeatUntil(_, b)
                | Stmt::Forever(b)
                | Stmt::Warp(b)
                | Stmt::For { body: b, .. }
                | Stmt::ForEach { body: b, .. }
                | Stmt::ParallelForEach { body: b, .. } => n += Stmt::block_count(b),
                Stmt::IfElse(_, t, e) => n += Stmt::block_count(t) + Stmt::block_count(e),
                _ => {}
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn block_count_recurses() {
        let script = vec![
            Stmt::Repeat(num(3.0), vec![Stmt::Say(text("hi")), Stmt::Move(num(1.0))]),
            Stmt::ResetTimer,
        ];
        assert_eq!(Stmt::block_count(&script), 4);
    }

    #[test]
    fn visit_exprs_reaches_nested_bodies() {
        let script = Stmt::IfElse(
            boolean(true),
            vec![Stmt::Say(text("a"))],
            vec![Stmt::Say(text("b"))],
        );
        let mut count = 0;
        script.visit_exprs(&mut |_| count += 1);
        assert_eq!(count, 3); // cond + 2 says
    }

    #[test]
    fn serde_roundtrip_of_parallel_for_each() {
        let s = Stmt::ParallelForEach {
            var: "cup".into(),
            list: var("cups"),
            body: vec![Stmt::Say(var("cup"))],
            parallelism: None,
            parallel: true,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: Stmt = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
