//! The thread manager: a cooperative, time-sliced, round-robin scheduler.
//!
//! "Because JavaScript is single-threaded, the illusion of parallelism in
//! Snap! is achieved through multi-tasking … executing all active
//! processes one at a time in an interleaved fashion with only a single
//! thread of control" (paper §2). [`Vm::step_frame`] is one pass of that
//! interleaving: every runnable process executes until it reaches a
//! *yield point* (a `wait`, a loop bottom, an unsatisfied `wait until`/
//! join) or exhausts its statement budget, then the global timestep
//! advances.
//!
//! ## Timing model
//!
//! One frame = one *timestep* (the unit the concession-stand example's
//! timer displays). `wait n` resumes n timesteps later and **absorbs**
//! the enclosing loop's bottom yield (the process is already at a frame
//! boundary); outer loops still pay their bottom yield. `warp` suppresses
//! loop-bottom yields entirely. An optional [`Interference`] model steals
//! whole frames, reproducing the "other tasks that also execute in the
//! browser" the paper blames for the sequential concession stand taking
//! 12 timesteps instead of the expected 9 (paper §3.3, footnote 5).

use std::sync::Arc;

use snap_ast::pure::{slot_input, Env};
use snap_ast::{
    BlockKind, EvalError, Expr, HatBlock, Project, Ring, RingBody, Stmt, StopKind, Value,
};

use crate::error::VmError;
use crate::eval::{round_robin_assign, EvalCtx};
use crate::process::{LoopKind, LoopTask, Pid, Process, ScopeStack, Task};
use crate::world::{SpriteId, World};

/// The bindings of one scope frame.
type ScopeFrame = Vec<(String, Value)>;

/// Deterministic model of "other browser tasks": every frame where
/// `timestep % period == phase` is consumed by the interfering task and
/// no user process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interference {
    /// Steal one frame out of every `period`.
    pub period: u64,
    /// Which residue class is stolen.
    pub phase: u64,
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Maximum statements a process executes per frame before it is
    /// forcibly descheduled (the *time slice*).
    pub slice_ops: u32,
    /// Frame budget for [`Vm::run_until_idle`].
    pub max_frames: u64,
    /// Optional frame-stealing interference model.
    pub interference: Option<Interference>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            slice_ops: 4096,
            max_frames: 1_000_000,
            interference: None,
        }
    }
}

/// Did the statement end the process's time slice?
enum Flow {
    /// Keep executing in this frame.
    Continue,
    /// Yield: the process resumes next frame (or when its sleep ends).
    EndFrame,
}

/// A running project: world + scheduler.
pub struct Vm {
    /// The world the processes act on.
    pub world: World,
    /// Scheduler configuration.
    pub config: VmConfig,
    procs: Vec<Option<Process>>,
    next_pid: Pid,
    timestep: u64,
    stop_requested: bool,
}

impl Vm {
    /// Load a project (no scripts started yet — press the green flag).
    pub fn new(project: Project) -> Vm {
        Vm::with_config(project, VmConfig::default())
    }

    /// Load a project with explicit scheduler configuration.
    pub fn with_config(project: Project, config: VmConfig) -> Vm {
        Vm {
            world: World::new(Arc::new(project)),
            config,
            procs: Vec::new(),
            next_pid: 1,
            timestep: 0,
            stop_requested: false,
        }
    }

    /// Current global timestep.
    pub fn timestep(&self) -> u64 {
        self.timestep
    }

    /// The stage timer, in timesteps since the last `reset timer`.
    pub fn timer(&self) -> u64 {
        self.timestep.saturating_sub(self.world.timer_reset_at)
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.procs.iter().flatten().filter(|p| !p.finished).count()
    }

    // -----------------------------------------------------------------
    // events
    // -----------------------------------------------------------------

    /// Press the green flag: stop everything, then start every
    /// `when green flag clicked` script.
    pub fn green_flag(&mut self) {
        self.procs.clear();
        self.spawn_hats(|hat| matches!(hat, HatBlock::GreenFlag));
    }

    /// Press a key: start every matching `when <key> key pressed` script.
    pub fn key_press(&mut self, key: &str) {
        self.spawn_hats(|hat| matches!(hat, HatBlock::KeyPressed(k) if k == key));
    }

    /// Broadcast a message from outside the VM.
    pub fn broadcast_message(&mut self, message: &str) -> Vec<Pid> {
        self.spawn_message_hats(message)
    }

    /// Start an ad-hoc script on a sprite (by name; `None` = the stage).
    /// This is how embedding code injects programs, standing in for
    /// clicking a script in the editor.
    pub fn spawn_script(&mut self, sprite: Option<&str>, body: Vec<Stmt>) -> Result<Pid, VmError> {
        let sprite_id = match sprite {
            None => 0,
            Some(name) => self
                .world
                .sprite_by_name(name)
                .ok_or_else(|| VmError::UnknownSprite(name.to_owned()))?,
        };
        Ok(self.spawn_process(sprite_id, Arc::new(body), ScopeStack::new()))
    }

    /// Evaluate one expression in the context of a sprite (by name;
    /// `None` = the stage) — the analogue of clicking a reporter block.
    pub fn eval_expr(&mut self, sprite: Option<&str>, expr: &Expr) -> Result<Value, VmError> {
        let sprite_id = match sprite {
            None => 0,
            Some(name) => self
                .world
                .sprite_by_name(name)
                .ok_or_else(|| VmError::UnknownSprite(name.to_owned()))?,
        };
        let mut scopes = ScopeStack::new();
        EvalCtx::new(&mut self.world, sprite_id, &mut scopes, self.timestep).eval(expr)
    }

    fn spawn_hats(&mut self, matches: impl Fn(&HatBlock) -> bool) -> Vec<Pid> {
        let matches = &matches;
        let mut pids = Vec::new();
        // Stage scripts.
        let stage_bodies: Vec<Arc<Vec<Stmt>>> = self
            .world
            .project
            .stage_scripts
            .iter()
            .filter(|s| matches(&s.hat))
            .map(|s| Arc::new(s.body.clone()))
            .collect();
        for body in stage_bodies {
            pids.push(self.spawn_process(0, body, ScopeStack::new()));
        }
        // Sprite scripts — every live instance (clones respond to events
        // too, as in Snap!).
        let targets: Vec<(SpriteId, Arc<Vec<Stmt>>)> = self
            .world
            .sprites
            .iter()
            .filter(|s| s.alive && !s.is_stage)
            .flat_map(|s| {
                let def = s.def.clone();
                let id = s.id;
                def.into_iter().flat_map(move |def| {
                    def.scripts
                        .iter()
                        .filter(|sc| matches(&sc.hat))
                        .map(|sc| (id, Arc::new(sc.body.clone())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (sprite, body) in targets {
            pids.push(self.spawn_process(sprite, body, ScopeStack::new()));
        }
        pids
    }

    fn spawn_message_hats(&mut self, message: &str) -> Vec<Pid> {
        self.spawn_hats(
            |hat| matches!(hat, HatBlock::MessageReceived(m) if m.eq_ignore_ascii_case(message)),
        )
    }

    fn spawn_clone_start_hats(&mut self, clone: SpriteId) -> Vec<Pid> {
        let bodies: Vec<Arc<Vec<Stmt>>> = self.world.sprites[clone]
            .def
            .iter()
            .flat_map(|def| {
                def.scripts
                    .iter()
                    .filter(|s| matches!(s.hat, HatBlock::StartAsClone))
                    .map(|s| Arc::new(s.body.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        bodies
            .into_iter()
            .map(|body| self.spawn_process(clone, body, ScopeStack::new()))
            .collect()
    }

    fn spawn_process(&mut self, sprite: SpriteId, body: Arc<Vec<Stmt>>, scopes: ScopeStack) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        snap_trace::well_known::VM_PROCESSES_SPAWNED.incr();
        self.procs
            .push(Some(Process::with_scopes(pid, sprite, body, scopes)));
        pid
    }

    // -----------------------------------------------------------------
    // scheduling
    // -----------------------------------------------------------------

    /// Is this frame stolen by the interference model?
    fn frame_stolen(&self) -> bool {
        match self.config.interference {
            Some(i) if i.period > 0 => self.timestep % i.period == i.phase,
            _ => false,
        }
    }

    /// Run one frame: every runnable process gets a time slice, then the
    /// timestep advances. Returns `true` while any process remains.
    pub fn step_frame(&mut self) -> bool {
        snap_trace::well_known::VM_FRAMES.incr();
        // Frame duration feeds the windowed `vm.frame_ns` histogram, so a
        // live /metrics scrape shows frame-time percentiles even when span
        // recording is off.
        let frame_started = std::time::Instant::now();
        // One span per frame makes timestep-granular runs (the
        // concession stand's 12-vs-3) readable on a trace timeline.
        let _span = snap_trace::span!("vm.frame", "timestep" => self.timestep);
        let stolen = self.frame_stolen();
        if stolen {
            snap_trace::well_known::VM_FRAMES_STOLEN.incr();
        }
        if !stolen {
            let mut i = 0;
            while i < self.procs.len() {
                let Some(mut p) = self.procs[i].take() else {
                    i += 1;
                    continue;
                };
                if p.sleep_until > self.timestep {
                    self.procs[i] = Some(p);
                    i += 1;
                    continue;
                }
                self.run_slice(&mut p);
                if !p.finished {
                    self.procs[i] = Some(p);
                }
                if self.stop_requested {
                    break;
                }
                i += 1;
            }
            if self.stop_requested {
                self.procs.clear();
                self.stop_requested = false;
            }
            self.procs.retain(Option::is_some);
        }
        self.timestep += 1;
        snap_trace::well_known::VM_LIVE_PROCESSES.set(self.procs.len() as i64);
        snap_trace::well_known::VM_FRAME_NS.record(frame_started.elapsed().as_nanos() as u64);
        !self.procs.is_empty()
    }

    /// Run frames until every process finishes or the frame budget is
    /// exhausted. Returns the number of frames executed.
    pub fn run_until_idle(&mut self) -> u64 {
        let procs = self.process_count();
        let _span = snap_trace::span!("vm.run_until_idle", procs);
        let mut frames = 0;
        while frames < self.config.max_frames {
            frames += 1;
            if !self.step_frame() {
                break;
            }
        }
        frames
    }

    /// Run exactly `n` frames (for projects with `forever` scripts).
    pub fn run_frames(&mut self, n: u64) {
        for _ in 0..n {
            self.step_frame();
        }
    }

    /// Is this process id still alive?
    fn pid_alive(&self, pid: Pid) -> bool {
        self.procs
            .iter()
            .flatten()
            .any(|p| p.pid == pid && !p.finished)
    }

    /// Kill every process belonging to a sprite (deleted clone).
    fn kill_sprite_procs(&mut self, sprite: SpriteId) {
        for slot in &mut self.procs {
            if slot.as_ref().is_some_and(|p| p.sprite == sprite) {
                *slot = None;
            }
        }
    }

    /// Execute one time slice of a process.
    fn run_slice(&mut self, p: &mut Process) {
        let mut ops = self.config.slice_ops;
        loop {
            if ops == 0 {
                return; // slice exhausted: forcible deschedule
            }
            // Inspect (and update) the top task, extracting what the
            // action needs so the borrow ends before we act.
            enum Top {
                Done,
                RunStmt(Arc<Vec<Stmt>>, usize),
                LoopBottomYield,
                LoopNext,
                CheckWaitUntil(Expr),
                CheckJoin(Vec<Pid>, Vec<SpriteId>),
                PopBoundary,
                PopWarp,
                PopClearSay,
            }
            let top = match p.tasks.last_mut() {
                None => Top::Done,
                Some(Task::Seq { stmts, idx }) => {
                    if *idx >= stmts.len() {
                        p.tasks.pop();
                        continue;
                    }
                    let i = *idx;
                    *idx += 1;
                    Top::RunStmt(stmts.clone(), i)
                }
                Some(Task::Loop(lt)) => {
                    if lt.iter_active {
                        lt.iter_active = false;
                        if !lt.yielded_in_iter && p.warp_depth == 0 {
                            Top::LoopBottomYield
                        } else {
                            Top::LoopNext
                        }
                    } else {
                        Top::LoopNext
                    }
                }
                Some(Task::WaitUntil { cond }) => Top::CheckWaitUntil(cond.clone()),
                Some(Task::Join {
                    pids,
                    cleanup_clones,
                }) => Top::CheckJoin(pids.clone(), cleanup_clones.clone()),
                Some(Task::CallBoundary) => Top::PopBoundary,
                Some(Task::ExitWarp) => Top::PopWarp,
                Some(Task::ClearSay) => Top::PopClearSay,
            };

            match top {
                Top::Done => {
                    p.finished = true;
                    return;
                }
                Top::RunStmt(stmts, i) => {
                    ops -= 1;
                    match self.exec_stmt(p, &stmts[i]) {
                        Ok(Flow::Continue) => {}
                        Ok(Flow::EndFrame) => return,
                        Err(e) => {
                            let name = self.world.sprites[p.sprite].name.clone();
                            self.world.errors.push((name, e));
                            p.stop_script();
                            return;
                        }
                    }
                }
                Top::LoopBottomYield => return, // iter_active already cleared
                Top::LoopNext => {
                    ops -= 1;
                    match self.loop_next(p) {
                        Ok(()) => {}
                        Err(e) => {
                            let name = self.world.sprites[p.sprite].name.clone();
                            self.world.errors.push((name, e));
                            p.stop_script();
                            return;
                        }
                    }
                }
                Top::CheckWaitUntil(cond) => {
                    let satisfied = self.eval_in(p, &cond).map(|v| v.to_bool());
                    match satisfied {
                        Ok(true) => {
                            p.tasks.pop();
                        }
                        Ok(false) => {
                            p.mark_innermost_loop_yielded();
                            return;
                        }
                        Err(e) => {
                            let name = self.world.sprites[p.sprite].name.clone();
                            self.world.errors.push((name, e));
                            p.stop_script();
                            return;
                        }
                    }
                }
                Top::CheckJoin(pids, cleanup) => {
                    if pids.iter().any(|&pid| self.pid_alive(pid)) {
                        p.mark_innermost_loop_yielded();
                        return;
                    }
                    for clone in cleanup {
                        self.world.delete_clone(clone);
                        self.kill_sprite_procs(clone);
                    }
                    p.tasks.pop();
                }
                Top::PopBoundary => {
                    p.tasks.pop();
                    p.scopes.pop();
                }
                Top::PopWarp => {
                    p.tasks.pop();
                    p.warp_depth = p.warp_depth.saturating_sub(1);
                }
                Top::PopClearSay => {
                    self.world.sprites[p.sprite].saying = None;
                    p.tasks.pop();
                }
            }
        }
    }

    /// Start the next loop iteration (or finish the loop).
    fn loop_next(&mut self, p: &mut Process) -> Result<(), VmError> {
        enum Decision {
            Push(Arc<Vec<Stmt>>),
            PushBind(Arc<Vec<Stmt>>, String, Value),
            NeedCond(Expr, Arc<Vec<Stmt>>),
            Pop,
        }
        let decision = {
            let Some(Task::Loop(lt)) = p.tasks.last_mut() else {
                unreachable!("loop_next called without a loop on top");
            };
            lt.yielded_in_iter = false;
            match &mut lt.kind {
                LoopKind::Repeat { remaining } => {
                    if *remaining > 0 {
                        *remaining -= 1;
                        Decision::Push(lt.body.clone())
                    } else {
                        Decision::Pop
                    }
                }
                LoopKind::Forever => Decision::Push(lt.body.clone()),
                LoopKind::Until { cond } => Decision::NeedCond(cond.clone(), lt.body.clone()),
                LoopKind::For {
                    var,
                    next,
                    end,
                    step,
                } => {
                    let more = if *step > 0.0 {
                        *next <= *end
                    } else {
                        *next >= *end
                    };
                    if more {
                        let v = *next;
                        *next += *step;
                        Decision::PushBind(lt.body.clone(), var.clone(), Value::Number(v))
                    } else {
                        Decision::Pop
                    }
                }
                LoopKind::ForEach { var, items } => match items.pop_front() {
                    Some(item) => Decision::PushBind(lt.body.clone(), var.clone(), item),
                    None => Decision::Pop,
                },
            }
        };
        match decision {
            Decision::Push(body) => self.begin_iteration(p, body),
            Decision::PushBind(body, var, value) => {
                p.scopes.declare(&var, value);
                self.begin_iteration(p, body);
            }
            Decision::NeedCond(cond, body) => {
                if self.eval_in(p, &cond)?.to_bool() {
                    p.tasks.pop();
                    p.scopes.pop();
                } else {
                    self.begin_iteration(p, body);
                }
            }
            Decision::Pop => {
                p.tasks.pop();
                p.scopes.pop();
            }
        }
        Ok(())
    }

    fn begin_iteration(&mut self, p: &mut Process, body: Arc<Vec<Stmt>>) {
        if let Some(Task::Loop(lt)) = p.tasks.last_mut() {
            lt.iter_active = true;
        }
        p.tasks.push(Task::Seq {
            stmts: body,
            idx: 0,
        });
    }

    /// Evaluate an expression in a process's context.
    fn eval_in(&mut self, p: &mut Process, expr: &Expr) -> Result<Value, VmError> {
        EvalCtx::new(&mut self.world, p.sprite, &mut p.scopes, self.timestep).eval(expr)
    }

    /// Push a loop task (owning one fresh scope frame).
    fn push_loop(&mut self, p: &mut Process, kind: LoopKind, body: &[Stmt]) {
        p.scopes.push(Vec::new());
        p.tasks.push(Task::Loop(LoopTask {
            kind,
            body: Arc::new(body.to_vec()),
            iter_active: false,
            yielded_in_iter: false,
        }));
    }

    /// Execute one statement. Returns whether the slice continues.
    fn exec_stmt(&mut self, p: &mut Process, stmt: &Stmt) -> Result<Flow, VmError> {
        match stmt {
            Stmt::Say(e) | Stmt::Think(e) => {
                let text = self.eval_in(p, e)?.to_display_string();
                self.world.say(self.timestep, p.sprite, text);
                Ok(Flow::Continue)
            }
            Stmt::SayFor(e, duration) => {
                let text = self.eval_in(p, e)?.to_display_string();
                self.world.say(self.timestep, p.sprite, text);
                let n = self.eval_in(p, duration)?.to_number().max(0.0) as u64;
                p.tasks.push(Task::ClearSay);
                p.sleep_until = self.timestep + n.max(1);
                p.mark_innermost_loop_yielded();
                Ok(Flow::EndFrame)
            }
            Stmt::SetVar(name, e) => {
                let v = self.eval_in(p, e)?;
                EvalCtx::new(&mut self.world, p.sprite, &mut p.scopes, self.timestep)
                    .assign(name, v);
                Ok(Flow::Continue)
            }
            Stmt::ChangeVar(name, e) => {
                let delta = self.eval_in(p, e)?.to_number();
                let mut ctx = EvalCtx::new(&mut self.world, p.sprite, &mut p.scopes, self.timestep);
                let current = ctx.lookup(name).map(|v| v.to_number()).unwrap_or(0.0);
                ctx.assign(name, Value::Number(current + delta));
                Ok(Flow::Continue)
            }
            Stmt::DeclareLocals(names) => {
                for name in names {
                    p.scopes.declare(name, Value::Nothing);
                }
                Ok(Flow::Continue)
            }
            Stmt::AddToList { item, list } => {
                let v = self.eval_in(p, item)?;
                self.eval_list_in(p, list)?.add(v);
                Ok(Flow::Continue)
            }
            Stmt::DeleteOfList { index, list } => {
                let i = self.eval_in(p, index)?.to_number() as usize;
                self.eval_list_in(p, list)?.delete(i);
                Ok(Flow::Continue)
            }
            Stmt::InsertAtList { item, index, list } => {
                let v = self.eval_in(p, item)?;
                let i = self.eval_in(p, index)?.to_number() as usize;
                self.eval_list_in(p, list)?.insert(i, v);
                Ok(Flow::Continue)
            }
            Stmt::ReplaceItemOfList { index, list, item } => {
                let i = self.eval_in(p, index)?.to_number() as usize;
                let v = self.eval_in(p, item)?;
                self.eval_list_in(p, list)?.set_item(i, v);
                Ok(Flow::Continue)
            }
            Stmt::If(cond, then) => {
                if self.eval_in(p, cond)?.to_bool() {
                    p.tasks.push(Task::Seq {
                        stmts: Arc::new(then.clone()),
                        idx: 0,
                    });
                }
                Ok(Flow::Continue)
            }
            Stmt::IfElse(cond, then, otherwise) => {
                let branch = if self.eval_in(p, cond)?.to_bool() {
                    then
                } else {
                    otherwise
                };
                p.tasks.push(Task::Seq {
                    stmts: Arc::new(branch.clone()),
                    idx: 0,
                });
                Ok(Flow::Continue)
            }
            Stmt::Repeat(times, body) => {
                let n = self.eval_in(p, times)?.to_number().max(0.0) as u64;
                self.push_loop(p, LoopKind::Repeat { remaining: n }, body);
                Ok(Flow::Continue)
            }
            Stmt::Forever(body) => {
                self.push_loop(p, LoopKind::Forever, body);
                Ok(Flow::Continue)
            }
            Stmt::RepeatUntil(cond, body) => {
                self.push_loop(p, LoopKind::Until { cond: cond.clone() }, body);
                Ok(Flow::Continue)
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let from = self.eval_in(p, from)?.to_number();
                let to = self.eval_in(p, to)?.to_number();
                let step = if from <= to { 1.0 } else { -1.0 };
                self.push_loop(
                    p,
                    LoopKind::For {
                        var: var.clone(),
                        next: from,
                        end: to,
                        step,
                    },
                    body,
                );
                Ok(Flow::Continue)
            }
            Stmt::ForEach { var, list, body } => {
                let items = self.eval_list_in(p, list)?.to_vec();
                self.push_loop(
                    p,
                    LoopKind::ForEach {
                        var: var.clone(),
                        items: items.into(),
                    },
                    body,
                );
                Ok(Flow::Continue)
            }
            Stmt::ParallelForEach {
                var,
                list,
                body,
                parallelism,
                parallel,
            } => {
                if !parallel {
                    // Sequential mode: a plain forEach (paper Fig. 8b).
                    let items = self.eval_list_in(p, list)?.to_vec();
                    self.push_loop(
                        p,
                        LoopKind::ForEach {
                            var: var.clone(),
                            items: items.into(),
                        },
                        body,
                    );
                    return Ok(Flow::Continue);
                }
                self.exec_parallel_for_each(p, var, list, body, parallelism.as_ref())
            }
            Stmt::Wait(e) => {
                let n = self.eval_in(p, e)?.to_number().max(0.0) as u64;
                p.sleep_until = self.timestep + n;
                p.mark_innermost_loop_yielded();
                Ok(Flow::EndFrame)
            }
            Stmt::WaitUntil(cond) => {
                p.tasks.push(Task::WaitUntil { cond: cond.clone() });
                Ok(Flow::Continue)
            }
            Stmt::Broadcast(e) => {
                let message = self.eval_in(p, e)?.to_display_string();
                self.spawn_message_hats(&message);
                Ok(Flow::Continue)
            }
            Stmt::BroadcastAndWait(e) => {
                let message = self.eval_in(p, e)?.to_display_string();
                let pids = self.spawn_message_hats(&message);
                p.tasks.push(Task::Join {
                    pids,
                    cleanup_clones: Vec::new(),
                });
                Ok(Flow::Continue)
            }
            Stmt::CreateCloneOf(e) => {
                let target = self.eval_in(p, e)?;
                let source = self.world.resolve_clone_target(p.sprite, &target)?;
                let clone = self.world.clone_sprite(source)?;
                self.spawn_clone_start_hats(clone);
                Ok(Flow::Continue)
            }
            Stmt::DeleteThisClone => {
                if self.world.sprites[p.sprite].is_clone {
                    self.world.delete_clone(p.sprite);
                    self.kill_sprite_procs(p.sprite);
                    p.stop_script();
                    return Ok(Flow::EndFrame);
                }
                Ok(Flow::Continue)
            }
            Stmt::RunRing(ring_expr, args) => {
                let (ring, values) = self.eval_ring_call(p, ring_expr, args)?;
                match &ring.body {
                    RingBody::Command(body) => {
                        let (frame, stmts) = Self::enter_command_ring(&ring, body, &values)?;
                        p.scopes.push(frame);
                        p.tasks.push(Task::CallBoundary);
                        p.tasks.push(Task::Seq { stmts, idx: 0 });
                        Ok(Flow::Continue)
                    }
                    _ => {
                        // Running a reporter ring evaluates and discards.
                        let mut ctx =
                            EvalCtx::new(&mut self.world, p.sprite, &mut p.scopes, self.timestep);
                        ctx.apply(&ring, &values)?;
                        Ok(Flow::Continue)
                    }
                }
            }
            Stmt::LaunchRing(ring_expr, args) => {
                let (ring, values) = self.eval_ring_call(p, ring_expr, args)?;
                match &ring.body {
                    RingBody::Command(body) => {
                        let (frame, stmts) = Self::enter_command_ring(&ring, body, &values)?;
                        let mut scopes = ScopeStack::new();
                        scopes.push(frame);
                        let pid = self.next_pid;
                        self.next_pid += 1;
                        self.procs
                            .push(Some(Process::with_scopes(pid, p.sprite, stmts, scopes)));
                        Ok(Flow::Continue)
                    }
                    _ => Err(EvalError::TypeMismatch {
                        expected: "command ring",
                        got: "reporter ring".into(),
                    }
                    .into()),
                }
            }
            Stmt::CallCustom(name, args) => {
                let block = self
                    .world
                    .find_custom_block(p.sprite, name)
                    .ok_or_else(|| EvalError::UnknownCustomBlock(name.clone()))?;
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(self.eval_in(p, arg)?);
                }
                match block.kind {
                    BlockKind::Command => {
                        if block.params.len() != values.len() {
                            return Err(EvalError::ArityMismatch {
                                expected: block.params.len(),
                                got: values.len(),
                            }
                            .into());
                        }
                        let frame: Vec<(String, Value)> =
                            block.params.iter().cloned().zip(values).collect();
                        p.scopes.push(frame);
                        p.tasks.push(Task::CallBoundary);
                        p.tasks.push(Task::Seq {
                            stmts: Arc::new(block.body.clone()),
                            idx: 0,
                        });
                        Ok(Flow::Continue)
                    }
                    _ => {
                        let mut ctx =
                            EvalCtx::new(&mut self.world, p.sprite, &mut p.scopes, self.timestep);
                        ctx.call_custom_reporter(name, values)?;
                        Ok(Flow::Continue)
                    }
                }
            }
            Stmt::Report(e) => {
                self.eval_in(p, e)?; // evaluated for effect; value unused in command context
                if !p.unwind_to_call_boundary() {
                    p.stop_script();
                    return Ok(Flow::EndFrame);
                }
                Ok(Flow::Continue)
            }
            Stmt::Stop(StopKind::All) => {
                self.stop_requested = true;
                p.stop_script();
                Ok(Flow::EndFrame)
            }
            Stmt::Stop(StopKind::ThisScript) => {
                p.stop_script();
                Ok(Flow::EndFrame)
            }
            Stmt::Stop(StopKind::ThisBlock) => {
                if !p.unwind_to_call_boundary() {
                    p.stop_script();
                    return Ok(Flow::EndFrame);
                }
                Ok(Flow::Continue)
            }
            Stmt::Warp(body) => {
                p.warp_depth += 1;
                p.tasks.push(Task::ExitWarp);
                p.tasks.push(Task::Seq {
                    stmts: Arc::new(body.clone()),
                    idx: 0,
                });
                Ok(Flow::Continue)
            }
            Stmt::Move(e) => {
                let steps = self.eval_in(p, e)?.to_number();
                self.require_sprite(p)?;
                self.world.sprites[p.sprite].move_steps(steps);
                Ok(Flow::Continue)
            }
            Stmt::TurnRight(e) => {
                let deg = self.eval_in(p, e)?.to_number();
                self.require_sprite(p)?;
                self.world.sprites[p.sprite].heading += deg;
                Ok(Flow::Continue)
            }
            Stmt::TurnLeft(e) => {
                let deg = self.eval_in(p, e)?.to_number();
                self.require_sprite(p)?;
                self.world.sprites[p.sprite].heading -= deg;
                Ok(Flow::Continue)
            }
            Stmt::GoToXY(x, y) => {
                let x = self.eval_in(p, x)?.to_number();
                let y = self.eval_in(p, y)?.to_number();
                self.require_sprite(p)?;
                let s = &mut self.world.sprites[p.sprite];
                s.x = x;
                s.y = y;
                Ok(Flow::Continue)
            }
            Stmt::PointInDirection(e) => {
                let deg = self.eval_in(p, e)?.to_number();
                self.require_sprite(p)?;
                self.world.sprites[p.sprite].heading = deg;
                Ok(Flow::Continue)
            }
            Stmt::Show => {
                self.world.sprites[p.sprite].visible = true;
                Ok(Flow::Continue)
            }
            Stmt::Hide => {
                self.world.sprites[p.sprite].visible = false;
                Ok(Flow::Continue)
            }
            Stmt::SwitchCostume(e) => {
                let n = self.eval_in(p, e)?.to_number().max(0.0) as usize;
                let s = &mut self.world.sprites[p.sprite];
                if !s.costumes.is_empty() {
                    s.costume = n.clamp(1, s.costumes.len());
                }
                Ok(Flow::Continue)
            }
            Stmt::NextCostume => {
                let s = &mut self.world.sprites[p.sprite];
                if !s.costumes.is_empty() {
                    s.costume = s.costume % s.costumes.len() + 1;
                }
                Ok(Flow::Continue)
            }
            Stmt::ResetTimer => {
                self.world.timer_reset_at = self.timestep;
                Ok(Flow::Continue)
            }
            Stmt::Comment(_) => Ok(Flow::Continue),
        }
    }

    fn require_sprite(&self, p: &Process) -> Result<(), VmError> {
        if self.world.sprites[p.sprite].is_stage {
            Err(VmError::StageCannot("move"))
        } else {
            Ok(())
        }
    }

    fn eval_list_in(&mut self, p: &mut Process, expr: &Expr) -> Result<snap_ast::List, VmError> {
        EvalCtx::new(&mut self.world, p.sprite, &mut p.scopes, self.timestep).eval_list(expr)
    }

    fn eval_ring_call(
        &mut self,
        p: &mut Process,
        ring_expr: &Expr,
        args: &[Expr],
    ) -> Result<(Arc<Ring>, Vec<Value>), VmError> {
        let ring = EvalCtx::new(&mut self.world, p.sprite, &mut p.scopes, self.timestep)
            .eval_ring(ring_expr)?;
        let mut values = Vec::with_capacity(args.len());
        for arg in args {
            values.push(self.eval_in(p, arg)?);
        }
        Ok((ring, values))
    }

    /// The scope frame and the body for entering the command ring `ring`,
    /// whose body is `body`, with `args`: the captured environment plus
    /// the bound parameters, and the body with each own empty slot
    /// reading its input by [`slot_input`]'s rule, as a reporter ring's
    /// slots do (one input fills every slot; otherwise slot `i` takes
    /// input `i`). Slot `i` reads the variable `#i+1` the frame binds,
    /// the name Snap! gives it.
    fn enter_command_ring(
        ring: &Ring,
        body: &[Stmt],
        args: &[Value],
    ) -> Result<(ScopeFrame, Arc<Vec<Stmt>>), VmError> {
        let mut frame = ring.captured.clone();
        if !ring.params.is_empty() {
            if ring.params.len() != args.len() {
                return Err(EvalError::ArityMismatch {
                    expected: ring.params.len(),
                    got: args.len(),
                }
                .into());
            }
            for (name, value) in ring.params.iter().zip(args) {
                frame.push((name.clone(), value.clone()));
            }
        }
        let body = Stmt::map_own_empty_slots(body, &mut |i| {
            let name = format!("#{}", i + 1);
            frame.push((name.clone(), slot_input(args, i)));
            Expr::Var(name)
        });
        Ok((frame, Arc::new(body)))
    }

    /// The parallel `parallelForEach`: spawn clones of the acting sprite
    /// (one per unit of parallelism, default = list length), give each a
    /// round-robin share of the items, and join (paper §3.3).
    fn exec_parallel_for_each(
        &mut self,
        p: &mut Process,
        var: &str,
        list: &Expr,
        body: &[Stmt],
        parallelism: Option<&Expr>,
    ) -> Result<Flow, VmError> {
        let items = self.eval_list_in(p, list)?.to_vec();
        if items.is_empty() {
            return Ok(Flow::Continue);
        }
        let k = match parallelism {
            Some(e) => {
                let n = self.eval_in(p, e)?.to_number();
                if n >= 1.0 {
                    (n as usize).min(items.len())
                } else {
                    items.len()
                }
            }
            None => items.len(),
        };
        let body = Arc::new(body.to_vec());
        let on_stage = self.world.sprites[p.sprite].is_stage;
        let mut pids = Vec::with_capacity(k);
        let mut clones = Vec::new();
        for chunk in round_robin_assign(items, k) {
            // Each unit of parallelism is a fresh clone of the acting
            // sprite (the paper's Pitcher clones); on the stage, plain
            // processes are used since the stage cannot be cloned.
            let sprite = if on_stage {
                p.sprite
            } else {
                let clone = self.world.clone_sprite(p.sprite)?;
                self.spawn_clone_start_hats(clone);
                clones.push(clone);
                clone
            };
            let mut scopes = p.scopes.clone();
            scopes.push(Vec::new()); // the child's loop scope
            let pid = self.next_pid;
            self.next_pid += 1;
            let mut child = Process::with_scopes(pid, sprite, Arc::new(Vec::new()), scopes);
            child.tasks = vec![Task::Loop(LoopTask {
                kind: LoopKind::ForEach {
                    var: var.to_owned(),
                    items: chunk,
                },
                body: body.clone(),
                iter_active: false,
                yielded_in_iter: false,
            })];
            self.procs.push(Some(child));
            pids.push(pid);
        }
        p.tasks.push(Task::Join {
            pids,
            cleanup_clones: clones,
        });
        Ok(Flow::Continue)
    }
}
