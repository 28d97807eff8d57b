//! The VM's environment for the tree walk — reporter blocks with world
//! access.
//!
//! Expressions evaluate on the one tree walk in `snap-ast`
//! ([`snap_ast::pure::eval`]), the walk worker threads run too. What
//! differs in the VM is the environment [`EvalCtx`] supplies: variables in
//! every scope, rings that capture them, the RNG for `pick random`, sprite
//! attributes and the timer, custom reporter blocks, and the parallel
//! backend for `parallelMap` and `mapReduce`. Expressions evaluate
//! synchronously and never yield — Snap!'s scheduler switches processes
//! between *statements*, and so does ours.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::RngExt;

use snap_ast::pure::{self, slot_input, Env, MAX_DEPTH};
use snap_ast::{
    bytecode, compile_cached, Attr, BlockKind, EvalError, Expr, List, Ring, RingBody, Stmt, Value,
};

use crate::error::VmError;
use crate::process::ScopeStack;
use crate::world::{SpriteId, World};

/// Statement budget for synchronous (reporter-body) execution.
const SYNC_OP_BUDGET: u64 = 50_000_000;

/// Everything an expression can see while evaluating.
pub struct EvalCtx<'a> {
    /// The world (mutable: `pick random` advances the RNG, reporters may
    /// `say`).
    pub world: &'a mut World,
    /// The sprite whose script is evaluating.
    pub sprite: SpriteId,
    /// The running process's scope stack.
    pub scopes: &'a mut ScopeStack,
    /// Current scheduler timestep (for the `timer` reporter).
    pub timestep: u64,
    /// Recursion depth.
    pub depth: u32,
    /// Remaining synchronous statement budget.
    pub ops_left: u64,
    /// Inputs of the ring application being evaluated, which its own
    /// empty slots take; none outside a ring.
    slots: Vec<Value>,
    /// Index of the next own empty slot.
    next_slot: usize,
}

impl<'a> EvalCtx<'a> {
    /// Build a context with fresh depth/budget counters.
    pub fn new(
        world: &'a mut World,
        sprite: SpriteId,
        scopes: &'a mut ScopeStack,
        timestep: u64,
    ) -> EvalCtx<'a> {
        EvalCtx {
            world,
            sprite,
            scopes,
            timestep,
            depth: 0,
            ops_left: SYNC_OP_BUDGET,
            slots: Vec::new(),
            next_slot: 0,
        }
    }

    /// Assign a variable: innermost scope binding, else sprite variable,
    /// else existing global, else *create* a global (a deliberate,
    /// forgiving deviation from Snap!, which raises an error — it keeps
    /// programmatic project construction pleasant).
    pub fn assign(&mut self, name: &str, value: Value) {
        if self.scopes.set(name, value.clone()) {
            return;
        }
        if let Some(slot) = self.world.sprites[self.sprite].vars.get_mut(name) {
            *slot = value;
            return;
        }
        self.world.globals.insert(name.to_owned(), value);
    }

    /// Evaluate a reporter block.
    pub fn eval(&mut self, expr: &Expr) -> Result<Value, VmError> {
        pure::eval(self, expr)
    }

    /// Evaluate an expression that must report a list.
    pub fn eval_list(&mut self, expr: &Expr) -> Result<List, VmError> {
        pure::eval_list(self, expr)
    }

    /// Evaluate an expression that must report a ring.
    pub fn eval_ring(&mut self, expr: &Expr) -> Result<Arc<Ring>, VmError> {
        pure::eval_ring(self, expr)
    }

    /// Run `body` one call deeper, with `frame` pushed on the scopes and
    /// `slots` as the inputs of own empty slots; both are restored after.
    fn enter<T>(
        &mut self,
        frame: Vec<(String, Value)>,
        slots: Vec<Value>,
        body: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.scopes.push(frame);
        let outer_slots = std::mem::replace(&mut self.slots, slots);
        let outer_next = std::mem::replace(&mut self.next_slot, 0);
        self.depth += 1;
        let result = body(self);
        self.depth -= 1;
        self.slots = outer_slots;
        self.next_slot = outer_next;
        self.scopes.pop();
        result
    }

    /// Call a custom reporter/predicate block synchronously.
    pub fn call_custom_reporter(&mut self, name: &str, args: Vec<Value>) -> Result<Value, VmError> {
        if self.depth >= MAX_DEPTH {
            return Err(EvalError::TooMuchRecursion.into());
        }
        let block = self
            .world
            .find_custom_block(self.sprite, name)
            .ok_or_else(|| EvalError::UnknownCustomBlock(name.to_owned()))?;
        if block.kind == BlockKind::Command {
            return Err(EvalError::NotAReporter.into());
        }
        if block.params.len() != args.len() {
            return Err(EvalError::ArityMismatch {
                expected: block.params.len(),
                got: args.len(),
            }
            .into());
        }
        let frame: Vec<(String, Value)> = block.params.iter().cloned().zip(args).collect();
        // The body sees its inputs, its own script variables, sprite
        // variables and globals, and not the caller's script variables,
        // as in Snap!; `apply` sets them aside for rings the same way.
        let caller = std::mem::take(&mut *self.scopes);
        let result = self.enter(frame, Vec::new(), |ctx| ctx.run_sync(&block.body));
        *self.scopes = caller;
        match result? {
            Some(value) => Ok(value),
            None => Err(VmError::NoReport(name.to_owned())),
        }
    }

    /// Synchronously execute a reporter body: the statement subset that
    /// makes sense without the scheduler. `wait` is treated as zero
    /// (reporters evaluate within one time slice); blocks that *require*
    /// the scheduler (broadcast, clone) are errors.
    ///
    /// Returns `Some(value)` when a `report` ran.
    pub fn run_sync(&mut self, stmts: &[Stmt]) -> Result<Option<Value>, VmError> {
        for stmt in stmts {
            if self.ops_left == 0 {
                return Err(VmError::Eval(EvalError::Other(
                    "reporter ran too long".into(),
                )));
            }
            self.ops_left -= 1;
            match stmt {
                Stmt::Report(e) => return Ok(Some(self.eval(e)?)),
                Stmt::Say(e) | Stmt::Think(e) => {
                    let text = self.eval(e)?.to_display_string();
                    self.world.say(self.timestep, self.sprite, text);
                }
                Stmt::SayFor(e, _) => {
                    let text = self.eval(e)?.to_display_string();
                    self.world.say(self.timestep, self.sprite, text);
                }
                Stmt::SetVar(name, e) => {
                    let v = self.eval(e)?;
                    self.assign(name, v);
                }
                Stmt::ChangeVar(name, e) => {
                    let delta = self.eval(e)?.to_number();
                    let current = self.lookup(name).map(|v| v.to_number()).unwrap_or(0.0);
                    self.assign(name, Value::Number(current + delta));
                }
                Stmt::DeclareLocals(names) => {
                    for name in names {
                        self.scopes.declare(name, Value::Nothing);
                    }
                }
                Stmt::AddToList { item, list } => {
                    let v = self.eval(item)?;
                    self.eval_list(list)?.add(v);
                }
                Stmt::DeleteOfList { index, list } => {
                    let i = self.eval(index)?.to_number() as usize;
                    self.eval_list(list)?.delete(i);
                }
                Stmt::InsertAtList { item, index, list } => {
                    let v = self.eval(item)?;
                    let i = self.eval(index)?.to_number() as usize;
                    self.eval_list(list)?.insert(i, v);
                }
                Stmt::ReplaceItemOfList { index, list, item } => {
                    let i = self.eval(index)?.to_number() as usize;
                    let v = self.eval(item)?;
                    self.eval_list(list)?.set_item(i, v);
                }
                Stmt::If(cond, then) => {
                    if self.eval(cond)?.to_bool() {
                        if let Some(v) = self.run_sync(then)? {
                            return Ok(Some(v));
                        }
                    }
                }
                Stmt::IfElse(cond, then, otherwise) => {
                    let branch = if self.eval(cond)?.to_bool() {
                        then
                    } else {
                        otherwise
                    };
                    if let Some(v) = self.run_sync(branch)? {
                        return Ok(Some(v));
                    }
                }
                Stmt::Repeat(times, body) => {
                    let n = self.eval(times)?.to_number().max(0.0) as u64;
                    for _ in 0..n {
                        if let Some(v) = self.run_sync(body)? {
                            return Ok(Some(v));
                        }
                    }
                }
                Stmt::RepeatUntil(cond, body) => loop {
                    if self.eval(cond)?.to_bool() {
                        break;
                    }
                    if self.ops_left == 0 {
                        return Err(VmError::Eval(EvalError::Other(
                            "reporter ran too long".into(),
                        )));
                    }
                    self.ops_left -= 1;
                    if let Some(v) = self.run_sync(body)? {
                        return Ok(Some(v));
                    }
                },
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    let from = self.eval(from)?.to_number();
                    let to = self.eval(to)?.to_number();
                    let step = if from <= to { 1.0 } else { -1.0 };
                    let mut x = from;
                    self.scopes.push(vec![(var.clone(), Value::Number(x))]);
                    loop {
                        let more = if step > 0.0 { x <= to } else { x >= to };
                        if !more {
                            break;
                        }
                        self.scopes.set(var, Value::Number(x));
                        match self.run_sync(body) {
                            Ok(Some(v)) => {
                                self.scopes.pop();
                                return Ok(Some(v));
                            }
                            Ok(None) => {}
                            Err(e) => {
                                self.scopes.pop();
                                return Err(e);
                            }
                        }
                        x += step;
                    }
                    self.scopes.pop();
                }
                Stmt::ForEach { var, list, body } => {
                    let items = self.eval_list(list)?.to_vec();
                    self.scopes.push(vec![(var.clone(), Value::Nothing)]);
                    for item in items {
                        self.scopes.set(var, item);
                        match self.run_sync(body) {
                            Ok(Some(v)) => {
                                self.scopes.pop();
                                return Ok(Some(v));
                            }
                            Ok(None) => {}
                            Err(e) => {
                                self.scopes.pop();
                                return Err(e);
                            }
                        }
                    }
                    self.scopes.pop();
                }
                Stmt::Warp(body) => {
                    if let Some(v) = self.run_sync(body)? {
                        return Ok(Some(v));
                    }
                }
                Stmt::Wait(_) | Stmt::WaitUntil(_) => {
                    // Reporters run within one time slice: waits are
                    // no-ops here (documented deviation).
                }
                Stmt::Stop(_) => return Ok(None),
                Stmt::Comment(_) => {}
                other => {
                    return Err(VmError::Eval(EvalError::NotPure(stmt_name(other))));
                }
            }
        }
        Ok(None)
    }
}

impl Env for EvalCtx<'_> {
    type Error = VmError;
    type Prepared = Arc<Ring>;

    /// Look up a variable: process scopes, then sprite variables, then
    /// globals.
    fn lookup(&self, name: &str) -> Result<Value, VmError> {
        if let Some(v) = self.scopes.get(name) {
            return Ok(v.clone());
        }
        if let Some(v) = self.world.sprites[self.sprite].vars.get(name) {
            return Ok(v.clone());
        }
        if let Some(v) = self.world.globals.get(name) {
            return Ok(v.clone());
        }
        Err(EvalError::UnboundVariable(name.to_owned()).into())
    }

    fn slot(&mut self) -> Value {
        let input = slot_input(&self.slots, self.next_slot);
        self.next_slot += 1;
        input
    }

    /// Capture the environment visible here: globals, then sprite
    /// variables, then the process scopes (innermost last, so they shadow
    /// on lookup). This is the VM's analogue of "ringification".
    fn capture(&self) -> Vec<(String, Value)> {
        let mut captured: Vec<(String, Value)> = Vec::new();
        for (name, value) in &self.world.globals {
            captured.push((name.clone(), value.clone()));
        }
        for (name, value) in &self.world.sprites[self.sprite].vars {
            captured.push((name.clone(), value.clone()));
        }
        captured.extend(self.scopes.flatten());
        captured
    }

    /// A reporter ring applies as it is, in this environment (it may use
    /// impure blocks like `pick random`). Command rings are rejected —
    /// they run via `run`/`launch` statements.
    fn prepare(&mut self, ring: Arc<Ring>) -> Result<Arc<Ring>, VmError> {
        match ring.body {
            RingBody::Command(_) => Err(EvalError::NotAReporter.into()),
            _ => Ok(ring),
        }
    }

    fn apply(&mut self, ring: &Arc<Ring>, args: &[Value]) -> Result<Value, VmError> {
        if self.depth >= MAX_DEPTH {
            return Err(EvalError::TooMuchRecursion.into());
        }
        let body = match &ring.body {
            RingBody::Reporter(e) | RingBody::Predicate(e) => e,
            RingBody::Command(_) => return Err(EvalError::NotAReporter.into()),
        };
        if !ring.params.is_empty() && ring.params.len() != args.len() {
            return Err(EvalError::ArityMismatch {
                expected: ring.params.len(),
                got: args.len(),
            }
            .into());
        }
        let mut frame = ring.captured.clone();
        frame.extend(ring.params.iter().cloned().zip(args.iter().cloned()));
        // The body sees what the ring captured, as on a worker, and not
        // the scopes of whatever applies it.
        let caller = std::mem::take(&mut *self.scopes);
        let result = self.enter(frame, args.to_vec(), |ctx| ctx.eval(body));
        *self.scopes = caller;
        result
    }

    fn pick_random(&mut self, a: f64, b: f64) -> Result<Value, VmError> {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let v = if lo.fract() == 0.0 && hi.fract() == 0.0 {
            self.world.rng.random_range(lo as i64..=hi as i64) as f64
        } else {
            self.world.rng.random_range(lo..=hi)
        };
        Ok(Value::Number(v))
    }

    fn attribute(&self, attr: Attr) -> Result<Value, VmError> {
        let sprite = &self.world.sprites[self.sprite];
        Ok(match attr {
            Attr::Timer => {
                Value::Number(self.timestep.saturating_sub(self.world.timer_reset_at) as f64)
            }
            Attr::XPosition => Value::Number(sprite.x),
            Attr::YPosition => Value::Number(sprite.y),
            Attr::Direction => Value::Number(sprite.heading),
            Attr::CostumeNumber => Value::Number(sprite.costume as f64),
            Attr::SpriteName => Value::Text(sprite.name.clone()),
            Attr::IsClone => Value::Bool(sprite.is_clone),
        })
    }

    fn call_custom(&mut self, name: &str, args: Vec<Value>) -> Result<Value, VmError> {
        self.call_custom_reporter(name, args)
    }

    /// A ring that lowers applies here as its numeric program, so the
    /// fold runs that program; the lowering is the ring's tree walk, bit
    /// for bit.
    fn fold_numbers(&mut self, ring: &Arc<Ring>, numbers: &[f64]) -> Option<f64> {
        // At the depth limit `apply` raises; leave that to it.
        if self.depth >= MAX_DEPTH {
            return None;
        }
        let program = bytecode::lower(ring)?;
        snap_trace::well_known::RING_BYTECODE_COMPILES.incr();
        program.fold(numbers)
    }

    /// A ring a worker can run goes to the parallel backend — the paper's
    /// Web Worker path — on `workers` workers, else the world default
    /// (`hardwareConcurrency || 4` in the paper). Any other ring runs as
    /// `map` in this thread, as browser Snap! degrades when the ring
    /// can't be shipped to a worker. The purity test compiles through the
    /// cache, so the backend's own compile of the ring hits it.
    ///
    /// The backend reads `list` in place, under its read lock, while this
    /// thread waits for the call: the rings it runs passed the purity
    /// test, so none can write a list. The in-thread `map` walks a
    /// snapshot instead, since its ring may call a custom block that
    /// changes the list.
    fn parallel_map(
        &mut self,
        ring: Arc<Ring>,
        list: &List,
        workers: Option<f64>,
    ) -> Result<Value, VmError> {
        let workers = match workers {
            Some(n) if n >= 1.0 => n as usize,
            _ => self.world.default_workers,
        };
        if compile_cached(&ring).is_ok() {
            Ok(self.world.backend.parallel_map_list(ring, list, workers)?)
        } else {
            let f = self.prepare(ring)?;
            Ok(Value::list(pure::map_with(self, &f, list.to_vec())?))
        }
    }

    /// Rings a worker can run go to the parallel backend, which reads
    /// `list` in place (see [`EvalCtx::parallel_map`]); otherwise the
    /// sequential `mapReduce` runs in this thread over a snapshot.
    fn map_reduce(
        &mut self,
        mapper: Arc<Ring>,
        reducer: Arc<Ring>,
        list: &List,
    ) -> Result<Value, VmError> {
        if compile_cached(&mapper).is_ok() && compile_cached(&reducer).is_ok() {
            let workers = self.world.default_workers;
            Ok(self
                .world
                .backend
                .map_reduce_list(mapper, reducer, list, workers)?)
        } else {
            let mapper = self.prepare(mapper)?;
            let reducer = self.prepare(reducer)?;
            let pairs = pure::map_reduce_with(self, &mapper, &reducer, list.to_vec())?;
            Ok(Value::list(pairs))
        }
    }
}

/// Human-readable block name for error messages.
pub fn stmt_name(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::Broadcast(_) => "broadcast",
        Stmt::BroadcastAndWait(_) => "broadcast and wait",
        Stmt::CreateCloneOf(_) => "create a clone",
        Stmt::DeleteThisClone => "delete this clone",
        Stmt::ParallelForEach { .. } => "parallelForEach",
        Stmt::RunRing(_, _) => "run",
        Stmt::LaunchRing(_, _) => "launch",
        Stmt::CallCustom(_, _) => "custom block call",
        Stmt::Move(_) => "move",
        Stmt::TurnRight(_) => "turn right",
        Stmt::TurnLeft(_) => "turn left",
        Stmt::GoToXY(_, _) => "go to",
        Stmt::PointInDirection(_) => "point in direction",
        Stmt::Show => "show",
        Stmt::Hide => "hide",
        Stmt::SwitchCostume(_) => "switch costume",
        Stmt::NextCostume => "next costume",
        Stmt::ResetTimer => "reset timer",
        _ => "statement",
    }
}

/// Build the per-child item assignments for a parallel `parallelForEach`:
/// `k` clones round-robin over the items ("if fewer workers are created
/// than there are list elements, the workers systematically process the
/// remaining elements", paper §4.2).
pub fn round_robin_assign(items: Vec<Value>, k: usize) -> Vec<VecDeque<Value>> {
    let k = k.max(1);
    let mut out: Vec<VecDeque<Value>> = (0..k).map(|_| VecDeque::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        out[i % k].push_back(item);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vm;
    use snap_ast::builder::*;
    use snap_ast::{Constant, CustomBlock, Project, Script, SpriteDef};

    fn ctx_fixture() -> (World, ScopeStack) {
        let project = Project::new("t")
            .with_global("g", Constant::Number(7.0))
            .with_global_block(CustomBlock::reporter_expr(
                "double",
                vec!["n".into()],
                add(var("n"), var("n")),
            ))
            .with_sprite(SpriteDef::new("Cat").with_variable("lives", Constant::Number(9.0)));
        (World::new(Arc::new(project)), ScopeStack::new())
    }

    fn eval_on_cat(world: &mut World, scopes: &mut ScopeStack, e: &Expr) -> Value {
        EvalCtx::new(world, 1, scopes, 0).eval(e).unwrap()
    }

    #[test]
    fn variable_lookup_order() {
        let (mut world, mut scopes) = ctx_fixture();
        assert_eq!(
            eval_on_cat(&mut world, &mut scopes, &var("g")),
            Value::Number(7.0)
        );
        assert_eq!(
            eval_on_cat(&mut world, &mut scopes, &var("lives")),
            Value::Number(9.0)
        );
        scopes.declare("lives", Value::Number(1.0));
        assert_eq!(
            eval_on_cat(&mut world, &mut scopes, &var("lives")),
            Value::Number(1.0)
        );
    }

    #[test]
    fn map_block_matches_paper_fig4() {
        let (mut world, mut scopes) = ctx_fixture();
        let e = map_over(
            ring_reporter(mul(empty_slot(), num(10.0))),
            number_list([3.0, 7.0, 8.0]),
        );
        assert_eq!(
            eval_on_cat(&mut world, &mut scopes, &e),
            Value::number_list([30.0, 70.0, 80.0])
        );
    }

    #[test]
    fn parallel_map_with_sequential_backend_matches_map() {
        let (mut world, mut scopes) = ctx_fixture();
        let e = parallel_map_with_workers(
            ring_reporter(mul(empty_slot(), num(10.0))),
            number_list([3.0, 7.0, 8.0]),
            num(2.0),
        );
        assert_eq!(
            eval_on_cat(&mut world, &mut scopes, &e),
            Value::number_list([30.0, 70.0, 80.0])
        );
    }

    #[test]
    fn rings_capture_globals_and_locals() {
        let (mut world, mut scopes) = ctx_fixture();
        scopes.declare("offset", Value::Number(100.0));
        // call (ring: () + offset + g) with 1
        let e = call_ring(
            ring_reporter(add(empty_slot(), add(var("offset"), var("g")))),
            vec![num(1.0)],
        );
        assert_eq!(
            eval_on_cat(&mut world, &mut scopes, &e),
            Value::Number(108.0)
        );
    }

    #[test]
    fn custom_reporter_is_callable() {
        let (mut world, mut scopes) = ctx_fixture();
        let e = call_custom("double", vec![num(21.0)]);
        assert_eq!(
            eval_on_cat(&mut world, &mut scopes, &e),
            Value::Number(42.0)
        );
    }

    #[test]
    fn custom_reporter_cannot_see_its_callers_script_variables() {
        // `peek` reports `x`; its caller has a script variable `x`. Snap!
        // reports that `x` does not exist.
        let project = Project::new("t")
            .with_global_block(CustomBlock::reporter_expr("peek", vec![], var("x")))
            .with_sprite(SpriteDef::new("S").with_script(Script::on_green_flag(vec![
                script_variables(vec!["x"]),
                set_var("x", num(5.0)),
                say(call_custom("peek", vec![])),
            ])));
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        assert!(vm.world.said().is_empty());
        let errors: Vec<&VmError> = vm.world.errors.iter().map(|(_, e)| e).collect();
        assert_eq!(
            errors,
            vec![&VmError::Eval(EvalError::UnboundVariable("x".into()))]
        );
    }

    #[test]
    fn custom_reporter_sees_its_inputs_locals_sprite_variables_and_globals() {
        // report n + local + lives + g, with a local the body declares.
        let project = Project::new("t")
            .with_global("g", Constant::Number(1000.0))
            .with_global_block(CustomBlock::reporter(
                "sum",
                vec!["n".into()],
                vec![
                    script_variables(vec!["local"]),
                    set_var("local", num(100.0)),
                    report(add(
                        add(var("n"), var("local")),
                        add(var("lives"), var("g")),
                    )),
                ],
            ))
            .with_sprite(SpriteDef::new("Cat").with_variable("lives", Constant::Number(9.0)));
        let mut world = World::new(Arc::new(project));
        let mut scopes = ScopeStack::new();
        // The caller's own `local` is neither seen nor changed.
        scopes.declare("local", Value::Number(-1.0));
        let v = EvalCtx::new(&mut world, 1, &mut scopes, 0)
            .eval(&call_custom("sum", vec![num(20000.0)]))
            .unwrap();
        assert_eq!(v, Value::Number(21109.0));
        assert_eq!(scopes.get("local"), Some(&Value::Number(-1.0)));
    }

    #[test]
    fn custom_reporter_script_variables_do_not_leak_into_the_caller() {
        let project = Project::new("t").with_global_block(CustomBlock::reporter(
            "seven",
            vec![],
            vec![
                script_variables(vec!["y"]),
                set_var("y", num(7.0)),
                report(var("y")),
            ],
        ));
        let mut world = World::new(Arc::new(project));
        let mut scopes = ScopeStack::new();
        let mut ctx = EvalCtx::new(&mut world, 0, &mut scopes, 0);
        assert_eq!(
            ctx.eval(&call_custom("seven", vec![])),
            Ok(Value::Number(7.0))
        );
        assert_eq!(
            ctx.eval(&var("y")),
            Err(VmError::Eval(EvalError::UnboundVariable("y".into())))
        );
    }

    #[test]
    fn a_failing_custom_reporter_gives_the_caller_its_variables_back() {
        let project = Project::new("t").with_global_block(CustomBlock::reporter_expr(
            "broken",
            vec!["n".into()],
            add(var("n"), var("nope")),
        ));
        let mut world = World::new(Arc::new(project));
        let mut scopes = ScopeStack::new();
        scopes.declare("local", Value::Number(-1.0));
        let err = EvalCtx::new(&mut world, 0, &mut scopes, 0)
            .eval(&call_custom("broken", vec![num(1.0)]))
            .unwrap_err();
        assert_eq!(
            err,
            VmError::Eval(EvalError::UnboundVariable("nope".into()))
        );
        assert_eq!(scopes.get("local"), Some(&Value::Number(-1.0)));
        assert_eq!(scopes.get("n"), None);
    }

    #[test]
    fn nested_custom_reporters_see_only_their_own_inputs() {
        // outer(n) = inner() + n, where inner() reports `n`: Snap! says
        // inner's `n` does not exist, although outer's caller frame has it.
        let project = Project::new("t")
            .with_global_block(CustomBlock::reporter_expr(
                "outer",
                vec!["n".into()],
                add(call_custom("inner", vec![]), var("n")),
            ))
            .with_global_block(CustomBlock::reporter_expr("inner", vec![], var("n")))
            .with_global_block(CustomBlock::reporter_expr(
                "twice",
                vec!["n".into()],
                add(call_custom("double", vec![var("n")]), var("n")),
            ))
            .with_global_block(CustomBlock::reporter_expr(
                "double",
                vec!["n".into()],
                add(var("n"), var("n")),
            ));
        let mut world = World::new(Arc::new(project));
        let mut scopes = ScopeStack::new();
        let mut ctx = EvalCtx::new(&mut world, 0, &mut scopes, 0);
        assert_eq!(
            ctx.eval(&call_custom("outer", vec![num(1.0)])),
            Err(VmError::Eval(EvalError::UnboundVariable("n".into())))
        );
        // Each call binds its own `n`, and the caller's is back after.
        assert_eq!(
            ctx.eval(&call_custom("twice", vec![num(5.0)])),
            Ok(Value::Number(15.0))
        );
    }

    #[test]
    fn combine_folds_numbers_left_in_order_in_both_forms() {
        let (mut world, mut scopes) = ctx_fixture();
        let numbers = [10.0, 1.0, 2.0, 3.0];
        scopes.declare("numeric", Value::number_list(numbers));
        let boxed = numbers.iter().map(|&n| n.into()).collect();
        scopes.declare("boxed", Value::List(List::boxed(boxed)));
        for name in ["numeric", "boxed"] {
            let e = combine_using(var(name), ring_reporter(sub(empty_slot(), empty_slot())));
            assert_eq!(
                eval_on_cat(&mut world, &mut scopes, &e),
                Value::Number(4.0),
                "{name}"
            );
        }
    }

    #[test]
    fn combine_walks_a_snapshot_when_its_ring_changes_the_list() {
        // `grow` adds 100 to the global `xs` it is folding over and
        // reports the sum of its inputs.
        let project = Project::new("t")
            .with_global("xs", Constant::List(vec![1.into(), 2.into(), 3.into()]))
            .with_global_block(CustomBlock::reporter(
                "grow",
                vec!["a".into(), "b".into()],
                vec![
                    add_to_list(num(100.0), var("xs")),
                    report(add(var("a"), var("b"))),
                ],
            ));
        let mut world = World::new(Arc::new(project));
        let mut scopes = ScopeStack::new();
        let e = combine_using(
            var("xs"),
            ring_reporter(call_custom("grow", vec![empty_slot(), empty_slot()])),
        );
        let mut ctx = EvalCtx::new(&mut world, 0, &mut scopes, 0);
        assert_eq!(ctx.eval(&e), Ok(Value::Number(6.0)));
        // Two steps, two additions; the fold saw neither.
        assert_eq!(
            ctx.eval(&var("xs")),
            Ok(Value::number_list([1.0, 2.0, 3.0, 100.0, 100.0]))
        );
    }

    #[test]
    fn parallel_map_over_a_counted_range_reports_a_numeric_list() {
        let (mut world, mut scopes) = ctx_fixture();
        let e = parallel_map_over(
            ring_reporter(mul(empty_slot(), num(2.0))),
            numbers_from_to(num(1.0), num(40.0)),
        );
        let v = eval_on_cat(&mut world, &mut scopes, &e);
        let list = v.as_list().unwrap();
        assert!(list.is_numeric());
        assert_eq!(v, Value::number_list((1..=40).map(|i| 2.0 * i as f64)));
    }

    #[test]
    fn a_range_past_the_budget_is_a_script_error() {
        let project = Project::new("t").with_sprite(SpriteDef::new("S").with_script(
            Script::on_green_flag(vec![
                say(length_of(numbers_from_to(num(1.0), num(1e12)))),
                say(length_of(numbers_from_to(num(1e16), num(1e16)))),
            ]),
        ));
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        let errors: Vec<&VmError> = vm.world.errors.iter().map(|(_, e)| e).collect();
        assert_eq!(
            errors,
            vec![&VmError::Eval(EvalError::ListTooLong {
                limit: pure::MAX_LIST_ITEMS
            })]
        );
        // The error stops the script before its second `say`.
        assert!(vm.world.said().is_empty());
    }

    #[test]
    fn parallel_map_ring_may_read_the_list_it_maps() {
        // parallelMap (() + item 1 of xs) over xs, on the sequential
        // backend: the ring reads `xs` while the block holds it.
        let (mut world, mut scopes) = ctx_fixture();
        scopes.declare("xs", Value::number_list((1..=20).map(f64::from)));
        let e = parallel_map_over(
            ring_reporter(add(empty_slot(), item(num(1.0), var("xs")))),
            var("xs"),
        );
        let v = eval_on_cat(&mut world, &mut scopes, &e);
        assert_eq!(v, Value::number_list((1..=20).map(|i| f64::from(i) + 1.0)));
        // The list is free again once the block has reported.
        let xs = scopes.get("xs").unwrap().as_list().unwrap();
        xs.add("more".into());
        assert_eq!(xs.len(), 21);
    }

    #[test]
    fn recursive_custom_reporter_factorial() {
        let project = Project::new("t").with_global_block(CustomBlock::reporter(
            "fact",
            vec!["n".into()],
            vec![if_else(
                le(var("n"), num(1.0)),
                vec![report(num(1.0))],
                vec![report(mul(
                    var("n"),
                    call_custom("fact", vec![sub(var("n"), num(1.0))]),
                ))],
            )],
        ));
        let mut world = World::new(Arc::new(project));
        let mut scopes = ScopeStack::new();
        let v = EvalCtx::new(&mut world, 0, &mut scopes, 0)
            .eval(&call_custom("fact", vec![num(10.0)]))
            .unwrap();
        assert_eq!(v, Value::Number(3628800.0));
    }

    #[test]
    fn infinite_recursion_is_caught() {
        let project = Project::new("t").with_global_block(CustomBlock::reporter_expr(
            "loop",
            vec![],
            call_custom("loop", vec![]),
        ));
        let mut world = World::new(Arc::new(project));
        let mut scopes = ScopeStack::new();
        let err = EvalCtx::new(&mut world, 0, &mut scopes, 0)
            .eval(&call_custom("loop", vec![]))
            .unwrap_err();
        assert_eq!(err, VmError::Eval(EvalError::TooMuchRecursion));
    }

    #[test]
    fn pick_random_is_deterministic_and_in_range() {
        let (mut world, mut scopes) = ctx_fixture();
        world.seed_rng(42);
        for _ in 0..100 {
            let v =
                eval_on_cat(&mut world, &mut scopes, &pick_random(num(1.0), num(6.0))).to_number();
            assert!((1.0..=6.0).contains(&v));
            assert_eq!(v.fract(), 0.0);
        }
    }

    #[test]
    fn timer_attribute_reflects_reset() {
        let (mut world, mut scopes) = ctx_fixture();
        world.timer_reset_at = 10;
        let v = EvalCtx::new(&mut world, 1, &mut scopes, 25)
            .eval(&timer())
            .unwrap();
        assert_eq!(v, Value::Number(15.0));
    }

    #[test]
    fn map_with_impure_ring_uses_full_evaluator() {
        let (mut world, mut scopes) = ctx_fixture();
        world.seed_rng(1);
        // map (pick random 1 to ()) over [1,1,1] — impure ring, still works.
        let e = map_over(
            ring_reporter(pick_random(num(1.0), empty_slot())),
            number_list([1.0, 1.0, 1.0]),
        );
        let v = eval_on_cat(&mut world, &mut scopes, &e);
        assert_eq!(v.as_list().unwrap().len(), 3);
    }

    #[test]
    fn round_robin_assignment_covers_all_items() {
        let items: Vec<Value> = (0..7).map(|i| Value::Number(i as f64)).collect();
        let chunks = round_robin_assign(items, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 3); // 0, 3, 6
        assert_eq!(chunks[1].len(), 2);
        assert_eq!(chunks[2].len(), 2);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn map_reduce_via_eval_word_count() {
        let (mut world, mut scopes) = ctx_fixture();
        let e = map_reduce(
            ring_reporter_with(vec!["w"], make_list(vec![var("w"), num(1.0)])),
            ring_reporter_with(
                vec!["vals"],
                combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
            ),
            split(text("a b a"), text(" ")),
        );
        let v = eval_on_cat(&mut world, &mut scopes, &e);
        assert_eq!(
            v,
            Value::list(vec![
                Value::list(vec!["a".into(), 2.into()]),
                Value::list(vec!["b".into(), 1.into()]),
            ])
        );
    }
}
