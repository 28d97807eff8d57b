//! Pure evaluation of reporter rings — the worker-side function compiler.
//!
//! The paper's `parallelMap` implementation (Listing 2) extracts the
//! user's ringed reporter from the stack frame, renders it to JavaScript
//! with `mappedCode()`, and wraps it in `new Function(...)` so that each
//! Web Worker can evaluate it *without* the interactive Snap! runtime.
//!
//! [`PureFn`] is the Rust analogue: it checks that a ring's body uses only
//! *pure* blocks (no stage, no sprite motion, no randomness, no custom
//! blocks), then compiles it. Numeric rings lower to the unboxed `f64`
//! register program of [`crate::bytecode`] (scalar calls and the
//! columnar batch tier); every other ring runs on the re-entrant
//! tree-walking evaluator, which also serves as the differential-testing
//! oracle ([`PureFn::call_treewalk`]). A `[key, value]` mapper also
//! carries its [`PairProgram`] for MapReduce's keyed-columnar rung. A
//! `PureFn` is `Send + Sync`, so worker threads can share it.
//!
//! The tree walk ([`eval`]) is the one evaluator of reporter blocks: it
//! is generic over an environment ([`Env`]), and the VM's `EvalCtx` is
//! its other environment besides a worker's. `mapReduce` has its one
//! sequential path here too ([`map_reduce_with`]).
//!
//! The walk hands `parallelMap` and `mapReduce` their input list by
//! handle, so the environment reads it in place (a numeric list as
//! `f64`s), and `combine` over a numeric list runs one left fold over
//! its `f64`s ([`NumProgram::fold`]) when its ring lowers.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use crate::bytecode::{self, num_binop, num_unop, NumProgram, PairProgram};
use crate::error::EvalError;
use crate::expr::{Attr, BinOp, Expr, RingExprBody, UnOp};
use crate::ring::{Ring, RingBody};
use crate::value::{snap_sort_by, List, ListView, Value};

/// Check that `expr` only uses blocks a worker can evaluate without the
/// VM. Returns the name of the first offending block on failure.
pub fn check_pure(expr: &Expr) -> Result<(), &'static str> {
    let mut offender: Option<&'static str> = None;
    expr.visit(&mut |e| {
        if offender.is_some() {
            return;
        }
        offender = match e {
            Expr::PickRandom(_, _) => Some("pick random"),
            Expr::Attribute(_) => Some("attribute reporter"),
            Expr::CallCustom(_, _) => Some("custom block call"),
            _ => None,
        };
    });
    match offender {
        Some(block) => Err(block),
        None => Ok(()),
    }
}

/// Ring applications nest at most this deep, on a worker and in the VM
/// (which applies the same limit to custom-block calls); one more is
/// [`EvalError::TooMuchRecursion`].
pub const MAX_DEPTH: u32 = 64;

/// How a [`PureFn`]'s calls execute, decided once at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledStrategy {
    /// Unboxed `f64` register program — the numeric fast path.
    Numeric,
    /// The tree-walking evaluator (every ring the numeric pass declines).
    TreeWalk,
}

/// The compiled body a [`PureFn`] dispatches to. `Arc`-wrapped so that
/// cloning a cached `PureFn` stays cheap.
#[derive(Clone)]
enum Compiled {
    Numeric(Arc<NumProgram>),
    /// Tree walk; a `[key, value]` mapper also keeps its pair program.
    TreeWalk(Option<Arc<PairProgram>>),
}

/// A compiled, thread-safe view of a reporter ring.
///
/// Construction fails unless the ring is a reporter/predicate whose body
/// passes [`check_pure`].
#[derive(Clone)]
pub struct PureFn {
    ring: Arc<Ring>,
    compiled: Compiled,
}

impl PureFn {
    /// Compile a ring into a callable pure function: purity check, then
    /// numeric lowering ([`crate::bytecode::lower`]), falling back to
    /// the tree walk for every ring the numeric pass declines. A ring
    /// that tree-walks also gets pair lowering
    /// ([`crate::bytecode::lower_pair`]); either lowering counts under
    /// `ring.bytecode_compiles`.
    pub fn compile(ring: Arc<Ring>) -> Result<PureFn, EvalError> {
        let expr = match &ring.body {
            RingBody::Reporter(e) | RingBody::Predicate(e) => e,
            RingBody::Command(_) => return Err(EvalError::NotAReporter),
        };
        check_pure(expr).map_err(EvalError::NotPure)?;
        let compiled = match bytecode::lower(&ring) {
            Some(p) => Compiled::Numeric(Arc::new(p)),
            None => Compiled::TreeWalk(bytecode::lower_pair(&ring).map(Arc::new)),
        };
        if !matches!(compiled, Compiled::TreeWalk(None)) {
            snap_trace::well_known::RING_BYTECODE_COMPILES.incr();
        }
        Ok(PureFn { ring, compiled })
    }

    /// The underlying ring.
    pub fn ring(&self) -> &Arc<Ring> {
        &self.ring
    }

    /// Which execution strategy calls use (diagnostics and tests).
    pub fn strategy(&self) -> CompiledStrategy {
        match &self.compiled {
            Compiled::Numeric(_) => CompiledStrategy::Numeric,
            Compiled::TreeWalk(_) => CompiledStrategy::TreeWalk,
        }
    }

    /// The pair program of a `[key, value]` mapper, when it lowered (see
    /// [`crate::bytecode::lower_pair`]).
    pub fn pair_program(&self) -> Option<&PairProgram> {
        match &self.compiled {
            Compiled::TreeWalk(pair) => pair.as_deref(),
            Compiled::Numeric(_) => None,
        }
    }

    /// The numeric program calls run, when the ring lowered to one.
    pub fn num_program(&self) -> Option<&NumProgram> {
        match &self.compiled {
            Compiled::Numeric(p) => Some(p),
            Compiled::TreeWalk(_) => None,
        }
    }

    /// Apply the function to `args`.
    ///
    /// Named formal parameters bind by position, and a ring with formals
    /// must get exactly one argument per formal. Empty slots take
    /// arguments by one rule, formals or not ([`slot_input`]): a single
    /// argument fills *every* empty slot (this is how `map (( ) × 10)`
    /// works); otherwise slot `i` takes argument `i`, or nothing when
    /// there is none.
    ///
    /// Dispatches to the numeric program when there is one; results are
    /// bit-for-bit those of [`PureFn::call_treewalk`] (enforced by the
    /// differential suite).
    pub fn call(&self, args: &[Value]) -> Result<Value, EvalError> {
        self.call_at(args, 0)
    }

    /// [`PureFn::call`] from inside a walk `depth` ring applications
    /// deep; fails with [`EvalError::TooMuchRecursion`] at [`MAX_DEPTH`].
    fn call_at(&self, args: &[Value], depth: u32) -> Result<Value, EvalError> {
        if depth >= MAX_DEPTH {
            return Err(EvalError::TooMuchRecursion);
        }
        match &self.compiled {
            Compiled::Numeric(p) => {
                snap_trace::well_known::RING_FASTPATH_CALLS.incr();
                p.call(args)
            }
            Compiled::TreeWalk(_) => {
                snap_trace::well_known::RING_TREEWALK_CALLS.incr();
                self.walk(args, depth)
            }
        }
    }

    /// Apply via the tree-walking evaluator, bypassing any compiled
    /// program — the reference semantics every compiled path must match
    /// (the oracle of the differential tests, and the body of
    /// [`PureFn::call`] for rings the numeric pass declines).
    pub fn call_treewalk(&self, args: &[Value]) -> Result<Value, EvalError> {
        self.walk(args, 0)
    }

    /// Evaluate the body on the tree walk as the application at `depth`.
    fn walk(&self, args: &[Value], depth: u32) -> Result<Value, EvalError> {
        let expr = match &self.ring.body {
            RingBody::Reporter(e) | RingBody::Predicate(e) => e,
            RingBody::Command(_) => return Err(EvalError::NotAReporter),
        };
        let params = &self.ring.params;
        if !params.is_empty() && params.len() != args.len() {
            return Err(EvalError::ArityMismatch {
                expected: params.len(),
                got: args.len(),
            });
        }
        let mut ctx = PureCtx {
            params,
            args,
            captured: &self.ring.captured,
            next_slot: 0,
            depth: depth + 1,
        };
        eval(&mut ctx, expr)
    }

    /// Apply to a single argument (the common `map` case).
    pub fn call1(&self, arg: Value) -> Result<Value, EvalError> {
        self.call(std::slice::from_ref(&arg))
    }

    /// `true` when [`PureFn::eval_batch`] covers this function: it
    /// compiled to the numeric fast path *and* takes each batch element
    /// as its single argument (slot-style or one-parameter ring).
    pub fn is_batchable(&self) -> bool {
        match &self.compiled {
            Compiled::Numeric(p) => p.batchable(),
            _ => false,
        }
    }

    /// Evaluate a whole chunk of unboxed numbers at once — the columnar
    /// batch tier. Appends one output per input to `out` and returns
    /// `true`; returns `false` (appending nothing) when the function is
    /// not batchable, so callers fall back to per-element [`Self::call1`].
    ///
    /// Each element is treated exactly as `call1(Value::Number(x))`
    /// treats its argument; results are bit-identical to the scalar fast
    /// path and the tree walk (-0.0/±inf/subnormals included; NaN
    /// payload bits excepted — see [`NumProgram::eval_batch_into`]).
    /// Numeric programs cannot raise: arity was proven compatible, so the
    /// only scalar failure mode (`ArityMismatch`) is impossible here.
    /// The appending form of [`PureFn::eval_batch_into`].
    pub fn eval_batch(&self, inputs: &[f64], out: &mut Vec<f64>) -> bool {
        if !self.is_batchable() {
            return false;
        }
        let start = out.len();
        out.resize(start + inputs.len(), 0.0);
        self.eval_batch_into(inputs, &mut out[start..])
    }

    /// [`PureFn::eval_batch`] writing the output for `inputs[i]` to
    /// `out[i]`, so a caller can hand each pool chunk its own slice of
    /// one result. `false`, writing nothing, when the function is not
    /// batchable.
    ///
    /// # Panics
    /// When the function is batchable and `out` is not as long as
    /// `inputs`.
    pub fn eval_batch_into(&self, inputs: &[f64], out: &mut [f64]) -> bool {
        match &self.compiled {
            Compiled::Numeric(p) if p.batchable() => {
                snap_trace::well_known::RING_BATCH_CALLS.incr();
                snap_trace::well_known::RING_BATCH_ELEMS.add(inputs.len() as u64);
                p.eval_batch_into(inputs, out);
                true
            }
            _ => false,
        }
    }
}

/// Upper bound on live compile-cache entries; reached only by programs
/// holding thousands of distinct rings alive at once.
const COMPILE_CACHE_CAP: usize = 1024;

/// Insertions between periodic dead-`Weak` sweeps. Without this, a
/// workload that compiles short-lived rings but never reaches
/// [`COMPILE_CACHE_CAP`] would accumulate dead entries forever.
const COMPILE_CACHE_SWEEP_INTERVAL: usize = 64;

struct CompileCache {
    /// Keyed by `Arc::as_ptr` of the ring. The [`Weak`] both detects
    /// entry death (ring dropped → evictable) and guards against ABA:
    /// a recycled allocation address only hits when the stored weak
    /// still upgrades to *this* `Arc`. Only the [`Compiled`] body is
    /// stored — caching a whole [`PureFn`] would keep a strong
    /// `Arc<Ring>` inside the cache and the entry could never die.
    entries: HashMap<usize, (Weak<Ring>, Compiled)>,
    /// Insertions since the last dead-entry sweep.
    inserts_since_sweep: usize,
}

static COMPILE_CACHE: OnceLock<Mutex<CompileCache>> = OnceLock::new();

fn compile_cache() -> &'static Mutex<CompileCache> {
    COMPILE_CACHE.get_or_init(|| {
        Mutex::new(CompileCache {
            entries: HashMap::new(),
            inserts_since_sweep: 0,
        })
    })
}

/// Compile a ring, memoized on the ring's identity (`Arc` pointer).
///
/// Repeatedly mapping the same ring — every iteration of a `parallel
/// map` loop, every reduce group — re-verifies purity in
/// [`PureFn::compile`]; this caches the verdict so steady-state calls
/// cost one hash lookup. Compilation *failures* are not cached (they
/// are cheap and rare). Entries die with their ring: a dropped `Arc`
/// leaves a dead [`Weak`] that is evicted by the periodic sweep (every
/// `COMPILE_CACHE_SWEEP_INTERVAL` insertions, or when the cache hits
/// capacity).
pub fn compile_cached(ring: &Arc<Ring>) -> Result<PureFn, EvalError> {
    let key = Arc::as_ptr(ring) as usize;
    let mut cache = compile_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let cached = cache.entries.get(&key).and_then(|(weak, compiled)| {
        weak.upgrade()
            .filter(|live| Arc::ptr_eq(live, ring))
            .map(|live| PureFn {
                ring: live,
                compiled: compiled.clone(),
            })
    });
    match cached {
        Some(compiled) => {
            snap_trace::well_known::COMPILE_CACHE_HITS.incr();
            return Ok(compiled);
        }
        None => {
            // Absent, or stale: the address was recycled by another ring.
            cache.entries.remove(&key);
        }
    }
    snap_trace::well_known::COMPILE_CACHE_MISSES.incr();
    let compiled = PureFn::compile(ring.clone())?;
    if cache.entries.len() >= COMPILE_CACHE_CAP
        || cache.inserts_since_sweep >= COMPILE_CACHE_SWEEP_INTERVAL
    {
        cache.entries.retain(|_, (weak, _)| weak.strong_count() > 0);
        cache.inserts_since_sweep = 0;
    }
    if cache.entries.len() < COMPILE_CACHE_CAP {
        cache
            .entries
            .insert(key, (Arc::downgrade(ring), compiled.compiled.clone()));
        cache.inserts_since_sweep += 1;
    }
    Ok(compiled)
}

/// Number of live (upgradeable) entries currently in the compile cache.
/// Dead `Weak`s awaiting the next sweep are not counted. Test/diagnostic
/// accessor.
pub fn compile_cache_live_len() -> usize {
    let cache = compile_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    cache
        .entries
        .values()
        .filter(|(weak, _)| weak.strong_count() > 0)
        .count()
}

/// Total entries in the compile cache, including dead `Weak`s that the
/// periodic sweep has not yet evicted. Test/diagnostic accessor.
pub fn compile_cache_total_len() -> usize {
    let cache = compile_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    cache.entries.len()
}

/// Compile-cache hit/miss counters since process start, read from the
/// global `snap-trace` registry (kept as a convenience accessor for
/// tests and diagnostics).
pub fn compile_cache_stats() -> (u64, u64) {
    (
        snap_trace::well_known::COMPILE_CACHE_HITS.get(),
        snap_trace::well_known::COMPILE_CACHE_MISSES.get(),
    )
}

/// What the tree walk ([`eval`]) asks of the place it runs in. A worker
/// ([`PureFn`]'s context) and the VM (`snap_vm::EvalCtx`) are the two
/// environments; everything else about evaluating a block is the walk's.
pub trait Env: Sized {
    /// The error a walk reports: [`EvalError`] on a worker.
    type Error: From<EvalError>;
    /// A ring made ready to apply: compiled on a worker, checked in the
    /// VM. The walk prepares a ring once per block evaluation and applies
    /// it per item.
    type Prepared;

    /// The value of the variable `name`.
    fn lookup(&self, name: &str) -> Result<Value, Self::Error>;

    /// The input of the next own empty slot of the ring application being
    /// evaluated, by [`slot_input`]'s rule. The walk numbers slots in
    /// evaluation order, which is the block's input order.
    fn slot(&mut self) -> Value;

    /// The bindings a ring literal evaluated here closes over, innermost
    /// last.
    fn capture(&self) -> Vec<(String, Value)>;

    /// Make `ring` ready to apply.
    fn prepare(&mut self, ring: Arc<Ring>) -> Result<Self::Prepared, Self::Error>;

    /// Apply a prepared ring to `args`. Applications nest at most
    /// [`MAX_DEPTH`] deep.
    fn apply(&mut self, f: &Self::Prepared, args: &[Value]) -> Result<Value, Self::Error>;

    /// `pick random lo to hi`; a worker has no random source.
    fn pick_random(&mut self, _lo: f64, _hi: f64) -> Result<Value, Self::Error> {
        Err(EvalError::NotPure("pick random").into())
    }

    /// A sprite attribute reporter; a worker has no sprite.
    fn attribute(&self, _attr: Attr) -> Result<Value, Self::Error> {
        Err(EvalError::NotPure("attribute reporter").into())
    }

    /// A custom reporter call; a worker has no block definitions.
    fn call_custom(&mut self, name: &str, _args: Vec<Value>) -> Result<Value, Self::Error> {
        Err(EvalError::UnknownCustomBlock(name.to_owned()).into())
    }

    /// `combine` over the numbers of a numeric list: the left fold of
    /// `numbers` under `f` in one pass, when applying `f` here would run
    /// a numeric program that takes two inputs ([`NumProgram::fold`]).
    /// `None` leaves the fold to one [`Env::apply`] per step, which also
    /// raises whatever error applying `f` raises.
    fn fold_numbers(&mut self, f: &Self::Prepared, numbers: &[f64]) -> Option<f64>;

    /// `parallelMap` over `list`, with its `workers` input when it has
    /// one. On a worker it runs as `map` over a snapshot of the list, the
    /// degradation Snap! performs when no workers are available.
    fn parallel_map(
        &mut self,
        ring: Arc<Ring>,
        list: &List,
        _workers: Option<f64>,
    ) -> Result<Value, Self::Error> {
        let f = self.prepare(ring)?;
        Ok(Value::list(map_with(self, &f, list.to_vec())?))
    }

    /// `mapReduce` over `list`. On a worker it runs sequentially
    /// ([`map_reduce_with`]) over a snapshot of the list.
    fn map_reduce(
        &mut self,
        mapper: Arc<Ring>,
        reducer: Arc<Ring>,
        list: &List,
    ) -> Result<Value, Self::Error> {
        let mapper = self.prepare(mapper)?;
        let reducer = self.prepare(reducer)?;
        Ok(Value::list(map_reduce_with(
            self,
            &mapper,
            &reducer,
            list.to_vec(),
        )?))
    }
}

/// The input an own empty slot takes when a ring is applied to `args`:
/// one input fills every slot; otherwise slot `i` (counted from 0) takes
/// input `i`, or nothing when there is no input `i`. Formal parameters do
/// not change this.
pub fn slot_input(args: &[Value], i: usize) -> Value {
    match args {
        [only] => only.clone(),
        _ => args.get(i).cloned().unwrap_or(Value::Nothing),
    }
}

/// Evaluate a reporter block: the one tree walk, on a worker and in the
/// VM. A block evaluates its inputs in input order, so the order of its
/// own empty slots is the order [`Expr::map_own_empty_slots`] numbers.
pub fn eval<E: Env>(env: &mut E, expr: &Expr) -> Result<Value, E::Error> {
    match expr {
        Expr::Literal(c) => Ok(c.to_value()),
        Expr::MakeList(items) => Ok(Value::list(eval_all(env, items)?)),
        Expr::Var(name) => env.lookup(name),
        Expr::EmptySlot => Ok(env.slot()),
        Expr::Binary(op, a, b) => {
            let a = eval(env, a)?;
            let b = eval(env, b)?;
            Ok(eval_binop(*op, &a, &b))
        }
        Expr::Unary(op, a) => Ok(eval_unop(*op, &eval(env, a)?)),
        Expr::Item(index, list) => {
            let i = eval(env, index)?.to_number() as usize;
            let list = eval_list(env, list)?;
            list.item(i).ok_or_else(|| {
                EvalError::IndexOutOfRange {
                    index: i,
                    len: list.len(),
                }
                .into()
            })
        }
        Expr::LengthOf(list) => Ok(Value::Number(eval_list(env, list)?.len() as f64)),
        Expr::Contains(list, value) => {
            let list = eval_list(env, list)?;
            let value = eval(env, value)?;
            Ok(Value::Bool(list.contains(&value)))
        }
        Expr::Join(parts) => {
            let mut out = String::new();
            for part in parts {
                out.push_str(&eval(env, part)?.to_display_string());
            }
            Ok(Value::Text(out))
        }
        Expr::Split(text, delim) => {
            let text = eval(env, text)?.to_display_string();
            let delim = eval(env, delim)?.to_display_string();
            let items: Vec<Value> = if delim.is_empty() {
                text.chars().map(|c| Value::Text(c.to_string())).collect()
            } else {
                text.split(&delim)
                    .filter(|s| !s.is_empty())
                    .map(|s| Value::Text(s.to_owned()))
                    .collect()
            };
            Ok(Value::list(items))
        }
        Expr::LetterOf(index, text) => {
            let i = eval(env, index)?.to_number() as usize;
            let text = eval(env, text)?.to_display_string();
            let letter = text
                .chars()
                .nth(i.saturating_sub(1))
                .map(|c| c.to_string())
                .unwrap_or_default();
            Ok(Value::Text(letter))
        }
        Expr::TextLength(text) => {
            let text = eval(env, text)?.to_display_string();
            Ok(Value::Number(text.chars().count() as f64))
        }
        Expr::NumbersFromTo(a, b) => {
            let a = eval(env, a)?.to_number();
            let b = eval(env, b)?.to_number();
            Ok(numbers_from_to(a, b)?)
        }
        Expr::PickRandom(lo, hi) => {
            let lo = eval(env, lo)?.to_number();
            let hi = eval(env, hi)?.to_number();
            env.pick_random(lo, hi)
        }
        Expr::Attribute(attr) => env.attribute(*attr),
        Expr::Ring(ring) => {
            let body = match &ring.body {
                RingExprBody::Reporter(e) => RingBody::Reporter((**e).clone()),
                RingExprBody::Predicate(e) => RingBody::Predicate((**e).clone()),
                RingExprBody::Command(s) => RingBody::Command(s.clone()),
            };
            Ok(Value::Ring(Arc::new(Ring {
                params: ring.params.clone(),
                body,
                captured: env.capture(),
            })))
        }
        Expr::CallRing(ring, args) => {
            let ring = eval_ring(env, ring)?;
            let args = eval_all(env, args)?;
            let f = env.prepare(ring)?;
            env.apply(&f, &args)
        }
        Expr::CallCustom(name, args) => {
            let args = eval_all(env, args)?;
            env.call_custom(name, args)
        }
        Expr::Map { ring, list } => {
            let ring = eval_ring(env, ring)?;
            let items = eval_list(env, list)?.to_vec();
            let f = env.prepare(ring)?;
            Ok(Value::list(map_with(env, &f, items)?))
        }
        Expr::Keep { pred, list } => {
            let pred = eval_ring(env, pred)?;
            let items = eval_list(env, list)?.to_vec();
            let f = env.prepare(pred)?;
            let mut out = Vec::new();
            for item in items {
                if env.apply(&f, std::slice::from_ref(&item))?.to_bool() {
                    out.push(item);
                }
            }
            Ok(Value::list(out))
        }
        Expr::Combine { list, ring } => {
            let list = eval_list(env, list)?;
            let ring = eval_ring(env, ring)?;
            let f = env.prepare(ring)?;
            // A lowered ring cannot write a list, so the fold reads the
            // numbers in place; any other ring walks a snapshot, since a
            // VM ring may change the list it folds.
            let folded = list.with_view(|view| match view {
                ListView::Numbers(numbers) => env
                    .fold_numbers(&f, numbers)
                    .map(|acc| (acc, numbers.len())),
                ListView::Values(_) => None,
            });
            if let Some((acc, len)) = folded {
                snap_trace::well_known::RING_FASTPATH_CALLS.add(len as u64 - 1);
                return Ok(Value::Number(acc));
            }
            let mut items = list.to_vec().into_iter();
            let Some(mut acc) = items.next() else {
                return Ok(Value::Number(0.0));
            };
            for item in items {
                acc = env.apply(&f, &[acc, item])?;
            }
            Ok(acc)
        }
        // The parallel blocks get their list by handle and read it when
        // they run, after every input is evaluated, as Snap! does.
        Expr::ParallelMap {
            ring,
            list,
            workers,
        } => {
            let ring = eval_ring(env, ring)?;
            let list = eval_list(env, list)?;
            let workers = match workers {
                Some(w) => Some(eval(env, w)?.to_number()),
                None => None,
            };
            env.parallel_map(ring, &list, workers)
        }
        Expr::MapReduce {
            mapper,
            reducer,
            list,
        } => {
            let mapper = eval_ring(env, mapper)?;
            let reducer = eval_ring(env, reducer)?;
            let list = eval_list(env, list)?;
            env.map_reduce(mapper, reducer, &list)
        }
    }
}

/// Evaluate each of `exprs`, in order.
fn eval_all<E: Env>(env: &mut E, exprs: &[Expr]) -> Result<Vec<Value>, E::Error> {
    let mut out = Vec::with_capacity(exprs.len());
    for expr in exprs {
        out.push(eval(env, expr)?);
    }
    Ok(out)
}

/// Evaluate an input that must report a list.
pub fn eval_list<E: Env>(env: &mut E, expr: &Expr) -> Result<List, E::Error> {
    match eval(env, expr)? {
        Value::List(list) => Ok(list),
        other => Err(EvalError::TypeMismatch {
            expected: "list",
            got: other.to_display_string(),
        }
        .into()),
    }
}

/// Evaluate an input that must report a ring.
pub fn eval_ring<E: Env>(env: &mut E, expr: &Expr) -> Result<Arc<Ring>, E::Error> {
    match eval(env, expr)? {
        Value::Ring(ring) => Ok(ring),
        other => Err(EvalError::TypeMismatch {
            expected: "ring",
            got: other.to_display_string(),
        }
        .into()),
    }
}

/// `map`: apply a prepared ring to each item, in order.
pub fn map_with<E: Env>(
    env: &mut E,
    f: &E::Prepared,
    items: Vec<Value>,
) -> Result<Vec<Value>, E::Error> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(env.apply(f, &[item])?);
    }
    Ok(out)
}

/// The sequential `mapReduce` on prepared rings: map every item, check
/// each output is a pair ([`as_map_pair`]), [`sort_and_group`] the pairs
/// and reduce each group's value list. Mapper errors come before pair
/// errors, in input order, as on the parallel backend.
pub fn map_reduce_with<E: Env>(
    env: &mut E,
    mapper: &E::Prepared,
    reducer: &E::Prepared,
    items: impl IntoIterator<Item = Value>,
) -> Result<Vec<Value>, E::Error> {
    let items = items.into_iter();
    let mut mapped = Vec::with_capacity(items.size_hint().0);
    for item in items {
        mapped.push(env.apply(mapper, &[item])?);
    }
    let pairs = mapped
        .into_iter()
        .map(as_map_pair)
        .collect::<Result<Vec<_>, _>>()?;
    sort_and_group(pairs)
        .into_iter()
        .map(|(key, values)| {
            let reduced = env.apply(reducer, &[Value::list(values)])?;
            Ok(Value::list(vec![key, reduced]))
        })
        .collect()
}

/// [`map_reduce_with`] on compiled rings, outside any walk: the
/// sequential backend's `mapReduce`.
pub fn map_reduce(
    mapper: &PureFn,
    reducer: &PureFn,
    items: impl IntoIterator<Item = Value>,
) -> Result<Vec<Value>, EvalError> {
    let mut root = PureCtx {
        params: &[],
        args: &[],
        captured: &[],
        next_slot: 0,
        depth: 0,
    };
    map_reduce_with(&mut root, mapper, reducer, items)
}

/// Validate one mapper output as a `[key, value]` pair: a list of at
/// least two items, of which the first two are the key and the value.
pub fn as_map_pair(pair: Value) -> Result<(Value, Value), EvalError> {
    match pair.as_list() {
        Some(list) if list.len() >= 2 => Ok((
            list.item(1).unwrap_or(Value::Nothing),
            list.item(2).unwrap_or(Value::Nothing),
        )),
        _ => Err(EvalError::TypeMismatch {
            expected: "[key, value] pair from the map function",
            got: pair.to_display_string(),
        }),
    }
}

/// The shuffle between `mapReduce`'s phases: sort `[key, value]` pairs by
/// key, "as required by the semantics of MapReduce" (paper §3.4, footnote
/// 6), and group equal keys. The sort is [`snap_sort_by`]: stable, so
/// each key's values keep their input order, and unlike the standard
/// sorts it cannot panic on keys `snap_cmp` does not order totally (NaN,
/// numbers mixed with text).
pub fn sort_and_group(pairs: Vec<(Value, Value)>) -> Vec<(Value, Vec<Value>)> {
    group_sorted(snap_sort_by(pairs, |a, b| a.0.snap_cmp(&b.0)))
}

/// Group key-sorted pairs: each run of keys `loose_eq` to the run's first
/// key becomes one group, under that first key.
pub fn group_sorted(pairs: Vec<(Value, Value)>) -> Vec<(Value, Vec<Value>)> {
    let mut groups: Vec<(Value, Vec<Value>)> = Vec::new();
    for (key, value) in pairs {
        match groups.last_mut() {
            Some((k, values)) if k.loose_eq(&key) => values.push(value),
            _ => groups.push((key, vec![value])),
        }
    }
    groups
}

/// A worker's environment: the ring being applied, its parameters bound
/// by position to the call's arguments, and the cursor over its own empty
/// slots. Everything is borrowed, so a call allocates nothing for its
/// bindings.
struct PureCtx<'a> {
    /// Formal parameter names; `params[i]` binds `args[i]`.
    params: &'a [String],
    /// The call's arguments: parameter values and slot inputs.
    args: &'a [Value],
    /// Captured environment of the ring being applied.
    captured: &'a [(String, Value)],
    /// Index of the next own empty slot.
    next_slot: usize,
    /// Ring applications this walk is nested in.
    depth: u32,
}

impl Env for PureCtx<'_> {
    type Error = EvalError;
    type Prepared = PureFn;

    fn lookup(&self, name: &str) -> Result<Value, EvalError> {
        // Last duplicate wins, as for any shadowing binding.
        if let Some(i) = self.params.iter().rposition(|p| p == name) {
            return Ok(self.args[i].clone());
        }
        if let Some(v) = self
            .captured
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
        {
            return Ok(v.clone());
        }
        Err(EvalError::UnboundVariable(name.to_owned()))
    }

    fn slot(&mut self) -> Value {
        let input = slot_input(self.args, self.next_slot);
        self.next_slot += 1;
        input
    }

    fn capture(&self) -> Vec<(String, Value)> {
        let mut captured = self.captured.to_vec();
        captured.extend(self.params.iter().cloned().zip(self.args.iter().cloned()));
        captured
    }

    fn prepare(&mut self, ring: Arc<Ring>) -> Result<PureFn, EvalError> {
        PureFn::compile(ring)
    }

    fn apply(&mut self, f: &PureFn, args: &[Value]) -> Result<Value, EvalError> {
        f.call_at(args, self.depth)
    }

    fn fold_numbers(&mut self, f: &PureFn, numbers: &[f64]) -> Option<f64> {
        // At the depth limit `apply` raises; leave that to it.
        (self.depth < MAX_DEPTH)
            .then(|| f.num_program()?.fold(numbers))
            .flatten()
    }
}

/// The most items `numbers from a to b` builds into one list: 2^26
/// numbers, 512 MiB unboxed. A longer range reports
/// [`EvalError::ListTooLong`] before anything is reserved, where stepping
/// it would run until an allocation failed and aborted the process
/// (`numbers from 1 to 1e12` asks for 8 TB).
pub const MAX_LIST_ITEMS: usize = 1 << 26;

/// 2^53: from an integer within ±2^53, every step of 1 is exact up to
/// ±2^53, where `x ± 1` rounds back to `x`.
const EXACT_STEPS: f64 = 9_007_199_254_740_992.0;

/// `numbers from a to b`, counting down when `a > b` like Snap!: `a`,
/// then `x + 1` (or `x − 1`) for as long as it stays within `b`. The
/// items are bit for bit those of stepping `x` one at a time; the range
/// is counted first and its numeric list reserved exactly. It ends early
/// where a step no longer changes `x` (from 2^53 up), so `numbers from
/// 1e16 to 1e16` is one item. A NaN bound gives an empty list; an
/// infinite bound, or a count past [`MAX_LIST_ITEMS`], is
/// [`EvalError::ListTooLong`].
pub fn numbers_from_to(a: f64, b: f64) -> Result<Value, EvalError> {
    let too_long = EvalError::ListTooLong {
        limit: MAX_LIST_ITEMS,
    };
    if a.is_nan() || b.is_nan() {
        return Ok(Value::number_list([]));
    }
    if a.is_infinite() || b.is_infinite() {
        return Err(too_long);
    }
    let step = if a <= b { 1.0 } else { -1.0 };
    let mut numbers;
    if a.fract() == 0.0 && a.abs() <= EXACT_STEPS {
        // Every item is exactly `a ± k`, so the count is closed-form and
        // the items need no chain of dependent additions.
        let last = if step > 0.0 {
            b.floor().min(EXACT_STEPS)
        } else {
            b.ceil().max(-EXACT_STEPS)
        };
        let len = (last - a).abs() + 1.0;
        if len > MAX_LIST_ITEMS as f64 {
            return Err(too_long);
        }
        let len = len as usize;
        numbers = Vec::with_capacity(len);
        // `a` itself first: `-0 + 0` would turn its sign.
        numbers.push(a);
        numbers.extend((1..len).map(|k| a + step * k as f64));
    } else {
        let walk = || {
            std::iter::successors(Some(a), move |&x| Some(x + step).filter(|&next| next != x))
                .take_while(move |&x| if step > 0.0 { x <= b } else { x >= b })
        };
        let len = walk().take(MAX_LIST_ITEMS + 1).count();
        if len > MAX_LIST_ITEMS {
            return Err(too_long);
        }
        numbers = Vec::with_capacity(len);
        numbers.extend(walk());
    }
    Ok(Value::List(List::from_numbers(numbers)))
}

/// Evaluate a binary operator block on two values with Snap! coercions.
pub fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Value {
    match op {
        // Arithmetic has a single definition, shared with the numeric VM.
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod | BinOp::Pow => {
            let n = num_binop(op, a.to_number(), b.to_number()).expect("arith op");
            Value::Number(n)
        }
        BinOp::Eq => Value::Bool(a.loose_eq(b)),
        BinOp::Ne => Value::Bool(!a.loose_eq(b)),
        BinOp::Lt => Value::Bool(a.snap_cmp(b) == std::cmp::Ordering::Less),
        BinOp::Gt => Value::Bool(a.snap_cmp(b) == std::cmp::Ordering::Greater),
        BinOp::Le => Value::Bool(a.snap_cmp(b) != std::cmp::Ordering::Greater),
        BinOp::Ge => Value::Bool(a.snap_cmp(b) != std::cmp::Ordering::Less),
        BinOp::And => Value::Bool(a.to_bool() && b.to_bool()),
        BinOp::Or => Value::Bool(a.to_bool() || b.to_bool()),
    }
}

/// Evaluate a unary operator block with Snap! coercions. Trigonometric
/// blocks take degrees, like Snap!'s.
pub fn eval_unop(op: UnOp, a: &Value) -> Value {
    match op {
        UnOp::Not => Value::Bool(!a.to_bool()),
        // Numeric unops have a single definition, shared with the VM.
        _ => Value::Number(num_unop(op, a.to_number()).expect("numeric unop")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn times_ten() -> PureFn {
        PureFn::compile(Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))))).unwrap()
    }

    #[test]
    fn times_ten_matches_paper_fig4() {
        // map (( ) × 10) over (list 3 7 8) → [30, 70, 80]
        let f = times_ten();
        let out: Vec<Value> = [3.0, 7.0, 8.0]
            .iter()
            .map(|&n| f.call1(Value::Number(n)).unwrap())
            .collect();
        assert_eq!(
            out,
            vec![
                Value::Number(30.0),
                Value::Number(70.0),
                Value::Number(80.0)
            ]
        );
    }

    #[test]
    fn single_arg_fills_all_empty_slots() {
        // (( ) + ( )) with one argument: both slots get it.
        let f = PureFn::compile(Arc::new(Ring::reporter(add(empty_slot(), empty_slot())))).unwrap();
        assert_eq!(f.call1(Value::Number(4.0)).unwrap(), Value::Number(8.0));
    }

    #[test]
    fn multiple_args_fill_slots_positionally() {
        let f = PureFn::compile(Arc::new(Ring::reporter(sub(empty_slot(), empty_slot())))).unwrap();
        assert_eq!(
            f.call(&[Value::Number(10.0), Value::Number(3.0)]).unwrap(),
            Value::Number(7.0)
        );
    }

    #[test]
    fn named_params_bind() {
        let f = PureFn::compile(Arc::new(Ring::reporter_with_params(
            vec!["n".into()],
            mul(var("n"), var("n")),
        )))
        .unwrap();
        assert_eq!(f.call1(Value::Number(5.0)).unwrap(), Value::Number(25.0));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let f = PureFn::compile(Arc::new(Ring::reporter_with_params(
            vec!["a".into(), "b".into()],
            add(var("a"), var("b")),
        )))
        .unwrap();
        assert_eq!(
            f.call(&[Value::Number(1.0)]),
            Err(EvalError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn captured_environment_is_visible() {
        let ring = Ring::reporter(add(empty_slot(), var("offset")))
            .with_captured(vec![("offset".into(), Value::Number(100.0))]);
        let f = PureFn::compile(Arc::new(ring)).unwrap();
        assert_eq!(f.call1(Value::Number(1.0)).unwrap(), Value::Number(101.0));
    }

    #[test]
    fn impure_blocks_are_rejected_at_compile_time() {
        let err = PureFn::compile(Arc::new(Ring::reporter(Expr::PickRandom(
            Box::new(num(1.0)),
            Box::new(num(10.0)),
        ))));
        assert!(err.is_err());
    }

    #[test]
    fn command_rings_are_rejected() {
        let err = PureFn::compile(Arc::new(Ring::command(vec![])));
        assert_eq!(err.err(), Some(EvalError::NotAReporter));
    }

    #[test]
    fn mod_takes_sign_of_divisor() {
        assert_eq!(
            eval_binop(BinOp::Mod, &Value::Number(-7.0), &Value::Number(3.0)),
            Value::Number(2.0)
        );
        assert_eq!(
            eval_binop(BinOp::Mod, &Value::Number(7.0), &Value::Number(-3.0)),
            Value::Number(-2.0)
        );
    }

    #[test]
    fn numbers_from_to_counts_both_ways() {
        assert_eq!(
            super::numbers_from_to(1.0, 4.0),
            Ok(Value::number_list([1.0, 2.0, 3.0, 4.0]))
        );
        assert_eq!(
            super::numbers_from_to(3.0, 1.0),
            Ok(Value::number_list([3.0, 2.0, 1.0]))
        );
    }

    /// The numbers of `numbers from a to b`, checking the list is numeric.
    fn range(a: f64, b: f64) -> Vec<f64> {
        let list = super::numbers_from_to(a, b).unwrap();
        let list = list.as_list().unwrap();
        assert!(list.is_numeric(), "{a} to {b} is boxed");
        list.to_vec().iter().map(Value::to_number).collect()
    }

    #[test]
    fn numbers_from_to_equal_bounds_give_one_item() {
        assert_eq!(range(2.0, 2.0), vec![2.0]);
        assert_eq!(range(-0.5, -0.5), vec![-0.5]);
        assert_eq!(range(1e16, 1e16), vec![1e16]);
    }

    #[test]
    fn numbers_from_to_steps_a_fractional_start_by_one() {
        assert_eq!(range(0.5, 3.0), vec![0.5, 1.5, 2.5]);
        assert_eq!(range(3.5, 1.0), vec![3.5, 2.5, 1.5]);
        assert_eq!(range(0.25, 0.75), vec![0.25]);
        // The end is not reached: the list stops at the last step within it.
        assert_eq!(range(0.5, 0.25), vec![0.5]);
    }

    #[test]
    fn numbers_from_to_stops_within_a_fractional_end() {
        assert_eq!(range(1.0, 3.9), vec![1.0, 2.0, 3.0]);
        assert_eq!(range(1.0, -0.5), vec![1.0, 0.0]);
        assert_eq!(range(-1.0, -3.5), vec![-1.0, -2.0, -3.0]);
        assert_eq!(range(-2.0, 0.5), vec![-2.0, -1.0, 0.0]);
    }

    #[test]
    fn numbers_from_to_refuses_a_count_past_the_budget_either_way() {
        let too_long = Err(EvalError::ListTooLong {
            limit: MAX_LIST_ITEMS,
        });
        let budget = MAX_LIST_ITEMS as f64;
        assert_eq!(super::numbers_from_to(0.0, budget), too_long);
        assert_eq!(super::numbers_from_to(0.0, -budget), too_long);
        assert_eq!(super::numbers_from_to(-1e15, 1e15), too_long);
        assert_eq!(
            super::numbers_from_to(0.0, 1e300).unwrap_err().to_string(),
            format!("a list of more than {MAX_LIST_ITEMS} items is too long to build")
        );
    }

    /// `ring(xs) = combine xs using inner`.
    fn combine_with(inner: crate::expr::RingExpr) -> PureFn {
        PureFn::compile(Arc::new(Ring::reporter_with_params(
            vec!["xs".into()],
            Expr::Combine {
                list: Box::new(var("xs")),
                ring: Box::new(Expr::Ring(inner)),
            },
        )))
        .unwrap()
    }

    #[test]
    fn combine_folds_left_in_order_in_both_forms() {
        let f = combine_with(crate::expr::RingExpr::reporter(sub(
            empty_slot(),
            empty_slot(),
        )));
        let numbers = [10.0, 1.0, 2.0, 3.0];
        let boxed = List::boxed(numbers.iter().map(|&n| n.into()).collect());
        for list in [List::from_numbers(numbers.to_vec()), boxed] {
            assert_eq!(f.call1(Value::List(list)).unwrap(), Value::Number(4.0));
        }
    }

    #[test]
    fn combine_of_one_item_reports_it_without_a_call() {
        // `x / 0` would make any call report infinity or NaN.
        let f = combine_with(crate::expr::RingExpr::reporter(div(empty_slot(), num(0.0))));
        let one = f.call1(Value::number_list([-0.0])).unwrap();
        assert_eq!(one.to_number().to_bits(), (-0.0f64).to_bits());
        assert_eq!(f.call1(Value::list(vec!["x".into()])).unwrap(), "x".into());
    }

    #[test]
    fn combine_over_numbers_with_a_text_ring_walks_each_step() {
        // `join` reports text, so the ring has no numeric program.
        let f = combine_with(crate::expr::RingExpr::reporter(crate::builder::join(vec![
            empty_slot(),
            empty_slot(),
        ])));
        assert_eq!(
            f.call1(Value::number_list([1.0, 2.0, 3.0])).unwrap(),
            Value::text("123")
        );
    }

    #[test]
    fn combine_over_a_counted_range_sums_it() {
        let sum = Expr::Ring(crate::expr::RingExpr::reporter(add(
            empty_slot(),
            empty_slot(),
        )));
        let f = PureFn::compile(Arc::new(Ring::reporter_with_params(
            vec!["n".into()],
            Expr::Combine {
                list: Box::new(crate::builder::numbers_from_to(num(1.0), var("n"))),
                ring: Box::new(sum),
            },
        )))
        .unwrap();
        assert_eq!(f.call1(100.into()).unwrap(), Value::Number(5050.0));
        assert_eq!(
            f.call1(1e12.into()),
            Err(EvalError::ListTooLong {
                limit: MAX_LIST_ITEMS
            })
        );
    }

    #[test]
    fn nested_map_inside_ring_is_pure() {
        // map over a list inside a ring: ring(xs) = map (()×2) over xs
        let inner = Expr::Ring(crate::expr::RingExpr::reporter(mul(empty_slot(), num(2.0))));
        let f = PureFn::compile(Arc::new(Ring::reporter_with_params(
            vec!["xs".into()],
            Expr::Map {
                ring: Box::new(inner),
                list: Box::new(var("xs")),
            },
        )))
        .unwrap();
        let out = f.call1(Value::number_list([1.0, 2.0])).unwrap();
        assert_eq!(out, Value::number_list([2.0, 4.0]));
    }

    #[test]
    fn combine_folds_left() {
        let f = PureFn::compile(Arc::new(Ring::reporter_with_params(
            vec!["xs".into()],
            Expr::Combine {
                list: Box::new(var("xs")),
                ring: Box::new(Expr::Ring(crate::expr::RingExpr::reporter(add(
                    empty_slot(),
                    empty_slot(),
                )))),
            },
        )))
        .unwrap();
        assert_eq!(
            f.call1(Value::number_list([1.0, 2.0, 3.0, 4.0])).unwrap(),
            Value::Number(10.0)
        );
        // Empty list combines to 0.
        assert_eq!(f.call1(Value::number_list([])).unwrap(), Value::Number(0.0));
    }

    #[test]
    fn split_and_join_roundtrip() {
        let f = PureFn::compile(Arc::new(Ring::reporter_with_params(
            vec!["s".into()],
            Expr::Split(Box::new(var("s")), Box::new(text(" "))),
        )))
        .unwrap();
        let out = f.call1("the quick fox".into()).unwrap();
        assert_eq!(
            out,
            Value::list(vec!["the".into(), "quick".into(), "fox".into()])
        );
    }

    #[test]
    fn compile_cache_returns_same_function_for_same_ring() {
        let ring = Arc::new(Ring::reporter(add(empty_slot(), num(1.0))));
        let (hits_before, _) = compile_cache_stats();
        let first = compile_cached(&ring).unwrap();
        let second = compile_cached(&ring).unwrap();
        assert!(
            Arc::ptr_eq(first.ring(), second.ring()),
            "both compilations must share the ring"
        );
        let (hits_after, _) = compile_cache_stats();
        assert!(
            hits_after > hits_before,
            "second compile of the same Arc must hit the cache"
        );
    }

    #[test]
    fn compile_cache_distinguishes_distinct_rings() {
        // Structurally identical but distinct Arcs: identity-keyed, so
        // each compiles (and caches) separately.
        let a = Arc::new(Ring::reporter(add(empty_slot(), num(2.0))));
        let b = Arc::new(Ring::reporter(add(empty_slot(), num(2.0))));
        let fa = compile_cached(&a).unwrap();
        let fb = compile_cached(&b).unwrap();
        assert!(!Arc::ptr_eq(fa.ring(), fb.ring()));
        assert_eq!(fa.call1(1.into()).unwrap(), fb.call1(1.into()).unwrap());
    }

    #[test]
    fn compile_cache_rejects_impure_rings_uncached() {
        let ring = Arc::new(Ring::reporter(pick_random(num(1.0), num(6.0))));
        assert!(compile_cached(&ring).is_err());
        assert!(
            compile_cached(&ring).is_err(),
            "failure is re-derived, not cached"
        );
    }

    #[test]
    fn compile_cache_sweeps_dead_entries_periodically() {
        // Dead Weak entries must not accumulate without bound even when
        // the cache never reaches COMPILE_CACHE_CAP: the periodic sweep
        // (every COMPILE_CACHE_SWEEP_INTERVAL insertions) evicts them.
        let before = compile_cache_total_len();
        for i in 0..(8 * COMPILE_CACHE_SWEEP_INTERVAL) {
            let ring = Arc::new(Ring::reporter(add(empty_slot(), num(i as f64))));
            let _ = compile_cached(&ring).unwrap();
            // `ring` drops here, leaving a dead Weak in the cache.
        }
        let after = compile_cache_total_len();
        // Other tests may insert live entries concurrently (the cache is
        // global), so allow slack — but nowhere near the 512 dead rings
        // inserted above.
        assert!(
            after <= before + COMPILE_CACHE_SWEEP_INTERVAL + 64,
            "dead entries accumulated: {before} -> {after}"
        );
    }

    #[test]
    fn compile_cache_slot_cannot_alias_recycled_ring_address() {
        // Regression: the cache is keyed by Arc address. If ring A is
        // dropped and ring B happens to be allocated at the same address,
        // B must NOT be served A's compiled function. The stored Weak
        // guards this (upgrade + ptr_eq); provoke an address reuse to
        // prove it.
        for _ in 0..512 {
            let a = Arc::new(Ring::reporter(add(empty_slot(), num(1.0))));
            let addr = Arc::as_ptr(&a) as usize;
            let fa = compile_cached(&a).unwrap();
            assert_eq!(fa.call1(2.into()).unwrap(), Value::Number(3.0));
            drop(fa);
            drop(a);
            let b = Arc::new(Ring::reporter(mul(empty_slot(), num(3.0))));
            if Arc::as_ptr(&b) as usize == addr {
                // Address recycled: a stale hit would compute 2 + 1 = 3.
                let fb = compile_cached(&b).unwrap();
                assert_eq!(
                    fb.call1(2.into()).unwrap(),
                    Value::Number(6.0),
                    "cache served the dropped ring's function for a \
                     recycled address"
                );
                return;
            }
        }
        // The allocator never reused the address: nothing to assert, the
        // guard simply was not exercised on this run.
    }

    #[test]
    fn strategy_dispatch_matches_lowering() {
        // Pure arithmetic → unboxed numeric fast path.
        let numeric = PureFn::compile(Arc::new(Ring::reporter(add(
            mul(empty_slot(), num(2.0)),
            num(1.0),
        ))))
        .unwrap();
        assert_eq!(numeric.strategy(), CompiledStrategy::Numeric);
        // List-producing ring → tree walk (no numeric root).
        let list = PureFn::compile(Arc::new(Ring::reporter(make_list(vec![
            empty_slot(),
            num(1.0),
        ]))))
        .unwrap();
        assert_eq!(list.strategy(), CompiledStrategy::TreeWalk);
        // Higher-order ring → tree walk.
        let tree = PureFn::compile(Arc::new(Ring::reporter(map_over(
            ring_reporter(add(empty_slot(), num(1.0))),
            empty_slot(),
        ))))
        .unwrap();
        assert_eq!(tree.strategy(), CompiledStrategy::TreeWalk);
    }

    #[test]
    fn list_literals_materialize_fresh_storage() {
        let f = PureFn::compile(Arc::new(Ring::reporter(Expr::Literal(
            crate::Constant::List(vec![1.into()]),
        ))))
        .unwrap();
        let a = f.call(&[]).unwrap();
        let b = f.call(&[]).unwrap();
        a.as_list().unwrap().add(2.into());
        assert_eq!(b.as_list().unwrap().len(), 1);
    }

    #[test]
    fn captured_lists_share_storage_across_calls() {
        // Each call clones the captured binding — which shares list
        // storage rather than copying it.
        let shared = Value::list(vec![1.into()]);
        let ring = Ring::reporter(var("xs")).with_captured(vec![("xs".into(), shared.clone())]);
        let f = PureFn::compile(Arc::new(ring)).unwrap();
        let out = f.call(&[]).unwrap();
        assert!(out
            .as_list()
            .unwrap()
            .same_identity(shared.as_list().unwrap()));
    }

    #[test]
    fn parameters_bind_by_position_and_nested_rings_close_over_them() {
        // Duplicate names: the last one wins.
        let dup = PureFn::compile(Arc::new(Ring::reporter_with_params(
            vec!["x".into(), "x".into()],
            make_list(vec![var("x")]),
        )))
        .unwrap();
        assert_eq!(
            dup.call(&["first".into(), "second".into()]).unwrap(),
            Value::list(vec!["second".into()])
        );
        // A nested ring captures the outer ring's captured values and
        // its parameters: ring(a) = call (ring(b) = [base, a, b]) with 3.
        let inner = crate::expr::RingExpr {
            params: vec!["b".into()],
            body: RingExprBody::Reporter(Box::new(make_list(vec![
                var("base"),
                var("a"),
                var("b"),
            ]))),
        };
        let outer = Ring::reporter_with_params(
            vec!["a".into()],
            Expr::CallRing(Box::new(Expr::Ring(inner)), vec![num(3.0)]),
        )
        .with_captured(vec![("base".into(), "cap".into())]);
        let f = PureFn::compile(Arc::new(outer)).unwrap();
        assert_eq!(
            f.call(&[2.into()]).unwrap(),
            Value::list(vec!["cap".into(), 2.into(), 3.into()])
        );
        // The arity check still guards the bindings.
        assert_eq!(
            f.call(&[]),
            Err(EvalError::ArityMismatch {
                expected: 1,
                got: 0
            })
        );
        assert_eq!(f.call(&[]), f.call_treewalk(&[]));
    }

    #[test]
    fn compiled_paths_agree_with_treewalk_oracle() {
        let f = PureFn::compile(Arc::new(Ring::reporter(add(
            mul(empty_slot(), num(10.0)),
            num(0.5),
        ))))
        .unwrap();
        assert_eq!(f.strategy(), CompiledStrategy::Numeric);
        for v in [
            Value::Number(3.25),
            Value::Number(f64::NAN),
            Value::Text("  7 ".into()),
            Value::Bool(true),
            Value::Nothing,
            Value::list(vec![1.into()]),
        ] {
            let fast = f.call1(v.clone()).unwrap();
            let slow = f.call_treewalk(std::slice::from_ref(&v)).unwrap();
            match (&fast, &slow) {
                (Value::Number(x), Value::Number(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "input {v:?}")
                }
                _ => assert_eq!(fast, slow, "input {v:?}"),
            }
        }
    }
}
