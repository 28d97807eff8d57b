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

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use crate::bytecode::{self, num_binop, num_unop, NumProgram, PairProgram};
use crate::error::EvalError;
use crate::expr::{BinOp, Expr, RingExprBody, UnOp};
use crate::ring::{Ring, RingBody};
use crate::value::{List, Value};

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

    /// Apply the function to `args`.
    ///
    /// Binding rules match Snap!: named formal parameters bind
    /// positionally; with no formals, **empty slots** receive the
    /// arguments left to right, and when exactly one argument is supplied
    /// it fills *every* empty slot (this is how `map (( ) × 10)` works).
    ///
    /// Dispatches to the numeric program when there is one; results are
    /// bit-for-bit those of [`PureFn::call_treewalk`] (enforced by the
    /// differential suite).
    pub fn call(&self, args: &[Value]) -> Result<Value, EvalError> {
        match &self.compiled {
            Compiled::Numeric(p) => {
                snap_trace::well_known::RING_FASTPATH_CALLS.incr();
                p.call(args)
            }
            Compiled::TreeWalk(_) => {
                snap_trace::well_known::RING_TREEWALK_CALLS.incr();
                self.call_treewalk(args)
            }
        }
    }

    /// Apply via the tree-walking evaluator, bypassing any compiled
    /// program — the reference semantics every compiled path must match
    /// (the oracle of the differential tests, and the body of
    /// [`PureFn::call`] for rings the numeric pass declines).
    pub fn call_treewalk(&self, args: &[Value]) -> Result<Value, EvalError> {
        let expr = match &self.ring.body {
            RingBody::Reporter(e) | RingBody::Predicate(e) => e,
            RingBody::Command(_) => return Err(EvalError::NotAReporter),
        };
        let mut ctx = PureCtx::for_ring(&self.ring, args)?;
        ctx.eval(expr)
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
    /// not batchable, so callers fall back to per-element [`call1`].
    ///
    /// Each element is treated exactly as `call1(Value::Number(x))`
    /// treats its argument; results are bit-identical to the scalar fast
    /// path and the tree walk (-0.0/±inf/subnormals included; NaN
    /// payload bits excepted — see [`NumProgram::eval_batch`]). Numeric
    /// programs cannot raise: arity was proven compatible, so the only
    /// scalar failure mode (`ArityMismatch`) is impossible here.
    pub fn eval_batch(&self, inputs: &[f64], out: &mut Vec<f64>) -> bool {
        match &self.compiled {
            Compiled::Numeric(p) if p.batchable() => {
                snap_trace::well_known::RING_BATCH_CALLS.incr();
                snap_trace::well_known::RING_BATCH_ELEMS.add(inputs.len() as u64);
                p.eval_batch(inputs, out);
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
/// [`COMPILE_CACHE_SWEEP_INTERVAL`] insertions, or when the cache hits
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

/// Evaluation context: the ring's parameters bound (by position) to the
/// call's arguments, plus the empty-slot argument cursor. Everything is
/// borrowed — a call allocates nothing for its bindings.
struct PureCtx<'a> {
    /// Formal parameter names; `params[i]` binds `args[i]`. Empty for
    /// slot-style rings.
    params: &'a [String],
    /// The call's arguments: parameter values and empty-slot fillers.
    args: &'a [Value],
    /// Captured environment of the ring being applied.
    captured: &'a [(String, Value)],
    /// Next slot argument to consume.
    slot_cursor: usize,
}

impl<'a> PureCtx<'a> {
    fn for_ring(ring: &'a Ring, args: &'a [Value]) -> Result<PureCtx<'a>, EvalError> {
        if !ring.params.is_empty() && ring.params.len() != args.len() {
            return Err(EvalError::ArityMismatch {
                expected: ring.params.len(),
                got: args.len(),
            });
        }
        Ok(PureCtx {
            params: &ring.params,
            args,
            captured: &ring.captured,
            slot_cursor: 0,
        })
    }

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

    fn next_slot_arg(&mut self) -> Value {
        if self.args.is_empty() {
            return Value::Nothing;
        }
        if self.args.len() == 1 {
            // Snap!: a single argument fills every empty slot.
            return self.args[0].clone();
        }
        let v = self
            .args
            .get(self.slot_cursor)
            .cloned()
            .unwrap_or(Value::Nothing);
        self.slot_cursor += 1;
        v
    }

    fn expect_list(v: Value) -> Result<List, EvalError> {
        match v {
            Value::List(l) => Ok(l),
            other => Err(EvalError::TypeMismatch {
                expected: "list",
                got: other.to_display_string(),
            }),
        }
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, EvalError> {
        match expr {
            Expr::Literal(c) => Ok(c.to_value()),
            Expr::MakeList(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item)?);
                }
                Ok(Value::list(out))
            }
            Expr::Var(name) => self.lookup(name),
            Expr::EmptySlot => Ok(self.next_slot_arg()),
            Expr::Binary(op, a, b) => {
                let a = self.eval(a)?;
                let b = self.eval(b)?;
                Ok(eval_binop(*op, &a, &b))
            }
            Expr::Unary(op, a) => {
                let a = self.eval(a)?;
                Ok(eval_unop(*op, &a))
            }
            Expr::Item(index, list) => {
                let idx = self.eval(index)?.to_number();
                let list = Self::expect_list(self.eval(list)?)?;
                let i = idx as usize;
                list.item(i).ok_or(EvalError::IndexOutOfRange {
                    index: i,
                    len: list.len(),
                })
            }
            Expr::LengthOf(list) => {
                let list = Self::expect_list(self.eval(list)?)?;
                Ok(Value::Number(list.len() as f64))
            }
            Expr::Contains(list, value) => {
                let list = Self::expect_list(self.eval(list)?)?;
                let value = self.eval(value)?;
                Ok(Value::Bool(list.contains(&value)))
            }
            Expr::Join(parts) => {
                let mut out = String::new();
                for part in parts {
                    out.push_str(&self.eval(part)?.to_display_string());
                }
                Ok(Value::Text(out))
            }
            Expr::Split(text, delim) => {
                let text = self.eval(text)?.to_display_string();
                let delim = self.eval(delim)?.to_display_string();
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
                let i = self.eval(index)?.to_number() as usize;
                let text = self.eval(text)?.to_display_string();
                let letter = text
                    .chars()
                    .nth(i.saturating_sub(1))
                    .map(|c| c.to_string())
                    .unwrap_or_default();
                Ok(Value::Text(letter))
            }
            Expr::TextLength(text) => {
                let text = self.eval(text)?.to_display_string();
                Ok(Value::Number(text.chars().count() as f64))
            }
            Expr::NumbersFromTo(a, b) => {
                let a = self.eval(a)?.to_number();
                let b = self.eval(b)?.to_number();
                Ok(numbers_from_to(a, b))
            }
            Expr::Ring(ring_expr) => {
                // A nested ring closes over the current bindings.
                let mut captured: Vec<(String, Value)> = self.captured.to_vec();
                captured.extend(self.params.iter().cloned().zip(self.args.iter().cloned()));
                let body = match &ring_expr.body {
                    RingExprBody::Reporter(e) => RingBody::Reporter((**e).clone()),
                    RingExprBody::Predicate(e) => RingBody::Predicate((**e).clone()),
                    RingExprBody::Command(s) => RingBody::Command(s.clone()),
                };
                Ok(Value::Ring(Arc::new(Ring {
                    params: ring_expr.params.clone(),
                    body,
                    captured,
                })))
            }
            Expr::CallRing(ring, args) => {
                let ring_value = self.eval(ring)?;
                let ring = ring_value.as_ring().ok_or(EvalError::TypeMismatch {
                    expected: "ring",
                    got: ring_value.to_display_string(),
                })?;
                let mut arg_values = Vec::with_capacity(args.len());
                for arg in args {
                    arg_values.push(self.eval(arg)?);
                }
                PureFn::compile(ring.clone())?.call(&arg_values)
            }
            Expr::Map { ring, list } | Expr::ParallelMap { ring, list, .. } => {
                // In a pure context, parallelMap degrades to a sequential
                // map — the same degradation Snap! performs when no
                // workers are available.
                let f = self.eval_ring_arg(ring)?;
                let list = Self::expect_list(self.eval(list)?)?;
                let mut out = Vec::with_capacity(list.len());
                for item in list.to_vec() {
                    out.push(f.call1(item)?);
                }
                Ok(Value::list(out))
            }
            Expr::Keep { pred, list } => {
                let f = self.eval_ring_arg(pred)?;
                let list = Self::expect_list(self.eval(list)?)?;
                let mut out = Vec::new();
                for item in list.to_vec() {
                    if f.call1(item.clone())?.to_bool() {
                        out.push(item);
                    }
                }
                Ok(Value::list(out))
            }
            Expr::Combine { list, ring } => {
                let f = self.eval_ring_arg(ring)?;
                let list = Self::expect_list(self.eval(list)?)?;
                let items = list.to_vec();
                match items.split_first() {
                    None => Ok(Value::Number(0.0)),
                    Some((first, rest)) => {
                        let mut acc = first.clone();
                        for item in rest {
                            acc = f.call(&[acc, item.clone()])?;
                        }
                        Ok(acc)
                    }
                }
            }
            Expr::MapReduce { .. } => Err(EvalError::NotPure("mapReduce")),
            Expr::PickRandom(_, _) => Err(EvalError::NotPure("pick random")),
            Expr::Attribute(_) => Err(EvalError::NotPure("attribute reporter")),
            Expr::CallCustom(name, _) => Err(EvalError::UnknownCustomBlock(name.clone())),
        }
    }

    /// Evaluate an expression that must produce a reporter ring, and
    /// compile it.
    fn eval_ring_arg(&mut self, expr: &Expr) -> Result<PureFn, EvalError> {
        let v = self.eval(expr)?;
        let ring = v.as_ring().ok_or(EvalError::TypeMismatch {
            expected: "ring",
            got: v.to_display_string(),
        })?;
        PureFn::compile(ring.clone())
    }
}

/// `numbers from a to b`, counting down when `a > b` like Snap!.
pub fn numbers_from_to(a: f64, b: f64) -> Value {
    let mut out = Vec::new();
    if a <= b {
        let mut x = a;
        while x <= b {
            out.push(Value::Number(x));
            x += 1.0;
        }
    } else {
        let mut x = a;
        while x >= b {
            out.push(Value::Number(x));
            x -= 1.0;
        }
    }
    Value::list(out)
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
            Value::number_list([1.0, 2.0, 3.0, 4.0])
        );
        assert_eq!(
            super::numbers_from_to(3.0, 1.0),
            Value::number_list([3.0, 2.0, 1.0])
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
