//! Ring bytecode: flat, register-based programs compiled from numeric
//! rings.
//!
//! The tree-walking evaluator in [`crate::pure`] re-dispatches on the
//! `Expr` enum and re-resolves names on *every item* of a parallel map.
//! This module is the next step of the paper's `mappedCode()` →
//! `new Function(...)` pipeline (§4.1, Listing 2): a numeric ring is
//! lowered **once** into a linear instruction stream over
//! single-assignment `f64` registers, with parameters, empty slots, and
//! captured variables resolved to register loads at compile time.
//!
//! A cheap type pass proves the ring numeric: every argument use sits in
//! a position the evaluator coerces with `to_number`, and the root always
//! produces a `Value::Number`. Then [`NumProgram::call`] (the scalar
//! path) and [`NumProgram::eval_batch_into`] (the columnar batch tier,
//! writing into a caller's slice) run the whole body on a
//! stack-allocated `f64` register file with zero heap traffic per call.
//! [`NumProgram::fold`] runs `combine`'s left fold; a program that is one
//! arithmetic op over its two inputs, the shape of every `combine` ring
//! in the paper, folds as that op alone, dispatched once outside the
//! loop, and every other program folds on the register machine.
//!
//! Every ring [`lower`] declines — non-numeric roots (comparisons,
//! text, lists), higher-order or non-strict blocks, unbound variables,
//! and rings wider than the register file — runs on the tree walk of
//! [`crate::pure::PureFn`], which also serves as the differential-testing
//! oracle for the compiled paths. A MapReduce mapper whose body is a
//! `[key, value]` list literal also lowers, half by half, to a
//! [`PairProgram`] ([`lower_pair`]), which MapReduce runs as columns.
//!
//! Constant folding happens during lowering: literals, captured
//! variables (immutable for the life of a ring), and operator nodes
//! whose operands folded are evaluated at compile time with the same
//! [`num_binop`] / [`num_unop`] the interpreter uses, so folded results
//! cannot diverge from unfolded ones.

use crate::constant::Constant;
use crate::error::EvalError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::ring::{Ring, RingBody};
use crate::value::Value;

/// The unboxed arithmetic core shared by [`crate::pure::eval_binop`] and the numeric
/// fast path: the `f64` result for the arithmetic operators, `None` for
/// comparison/logic/equality operators (those need full Snap! value
/// semantics). Keeping one definition is what makes the fast path
/// bit-for-bit faithful to the interpreter.
#[inline]
pub fn num_binop(op: BinOp, x: f64, y: f64) -> Option<f64> {
    Some(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        // Snap!'s mod: result takes the sign of the divisor.
        BinOp::Mod => x - y * (x / y).floor(),
        BinOp::Pow => x.powf(y),
        _ => return None,
    })
}

/// The unboxed core of [`crate::pure::eval_unop`] (see [`num_binop`]); `None` for
/// `not`, the only non-numeric unary block.
#[inline]
pub fn num_unop(op: UnOp, x: f64) -> Option<f64> {
    Some(match op {
        UnOp::Neg => -x,
        UnOp::Abs => x.abs(),
        UnOp::Sqrt => x.sqrt(),
        UnOp::Round => x.round(),
        UnOp::Floor => x.floor(),
        UnOp::Ceil => x.ceil(),
        UnOp::Sin => x.to_radians().sin(),
        UnOp::Cos => x.to_radians().cos(),
        UnOp::Ln => x.ln(),
        UnOp::Exp => x.exp(),
        UnOp::Not => return None,
    })
}

/// Register index. Lowering never needs more than [`NUM_STACK_REGS`].
type Reg = u16;

/// One numeric-fast-path instruction over `f64` registers.
#[derive(Debug, Clone, Copy)]
enum NumInstr {
    /// Immediate → `dst`.
    Const(f64, Reg),
    /// `args[src].to_number()` → `dst`.
    Arg(u16, Reg),
    /// `slot_value(args, src).to_number()` → `dst`.
    Slot(u16, Reg),
    /// Arithmetic op (see [`num_binop`]) → `dst`.
    Bin(BinOp, Reg, Reg, Reg),
    /// Numeric unary op (see [`num_unop`]) → `dst`.
    Un(UnOp, Reg, Reg),
}

/// Register-file width of the numeric fast path. Numeric lowering
/// *declines* programs wider than this (they run on the tree walk), so
/// both [`NumProgram::call`] and [`NumProgram::eval_batch_into`] run on
/// fixed-size stack arrays with no heap branch.
const NUM_STACK_REGS: usize = 32;

/// Elements per batch block in [`NumProgram::eval_batch_into`]. The register
/// file is `NUM_STACK_REGS × BATCH_LANES` `f64`s (16 KiB) — small enough
/// for worker stacks, wide enough that the lane loops amortize the
/// per-instruction dispatch and autovectorize.
pub const BATCH_LANES: usize = 64;

/// A lowered ring body proven numeric: executes entirely in unboxed
/// `f64` registers and always reports a `Value::Number`.
#[derive(Debug)]
pub struct NumProgram {
    arity: Option<usize>,
    instrs: Vec<NumInstr>,
    regs: usize,
    out: Reg,
}

/// One lane loop of a batch binary op. Dispatching on `op` **once**,
/// outside the element loop, is what lets the optimizer turn each arm's
/// plain indexed loop into SIMD; every arm still computes through
/// [`num_binop`], so batch results cannot diverge from the scalar path.
#[inline]
fn batch_binop(op: BinOp, a: &[f64], b: &[f64], dst: &mut [f64]) {
    #[inline(always)]
    fn lanes(a: &[f64], b: &[f64], dst: &mut [f64], f: impl Fn(f64, f64) -> f64) {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = f(x, y);
        }
    }
    // One macro expansion per arm: each closure is a distinct type, so
    // every operator gets its own monomorphized lane loop with the op
    // folded to a constant.
    macro_rules! arm {
        ($op:expr) => {
            lanes(a, b, dst, |x, y| num_binop($op, x, y).expect("arith op"))
        };
    }
    match op {
        BinOp::Add => arm!(BinOp::Add),
        BinOp::Sub => arm!(BinOp::Sub),
        BinOp::Mul => arm!(BinOp::Mul),
        BinOp::Div => arm!(BinOp::Div),
        BinOp::Mod => arm!(BinOp::Mod),
        BinOp::Pow => arm!(BinOp::Pow),
        _ => unreachable!("non-arithmetic op in a numeric program"),
    }
}

/// The left fold `acc = acc op x` from `first` over `rest` (`x op acc`
/// when `swapped`), with `op` dispatched once, outside the loop, as
/// [`batch_binop`] does; each step is the [`num_binop`] the register
/// machine would run.
fn fold_binop(op: BinOp, swapped: bool, first: f64, rest: &[f64]) -> f64 {
    #[inline(always)]
    fn steps(first: f64, rest: &[f64], f: impl Fn(f64, f64) -> f64) -> f64 {
        rest.iter().fold(first, |acc, &x| f(acc, x))
    }
    macro_rules! arm {
        ($op:expr) => {
            if swapped {
                steps(first, rest, |acc, x| {
                    num_binop($op, x, acc).expect("arith op")
                })
            } else {
                steps(first, rest, |acc, x| {
                    num_binop($op, acc, x).expect("arith op")
                })
            }
        };
    }
    match op {
        BinOp::Add => arm!(BinOp::Add),
        BinOp::Sub => arm!(BinOp::Sub),
        BinOp::Mul => arm!(BinOp::Mul),
        BinOp::Div => arm!(BinOp::Div),
        BinOp::Mod => arm!(BinOp::Mod),
        BinOp::Pow => arm!(BinOp::Pow),
        _ => unreachable!("non-arithmetic op in a numeric program"),
    }
}

/// One lane loop of a batch unary op (see [`batch_binop`]).
#[inline]
fn batch_unop(op: UnOp, a: &[f64], dst: &mut [f64]) {
    #[inline(always)]
    fn lanes(a: &[f64], dst: &mut [f64], f: impl Fn(f64) -> f64) {
        for (d, &x) in dst.iter_mut().zip(a) {
            *d = f(x);
        }
    }
    macro_rules! arm {
        ($op:expr) => {
            lanes(a, dst, |x| num_unop($op, x).expect("numeric op"))
        };
    }
    match op {
        UnOp::Neg => arm!(UnOp::Neg),
        UnOp::Abs => arm!(UnOp::Abs),
        UnOp::Sqrt => arm!(UnOp::Sqrt),
        UnOp::Round => arm!(UnOp::Round),
        UnOp::Floor => arm!(UnOp::Floor),
        UnOp::Ceil => arm!(UnOp::Ceil),
        UnOp::Sin => arm!(UnOp::Sin),
        UnOp::Cos => arm!(UnOp::Cos),
        UnOp::Ln => arm!(UnOp::Ln),
        UnOp::Exp => arm!(UnOp::Exp),
        UnOp::Not => unreachable!("non-numeric op in a numeric program"),
    }
}

impl NumProgram {
    /// Execute against `args`, reproducing `PureFn::call` exactly.
    pub fn call(&self, args: &[Value]) -> Result<Value, EvalError> {
        if let Some(expected) = self.arity {
            if args.len() != expected {
                return Err(EvalError::ArityMismatch {
                    expected,
                    got: args.len(),
                });
            }
        }
        Ok(Value::Number(self.run(args)))
    }

    /// [`NumProgram::call`] on the single argument `arg`, unboxed. Only
    /// for [`NumProgram::batchable`] programs, which take one argument,
    /// so the arity check `call` makes cannot fail.
    pub fn call1_f64(&self, arg: &Value) -> f64 {
        debug_assert!(self.batchable(), "call1_f64 on a multi-argument program");
        self.run(std::slice::from_ref(arg))
    }

    /// The register machine behind [`NumProgram::call`], past its arity
    /// check.
    fn run(&self, args: &[Value]) -> f64 {
        // Lowering declines programs wider than NUM_STACK_REGS, so the
        // register file is always this fixed stack array.
        let mut stack = [0.0f64; NUM_STACK_REGS];
        self.exec(
            &mut stack,
            |i| args[i as usize].to_number(),
            |i| match args.len() {
                0 => 0.0,
                1 => args[0].to_number(),
                _ => args.get(i as usize).map(Value::to_number).unwrap_or(0.0),
            },
        )
    }

    /// `combine`'s left fold over `items`, in one pass: the result of
    /// `acc = call(&[Number(acc), Number(item)])` from the first item on,
    /// bit for bit, since `to_number` of a `Number` is the identity and
    /// the same [`num_binop`]s run in the same order. `None` for an
    /// empty slice, or when the program does not take two inputs (a
    /// named arity other than 2), where `call` would raise.
    ///
    /// A program that is one arithmetic op over its two inputs folds as
    /// `acc = num_binop(op, acc, item)` (or `(op, item, acc)` when the
    /// ring names its inputs the other way round), with `op` dispatched
    /// once outside the loop: the same op on the same operands as the
    /// register machine's one step, without its loads. NaN payloads are
    /// the one exemption, as in [`NumProgram::eval_batch_into`]: when a
    /// NaN meets a NaN at `+` or `×`, operand order picks the payload,
    /// and the optimizer may commute `item + acc` in this loop.
    pub fn fold(&self, items: &[f64]) -> Option<f64> {
        if !matches!(self.arity, None | Some(2)) {
            return None;
        }
        let (&first, rest) = items.split_first()?;
        if let Some((op, swapped)) = self.one_op() {
            return Some(fold_binop(op, swapped, first, rest));
        }
        // Registers are written before they are read, so one file serves
        // every step.
        let mut stack = [0.0f64; NUM_STACK_REGS];
        Some(rest.iter().fold(first, |acc, &item| {
            let args = [acc, item];
            self.exec(
                &mut stack,
                |i| args[i as usize],
                |i| args.get(i as usize).copied().unwrap_or(0.0),
            )
        }))
    }

    /// `Some((op, swapped))` when, called with two inputs, the program
    /// reports `input0 op input1`, or `input1 op input0` when `swapped`:
    /// two loads, one of each input, and one arithmetic op over them.
    fn one_op(&self) -> Option<(BinOp, bool)> {
        let [first, second, NumInstr::Bin(op, a, b, dst)] = *self.instrs.as_slice() else {
            return None;
        };
        // On two inputs, parameter `i` and own empty slot `i` both read
        // input `i`; a third slot reads nothing.
        let input = |reg: Reg| {
            [first, second].into_iter().find_map(|load| match load {
                NumInstr::Arg(i, to) | NumInstr::Slot(i, to) if to == reg && i < 2 => Some(i),
                _ => None,
            })
        };
        match (input(a)?, input(b)?, dst == self.out) {
            (0, 1, true) => Some((op, false)),
            (1, 0, true) => Some((op, true)),
            _ => None,
        }
    }

    /// Run the program on the register file `stack`, loading parameter
    /// `i` with `arg(i)` and own empty slot `i` with `slot(i)`.
    #[inline(always)]
    fn exec(
        &self,
        stack: &mut [f64; NUM_STACK_REGS],
        arg: impl Fn(u16) -> f64,
        slot: impl Fn(u16) -> f64,
    ) -> f64 {
        debug_assert!(self.regs <= NUM_STACK_REGS);
        let regs: &mut [f64] = &mut stack[..self.regs];
        for instr in &self.instrs {
            match *instr {
                NumInstr::Const(v, dst) => regs[dst as usize] = v,
                NumInstr::Arg(i, dst) => regs[dst as usize] = arg(i),
                NumInstr::Slot(i, dst) => regs[dst as usize] = slot(i),
                NumInstr::Bin(op, a, b, dst) => {
                    let (x, y) = (regs[a as usize], regs[b as usize]);
                    regs[dst as usize] = num_binop(op, x, y).expect("arith op");
                }
                NumInstr::Un(op, a, dst) => {
                    let x = regs[a as usize];
                    regs[dst as usize] = num_unop(op, x).expect("numeric op");
                }
            }
        }
        regs[self.out as usize]
    }

    /// `true` when [`NumProgram::eval_batch_into`] covers this program: every
    /// element of a batch is the program's **single** numeric argument.
    /// That holds for slot-style rings (`arity == None` — with exactly
    /// one argument, every empty slot receives it) and one-parameter
    /// rings (`arity == Some(1)` — `Arg(0)` is the element). Multi-arg
    /// rings keep the scalar path.
    pub fn batchable(&self) -> bool {
        matches!(self.arity, None | Some(1))
    }

    /// Evaluate the program over every element of `inputs`, writing the
    /// output for `inputs[i]` to `out[i]` — the columnar batch tier.
    ///
    /// Each `inputs[i]` is treated exactly as `call(&[Value::Number(
    /// inputs[i])])` would treat its argument (`to_number` of a `Number`
    /// is the identity, so results are bit-identical, -0.0/±inf/
    /// subnormals included — enforced by the `batch_diff` differential
    /// suite). NaN *payload* bits are the one exemption: when two NaNs
    /// meet at a commutable op, operand order decides which payload
    /// propagates, and the optimizer may order the scalar and batch
    /// loops differently (IEEE 754 only requires *a* quiet NaN).
    /// The loop structure is instruction-outer / element-inner over
    /// [`BATCH_LANES`]-wide blocks: per-element dispatch disappears and
    /// the plain indexed lane loops autovectorize.
    ///
    /// # Panics
    /// When `out` is not as long as `inputs`. Debug-asserts
    /// [`NumProgram::batchable`]; on a non-batchable program the
    /// per-element semantics would be wrong, so callers must check first.
    pub fn eval_batch_into(&self, inputs: &[f64], out: &mut [f64]) {
        debug_assert!(self.batchable(), "eval_batch on a non-batchable program");
        assert_eq!(inputs.len(), out.len(), "one output slot per input");
        // Lane-contiguous, register-major file: register r's lanes are
        // `file[r*BATCH_LANES .. r*BATCH_LANES + n]`.
        let mut file = [0.0f64; NUM_STACK_REGS * BATCH_LANES];
        for (block, dst) in inputs.chunks(BATCH_LANES).zip(out.chunks_mut(BATCH_LANES)) {
            let n = block.len();
            for instr in &self.instrs {
                match *instr {
                    NumInstr::Const(v, dst) => {
                        file[dst as usize * BATCH_LANES..][..n].fill(v);
                    }
                    // The whole block is the single argument: parameter
                    // loads and every empty slot read the element.
                    NumInstr::Arg(_, dst) | NumInstr::Slot(_, dst) => {
                        file[dst as usize * BATCH_LANES..][..n].copy_from_slice(block);
                    }
                    NumInstr::Bin(op, a, b, dst) => {
                        // Operand registers are always allocated before
                        // their consumer, so dst strictly exceeds a and
                        // b: split_at_mut yields disjoint slices without
                        // aliasing checks in the lane loop.
                        let (src, rest) = file.split_at_mut(dst as usize * BATCH_LANES);
                        batch_binop(
                            op,
                            &src[a as usize * BATCH_LANES..][..n],
                            &src[b as usize * BATCH_LANES..][..n],
                            &mut rest[..n],
                        );
                    }
                    NumInstr::Un(op, a, dst) => {
                        let (src, rest) = file.split_at_mut(dst as usize * BATCH_LANES);
                        batch_unop(op, &src[a as usize * BATCH_LANES..][..n], &mut rest[..n]);
                    }
                }
            }
            dst.copy_from_slice(&file[self.out as usize * BATCH_LANES..][..n]);
        }
    }

    /// The value of a program that folded to one constant load: it
    /// reports this for every input.
    pub fn constant(&self) -> Option<f64> {
        match *self.instrs.as_slice() {
            [NumInstr::Const(v, _)] => Some(v),
            _ => None,
        }
    }

    /// Instruction count (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` for a program of no instructions, which lowering never
    /// builds: a ring that folded to a constant is one load (see
    /// [`NumProgram::constant`]).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Resolve a variable name the way the tree walk does: innermost
/// parameter first (last duplicate wins), then the captured environment
/// (innermost = last). `None` means unbound — not compilable, so the
/// runtime `UnboundVariable` error surfaces identically at call time.
fn resolve_var<'a>(ring: &'a Ring, name: &str) -> Option<Resolved<'a>> {
    if let Some(pos) = ring.params.iter().rposition(|p| p == name) {
        return Some(Resolved::Param(pos));
    }
    ring.captured
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| Resolved::Captured(v))
}

enum Resolved<'a> {
    Param(usize),
    Captured(&'a Value),
}

// ---------------------------------------------------------------------
// Numeric lowering
// ---------------------------------------------------------------------

/// A numeric operand during lowering: either a compile-time constant
/// (folded) or a register holding a runtime value.
#[derive(Clone, Copy)]
enum NumVal {
    Const(f64),
    Reg(Reg),
}

struct NumBuilder<'a> {
    ring: &'a Ring,
    instrs: Vec<NumInstr>,
    next_reg: usize,
    next_slot: usize,
}

impl<'a> NumBuilder<'a> {
    fn reg(&mut self) -> Option<Reg> {
        let r = self.next_reg;
        if r > Reg::MAX as usize {
            return None;
        }
        self.next_reg = r + 1;
        Some(r as Reg)
    }

    fn materialize(&mut self, v: NumVal) -> Option<Reg> {
        match v {
            NumVal::Reg(r) => Some(r),
            NumVal::Const(c) => {
                let dst = self.reg()?;
                self.instrs.push(NumInstr::Const(c, dst));
                Some(dst)
            }
        }
    }

    /// Lower `e` in a **coercing operand position**: the consumer will
    /// apply `to_number`, so any value-producing node is admissible as
    /// long as its coercion is compile-time-known or register-loadable.
    /// Returns `None` when the node could observe non-numeric semantics.
    fn emit(&mut self, e: &Expr) -> Option<NumVal> {
        match e {
            // `to_number` of any literal is a compile-time constant.
            Expr::Literal(c) => Some(NumVal::Const(c.to_value().to_number())),
            Expr::Var(name) => match resolve_var(self.ring, name)? {
                Resolved::Param(pos) => {
                    if pos > u16::MAX as usize {
                        return None;
                    }
                    let dst = self.reg()?;
                    self.instrs.push(NumInstr::Arg(pos as u16, dst));
                    Some(NumVal::Reg(dst))
                }
                // Captured bindings are immutable; even a captured list
                // coerces to a constant (to_number of a list is 0).
                Resolved::Captured(v) => Some(NumVal::Const(v.to_number())),
            },
            Expr::EmptySlot => {
                let i = self.next_slot;
                if i > u16::MAX as usize {
                    return None;
                }
                self.next_slot = i + 1;
                let dst = self.reg()?;
                self.instrs.push(NumInstr::Slot(i as u16, dst));
                Some(NumVal::Reg(dst))
            }
            Expr::Binary(op, a, b) => {
                num_binop(*op, 0.0, 0.0)?;
                let a = self.emit(a)?;
                let b = self.emit(b)?;
                if let (NumVal::Const(x), NumVal::Const(y)) = (a, b) {
                    // Constant folding with the runtime's own arithmetic.
                    return Some(NumVal::Const(num_binop(*op, x, y)?));
                }
                let a = self.materialize(a)?;
                let b = self.materialize(b)?;
                let dst = self.reg()?;
                self.instrs.push(NumInstr::Bin(*op, a, b, dst));
                Some(NumVal::Reg(dst))
            }
            Expr::Unary(op, a) => {
                num_unop(*op, 0.0)?;
                let a = self.emit(a)?;
                if let NumVal::Const(x) = a {
                    return Some(NumVal::Const(num_unop(*op, x)?));
                }
                let a = self.materialize(a)?;
                let dst = self.reg()?;
                self.instrs.push(NumInstr::Un(*op, a, dst));
                Some(NumVal::Reg(dst))
            }
            // Everything else (comparisons produce Bools, text/list
            // blocks produce non-numbers, higher-order blocks are not
            // lowered at all): leave to the tree walk.
            _ => None,
        }
    }
}

/// Lower a reporter/predicate ring to a [`NumProgram`]: the numeric
/// type pass plus lowering. Succeeds only when the **root** always
/// produces a `Value::Number` (an arithmetic operator, a numeric unary,
/// or a number literal), every reachable argument use sits in a
/// coercing operand position, and the program fits `NUM_STACK_REGS`
/// registers. `None` means the caller keeps tree-walking the ring.
pub fn lower(ring: &Ring) -> Option<NumProgram> {
    match &ring.body {
        RingBody::Reporter(e) | RingBody::Predicate(e) => lower_expr(ring, e),
        RingBody::Command(_) => None,
    }
}

/// [`lower`] applied to `expr`, a sub-expression of `ring`'s body, with
/// the ring's parameters and captured bindings in scope. On a one-argument
/// call the program reports what the tree walk evaluates `expr` to:
/// every empty slot then reads that argument, wherever it sits.
fn lower_expr(ring: &Ring, expr: &Expr) -> Option<NumProgram> {
    let root_is_numeric = match expr {
        Expr::Binary(op, _, _) => num_binop(*op, 0.0, 0.0).is_some(),
        Expr::Unary(op, _) => num_unop(*op, 0.0).is_some(),
        Expr::Literal(Constant::Number(_)) => true,
        _ => false,
    };
    if !root_is_numeric {
        return None;
    }
    let mut b = NumBuilder {
        ring,
        instrs: Vec::new(),
        next_reg: 0,
        next_slot: 0,
    };
    let out = b.emit(expr)?;
    let out = b.materialize(out)?;
    // Wider than the fixed register file → decline to the tree walk, so
    // the scalar and batch executors never need a heap register branch.
    if b.next_reg > NUM_STACK_REGS {
        return None;
    }
    Some(NumProgram {
        arity: (!ring.params.is_empty()).then_some(ring.params.len()),
        instrs: b.instrs,
        regs: b.next_reg,
        out,
    })
}

// ---------------------------------------------------------------------
// Pair lowering
// ---------------------------------------------------------------------

/// How a [`PairProgram`] computes an item's key.
#[derive(Debug)]
pub enum PairKey {
    /// The mapper's argument itself: its one parameter, or an empty slot.
    Arg,
    /// One atomic value for every item: a literal or a captured binding.
    Const(Value),
    /// A numeric expression of the argument.
    Num(NumProgram),
}

/// A `[key, value]` mapper lowered for MapReduce, so that its pairs can
/// run as a key column and an `f64` column instead of boxed two-item
/// lists (the paper's generated MapReduce keeps pairs flat too, as
/// `kvp.h`'s `{key, val}` records, Listings 6–7).
///
/// On one argument `x` the mapper reports `[key(x), value(x)]`, where
/// `key(x)` is `x` itself, the constant, or `Number` of the key program,
/// and `value(x)` is `Number` of the value program — bit for bit what
/// the tree walk builds, since both halves are [`NumProgram`]s or plain
/// values. Neither half can raise.
#[derive(Debug)]
pub struct PairProgram {
    /// How the key is computed.
    pub key: PairKey,
    /// The value.
    pub value: NumProgram,
}

/// Lower a mapper whose body is a list literal of exactly two items into
/// a [`PairProgram`]. Succeeds only when the ring takes at most one
/// parameter, the value lowers as [`lower`] lowers a body (with the
/// ring's parameters and captures in scope), and the key is the
/// argument, an atomic literal or captured value, or an expression that
/// lowers the same way. Everything else — a third item (which could
/// raise on the tree walk), list keys, `join` keys, text values — is
/// `None`, and the mapper keeps its boxed path.
pub fn lower_pair(ring: &Ring) -> Option<PairProgram> {
    let (RingBody::Reporter(Expr::MakeList(items)) | RingBody::Predicate(Expr::MakeList(items))) =
        &ring.body
    else {
        return None;
    };
    let [key, value] = items.as_slice() else {
        return None;
    };
    if ring.params.len() > 1 {
        return None;
    }
    let atomic = |v: Value| (!matches!(v, Value::List(_) | Value::Ring(_))).then_some(v);
    let key = match key {
        Expr::EmptySlot => PairKey::Arg,
        Expr::Var(name) => match resolve_var(ring, name)? {
            Resolved::Param(_) => PairKey::Arg,
            Resolved::Captured(v) => PairKey::Const(atomic(v.clone())?),
        },
        Expr::Literal(c) => PairKey::Const(atomic(c.to_value())?),
        other => PairKey::Num(lower_expr(ring, other)?),
    };
    Some(PairProgram {
        key,
        value: lower_expr(ring, value)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::pure::eval_binop;

    #[test]
    fn numeric_ring_takes_the_fast_path() {
        let p = lower(&Ring::reporter(mul(empty_slot(), num(10.0)))).unwrap();
        assert_eq!(p.call(&[Value::Number(7.0)]).unwrap(), Value::Number(70.0));
    }

    #[test]
    fn constant_subtrees_fold() {
        // (2 + 3) × x lowers to a single multiply against an immediate.
        let p = lower(&Ring::reporter_with_params(
            vec!["x".into()],
            mul(add(num(2.0), num(3.0)), var("x")),
        ))
        .unwrap();
        // Const, Arg, Bin — the add folded away.
        assert_eq!(p.len(), 3);
        assert_eq!(p.call(&[Value::Number(4.0)]).unwrap(), Value::Number(20.0));
    }

    #[test]
    fn textual_rings_are_not_lowered() {
        assert!(lower(&Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0)]),
        ))
        .is_none());
    }

    #[test]
    fn nested_rings_are_not_lowered() {
        let body = Expr::Combine {
            list: Box::new(var("xs")),
            ring: Box::new(Expr::Ring(crate::expr::RingExpr::reporter(add(
                empty_slot(),
                empty_slot(),
            )))),
        };
        assert!(lower(&Ring::reporter_with_params(vec!["xs".into()], body)).is_none());
    }

    #[test]
    fn unbound_variables_are_not_lowered() {
        // The tree walk reports UnboundVariable at call time; lowering
        // must decline so that behavior is preserved.
        assert!(lower(&Ring::reporter(add(var("nope"), num(1.0)))).is_none());
    }

    #[test]
    fn arity_is_enforced() {
        let p = lower(&Ring::reporter_with_params(
            vec!["a".into(), "b".into()],
            add(var("a"), var("b")),
        ))
        .unwrap();
        assert_eq!(
            p.call(&[Value::Number(1.0)]),
            Err(EvalError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn single_argument_fills_every_slot() {
        let p = lower(&Ring::reporter(add(empty_slot(), empty_slot()))).unwrap();
        assert_eq!(p.call(&[Value::Number(4.0)]).unwrap(), Value::Number(8.0));
        assert_eq!(
            p.call(&[Value::Number(10.0), Value::Number(3.0)]).unwrap(),
            Value::Number(13.0)
        );
        assert_eq!(p.call(&[]).unwrap(), Value::Number(0.0));
    }

    /// `acc = p(acc, x)` from the first item, one call per step.
    fn fold_by_calls(p: &NumProgram, items: &[f64]) -> Option<f64> {
        let (&first, rest) = items.split_first()?;
        Some(rest.iter().fold(first, |acc, &x| {
            p.call(&[Value::Number(acc), Value::Number(x)])
                .unwrap()
                .to_number()
        }))
    }

    #[test]
    fn fold_matches_step_by_step_calls() {
        let named = lower(&Ring::reporter_with_params(
            vec!["acc".into(), "x".into()],
            sub(mul(var("acc"), num(0.5)), var("x")),
        ))
        .unwrap();
        // Three slots: the third reads nothing, so it is 0 at each step.
        let slots = lower(&Ring::reporter(add(
            add(empty_slot(), empty_slot()),
            mul(empty_slot(), num(9.0)),
        )))
        .unwrap();
        let items = [3.0, -0.0, 1e300, 7.25, f64::NAN, -4.0, 0.1];
        for p in [&named, &slots] {
            for n in 0..=items.len() {
                let (want, got) = (fold_by_calls(p, &items[..n]), p.fold(&items[..n]));
                assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits), "{n} items");
            }
        }
        assert_eq!(slots.fold(&[1.0, 2.0, 3.0]), Some(6.0));
    }

    #[test]
    fn fold_declines_rings_that_do_not_take_two_inputs() {
        let one = lower(&Ring::reporter_with_params(
            vec!["x".into()],
            add(var("x"), num(1.0)),
        ))
        .unwrap();
        let three = lower(&Ring::reporter_with_params(
            vec!["a".into(), "b".into(), "c".into()],
            add(var("a"), var("c")),
        ))
        .unwrap();
        // `call` raises the arity error on two inputs; `fold` leaves it.
        for p in [&one, &three] {
            assert!(p.call(&[1.into(), 2.into()]).is_err());
            assert_eq!(p.fold(&[1.0, 2.0]), None);
        }
    }

    #[test]
    fn fold_of_no_items_is_none_and_of_one_is_that_item() {
        let p = lower(&Ring::reporter(div(empty_slot(), empty_slot()))).unwrap();
        assert_eq!(p.fold(&[]), None);
        assert_eq!(p.fold(&[-0.0]).map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(p.fold(&[6.0, 3.0, 2.0]), Some(1.0));
    }

    #[test]
    fn one_op_rings_over_both_inputs_fold_without_the_register_machine() {
        let named = |params: [&str; 2], body| {
            lower(&Ring::reporter_with_params(
                params.iter().map(|p| p.to_string()).collect(),
                body,
            ))
            .unwrap()
        };
        let one_op = [
            (
                lower(&Ring::reporter(sub(empty_slot(), empty_slot()))).unwrap(),
                false,
            ),
            (named(["acc", "x"], sub(var("acc"), var("x"))), false),
            (named(["acc", "x"], sub(var("x"), var("acc"))), true),
            (named(["x", "acc"], pow(var("acc"), var("x"))), true),
        ];
        for (p, swapped) in &one_op {
            assert_eq!(p.one_op().map(|(_, s)| s), Some(*swapped), "{p:?}");
        }
        let machine = [
            // Two ops, one input twice, a constant operand, a third slot.
            lower(&Ring::reporter(add(
                add(empty_slot(), empty_slot()),
                num(1.0),
            )))
            .unwrap(),
            named(["acc", "x"], add(var("x"), var("x"))),
            lower(&Ring::reporter(add(empty_slot(), num(5.0)))).unwrap(),
            named(["a", "b"], add(empty_slot(), empty_slot())),
        ];
        assert!(machine[0].one_op().is_none() && machine[1].one_op().is_none());
        assert!(machine[2].one_op().is_none());
        // With formals, own empty slots still read input i on two inputs.
        assert!(machine[3].one_op().is_some());
        let items = [2.0, 10.0, -0.0, 3.0];
        for (p, _) in &one_op {
            let want = fold_by_calls(p, &items).map(f64::to_bits);
            assert_eq!(p.fold(&items).map(f64::to_bits), want, "{p:?}");
        }
        assert_eq!(one_op[1].0.fold(&items), Some(2.0 - 10.0 + 0.0 - 3.0));
        assert_eq!(one_op[2].0.fold(&items), Some(3.0 - (-0.0 - (10.0 - 2.0))));
    }

    #[test]
    fn constant_programs_report_their_value() {
        let one = lower(&Ring::reporter_with_params(vec!["w".into()], num(1.0))).unwrap();
        assert_eq!(one.constant(), Some(1.0));
        let folded = lower(&Ring::reporter(mul(num(2.0), num(4.0)))).unwrap();
        assert_eq!(folded.constant(), Some(8.0));
        assert_eq!(
            lower(&Ring::reporter(sqrt(empty_slot())))
                .unwrap()
                .constant(),
            None
        );
    }

    #[test]
    fn comparison_roots_are_not_numeric() {
        // `<` reports a Bool under snap_cmp semantics, not a number.
        assert!(lower(&Ring::reporter(Expr::Binary(
            BinOp::Lt,
            Box::new(empty_slot()),
            Box::new(num(5.0)),
        )))
        .is_none());
    }

    #[test]
    fn eval_batch_matches_scalar_calls_bitwise() {
        // The a5 bench ring: ((x × 2) + (x mod 7)) ÷ 3, slot-style.
        let p = lower(&Ring::reporter(div(
            add(mul(empty_slot(), num(2.0)), modulo(empty_slot(), num(7.0))),
            num(3.0),
        )))
        .unwrap();
        assert!(p.batchable());
        // Cross a block boundary (> BATCH_LANES elements) and include
        // the awkward values.
        let mut inputs: Vec<f64> = (0..(BATCH_LANES * 2 + 17))
            .map(|i| i as f64 * 0.37)
            .collect();
        inputs.extend([
            f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
        ]);
        let mut batch = vec![0.0; inputs.len()];
        p.eval_batch_into(&inputs, &mut batch);
        for (&x, &got) in inputs.iter().zip(&batch) {
            let scalar = match p.call(&[Value::Number(x)]).unwrap() {
                Value::Number(n) => n,
                other => panic!("non-number: {other:?}"),
            };
            // NaN payloads are exempt: operand order at a commutable op
            // decides which payload propagates, and the optimizer may
            // pick differently for the scalar and batch loops.
            assert!(
                got.to_bits() == scalar.to_bits() || (got.is_nan() && scalar.is_nan()),
                "input {x}: batch {got:?} vs scalar {scalar:?}"
            );
        }
    }

    #[test]
    fn eval_batch_handles_empty_input() {
        let p = lower(&Ring::reporter(mul(empty_slot(), num(10.0)))).unwrap();
        p.eval_batch_into(&[], &mut []);
    }

    #[test]
    fn multi_parameter_programs_are_not_batchable() {
        let p = lower(&Ring::reporter_with_params(
            vec!["a".into(), "b".into()],
            add(var("a"), var("b")),
        ))
        .unwrap();
        assert!(!p.batchable());
    }

    #[test]
    fn wide_numeric_rings_are_declined() {
        // A 40-term chain of x + x + … needs ~40 live registers — over
        // the NUM_STACK_REGS file. Numeric lowering must decline (not
        // fail); the ring then runs on the tree walk.
        let mut expr = var("x");
        for _ in 0..40 {
            expr = add(expr, var("x"));
        }
        assert!(lower(&Ring::reporter_with_params(vec!["x".into()], expr)).is_none());
    }

    /// The tree walk's `[key, value]` for one argument, next to the pair
    /// program's.
    fn pair_of(ring: &Ring, p: &PairProgram, arg: Value) -> ((Value, Value), (Value, Value)) {
        let walked = crate::pure::PureFn::compile(std::sync::Arc::new(ring.clone()))
            .unwrap()
            .call_treewalk(std::slice::from_ref(&arg))
            .unwrap();
        let walked = walked.as_list().unwrap().to_vec();
        let key = match &p.key {
            PairKey::Arg => arg.clone(),
            PairKey::Const(k) => k.clone(),
            PairKey::Num(k) => Value::Number(k.call1_f64(&arg)),
        };
        let lowered = (key, Value::Number(p.value.call1_f64(&arg)));
        ((walked[0].clone(), walked[1].clone()), lowered)
    }

    #[test]
    fn pair_mappers_lower_and_match_the_tree_walk() {
        let captured = vec![("tag".into(), Value::text("avg"))];
        let cases = [
            // Fig. 11's word count and Fig. 13's climate mapper.
            Ring::reporter_with_params(vec!["w".into()], make_list(vec![var("w"), num(1.0)])),
            Ring::reporter_with_params(
                vec!["t".into()],
                make_list(vec![
                    text("avg"),
                    div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
                ]),
            ),
            // Slot key, captured key, numeric key.
            Ring::reporter(make_list(vec![empty_slot(), mul(empty_slot(), num(2.0))])),
            Ring::reporter(make_list(vec![var("tag"), add(empty_slot(), num(0.5))]))
                .with_captured(captured),
            Ring::reporter_with_params(
                vec!["x".into()],
                make_list(vec![modulo(var("x"), num(3.0)), abs(var("x"))]),
            ),
        ];
        for ring in &cases {
            let p = lower_pair(ring).unwrap_or_else(|| panic!("declined {ring:?}"));
            for arg in [
                Value::Number(-0.0),
                Value::Number(7.25),
                Value::text(" 12 "),
                Value::text("Fox"),
            ] {
                let (walked, lowered) = pair_of(ring, &p, arg.clone());
                assert_eq!(walked.0, lowered.0, "key of {arg:?} under {ring:?}");
                assert_eq!(
                    walked.1.to_number().to_bits(),
                    lowered.1.to_number().to_bits(),
                    "value of {arg:?} under {ring:?}"
                );
            }
        }
    }

    #[test]
    fn pair_lowering_declines_what_the_tree_walk_must_run() {
        let declined = [
            // A third item, a list key, a join key, a text value, an
            // identity value, two parameters, a captured list key.
            Ring::reporter(make_list(vec![empty_slot(), num(1.0), text("x")])),
            Ring::reporter(make_list(vec![make_list(vec![empty_slot()]), num(1.0)])),
            Ring::reporter(make_list(vec![
                join(vec![empty_slot(), text("!")]),
                num(1.0),
            ])),
            Ring::reporter(make_list(vec![empty_slot(), text("1")])),
            Ring::reporter_with_params(vec!["x".into()], make_list(vec![var("x"), var("x")])),
            Ring::reporter_with_params(
                vec!["a".into(), "b".into()],
                make_list(vec![var("a"), num(1.0)]),
            ),
            Ring::reporter(make_list(vec![var("xs"), num(1.0)]))
                .with_captured(vec![("xs".into(), Value::list(vec![1.into()]))]),
            Ring::reporter(make_list(vec![var("unbound"), num(1.0)])),
        ];
        for ring in &declined {
            assert!(lower_pair(ring).is_none(), "lowered {ring:?}");
        }
    }

    #[test]
    fn num_cores_match_eval_ops() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Pow,
        ] {
            for (x, y) in [
                (7.5, 3.25),
                (-7.0, 3.0),
                (7.0, -3.0),
                (0.0, 0.0),
                (1e300, 2.0),
            ] {
                // black_box keeps the optimizer from constant-folding
                // either side (LLVM's folded 0/0 NaN sign differs from
                // the hardware divide's) — the point is to compare the
                // *runtime* cores.
                let (x, y) = (std::hint::black_box(x), std::hint::black_box(y));
                let folded = num_binop(op, x, y).unwrap();
                let evaled = match eval_binop(op, &Value::Number(x), &Value::Number(y)) {
                    Value::Number(n) => n,
                    other => panic!("non-number from {op:?}: {other:?}"),
                };
                // Bit-exact, so NaN results also count as equal.
                assert_eq!(folded.to_bits(), evaled.to_bits(), "{op:?} {x} {y}");
            }
        }
    }
}
