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
//! path) and [`NumProgram::eval_batch`] (the columnar batch tier) run
//! the whole body on a stack-allocated `f64` register file with zero
//! heap traffic per call.
//!
//! Every ring [`lower`] declines — non-numeric roots (comparisons,
//! text, lists), higher-order or non-strict blocks, unbound variables,
//! and rings wider than the register file — runs on the tree walk of
//! [`crate::pure::PureFn`], which also serves as the differential-testing
//! oracle for the compiled paths.
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
/// both [`NumProgram::call`] and [`NumProgram::eval_batch`] run on
/// fixed-size stack arrays with no heap branch.
const NUM_STACK_REGS: usize = 32;

/// Elements per batch block in [`NumProgram::eval_batch`]. The register
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
        // Lowering declines programs wider than NUM_STACK_REGS, so the
        // register file is always this fixed stack array.
        debug_assert!(self.regs <= NUM_STACK_REGS);
        let mut stack = [0.0f64; NUM_STACK_REGS];
        let regs: &mut [f64] = &mut stack[..self.regs];
        for instr in &self.instrs {
            match *instr {
                NumInstr::Const(v, dst) => regs[dst as usize] = v,
                NumInstr::Arg(i, dst) => regs[dst as usize] = args[i as usize].to_number(),
                NumInstr::Slot(i, dst) => {
                    regs[dst as usize] = match args.len() {
                        0 => 0.0,
                        1 => args[0].to_number(),
                        _ => args.get(i as usize).map(Value::to_number).unwrap_or(0.0),
                    }
                }
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
        Ok(Value::Number(regs[self.out as usize]))
    }

    /// `true` when [`NumProgram::eval_batch`] covers this program: every
    /// element of a batch is the program's **single** numeric argument.
    /// That holds for slot-style rings (`arity == None` — with exactly
    /// one argument, every empty slot receives it) and one-parameter
    /// rings (`arity == Some(1)` — `Arg(0)` is the element). Multi-arg
    /// rings keep the scalar path.
    pub fn batchable(&self) -> bool {
        matches!(self.arity, None | Some(1))
    }

    /// Evaluate the program over every element of `inputs`, appending
    /// one output per element to `out` — the columnar batch tier.
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
    /// Debug-asserts [`NumProgram::batchable`]; on a non-batchable
    /// program the per-element semantics would be wrong, so callers must
    /// check first.
    pub fn eval_batch(&self, inputs: &[f64], out: &mut Vec<f64>) {
        debug_assert!(self.batchable(), "eval_batch on a non-batchable program");
        out.reserve(inputs.len());
        // Lane-contiguous, register-major file: register r's lanes are
        // `file[r*BATCH_LANES .. r*BATCH_LANES + n]`.
        let mut file = [0.0f64; NUM_STACK_REGS * BATCH_LANES];
        for block in inputs.chunks(BATCH_LANES) {
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
            out.extend_from_slice(&file[self.out as usize * BATCH_LANES..][..n]);
        }
    }

    /// Instruction count (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the program folded to a single constant load.
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
/// coercing operand position, and the program fits [`NUM_STACK_REGS`]
/// registers. `None` means the caller keeps tree-walking the ring.
pub fn lower(ring: &Ring) -> Option<NumProgram> {
    let expr = match &ring.body {
        RingBody::Reporter(e) | RingBody::Predicate(e) => e,
        RingBody::Command(_) => return None,
    };
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
        let mut batch = Vec::new();
        p.eval_batch(&inputs, &mut batch);
        assert_eq!(batch.len(), inputs.len());
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
        let mut out = Vec::new();
        p.eval_batch(&[], &mut out);
        assert!(out.is_empty());
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
