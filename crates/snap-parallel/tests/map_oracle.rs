//! Oracle for the paper's central claim, `parallelMap ≡ map` (§3.2), on
//! generated rings (after SnapCheck's generate-and-drive testing of Snap!
//! programs).
//!
//! Each case is a ring as a block program writes it: slot-style with 0–3
//! own empty slots, or with 1–2 named parameters. Its body is built from
//! every block `check_pure` admits, nested rings, `call`, `map`, `keep`,
//! `combine`, `parallelMap` and `mapReduce` (with mapper outputs of 0–3
//! items) among them. The ring maps a list of inputs in seven ways that
//! must agree: the VM's `map` on each backend, `parallelMap` under
//! `SequentialBackend`, `parallelMap` under `WorkerBackend` with 1, 2 and
//! 4 workers, and `PureFn::call` and `PureFn::call_treewalk` per item.
//! The ring is also called with 0–3 inputs through the VM's `call` and
//! both `PureFn` entry points. The VM's blocks map the input list twice,
//! once stored as numbers where its items allow and once boxed (see
//! `snap_ast::value`), and every path agrees on both.
//!
//! Values agree bit for bit; any NaN matches any NaN, and rings compare
//! by parameters and body. The one exception is a body with a
//! `mapReduce` whose reducer folds with `+` or `×`, which may take the
//! 1e-4 that a map-side combiner's reassociation is documented to take.
//! Errors agree as `EvalError`s (a `VmError` through the one it wraps).
//!
//! The first eight tests are fixed cases, one per divergence that the
//! VM and the workers showed while they had an evaluator each (the NaN
//! key one was found by the generated sweep).

use snap_ast::builder::*;
use snap_ast::{
    BinOp, Constant, EvalError, Expr, List, Project, PureFn, RingExpr, RingExprBody, SpriteDef,
    UnOp, Value,
};
use snap_vm::{Vm, VmError};

/// The global every ring may read; ring literals capture it.
const GLOBAL: &str = "k";

/// The global holding the list the blocks map, in one form or the other.
const INPUT: &str = "input list";

/// One oracle case.
#[derive(Debug, Clone)]
struct Case {
    /// The ring under test, as an `Expr::Ring`.
    ring: Expr,
    /// The inputs the ring maps over, as expressions.
    items: Vec<Expr>,
    /// Input lists of direct calls.
    calls: Vec<Vec<Expr>>,
    /// The value of [`GLOBAL`].
    global: Constant,
    /// The body has a `mapReduce` with a `+`/`×` fold reducer.
    combined_fold: bool,
}

impl Case {
    fn new(ring: Expr, items: Vec<Expr>) -> Case {
        Case {
            ring,
            items,
            calls: Vec::new(),
            global: Constant::Number(3.0),
            combined_fold: false,
        }
    }

    fn with_call(mut self, args: Vec<Expr>) -> Case {
        self.calls.push(args);
        self
    }
}

type Outcome = Result<Value, EvalError>;

fn from_vm(result: Result<Value, VmError>) -> Outcome {
    result.map_err(|e| match e {
        VmError::Eval(e) => e,
        other => EvalError::Other(format!("VM error outside EvalError: {other}")),
    })
}

/// Numbers bit for bit (NaN matches NaN), or within 1e-4 relative when
/// `tolerant`; lists item by item; rings by parameters and body.
fn same(a: &Value, b: &Value, tolerant: bool) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            x.to_bits() == y.to_bits()
                || (x.is_nan() && y.is_nan())
                || (tolerant && (x - y).abs() <= 1e-4 * x.abs().max(y.abs()).max(1.0))
        }
        (Value::List(x), Value::List(y)) => {
            let (x, y) = (x.to_vec(), y.to_vec());
            x.len() == y.len() && x.iter().zip(&y).all(|(a, b)| same(a, b, tolerant))
        }
        (Value::Ring(x), Value::Ring(y)) => x.params == y.params && x.body == y.body,
        _ => a == b,
    }
}

fn same_outcome(a: &Outcome, b: &Outcome, tolerant: bool) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => same(a, b, tolerant),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Run every way of applying the case's ring and compare each with the
/// tree walk. Returns the tree walk's map outcome.
fn run(case: &Case) -> Result<Outcome, String> {
    let project = Project::new("oracle")
        .with_global(GLOBAL, case.global.clone())
        .with_sprite(SpriteDef::new("S"));
    let mut seq = Vm::new(project.clone());
    let mut par = Vm::new(project);
    snap_parallel::install(&mut par);
    let eval = |vm: &mut Vm, e: &Expr| from_vm(vm.eval_expr(Some("S"), e));
    let ring = match eval(&mut seq, &case.ring) {
        Ok(Value::Ring(ring)) => ring,
        other => return Err(format!("the ring literal evaluated to {other:?}")),
    };
    let f = PureFn::compile(ring).map_err(|e| format!("generated ring is not pure: {e}"))?;
    let values = |vm: &mut Vm, exprs: &[Expr]| -> Result<Vec<Value>, String> {
        exprs
            .iter()
            .map(|e| eval(vm, e).map_err(|err| format!("input {e:?} failed: {err}")))
            .collect()
    };
    let items = values(&mut seq, &case.items)?;
    let per_item = |call: &dyn Fn(&Value) -> Outcome| -> Outcome {
        items
            .iter()
            .map(call)
            .collect::<Result<Vec<_>, _>>()
            .map(Value::list)
    };
    let want = per_item(&|x| f.call_treewalk(std::slice::from_ref(x)));
    let mut got: Vec<(String, Outcome)> =
        vec![("PureFn::call".into(), per_item(&|x| f.call1(x.clone())))];
    let list = var(INPUT);
    for (form, input) in [
        ("as built", List::from_vec(items.clone())),
        ("boxed", List::boxed(items.clone())),
    ] {
        for vm in [&mut seq, &mut par] {
            vm.world
                .globals
                .insert(INPUT.into(), Value::List(input.clone()));
        }
        got.extend([
            (
                format!("VM map, sequential backend, list {form}"),
                eval(&mut seq, &map_over(case.ring.clone(), list.clone())),
            ),
            (
                format!("VM map, worker backend, list {form}"),
                eval(&mut par, &map_over(case.ring.clone(), list.clone())),
            ),
            (
                format!("parallelMap, sequential backend, list {form}"),
                eval(
                    &mut seq,
                    &parallel_map_over(case.ring.clone(), list.clone()),
                ),
            ),
        ]);
        for workers in [1.0, 2.0, 4.0] {
            let block = parallel_map_with_workers(case.ring.clone(), list.clone(), num(workers));
            got.push((
                format!("parallelMap, worker backend, {workers} workers, list {form}"),
                eval(&mut par, &block),
            ));
        }
    }
    for args in &case.calls {
        let args_values = values(&mut seq, args)?;
        let call_want = f.call_treewalk(&args_values);
        let block = call_ring(case.ring.clone(), args.clone());
        for (how, outcome) in [
            ("PureFn::call", f.call(&args_values)),
            ("VM call, sequential backend", eval(&mut seq, &block)),
            ("VM call, worker backend", eval(&mut par, &block)),
        ] {
            if !same_outcome(&outcome, &call_want, case.combined_fold) {
                return Err(format!(
                    "{how} with {} inputs gave {outcome:?}, the tree walk {call_want:?}",
                    args.len()
                ));
            }
        }
    }
    for (how, outcome) in got {
        if !same_outcome(&outcome, &want, case.combined_fold) {
            return Err(format!("{how} gave {outcome:?}, the tree walk {want:?}"));
        }
    }
    Ok(want)
}

/// Run `body` on a thread with a 2 MiB stack, the default for spawned
/// threads, so that a walk with no depth limit overflows it.
fn on_small_stack<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(body)
        .expect("spawn the oracle thread")
        .join()
        .expect("the oracle thread panicked")
}

/// Run a fixed case and check the outcome every path agreed on.
fn check_fixed(case: Case, expect: Outcome) {
    let outcome = on_small_stack(move || run(&case).map_err(|e| format!("{case:?}: {e}")));
    match outcome {
        Ok(outcome) => assert!(
            same_outcome(&outcome, &expect, false),
            "all paths agreed on {outcome:?}, expected {expect:?}"
        ),
        Err(divergence) => panic!("{divergence}"),
    }
}

fn list_of(items: Vec<Value>) -> Value {
    Value::list(items)
}

#[test]
fn a_ring_calls_a_three_slot_ring_with_two_inputs() {
    // map (combine ( ) using (( ) + ( ) + ( ))) over [[1, 2, 3]]: the
    // third slot takes nothing, so each step adds 0.
    let ring = ring_reporter(combine_using(
        empty_slot(),
        ring_reporter(add(add(empty_slot(), empty_slot()), empty_slot())),
    ));
    let case = Case::new(ring, vec![number_list([1.0, 2.0, 3.0])]);
    check_fixed(case, Ok(list_of(vec![6.into()])));
}

#[test]
fn a_named_ring_fills_its_empty_slot_like_a_slot_ring() {
    // (n) → n + ( ) over [5]: the one input fills the slot as well.
    let ring = ring_reporter_with(vec!["n"], add(var("n"), empty_slot()));
    let case = Case::new(ring, vec![num(5.0)]).with_call(vec![num(5.0)]);
    check_fixed(case, Ok(list_of(vec![10.into()])));
}

#[test]
fn map_reduce_runs_inside_a_worker() {
    // map (mapReduce ([w, 1]) (length) over split ( ) by " ") over lines.
    let ring = ring_reporter(map_reduce(
        ring_reporter_with(vec!["w"], make_list(vec![var("w"), num(1.0)])),
        ring_reporter_with(vec!["vals"], length_of(var("vals"))),
        split(empty_slot(), text(" ")),
    ));
    let case = Case::new(ring, vec![text("a b a"), text("c")]);
    let pair = |w: &str, n: f64| list_of(vec![w.into(), n.into()]);
    check_fixed(
        case,
        Ok(list_of(vec![
            list_of(vec![pair("a", 2.0), pair("b", 1.0)]),
            list_of(vec![pair("c", 1.0)]),
        ])),
    );
}

#[test]
fn a_one_item_mapper_output_is_not_a_pair_on_any_backend() {
    let ring = ring_reporter(map_reduce(
        ring_reporter_with(vec!["w"], make_list(vec![var("w")])),
        ring_reporter_with(vec!["vals"], length_of(var("vals"))),
        empty_slot(),
    ));
    let words = Expr::Literal(Constant::List(vec!["a".into(), "b".into()]));
    check_fixed(
        Case::new(ring, vec![words]),
        Err(EvalError::TypeMismatch {
            expected: "[key, value] pair from the map function",
            got: "[a]".into(),
        }),
    );
}

#[test]
fn a_nan_key_is_a_group_of_its_own_on_every_backend() {
    // NaN is not `=` to itself, so each NaN key ends the group before it
    // and starts its own (generated seed 376 found this).
    let ring = ring_reporter(map_reduce(
        ring_reporter(make_list(vec![empty_slot(), num(1.0)])),
        ring_reporter_with(vec!["vals"], length_of(var("vals"))),
        empty_slot(),
    ));
    let keys = number_list([f64::NAN, f64::NAN, 1.0]);
    let pair = |k: f64| list_of(vec![k.into(), 1.into()]);
    check_fixed(
        Case::new(ring, vec![keys]),
        Ok(list_of(vec![list_of(vec![
            pair(f64::NAN),
            pair(f64::NAN),
            pair(1.0),
        ])])),
    );
}

#[test]
fn a_ring_sees_what_it_captured_not_its_callers_bindings() {
    // map ((b) → call ((y) → call b) with 5) over [ring: y]: the ring in
    // `b` was made where no `y` is bound, so it must not find the `y` of
    // the ring that calls it.
    let ring = ring_reporter_with(
        vec!["b"],
        call_ring(
            ring_reporter_with(vec!["y"], call_ring(var("b"), vec![])),
            vec![num(5.0)],
        ),
    );
    let case = Case::new(ring, vec![ring_reporter(var("y"))]);
    check_fixed(case, Err(EvalError::UnboundVariable("y".into())));
}

#[test]
fn self_application_reports_too_much_recursion() {
    // parallelMap (call ( ) with ( )) over [that ring].
    let ring = ring_reporter(call_ring(empty_slot(), vec![empty_slot()]));
    let case = Case::new(ring.clone(), vec![ring.clone()]).with_call(vec![ring]);
    check_fixed(case, Err(EvalError::TooMuchRecursion));
}

#[test]
fn combine_takes_its_list_before_its_ring() {
    // call (combine ( ) using ( )) with [1, 2], (( ) + ( )).
    let ring = ring_reporter(combine_using(empty_slot(), empty_slot()));
    let sum = ring_reporter(add(empty_slot(), empty_slot()));
    let case = Case::new(ring.clone(), vec![]).with_call(vec![number_list([1.0, 2.0]), sum]);
    check_fixed(case, Ok(list_of(vec![])));
    let project = Project::new("t").with_sprite(SpriteDef::new("S"));
    let call = call_ring(
        ring,
        vec![
            number_list([1.0, 2.0]),
            ring_reporter(add(empty_slot(), empty_slot())),
        ],
    );
    assert_eq!(
        Vm::new(project).eval_expr(Some("S"), &call),
        Ok(Value::Number(3.0))
    );
}

// ---------------------------------------------------------------------
// Generated cases
// ---------------------------------------------------------------------

/// splitmix64: a seeded, dependency-free case generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())].clone()
    }
}

/// What a generated input should report. A few inputs of any kind go
/// where another is wanted, so that type errors are compared too.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Any,
    Number,
    Text,
    Bool,
    List,
}

/// The ring whose body is being generated: the names in scope, its own
/// empty slots still to place, whether a fold reducer appeared, and the
/// counter that names new parameters.
struct Body {
    vars: Vec<String>,
    slots_left: usize,
    combined_fold: bool,
    next_name: usize,
}

const NUMBERS: [f64; 9] = [
    0.0,
    -0.0,
    1.0,
    2.0,
    3.5,
    -2.0,
    10.0,
    f64::INFINITY,
    f64::NAN,
];
const TEXTS: [&str; 7] = ["a", "b c", "", "3", "The", " 2 ", "x y x"];
/// Upper bounds of `numbers from 1 to n`: both directions, empty-ish,
/// and past the columnar (16) and combiner (32) thresholds.
const LIST_ENDS: [f64; 6] = [-1.0, 0.0, 1.0, 3.0, 17.0, 33.0];

fn constant(g: &mut Gen, kind: Kind) -> Constant {
    match kind {
        Kind::Number => Constant::Number(g.pick(&NUMBERS)),
        Kind::Text => Constant::Text(g.pick(&TEXTS).into()),
        Kind::Bool => Constant::Bool(g.chance(2)),
        Kind::List => {
            let len = g.below(4);
            let item_kind = g.pick(&[Kind::Number, Kind::Text, Kind::Any]);
            Constant::List((0..len).map(|_| constant(g, item_kind)).collect())
        }
        Kind::Any => {
            let kind = g.pick(&[Kind::Number, Kind::Text, Kind::Bool, Kind::List]);
            if g.chance(12) {
                Constant::Nothing
            } else {
                constant(g, kind)
            }
        }
    }
}

fn leaf(g: &mut Gen, body: &mut Body, kind: Kind) -> Expr {
    if body.slots_left > 0 && g.chance(2) {
        body.slots_left -= 1;
        return Expr::EmptySlot;
    }
    let var_odds = if kind == Kind::List { 6 } else { 3 };
    if g.chance(var_odds) {
        if g.chance(40) {
            return var("unbound");
        }
        return var(g.pick(&body.vars));
    }
    Expr::Literal(constant(g, kind))
}

fn expr(g: &mut Gen, body: &mut Body, kind: Kind, depth: u32) -> Expr {
    if depth == 0 || g.chance(4) {
        return leaf(g, body, kind);
    }
    let kind = if g.chance(25) { Kind::Any } else { kind };
    let d = depth - 1;
    match kind {
        Kind::Number => match g.below(8) {
            0 | 1 => {
                let op = g.pick(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Mod,
                    BinOp::Pow,
                ]);
                let a = expr(g, body, Kind::Number, d);
                Expr::Binary(op, Box::new(a), Box::new(expr(g, body, Kind::Number, d)))
            }
            2 => {
                let op = g.pick(&[
                    UnOp::Neg,
                    UnOp::Abs,
                    UnOp::Sqrt,
                    UnOp::Round,
                    UnOp::Floor,
                    UnOp::Ceil,
                    UnOp::Sin,
                    UnOp::Cos,
                    UnOp::Ln,
                    UnOp::Exp,
                ]);
                Expr::Unary(op, Box::new(expr(g, body, Kind::Number, d)))
            }
            3 => length_of(expr(g, body, Kind::List, d)),
            4 => Expr::TextLength(Box::new(expr(g, body, Kind::Any, d))),
            5 => item(expr(g, body, Kind::Number, d), expr(g, body, Kind::List, d)),
            6 => {
                let list = expr(g, body, Kind::List, d);
                combine_using(list, ring(g, body, Some(2), d))
            }
            _ => call(g, body, d),
        },
        Kind::Bool => match g.below(5) {
            0 | 1 => {
                let op = g.pick(&[
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Gt,
                    BinOp::Le,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ]);
                let a = expr(g, body, Kind::Any, d);
                Expr::Binary(op, Box::new(a), Box::new(expr(g, body, Kind::Any, d)))
            }
            2 => not(expr(g, body, Kind::Bool, d)),
            3 => contains(expr(g, body, Kind::List, d), expr(g, body, Kind::Any, d)),
            _ => call(g, body, d),
        },
        Kind::Text => match g.below(3) {
            0 => {
                let parts = 1 + g.below(3);
                join((0..parts).map(|_| expr(g, body, Kind::Any, d)).collect())
            }
            1 => Expr::LetterOf(
                Box::new(expr(g, body, Kind::Number, d)),
                Box::new(expr(g, body, Kind::Text, d)),
            ),
            _ => call(g, body, d),
        },
        Kind::List => match g.below(9) {
            0 => {
                let len = g.below(4);
                make_list((0..len).map(|_| expr(g, body, Kind::Any, d)).collect())
            }
            1 => split(expr(g, body, Kind::Text, d), text(g.pick(&[" ", "", "x"]))),
            2 => numbers_from_to(num(1.0), num(g.pick(&LIST_ENDS))),
            3 => {
                let list = expr(g, body, Kind::List, d);
                map_over(ring(g, body, Some(1), d), list)
            }
            4 => {
                let list = expr(g, body, Kind::List, d);
                keep_from(ring(g, body, Some(1), d), list)
            }
            5 => {
                let f = ring(g, body, Some(1), d);
                let list = expr(g, body, Kind::List, d);
                if g.chance(2) {
                    parallel_map_over(f, list)
                } else {
                    parallel_map_with_workers(f, list, num(g.pick(&[0.0, 1.0, 3.0])))
                }
            }
            6 | 7 => map_reduce_block(g, body, d),
            _ => call(g, body, d),
        },
        Kind::Any => {
            let kind = g.pick(&[Kind::Number, Kind::Text, Kind::Bool, Kind::List]);
            if g.chance(8) {
                ring(g, body, None, d)
            } else {
                expr(g, body, kind, d)
            }
        }
    }
}

/// A `call` of a ring with 0–3 inputs, mostly as many as it takes.
fn call(g: &mut Gen, body: &mut Body, depth: u32) -> Expr {
    let takes = g.below(4);
    let f = ring(g, body, Some(takes), depth);
    let inputs = if g.chance(4) { g.below(4) } else { takes };
    let args = (0..inputs)
        .map(|_| expr(g, body, Kind::Any, depth))
        .collect();
    call_ring(f, args)
}

/// A ring input: mostly a ring literal taking `inputs` inputs (any
/// number when `None`), sometimes a variable or an empty slot.
fn ring(g: &mut Gen, body: &mut Body, inputs: Option<usize>, depth: u32) -> Expr {
    if g.chance(10) {
        return leaf(g, body, Kind::Any);
    }
    let named = g.chance(3);
    let count = inputs.unwrap_or_else(|| g.below(4));
    let params: Vec<String> = if named && count > 0 {
        (0..count.min(2))
            .map(|_| {
                body.next_name += 1;
                format!("p{}", body.next_name)
            })
            .collect()
    } else {
        Vec::new()
    };
    let slots = if params.is_empty() {
        count
    } else {
        usize::from(g.chance(4))
    };
    ring_literal(g, body, params, slots, depth)
}

fn ring_literal(
    g: &mut Gen,
    outer: &mut Body,
    params: Vec<String>,
    slots: usize,
    depth: u32,
) -> Expr {
    let mut vars = outer.vars.clone();
    vars.extend(params.iter().cloned());
    let mut inner = Body {
        vars,
        slots_left: slots,
        combined_fold: false,
        next_name: outer.next_name,
    };
    let kind = g.pick(&[
        Kind::Number,
        Kind::Number,
        Kind::Text,
        Kind::Bool,
        Kind::List,
    ]);
    let body = expr(g, &mut inner, kind, depth);
    outer.next_name = inner.next_name;
    outer.combined_fold |= inner.combined_fold;
    Expr::Ring(RingExpr {
        params,
        body: RingExprBody::Reporter(Box::new(body)),
    })
}

/// `mapReduce` with a mapper reporting 0–3 items and a reducer from the
/// paper's examples or a plain one.
fn map_reduce_block(g: &mut Gen, body: &mut Body, depth: u32) -> Expr {
    let named = g.chance(2);
    body.next_name += 1;
    let param = format!("p{}", body.next_name);
    let mut vars = body.vars.clone();
    if named {
        vars.push(param.clone());
    }
    let mut mapper_body = Body {
        vars,
        slots_left: usize::from(!named),
        combined_fold: false,
        next_name: body.next_name,
    };
    let arg = if named { var(&param) } else { empty_slot() };
    let outputs = g.pick(&[0, 1, 2, 2, 2, 3]);
    let mut pair = Vec::new();
    if outputs > 0 {
        pair.push(if g.chance(2) {
            arg
        } else {
            expr(g, &mut mapper_body, Kind::Any, depth.min(1))
        });
    }
    for _ in 1..outputs {
        pair.push(expr(g, &mut mapper_body, Kind::Number, depth.min(1)));
    }
    body.next_name = mapper_body.next_name;
    let mapper = Expr::Ring(RingExpr {
        params: if named { vec![param] } else { Vec::new() },
        body: RingExprBody::Reporter(Box::new(make_list(pair))),
    });
    let vals = || var("vals");
    let sum = || ring_reporter(add(empty_slot(), empty_slot()));
    let reducer_body = match g.below(6) {
        0 => {
            body.combined_fold = true;
            combine_using(vals(), sum())
        }
        1 => {
            body.combined_fold = true;
            combine_using(vals(), ring_reporter(mul(empty_slot(), empty_slot())))
        }
        2 => div(combine_using(vals(), sum()), length_of(vals())),
        3 => length_of(vals()),
        4 => item(num(1.0), vals()),
        _ => vals(),
    };
    let reducer = ring_reporter_with(vec!["vals"], reducer_body);
    map_reduce(mapper, reducer, expr(g, body, Kind::List, depth))
}

fn generate(seed: u64) -> Case {
    let g = &mut Gen(seed);
    let mut body = Body {
        vars: vec![GLOBAL.to_owned()],
        slots_left: 0,
        combined_fold: false,
        next_name: 0,
    };
    let (params, slots) = if g.chance(3) {
        let count = if g.chance(4) { 2 } else { 1 };
        (
            (1..=count).map(|i| format!("x{i}")).collect(),
            usize::from(g.chance(4)),
        )
    } else {
        (Vec::new(), g.below(4))
    };
    let ring = ring_literal(g, &mut body, params, slots, 3);
    let item_kind = g.pick(&[Kind::Number, Kind::Text, Kind::List, Kind::Any]);
    let count = match g.below(8) {
        0 => 0,
        1 => 16 + g.below(4),
        _ => 1 + g.below(4),
    };
    let items = (0..count)
        .map(|_| {
            if g.chance(30) {
                ring.clone()
            } else {
                Expr::Literal(constant(g, item_kind))
            }
        })
        .collect();
    let calls = (0..2)
        .map(|_| {
            let inputs = g.below(4);
            (0..inputs)
                .map(|_| Expr::Literal(constant(g, Kind::Any)))
                .collect()
        })
        .collect();
    Case {
        ring,
        items,
        calls,
        global: constant(g, Kind::Any),
        combined_fold: body.combined_fold,
    }
}

/// Generated cases per run.
const CASES: u64 = 400;

#[test]
fn generated_rings_agree_on_every_path() {
    let failures: Vec<String> = on_small_stack(|| {
        (0..CASES)
            .filter_map(|seed| {
                let case = generate(seed);
                run(&case)
                    .err()
                    .map(|e| format!("seed {seed}: {e}\n  case: {case:?}"))
            })
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} of {CASES} cases diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
