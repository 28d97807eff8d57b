//! Block programs shaped like perfbench's e2 and e5 on the worker
//! backend: their number lists stay numeric from where they are built to
//! where a block reports (see `snap_ast::value`), and `parallelMap ≡
//! map` holds on them. The backend reads each list in place under its
//! read lock while the pool runs the ring.

use std::sync::Arc;

use snap_ast::builder::*;
use snap_ast::{Constant, Expr, Project, Script, SpriteDef, Stmt, Value};
use snap_parallel::WorkerBackend;
use snap_vm::{SequentialBackend, Vm};

/// A one-sprite VM with `globals`, running `body` on green flag.
fn vm(globals: Vec<(&str, Constant)>, body: Vec<Stmt>) -> Vm {
    let mut project = Project::new("numeric lists");
    for (name, value) in globals {
        project = project.with_global(name, value);
    }
    let mut vm =
        Vm::new(project.with_sprite(SpriteDef::new("S").with_script(Script::on_green_flag(body))));
    vm.world.default_workers = 2;
    vm.world.set_backend(Arc::new(WorkerBackend::default()));
    vm
}

fn run(vm: &mut Vm) {
    vm.green_flag();
    vm.run_until_idle();
    assert!(vm.world.errors.is_empty(), "{:?}", vm.world.errors);
}

/// The numbers of a numeric list value, checking its form.
fn numbers(value: &Value) -> Vec<u64> {
    let list = value.as_list().expect("a list");
    assert!(list.is_numeric(), "the list was boxed");
    list.to_vec()
        .iter()
        .map(|v| v.to_number().to_bits())
        .collect()
}

fn times_ten() -> Expr {
    ring_reporter(mul(empty_slot(), num(10.0)))
}

#[test]
fn e2_shaped_parallel_map_reports_a_numeric_list_equal_to_map() {
    let range = || numbers_from_to(num(7.0), num(5_006.0));
    let mut vm = vm(
        vec![("ys", Constant::Number(0.0)), ("zs", Constant::Number(0.0))],
        vec![
            set_var("ys", parallel_map_over(times_ten(), range())),
            set_var("zs", map_over(times_ten(), range())),
            say(item(num(5_000.0), var("ys"))),
        ],
    );
    for _ in 0..3 {
        run(&mut vm);
        assert_eq!(vm.world.said().last(), Some(&"50060"));
        let ys = vm.world.global("ys").unwrap();
        let zs = vm.world.global("zs").unwrap().as_list().unwrap().to_vec();
        let zs: Vec<u64> = zs.iter().map(|v| v.to_number().to_bits()).collect();
        assert_eq!(numbers(ys), zs, "parallelMap ≢ map");
    }
    // The sequential backend reports the same numeric list.
    vm.world.set_backend(Arc::new(SequentialBackend));
    let ys = numbers(vm.world.global("ys").unwrap());
    run(&mut vm);
    assert_eq!(numbers(vm.world.global("ys").unwrap()), ys);
}

#[test]
fn e5_shaped_map_reduce_folds_a_numeric_global_as_its_sequential_twin() {
    let temps: Vec<f64> = (0..6_000).map(|i| 20.0 + (i % 113) as f64 * 0.61).collect();
    let global = Constant::List(temps.iter().map(|&t| Constant::Number(t)).collect());
    let to_celsius = div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0));
    let mapper = ring_reporter_with(vec!["t"], make_list(vec![text("avg"), to_celsius.clone()]));
    let reducer = ring_reporter_with(
        vec!["vals"],
        div(
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
            length_of(var("vals")),
        ),
    );
    let program = vec![
        say(map_reduce(mapper, reducer, var("temps"))),
        set_var(
            "celsius",
            parallel_map_over(
                ring_reporter_with(vec!["t"], to_celsius.clone()),
                var("temps"),
            ),
        ),
        set_var(
            "mapped",
            map_over(ring_reporter_with(vec!["t"], to_celsius), var("temps")),
        ),
        // The sequential twin of the reducer, over `map`'s list.
        say(div(
            combine_using(
                var("mapped"),
                ring_reporter(add(empty_slot(), empty_slot())),
            ),
            length_of(var("mapped")),
        )),
    ];
    let globals = || {
        vec![
            ("temps", global.clone()),
            ("celsius", Constant::Number(0.0)),
            ("mapped", Constant::Number(0.0)),
        ]
    };
    let mut vm = vm(globals(), program.clone());
    assert!(vm
        .world
        .global("temps")
        .unwrap()
        .as_list()
        .unwrap()
        .is_numeric());
    run(&mut vm);
    let said: Vec<String> = vm.world.said().iter().map(|s| s.to_string()).collect();
    let mean = said[1].clone();
    assert_eq!(
        said[0],
        format!("[[avg, {mean}]]"),
        "mapReduce ≢ its sequential twin"
    );
    let celsius = numbers(vm.world.global("celsius").unwrap());
    let mapped = vm
        .world
        .global("mapped")
        .unwrap()
        .as_list()
        .unwrap()
        .to_vec();
    let mapped: Vec<u64> = mapped.iter().map(|v| v.to_number().to_bits()).collect();
    assert_eq!(celsius, mapped, "parallelMap ≢ map");
    // The global is read in place and left as it was.
    let temps_now = numbers(vm.world.global("temps").unwrap());
    let temps_bits: Vec<u64> = temps.iter().map(|t| t.to_bits()).collect();
    assert_eq!(temps_now, temps_bits);

    let mut sequential = vm_with_sequential_backend(globals(), program);
    run(&mut sequential);
    assert_eq!(sequential.world.said(), vm.world.said());
}

fn vm_with_sequential_backend(globals: Vec<(&str, Constant)>, body: Vec<Stmt>) -> Vm {
    let mut vm = vm(globals, body);
    vm.world.set_backend(Arc::new(SequentialBackend));
    vm
}

/// Number equality bit for bit, NaN payloads aside (see
/// `NumProgram::fold`).
fn same_number(a: &Value, b: &Value) -> bool {
    let (a, b) = (a.to_number(), b.to_number());
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn one_op_combine_rings_fold_numbers_in_the_vm_as_step_by_step_and_on_a_worker() {
    use snap_ast::{BinOp, List};
    let two_53 = 2f64.powi(53);
    let mut inputs = vec![
        two_53 - 1.0,
        1.0,
        -0.0,
        two_53 + 1.0,
        5e-324,
        f64::INFINITY,
        0.0,
        -1.0,
        -2.225_073_858_507_201e-308,
        f64::NEG_INFINITY,
        f64::NAN,
        two_53,
    ];
    let binary = |op, a, b| Expr::Binary(op, Box::new(a), Box::new(b));
    let mut rings = Vec::new();
    for op in [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Pow,
    ] {
        rings.push(ring_reporter(binary(op, empty_slot(), empty_slot())));
        rings.push(ring_reporter_with(
            vec!["acc", "x"],
            binary(op, var("acc"), var("x")),
        ));
        rings.push(ring_reporter_with(
            vec!["acc", "x"],
            binary(op, var("x"), var("acc")),
        ));
    }
    // Two ops: stays on the register machine.
    rings.push(ring_reporter(mul(
        add(empty_slot(), empty_slot()),
        num(0.5),
    )));
    for _ in 0..inputs.len() {
        inputs.rotate_left(1);
        let numbers = Constant::List(inputs.iter().map(|&x| Constant::Number(x)).collect());
        for ring in &rings {
            let on_a_worker = parallel_map_over(
                ring_reporter(combine_using(empty_slot(), ring.clone())),
                make_list(vec![var("xs")]),
            );
            let mut vm = vm(
                vec![("xs", numbers.clone()), ("ys", Constant::Number(0.0))],
                vec![
                    set_var("folded", combine_using(var("xs"), ring.clone())),
                    set_var("stepped", combine_using(var("ys"), ring.clone())),
                    set_var("worker", item(num(1.0), on_a_worker)),
                ],
            );
            let boxed = inputs.iter().map(|&x| Value::Number(x)).collect();
            vm.world
                .globals
                .insert("ys".into(), Value::List(List::boxed(boxed)));
            run(&mut vm);
            let global = |name| vm.world.global(name).unwrap().clone();
            let stepped = global("stepped");
            for name in ["folded", "worker"] {
                assert!(
                    same_number(&global(name), &stepped),
                    "{name} {:?} vs stepped {stepped:?} over {inputs:?} with {ring:?}",
                    global(name)
                );
            }
        }
    }
}
