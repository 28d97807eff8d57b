//! Differential suite of `mapReduce`'s keyed-columnar rung, on generated
//! block programs (after SnapCheck's generate-and-drive testing of Snap!
//! programs).
//!
//! Each seeded case builds a mapper `[key, value]`, a reducer and an
//! input list, and runs the `mapReduce` four ways that must agree bit
//! for bit: the block under `ColumnarPolicy::Auto` (the keyed rung when
//! it applies) on the list as built, which stores numbers only as `f64`s,
//! the same on the list held boxed, the block under
//! `ColumnarPolicy::Disabled` (the boxed per-element path), and the
//! public phases composed by hand, as perfbench's traced replay composes
//! them (`ring_map_pairs_faulted` → `combine_pairs` → `shuffle` →
//! `ring_reduce_groups_faulted`). The only
//! slack is a NaN's payload bits. The rung's counters must match an
//! independent prediction of whether it applies, and every way of
//! declining it must occur. A VM-level twin runs the keyed cases as
//! block scripts through `WorkerBackend` and `SequentialBackend`.
//!
//! The rung checks read process-wide counters, so both tests hold
//! [`counter_lock`].

use std::sync::{Arc, Mutex, MutexGuard};

use snap_ast::builder::*;
use snap_ast::{Constant, EvalError, Expr, List, Project, Ring, Script, SpriteDef, Value};
use snap_parallel::{
    associative_fold_op, combine_pairs, map_reduce_list, map_reduce_with_combine, shuffle,
    CombinePolicy, WorkerBackend, COMBINE_MIN_PAIRS,
};
use snap_trace::well_known as metrics;
use snap_vm::Vm;
use snap_workers::{
    ring_map_pairs_faulted, ring_reduce_groups_faulted, ColumnarPolicy, ExecMode, RingMapOptions,
    COLUMNAR_MIN_ITEMS,
};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counter_lock() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

    fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())].clone()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyKind {
    Param,
    Slot,
    Constant,
    Captured,
    Numeric,
    ListLiteral,
    Join,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ValueKind {
    Constant,
    Numeric,
    Text,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ReducerKind {
    Sum,
    Product,
    Mean,
    Identity,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum InputKind {
    Words,
    Numbers,
    Integers,
    /// Booleans among small numbers: `loose_eq` calls `true` equal to
    /// every non-zero number, so these keys must not share the number
    /// regime.
    Flags,
    Mixed,
}

/// Why the keyed rung should decline a case, or that it should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Expect {
    Keyed,
    Small,
    ThreeItems,
    ListKey,
    OtherKey,
    TextValue,
    Regime,
}

/// One generated `mapReduce`.
#[derive(Debug)]
struct Case {
    key: KeyKind,
    value: ValueKind,
    reducer: ReducerKind,
    named: bool,
    three_items: bool,
    key_expr: Expr,
    value_expr: Expr,
    captured: Option<Value>,
    items: Vec<Value>,
    workers: usize,
    combine: CombinePolicy,
}

const WORDS: [&str; 12] = [
    "the",
    "The",
    "THE",
    "fox",
    "Fox",
    "dog",
    "Ünïcode",
    "ünïcode",
    "straße",
    "日本",
    "",
    "a",
];
const NUMERIC_TEXT: [&str; 5] = ["inf", "NaN", " 1e3 ", "-0", "12"];
const NUMBERS: [f64; 12] = [
    -3.5,
    -1.0,
    -0.0,
    0.0,
    0.5,
    1.0,
    2.0,
    7.25,
    12.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

fn input(gen: &mut Gen, kind: InputKind) -> Value {
    match kind {
        InputKind::Words => Value::text(gen.pick(&WORDS)),
        // NaN only now and then, so most number columns stay keyable.
        InputKind::Numbers if gen.below(40) == 0 => Value::Number(f64::NAN),
        InputKind::Numbers => Value::Number(gen.pick(&NUMBERS[..11])),
        InputKind::Integers => Value::Number(gen.below(9) as f64),
        InputKind::Flags => match gen.below(3) {
            0 => Value::Bool(gen.below(2) == 0),
            _ => Value::Number(gen.below(4) as f64),
        },
        InputKind::Mixed => match gen.below(6) {
            0 => Value::text(gen.pick(&WORDS)),
            1 => Value::text(gen.pick(&NUMERIC_TEXT)),
            2 => Value::Number(gen.pick(&NUMBERS)),
            3 => Value::Bool(gen.below(2) == 0),
            4 => Value::list(vec![Value::Number(1.0), Value::text(gen.pick(&WORDS))]),
            _ => Value::Number(gen.below(4) as f64),
        },
    }
}

impl Case {
    fn generate(gen: &mut Gen) -> Case {
        let key = gen.pick(&[
            KeyKind::Param,
            KeyKind::Slot,
            KeyKind::Constant,
            KeyKind::Captured,
            KeyKind::Numeric,
            KeyKind::ListLiteral,
            KeyKind::Join,
        ]);
        let named = key == KeyKind::Param || (key != KeyKind::Slot && gen.below(2) == 0);
        let arg = || if named { var("x") } else { empty_slot() };
        let mut captured = None;
        let key_expr = match key {
            KeyKind::Param | KeyKind::Slot => arg(),
            KeyKind::Constant => gen.pick(&[
                text("avg"),
                text("5"),
                text("NaN"),
                num(3.0),
                num(f64::NAN),
                boolean(true),
            ]),
            KeyKind::Captured => {
                captured = Some(gen.pick(&[
                    Value::text("Key"),
                    Value::Number(-0.0),
                    Value::Bool(false),
                    Value::Nothing,
                    Value::list(vec![1.into()]),
                ]));
                var("k")
            }
            KeyKind::Numeric => match gen.below(3) {
                0 => modulo(arg(), num(3.0)),
                1 => floor(div(arg(), num(4.0))),
                _ => mul(arg(), num(0.0)),
            },
            KeyKind::ListLiteral => make_list(vec![arg()]),
            KeyKind::Join => join(vec![arg(), text("!")]),
        };
        let value = gen.pick(&[ValueKind::Constant, ValueKind::Numeric, ValueKind::Text]);
        let value_expr = match value {
            ValueKind::Constant => gen.pick(&[num(1.0), num(0.5)]),
            ValueKind::Numeric => match gen.below(3) {
                0 => div(mul(num(5.0), sub(arg(), num(32.0))), num(9.0)),
                1 => modulo(arg(), num(7.0)),
                _ => add(mul(arg(), num(0.5)), num(1.0)),
            },
            ValueKind::Text => match gen.below(2) {
                0 => text("1"),
                _ => arg(),
            },
        };
        let inputs = gen.pick(&[
            InputKind::Words,
            InputKind::Numbers,
            InputKind::Integers,
            InputKind::Flags,
            InputKind::Mixed,
        ]);
        let len = gen.pick(&[0, 1, 2, 15, 16, 17, 31, 32, 33, 100, 300]);
        Case {
            key,
            value,
            reducer: gen.pick(&[
                ReducerKind::Sum,
                ReducerKind::Product,
                ReducerKind::Mean,
                ReducerKind::Identity,
            ]),
            named,
            three_items: gen.below(8) == 0,
            key_expr,
            value_expr,
            captured,
            items: (0..len).map(|_| input(gen, inputs)).collect(),
            workers: 1 + gen.below(4),
            combine: gen.pick(&[CombinePolicy::Auto, CombinePolicy::Disabled]),
        }
    }

    fn params(&self) -> Vec<String> {
        if self.named {
            vec!["x".into()]
        } else {
            Vec::new()
        }
    }

    fn mapper_body(&self) -> Expr {
        let mut items = vec![self.key_expr.clone(), self.value_expr.clone()];
        if self.three_items {
            items.push(text("extra"));
        }
        make_list(items)
    }

    fn mapper(&self) -> Arc<Ring> {
        let captured = self.captured.iter().map(|v| ("k".to_string(), v.clone()));
        Arc::new(
            Ring::reporter_with_params(self.params(), self.mapper_body())
                .with_captured(captured.collect()),
        )
    }

    fn reducer_body(&self) -> Expr {
        let fold = |op: fn(Expr, Expr) -> Expr| {
            combine_using(var("vals"), ring_reporter(op(empty_slot(), empty_slot())))
        };
        match self.reducer {
            ReducerKind::Sum => fold(add),
            ReducerKind::Product => fold(mul),
            ReducerKind::Mean => div(fold(add), length_of(var("vals"))),
            ReducerKind::Identity => var("vals"),
        }
    }

    fn reducer(&self) -> Arc<Ring> {
        Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            self.reducer_body(),
        ))
    }

    fn options(&self, columnar: ColumnarPolicy) -> RingMapOptions {
        RingMapOptions {
            workers: self.workers,
            columnar,
            ..Default::default()
        }
    }

    /// The public phases composed by hand, as perfbench's traced replay
    /// composes them.
    fn composed(&self) -> Result<Vec<Value>, EvalError> {
        let options = self.options(ColumnarPolicy::Auto);
        let reducer = self.reducer();
        let pairs = ring_map_pairs_faulted(self.mapper(), self.items.clone(), options)?;
        let pairs = match associative_fold_op(&reducer) {
            Some(op) if self.combine == CombinePolicy::Auto && pairs.len() >= COMBINE_MIN_PAIRS => {
                combine_pairs(pairs, op, options.workers, ExecMode::Pooled)
            }
            _ => pairs,
        };
        Ok(ring_reduce_groups_faulted(
            reducer,
            shuffle(pairs),
            options,
        )?)
    }

    fn block(&self, columnar: ColumnarPolicy) -> Result<Vec<Value>, EvalError> {
        map_reduce_with_combine(
            self.mapper(),
            self.reducer(),
            self.items.clone(),
            self.options(columnar),
            self.combine,
        )
    }

    /// The block over the items held boxed, whatever they are: a list of
    /// numbers only runs numeric through [`Case::block`] and boxed here.
    fn block_on_boxed_list(&self) -> Result<Vec<Value>, EvalError> {
        map_reduce_list(
            self.mapper(),
            self.reducer(),
            &List::boxed(self.items.clone()),
            self.options(ColumnarPolicy::Auto),
            self.combine,
        )
        .map(List::into_vec)
    }

    /// Whether the keyed rung should run this case, judged from the
    /// mapper's shape and the keys the boxed map reports, without the
    /// rung's own code.
    fn expect(&self, boxed: &Result<Vec<(Value, Value)>, EvalError>) -> Expect {
        if self.items.len() < COLUMNAR_MIN_ITEMS {
            return Expect::Small;
        }
        if self.three_items {
            return Expect::ThreeItems;
        }
        if self.key == KeyKind::ListLiteral
            || matches!(self.captured, Some(Value::List(_)) if self.key == KeyKind::Captured)
        {
            return Expect::ListKey;
        }
        if self.key == KeyKind::Join {
            return Expect::OtherKey;
        }
        if self.value == ValueKind::Text {
            return Expect::TextValue;
        }
        let keys: Vec<&Value> = boxed.as_ref().unwrap().iter().map(|(k, _)| k).collect();
        if keys.iter().any(|k| matches!(k, Value::List(_))) {
            return Expect::ListKey;
        }
        let text = |k: &Value| matches!(k, Value::Text(s) if s.trim().parse::<f64>().is_err());
        let number = |k: &Value| matches!(k, Value::Number(n) if !n.is_nan());
        let single = keys.iter().all(|k| *k == keys[0]) && keys[0].loose_eq(keys[0]);
        if keys.iter().all(|k| text(k)) || keys.iter().all(|k| number(k)) || single {
            Expect::Keyed
        } else {
            Expect::Regime
        }
    }
}

/// Equal, comparing numbers by their bits (any NaN matches any NaN).
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (Value::List(x), Value::List(y)) => {
            let (x, y) = (x.to_vec(), y.to_vec());
            x.len() == y.len() && x.iter().zip(&y).all(|(p, q)| same_bits(p, q))
        }
        _ => a == b,
    }
}

fn same_results(a: &Result<Vec<Value>, EvalError>, b: &Result<Vec<Value>, EvalError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bits(x, y)),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

const CASES: u64 = 600;

/// Where [`moved`] reports `par.columnar_chunks` and
/// `ring.batch_fallbacks`.
const CHUNKS: usize = 0;
const FALLBACKS: usize = 1;

/// The counters that tell the rungs apart.
fn rung_counters() -> [u64; 7] {
    [
        metrics::PAR_COLUMNAR_CHUNKS.get(),
        metrics::RING_BATCH_FALLBACKS.get(),
        metrics::RING_BATCH_CALLS.get(),
        metrics::RING_BATCH_ELEMS.get(),
        metrics::RING_FASTPATH_CALLS.get(),
        metrics::RING_TREEWALK_CALLS.get(),
        metrics::SHUFFLE_PAIRS.get(),
    ]
}

/// `run`'s result and how far it moved each of [`rung_counters`].
fn moved<T>(run: impl FnOnce() -> T) -> (T, [u64; 7]) {
    let before = rung_counters();
    let out = run();
    let after = rung_counters();
    (out, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn keyed_rung_equals_the_boxed_path_and_the_public_phases_bit_for_bit() {
    let _serial = counter_lock();
    let mut seen = std::collections::BTreeMap::<Expect, usize>::new();
    for seed in 0..CASES {
        let case = Case::generate(&mut Gen(seed));
        let boxed_pairs = ring_map_pairs_faulted(
            case.mapper(),
            case.items.clone(),
            case.options(ColumnarPolicy::Disabled),
        )
        .map_err(EvalError::from);
        let expect = case.expect(&boxed_pairs);

        let (keyed, on_auto) = moved(|| case.block(ColumnarPolicy::Auto));
        let (boxed, on_disabled) = moved(|| case.block(ColumnarPolicy::Disabled));
        let (keyed_boxed, on_boxed_input) = moved(|| case.block_on_boxed_list());
        let (chunks, fallbacks) = (on_auto[CHUNKS], on_auto[FALLBACKS]);
        let composed = case.composed();
        assert!(
            same_results(&keyed, &boxed),
            "seed {seed}: Auto {keyed:?} vs Disabled {boxed:?} for {case:?}"
        );
        assert!(
            same_results(&keyed, &composed),
            "seed {seed}: Auto {keyed:?} vs composed phases {composed:?} for {case:?}"
        );
        assert!(
            same_results(&keyed, &keyed_boxed),
            "seed {seed}: Auto {keyed:?} vs Auto on a boxed list {keyed_boxed:?} for {case:?}"
        );
        assert_eq!(
            (on_boxed_input[CHUNKS] > 0, on_boxed_input[FALLBACKS]),
            (chunks > 0, fallbacks),
            "seed {seed}: the two forms took different rungs for {case:?}"
        );
        match expect {
            Expect::Keyed => assert!(
                chunks > 0 && fallbacks == 0,
                "seed {seed}: expected the keyed rung ({chunks} chunks, {fallbacks} fallbacks) for {case:?}"
            ),
            Expect::Small => assert_eq!(
                (chunks, fallbacks),
                (0, 0),
                "seed {seed}: a small list touches no columnar counter"
            ),
            _ => assert_eq!(
                (chunks, fallbacks),
                (0, 1),
                "seed {seed}: expected one declined batch and no chunk ({expect:?}) for {case:?}"
            ),
        }
        if expect != Expect::Keyed && boxed.is_ok() {
            // A declined call counts what the boxed path counts, plus its
            // one batch fallback: whatever the rung tried before it
            // declined moves nothing. (An error can stop a pooled map at
            // a varying item, so only complete runs compare.)
            let mut want = on_disabled;
            want[FALLBACKS] += u64::from(expect != Expect::Small);
            assert_eq!(
                on_auto, want,
                "seed {seed}: {expect:?} under Auto vs Disabled counters for {case:?}"
            );
        }
        *seen.entry(expect).or_default() += 1;
    }
    for expect in [
        Expect::Keyed,
        Expect::Small,
        Expect::ThreeItems,
        Expect::ListKey,
        Expect::OtherKey,
        Expect::TextValue,
        Expect::Regime,
    ] {
        assert!(
            seen.get(&expect).copied().unwrap_or(0) > 0,
            "no generated case took the {expect:?} way; saw {seen:?}"
        );
    }
}

#[test]
fn keyed_rung_equals_the_parallel_shuffle_on_large_key_columns() {
    let _serial = counter_lock();
    // 4,096 items over 1,500 distinct keys: the boxed path's grouping
    // takes the parallel shuffle, combined (at two or more workers) or
    // not, which the generated cases are too small to reach.
    let words: Vec<Value> = (0..4_096)
        .map(|i| Value::text(format!("{}#{}", WORDS[i % WORDS.len()], i % 1_500)))
        .collect();
    let numbers: Vec<Value> = (0..4_096)
        .map(|i| match i % 1_500 {
            0 => Value::Number(-0.0),
            k => Value::Number(k as f64 * 0.25 - 100.0),
        })
        .collect();
    for (items, value_expr) in [
        (&words, num(1.0)),
        (&numbers, add(mul(var("x"), num(0.5)), num(1.0))),
    ] {
        for (workers, combine, reducer) in [
            (1, CombinePolicy::Disabled, ReducerKind::Identity),
            (2, CombinePolicy::Auto, ReducerKind::Sum),
            (3, CombinePolicy::Auto, ReducerKind::Product),
            (4, CombinePolicy::Disabled, ReducerKind::Mean),
        ] {
            let case = Case {
                key: KeyKind::Param,
                value: ValueKind::Numeric,
                reducer,
                named: true,
                three_items: false,
                key_expr: var("x"),
                value_expr: value_expr.clone(),
                captured: None,
                items: items.clone(),
                workers,
                combine,
            };
            let (keyed, on_auto) = moved(|| case.block(ColumnarPolicy::Auto));
            let parallel_before = metrics::SHUFFLE_PARALLEL_RUNS.get();
            let boxed = case.block(ColumnarPolicy::Disabled);
            let parallel_runs = metrics::SHUFFLE_PARALLEL_RUNS.get() - parallel_before;
            assert!(
                same_results(&keyed, &boxed),
                "{workers} {combine:?} {reducer:?}"
            );
            assert!(same_results(&keyed, &case.composed()));
            assert!(
                on_auto[CHUNKS] > 0 && on_auto[FALLBACKS] == 0,
                "{workers} {combine:?} {reducer:?}: the keyed rung ran"
            );
            assert_eq!(parallel_runs, 1, "the boxed path took the parallel shuffle");
        }
    }
}

#[test]
fn regimes_that_differ_only_between_chunks_decline_after_the_map_and_count_once() {
    let _serial = counter_lock();
    // Words, then numbers: every chunk of the keyed map stays in one
    // regime, so the rung declines only when it merges the chunks, after
    // the whole keyed map ran.
    let items: Vec<Value> = (0..100)
        .map(|i| Value::text(WORDS[i % WORDS.len()]))
        .chain((0..100).map(|i| Value::Number((i % 9) as f64)))
        .collect();
    for (combine, reducer) in [
        (CombinePolicy::Auto, ReducerKind::Sum),
        (CombinePolicy::Disabled, ReducerKind::Sum),
        (CombinePolicy::Auto, ReducerKind::Identity),
    ] {
        let case = Case {
            key: KeyKind::Param,
            value: ValueKind::Constant,
            reducer,
            named: true,
            three_items: false,
            key_expr: var("x"),
            value_expr: num(1.0),
            captured: None,
            items: items.clone(),
            workers: 2,
            combine,
        };
        let (keyed, on_auto) = moved(|| case.block(ColumnarPolicy::Auto));
        let (boxed, on_disabled) = moved(|| case.block(ColumnarPolicy::Disabled));
        assert!(same_results(&keyed, &boxed), "{keyed:?} vs {boxed:?}");
        assert!(same_results(&keyed, &case.composed()));
        let mut want = on_disabled;
        want[FALLBACKS] += 1;
        assert_eq!(
            on_auto, want,
            "{combine:?} {reducer:?}: Auto vs Disabled counters"
        );
        assert_eq!(on_auto[CHUNKS], 0);
    }
}

/// `say` texts that match, token by token, allowing a `+`/`×` fold that
/// map-side combining reassociated to differ by a relative 1e-4.
fn said_close(a: &str, b: &str, float_fold: bool) -> bool {
    if a == b {
        return true;
    }
    let tokens = |s: &str| -> Vec<String> {
        s.split(['[', ']', ','])
            .map(|t| t.trim().to_string())
            .collect()
    };
    let (ta, tb) = (tokens(a), tokens(b));
    float_fold
        && ta.len() == tb.len()
        && ta.iter().zip(&tb).all(|(x, y)| {
            x == y
                || match (x.parse::<f64>(), y.parse::<f64>()) {
                    (Ok(p), Ok(q)) => (p - q).abs() <= 1e-4 * p.abs().max(q.abs()).max(1.0),
                    _ => false,
                }
        })
}

#[test]
fn vm_twin_says_the_same_through_worker_and_sequential_backends() {
    let _serial = counter_lock();
    let mut keyed_cases = 0;
    for seed in 0..CASES {
        let case = Case::generate(&mut Gen(seed));
        let boxed_pairs = ring_map_pairs_faulted(
            case.mapper(),
            case.items.clone(),
            case.options(ColumnarPolicy::Disabled),
        )
        .map_err(EvalError::from);
        if case.expect(&boxed_pairs) != Expect::Keyed {
            continue;
        }
        keyed_cases += 1;
        let params: Vec<&str> = if case.named { vec!["x"] } else { Vec::new() };
        let script = Script::on_green_flag(vec![say(map_reduce(
            ring_reporter_with(params, case.mapper_body()),
            ring_reporter_with(vec!["vals"], case.reducer_body()),
            var("xs"),
        ))]);
        let mut project = Project::new("keyed-twin").with_global(
            "xs",
            Constant::List(case.items.iter().map(Constant::from_value).collect()),
        );
        if let Some(k) = &case.captured {
            project = project.with_global("k", Constant::from_value(k));
        }
        let project = project.with_sprite(SpriteDef::new("S").with_script(script));
        let said = |parallel: bool| {
            let mut vm = Vm::new(project.clone());
            vm.world.default_workers = case.workers;
            if parallel {
                snap_parallel::install_with(&mut vm, WorkerBackend::default());
            }
            vm.green_flag();
            vm.run_until_idle();
            assert!(
                vm.world.errors.is_empty(),
                "seed {seed}: {:?}",
                vm.world.errors
            );
            vm.world.said().join("\n")
        };
        let (workers, sequential) = (said(true), said(false));
        let float_fold = matches!(case.reducer, ReducerKind::Sum | ReducerKind::Product);
        assert!(
            said_close(&workers, &sequential, float_fold),
            "seed {seed}: worker backend said {workers:?}, sequential {sequential:?} for {case:?}"
        );
    }
    assert!(keyed_cases > 50, "only {keyed_cases} keyed cases");
}
