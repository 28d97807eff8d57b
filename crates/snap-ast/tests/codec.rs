//! The two project codecs, XML and JSON, against each other and against
//! hostile input.
//!
//! Generated projects must survive both round trips unchanged (a NaN
//! may come back as another NaN), and their texts must hold every
//! character either format escapes. Cut or corrupted documents,
//! documents nested past the depth limit, very wide objects and trailing
//! content must each give an error, in bounded time and without
//! overflowing a 2 MiB thread stack (the default for spawned threads).
//! The golden test pins the XML text byte for byte, since saved projects
//! and the benchmark's inputs depend on it.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use serde::json::MAX_DEPTH;
use snap_ast::builder::*;
use snap_ast::project_xml::ProjectXmlError;
use snap_ast::{Constant, CustomBlock, Project, Script, SpriteDef, XmlError};
use std::time::{Duration, Instant};

/// Run `f` on a thread with a 2 MiB stack, so that a reader that recurses
/// without bound aborts the test instead of passing on a larger stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("codec panicked")
}

/// Pieces of text, each holding something a codec must escape or carry
/// through unchanged.
const PIECES: &[&str] = &[
    "a", "Z", "7", " ", "&", "<", ">", "\"", "'", "\n", "\r", "\t", "é", "漢字", "🦀", ";", "#",
    "&amp;", "]]>", "\\", "/",
];

fn tricky_text() -> impl Strategy<Value = String> {
    (prop::collection::vec(0..PIECES.len(), 0..10), 0u8..4).prop_map(|(picks, pad)| {
        let body: String = picks.iter().map(|&i| PIECES[i]).collect();
        match pad {
            0 => body,
            1 => format!("  {body}"),
            2 => format!("{body} "),
            _ => format!(" {body}  "),
        }
    })
}

fn number() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1e-300),
        Just(1e300),
        Just(-1e300),
        Just(0.1),
        -1e9f64..1e9,
        (-1e6f64..1e6).prop_map(f64::round),
    ]
}

/// A constant's numbers, which also take the values that compare unequal
/// to themselves or that strict JSON cannot spell.
fn constant_number() -> impl Strategy<Value = f64> {
    (0u8..10, number()).prop_map(|(pick, n)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => n,
    })
}

fn constant() -> impl Strategy<Value = Constant> {
    let leaf = prop_oneof![
        Just(Constant::Nothing),
        constant_number().prop_map(Constant::Number),
        tricky_text().prop_map(Constant::Text),
        any::<bool>().prop_map(Constant::Bool),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Constant::List)
    })
}

/// A project with nested constant globals and a builder-made sprite
/// script whose literals and names are generated too.
fn project() -> impl Strategy<Value = Project> {
    (
        tricky_text(),
        prop::collection::vec((tricky_text(), constant()), 0..4),
        (tricky_text(), tricky_text(), number(), number()),
    )
        .prop_map(|(name, globals, (sprite, word, a, b))| {
            let script = Script::on_green_flag(vec![
                set_var(word.clone(), join(vec![text(word.clone()), num(a)])),
                if_else(
                    lt(var(word.clone()), num(b)),
                    vec![say(parallel_map_over(
                        ring_reporter(mul(empty_slot(), num(a))),
                        number_list([a, b, 3.0]),
                    ))],
                    vec![say(text(sprite.clone()))],
                ),
            ]);
            let block = CustomBlock::reporter_expr(word.clone(), vec![word], num(b));
            let mut project = Project::new(name);
            for (var, value) in globals {
                project = project.with_global(var, value);
            }
            project.with_sprite(
                SpriteDef::new(sprite)
                    .with_script(script)
                    .with_custom_block(block),
            )
        })
}

/// `a` and `b` are the same constant bit for bit, any NaN matching any
/// other (`==` finds a NaN unequal to itself and -0 equal to 0).
fn same_constant(a: &Constant, b: &Constant) -> bool {
    match (a, b) {
        (Constant::Number(x), Constant::Number(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (Constant::List(xs), Constant::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_constant(x, y))
        }
        _ => a == b,
    }
}

/// Assert that `back` is `original` loaded again: its globals by
/// [`same_constant`] and the rest by `==`.
fn assert_same_project(back: Project, original: &Project) {
    assert_eq!(back.globals.len(), original.globals.len());
    for ((name, value), (want_name, want)) in back.globals.iter().zip(&original.globals) {
        assert_eq!(name, want_name);
        assert!(same_constant(value, want), "{value:?} != {want:?}");
    }
    let rest = |p: Project| Project {
        globals: Vec::new(),
        ..p
    };
    assert_eq!(rest(back), rest(original.clone()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_projects_roundtrip_through_both_formats(p in project()) {
        let via_xml = Project::from_xml(&p.to_xml()).expect("written XML loads");
        assert_same_project(via_xml, &p);
        let via_json = Project::from_json(&p.to_json()).expect("written JSON loads");
        assert_same_project(via_json, &p);
    }
}

/// Load every cut of `doc` at a char boundary, then `tries` copies with
/// one char replaced by markup, on a small stack. Each must return.
fn mutate_and_load(doc: String, seed: u64, tries: usize, load: fn(&str)) {
    on_small_stack(move || {
        for (cut, _) in doc.char_indices() {
            load(&doc[..cut]);
        }
        let chars: Vec<char> = doc.chars().collect();
        let mut rng = TestRng::seed_from_u64(seed);
        for _ in 0..tries {
            let mut mutated = chars.clone();
            let at = rng.below(chars.len() as u64) as usize;
            mutated[at] = ['<', '>', '"', '&', '/'][rng.below(5) as usize];
            load(&mutated.iter().collect::<String>());
        }
    })
}

#[test]
fn cut_and_corrupted_documents_give_errors_not_panics() {
    // Two projects of about 8 KB of XML: each cut is read in full, so
    // the cost grows with the square of the size.
    let runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(2));
    for case in 0..runner.config.cases {
        let p = project().generate(&mut runner.rng_for_case(case));
        let (xml, json) = (p.to_xml(), p.to_json());
        let seed = u64::from(case);
        mutate_and_load(xml, seed, 400, |doc| drop(Project::from_xml(doc)));
        mutate_and_load(json, seed, 400, |doc| drop(Project::from_json(doc)));
    }
}

/// A fixed project touching every escape, number form and value kind.
fn golden_project() -> Project {
    let tricky = "a&b <c> \"d\" 'e'\nf\rg\th é漢🦀 ;#&amp;";
    Project::new("golden <&> \"project\"")
        .with_global(
            "list",
            Constant::List(vec![
                Constant::Number(0.0),
                Constant::Number(-0.0),
                Constant::Number(1.5),
                Constant::Number(-42.0),
                Constant::Number(1e-300),
                Constant::Number(1e300),
                Constant::Number(9e15),
                Constant::Number(f64::INFINITY),
                Constant::Number(f64::NEG_INFINITY),
                Constant::Nothing,
                Constant::Bool(true),
                Constant::Bool(false),
                Constant::List(vec![]),
                Constant::List(vec![Constant::Text(String::new())]),
            ]),
        )
        .with_global(tricky, Constant::Text(format!("  {tricky}  ")))
        .with_sprite(
            SpriteDef::new("Cat")
                .at(-10.5, 20.0)
                .with_variable("n", Constant::Number(3.0))
                .with_script(Script::on_green_flag(vec![
                    set_var(
                        "ys",
                        map_over(ring_reporter(add(empty_slot(), num(1.0))), var("xs")),
                    ),
                    say(join(vec![text(tricky), item(num(1.0), var("ys"))])),
                ]))
                .with_custom_block(CustomBlock::reporter_expr(
                    "double %n",
                    vec!["n".into()],
                    mul(var("n"), num(2.0)),
                )),
        )
}

#[test]
fn numbers_keep_their_sign_and_bits_through_both_formats() {
    // `==` cannot tell -0 from 0, so compare the bits of what comes back.
    let numbers = [
        -0.0,
        0.0,
        1e300,
        -1e300,
        1e-300,
        5e-324,
        f64::MAX,
        1e21,
        1e-7,
        9e15,
        0.1,
        -42.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let project = Project::new("numbers").with_global(
        "xs",
        Constant::List(numbers.iter().copied().map(Constant::Number).collect()),
    );
    // Any NaN stands for all of them: neither format keeps a NaN's payload.
    let bits = |p: &Project| -> Vec<Option<u64>> {
        let Constant::List(items) = &p.globals[0].1 else {
            panic!("the global is a list");
        };
        items
            .iter()
            .map(|c| match c {
                Constant::Number(n) => (!n.is_nan()).then(|| n.to_bits()),
                other => panic!("not a number: {other:?}"),
            })
            .collect()
    };
    let want: Vec<Option<u64>> = bits(&project);
    let (xml, json) = (project.to_xml(), project.to_json());
    assert_eq!(bits(&Project::from_xml(&xml).unwrap()), want);
    assert_eq!(bits(&Project::from_json(&json).unwrap()), want);
    // Strict JSON has no spelling for the non-finite numbers; JavaScript's,
    // which both formats write, load back as numbers, not as `Nothing`.
    for written in ["NaN", "Infinity", "-Infinity"] {
        assert!(xml.contains(&format!("value=\"{written}\"")), "{written}");
        let line = |l: &str| l.trim().trim_end_matches(',') == written;
        assert!(json.lines().any(line), "{written} missing from:\n{json}");
    }
    // Exponent form only outside [1e-6, 1e21): typical values keep their
    // plain form.
    for written in [
        "\"-0\"",
        "\"1e300\"",
        "\"1e-300\"",
        "\"1e21\"",
        "\"1e-7\"",
        "\"9000000000000000\"",
        "\"0.1\"",
    ] {
        assert!(xml.contains(written), "{written} missing from:\n{xml}");
    }
}

#[test]
fn to_xml_writes_the_pinned_text() {
    let golden = include_str!("golden/project.xml");
    let written = golden_project().to_xml();
    assert!(written == golden, "to_xml changed:\n{written}");
    assert_eq!(Project::from_xml(golden).unwrap(), golden_project());
}

#[test]
fn each_item_of_a_list_constant_is_one_element() {
    let with = |items: Vec<Constant>| {
        let xml = Project::new("items")
            .with_global("xs", Constant::List(items))
            .to_xml();
        (xml.matches("<item").count(), xml.matches("<field").count())
    };
    let items: Vec<Constant> = (0..1_000)
        .map(|i| match i % 4 {
            0 => Constant::Number(f64::from(i) * 0.5),
            1 => Constant::Text(format!("word {i}")),
            2 => Constant::Bool(i % 3 == 0),
            _ => Constant::Nothing,
        })
        .collect();
    let n = items.len();
    let (empty_items, empty_fields) = with(Vec::new());
    let (all_items, all_fields) = with(items);
    assert_eq!(all_items - empty_items, n, "one <item> per list item");
    assert_eq!(all_fields, empty_fields, "no <field> inside a constant");
}

/// A project whose one script says `length of` nested `depth` times
/// around a number.
fn deep_length_of(depth: usize) -> Project {
    let chain = (0..depth).fold(num(3.0), |inner, _| length_of(inner));
    Project::new("deep")
        .with_sprite(SpriteDef::new("Cat").with_script(Script::on_green_flag(vec![say(chain)])))
}

#[test]
fn a_deep_expression_saves_and_loads_in_both_formats_on_a_small_stack() {
    // The number inside 500 `length of` blocks is the 509th nested XML
    // element (the JSON text nests one level less: a number is no level
    // there), so five more blocks pass the depth limit in either format.
    // A debug build, which gives every temporary its own stack slot, fits
    // them too, because the derived codecs handle each enum variant in
    // its own out-of-line frame.
    on_small_stack(|| {
        let p = deep_length_of(500);
        let (xml, json) = (p.to_xml(), p.to_json());
        assert_eq!(Project::from_xml(&xml).expect("deep XML loads"), p);
        assert_eq!(Project::from_json(&json).expect("deep JSON loads"), p);
    });
    let p = deep_length_of(505);
    assert!(xml_too_deep(p.to_xml()));
    assert!(json_too_deep(p.to_json()));
}

fn deep_json(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

/// `depth` nested elements, the outermost being `<project>`.
fn deep_xml(depth: usize) -> String {
    let inner = depth.saturating_sub(1);
    format!(
        "<project type=\"array\">{}{}</project>",
        "<item type=\"array\">".repeat(inner),
        "</item>".repeat(inner)
    )
}

fn json_too_deep(doc: String) -> bool {
    on_small_stack(move || matches!(Project::from_json(&doc), Err(serde_json::Error::TooDeep)))
}

fn xml_too_deep(doc: String) -> bool {
    on_small_stack(move || {
        matches!(
            Project::from_xml(&doc),
            Err(ProjectXmlError::Xml(XmlError::TooDeep))
        )
    })
}

#[test]
fn nesting_past_the_limit_is_a_typed_error() {
    assert!(json_too_deep(deep_json(100_000)));
    assert!(xml_too_deep(deep_xml(100_000)));
    assert!(json_too_deep(deep_json(MAX_DEPTH + 1)));
    assert!(xml_too_deep(deep_xml(MAX_DEPTH + 1)));
}

#[test]
fn nesting_at_the_limit_loads_without_overflow() {
    // Arrays where a project belongs: a shape error, reached only after
    // the whole document was read and before it is dropped.
    let json = on_small_stack(|| Project::from_json(&deep_json(MAX_DEPTH)).unwrap_err());
    assert_eq!(json.to_string(), "Project: expected object, found array");
    let xml = on_small_stack(|| Project::from_xml(&deep_xml(MAX_DEPTH)).unwrap_err());
    assert!(matches!(xml, ProjectXmlError::Shape(_)), "{xml}");
}

#[test]
fn decode_errors_stay_short_on_huge_input() {
    let numbers: Vec<String> = (0..192_000).map(|i| format!("{}.25", i * 7)).collect();
    let json = format!("[{}]", numbers.join(","));
    assert!(json.len() > 1_800_000);
    let message = Project::from_json(&json).unwrap_err().to_string();
    assert!(message.len() < 1024, "{} bytes", message.len());
    assert_eq!(message, "Project: expected object, found array");

    let items: String = numbers
        .iter()
        .map(|n| format!("<item type=\"number\" value=\"{n}\"/>"))
        .collect();
    let xml = format!("<project type=\"array\">{items}</project>");
    let message = Project::from_xml(&xml).unwrap_err().to_string();
    assert!(message.len() < 1024, "{} bytes", message.len());
    assert!(
        message.ends_with("Project: expected object, found array"),
        "{message}"
    );

    // A constant is a plain JSON value, so an object in its place is an
    // error that names no key.
    let tag = "x".repeat(100_000);
    let doc = format!(
        r#"{{"name":"p","globals":[["g",{{"{tag}":1}}]],"global_blocks":[],"stage_scripts":[],"sprites":[]}}"#
    );
    let message = Project::from_json(&doc).unwrap_err().to_string();
    assert!(message.len() < 1024, "{} bytes", message.len());
    assert!(
        message.starts_with("Constant: expected null, number"),
        "{message}"
    );
    // Names taken from the input are cut short.
    let doc = format!(
        r#"{{"name":"p","globals":[],"global_blocks":[],"stage_scripts":[{{"hat":"GreenFlag","body":[{{"{tag}":1}}]}}],"sprites":[]}}"#
    );
    let message = Project::from_json(&doc).unwrap_err().to_string();
    assert!(message.len() < 1024, "{} bytes", message.len());
    assert!(
        message.starts_with("Stmt: unknown variant \"xxx"),
        "{message}"
    );
    let message = Project::from_xml(&format!("<{tag}/>"))
        .unwrap_err()
        .to_string();
    assert!(message.len() < 1024, "{} bytes", message.len());
}

#[test]
fn repeated_keys_keep_the_first_position_and_the_last_value() {
    let parsed = serde::json::parse(r#"{"a": 1, "b": 2, "a": 3, "c": 4, "a": 5}"#).unwrap();
    let keys: Vec<&String> = parsed.as_object().unwrap().iter().map(|(k, _)| k).collect();
    assert_eq!(keys, ["a", "b", "c"]);
    let a = parsed.as_object().unwrap().get("a").unwrap();
    assert_eq!(
        a,
        &serde_json::Value::Number(serde_json::Number::from_f64(5.0))
    );
}

#[test]
fn wide_objects_load_in_linear_time() {
    const KEYS: usize = 200_000;
    let fields: Vec<String> = (0..KEYS).map(|i| format!("\"k{i}\":{i}")).collect();
    let json = format!("{{{}}}", fields.join(","));
    let start = Instant::now();
    let err = Project::from_json(&json).unwrap_err();
    assert_eq!(err.to_string(), "Project: missing field name");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "{:?}",
        start.elapsed()
    );

    let fields: String = (0..KEYS)
        .map(|i| format!("<field type=\"number\" value=\"{i}\" name=\"k{i}\"/>"))
        .collect();
    let xml = format!("<project type=\"object\">{fields}</project>");
    let start = Instant::now();
    let err = Project::from_xml(&xml).unwrap_err();
    assert!(matches!(err, ProjectXmlError::Shape(_)), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "{:?}",
        start.elapsed()
    );
}

#[test]
fn only_whitespace_may_follow_the_document() {
    let p = golden_project();
    let (xml, json) = (p.to_xml(), p.to_json());
    assert_eq!(Project::from_xml(&format!("{xml} \n\t")).unwrap(), p);
    assert_eq!(Project::from_json(&format!("{json} \n\t")).unwrap(), p);

    let junk = format!("{xml}<project type=\"bogus\"/> junk");
    match Project::from_xml(&junk) {
        Err(ProjectXmlError::Xml(XmlError::Unexpected(at))) => assert_eq!(at, xml.len()),
        other => panic!("trailing content accepted: {other:?}"),
    }
    assert!(Project::from_json(&format!("{json} {{}}")).is_err());
}
