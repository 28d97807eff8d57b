//! A8: loading a project whose input is one large list constant.
//!
//! The paper's word count (Fig. 11) and climate mean (Fig. 13) carry
//! their whole input as one list constant in the project file, so the
//! file's size and its load time grow with the data. This group times
//! `Project::from_xml` and `Project::from_json` on an e4-shaped project
//! (200,000 seeded Zipf words from `snap-data`) and an e5-shaped one
//! (192,000 monthly readings: 400 stations × 40 years × 12), each with
//! its paper script. An iteration reads the text, decodes it and drops
//! the loaded project. Before timing, the bench prints each text's bytes
//! per input item, which `to_xml`'s encoding of a constant sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::{Constant, Project, Script, SpriteDef};
use snap_data::{generate_noaa, generate_words, NoaaConfig};

const WORDS: usize = 200_000;
const SEED: u64 = 1;

/// `say (mapReduce mapper reducer over <global>)` in a sprite, with the
/// input as the global's list constant.
fn project(global: &str, items: Vec<Constant>, mapper: snap_ast::Expr) -> Project {
    let reducer = ring_reporter_with(
        vec!["vals"],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    );
    let script = Script::on_green_flag(vec![say(map_reduce(mapper, reducer, var(global)))]);
    Project::new(global)
        .with_global(global, Constant::List(items))
        .with_sprite(SpriteDef::new("Sprite").with_script(script))
}

/// Fig. 11's word count over a Zipf corpus.
fn words() -> (Project, usize) {
    let items: Vec<Constant> = generate_words(WORDS, SEED)
        .into_iter()
        .map(Constant::Text)
        .collect();
    let n = items.len();
    let mapper = ring_reporter_with(vec!["w"], make_list(vec![var("w"), num(1.0)]));
    (project("words", items, mapper), n)
}

/// Fig. 13's climate mean over monthly readings in °F.
fn readings() -> (Project, usize) {
    let config = NoaaConfig {
        stations: 400,
        years: 40,
        readings_per_year: 12,
        seed: SEED,
        ..NoaaConfig::default()
    };
    let items: Vec<Constant> = generate_noaa(&config)
        .readings
        .iter()
        .map(|r| Constant::Number(r.temp_f))
        .collect();
    let n = items.len();
    let celsius = div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0));
    let mapper = ring_reporter_with(vec!["t"], make_list(vec![text("avg"), celsius]));
    (project("temps", items, mapper), n)
}

fn bench_project_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("a8_project_load");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(15);

    for (name, (project, items)) in [("e4_words", words()), ("e5_readings", readings())] {
        let (xml, json) = (project.to_xml(), project.to_json());
        drop(project);
        for (format, text) in [("xml", &xml), ("json", &json)] {
            let per_item = text.len() as f64 / items as f64;
            println!(
                "{name}/{format}: {items} items, {} bytes, {per_item:.1} bytes per item",
                text.len()
            );
        }
        group.throughput(Throughput::Elements(items as u64));
        group.bench_function(BenchmarkId::new(name, "from_xml"), |b| {
            b.iter(|| Project::from_xml(black_box(&xml)).unwrap())
        });
        group.bench_function(BenchmarkId::new(name, "from_json"), |b| {
            b.iter(|| Project::from_json(black_box(&json)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_project_load);
criterion_main!(benches);
