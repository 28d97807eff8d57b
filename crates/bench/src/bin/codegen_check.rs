//! `codegen_check` — compile, run, and differentially verify every
//! emitted C/OpenMP scenario (the PR 9 CI gate for the native tier).
//!
//! ```text
//! codegen_check [--require-toolchain] [--out <dir>] [--trace <path>]
//! ```
//!
//! For every scenario in [`snap_codegen::harness::scenarios`] —
//! Listings 3–5 as runnable artifacts, the Fig. 5 / climate map rings,
//! and the climate/word_count MapReduce pairs — the check:
//!
//! 1. emits the C sources (written under `--out` for CI artifacts),
//! 2. compiles them with the probed toolchain (`-Wall -Werror`,
//!    content-addressed binary cache under `target/codegen-cache/`),
//! 3. runs the binary on the same `snap-data` inputs the VM uses, and
//! 4. asserts tier equivalence: native ≡ tree-walk ≡ scalar ≡ batch
//!    (maps, bit-for-bit with the any-NaN rule; also against the pooled
//!    columnar and scalar `ring_map` pipelines) and native ≡ VM
//!    `mapReduce` within the documented reduction tolerance.
//!
//! Exit codes: `0` all green (or toolchain missing without
//! `--require-toolchain` — an auto-skip with a visible
//! `codegen.toolchain_missing` note so tier-1 stays green on bare
//! hosts); `1` any compile/run/equivalence failure, with a diff report
//! written next to the sources.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use snap_ast::{Ring, Value};
use snap_codegen::harness::{self, compare_pairs, compare_values, Harness, Scenario, ScenarioKind};
use snap_codegen::openmp::{emit_map_openmp, emit_mapreduce_openmp_protocol};
use snap_data::corpus::generate_words;
use snap_data::noaa::{generate as generate_noaa, NoaaConfig};
use snap_workers::ring_fn::{ring_map, ring_map_faulted, RingMapOptions};

fn usage() -> String {
    "usage: codegen_check [--require-toolchain] [--out <dir>] [--trace <path>]".to_owned()
}

struct Opts {
    require_toolchain: bool,
    out: PathBuf,
    trace: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        require_toolchain: false,
        out: PathBuf::from("target/ci/codegen"),
        trace: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--require-toolchain" => opts.require_toolchain = true,
            "--out" => {
                i += 1;
                opts.out = PathBuf::from(args.get(i).ok_or_else(usage)?);
            }
            "--trace" => {
                i += 1;
                opts.trace = Some(args.get(i).ok_or_else(usage)?.clone());
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
        i += 1;
    }
    Ok(opts)
}

/// The numeric inputs map scenarios run on: the NOAA Fahrenheit
/// readings the climate example uses, prefixed with a deliberate batch
/// of IEEE edge cases.
fn map_inputs() -> Vec<f64> {
    let mut inputs = vec![
        0.0,
        -0.0,
        32.0,
        212.0,
        -40.0,
        98.6,
        0.5,
        -3.75,
        1e300,
        -1e300,
        1e-300,
        5e-324,
        f64::MAX,
        f64::EPSILON,
        1.0 / 3.0,
    ];
    let dataset = generate_noaa(&NoaaConfig {
        stations: 12,
        years: 3,
        readings_per_year: 12,
        ..NoaaConfig::default()
    });
    inputs.extend(dataset.readings.iter().map(|r| r.temp_f));
    inputs
}

fn mapreduce_pairs(name: &str) -> Vec<(String, f64)> {
    match name {
        "word_count_mapreduce" => generate_words(2000, 42)
            .into_iter()
            .map(|w| (w, 1.0))
            .collect(),
        _ => {
            let dataset = generate_noaa(&NoaaConfig {
                stations: 16,
                years: 4,
                readings_per_year: 12,
                ..NoaaConfig::default()
            });
            dataset.station_temp_pairs()
        }
    }
}

fn write_sources(out: &Path, name: &str, sources: &[(&str, &str)]) {
    let dir = out.join(name);
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    for (file, text) in sources {
        let _ = fs::write(dir.join(file), text);
    }
}

fn write_diff_report(out: &Path, name: &str, detail: &str) {
    let dir = out.join(name);
    let _ = fs::create_dir_all(&dir);
    let _ = fs::write(dir.join("diff_report.txt"), detail);
}

/// The pooled pipelines' view of a map scenario, as plain f64: the
/// numbers as a list, which runs on the columnar tier, and the same
/// numbers held boxed, which run one scalar call per item.
fn pooled_maps(ring: &Arc<Ring>, inputs: &[f64]) -> Result<(Vec<f64>, Vec<f64>), String> {
    let items: Vec<Value> = inputs.iter().map(|&x| Value::Number(x)).collect();
    let options = RingMapOptions { workers: 4 };
    let per_item = ring_map_faulted(Arc::clone(ring), &items, options)
        .map_err(|e| format!("pooled per-item ring_map failed: {e:?}"))?;
    let columnar = ring_map(Arc::clone(ring), items, options)
        .map_err(|e| format!("pooled columnar ring_map failed: {e:?}"))?;
    let numbers = |out: Vec<Value>| out.iter().map(Value::to_number).collect();
    Ok((numbers(columnar), numbers(per_item)))
}

/// VM-side MapReduce via the paper's parallel block, normalized to
/// `(key, value)` pairs.
fn vm_mapreduce(
    mapper: &Ring,
    reducer: &Ring,
    name: &str,
    pairs: &[(String, f64)],
) -> Result<Vec<(String, f64)>, String> {
    // The VM block maps over the same per-record values the C `map`
    // sees: words for word count, temperatures for the climate rings.
    let items: Vec<Value> = match name {
        "word_count_mapreduce" => pairs.iter().map(|(k, _)| Value::text(k.clone())).collect(),
        _ => pairs.iter().map(|(_, v)| Value::Number(*v)).collect(),
    };
    let grouped = snap_parallel::blocks::map_reduce(
        Arc::new(mapper.clone()),
        Arc::new(reducer.clone()),
        items,
        4,
    )
    .map_err(|e| format!("VM mapReduce failed: {e:?}"))?;
    let mut out = Vec::with_capacity(grouped.len());
    for pair in &grouped {
        let list = pair
            .as_list()
            .ok_or_else(|| "VM mapReduce returned a non-pair".to_owned())?;
        let key = match list.item(1) {
            Some(Value::Text(s)) => s,
            Some(Value::Number(n)) => Value::format_number(n),
            other => return Err(format!("VM mapReduce key {other:?}")),
        };
        let val = list
            .item(2)
            .ok_or_else(|| "VM mapReduce pair missing value".to_owned())?
            .to_number();
        out.push((key, val));
    }
    Ok(out)
}

fn run_scenario(h: &Harness, scenario: &Scenario, out: &Path) -> Result<String, String> {
    let name = scenario.name;
    match &scenario.kind {
        ScenarioKind::Run { source, openmp } => {
            write_sources(out, name, &[("main.c", source)]);
            let program = h
                .compile(name, &[("main.c", source)], *openmp)
                .map_err(|e| e.to_string())?;
            let stdout = program.run("").map_err(|e| e.to_string())?;
            Ok(format!("ran, {} bytes of output", stdout.len()))
        }
        ScenarioKind::Map { ring } => {
            let source = emit_map_openmp(ring).map_err(|e| e.to_string())?;
            write_sources(out, name, &[("map_program.c", &source)]);
            let inputs = map_inputs();
            let native = h
                .run_map(name, &source, &inputs)
                .map_err(|e| e.to_string())?;
            let tiers = harness::oracle_map_tiers(ring, &inputs).map_err(|e| e.to_string())?;
            compare_values("native vs tree-walk", &native, &tiers.treewalk)?;
            compare_values("native vs scalar", &native, &tiers.scalar)?;
            let batch = tiers
                .batch
                .ok_or_else(|| "map ring unexpectedly not batchable".to_owned())?;
            compare_values("native vs batch", &native, &batch)?;
            let (columnar, scalar_pool) = pooled_maps(ring, &inputs)?;
            compare_values("native vs pooled columnar", &native, &columnar)?;
            compare_values("native vs pooled scalar", &native, &scalar_pool)?;
            Ok(format!(
                "{} elements bit-for-bit across 4 tiers (+2 pooled pipelines)",
                inputs.len()
            ))
        }
        ScenarioKind::MapReduce {
            mapper,
            reducer,
            rel_tol,
        } => {
            let program =
                emit_mapreduce_openmp_protocol(mapper, reducer).map_err(|e| e.to_string())?;
            write_sources(
                out,
                name,
                &[
                    ("kvp.h", &program.kvp_h),
                    ("mapred.c", &program.mapred_c),
                    ("driver.c", &program.driver_c),
                ],
            );
            let pairs = mapreduce_pairs(name);
            let native = h
                .run_mapreduce(name, &program, &pairs)
                .map_err(|e| e.to_string())?;
            let reference =
                harness::reference_mapreduce(mapper, reducer, &pairs).map_err(|e| e.to_string())?;
            compare_pairs("native vs reference", &native, &reference, *rel_tol)?;
            let vm = vm_mapreduce(mapper, reducer, name, &pairs)?;
            compare_pairs("native vs VM mapReduce", &native, &vm, *rel_tol)?;
            Ok(format!(
                "{} records -> {} groups, native == reference == VM (rel tol {rel_tol:e})",
                pairs.len(),
                native.len()
            ))
        }
    }
}

fn finish_trace(trace: &Option<String>) {
    let Some(path) = trace else { return };
    let report = snap_trace::report();
    println!("\n{}", report.to_table());
    let spans = snap_trace::collect_spans();
    fs::write(path, snap_trace::chrome_trace_json(&spans)).expect("write trace");
    let report_path = format!("{path}.report.json");
    fs::write(&report_path, report.to_json()).expect("write report");
    println!(
        "wrote {} spans to {path} (report: {report_path})",
        spans.len()
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("codegen_check FAILED: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.trace.is_some() {
        snap_trace::set_enabled(true);
    }

    let harness = match Harness::detect() {
        Ok(h) => h,
        Err(e) => {
            if opts.require_toolchain {
                eprintln!("codegen_check FAILED: {e} (--require-toolchain)");
                return ExitCode::FAILURE;
            }
            println!("codegen_check SKIPPED: {e}");
            println!(
                "codegen.toolchain_missing = {}",
                snap_trace::well_known::CODEGEN_TOOLCHAIN_MISSING.get()
            );
            finish_trace(&opts.trace);
            return ExitCode::SUCCESS;
        }
    };
    let tc = harness.toolchain();
    println!(
        "toolchain: {} ({}), OpenMP {}",
        tc.cc,
        tc.version,
        if tc.openmp {
            "yes"
        } else {
            "no (single-thread fallback)"
        }
    );

    let mut failures = 0u32;
    for scenario in harness::scenarios() {
        match run_scenario(&harness, &scenario, &opts.out) {
            Ok(detail) => println!("PASS {:<24} {detail}", scenario.name),
            Err(detail) => {
                failures += 1;
                eprintln!("FAIL {:<24} {detail}", scenario.name);
                write_diff_report(&opts.out, scenario.name, &detail);
            }
        }
    }

    use snap_trace::well_known as wk;
    println!(
        "\ncodegen.compiles = {}, codegen.runs = {}, codegen.native_elems = {}",
        wk::CODEGEN_COMPILES.get(),
        wk::CODEGEN_RUNS.get(),
        wk::CODEGEN_NATIVE_ELEMS.get()
    );
    println!(
        "codegen.cache_hits = {}, codegen.cache_misses = {}",
        wk::CODEGEN_CACHE_HITS.get(),
        wk::CODEGEN_CACHE_MISSES.get()
    );
    finish_trace(&opts.trace);

    if failures > 0 {
        eprintln!(
            "codegen_check FAILED: {failures} scenario(s) failed; sources and diff reports under {}",
            opts.out.display()
        );
        return ExitCode::FAILURE;
    }
    println!("codegen_check passed: every scenario compiled, ran, and agreed");
    ExitCode::SUCCESS
}
