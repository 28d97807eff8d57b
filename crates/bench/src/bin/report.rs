//! The experiment report: regenerates every quantitative result in the
//! paper and prints paper-vs-measured tables.
//!
//! ```sh
//! cargo run --release -p bench --bin report            # all experiments
//! cargo run --release -p bench --bin report -- e3 e9   # a subset
//! ```

use std::time::{Duration, Instant};

use bench::*;
use snap_ast::builder::*;
use snap_ast::{Project, Script, SpriteDef, Value};
use snap_codegen::openmp;
use snap_data::{
    generate_noaa, generate_word_values, generate_words, reference_counts, simulate_cohort,
    tabulate, NoaaConfig, PAPER_TABLE,
};
use snap_vm::Vm;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id || a == "all");

    println!("psnap experiment report — every figure/listing of the paper");
    println!("host: {} CPU(s) available\n", num_cpus());

    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e10") {
        e10();
    }
    if want("e11") {
        e11();
    }
    if want("e12") {
        e12();
    }
    if want("e13") {
        e13();
    }
    if want("e14") {
        e14();
    }
}

fn e14() {
    header(
        "E14",
        "observability: snap-trace execution report for a traced run",
    );
    snap_trace::set_enabled(true);
    let ring = std::sync::Arc::new(snap_ast::Ring::reporter(mul(empty_slot(), num(10.0))));
    let items = number_items(10_000);
    let out = snap_parallel::parallel_map(ring, items, 4).expect("traced parallel map");
    assert_eq!(out.len(), 10_000);
    // Exercise the parallel shuffle too: word count over a corpus large
    // enough to cross the threshold.
    let mapper = std::sync::Arc::new(snap_ast::Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ));
    let reducer = std::sync::Arc::new(snap_ast::Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ));
    let words: Vec<Value> = generate_word_values(5_000, 7);
    snap_parallel::map_reduce(mapper, reducer, words, 4).expect("traced map_reduce");
    snap_trace::set_enabled(false);
    let report = snap_trace::report();
    for line in report.to_table().lines() {
        println!("  {line}");
    }
    println!();
}

fn e11() {
    header(
        "E11",
        "inter-node scaling (simulated cluster; paper sec. 6.3 future work)",
    );
    let items = number_items(4096);
    let base = snap_parallel::ClusterSpec {
        nodes: 1,
        cores_per_node: 4,
        compute_cost: 500,
        net_cost_per_item: 1,
        startup_cost: 2_000,
        ..snap_parallel::ClusterSpec::default()
    };
    println!("  compute-heavy items (compute 500, net 1, startup 2000 / node):");
    let rows = snap_parallel::strong_scaling_sweep(
        times_ten_ring(),
        items.clone(),
        &base,
        &[1, 2, 4, 8, 16, 32],
    )
    .unwrap();
    for (nodes, makespan, speedup) in rows {
        println!("    {nodes:>3} nodes: makespan {makespan:>8}  speedup {speedup:5.2}x");
    }
    println!("  network-bound items (compute 5, net 100):");
    let netty = snap_parallel::ClusterSpec {
        compute_cost: 5,
        net_cost_per_item: 100,
        ..base
    };
    let rows =
        snap_parallel::strong_scaling_sweep(times_ten_ring(), items, &netty, &[1, 2, 4, 8, 16, 32])
            .unwrap();
    for (nodes, makespan, speedup) in rows {
        println!("    {nodes:>3} nodes: makespan {makespan:>8}  speedup {speedup:5.2}x");
    }
    println!("  shape: compute-bound scales, network-bound saturates — the");
    println!("  crossover the cost model exposes.");
    println!();
}

fn e12() {
    header(
        "E12",
        "full Fig. 17 workflow: blocks -> OpenMP -> compile -> batch queue -> results",
    );
    let dir = std::env::temp_dir().join("psnap-report-wf");
    let Ok(pipeline) = snap_build::BuildPipeline::new(&dir) else {
        println!("  (cannot create build dir)");
        return;
    };
    if !pipeline.has_compiler() {
        println!("  (no C compiler; skipped)");
        return;
    }
    let dataset = generate_noaa(&NoaaConfig {
        stations: 5,
        years: 3,
        readings_per_year: 12,
        ..NoaaConfig::default()
    });
    let program = openmp::emit_mapreduce_openmp(
        &openmp::climate_mapper(),
        &openmp::averaging_reducer(),
        &dataset.station_temp_pairs(),
    )
    .unwrap();
    let mut cluster = snap_build::BatchScheduler::new(8, snap_build::Policy::Backfill);
    // Some background load so the queue is visible.
    cluster.submit(snap_build::JobSpec {
        name: "background".into(),
        nodes: 8,
        walltime: 10,
        runtime: 10,
    });
    cluster.tick();
    match snap_build::run_on_cluster(
        &pipeline,
        &mut cluster,
        &program,
        &snap_build::BatchRequest::default(),
    ) {
        Ok(report) => {
            println!(
                "  submission script generated ({} lines, #SBATCH outline)",
                report.script.lines().count()
            );
            println!(
                "  queued {} tick(s) behind background load, state {:?}",
                report.queue_wait, report.state
            );
            if let Some((key, value)) = report.results.first() {
                println!("  collected result: {key} = {value:.3} C");
            }
        }
        Err(e) => println!("  workflow failed: {e}"),
    }
    println!();
}

/// E13 — the comparison the paper's self-assessment says it lacked time
/// for: "a comparison … between parallel Snap! and a text-based parallel
/// programming language with respect to performance and
/// programmability". One block script, three executions: the psnap VM,
/// the generated C (harness flags, -O3), and the generated Python.
fn e13() {
    header(
        "E13",
        "blocks vs text-based languages (the paper's unfinished comparison)",
    );
    let n = 200_000u64;
    // set total to 0; for i = 1 to n { change total by i }; say total
    let script = vec![
        set_var("total", num(0.0)),
        for_loop(
            "i",
            num(1.0),
            num(n as f64),
            vec![change_var("total", var("i"))],
        ),
        say(var("total")),
    ];
    let expected = (n * (n + 1) / 2).to_string();

    // (a) the psnap VM (warp: pure compute, no scheduler yields).
    let vm_script = vec![warp(script.clone())];
    let start = Instant::now();
    let mut vm =
        Vm::new(Project::new("e13").with_sprite(
            SpriteDef::new("S").with_script(snap_ast::Script::on_green_flag(vm_script)),
        ));
    vm.green_flag();
    vm.run_until_idle();
    let vm_time = start.elapsed();
    let vm_ok = vm.world.said() == vec![expected.as_str()];

    println!("  psnap VM (interpreted blocks): {vm_time:>10.2?}  correct: {vm_ok}");

    // (b) generated C, compiled through the harness (-O3).
    let dir = std::env::temp_dir().join("psnap-e13");
    if let Ok(pipeline) = snap_build::BuildPipeline::new(&dir) {
        if pipeline.has_compiler() {
            match snap_codegen::emit_c_program(&script) {
                Ok(c_source) => {
                    pipeline.write_source("e13.c", &c_source).unwrap();
                    match pipeline.compile(&["e13.c"], "e13", false) {
                        Ok(binary) => {
                            let start = Instant::now();
                            let out = pipeline.run(&binary, &[]).unwrap_or_default();
                            let c_time = start.elapsed();
                            // C prints via %g (possibly scientific):
                            // compare numerically.
                            let c_ok =
                                out.trim().parse::<f64>().ok() == expected.parse::<f64>().ok();
                            println!(
                                "  generated C (cc -O3)         : {c_time:>10.2?}  correct: {c_ok}  (incl. process startup)"
                            );
                            println!(
                                "  abstraction cost: blocks are {:.0}x slower than the C the same blocks generate",
                                vm_time.as_secs_f64() / c_time.as_secs_f64().max(1e-9)
                            );
                        }
                        Err(e) => println!("  C compile failed: {e}"),
                    }
                }
                Err(e) => println!("  C generation failed: {e}"),
            }
        }
    }

    // (c) generated Python.
    if let Ok(py_source) = snap_codegen::emit_python_program(&script) {
        let start = Instant::now();
        let out = std::process::Command::new("python3")
            .arg("-c")
            .arg(&py_source)
            .output();
        let py_time = start.elapsed();
        match out {
            Ok(out) if out.status.success() => {
                let printed = String::from_utf8_lossy(&out.stdout);
                let py_ok = printed.trim().parse::<f64>().ok() == expected.parse::<f64>().ok();
                println!(
                    "  generated Python (python3)   : {py_time:>10.2?}  correct: {py_ok}  (incl. interpreter startup)"
                );
            }
            _ => println!("  (python3 unavailable; skipped)"),
        }
    }
    println!(
        "  programmability: the block script is {} blocks; the generated C is {} lines.",
        snap_ast::Stmt::block_count(&script),
        snap_codegen::emit_c_program(&script)
            .map(|s| s.lines().count())
            .unwrap_or(0)
    );
    println!();
}

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn header(id: &str, title: &str) {
    println!("==== {id}: {title} ====");
}

fn eval_on_fresh_vm(expr: &snap_ast::Expr) -> Value {
    let mut vm = Vm::new(Project::new("r").with_sprite(SpriteDef::new("S")));
    snap_parallel::install(&mut vm);
    vm.eval_expr(Some("S"), expr).expect("expression evaluates")
}

fn e1() {
    header("E1", "sequential map block (Fig. 4/6)");
    let out = eval_on_fresh_vm(&map_over(
        ring_reporter(mul(empty_slot(), num(10.0))),
        number_list([3.0, 7.0, 8.0]),
    ));
    println!("  paper : map (()×10) over [3,7,8] -> [30, 70, 80]");
    println!("  ours  : {out}");
    println!();
}

fn e2() {
    header("E2", "parallelMap block (Fig. 5/6)");
    let out = eval_on_fresh_vm(&parallel_map_with_workers(
        ring_reporter(mul(empty_slot(), num(10.0))),
        number_list([3.0, 7.0, 8.0]),
        num(4.0),
    ));
    println!("  paper : parallelMap, 4 workers -> [30, 70, 80]");
    println!("  ours  : {out}");
    // Fig. 6's long list: first ten in/out pairs.
    let long = eval_on_fresh_vm(&parallel_map_over(
        ring_reporter(mul(empty_slot(), num(10.0))),
        numbers_from_to(num(1.0), num(100000.0)),
    ));
    let first: Vec<String> = long
        .as_list()
        .unwrap()
        .to_vec()
        .iter()
        .take(10)
        .map(Value::to_display_string)
        .collect();
    println!("  first ten of 100k -> [{}]", first.join(", "));
    println!();
}

fn e3() {
    header("E3", "concession stand (Figs. 7-10)");
    let seq = run_concession(false, 3);
    let par = run_concession_last_fill(true, 3);
    let ideal = {
        // warp removes the scheduler overhead: footnote 5's "expected 9".
        let project = Project::new("ideal")
            .with_global(
                "cups",
                snap_ast::Constant::List(vec!["a".into(), "b".into(), "c".into()]),
            )
            .with_sprite(SpriteDef::new("P").with_script(Script::on_green_flag(vec![
                snap_ast::Stmt::ResetTimer,
                warp(vec![for_each(
                    "cup",
                    var("cups"),
                    vec![repeat(num(3.0), vec![wait(num(1.0))])],
                )]),
                say(timer()),
            ])));
        let mut vm = Vm::new(project);
        vm.green_flag();
        vm.run_until_idle();
        vm.world.said()[0].parse::<u64>().unwrap()
    };
    println!("  mode                   paper   ours");
    println!("  sequential (observed)     12     {seq}");
    println!("  sequential (expected)      9     {ideal}   (warp = no scheduler overhead)");
    println!("  parallel                   3     {par}");
    println!(
        "  speedup                  4.0x   {:.1}x",
        seq as f64 / par.max(1) as f64
    );
    println!();
}

fn e4() {
    header("E4", "MapReduce word count (Figs. 11-12)");
    let sentence = "the quick brown fox jumps over the lazy dog the end";
    let out = eval_on_fresh_vm(&map_reduce(
        ring_reporter_with(vec!["w"], make_list(vec![var("w"), num(1.0)])),
        ring_reporter_with(
            vec!["vals"],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ),
        split(text(sentence), text(" ")),
    ));
    println!("  input : {sentence:?}");
    println!("  output: {out}");
    // Scale check against the reference counter.
    let n = 50_000;
    let words = generate_words(n, 42);
    let reference = reference_counts(&words);
    let result = snap_parallel::map_reduce(
        word_count_mapper(),
        summing_reducer(),
        generate_word_values(n, 42),
        4,
    )
    .unwrap();
    let agree = result.len() == reference.len()
        && result.iter().zip(&reference).all(|(pair, (w, c))| {
            let pair = pair.as_list().unwrap();
            pair.item(1).unwrap().to_display_string() == *w
                && pair.item(2).unwrap().to_number() as u64 == *c
        });
    println!(
        "  {n}-word Zipf corpus: {} unique words, agrees with reference: {agree}",
        reference.len()
    );
    assert!(
        agree,
        "E4: mapReduce disagrees with the reference word count"
    );
    println!();
}

fn e5() {
    header("E5", "climate MapReduce (Fig. 13, 18-20)");
    let config = NoaaConfig {
        stations: 50,
        years: 40,
        readings_per_year: 52,
        ..NoaaConfig::default()
    };
    let dataset = generate_noaa(&config);
    let out = snap_parallel::map_reduce(
        climate_mapper(),
        averaging_reducer(),
        dataset.temps_f_values(),
        4,
    )
    .unwrap();
    let avg = out[0].as_list().unwrap().item(2).unwrap().to_number();
    let reference = snap_data::f_to_c(dataset.mean_f());
    println!(
        "  synthetic NOAA dataset: {} stations x {} years = {} readings",
        config.stations,
        config.years,
        dataset.readings.len()
    );
    println!("  mapReduce mean: {avg:.3} C   analytic reference: {reference:.3} C");
    let yearly = dataset.yearly_means_f();
    let first = snap_data::f_to_c(yearly.first().unwrap().1);
    let last = snap_data::f_to_c(yearly.last().unwrap().1);
    println!(
        "  warming signal recovered: {:+.2} C over {} years (configured {} F/decade)",
        last - first,
        config.years,
        config.warming_f_per_decade
    );
    println!();
}

fn e6() {
    header("E6", "hello world, C vs OpenMP (Listings 3-4)");
    println!("  listing 3 (sequential) and listing 4 (OpenMP) regenerated;");
    let delta = openmp::LISTING4_OPENMP_HELLO.lines().count() as i64
        - openmp::LISTING3_SEQUENTIAL_HELLO.lines().count() as i64;
    println!("  difference: {delta} lines (pragma + include + braces) — the paper's point");
    run_generated(openmp::OPENMP_HELLO_RUNNABLE);
    println!();
}

fn run_generated(source: &str) {
    let dir = std::env::temp_dir().join("psnap-report");
    let pipeline = match snap_build::BuildPipeline::new(&dir) {
        Ok(p) => p,
        Err(_) => return,
    };
    if !pipeline.has_compiler() {
        println!("  (no C compiler; compile-and-run skipped)");
        return;
    }
    pipeline.write_source("prog.c", source).unwrap();
    match pipeline.compile(&["prog.c"], "prog", true) {
        Ok(binary) => match pipeline.run(&binary, &[]) {
            Ok(out) => println!(
                "  compiled & ran: {} thread greetings",
                out.matches("hello(").count()
            ),
            Err(e) => println!("  run failed: {e}"),
        },
        Err(e) => println!("  compile failed: {e}"),
    }
}

fn e7() {
    header("E7", "map example -> C (Fig. 15-16, Listing 5)");
    let code = snap_codegen::emit_listing5();
    println!("  generated {} lines; key fragments:", code.lines().count());
    for fragment in [
        "int a[] = {3, 7, 8};",
        "node_t *b = (node_t *) malloc(sizeof(node_t));",
        "int i; for (i = 1; i <= len; i++){",
        "append((a[i - 1] * 10), b);",
    ] {
        println!(
            "    {} {}",
            if code.contains(fragment) {
                "OK "
            } else {
                "MISS"
            },
            fragment
        );
    }
    println!();
}

fn e8() {
    header("E8", "MapReduce -> OpenMP (Listings 6-7 + kvp.h)");
    let dataset = generate_noaa(&NoaaConfig {
        stations: 10,
        years: 5,
        readings_per_year: 12,
        ..NoaaConfig::default()
    });
    let program = openmp::emit_mapreduce_openmp(
        &openmp::climate_mapper(),
        &openmp::averaging_reducer(),
        &dataset.station_temp_pairs(),
    )
    .unwrap();
    println!(
        "  generated kvp.h ({} lines), mapred.c ({}), driver.c ({})",
        program.kvp_h.lines().count(),
        program.mapred_c.lines().count(),
        program.driver_c.lines().count()
    );
    let dir = std::env::temp_dir().join("psnap-report-mr");
    if let Ok(pipeline) = snap_build::BuildPipeline::new(&dir) {
        if pipeline.has_compiler() {
            match pipeline.build_and_run_mapreduce(&program) {
                Ok(results) => {
                    let vm_side = snap_parallel::map_reduce(
                        climate_mapper(),
                        averaging_reducer(),
                        dataset.temps_f_values(),
                        4,
                    )
                    .unwrap();
                    let vm_avg = vm_side[0].as_list().unwrap().item(2).unwrap().to_number();
                    let agree = (results[0].1 - vm_avg).abs() < 0.1;
                    println!(
                        "  OpenMP binary: {} = {:.3} C | in-VM blocks: {:.3} C | agree: {agree}",
                        results[0].0, results[0].1, vm_avg,
                    );
                    assert!(agree, "E8: the OpenMP binary and the in-VM blocks disagree");
                }
                Err(e) => println!("  build failed: {e}"),
            }
        } else {
            println!("  (no C compiler; compile-and-run skipped)");
        }
    }
    println!();
}

fn e9() {
    header("E9", "WCD survey (Section 5)");
    let table = tabulate(&simulate_cohort(100, 2016));
    println!("  question                         paper   ours");
    println!(
        "  career: computer science           29%    {:.0}%",
        table.career_cs_pct
    );
    println!(
        "  career: something else             54%    {:.0}%",
        table.career_other_pct
    );
    println!(
        "  career: no answer                  17%    {:.0}%",
        table.career_none_pct
    );
    println!(
        "  CS benefits non-CS career          57%    {:.0}%",
        table.benefit_pct
    );
    println!(
        "  impression: more favorable         86%    {:.0}%",
        table.more_favorable_pct
    );
    println!(
        "  impression: less favorable          9%    {:.0}%",
        table.less_favorable_pct
    );
    println!(
        "  impression: same / no opinion       6%    {:.0}%   (paper's 86+9+6 = 101, rounding)",
        table.same_pct
    );
    let _ = PAPER_TABLE;
    println!();
}

fn e10() {
    header(
        "E10",
        "worker scaling & crossover (ablation of Fig. 5's worker input)",
    );
    println!("  latency-bound items (2 ms simulated service time, 48 items):");
    let items = number_items(48);
    let ring = times_ten_ring();
    let mut base = None;
    for workers in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let _ = latency_map(
            ring.clone(),
            items.clone(),
            workers,
            Duration::from_millis(2),
        );
        let elapsed = start.elapsed();
        let baseline = *base.get_or_insert(elapsed);
        println!(
            "    {workers} worker(s): {elapsed:>10.2?}  speedup {:.2}x",
            baseline.as_secs_f64() / elapsed.as_secs_f64()
        );
    }
    println!("  compute-bound items (expensive ring, wall time; on a single-CPU");
    println!("  host the speedup is ~1x — see EXPERIMENTS.md on this gate):");
    let ring = expensive_ring(200);
    let items = number_items(512);
    let mut base = None;
    for workers in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let out = snap_parallel::parallel_map(ring.clone(), items.clone(), workers).unwrap();
        let elapsed = start.elapsed();
        let baseline = *base.get_or_insert(elapsed);
        println!(
            "    {workers} worker(s): {elapsed:>10.2?}  speedup {:.2}x  ({} results)",
            baseline.as_secs_f64() / elapsed.as_secs_f64(),
            out.len()
        );
    }
    // Crossover: tiny items where worker overhead dominates.
    println!("  overhead crossover (per-call worker spawn vs item count, x10 ring):");
    for n in [1usize, 10, 100, 10_000] {
        let items = number_items(n);
        let t_seq = {
            let s = Instant::now();
            let _ = snap_parallel::parallel_map(times_ten_ring(), items.clone(), 1).unwrap();
            s.elapsed()
        };
        let t_par = {
            let s = Instant::now();
            let _ = snap_parallel::parallel_map(times_ten_ring(), items, 4).unwrap();
            s.elapsed()
        };
        println!(
            "    n={n:<6} 1 worker {t_seq:>10.2?}   4 workers {t_par:>10.2?}   winner: {}",
            if t_par < t_seq {
                "parallel"
            } else {
                "sequential (overhead)"
            }
        );
    }
    println!();
}
