//! MapReduce word count (paper §3.4, Figs. 11–12).
//!
//! Runs the canonical word-count MapReduce as a block script (mapper
//! `[w, 1]`, summing reducer, input split from a string), then scales to
//! a generated corpus and compares one worker against many.
//!
//! ```sh
//! cargo run --release --example word_count
//! cargo run --release --example word_count -- --trace target/word_count_trace.json
//! cargo run --release --example word_count -- --serve-metrics 127.0.0.1:9300
//! ```
//!
//! With `--trace <path>`, span recording is enabled; the run prints its
//! `snap_trace::report()` table and writes a Chrome `trace_event` JSON
//! to `<path>` plus the report JSON to `<path>.report.json`. With
//! `--serve-metrics`, the process keeps re-running the MapReduce while
//! serving live `/metrics`, `/report.json`, and `/profile` (see
//! `examples/util/cli.rs`).

use std::sync::Arc;
use std::time::Instant;

use snap_core::data::{generate_words, reference_counts};
use snap_core::prelude::*;

#[path = "util/cli.rs"]
mod cli;

fn main() {
    let opts = cli::TraceOpts::from_args();
    // --- Figure 11: word count as blocks ----------------------------
    let sentence = "the quick brown fox jumps over the lazy dog the end";
    let project = Project::new("word-count").with_sprite(SpriteDef::new("Counter").with_script(
        Script::on_green_flag(vec![say(map_reduce(
            ring_reporter_with(vec!["w"], make_list(vec![var("w"), num(1.0)])),
            ring_reporter_with(
                vec!["vals"],
                combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
            ),
            split(text(sentence), text(" ")),
        ))]),
    ));
    let mut session = Session::load(project);
    session.run();
    println!("input : {sentence:?}");
    println!("output: {}", session.said()[0]);
    println!("        (sorted unique words with counts, as in Fig. 12)\n");

    // --- Scaling: a Zipf corpus, 1 worker vs many --------------------
    let n = 200_000;
    let words = generate_words(n, 42);
    let reference = reference_counts(&words);
    println!(
        "corpus: {n} Zipf-distributed words, {} unique",
        reference.len()
    );

    let mapper = Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ));
    let reducer = Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ));
    let items: Vec<Value> = words.iter().map(|w| Value::text(w.clone())).collect();

    let mut baseline = None;
    for workers in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let out = snap_core::parallel::map_reduce(
            mapper.clone(),
            reducer.clone(),
            items.clone(),
            workers,
        )
        .expect("word count runs");
        let elapsed = start.elapsed();
        let baseline_time = *baseline.get_or_insert(elapsed);
        println!(
            "  {workers} worker(s): {elapsed:>10.2?}  speedup {:.2}x  ({} keys)",
            baseline_time.as_secs_f64() / elapsed.as_secs_f64(),
            out.len()
        );
        // Validate against the reference counts.
        assert_eq!(out.len(), reference.len());
        for (pair, (word, count)) in out.iter().zip(&reference) {
            let pair = pair.as_list().expect("pair");
            assert_eq!(pair.item(1).unwrap().to_display_string(), *word);
            assert_eq!(pair.item(2).unwrap().to_number() as u64, *count);
        }
    }
    println!("all worker counts agree with the sequential reference");

    // --serve-metrics: keep the shuffle hot so a live scrape always has
    // fresh windowed percentiles for shuffle.merge_ns. The Zipf corpus's
    // combined pair stream stays under the parallel-shuffle threshold
    // (map-side combining collapses it to ~#unique keys), so the rerun
    // uses a high-cardinality corpus whose combined stream still crosses
    // it: 4 chunks × 700 keys ≥ PARALLEL_SHUFFLE_THRESHOLD.
    let hot_items: Vec<Value> = (0..3 * snap_core::parallel::PARALLEL_SHUFFLE_THRESHOLD)
        .map(|i| Value::text(format!("w{}", i % 700)))
        .collect();
    opts.serve_and_rerun(|| {
        let out =
            snap_core::parallel::map_reduce(mapper.clone(), reducer.clone(), hot_items.clone(), 4)
                .expect("word count runs");
        assert_eq!(out.len(), 700);
    });
    opts.finish();
}
